//! The machine-independent search-shape budget behind the CI regression
//! gate (`bench_snapshot --check`).
//!
//! Container wall-clock is too noisy to gate on, but the solver's
//! *search-shape counters* — explored states, memo hits, interval splits,
//! merged time points, zone rewrites — and the verdict sets are exact,
//! deterministic functions of the workload on the sequential monitoring
//! path. This module evaluates every sweep of the benchmark suite once
//! (counters only, no timing loops) and flattens the results into
//! `"sweep/point/counter": value` entries; the committed `BENCH_PINS.json`
//! at the repository root holds the expected values, and CI fails on any
//! drift. A perf PR that intentionally changes search shapes regenerates the
//! file with `bench_snapshot --write-pins` — the diff then documents exactly
//! which sweeps moved, in the same commit that moved them.
//!
//! The JSON format is deliberately flat (one scalar per line) so the file
//! can be parsed by [`parse_pins`] without a JSON library and diffs stay
//! line-per-counter readable.

use crate::{
    blockchain_workloads, sweep_monitor, sweep_points, BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON,
};
use rvmtl_distrib::DistributedComputation;
use rvmtl_mtl::Formula;
use rvmtl_runtime::{StreamConfig, StreamEvent, StreamMonitor, StreamReport};
use rvmtl_solver::SolverStats;

/// The aggregated search-shape counters and verdict code of one sweep point.
#[derive(Debug, Clone)]
pub struct PinRow {
    /// `sweep/point` key prefix.
    pub key: String,
    /// Solver counters summed over every segment of the run.
    pub stats: SolverStats,
    /// Verdict-set code: bit 0 = may be satisfied, bit 1 = may be violated,
    /// bit 2 = some verdict still inconclusive.
    pub verdicts: u64,
}

/// Runs one workload on the sequential monitoring path and aggregates its
/// deterministic counters.
pub fn counter_sample(
    comp: &DistributedComputation,
    phi: &Formula,
    segments: usize,
) -> (SolverStats, u64) {
    let report = sweep_monitor(segments).run(comp, phi);
    let mut stats = SolverStats::default();
    for seg in &report.segments {
        stats.absorb(&seg.solver_stats);
    }
    let verdicts = report.verdicts.may_be_satisfied() as u64
        | (report.verdicts.may_be_violated() as u64) << 1
        | (report.verdicts.iter().any(|v| !v.is_conclusive()) as u64) << 2;
    (stats, verdicts)
}

/// Lower-cases a workload label into a stable `a-z0-9_-` pin key segment.
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            'a'..='z' | '0'..='9' | '-' | '_' => out.push(c),
            'A'..='Z' => out.push(c.to_ascii_lowercase()),
            ' ' => out.push('_'),
            _ => {}
        }
    }
    out.trim_matches('_').to_string()
}

/// Evaluates every deterministic sweep of the benchmark suite once and
/// returns one [`PinRow`] per sweep point. Membership comes from
/// [`crate::sweep_points`] — the same producer `bench_snapshot --sweeps`
/// times — plus the separately shared [`blockchain_workloads`].
pub fn pin_rows() -> Vec<PinRow> {
    let mut rows: Vec<PinRow> = Vec::new();
    let mut push = |key: String, comp: &DistributedComputation, phi: &Formula, segments: usize| {
        let (stats, verdicts) = counter_sample(comp, phi, segments);
        rows.push(PinRow {
            key,
            stats,
            verdicts,
        });
    };

    for p in sweep_points() {
        push(
            format!("{}/{}", p.sweep, p.point),
            &p.comp,
            &p.phi,
            p.segments,
        );
    }

    // The Fig. 6 cross-chain protocol lattices.
    for (label, segments, comp, phi) in blockchain_workloads(BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON) {
        push(
            format!("fig6/{}", slug(&label)),
            &comp,
            &phi,
            segments.max(1),
        );
    }

    rows
}

/// The `fault_storm` pin entries: every [`crate::fault_storm_cases`]
/// scenario run once on the sequential streaming path, flattened into the
/// solver's search-shape counters, the verdict code, and the runtime health
/// counters (rejections, absorbed duplicates, shed events). Injection is
/// seeded and ingestion is sequential, so every value is a pure function of
/// the workload — the same machine-independence contract as [`pin_rows`].
pub fn fault_entries() -> Vec<(String, u64)> {
    let mut entries = Vec::new();
    for case in crate::fault_storm_cases() {
        let (report, _faulted) = crate::run_fault_storm_case(&case);
        let key = format!("fault_storm/{}", case.name);
        let s = &report.stats;
        entries.push((format!("{key}/explored_states"), s.explored_states as u64));
        entries.push((format!("{key}/memo_hits"), s.memo_hits as u64));
        entries.push((format!("{key}/time_splits"), s.time_splits as u64));
        entries.push((
            format!("{key}/merged_time_points"),
            s.merged_time_points as u64,
        ));
        entries.push((
            format!("{key}/shift_normalized_nodes"),
            s.shift_normalized_nodes as u64,
        ));
        let v = &report.verdicts[0];
        let verdicts = v.may_be_satisfied() as u64
            | (v.may_be_violated() as u64) << 1
            | (v.iter().any(|x| !x.is_conclusive()) as u64) << 2;
        entries.push((format!("{key}/verdicts"), verdicts));
        let h = report.health;
        entries.push((format!("{key}/rejected"), h.rejected));
        entries.push((format!("{key}/deduped"), h.deduped));
        entries.push((format!("{key}/dropped"), h.dropped));
        entries.push((format!("{key}/late_beyond_epsilon"), h.late_beyond_epsilon));
    }
    entries.sort();
    entries
}

/// The `checkpoint` pin entries: every [`crate::checkpoint_cases`] scenario
/// run once through the serialize-and-restore harness
/// ([`crate::run_checkpoint_case`]). Pins the restart count, the snapshot
/// byte size (format + state-footprint growth shows up as drift), whether
/// the restarted run stayed observably identical to the uninterrupted
/// reference (`recovered_identical`, pinned at 1 — a 0 here means recovery
/// itself broke), and the restarted run's verdict code and absorption
/// counters. Same machine-independence contract as [`fault_entries`].
pub fn checkpoint_entries() -> Vec<(String, u64)> {
    let mut entries = Vec::new();
    for case in crate::checkpoint_cases() {
        let run = crate::run_checkpoint_case(&case);
        let key = format!("checkpoint/{}", case.name);
        entries.push((format!("{key}/restarts"), run.restarts));
        entries.push((format!("{key}/snapshot_bytes"), run.snapshot_bytes));
        entries.push((
            format!("{key}/recovered_identical"),
            run.recovered_identical() as u64,
        ));
        let v = &run.report.verdicts[0];
        let verdicts = v.may_be_satisfied() as u64
            | (v.may_be_violated() as u64) << 1
            | (v.iter().any(|x| !x.is_conclusive()) as u64) << 2;
        entries.push((format!("{key}/verdicts"), verdicts));
        let h = run.report.health;
        entries.push((format!("{key}/deduped"), h.deduped));
        entries.push((format!("{key}/dropped"), h.dropped));
    }
    entries.sort();
    entries
}

/// Runs the canonical telemetry workload: the clean fault-storm schedule
/// streamed with telemetry enabled and GC every 4 segments. Returns the final report (whose
/// [`StreamReport::telemetry`] snapshot carries every instrument) and the
/// flight recorder's full-lifecycle kind counts — the ring is sized far
/// above the event count, so nothing is overwritten and the counts are a
/// pure function of the workload.
pub fn run_telemetry_workload() -> (StreamReport, Vec<(String, u64)>) {
    let (comp, phi) = crate::fault_storm_workload();
    let clean = StreamEvent::schedule_of(&comp);
    let segment_length = (comp.duration().max(1) / crate::DEFAULT_SEGMENTS as u64).max(1);
    let config = StreamConfig::new(segment_length)
        .gc_interval(4)
        .with_telemetry()
        .flight_capacity(16_384);
    let mut monitor = StreamMonitor::new(comp.process_count(), comp.epsilon(), config);
    monitor.add_query(&phi);
    for e in &clean {
        monitor
            .observe(e.process, e.time, e.state.clone())
            .expect("the clean schedule is stream-legal");
    }
    // The recorder handle shares the ring, so reading it after `finish`
    // includes the tail segments and the stream-finished marker.
    let flight = monitor.flight_recorder().clone();
    let report = monitor.finish();
    let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for kind in flight.kinds() {
        *counts.entry(kind.name()).or_default() += 1;
    }
    let kinds = counts
        .into_iter()
        .map(|(name, count)| (name.to_string(), count))
        .collect();
    (report, kinds)
}

/// Builds one `telemetry/...` pin key, folding label pairs (quotes stripped)
/// into the path so keys stay valid flat-JSON strings.
fn telemetry_key(class: &str, name: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("telemetry/{class}/{name}")
    } else {
        format!("telemetry/{class}/{name}/{}", labels.replace('"', ""))
    }
}

/// The `telemetry` pin entries: every *count-shape* metric of the canonical
/// telemetry workload ([`run_telemetry_workload`]) — bridged counters,
/// population gauges, and the flight recorder's kind counts. Timing metrics
/// (`*_nanos*` instruments, histogram summaries) are wall-clock and are
/// deliberately excluded: they are reported by `bench_snapshot --sweeps`,
/// never pinned.
pub fn telemetry_entries() -> Vec<(String, u64)> {
    let (report, kinds) = run_telemetry_workload();
    let mut entries = Vec::new();
    for c in &report.telemetry.counters {
        if c.name.contains("_nanos") {
            continue;
        }
        entries.push((telemetry_key("counter", &c.name, &c.labels), c.value));
    }
    for g in &report.telemetry.gauges {
        entries.push((
            telemetry_key("gauge", &g.name, &g.labels),
            u64::try_from(g.value).unwrap_or(0),
        ));
    }
    for (kind, count) in kinds {
        entries.push((format!("telemetry/flight/{kind}"), count));
    }
    entries.sort();
    entries
}

/// Every gated entry: the batch sweep counters ([`pin_rows`] flattened) plus
/// the `fault_storm`, `checkpoint` and `telemetry` streaming counters,
/// sorted — exactly what `bench_snapshot --check` compares and
/// `--write-pins` writes.
pub fn all_entries() -> Vec<(String, u64)> {
    let mut entries = flatten(&pin_rows());
    entries.extend(fault_entries());
    entries.extend(checkpoint_entries());
    entries.extend(telemetry_entries());
    entries.sort();
    entries
}

/// Flattens pin rows into sorted `(key, value)` scalar entries — the unit of
/// comparison of the CI gate.
pub fn flatten(rows: &[PinRow]) -> Vec<(String, u64)> {
    let mut entries: Vec<(String, u64)> = Vec::with_capacity(rows.len() * 8);
    for row in rows {
        let s = &row.stats;
        entries.push((
            format!("{}/explored_states", row.key),
            s.explored_states as u64,
        ));
        entries.push((format!("{}/memo_hits", row.key), s.memo_hits as u64));
        entries.push((format!("{}/time_splits", row.key), s.time_splits as u64));
        entries.push((
            format!("{}/merged_time_points", row.key),
            s.merged_time_points as u64,
        ));
        entries.push((
            format!("{}/shift_normalized_nodes", row.key),
            s.shift_normalized_nodes as u64,
        ));
        entries.push((
            format!("{}/frontier_batches", row.key),
            s.frontier_batches as u64,
        ));
        entries.push((
            format!("{}/batched_probe_ticks", row.key),
            s.batched_probe_ticks as u64,
        ));
        entries.push((format!("{}/verdicts", row.key), row.verdicts));
    }
    entries.sort();
    entries
}

/// Serialises flat pin entries as the committed `BENCH_PINS.json` (a single
/// JSON object, one `"key": value` pair per line, keys sorted).
pub fn format_pins(entries: &[(String, u64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat `BENCH_PINS.json` object back into `(key, value)` entries.
/// Accepts exactly the shape [`format_pins`] writes (a single object of
/// string-keyed unsigned integers, any whitespace); anything else is an
/// error naming the offending position.
pub fn parse_pins(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut entries = Vec::new();
    let mut chars = text.char_indices().peekable();
    let mut seen_open = false;
    let mut seen_close = false;
    while let Some((pos, c)) = chars.next() {
        match c {
            c if c.is_whitespace() || c == ',' => {}
            '{' if !seen_open => seen_open = true,
            '}' if seen_open && !seen_close => seen_close = true,
            '"' if seen_open && !seen_close => {
                let mut key = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, '\\')) => return Err(format!("escape in key at byte {pos}")),
                        Some((_, k)) => key.push(k),
                        None => return Err(format!("unterminated key at byte {pos}")),
                    }
                }
                // Expect a colon, then an unsigned integer.
                loop {
                    match chars.peek() {
                        Some(&(_, w)) if w.is_whitespace() => {
                            chars.next();
                        }
                        Some(&(_, ':')) => {
                            chars.next();
                            break;
                        }
                        other => {
                            return Err(format!("expected ':' after \"{key}\", got {other:?}"))
                        }
                    }
                }
                let mut digits = String::new();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_whitespace() && digits.is_empty() {
                        chars.next();
                    } else if d.is_ascii_digit() {
                        digits.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if digits.is_empty() {
                    return Err(format!("expected integer value for \"{key}\""));
                }
                let value: u64 = digits
                    .parse()
                    .map_err(|e| format!("value of \"{key}\": {e}"))?;
                entries.push((key, value));
            }
            other => return Err(format!("unexpected character {other:?} at byte {pos}")),
        }
    }
    if !seen_open || !seen_close {
        return Err("not a JSON object".into());
    }
    Ok(entries)
}

/// Compares current entries against the committed budget. Returns
/// human-readable drift lines (empty = pass): value drifts, keys missing
/// from the budget (new sweep points that must be pinned) and stale budget
/// keys (sweep points that no longer exist).
pub fn diff_pins(current: &[(String, u64)], pinned: &[(String, u64)]) -> Vec<String> {
    use std::collections::BTreeMap;
    let current: BTreeMap<&str, u64> = current.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let pinned: BTreeMap<&str, u64> = pinned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut drift = Vec::new();
    for (key, &want) in &pinned {
        match current.get(key) {
            Some(&got) if got == want => {}
            Some(&got) => drift.push(format!("drift  {key}: pinned {want}, got {got}")),
            None => drift.push(format!("stale  {key}: pinned {want}, sweep point gone")),
        }
    }
    for (key, &got) in &current {
        if !pinned.contains_key(key) {
            drift.push(format!("unpinned  {key}: got {got}, add it to the budget"));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_roundtrip_through_format_and_parse() {
        let entries = vec![
            ("a/explored_states".to_string(), 7u64),
            ("b c/verdicts".to_string(), 3u64),
        ];
        let text = format_pins(&entries);
        assert_eq!(parse_pins(&text).unwrap(), entries);
        assert!(parse_pins("{}").unwrap().is_empty());
        assert!(parse_pins("[1, 2]").is_err());
        assert!(parse_pins("{\"k\": -1}").is_err());
    }

    #[test]
    fn diff_reports_drift_stale_and_unpinned() {
        let pinned = vec![("a".into(), 1u64), ("b".into(), 2u64), ("c".into(), 3u64)];
        let current = vec![("a".into(), 1u64), ("b".into(), 9u64), ("d".into(), 4u64)];
        let drift = diff_pins(&current, &pinned);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift.iter().any(|l| l.contains("drift  b")));
        assert!(drift.iter().any(|l| l.contains("stale  c")));
        assert!(drift.iter().any(|l| l.contains("unpinned  d")));
        assert!(diff_pins(&pinned.clone(), &pinned).is_empty());
    }

    #[test]
    fn counter_sample_is_deterministic() {
        let comp = crate::saturation_computation(4);
        let phi = rvmtl_mtl::parse("a U[0,6) b").unwrap();
        let a = counter_sample(&comp, &phi, 1);
        let b = counter_sample(&comp, &phi, 1);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert!(a.0.explored_states > 0);
    }

    #[test]
    fn slugs_are_stable_and_clean() {
        assert_eq!(
            slug("2-party conforming (14 events)"),
            "2-party_conforming_14_events"
        );
        assert_eq!(slug("Auction cheating"), "auction_cheating");
    }
}
