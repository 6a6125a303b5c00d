//! Machine-readable performance snapshot of the paper's workloads, and the
//! CI search-shape regression gate.
//!
//! Prints a JSON object with wall time, explored solver states, and the
//! states-per-second throughput for each formula of the Fig. 5a sweep plus an
//! aggregate, and — with `--sweeps` — the ε sweep of Fig. 5b/5c, the length
//! sweep of Fig. 5d, the shift-free tax sweep (per-state cost on formulas
//! with no translatable structure) and the Fig. 6 cross-chain protocol
//! lattices (two-party / three-party swap and auction scenario sets).
//! Streaming throughput (events/s, verdict latency) is measured end to end by
//! the separate `perfbench` package. The repository keeps outputs of this tool in
//! `BENCH_1.json` … `BENCH_5.json` so perf-focused PRs have hard
//! before/after numbers:
//!
//! ```text
//! cargo run --release --bin bench_snapshot -- [label] [--sweeps] > snapshot.json
//! ```
//!
//! Without `--sweeps` only the (fast) Fig. 5a series runs; `--protocols`
//! additionally runs just the protocol series (the CI smoke). Every sweep
//! also emits a one-line summary (state counts + throughput) to *stderr*, so
//! CI logs retain the headline numbers even when stdout is discarded.
//!
//! Two further modes drive the CI regression gate over the
//! machine-independent search-shape counters (see [`rvmtl_bench::pins`]):
//!
//! ```text
//! bench_snapshot --check [BENCH_PINS.json]        # exit 1 on counter drift
//! bench_snapshot --write-pins [BENCH_PINS.json]   # regenerate the budget
//! ```
//!
//! `--checkpoint-smoke` runs the recovery gate alone: every checkpoint
//! scenario is streamed with serialize-and-restore restarts at GC epochs,
//! and the process exits non-zero if any restarted run diverges from its
//! uninterrupted reference (the CI recovery smoke).
//!
//! `--scrape-check <file>` validates a scraped text exposition (as printed
//! by `examples/streaming.rs` or [`rvmtl_runtime::StreamMonitor::telemetry_text`]): every
//! line must parse as `name{labels} value` and the core runtime metric
//! families must be present (the CI telemetry smoke).
//!
//! `--wire-smoke` runs the wire-transport gate alone: every wire-replay
//! scenario captures its delivered schedule to a `.rvw` file and replays it
//! through `rvmtl-wire`, and the process exits non-zero if any replayed run
//! diverges from direct in-memory ingestion (the CI wire smoke).
//!
//! `--abtest` runs the solver-engine A/B comparison: the retained reference
//! recursion against the default work-stack engine on the `until_eps16` and
//! `always_eps16` shift-free fixtures, in *interleaved* rounds (reference
//! then work-stack within every round, so frequency scaling and scheduler
//! drift land on both engines equally — the honest protocol on a one-core
//! container) reporting min/median ns-per-state per engine and the speedup
//! ratio. The repository keeps its output in `BENCH_9.json`.

use rvmtl_bench::{
    blockchain_workloads, pins, sweep_monitor, sweep_points, BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON,
    DEFAULT_SEGMENTS,
};
use rvmtl_monitor::Monitor;
use rvmtl_monitor::MonitorConfig;
use std::time::Instant;

/// Measurement of monitoring `phi` over `comp`: returns
/// `(explored_states, seconds per run)`.
///
/// Sub-millisecond workloads are timed as blocks of enough iterations to
/// reach ~25 ms per block (best of 5 blocks, divided by the iteration
/// count), so scheduler noise and timer resolution do not dominate the
/// per-run figure.
fn measure_best(
    comp: &rvmtl_distrib::DistributedComputation,
    phi: &rvmtl_mtl::Formula,
    segments: usize,
) -> (usize, f64) {
    let monitor = sweep_monitor(segments);
    // One warm-up run yields the (deterministic) state count and calibrates
    // the block size.
    let started = Instant::now();
    let states = monitor.run(comp, phi).explored_states();
    let once = started.elapsed().as_secs_f64().max(1e-7);
    let iters = ((0.025 / once) as usize).clamp(1, 10_000);
    let mut best_secs = f64::MAX;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..iters {
            let _ = monitor.run(comp, phi);
        }
        let secs = started.elapsed().as_secs_f64() / iters as f64;
        if secs < best_secs {
            best_secs = secs;
        }
    }
    (states, best_secs)
}

/// The argument following `flag` (if any, and not itself a flag), or the
/// default pins path.
fn path_after(args: &[String], flag: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PINS.json".into())
}

/// `--check`: compare the current machine-independent counters of every
/// sweep against the committed budget file; any drift fails the process.
fn run_check(path: &str) -> ! {
    // Fail fast on a bad path or malformed budget before spending the
    // collection run.
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[bench] cannot read pin budget {path}: {e}");
            std::process::exit(1);
        }
    };
    let pinned = match pins::parse_pins(&text) {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("[bench] cannot parse pin budget {path}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("[bench] collecting search-shape counters for the pin check …");
    let current = pins::all_entries();
    let drift = pins::diff_pins(&current, &pinned);
    if drift.is_empty() {
        eprintln!(
            "[bench] search-shape counters match {path} ({} pinned values)",
            pinned.len(),
        );
        std::process::exit(0);
    }
    eprintln!(
        "[bench] search-shape drift against {path} ({} of {} values):",
        drift.len(),
        pinned.len().max(current.len())
    );
    for line in &drift {
        eprintln!("[bench]   {line}");
    }
    eprintln!(
        "[bench] if the change is intentional, regenerate the budget with \
         `cargo run --release --bin bench_snapshot -- --write-pins {path}` \
         and commit the diff"
    );
    std::process::exit(1);
}

/// `--checkpoint-smoke`: run every checkpoint scenario's
/// serialize-and-restore harness and fail the process on any divergence
/// between the restarted run and the uninterrupted reference.
fn run_checkpoint_smoke() -> ! {
    let mut failed = false;
    for case in rvmtl_bench::checkpoint_cases() {
        let run = rvmtl_bench::run_checkpoint_case(&case);
        let ok = run.recovered_identical();
        eprintln!(
            "[bench] checkpoint-smoke {}: {} restarts, {} snapshot bytes, {}",
            case.name,
            run.restarts,
            run.snapshot_bytes,
            if ok { "verdict-identical" } else { "DIVERGED" },
        );
        failed |= !ok || run.restarts == 0;
    }
    if failed {
        eprintln!("[bench] checkpoint-smoke FAILED: recovery is not verdict-identical");
        std::process::exit(1);
    }
    eprintln!("[bench] checkpoint-smoke passed");
    std::process::exit(0);
}

/// `--wire-smoke`: run every wire-replay scenario — the fault-storm
/// schedule captured to a `.rvw` file and drained back through
/// [`rvmtl_wire::WireSource`] — and fail the process if any replayed run
/// diverges from direct in-memory ingestion (the CI wire-transport gate;
/// see `docs/PROTOCOL.md` for the format under test).
fn run_wire_smoke() -> ! {
    let mut failed = false;
    for case in rvmtl_bench::wire_replay_cases() {
        let run = rvmtl_bench::run_wire_replay_case(&case);
        let ok = run.replay_identical() && run.stats.decode_errors == 0;
        eprintln!(
            "[bench] wire-smoke {}: {} frames, {} wire bytes, {} rejected, {}",
            case.name,
            run.stats.frames_total(),
            run.wire_bytes,
            run.stats.rejected,
            if ok { "verdict-identical" } else { "DIVERGED" },
        );
        failed |= !ok || run.wire_bytes == 0;
    }
    if failed {
        eprintln!("[bench] wire-smoke FAILED: wire replay is not verdict-identical");
        std::process::exit(1);
    }
    eprintln!("[bench] wire-smoke passed");
    std::process::exit(0);
}

/// `--scrape-check`: parse a scraped text exposition and fail the process on
/// any malformed line or missing core metric family.
fn run_scrape_check(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[bench] cannot read scraped exposition {path}: {e}");
            std::process::exit(1);
        }
    };
    let samples = match rvmtl_runtime::parse_exposition(&text) {
        Ok(samples) => samples,
        Err(e) => {
            eprintln!("[bench] scraped exposition {path} does not parse: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = samples.is_empty();
    if failed {
        eprintln!("[bench] scraped exposition {path} holds no samples");
    }
    for required in [
        "rvmtl_events_observed_total",
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
        "rvmtl_pending_obligations",
    ] {
        if !samples.iter().any(|s| s.name == required) {
            eprintln!("[bench] scraped exposition {path} is missing {required}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "[bench] scraped exposition {path} is well-formed ({} samples)",
        samples.len()
    );
    std::process::exit(0);
}

/// `--abtest`: interleaved A/B comparison of the two solver exploration
/// engines on the shift-free saturation fixtures. Both engines execute the
/// identical search (asserted on verdicts and explored-state counts before
/// any timing), so ns-per-state is the only axis that can differ; rounds are
/// interleaved so slow host-level drift cancels out of the comparison.
fn run_abtest() -> ! {
    use rvmtl_solver::ExploreEngine;
    const ROUNDS: usize = 9;
    const FIXTURES: [&str; 2] = ["until_eps16", "always_eps16"];
    let engine_monitor = |segments: usize, engine: ExploreEngine| {
        Monitor::new(if segments <= 1 {
            MonitorConfig::unsegmented().engine(engine)
        } else {
            MonitorConfig::with_segments(segments).engine(engine)
        })
    };
    let mut rows = Vec::new();
    for (name, comp, phi, segments) in rvmtl_bench::shift_free_workloads() {
        if !FIXTURES.contains(&name) {
            continue;
        }
        let reference = engine_monitor(segments, ExploreEngine::Reference);
        let work_stack = engine_monitor(segments, ExploreEngine::WorkStack);
        // Equality gate before any clock starts: a timing comparison between
        // engines that explore different searches would be meaningless.
        let ref_report = reference.run(&comp, &phi);
        let ws_report = work_stack.run(&comp, &phi);
        assert_eq!(
            ref_report.verdicts, ws_report.verdicts,
            "{name}: engines disagree on verdicts"
        );
        assert_eq!(
            ref_report.explored_states(),
            ws_report.explored_states(),
            "{name}: engines disagree on explored states"
        );
        let states = ws_report.explored_states();
        // Calibrate the block size on the reference (slower) engine so both
        // engines run identical iteration counts per round.
        let started = Instant::now();
        let _ = reference.run(&comp, &phi);
        let once = started.elapsed().as_secs_f64().max(1e-7);
        let iters = ((0.02 / once) as usize).clamp(1, 10_000);
        let mut ref_ns: Vec<f64> = Vec::with_capacity(ROUNDS);
        let mut ws_ns: Vec<f64> = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            for (times, monitor) in [(&mut ref_ns, &reference), (&mut ws_ns, &work_stack)] {
                let started = Instant::now();
                for _ in 0..iters {
                    let _ = monitor.run(&comp, &phi);
                }
                let secs = started.elapsed().as_secs_f64() / iters as f64;
                times.push(secs * 1e9 / states as f64);
            }
        }
        ref_ns.sort_by(f64::total_cmp);
        ws_ns.sort_by(f64::total_cmp);
        let (ref_min, ref_med) = (ref_ns[0], ref_ns[ROUNDS / 2]);
        let (ws_min, ws_med) = (ws_ns[0], ws_ns[ROUNDS / 2]);
        rows.push(format!(
            concat!(
                "    {{\"fixture\": \"{}\", \"explored_states\": {}, ",
                "\"iters_per_round\": {}, ",
                "\"reference_ns_per_state\": {{\"min\": {:.1}, \"median\": {:.1}}}, ",
                "\"work_stack_ns_per_state\": {{\"min\": {:.1}, \"median\": {:.1}}}, ",
                "\"speedup_min\": {:.3}, \"speedup_median\": {:.3}}}"
            ),
            name,
            states,
            iters,
            ref_min,
            ref_med,
            ws_min,
            ws_med,
            ref_min / ws_min,
            ref_med / ws_med,
        ));
        eprintln!(
            concat!(
                "[bench] abtest {}: reference {:.1}/{:.1} ns/state (min/median), ",
                "work_stack {:.1}/{:.1} ns/state, speedup x{:.2} (min) x{:.2} (median)"
            ),
            name,
            ref_min,
            ref_med,
            ws_min,
            ws_med,
            ref_min / ws_min,
            ref_med / ws_med,
        );
    }
    println!("{{");
    println!("  \"mode\": \"abtest\",");
    println!("  \"rounds\": {ROUNDS},");
    println!(
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("  \"series\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--abtest") {
        run_abtest();
    }
    if args.iter().any(|a| a == "--check") {
        run_check(&path_after(&args, "--check"));
    }
    if args.iter().any(|a| a == "--checkpoint-smoke") {
        run_checkpoint_smoke();
    }
    if args.iter().any(|a| a == "--wire-smoke") {
        run_wire_smoke();
    }
    if args.iter().any(|a| a == "--scrape-check") {
        run_scrape_check(&path_after(&args, "--scrape-check"));
    }
    if args.iter().any(|a| a == "--write-pins") {
        let path = path_after(&args, "--write-pins");
        eprintln!("[bench] collecting search-shape counters for {path} …");
        let entries = pins::all_entries();
        std::fs::write(&path, pins::format_pins(&entries)).expect("write pin budget");
        eprintln!("[bench] wrote {} pinned values to {path}", entries.len());
        return;
    }
    let sweeps = args.iter().any(|a| a == "--sweeps");
    let protocols = sweeps || args.iter().any(|a| a == "--protocols");
    let label = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "snapshot".into())
        .replace('\\', "\\\\")
        .replace('"', "\\\"");

    // All deterministic sweep points come from the single shared producer —
    // the same membership the `--check`/`--write-pins` gate collects, so a
    // sweep cannot be timed without being pinned or vice versa. Sweep
    // rationale lives with the fixtures in `rvmtl_bench`:
    //
    // * `fig5a` — the headline series, duration doubled above scheduler
    //   noise (always measured, even without `--sweeps`);
    // * `epsilon_sweep` — Fig. 5b, the axis the per-tick engine blew up on;
    // * `epsilon_saturation` — must go flat once ε exceeds the horizon;
    // * `epsilon_dense` — delayed-window formula, must go flat *below* the
    //   horizon (the shift-normal zone signature);
    // * `length_sweep` — Fig. 5d;
    // * `shift_free` — all windows at zero, the watermark never trips;
    //   `ns_per_state` is the figure the before/after comparison in
    //   `BENCH_5.json` tracks (explored-state counts are pinned unchanged by
    //   the `--check` gate, so the per-state cost ratio *is* the
    //   shift-normal tax).
    let mut rows = Vec::new();
    let mut epsilon_rows = Vec::new();
    let mut saturation_rows = Vec::new();
    let mut dense_rows = Vec::new();
    let mut length_rows = Vec::new();
    let mut shift_free_rows = Vec::new();
    let mut total_states = 0usize;
    let mut total_secs = 0f64;
    let mut summary: Vec<(&'static str, usize, f64)> = Vec::new();
    for p in sweep_points() {
        if !sweeps && p.sweep != "fig5a" {
            continue;
        }
        let (states, best_secs) = measure_best(&p.comp, &p.phi, p.segments);
        match summary.last_mut() {
            Some(row) if row.0 == p.sweep => {
                row.1 += states;
                row.2 += best_secs;
            }
            _ => summary.push((p.sweep, states, best_secs)),
        }
        let events = p.comp.event_count();
        match p.sweep {
            "fig5a" => {
                total_states += states;
                total_secs += best_secs;
                rows.push(format!(
                    concat!(
                        "    {{\"formula\": \"{}\", \"events\": {}, \"explored_states\": {}, ",
                        "\"wall_ms\": {:.3}, \"states_per_sec\": {:.0}}}"
                    ),
                    p.point,
                    events,
                    states,
                    best_secs * 1000.0,
                    states as f64 / best_secs
                ));
            }
            "epsilon_sweep" => epsilon_rows.push(format!(
                concat!(
                    "    {{\"epsilon\": {}, \"explored_states\": {}, \"wall_ms\": {:.3}, ",
                    "\"states_per_sec\": {:.0}}}"
                ),
                p.x,
                states,
                best_secs * 1000.0,
                states as f64 / best_secs
            )),
            "epsilon_saturation" => saturation_rows.push(format!(
                "    {{\"epsilon\": {}, \"explored_states\": {}, \"wall_ms\": {:.3}}}",
                p.x,
                states,
                best_secs * 1000.0,
            )),
            "epsilon_dense" => dense_rows.push(format!(
                "    {{\"epsilon\": {}, \"explored_states\": {}, \"wall_ms\": {:.3}}}",
                p.x,
                states,
                best_secs * 1000.0,
            )),
            "length_sweep" => length_rows.push(format!(
                concat!(
                    "    {{\"length\": {}, \"events\": {}, \"explored_states\": {}, ",
                    "\"wall_ms\": {:.3}}}"
                ),
                p.x,
                events,
                states,
                best_secs * 1000.0,
            )),
            "shift_free" => shift_free_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"explored_states\": {}, ",
                    "\"wall_ms\": {:.3}, \"states_per_sec\": {:.0}, \"ns_per_state\": {:.1}}}"
                ),
                p.point,
                events,
                states,
                best_secs * 1000.0,
                states as f64 / best_secs,
                best_secs * 1e9 / states as f64,
            )),
            other => unreachable!("unhandled sweep {other} — add a row format for it"),
        }
    }
    let point_count = |sweep: &str| -> usize {
        match sweep {
            "fig5a" => rows.len(),
            "epsilon_sweep" => epsilon_rows.len(),
            "epsilon_saturation" => saturation_rows.len(),
            "epsilon_dense" => dense_rows.len(),
            "length_sweep" => length_rows.len(),
            _ => shift_free_rows.len(),
        }
    };
    for (sweep, states, secs) in &summary {
        eprintln!(
            "[bench] {}: {} points, {} states, {:.3} ms, {:.0} states/s",
            sweep,
            point_count(sweep),
            states,
            secs * 1000.0,
            *states as f64 / secs
        );
    }

    // The Fig. 6 cross-chain protocol workloads (two-party / three-party
    // swap, auction scenario sets): tracked here so regressions on the
    // protocol lattices are pinned instead of only observable through the
    // unpinned `fig6_blockchain` bench bin.
    let mut protocol_rows = Vec::new();
    if protocols {
        let (mut sweep_states, mut sweep_secs, mut count) = (0usize, 0f64, 0usize);
        for (name, segments, comp, phi) in
            blockchain_workloads(BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON)
        {
            let (states, best_secs) = measure_best(&comp, &phi, segments.max(1));
            sweep_states += states;
            sweep_secs += best_secs;
            count += 1;
            protocol_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"segments\": {}, \"events\": {}, ",
                    "\"explored_states\": {}, \"wall_ms\": {:.3}}}"
                ),
                name.replace('"', "\\\""),
                segments.max(1),
                comp.event_count(),
                states,
                best_secs * 1000.0,
            ));
        }
        eprintln!(
            "[bench] fig6_protocols: {} workloads, {} states, {:.3} ms, {:.0} states/s",
            count,
            sweep_states,
            sweep_secs * 1000.0,
            sweep_states as f64 / sweep_secs
        );
    }

    // The fault-storm sweep: every adversarial-ingestion scenario of
    // `fault_storm_cases` streamed through the sequential runtime. The
    // counters (rejections, absorbed duplicates, shed events, explored
    // states) are deterministic and pinned by the `--check` gate; only the
    // wall clock is measured here.
    let mut fault_rows = Vec::new();
    if sweeps {
        let (mut sweep_states, mut sweep_secs, mut count) = (0usize, 0f64, 0usize);
        for case in rvmtl_bench::fault_storm_cases() {
            let started = Instant::now();
            let (report, faulted) = rvmtl_bench::run_fault_storm_case(&case);
            let secs = started.elapsed().as_secs_f64();
            sweep_states += report.stats.explored_states;
            sweep_secs += secs;
            count += 1;
            let h = report.health;
            fault_rows.push(format!(
                concat!(
                    "    {{\"case\": \"{}\", \"arrivals\": {}, \"explored_states\": {}, ",
                    "\"rejected\": {}, \"deduped\": {}, \"dropped\": {}, ",
                    "\"late_beyond_epsilon\": {}, \"wall_ms\": {:.3}}}"
                ),
                case.name,
                faulted.arrivals.len(),
                report.stats.explored_states,
                h.rejected,
                h.deduped,
                h.dropped,
                h.late_beyond_epsilon,
                secs * 1000.0,
            ));
            eprintln!("[bench]   fault_storm {}: health: {}", case.name, h);
        }
        eprintln!(
            "[bench] fault_storm: {} cases, {} states, {:.3} ms",
            count,
            sweep_states,
            sweep_secs * 1000.0,
        );
    }

    // The checkpoint sweep: every recovery scenario streamed through the
    // serialize-and-restore harness. Restart counts, snapshot sizes and
    // recovery identity are deterministic and pinned by the `--check` gate
    // (and gated alone by `--checkpoint-smoke`); only the wall clock — the
    // price of snapshotting at every GC epoch — is measured here.
    let mut checkpoint_rows = Vec::new();
    if sweeps {
        let (mut sweep_secs, mut count) = (0f64, 0usize);
        for case in rvmtl_bench::checkpoint_cases() {
            let started = Instant::now();
            let run = rvmtl_bench::run_checkpoint_case(&case);
            let secs = started.elapsed().as_secs_f64();
            sweep_secs += secs;
            count += 1;
            checkpoint_rows.push(format!(
                concat!(
                    "    {{\"case\": \"{}\", \"restarts\": {}, \"snapshot_bytes\": {}, ",
                    "\"recovered_identical\": {}, \"wall_ms\": {:.3}}}"
                ),
                case.name,
                run.restarts,
                run.snapshot_bytes,
                run.recovered_identical(),
                secs * 1000.0,
            ));
            eprintln!(
                "[bench]   checkpoint {}: health: {}",
                case.name, run.report.health
            );
        }
        eprintln!(
            "[bench] checkpoint_sweep: {} cases, {:.3} ms",
            count,
            sweep_secs * 1000.0,
        );
    }

    // The telemetry sweep: the canonical instrumented workload (the clean
    // fault-storm schedule with telemetry on). Count-shape metrics are
    // pinned by the `--check` gate; the timing histograms are wall-clock and
    // reported here only — the stderr lines put the health counters and the
    // busiest instruments (where the time went) into every CI log.
    let mut telemetry_rows = Vec::new();
    if sweeps {
        let started = Instant::now();
        let (report, kinds) = pins::run_telemetry_workload();
        let secs = started.elapsed().as_secs_f64();
        let snap = &report.telemetry;
        eprintln!(
            "[bench] telemetry: {:.3} ms instrumented, health: {}",
            secs * 1000.0,
            report.health
        );
        let mut hists: Vec<_> = snap.histograms.iter().filter(|h| h.count > 0).collect();
        hists.sort_by_key(|h| std::cmp::Reverse((h.sum, h.count)));
        for h in hists.iter().take(3) {
            eprintln!(
                concat!(
                    "[bench]   {}{}{}{}: count {}, sum {:.3} ms, ",
                    "p50 {} ns, p90 {} ns, p99 {} ns, max {} ns"
                ),
                h.name,
                if h.labels.is_empty() { "" } else { "{" },
                h.labels,
                if h.labels.is_empty() { "" } else { "}" },
                h.count,
                h.sum as f64 / 1e6,
                h.p50,
                h.p90,
                h.p99,
                h.max,
            );
        }
        let flight_events: u64 = kinds.iter().map(|(_, n)| n).sum();
        telemetry_rows.push(format!(
            concat!(
                "    {{\"events_observed\": {}, \"segments_processed\": {}, ",
                "\"gc_epochs\": {}, \"flight_events\": {}, \"exposition_samples\": {}, ",
                "\"wall_ms\": {:.3}}}"
            ),
            snap.counter("rvmtl_events_observed_total").unwrap_or(0),
            snap.counter("rvmtl_segments_processed_total").unwrap_or(0),
            snap.counter("rvmtl_gc_epochs_total").unwrap_or(0),
            flight_events,
            rvmtl_runtime::parse_exposition(&snap.to_prometheus())
                .map(|s| s.len())
                .unwrap_or(0),
            secs * 1000.0,
        ));
    }

    // The measurement host's core count, recorded with every snapshot.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("{{");
    println!("  \"label\": \"{label}\",");
    println!("  \"available_parallelism\": {cores},");
    println!("  \"workload\": \"fig5a synthetic (g = {DEFAULT_SEGMENTS})\",");
    println!("  \"series\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    if sweeps {
        println!("  \"epsilon_sweep\": [");
        println!("{}", epsilon_rows.join(",\n"));
        println!("  ],");
        println!("  \"epsilon_saturation\": [");
        println!("{}", saturation_rows.join(",\n"));
        println!("  ],");
        println!("  \"epsilon_dense\": [");
        println!("{}", dense_rows.join(",\n"));
        println!("  ],");
        println!("  \"length_sweep\": [");
        println!("{}", length_rows.join(",\n"));
        println!("  ],");
        println!("  \"shift_free\": [");
        println!("{}", shift_free_rows.join(",\n"));
        println!("  ],");
    }
    if protocols {
        println!("  \"fig6_protocols\": [");
        println!("{}", protocol_rows.join(",\n"));
        println!("  ],");
    }
    if sweeps {
        println!("  \"fault_storm\": [");
        println!("{}", fault_rows.join(",\n"));
        println!("  ],");
        println!("  \"checkpoint_sweep\": [");
        println!("{}", checkpoint_rows.join(",\n"));
        println!("  ],");
        println!("  \"telemetry\": [");
        println!("{}", telemetry_rows.join(",\n"));
        println!("  ],");
    }
    println!("  \"total_explored_states\": {total_states},");
    println!("  \"total_wall_ms\": {:.3},", total_secs * 1000.0);
    println!(
        "  \"states_per_sec\": {:.0}",
        total_states as f64 / total_secs
    );
    println!("}}");
}
