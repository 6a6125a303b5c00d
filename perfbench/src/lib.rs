//! End-to-end streaming benchmark of the rvmtl monitor.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric. [`run`] is the
//! whole benchmark for one workload and seed: generate the inputs, compute
//! the oracle's reference, replay the workload for the requested time, check
//! every replay's verdicts, and report the metrics.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod oracle;
pub mod replay;
pub mod workload;

use oracle::Reference;
use replay::{probe_segmenter, probe_wire, replay, stream_config, time_setup, Replay};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Replays per run, at the least, however short `--seconds` is.
const MIN_REPLAYS: usize = 3;
/// Timed monitor set-ups after each replay (`setup_s` is their median).
/// Spreading them over the run, like the replays, keeps a slow spell of the
/// host from deciding the whole figure.
const SETUPS_PER_REPLAY: usize = 50;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to keep replaying.
    pub seconds: f64,
    /// Report the per-layer metrics of traced replays instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Divides the stream length (1 is the benchmark size).
    pub scale: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every replay matched the reference (and the reference matched its
    /// pinned line, where the seed is pinned).
    pub correct: bool,
    /// Ingest calls attempted over every replay.
    pub attempted: u64,
    /// Ingest calls that failed over every replay.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (run summary, verdict problems, layer
    /// budget).
    pub lines: Vec<String>,
}

impl RunOutput {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct Checker<'r> {
    reference: &'r Reference,
    replays: u64,
    mismatched: u64,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    fn check(&mut self, r: &Replay) {
        self.replays += 1;
        self.mismatched += u64::from(&r.outcome != self.reference);
        self.attempted += r.attempted;
        self.failed += r.failed;
    }
}

/// Runs the benchmark once.
pub fn run(cfg: &RunConfig) -> RunOutput {
    let w = Workload::generate(cfg.kind, cfg.seed, cfg.scale);
    let reference = Reference::oracle(&w);
    let mut checker = Checker {
        reference: &reference,
        replays: 0,
        mismatched: 0,
        attempted: 0,
        failed: 0,
    };
    let mut problems = Vec::new();
    if cfg.scale == 1 {
        if let Some(pinned) = oracle::pinned(cfg.kind, cfg.seed) {
            if pinned != reference.line(cfg.kind, cfg.seed) {
                problems.push("oracle verdicts differ from the pinned reference.txt line".into());
            }
        }
    }
    // One unmeasured replay lets caches fill and lazy set-up finish; its
    // verdicts are checked like every other replay's.
    checker.check(&replay(&w, cfg.trace));
    checker.attempted = 0;
    checker.failed = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds.max(0.0));
    let (metrics, mut lines) = if cfg.trace {
        traced_run(&w, deadline, &mut checker)
    } else {
        untraced_run(&w, deadline, &mut checker)
    };
    lines.insert(
        0,
        format!(
            "workload {} seed {}: {} events delivered per replay, {} queries",
            cfg.kind.name(),
            cfg.seed,
            w.delivered.len(),
            w.queries.len()
        ),
    );
    if checker.mismatched > 0 {
        problems.push(format!(
            "{} of {} replays: verdicts or integrity tags differ from the reference",
            checker.mismatched, checker.replays
        ));
    }
    lines.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    RunOutput {
        correct: problems.is_empty(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        lines,
    }
}

fn untraced_run(
    w: &Workload,
    deadline: Instant,
    checker: &mut Checker<'_>,
) -> (Vec<Metric>, Vec<String>) {
    let config = stream_config(w, false);
    // Unmeasured, like the warm-up replay.
    calibrate::calibrate();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut slowdowns = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut setups = Vec::new();
    let mut arena_peak = 0;
    while rates.len() < MIN_REPLAYS || Instant::now() < deadline {
        // The host's slowdown right before the replay scales every time of
        // the replay and of the set-ups after it to reference speed.
        let slowdown = calibrate::slowdown();
        let r = replay(w, false);
        checker.check(&r);
        rates.push(r.events_per_s() * slowdown);
        raw_rates.push(r.events_per_s());
        slowdowns.push(slowdown);
        latencies.extend(
            r.latencies_ns
                .iter()
                .map(|&ns| (ns as f64 / slowdown).round() as u64),
        );
        arena_peak = arena_peak.max(r.arena_peak);
        for _ in 0..SETUPS_PER_REPLAY {
            setups.push(time_setup(w, &config).as_secs_f64() / slowdown);
        }
    }
    latencies.sort_unstable();
    let us = |q: f64| nearest_rank(&latencies, q) as f64 / 1_000.0;
    let metrics = vec![
        Metric {
            name: "events_per_s",
            value: median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "verdict_latency_p50_us",
            value: us(0.50),
            unit: "us",
        },
        Metric {
            name: "verdict_latency_p99_us",
            value: us(0.99),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "arena_peak_entries",
            value: arena_peak as f64,
            unit: "entries",
        },
    ];
    let lines = vec![
        format!(
            "{} replays; verdict latency over {} window-closing calls ({} per replay); \
             {} set-ups timed",
            rates.len(),
            latencies.len(),
            latencies.len() / rates.len(),
            setups.len()
        ),
        format!(
            "host slowdown against the reference: median {:.3} (min {:.3}, max {:.3}); \
             measured events/s before scaling: median {:.0}",
            median(&slowdowns),
            slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
            slowdowns.iter().copied().fold(0.0, f64::max),
            median(&raw_rates)
        ),
        format!(
            "error_rate {} ({} of {} ingest calls failed)",
            ratio(checker.failed as f64, checker.attempted as f64),
            checker.failed,
            checker.attempted
        ),
    ];
    (metrics, lines)
}

fn traced_run(
    w: &Workload,
    deadline: Instant,
    checker: &mut Checker<'_>,
) -> (Vec<Metric>, Vec<String>) {
    let mut traced: Vec<Replay> = Vec::new();
    let mut plain_walls = Vec::new();
    let mut segmenter = Vec::new();
    let mut wire = Vec::new();
    while traced.len() < MIN_REPLAYS || Instant::now() < deadline {
        let t = replay(w, true);
        checker.check(&t);
        traced.push(t);
        let u = replay(w, false);
        checker.check(&u);
        plain_walls.push(u.wall.as_secs_f64());
        segmenter.push(probe_segmenter(w));
        if w.wire.is_none() {
            wire.push(probe_wire(w));
        }
    }
    // The layer budget comes from the traced replay of median wall time, so
    // its parts add up to that replay's wall exactly.
    traced.sort_by_key(|r| r.wall);
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall.as_secs_f64()).collect();
    let t = &traced[traced.len() / 2];
    let s = t.spans.as_ref().expect("traced replays record spans");
    let h = s.hist;
    let ms = |ns: f64| ns / 1e6;
    let wall_ns = t.wall.as_nanos() as f64;
    let ingest_self = s.ingest_ns as f64 - h.batch_ns as f64 - h.gc_ns as f64;
    let batch_overhead = h.batch_ns as f64 - h.segment_ns as f64;
    let per_query = h.segment_ns as f64 - h.work_item_ns as f64;
    let checkpoint_ns = (s.encode_ns + s.restore_ns) as f64;
    let mut budget = vec![
        ("wire decode", s.decode_ns as f64),
        ("runtime ingest (self)", ingest_self),
        ("runtime batch overhead", batch_overhead),
        ("runtime per-query", per_query),
        ("solver work items", h.work_item_ns as f64),
        ("arena gc", h.gc_ns as f64),
        (
            "checkpoint encode + restore",
            if s.checkpoint_in_wall {
                checkpoint_ns
            } else {
                0.0
            },
        ),
    ];
    let attributed: f64 = budget.iter().map(|(_, ns)| ns).sum();
    budget.push(("unattributed", wall_ns - attributed));

    let probe = median_by(&segmenter, |p| ratio(p.ns as f64, p.events as f64));
    let seg = segmenter[0];
    let (decode_ns_per_frame, bytes_per_event) = match &w.wire {
        Some(bytes) => (
            ratio(s.decode_ns as f64, s.frames as f64),
            ratio(bytes.len() as f64, w.delivered.len() as f64),
        ),
        None => (
            median_by(&wire, |&(ns, frames, _)| ratio(ns as f64, frames as f64)),
            ratio(wire[0].2 as f64, w.delivered.len() as f64),
        ),
    };
    let overhead = median(&traced_walls) / median(&plain_walls) - 1.0;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("wire.decode_ns_per_frame", decode_ns_per_frame, "ns"),
        metric("wire.bytes_per_event", bytes_per_event, "bytes"),
        metric("segmenter.ns_per_event", probe, "ns"),
        metric("segmenter.segments_closed", seg.segments as f64, "count"),
        metric(
            "segmenter.empty_share",
            ratio(seg.empty as f64, seg.segments as f64),
            "ratio",
        ),
        metric(
            "segment.events_mean",
            ratio(seg.segment_events as f64, seg.segments as f64),
            "events",
        ),
        metric("segment.hb_pairs", seg.hb_pairs as f64, "count"),
        metric("runtime.batches", h.batches as f64, "count"),
        metric("runtime.batch_overhead_ms", ms(batch_overhead), "ms"),
        metric("runtime.per_query_ms", ms(per_query), "ms"),
        metric("runtime.ingest_self_ms", ms(ingest_self), "ms"),
        metric("solver.work_item_ms", ms(h.work_item_ns as f64), "ms"),
        metric("solver.explored_states", s.explored as f64, "count"),
        metric(
            "solver.ns_per_state",
            ratio(h.work_item_ns as f64, s.explored as f64),
            "ns",
        ),
        metric(
            "solver.memo_hit_ratio",
            ratio(s.memo_hits as f64, (s.memo_hits + s.explored) as f64),
            "ratio",
        ),
        metric("arena.gc_ms", ms(h.gc_ns as f64), "ms"),
        metric("arena.gc_epochs", s.gc_epochs as f64, "count"),
        metric("arena.peak_entries", t.arena_peak as f64, "entries"),
        metric("checkpoint.encode_ms", ms(s.encode_ns as f64), "ms"),
        metric("checkpoint.restore_ms", ms(s.restore_ns as f64), "ms"),
        metric(
            "checkpoint.bytes",
            ratio(s.checkpoint_bytes as f64, s.checkpoints as f64),
            "bytes",
        ),
        metric("obs.telemetry_overhead_share", overhead, "ratio"),
        metric(
            "budget.unattributed_share",
            ratio(wall_ns - attributed, wall_ns),
            "ratio",
        ),
        metric("budget.traced_wall_ms", ms(wall_ns), "ms"),
    ];

    let mut lines = vec![format!(
        "{} traced and {} untraced replays; layer budget of the median traced replay \
         (wall {:.3} ms):",
        traced.len(),
        plain_walls.len(),
        ms(wall_ns)
    )];
    for (layer, ns) in &budget {
        lines.push(format!(
            "  {layer:<28} {:>12.3} ms {:>7.2}%",
            ms(*ns),
            100.0 * ratio(*ns, wall_ns)
        ));
    }
    lines.push(format!(
        "  telemetry overhead: traced {:.3} ms vs untraced {:.3} ms (medians), {:+.2}%",
        1e3 * median(&traced_walls),
        1e3 * median(&plain_walls),
        100.0 * overhead
    ));
    lines.push(format!(
        "  outside the budget: segmenter probe {probe:.1} ns/event over {} segments{}{}",
        seg.segments,
        if w.wire.is_none() {
            format!("; wire decode probe {decode_ns_per_frame:.1} ns/frame")
        } else {
            String::new()
        },
        if s.checkpoint_in_wall {
            String::new()
        } else {
            format!(
                "; end-of-stream checkpoint probe {:.3} ms encode + {:.3} ms restore",
                ms(s.encode_ns as f64),
                ms(s.restore_ns as f64)
            )
        }
    ));
    lines.push(format!(
        "  {} checkpoints, {} solver states, {} batches, {} GC epochs",
        s.checkpoints, s.explored, h.batches, s.gc_epochs
    ));
    (metrics, lines)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The nearest-rank `q`-quantile of ascending `sorted` samples (0 when
/// empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
