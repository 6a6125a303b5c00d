//! Telemetry determinism suite (the observability contract of the crate
//! docs): count-shape metrics and the flight recorder's kind sequence are
//! pure functions of the stream and its batching — identical across
//! repeated runs, across the flush-depth and backpressure drain paths, and
//! (for checkpointed state) across serialize/restore — while timing values
//! are asserted only monotone/nonzero, never for specific values.

use rvmtl_runtime::{
    parse_exposition, FlightKind, FlightRecorder, StreamConfig, StreamMonitor, StreamReport,
    TelemetrySnapshot,
};

/// A deterministic 2-process event feed long enough to close many segments
/// and cycle GC a few times.
fn feed() -> Vec<(usize, u64, rvmtl_mtl::State)> {
    use rvmtl_mtl::state;
    (0..60u64)
        .map(|k| {
            let label = if k % 3 == 0 { "a" } else { "b" };
            ((k % 2) as usize, 1 + k, state![label])
        })
        .collect()
}

/// Streams the canonical feed under `config`, returning the report and the
/// full flight kind sequence (the recorder handle shares the ring, so the
/// sequence includes the tail segments and the stream-finished marker).
fn run(config: StreamConfig) -> (StreamReport, Vec<FlightKind>) {
    let mut monitor = StreamMonitor::new(2, 1, config);
    monitor.add_query(&rvmtl_mtl::parse("G[0,inf) (a -> F[0,4) b)").unwrap());
    monitor.add_query(&rvmtl_mtl::parse("F[0,50) a").unwrap());
    for (p, t, s) in feed() {
        monitor.observe(p, t, s).unwrap();
    }
    let flight = monitor.flight_recorder().clone();
    let report = monitor.finish();
    (report, flight.kinds())
}

/// The path-invariant counter subset: every bridged count metric that is a
/// pure function of the *stream* and its drain points (not of which ingestion
/// rule triggered a drain).
fn invariant_counters(snap: &TelemetrySnapshot) -> Vec<(String, u64)> {
    const INVARIANT: &[&str] = &[
        "rvmtl_events_observed_total",
        "rvmtl_heartbeats_total",
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
        "rvmtl_events_rejected_total",
        "rvmtl_events_deduped_total",
        "rvmtl_events_dropped_total",
        "rvmtl_events_late_total",
        "rvmtl_worker_panics_total",
        "rvmtl_checkpoints_written_total",
        "rvmtl_checkpoint_failures_total",
        "rvmtl_flight_events_recorded_total",
    ];
    snap.counters
        .iter()
        .filter(|c| INVARIANT.contains(&c.name.as_str()))
        .map(|c| (format!("{}{{{}}}", c.name, c.labels), c.value))
        .collect()
}

#[test]
fn count_metrics_and_flight_sequence_match_across_paths() {
    // Batches of four segments, drained once by the flush depth and once by
    // the backpressure bound (flush depth out of reach): batching shape is
    // configuration, and with the drain points held fixed the kind sequence
    // must not depend on which ingestion rule triggered the drains.
    let flushed = run(StreamConfig::new(5)
        .gc_interval(3)
        .flush_depth(4)
        .with_telemetry());
    let forced = run(StreamConfig::new(5)
        .gc_interval(3)
        .flush_depth(1_000)
        .max_queued_segments(4)
        .with_telemetry());
    assert!(forced.0.health.backpressure_stalls > 0);
    assert_eq!(flushed.0.health.backpressure_stalls, 0);
    assert_eq!(flushed.1, forced.1);
    assert!(!flushed.1.is_empty());
    assert_eq!(
        invariant_counters(&flushed.0.telemetry),
        invariant_counters(&forced.0.telemetry)
    );
    // Per-query pending-obligation gauges are stream state, path-invariant.
    let pending = |snap: &TelemetrySnapshot| -> Vec<(String, i64)> {
        snap.gauges
            .iter()
            .filter(|g| g.name == "rvmtl_pending_obligations")
            .map(|g| (g.labels.clone(), g.value))
            .collect()
    };
    assert_eq!(pending(&flushed.0.telemetry), pending(&forced.0.telemetry));
    assert_eq!(flushed.0.verdicts, forced.0.verdicts);
}

#[test]
fn cache_and_solver_counters_repeat_exactly_on_the_same_path() {
    // Under one configuration *every* count-shape metric is deterministic,
    // including the progression-cache hit/miss tallies and solver counters
    // the cross-path test leaves out.
    let strip_timing = |snap: &TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|c| !c.name.contains("_nanos"))
            .map(|c| (format!("{}{{{}}}", c.name, c.labels), c.value))
            .collect()
    };
    let a = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let b = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    assert_eq!(strip_timing(&a.0.telemetry), strip_timing(&b.0.telemetry));
    assert!(a
        .0
        .telemetry
        .counter("rvmtl_one_cache_hits_total")
        .is_some());
    let gauges = |snap: &TelemetrySnapshot| snap.gauges.clone();
    assert_eq!(gauges(&a.0.telemetry), gauges(&b.0.telemetry));
}

#[test]
fn checkpointed_counters_survive_restore() {
    let config = StreamConfig::new(5).gc_interval(3).with_telemetry();
    let events = feed();
    let phi = rvmtl_mtl::parse("G[0,inf) (a -> F[0,4) b)").unwrap();

    let mut reference = StreamMonitor::new(2, 1, config.clone());
    reference.add_query(&phi);
    for (p, t, s) in &events {
        reference.observe(*p, *t, s.clone()).unwrap();
    }
    let uninterrupted = reference.finish();

    // Serialize and restore at a GC boundary (snapshots are epoch-aligned:
    // `since_gc` is deliberately not checkpointed), then continue.
    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    monitor.add_query(&phi);
    let mut restarted = false;
    for (p, t, s) in &events {
        monitor.observe(*p, *t, s.clone()).unwrap();
        if !restarted && monitor.gc_runs() == 2 {
            let bytes = monitor.checkpoint_bytes();
            monitor = StreamMonitor::restore_from_bytes(&bytes, config.clone()).unwrap();
            restarted = true;
        }
    }
    assert!(restarted, "the feed must cross two GC epochs");
    let restored = monitor.finish();

    // Checkpointed counters continue exactly; verdicts stay identical.
    for name in [
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
        "rvmtl_events_rejected_total",
        "rvmtl_worker_panics_total",
    ] {
        assert_eq!(
            uninterrupted.telemetry.counter(name),
            restored.telemetry.counter(name),
            "{name} diverged across restore"
        );
    }
    assert_eq!(uninterrupted.verdicts, restored.verdicts);
}

#[test]
fn timing_instruments_are_monotone_and_nonzero_when_enabled() {
    let (report, _) = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let snap = &report.telemetry;
    for name in [
        "rvmtl_segment_solve_nanos",
        "rvmtl_batch_solve_nanos",
        "rvmtl_work_item_nanos",
        "rvmtl_event_to_verdict_nanos",
        "rvmtl_gc_pause_nanos",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} must be registered"));
        assert!(h.count > 0, "{name} recorded no samples");
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99, "{name} quantile order");
        assert!(h.p99 <= h.max, "{name} p99 above max");
        assert!(h.max > 0, "{name} samples are all zero");
        assert!(h.sum >= h.max, "{name} sum below max");
    }
    // One verdict-latency family member per registered query.
    let latency: Vec<_> = snap
        .histograms
        .iter()
        .filter(|h| h.name == "rvmtl_verdict_latency_nanos")
        .collect();
    assert_eq!(latency.len(), 2);
    assert!(latency.iter().all(|h| h.count > 0));
}

#[test]
fn disabled_telemetry_still_bridges_count_metrics() {
    let enabled = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let disabled = run(StreamConfig::new(5).gc_interval(3));
    // No registry instruments, no flight events …
    assert!(disabled.0.telemetry.histograms.is_empty());
    assert!(disabled.1.is_empty());
    assert_eq!(
        disabled
            .0
            .telemetry
            .counter("rvmtl_flight_events_recorded_total"),
        Some(0)
    );
    // … but the state-derived counters are exact and match the enabled run.
    for name in [
        "rvmtl_events_observed_total",
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
    ] {
        assert_eq!(
            disabled.0.telemetry.counter(name),
            enabled.0.telemetry.counter(name),
            "{name}"
        );
        assert!(disabled.0.telemetry.counter(name).unwrap() > 0, "{name}");
    }
}

#[test]
fn exposition_round_trips_and_groups_types() {
    let (report, _) = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let text = report.telemetry.to_prometheus();
    let samples = parse_exposition(&text).expect("exposition must parse");
    assert!(samples.len() > 30, "{}", samples.len());
    // Sorted snapshots mean each family gets exactly one # TYPE line.
    let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
    let mut deduped = type_lines.clone();
    deduped.dedup();
    assert_eq!(type_lines, deduped, "a family was split across TYPE lines");
}

#[test]
fn flight_ring_never_reallocates_and_wraps_coherently() {
    // Fuzz-style sweep over awkward capacities and overwrite volumes: the
    // backing buffer must keep its original allocation and the retained
    // window must always be the contiguous newest-`capacity` suffix.
    for capacity in [1usize, 2, 3, 5, 8, 13, 64, 1000] {
        let recorder = FlightRecorder::with_capacity(capacity);
        let allocated = recorder.allocated_capacity();
        assert!(allocated >= capacity);
        let total = capacity * 7 + 3;
        for i in 0..total {
            recorder.record(FlightKind::SolveStart { base: i as u64 });
            assert_eq!(
                recorder.allocated_capacity(),
                allocated,
                "ring reallocated at capacity {capacity}, event {i}"
            );
        }
        let events = recorder.events();
        assert_eq!(events.len(), capacity);
        assert_eq!(recorder.recorded(), total as u64);
        // Sequence numbers are the contiguous suffix [total - capacity, total).
        assert_eq!(events[0].seq, (total - capacity) as u64);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        // Payloads rode along with their sequence numbers.
        assert!(events
            .iter()
            .all(|e| e.kind == FlightKind::SolveStart { base: e.seq }));
    }
}
