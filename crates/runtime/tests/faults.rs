//! Adversarial ingestion: the fault-injection differential suite.
//!
//! Every test drives the [`StreamMonitor`] with a deterministically faulted
//! delivery schedule ([`FaultInjector`], fixed seeds — a failure message
//! always names the seed that reproduces it) and pins the defined
//! degradation semantics of the crate docs' fault table:
//!
//! * under [`FaultPolicy::Dedup`], a duplicated stream is verdict-identical
//!   to the clean stream, with the duplicates counted;
//! * under [`FaultPolicy::BestEffort`], verdicts equal a clean run of the
//!   surviving sub-stream, with drops and late arrivals counted;
//! * a panicking obligation degrades exactly its own query, whether
//!   segments are processed one at a time or in flush batches;
//! * under [`FaultPolicy::Strict`] (the default), a faulted schedule either
//!   errors or produces verdicts identical to the accepted sub-schedule —
//!   rejected calls leave the monitor unchanged.

use rvmtl_distrib::testgen::gen_computation;
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::{parse, state, Formula};
use rvmtl_prng::StdRng;
use rvmtl_runtime::{
    FaultConfig, FaultInjector, FaultPolicy, Integrity, StreamConfig, StreamEvent, StreamMonitor,
    StreamReport,
};

/// A two-process stream with interleaved request/acknowledge activity —
/// enough segments and pending rewrites to exercise flush batches and GC.
fn alternating_events(n: u64) -> Vec<StreamEvent> {
    (0..n)
        .map(|k| StreamEvent {
            process: (k % 2) as usize,
            time: 1 + k,
            state: state![if k % 3 == 0 { "a" } else { "b" }],
        })
        .collect()
}

fn queries() -> Vec<Formula> {
    vec![
        parse("G[0,inf) (a -> F[0,4) b)").unwrap(),
        parse("F[0,20) b").unwrap(),
    ]
}

/// The three processing configurations every differential must hold on.
fn configs() -> Vec<(&'static str, StreamConfig)> {
    vec![
        ("per-segment", StreamConfig::new(4)),
        ("batched", StreamConfig::new(4).flush_depth(4)),
        ("gc-every-segment", StreamConfig::new(4).gc_interval(1)),
    ]
}

/// Runs `events` through a fresh monitor; every observation must be accepted
/// under the configured policy.
fn run_accepting(
    events: &[StreamEvent],
    formulas: &[Formula],
    processes: usize,
    epsilon: u64,
    config: StreamConfig,
) -> StreamReport {
    let mut monitor = StreamMonitor::new(processes, epsilon, config);
    for phi in formulas {
        monitor.add_query(phi);
    }
    for e in events {
        monitor
            .observe(e.process, e.time, e.state.clone())
            .unwrap_or_else(|err| panic!("policy must accept ({}, {}): {err}", e.process, e.time));
    }
    monitor.finish()
}

#[test]
fn dedup_duplicated_stream_is_verdict_identical_to_clean() {
    let clean = alternating_events(30);
    let faulted = FaultInjector::new(0xD5EED, FaultConfig::duplicates(0.35)).inject(&clean);
    assert!(
        faulted.duplicated > 0,
        "the fixture must actually duplicate"
    );
    let delivered: Vec<StreamEvent> = faulted.events().cloned().collect();

    for (name, config) in configs() {
        let reference = run_accepting(&clean, &queries(), 2, 1, config.clone());
        let report = run_accepting(
            &delivered,
            &queries(),
            2,
            1,
            config.fault_policy(FaultPolicy::Dedup),
        );
        assert_eq!(
            report.verdicts, reference.verdicts,
            "[{name}] seed {}: dedup verdicts must match the clean stream",
            faulted.seed
        );
        assert_eq!(
            report.pending, reference.pending,
            "[{name}] seed {}: dedup pending sets must match the clean stream",
            faulted.seed
        );
        assert_eq!(report.health.deduped, faulted.duplicated, "[{name}]");
        assert_eq!(report.health.rejected, 0, "[{name}]");
        assert_eq!(report.health.dropped, 0, "[{name}]");
        assert_eq!(report.health.worker_panics, 0, "[{name}]");
        let expected = Integrity::from_counters(0, faulted.duplicated, 0, 0);
        for (q, tag) in report.integrity.iter().enumerate() {
            assert_eq!(*tag, expected, "[{name}] query {q}");
        }
        assert!(
            reference.integrity.iter().all(Integrity::is_exact) && reference.health.is_healthy(),
            "[{name}] the clean run must stay exact"
        );
    }
}

#[test]
fn best_effort_equals_clean_run_of_surviving_substream() {
    let clean = alternating_events(30);
    let config = FaultConfig {
        drop_rate: 0.2,
        duplicate_rate: 0.0,
        delay_rate: 0.25,
        max_delay_slots: 4,
    };
    let faulted = FaultInjector::new(0xBE57, config).inject(&clean);
    assert!(
        faulted.dropped > 0 && faulted.delayed > 0,
        "fixture too tame"
    );
    let delivered: Vec<StreamEvent> = faulted.events().cloned().collect();
    let surviving = faulted.surviving();
    assert!(
        surviving.len() < delivered.len(),
        "some arrival must be shed"
    );

    for (name, stream_config) in configs() {
        let reference = run_accepting(&surviving, &queries(), 2, 1, stream_config.clone());
        let report = run_accepting(
            &delivered,
            &queries(),
            2,
            1,
            stream_config.fault_policy(FaultPolicy::BestEffort),
        );
        assert_eq!(
            report.verdicts, reference.verdicts,
            "[{name}] seed {}: best-effort verdicts must equal the surviving sub-stream's",
            faulted.seed
        );
        assert_eq!(
            report.pending, reference.pending,
            "[{name}] seed {}: best-effort pending sets must equal the surviving sub-stream's",
            faulted.seed
        );
        // Everything delivered either survived or was counted shed.
        assert_eq!(
            report.health.dropped + report.health.late_beyond_epsilon,
            (delivered.len() - surviving.len()) as u64,
            "[{name}] seed {}",
            faulted.seed
        );
        assert_eq!(report.health.deduped, 0, "[{name}]");
        assert_eq!(report.health.rejected, 0, "[{name}]");
        let expected = Integrity::from_counters(
            report.health.dropped,
            0,
            report.health.late_beyond_epsilon,
            0,
        );
        assert!(!expected.is_exact(), "[{name}] shedding must degrade");
        for (q, tag) in report.integrity.iter().enumerate() {
            assert_eq!(*tag, expected, "[{name}] query {q}");
        }
    }
}

#[test]
fn panic_is_isolated_to_its_query() {
    // The reserved `__panic__` atom makes the solver panic at progression
    // entry (the `test-panic` feature, enabled by this crate's
    // dev-dependencies). The panicking query must lose exactly its own
    // obligation; its neighbour must verdict exactly as if monitored alone.
    let clean = alternating_events(30);
    let normal = parse("G[0,inf) (a -> F[0,4) b)").unwrap();
    let poison = Formula::atom("__panic__");

    for (name, config) in [
        ("per-segment", StreamConfig::new(4)),
        ("batched", StreamConfig::new(4).flush_depth(4)),
    ] {
        let reference = run_accepting(&clean, std::slice::from_ref(&normal), 2, 1, config.clone());
        let report = run_accepting(&clean, &[normal.clone(), poison.clone()], 2, 1, config);
        assert_eq!(
            report.health.worker_panics, 1,
            "[{name}] exactly one obligation panics (then has nothing left to progress)"
        );
        assert_eq!(
            report.verdicts[0], reference.verdicts[0],
            "[{name}] the healthy query must be untouched"
        );
        assert!(
            report.integrity[0].is_exact(),
            "[{name}] the healthy query stays exact: {}",
            report.integrity[0]
        );
        assert_eq!(
            report.integrity[1],
            Integrity::from_counters(0, 0, 0, 1),
            "[{name}]"
        );
        assert_eq!(
            report.verdicts[1].pending_formulas(),
            vec![&poison],
            "[{name}] the lost obligation is reported inconclusive"
        );
    }
}

#[test]
fn rejected_and_stall_counters_surface_in_health() {
    // Rejections: a strict monitor counts them and stays exact.
    let mut monitor = StreamMonitor::new(1, 0, StreamConfig::new(4));
    let q = monitor.add_query(&parse("F[0,20) b").unwrap());
    monitor.observe(0, 5, state!["a"]).unwrap();
    monitor
        .observe(0, 3, state!["a"])
        .expect_err("out of order is an error under Strict");
    assert_eq!(monitor.health().rejected, 1);
    assert!(monitor.current_integrity(q).is_exact());
    assert_eq!(monitor.health().degradations(), 0);

    // Conflicting simultaneity is an error even under the lenient policies
    // (and is counted as a rejection, not a degradation).
    let mut lenient = StreamMonitor::new(
        1,
        0,
        StreamConfig::new(4).fault_policy(FaultPolicy::BestEffort),
    );
    let q_lenient = lenient.add_query(&parse("F[0,20) b").unwrap());
    lenient.observe(0, 5, state!["a"]).unwrap();
    lenient
        .observe(0, 5, state!["b"])
        .expect_err("same instant, different state never passes");
    assert_eq!(lenient.health().rejected, 1);
    assert!(lenient.current_integrity(q_lenient).is_exact());

    // Backpressure: a queue bound far below the flush depth forces stalls.
    let config = StreamConfig::new(2)
        .flush_depth(1_000_000)
        .max_queued_segments(2);
    let mut monitor = StreamMonitor::new(1, 0, config);
    monitor.add_query(&parse("G[0,inf) (tick -> F[0,4) tock)").unwrap());
    for round in 0..40u64 {
        let label = if round % 2 == 0 { "tick" } else { "tock" };
        monitor.observe(0, 1 + round * 2, state![label]).unwrap();
    }
    let health = monitor.health();
    assert!(
        health.backpressure_stalls > 0,
        "the bound must have forced flushes: {health}"
    );
    assert_eq!(health.degradations(), 0, "stalls do not degrade verdicts");
}

#[test]
fn strict_fault_schedules_error_or_match_accepted_prefix() {
    // Property: under Strict, feeding any faulted schedule is equivalent to
    // feeding exactly the accepted sub-schedule — every rejection leaves the
    // monitor unchanged, and the final verdicts are exact.
    let mut rng = StdRng::seed_from_u64(0x57121C7);
    let gen_cfg = GenConfig::default();
    for case in 0..25 {
        let comp = gen_computation(&mut rng);
        let phi = gen_formula(&mut rng, &gen_cfg);
        let fault_seed = rng.next_u64();
        let clean = StreamEvent::schedule_of(&comp);
        let faulted = FaultInjector::new(fault_seed, FaultConfig::storm()).inject(&clean);

        let mut monitor =
            StreamMonitor::new(comp.process_count(), comp.epsilon(), StreamConfig::new(3));
        let q = monitor.add_query(&phi);
        let mut accepted: Vec<StreamEvent> = Vec::new();
        let mut rejections = 0u64;
        for e in faulted.events() {
            match monitor.observe(e.process, e.time, e.state.clone()) {
                Ok(()) => accepted.push(e.clone()),
                Err(_) => rejections += 1,
            }
        }
        assert!(
            monitor.current_integrity(q).is_exact(),
            "case {case}, fault seed {fault_seed}: Strict never degrades"
        );
        let report = monitor.finish();
        assert_eq!(
            report.health.rejected, rejections,
            "case {case}, fault seed {fault_seed}"
        );
        assert_eq!(report.health.degradations(), 0, "case {case}");

        let mut reference =
            StreamMonitor::new(comp.process_count(), comp.epsilon(), StreamConfig::new(3));
        let q_ref = reference.add_query(&phi);
        for e in &accepted {
            reference
                .observe(e.process, e.time, e.state.clone())
                .unwrap_or_else(|err| {
                    panic!(
                        "case {case}, fault seed {fault_seed}: accepted events must replay: {err}"
                    )
                });
        }
        let expected = reference.finish();
        assert_eq!(
            report.verdicts[q.index()],
            expected.verdicts[q_ref.index()],
            "case {case}, fault seed {fault_seed}, formula {phi}: Strict verdicts must equal the accepted sub-schedule's"
        );
        assert_eq!(
            report.pending[q.index()],
            expected.pending[q_ref.index()],
            "case {case}, fault seed {fault_seed}"
        );
    }
}
