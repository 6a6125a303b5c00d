//! Streaming ≡ batch: the acceptance suite of the streaming runtime.
//!
//! A [`StreamMonitor`] fed a computation's events one at a time — in global
//! time order, process-major order, or random skew-legal interleavings — must
//! produce verdict sets (and pending rewrite sets) identical to the batch
//! [`Monitor::run`] over the completed computation, provided the two use the
//! same segment boundaries. Boundary alignment: the batch monitor splits a
//! duration-`D` computation into `g` segments at `j·D/g`, so whenever
//! `g | D`, a stream with segment length `D/g` is boundary-identical. The
//! suite runs the synthetic testgen corpus and all three cross-chain
//! protocol drivers through per-segment processing, multi-segment flush
//! batches, and the GC-every-segment configuration.

use rvmtl_chain::{
    specs, Auction, AuctionScenario, StepChoice, ThreePartyScenario, ThreePartySwap,
    TwoPartyScenario, TwoPartySwap,
};
use rvmtl_distrib::testgen::gen_computation;
use rvmtl_distrib::{DistributedComputation, EventId};
use rvmtl_monitor::{Monitor, MonitorConfig};
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::Formula;
use rvmtl_prng::StdRng;
use rvmtl_runtime::{StreamConfig, StreamMonitor};

/// Delivery orders for the same computation's events.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Global (local-time, process) order — the canonical merge.
    Time,
    /// All of process 0, then process 1, … — the most skewed legal order.
    ProcessMajor,
    /// A random skew-legal interleaving of the per-process queues.
    Random(u64),
}

/// The events of `comp` as a stream in the given delivery order (per-process
/// order is preserved in all of them, which is all the monitor requires).
fn stream_order(comp: &DistributedComputation, order: Order) -> Vec<EventId> {
    let mut per_process: Vec<Vec<EventId>> = (0..comp.process_count())
        .map(|p| comp.events_of(p.into()).to_vec())
        .collect();
    match order {
        Order::Time => {
            let mut ids: Vec<EventId> = (0..comp.event_count()).map(EventId).collect();
            ids.sort_by_key(|&id| (comp.event(id).local_time, comp.event(id).process.0));
            ids
        }
        Order::ProcessMajor => per_process.concat(),
        Order::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(comp.event_count());
            for queue in &mut per_process {
                queue.reverse(); // pop from the front via pop()
            }
            while out.len() < comp.event_count() {
                let alive: Vec<usize> = (0..per_process.len())
                    .filter(|&p| !per_process[p].is_empty())
                    .collect();
                let p = alive[rng.gen_range(0..alive.len() as u64) as usize];
                out.push(per_process[p].pop().expect("non-empty queue"));
            }
            out
        }
    }
}

/// Streams `comp` through a [`StreamMonitor`] with the given config and
/// delivery order, returning `(verdicts, pending)` per query.
fn stream_run(
    comp: &DistributedComputation,
    formulas: &[Formula],
    config: StreamConfig,
    order: Order,
) -> Vec<(
    rvmtl_monitor::VerdictSet,
    std::collections::BTreeSet<Formula>,
)> {
    let mut monitor = StreamMonitor::new(comp.process_count(), comp.epsilon(), config);
    for p in 0..comp.process_count() {
        monitor.initial_state(p, comp.initial_state(p.into()).clone());
    }
    let ids: Vec<_> = formulas.iter().map(|phi| monitor.add_query(phi)).collect();
    for id in stream_order(comp, order) {
        let e = comp.event(id);
        monitor
            .observe(e.process.0, e.local_time, e.state.clone())
            .expect("corpus events are stream-legal");
    }
    let report = monitor.finish();
    ids.iter()
        .map(|q| {
            (
                report.verdicts[q.index()].clone(),
                report.pending[q.index()].clone(),
            )
        })
        .collect()
}

/// Batch reference: [`Monitor::run`] per formula.
fn batch_run(
    comp: &DistributedComputation,
    formulas: &[Formula],
    config: MonitorConfig,
) -> Vec<(
    rvmtl_monitor::VerdictSet,
    std::collections::BTreeSet<Formula>,
)> {
    formulas
        .iter()
        .map(|phi| {
            let report = Monitor::new(config.clone()).run(comp, phi);
            (report.verdicts, report.pending)
        })
        .collect()
}

/// A `(g, L)` pair with `g · L = duration` (batch boundaries = multiples of
/// `L`), preferring more segments.
fn aligned_segmentation(comp: &DistributedComputation) -> Option<(usize, u64)> {
    let duration = comp.duration();
    if duration == 0 {
        return None;
    }
    (2..=6u64)
        .rev()
        .find(|&g| duration.is_multiple_of(g) && duration / g >= 1)
        .map(|g| (g as usize, duration / g))
}

/// Checks streaming (several paths and delivery orders) against the batch
/// monitor for one computation and query set.
fn assert_stream_equals_batch(comp: &DistributedComputation, formulas: &[Formula], label: &str) {
    // Unsegmented: one stream segment spanning everything.
    let whole_length = comp.duration().max(1) + 1;
    let batch = batch_run(comp, formulas, MonitorConfig::unsegmented());
    for order in [Order::Time, Order::ProcessMajor, Order::Random(7)] {
        let streamed = stream_run(comp, formulas, StreamConfig::new(whole_length), order);
        assert_eq!(streamed, batch, "{label}: unsegmented, {order:?}");
    }

    // Boundary-aligned segmentation, when one exists.
    let Some((g, length)) = aligned_segmentation(comp) else {
        return;
    };
    let batch = batch_run(comp, formulas, MonitorConfig::with_segments(g));
    for order in [Order::Time, Order::ProcessMajor, Order::Random(23)] {
        let streamed = stream_run(comp, formulas, StreamConfig::new(length), order);
        assert_eq!(streamed, batch, "{label}: g = {g}, {order:?}");
    }
    // Multi-segment flush batches (the whole stream queued, then drained in
    // order) and the GC-every-segment configuration must agree too.
    let batched = stream_run(
        comp,
        formulas,
        StreamConfig::new(length).flush_depth(g),
        Order::Time,
    );
    assert_eq!(batched, batch, "{label}: flush_depth = g = {g}");
    let gc_heavy = stream_run(
        comp,
        formulas,
        StreamConfig::new(length).gc_interval(1),
        Order::Time,
    );
    assert_eq!(gc_heavy, batch, "{label}: gc_interval = 1, g = {g}");
}

#[test]
fn synthetic_corpus_streaming_equals_batch() {
    let mut rng = StdRng::seed_from_u64(0x57E4);
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 4,
        interval_len_max: 8,
        unbounded_intervals: false,
    };
    let mut checked = 0;
    while checked < 40 {
        let comp = gen_computation(&mut rng);
        let phi = gen_formula(&mut rng, &cfg);
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        assert_stream_equals_batch(&comp, &[phi], &format!("case {checked}"));
    }
}

#[test]
fn synthetic_corpus_multi_query_streaming_equals_batch() {
    let mut rng = StdRng::seed_from_u64(0x3A11);
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 3,
        interval_len_max: 6,
        unbounded_intervals: false,
    };
    let mut checked = 0;
    while checked < 12 {
        let comp = gen_computation(&mut rng);
        if comp.event_count() > 5 {
            continue;
        }
        checked += 1;
        let formulas: Vec<Formula> = (0..3).map(|_| gen_formula(&mut rng, &cfg)).collect();
        assert_stream_equals_batch(&comp, &formulas, &format!("multi-query case {checked}"));
    }
}

/// Non-empty carried-over initial states must flow into the streaming
/// frontier exactly as the batch segmenter's carried states do (a `G` over a
/// proposition only the *initial* state establishes distinguishes them).
#[test]
fn initial_states_streaming_equals_batch() {
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};
    let mut b = ComputationBuilder::new(2, 2);
    b.initial_state(0, state!["locked"]);
    b.initial_state(1, state!["idle"]);
    b.event(0, 4, state!["locked"]);
    b.event(1, 6, state!["busy"]);
    b.event(0, 9, state!["unlocked"]);
    b.event(1, 12, state!["idle"]);
    let comp = b.build().unwrap();
    let formulas = [
        parse("G[0,6) locked").unwrap(),
        parse("idle U[0,8) busy").unwrap(),
        parse("F[0,3) unlocked").unwrap(),
    ];
    assert_stream_equals_batch(&comp, &formulas, "carried initial states");
}

const DELTA: u64 = 50;
const EPSILON: u64 = 3;

#[test]
fn two_party_protocol_streaming_equals_batch() {
    let driver = TwoPartySwap::new(DELTA);
    let mut late = [StepChoice::on_time(); 6];
    late[3] = StepChoice::late();
    for (label, scenario) in [
        ("conforming", TwoPartyScenario::conforming()),
        ("late escrow", TwoPartyScenario { steps: late }),
    ] {
        let comp = driver.execute(&scenario).to_computation(EPSILON);
        let formulas = [
            specs::two_party::liveness(DELTA),
            specs::two_party::alice_conform(DELTA),
            specs::two_party::bob_conform(DELTA),
        ];
        assert_stream_equals_batch(&comp, &formulas, &format!("two-party {label}"));
    }
}

#[test]
fn three_party_protocol_streaming_equals_batch() {
    let comp = ThreePartySwap::new(DELTA)
        .execute(&ThreePartyScenario::conforming())
        .to_computation(EPSILON);
    let formulas = [
        specs::three_party::liveness(DELTA),
        specs::three_party::alice_conform(DELTA),
    ];
    assert_stream_equals_batch(&comp, &formulas, "three-party conforming");
}

#[test]
fn auction_protocol_streaming_equals_batch() {
    let comp = Auction::new(DELTA)
        .execute(&AuctionScenario::conforming())
        .to_computation(EPSILON);
    let formulas = [
        specs::auction::liveness(DELTA),
        specs::auction::bob_conform(DELTA),
    ];
    assert_stream_equals_batch(&comp, &formulas, "auction conforming");
}

/// Delayed-window formulas — the regime where shift-normal pendings carry
/// nonzero shifts and the engine's zone canonicalisation fires — through
/// every streaming configuration (per-segment, flush batches,
/// GC-every-segment) and
/// delivery order. The GC path in particular pins that compaction keeps the
/// canonical residuals of shifted pendings alive and remaps their
/// decompositions soundly mid-stream.
#[test]
fn delayed_window_streaming_equals_batch() {
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};
    let mut b = ComputationBuilder::new(2, 2);
    b.event(0, 6, state!["a"]);
    b.event(0, 8, state!["a"]);
    b.event(0, 10, state!["a"]);
    b.event(1, 7, state!["a"]);
    b.event(1, 9, state!["a"]);
    b.event(1, 12, state!["b"]);
    let comp = b.build().unwrap();
    let formulas = [
        parse("a U[6,12) b").unwrap(),
        parse("F[4,10) b").unwrap(),
        parse("(F[2,6) a) & (F[5,11) b)").unwrap(),
        parse("G[3,9) (a | b)").unwrap(),
    ];
    assert_stream_equals_batch(&comp, &formulas, "delayed windows");
}
