//! Seeded input generation for the three workloads.
//!
//! Every input is a pure function of `(workload, seed, scale)`: the same
//! arguments give byte-identical event schedules, queries and wire captures.
//! Generation is linear in the number of events. Whole-run
//! [`rvmtl_ta::generate`] builds an O(n²) happened-before matrix, so the
//! Fischer streams are generated in short seeded chunks that are shifted in
//! time and concatenated; the swap sessions are executed one at a time and
//! concatenated the same way.

use rvmtl_chain::{TwoPartyScenario, TwoPartySwap};
use rvmtl_distrib::{FaultConfig, FaultInjector, FaultPolicy, StreamEvent};
use rvmtl_mtl::{Formula, Interval};
use rvmtl_prng::StdRng;
use rvmtl_ta::{generate, specs, Model, TraceConfig};
use rvmtl_wire::{capture_events, Hello};

/// The workloads, by the name the command line and `BENCHMARK.json` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 5 Fischer stream under ϕ₃ and ϕ₄: solver-bound.
    FischerDense,
    /// A shorter Fischer stream under 64 queries (16 distinct, each 4×).
    QueryFanout,
    /// Hedged two-party swap sessions replayed from a wire capture, with
    /// duplicate deliveries and periodic checkpoint/restore: ingestion-bound.
    SwapSessionsWire,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::FischerDense,
        Kind::QueryFanout,
        Kind::SwapSessionsWire,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FischerDense => "fischer_dense",
            Kind::QueryFanout => "query_fanout",
            Kind::SwapSessionsWire => "swap_sessions_wire",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Skew bound ε of every workload.
pub const EPSILON: u64 = 3;
/// Segment length of the Fischer workloads.
pub const FISCHER_SEGMENT: u64 = 20;
/// Deadline of ϕ₄ on `fischer_dense` (the paper's default bound).
pub const FISCHER_DEADLINE: u64 = 60;
/// True-time length of one generated Fischer chunk.
const FISCHER_CHUNK_MS: u64 = 400;
/// Idle time between two Fischer chunks: shorter than a segment, so windows
/// stay populated across the seams.
const FISCHER_CHUNK_GAP: u64 = 5;
/// Fischer chunks per workload at scale 1.
const FISCHER_DENSE_CHUNKS: usize = 625;
const QUERY_FANOUT_CHUNKS: usize = 200;
/// ϕ₄ deadlines of `query_fanout`. Deadlines stay at or below 60: the
/// per-segment search grows exponentially with the deadline, and at 125 a
/// single segment explores millions of states and swamps every other signal.
const FANOUT_DEADLINES: std::ops::RangeInclusive<u64> = 13..=55;
/// How often each distinct `query_fanout` formula is registered.
const FANOUT_COPIES: usize = 4;
/// The swap protocol's step deadline Δ, also the swap segment length.
pub const SWAP_DELTA: u64 = 50;
/// Idle time between two swap sessions.
const SWAP_GAP: u64 = 2_000;
/// Swap sessions per workload at scale 1.
const SWAP_SESSIONS: usize = 1_000;
/// Share of deliveries repeated back to back (absorbed under `Dedup`).
const SWAP_DUPLICATE_RATE: f64 = 0.2;
/// The swap monitor is checkpointed and restored every this many GC epochs.
pub const SWAP_RESTART_EVERY_GC: usize = 8;
/// Seed of every stream's opening: the first Fischer chunk and the first
/// group of four swap sessions. The monitors' start-up transient (the first
/// violations of the always-wrapped queries, within the first dozen events)
/// sets the arena peak and a seed-dependent share of the solver work, so it
/// is the same for every seed; `--seed` draws everything after it.
const OPENING_SEED: u64 = 2022;

/// One workload's generated inputs: everything the timed region consumes.
pub struct Workload {
    /// Number of processes of the stream.
    pub processes: usize,
    /// Segment length of the monitor's configuration.
    pub segment_length: u64,
    /// Ingestion fault policy of the monitor's configuration.
    pub policy: FaultPolicy,
    /// The registered queries, in registration order.
    pub queries: Vec<Formula>,
    /// The delivered schedule, in arrival order (duplicates included).
    pub delivered: Vec<StreamEvent>,
    /// The schedule without injected faults (equal to `delivered` when no
    /// faults are injected).
    pub clean: Vec<StreamEvent>,
    /// Number of injected duplicate deliveries.
    pub duplicates: u64,
    /// The delivered schedule as a `.rvw` wire capture, for workloads that
    /// ingest through the wire decoder.
    pub wire: Option<Vec<u8>>,
    /// Checkpoint and restore the monitor every this many GC epochs.
    pub restart_every_gc: Option<usize>,
}

impl Workload {
    /// Generates the workload's inputs for `seed`. `scale` divides the
    /// stream length (1 is the benchmark size; the tests use larger values
    /// for tiny runs).
    pub fn generate(kind: Kind, seed: u64, scale: usize) -> Workload {
        let scale = scale.max(1);
        // Distinct workloads draw from distinct streams of the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ salt(kind));
        match kind {
            Kind::FischerDense => {
                let clean = fischer_stream(&mut rng, (FISCHER_DENSE_CHUNKS / scale).max(1));
                let queries = vec![specs::phi3(2), specs::phi4(2, FISCHER_DEADLINE)];
                Workload::fischer(queries, clean)
            }
            Kind::QueryFanout => {
                let clean = fischer_stream(&mut rng, (QUERY_FANOUT_CHUNKS / scale).max(1));
                let distinct = fanout_formulas();
                let queries = (0..FANOUT_COPIES)
                    .flat_map(|_| distinct.iter().cloned())
                    .collect();
                Workload::fischer(queries, clean)
            }
            Kind::SwapSessionsWire => {
                let clean = swap_sessions(&mut rng, (SWAP_SESSIONS / scale).max(4));
                let faulted = FaultInjector::new(
                    rng.next_u64(),
                    FaultConfig::duplicates(SWAP_DUPLICATE_RATE),
                )
                .inject(&clean);
                let mut w = Workload {
                    processes: 2,
                    segment_length: SWAP_DELTA,
                    policy: FaultPolicy::Dedup,
                    queries: swap_formulas(),
                    delivered: faulted.events().cloned().collect(),
                    clean,
                    duplicates: faulted.duplicated,
                    wire: None,
                    restart_every_gc: Some(SWAP_RESTART_EVERY_GC),
                };
                w.wire = Some(
                    capture_events(Vec::new(), &w.hello(), &w.delivered)
                        .expect("an in-memory capture cannot fail"),
                );
                w
            }
        }
    }

    /// The wire handshake a capture of this workload opens with.
    pub fn hello(&self) -> Hello {
        Hello {
            epsilon: EPSILON,
            processes: self.processes,
            fault_policy: self.policy,
        }
    }

    fn fischer(queries: Vec<Formula>, clean: Vec<StreamEvent>) -> Workload {
        Workload {
            processes: 2,
            segment_length: FISCHER_SEGMENT,
            policy: FaultPolicy::Strict,
            queries,
            delivered: clean.clone(),
            clean,
            duplicates: 0,
            wire: None,
            restart_every_gc: None,
        }
    }

    /// The distinct queries, in first-registration order, with the index of
    /// the distinct query each registered query repeats.
    pub fn distinct_queries(&self) -> (Vec<Formula>, Vec<usize>) {
        let mut distinct: Vec<Formula> = Vec::new();
        let mut of = Vec::with_capacity(self.queries.len());
        for phi in &self.queries {
            let index = match distinct.iter().position(|d| d == phi) {
                Some(i) => i,
                None => {
                    distinct.push(phi.clone());
                    distinct.len() - 1
                }
            };
            of.push(index);
        }
        (distinct, of)
    }
}

fn salt(kind: Kind) -> u64 {
    match kind {
        Kind::FischerDense => 0xF15C_4E00_0000_0001,
        Kind::QueryFanout => 0xF15C_4E00_0000_0064,
        Kind::SwapSessionsWire => 0x5A4F_0000_0000_00DD,
    }
}

/// The 16 distinct `query_fanout` formulas: ϕ₃ and ϕ₄ at deadlines
/// 13, 16, …, 55.
pub fn fanout_formulas() -> Vec<Formula> {
    std::iter::once(specs::phi3(2))
        .chain(FANOUT_DEADLINES.step_by(3).map(|d| specs::phi4(2, d)))
        .collect()
}

/// The four swap queries: each protocol step of steps 1–4 is answered by the
/// next step within Δ, always. (`[0, Δ + 1)` is "within Δ" inclusive: an
/// on-time next step lands exactly Δ later.)
pub fn swap_formulas() -> Vec<Formula> {
    let steps = [
        "ban.premium_deposited(alice)",
        "apr.premium_deposited(bob)",
        "apr.asset_escrowed(alice)",
        "ban.asset_escrowed(bob)",
        "ban.asset_redeemed(alice)",
    ];
    steps
        .windows(2)
        .map(|pair| {
            Formula::always_untimed(Formula::implies(
                Formula::atom(pair[0]),
                Formula::eventually(Interval::bounded(0, SWAP_DELTA + 1), Formula::atom(pair[1])),
            ))
        })
        .collect()
}

/// Fischer mutual exclusion over 2 processes, ε = 3, generated in chunks
/// of `FISCHER_CHUNK_MS` and concatenated. Each chunk starts after the
/// previous chunk's last event, so per-process times never go backwards.
fn fischer_stream(rng: &mut StdRng, chunks: usize) -> Vec<StreamEvent> {
    let mut out = Vec::new();
    let mut base = 0u64;
    for chunk in 0..chunks {
        let config = TraceConfig {
            processes: 2,
            duration_ms: FISCHER_CHUNK_MS,
            event_rate: 50.0,
            epsilon_ms: EPSILON,
            seed: if chunk == 0 {
                OPENING_SEED
            } else {
                rng.next_u64()
            },
        };
        let comp = generate(Model::Fischer, &config);
        let mut end = base;
        for e in StreamEvent::schedule_of(&comp) {
            let time = base + e.time;
            end = end.max(time);
            out.push(StreamEvent { time, ..e });
        }
        base = end + FISCHER_CHUNK_GAP;
    }
    out
}

/// Back-to-back hedged two-party swap sessions (Δ = 50, 2 chains): in every
/// group of four sessions one, at a seeded position, runs a seeded
/// deviating scenario and the others conform. Sessions are `SWAP_GAP` apart.
/// Events a chain emits at the same local time are spread one unit apart, so
/// per-process times strictly increase, as the fault injector requires.
fn swap_sessions(rng: &mut StdRng, sessions: usize) -> Vec<StreamEvent> {
    let deviating: Vec<TwoPartyScenario> = TwoPartyScenario::enumerate()
        .into_iter()
        .filter(|s| *s != TwoPartyScenario::conforming())
        .collect();
    let protocol = TwoPartySwap::new(SWAP_DELTA);
    let mut out = Vec::new();
    let mut last: [Option<u64>; 2] = [None, None];
    let mut base = 0u64;
    let mut opening = StdRng::seed_from_u64(OPENING_SEED);
    let mut deviant_slot = 0;
    for session in 0..sessions {
        let rng = if session < 4 { &mut opening } else { &mut *rng };
        if session % 4 == 0 {
            deviant_slot = rng.gen_range(0..4u64) as usize;
        }
        let scenario = if session % 4 == deviant_slot {
            deviating[rng.gen_range(0..deviating.len() as u64) as usize]
        } else {
            TwoPartyScenario::conforming()
        };
        let comp = protocol.execute(&scenario).to_computation(EPSILON);
        let mut events: Vec<StreamEvent> = StreamEvent::schedule_of(&comp)
            .into_iter()
            .map(|e| {
                let floor = last[e.process].map_or(0, |t| t + 1);
                let time = (base + e.time).max(floor);
                last[e.process] = Some(time);
                StreamEvent { time, ..e }
            })
            .collect();
        events.sort_by_key(|e| (e.time, e.process));
        let end = events.last().map_or(base, |e| e.time);
        out.extend(events);
        base = end + SWAP_GAP;
    }
    out
}
