//! Streaming monitoring runtime: online verification of live per-process
//! event streams, at production cadence.
//!
//! The paper's monitor (Sec. V-C) consumes a *complete* distributed
//! computation. Its target deployment — live cross-chain protocols — instead
//! delivers one event stream per process under an ε-skew bound, and a
//! monitoring service watches many specifications at once, indefinitely.
//! This crate turns the batch monitor into that service. Architecture, in
//! stream order:
//!
//! # 1. Incremental segmentation (the watermark rule)
//!
//! Events enter a [`rvmtl_distrib::IncrementalSegmenter`]: per-process
//! streams in non-decreasing local-time order, interleaved arbitrarily
//! across processes. The *watermark* is `min_p clock_p − ε` over the largest
//! local time heard from each process (events or
//! [`StreamMonitor::heartbeat`] beacons). A segment `[lo, hi)` closes — is
//! guaranteed to never receive another event — once the watermark passes
//! `hi`; it is then materialised with exactly the batch segmenter's boundary
//! rules (base time `lo`, horizon `hi`, carried per-process frontier
//! states), so the stream-produced partition is byte-for-byte the partition
//! [`rvmtl_distrib::segment_at_boundaries`] would produce, and the verdicts
//! are *identical* to batch monitoring — the differential suite in
//! `tests/differential.rs` pins this on the synthetic corpus and the
//! protocol drivers.
//!
//! # 2. The segment loop
//!
//! Closed segments buffer up to the configured flush depth
//! ([`StreamConfig::flush_depth`]) and are then processed in order, one
//! segment after another — the paper's monitor (Sec. V) progresses each
//! segment's pending formulas before the next segment's, so the loop is
//! sequential by construction. Each segment gets **one**
//! [`rvmtl_solver::SegmentSolver`], shared by every pending formula of every
//! query: its memo, feasibility and per-cut caches, pooled work-stack frames
//! and probe scratch are built once per segment and reused across queries,
//! so several queries carrying the same canonical pending obligation pay for
//! its search once. A query registered mid-stream
//! ([`StreamMonitor::add_query`] after segments closed) is re-anchored at
//! the current watermark boundary and skips every segment before it.
//!
//! Inside each segment the solver explores with its data-oriented work-stack
//! driver: an explicit frontier over flat batches with batched one/gap cache
//! probes and staged memo slots.
//!
//! # 3. One arena across the stream
//!
//! Every pending formula of every query lives in one query-spanning
//! [`rvmtl_mtl::Interner`], alive across the monitor's lifetime: the stable
//! parts of each specification are interned once, and the arena's
//! `one_cache`/`gap_cache` progression memos stay warm across segments and
//! queries.
//!
//! Pending sets are held in *shift-normal form*
//! ([`rvmtl_mtl::ShiftedId`]): an obligation is stored as its canonical
//! residual plus a time offset, so obligations that are exact
//! time-translates of each other — across segments and across queries —
//! share one arena node, and the solver's zone-canonical memoisation fires
//! across the whole stream. Finalisation resolves through the shift
//! (empty-future verdicts depend only on operator kinds, which translation
//! preserves).
//!
//! # 4. GC epochs (bounded memory forever)
//!
//! Every `gc_interval` processed segments the runtime runs
//! [`rvmtl_mtl::Interner::compact`]: a mark-and-renumber pass over the dense
//! `u32` formula ids rooted at the *canonical residuals* of the live pending
//! sets (their materialised translates are rebuilt on demand). Dead nodes,
//! dead observation states and progression-cache entries with a dead
//! endpoint are reclaimed; surviving entries keep their warmth. Long-running
//! monitoring therefore holds a bounded arena regardless of stream length —
//! pinned by the GC tests. Backpressure on the closed-segment queue
//! ([`StreamConfig::max_queued_segments`]) bounds the ingestion side the
//! same way.
//!
//! # 5. Fault policies and degradation semantics
//!
//! Live feeds misbehave: retried deliveries duplicate events, reorderings
//! surface events late, crashed relayers replay history. The
//! [`FaultPolicy`] configured via [`StreamConfig::fault_policy`] defines
//! what ingestion does with each fault class — and every deviation from the
//! exact path is *counted*, never silent:
//!
//! | Fault at ingestion                        | `Strict` (default)      | `Dedup`                  | `BestEffort`                     |
//! |-------------------------------------------|-------------------------|--------------------------|----------------------------------|
//! | Exact duplicate of a buffered event       | error (`Duplicate`)     | absorbed, counted        | absorbed, counted                |
//! | Same process and time, *different* state  | accepted (simultaneity) | error (`ConflictingState`) | error (`ConflictingState`)     |
//! | Out of order (behind the process frontier)| error (`OutOfOrder`)    | error (`OutOfOrder`)     | dropped, counted                 |
//! | Before the closed segment boundary        | error (`BeyondClosedBoundary`) | error (`BeyondClosedBoundary`) | dropped, counted (`late_beyond_epsilon`) |
//! | Unknown process / finished stream         | error                   | error                    | error                            |
//!
//! A rejected call leaves the monitor unchanged (and increments
//! [`RuntimeHealth::rejected`]); an absorbed fault leaves the *stream state*
//! unchanged but degrades the evidence behind the verdicts of every query
//! observing that window. The per-query [`Integrity`] tag
//! ([`StreamReport::integrity`], [`StreamMonitor::current_integrity`]) makes
//! that explicit: `Exact` unless something was absorbed or lost, `Degraded`
//! with the exact counters otherwise. Under `Dedup`, a duplicated stream
//! produces verdicts *identical* to the clean stream; under `BestEffort`,
//! verdicts equal those of the surviving sub-stream — both pinned by the
//! fault-injection differential suite in `tests/faults.rs`, driven by the
//! deterministic seeded [`FaultInjector`].
//!
//! Solves are *panic-isolated*: each `(query, segment, pending formula)`
//! solve runs under `catch_unwind`, so a panicking obligation is lost alone
//! — it is reported as an inconclusive verdict, its query is tagged
//! `Degraded { worker_panics, .. }`, and every other obligation and query
//! proceeds exactly. The global [`RuntimeHealth`] surface
//! ([`StreamMonitor::health`]) counts rejections, absorptions, lost items
//! and backpressure stalls in one place.
//!
//! # 6. Checkpoint format & recovery semantics
//!
//! A monitor is a single point of total state loss: without snapshots, a
//! crash forces replaying the entire stream. Epoch checkpoints bound
//! recovery independently of stream length. At GC boundaries — where the
//! segment queue is drained and the arena freshly compacted — the monitor
//! can serialize its complete state ([`StreamMonitor::checkpoint_bytes`],
//! [`StreamMonitor::write_checkpoint`], or automatically via
//! [`StreamConfig::checkpoint`]): the segmenter image (per-process clocks,
//! carried frontier states, buffered open-window events, watermark inputs,
//! fault policy and counters), the query-spanning arena (node table, fused
//! metadata, `ever_shifted` watermark), each query's shift-normal pending
//! set with its anchor and fault provenance, and the runtime counters.
//!
//! The format is a hand-rolled length-prefixed little-endian encoding
//! ([`rvmtl_mtl::snapshot`]) inside a checksummed container:
//! `magic | version | payload length | CRC-32 | payload` — versioned so it
//! can seed the fleet wire format later. **Epoch layout**: files are named
//! `epoch-NNNNNNNNNNNN.ckpt` (zero-padded segment count, so lexicographic
//! and numeric order agree) and the newest two epochs are retained.
//! **Atomicity**: writes go to a temp file, fsync, then atomically rename —
//! a crash mid-write leaves the previous epoch set intact, never a
//! half-written visible file. **Restores are paranoid**: magic/version/CRC
//! validation, every length prefix bounds-checked, arena nodes re-interned
//! through the canonicalising constructors and cross-checked against the
//! stored metadata (*remap on restore* — pending ids translate through the
//! snapshot-index → fresh-id table), segmenter invariants revalidated. A
//! damaged snapshot yields a [`CheckpointError`], never a panic, and
//! [`StreamMonitor::restore_latest`] falls back to the previous epoch.
//! **Replay bound**: a restored monitor resumes at the snapshot's
//! watermark; only events after the per-process clocks it carries need to
//! be re-fed (at most one open segment plus `ε` of history per process),
//! and the restart-differential suite in `tests/checkpoint.rs` pins
//! restored runs verdict-identical to uninterrupted ones across flush
//! depths, GC cadences and all three fault policies.
//!
//! # 7. Observability (telemetry, flight recorder, exposition)
//!
//! A monitoring service is itself a production system, so the runtime
//! carries its own instrument panel ([`rvmtl_obs`] — dependency-free, built
//! for this workspace). Two kinds of signal, deliberately separated:
//!
//! * **Count-shape metrics** — events observed, segments processed, GC
//!   epochs, checkpoints written, solver work counters, progression-cache
//!   hit/miss tallies, arena populations, pending obligations per query.
//!   These are bridged from always-on monitor state at snapshot time by
//!   [`StreamMonitor::telemetry`]: they cost nothing extra, work whether or
//!   not telemetry is enabled, and are **deterministic** — identical across
//!   flush depths and across checkpoint/restore of the same stream, so the
//!   bench pin suite pins them like any other search-shape figure.
//! * **Timing instruments** — log2-bucketed histograms (p50/p90/p99) of
//!   segment solve time, batch solve time, event-to-verdict latency,
//!   per-query verdict latency, GC pause, checkpoint write time and
//!   per-work-item wall time. These exist
//!   only under [`StreamConfig::with_telemetry`]; disabled, every
//!   instrument is a no-op handle and each call site costs one never-taken
//!   branch (the enabled-path overhead budget is ~2% on the bench
//!   workloads). Timing values are wall-clock and are never pinned.
//!
//! The **flight recorder** ([`StreamMonitor::flight_recorder`]) retains the
//! last `flight_capacity` lifecycle events — event observed → segment
//! closed → queued → solve start → solved → GC epoch → checkpoint written —
//! in a ring allocated once and never reallocated. Events are recorded only
//! at deterministic points, so the *kind sequence* is a function of the
//! stream and the flush depth (timestamps differ run to run);
//! [`FlightRecorder::dump_jsonl`] dumps the window as JSON Lines and
//! [`FlightRecorder::segment_latencies_micros`] derives per-segment
//! close→solved latency from it.
//!
//! Everything exports: [`StreamMonitor::telemetry`] returns a typed
//! [`TelemetrySnapshot`], [`StreamMonitor::telemetry_text`] renders
//! Prometheus-style text exposition (`name{labels} value`, round-trips
//! through [`parse_exposition`]), and the final snapshot rides on
//! [`StreamReport::telemetry`].
//!
//! # Multi-query front end
//!
//! [`StreamMonitor::add_query`] multiplexes any number of formulas over one
//! stream: segmentation, the per-segment solver caches, the arena and GC
//! epochs are all shared; pending sets, verdicts and integrity tags stay
//! per-query.
//!
//! # Wire ingestion
//!
//! [`StreamMonitor::observe`] / [`StreamMonitor::heartbeat`] are plain
//! function calls; the `rvmtl-wire` crate gives the same ingestion surface
//! a byte representation — a versioned, CRC-protected frame stream (format
//! spec: `docs/PROTOCOL.md`) whose `WireSource` adapter drains any
//! `std::io::Read` into a monitor after validating a `Hello` configuration
//! handshake against [`StreamMonitor::process_count`],
//! [`StreamMonitor::epsilon`] and [`StreamMonitor::fault_policy`]. Wire
//! replay is differentially pinned verdict-identical to direct calls;
//! `examples/wire_replay.rs` shows the file-capture round trip.
//!
//! # Example
//!
//! ```
//! use rvmtl_mtl::{parse, state};
//! use rvmtl_runtime::{StreamConfig, StreamMonitor};
//!
//! let mut monitor = StreamMonitor::new(2, 1, StreamConfig::new(5));
//! let q = monitor.add_query(&parse("!apr.redeem(bob) U[0,8) ban.redeem(alice)")?);
//! monitor.observe(0, 1, state!["apr.escrow(alice)"])?;
//! monitor.observe(1, 2, state!["ban.escrow(bob)"])?;
//! monitor.observe(1, 5, state!["ban.redeem(alice)"])?;
//! monitor.observe(0, 6, state!["apr.redeem(bob)"])?;
//! let report = monitor.finish();
//! assert!(report.verdicts[q.index()].may_be_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Every lock acquisition and invariant in non-test runtime code must state
// its recovery story instead of unwrapping: panics are supposed to be
// *contained* here, not propagated (see section 5 of the crate docs).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
mod config;
mod health;
mod monitor;
mod telemetry;

pub use checkpoint::CheckpointError;
pub use config::StreamConfig;
pub use health::RuntimeHealth;
pub use monitor::{QueryId, StreamMonitor, StreamReport};
pub use rvmtl_distrib::{
    FaultConfig, FaultCounters, FaultInjector, FaultPolicy, StreamError, StreamEvent,
};
pub use rvmtl_monitor::Integrity;
pub use rvmtl_obs::{
    parse_exposition, CounterSnapshot, ExpositionSample, FlightEvent, FlightKind, FlightRecorder,
    GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot,
};
