//! # rvmtl — distributed runtime verification of metric temporal properties
//!
//! A from-scratch Rust implementation of *Distributed Runtime Verification of
//! Metric Temporal Properties for Cross-Chain Protocols* (ICDCS 2022): an MTL
//! monitor for partially synchronous distributed systems (bounded clock skew
//! `ε`, no global clock), based on segment-wise formula progression backed by
//! an SMT-style solver, evaluated on mocked cross-chain protocols and
//! timed-automata benchmark models.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`mtl`] | `rvmtl-mtl` | formulas, finite-trace semantics, progression |
//! | [`distrib`] | `rvmtl-distrib` | events, happened-before, cuts, segmentation |
//! | [`solver`] | `rvmtl-solver` | the SMT-style decision engine |
//! | [`monitor`] | `rvmtl-monitor` | the distributed monitor (the paper's contribution) |
//! | [`runtime`] | `rvmtl-runtime` | streaming runtime: live streams, segment loop, GC |
//! | [`chain`] | `rvmtl-chain` | mock blockchains and the cross-chain protocols |
//! | [`ta`] | `rvmtl-ta` | timed-automata models and synthetic traces |
//! | [`obs`] | `rvmtl-obs` | telemetry: metrics registry, flight recorder, exposition |
//! | [`wire`] | `rvmtl-wire` | versioned wire frame codec + transport ingestion |
//!
//! The wire layer is demonstrated end to end by `examples/wire_replay.rs`
//! (capture a stream to a `.rvw` file, replay it through [`wire::WireSource`])
//! and specified normatively in `docs/PROTOCOL.md`.
//!
//! # Quickstart
//!
//! ```
//! use rvmtl::monitor::{Monitor, MonitorConfig};
//! use rvmtl::distrib::ComputationBuilder;
//! use rvmtl::mtl::{parse, state};
//!
//! // Two blockchains with clocks that may disagree by up to 2 time units.
//! let mut builder = ComputationBuilder::new(2, 2);
//! builder.event(0, 1, state!["apr.escrow(alice)"]);
//! builder.event(1, 2, state!["ban.escrow(bob)"]);
//! builder.event(1, 5, state!["ban.redeem(alice)"]);
//! builder.event(0, 6, state!["apr.redeem(bob)"]);
//! let computation = builder.build()?;
//!
//! // "Bob must not redeem before Alice within 8 time units."
//! let phi = parse("!apr.redeem(bob) U[0,8) ban.redeem(alice)")?;
//! let report = Monitor::new(MonitorConfig::with_segments(2)).run(&computation, &phi);
//! println!("verdicts: {}", report.verdicts);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Metric temporal logic: syntax, semantics, progression (re-export of
/// `rvmtl-mtl`).
pub mod mtl {
    pub use rvmtl_mtl::*;
}

/// Partially synchronous distributed computations (re-export of
/// `rvmtl-distrib`).
pub mod distrib {
    pub use rvmtl_distrib::*;
}

/// The SMT-style solver for cut sequences and MTL verdicts (re-export of
/// `rvmtl-solver`).
pub mod solver {
    pub use rvmtl_solver::*;
}

/// The distributed runtime monitor (re-export of `rvmtl-monitor`).
pub mod monitor {
    pub use rvmtl_monitor::*;
}

/// The streaming monitoring runtime: incremental segmentation, the
/// in-order segment loop, multi-query front end, arena GC (re-export of
/// `rvmtl-runtime`).
pub mod runtime {
    pub use rvmtl_runtime::*;
}

/// Mock blockchains and cross-chain protocols (re-export of `rvmtl-chain`).
pub mod chain {
    pub use rvmtl_chain::*;
}

/// Timed-automata benchmark models and trace generation (re-export of
/// `rvmtl-ta`).
pub mod ta {
    pub use rvmtl_ta::*;
}

/// Telemetry: metrics registry, flight recorder, Prometheus-text exposition
/// (re-export of `rvmtl-obs`).
pub mod obs {
    pub use rvmtl_obs::*;
}

/// The streaming plane's versioned wire frame codec and transport ingestion
/// (re-export of `rvmtl-wire`; the format is specified in
/// `docs/PROTOCOL.md`).
pub mod wire {
    pub use rvmtl_wire::*;
}

pub use rvmtl_monitor::{Monitor, MonitorConfig, Verdict, VerdictSet};
pub use rvmtl_mtl::{Formula, Interval, Prop, State, TimedTrace};
