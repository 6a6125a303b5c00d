//! Distributed runtime verification of MTL specifications under partial
//! synchrony — the core algorithm of the paper *Distributed Runtime
//! Verification of Metric Temporal Properties for Cross-Chain Protocols*
//! (ICDCS 2022).
//!
//! The monitor takes an MTL formula and a partially synchronous distributed
//! computation (events with local timestamps, bounded clock skew `ε`), chops
//! the computation into segments (Sec. V-C), and for every segment progresses
//! each pending formula through the SMT-style solver of `rvmtl-solver`,
//! accumulating the set of distinct rewritten formulas. At the end of the
//! computation each remaining obligation is closed against the empty future,
//! yielding the verdict set `[(E, ⇝) ⊨F φ]` of Sec. III.
//!
//! * [`Monitor`] / [`MonitorConfig`] — batch monitoring of a complete
//!   computation with configurable segmentation;
//! * [`OnlineMonitor`] — incremental monitoring, one segment at a time;
//! * [`VerdictSet`] / [`Verdict`] — the (possibly ambiguous) outcome;
//! * [`naive_verdicts`] — the explicit-enumeration baseline.
//!
//! # Example
//!
//! ```
//! use rvmtl_distrib::ComputationBuilder;
//! use rvmtl_monitor::{Monitor, MonitorConfig};
//! use rvmtl_mtl::{parse, state};
//!
//! // Two blockchains, clock skew up to 2 time units.
//! let mut b = ComputationBuilder::new(2, 2);
//! b.event(0, 1, state!["apr.escrow(alice)"]);
//! b.event(1, 2, state!["ban.escrow(bob)"]);
//! b.event(1, 5, state!["ban.redeem(alice)"]);
//! b.event(0, 6, state!["apr.redeem(bob)"]);
//! let swap = b.build()?;
//!
//! // Bob must not redeem before Alice within 8 time units.
//! let phi = parse("!apr.redeem(bob) U[0,8) ban.redeem(alice)")?;
//! let report = Monitor::new(MonitorConfig::with_segments(2)).run(&swap, &phi);
//! assert!(report.verdicts.may_be_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod config;
mod monitor;
mod verdict;

pub use baseline::{naive_verdicts, naive_verdicts_bounded};
pub use config::{MonitorConfig, Segmentation};
pub use monitor::{Monitor, MonitorReport, OnlineMonitor, SegmentReport};
pub use verdict::{Integrity, Verdict, VerdictSet};
