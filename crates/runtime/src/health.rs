//! The runtime health surface: one counter per degradation event class.

use std::fmt;

/// Cumulative health counters of a [`crate::StreamMonitor`].
///
/// Every way the runtime deviates from the exact, fault-free path is counted
/// exactly once here, so an operator (or a test) can assert `is_healthy()`
/// instead of re-deriving the invariants. The per-query slice of the same
/// information — restricted to the windows that could have affected one
/// query's verdicts — is the [`crate::Integrity`] tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Events and heartbeats rejected with a [`crate::StreamError`] (the
    /// caller saw the error; the monitor state was left unchanged).
    pub rejected: u64,
    /// Exact duplicate events absorbed under
    /// [`crate::FaultPolicy::Dedup`] or [`crate::FaultPolicy::BestEffort`].
    pub deduped: u64,
    /// Out-of-order events dropped under [`crate::FaultPolicy::BestEffort`].
    pub dropped: u64,
    /// Events beyond the closed segment boundary (late beyond `ε`) dropped
    /// under [`crate::FaultPolicy::BestEffort`].
    pub late_beyond_epsilon: u64,
    /// Pending-formula solves lost to a panic: each `(query, segment,
    /// pending formula)` solve runs isolated under `catch_unwind`, and each
    /// lost solve degrades exactly one query.
    pub worker_panics: u64,
    /// Times ingestion forced a queue flush because the closed-segment queue
    /// hit [`crate::StreamConfig::max_queued_segments`] before the configured
    /// flush depth.
    pub backpressure_stalls: u64,
    /// Automatic epoch checkpoints that failed to write (the monitor kept
    /// running; the previous epoch remains the recovery point).
    pub checkpoint_failures: u64,
    /// Automatic epoch checkpoints successfully written and fsynced — the
    /// one *success* counter on this surface: it tells an operator the
    /// recovery point is actually advancing, not merely that writes aren't
    /// failing (a monitor that never attempts a checkpoint also has zero
    /// failures).
    pub checkpoints_written: u64,
}

impl RuntimeHealth {
    /// Returns `true` when every *degradation* counter is zero — the stream
    /// so far was ingested exactly, in order, and solved to completion
    /// without backpressure interventions. `checkpoints_written` is a
    /// success counter and deliberately excluded: a monitor that has safely
    /// checkpointed ten epochs is healthier, not less healthy.
    pub fn is_healthy(&self) -> bool {
        self.rejected == 0
            && self.deduped == 0
            && self.dropped == 0
            && self.late_beyond_epsilon == 0
            && self.worker_panics == 0
            && self.backpressure_stalls == 0
            && self.checkpoint_failures == 0
    }

    /// Sum of the counters that degrade verdict evidence (everything except
    /// `rejected`, `backpressure_stalls` and `checkpoint_failures`, which
    /// leave verdicts exact).
    pub fn degradations(&self) -> u64 {
        self.deduped + self.dropped + self.late_beyond_epsilon + self.worker_panics
    }
}

impl fmt::Display for RuntimeHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejected {}, deduped {}, dropped {}, late beyond ε {}, worker panics {}, backpressure stalls {}, checkpoint failures {}, checkpoints written {}",
            self.rejected,
            self.deduped,
            self.dropped,
            self.late_beyond_epsilon,
            self.worker_panics,
            self.backpressure_stalls,
            self.checkpoint_failures,
            self.checkpoints_written
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_is_all_zero_and_degradations_exclude_rejections() {
        let mut health = RuntimeHealth::default();
        assert!(health.is_healthy());
        assert_eq!(health.degradations(), 0);
        health.checkpoints_written = 7;
        assert!(
            health.is_healthy(),
            "successful checkpoints are not a degradation"
        );
        health.rejected = 3;
        health.backpressure_stalls = 2;
        assert!(!health.is_healthy());
        assert_eq!(health.degradations(), 0, "rejections leave verdicts exact");
        health.deduped = 1;
        health.dropped = 2;
        health.late_beyond_epsilon = 3;
        health.worker_panics = 4;
        health.checkpoint_failures = 5;
        assert_eq!(
            health.degradations(),
            10,
            "checkpoints leave verdicts exact"
        );
        let text = health.to_string();
        for needle in [
            "rejected 3",
            "deduped 1",
            "panics 4",
            "stalls 2",
            "checkpoint failures 5",
            "checkpoints written 7",
        ] {
            assert!(text.contains(needle), "{text:?} must contain {needle:?}");
        }
    }
}
