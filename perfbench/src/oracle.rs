//! Reference verdicts: computed by an oracle independent of the streaming
//! runtime, and pinned per seed in `reference.txt`.
//!
//! The oracle is the batch monitor's segment loop
//! ([`rvmtl_monitor::OnlineMonitor`], one per distinct query) run over the
//! *clean* schedule's segments, cut at the boundaries the runtime uses
//! (multiples of the segment length, closed by the watermark rule). It
//! shares no code with [`rvmtl_runtime::StreamMonitor`]'s pending sets,
//! cross-query solver sharing, GC epochs, fault accounting, checkpointing or
//! the wire decoder. Under `Dedup`, a duplicated stream must give the clean
//! stream's verdicts, tagged `Degraded` with exactly the injected duplicate
//! count.

use crate::workload::{Kind, Workload, EPSILON};
use rvmtl_distrib::{DistributedComputation, IncrementalSegmenter};
use rvmtl_monitor::{Integrity, OnlineMonitor, VerdictSet};

/// Final verdicts and integrity tags per registered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Final verdict set per registered query.
    pub verdicts: Vec<VerdictSet>,
    /// Integrity tag per registered query.
    pub integrity: Vec<Integrity>,
}

impl Reference {
    /// The oracle's reference for a workload's inputs.
    pub fn oracle(w: &Workload) -> Reference {
        let (distinct, of) = w.distinct_queries();
        let mut monitors: Vec<OnlineMonitor> =
            distinct.iter().cloned().map(OnlineMonitor::new).collect();
        let mut observe = |seg: &DistributedComputation, next_anchor: u64| {
            for m in &mut monitors {
                m.observe_segment(seg, next_anchor);
            }
        };
        let mut segmenter =
            IncrementalSegmenter::with_base_time(w.processes, EPSILON, w.segment_length, 0);
        for e in &w.clean {
            let closed = segmenter
                .observe(e.process, e.time, e.state.clone())
                .expect("clean schedules are stream-legal");
            for seg in &closed {
                observe(seg, seg.horizon().expect("closed segments carry their end"));
            }
        }
        let mut tail = segmenter.finish();
        let final_anchor = segmenter.max_event_time() + EPSILON;
        if let Some(last) = tail.pop() {
            for seg in &tail {
                observe(
                    seg,
                    seg.horizon().expect("non-final segments carry their end"),
                );
            }
            observe(&last, final_anchor);
        }
        let finals: Vec<VerdictSet> = monitors.iter().map(OnlineMonitor::finish).collect();
        let integrity = Integrity::from_counters(0, w.duplicates, 0, 0);
        Reference {
            verdicts: of.iter().map(|&d| finals[d].clone()).collect(),
            integrity: vec![integrity; of.len()],
        }
    }

    /// The reference as one line of `reference.txt`:
    /// `<workload> <seed> <query>…`, each query as its verdict letters
    /// (`T`/`F`, `?` for an inconclusive verdict) and its integrity tag
    /// (`exact`, or the four degradation counters).
    pub fn line(&self, kind: Kind, seed: u64) -> String {
        let queries: Vec<String> = self
            .verdicts
            .iter()
            .zip(&self.integrity)
            .map(|(v, i)| format!("{}:{}", verdict_letters(v), integrity_tag(i)))
            .collect();
        format!("{} {seed} {}", kind.name(), queries.join(" "))
    }
}

fn verdict_letters(v: &VerdictSet) -> String {
    v.iter()
        .map(|v| match v {
            rvmtl_monitor::Verdict::True => 'T',
            rvmtl_monitor::Verdict::False => 'F',
            rvmtl_monitor::Verdict::Inconclusive(_) => '?',
        })
        .collect()
}

fn integrity_tag(i: &Integrity) -> String {
    match i {
        Integrity::Exact => "exact".to_string(),
        Integrity::Degraded {
            dropped,
            deduped,
            late_beyond_epsilon,
            worker_panics,
        } => format!("degraded/{dropped}/{deduped}/{late_beyond_epsilon}/{worker_panics}"),
    }
}

/// The pinned references (`reference.txt`, compiled in).
const PINNED: &str = include_str!("../reference.txt");

/// The pinned reference line for `(kind, seed)` at benchmark size, if the
/// seed is pinned.
pub fn pinned(kind: Kind, seed: u64) -> Option<&'static str> {
    let prefix = format!("{} {seed} ", kind.name());
    PINNED.lines().find(|line| line.starts_with(&prefix))
}
