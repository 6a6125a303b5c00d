//! One replay of a workload through the public runtime API, and the
//! standalone per-layer probes.
//!
//! A replay is a closed loop with one producer: the pre-generated schedule
//! is fed to [`StreamMonitor::observe`] (for the wire workload, decoded
//! frame by frame with [`FrameReader::next_frame`] first) as fast as the
//! monitor returns, then [`StreamMonitor::finish`] closes the stream. Every
//! span is timed from outside, around calls into public functions; traced
//! replays additionally read the histograms the runtime exports through
//! [`StreamMonitor::telemetry`].

use crate::oracle::Reference;
use crate::workload::{Workload, EPSILON};
use rvmtl_distrib::IncrementalSegmenter;
use rvmtl_runtime::{StreamConfig, StreamMonitor, TelemetrySnapshot};
use rvmtl_wire::{capture_events, Frame, FrameReader};
use std::time::{Duration, Instant};

/// The monitor configuration of a workload: the default [`StreamConfig`]
/// apart from the workload's segment length and fault policy, with timing
/// telemetry only in traced replays.
pub fn stream_config(w: &Workload, traced: bool) -> StreamConfig {
    let config = StreamConfig::new(w.segment_length).fault_policy(w.policy);
    if traced {
        config.with_telemetry()
    } else {
        config
    }
}

/// What a deployment pays before its first event: the monitor and every
/// query registration.
pub fn new_monitor(w: &Workload, config: &StreamConfig) -> StreamMonitor {
    let mut monitor = StreamMonitor::new(w.processes, EPSILON, config.clone());
    for phi in &w.queries {
        monitor.add_query(phi);
    }
    monitor
}

/// Times one monitor set-up (construction plus query registration); the
/// monitor is dropped outside the timed span.
pub fn time_setup(w: &Workload, config: &StreamConfig) -> Duration {
    let start = Instant::now();
    let monitor = std::hint::black_box(new_monitor(w, config));
    let elapsed = start.elapsed();
    drop(monitor);
    elapsed
}

/// The runtime's timing histograms summed over every monitor incarnation of
/// a replay (a restored monitor starts a fresh registry).
#[derive(Debug, Default, Clone, Copy)]
pub struct Histograms {
    /// Σ `rvmtl_batch_solve_nanos`.
    pub batch_ns: u64,
    /// Number of drained batches.
    pub batches: u64,
    /// Σ `rvmtl_segment_solve_nanos`.
    pub segment_ns: u64,
    /// Σ `rvmtl_work_item_nanos`.
    pub work_item_ns: u64,
    /// Σ `rvmtl_gc_pause_nanos`.
    pub gc_ns: u64,
}

impl Histograms {
    fn absorb(&mut self, snap: &TelemetrySnapshot) {
        let sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
        self.batch_ns += sum("rvmtl_batch_solve_nanos");
        self.batches += snap
            .histogram("rvmtl_batch_solve_nanos")
            .map_or(0, |h| h.count);
        self.segment_ns += sum("rvmtl_segment_solve_nanos");
        self.work_item_ns += sum("rvmtl_work_item_nanos");
        self.gc_ns += sum("rvmtl_gc_pause_nanos");
    }
}

/// The outside-in spans and the runtime's counters of one traced replay.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Σ of the timed ingest calls (`observe`, excluding wire decode) plus
    /// the `finish` call.
    pub ingest_ns: u64,
    /// Σ of the timed `next_frame` calls.
    pub decode_ns: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Σ of the timed `checkpoint_bytes` calls.
    pub encode_ns: u64,
    /// Σ of the timed `restore_from_bytes` calls (including replacing the
    /// old monitor).
    pub restore_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Σ of the checkpoint sizes in bytes.
    pub checkpoint_bytes: u64,
    /// Whether the checkpoints were part of the replay's wall time (they are
    /// a probe, outside the wall, on workloads that do not restart).
    pub checkpoint_in_wall: bool,
    /// The runtime's timing histograms.
    pub hist: Histograms,
    /// Solver states explored.
    pub explored: u64,
    /// Solver memo hits.
    pub memo_hits: u64,
    /// GC epochs run.
    pub gc_epochs: u64,
}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall time from the first ingest call to the return of `finish`,
    /// without the benchmark's own telemetry reads and probes.
    pub wall: Duration,
    /// Events delivered to the monitor.
    pub events: u64,
    /// Ingest calls attempted.
    pub attempted: u64,
    /// Ingest calls that returned `Err` (or frames that failed to decode).
    pub failed: u64,
    /// Duration of every ingest call after which
    /// [`StreamMonitor::segments_processed`] grew, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Maximum arena footprint, sampled after each window-closing call.
    pub arena_peak: usize,
    /// The final verdicts and integrity tags.
    pub outcome: Reference,
    /// The layer spans (traced replays only).
    pub spans: Option<Spans>,
}

impl Replay {
    /// Events per second of wall time.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }
}

struct Replayer<'w> {
    w: &'w Workload,
    config: StreamConfig,
    monitor: StreamMonitor,
    segments_seen: usize,
    restart_gc: usize,
    excluded: Duration,
    replay: Replay,
    spans: Spans,
    traced: bool,
}

impl<'w> Replayer<'w> {
    fn new(w: &'w Workload, traced: bool) -> Self {
        let config = stream_config(w, traced);
        let monitor = new_monitor(w, &config);
        Replayer {
            w,
            config,
            monitor,
            segments_seen: 0,
            restart_gc: 0,
            excluded: Duration::ZERO,
            replay: Replay {
                wall: Duration::ZERO,
                events: 0,
                attempted: 0,
                failed: 0,
                latencies_ns: Vec::new(),
                arena_peak: 0,
                outcome: Reference {
                    verdicts: Vec::new(),
                    integrity: Vec::new(),
                },
                spans: None,
            },
            spans: Spans::default(),
            traced,
        }
    }

    /// Accounts one ingest call that took `call` in all, `observe` of it
    /// inside [`StreamMonitor::observe`].
    fn ingested(&mut self, call: Duration, observe: Duration, ok: bool) {
        self.replay.events += 1;
        self.replay.attempted += 1;
        self.replay.failed += u64::from(!ok);
        self.spans.ingest_ns += nanos(observe);
        let seen = self.monitor.segments_processed();
        if seen > self.segments_seen {
            self.segments_seen = seen;
            self.replay.latencies_ns.push(nanos(call));
            self.replay.arena_peak = self
                .replay
                .arena_peak
                .max(self.monitor.memory().total_entries());
        }
        if let Some(every) = self.w.restart_every_gc {
            if self.monitor.gc_runs() >= self.restart_gc + every {
                self.restart(true);
            }
        }
    }

    /// Checkpoints the monitor and replaces it with its restored copy.
    fn restart(&mut self, in_wall: bool) {
        let started = Instant::now();
        if self.traced {
            self.spans.hist.absorb(&self.monitor.telemetry());
        }
        let c0 = Instant::now();
        let bytes = self.monitor.checkpoint_bytes();
        let c1 = Instant::now();
        self.monitor = StreamMonitor::restore_from_bytes(&bytes, self.config.clone())
            .expect("a freshly written checkpoint restores");
        let c2 = Instant::now();
        self.restart_gc = self.monitor.gc_runs();
        self.spans.encode_ns += nanos(c1 - c0);
        self.spans.restore_ns += nanos(c2 - c1);
        self.spans.checkpoints += 1;
        self.spans.checkpoint_bytes += bytes.len() as u64;
        self.spans.checkpoint_in_wall = in_wall;
        self.excluded += if in_wall { c0 - started } else { c2 - started };
    }

    fn finish(mut self, start: Instant) -> Replay {
        if self.traced && self.w.restart_every_gc.is_none() {
            // Workloads that never restart take one checkpoint at the end of
            // the stream, as a probe outside the wall time.
            self.restart(false);
        }
        let t0 = Instant::now();
        let report = self.monitor.finish();
        let t1 = Instant::now();
        self.spans.ingest_ns += nanos(t1 - t0);
        let mut replay = self.replay;
        replay.wall = (t1 - start).saturating_sub(self.excluded);
        replay.outcome = Reference {
            verdicts: report.verdicts,
            integrity: report.integrity,
        };
        if self.traced {
            let mut spans = self.spans;
            spans.hist.absorb(&report.telemetry);
            spans.explored = report.stats.explored_states as u64;
            spans.memo_hits = report.stats.memo_hits as u64;
            spans.gc_epochs = report.gc_runs as u64;
            replay.spans = Some(spans);
        }
        replay
    }
}

/// Replays the workload once; `traced` turns the runtime's timing telemetry
/// on and records the layer spans.
pub fn replay(w: &Workload, traced: bool) -> Replay {
    match &w.wire {
        Some(bytes) => replay_wire(w, bytes, traced),
        None => replay_direct(w, traced),
    }
}

fn replay_direct(w: &Workload, traced: bool) -> Replay {
    let events = w.delivered.clone();
    let mut replayer = Replayer::new(w, traced);
    let start = Instant::now();
    for e in events {
        let t0 = Instant::now();
        let ok = replayer.monitor.observe(e.process, e.time, e.state).is_ok();
        let call = t0.elapsed();
        replayer.ingested(call, call, ok);
    }
    replayer.finish(start)
}

fn replay_wire(w: &Workload, bytes: &[u8], traced: bool) -> Replay {
    let mut replayer = Replayer::new(w, traced);
    let mut reader = FrameReader::new(bytes).expect("the capture has a valid header");
    let expected = w.hello();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let frame = reader.next_frame();
        let decoded = Instant::now();
        replayer.spans.decode_ns += nanos(decoded - t0);
        replayer.spans.frames += u64::from(matches!(frame, Ok(Some(_))));
        match frame {
            Ok(Some(Frame::Event(e))) => {
                let ok = replayer.monitor.observe(e.process, e.time, e.state).is_ok();
                let t1 = Instant::now();
                // The latency sample is the whole frame-to-return call; the
                // ingest span leaves decode to its own layer.
                replayer.ingested(t1 - t0, t1 - decoded, ok);
            }
            Ok(Some(Frame::Hello(hello))) if hello == expected => {}
            Ok(Some(Frame::End)) | Ok(None) => break,
            Ok(Some(_)) | Err(_) => {
                replayer.replay.attempted += 1;
                replayer.replay.failed += 1;
                break;
            }
        }
    }
    replayer.finish(start)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The standalone segmenter probe: the same delivered events through a bare
/// [`IncrementalSegmenter`] (the `distrib` layer of every ingest call).
#[derive(Debug, Clone, Copy)]
pub struct SegmenterProbe {
    /// Σ of the timed `observe` calls plus `finish`.
    pub ns: u64,
    /// Events fed.
    pub events: u64,
    /// Segments closed.
    pub segments: u64,
    /// Segments closed without events.
    pub empty: u64,
    /// Σ events over the closed segments.
    pub segment_events: u64,
    /// Σ happened-before pairs over the closed segments.
    pub hb_pairs: u64,
}

/// Runs the segmenter probe.
pub fn probe_segmenter(w: &Workload) -> SegmenterProbe {
    let events = w.delivered.clone();
    let mut probe = SegmenterProbe {
        ns: 0,
        events: events.len() as u64,
        segments: 0,
        empty: 0,
        segment_events: 0,
        hb_pairs: 0,
    };
    let mut segmenter =
        IncrementalSegmenter::with_base_time(w.processes, EPSILON, w.segment_length, 0)
            .with_policy(w.policy);
    let count = |probe: &mut SegmenterProbe, closed: Vec<rvmtl_distrib::DistributedComputation>| {
        for seg in closed {
            probe.segments += 1;
            probe.empty += u64::from(seg.event_count() == 0);
            probe.segment_events += seg.event_count() as u64;
            probe.hb_pairs += seg.hb().pair_count() as u64;
        }
    };
    for e in events {
        let t0 = Instant::now();
        let closed = segmenter.observe(e.process, e.time, e.state);
        probe.ns += nanos(t0.elapsed());
        count(&mut probe, closed.unwrap_or_default());
    }
    let t0 = Instant::now();
    let tail = segmenter.finish();
    probe.ns += nanos(t0.elapsed());
    count(&mut probe, tail);
    probe
}

/// The standalone wire probe of workloads that do not ingest through the
/// wire: their delivered events captured to a `.rvw` stream and decoded
/// frame by frame. Returns `(Σ decode ns, frames, capture bytes)`.
pub fn probe_wire(w: &Workload) -> (u64, u64, u64) {
    let bytes = capture_events(Vec::new(), &w.hello(), &w.delivered)
        .expect("an in-memory capture cannot fail");
    let mut reader = FrameReader::new(&bytes[..]).expect("the capture has a valid header");
    let (mut ns, mut frames) = (0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let frame = reader.next_frame();
        ns += nanos(t0.elapsed());
        match frame {
            Ok(Some(f)) => {
                frames += 1;
                drop(std::hint::black_box(f));
            }
            _ => break,
        }
    }
    (ns, frames, bytes.len() as u64)
}
