//! Epoch span tracing: timed phases of a sharded run, ring-buffered.
//!
//! A [`Span`] is one timed phase of one epoch — a shard's event-loop
//! window, or a coordinator-side barrier stage — carrying
//! `(name, shard, epoch, t_start, t_end)` with microsecond timestamps
//! relative to the sink's creation instant. Spans follow the same
//! zero-cost discipline as trace effects and the metric registry: the
//! engine holds an `Option<Box<SpanSink>>`, and when it is `None` no
//! timestamp is read and no span is constructed. Enabled, the sink is a
//! bounded ring (like `RingTrace` in `imobif-netsim`) plus a small table
//! of per-`(name, shard)` aggregates, so long runs keep exact phase
//! totals and pre-binned wall-time histograms even after the ring starts
//! evicting raw spans. Steady-state recording allocates nothing: the ring
//! is pre-sized, and the aggregate table saturates at
//! `phases × (shards + 1)` entries after the first few epochs.
//!
//! Workers on other threads cannot borrow the sink, so they time against a
//! copy of the sink's [`SpanClock`] and ship `(start_us, end_us)` pairs
//! back for the coordinator to record.

use std::collections::VecDeque;
use std::time::Instant;

use crate::json::Json;

/// Shard index used for coordinator-side spans (scheduling, barrier
/// stages) that belong to no single shard.
pub const COORD_SHARD: u32 = u32::MAX;

/// Canonical phase names emitted by the sharded engine. Collected here so
/// exporters, tests, and docs agree on the vocabulary.
pub mod phase {
    /// Choosing the next window and collecting active shards.
    pub const SCHED: &str = "sched";
    /// One shard's event loop over one epoch window.
    pub const COMPUTE: &str = "compute";
    /// Coordinator wall time from first job submit to last job collected
    /// (pooled runs only).
    pub const BARRIER_WAIT: &str = "barrier_wait";
    /// K-way merge of cross-shard deliveries at the barrier.
    pub const XFER_MERGE: &str = "xfer_merge";
    /// Grouped HELLO observation application at the barrier.
    pub const OBS_APPLY: &str = "obs_apply";
    /// Replica position/liveness patching at the barrier.
    pub const REPLICA_SYNC: &str = "replica_sync";
}

/// Upper bounds (µs) of the pre-binned span wall-time histogram; one
/// implicit overflow bin follows the last bound (mirrors the fixed-bucket
/// [`Histogram`](crate::registry::Histogram) + `+Inf` convention).
pub const SPAN_WALL_BOUNDS_US: [f64; 7] =
    [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0];

/// Representative value per bin for flushing pre-binned counts into a
/// `Histogram` via `observe_n` (the bound itself; the overflow bin uses
/// 10× the last bound).
pub const SPAN_WALL_BIN_VALUES: [f64; 8] =
    [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0, 100_000_000.0];

/// Number of bins in [`PhaseAgg::bins`] (bounds plus the overflow bin).
pub const SPAN_WALL_BINS: usize = SPAN_WALL_BOUNDS_US.len() + 1;

/// One timed phase of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (one of [`phase`]'s constants for engine spans).
    pub name: &'static str,
    /// Owning shard, or [`COORD_SHARD`] for coordinator-side phases.
    pub shard: u32,
    /// Epoch ordinal (0-based, counted from world start).
    pub epoch: u64,
    /// Start, µs since the sink's creation.
    pub start_us: u64,
    /// End, µs since the sink's creation.
    pub end_us: u64,
}

impl Span {
    /// Wall time of the span in microseconds.
    #[must_use]
    pub fn wall_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The span as a JSON object (for `spans dump` JSONL streams).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let shard = if self.shard == COORD_SHARD {
            Json::str("coord")
        } else {
            Json::Num(self.shard as f64)
        };
        Json::Obj(vec![
            ("name".into(), Json::str(self.name)),
            ("shard".into(), shard),
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("start_us".into(), Json::Num(self.start_us as f64)),
            ("end_us".into(), Json::Num(self.end_us as f64)),
        ])
    }
}

/// Cumulative statistics for one `(name, shard)` phase: never evicted, so
/// totals stay exact regardless of ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Phase name.
    pub name: &'static str,
    /// Owning shard, or [`COORD_SHARD`].
    pub shard: u32,
    /// Spans recorded.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_us: u64,
    /// Largest single span, µs.
    pub max_us: u64,
    /// Pre-binned wall-time histogram over [`SPAN_WALL_BOUNDS_US`] plus an
    /// overflow bin.
    pub bins: [u64; SPAN_WALL_BINS],
}

impl PhaseAgg {
    /// Mean span wall time in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// A copyable time origin for timing spans off-thread: workers carry one
/// by value and ship `(start_us, end_us)` pairs back to the sink owner.
#[derive(Debug, Clone, Copy)]
pub struct SpanClock(Instant);

impl SpanClock {
    /// Microseconds elapsed since the owning sink was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// The span ring: bounded raw-span storage plus exact per-phase
/// aggregates (see module docs).
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    capacity: usize,
    ring: VecDeque<Span>,
    recorded: u64,
    evicted: u64,
    agg: Vec<PhaseAgg>,
}

impl SpanSink {
    /// Creates a sink whose ring retains at most `capacity` raw spans
    /// (clamped to at least 1). The ring storage is allocated up front.
    #[must_use]
    pub fn new(capacity: usize) -> SpanSink {
        let capacity = capacity.max(1);
        SpanSink {
            origin: Instant::now(),
            capacity,
            ring: VecDeque::with_capacity(capacity),
            recorded: 0,
            evicted: 0,
            agg: Vec::new(),
        }
    }

    /// A copyable clock sharing this sink's time origin.
    #[must_use]
    pub fn clock(&self) -> SpanClock {
        SpanClock(self.origin)
    }

    /// Microseconds since the sink was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.clock().now_us()
    }

    /// Records a completed span: pushes it onto the ring (evicting the
    /// oldest at capacity) and folds it into the `(name, shard)`
    /// aggregate. Zero allocations once the ring is full and the phase's
    /// aggregate exists.
    pub fn record(
        &mut self,
        name: &'static str,
        shard: u32,
        epoch: u64,
        start_us: u64,
        end_us: u64,
    ) {
        let span = Span { name, shard, epoch, start_us, end_us };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(span);
        self.recorded += 1;
        let wall = span.wall_us();
        // Linear scan: the table is tiny (phases × (shards + 1)) and the
        // hot entry is usually near the front.
        let agg = match self.agg.iter_mut().find(|a| a.shard == shard && a.name == name) {
            Some(a) => a,
            None => {
                self.agg.push(PhaseAgg {
                    name,
                    shard,
                    count: 0,
                    total_us: 0,
                    max_us: 0,
                    bins: [0; SPAN_WALL_BINS],
                });
                self.agg.last_mut().expect("just pushed")
            }
        };
        agg.count += 1;
        agg.total_us += wall;
        agg.max_us = agg.max_us.max(wall);
        let bin = SPAN_WALL_BOUNDS_US
            .iter()
            .position(|&b| (wall as f64) <= b)
            .unwrap_or(SPAN_WALL_BOUNDS_US.len());
        agg.bins[bin] += 1;
    }

    /// The retained raw spans, oldest first.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = &Span> {
        self.ring.iter()
    }

    /// The per-`(name, shard)` aggregates, in first-recorded order.
    #[must_use]
    pub fn aggregates(&self) -> &[PhaseAgg] {
        &self.agg
    }

    /// Total spans recorded (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Raw spans evicted from the ring.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Summed wall seconds across every shard's aggregate for `name`.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        self.agg.iter().filter(|a| a.name == name).map(|a| a.total_us as f64 / 1e6).sum()
    }

    /// The retained spans as a JSONL document (one object per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.ring {
            out.push_str(&s.to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_but_aggregates_stay_exact() {
        let mut sink = SpanSink::new(4);
        for e in 0..10u64 {
            sink.record(phase::COMPUTE, 0, e, e * 100, e * 100 + 50);
        }
        assert_eq!(sink.recorded(), 10);
        assert_eq!(sink.evicted(), 6);
        assert_eq!(sink.spans().len(), 4);
        // Oldest retained span is epoch 6.
        assert_eq!(sink.spans().next().expect("non-empty").epoch, 6);
        let agg = &sink.aggregates()[0];
        assert_eq!((agg.name, agg.shard), (phase::COMPUTE, 0));
        assert_eq!(agg.count, 10);
        assert_eq!(agg.total_us, 500);
        assert_eq!(agg.max_us, 50);
        assert_eq!(agg.bins.iter().sum::<u64>(), 10);
        // 50 µs lands in the (10, 100] bin.
        assert_eq!(agg.bins[1], 10);
    }

    #[test]
    fn aggregates_key_on_name_and_shard() {
        let mut sink = SpanSink::new(16);
        sink.record(phase::COMPUTE, 0, 0, 0, 10);
        sink.record(phase::COMPUTE, 1, 0, 0, 20);
        sink.record(phase::XFER_MERGE, COORD_SHARD, 0, 20, 25);
        assert_eq!(sink.aggregates().len(), 3);
        assert!((sink.total_secs(phase::COMPUTE) - 30e-6).abs() < 1e-12);
        assert!((sink.total_secs(phase::XFER_MERGE) - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn binning_covers_bounds_and_overflow() {
        let mut sink = SpanSink::new(64);
        sink.record("p", 0, 0, 0, 10); // first bin (<= 10)
        sink.record("p", 0, 1, 0, 11); // second bin
        sink.record("p", 0, 2, 0, 20_000_000); // overflow bin
        let agg = &sink.aggregates()[0];
        assert_eq!(agg.bins[0], 1);
        assert_eq!(agg.bins[1], 1);
        assert_eq!(agg.bins[SPAN_WALL_BINS - 1], 1);
    }

    #[test]
    fn jsonl_round_trips_through_json_parser() {
        let mut sink = SpanSink::new(8);
        sink.record(phase::SCHED, COORD_SHARD, 3, 1, 2);
        sink.record(phase::COMPUTE, 7, 3, 2, 9);
        let text = sink.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let coord = Json::parse(lines[0]).expect("valid json");
        assert_eq!(coord.get("shard").and_then(Json::as_str), Some("coord"));
        let shard = Json::parse(lines[1]).expect("valid json");
        assert_eq!(shard.get("shard").and_then(Json::as_u64), Some(7));
        assert_eq!(shard.get("end_us").and_then(Json::as_u64), Some(9));
    }
}
