//! The benchmark's own spans: one per round, per figure or spec call, per
//! arena build and run phase, and per layer microbenchmark.
//!
//! Spans go to an [`imobif_obs::SpanSink`]. Its `shard` field carries the
//! workload's index in [`crate::workload::Workload::ALL`] and its `epoch`
//! field the round number (0 is the warm-up), so one JSONL file holds every
//! workload of a run.

use imobif_obs::SpanSink;

/// Raw spans kept; aggregates stay exact beyond this.
const CAPACITY: usize = 1 << 14;

/// A span sink plus the current workload and round.
#[derive(Debug)]
pub struct Spans {
    sink: SpanSink,
    workload: u32,
    round: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { sink: SpanSink::new(CAPACITY), workload: 0, round: 0 }
    }
}

impl Spans {
    /// Tags later spans with `workload` and `round`.
    pub fn at(&mut self, workload: u32, round: u64) {
        self.workload = workload;
        self.round = round;
    }

    /// Opens a span: its start time, for [`Spans::end`].
    #[must_use]
    pub fn start(&self) -> u64 {
        self.sink.now_us()
    }

    /// Closes the span opened at `start` under `name`.
    pub fn end(&mut self, name: &'static str, start: u64) {
        self.sink.record(name, self.workload, self.round, start, self.sink.now_us());
    }

    /// Runs `f` inside a span named `name`; returns its result and its wall
    /// time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.start();
        let t0 = std::time::Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(name, start);
        (out, secs)
    }

    /// The recorded spans as JSONL, one object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.sink.to_jsonl()
    }
}
