//! The sharded engine's always-on epoch-pipeline counters.
//!
//! The engine keeps no profiling-only bookkeeping. What it knows about its
//! own cost comes from two sources that exist anyway, and
//! [`ShardedWorld::publish_metrics`](crate::ShardedWorld::publish_metrics)
//! flushes both:
//!
//! * [`EpochCounters`] — plain `u64` pipeline counters (a few integer adds
//!   per epoch, no clock reads, no allocation — the same discipline as
//!   `KernelStats`), published as the `shard.*` counter families and
//!   cumulative from world construction;
//! * the [`SpanSink`](imobif_obs::SpanSink) phase aggregates — wall-time
//!   totals and span counts per `(phase, shard)`, populated only while
//!   span tracing is enabled ([`ShardedWorld::enable_spans`]
//!   (crate::ShardedWorld::enable_spans)); when off, the engine never
//!   reads the clock. `compute` sums the per-shard spans, so on threaded
//!   runs it counts every thread's time and can exceed the run's wall
//!   clock; the coordinator's wait for its scoped threads is the
//!   `barrier_wait` phase.

/// Always-on epoch-pipeline counters. Incremented unconditionally by the
/// run loops and the barrier: pure integer adds, no clock, no allocation.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct EpochCounters {
    /// Barrier-delimited windows executed.
    pub(super) epochs: u64,
    /// Shard event loops actually run (≤ `epochs × shard_count`).
    pub(super) shard_epochs: u64,
    /// Shard event loops skipped because the shard had no event inside
    /// the window.
    pub(super) idle_shard_epochs_skipped: u64,
    /// Cross-shard deliveries the barriers sorted and enqueued.
    pub(super) delivers_merged: u64,
    /// HELLO link changes (a hearer joining or leaving a beacon's hearer
    /// set) applied at barriers, dead hearers' skipped ones included.
    pub(super) observations_applied: u64,
    /// Replica position, liveness and beacon-board patches applied at
    /// barriers.
    pub(super) replica_patches: u64,
    /// Windows whose start jumped past the previous window's end — the
    /// activity scheduler fast-forwarding over idle sim time.
    pub(super) fast_forward_epochs: u64,
    /// Simulated microseconds those jumps skipped.
    pub(super) fast_forward_us_skipped: u64,
}
