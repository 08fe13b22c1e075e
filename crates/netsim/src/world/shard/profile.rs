//! Per-epoch cost attribution for the sharded engine, derived on demand.
//!
//! Since the span-tracing rework, the engine keeps no profiling-only
//! bookkeeping. [`EpochProfile`] is assembled from two sources that exist
//! anyway:
//!
//! * [`EpochCounters`] — always-on plain `u64` pipeline counters (a few
//!   integer adds per epoch, no clock reads, no allocation — the same
//!   discipline as `KernelStats`);
//! * the [`SpanSink`](imobif_obs::SpanSink) phase aggregates — wall-time
//!   totals per `(phase, shard)`, populated only while span tracing is
//!   enabled ([`ShardedWorld::enable_spans`]
//!   (crate::ShardedWorld::enable_spans)); when off, the engine never
//!   reads the clock.
//!
//! Format change vs the pre-span profiler: `compute_secs` now sums the
//! *per-shard* compute spans, so on pooled runs it counts total worker
//! time and can exceed the run's wall clock (the old value was the
//! coordinator's submit-to-collect wall, now reported separately as the
//! `barrier_wait` phase). `apply_secs` is the sum of the three barrier
//! phases (`replica_sync` + `obs_apply` + `xfer_merge`). The counter
//! fields are cumulative from world construction, not from profiling
//! enablement.

use imobif_obs::span::phase;
use imobif_obs::SpanSink;

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
    /// Cross-shard deliveries routed through the k-way merge.
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
    /// Shard jobs submitted to the worker pool (pooled runs only).
    pub(super) pool_jobs: u64,
    /// Largest number of jobs in flight in one epoch (pooled runs only).
    pub(super) pool_max_depth: u64,
}

/// Cumulative epoch-pipeline counters and wall-time attribution. A
/// point-in-time view derived by
/// [`ShardedWorld::epoch_profile`](crate::ShardedWorld::epoch_profile);
/// see the module docs for how each field is sourced and how the format
/// changed with span tracing.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EpochProfile {
    /// Barrier-delimited windows executed.
    pub epochs: u64,
    /// Shard event loops actually run (≤ `epochs × shard_count`).
    pub shard_epochs: u64,
    /// Shard event loops skipped because the shard had no event inside the
    /// window — the work the activity scheduler avoids versus running
    /// every shard every epoch.
    pub idle_shard_epochs_skipped: u64,
    /// Cross-shard deliveries routed through the k-way merge.
    pub delivers_merged: u64,
    /// HELLO link changes (a hearer joining or leaving a beacon's hearer
    /// set) applied at barriers, dead hearers' skipped ones included.
    pub observations_applied: u64,
    /// Replica position, liveness and beacon-board patches applied at
    /// barriers.
    pub replica_patches: u64,
    /// Wall-clock seconds choosing windows and active shards.
    pub sched_secs: f64,
    /// Wall-clock seconds inside shard event loops, summed per shard (may
    /// exceed run wall time on pooled runs).
    pub compute_secs: f64,
    /// Wall-clock seconds applying barrier effects.
    pub apply_secs: f64,
}

impl EpochProfile {
    /// Mean shards run per epoch.
    #[must_use]
    pub fn mean_active_shards(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.shard_epochs as f64 / self.epochs as f64
        }
    }

    /// Assembles the profile view from the always-on counters and the
    /// span aggregates.
    pub(super) fn derive(c: &EpochCounters, sink: &SpanSink) -> EpochProfile {
        EpochProfile {
            epochs: c.epochs,
            shard_epochs: c.shard_epochs,
            idle_shard_epochs_skipped: c.idle_shard_epochs_skipped,
            delivers_merged: c.delivers_merged,
            observations_applied: c.observations_applied,
            replica_patches: c.replica_patches,
            sched_secs: sink.total_secs(phase::SCHED),
            compute_secs: sink.total_secs(phase::COMPUTE),
            apply_secs: sink.total_secs(phase::REPLICA_SYNC)
                + sink.total_secs(phase::OBS_APPLY)
                + sink.total_secs(phase::XFER_MERGE),
        }
    }
}
