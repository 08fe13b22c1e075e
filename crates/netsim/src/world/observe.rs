//! Observability: trace emission, plain-field kernel counters, and the
//! one bridge that flushes them into an [`imobif_obs::Registry`].

use std::ops::AddAssign;

use imobif_obs::Registry;

use super::World;
use crate::trace::RingTrace;
use crate::{Application, EnergyCategory, NodeId};

/// Plain-field kernel instrumentation, sibling to
/// [`crate::event::QueueStats`]: ordinary `u64` fields bumped inline on hot
/// paths (no atomics, no handle branches, no allocation) and flushed into a
/// registry only by `KernelStats::publish`, which both engines'
/// `publish_metrics` call. A sharded world sums its shards' with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// HELLO beacons actually broadcast (dead nodes don't beacon).
    pub hello_beacons: u64,
    /// Application timers dispatched.
    pub timers_fired: u64,
    /// HELLO fan-out (hearers per beacon) binned by bit length: bin 0 is
    /// "no hearers", bin `i` covers `2^(i-1) ≤ n < 2^i`, the last bin
    /// collects 64+.
    pub hello_fanout_bins: [u64; 8],
    /// Beacons whose cached hearer list was still exact: the node beaconed
    /// from the same spot, and in a world small enough to scan the grid's
    /// clock had not moved, past that no move or death had forgotten the
    /// list. With `hello_cache_misses` it sums to `hello_beacons` in every
    /// world.
    pub hello_cache_hits: u64,
    /// Beacons whose hearer list was recomputed: by a scan of the node
    /// array in a small world, else by a range query over its grid window.
    pub hello_cache_misses: u64,
    /// Neighbor-table links the beacons changed: hearers that joined a
    /// beacon's hearer set plus hearers that left it. A beacon whose hearer
    /// set is unchanged writes no table and adds nothing here.
    pub hello_link_changes: u64,
}

impl KernelStats {
    /// Representative value per `hello_fanout_bins` slot for flushing into
    /// a histogram with bounds `[0, 1, 3, 7, 15, 31, 63]`.
    pub const FANOUT_BIN_VALUES: [u64; 8] = [0, 1, 3, 7, 15, 31, 63, 127];

    #[inline]
    pub(super) fn fanout_bin(n: usize) -> usize {
        ((usize::BITS - n.leading_zeros()) as usize).min(7)
    }

    /// Adds the counters to `registry`: `kernel.hello_beacons`,
    /// `kernel.timers_fired`, `kernel.hello_cache_{hits,misses}`,
    /// `kernel.hello_link_changes` and the `kernel.hello_fanout` histogram.
    pub(crate) fn publish(&self, registry: &Registry) {
        let KernelStats {
            hello_beacons,
            timers_fired,
            hello_fanout_bins,
            hello_cache_hits,
            hello_cache_misses,
            hello_link_changes,
        } = *self;
        registry.counter("kernel.hello_beacons").add(hello_beacons);
        registry.counter("kernel.timers_fired").add(timers_fired);
        registry.counter("kernel.hello_cache_hits").add(hello_cache_hits);
        registry.counter("kernel.hello_cache_misses").add(hello_cache_misses);
        registry.counter("kernel.hello_link_changes").add(hello_link_changes);
        let fanout =
            registry.histogram("kernel.hello_fanout", &[0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0]);
        for (&value, &count) in Self::FANOUT_BIN_VALUES.iter().zip(&hello_fanout_bins) {
            fanout.observe_n(value as f64, count);
        }
    }
}

/// Field by field: a new field does not compile until it is summed here.
impl AddAssign for KernelStats {
    fn add_assign(&mut self, other: KernelStats) {
        let KernelStats {
            hello_beacons,
            timers_fired,
            hello_fanout_bins,
            hello_cache_hits,
            hello_cache_misses,
            hello_link_changes,
        } = other;
        self.hello_beacons += hello_beacons;
        self.timers_fired += timers_fired;
        for (acc, bin) in self.hello_fanout_bins.iter_mut().zip(hello_fanout_bins) {
            *acc += bin;
        }
        self.hello_cache_hits += hello_cache_hits;
        self.hello_cache_misses += hello_cache_misses;
        self.hello_link_changes += hello_link_changes;
    }
}

impl<A: Application> World<A> {
    /// Enables in-memory tracing, keeping the most recent `capacity`
    /// kernel events (see [`crate::trace`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.reach.trace = Some(RingTrace::new(capacity));
    }

    /// The trace ring, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&RingTrace> {
        self.reach.trace.as_ref()
    }

    /// Plain-field kernel instrumentation accumulated since construction.
    #[must_use]
    pub fn kernel_stats(&self) -> &KernelStats {
        &self.engine.stats
    }

    /// Flushes every plain-field stat — queue, kernel, energy ledger,
    /// packet counters, trace occupancy — into `registry`.
    ///
    /// This is the only bridge between the simulator's zero-cost inline
    /// counters and the observability registry: call it once per finished
    /// run (the experiment runner does). Counters accumulate across calls,
    /// so a batch of instances publishes network-wide totals; gauges hold
    /// the most recent run's value. Publishing to a disabled registry is a
    /// no-op beyond a few detached handle constructions.
    pub fn publish_metrics(&self, registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        let q = self.engine.queue.stats();
        registry.counter("queue.pushes").add(q.pushes);
        registry.counter("queue.pops").add(q.pops);
        registry.gauge("queue.max_len").set(q.max_len as f64);

        registry.counter("kernel.events_processed").add(self.engine.events_processed);
        self.engine.stats.publish(registry);

        let totals = self.engine.ledger.totals();
        for (category, joules) in [
            (EnergyCategory::Data, totals.data),
            (EnergyCategory::Mobility, totals.mobility),
            (EnergyCategory::Hello, totals.hello),
            (EnergyCategory::Notification, totals.notification),
        ] {
            registry.float_counter(&format!("energy.{}_joules", category.as_str())).add(joules);
        }
        registry.counter("packets.sent").add(self.engine.ledger.packets_sent);
        registry.counter("packets.delivered").add(self.engine.ledger.packets_delivered);
        registry.counter("packets.dropped").add(self.engine.ledger.packets_dropped);
        let deaths = (0..self.engine.nodes.len())
            .filter(|&i| self.engine.ledger.death_time(NodeId::new(i as u32)).is_some())
            .count() as u64;
        registry.counter("kernel.node_deaths").add(deaths);

        if let Some(trace) = &self.reach.trace {
            registry.counter("trace.recorded").add(trace.total_recorded());
            registry.counter("trace.evicted").add(trace.evicted());
        }
    }
}
