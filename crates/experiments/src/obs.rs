//! Process-wide metrics plumbing for the experiment engine.
//!
//! The engine instruments itself against a single shared [`Registry`]. By
//! default that registry is *disabled*: every handle the engine asks for
//! is a detached dummy, so instrumented code paths stay allocation- and
//! branch-free (the hot kernel counters are plain `u64`s flushed once per
//! run — see `World::publish_metrics`). The CLI swaps in an enabled registry with
//! [`enable_metrics`] when the user passes `--metrics`.

use std::sync::{Arc, Mutex, OnceLock};

use imobif_obs::{Registry, Snapshot, TraceHealth};

fn slot() -> &'static Mutex<Arc<Registry>> {
    static SLOT: OnceLock<Mutex<Arc<Registry>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Arc::new(Registry::disabled())))
}

/// Installs `registry` as the engine-wide metrics sink.
pub fn set_registry(registry: Arc<Registry>) {
    *slot().lock().expect("registry slot lock") = registry;
}

/// The engine-wide metrics registry. Disabled unless someone installed an
/// enabled one; cloning the `Arc` is cheap enough for per-run use.
#[must_use]
pub fn registry() -> Arc<Registry> {
    Arc::clone(&slot().lock().expect("registry slot lock"))
}

/// Installs (and returns) a fresh enabled registry — the `--metrics` path.
#[must_use]
pub fn enable_metrics() -> Arc<Registry> {
    let reg = Arc::new(Registry::enabled());
    set_registry(Arc::clone(&reg));
    reg
}

/// Restores the default disabled registry.
pub fn disable_metrics() {
    set_registry(Arc::new(Registry::disabled()));
}

/// Flushes the memo-layer hit/miss totals into `registry` as gauges.
///
/// The memo counters are process-lifetime totals, so they publish as
/// point-in-time gauges rather than deltas — calling this twice does not
/// double-count.
pub fn publish_memo_metrics(registry: &Registry) {
    if !registry.is_enabled() {
        return;
    }
    let stats = crate::runner::memo_stats();
    registry.gauge("memo.case.hits").set(stats.case_hits as f64);
    registry.gauge("memo.case.misses").set(stats.case_misses as f64);
    registry.gauge("memo.baseline.hits").set(stats.baseline_hits as f64);
    registry.gauge("memo.baseline.misses").set(stats.baseline_misses as f64);
    registry.gauge("memo.draw.hits").set(stats.draw_hits as f64);
    registry.gauge("memo.draw.misses").set(stats.draw_misses as f64);
}

/// Assembles the manifest's trace-health block from a metrics snapshot.
///
/// The engines publish their sink health as `trace.{recorded,evicted}`
/// (`World::publish_metrics` / `ShardedWorld::publish_metrics`) and
/// `spans.{recorded,evicted}` (sharded engine only) counter families; a
/// family absent from the snapshot means the corresponding sink never ran
/// and counts as zero.
#[must_use]
pub fn trace_health(snap: &Snapshot) -> TraceHealth {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    TraceHealth {
        trace_recorded: c("trace.recorded"),
        trace_evicted: c("trace.evicted"),
        spans_recorded: c("spans.recorded"),
        spans_evicted: c("spans.evicted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_is_disabled() {
        let _g = crate::test_lock();
        // Other tests may have installed one; force the default state.
        disable_metrics();
        assert!(!registry().is_enabled());
        // Handles from a disabled registry work but record nothing.
        let c = registry().counter("test.noop");
        c.inc();
        assert!(registry().snapshot().entries.is_empty());
    }

    #[test]
    fn enable_metrics_swaps_the_slot() {
        let _g = crate::test_lock();
        let reg = enable_metrics();
        assert!(registry().is_enabled());
        reg.counter("test.visible").inc();
        assert_eq!(registry().snapshot().counter("test.visible"), Some(1));
        disable_metrics();
        assert!(!registry().is_enabled());
    }

    #[test]
    fn trace_health_reads_sink_counters_and_defaults_to_zero() {
        let reg = Registry::enabled();
        reg.counter("trace.recorded").add(7);
        reg.counter("spans.recorded").add(3);
        let h = trace_health(&reg.snapshot());
        assert_eq!(h.trace_recorded, 7);
        assert_eq!(h.trace_evicted, 0);
        assert_eq!(h.spans_recorded, 3);
        assert_eq!(h.spans_evicted, 0);
        assert_eq!(trace_health(&Registry::disabled().snapshot()), TraceHealth::default());
    }

    #[test]
    fn memo_metrics_publish_as_gauges() {
        let _g = crate::test_lock();
        let reg = Registry::enabled();
        publish_memo_metrics(&reg);
        publish_memo_metrics(&reg); // idempotent: gauges, not counters
        let snap = reg.snapshot();
        assert!(snap.get("memo.case.hits").is_some());
        assert!(snap.get("memo.draw.misses").is_some());
    }
}
