//! The decision cache must be *invisible* in simulation results: it may
//! only change how fast a run executes, never what happens in it. This
//! test runs the same informed-mobility scenario with the cache on and off
//! and requires the full kernel traces to be bit-for-bit identical.

use std::sync::Arc;

use imobif::{
    install_flow, DecisionCacheConfig, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy,
    MobilityMode, MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::trace::TraceEvent;
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

/// Runs the 5-node zigzag informed-mobility scenario and returns its full
/// trace plus the summed relay cache counters.
fn run_scenario(cache_enabled: bool) -> (Vec<TraceEvent>, u64, u64) {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut w = World::new(SimConfig::default()).unwrap();
    let app_cfg = ImobifConfig {
        mode: MobilityMode::Informed,
        cache: DecisionCacheConfig { enabled: cache_enabled, ..Default::default() },
        ..Default::default()
    };
    let pts = [(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)];
    let ids: Vec<NodeId> = pts
        .iter()
        .map(|&(x, y)| {
            w.add_node(
                Point2::new(x, y),
                Battery::new(100_000.0).unwrap(),
                ImobifApp::new(app_cfg, strategy.clone()),
            )
        })
        .collect();
    w.enable_tracing(100_000);
    w.start();
    install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), ids.clone(), 48_000_000))
        .unwrap();
    w.run_while(|w| w.time() < SimTime::from_micros(200_000_000));

    let trace = w.trace().expect("tracing enabled").events();
    let (mut hits, mut misses) = (0, 0);
    for &id in &ids {
        let c = w.app(id).counters();
        hits += c.cache_hits;
        misses += c.cache_misses;
    }
    (trace, hits, misses)
}

#[test]
fn decision_cache_does_not_change_the_trace() {
    let (cached, hits, misses) = run_scenario(true);
    let (uncached, no_hits, _) = run_scenario(false);

    // The cache must actually engage — otherwise this test proves nothing.
    assert!(hits > 0, "expected cache hits in a steady 200 s flow, got {hits}");
    assert!(misses > 0, "first evaluation per flow is always a miss");
    assert_eq!(no_hits, 0, "disabled cache must never report hits");

    assert_eq!(
        cached.len(),
        uncached.len(),
        "cached and uncached runs produced different event counts"
    );
    for (i, (a, b)) in cached.iter().zip(&uncached).enumerate() {
        assert_eq!(a, b, "trace diverges at event {i}");
    }
}
