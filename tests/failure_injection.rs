//! Failure injection across the stack: degenerate inputs, disconnected
//! topologies, dead nodes, and hostile estimates must degrade gracefully,
//! never panic.

use std::sync::Arc;

use imobif::{
    install_flow, FlowSetupError, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy,
    MobilityMode, MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::routing::GreedyRouter;
use imobif_netsim::{FlowId, NodeId, RouteError, SimConfig, SimTime, TopologyView, World};

fn world_with(points: &[(f64, f64)], energies: &[f64]) -> (World<ImobifApp>, Vec<NodeId>) {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut world = World::new(SimConfig::default()).unwrap();
    let cfg = ImobifConfig { mode: MobilityMode::Informed, ..Default::default() };
    let ids = points
        .iter()
        .zip(energies)
        .map(|(&(x, y), &e)| {
            world.add_node(
                Point2::new(x, y),
                Battery::new(e).unwrap(),
                ImobifApp::new(cfg, strategy.clone()),
            )
        })
        .collect();
    world.start();
    (world, ids)
}

#[test]
fn all_routers_reject_disconnected_pairs() {
    let topo = TopologyView::new(
        vec![Point2::new(0.0, 0.0), Point2::new(500.0, 0.0)],
        vec![true, true],
        30.0,
    );
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    assert!(matches!(GreedyRouter.route(&topo, a, b), Err(RouteError::NoProgress { .. })));
}

#[test]
fn flow_to_dead_node_is_rejected_at_setup() {
    let (mut w, ids) = world_with(&[(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)], &[100.0, 100.0, 0.0]);
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), 8_000);
    assert_eq!(install_flow(&mut w, &spec).unwrap_err(), FlowSetupError::DeadNode(ids[2]));
}

#[test]
fn source_death_stops_the_flow_quietly() {
    // The source can afford only a handful of packets.
    let (mut w, ids) = world_with(&[(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)], &[0.05, 100.0, 100.0]);
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), 8_000_000);
    install_flow(&mut w, &spec).unwrap();
    w.run_while(|w| w.time() < SimTime::from_micros(100_000_000));
    assert!(!w.is_alive(ids[0]));
    // Data-plane activity stops (only HELLO beacons keep ticking).
    let sent_before = w.ledger().packets_sent;
    w.run_while(|w| w.time() < SimTime::from_micros(130_000_000));
    assert_eq!(w.ledger().packets_sent, sent_before, "a dead source must stay silent");
}

/// Emulates a stale-route situation: only the source knows the flow, so the
/// receiver must drop arriving data as unroutable and count it, not panic.
#[test]
fn packets_for_unknown_flows_are_dropped_and_counted() {
    let (mut w, ids) = world_with(&[(0.0, 0.0), (20.0, 0.0)], &[100.0, 100.0]);
    use imobif::FlowEntry;
    let flow = FlowId::new(9);
    let entry = FlowEntry::new(flow, ids[0], ids[1], None, Some(ids[1]));
    w.app_mut(ids[0]).install_entry(entry);
    w.app_mut(ids[0]).register_source(
        flow,
        imobif::SourceFlow {
            total_bits: 16_000,
            sent_bits: 0,
            packet_bits: 8_000,
            interval: imobif_netsim::SimDuration::from_secs(1),
            mobility_enabled: false,
            estimate_factor: 1.0,
            seq: 0,
            status_changes: 0,
            strategy: imobif::StrategyKind::MinTotalEnergy,
        },
    );
    w.schedule_timer(ids[0], imobif_netsim::SimDuration::from_millis(100), 9);
    w.run_while(|w| w.time() < SimTime::from_micros(10_000_000));
    assert!(w.app(ids[1]).counters().unroutable_packets > 0);
}

#[test]
fn wild_estimates_never_break_delivery() {
    for factor in [0.001, 0.1, 10.0, 1000.0] {
        let (mut w, ids) = world_with(
            &[(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)],
            &[10_000.0; 5],
        );
        let mut spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), 800_000);
        spec.estimate_factor = factor;
        install_flow(&mut w, &spec).unwrap();
        w.run_while(|w| w.time() < SimTime::from_micros(200_000_000));
        let delivered =
            w.app(*ids.last().unwrap()).dest(FlowId::new(0)).map_or(0, |d| d.received_bits);
        assert_eq!(delivered, 800_000, "estimate factor {factor} broke delivery");
    }
}

#[test]
fn zero_length_and_trivial_flows_are_rejected() {
    let (mut w, ids) = world_with(&[(0.0, 0.0), (20.0, 0.0)], &[100.0, 100.0]);
    assert_eq!(
        install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), ids.clone(), 0)).unwrap_err(),
        FlowSetupError::EmptyFlow
    );
    assert_eq!(
        install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), vec![ids[0]], 8_000))
            .unwrap_err(),
        FlowSetupError::PathTooShort
    );
}

#[test]
fn relay_killed_by_movement_is_survivable_by_the_world() {
    // A relay with just enough energy to move but not transmit afterwards.
    let (mut w, ids) =
        world_with(&[(0.0, 0.0), (20.0, 15.0), (40.0, 0.0)], &[10_000.0, 0.6, 10_000.0]);
    // Force movement regardless of cost.
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    *w.app_mut(ids[1]) = ImobifApp::new(
        ImobifConfig { mode: MobilityMode::CostUnaware, ..Default::default() },
        strategy,
    );
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), 8_000_000);
    install_flow(&mut w, &spec).unwrap();
    w.run_while(|w| {
        w.time() < SimTime::from_micros(60_000_000) && w.ledger().first_death().is_none()
    });
    assert!(!w.is_alive(ids[1]), "the relay should have worked itself to death");
    // The rest of the network is untouched.
    assert!(w.is_alive(ids[0]) && w.is_alive(ids[2]));
}
