//! Energy-conservation invariants: every joule that leaves a battery is
//! mirrored in the ledger under exactly one category, across the whole
//! stack.

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

fn build(mode: MobilityMode, energies: &[f64]) -> (World<ImobifApp>, Vec<NodeId>) {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut world = World::new(SimConfig::default()).unwrap();
    let cfg = ImobifConfig { mode, ..Default::default() };
    let pts = [(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)];
    let ids: Vec<NodeId> = pts
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

fn run_flow(world: &mut World<ImobifApp>, ids: &[NodeId], bits: u64) {
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.to_vec(), bits);
    install_flow(world, &spec).unwrap();
    let horizon = SimTime::from_micros((spec.packet_count() + 30) * 1_000_000);
    world.run_while(|w| w.time() < horizon);
}

/// Without deaths, ledger totals equal battery drawdown exactly, for every
/// mode.
#[test]
fn ledger_equals_battery_drawdown() {
    for mode in [MobilityMode::NoMobility, MobilityMode::CostUnaware, MobilityMode::Informed] {
        let energies = vec![10_000.0; 5];
        let (mut w, ids) = build(mode, &energies);
        run_flow(&mut w, &ids, 4_000_000);
        assert!(w.ledger().first_death().is_none(), "no node should die here");
        let drawdown: f64 = ids.iter().map(|&id| 10_000.0 - w.residual_energy(id)).sum();
        let ledger = w.ledger().totals().total();
        assert!((ledger - drawdown).abs() < 1e-6, "{mode}: ledger {ledger} != drawdown {drawdown}");
    }
}

/// Per-node ledger categories are consistent with the node's role: the
/// source only transmits, the destination pays only notifications, relays
/// may additionally move.
#[test]
fn category_accounting_respects_roles() {
    let energies = vec![10_000.0; 5];
    let (mut w, ids) = build(MobilityMode::Informed, &energies);
    run_flow(&mut w, &ids, 48_000_000);
    let src = w.ledger().node(ids[0]);
    assert!(src.data > 0.0);
    assert_eq!(src.mobility, 0.0, "sources never move");
    let dst = w.ledger().node(*ids.last().unwrap());
    assert_eq!(dst.data, 0.0, "destinations never forward data");
    assert_eq!(dst.mobility, 0.0, "destinations never move");
    assert!(dst.notification > 0.0, "destination pays for notifications");
    for &relay in &ids[1..ids.len() - 1] {
        let r = w.ledger().node(relay);
        assert!(r.data > 0.0, "relays forward data");
    }
}

/// A relay that dies mid-flow is recorded once, keeps a zero battery and
/// stops participating; the destination receives a strict prefix.
#[test]
fn death_accounting_is_consistent() {
    let energies = vec![10_000.0, 10_000.0, 1.0, 10_000.0, 10_000.0];
    let (mut w, ids) = build(MobilityMode::NoMobility, &energies);
    run_flow(&mut w, &ids, 8_000_000);
    let weak = ids[2];
    assert!(!w.is_alive(weak));
    assert_eq!(w.residual_energy(weak), 0.0);
    let (dead, t) = w.ledger().first_death().unwrap();
    assert_eq!(dead, weak);
    assert!(t > SimTime::ZERO);
    // The ledger records at most what the battery held.
    assert!(w.ledger().node(weak).total() <= 1.0 + 1e-9);
    let delivered = w.app(*ids.last().unwrap()).dest(FlowId::new(0)).map_or(0, |d| d.received_bits);
    assert!(delivered < 8_000_000);
    assert!(w.ledger().packets_dropped > 0);
}

/// HELLO beaconing with energy charging enabled drains batteries at the
/// advertised rate and is charged to the hello category only.
#[test]
fn hello_energy_is_categorized() {
    let mut sim_cfg = SimConfig::default();
    sim_cfg.hello.charge_energy = true;
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut w: World<ImobifApp> = World::new(sim_cfg).unwrap();
    let app_cfg = ImobifConfig::default();
    let a = w.add_node(
        Point2::ORIGIN,
        Battery::new(10.0).unwrap(),
        ImobifApp::new(app_cfg, strategy.clone()),
    );
    w.start();
    w.run_until(SimTime::from_micros(10_500_000));
    let e = w.ledger().node(a);
    assert!(e.hello > 0.0);
    assert_eq!(e.data, 0.0);
    assert_eq!(e.mobility, 0.0);
    assert!((e.hello - (10.0 - w.residual_energy(a))).abs() < 1e-9);
}
