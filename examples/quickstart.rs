//! Quickstart: one informed flow across a bent relay path.
//!
//! Builds a five-node ad hoc network whose relays sit off the
//! source–destination line, streams a 6 MB flow through it under the
//! iMobif framework, and prints what the framework did: when mobility was
//! enabled, how far the relays walked, and the energy bill compared with
//! the no-mobility baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::{Point2, Polyline};
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

const NODES: [(f64, f64); 5] = [
    (0.0, 0.0),    // source
    (14.0, 10.0),  // relay, off the chord
    (32.0, -10.0), // relay, off the chord
    (50.0, 10.0),  // relay, off the chord
    (64.0, 0.0),   // destination
];
const FLOW_BITS: u64 = 48_000_000; // 6 MB

fn run(mode: MobilityMode) -> (World<ImobifApp>, Vec<NodeId>) {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut world = World::new(SimConfig::default()).expect("valid sim config");
    let cfg = ImobifConfig { mode, ..Default::default() };
    let ids: Vec<NodeId> = NODES
        .iter()
        .map(|&(x, y)| {
            world.add_node(
                Point2::new(x, y),
                Battery::new(100_000.0).expect("valid battery"),
                ImobifApp::new(cfg, strategy.clone()),
            )
        })
        .collect();
    world.start();
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), FLOW_BITS);
    install_flow(&mut world, &spec).expect("valid flow");
    let horizon = SimTime::from_micros((spec.packet_count() + 30) * 1_000_000);
    world.run_while(|w| w.time() < horizon);
    (world, ids)
}

fn main() {
    println!("iMobif quickstart — 6 MB flow over a bent 5-node path\n");

    let (baseline, _) = run(MobilityMode::NoMobility);
    let (world, ids) = run(MobilityMode::Informed);

    let flow = FlowId::new(0);
    let src = ids[0];
    let dst = *ids.last().expect("non-empty path");
    let source = world.app(src).source(flow).expect("flow installed");
    let dest = world.app(dst).dest(flow).expect("flow delivered");

    println!("delivered: {} / {} bits", dest.received_bits, FLOW_BITS);
    println!(
        "mobility status changes: {} (notifications from destination: {})",
        source.status_changes, dest.notifications_sent
    );

    let final_path =
        Polyline::new(ids.iter().map(|&id| world.position(id)).collect()).expect("valid path");
    let initial_path =
        Polyline::new(NODES.iter().map(|&(x, y)| Point2::new(x, y)).collect()).expect("valid");
    println!(
        "relay deviation from the source-destination line: {:.1} m -> {:.1} m",
        initial_path.max_chord_deviation(),
        final_path.max_chord_deviation()
    );

    let b = baseline.ledger().totals();
    let t = world.ledger().totals();
    println!("\nenergy (joules):");
    println!("  no-mobility baseline: {:8.1} (all transmission)", b.total());
    println!(
        "  iMobif:               {:8.1} ({:.1} transmission + {:.1} movement + {:.3} notifications)",
        t.total(),
        t.data,
        t.mobility,
        t.notification
    );
    println!("  energy consumption ratio: {:.3} (lower is better)", t.total() / b.total());
}
