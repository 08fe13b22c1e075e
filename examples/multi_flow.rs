//! Multi-flow demo: one relay serving two crossing flows.
//!
//! The paper's framework "supports multiple one-to-one … flows" (§2, with
//! details in its technical report). When several flows traverse the same
//! relay, the relay cannot satisfy every flow's preferred position, so it
//! aims for the residual-traffic-weighted superposition of the per-flow
//! targets. This example crosses two flows through a shared relay and
//! shows where it settles.
//!
//! ```text
//! cargo run --release --example multi_flow
//! ```

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::{FlowId, SimConfig, SimTime, World};

fn main() {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut world = World::new(SimConfig::default()).expect("valid sim config");
    let cfg = ImobifConfig { mode: MobilityMode::CostUnaware, ..Default::default() };
    let add = |x: f64, y: f64, world: &mut World<ImobifApp>| {
        world.add_node(
            Point2::new(x, y),
            Battery::new(100_000.0).expect("valid battery"),
            ImobifApp::new(cfg, strategy.clone()),
        )
    };
    let src_a = add(0.0, 0.0, &mut world);
    let dst_a = add(30.0, 30.0, &mut world);
    let src_b = add(0.0, 30.0, &mut world);
    let dst_b = add(30.0, 0.0, &mut world);
    let relay = add(6.0, 17.0, &mut world);
    world.start();

    let flow_a = FlowId::new(0);
    let flow_b = FlowId::new(1);
    // Flow A carries 3x the traffic of flow B: its midpoint pulls harder.
    install_flow(
        &mut world,
        &FlowSpec::paper_default(flow_a, vec![src_a, relay, dst_a], 2_400_000),
    )
    .expect("valid flow");
    install_flow(&mut world, &FlowSpec::paper_default(flow_b, vec![src_b, relay, dst_b], 800_000))
        .expect("valid flow");

    println!("two crossing flows share the relay at {}", world.position(relay));
    println!("  flow A: {src_a}->{relay}->{dst_a}, 2.4 Mbit (midpoint target (15,15))");
    println!("  flow B: {src_b}->{relay}->{dst_b}, 0.8 Mbit (midpoint target (15,15))");

    let mut last = world.position(relay);
    for checkpoint in [30u64, 100, 200, 301] {
        world.run_while(|w| w.time() < SimTime::from_micros(checkpoint * 1_000_000 + 700_000));
        let p = world.position(relay);
        if p.distance_to(last) > 0.01 || checkpoint == 301 {
            println!("  t={checkpoint:>4} s: relay at {p}");
        }
        last = p;
    }

    let ra = world.app(dst_a).dest(flow_a).expect("flow A delivered");
    let rb = world.app(dst_b).dest(flow_b).expect("flow B delivered");
    println!("\ndelivered: flow A {} bits, flow B {} bits", ra.received_bits, rb.received_bits);
    println!(
        "relay walked {:.1} m total, spending {:.2} J on mobility",
        world.node(relay).total_moved(),
        world.ledger().node(relay).mobility
    );
    println!(
        "final relay targets: A -> {:?}, B -> {:?}, combined -> {:?}",
        world.app(relay).target(flow_a),
        world.app(relay).target(flow_b),
        world.app(relay).combined_target(),
    );
}
