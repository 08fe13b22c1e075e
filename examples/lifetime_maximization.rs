//! Lifetime maximization demo: energy-proportional relay spacing
//! (paper §3.2, Theorem 1, Figs. 5(c) and 8).
//!
//! A relay chain with very unequal batteries carries a flow. The example
//! compares the three approaches of the paper's Fig. 8 on this one
//! instance:
//!
//! * **no mobility** — the weak relay burns its battery on a long hop;
//! * **cost-unaware** — every relay chases its Theorem-1 position
//!   regardless of cost; walking can kill weak nodes outright;
//! * **iMobif (informed)** — mobility runs only while the destination's
//!   aggregated cost/benefit comparison says the bottleneck gains.
//!
//! ```text
//! cargo run --release --example lifetime_maximization
//! ```

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MaxLifetimeStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::{Point2, Polyline};
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

/// (x, y, initial energy in joules) — node 2 is the weakest relay.
const NODES: [(f64, f64, f64); 6] = [
    (0.0, 0.0, 10_000.0),
    (12.0, 8.0, 120.0),
    (26.0, -8.0, 30.0), // the bottleneck
    (41.0, 8.0, 80.0),
    (55.0, -8.0, 160.0),
    (68.0, 0.0, 10_000.0),
];
const FLOW_BITS: u64 = 16_000_000; // 2 MB: more than the bottleneck can relay sitting still

struct Outcome {
    lifetime_secs: f64,
    delivered_bits: u64,
    hops: Vec<f64>,
    moved: Vec<f64>,
}

fn run(mode: MobilityMode) -> Outcome {
    let sim = SimConfig::default();
    let strategy: Arc<dyn MobilityStrategy> =
        Arc::new(MaxLifetimeStrategy::fitted(&sim.tx, 1.0, 30.0).expect("valid range"));
    let mut world = World::new(sim).expect("valid sim config");
    let cfg = ImobifConfig { mode, ..Default::default() };
    let ids: Vec<NodeId> = NODES
        .iter()
        .map(|&(x, y, e)| {
            world.add_node(
                Point2::new(x, y),
                Battery::new(e).expect("valid battery"),
                ImobifApp::new(cfg, strategy.clone()),
            )
        })
        .collect();
    world.start();
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), FLOW_BITS)
        .with_strategy(strategy.kind());
    install_flow(&mut world, &spec).expect("valid flow");
    let dst = *ids.last().expect("non-empty path");
    world.run_while(|w| {
        w.time() < SimTime::from_micros((spec.packet_count() + 30) * 1_000_000)
            && w.ledger().first_death().is_none()
    });
    let lifetime_secs =
        world.ledger().first_death().map_or(world.time().as_secs_f64(), |(_, t)| t.as_secs_f64());
    let path =
        Polyline::new(ids.iter().map(|&id| world.position(id)).collect()).expect("valid path");
    Outcome {
        lifetime_secs,
        delivered_bits: world.app(dst).dest(FlowId::new(0)).map_or(0, |d| d.received_bits),
        hops: path.hop_lengths(),
        moved: ids.iter().map(|&id| world.node(id).total_moved()).collect(),
    }
}

fn main() {
    println!("lifetime maximization — 2 MB flow, unequal batteries\n");
    println!("initial energies (J): {:?}", NODES.map(|(_, _, e)| e));
    println!("(node 2, with 30 J, is the bottleneck)\n");

    let base = run(MobilityMode::NoMobility);
    let cu = run(MobilityMode::CostUnaware);
    let inf = run(MobilityMode::Informed);

    println!(
        "{:<14} {:>12} {:>14}  hop lengths (m, transmitted by node i)",
        "approach", "lifetime (s)", "delivered"
    );
    for (label, o) in [("no mobility", &base), ("cost-unaware", &cu), ("informed", &inf)] {
        println!(
            "{:<14} {:>12.0} {:>11} kb  {:?}",
            label,
            o.lifetime_secs,
            o.delivered_bits / 1000,
            round1(&o.hops)
        );
    }
    println!("\nmeters walked per node (informed): {:?}", round1(&inf.moved));
    println!(
        "\nlifetime ratios vs no mobility: cost-unaware {:.2}x, informed {:.2}x",
        cu.lifetime_secs / base.lifetime_secs,
        inf.lifetime_secs / base.lifetime_secs
    );
    println!(
        "\nthe max-lifetime strategy shortens the bottleneck's hop (d_i ∝ e_i^(1/α'),\n\
         Theorem 1), so the weakest battery pushes each bit across a cheaper link."
    );
}

fn round1(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 10.0).round() / 10.0).collect()
}
