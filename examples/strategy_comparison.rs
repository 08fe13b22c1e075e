//! Strategy comparison: the cost/benefit crossover that motivates iMobif.
//!
//! Sweeps flow lengths from 50 KB to 8 MB over the same bent path and
//! prints the energy bill of the three approaches the paper compares —
//! no mobility, cost-unaware mobility, and iMobif. Short flows cannot
//! amortize the walk; long flows can; iMobif picks the right side of the
//! crossover automatically.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

const NODES: [(f64, f64); 5] = [(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)];

fn run(mode: MobilityMode, flow_bits: u64) -> (f64, f64, u64) {
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
    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), flow_bits);
    install_flow(&mut world, &spec).expect("valid flow");
    world.run_while(|w| w.time() < SimTime::from_micros((spec.packet_count() + 30) * 1_000_000));
    let t = world.ledger().totals();
    let changes = world.app(ids[0]).source(FlowId::new(0)).map_or(0, |s| s.status_changes);
    (t.total(), t.mobility, changes)
}

fn main() {
    println!("energy by approach across flow lengths (bent 5-node path, k = 0.5 J/m)\n");
    println!("{:>9} | {:>12} | {:>22} | {:>28}", "flow", "no mobility", "cost-unaware", "iMobif");
    println!(
        "{:>9} | {:>10} J | {:>10} J ({:>7}) | {:>10} J ({:>7}, {:>5})",
        "", "total", "total", "walked", "total", "walked", "flips"
    );
    println!("{}", "-".repeat(88));
    for &kb in &[50u64, 100, 250, 500, 1000, 2000, 4000, 8000] {
        let bits = kb * 8_000;
        let (base, _, _) = run(MobilityMode::NoMobility, bits);
        let (cu, cu_mob, _) = run(MobilityMode::CostUnaware, bits);
        let (inf, inf_mob, flips) = run(MobilityMode::Informed, bits);
        println!(
            "{:>6} KB | {:>10.2} | {:>10.2} ({:>5.1} J) | {:>10.2} ({:>5.1} J, {:>5})",
            kb, base, cu, cu_mob, inf, inf_mob, flips
        );
    }
    println!(
        "\nreading guide: cost-unaware pays the walk no matter what; iMobif's destination\n\
         compares the aggregated with/without-mobility estimates each packet and flips\n\
         the status only when moving pays for the *remaining* flow."
    );
}
