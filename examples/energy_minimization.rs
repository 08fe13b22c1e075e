//! Energy minimization demo: watch relays straighten a flow path
//! (paper Fig. 5(a) → 5(b)).
//!
//! A zigzag relay chain carries a long flow under the minimize-total-energy
//! strategy. The example prints the path as ASCII art before and after, and
//! the hop-length statistics showing convergence to the evenly spaced
//! straight-line optimum of Goldenberg et al.
//!
//! ```text
//! cargo run --release --example energy_minimization
//! ```

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::{Battery, PowerLawModel};
use imobif_geom::{Point2, Polyline};
use imobif_netsim::{FlowId, NodeId, SimConfig, SimTime, World};

const NODES: [(f64, f64); 6] =
    [(0.0, 0.0), (13.0, 11.0), (27.0, -11.0), (43.0, 11.0), (57.0, -9.0), (70.0, 0.0)];

/// Renders positions on a coarse character grid.
fn sketch(points: &[Point2]) -> String {
    const W: usize = 72;
    const H: usize = 13;
    let mut grid = vec![vec![b'.'; W]; H];
    for (i, p) in points.iter().enumerate() {
        let x = ((p.x / 71.0) * (W - 1) as f64).round().clamp(0.0, (W - 1) as f64) as usize;
        let y =
            (((p.y + 12.0) / 24.0) * (H - 1) as f64).round().clamp(0.0, (H - 1) as f64) as usize;
        grid[H - 1 - y][x] = b'0' + (i as u8);
    }
    grid.into_iter()
        .map(|row| String::from_utf8(row).expect("ascii"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut world = World::new(SimConfig::default()).expect("valid sim config");
    let cfg = ImobifConfig { mode: MobilityMode::CostUnaware, ..Default::default() };
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

    let before =
        Polyline::new(NODES.iter().map(|&(x, y)| Point2::new(x, y)).collect()).expect("valid path");
    println!("before (node i drawn as digit i):\n{}\n", sketch(before.vertices()));
    println!(
        "  hop lengths: {:?}",
        before.hop_lengths().iter().map(|d| (d * 10.0).round() / 10.0).collect::<Vec<_>>()
    );
    println!(
        "  chord deviation {:.1} m, spacing spread {:.2}\n",
        before.max_chord_deviation(),
        before.spacing_spread()
    );

    let spec = FlowSpec::paper_default(FlowId::new(0), ids.clone(), 2_000_000);
    install_flow(&mut world, &spec).expect("valid flow");
    world.run_while(|w| w.time() < SimTime::from_micros((spec.packet_count() + 10) * 1_000_000));

    let after =
        Polyline::new(ids.iter().map(|&id| world.position(id)).collect()).expect("valid path");
    println!(
        "after {} packets of controlled mobility:\n{}\n",
        spec.packet_count(),
        sketch(after.vertices())
    );
    println!(
        "  hop lengths: {:?}",
        after.hop_lengths().iter().map(|d| (d * 10.0).round() / 10.0).collect::<Vec<_>>()
    );
    println!(
        "  chord deviation {:.2} m, spacing spread {:.4}",
        after.max_chord_deviation(),
        after.spacing_spread()
    );
    println!(
        "\nper-bit path energy: {:.3e} -> {:.3e} J/bit ({:.0}% saved on every future bit)",
        path_energy_per_bit(&before),
        path_energy_per_bit(&after),
        100.0 * (1.0 - path_energy_per_bit(&after) / path_energy_per_bit(&before)),
    );
}

fn path_energy_per_bit(path: &Polyline) -> f64 {
    let model = PowerLawModel::paper_default(2.0).expect("valid model");
    path.hop_lengths().iter().map(|&d| model.energy_per_bit(d)).sum()
}
