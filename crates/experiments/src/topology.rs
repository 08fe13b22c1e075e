//! Random topologies and flow draws.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use imobif_geom::{Point2, Rect};
use imobif_netsim::routing::GreedyRouter;
use imobif_netsim::{NodeId, TopologyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{EnergyInit, ScenarioConfig, TopologyFamily};
use crate::memo::{count_lookup, ShardedMemo};

/// One randomly drawn flow: endpoints and the pinned greedy route.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDraw {
    /// Source node (index into the topology).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Greedy route, source first.
    pub path: Vec<NodeId>,
    /// Flow length in bits (exponentially distributed).
    pub flow_bits: u64,
}

/// A generated random scenario instance: node positions, initial energies
/// and one flow draw.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyDraw {
    /// All node positions.
    pub positions: Vec<Point2>,
    /// Initial battery energies, one per node.
    pub energies: Vec<f64>,
    /// The drawn flow.
    pub flow: FlowDraw,
}

/// Samples node positions per the config's [`TopologyFamily`].
///
/// The `Uniform` arm is the paper's deployment and consumes the rng stream
/// exactly as the pre-scenario-layer code did, so memoized draws (and every
/// pinned figure fingerprint) are bit-identical.
///
/// # Panics
///
/// Panics if the config's area is invalid (checked by
/// [`ScenarioConfig::validate`] first in normal use).
#[must_use]
pub fn sample_positions(cfg: &ScenarioConfig, rng: &mut StdRng) -> Vec<Point2> {
    let arena = Rect::square(cfg.area_side).expect("validated area");
    match cfg.topology {
        TopologyFamily::Uniform => (0..cfg.node_count).map(|_| arena.sample_uniform(rng)).collect(),
        TopologyFamily::Clustered { clusters, spread } => {
            let centers: Vec<Point2> = (0..clusters).map(|_| arena.sample_uniform(rng)).collect();
            (0..cfg.node_count)
                .map(|_| {
                    let c = centers[rng.gen_range(0..centers.len())];
                    // Box–Muller: two uniforms → two independent gaussians.
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let r = (-2.0 * u1.ln()).sqrt() * spread;
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    arena.clamp(Point2::new(c.x + r * theta.cos(), c.y + r * theta.sin()))
                })
                .collect()
        }
        TopologyFamily::SmallWorld { rewire } => {
            // Jittered grid lattice; each node independently rewired to a
            // uniform position with probability `rewire`.
            let g = (cfg.node_count as f64).sqrt().ceil().max(1.0) as usize;
            let cell = cfg.area_side / g as f64;
            (0..cfg.node_count)
                .map(|i| {
                    let (col, row) = (i % g, i / g % g);
                    let jx: f64 = rng.gen_range(-0.25..0.25) * cell;
                    let jy: f64 = rng.gen_range(-0.25..0.25) * cell;
                    let coin: f64 = rng.gen_range(0.0..1.0);
                    if coin < rewire {
                        arena.sample_uniform(rng)
                    } else {
                        arena.clamp(Point2::new(
                            (col as f64 + 0.5) * cell + jx,
                            (row as f64 + 0.5) * cell + jy,
                        ))
                    }
                })
                .collect()
        }
    }
}

/// Samples initial battery energies per the config.
#[must_use]
pub fn sample_energies(cfg: &ScenarioConfig, rng: &mut StdRng) -> Vec<f64> {
    (0..cfg.node_count)
        .map(|_| match cfg.initial_energy {
            EnergyInit::Fixed(e) => e,
            EnergyInit::Uniform(lo, hi) => rng.gen_range(lo..hi),
            EnergyInit::TwoTier { high, low, high_fraction } => {
                let coin: f64 = rng.gen_range(0.0..1.0);
                if coin < high_fraction {
                    high
                } else {
                    low
                }
            }
        })
        .collect()
}

/// Samples an exponentially distributed flow length with the configured
/// mean, rounded up to at least one packet.
#[must_use]
pub fn sample_flow_bits(cfg: &ScenarioConfig, rng: &mut StdRng) -> u64 {
    flow_bits_from_u(cfg, rng.gen_range(0.0..1.0))
}

/// Converts a uniform variate into an exponentially distributed flow length
/// with the configured mean, rounded up to at least one packet. Split out of
/// [`sample_flow_bits`] so the draw memo can store the variate and re-derive
/// the length under every mean/packet-size variant that shares a topology.
fn flow_bits_from_u(cfg: &ScenarioConfig, u: f64) -> u64 {
    let bits = -cfg.mean_flow_bits * (1.0 - u).ln();
    (bits.round() as u64).max(cfg.packet_bits)
}

/// The config-independent core of one scenario draw: everything the rng
/// stream produces. The flow length is kept as its raw uniform variate
/// because it is the only sampled quantity whose *interpretation* depends on
/// config fields (`mean_flow_bits`, `packet_bits`) that vary across figure
/// panels sharing a topology.
#[derive(Debug, Clone, PartialEq)]
struct DrawSkeleton {
    positions: Vec<Point2>,
    energies: Vec<f64>,
    src: NodeId,
    dst: NodeId,
    path: Vec<NodeId>,
    flow_u: f64,
}

/// Memo key: exactly the config fields the rng stream and the routing
/// geometry depend on. Figure variants that differ only in energy-model
/// constants (`a`, `b`, `alpha`, `k`), flow-length mean, pacing, movement
/// bound, initial status or estimate factor hit the same entry. Floats are
/// compared bit-exactly — a near-miss config must redraw, never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DrawKey {
    seed: u64,
    index: u64,
    node_count: usize,
    area_bits: u64,
    range_bits: u64,
    energy: (u8, u64, u64, u64),
    topology: (u8, u64, u64),
}

impl DrawKey {
    fn of(cfg: &ScenarioConfig, index: u64) -> Self {
        DrawKey {
            seed: cfg.seed,
            index,
            node_count: cfg.node_count,
            area_bits: cfg.area_side.to_bits(),
            range_bits: cfg.range.to_bits(),
            energy: cfg.initial_energy.key(),
            topology: cfg.topology.key(),
        }
    }
}

/// Bounds the memo so unbounded sweeps cannot grow it without limit; a full
/// `imobif-experiments all --flows 100` run needs ~100 entries.
const DRAW_MEMO_CAP: usize = 4096;

fn draw_memo() -> &'static ShardedMemo<DrawKey, Arc<DrawSkeleton>> {
    static MEMO: OnceLock<ShardedMemo<DrawKey, Arc<DrawSkeleton>>> = OnceLock::new();
    MEMO.get_or_init(|| ShardedMemo::new(DRAW_MEMO_CAP))
}

/// Process-lifetime draw-memo hit/miss totals, surfaced through
/// [`crate::runner::memo_stats`]. Monotone; clearing the memo does not
/// rewind them.
static DRAW_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static DRAW_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn draw_memo_counters() -> (u64, u64) {
    (DRAW_MEMO_HITS.load(Ordering::Relaxed), DRAW_MEMO_MISSES.load(Ordering::Relaxed))
}

/// Empties the topology-draw memo. Benchmarks call this between timed runs
/// so each run pays the full drawing cost it claims to measure.
pub fn clear_draw_memo() {
    draw_memo().clear();
}

fn draw_skeleton(cfg: &ScenarioConfig, index: u64) -> Arc<DrawSkeleton> {
    let (skeleton, missed) =
        draw_memo().get_or_compute(DrawKey::of(cfg, index), || compute_skeleton(cfg, index));
    count_lookup(missed, &DRAW_MEMO_HITS, &DRAW_MEMO_MISSES);
    skeleton
}

fn compute_skeleton(cfg: &ScenarioConfig, index: u64) -> Arc<DrawSkeleton> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    loop {
        let positions = sample_positions(cfg, &mut rng);
        let energies = sample_energies(cfg, &mut rng);
        let topo = TopologyView::new(positions.clone(), vec![true; positions.len()], cfg.range);
        // Try a bounded number of endpoint pairs on this topology.
        let mut found = None;
        for _ in 0..64 {
            let src = NodeId::new(rng.gen_range(0..cfg.node_count as u32));
            let dst = NodeId::new(rng.gen_range(0..cfg.node_count as u32));
            if src == dst {
                continue;
            }
            let Ok(path) = GreedyRouter.route(&topo, src, dst) else {
                continue;
            };
            if path.len() < 3 {
                continue; // no relay to move: mobility is moot
            }
            let flow_u: f64 = rng.gen_range(0.0..1.0);
            found = Some((src, dst, path, flow_u));
            break;
        }
        if let Some((src, dst, path, flow_u)) = found {
            return Arc::new(DrawSkeleton { positions, energies, src, dst, path, flow_u });
        }
        // Pathological topology: redraw everything.
    }
}

/// Draws a complete scenario instance: a fresh topology, energies, and a
/// random source/destination pair whose greedy route succeeds with at least
/// one relay. Topologies where no such pair exists after a bounded number
/// of tries are redrawn — the standard protocol for random-topology studies
/// (greedy routing can stall at local maxima; the paper simply reports
/// statistics over successfully routed flows).
///
/// Deterministic per `(cfg.seed, index)`. Draws are memoized on the config
/// fields the rng stream depends on, so figure variants that re-run the
/// same `(seed, index)` topology under different energy or flow-length
/// parameters share one drawing instead of re-routing from scratch.
#[must_use]
pub fn draw_scenario(cfg: &ScenarioConfig, index: u64) -> TopologyDraw {
    let skel = draw_skeleton(cfg, index);
    TopologyDraw {
        positions: skel.positions.clone(),
        energies: skel.energies.clone(),
        flow: FlowDraw {
            src: skel.src,
            dst: skel.dst,
            path: skel.path.clone(),
            flow_bits: flow_bits_from_u(cfg, skel.flow_u),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScenarioConfig {
        ScenarioConfig::paper_default()
    }

    #[test]
    fn positions_fill_the_arena() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let pts = sample_positions(&c, &mut rng);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|p| p.x >= 0.0 && p.x <= 150.0 && p.y >= 0.0 && p.y <= 150.0));
    }

    #[test]
    fn paper_topology_has_about_twelve_neighbors() {
        // The paper: "The resultant average number of neighbors per node is
        // approximately [12]". Average over seeds.
        let c = cfg();
        let mut total = 0.0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = sample_positions(&c, &mut rng);
            let topo = TopologyView::new(pts, vec![true; 100], c.range);
            total += topo.average_degree();
        }
        let avg = total / 10.0;
        assert!((9.0..15.0).contains(&avg), "average degree {avg}");
    }

    #[test]
    fn exponential_flow_lengths_have_roughly_the_mean() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let mean: f64 =
            (0..n).map(|_| sample_flow_bits(&c, &mut rng) as f64).sum::<f64>() / n as f64;
        let rel = (mean - c.mean_flow_bits).abs() / c.mean_flow_bits;
        assert!(rel < 0.1, "sample mean {mean} too far from {}", c.mean_flow_bits);
    }

    #[test]
    fn flow_bits_never_below_one_packet() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(sample_flow_bits(&c, &mut rng) >= c.packet_bits);
        }
    }

    #[test]
    fn uniform_energies_are_in_range() {
        let mut c = cfg();
        c.initial_energy = EnergyInit::Uniform(5.0, 10.0);
        let mut rng = StdRng::seed_from_u64(9);
        let es = sample_energies(&c, &mut rng);
        assert!(es.iter().all(|&e| (5.0..10.0).contains(&e)));
    }

    #[test]
    fn two_tier_energies_use_both_tiers() {
        let mut c = cfg();
        c.initial_energy = EnergyInit::TwoTier { high: 100.0, low: 5.0, high_fraction: 0.3 };
        let mut rng = StdRng::seed_from_u64(11);
        let es = sample_energies(&c, &mut rng);
        assert!(es.iter().all(|&e| e == 100.0 || e == 5.0));
        let high = es.iter().filter(|&&e| e == 100.0).count();
        assert!((10..60).contains(&high), "high tier count {high}");
    }

    #[test]
    fn clustered_positions_concentrate_near_centers() {
        let mut c = cfg();
        c.topology = TopologyFamily::Clustered { clusters: 4, spread: 10.0 };
        let mut rng = StdRng::seed_from_u64(2);
        let pts = sample_positions(&c, &mut rng);
        assert_eq!(pts.len(), c.node_count);
        assert!(pts.iter().all(|p| p.x >= 0.0 && p.x <= 150.0 && p.y >= 0.0 && p.y <= 150.0));
        // With tight clusters the mean nearest-neighbor distance drops well
        // below the uniform deployment's.
        let nn = |pts: &[Point2]| -> f64 {
            pts.iter()
                .enumerate()
                .map(|(i, p)| {
                    pts.iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, q)| p.distance_to(*q))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                / pts.len() as f64
        };
        let mut ur = StdRng::seed_from_u64(2);
        let uniform = sample_positions(&cfg(), &mut ur);
        assert!(nn(&pts) < nn(&uniform), "clustered layout should be denser");
    }

    #[test]
    fn small_world_zero_rewire_is_a_lattice() {
        let mut c = cfg();
        c.topology = TopologyFamily::SmallWorld { rewire: 0.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let pts = sample_positions(&c, &mut rng);
        // 100 nodes on a 10×10 grid of 15 m cells: every node within
        // cell/4 jitter of its cell center.
        for (i, p) in pts.iter().enumerate() {
            let cx = (i % 10) as f64 * 15.0 + 7.5;
            let cy = (i / 10) as f64 * 15.0 + 7.5;
            assert!((p.x - cx).abs() <= 3.75 + 1e-9 && (p.y - cy).abs() <= 3.75 + 1e-9);
        }
    }

    #[test]
    fn family_draws_are_deterministic_and_distinct() {
        let _g = crate::test_lock();
        let mut c = cfg();
        c.topology = TopologyFamily::Clustered { clusters: 5, spread: 15.0 };
        let a = draw_scenario(&c, 0);
        clear_draw_memo();
        let b = draw_scenario(&c, 0);
        assert_eq!(a, b, "clustered draw must be memo-independent deterministic");
        let mut sw = cfg();
        sw.topology = TopologyFamily::SmallWorld { rewire: 0.1 };
        assert_ne!(draw_scenario(&sw, 0), a, "families must not alias in the memo");
    }

    #[test]
    fn draw_scenario_is_deterministic_and_valid() {
        let c = cfg();
        let a = draw_scenario(&c, 5);
        let b = draw_scenario(&c, 5);
        assert_eq!(a, b);
        assert!(a.flow.path.len() >= 3);
        assert_eq!(a.flow.path.first(), Some(&a.flow.src));
        assert_eq!(a.flow.path.last(), Some(&a.flow.dst));
        // Hops respect the radio range.
        for w in a.flow.path.windows(2) {
            let d = a.positions[w[0].index()].distance_to(a.positions[w[1].index()]);
            assert!(d <= c.range + 1e-9);
        }
        // Different indices give different draws.
        let other = draw_scenario(&c, 6);
        assert_ne!(a, other);
    }
}
