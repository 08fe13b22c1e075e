//! The constant-density arena, one recipe for both engines: every node of
//! a square deployed (unlike the path-only worlds of [`crate::runner`])
//! and several greedy-routed flows paced at once. The benchmark's arena
//! workloads, the shard and thread sweeps, the HELLO-dense gates and
//! `imobif spans` all build their worlds with [`build_arena`].

use std::fmt;

use imobif::{install_flow, FlowHost, FlowSpec, ImobifApp, ImobifConfig, MobilityMode};
use imobif_energy::{Battery, EnergyError};
use imobif_geom::Point2;
use imobif_netsim::routing::GreedyRouter;
use imobif_netsim::{FlowId, NodeId, ShardedWorld, SimDuration, TopologyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ScenarioConfig;
use crate::runner::{build_strategy, StrategyChoice};

/// Route attempts allowed per requested flow before a build gives up.
const ATTEMPTS_PER_FLOW: usize = 200;

/// A built arena: world started, flows installed.
pub struct ArenaRun<W> {
    /// The world (flows installed, world started).
    pub world: W,
    /// `(flow, destination)` pairs for delivery accounting.
    pub flows: Vec<(FlowId, NodeId)>,
    /// Payload bits per packet (for packet counting).
    pub packet_bits: u64,
}

impl<W: FlowHost> ArenaRun<W> {
    /// Payload packets delivered across all flows so far.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.flows
            .iter()
            .map(|&(flow, dst)| {
                self.world.app(dst).dest(flow).map_or(0, |d| d.received_bits) / self.packet_bits
            })
            .sum()
    }
}

/// Why an arena could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ArenaError {
    /// The density-scaled configuration failed
    /// [`ScenarioConfig::validate`] (for example, `node_count` out of range).
    Config(EnergyError),
    /// The retry bound ran out before every requested flow was routed.
    Unroutable {
        /// Flows requested.
        wanted: usize,
        /// Flows routed before the bound ran out.
        routed: usize,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Config(e) => write!(f, "invalid arena: {e}"),
            ArenaError::Unroutable { wanted, routed } => write!(
                f,
                "the arena routed {routed} of {wanted} flows in {} attempts",
                ATTEMPTS_PER_FLOW * wanted
            ),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Builds a `node_count`-node arena with `n_flows` concurrent greedy-routed
/// 8-Mbit flows (longer than any measurement window, so the workload stays
/// constant for the whole run) into the world `make_world` constructs from
/// the arena's validated configuration: the paper's defaults with
/// `node_count` nodes on a square of side `150 · sqrt(node_count / 100)`,
/// so node density — and with it the paper's ~12 average neighbors — stays
/// constant as the arena grows (at 100 nodes it is the paper's own
/// deployment).
///
/// Every node runs informed min-energy mobility on a 100 kJ battery. One
/// `StdRng` seeded with `seed` draws the positions first, then the
/// source/destination pairs, so equal `(node_count, n_flows, seed)` build
/// the same simulation on either engine, at any shard or thread count.
/// Pairs that coincide, fail to route, or route in fewer than three nodes
/// are redrawn, up to `200 · n_flows` attempts in all.
///
/// # Errors
///
/// [`ArenaError::Config`] if the scaled configuration is invalid;
/// [`ArenaError::Unroutable`] if the attempts run out before all `n_flows`
/// flows are routed.
pub fn build_arena<W: FlowHost>(
    node_count: usize,
    n_flows: usize,
    seed: u64,
    make_world: impl FnOnce(&ScenarioConfig) -> W,
) -> Result<ArenaRun<W>, ArenaError> {
    let cfg = ScenarioConfig {
        node_count,
        area_side: 150.0 * (node_count as f64 / 100.0).sqrt(),
        seed,
        ..ScenarioConfig::paper_default()
    };
    cfg.validate().map_err(ArenaError::Config)?;
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let mut world = make_world(&cfg);
    let app_cfg =
        ImobifConfig { mode: MobilityMode::Informed, max_step: cfg.max_step, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..node_count)
        .map(|_| Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side)))
        .collect();
    let ids: Vec<NodeId> = positions
        .iter()
        .map(|&p| {
            world.add_node(
                p,
                Battery::new(1e5).expect("valid"),
                ImobifApp::new(app_cfg, strategy.clone()),
            )
        })
        .collect();
    world.start();

    let topo = TopologyView::new(positions, vec![true; node_count], cfg.range);
    let mut flows = Vec::with_capacity(n_flows);
    let mut attempts = 0;
    while flows.len() < n_flows {
        attempts += 1;
        if attempts >= ATTEMPTS_PER_FLOW * n_flows {
            return Err(ArenaError::Unroutable { wanted: n_flows, routed: flows.len() });
        }
        let src = ids[rng.gen_range(0..node_count)];
        let dst = ids[rng.gen_range(0..node_count)];
        if src == dst {
            continue;
        }
        let Ok(path) = GreedyRouter.route(&topo, src, dst) else {
            continue;
        };
        if path.len() < 3 {
            continue;
        }
        let flow = FlowId::new(flows.len() as u32);
        let spec = FlowSpec {
            flow,
            path,
            total_bits: 8_000_000,
            packet_bits: cfg.packet_bits,
            interval: cfg.packet_interval(),
            initial_mobility_enabled: cfg.initial_mobility_enabled,
            estimate_factor: cfg.estimate_factor,
            start_delay: SimDuration::from_millis(500),
            strategy: strategy.kind(),
        };
        install_flow(&mut world, &spec).expect("routed paths are valid");
        flows.push((flow, dst));
    }
    Ok(ArenaRun { world, flows, packet_bits: cfg.packet_bits })
}

/// An empty [`ShardedWorld`] over the arena square of `cfg`, split into
/// `shards` spatial regions: the `make_world` of the sharded arenas.
///
/// # Panics
///
/// Panics if `cfg` is invalid or `shards` is zero.
#[must_use]
pub fn sharded_world(cfg: &ScenarioConfig, shards: usize) -> ShardedWorld<ImobifApp> {
    let bounds = (Point2::new(0.0, 0.0), Point2::new(cfg.area_side, cfg.area_side));
    ShardedWorld::new(cfg.sim_config(), bounds, shards).expect("validated sim config")
}
