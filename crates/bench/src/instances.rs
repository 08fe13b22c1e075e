//! End-to-end instance scenarios shared by the `perfbench` benchmark and
//! the allocation and determinism tests under `tests/`: the paper's Fig. 6
//! default flow, constant-density arenas on the serial and the sharded
//! engine, and HELLO-dense arenas that stress the beaconing path.

use std::sync::Arc;

use imobif::{install_flow, FlowSpec, ImobifApp, ImobifConfig, MobilityMode};
use imobif_energy::Battery;
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::{build_strategy, StrategyChoice};
use imobif_experiments::topology::draw_scenario;
use imobif_geom::Point2;
use imobif_netsim::routing::GreedyRouter;
use imobif_netsim::{FlowId, NodeId, ShardedWorld, SimDuration, SimTime, TopologyView, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The simulator configuration a builder runs. It has one value: the
/// event-queue and decision-cache switches it once chose between are
/// gone, and the builders always run the shipping defaults. It remains a
/// parameter of [`build_fig6`] and [`build_scale_arena`] because the
/// benchmark's call sites pass it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Variant;

impl Variant {
    /// The shipping configuration: calendar queue, decision cache on.
    #[must_use]
    pub fn after() -> Self {
        Variant
    }
}

/// A fully installed Fig. 6 instance, ready to run.
pub struct Fig6Run {
    /// The simulated world (flow installed, world started).
    pub world: World<ImobifApp>,
    /// The installed flow id.
    pub flow: FlowId,
    /// Path node ids, source first.
    pub ids: Vec<NodeId>,
    /// Total flow length in bits.
    pub total_bits: u64,
    /// Simulated-time cap: pacing time plus slack for in-flight packets.
    pub cap: SimTime,
}

impl Fig6Run {
    /// The destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        *self.ids.last().expect("paths have >= 3 nodes")
    }

    /// Payload bits delivered so far.
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        let dst = self.dst();
        self.world.app(dst).dest(self.flow).map_or(0, |d| d.received_bits)
    }

    /// Runs until the flow completes (or the time cap trips).
    pub fn run_to_completion(&mut self) {
        let (cap, total, flow, dst) = (self.cap, self.total_bits, self.flow, self.dst());
        self.world.run_while(|w| {
            w.time() < cap && w.app(dst).dest(flow).is_none_or(|d| d.received_bits < total)
        });
    }

    /// Runs until simulated time `t` (bounded by the cap).
    pub fn run_until_time(&mut self, t: SimTime) {
        let deadline = t.min(self.cap);
        self.world.run_while(|w| w.time() < deadline);
    }
}

/// Builds the paper's Fig. 6 default scenario (`draw_index`-th flow of
/// [`ScenarioConfig::paper_default`]) under `mode`.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_fig6(mode: MobilityMode, _variant: Variant, draw_index: u64) -> Fig6Run {
    let cfg = ScenarioConfig::paper_default();
    let draw = draw_scenario(&cfg, draw_index);
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);

    let mut world: World<ImobifApp> = World::new(cfg.sim_config()).expect("validated sim config");
    let app_cfg = ImobifConfig { mode, max_step: cfg.max_step, ..Default::default() };
    let ids: Vec<NodeId> = draw
        .flow
        .path
        .iter()
        .map(|&orig| {
            world.add_node(
                draw.positions[orig.index()],
                Battery::new(draw.energies[orig.index()]).expect("sampled energies are valid"),
                ImobifApp::new(app_cfg, Arc::clone(&strategy)),
            )
        })
        .collect();
    world.start();

    let flow = FlowId::new(0);
    let spec = FlowSpec {
        flow,
        path: ids.clone(),
        total_bits: draw.flow.flow_bits,
        packet_bits: cfg.packet_bits,
        interval: cfg.packet_interval(),
        initial_mobility_enabled: cfg.initial_mobility_enabled,
        estimate_factor: cfg.estimate_factor,
        start_delay: SimDuration::from_millis(500),
        strategy: strategy.kind(),
    };
    install_flow(&mut world, &spec).expect("drawn paths are valid");
    let cap = SimTime::ZERO
        + SimDuration::from_secs_f64(
            0.5 + spec.packet_count() as f64 * cfg.packet_interval_secs + 60.0,
        );
    Fig6Run { world, flow, ids, total_bits: draw.flow.flow_bits, cap }
}

/// A large multi-flow arena for the benchmark's arena workloads: every
/// node deployed (unlike the pinned-path experiment worlds), several
/// concurrent flows paced at once, so the kernel's beacon/grid/queue
/// machinery is exercised at `node_count` scale.
pub struct ScaleArenaRun {
    /// The simulated world (flows installed, world started).
    pub world: World<ImobifApp>,
    /// `(flow, destination)` pairs for delivery accounting.
    pub flows: Vec<(FlowId, NodeId)>,
    /// Payload bits per packet (for packet counting).
    pub packet_bits: u64,
}

impl ScaleArenaRun {
    /// Runs until simulated time `t`.
    pub fn run_until_time(&mut self, t: SimTime) {
        self.world.run_while(|w| w.time() < t);
    }

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

/// Builds a `node_count`-node arena with `n_flows` concurrent greedy-routed
/// flows. The deployment area scales as `150 · sqrt(node_count / 100)` so
/// node density — and with it the paper's ~12 average neighbors — stays
/// constant as the arena grows.
///
/// # Panics
///
/// Panics if the scaled config is invalid or fewer than `n_flows` routable
/// source/destination pairs exist — a bug in the benchmark setup, not a
/// runtime condition.
#[must_use]
pub fn build_scale_arena(
    node_count: usize,
    n_flows: usize,
    _variant: Variant,
    seed: u64,
) -> ScaleArenaRun {
    let cfg = ScenarioConfig {
        node_count,
        area_side: 150.0 * (node_count as f64 / 100.0).sqrt(),
        seed,
        ..ScenarioConfig::paper_default()
    };
    cfg.validate().expect("scaled config is valid");
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let mut world: World<ImobifApp> = World::new(cfg.sim_config()).expect("validated sim config");
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
        assert!(attempts < 200 * n_flows, "arena must admit {n_flows} routable flows");
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
            // Long enough that no flow completes inside a measurement
            // window: the workload stays constant for the whole run.
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
    ScaleArenaRun { world, flows, packet_bits: cfg.packet_bits }
}

/// A [`ShardedWorld`] variant of [`ScaleArenaRun`] for the shard and
/// thread sweeps: the same constant-density deployment and flow recipe,
/// run through the epoch-barrier engine so shard count and thread count can
/// sweep while the trace fingerprint stays fixed.
pub struct ShardedArenaRun {
    /// The sharded world (flows installed, world started).
    pub world: ShardedWorld<ImobifApp>,
    /// `(flow, destination)` pairs for delivery accounting.
    pub flows: Vec<(FlowId, NodeId)>,
    /// Payload bits per packet (for packet counting).
    pub packet_bits: u64,
}

impl ShardedArenaRun {
    /// Runs until simulated time `t`.
    pub fn run_until_time(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

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

/// Builds the same constant-density arena as [`build_scale_arena`], but on a
/// [`ShardedWorld`] split into `shards` spatial regions. Positions, paths,
/// and flow specs are drawn from the same seeded stream, so two sharded
/// arenas with equal `(node_count, n_flows, seed)` differ only in shard
/// layout — and the epoch-barrier engine guarantees their traces are
/// bit-identical regardless.
///
/// Delegates to [`imobif_experiments::spans_tools::build_sharded_workload`]
/// so the `imobif spans` CLI, the benchmark and the pin tests run the exact
/// same FNV-pinned workload.
///
/// When `trace` is set the world records its merged cross-shard trace (used
/// by the determinism sweep; costs memory at 100k nodes, so the throughput
/// points leave it off).
///
/// # Panics
///
/// Panics if the scaled config is invalid or fewer than `n_flows` routable
/// source/destination pairs exist — a bug in the benchmark setup, not a
/// runtime condition.
#[must_use]
pub fn build_sharded_arena(
    node_count: usize,
    n_flows: usize,
    shards: usize,
    seed: u64,
    trace: bool,
) -> ShardedArenaRun {
    let run = imobif_experiments::spans_tools::build_sharded_workload(
        node_count, n_flows, shards, seed, trace,
    );
    ShardedArenaRun { world: run.world, flows: run.flows, packet_bits: run.packet_bits }
}

/// Builds a HELLO-dense arena: the full 100-node deployment with beaconing
/// on and no data flows, so the run isolates the beacon → grid-query →
/// neighbor-table path that fires `node_count` times per simulated second.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_hello_dense() -> World<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let mut world: World<ImobifApp> = World::new(cfg.sim_config()).expect("validated sim config");
    let app_cfg = ImobifConfig::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.node_count {
        let p = Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side));
        world.add_node(
            p,
            Battery::new(1e5).expect("valid"),
            ImobifApp::new(app_cfg, strategy.clone()),
        );
    }
    world.start();
    world
}

/// The HELLO-dense deployment of [`build_hello_dense`] on a
/// [`ShardedWorld`]: stationary nodes, beacons only. With no flows and no
/// mobility the application state saturates after the first beacon rounds,
/// so a warmed run isolates the epoch pipeline itself — scheduler, outbox
/// recycling, observation grouping, and barrier apply — for the
/// zero-allocation gate.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_sharded_hello_dense(shards: usize) -> ShardedWorld<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let bounds = (Point2::new(0.0, 0.0), Point2::new(cfg.area_side, cfg.area_side));
    let mut world: ShardedWorld<ImobifApp> =
        ShardedWorld::new(cfg.sim_config(), bounds, shards).expect("validated sim config");
    let app_cfg = ImobifConfig::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.node_count {
        let p = Point2::new(rng.gen_range(0.0..cfg.area_side), rng.gen_range(0.0..cfg.area_side));
        world.add_node(
            p,
            Battery::new(1e5).expect("valid"),
            ImobifApp::new(app_cfg, strategy.clone()),
        );
    }
    world.start();
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_run_delivers_the_whole_flow() {
        let mut run = build_fig6(MobilityMode::Informed, Variant::after(), 3);
        run.run_to_completion();
        assert!(run.total_bits > 0);
        assert_eq!(run.delivered_bits(), run.total_bits);
    }

    #[test]
    fn scale_arena_builds_and_delivers() {
        let mut run = build_scale_arena(300, 4, Variant::after(), 7);
        assert_eq!(run.flows.len(), 4);
        run.run_until_time(SimTime::from_micros(3_000_000));
        assert!(run.world.events_processed() > 0);
        assert!(run.delivered_packets() > 0);
    }

    #[test]
    fn sharded_arena_matches_itself_across_shard_counts() {
        let mut one = build_sharded_arena(300, 4, 1, 7, true);
        let mut four = build_sharded_arena(300, 4, 4, 7, true);
        assert_eq!(one.flows.len(), 4);
        one.run_until_time(SimTime::from_micros(3_000_000));
        four.run_until_time(SimTime::from_micros(3_000_000));
        assert!(one.delivered_packets() > 0);
        assert_eq!(one.delivered_packets(), four.delivered_packets());
        assert_eq!(one.world.trace_fnv(), four.world.trace_fnv());
    }

    #[test]
    fn hello_dense_processes_beacons() {
        let mut w = build_hello_dense();
        w.run_until(SimTime::from_micros(10_000_000));
        // 100 nodes beacon every second: ≥ 100 nodes × 10 s beacon timers.
        assert!(w.events_processed() >= 1_000);
    }
}
