//! End-to-end instance scenarios shared by the `perfbench` benchmark and
//! the allocation, determinism and overhead tests under `tests/`: the
//! paper's Fig. 6 default flow, constant-density arenas on the serial and
//! the sharded engine, and HELLO-dense arenas that stress the beaconing
//! path. Each is a thin wrapper that `expect`s success from the recipe the
//! experiments run: [`imobif_experiments::runner::setup_instance`]
//! or [`imobif_experiments::arena::build_arena`].

use std::sync::Arc;

use imobif::{ImobifApp, MobilityMode, StrategyRegistry};
use imobif_experiments::arena::{build_arena, sharded_world, ArenaRun};
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::{build_strategy, setup_instance, InstanceFlow, StrategyChoice};
use imobif_experiments::topology::draw_scenario;
use imobif_netsim::{ShardedWorld, SimTime, World};

/// The simulator configuration a builder runs. It has one value: the
/// event-queue and decision-cache switches it once chose between are
/// gone, and the builders always run the shipping defaults. It remains a
/// parameter of [`build_fig6`] and [`build_scale_arena`] because the
/// benchmark's call sites pass it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Variant;

impl Variant {
    /// The shipping configuration: the one event queue, decision cache on.
    #[must_use]
    pub fn after() -> Self {
        Variant
    }
}

/// A fully installed Fig. 6 instance, ready to run.
pub struct Fig6Run {
    /// The simulated world (flow installed, world started).
    pub world: World<ImobifApp>,
    /// The installed flow: path ids, length and time cap.
    pub instance: InstanceFlow,
}

impl Fig6Run {
    /// Payload bits delivered so far.
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        let (dst, flow) = (self.instance.dst(), self.instance.flow);
        self.world.app(dst).dest(flow).map_or(0, |d| d.received_bits)
    }

    /// Runs until simulated time `t` (bounded by the cap).
    pub fn run_until_time(&mut self, t: SimTime) {
        let deadline = t.min(self.instance.cap);
        self.world.run_while(|w| w.time() < deadline);
    }
}

/// Builds the paper's Fig. 6 default scenario (`draw_index`-th flow of
/// [`ScenarioConfig::paper_default`]) under `mode`: the path-only world
/// the batch runner simulates for that case.
///
/// # Panics
///
/// Panics on an invalid default config — a bug, not a runtime condition.
#[must_use]
pub fn build_fig6(mode: MobilityMode, _variant: Variant, draw_index: u64) -> Fig6Run {
    let cfg = ScenarioConfig::paper_default();
    let draw = draw_scenario(&cfg, draw_index);
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
    let mut world: World<ImobifApp> = World::new(cfg.sim_config()).expect("validated sim config");
    let instance = setup_instance(&mut world, &cfg, &draw, mode, &strategy, &registry);
    Fig6Run { world, instance }
}

/// Builds the constant-density arena of [`build_arena`] on the serial
/// [`World`]: `node_count` nodes, `n_flows` concurrent flows.
///
/// # Panics
///
/// Panics if the arena is invalid or unroutable — a bug in the benchmark
/// setup, not a runtime condition.
#[must_use]
pub fn build_scale_arena(
    node_count: usize,
    n_flows: usize,
    _variant: Variant,
    seed: u64,
) -> ArenaRun<World<ImobifApp>> {
    build_arena(node_count, n_flows, seed, |cfg| {
        World::new(cfg.sim_config()).expect("validated sim config")
    })
    .expect("benchmark arenas are valid and routable")
}

/// Builds the same arena as [`build_scale_arena`] on a [`ShardedWorld`]
/// split into `shards` spatial regions. Two sharded arenas with equal
/// `(node_count, n_flows, seed)` differ only in shard layout, and the
/// epoch-barrier engine keeps their traces bit-identical regardless.
///
/// When `trace` is set the world records its merged cross-shard trace (used
/// by the determinism sweep; costs memory at 100k nodes, so the throughput
/// points leave it off).
///
/// # Panics
///
/// Panics if the arena is invalid or unroutable, or `shards` is zero.
#[must_use]
pub fn build_sharded_arena(
    node_count: usize,
    n_flows: usize,
    shards: usize,
    seed: u64,
    trace: bool,
) -> ArenaRun<ShardedWorld<ImobifApp>> {
    build_arena(node_count, n_flows, seed, |cfg| {
        let mut world = sharded_world(cfg, shards);
        if trace {
            world.enable_tracing();
        }
        world
    })
    .expect("benchmark arenas are valid and routable")
}

/// Builds a HELLO-dense arena: the paper's 100-node deployment with
/// beaconing on and no data flows, so the run isolates the beacon →
/// grid-query → neighbor-table path that fires `node_count` times per
/// simulated second.
#[must_use]
pub fn build_hello_dense() -> World<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    build_scale_arena(cfg.node_count, 0, Variant::after(), cfg.seed).world
}

/// The HELLO-dense deployment of [`build_hello_dense`] on a
/// [`ShardedWorld`]: stationary nodes, beacons only. With no flows and no
/// mobility the application state saturates after the first beacon rounds,
/// so a warmed run isolates the epoch pipeline itself — scheduler, outbox
/// recycling, observation grouping, and barrier apply — for the
/// zero-allocation gate.
#[must_use]
pub fn build_sharded_hello_dense(shards: usize) -> ShardedWorld<ImobifApp> {
    let cfg = ScenarioConfig::paper_default();
    build_sharded_arena(cfg.node_count, 0, shards, cfg.seed, false).world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_run_delivers_the_whole_flow() {
        let mut run = build_fig6(MobilityMode::Informed, Variant::after(), 3);
        run.run_until_time(run.instance.cap);
        assert!(run.instance.total_bits > 0);
        assert_eq!(run.delivered_bits(), run.instance.total_bits);
    }

    #[test]
    fn scale_arena_builds_and_delivers() {
        let mut run = build_scale_arena(300, 4, Variant::after(), 7);
        assert_eq!(run.flows.len(), 4);
        run.world.run_until(SimTime::from_micros(3_000_000));
        assert!(run.world.events_processed() > 0);
        assert!(run.delivered_packets() > 0);
    }

    #[test]
    fn sharded_arena_matches_itself_across_shard_counts() {
        let mut one = build_sharded_arena(300, 4, 1, 7, true);
        let mut four = build_sharded_arena(300, 4, 4, 7, true);
        assert_eq!(one.flows.len(), 4);
        one.world.run_until(SimTime::from_micros(3_000_000));
        four.world.run_until(SimTime::from_micros(3_000_000));
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
