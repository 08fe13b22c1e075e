//! Layer microbenchmarks, each driven by the workload's own data.
//!
//! Each microbenchmark calls one layer's public function in a tight loop
//! over inputs taken from the workload — its topologies, flow paths, queue
//! size and timing constants — and reports time per call. Every sample is
//! one pass of at least [`TARGET_OPS`] calls; [`REPS`] samples are taken.

use std::hint::black_box;
use std::time::Instant;

use imobif::decision::evaluate_relay;
use imobif::{DecisionInputs, MinEnergyStrategy, MobilityMode, StrategyInputs};
use imobif_bench::alloc_track;
use imobif_bench::instances::{build_fig6, Variant};
use imobif_energy::{LinearMobilityCost, PowerLawModel};
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::clear_memos;
use imobif_experiments::topology::{draw_scenario, TopologyDraw};
use imobif_geom::{Point2, SpatialGrid};
use imobif_netsim::{
    EnergyCategory, EnergyLedger, EventQueue, NeighborTable, NodeId, SimDuration, SimTime,
};

use crate::spans::Spans;

/// Samples per microbenchmark.
const REPS: usize = 5;

/// Calls per sample, at least.
const TARGET_OPS: usize = 100_000;

/// Topologies a batch workload contributes positions from.
const POSITION_SETS: u64 = 8;

/// Draws per config that relay triples come from.
const TRIPLE_DRAWS: u64 = 4;

/// Topology draws per config in one `topology.draw_us` sample of a batch
/// workload. An arena draws once per sample (a 100k-node draw takes tens
/// of milliseconds).
const BATCH_DRAWS: u64 = 4;

/// Largest beacon replay, in observations (bounds the 100k arena's
/// neighbor tables).
const MAX_OBSERVES: usize = 400_000;

/// Draw indices the draw microbenchmark starts at: far from the indices
/// the rounds use.
const DRAW_BASE: u64 = 1 << 32;

/// The workload's own data, as the microbenchmarks consume it.
#[derive(Debug, Clone)]
pub(crate) struct LayerInputs {
    /// The workload's first config: models, range and timing constants.
    pub cfg: ScenarioConfig,
    /// Configs the topology draw is timed over.
    pub configs: Vec<ScenarioConfig>,
    /// Draws per config per sample.
    pub draws: u64,
    /// Node position sets (one per topology).
    pub positions: Vec<Vec<Point2>>,
    /// Relay decision inputs from the workload's flow paths.
    pub triples: Vec<DecisionInputs>,
    /// Nodes in the ledger (the size of the workload's worlds).
    pub ledger_nodes: usize,
    /// Nodes charged, in order: the flow-path nodes.
    pub charge_nodes: Vec<NodeId>,
    /// Events the queue microbenchmark holds.
    pub hold_len: usize,
}

/// The relay decision inputs of every relay on a draw's flow path.
fn relay_triples(d: &TopologyDraw) -> impl Iterator<Item = DecisionInputs> + '_ {
    d.flow.path.windows(3).map(|w| {
        let at = |id: NodeId| (d.positions[id.index()], d.energies[id.index()]);
        let ((prev_position, prev_residual), (self_position, self_residual)) = (at(w[0]), at(w[1]));
        let (next_position, next_residual) = at(w[2]);
        DecisionInputs {
            triple: StrategyInputs {
                prev_position,
                prev_residual,
                self_position,
                self_residual,
                next_position,
                next_residual,
            },
            residual_flow_bits: d.flow.flow_bits as f64,
        }
    })
}

/// [`TRIPLE_DRAWS`] draws of each config; leaves the memos cleared.
fn draws(configs: &[ScenarioConfig]) -> Vec<TopologyDraw> {
    let out = configs.iter().flat_map(|c| (0..TRIPLE_DRAWS).map(|i| draw_scenario(c, i))).collect();
    clear_memos();
    out
}

impl LayerInputs {
    /// Inputs of a batch workload, all drawn from its configs. Its worlds
    /// hold only a flow path, so the ledger is the size of the longest one.
    #[must_use]
    pub(crate) fn from_draws(configs: &[ScenarioConfig], hold_len: usize) -> LayerInputs {
        let cfg = configs[0];
        let positions = (0..POSITION_SETS).map(|i| draw_scenario(&cfg, i).positions).collect();
        let draws = draws(configs);
        let longest = draws.iter().map(|d| d.flow.path.len()).max().unwrap_or(0);
        let mut configs = configs.to_vec();
        configs.dedup();
        LayerInputs {
            cfg,
            configs,
            draws: BATCH_DRAWS,
            positions,
            triples: draws.iter().flat_map(relay_triples).collect(),
            ledger_nodes: longest,
            charge_nodes: (0..longest as u32).map(NodeId::new).collect(),
            hold_len,
        }
    }

    /// Inputs of an arena workload: its node `positions`, and relay triples
    /// and charged nodes from flow paths drawn on its config.
    #[must_use]
    pub(crate) fn from_arena(
        cfg: ScenarioConfig,
        positions: Vec<Point2>,
        hold_len: usize,
    ) -> LayerInputs {
        let draws = draws(&[cfg]);
        LayerInputs {
            cfg,
            configs: vec![cfg],
            draws: 1,
            ledger_nodes: positions.len(),
            positions: vec![positions],
            triples: draws.iter().flat_map(relay_triples).collect(),
            charge_nodes: draws.iter().flat_map(|d| d.flow.path.iter().copied()).collect(),
            hold_len,
        }
    }
}

/// Runs every microbenchmark; returns samples per per-layer metric.
pub(crate) fn run_all(inputs: &LayerInputs, spans: &mut Spans) -> Vec<(&'static str, Vec<f64>)> {
    let mut out = Vec::new();
    let mut sample = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut() -> f64| {
        let samples = (0..REPS).map(|_| spans.time(name, &mut *f).0).collect();
        out.push((name, samples));
    };
    let sim = inputs.cfg.sim_config();
    let increments = [sim.hop_latency, inputs.cfg.packet_interval(), sim.hello.period];
    sample("event.hold_ns", spans, &mut || hold_ns(inputs.hold_len, increments));
    let (sets, range) = (&inputs.positions, inputs.cfg.range);
    let grids = grids(sets, range);
    sample("grid.query_ns", spans, &mut || grid_query(sets, &grids, range).0);
    let lists = neighbor_lists(sets, &grids, range);
    let ttl = sim.hello.ttl;
    sample("hello.observe_ns", spans, &mut || observe_ns(sets, &lists, ttl, true));
    sample("hello.observe_insert_ns", spans, &mut || observe_ns(sets, &lists, ttl, false));
    let (tx, mv) = models(&inputs.cfg);
    sample("decision.evaluate_ns", spans, &mut || evaluate_ns(&inputs.triples, &tx, &mv));
    sample("ledger.charge_ns", spans, &mut || charge_ns(inputs.ledger_nodes, &inputs.charge_nodes));
    let mut rep = 0;
    sample("topology.draw_us", spans, &mut || {
        rep += 1;
        draw_us(&inputs.configs, inputs.draws, rep)
    });
    out.push(("grid.hits_per_query", vec![grid_query(sets, &grids, range).1]));
    out
}

fn models(cfg: &ScenarioConfig) -> (PowerLawModel, LinearMobilityCost) {
    (cfg.tx_model().expect("validated config"), cfg.mobility_model().expect("validated config"))
}

fn per_op_ns(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// ns per pop+push on a queue holding `len` events, each popped event
/// rescheduled one hop latency, packet interval or HELLO period ahead.
fn hold_ns(len: usize, increments: [SimDuration; 3]) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..len {
        q.push(SimTime::from_micros(i as u64 * 1_000_000 / len as u64), i);
    }
    let step = |q: &mut EventQueue<usize>| {
        let (t, e) = q.pop().expect("a held queue never drains");
        q.push(t + increments[e % 3], e);
    };
    for _ in 0..len {
        step(&mut q);
    }
    let t0 = Instant::now();
    for _ in 0..TARGET_OPS {
        step(&mut q);
    }
    per_op_ns(t0, TARGET_OPS)
}

/// One spatial grid per position set, cell size = radio range (as
/// `TopologyView` builds it).
#[must_use]
pub fn grids(sets: &[Vec<Point2>], range: f64) -> Vec<SpatialGrid> {
    sets.iter()
        .map(|set| {
            let mut g = SpatialGrid::new(range.max(1.0));
            for (i, &p) in set.iter().enumerate() {
                g.insert(i as u32, p);
            }
            g
        })
        .collect()
}

/// ns per range query at the radio range, centred on every node, and the
/// mean number of other nodes each query returns.
#[must_use]
pub fn grid_query(sets: &[Vec<Point2>], grids: &[SpatialGrid], range: f64) -> (f64, f64) {
    let queries: usize = sets.iter().map(Vec::len).sum();
    let passes = TARGET_OPS.div_ceil(queries);
    let mut buf = Vec::new();
    let mut hits = 0;
    let t0 = Instant::now();
    for _ in 0..passes {
        hits = 0;
        for (set, grid) in sets.iter().zip(grids) {
            for &p in set {
                grid.query_range_into(p, range, &mut buf);
                hits += buf.len() - 1;
            }
        }
    }
    (per_op_ns(t0, passes * queries), hits as f64 / queries as f64)
}

/// Who hears whom: `(set, hearer, sender)` for one beacon round of every
/// node, capped at [`MAX_OBSERVES`].
fn neighbor_lists(
    sets: &[Vec<Point2>],
    grids: &[SpatialGrid],
    range: f64,
) -> Vec<(usize, usize, u32)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    'sets: for (s, (set, grid)) in sets.iter().zip(grids).enumerate() {
        for (sender, &p) in set.iter().enumerate() {
            grid.query_range_into(p, range, &mut buf);
            buf.sort_unstable();
            for &hearer in &buf {
                if hearer as usize != sender {
                    out.push((s, hearer as usize, sender as u32));
                }
            }
            if out.len() >= MAX_OBSERVES {
                break 'sets;
            }
        }
    }
    out
}

/// ns per `NeighborTable::observe` replaying one beacon round: into tables
/// that already hold every entry (`refresh`), or into empty tables.
fn observe_ns(
    sets: &[Vec<Point2>],
    beacons: &[(usize, usize, u32)],
    ttl: SimDuration,
    refresh: bool,
) -> f64 {
    let passes = TARGET_OPS.div_ceil(beacons.len().max(1));
    let fresh = || -> Vec<Vec<NeighborTable>> {
        sets.iter().map(|set| vec![NeighborTable::new(ttl); set.len()]).collect()
    };
    let replay = |tables: &mut Vec<Vec<NeighborTable>>, now: SimTime| {
        for &(s, hearer, sender) in beacons {
            tables[s][hearer].observe(NodeId::new(sender), sets[s][sender as usize], 1.0, now);
        }
    };
    let mut all: Vec<_> = (0..passes).map(|_| fresh()).collect();
    if refresh {
        for tables in &mut all {
            replay(tables, SimTime::ZERO);
        }
    }
    let now = SimTime::from_micros(1_000_000);
    let t0 = Instant::now();
    for tables in &mut all {
        replay(tables, now);
    }
    let ns = per_op_ns(t0, passes * beacons.len());
    black_box(all);
    ns
}

/// ns per min-energy relay evaluation over the workload's relay triples.
fn evaluate_ns(triples: &[DecisionInputs], tx: &PowerLawModel, mv: &LinearMobilityCost) -> f64 {
    let strategy = MinEnergyStrategy::new();
    let t0 = Instant::now();
    for inputs in triples.iter().cycle().take(TARGET_OPS) {
        black_box(evaluate_relay(&strategy, black_box(inputs), tx, mv));
    }
    per_op_ns(t0, TARGET_OPS)
}

/// ns per `EnergyLedger::charge` over the flow-path nodes, cycling the
/// energy categories.
fn charge_ns(nodes: usize, charged: &[NodeId]) -> f64 {
    const CATEGORIES: [EnergyCategory; 4] = [
        EnergyCategory::Data,
        EnergyCategory::Mobility,
        EnergyCategory::Hello,
        EnergyCategory::Notification,
    ];
    let mut ledger = EnergyLedger::new();
    ledger.grow_to(nodes);
    let t0 = Instant::now();
    for (k, &id) in charged.iter().cycle().take(TARGET_OPS).enumerate() {
        ledger.charge(id, CATEGORIES[k % 4], 1e-6);
    }
    let ns = per_op_ns(t0, TARGET_OPS);
    black_box(ledger.totals());
    ns
}

/// µs per topology draw (placement, energies, greedy routing) from cold
/// memos, over each config at indices no round uses.
fn draw_us(configs: &[ScenarioConfig], per_config: u64, rep: u64) -> f64 {
    let mut secs = 0.0;
    for cfg in configs {
        clear_memos();
        let t0 = Instant::now();
        for i in 0..per_config {
            black_box(draw_scenario(cfg, DRAW_BASE + rep * per_config + i));
        }
        secs += t0.elapsed().as_secs_f64();
    }
    clear_memos();
    secs * 1e6 / (configs.len() as u64 * per_config) as f64
}

/// Heap allocations per delivered packet in a warmed informed Fig. 6
/// instance (draw 0): warm for 120 simulated seconds, then count over the
/// next 120.
#[must_use]
pub(crate) fn steady_allocs_per_packet() -> f64 {
    let mut run = build_fig6(MobilityMode::Informed, Variant::after(), 0);
    clear_memos();
    let packet_bits = ScenarioConfig::paper_default().packet_bits;
    run.run_until_time(SimTime::from_micros(120_000_000));
    let (allocs0, bits0) = (alloc_track::snapshot().allocs, run.delivered_bits());
    run.run_until_time(SimTime::from_micros(240_000_000));
    let packets = (run.delivered_bits() - bits0) / packet_bits;
    (alloc_track::snapshot().allocs - allocs0) as f64 / packets.max(1) as f64
}
