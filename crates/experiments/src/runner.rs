//! Instance and batch runners: one flow under one mobility mode, end to end.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MaxLifetimeStrategy, MinEnergyStrategy,
    MobilityMode, MobilityStrategy, StrategyRegistry,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::trace::TraceEvent;
use imobif_netsim::{FlowId, NodeId, SimDuration, SimTime, World};
use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ChurnModel, ScenarioConfig};
use crate::memo::{count_lookup, ShardedMemo};
use crate::topology::{clear_draw_memo, draw_memo_counters, draw_scenario, TopologyDraw};

/// Which of the paper's two strategies an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// Minimize total energy (paper §3.1; Figs. 5(b), 6, 7).
    MinEnergy,
    /// Maximize system lifetime (paper §3.2; Figs. 5(c), 8).
    MaxLifetime,
}

/// Instantiates a strategy for a scenario. The max-lifetime exponent `α'`
/// is fitted by regression over the operating distance range `[1, range]`,
/// exactly as the paper prescribes.
///
/// # Panics
///
/// Panics if the scenario's power model is invalid (call
/// [`ScenarioConfig::validate`] first).
#[must_use]
pub fn build_strategy(cfg: &ScenarioConfig, choice: StrategyChoice) -> Arc<dyn MobilityStrategy> {
    match choice {
        StrategyChoice::MinEnergy => Arc::new(MinEnergyStrategy::new()),
        StrategyChoice::MaxLifetime => {
            let model = cfg.tx_model().expect("validated config");
            Arc::new(
                MaxLifetimeStrategy::fitted(&model, 1.0, cfg.range)
                    .expect("regression over a valid range"),
            )
        }
    }
}

/// Everything measured from one `(flow, mode)` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceResult {
    /// The mode this instance ran under.
    pub mode: MobilityMode,
    /// Flow length in bits.
    pub flow_bits: u64,
    /// Path length in nodes (incl. endpoints).
    pub path_len: usize,
    /// Total energy spent (data + mobility + notifications), in joules.
    pub total_energy: f64,
    /// Data transmission energy, in joules.
    pub data_energy: f64,
    /// Movement energy, in joules.
    pub mobility_energy: f64,
    /// Notification energy, in joules.
    pub notification_energy: f64,
    /// Payload bits that reached the destination.
    pub delivered_bits: u64,
    /// `true` if every flow bit was delivered.
    pub completed: bool,
    /// Notifications the destination sent (paper Fig. 7).
    pub notifications: u64,
    /// Times the source's mobility status flipped.
    pub status_changes: u64,
    /// System lifetime in seconds: first on-path node death, or flow
    /// completion time if nobody died.
    pub lifetime_secs: f64,
    /// `true` if some path node died.
    pub node_died: bool,
    /// Final positions of the path nodes, in path order.
    pub final_positions: Vec<Point2>,
    /// Final residual energies of the path nodes, in path order.
    pub final_energies: Vec<f64>,
}

/// A reusable pool of simulator state for back-to-back instance runs.
///
/// The first [`run_instance_in`] call builds a world from scratch; every
/// later call resets and reuses it — node vectors, spatial-grid buckets,
/// event-queue storage, neighbor tables and the per-node `ImobifApp`
/// collections all keep their allocations across replicates. The world-level
/// reset tests (and `imobif-netsim`'s reset proptest) guarantee a recycled
/// world is bit-identical to a fresh one.
#[derive(Default)]
pub struct InstanceArena {
    world: Option<World<ImobifApp>>,
    spare_apps: Vec<ImobifApp>,
}

impl InstanceArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        InstanceArena::default()
    }
}

/// Runs one flow instance under `mode`, in the path-only world
/// [`setup_instance`] builds.
///
/// # Panics
///
/// Panics if the scenario config is invalid or flow installation fails —
/// both indicate a bug in the experiment driver, not a runtime condition.
#[must_use]
pub fn run_instance(
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
) -> InstanceResult {
    let registry = Arc::new(StrategyRegistry::single(Arc::clone(strategy)));
    run_instance_in(&mut InstanceArena::new(), cfg, draw, mode, strategy, &registry)
}

/// Like [`run_instance`], but recycles the arena's world and application
/// objects instead of allocating fresh ones.
///
/// # Panics
///
/// Panics if the scenario config is invalid or flow installation fails —
/// both indicate a bug in the experiment driver, not a runtime condition.
#[must_use]
pub fn run_instance_in(
    arena: &mut InstanceArena,
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
    registry: &Arc<StrategyRegistry>,
) -> InstanceResult {
    run_instance_inner(arena, cfg, draw, mode, strategy, registry, None).0
}

/// Like [`run_instance`], but with kernel tracing enabled: returns the
/// recorded [`TraceEvent`] stream alongside the result. The ring holds at
/// most `trace_capacity` events (older ones are evicted — see
/// `RingTrace`); the simulated outcome is identical to an untraced run.
///
/// # Panics
///
/// Panics if the scenario config is invalid or flow installation fails.
#[must_use]
pub fn run_instance_traced(
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
    trace_capacity: usize,
) -> (InstanceResult, Vec<TraceEvent>) {
    let registry = Arc::new(StrategyRegistry::single(Arc::clone(strategy)));
    let (result, trace) = run_instance_inner(
        &mut InstanceArena::new(),
        cfg,
        draw,
        mode,
        strategy,
        &registry,
        Some(trace_capacity),
    );
    (result, trace.expect("tracing was enabled"))
}

/// The flow of a started path-only instance world, as
/// [`setup_instance`] installed it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceFlow {
    /// Path node ids, source first.
    pub ids: Vec<NodeId>,
    /// The installed flow.
    pub flow: FlowId,
    /// Flow length in bits.
    pub total_bits: u64,
    /// Simulated-time cap: pacing time plus slack for in-flight packets.
    pub cap: SimTime,
}

impl InstanceFlow {
    /// The destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        *self.ids.last().expect("paths have >= 3 nodes")
    }
}

/// Sets up one flow instance in a new or freshly reset `world`: adds the
/// draw's path nodes (agents recycled from `spare_apps` while any are
/// left), starts the world, installs the drawn flow as flow 0 under
/// `mode`, and lowers the scenario's churn schedule into kill events.
///
/// The world contains only the flow-path nodes: the paper's other 90+ nodes
/// neither transmit nor move during a single one-to-one flow, so omitting
/// them changes no measured quantity while keeping batches fast. Routing
/// already happened against the full topology in [`draw_scenario`].
///
/// # Panics
///
/// Panics if the world is already started or flow installation fails —
/// both indicate a bug in the calling experiment code.
pub fn setup_instance(
    world: &mut World<ImobifApp>,
    spare_apps: &mut Vec<ImobifApp>,
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
    registry: &Arc<StrategyRegistry>,
) -> InstanceFlow {
    let app_cfg = ImobifConfig { mode, max_step: cfg.max_step, ..Default::default() };
    let ids: Vec<NodeId> = draw
        .flow
        .path
        .iter()
        .map(|&orig| {
            let app = match spare_apps.pop() {
                Some(mut a) => {
                    a.reset(app_cfg, Arc::clone(registry));
                    a
                }
                None => ImobifApp::with_registry(app_cfg, Arc::clone(registry)),
            };
            world.add_node(
                draw.positions[orig.index()],
                Battery::new(draw.energies[orig.index()]).expect("sampled energies are valid"),
                app,
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
        // The flow selects whatever strategy the experiment equipped the
        // nodes with.
        strategy: strategy.kind(),
    };
    install_flow(world, &spec).expect("drawn paths are valid");

    // Lower the churn schedule into kernel kill events. Deterministic per
    // instance: the schedule rng is seeded from the scenario seed and the
    // drawn flow's identity, so every mode of a case sees the same failure
    // times regardless of arena reuse or thread scheduling.
    if let ChurnModel::RelayExponential { mean_secs } = cfg.churn {
        let mix = cfg.seed
            ^ (draw.flow.src.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (draw.flow.dst.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ draw.flow.flow_bits.wrapping_mul(0x1656_67B1_9E37_79F9);
        let mut churn_rng = StdRng::seed_from_u64(mix);
        for &relay in &ids[1..ids.len() - 1] {
            let u: f64 = churn_rng.gen_range(0.0..1.0);
            let t = -mean_secs * (1.0 - u).ln();
            world.schedule_kill(relay, SimDuration::from_secs_f64(t));
        }
    }

    // Generous cap: pacing time plus slack for in-flight packets.
    let cap = SimTime::ZERO
        + SimDuration::from_secs_f64(
            0.5 + spec.packet_count() as f64 * cfg.packet_interval_secs + 60.0,
        );
    InstanceFlow { ids, flow, total_bits: draw.flow.flow_bits, cap }
}

fn run_instance_inner(
    arena: &mut InstanceArena,
    cfg: &ScenarioConfig,
    draw: &TopologyDraw,
    mode: MobilityMode,
    strategy: &Arc<dyn MobilityStrategy>,
    registry: &Arc<StrategyRegistry>,
    trace_capacity: Option<usize>,
) -> (InstanceResult, Option<Vec<TraceEvent>>) {
    // Self-profiling: with metrics on, the engine times its own phases
    // (arena reset, simulation run) into float counters — CPU-seconds,
    // summed across worker threads. With metrics off no clock is read.
    let obs = crate::obs::registry();
    let t_reset = obs.is_enabled().then(std::time::Instant::now);
    let mut world: World<ImobifApp> = match arena.world.take() {
        Some(mut w) => {
            w.reset_into(cfg.sim_config(), &mut arena.spare_apps).expect("validated sim config");
            w
        }
        None => World::new(cfg.sim_config()).expect("validated sim config"),
    };
    if let Some(t0) = t_reset {
        obs.float_counter("phase.arena_reset_secs").add(t0.elapsed().as_secs_f64());
    }
    if let Some(capacity) = trace_capacity {
        world.enable_tracing(capacity);
    }
    let InstanceFlow { ids, flow, total_bits: total, cap } =
        setup_instance(&mut world, &mut arena.spare_apps, cfg, draw, mode, strategy, registry);
    let src = ids[0];
    let dst = *ids.last().expect("paths have >= 3 nodes");
    let t_run = obs.is_enabled().then(std::time::Instant::now);
    world.run_while(|w| {
        w.time() < cap
            && w.ledger().first_death().is_none()
            && w.app(dst).dest(flow).is_none_or(|d| d.received_bits < total)
    });
    if let Some(t0) = t_run {
        obs.float_counter("phase.case_run_secs").add(t0.elapsed().as_secs_f64());
    }

    let totals = world.ledger().totals();
    let delivered = world.app(dst).dest(flow).map_or(0, |d| d.received_bits);
    let notifications = world.app(dst).dest(flow).map_or(0, |d| d.notifications_sent);
    let status_changes = world.app(src).source(flow).map_or(0, |s| s.status_changes);
    let death = world.ledger().first_death();
    let result = InstanceResult {
        mode,
        flow_bits: total,
        path_len: ids.len(),
        total_energy: totals.total(),
        data_energy: totals.data,
        mobility_energy: totals.mobility,
        notification_energy: totals.notification,
        delivered_bits: delivered,
        completed: delivered >= total,
        notifications,
        status_changes,
        lifetime_secs: death.map_or_else(|| world.time().as_secs_f64(), |(_, t)| t.as_secs_f64()),
        node_died: death.is_some(),
        final_positions: ids.iter().map(|&id| world.position(id)).collect(),
        final_energies: ids.iter().map(|&id| world.residual_energy(id)).collect(),
    };
    let trace = world.trace().map(|t| t.events());
    // Flush this run's kernel counters into the engine-wide registry —
    // one publish per instance, nothing on the per-packet path. The
    // decision-cache counters live in the per-node apps (PR 1), so they
    // are summed here before the apps are recycled.
    if obs.is_enabled() {
        world.publish_metrics(&obs);
        let (mut hits, mut misses) = (0u64, 0u64);
        for &id in &ids {
            let c = world.app(id).counters();
            hits += c.cache_hits;
            misses += c.cache_misses;
        }
        obs.counter("imobif.decision_cache.hits").add(hits);
        obs.counter("imobif.decision_cache.misses").add(misses);
        obs.counter("engine.instances_run").inc();
    }
    // Park the used world for the next replicate to recycle.
    arena.world = Some(world);
    (result, trace)
}

/// One flow case: the same drawn flow run under all three modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Index of the draw (for reproducibility).
    pub draw_index: u64,
    /// Flow length in bits.
    pub flow_bits: u64,
    /// Path length in nodes.
    pub path_len: usize,
    /// Result without mobility.
    pub no_mobility: InstanceResult,
    /// Result with cost-unaware mobility.
    pub cost_unaware: InstanceResult,
    /// Result under iMobif.
    pub informed: InstanceResult,
}

impl CaseResult {
    /// Energy-consumption ratio of cost-unaware mobility vs the baseline
    /// (paper Fig. 6's metric).
    #[must_use]
    pub fn cost_unaware_energy_ratio(&self) -> f64 {
        self.cost_unaware.total_energy / self.no_mobility.total_energy
    }

    /// Energy-consumption ratio of iMobif vs the baseline.
    #[must_use]
    pub fn informed_energy_ratio(&self) -> f64 {
        self.informed.total_energy / self.no_mobility.total_energy
    }

    /// System-lifetime ratio of cost-unaware mobility vs the baseline
    /// (paper Fig. 8's metric).
    #[must_use]
    pub fn cost_unaware_lifetime_ratio(&self) -> f64 {
        self.cost_unaware.lifetime_secs / self.no_mobility.lifetime_secs
    }

    /// System-lifetime ratio of iMobif vs the baseline.
    #[must_use]
    pub fn informed_lifetime_ratio(&self) -> f64 {
        self.informed.lifetime_secs / self.no_mobility.lifetime_secs
    }
}

/// Bit-exact memo key for one `(config, strategy, draw index)` case. Every
/// float field enters via `to_bits`, so configs that differ in any parameter
/// — however slightly — occupy distinct entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CaseKey {
    node_count: usize,
    area_bits: u64,
    range_bits: u64,
    a_bits: u64,
    b_bits: u64,
    alpha_bits: u64,
    k_bits: u64,
    mean_bits: u64,
    packet_bits: u64,
    interval_bits: u64,
    max_step_bits: u64,
    energy: (u8, u64, u64, u64),
    topology: (u8, u64, u64),
    churn: (u8, u64),
    initial_mobility_enabled: bool,
    estimate_bits: u64,
    seed: u64,
    choice: StrategyChoice,
    index: u64,
}

impl CaseKey {
    fn of(cfg: &ScenarioConfig, choice: StrategyChoice, index: u64) -> Self {
        CaseKey {
            node_count: cfg.node_count,
            area_bits: cfg.area_side.to_bits(),
            range_bits: cfg.range.to_bits(),
            a_bits: cfg.a.to_bits(),
            b_bits: cfg.b.to_bits(),
            alpha_bits: cfg.alpha.to_bits(),
            k_bits: cfg.k.to_bits(),
            mean_bits: cfg.mean_flow_bits.to_bits(),
            packet_bits: cfg.packet_bits,
            interval_bits: cfg.packet_interval_secs.to_bits(),
            max_step_bits: cfg.max_step.to_bits(),
            energy: cfg.initial_energy.key(),
            topology: cfg.topology.key(),
            churn: cfg.churn.key(),
            initial_mobility_enabled: cfg.initial_mobility_enabled,
            estimate_bits: cfg.estimate_factor.to_bits(),
            seed: cfg.seed,
            choice,
            index,
        }
    }
}

/// Bounds the case memo; `imobif-experiments all --flows 100` populates a
/// few hundred entries.
const CASE_MEMO_CAP: usize = 8192;

fn case_memo() -> &'static ShardedMemo<CaseKey, CaseResult> {
    static MEMO: OnceLock<ShardedMemo<CaseKey, CaseResult>> = OnceLock::new();
    MEMO.get_or_init(|| ShardedMemo::new(CASE_MEMO_CAP))
}

/// Memo key for a *no-mobility baseline* instance: only the config fields
/// such a run physically depends on. Nothing ever moves and notifications
/// are off under [`MobilityMode::NoMobility`], so the mobility cost `k`,
/// the per-packet movement bound, the estimate factor, the initial mobility
/// status and the strategy choice cannot influence the result — sweep
/// points and figure panels that vary only those knobs share one baseline
/// simulation. The `no_mobility_baseline_ignores_mobility_knobs` test pins
/// this independence; extend the key if the framework ever grows a
/// baseline-visible use of an omitted field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BaselineKey {
    node_count: usize,
    area_bits: u64,
    range_bits: u64,
    a_bits: u64,
    b_bits: u64,
    alpha_bits: u64,
    mean_bits: u64,
    packet_bits: u64,
    interval_bits: u64,
    energy: (u8, u64, u64, u64),
    topology: (u8, u64, u64),
    churn: (u8, u64),
    seed: u64,
    index: u64,
}

impl BaselineKey {
    fn of(cfg: &ScenarioConfig, index: u64) -> Self {
        BaselineKey {
            node_count: cfg.node_count,
            area_bits: cfg.area_side.to_bits(),
            range_bits: cfg.range.to_bits(),
            a_bits: cfg.a.to_bits(),
            b_bits: cfg.b.to_bits(),
            alpha_bits: cfg.alpha.to_bits(),
            mean_bits: cfg.mean_flow_bits.to_bits(),
            packet_bits: cfg.packet_bits,
            interval_bits: cfg.packet_interval_secs.to_bits(),
            energy: cfg.initial_energy.key(),
            topology: cfg.topology.key(),
            churn: cfg.churn.key(),
            seed: cfg.seed,
            index,
        }
    }
}

fn baseline_memo() -> &'static ShardedMemo<BaselineKey, InstanceResult> {
    static MEMO: OnceLock<ShardedMemo<BaselineKey, InstanceResult>> = OnceLock::new();
    MEMO.get_or_init(|| ShardedMemo::new(usize::MAX))
}

/// Process-lifetime memo hit/miss totals. Monotone; [`clear_memos`] empties
/// the memos but never rewinds these.
static CASE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static CASE_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);
static BASELINE_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static BASELINE_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Hit/miss totals for every memo layer in the experiment engine, since
/// process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Whole-case memo hits ([`run_batch`] replays).
    pub case_hits: u64,
    /// Whole-case memo misses (cases actually simulated).
    pub case_misses: u64,
    /// No-mobility baseline memo hits (shared across sweep points).
    pub baseline_hits: u64,
    /// No-mobility baseline memo misses.
    pub baseline_misses: u64,
    /// Topology-draw memo hits (shared across figure variants).
    pub draw_hits: u64,
    /// Topology-draw memo misses (topologies actually drawn and routed).
    pub draw_misses: u64,
}

/// Snapshot of every memo layer's hit/miss totals.
#[must_use]
pub fn memo_stats() -> MemoStats {
    let (draw_hits, draw_misses) = draw_memo_counters();
    MemoStats {
        case_hits: CASE_MEMO_HITS.load(Ordering::Relaxed),
        case_misses: CASE_MEMO_MISSES.load(Ordering::Relaxed),
        baseline_hits: BASELINE_MEMO_HITS.load(Ordering::Relaxed),
        baseline_misses: BASELINE_MEMO_MISSES.load(Ordering::Relaxed),
        draw_hits,
        draw_misses,
    }
}

/// Empties every result memo (per-case results, no-mobility baselines and
/// topology draws).
///
/// Results are deterministic functions of their keys, so the memos never
/// change any output — but benchmarks that claim to measure a cold run must
/// call this first, and tests that claim to recompute call it to mean it.
pub fn clear_memos() {
    case_memo().clear();
    baseline_memo().clear();
    clear_draw_memo();
}

/// `0` means "pick automatically from available parallelism".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides how many worker threads [`run_batches`] spawns; `0` restores
/// the automatic choice. Output is byte-identical at every setting — the
/// integration tests assert figure CSVs match across 1, 4 and 16 threads —
/// so this only trades wall time, never results.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker-thread count the batch engine will use.
#[must_use]
pub fn thread_count() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(4, usize::from).min(16),
        n => n,
    }
}

/// One batch request: a scenario and the strategy to run it under.
pub type BatchSpec = (ScenarioConfig, StrategyChoice);

/// A [`BatchSpec`] resolved for execution: the built strategy object and the
/// single-entry registry the workers share by reference.
type PreparedSpec =
    (ScenarioConfig, StrategyChoice, Arc<dyn MobilityStrategy>, Arc<StrategyRegistry>);

fn run_case_in(
    arena: &mut InstanceArena,
    cfg: &ScenarioConfig,
    choice: StrategyChoice,
    index: u64,
    strategy: &Arc<dyn MobilityStrategy>,
    registry: &Arc<StrategyRegistry>,
) -> CaseResult {
    let key = CaseKey::of(cfg, choice, index);
    let (case, missed) = case_memo().get_or_compute(key, || {
        let obs = crate::obs::registry();
        let t_draw = obs.is_enabled().then(std::time::Instant::now);
        let draw = draw_scenario(cfg, index);
        if let Some(t0) = t_draw {
            obs.float_counter("phase.scenario_draw_secs").add(t0.elapsed().as_secs_f64());
        }
        let (no_mobility, missed) = baseline_memo()
            .get_or_compute(BaselineKey::of(cfg, index), || {
                run_instance_in(arena, cfg, &draw, MobilityMode::NoMobility, strategy, registry)
            });
        count_lookup(missed, &BASELINE_MEMO_HITS, &BASELINE_MEMO_MISSES);
        CaseResult {
            draw_index: index,
            flow_bits: draw.flow.flow_bits,
            path_len: draw.flow.path.len(),
            no_mobility,
            cost_unaware: run_instance_in(
                arena,
                cfg,
                &draw,
                MobilityMode::CostUnaware,
                strategy,
                registry,
            ),
            informed: run_instance_in(
                arena,
                cfg,
                &draw,
                MobilityMode::Informed,
                strategy,
                registry,
            ),
        }
    });
    count_lookup(missed, &CASE_MEMO_HITS, &CASE_MEMO_MISSES);
    case
}

/// Runs several batches — e.g. every panel of a figure, or every point of a
/// parameter sweep — through one deterministic work queue.
///
/// The `specs.len() × n_flows` cases flatten into a single pool that all
/// worker threads drain together, so a slow spec cannot leave cores idle
/// behind a barrier. Each worker recycles one [`InstanceArena`] across every
/// case it claims. Results come back grouped by spec, in spec order, each
/// group index-ordered — byte-identical at any thread count, because every
/// case is a pure function of `(spec, index)` and lands in a pre-assigned
/// slot.
///
/// Cases whose `(config, strategy, index)` already ran this process — a
/// sweep point equal to its figure's baseline, say — are served from the
/// case memo instead of being re-simulated.
#[must_use]
pub fn run_batches(specs: &[BatchSpec], n_flows: u64) -> Vec<Vec<CaseResult>> {
    // Strategy and registry are built once per spec, outside the workers,
    // and shared by reference.
    let prepared: Vec<PreparedSpec> = specs
        .iter()
        .map(|&(cfg, choice)| {
            let strategy = build_strategy(&cfg, choice);
            let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
            (cfg, choice, strategy, registry)
        })
        .collect();
    let total = specs.len() as u64 * n_flows;
    // One pre-allocated slot per case: workers claim flattened indices from
    // the atomic counter and publish into their own slot, so the collection
    // phase is lock-free and the results come out already ordered.
    let slots: Vec<OnceLock<CaseResult>> = (0..total).map(|_| OnceLock::new()).collect();
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..thread_count() {
            scope.spawn(|| {
                let mut arena = InstanceArena::new();
                loop {
                    let item = next.fetch_add(1, Ordering::Relaxed);
                    if item >= total {
                        break;
                    }
                    let (spec_idx, index) = ((item / n_flows) as usize, item % n_flows);
                    let (cfg, choice, strategy, registry) = &prepared[spec_idx];
                    let case = run_case_in(&mut arena, cfg, *choice, index, strategy, registry);
                    slots[item as usize]
                        .set(case)
                        .expect("each flattened index is claimed by exactly one worker");
                }
            });
        }
    });
    let mut out: Vec<Vec<CaseResult>> = Vec::with_capacity(specs.len());
    let mut it = slots.into_iter();
    for _ in 0..specs.len() {
        out.push(
            it.by_ref()
                .take(n_flows as usize)
                .map(|slot| slot.into_inner().expect("every index below total was processed"))
                .collect(),
        );
    }
    out
}

/// Runs `n_flows` random flows, each under all three modes, in parallel.
///
/// Deterministic for a given config: each flow's scenario derives from
/// `(cfg.seed, index)` regardless of thread scheduling.
#[must_use]
pub fn run_batch(cfg: &ScenarioConfig, n_flows: u64, choice: StrategyChoice) -> Vec<CaseResult> {
    run_batches(&[(*cfg, choice)], n_flows).pop().expect("one spec in, one batch out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScenarioConfig {
        ScenarioConfig {
            mean_flow_bits: 2e5, // keep unit tests fast
            ..ScenarioConfig::paper_default()
        }
    }

    #[test]
    fn instance_runs_and_accounts_energy() {
        let cfg = quick_cfg();
        let draw = draw_scenario(&cfg, 0);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let r = run_instance(&cfg, &draw, MobilityMode::NoMobility, &strategy);
        assert!(r.completed, "abundant batteries should complete the flow");
        assert_eq!(r.delivered_bits, draw.flow.flow_bits);
        assert_eq!(r.mobility_energy, 0.0);
        assert!(r.data_energy > 0.0);
        assert!(
            (r.total_energy - (r.data_energy + r.mobility_energy + r.notification_energy)).abs()
                < 1e-9
        );
        assert_eq!(r.final_positions.len(), draw.flow.path.len());
    }

    #[test]
    fn cost_unaware_always_pays_mobility() {
        let cfg = quick_cfg();
        let draw = draw_scenario(&cfg, 1);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let r = run_instance(&cfg, &draw, MobilityMode::CostUnaware, &strategy);
        assert!(r.mobility_energy > 0.0);
    }

    #[test]
    fn batch_is_deterministic_and_sorted() {
        let _g = crate::test_lock();
        let cfg = quick_cfg();
        let a = run_batch(&cfg, 4, StrategyChoice::MinEnergy);
        // Clear the memos so the second run genuinely recomputes every case
        // instead of replaying cached results.
        clear_memos();
        let b = run_batch(&cfg, 4, StrategyChoice::MinEnergy);
        assert_eq!(a, b);
        let idx: Vec<u64> = a.iter().map(|c| c.draw_index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn arena_reuse_matches_fresh_worlds() {
        // The same case computed through one recycled arena three modes in a
        // row must equal the fresh-world-per-instance path bit for bit.
        let cfg = quick_cfg();
        let draw = draw_scenario(&cfg, 2);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
        let mut arena = InstanceArena::new();
        for mode in [MobilityMode::NoMobility, MobilityMode::CostUnaware, MobilityMode::Informed] {
            let reused = run_instance_in(&mut arena, &cfg, &draw, mode, &strategy, &registry);
            let fresh = run_instance(&cfg, &draw, mode, &strategy);
            assert_eq!(reused, fresh, "arena-recycled run diverged under {mode:?}");
        }
    }

    #[test]
    fn run_batches_groups_by_spec_and_matches_run_batch() {
        let a = quick_cfg();
        let b = ScenarioConfig { k: 1.0, ..quick_cfg() };
        let grouped =
            run_batches(&[(a, StrategyChoice::MinEnergy), (b, StrategyChoice::MinEnergy)], 3);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0], run_batch(&a, 3, StrategyChoice::MinEnergy));
        assert_eq!(grouped[1], run_batch(&b, 3, StrategyChoice::MinEnergy));
        // Shared topology, different k: the two specs drew the same paths…
        assert_eq!(grouped[0][0].path_len, grouped[1][0].path_len);
        // …but simulated different physics.
        assert_ne!(
            grouped[0][0].cost_unaware.total_energy,
            grouped[1][0].cost_unaware.total_energy
        );
    }

    #[test]
    fn no_mobility_baseline_ignores_mobility_knobs() {
        // The BaselineKey omission list in one test: a no-mobility run must
        // be bit-identical across every mobility-only config knob and across
        // strategies. If this ever fails, the corresponding field must be
        // added to `BaselineKey`.
        let base = quick_cfg();
        let reference = {
            let draw = draw_scenario(&base, 0);
            let s = build_strategy(&base, StrategyChoice::MinEnergy);
            run_instance(&base, &draw, MobilityMode::NoMobility, &s)
        };
        let variants = [
            ScenarioConfig { k: 2.5, ..base },
            ScenarioConfig { max_step: 0.1, ..base },
            ScenarioConfig { estimate_factor: 3.0, ..base },
            ScenarioConfig { initial_mobility_enabled: true, ..base },
        ];
        for cfg in variants {
            let draw = draw_scenario(&cfg, 0);
            let s = build_strategy(&cfg, StrategyChoice::MinEnergy);
            let r = run_instance(&cfg, &draw, MobilityMode::NoMobility, &s);
            assert_eq!(r, reference, "baseline diverged for {cfg:?}");
        }
        let s = build_strategy(&base, StrategyChoice::MaxLifetime);
        let draw = draw_scenario(&base, 0);
        let r = run_instance(&base, &draw, MobilityMode::NoMobility, &s);
        assert_eq!(r, reference, "baseline diverged across strategies");
    }

    #[test]
    fn metrics_enabled_runs_publish_and_do_not_change_results() {
        let _g = crate::test_lock();
        let cfg = quick_cfg();
        let draw = draw_scenario(&cfg, 3);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let baseline = run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
        let reg = crate::obs::enable_metrics();
        let with_metrics = run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
        crate::obs::disable_metrics();
        // Observability never perturbs physics.
        assert_eq!(baseline, with_metrics);
        let snap = reg.snapshot();
        assert!(snap.counter("queue.pushes").unwrap() > 0);
        assert!(snap.counter("kernel.events_processed").unwrap() > 0);
        assert!(snap.counter("packets.delivered").unwrap() > 0);
        let cache_total = snap.counter("imobif.decision_cache.hits").unwrap()
            + snap.counter("imobif.decision_cache.misses").unwrap();
        assert!(cache_total > 0, "informed runs must exercise the decision cache");
        assert!(snap.float("energy.data_joules").unwrap() > 0.0);
        assert!(snap.float("phase.case_run_secs").unwrap() > 0.0);
        assert!(snap.float("phase.arena_reset_secs").unwrap() > 0.0);
    }

    #[test]
    fn memo_stats_accumulate_hits_and_misses() {
        let _g = crate::test_lock();
        let cfg = ScenarioConfig { seed: 4242, ..quick_cfg() };
        clear_memos();
        let before = memo_stats();
        let first = run_batch(&cfg, 2, StrategyChoice::MinEnergy);
        let mid = memo_stats();
        assert!(mid.case_misses >= before.case_misses + 2);
        assert!(mid.draw_misses >= before.draw_misses + 2);
        let again = run_batch(&cfg, 2, StrategyChoice::MinEnergy);
        let after = memo_stats();
        assert_eq!(first, again);
        assert!(after.case_hits >= mid.case_hits + 2, "replay must hit the case memo");
    }

    #[test]
    fn case_memo_serves_repeat_requests() {
        let _g = crate::test_lock();
        let cfg = ScenarioConfig { seed: 77, ..quick_cfg() };
        clear_memos();
        let first = run_batch(&cfg, 2, StrategyChoice::MinEnergy);
        let again = run_batch(&cfg, 2, StrategyChoice::MinEnergy);
        assert_eq!(first, again);
    }

    #[test]
    fn churn_kills_relays_deterministically() {
        // A tight failure schedule kills a relay long before the flow
        // finishes; the run must record the death, and two runs of the same
        // instance must agree bit-for-bit (the schedule rng is seeded from
        // the draw, not from wall state).
        let cfg = ScenarioConfig {
            churn: ChurnModel::RelayExponential { mean_secs: 5.0 },
            ..quick_cfg()
        };
        let draw = draw_scenario(&cfg, 0);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let a = run_instance(&cfg, &draw, MobilityMode::NoMobility, &strategy);
        let b = run_instance(&cfg, &draw, MobilityMode::NoMobility, &strategy);
        assert_eq!(a, b);
        assert!(a.node_died, "5 s mean relay lifetime must end a {} bit flow", a.flow_bits);
        assert!(a.lifetime_secs > 0.0);
        // The no-churn run of the same draw survives — and must NOT be
        // served from the churned run's memo slot (churn is in the keys).
        let calm = quick_cfg();
        let r = run_instance(&calm, &draw_scenario(&calm, 0), MobilityMode::NoMobility, &strategy);
        assert!(!r.node_died);
    }

    #[test]
    fn churned_batches_replay_from_memo_without_aliasing() {
        let _g = crate::test_lock();
        let churned = ScenarioConfig {
            seed: 909,
            churn: ChurnModel::RelayExponential { mean_secs: 30.0 },
            ..quick_cfg()
        };
        let calm = ScenarioConfig { seed: 909, ..quick_cfg() };
        clear_memos();
        let a = run_batch(&churned, 2, StrategyChoice::MinEnergy);
        let b = run_batch(&calm, 2, StrategyChoice::MinEnergy);
        assert_ne!(a, b, "churn must change outcomes, not alias the memo");
        assert_eq!(a, run_batch(&churned, 2, StrategyChoice::MinEnergy));
    }

    #[test]
    fn lifetime_runs_record_deaths() {
        let cfg = ScenarioConfig { mean_flow_bits: 8e6, ..ScenarioConfig::paper_lifetime() };
        let strategy = build_strategy(&cfg, StrategyChoice::MaxLifetime);
        // Find a draw where the baseline dies (most do, by design).
        let mut found = false;
        for i in 0..8 {
            let draw = draw_scenario(&cfg, i);
            let r = run_instance(&cfg, &draw, MobilityMode::NoMobility, &strategy);
            if r.node_died {
                assert!(!r.completed);
                assert!(r.lifetime_secs > 0.0);
                found = true;
                break;
            }
        }
        assert!(found, "low-energy scenarios should produce deaths");
    }
}
