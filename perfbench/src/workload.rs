//! The four workloads, their rounds, and the timing protocol around them.
//!
//! Every workload is a closed-loop batch: a round runs to completion before
//! the next starts, and begins with its set-up (batch: the round's specs
//! parsed and compiled; arenas: the world built), timed apart from the
//! run. A run is one discarded warm-up round, the measured rounds
//! (registry disabled, spans off, the clock read only at round, figure and
//! phase boundaries), then — when traced — three rounds with the engine's
//! metrics registry on, followed by the layer microbenchmarks of
//! [`crate::layers`]. Every round's output fingerprint is checked against
//! the pins, or against the warm-up round at an unpinned seed.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use imobif::ImobifApp;
use imobif_bench::alloc_track;
use imobif_bench::instances::{build_scale_arena, build_sharded_arena, Variant};
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::figures::{ext, fig5, fig6, fig7, fig8};
use imobif_experiments::runner::{clear_memos, memo_stats, set_thread_count, MemoStats};
use imobif_experiments::scenario::{builtin, run_generic, CompiledScenario, ScenarioSpec};
use imobif_geom::Point2;
use imobif_netsim::{NodeEnergy, NodeId, SimTime, DEFAULT_SPAN_CAPACITY};
use imobif_obs::span::phase;
use imobif_obs::{fnv1a64, Registry, Snapshot};

use crate::layers::{self, LayerInputs};
use crate::reference;
use crate::spans::Spans;
use crate::stats::ratio;

/// The non-paper builtin scenario families `scenario_families` runs.
pub const FAMILIES: [&str; 4] = ["churn", "clustered_urban", "hetero_batteries", "small_world"];

/// Worker threads for the batch workloads: pinned, never automatic, so a
/// result does not depend on the host's core count.
pub const BATCH_THREADS: usize = 2;

/// Spatial shards of the 100k-node arena.
const ARENA_100K_SHARDS: usize = 64;

/// Traced rounds per workload.
const TRACED_ROUNDS: usize = 3;

/// Fewest measured rounds a time-budgeted run takes.
const MIN_ROUNDS: usize = 3;

/// Spec parses and compilations per batch set-up: one takes well under a
/// millisecond, too short to time alone.
const COMPILES_PER_SETUP: usize = 500;

/// Epoch phases, and the gauge each one's share of the run becomes.
const SHARD_PHASES: [(&str, &str); 5] = [
    (phase::SCHED, "shard.sched_share"),
    (phase::COMPUTE, "shard.compute_share"),
    (phase::XFER_MERGE, "shard.xfer_merge_share"),
    (phase::OBS_APPLY, "shard.obs_apply_share"),
    (phase::REPLICA_SYNC, "shard.replica_sync_share"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's full reproduction: Figs. 5–8 and the extension studies.
    ReproAll,
    /// The four non-paper scenario families.
    ScenarioFamilies,
    /// The 100k-node arena on the sharded epoch engine.
    Arena100k,
    /// The 5k-node arena on the serial kernel.
    Arena5kSerial,
}

/// How big a workload runs. Batch workloads read `flows`; arenas read
/// `nodes`, `flows` (concurrent flows) and `sim_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Flows per figure panel or spec run (batch), or concurrent flows
    /// (arenas).
    pub flows: u64,
    /// Arena nodes.
    pub nodes: usize,
    /// Simulated seconds per arena round.
    pub sim_secs: u64,
    /// Measured rounds of a fixed-round run.
    pub rounds: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproAll,
        Workload::ScenarioFamilies,
        Workload::Arena100k,
        Workload::Arena5kSerial,
    ];

    /// The workload's name, as printed and as `--workload` takes it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::ScenarioFamilies => "scenario_families",
            Workload::Arena100k => "arena_100k",
            Workload::Arena5kSerial => "arena_5k_serial",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the two workloads that run through the batch engine.
    #[must_use]
    pub fn is_batch(self) -> bool {
        matches!(self, Workload::ReproAll | Workload::ScenarioFamilies)
    }

    /// The full size, or the reduced `--smoke` size.
    #[must_use]
    pub fn size(self, smoke: bool) -> Size {
        let pick = |full, small| if smoke { small } else { full };
        let rounds = |full: usize| if smoke { 3 } else { full };
        match self {
            Workload::ReproAll => {
                Size { flows: pick(100, 8), nodes: 0, sim_secs: 0, rounds: rounds(6) }
            }
            Workload::ScenarioFamilies => {
                Size { flows: pick(400, 40), nodes: 0, sim_secs: 0, rounds: rounds(8) }
            }
            Workload::Arena100k => {
                Size { flows: 64, nodes: 100_000, sim_secs: pick(5, 1), rounds: rounds(5) }
            }
            Workload::Arena5kSerial => {
                Size { flows: 16, nodes: 5_000, sim_secs: pick(60, 10), rounds: rounds(8) }
            }
        }
    }

    fn index(self) -> u32 {
        Workload::ALL.iter().position(|&w| w == self).expect("listed") as u32
    }
}

/// How many measured rounds a run takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many.
    Rounds(usize),
    /// Rounds until this many seconds have passed, and at least three.
    Seconds(f64),
}

/// Fingerprint parts: `(part name, FNV-1a 64 of its output)`.
pub type Fingerprint = Vec<(String, u64)>;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Workload size.
    pub size: Size,
    /// Measured-round budget.
    pub budget: Budget,
    /// Run the traced rounds and the layer microbenchmarks.
    pub traced: bool,
    /// Expected fingerprint of every round; `None` means "equal to the
    /// warm-up round".
    pub pins: Option<Fingerprint>,
}

/// One round's observations.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Output fingerprint.
    pub fingerprint: Fingerprint,
    /// Set-up seconds at the start of the round.
    pub setup_s: Option<f64>,
    /// Seconds of the run phase (the whole round for batch workloads).
    pub wall_s: f64,
    /// Seconds of the reference job, averaged over its runs just before
    /// and just after the round: the host's speed while the round ran.
    pub ref_s: f64,
    /// Work done: packet deliveries (batch) or simulated seconds (arenas).
    pub work: f64,
    /// Seconds per figure or spec call (batch).
    pub calls: Vec<(&'static str, f64)>,
    /// Memo hits and misses during the round (batch).
    pub memo: MemoStats,
    /// Heap allocations during the run phase.
    pub allocs: u64,
    /// Live-heap high-water mark during the run phase, in bytes (above the
    /// heap live before the workload's set-up, once the run has set it).
    pub peak_bytes: usize,
    /// Per-layer values read from the registry of a traced round.
    pub layer: Vec<(&'static str, f64)>,
    /// Events one event queue held (traced): the queue microbenchmark's
    /// hold size.
    pub hold_len: usize,
    /// Allocations per delivered packet over a window after a traced
    /// arena run.
    pub steady: Option<f64>,
}

/// Everything one workload run observed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Rounds run, warm-up and traced rounds included.
    pub attempted: u64,
    /// Rounds that panicked or whose fingerprint differed.
    pub failed: u64,
    /// The first completed round's fingerprint.
    pub fingerprint: Fingerprint,
    /// Whether rounds were checked against pins (not just each other).
    pub pinned: bool,
    /// Set-up samples, seconds.
    pub setup: Vec<f64>,
    /// Passing measured rounds.
    pub rounds: Vec<Round>,
    /// Passing traced rounds.
    pub traced: Vec<Round>,
    /// Microbenchmark samples per per-layer metric.
    pub layers: Vec<(&'static str, Vec<f64>)>,
}

/// Runs `workload` under `opts`, recording spans into `spans`.
pub fn run(workload: Workload, opts: &RunOpts, spans: &mut Spans) -> Outcome {
    imobif_experiments::obs::disable_metrics();
    if workload.is_batch() {
        set_thread_count(BATCH_THREADS);
    }
    let mut out = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        fingerprint: Vec::new(),
        pinned: opts.pins.is_some(),
        setup: Vec::new(),
        rounds: Vec::new(),
        traced: Vec::new(),
        layers: Vec::new(),
    };
    spans.at(workload.index(), 0);
    // The reference job's table is allocated before the heap baseline, so
    // `peak_heap_mb` counts only what the workload holds.
    let mut ref_before = spans.time("reference", reference::seconds).0;
    let heap_base = alloc_track::snapshot().current_bytes;

    let mut expect = opts.pins.clone();
    let mut round_no = 0u64;
    let mut attempt = |out: &mut Outcome, traced: bool, spans: &mut Spans| -> Option<Round> {
        spans.at(workload.index(), round_no);
        round_no += 1;
        out.attempted += 1;
        let start = spans.start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            round(workload, opts.size, opts.seed, traced, &mut *spans)
        }));
        spans.end(if traced { "round.traced" } else { "round" }, start);
        imobif_experiments::obs::disable_metrics();
        let ref_after = spans.time("reference", reference::seconds).0;
        let ref_s = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        let Ok(mut r) = result else {
            out.failed += 1;
            return None;
        };
        r.ref_s = ref_s;
        if out.fingerprint.is_empty() {
            out.fingerprint = r.fingerprint.clone();
        }
        if r.fingerprint == *expect.get_or_insert_with(|| r.fingerprint.clone()) {
            Some(r)
        } else {
            out.failed += 1;
            None
        }
    };

    // Warm-up: discarded, but its output is checked like any other round.
    // A batch warm-up runs with the registry on to count the round's
    // packet deliveries, its unit of work.
    let warm = attempt(&mut out, workload.is_batch(), spans);
    let work = if workload.is_batch() {
        warm.as_ref().and_then(|r| lookup(&r.layer, "kernel.packets_delivered")).unwrap_or(0.0)
    } else {
        opts.size.sim_secs as f64
    };
    let t0 = Instant::now();
    let mut measured = 0;
    while match opts.budget {
        Budget::Rounds(n) => measured < n,
        Budget::Seconds(s) => measured < MIN_ROUNDS || t0.elapsed().as_secs_f64() < s,
    } {
        measured += 1;
        if let Some(mut r) = attempt(&mut out, false, spans) {
            r.work = work;
            r.peak_bytes = r.peak_bytes.saturating_sub(heap_base);
            out.setup.extend(r.setup_s);
            out.rounds.push(r);
        }
    }
    if opts.traced {
        for _ in 0..TRACED_ROUNDS {
            if let Some(r) = attempt(&mut out, true, spans) {
                out.traced.push(r);
            }
        }
        let hold_len = out.traced.iter().map(|r| r.hold_len).max().unwrap_or(1);
        let inputs = layer_inputs(workload, opts.size, opts.seed, hold_len);
        out.layers = layers::run_all(&inputs, spans);
        // `scenario_families` has no steady state to measure: its flows are
        // short and per-case set-up dominates. It reads 0, like a layer a
        // workload's engine does not run.
        let steady = match workload {
            Workload::ReproAll => {
                vec![spans.time("layer.steady", layers::steady_allocs_per_packet).0]
            }
            Workload::ScenarioFamilies => vec![0.0],
            Workload::Arena100k | Workload::Arena5kSerial => {
                out.traced.iter().filter_map(|r| r.steady).collect()
            }
        };
        out.layers.push(("alloc.steady_per_packet", steady));
    }
    clear_memos();
    out
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// One round of `workload`; traced rounds also read per-layer values.
fn round(workload: Workload, size: Size, seed: u64, traced: bool, spans: &mut Spans) -> Round {
    let registry = if traced {
        imobif_experiments::obs::enable_metrics()
    } else {
        Arc::new(Registry::disabled())
    };
    let mut r = if workload.is_batch() {
        batch_round(workload, size, seed, spans)
    } else {
        arena_round(workload, size, seed, traced, &registry, spans)
    };
    if traced {
        let snap = registry.snapshot();
        let threads = if workload.is_batch() { BATCH_THREADS } else { 1 };
        r.layer = traced_values(&snap, r.wall_s, threads);
        let hold = snap.float("bench.hold_len").or_else(|| snap.float("queue.max_len"));
        r.hold_len = (hold.unwrap_or(1.0) as usize).max(1);
    }
    r
}

/// The per-layer values a traced round's registry holds. A family the
/// workload's engine does not publish reads as 0.
fn traced_values(s: &Snapshot, wall_s: f64, threads: usize) -> Vec<(&'static str, f64)> {
    let c = |name: &str| s.counter(name).unwrap_or(0) as f64;
    let f = |name: &str| s.float(name).unwrap_or(0.0);
    let hits = c("imobif.decision_cache.hits");
    let cpu = wall_s * threads as f64;
    let mut v = vec![
        ("queue.overflow_share", ratio(c("queue.overflow_pushes"), c("queue.pushes"))),
        ("queue.slides_per_pop", ratio(c("queue.window_slides"), c("queue.pops"))),
        ("decision.cache_hit_ratio", ratio(hits, hits + c("imobif.decision_cache.misses"))),
        ("kernel.events", c("kernel.events_processed")),
        ("kernel.packets_delivered", c("packets.delivered")),
        ("shard.epochs", c("shard.epochs")),
        ("shard.mean_active_shards", ratio(c("shard.shard_epochs"), c("shard.epochs"))),
        ("shard.idle_shard_epochs_skipped", c("shard.idle_shard_epochs_skipped")),
        ("shard.fast_forward_epochs", c("shard.fast_forward.epochs")),
        ("shard.delivers_merged", c("shard.xfer.delivers_merged")),
        ("shard.observations_applied", c("shard.xfer.observations_applied")),
        ("shard.replica_patches", c("shard.xfer.replica_patches")),
        ("runner.case_run_cpu_share", ratio(f("phase.case_run_secs"), cpu)),
        ("runner.arena_reset_cpu_share", ratio(f("phase.arena_reset_secs"), cpu)),
        ("runner.scenario_draw_cpu_share", ratio(f("phase.scenario_draw_secs"), cpu)),
    ];
    v.extend(SHARD_PHASES.map(|(_, name)| (name, f(name))));
    v
}

/// A batch round: the set-up (the round's specs parsed and compiled), then
/// from cold memos the workload's figure or spec calls, each timed and
/// fingerprinted.
fn batch_round(workload: Workload, size: Size, seed: u64, spans: &mut Spans) -> Round {
    let sources: Vec<(String, u64)> = batch_specs(workload, size)
        .into_iter()
        .map(|(name, flows)| (builtin(name).expect("shipped builtin").to_toml(), flows))
        .collect();
    let (compiled, setup_s) = spans.time("setup", || batch_setup(&sources, seed));
    let mut r = Round { setup_s: Some(setup_s / COMPILES_PER_SETUP as f64), ..Round::default() };
    clear_memos();
    let memo0 = memo_stats();
    alloc_track::reset_peak();
    let allocs0 = alloc_track::snapshot().allocs;
    let t0 = Instant::now();
    let mut call = |name: &'static str, f: &mut dyn FnMut() -> String| {
        let (text, secs) = spans.time(name, f);
        r.calls.push((name, secs));
        r.fingerprint.push((name.to_string(), fnv1a64(text.as_bytes())));
    };
    if workload == Workload::ReproAll {
        let n = size.flows;
        call("fig5", &mut || fig5::run(seed).to_csv());
        call("fig6", &mut || fig6::run(n, seed).to_csv());
        call("fig7", &mut || fig7::run(n, seed).to_csv());
        call("fig8", &mut || fig8::run(n, seed).to_csv());
        // `imobif all` runs the extension studies at a quarter of the
        // figure flows; their tables are fingerprinted together.
        let m = ext_flows(n);
        call("ext", &mut || {
            [
                ext::run_estimate_sensitivity(m, seed).to_markdown(),
                ext::run_oracle_comparison(m, seed).to_markdown(),
                ext::run_initial_status(m, seed).to_markdown(),
                ext::run_step_sweep(m, seed).to_markdown(),
                ext::run_relay_selection(m, seed).to_markdown(),
                ext::run_horizon_ablation(m, seed).to_markdown(),
                ext::run_hybrid_sweep(m, seed).to_markdown(),
                ext::run_multiflow(8, seed).to_markdown(),
            ]
            .concat()
        });
    } else {
        for (name, spec) in FAMILIES.into_iter().zip(&compiled) {
            call(name, &mut || run_generic(spec).to_csv());
        }
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    r.allocs = alloc_track::snapshot().allocs - allocs0;
    r.peak_bytes = alloc_track::snapshot().peak_bytes;
    let memo1 = memo_stats();
    r.memo = MemoStats {
        case_hits: memo1.case_hits - memo0.case_hits,
        case_misses: memo1.case_misses - memo0.case_misses,
        baseline_hits: memo1.baseline_hits - memo0.baseline_hits,
        baseline_misses: memo1.baseline_misses - memo0.baseline_misses,
        draw_hits: memo1.draw_hits - memo0.draw_hits,
        draw_misses: memo1.draw_misses - memo0.draw_misses,
    };
    r
}

/// Flows per extension study, as `imobif all` derives them.
fn ext_flows(n: u64) -> u64 {
    n.div_ceil(4).max(4)
}

fn compile(spec: &ScenarioSpec, seed: u64, flows: u64) -> CompiledScenario {
    spec.compile_with(Some(seed), Some(flows)).expect("shipped spec is valid")
}

/// The specs a batch workload's round runs, in call order, with the flows
/// each runs at.
fn batch_specs(workload: Workload, size: Size) -> Vec<(&'static str, u64)> {
    if workload == Workload::ReproAll {
        let n = size.flows;
        // Fig. 5 draws one topology.
        vec![("fig5", 1), ("fig6", n), ("fig7", n), ("fig8", n), ("ext", ext_flows(n))]
    } else {
        FAMILIES.iter().map(|&name| (name, size.flows)).collect()
    }
}

/// Every config a batch workload's round runs, in call order.
fn batch_configs(workload: Workload, size: Size, seed: u64) -> Vec<ScenarioConfig> {
    batch_specs(workload, size)
        .into_iter()
        .flat_map(|(name, flows)| {
            compile(builtin(name).expect("shipped builtin"), seed, flows).runs
        })
        .map(|run| run.config)
        .collect()
}

/// Batch set-up, [`COMPILES_PER_SETUP`] times: parsing each of the round's
/// specs from its TOML text (`sources`: text and flows) and compiling it.
/// Returns the last pass's compiled specs.
fn batch_setup(sources: &[(String, u64)], seed: u64) -> Vec<CompiledScenario> {
    let pass = || -> Vec<CompiledScenario> {
        sources
            .iter()
            .map(|(text, flows)| {
                compile(&ScenarioSpec::parse(text).expect("canonical TOML parses"), seed, *flows)
            })
            .collect()
    };
    for _ in 1..COMPILES_PER_SETUP {
        black_box(pass());
    }
    pass()
}

/// The scenario config of an arena, scaled as the arena builders scale it:
/// the paper's node density on a larger square.
fn arena_config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        node_count: nodes,
        area_side: 150.0 * (nodes as f64 / 100.0).sqrt(),
        seed,
        ..ScenarioConfig::paper_default()
    }
}

/// An arena round: the world build (the round's set-up), then
/// `size.sim_secs` simulated seconds on one thread.
fn arena_round(
    workload: Workload,
    size: Size,
    seed: u64,
    traced: bool,
    registry: &Registry,
    spans: &mut Spans,
) -> Round {
    let (nodes, flows) = (size.nodes, size.flows as usize);
    let deadline = SimTime::from_micros(size.sim_secs * 1_000_000);
    // Steady state: a further fifth of the run, after the measured window
    // warmed the world.
    let window = SimTime::from_micros((size.sim_secs + (size.sim_secs / 5).max(1)) * 1_000_000);
    if workload == Workload::Arena100k {
        let (mut run, setup_s) = spans
            .time("build", || build_sharded_arena(nodes, flows, ARENA_100K_SHARDS, seed, false));
        run.world.set_threads(1);
        if traced {
            run.world.enable_spans(DEFAULT_SPAN_CAPACITY);
        }
        let mut r = timed_run(setup_s, spans, || run.world.run_until(deadline));
        let delivered = run.delivered_packets();
        let w = &run.world;
        r.fingerprint = summary_fingerprint(
            [delivered, w.packets_sent(), w.packets_delivered(), w.packets_dropped()],
            w.events_processed(),
            w.totals(),
            w.first_death(),
        );
        if traced {
            w.publish_metrics(registry);
            publish_cache_counters(registry, w.node_count(), |id| w.app(id));
            registry.counter("kernel.events_processed").add(w.events_processed());
            registry.counter("packets.delivered").add(w.packets_delivered());
            registry.gauge("bench.hold_len").set((w.pending_events() / w.shard_count()) as f64);
            if let Some(sink) = w.spans() {
                for (p, name) in SHARD_PHASES {
                    registry.gauge(name).set(sink.total_secs(p) / r.wall_s);
                }
            }
            let allocs0 = alloc_track::snapshot().allocs;
            run.world.run_until(window);
            r.steady = Some(per_packet(allocs0, run.delivered_packets() - delivered));
        }
        r
    } else {
        let (mut run, setup_s) =
            spans.time("build", || build_scale_arena(nodes, flows, Variant::after(), seed));
        let mut r = timed_run(setup_s, spans, || run.world.run_until(deadline));
        let delivered = run.delivered_packets();
        let w = &run.world;
        let ledger = w.ledger();
        r.fingerprint = summary_fingerprint(
            [delivered, ledger.packets_sent, ledger.packets_delivered, ledger.packets_dropped],
            w.events_processed(),
            ledger.totals(),
            ledger.first_death(),
        );
        if traced {
            w.publish_metrics(registry);
            publish_cache_counters(registry, w.node_count(), |id| w.app(id));
            let allocs0 = alloc_track::snapshot().allocs;
            run.world.run_until(window);
            r.steady = Some(per_packet(allocs0, run.delivered_packets() - delivered));
        }
        r
    }
}

/// Runs an arena's measured phase: its time, heap high-water mark and
/// allocations.
fn timed_run(setup_s: f64, spans: &mut Spans, run: impl FnOnce()) -> Round {
    alloc_track::reset_peak();
    let allocs0 = alloc_track::snapshot().allocs;
    let (_, wall_s) = spans.time("run", run);
    Round {
        setup_s: Some(setup_s),
        wall_s,
        allocs: alloc_track::snapshot().allocs - allocs0,
        peak_bytes: alloc_track::snapshot().peak_bytes,
        ..Round::default()
    }
}

/// Allocations since `allocs0`, per delivered packet.
fn per_packet(allocs0: u64, packets: u64) -> f64 {
    (alloc_track::snapshot().allocs - allocs0) as f64 / packets.max(1) as f64
}

/// The fingerprint of an arena run: the FNV-1a 64 of its summary line, in
/// the format of the older scaling runner's sharded points. `packets` is
/// payload packets delivered, then packets sent, received (payload and
/// control) and dropped; the energy totals enter as exact bits.
fn summary_fingerprint(
    packets: [u64; 4],
    events: u64,
    totals: NodeEnergy,
    first_death: Option<(NodeId, SimTime)>,
) -> Fingerprint {
    let [delivered, sent, received, dropped] = packets;
    let line = format!(
        "{delivered},{sent},{received},{dropped},{events},{:016x},{:016x},{:016x},{:016x},{first_death:?}",
        totals.data.to_bits(),
        totals.mobility.to_bits(),
        totals.hello.to_bits(),
        totals.notification.to_bits(),
    );
    vec![("summary".into(), fnv1a64(line.as_bytes()))]
}

/// Publishes the decision-cache counters, summed over every node's app.
fn publish_cache_counters<'a>(
    registry: &Registry,
    nodes: usize,
    app: impl Fn(NodeId) -> &'a ImobifApp,
) {
    let (mut hits, mut misses) = (0, 0);
    for id in (0..nodes as u32).map(NodeId::new) {
        hits += app(id).counters().cache_hits;
        misses += app(id).counters().cache_misses;
    }
    registry.counter("imobif.decision_cache.hits").add(hits);
    registry.counter("imobif.decision_cache.misses").add(misses);
}

/// The workload's own data for the layer microbenchmarks.
fn layer_inputs(workload: Workload, size: Size, seed: u64, hold_len: usize) -> LayerInputs {
    if workload.is_batch() {
        return LayerInputs::from_draws(&batch_configs(workload, size, seed), hold_len);
    }
    // The arena's node positions, read from a freshly built world.
    let (nodes, flows) = (size.nodes, size.flows as usize);
    let positions: Vec<Point2> = if workload == Workload::Arena100k {
        let run = build_sharded_arena(nodes, flows, ARENA_100K_SHARDS, seed, false);
        (0..nodes as u32).map(|i| run.world.position(NodeId::new(i))).collect()
    } else {
        let run = build_scale_arena(nodes, flows, Variant::after(), seed);
        (0..nodes as u32).map(|i| run.world.position(NodeId::new(i))).collect()
    };
    LayerInputs::from_arena(arena_config(nodes, seed), positions, hold_len)
}
