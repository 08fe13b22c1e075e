//! Observability equivalence: the metrics layer must never change physics.
//!
//! Instance results and recorded traces are bit-identical whether the
//! engine-wide registry is the default disabled one or a live one, and a
//! live registry captures the promised metric families (event queue,
//! decision cache, per-category energy). The allocation side of the
//! zero-cost claim is gated in `crates/bench/tests/fig6_allocs.rs`
//! (steady-state allocs must be exactly 0 with the kernel counters
//! compiled in).

use std::sync::Mutex;

use imobif::MobilityMode;
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::obs;
use imobif_experiments::runner::{build_strategy, run_instance, StrategyChoice};
use imobif_experiments::topology::draw_scenario;
use imobif_experiments::trace_tools::record_case;
use imobif_obs::{PhaseTimer, RunManifest, TraceHealth};

/// Serializes tests that swap the process-wide registry slot.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn quick_cfg() -> ScenarioConfig {
    ScenarioConfig { mean_flow_bits: 2e5, ..ScenarioConfig::paper_default() }
}

#[test]
fn instance_results_bit_identical_across_registry_states() {
    let _g = guard();
    let cfg = quick_cfg();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    for mode in [MobilityMode::NoMobility, MobilityMode::CostUnaware, MobilityMode::Informed] {
        let draw = draw_scenario(&cfg, 5);
        obs::disable_metrics();
        let disabled = run_instance(&cfg, &draw, mode, &strategy);
        let _reg = obs::enable_metrics();
        let enabled = run_instance(&cfg, &draw, mode, &strategy);
        obs::disable_metrics();
        assert_eq!(disabled, enabled, "metrics changed the result under {mode:?}");
    }
}

#[test]
fn traces_bit_identical_across_registry_states() {
    let _g = guard();
    let cfg = quick_cfg();
    obs::disable_metrics();
    let (r1, t1) = record_case(&cfg, 6, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
    let _reg = obs::enable_metrics();
    let (r2, t2) = record_case(&cfg, 6, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
    obs::disable_metrics();
    assert_eq!(r1, r2);
    assert_eq!(t1, t2, "metrics changed the kernel trace");
}

#[test]
fn live_registry_captures_the_promised_families() {
    let _g = guard();
    let cfg = quick_cfg();
    let draw = draw_scenario(&cfg, 7);
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let reg = obs::enable_metrics();
    let result = run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
    obs::publish_memo_metrics(&reg);
    obs::disable_metrics();
    assert!(result.completed);
    let snap = reg.snapshot();
    // Event queue.
    assert!(snap.counter("queue.pushes").unwrap() > 0);
    assert!(snap.counter("queue.pops").unwrap() > 0);
    // Decision cache (PR 1's per-node counters, summed through the registry).
    let cache = snap.counter("imobif.decision_cache.hits").unwrap()
        + snap.counter("imobif.decision_cache.misses").unwrap();
    assert!(cache > 0, "informed runs must exercise the decision cache");
    // Per-category energy.
    assert!(snap.float("energy.data_joules").unwrap() > 0.0);
    assert!(snap.float("energy.mobility_joules").unwrap() >= 0.0);
    // Memo layer gauges exist after an explicit publish.
    assert!(snap.get("memo.draw.misses").is_some());
    // Engine self-profiling.
    assert!(snap.float("phase.case_run_secs").unwrap() > 0.0);
}

#[test]
fn manifest_round_trips_a_live_run() {
    let _g = guard();
    let cfg = quick_cfg();
    let draw = draw_scenario(&cfg, 8);
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let reg = obs::enable_metrics();
    let mut timer = PhaseTimer::new();
    timer.start("case");
    let _ = run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
    obs::disable_metrics();
    let manifest = RunManifest {
        tool: "obs_equivalence".to_string(),
        targets: vec!["test".to_string()],
        config_hash: imobif_obs::fnv1a64(b"obs_equivalence"),
        seed: cfg.seed,
        flows: 1,
        threads: 1,
        phases: timer.into_phases(),
        trace: TraceHealth::default(),
        scenario: None,
        metrics: reg.snapshot(),
    };
    let text = manifest.render();
    let parsed = RunManifest::validate(&text).expect("rendered manifest must validate");
    assert_eq!(parsed, manifest, "manifest JSON round trip must be lossless");
    assert!(parsed.metrics.counter("queue.pushes").unwrap() > 0);
}
