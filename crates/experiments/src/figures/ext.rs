//! Extension experiments beyond the paper's figures: the paper's stated
//! future work and the ablations DESIGN.md calls out.

use serde::{Deserialize, Serialize};

use imobif::{oracle_decision, relay_selection::plan_relays};
use imobif_netsim::TopologyView;

use crate::config::ScenarioConfig;
use crate::metrics::Summary;
use crate::report::{fmt2, fmt4, fmt_bytes, markdown_table};
use crate::runner::{run_batch, run_batches, BatchSpec, StrategyChoice};
use crate::scenario::ExtParams;
use crate::topology::draw_scenario;

/// `ext_estimate`: sensitivity to inaccurate flow-length estimates (paper
/// §5 future work: "we will study the impact of inaccurate estimates of
/// flow length on the energy performance of the framework").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateSensitivity {
    /// `(estimate factor, informed avg energy ratio)` rows.
    pub rows: Vec<(f64, f64)>,
}

/// Runs the estimate-error sweep with the paper's sweep points.
#[must_use]
pub fn run_estimate_sensitivity(n_flows: u64, seed: u64) -> EstimateSensitivity {
    run_estimate_sensitivity_with(&ExtParams::paper(), n_flows, seed)
}

/// Runs the estimate-error sweep on the Fig. 6(c) setting over
/// `params.estimate_factors`. The sweep points flatten into one
/// [`run_batches`] pool so they run concurrently.
#[must_use]
pub fn run_estimate_sensitivity_with(
    params: &ExtParams,
    n_flows: u64,
    seed: u64,
) -> EstimateSensitivity {
    let factors = &params.estimate_factors;
    let specs: Vec<BatchSpec> = factors
        .iter()
        .map(|&factor| {
            let cfg =
                ScenarioConfig { estimate_factor: factor, seed, ..ScenarioConfig::paper_default() };
            (cfg, StrategyChoice::MinEnergy)
        })
        .collect();
    let rows = factors
        .iter()
        .zip(run_batches(&specs, n_flows))
        .map(|(&factor, cases)| {
            let ratios: Vec<f64> = cases.iter().map(|c| c.informed_energy_ratio()).collect();
            (factor, Summary::of(&ratios).expect("non-empty").mean)
        })
        .collect();
    EstimateSensitivity { rows }
}

impl EstimateSensitivity {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|&(f, r)| vec![fmt2(f), fmt4(r)]).collect();
        format!(
            "### ext_estimate — flow-length estimate error (Fig. 6(c) setting)\n\n{}",
            markdown_table(&["estimate factor", "imobif avg energy ratio"], &rows)
        )
    }
}

/// `ext_oracle`: the distributed iMobif decision versus the
/// global-information threshold of Goldenberg et al. \[6\].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleComparison {
    /// Flows where oracle and iMobif agree on whether mobility ever helps.
    pub agreement: f64,
    /// Average energy ratio if flows followed the oracle (cost-unaware
    /// when it says move, baseline otherwise).
    pub oracle_avg_ratio: f64,
    /// Average iMobif energy ratio on the same flows.
    pub informed_avg_ratio: f64,
    /// Sample size.
    pub flows: usize,
}

/// Runs the oracle comparison on the Fig. 6(c) setting.
#[must_use]
pub fn run_oracle_comparison(n_flows: u64, seed: u64) -> OracleComparison {
    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_default() };
    let tx = cfg.tx_model().expect("valid");
    let mv = cfg.mobility_model().expect("valid");
    let cases = run_batch(&cfg, n_flows, StrategyChoice::MinEnergy);
    let mut agree = 0usize;
    let mut oracle_ratios = Vec::new();
    let mut informed_ratios = Vec::new();
    for case in &cases {
        let draw = draw_scenario(&cfg, case.draw_index);
        let path_positions: Vec<_> =
            draw.flow.path.iter().map(|&n| draw.positions[n.index()]).collect();
        let verdict = oracle_decision(&path_positions, &tx, &mv, case.flow_bits as f64)
            .expect("routed paths are non-degenerate");
        let oracle_energy = if verdict.enable_mobility {
            case.cost_unaware.total_energy
        } else {
            case.no_mobility.total_energy
        };
        oracle_ratios.push(oracle_energy / case.no_mobility.total_energy);
        informed_ratios.push(case.informed_energy_ratio());
        let imobif_moved = case.informed.mobility_energy > 0.0;
        if imobif_moved == verdict.enable_mobility {
            agree += 1;
        }
    }
    OracleComparison {
        agreement: agree as f64 / cases.len() as f64,
        oracle_avg_ratio: Summary::of(&oracle_ratios).expect("non-empty").mean,
        informed_avg_ratio: Summary::of(&informed_ratios).expect("non-empty").mean,
        flows: cases.len(),
    }
}

impl OracleComparison {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!(
            "### ext_oracle — distributed decision vs global threshold [6]\n\n\
             Over {} flows: decision agreement {}%; oracle avg energy ratio {}; iMobif avg {}.\n",
            self.flows,
            fmt2(100.0 * self.agreement),
            fmt4(self.oracle_avg_ratio),
            fmt4(self.informed_avg_ratio),
        )
    }
}

/// `ext_initial`: impact of the initial mobility status (paper §4.1: "the
/// adverse impact of incorrect initial mobility status is limited").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitialStatusAblation {
    /// iMobif avg energy ratio with mobility initially disabled.
    pub disabled_avg: f64,
    /// iMobif avg energy ratio with mobility initially (wrongly) enabled.
    pub enabled_avg: f64,
    /// Cost-unaware avg energy ratio on the same flows: the damage a wrong
    /// "enabled" would cause *without* the notification loop.
    pub cost_unaware_avg: f64,
    /// Mean flow length the ablation ran, in bits.
    pub mean_flow_bits: f64,
}

/// Runs the initial-status ablation with the paper's short-flow setting.
#[must_use]
pub fn run_initial_status(n_flows: u64, seed: u64) -> InitialStatusAblation {
    run_initial_status_with(&ExtParams::paper(), n_flows, seed)
}

/// Runs the initial-status ablation on short flows
/// (`params.initial_status_mean_flow_bits`, Fig. 6(a)'s setting by
/// default), where a wrong initial "enabled" is most dangerous.
#[must_use]
pub fn run_initial_status_with(
    params: &ExtParams,
    n_flows: u64,
    seed: u64,
) -> InitialStatusAblation {
    let cfg_of = |enabled: bool| ScenarioConfig {
        mean_flow_bits: params.initial_status_mean_flow_bits,
        initial_mobility_enabled: enabled,
        seed,
        ..ScenarioConfig::paper_default()
    };
    let mut batches = run_batches(
        &[(cfg_of(false), StrategyChoice::MinEnergy), (cfg_of(true), StrategyChoice::MinEnergy)],
        n_flows,
    );
    let enabled_cases = batches.pop().expect("two specs in");
    let disabled_cases = batches.pop().expect("two specs in");
    let mean = |v: Vec<f64>| Summary::of(&v).expect("non-empty").mean;
    InitialStatusAblation {
        disabled_avg: mean(disabled_cases.iter().map(|c| c.informed_energy_ratio()).collect()),
        enabled_avg: mean(enabled_cases.iter().map(|c| c.informed_energy_ratio()).collect()),
        cost_unaware_avg: mean(
            disabled_cases.iter().map(|c| c.cost_unaware_energy_ratio()).collect(),
        ),
        mean_flow_bits: params.initial_status_mean_flow_bits,
    }
}

impl InitialStatusAblation {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!(
            "### ext_initial — initial mobility status ({} flows)\n\n\
             iMobif avg energy ratio: initially-disabled {} vs initially-enabled {} \
             (cost-unaware, i.e. no correction at all: {}) — the notification loop \
             limits the damage of a wrong initial status.\n",
            fmt_bytes(self.mean_flow_bits),
            fmt4(self.disabled_avg),
            fmt4(self.enabled_avg),
            fmt4(self.cost_unaware_avg),
        )
    }
}

/// `ext_step`: per-packet movement bound sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSweep {
    /// `(max_step meters, informed avg energy ratio)` rows.
    pub rows: Vec<(f64, f64)>,
}

/// Runs the movement-step ablation with the paper's sweep points.
#[must_use]
pub fn run_step_sweep(n_flows: u64, seed: u64) -> StepSweep {
    run_step_sweep_with(&ExtParams::paper(), n_flows, seed)
}

/// Runs the movement-step ablation on the Fig. 6(c) setting over
/// `params.steps`; the sweep points share one [`run_batches`] pool.
#[must_use]
pub fn run_step_sweep_with(params: &ExtParams, n_flows: u64, seed: u64) -> StepSweep {
    let steps = &params.steps;
    let specs: Vec<BatchSpec> = steps
        .iter()
        .map(|&max_step| {
            let cfg = ScenarioConfig { max_step, seed, ..ScenarioConfig::paper_default() };
            (cfg, StrategyChoice::MinEnergy)
        })
        .collect();
    let rows = steps
        .iter()
        .zip(run_batches(&specs, n_flows))
        .map(|(&max_step, cases)| {
            let ratios: Vec<f64> = cases.iter().map(|c| c.informed_energy_ratio()).collect();
            (max_step, Summary::of(&ratios).expect("non-empty").mean)
        })
        .collect();
    StepSweep { rows }
}

impl StepSweep {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|&(s, r)| vec![fmt2(s), fmt4(r)]).collect();
        format!(
            "### ext_step — per-packet movement bound (Fig. 6(c) setting)\n\n{}",
            markdown_table(&["max step (m)", "imobif avg energy ratio"], &rows)
        )
    }
}

/// `ext_relay`: joint relay selection + positioning (paper §5 future work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelaySelectionStudy {
    /// Average planned-total-energy / greedy-path-baseline-energy ratio.
    pub planned_avg_ratio: f64,
    /// Average iMobif measured ratio on the same flows (for contrast).
    pub informed_avg_ratio: f64,
    /// Average number of relays the planner recruits.
    pub avg_relays: f64,
    /// Sample size.
    pub flows: usize,
}

/// Runs the relay-selection study with the paper's parameters.
#[must_use]
pub fn run_relay_selection(n_flows: u64, seed: u64) -> RelaySelectionStudy {
    run_relay_selection_with(&ExtParams::paper(), n_flows, seed)
}

/// Runs the relay-selection study on fixed-length flows
/// (`params.relay_flow_bits`, 1 MB by default — the planner's one-time
/// movement investment needs a long flow to amortize, like any
/// controlled-mobility scheme), with a relay budget of `params.relay_max`.
/// The planner's energy is analytic (movement to slots + steady-state
/// transmission); the baselines are measured.
#[must_use]
pub fn run_relay_selection_with(
    params: &ExtParams,
    n_flows: u64,
    seed: u64,
) -> RelaySelectionStudy {
    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_default() };
    let tx = cfg.tx_model().expect("valid");
    let mv = cfg.mobility_model().expect("valid");
    let strategy = crate::runner::build_strategy(&cfg, StrategyChoice::MinEnergy);
    let mut planned_ratios = Vec::new();
    let mut informed_ratios = Vec::new();
    let mut relay_counts = Vec::new();
    for i in 0..n_flows {
        let mut draw = draw_scenario(&cfg, i);
        draw.flow.flow_bits = params.relay_flow_bits;
        let baseline =
            crate::runner::run_instance(&cfg, &draw, imobif::MobilityMode::NoMobility, &strategy);
        let informed =
            crate::runner::run_instance(&cfg, &draw, imobif::MobilityMode::Informed, &strategy);
        let topo =
            TopologyView::new(draw.positions.clone(), vec![true; draw.positions.len()], cfg.range);
        let plan = plan_relays(
            &topo,
            draw.flow.src,
            draw.flow.dst,
            &tx,
            &mv,
            draw.flow.flow_bits as f64,
            params.relay_max,
        )
        .expect("valid endpoints");
        planned_ratios.push(plan.total_energy() / baseline.total_energy);
        informed_ratios.push(informed.total_energy / baseline.total_energy);
        relay_counts.push(plan.relays.len() as f64);
    }
    RelaySelectionStudy {
        planned_avg_ratio: Summary::of(&planned_ratios).expect("non-empty").mean,
        informed_avg_ratio: Summary::of(&informed_ratios).expect("non-empty").mean,
        avg_relays: Summary::of(&relay_counts).expect("non-empty").mean,
        flows: n_flows as usize,
    }
}

impl RelaySelectionStudy {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!(
            "### ext_relay — joint relay selection + positioning (future work)\n\n\
             Over {} flows: planner avg energy ratio {} (avg {} relays recruited) vs \
             iMobif-on-greedy-path avg {} — choosing *which* nodes relay, not only where \
             they stand, unlocks further savings.\n",
            self.flows,
            fmt4(self.planned_avg_ratio),
            fmt2(self.avg_relays),
            fmt4(self.informed_avg_ratio),
        )
    }
}

/// `ext_horizon`: the cost/benefit evaluation horizon (full walk vs next
/// step) — the one place Fig. 1's OCR-degraded pseudo-code admits two
/// readings (see [`imobif::IncrementalStrategy`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizonAblation {
    /// Avg informed energy ratio under the full-walk horizon (the literal
    /// Fig. 1 reading this workspace uses by default).
    pub full_walk_avg: f64,
    /// Avg informed energy ratio under the per-step horizon.
    pub per_step_avg: f64,
    /// Avg notifications per flow, full-walk horizon.
    pub full_walk_notifications: f64,
    /// Avg notifications per flow, per-step horizon.
    pub per_step_notifications: f64,
    /// Sample size.
    pub flows: usize,
}

/// Runs the horizon ablation on the Fig. 6(c) setting.
#[must_use]
pub fn run_horizon_ablation(n_flows: u64, seed: u64) -> HorizonAblation {
    use imobif::{IncrementalStrategy, MinEnergyStrategy, MobilityMode, MobilityStrategy};
    use std::sync::Arc;

    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_default() };
    let full: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let step: Arc<dyn MobilityStrategy> = Arc::new(
        IncrementalStrategy::new(MinEnergyStrategy::new(), cfg.max_step).expect("valid max_step"),
    );
    let mut full_ratios = Vec::new();
    let mut step_ratios = Vec::new();
    let mut full_notif = 0u64;
    let mut step_notif = 0u64;
    for i in 0..n_flows {
        let draw = draw_scenario(&cfg, i);
        let base = crate::runner::run_instance(&cfg, &draw, MobilityMode::NoMobility, &full);
        let rf = crate::runner::run_instance(&cfg, &draw, MobilityMode::Informed, &full);
        let rs = crate::runner::run_instance(&cfg, &draw, MobilityMode::Informed, &step);
        full_ratios.push(rf.total_energy / base.total_energy);
        step_ratios.push(rs.total_energy / base.total_energy);
        full_notif += rf.notifications;
        step_notif += rs.notifications;
    }
    HorizonAblation {
        full_walk_avg: Summary::of(&full_ratios).expect("non-empty").mean,
        per_step_avg: Summary::of(&step_ratios).expect("non-empty").mean,
        full_walk_notifications: full_notif as f64 / n_flows as f64,
        per_step_notifications: step_notif as f64 / n_flows as f64,
        flows: n_flows as usize,
    }
}

impl HorizonAblation {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!(
            "### ext_horizon — cost/benefit evaluation horizon (Fig. 6(c) setting)\n\n\
             Over {} flows, avg informed energy ratio: full-walk {} ({} notifications/flow) \
             vs per-step {} ({} notifications/flow). The per-step (gradient) reading keeps \
             moving until the marginal meter stops paying; the full-walk reading freezes \
             once the whole remaining journey no longer pays.\n",
            self.flows,
            fmt4(self.full_walk_avg),
            fmt2(self.full_walk_notifications),
            fmt4(self.per_step_avg),
            fmt2(self.per_step_notifications),
        )
    }
}

/// `ext_hybrid`: sweeping the energy↔lifetime blend (paper §2: the
/// framework "can be tuned for different energy optimization goals by
/// changing the mobility strategy").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridSweep {
    /// `(λ, avg lifetime ratio, avg energy ratio)` rows; λ=0 is pure
    /// min-energy, λ=1 pure max-lifetime.
    pub rows: Vec<(f64, f64, f64)>,
}

/// Runs the hybrid-strategy sweep with the paper's λ points.
#[must_use]
pub fn run_hybrid_sweep(n_flows: u64, seed: u64) -> HybridSweep {
    run_hybrid_sweep_with(&ExtParams::paper(), n_flows, seed)
}

/// Runs the hybrid-strategy sweep over `params.lambdas` on the lifetime
/// scenario, always-on mobility so the placement target (not the enable
/// logic) is what varies.
#[must_use]
pub fn run_hybrid_sweep_with(params: &ExtParams, n_flows: u64, seed: u64) -> HybridSweep {
    use imobif::{HybridStrategy, MobilityMode, MobilityStrategy};
    use std::sync::Arc;

    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_lifetime() };
    let model = cfg.tx_model().expect("valid");
    let alpha_prime =
        imobif_energy::fit_alpha_prime(&model, 1.0, cfg.range, 64).expect("valid range");
    let rows = params
        .lambdas
        .iter()
        .map(|&lambda| {
            let strategy: Arc<dyn MobilityStrategy> =
                Arc::new(HybridStrategy::new(lambda, alpha_prime).expect("valid lambda"));
            let mut life_ratios = Vec::new();
            let mut energy_ratios = Vec::new();
            for i in 0..n_flows {
                let draw = draw_scenario(&cfg, i);
                let base =
                    crate::runner::run_instance(&cfg, &draw, MobilityMode::NoMobility, &strategy);
                let r = crate::runner::run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
                life_ratios.push(r.lifetime_secs / base.lifetime_secs);
                energy_ratios.push(r.total_energy / base.total_energy);
            }
            (
                lambda,
                Summary::of(&life_ratios).expect("non-empty").mean,
                Summary::of(&energy_ratios).expect("non-empty").mean,
            )
        })
        .collect();
    HybridSweep { rows }
}

impl HybridSweep {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(l, life, energy)| vec![fmt2(l), fmt4(life), fmt4(energy)])
            .collect();
        format!(
            "### ext_hybrid — blending the two goals (lifetime scenario, informed)\n\n{}",
            markdown_table(
                &["lambda (0=energy, 1=lifetime)", "avg lifetime ratio", "avg energy ratio"],
                &rows
            )
        )
    }
}

/// `ext_multiflow`: several concurrent flows in one arena (paper §2:
/// "imobif supports multiple one-to-one … flows"), sharing relays whose
/// movement targets superpose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFlowStudy {
    /// Number of concurrent flows installed.
    pub flows: usize,
    /// Total energy without mobility (J).
    pub no_mobility_energy: f64,
    /// Total energy under iMobif (J).
    pub informed_energy: f64,
    /// iMobif / no-mobility energy ratio.
    pub informed_ratio: f64,
    /// Whether every flow delivered all its bits under both modes.
    pub all_delivered: bool,
    /// Nodes that carried two or more flows simultaneously.
    pub shared_nodes: usize,
    /// Length of each flow, in bits.
    pub flow_bits: u64,
}

/// Runs the multi-flow study with the paper's 2 MB per-flow length.
#[must_use]
pub fn run_multiflow(n_concurrent: u32, seed: u64) -> MultiFlowStudy {
    let params = ExtParams { multiflow_concurrent: n_concurrent, ..ExtParams::paper() };
    run_multiflow_with(&params, seed)
}

/// Runs `params.multiflow_concurrent` simultaneous flows of
/// `params.multiflow_flow_bits` bits over one 100-node arena, comparing
/// iMobif against the no-mobility baseline in the same world.
///
/// Unlike the single-flow batches (which simulate only the path nodes),
/// this study keeps the full arena alive so flows can share relays.
#[must_use]
pub fn run_multiflow_with(params: &ExtParams, seed: u64) -> MultiFlowStudy {
    let n_concurrent = params.multiflow_concurrent;
    use imobif::{install_flow, FlowSpec, ImobifApp, ImobifConfig, MobilityMode, StrategyRegistry};
    use imobif_energy::Battery;
    use imobif_netsim::routing::GreedyRouter;
    use imobif_netsim::{FlowId, NodeId, SimTime, TopologyView, World};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_default() };
    let flow_bits: u64 = params.multiflow_flow_bits;
    let mut rng = StdRng::seed_from_u64(seed);
    let positions = crate::topology::sample_positions(&cfg, &mut rng);
    let topo = TopologyView::new(positions.clone(), vec![true; positions.len()], cfg.range);
    // Draw endpoint pairs with routable multi-hop paths on this topology.
    let mut specs = Vec::new();
    while specs.len() < n_concurrent as usize {
        let src = NodeId::new(rng.gen_range(0..cfg.node_count as u32));
        let dst = NodeId::new(rng.gen_range(0..cfg.node_count as u32));
        if src == dst {
            continue;
        }
        let Ok(path) = GreedyRouter.route(&topo, src, dst) else {
            continue;
        };
        if path.len() < 3 {
            continue;
        }
        // One source role per node keeps timer tags unambiguous per flow id
        // anyway; duplicates of endpoints across flows are allowed.
        specs.push(FlowSpec::paper_default(FlowId::new(specs.len() as u32), path, flow_bits));
    }

    let run = |mode: MobilityMode| -> (f64, bool, usize) {
        let strategy = crate::runner::build_strategy(&cfg, StrategyChoice::MinEnergy);
        let registry = Arc::new(StrategyRegistry::single(strategy));
        let mut world: World<ImobifApp> = World::new(cfg.sim_config()).expect("valid sim config");
        let app_cfg = ImobifConfig { mode, max_step: cfg.max_step, ..Default::default() };
        for &p in &positions {
            world.add_node(
                p,
                Battery::new(1e6).expect("valid battery"),
                ImobifApp::with_registry(app_cfg, Arc::clone(&registry)),
            );
        }
        world.start();
        for spec in &specs {
            install_flow(&mut world, spec).expect("routed specs are valid");
        }
        let horizon = SimTime::from_micros((flow_bits / 8_000 + 60).saturating_mul(1_000_000));
        world.run_while(|w| w.time() < horizon);
        let delivered = specs.iter().all(|s| {
            let dst = *s.path.last().expect("non-empty");
            world.app(dst).dest(s.flow).is_some_and(|d| d.received_bits >= flow_bits)
        });
        let shared = (0..cfg.node_count as u32)
            .filter(|&i| world.app(NodeId::new(i)).flow_table().len() >= 2)
            .count();
        (world.ledger().totals().total(), delivered, shared)
    };

    let (base_energy, base_ok, shared) = run(MobilityMode::NoMobility);
    let (inf_energy, inf_ok, _) = run(MobilityMode::Informed);
    MultiFlowStudy {
        flows: specs.len(),
        no_mobility_energy: base_energy,
        informed_energy: inf_energy,
        informed_ratio: inf_energy / base_energy,
        all_delivered: base_ok && inf_ok,
        shared_nodes: shared,
        flow_bits,
    }
}

impl MultiFlowStudy {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!(
            "### ext_multiflow — {} concurrent {} flows in one arena\n\n\
             Total energy: no-mobility {} J vs iMobif {} J (ratio {}); {} node(s) carried \
             multiple flows (targets superposed); all flows delivered: {}.\n",
            self.flows,
            fmt_bytes(self.flow_bits as f64),
            fmt2(self.no_mobility_energy),
            fmt2(self.informed_energy),
            fmt4(self.informed_ratio),
            self.shared_nodes,
            self.all_delivered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 6;

    #[test]
    fn estimate_sweep_has_all_factors() {
        let r = run_estimate_sensitivity(N, 5);
        assert_eq!(r.rows.len(), 5);
        assert!(r.rows.iter().all(|&(_, ratio)| ratio > 0.0 && ratio.is_finite()));
        // Perfect estimates should be at least as good as wildly
        // overestimating by 10x on average is *allowed* to differ; just
        // check rendering.
        assert!(r.to_markdown().contains("ext_estimate"));
    }

    #[test]
    fn oracle_comparison_runs() {
        let r = run_oracle_comparison(N, 5);
        assert_eq!(r.flows, N as usize);
        assert!((0.0..=1.0).contains(&r.agreement));
        // The oracle (perfect information, instantaneous moves) is at
        // least as good as the baseline on average.
        assert!(r.oracle_avg_ratio <= 1.0 + 1e-9);
        assert!(r.to_markdown().contains("ext_oracle"));
    }

    #[test]
    fn initial_status_damage_is_limited() {
        let r = run_initial_status(N, 5);
        // Paper: "the adverse impact of incorrect initial mobility status
        // is limited" — a wrong initial enable on short flows hurts less
        // than never correcting at all (cost-unaware), because the first
        // packets trigger a disable notification.
        assert!(
            r.enabled_avg < r.cost_unaware_avg,
            "enabled avg {} should beat cost-unaware {}",
            r.enabled_avg,
            r.cost_unaware_avg
        );
        assert!(r.disabled_avg <= r.enabled_avg + 0.25);
        assert!(r.to_markdown().contains("ext_initial"));
    }

    #[test]
    fn step_sweep_runs() {
        let r = run_step_sweep(N, 5);
        assert_eq!(r.rows.len(), 3);
        assert!(r.to_markdown().contains("ext_step"));
    }

    #[test]
    fn multiflow_delivers_and_saves() {
        let r = run_multiflow(4, 5);
        assert_eq!(r.flows, 4);
        assert!(r.all_delivered, "every concurrent flow must complete");
        assert!(
            r.informed_ratio <= 1.01,
            "imobif ratio {} must not exceed the baseline",
            r.informed_ratio
        );
        assert!(r.to_markdown().contains("ext_multiflow"));
    }

    #[test]
    fn headings_print_the_flow_sizes_the_studies_ran() {
        let text = "name = \"x\"\nadapter = \"ext\"\n[ext]\nmultiflow_concurrent = 2\n\
                    multiflow_flow_bits = 80000\ninitial_status_mean_flow_bits = 16000.0\n";
        let p = crate::scenario::ScenarioSpec::parse(text).expect("parses").ext.expect("[ext]");
        let initial = run_initial_status_with(&p, 2, 5).to_markdown();
        assert!(initial.starts_with("### ext_initial — initial mobility status (2 KB flows)\n"));
        let multiflow = run_multiflow_with(&p, 5).to_markdown();
        assert!(multiflow.starts_with("### ext_multiflow — 2 concurrent 10 KB flows in one arena"));
    }

    #[test]
    fn hybrid_sweep_covers_both_extremes() {
        let r = run_hybrid_sweep(4, 5);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].0, 0.0);
        assert_eq!(r.rows[2].0, 1.0);
        for &(_, life, energy) in &r.rows {
            assert!(life > 0.5 && life.is_finite());
            assert!(energy > 0.0 && energy.is_finite());
        }
        assert!(r.to_markdown().contains("ext_hybrid"));
    }

    #[test]
    fn horizon_ablation_runs_and_both_readings_work() {
        let r = run_horizon_ablation(N, 5);
        assert_eq!(r.flows, N as usize);
        // Both readings must stay at or below the baseline on average.
        assert!(r.full_walk_avg <= 1.01, "full-walk avg {}", r.full_walk_avg);
        assert!(r.per_step_avg <= 1.01, "per-step avg {}", r.per_step_avg);
        assert!(r.to_markdown().contains("ext_horizon"));
    }

    #[test]
    fn relay_selection_beats_baseline_on_average() {
        let r = run_relay_selection(N, 5);
        assert!(r.planned_avg_ratio <= 1.0 + 1e-9, "planner ratio {}", r.planned_avg_ratio);
        assert!(r.avg_relays >= 0.0);
        assert!(r.to_markdown().contains("ext_relay"));
    }
}
