//! Lowering: `spec → validate → compile` into the batch machinery, plus the
//! generic per-case result adapter used by new scenario families.

use std::fmt::Write as _;

use crate::config::{check_flows, ScenarioConfig};
use crate::runner::{run_batches, BatchSpec, CaseResult, StrategyChoice};

use super::spec::{Adapter, ExtParams, ScenarioSpec};
use super::ScenarioError;

/// One fully-resolved run of a compiled scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRun {
    /// Label (the variant label, or the scenario name when there are none).
    pub label: String,
    /// Validated configuration.
    pub config: ScenarioConfig,
}

/// A [`ScenarioSpec`] lowered to validated [`ScenarioConfig`]s, ready for
/// [`run_batches`] or a figure adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// Scenario name.
    pub name: String,
    /// Result adapter.
    pub adapter: Adapter,
    /// Strategy every run uses.
    pub strategy: StrategyChoice,
    /// Replicate count per run.
    pub flows: u64,
    /// The runs, in spec order.
    pub runs: Vec<CompiledRun>,
    /// Extension-study parameters (defaults applied when the spec had none).
    pub ext: ExtParams,
}

impl ScenarioSpec {
    /// Compiles the spec as written (its own seeds and `flows`).
    ///
    /// # Errors
    ///
    /// As [`ScenarioSpec::compile_with`].
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        self.compile_with(None, None)
    }

    /// Compiles with optional seed/flow overrides (the CLI's `--seed` and
    /// `--flows`). A seed override replaces every run's seed, which is how
    /// the figure adapters keep their historical `(n_flows, seed)`
    /// signatures while reading everything else from the shipped spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] labelled with the scenario name
    /// if the replicate count lies outside `1..=MAX_FLOWS`
    /// ([`check_flows`]), else naming the first run whose configuration
    /// fails [`ScenarioConfig::validate`].
    pub fn compile_with(
        &self,
        seed: Option<u64>,
        flows: Option<u64>,
    ) -> Result<CompiledScenario, ScenarioError> {
        let flows = check_flows(flows.unwrap_or(self.flows))
            .map_err(|error| ScenarioError::Invalid { label: self.name.clone(), error })?;
        let mut runs = Vec::new();
        if self.variants.is_empty() {
            runs.push(CompiledRun { label: self.name.clone(), config: self.base });
        } else {
            for v in &self.variants {
                runs.push(CompiledRun { label: v.label.clone(), config: v.config });
            }
        }
        for run in &mut runs {
            if let Some(seed) = seed {
                run.config.seed = seed;
            }
            run.config
                .validate()
                .map_err(|error| ScenarioError::Invalid { label: run.label.clone(), error })?;
        }
        Ok(CompiledScenario {
            name: self.name.clone(),
            adapter: self.adapter,
            strategy: self.strategy,
            flows,
            runs,
            ext: self.ext.clone().unwrap_or_else(ExtParams::paper),
        })
    }
}

impl CompiledScenario {
    /// Draws each run's first flow, past the draw memo, so that an arena
    /// routing no flow through a relay is an error before anything runs,
    /// not a panic in a batch worker. The `ext` adapter is skipped: its
    /// studies draw the paper's configuration, not the runs'.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Unroutable`] naming the first such run.
    pub fn check_routable(&self) -> Result<(), ScenarioError> {
        if self.adapter == Adapter::Ext {
            return Ok(());
        }
        for run in &self.runs {
            crate::topology::check_routable(&run.config, 0)
                .map_err(|error| ScenarioError::Unroutable { label: run.label.clone(), error })?;
        }
        Ok(())
    }
}

/// One run's cases under the generic adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericGroup {
    /// The run's label.
    pub label: String,
    /// The configuration the group ran under.
    pub config: ScenarioConfig,
    /// Per-flow cases.
    pub cases: Vec<CaseResult>,
}

/// Results of a generic-adapter scenario: one group per compiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericResult {
    /// Scenario name.
    pub name: String,
    /// Per-run groups, in spec order.
    pub groups: Vec<GenericGroup>,
}

/// Runs every compiled run through the memoized batch engine.
#[must_use]
pub fn run_generic(compiled: &CompiledScenario) -> GenericResult {
    let specs: Vec<BatchSpec> =
        compiled.runs.iter().map(|r| (r.config, compiled.strategy)).collect();
    let batches = run_batches(&specs, compiled.flows);
    let groups = compiled
        .runs
        .iter()
        .zip(batches)
        .map(|(run, cases)| GenericGroup { label: run.label.clone(), config: run.config, cases })
        .collect();
    GenericResult { name: compiled.name.clone(), groups }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

impl GenericResult {
    /// Per-group summary table (mean ratios over all cases).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# Scenario `{}`\n\n", self.name);
        out.push_str("| group | cases | mean energy ratio (unaware) | mean energy ratio (informed) | mean lifetime ratio (unaware) | mean lifetime ratio (informed) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for g in &self.groups {
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} |",
                g.label,
                g.cases.len(),
                mean(g.cases.iter().map(CaseResult::cost_unaware_energy_ratio)),
                mean(g.cases.iter().map(CaseResult::informed_energy_ratio)),
                mean(g.cases.iter().map(CaseResult::cost_unaware_lifetime_ratio)),
                mean(g.cases.iter().map(CaseResult::informed_lifetime_ratio)),
            );
        }
        out
    }

    /// Per-case CSV, one row per `(group, flow)`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "group,flow_index,flow_bits,path_len,cost_unaware_energy_ratio,informed_energy_ratio,cost_unaware_lifetime_ratio,informed_lifetime_ratio\n",
        );
        for g in &self.groups {
            for c in &g.cases {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.4},{:.4},{:.4},{:.4}",
                    g.label,
                    c.draw_index,
                    c.flow_bits,
                    c.path_len,
                    c.cost_unaware_energy_ratio(),
                    c.informed_energy_ratio(),
                    c.cost_unaware_lifetime_ratio(),
                    c.informed_lifetime_ratio(),
                );
            }
        }
        out
    }
}
