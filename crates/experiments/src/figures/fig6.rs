//! Figure 6: energy-consumption comparison of the three approaches.
//!
//! Six panels. (a) k=0.5, α=2, mean 100 KB; (b) mobility vs transmission
//! energy of cost-unaware mobility in the same setting; (c) k=0.5, α=2,
//! mean 1 MB; (d) k=1.0; (e) k=0.1; (f) α=3. Each panel scatters the
//! per-flow *energy consumption ratio* (total energy / no-mobility total)
//! for cost-unaware mobility and for iMobif, and reports the averages.
//!
//! Expected shape (paper §4.1): cost-unaware is far above 1 for short
//! flows, near/over 1 for long flows; iMobif stays at or below ~1 for
//! almost all flows and tracks cost-unaware where mobility pays.

use serde::{Deserialize, Serialize};

use crate::metrics::{fraction_below, Summary};
use crate::report::{csv_block, fmt2, fmt4, markdown_table};
use crate::runner::{run_batches, BatchSpec, CaseResult, StrategyChoice};
use crate::scenario::{self, CompiledRun};

/// One Fig. 6 panel's parameter set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Variant {
    /// Panel label, e.g. `"fig6a"`.
    pub label: String,
    /// Mobility cost k (J/m).
    pub k: f64,
    /// Path-loss exponent α.
    pub alpha: f64,
    /// Mean flow length in bits.
    pub mean_flow_bits: f64,
}

/// Per-flow data point of one panel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowPoint {
    /// Draw index (the x-axis of the paper's scatter plots).
    pub index: u64,
    /// Flow length in bits.
    pub flow_bits: u64,
    /// Cost-unaware energy ratio.
    pub cost_unaware_ratio: f64,
    /// iMobif energy ratio.
    pub informed_ratio: f64,
    /// Cost-unaware mobility energy (J) — the Fig. 6(b) decomposition.
    pub mobility_energy: f64,
    /// No-mobility transmission energy (J).
    pub transmission_energy: f64,
}

/// One rendered panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Panel {
    /// The parameters.
    pub variant: Fig6Variant,
    /// Per-flow points.
    pub points: Vec<FlowPoint>,
    /// Summary of the cost-unaware ratios.
    pub cost_unaware: Summary,
    /// Summary of the iMobif ratios.
    pub informed: Summary,
    /// Fraction of flows where iMobif beats or matches the baseline
    /// (ratio ≤ 1.02; the paper says "almost all flow instances").
    pub informed_at_most_baseline: f64,
    /// Fig. 6(b): average mobility energy of the cost-unaware runs (J).
    pub avg_mobility_energy: f64,
    /// Fig. 6(b): average transmission energy of the baseline runs (J).
    pub avg_transmission_energy: f64,
    /// Fig. 6(b): fraction of flows whose mobility energy exceeds their
    /// transmission energy ("the mobility cost is much higher than the
    /// transmission cost for short flows").
    pub mobility_exceeds_transmission: f64,
}

fn panel_from_cases(variant: Fig6Variant, cases: &[CaseResult]) -> Fig6Panel {
    let points: Vec<FlowPoint> = cases
        .iter()
        .map(|c| FlowPoint {
            index: c.draw_index,
            flow_bits: c.flow_bits,
            cost_unaware_ratio: c.cost_unaware_energy_ratio(),
            informed_ratio: c.informed_energy_ratio(),
            mobility_energy: c.cost_unaware.mobility_energy,
            transmission_energy: c.no_mobility.total_energy,
        })
        .collect();
    let cu: Vec<f64> = points.iter().map(|p| p.cost_unaware_ratio).collect();
    let inf: Vec<f64> = points.iter().map(|p| p.informed_ratio).collect();
    let n = points.len() as f64;
    Fig6Panel {
        cost_unaware: Summary::of(&cu).expect("non-empty batch"),
        informed: Summary::of(&inf).expect("non-empty batch"),
        informed_at_most_baseline: fraction_below(&inf, 1.02),
        avg_mobility_energy: points.iter().map(|p| p.mobility_energy).sum::<f64>() / n,
        avg_transmission_energy: points.iter().map(|p| p.transmission_energy).sum::<f64>() / n,
        mobility_exceeds_transmission: points
            .iter()
            .filter(|p| p.mobility_energy > p.transmission_energy)
            .count() as f64
            / n,
        variant,
        points,
    }
}

/// All panels of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Panels in paper order (a, c, d, e, f; panel b derives from a).
    pub panels: Vec<Fig6Panel>,
}

/// Runs the whole figure from the shipped `fig6` scenario spec. All five
/// panels' cases flatten into one work queue ([`run_batches`]), so the
/// panels run concurrently instead of one barrier-separated batch at a
/// time — and panels sharing a topology (same seed, different k/α/mean)
/// share the drawn scenarios.
#[must_use]
pub fn run(n_flows: u64, seed: u64) -> Fig6Result {
    let compiled = scenario::compile_builtin("fig6", seed, Some(n_flows));
    from_compiled_runs(&compiled.runs, compiled.strategy, compiled.flows)
}

/// Renders Fig. 6 panels from any compiled scenario's runs (the `fig6`
/// adapter of `imobif scenario run`). Panel parameters (k, α, mean flow
/// length) are read back off each run's config.
#[must_use]
pub fn from_compiled_runs(
    runs: &[CompiledRun],
    strategy: StrategyChoice,
    n_flows: u64,
) -> Fig6Result {
    let specs: Vec<BatchSpec> = runs.iter().map(|r| (r.config, strategy)).collect();
    let batches = run_batches(&specs, n_flows);
    Fig6Result {
        panels: runs
            .iter()
            .zip(batches)
            .map(|(r, cases)| {
                let variant = Fig6Variant {
                    label: r.label.clone(),
                    k: r.config.k,
                    alpha: r.config.alpha,
                    mean_flow_bits: r.config.mean_flow_bits,
                };
                panel_from_cases(variant, &cases)
            })
            .collect(),
    }
}

impl Fig6Result {
    /// Markdown summary mirroring the paper's per-panel averages.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut rows = Vec::new();
        for p in &self.panels {
            rows.push(vec![
                p.variant.label.clone(),
                fmt2(p.variant.k),
                fmt2(p.variant.alpha),
                format!("{:.0}", p.variant.mean_flow_bits / 8e3), // KB
                fmt4(p.cost_unaware.mean),
                fmt4(p.informed.mean),
                fmt2(100.0 * p.informed_at_most_baseline),
            ]);
        }
        let mut out =
            String::from("### Figure 6 — energy consumption ratios (baseline = no mobility)\n\n");
        out.push_str(&markdown_table(
            &[
                "panel",
                "k (J/m)",
                "alpha",
                "mean flow (KB)",
                "cost-unaware avg ratio",
                "imobif avg ratio",
                "imobif ≤ baseline (%)",
            ],
            &rows,
        ));
        if let Some(a) = self.panels.first() {
            out.push_str(&format!(
                "\n**Fig. 6(b)** ({}): avg mobility energy {} J vs avg transmission energy {} J; \
                 mobility exceeds transmission on {}% of short flows.\n",
                a.variant.label,
                fmt2(a.avg_mobility_energy),
                fmt2(a.avg_transmission_energy),
                fmt2(100.0 * a.mobility_exceeds_transmission),
            ));
        }
        out
    }

    /// CSV of every per-flow point of every panel.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for p in &self.panels {
            for pt in &p.points {
                rows.push(vec![
                    p.variant.label.clone(),
                    pt.index.to_string(),
                    pt.flow_bits.to_string(),
                    fmt4(pt.cost_unaware_ratio),
                    fmt4(pt.informed_ratio),
                    fmt4(pt.mobility_energy),
                    fmt4(pt.transmission_energy),
                ]);
            }
        }
        csv_block(
            &[
                "panel",
                "flow_index",
                "flow_bits",
                "cost_unaware_ratio",
                "informed_ratio",
                "cost_unaware_mobility_energy_j",
                "baseline_transmission_energy_j",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_matches_paper() {
        // (label, k, α, mean flow bits) of panels (a), (c)–(f).
        let runs = scenario::compile_builtin("fig6", 7, Some(12)).runs;
        let panels: Vec<(&str, f64, f64, f64)> = runs
            .iter()
            .map(|r| (r.label.as_str(), r.config.k, r.config.alpha, r.config.mean_flow_bits))
            .collect();
        assert_eq!(
            panels,
            [
                ("fig6a", 0.5, 2.0, 8e5),
                ("fig6c", 0.5, 2.0, 8e6),
                ("fig6d", 1.0, 2.0, 8e6),
                ("fig6e", 0.1, 2.0, 8e6),
                ("fig6f", 0.5, 3.0, 8e6),
            ]
        );
    }

    #[test]
    fn short_flow_panel_shows_paper_shape() {
        // Small batch of panel (a): enough to see the qualitative contrast.
        let c = scenario::compile_builtin("fig6", 7, Some(12));
        let panel = &from_compiled_runs(&c.runs[..1], c.strategy, c.flows).panels[0];
        assert_eq!(panel.variant.label, "fig6a");
        assert_eq!(panel.points.len(), 12);
        // Cost-unaware wastes energy on short flows…
        assert!(
            panel.cost_unaware.mean > 1.3,
            "cost-unaware avg {} should be well above 1 for 100 KB flows",
            panel.cost_unaware.mean
        );
        // …iMobif stays near the baseline.
        assert!(panel.informed.mean < 1.1, "imobif avg {} should stay near 1", panel.informed.mean);
        assert!(panel.informed_at_most_baseline > 0.7);
        // Fig 6(b): for most short flows, cost-unaware mobility spends more
        // energy walking than the whole flow spends transmitting.
        assert!(
            panel.mobility_exceeds_transmission >= 0.5,
            "mobility should exceed transmission on most short flows, got {}",
            panel.mobility_exceeds_transmission
        );
    }
}
