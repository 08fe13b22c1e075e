//! Figure 8: CDF of the system-lifetime ratio.
//!
//! Paper §4.2: with deliberately low random residual energies and
//! 1 MB-mean flows,
//! "the system lifetime of the approach with cost-unaware mobility is
//! usually shorter than the approach without mobility" (average ≈ 0.55),
//! while iMobif "can achieve longer system lifetime than the approach
//! without mobility for most flow instances … up to a factor of [2–3] for
//! some flow instances".

use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::metrics::{cdf, fraction_below, Summary};
use crate::report::{csv_block, fmt2, fmt4, markdown_table};
use crate::runner::{run_batch, StrategyChoice};
use crate::scenario;

/// The Figure 8 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Per-flow cost-unaware lifetime ratios.
    pub cost_unaware_ratios: Vec<f64>,
    /// Per-flow informed lifetime ratios.
    pub informed_ratios: Vec<f64>,
    /// CDF of the cost-unaware ratios.
    pub cost_unaware_cdf: Vec<(f64, f64)>,
    /// CDF of the informed ratios.
    pub informed_cdf: Vec<(f64, f64)>,
    /// Summary of the cost-unaware ratios.
    pub cost_unaware: Summary,
    /// Summary of the informed ratios.
    pub informed: Summary,
    /// Fraction of flows where informed lifetime is at least the baseline.
    pub informed_at_least_baseline: f64,
}

/// Runs Fig. 8 from the shipped `fig8` scenario spec: `n_flows` flows with
/// the max-lifetime strategy and low random batteries, comparing lifetimes
/// under the three approaches.
#[must_use]
pub fn run(n_flows: u64, seed: u64) -> Fig8Result {
    let compiled = scenario::compile_builtin("fig8", seed, Some(n_flows));
    from_config(&compiled.runs[0].config, compiled.strategy, compiled.flows)
}

/// Runs the lifetime-ratio CDF for any configuration (the `fig8` adapter
/// of `imobif scenario run`).
#[must_use]
pub fn from_config(cfg: &ScenarioConfig, strategy: StrategyChoice, n_flows: u64) -> Fig8Result {
    let cases = run_batch(cfg, n_flows, strategy);
    let cu: Vec<f64> = cases.iter().map(|c| c.cost_unaware_lifetime_ratio()).collect();
    let inf: Vec<f64> = cases.iter().map(|c| c.informed_lifetime_ratio()).collect();
    Fig8Result {
        cost_unaware_cdf: cdf(&cu),
        informed_cdf: cdf(&inf),
        cost_unaware: Summary::of(&cu).expect("non-empty batch"),
        informed: Summary::of(&inf).expect("non-empty batch"),
        informed_at_least_baseline: 1.0 - fraction_below(&inf, 1.0),
        cost_unaware_ratios: cu,
        informed_ratios: inf,
    }
}

impl Fig8Result {
    /// Markdown rendering with decile CDF points.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out =
            String::from("### Figure 8 — system-lifetime ratio CDF (baseline = no mobility)\n\n");
        out.push_str(&format!(
            "Cost-unaware average {}; iMobif average {} (max {}×). iMobif ≥ baseline on {}% of flows.\n\n",
            fmt2(self.cost_unaware.mean),
            fmt2(self.informed.mean),
            fmt2(self.informed.max),
            fmt2(100.0 * self.informed_at_least_baseline),
        ));
        let deciles: Vec<Vec<String>> = (1..=9)
            .map(|d| {
                let f = d as f64 / 10.0;
                let pick = |c: &[(f64, f64)]| {
                    c.iter().find(|&&(_, frac)| frac >= f).map_or(f64::NAN, |&(v, _)| v)
                };
                vec![
                    format!("{}%", d * 10),
                    fmt4(pick(&self.cost_unaware_cdf)),
                    fmt4(pick(&self.informed_cdf)),
                ]
            })
            .collect();
        out.push_str(&markdown_table(&["CDF", "cost-unaware ratio", "informed ratio"], &deciles));
        out
    }

    /// CSV of both CDFs.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for &(v, f) in &self.cost_unaware_cdf {
            rows.push(vec!["cost-unaware".to_string(), fmt4(v), fmt4(f)]);
        }
        for &(v, f) in &self.informed_cdf {
            rows.push(vec!["informed".to_string(), fmt4(v), fmt4(f)]);
        }
        csv_block(&["approach", "lifetime_ratio", "cum_fraction"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_shape_matches_paper() {
        let r = run(16, 3);
        assert_eq!(r.cost_unaware_ratios.len(), 16);
        // Cost-unaware mobility shortens lifetimes on average…
        assert!(
            r.cost_unaware.mean < 1.0,
            "cost-unaware lifetime avg {} should be below 1",
            r.cost_unaware.mean
        );
        // …informed does no worse than the baseline on average.
        assert!(
            r.informed.mean >= r.cost_unaware.mean,
            "informed {} should beat cost-unaware {}",
            r.informed.mean,
            r.cost_unaware.mean
        );
        assert!(r.informed.mean > 0.95, "informed avg {} should be ≈ ≥1", r.informed.mean);
        assert!(r.to_markdown().contains("Figure 8"));
        assert!(!r.to_csv().is_empty());
    }
}
