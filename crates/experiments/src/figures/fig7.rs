//! Figure 7: the number of notification packets per flow.
//!
//! Paper §4.1: "the number of notification packets is small, indicating
//! the cost-benefit comparison results are fairly consistent, and there
//! are few oscillations."

use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::metrics::Summary;
use crate::report::{csv_block, fmt2, markdown_table};
use crate::runner::{run_batch, StrategyChoice};
use crate::scenario;

/// The Figure 7 reproduction: notification counts under iMobif.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Per-flow notification counts (informed mode).
    pub notifications: Vec<u64>,
    /// Summary of the counts.
    pub summary: Summary,
    /// Histogram: `counts[i]` = number of flows that sent `i`
    /// notifications (the tail is clamped into the last bucket).
    pub histogram: Vec<u64>,
}

/// Runs Fig. 7 from the shipped `fig7` scenario spec: `n_flows` 1 MB-mean
/// flows under the min-energy strategy, counting destination-originated
/// notifications.
#[must_use]
pub fn run(n_flows: u64, seed: u64) -> Fig7Result {
    let compiled = scenario::compile_builtin("fig7", seed, Some(n_flows));
    from_config(&compiled.runs[0].config, compiled.strategy, compiled.flows)
}

/// Runs the notification histogram for any configuration (the `fig7`
/// adapter of `imobif scenario run`).
#[must_use]
pub fn from_config(cfg: &ScenarioConfig, strategy: StrategyChoice, n_flows: u64) -> Fig7Result {
    let cases = run_batch(cfg, n_flows, strategy);
    let notifications: Vec<u64> = cases.iter().map(|c| c.informed.notifications).collect();
    let as_f: Vec<f64> = notifications.iter().map(|&n| n as f64).collect();
    let mut histogram = vec![0u64; 9];
    for &n in &notifications {
        let bucket = (n as usize).min(histogram.len() - 1);
        histogram[bucket] += 1;
    }
    Fig7Result { summary: Summary::of(&as_f).expect("non-empty batch"), notifications, histogram }
}

impl Fig7Result {
    /// Markdown rendering.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let label =
                    if i + 1 == self.histogram.len() { format!("≥{i}") } else { i.to_string() };
                vec![label, n.to_string()]
            })
            .collect();
        let mut out = String::from("### Figure 7 — notification packets per flow (iMobif)\n\n");
        out.push_str(&format!(
            "Average {} notifications/flow (max {}).\n\n",
            fmt2(self.summary.mean),
            self.summary.max
        ));
        out.push_str(&markdown_table(&["notifications", "flows"], &rows));
        out
    }

    /// CSV of per-flow counts.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .notifications
            .iter()
            .enumerate()
            .map(|(i, &n)| vec![i.to_string(), n.to_string()])
            .collect();
        csv_block(&["flow_index", "notifications"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notification_counts_are_small() {
        let r = run(10, 11);
        assert_eq!(r.notifications.len(), 10);
        // The paper's key claim: few notifications, few oscillations.
        assert!(r.summary.mean <= 4.0, "average {} should be small", r.summary.mean);
        assert!(r.summary.max <= 8.0, "max {} should be small", r.summary.max);
        assert_eq!(r.histogram.iter().sum::<u64>(), 10);
        assert!(r.to_markdown().contains("Figure 7"));
        assert!(r.to_csv().lines().count() == 11);
    }
}
