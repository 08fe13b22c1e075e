//! Offline tooling over recorded kernel traces.
//!
//! A traced run ([`crate::runner::run_instance_traced`]) yields a stream of
//! [`TraceEvent`]s; persisted as JSONL (`imobif_netsim::trace`), it becomes
//! a run artifact the `imobif trace` subcommand can dump, filter and
//! summarize long after the simulation finished. Everything here is a pure
//! function of the event stream — no simulator state is needed to analyze
//! a recording.

use std::collections::BTreeMap;

use imobif::MobilityMode;
use imobif_netsim::trace::TraceEvent;
use imobif_netsim::{EnergyCategory, SimTime};

use crate::config::ScenarioConfig;
use crate::runner::{build_strategy, run_instance_traced, InstanceResult, StrategyChoice};
use crate::topology::draw_scenario;

/// Largest trace ring `imobif trace record` accepts (`--cap`), in events.
/// The ring is reserved up front: 224 MiB at the ceiling.
pub const MAX_TRACE_CAP: usize = 1 << 22;

/// Records one flow case under `mode` with kernel tracing on, returning the
/// measured result and the captured event stream.
///
/// Deterministic per `(cfg, index, mode, choice)` — re-recording a run
/// reproduces the stream bit for bit.
///
/// # Panics
///
/// Panics if the scenario config is invalid (call
/// [`ScenarioConfig::validate`] first).
#[must_use]
pub fn record_case(
    cfg: &ScenarioConfig,
    index: u64,
    mode: MobilityMode,
    choice: StrategyChoice,
    trace_capacity: usize,
) -> (InstanceResult, Vec<TraceEvent>) {
    let draw = draw_scenario(cfg, index);
    let strategy = build_strategy(cfg, choice);
    run_instance_traced(cfg, &draw, mode, &strategy, trace_capacity)
}

/// Per-node activity aggregated from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeActivity {
    /// Packets this node transmitted.
    pub packets_sent: u64,
    /// Radio energy this node spent (data + hello + notification), joules.
    pub radio_energy: f64,
    /// Movement energy this node spent, in joules.
    pub mobility_energy: f64,
    /// Total distance this node moved, in meters.
    pub distance_moved: f64,
    /// When the node died, if the trace recorded a death.
    pub died_at: Option<SimTime>,
}

/// Everything [`summarize`] extracts from one event stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Event counts keyed by kind name (`sent`, `delivered`, …).
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// First and last event timestamps, if the trace is non-empty.
    pub span: Option<(SimTime, SimTime)>,
    /// Per-node aggregates, keyed by raw node id.
    pub nodes: BTreeMap<u32, NodeActivity>,
    /// Per-hop traffic: `(from, to)` → `(sent, delivered)` packet counts.
    pub hops: BTreeMap<(u32, u32), (u64, u64)>,
    /// Energy totals by ledger category, in joules.
    pub energy_by_category: BTreeMap<&'static str, f64>,
}

impl TraceSummary {
    /// Total packets sent across all nodes.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.kind_counts.get("sent").copied().unwrap_or(0)
    }

    /// Total energy recorded in the trace, in joules.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.energy_by_category.values().sum()
    }

    /// Renders the summary as a markdown report.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# trace summary\n\n");
        match self.span {
            Some((first, last)) => {
                out.push_str(&format!(
                    "events span {:.3}s – {:.3}s of simulated time\n\n",
                    first.as_secs_f64(),
                    last.as_secs_f64()
                ));
            }
            None => {
                out.push_str("empty trace\n");
                return out;
            }
        }
        out.push_str("| kind | events |\n|------|-------:|\n");
        for (kind, n) in &self.kind_counts {
            out.push_str(&format!("| {kind} | {n} |\n"));
        }
        out.push_str("\n| category | joules |\n|----------|-------:|\n");
        for (cat, joules) in &self.energy_by_category {
            out.push_str(&format!("| {cat} | {joules:.6} |\n"));
        }
        out.push_str(
            "\n| node | sent | radio J | mobility J | moved m | died |\n\
             |-----:|-----:|--------:|-----------:|--------:|------|\n",
        );
        for (id, a) in &self.nodes {
            out.push_str(&format!(
                "| {id} | {} | {:.6} | {:.6} | {:.2} | {} |\n",
                a.packets_sent,
                a.radio_energy,
                a.mobility_energy,
                a.distance_moved,
                a.died_at.map_or_else(|| "-".to_string(), |t| format!("{:.3}s", t.as_secs_f64())),
            ));
        }
        out.push_str("\n| hop | sent | delivered |\n|-----|-----:|----------:|\n");
        for (&(from, to), &(sent, delivered)) in &self.hops {
            out.push_str(&format!("| {from}→{to} | {sent} | {delivered} |\n"));
        }
        out
    }
}

/// Aggregates an event stream into a [`TraceSummary`].
#[must_use]
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for e in events {
        *s.kind_counts.entry(e.kind()).or_insert(0) += 1;
        let t = e.time();
        s.span = Some(match s.span {
            None => (t, t),
            Some((first, last)) => (first.min(t), last.max(t)),
        });
        match *e {
            TraceEvent::Sent { from, to, category, energy, .. } => {
                let a = s.nodes.entry(from.raw()).or_default();
                a.packets_sent += 1;
                a.radio_energy += energy;
                s.hops.entry((from.raw(), to.raw())).or_insert((0, 0)).0 += 1;
                *s.energy_by_category.entry(category.as_str()).or_insert(0.0) += energy;
            }
            TraceEvent::Delivered { from, to, .. } => {
                s.hops.entry((from.raw(), to.raw())).or_insert((0, 0)).1 += 1;
            }
            TraceEvent::Dropped { .. } => {}
            TraceEvent::Moved { node, from, to, energy, .. } => {
                let a = s.nodes.entry(node.raw()).or_default();
                a.mobility_energy += energy;
                a.distance_moved += from.distance_to(to);
                *s.energy_by_category.entry(EnergyCategory::Mobility.as_str()).or_insert(0.0) +=
                    energy;
            }
            TraceEvent::Died { node, time } => {
                let a = s.nodes.entry(node.raw()).or_default();
                if a.died_at.is_none() {
                    a.died_at = Some(time);
                }
            }
        }
    }
    s
}

/// `true` if `event` passes the given filters: `kind` (exact kind name) and
/// `node` (raw id appearing in any role — sender, receiver or mover).
#[must_use]
pub fn matches(event: &TraceEvent, kind: Option<&str>, node: Option<u32>) -> bool {
    if let Some(k) = kind {
        if event.kind() != k {
            return false;
        }
    }
    match node {
        None => true,
        Some(n) => match *event {
            TraceEvent::Sent { from, to, .. } | TraceEvent::Delivered { from, to, .. } => {
                from.raw() == n || to.raw() == n
            }
            TraceEvent::Dropped { to, .. } => to.raw() == n,
            TraceEvent::Moved { node, .. } | TraceEvent::Died { node, .. } => node.raw() == n,
        },
    }
}

/// Cumulative energy spent by `node` over time — one `(time, total_joules)`
/// step per charging event, radio and mobility combined. Feed it a full
/// trace to plot a node's discharge curve.
#[must_use]
pub fn node_energy_timeline(events: &[TraceEvent], node: u32) -> Vec<(SimTime, f64)> {
    let mut total = 0.0;
    let mut out = Vec::new();
    for e in events {
        let spent = match *e {
            TraceEvent::Sent { from, energy, .. } if from.raw() == node => energy,
            TraceEvent::Moved { node: who, energy, .. } if who.raw() == node => energy,
            _ => continue,
        };
        total += spent;
        out.push((e.time(), total));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScenarioConfig {
        ScenarioConfig { mean_flow_bits: 2e5, ..ScenarioConfig::paper_default() }
    }

    #[test]
    fn recorded_trace_matches_instance_result() {
        let cfg = quick_cfg();
        let (result, events) =
            record_case(&cfg, 0, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
        assert!(result.completed);
        let s = summarize(&events);
        // Every ledger joule shows up in the trace (notification energy is
        // folded into the per-category map).
        assert!(
            (s.total_energy() - result.total_energy).abs() < 1e-9,
            "trace energy {} != ledger energy {}",
            s.total_energy(),
            result.total_energy
        );
        assert!(s.total_sent() > 0);
        assert!(s.span.is_some());
        // Deliveries happen along the flow path: every hop with deliveries
        // also recorded sends.
        for (&hop, &(sent, delivered)) in &s.hops {
            assert!(sent >= delivered, "hop {hop:?} delivered more than it sent");
        }
    }

    #[test]
    fn recording_is_deterministic() {
        let cfg = quick_cfg();
        let (r1, t1) =
            record_case(&cfg, 1, MobilityMode::CostUnaware, StrategyChoice::MinEnergy, 1 << 20);
        let (r2, t2) =
            record_case(&cfg, 1, MobilityMode::CostUnaware, StrategyChoice::MinEnergy, 1 << 20);
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn tracing_does_not_change_the_result() {
        let cfg = quick_cfg();
        let draw = draw_scenario(&cfg, 2);
        let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
        let untraced = crate::runner::run_instance(&cfg, &draw, MobilityMode::Informed, &strategy);
        let (traced, _) = run_instance_traced(&cfg, &draw, MobilityMode::Informed, &strategy, 4096);
        assert_eq!(untraced, traced);
    }

    #[test]
    fn filters_select_by_kind_and_node() {
        let cfg = quick_cfg();
        let (_, events) =
            record_case(&cfg, 0, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
        let sent: Vec<_> = events.iter().filter(|e| matches(e, Some("sent"), None)).collect();
        assert!(!sent.is_empty());
        assert!(sent.iter().all(|e| e.kind() == "sent"));
        let node0: Vec<_> = events.iter().filter(|e| matches(e, None, Some(0))).collect();
        assert!(!node0.is_empty());
        assert!(events.iter().all(|e| matches(e, None, None)));
    }

    #[test]
    fn timeline_is_monotone_and_ends_at_node_total() {
        let cfg = quick_cfg();
        let (_, events) =
            record_case(&cfg, 0, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
        let s = summarize(&events);
        let (&node, activity) =
            s.nodes.iter().find(|(_, a)| a.packets_sent > 0).expect("someone transmitted");
        let timeline = node_energy_timeline(&events, node);
        assert!(!timeline.is_empty());
        assert!(timeline.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
        let expected = activity.radio_energy + activity.mobility_energy;
        let last = timeline.last().expect("non-empty").1;
        assert!((last - expected).abs() < 1e-12);
    }

    #[test]
    fn summary_markdown_renders_all_sections() {
        let cfg = quick_cfg();
        let (_, events) =
            record_case(&cfg, 0, MobilityMode::Informed, StrategyChoice::MinEnergy, 1 << 20);
        let md = summarize(&events).to_markdown();
        assert!(md.contains("| kind | events |"));
        assert!(md.contains("| sent |"));
        assert!(md.contains("| node | sent |"));
        assert!(summarize(&[]).to_markdown().contains("empty trace"));
    }
}
