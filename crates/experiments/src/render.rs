//! Rendering: a compiled scenario to its report and artifacts, and the
//! SVG placement figure.
//!
//! `render_scenario` is the one spec-to-artifacts path: `imobif <fig>`
//! compiles the builtin spec and `imobif scenario run` compiles any spec,
//! and both hand the result to it, so the two commands write the same
//! files.
//!
//! Paper Fig. 5 is a picture: node positions with marker size proportional
//! to residual energy, before and after each mobility strategy.
//! [`placements_svg`] renders the same picture from
//! [`crate::figures::fig5::Placement`] data — pure string building, no
//! dependencies.

use std::fmt::Write as _;

use crate::chart::{render_chart, Mark, Series};
use crate::figures::fig5::Placement;
use crate::figures::fig6::Fig6Panel;
use crate::figures::{ext, fig5, fig6, fig7, fig8};
use crate::scenario::{run_generic, Adapter, CompiledScenario};

/// A compiled scenario's rendered output.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Rendered {
    /// The markdown report.
    pub markdown: String,
    /// `(file name, content)` of each CSV/SVG artifact, in write order.
    pub artifacts: Vec<(String, String)>,
}

/// Runs `compiled` through its adapter and renders the result.
///
/// The figure adapters name their artifacts after the paper figure: a CSV
/// per figure (`fig6_ratios.csv`, …), the Fig. 5 placement SVG, one
/// scatter SVG per Fig. 6 panel (`fig6a_scatter.svg`, …) and the Fig. 8
/// CDF SVG. The generic adapter writes `<name>_cases.csv`. The extension
/// battery writes markdown only; its sweeps run
/// `flows.div_ceil(4).max(4)` replicates each, and its multi-flow arena
/// `ext.multiflow_concurrent` flows.
#[must_use]
pub(crate) fn render_scenario(compiled: &CompiledScenario) -> Rendered {
    let (cfg, strategy, flows) = (&compiled.runs[0].config, compiled.strategy, compiled.flows);
    let mut artifacts: Vec<(String, String)> = Vec::new();
    let markdown = match compiled.adapter {
        Adapter::Fig5 => {
            let r = fig5::from_config(cfg);
            artifacts.push(("fig5_placements.csv".into(), r.to_csv()));
            let svg = placements_svg(&[&r.original, &r.min_energy, &r.max_lifetime]);
            artifacts.push(("fig5_placements.svg".into(), svg));
            r.to_markdown()
        }
        Adapter::Fig6 => {
            let r = fig6::from_compiled_runs(&compiled.runs, strategy, flows);
            artifacts.push(("fig6_ratios.csv".into(), r.to_csv()));
            // One scatter SVG per panel, like the paper's scatter plots.
            for panel in &r.panels {
                artifacts
                    .push((format!("{}_scatter.svg", panel.variant.label), scatter_svg(panel)));
            }
            r.to_markdown()
        }
        Adapter::Fig7 => {
            let r = fig7::from_config(cfg, strategy, flows);
            artifacts.push(("fig7_notifications.csv".into(), r.to_csv()));
            r.to_markdown()
        }
        Adapter::Fig8 => {
            let r = fig8::from_config(cfg, strategy, flows);
            artifacts.push(("fig8_lifetime_cdf.csv".into(), r.to_csv()));
            let svg = render_chart(
                "fig8 — system lifetime ratio CDF",
                "system lifetime ratio",
                "cumulative fraction of flows",
                Mark::StepLine,
                &[
                    Series::new("cost-unaware", r.cost_unaware_cdf.clone()),
                    Series::new("imobif", r.informed_cdf.clone()),
                ],
                None,
            );
            artifacts.push(("fig8_lifetime_cdf.svg".into(), svg));
            r.to_markdown()
        }
        Adapter::Ext => {
            let (p, n, seed) = (&compiled.ext, flows.div_ceil(4).max(4), cfg.seed);
            [
                ext::run_estimate_sensitivity_with(p, n, seed).to_markdown(),
                ext::run_oracle_comparison(n, seed).to_markdown(),
                ext::run_initial_status_with(p, n, seed).to_markdown(),
                ext::run_step_sweep_with(p, n, seed).to_markdown(),
                ext::run_relay_selection_with(p, n, seed).to_markdown(),
                ext::run_horizon_ablation(n, seed).to_markdown(),
                ext::run_hybrid_sweep_with(p, n, seed).to_markdown(),
                ext::run_multiflow_with(p, seed).to_markdown(),
            ]
            .join("\n")
        }
        Adapter::Generic => {
            let r = run_generic(compiled);
            artifacts.push((format!("{}_cases.csv", compiled.name), r.to_csv()));
            r.to_markdown()
        }
    };
    Rendered { markdown, artifacts }
}

/// One Fig. 6 panel's scatter plot: per-flow energy ratios of cost-unaware
/// mobility and iMobif against the no-mobility baseline at 1.
fn scatter_svg(panel: &Fig6Panel) -> String {
    let cu: Vec<(f64, f64)> =
        panel.points.iter().map(|p| (p.index as f64, p.cost_unaware_ratio)).collect();
    let inf: Vec<(f64, f64)> =
        panel.points.iter().map(|p| (p.index as f64, p.informed_ratio)).collect();
    render_chart(
        &format!(
            "{} — k={}, α={}, mean {:.0} KB",
            panel.variant.label,
            panel.variant.k,
            panel.variant.alpha,
            panel.variant.mean_flow_bits / 8e3
        ),
        "flow index",
        "energy consumption ratio",
        Mark::Scatter,
        &[Series::new("cost-unaware", cu), Series::new("imobif", inf)],
        Some(1.0),
    )
}

/// Size of one rendered panel in pixels.
const PANEL: f64 = 320.0;
/// Padding inside each panel.
const PAD: f64 = 24.0;

/// Renders placements side by side as one SVG document.
///
/// Markers are circles whose area is proportional to residual energy (the
/// paper: "the size of a node is proportional to its residual energy");
/// the flow path is drawn as a polyline; the source–destination chord as a
/// dashed line.
///
/// # Example
///
/// ```rust
/// use imobif_experiments::figures::fig5;
/// use imobif_experiments::render::placements_svg;
///
/// let result = fig5::run(7);
/// let svg = placements_svg(&[&result.original, &result.min_energy, &result.max_lifetime]);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("<circle"));
/// ```
#[must_use]
pub fn placements_svg(placements: &[&Placement]) -> String {
    let width = PANEL * placements.len() as f64;
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{PANEL}" viewBox="0 0 {width} {PANEL}">"#
    );
    let _ = write!(svg, r#"<rect width="{width}" height="{PANEL}" fill="white"/>"#);

    // Common scale across panels so movement is visually comparable.
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    let mut max_energy: f64 = 1e-12;
    for p in placements {
        for n in &p.nodes {
            min_x = min_x.min(n.position.x);
            max_x = max_x.max(n.position.x);
            min_y = min_y.min(n.position.y);
            max_y = max_y.max(n.position.y);
            max_energy = max_energy.max(n.residual_energy);
        }
    }
    let span = (max_x - min_x).max(max_y - min_y).max(1e-9);
    let scale = (PANEL - 2.0 * PAD) / span;

    for (i, p) in placements.iter().enumerate() {
        let ox = i as f64 * PANEL;
        let sx = |x: f64| ox + PAD + (x - min_x) * scale;
        let sy = |y: f64| PANEL - PAD - (y - min_y) * scale;
        // Panel frame + label.
        let _ = write!(
            svg,
            r##"<rect x="{:.1}" y="0" width="{PANEL}" height="{PANEL}" fill="none" stroke="#ccc"/>"##,
            ox
        );
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="16" font-family="sans-serif" font-size="13">{}</text>"#,
            ox + 8.0,
            xml_escape(&p.label)
        );
        if let (Some(first), Some(last)) = (p.nodes.first(), p.nodes.last()) {
            // Dashed source-destination chord.
            let _ = write!(
                svg,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#999" stroke-dasharray="4 3"/>"##,
                sx(first.position.x),
                sy(first.position.y),
                sx(last.position.x),
                sy(last.position.y)
            );
        }
        // The flow path.
        let pts: Vec<String> = p
            .nodes
            .iter()
            .map(|n| format!("{:.1},{:.1}", sx(n.position.x), sy(n.position.y)))
            .collect();
        let _ = write!(
            svg,
            r##"<polyline points="{}" fill="none" stroke="#4477aa" stroke-width="1.5"/>"##,
            pts.join(" ")
        );
        // Nodes: area ∝ residual energy.
        for n in &p.nodes {
            let r = 3.0 + 9.0 * (n.residual_energy / max_energy).max(0.0).sqrt();
            let _ = write!(
                svg,
                r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="#4477aa" fill-opacity="0.6" stroke="#225588"/>"##,
                sx(n.position.x),
                sy(n.position.y),
                r
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig5::{NodeSnapshot, Placement};
    use imobif_geom::Point2;

    fn placement(label: &str, energy: f64) -> Placement {
        Placement {
            label: label.to_string(),
            nodes: vec![
                NodeSnapshot { position: Point2::new(0.0, 0.0), residual_energy: energy },
                NodeSnapshot { position: Point2::new(30.0, 10.0), residual_energy: energy / 2.0 },
                NodeSnapshot { position: Point2::new(60.0, 0.0), residual_energy: energy },
            ],
            chord_deviation: 10.0,
            spacing_spread: 0.5,
        }
    }

    #[test]
    fn svg_structure_is_complete() {
        let a = placement("before", 100.0);
        let b = placement("after", 100.0);
        let svg = placements_svg(&[&a, &b]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert_eq!(svg.matches("<text").count(), 2);
        assert!(svg.contains("before"));
        assert!(svg.contains("after"));
    }

    #[test]
    fn marker_size_tracks_energy() {
        let p = placement("x", 100.0);
        let svg = placements_svg(&[&p]);
        // Full-energy node radius: 3 + 9 = 12; half-energy: 3 + 9/sqrt(2) ≈ 9.4.
        assert!(svg.contains(r#"r="12.0""#));
        assert!(svg.contains(r#"r="9.4""#));
    }

    #[test]
    fn labels_are_escaped() {
        let mut p = placement("a<b&c", 10.0);
        p.label = "a<b&c".to_string();
        let svg = placements_svg(&[&p]);
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("a<b"));
    }
}
