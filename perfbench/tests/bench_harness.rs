//! Harness checks: order statistics, the report format, metric names
//! against `BENCHMARK.json`, the fingerprint gate, cold memos per round,
//! and the grid-hit count.
//!
//! Workloads run at tiny sizes. They share process-wide state (memos,
//! thread count, metrics registry), so every test that runs one holds
//! [`guard`].

use std::sync::{Mutex, MutexGuard};

use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::clear_memos;
use imobif_experiments::topology::draw_scenario;
use imobif_netsim::TopologyView;
use imobif_obs::Json;
use imobif_perfbench::layers;
use imobif_perfbench::pins::{self, FIG6_SMOKE};
use imobif_perfbench::report::{self, Declared, Report, Row, Verdict, WorkloadReport};
use imobif_perfbench::spans::Spans;
use imobif_perfbench::stats::Summary;
use imobif_perfbench::workload::{self, Budget, Outcome, RunOpts, Size, Workload};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiny(workload: Workload) -> Size {
    match workload {
        Workload::ReproAll => Size { flows: 4, nodes: 0, sim_secs: 0, rounds: 2 },
        Workload::ScenarioFamilies => Size { flows: 4, nodes: 0, sim_secs: 0, rounds: 2 },
        Workload::Arena100k => Size { flows: 4, nodes: 1_000, sim_secs: 2, rounds: 2 },
        Workload::Arena5kSerial => Size { flows: 4, nodes: 500, sim_secs: 3, rounds: 2 },
    }
}

fn run_tiny(workload: Workload, traced: bool, pins: Option<workload::Fingerprint>) -> Outcome {
    let size = tiny(workload);
    let opts = RunOpts { seed: 11, size, budget: Budget::Rounds(size.rounds), traced, pins };
    workload::run(workload, &opts, &mut Spans::default())
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // Expected values from Python's statistics.median / quantiles(n=4).
    let cases: [(&[f64], f64, f64, f64); 5] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 4.0, 2.0, 6.0),
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 4.5, 2.25, 6.75),
        (&[1.0, 2.0, 3.0, 4.0], 2.5, 1.25, 3.75),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], 3.0, 1.5, 4.5),
        (&[3.5, 1.25], 2.375, 0.6875, 4.0625),
    ];
    for (xs, median, p25, p75) in cases {
        let s = Summary::of(xs);
        assert_eq!((s.median, s.p25, s.p75), (median, p25, p75), "{xs:?}");
        assert_eq!(s.n, xs.len());
    }
    let one = Summary::of(&[7.0]);
    assert_eq!((one.median, one.p25, one.p75, one.min, one.max), (7.0, 7.0, 7.0, 7.0, 7.0));
}

fn row(name: &str, unit: &str, xs: &[f64]) -> Row {
    Row { name: name.into(), unit: unit.into(), summary: Summary::of(xs) }
}

fn sample_report(heap: &[f64], events: &[f64]) -> Report {
    Report {
        seed: 2025,
        smoke: false,
        nproc: 2,
        batch_threads: 2,
        workloads: vec![WorkloadReport {
            name: "repro_all".into(),
            attempted: 12,
            failed: 0,
            pinned: true,
            fingerprint: vec![("fig6".into(), FIG6_SMOKE), ("ext".into(), u64::MAX)],
            end_to_end: vec![row("peak_heap_mb", "MB", heap)],
            per_layer: vec![row("kernel.events", "count", events)],
        }],
    }
}

#[test]
fn report_round_trips_through_obs_json() {
    let report = sample_report(&[1.7, 1.8123456789, 1.9, 2.0], &[3.0, 5.0, 4.0]);
    let text = report.to_json().render();
    let back = Report::from_json(&Json::parse(&text).expect("rendered JSON parses"));
    assert_eq!(back, Ok(report));
}

#[test]
fn result_line_holds_exactly_the_result_keys() {
    let report = sample_report(&[1.5, 2.5], &[3.0]);
    let line = Json::parse(&report.workloads[0].result_line(false)).expect("one JSON object");
    let Json::Obj(entries) = &line else { panic!("not an object") };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let heap = line.get("metrics").and_then(|m| m.get("peak_heap_mb")).expect("peak_heap_mb");
    assert_eq!(heap.get("value").and_then(Json::as_f64), Some(2.0));
    assert_eq!(heap.get("unit").and_then(Json::as_str), Some("MB"));
}

#[test]
fn compare_applies_bounds_and_quartile_spreads() {
    let declared = Declared::builtin();
    let old = sample_report(&[2.0, 2.0, 2.0], &[90.0, 100.0, 110.0, 120.0]);
    let verdicts = |heap: f64, events: f64| -> Vec<Verdict> {
        let new = sample_report(&[heap], &[events]);
        report::compare(&old, &new, &declared).iter().map(|c| c.verdict).collect()
    };
    let bound = declared.get("peak_heap_mb").and_then(|d| d.bound).expect("a bounded metric");
    assert_eq!(verdicts(2.0 * (1.0 + bound / 2.0), 105.0), [Verdict::Within, Verdict::Within]);
    assert_eq!(verdicts(2.0 * (1.0 + 2.0 * bound), 200.0), [Verdict::Worse, Verdict::Worse]);
    assert_eq!(verdicts(2.0 * (1.0 - 2.0 * bound), 50.0), [Verdict::Better, Verdict::Better]);
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_declares_valid_unique_names() {
    let declared = Declared::builtin();
    let mut names: Vec<&str> =
        declared.end_to_end.iter().chain(&declared.per_layer).map(|d| d.name.as_str()).collect();
    assert!(names.iter().all(|n| is_metric_name(n)), "{names:?}");
    assert!(declared.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(declared.end_to_end.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "metric names must be unique");
    let doc = Json::parse(report::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_declared_metric_is_printed_and_every_printed_one_declared() {
    let _g = guard();
    let declared = Declared::builtin();
    for w in Workload::ALL {
        let out = run_tiny(w, true, None);
        assert_eq!(out.failed, 0, "{}", w.name());
        let rows = report::rows(&out, &declared);
        let printed: Vec<String> = rows
            .lines()
            .iter()
            .map(|l| {
                let fields: Vec<&str> = l.split(' ').collect();
                assert_eq!(fields.len(), 9, "{l}");
                assert_eq!(fields[0], w.name());
                fields[1].to_string()
            })
            .collect();
        assert!(printed.iter().all(|n| is_metric_name(n)));
        let mut want: Vec<String> =
            declared.end_to_end.iter().chain(&declared.per_layer).map(|d| d.name.clone()).collect();
        let mut got = printed.clone();
        want.sort();
        got.sort();
        assert_eq!(got, want, "{}", w.name());
        let line = Json::parse(&rows.result_line(true)).expect("result line");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn an_untraced_run_reports_only_end_to_end_metrics() {
    let _g = guard();
    let declared = Declared::builtin();
    let rows = report::rows(&run_tiny(Workload::Arena5kSerial, false, None), &declared);
    assert_eq!(rows.end_to_end.len(), declared.end_to_end.len());
    assert!(rows.per_layer.is_empty());
}

#[test]
fn a_wrong_pin_fails_every_round() {
    let _g = guard();
    let out = run_tiny(Workload::Arena5kSerial, false, Some(vec![("summary".into(), 0)]));
    assert!(out.attempted > 0);
    let rows = report::rows(&out, &Declared::builtin());
    assert_eq!(rows.fail_frac(), 1.0);
    let line = Json::parse(&rows.result_line(false)).expect("result line");
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn rounds_start_from_cold_memos() {
    let _g = guard();
    let out = run_tiny(Workload::ReproAll, false, None);
    assert_eq!(out.rounds.len(), 2);
    let (a, b) = (out.rounds[0].memo, out.rounds[1].memo);
    let ratio = |m: imobif_experiments::runner::MemoStats| {
        m.case_hits as f64 / (m.case_hits + m.case_misses) as f64
    };
    assert!(a.case_misses > 0, "a cold round simulates cases");
    assert_eq!(ratio(a), ratio(b));
    assert_eq!(a, b);
}

#[test]
fn grid_hits_per_query_is_the_mean_neighbor_count() {
    let _g = guard();
    let cfg = ScenarioConfig {
        node_count: 800,
        area_side: 150.0 * 8f64.sqrt(),
        seed: 5,
        ..ScenarioConfig::paper_default()
    };
    let positions = draw_scenario(&cfg, 0).positions;
    clear_memos();
    let sets = std::slice::from_ref(&positions);
    let hits = layers::grid_query(sets, &layers::grids(sets, cfg.range), cfg.range).1;
    let n = positions.len();
    let degree = TopologyView::new(positions.clone(), vec![true; n], cfg.range).average_degree();
    assert!((hits - degree).abs() < 1e-12, "{hits} vs {degree}");
}

#[test]
fn smoke_pins_hold_the_existing_fig6_fingerprint() {
    let pinned = pins::lookup(Workload::ReproAll, true);
    assert!(pinned.contains(&("fig6".to_string(), FIG6_SMOKE)));
}
