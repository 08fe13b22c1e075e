//! Metric rows, the report file, the comparison against an older report,
//! and the one-line result.
//!
//! Metric names, units, directions and bounds come from the repository's
//! `BENCHMARK.json`, embedded at build time; a run must produce exactly the
//! declared metrics.

use imobif_obs::Json;

use crate::stats::{ratio, Summary};
use imobif_experiments::runner::MemoStats;

use crate::workload::{Fingerprint, Outcome, Round, FAMILIES};

/// `BENCHMARK.json`, as built into the binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the old median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

/// The declared metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// End-to-end metrics, printed with tracing off.
    pub end_to_end: Vec<Decl>,
    /// Per-layer metrics, from the traced rounds and microbenchmarks.
    pub per_layer: Vec<Decl>,
}

impl Declared {
    /// Parses the metric lists of a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<Decl>, String> {
            let items = doc.get(key).and_then(Json::as_arr).ok_or(format!("no `{key}` list"))?;
            items
                .iter()
                .map(|m| {
                    let s =
                        |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("{key}: no `{k}`"));
                    let better = match s("better")? {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("{key}: bad direction `{other}`")),
                    };
                    Ok(Decl {
                        name: s("name")?.to_string(),
                        unit: s("unit")?.to_string(),
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    /// The metrics built into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the embedded `BENCHMARK.json` is malformed.
    #[must_use]
    pub fn builtin() -> Declared {
        Declared::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    /// The declaration of `name`, in either list.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Decl> {
        self.end_to_end.iter().chain(&self.per_layer).find(|d| d.name == name)
    }
}

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Its samples, summarized.
    pub summary: Summary,
}

/// Everything reported for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Rounds run.
    pub attempted: u64,
    /// Rounds that panicked or broke their fingerprint.
    pub failed: u64,
    /// Whether the fingerprint was checked against pins.
    pub pinned: bool,
    /// The first round's fingerprint.
    pub fingerprint: Fingerprint,
    /// End-to-end rows.
    pub end_to_end: Vec<Row>,
    /// Per-layer rows (empty for an untraced run).
    pub per_layer: Vec<Row>,
}

impl WorkloadReport {
    /// Failed rounds over attempted rounds.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The printed lines: `workload metric median unit n p25 p75 min max`.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|r| {
                let s = &r.summary;
                format!(
                    "{} {} {} {} {} {} {} {} {}",
                    self.name, r.name, s.median, r.unit, s.n, s.p25, s.p75, s.min, s.max
                )
            })
            .collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and the
    /// median of each end-to-end (`per_layer == false`) or per-layer row.
    #[must_use]
    pub fn result_line(&self, per_layer: bool) -> String {
        let rows = if per_layer { &self.per_layer } else { &self.end_to_end };
        let metrics = rows
            .iter()
            .map(|r| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(r.summary.median)),
                    ("unit".into(), Json::str(r.unit.clone())),
                ]);
                (r.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Per-layer metric of each figure or spec call's share of the round.
const CALL_SHARES: [(&str, &str); 9] = [
    ("fig5", "runner.fig5_share"),
    ("fig6", "runner.fig6_share"),
    ("fig7", "runner.fig7_share"),
    ("fig8", "runner.fig8_share"),
    ("ext", "runner.ext_share"),
    (FAMILIES[0], "runner.churn_share"),
    (FAMILIES[1], "runner.clustered_urban_share"),
    (FAMILIES[2], "runner.hetero_batteries_share"),
    (FAMILIES[3], "runner.small_world_share"),
];

/// Turns a workload run into rows, in declaration order.
///
/// # Panics
///
/// Panics if the run produced a metric that is not declared, or (when no
/// round failed) left a declared metric out: both are benchmark bugs.
#[must_use]
pub fn rows(out: &Outcome, declared: &Declared) -> WorkloadReport {
    let mut samples: Vec<(&str, Vec<f64>)> = Vec::new();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { out.rounds.iter().map(f).collect() };
    let traced = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { out.traced.iter().map(f).collect() };
    // Host-speed-normalized throughput: work per reference-job duration.
    samples.push(("work_per_ref", per_round(&|r| r.work * r.ref_s / r.wall_s)));
    samples.push(("peak_heap_mb", per_round(&|r| r.peak_bytes as f64 / 1e6)));
    samples.push(("setup_s", out.setup.clone()));
    let traced_run = !out.traced.is_empty() && !out.rounds.is_empty();
    if traced_run {
        samples.push(("round.wall_s", per_round(&|r| r.wall_s)));
        samples.push(("round.work", per_round(&|r| r.work)));
        samples.push(("round.ref_s", per_round(&|r| r.ref_s)));
        samples.push(("alloc.per_round", per_round(&|r| r.allocs as f64)));
        for (call, name) in CALL_SHARES {
            let share = |r: &Round| {
                r.calls.iter().find(|(c, _)| *c == call).map_or(0.0, |&(_, s)| s) / r.wall_s
            };
            samples.push((name, per_round(&share)));
        }
        let memo = |f: fn(&MemoStats) -> (u64, u64)| {
            per_round(&|r| {
                let (hits, misses) = f(&r.memo);
                ratio(hits as f64, (hits + misses) as f64)
            })
        };
        samples.push(("runner.case_memo_hit_ratio", memo(|m| (m.case_hits, m.case_misses))));
        samples.push((
            "runner.baseline_memo_hit_ratio",
            memo(|m| (m.baseline_hits, m.baseline_misses)),
        ));
        samples.push(("runner.draw_memo_hit_ratio", memo(|m| (m.draw_hits, m.draw_misses))));
        samples.push(("runner.cases_simulated", per_round(&|r| r.memo.case_misses as f64)));
        for (i, &(name, _)) in out.traced[0].layer.iter().enumerate() {
            samples.push((name, traced(&|r| r.layer[i].1)));
        }
        let wall = Summary::of(&per_round(&|r| r.wall_s)).median;
        let speed = Summary::of(&per_round(&|r| r.wall_s / r.ref_s)).median;
        let events =
            |r: &Round| r.layer.iter().find(|(n, _)| *n == "kernel.events").map_or(0.0, |e| e.1);
        samples.push(("kernel.events_per_s", traced(&|r| events(r) / wall)));
        samples.push(("trace.overhead_ratio", traced(&|r| r.wall_s / r.ref_s / speed)));
        samples.extend(out.layers.iter().map(|(n, v)| (*n, v.clone())));
    }

    let mut report = WorkloadReport {
        name: out.workload.name().to_string(),
        attempted: out.attempted,
        failed: out.failed,
        pinned: out.pinned,
        fingerprint: out.fingerprint.clone(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for (name, _) in &samples {
        assert!(declared.get(name).is_some(), "metric `{name}` is not declared in BENCHMARK.json");
    }
    let pick = |decls: &[Decl]| -> Vec<Row> {
        decls
            .iter()
            .filter_map(|d| {
                let (_, v) = samples.iter().find(|(n, _)| *n == d.name)?;
                (!v.is_empty()).then(|| Row {
                    name: d.name.clone(),
                    unit: d.unit.clone(),
                    summary: Summary::of(v),
                })
            })
            .collect()
    };
    report.end_to_end = pick(&declared.end_to_end);
    if traced_run {
        report.per_layer = pick(&declared.per_layer);
    }
    if out.failed == 0 {
        assert_eq!(report.end_to_end.len(), declared.end_to_end.len(), "end-to-end metric missing");
        if traced_run {
            assert_eq!(
                report.per_layer.len(),
                declared.per_layer.len(),
                "per-layer metric missing"
            );
        }
    }
    report
}

/// A whole run's report, as written to `bench_report.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Input seed.
    pub seed: u64,
    /// Whether the reduced `--smoke` sizes ran.
    pub smoke: bool,
    /// CPUs the host offers.
    pub nproc: usize,
    /// Worker threads of the batch workloads.
    pub batch_threads: usize,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadReport>,
}

fn row_json(r: &Row) -> Json {
    let s = &r.summary;
    Json::Obj(vec![
        ("name".into(), Json::str(r.name.clone())),
        ("unit".into(), Json::str(r.unit.clone())),
        ("n".into(), Json::Num(s.n as f64)),
        ("median".into(), Json::Num(s.median)),
        ("p25".into(), Json::Num(s.p25)),
        ("p75".into(), Json::Num(s.p75)),
        ("min".into(), Json::Num(s.min)),
        ("max".into(), Json::Num(s.max)),
    ])
}

fn row_from(j: &Json) -> Result<Row, String> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("row: no `{k}`"));
    let s = |k: &str| j.get(k).and_then(Json::as_str).ok_or(format!("row: no `{k}`"));
    Ok(Row {
        name: s("name")?.to_string(),
        unit: s("unit")?.to_string(),
        summary: Summary {
            n: f("n")? as usize,
            median: f("median")?,
            p25: f("p25")?,
            p75: f("p75")?,
            min: f("min")?,
            max: f("max")?,
        },
    })
}

impl Report {
    /// The report as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let fingerprint = w
                    .fingerprint
                    .iter()
                    .map(|(part, fnv)| {
                        Json::Obj(vec![
                            ("part".into(), Json::str(part.clone())),
                            ("fnv".into(), Json::hex(*fnv)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::str(w.name.clone())),
                    ("attempted".into(), Json::Num(w.attempted as f64)),
                    ("failed".into(), Json::Num(w.failed as f64)),
                    ("fail_frac".into(), Json::Num(w.fail_frac())),
                    ("pinned".into(), Json::Bool(w.pinned)),
                    ("fingerprint".into(), Json::Arr(fingerprint)),
                    ("end_to_end".into(), Json::Arr(w.end_to_end.iter().map(row_json).collect())),
                    ("per_layer".into(), Json::Arr(w.per_layer.iter().map(row_json).collect())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("seed".into(), Json::hex(self.seed)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("batch_threads".into(), Json::Num(self.batch_threads as f64)),
            ("workloads".into(), Json::Arr(workloads)),
        ])
    }

    /// Reads a report back from [`Report::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(j: &Json) -> Result<Report, String> {
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).ok_or(format!("no `{k}`"));
        let flag = |j: &Json, k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("no `{k}`")),
        };
        let arr = |j: &Json, k: &str| -> Result<Vec<Json>, String> {
            Ok(j.get(k).and_then(Json::as_arr).ok_or(format!("no `{k}`"))?.to_vec())
        };
        let workloads = arr(j, "workloads")?
            .iter()
            .map(|w| {
                let fingerprint = arr(w, "fingerprint")?
                    .iter()
                    .map(|p| {
                        let part = p.get("part").and_then(Json::as_str).ok_or("no `part`")?;
                        let fnv = p.get("fnv").and_then(Json::as_hex).ok_or("no `fnv`")?;
                        Ok((part.to_string(), fnv))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadReport {
                    name: w.get("name").and_then(Json::as_str).ok_or("no `name`")?.to_string(),
                    attempted: num(w, "attempted")?,
                    failed: num(w, "failed")?,
                    pinned: flag(w, "pinned")?,
                    fingerprint,
                    end_to_end: arr(w, "end_to_end")?
                        .iter()
                        .map(row_from)
                        .collect::<Result<_, _>>()?,
                    per_layer: arr(w, "per_layer")?
                        .iter()
                        .map(row_from)
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            seed: j.get("seed").and_then(Json::as_hex).ok_or("no `seed`")?,
            smoke: flag(j, "smoke")?,
            nproc: num(j, "nproc")? as usize,
            batch_threads: num(j, "batch_threads")? as usize,
            workloads,
        })
    }
}

/// How a metric moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the allowance.
    Better,
    /// Worsened beyond the allowance.
    Worse,
    /// Inside the allowance.
    Within,
}

impl Verdict {
    /// Lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Old median.
    pub old: f64,
    /// New median.
    pub new: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `new` against `old` for every row both hold. An end-to-end
/// row moves when its median changes by more than the metric's bound (a
/// share of the old median); a per-layer row moves when its new median
/// leaves the old row's p25–p75 range.
#[must_use]
pub fn compare(old: &Report, new: &Report, declared: &Declared) -> Vec<Comparison> {
    let mut out = Vec::new();
    for w in &new.workloads {
        let Some(ow) = old.workloads.iter().find(|o| o.name == w.name) else { continue };
        for (rows, old_rows) in [(&w.end_to_end, &ow.end_to_end), (&w.per_layer, &ow.per_layer)] {
            for r in rows {
                let (Some(o), Some(d)) =
                    (old_rows.iter().find(|o| o.name == r.name), declared.get(&r.name))
                else {
                    continue;
                };
                let (new, old) = (r.summary.median, o.summary.median);
                let (up, down) = match d.bound {
                    Some(b) => (new > old * (1.0 + b), new < old * (1.0 - b)),
                    None => (new > o.summary.p75, new < o.summary.p25),
                };
                let verdict = match (up, down, d.better) {
                    (true, _, Better::Higher) | (_, true, Better::Lower) => Verdict::Better,
                    (true, _, Better::Lower) | (_, true, Better::Higher) => Verdict::Worse,
                    _ => Verdict::Within,
                };
                out.push(Comparison {
                    workload: w.name.clone(),
                    metric: r.name.clone(),
                    old,
                    new,
                    verdict,
                });
            }
        }
    }
    out
}
