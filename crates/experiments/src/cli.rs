//! Shared command-line implementation behind the `imobif` and
//! `imobif-experiments` binaries.
//!
//! The command families:
//!
//! * figure regeneration (the default): `[all|fig5|fig6|fig7|fig8|ext]`
//!   with `--flows/--seed/--out/--threads`, plus the observability flags
//!   `--metrics` (write a run manifest + metrics JSON) and `--prom`
//!   (additionally export Prometheus text format);
//! * `scenario list|validate|print|run` — the declarative scenario layer:
//!   run any builtin (`examples/scenarios/*.toml`) or user spec file
//!   through its adapter, with the same artifact and manifest machinery;
//! * `trace record|summary|dump` — record a traced flow case to JSONL and
//!   analyze recordings offline;
//! * `spans summary|dump|flame` — run the sharded scale workload with span
//!   tracing on and report phase wall-time (markdown table, JSONL stream,
//!   or collapsed-stack text + flamegraph SVG);
//! * `manifest-check FILE` — validate a run-manifest artifact.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use imobif::MobilityMode;
use imobif_netsim::trace::{events_from_jsonl, events_to_jsonl};
use imobif_obs::{fnv1a64, PhaseTimer, Registry, RunManifest, ScenarioInfo};

use crate::config::{check_flows, ScenarioConfig, MAX_FLOWS, MAX_NODES};
use crate::render::render_scenario;
use crate::runner::StrategyChoice;
use crate::scenario::{CompiledScenario, ScenarioSpec};
use crate::spans_tools::{self, SpansRunSpec};
use crate::trace_tools;

const USAGE: &str = "usage:
  imobif [all|fig5|fig6|fig7|fig8|ext] [--flows N] [--seed S] [--out DIR]
         [--threads T] [--metrics] [--prom]
  imobif scenario list
  imobif scenario validate FILE...
  imobif scenario print NAME|FILE
  imobif scenario run NAME|FILE [--flows N] [--seed S] [--out DIR]
         [--threads T] [--metrics] [--prom] [--fnv]
  imobif trace record [--out FILE] [--seed S] [--index I]
         [--mode no-mobility|cost-unaware|informed]
         [--strategy min-energy|max-lifetime] [--cap N]
  imobif trace summary FILE
  imobif trace dump FILE [--kind K] [--node N] [--limit L]
  imobif spans summary|dump|flame [--nodes N] [--flows F] [--shards K]
         [--threads T] [--secs S] [--seed SEED] [--span-cap N]
         [--progress] [--out DIR]
  imobif manifest-check FILE";

/// Runs the CLI against `argv` (program name already stripped) and returns
/// the process exit code.
#[must_use]
pub fn run(argv: &[String]) -> i32 {
    let result = match argv.first().map(String::as_str) {
        Some("scenario") => scenario_cmd(&argv[1..]),
        Some("trace") => trace_cmd(&argv[1..]),
        Some("spans") => spans_cmd(&argv[1..]),
        Some("manifest-check") => manifest_check_cmd(&argv[1..]),
        _ => figures_cmd(argv),
    };
    match result {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[derive(Debug)]
struct FigureArgs {
    targets: Vec<String>,
    flows: u64,
    seed: u64,
    out: Option<PathBuf>,
    metrics: bool,
    prom: bool,
}

fn parse_figure_args(argv: &[String]) -> Result<FigureArgs, String> {
    let mut args = FigureArgs {
        targets: Vec::new(),
        flows: 100,
        seed: 2025,
        out: None,
        metrics: false,
        prom: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "all" | "fig5" | "fig6" | "fig7" | "fig8" | "ext" => args.targets.push(a.clone()),
            "--flows" => {
                let flows = parse_value(it.next(), "--flows")?;
                args.flows = check_flows(flows).map_err(|e| format!("bad --flows: {e}"))?;
            }
            "--seed" => args.seed = parse_value(it.next(), "--seed")?,
            "--out" => {
                args.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            "--threads" => {
                // 0 = automatic; results are byte-identical at any setting.
                let t: usize = parse_value(it.next(), "--threads")?;
                crate::runner::set_thread_count(t);
            }
            "--metrics" => args.metrics = true,
            "--prom" => args.prom = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.targets.is_empty() {
        args.targets.push("all".to_string());
    }
    Ok(args)
}

fn parse_value<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

fn write_artifact(out: Option<&Path>, name: &str, content: &str) {
    if let Some(dir) = out {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(name);
        if let Err(e) = fs::write(&path, content) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// What a command records about its run in `run_manifest.json`, besides
/// the phase timings and the metrics snapshot every manifest carries.
struct RunInfo {
    tool: &'static str,
    targets: Vec<String>,
    config_hash: u64,
    seed: u64,
    flows: u64,
    threads: usize,
    scenario: Option<ScenarioInfo>,
}

/// Writes `run_manifest.json` into `out` (default: the working directory),
/// embedding the full snapshot of `registry` so one JSON file is the
/// complete run artifact, and with `prom` the same metrics as
/// `metrics.prom`.
fn write_manifest(
    out: Option<&Path>,
    info: RunInfo,
    timer: PhaseTimer,
    registry: &Registry,
    prom: bool,
) {
    let dir = Some(out.unwrap_or(Path::new(".")));
    let snapshot = registry.snapshot();
    let manifest = RunManifest {
        tool: info.tool.to_string(),
        targets: info.targets,
        config_hash: info.config_hash,
        seed: info.seed,
        flows: u32::try_from(info.flows).unwrap_or(u32::MAX),
        threads: info.threads,
        phases: timer.into_phases(),
        trace: crate::obs::trace_health(&snapshot),
        scenario: info.scenario,
        metrics: snapshot,
    };
    write_artifact(dir, "run_manifest.json", &manifest.render());
    if prom {
        write_artifact(dir, "metrics.prom", &manifest.metrics.to_prometheus());
    }
}

/// Renders `compiled` ([`render_scenario`]), prints its markdown and
/// writes its artifacts into `out`; with `fnv`, also prints each
/// artifact's FNV-1a 64.
fn emit(compiled: &CompiledScenario, out: Option<&Path>, fnv: bool) {
    let rendered = render_scenario(compiled);
    println!("{}", rendered.markdown);
    for (name, content) in &rendered.artifacts {
        write_artifact(out, name, content);
        if fnv {
            println!("fnv {name} {:#018x}", fnv1a64(content.as_bytes()));
        }
    }
}

/// FNV-1a over the canonical rendering of the run configuration: the
/// manifest's config hash changes whenever any input that can change the
/// output does.
fn config_hash(args: &FigureArgs) -> u64 {
    let canonical = format!(
        "targets={:?};flows={};seed={};threads={}",
        args.targets,
        args.flows,
        args.seed,
        crate::runner::thread_count()
    );
    fnv1a64(canonical.as_bytes())
}

/// `imobif [all|fig5|…|ext]`: each target is its builtin spec, compiled
/// with `--seed`/`--flows` and rendered exactly as `imobif scenario run`
/// renders it.
fn figures_cmd(argv: &[String]) -> Result<(), String> {
    let args = parse_figure_args(argv)?;
    if args.prom && !args.metrics {
        return Err("--prom requires --metrics".to_string());
    }
    let registry = if args.metrics { crate::obs::enable_metrics() } else { crate::obs::registry() };
    let mut timer = PhaseTimer::new();
    println!("# iMobif reproduction — figure regeneration");
    println!("\nflows per experiment: {}; seed: {}\n", args.flows, args.seed);
    for name in ["fig5", "fig6", "fig7", "fig8", "ext"] {
        if !args.targets.iter().any(|t| t == name || t == "all") {
            continue;
        }
        let t = Instant::now();
        timer.start(name);
        let compiled = crate::scenario::compile_builtin(name, args.seed, Some(args.flows));
        emit(&compiled, args.out.as_deref(), false);
        eprintln!("{name} done in {:.1}s", t.elapsed().as_secs_f64());
    }

    if args.metrics {
        crate::obs::publish_memo_metrics(&registry);
        let info = RunInfo {
            tool: "imobif-experiments",
            targets: args.targets.clone(),
            config_hash: config_hash(&args),
            seed: args.seed,
            flows: args.flows,
            threads: crate::runner::thread_count(),
            scenario: None,
        };
        write_manifest(args.out.as_deref(), info, timer, &registry, args.prom);
    }
    Ok(())
}

fn scenario_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("list") => scenario_list(),
        Some("validate") => scenario_validate(&argv[1..]),
        Some("print") => scenario_print(&argv[1..]),
        Some("run") => scenario_run(&argv[1..]),
        _ => Err(USAGE.to_string()),
    }
}

/// Resolves `NAME|FILE`: a builtin scenario name wins, anything else is
/// read from disk. Returns the parsed spec.
fn load_spec(arg: &str) -> Result<ScenarioSpec, String> {
    let text = match crate::scenario::builtin_source(arg) {
        Some(src) => src.to_string(),
        None => fs::read_to_string(arg).map_err(|e| {
            format!("`{arg}` is not a builtin scenario and cannot be read as a file: {e}")
        })?,
    };
    ScenarioSpec::parse(&text).map_err(|e| format!("{arg}: {e}"))
}

fn scenario_list() -> Result<(), String> {
    println!("builtin scenarios (examples/scenarios/*.toml):\n");
    for name in crate::scenario::BUILTIN_NAMES {
        let spec = crate::scenario::builtin(name).expect("registered builtin");
        let runs = if spec.variants.is_empty() { 1 } else { spec.variants.len() };
        println!("  {name:<18} {:<8} {} run(s) — {}", spec.adapter.name(), runs, spec.description);
    }
    Ok(())
}

fn scenario_validate(argv: &[String]) -> Result<(), String> {
    if argv.is_empty() {
        return Err(USAGE.to_string());
    }
    let mut failures = 0usize;
    for arg in argv {
        match load_spec(arg).and_then(|spec| spec.compile().map_err(|e| format!("{arg}: {e}"))) {
            Ok(compiled) => {
                println!(
                    "ok: {arg} ({} run(s), adapter {})",
                    compiled.runs.len(),
                    compiled.adapter.name()
                );
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} spec(s) failed validation", argv.len()));
    }
    Ok(())
}

fn scenario_print(argv: &[String]) -> Result<(), String> {
    let [arg] = argv else { return Err(USAGE.to_string()) };
    let spec = load_spec(arg)?;
    spec.compile().map_err(|e| format!("{arg}: {e}"))?;
    print!("{}", spec.to_toml());
    Ok(())
}

struct ScenarioRunArgs {
    target: String,
    flows: Option<u64>,
    seed: Option<u64>,
    out: Option<PathBuf>,
    metrics: bool,
    prom: bool,
    fnv: bool,
}

fn parse_scenario_run_args(argv: &[String]) -> Result<ScenarioRunArgs, String> {
    let mut target = None;
    let mut args = ScenarioRunArgs {
        target: String::new(),
        flows: None,
        seed: None,
        out: None,
        metrics: false,
        prom: false,
        fnv: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flows" => args.flows = Some(parse_value(it.next(), "--flows")?),
            "--seed" => args.seed = Some(parse_value(it.next(), "--seed")?),
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--threads" => {
                let t: usize = parse_value(it.next(), "--threads")?;
                crate::runner::set_thread_count(t);
            }
            "--metrics" => args.metrics = true,
            "--prom" => args.prom = true,
            "--fnv" => args.fnv = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    args.target = target.ok_or("scenario run needs a NAME or FILE")?;
    Ok(args)
}

fn scenario_run(argv: &[String]) -> Result<(), String> {
    let args = parse_scenario_run_args(argv)?;
    if args.prom && !args.metrics {
        return Err("--prom requires --metrics".to_string());
    }
    let spec = load_spec(&args.target)?;
    let compiled =
        spec.compile_with(args.seed, args.flows).map_err(|e| format!("{}: {e}", args.target))?;
    let registry = if args.metrics { crate::obs::enable_metrics() } else { crate::obs::registry() };
    let mut timer = PhaseTimer::new();
    timer.start("run");
    let seed = compiled.runs[0].config.seed;
    println!("# scenario `{}` — adapter {}", compiled.name, compiled.adapter.name());
    println!("\nflows per run: {}; seed: {}\n", compiled.flows, seed);
    emit(&compiled, args.out.as_deref(), args.fnv);

    if args.metrics {
        crate::obs::publish_memo_metrics(&registry);
        let spec_toml = spec.to_toml();
        let info = RunInfo {
            tool: "imobif-scenario",
            targets: vec![compiled.name.clone()],
            config_hash: fnv1a64(
                format!("scenario={spec_toml};flows={};seed={seed}", compiled.flows).as_bytes(),
            ),
            seed,
            flows: compiled.flows,
            threads: crate::runner::thread_count(),
            scenario: Some(ScenarioInfo {
                name: compiled.name.clone(),
                spec_hash: fnv1a64(spec_toml.as_bytes()),
                adapter: compiled.adapter.name().to_string(),
                runs: u32::try_from(compiled.runs.len()).unwrap_or(u32::MAX),
            }),
        };
        write_manifest(args.out.as_deref(), info, timer, &registry, args.prom);
    }
    Ok(())
}

fn parse_mode(s: &str) -> Result<MobilityMode, String> {
    match s {
        "no-mobility" => Ok(MobilityMode::NoMobility),
        "cost-unaware" => Ok(MobilityMode::CostUnaware),
        "informed" => Ok(MobilityMode::Informed),
        other => Err(format!("unknown mode `{other}` (no-mobility|cost-unaware|informed)")),
    }
}

fn parse_choice(s: &str) -> Result<StrategyChoice, String> {
    match s {
        "min-energy" => Ok(StrategyChoice::MinEnergy),
        "max-lifetime" => Ok(StrategyChoice::MaxLifetime),
        other => Err(format!("unknown strategy `{other}` (min-energy|max-lifetime)")),
    }
}

fn trace_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("record") => trace_record(&argv[1..]),
        Some("summary") => trace_summary(&argv[1..]),
        Some("dump") => trace_dump(&argv[1..]),
        _ => Err(USAGE.to_string()),
    }
}

fn trace_record(argv: &[String]) -> Result<(), String> {
    let mut out: Option<PathBuf> = None;
    let mut seed: u64 = 2025;
    let mut index: u64 = 0;
    let mut mode = MobilityMode::Informed;
    let mut choice = StrategyChoice::MinEnergy;
    let mut cap: usize = 1 << 20;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--seed" => seed = parse_value(it.next(), "--seed")?,
            "--index" => index = parse_value(it.next(), "--index")?,
            "--mode" => mode = parse_mode(it.next().ok_or("--mode needs a value")?)?,
            "--strategy" => choice = parse_choice(it.next().ok_or("--strategy needs a value")?)?,
            "--cap" => cap = parse_value(it.next(), "--cap")?,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if cap == 0 {
        return Err("bad --cap: the trace ring must hold at least 1 event".to_string());
    }
    let cfg = ScenarioConfig { seed, ..ScenarioConfig::paper_default() };
    let (result, events) = trace_tools::record_case(&cfg, index, mode, choice, cap);
    let jsonl = events_to_jsonl(&events);
    eprintln!(
        "recorded {} events ({} delivered bits, {:.6} J total) for seed {seed} index {index}",
        events.len(),
        result.delivered_bits,
        result.total_energy
    );
    match out {
        Some(path) => {
            fs::write(&path, &jsonl)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

fn read_trace(path: &str) -> Result<Vec<imobif_netsim::trace::TraceEvent>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    events_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn trace_summary(argv: &[String]) -> Result<(), String> {
    let path = argv.first().ok_or(USAGE)?;
    if argv.len() > 1 {
        return Err(USAGE.to_string());
    }
    let events = read_trace(path)?;
    print!("{}", trace_tools::summarize(&events).to_markdown());
    Ok(())
}

fn trace_dump(argv: &[String]) -> Result<(), String> {
    let path = argv.first().ok_or(USAGE)?;
    let mut kind: Option<String> = None;
    let mut node: Option<u32> = None;
    let mut limit: usize = usize::MAX;
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kind" => kind = Some(it.next().ok_or("--kind needs a value")?.clone()),
            "--node" => node = Some(parse_value(it.next(), "--node")?),
            "--limit" => limit = parse_value(it.next(), "--limit")?,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let events = read_trace(path)?;
    let mut shown = 0usize;
    for e in &events {
        if !trace_tools::matches(e, kind.as_deref(), node) {
            continue;
        }
        if shown >= limit {
            break;
        }
        println!("{}", e.to_json().render());
        shown += 1;
    }
    eprintln!("{shown} of {} events matched", events.len());
    Ok(())
}

fn parse_spans_args(argv: &[String]) -> Result<(SpansRunSpec, Option<PathBuf>), String> {
    let mut spec = SpansRunSpec::default();
    let mut out: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => spec.nodes = parse_value(it.next(), "--nodes")?,
            "--flows" => spec.flows = parse_value(it.next(), "--flows")?,
            "--shards" => spec.shards = parse_value(it.next(), "--shards")?,
            "--threads" => spec.threads = parse_value(it.next(), "--threads")?,
            "--secs" => spec.secs = parse_value(it.next(), "--secs")?,
            "--seed" => spec.seed = parse_value(it.next(), "--seed")?,
            "--span-cap" => spec.span_cap = parse_value(it.next(), "--span-cap")?,
            "--progress" => spec.progress = true,
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if spec.shards == 0 {
        return Err("bad --shards: must be positive".to_string());
    }
    check_range("--nodes", spec.nodes as u64, 2, MAX_NODES as u64)?;
    check_range("--flows", spec.flows as u64, 0, MAX_FLOWS)?;
    check_range("--secs", spec.secs, 1, spans_tools::MAX_SECS)?;
    Ok((spec, out))
}

fn check_range(flag: &str, value: u64, min: u64, max: u64) -> Result<(), String> {
    if (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(format!("bad {flag}: {value} lies outside {min}..={max}"))
    }
}

fn spans_config_hash(sub: &str, spec: &SpansRunSpec) -> u64 {
    let canonical = format!(
        "spans-{sub};nodes={};flows={};shards={};threads={};secs={};seed={};span_cap={}",
        spec.nodes, spec.flows, spec.shards, spec.threads, spec.secs, spec.seed, spec.span_cap
    );
    fnv1a64(canonical.as_bytes())
}

/// `imobif spans summary|dump|flame`: run the sharded scale workload with
/// span tracing enabled, then report. With `--out`, every subcommand also
/// writes `run_manifest.json` (schema v2, per-shard metric families) and
/// `metrics.prom`; `flame` defaults `--out` to the working directory since
/// its whole point is file artifacts.
fn spans_cmd(argv: &[String]) -> Result<(), String> {
    let sub = argv.first().map(String::as_str);
    if !matches!(sub, Some("summary" | "dump" | "flame")) {
        return Err(USAGE.to_string());
    }
    let sub = sub.expect("matched above");
    let (spec, mut out) = parse_spans_args(&argv[1..])?;
    if sub == "flame" && out.is_none() {
        out = Some(PathBuf::from("."));
    }
    let mut timer = PhaseTimer::new();
    timer.start("build");
    let mut run = spans_tools::prepare(&spec).map_err(|e| format!("bad --nodes/--flows: {e}"))?;
    timer.start("run");
    spans_tools::drive(&mut run, &spec);
    timer.start("export");
    let out = out.as_deref();

    match sub {
        "summary" => print!("{}", spans_tools::summary_markdown(&run, &spec)),
        "dump" => {
            let jsonl = run.world.spans().map(imobif_obs::SpanSink::to_jsonl).unwrap_or_default();
            match out {
                Some(_) => write_artifact(out, "spans.jsonl", &jsonl),
                None => print!("{jsonl}"),
            }
        }
        "flame" => {
            let aggs = spans_tools::sorted_aggregates(&run);
            let folded = crate::flame::to_folded(&aggs);
            // Round-trip through the parser so a malformed emitter fails
            // loudly here instead of downstream in external tooling.
            let stacks = crate::flame::parse_folded(&folded)
                .map_err(|e| format!("internal: generated folded text invalid: {e}"))?;
            let title = format!(
                "imobif spans — {} nodes / {} shards / {}s sim",
                spec.nodes, spec.shards, spec.secs
            );
            write_artifact(out, "spans.folded", &folded);
            write_artifact(out, "spans_flame.svg", &crate::flame::flame_svg(&stacks, &title));
        }
        _ => unreachable!(),
    }

    if out.is_some() {
        let registry = Registry::enabled();
        run.world.publish_metrics(&registry);
        let info = RunInfo {
            tool: "imobif-spans",
            targets: vec![format!("spans-{sub}")],
            config_hash: spans_config_hash(sub, &spec),
            seed: spec.seed,
            flows: spec.flows as u64,
            threads: spec.threads,
            scenario: None,
        };
        write_manifest(out, info, timer, &registry, true);
    }
    Ok(())
}

fn manifest_check_cmd(argv: &[String]) -> Result<(), String> {
    let path = argv.first().ok_or(USAGE)?;
    if argv.len() > 1 {
        return Err(USAGE.to_string());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let manifest =
        RunManifest::validate(&text).map_err(|e| format!("{path}: invalid manifest: {e}"))?;
    println!(
        "ok: {} run of {:?} (seed {}, {} flows, {} threads, {} phases, {} metrics)",
        manifest.tool,
        manifest.targets,
        manifest.seed,
        manifest.flows,
        manifest.threads,
        manifest.phases.len(),
        manifest.metrics.entries.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn figure_args_parse_defaults_and_flags() {
        let a = parse_figure_args(&argv(&["fig6", "--flows", "7", "--metrics"])).unwrap();
        assert_eq!(a.targets, vec!["fig6"]);
        assert_eq!(a.flows, 7);
        assert!(a.metrics);
        assert!(!a.prom);
        let d = parse_figure_args(&[]).unwrap();
        assert_eq!(d.targets, vec!["all"]);
        assert_eq!(d.seed, 2025);
        assert!(parse_figure_args(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn figure_command_rejects_zero_flows() {
        assert_eq!(run(&argv(&["fig7", "--flows", "0"])), 2);
    }

    #[test]
    fn scenario_run_rejects_zero_flows() {
        assert_eq!(run(&argv(&["scenario", "run", "fig7", "--flows", "0"])), 2);
    }

    #[test]
    fn config_hash_tracks_inputs() {
        let a = parse_figure_args(&argv(&["fig6", "--flows", "7"])).unwrap();
        let b = parse_figure_args(&argv(&["fig6", "--flows", "8"])).unwrap();
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a), config_hash(&a));
    }

    #[test]
    fn mode_and_strategy_parsers_round_trip() {
        assert_eq!(parse_mode("informed").unwrap(), MobilityMode::Informed);
        assert_eq!(parse_mode("no-mobility").unwrap(), MobilityMode::NoMobility);
        assert!(parse_mode("warp").is_err());
        assert_eq!(parse_choice("max-lifetime").unwrap(), StrategyChoice::MaxLifetime);
        assert!(parse_choice("yolo").is_err());
    }

    #[test]
    fn unknown_subcommand_is_a_figure_arg_error() {
        assert_eq!(run(&argv(&["definitely-not-a-figure"])), 2);
        assert_eq!(run(&argv(&["trace"])), 2);
        assert_eq!(run(&argv(&["spans"])), 2);
        assert_eq!(run(&argv(&["spans", "sideways"])), 2);
        assert_eq!(run(&argv(&["manifest-check"])), 2);
    }

    #[test]
    fn spans_args_parse_defaults_and_flags() {
        let (s, out) = parse_spans_args(&argv(&[
            "--nodes",
            "200",
            "--shards",
            "4",
            "--secs",
            "3",
            "--progress",
        ]))
        .unwrap();
        assert_eq!((s.nodes, s.shards, s.secs), (200, 4, 3));
        assert!(s.progress);
        assert!(out.is_none());
        let (d, _) = parse_spans_args(&[]).unwrap();
        assert_eq!(d, SpansRunSpec::default());
        assert!(parse_spans_args(&argv(&["--shards", "0"])).is_err());
        assert!(parse_spans_args(&argv(&["--bogus"])).is_err());
        assert_ne!(
            spans_config_hash("flame", &d),
            spans_config_hash("flame", &SpansRunSpec { seed: 1, ..d })
        );
    }

    #[test]
    fn trace_record_rejects_a_zero_capacity_ring() {
        assert_eq!(run(&argv(&["trace", "record", "--cap", "0"])), 2);
    }

    #[test]
    fn spans_rejects_a_one_node_arena() {
        let err = parse_spans_args(&argv(&["--nodes", "1"])).unwrap_err();
        assert!(err.contains("--nodes") && err.contains("2..=1000000"), "{err}");
        assert_eq!(run(&argv(&["spans", "summary", "--nodes", "1", "--flows", "1"])), 2);
    }

    #[test]
    fn spans_rejects_an_arena_too_small_to_route_its_flows() {
        // Three nodes all hear each other: no flow gets a relay.
        assert_eq!(run(&argv(&["spans", "summary", "--nodes", "3", "--flows", "1"])), 2);
    }

    #[test]
    fn spans_rejects_a_run_longer_than_max_secs() {
        let secs = u64::MAX.to_string();
        let err = parse_spans_args(&argv(&["--secs", &secs])).unwrap_err();
        assert!(err.contains("--secs") && err.contains("1..=1000000"), "{err}");
        assert_eq!(run(&argv(&["spans", "summary", "--nodes", "120", "--secs", &secs])), 2);
    }

    #[test]
    fn figure_and_scenario_commands_write_the_same_artifacts() {
        let _g = crate::test_lock();
        let base = std::env::temp_dir().join(format!("imobif-fig-vs-scn-{}", std::process::id()));
        let files = |dir: &Path| -> std::collections::BTreeMap<String, Vec<u8>> {
            let paths = fs::read_dir(dir).expect("artifacts written").map(|e| e.unwrap().path());
            let name = |p: &Path| p.file_name().expect("a file").to_string_lossy().into_owned();
            paths.map(|p| (name(&p), fs::read(&p).expect("read"))).collect()
        };
        for fig in ["fig5", "fig6", "fig7", "fig8"] {
            let (a, b) = (base.join(format!("{fig}-fig")), base.join(format!("{fig}-scn")));
            let flags = ["--flows", "8", "--seed", "2025", "--out"];
            let (a_s, b_s) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));
            assert_eq!(run(&argv(&[&[fig][..], &flags, &[a_s]].concat())), 0);
            assert_eq!(run(&argv(&[&["scenario", "run", fig][..], &flags, &[b_s]].concat())), 0);
            let (from_fig, from_scn) = (files(&a), files(&b));
            assert!(from_fig.keys().eq(from_scn.keys()), "{fig}: artifact names differ");
            assert!(from_fig == from_scn, "{fig}: artifact bytes differ");
        }
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn scenario_commands_cover_the_lifecycle() {
        // list / print / validate are pure spec-layer operations.
        assert_eq!(run(&argv(&["scenario", "list"])), 0);
        assert_eq!(run(&argv(&["scenario", "print", "fig6"])), 0);
        assert_eq!(run(&argv(&["scenario", "print", "no-such-spec"])), 2);
        assert_eq!(run(&argv(&["scenario"])), 2);
        assert_eq!(run(&argv(&["scenario", "run"])), 2);
        assert_eq!(run(&argv(&["scenario", "run", "churn", "--bogus"])), 2);

        // validate accepts real files and rejects broken ones.
        let dir = std::env::temp_dir().join(format!("imobif-scn-cli-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let good = dir.join("good.toml");
        fs::write(&good, crate::scenario::builtin_source("churn").unwrap()).unwrap();
        let bad = dir.join("bad.toml");
        fs::write(&bad, "name = \"b\"\n[base]\nrange = -3.0\n").unwrap();
        let good_s = good.to_str().unwrap().to_string();
        let bad_s = bad.to_str().unwrap().to_string();
        assert_eq!(run(&argv(&["scenario", "validate", &good_s])), 0);
        assert_eq!(run(&argv(&["scenario", "validate", &good_s, &bad_s])), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_run_is_deterministic_and_writes_manifest() {
        let _g = crate::test_lock();
        let dir1 = std::env::temp_dir().join(format!("imobif-scn-a-{}", std::process::id()));
        let dir2 = std::env::temp_dir().join(format!("imobif-scn-b-{}", std::process::id()));
        let d1 = dir1.to_str().unwrap().to_string();
        let d2 = dir2.to_str().unwrap().to_string();
        // Two cold runs of a new-family scenario must produce identical
        // bytes: the determinism acceptance gate for the scenario engine.
        crate::runner::clear_memos();
        assert_eq!(
            run(&argv(&["scenario", "run", "churn", "--flows", "2", "--metrics", "--out", &d1])),
            0
        );
        crate::runner::clear_memos();
        assert_eq!(
            run(&argv(&["scenario", "run", "churn", "--flows", "2", "--metrics", "--out", &d2])),
            0
        );
        let csv1 = fs::read_to_string(dir1.join("churn_cases.csv")).expect("csv written");
        let csv2 = fs::read_to_string(dir2.join("churn_cases.csv")).expect("csv written");
        assert_eq!(csv1, csv2, "repeat scenario runs must be byte-identical");
        assert!(csv1.lines().count() > 1);

        let manifest_text =
            fs::read_to_string(dir1.join("run_manifest.json")).expect("manifest written");
        let manifest = RunManifest::validate(&manifest_text).expect("manifest valid");
        assert_eq!(manifest.tool, "imobif-scenario");
        let scn = manifest.scenario.expect("scenario block present");
        assert_eq!(scn.name, "churn");
        assert_eq!(scn.adapter, "generic");
        assert_eq!(scn.runs, 1);
        assert_eq!(
            scn.spec_hash,
            fnv1a64(crate::scenario::builtin("churn").unwrap().to_toml().as_bytes())
        );
        let _ = fs::remove_dir_all(&dir1);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn spans_flame_writes_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!("imobif-spans-flame-{}", std::process::id()));
        let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
        let code = run(&argv(&[
            "spans", "flame", "--nodes", "120", "--flows", "2", "--shards", "4", "--secs", "1",
            "--out", &dir_s,
        ]));
        assert_eq!(code, 0);
        let folded = fs::read_to_string(dir.join("spans.folded")).expect("folded written");
        let stacks = crate::flame::parse_folded(&folded).expect("folded parses");
        assert!(!stacks.is_empty());
        assert!(stacks.iter().any(|(frames, _)| frames[0].starts_with("shard")));
        let svg = fs::read_to_string(dir.join("spans_flame.svg")).expect("svg written");
        assert!(svg.starts_with("<svg"));
        let manifest_text =
            fs::read_to_string(dir.join("run_manifest.json")).expect("manifest written");
        let manifest = RunManifest::validate(&manifest_text).expect("manifest valid");
        assert_eq!(manifest.tool, "imobif-spans");
        assert!(manifest.trace.spans_recorded > 0);
        assert!(manifest.metrics.counter("shard.epochs").unwrap_or(0) > 0);
        let prom = fs::read_to_string(dir.join("metrics.prom")).expect("prom written");
        imobif_obs::promlint::lint(&prom).expect("prom text is clean");
        let _ = fs::remove_dir_all(&dir);
    }
}
