//! `bench`: runs the benchmark workloads and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     [--workload NAME] [--seed N] [--smoke] [--seconds S] [--trace 0|1] \
//!     [--out DIR] [--compare OLD.json]
//! ```
//!
//! Prints one line per metric — `workload metric median unit n p25 p75 min
//! max` — and writes `DIR/bench_report.json` and `DIR/bench_spans.jsonl`
//! (default `DIR`: `bench_out`). With `--trace 0|1` (which needs
//! `--workload`) the last line is a JSON object holding the end-to-end
//! (`0`) or per-layer (`1`) medians; `--trace 0` also skips the traced
//! rounds. `--seconds S` measures rounds for `S` seconds instead of the
//! workload's fixed round count. Exits 1 if any round panicked or broke
//! its output fingerprint.

use std::path::PathBuf;
use std::process::ExitCode;

use imobif_bench::alloc_track::CountingAlloc;
use imobif_obs::Json;
use imobif_perfbench::pins::{self, PIN_SEED};
use imobif_perfbench::report::{self, Declared, Report};
use imobif_perfbench::spans::Spans;
use imobif_perfbench::workload::{self, Budget, RunOpts, Workload, BATCH_THREADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: bench [--workload NAME] [--seed N] [--smoke] [--seconds S] \
                     [--trace 0|1] [--out DIR] [--compare OLD.json]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    smoke: bool,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: PathBuf,
    compare: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PIN_SEED,
        smoke: false,
        seconds: None,
        trace: None,
        out: PathBuf::from("bench_out"),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--smoke" => args.smoke = true,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn load_report(path: &PathBuf) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Report::from_json(&Json::parse(&text)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = Declared::builtin();
    let mut spans = Spans::default();
    let mut report = Report {
        seed: args.seed,
        smoke: args.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        batch_threads: BATCH_THREADS,
        workloads: Vec::new(),
    };
    for w in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        let size = w.size(args.smoke);
        let opts = RunOpts {
            seed: args.seed,
            size,
            budget: args.seconds.map_or(Budget::Rounds(size.rounds), Budget::Seconds),
            traced: args.trace != Some(false),
            pins: (args.seed == PIN_SEED).then(|| pins::lookup(w, args.smoke)),
        };
        eprintln!("bench: running {} ...", w.name());
        let out = workload::run(w, &opts, &mut spans);
        let rows = report::rows(&out, &declared);
        for line in rows.lines() {
            println!("{line}");
        }
        if rows.failed > 0 {
            eprintln!(
                "bench: {}: {} of {} rounds failed (panic or fingerprint mismatch)",
                rows.name, rows.failed, rows.attempted
            );
        }
        report.workloads.push(rows);
    }

    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(args.out.join("bench_report.json"), report.to_json().render() + "\n")?;
        std::fs::write(args.out.join("bench_spans.jsonl"), spans.to_jsonl())
    });
    if let Err(e) = written {
        eprintln!("bench: writing {}: {e}", args.out.display());
    }
    if let Some(path) = &args.compare {
        match load_report(path) {
            Ok(old) => {
                for c in report::compare(&old, &report, &declared) {
                    println!(
                        "compare {} {} {} {} {}",
                        c.workload,
                        c.metric,
                        c.old,
                        c.new,
                        c.verdict.label()
                    );
                }
            }
            Err(e) => eprintln!("bench: --compare: {e}"),
        }
    }
    if let Some(per_layer) = args.trace {
        println!("{}", report.workloads[0].result_line(per_layer));
    }
    if report.workloads.iter().any(|w| w.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
