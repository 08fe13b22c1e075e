//! Paired wall-time gates: disabled observability and shard count must
//! cost no measurable throughput.
//!
//! * metrics: hello_dense with the registry in its shipping disabled mode
//!   against no registry at all, ratio ≥ 0.99;
//! * spans: the sharded hello_dense with span tracing disabled against no
//!   observability calls at all, ratio ≥ 0.99;
//! * shards: the 1 000-node sweep arena at 16 shards against 1 shard,
//!   slowdown ≤ 1.10.
//!
//! One `#[test]`, so no two timed runs overlap. Timing is meaningless in
//! an unoptimized build, so the test runs only in release:
//! `cargo test --release -p imobif-bench --test overhead_ratios`.

use std::time::Instant;

use imobif_bench::instances::{build_hello_dense, build_sharded_arena, build_sharded_hello_dense};
use imobif_netsim::SimTime;
use imobif_obs::Registry;

/// Simulated seconds per overhead run: hello_dense processes about 100
/// events per sim-second, and a 1% gate needs each timed run to dwarf
/// scheduler jitter.
const OVERHEAD_SIM_SECS: u64 = 2_000;
/// Interleaved pairs per overhead round.
const OVERHEAD_PAIRS: usize = 5;
/// Extra rounds an overhead ratio may take before it fails.
const OVERHEAD_RETRIES: usize = 2;
/// The lowest paired throughput ratio an overhead gate accepts.
const OVERHEAD_MIN: f64 = 0.99;

/// Best-of-N repetitions per shard-overhead point.
const SHARD_REPS: usize = 3;
/// Extra paired rounds the shard overhead may take before it fails.
const SHARD_RETRIES: usize = 3;
/// The largest 1-shard over 16-shard throughput ratio accepted.
const SHARD_OVERHEAD_MAX: f64 = 1.10;

/// Scores `(base, with)` wall-time pairs as `wall(base) / wall(with)`
/// (1.0 = free, below 1.0 = overhead) by two robust estimators, because
/// scheduler noise is heavy-tailed: the best-of-N ratio collapses symmetric
/// noise, and the per-pair median survives a one-sided burst landing on
/// half a run. Returns `(best_ratio, median_pair_ratio)`.
fn paired_ratios(samples: &[(f64, f64)]) -> (f64, f64) {
    let best_base = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let best_with = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let mut pair_ratios: Vec<f64> = samples.iter().map(|s| s.0 / s.1).collect();
    pair_ratios.sort_by(f64::total_cmp);
    (best_base / best_with, pair_ratios[pair_ratios.len() / 2])
}

/// One metrics round: interleaved (no registry, disabled registry)
/// hello_dense runs. The disabled side is the shipping default — kernel
/// counters are plain `u64` fields, and the end-of-run `publish_metrics`
/// early-returns.
fn metrics_round() -> (f64, f64) {
    let cap = SimTime::from_micros(OVERHEAD_SIM_SECS * 1_000_000);
    let disabled = Registry::disabled();
    let mut samples = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        let mut w = build_hello_dense();
        let t0 = Instant::now();
        let events = w.run_while(|w| w.time() < cap);
        let base = t0.elapsed().as_secs_f64();
        assert!(events > 0, "hello_dense must process events");

        let mut w = build_hello_dense();
        let t0 = Instant::now();
        let _ = w.run_while(|w| w.time() < cap);
        w.publish_metrics(&disabled);
        samples.push((base, t0.elapsed().as_secs_f64()));
    }
    paired_ratios(&samples)
}

/// One span round: interleaved (no observability, spans disabled) runs of
/// the 8-shard hello_dense world. With spans disabled the epoch loop reads
/// no clock and builds no span.
fn span_round() -> (f64, f64) {
    let cap = SimTime::from_micros(OVERHEAD_SIM_SECS * 1_000_000);
    let disabled = Registry::disabled();
    let mut samples = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        let mut w = build_sharded_hello_dense(8);
        let t0 = Instant::now();
        w.run_until(cap);
        let base = t0.elapsed().as_secs_f64();
        assert!(w.events_processed() > 0, "sharded hello_dense must process events");

        let mut w = build_sharded_hello_dense(8);
        let t0 = Instant::now();
        w.run_until(cap);
        w.publish_metrics(&disabled);
        assert!(w.spans().is_none(), "spans must stay disabled");
        samples.push((base, t0.elapsed().as_secs_f64()));
    }
    paired_ratios(&samples)
}

/// Runs `round` until its score — the better of its two estimators —
/// reaches [`OVERHEAD_MIN`], at most `1 + OVERHEAD_RETRIES` times. Each
/// estimator keeps its best round: both sides run identical code, so the
/// least noisy round is the honest one.
fn overhead_score(round: fn() -> (f64, f64)) -> f64 {
    let (mut best, mut median) = round();
    for _ in 0..OVERHEAD_RETRIES {
        if best.max(median) >= OVERHEAD_MIN {
            break;
        }
        let (b, m) = round();
        best = best.max(b);
        median = median.max(m);
    }
    best.max(median)
}

/// Best-of-[`SHARD_REPS`] events per second of the sweep arena at
/// `shards`, serial.
fn sweep_events_per_sec(shards: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..SHARD_REPS {
        let mut run = build_sharded_arena(1_000, 8, shards, 2025, false);
        let t0 = Instant::now();
        run.world.run_until(SimTime::from_micros(10_000_000));
        best = best.max(run.world.events_processed() as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// The 1-shard over 16-shard throughput ratio. Rounds are paired: both
/// sides are measured back to back and the best round's ratio wins, so one
/// lucky-fast 1-shard sample cannot set a bar no later round can meet.
fn shard_overhead() -> f64 {
    let mut ratio = sweep_events_per_sec(1) / sweep_events_per_sec(16);
    for _ in 0..SHARD_RETRIES {
        if ratio <= SHARD_OVERHEAD_MAX {
            break;
        }
        ratio = ratio.min(sweep_events_per_sec(1) / sweep_events_per_sec(16));
    }
    ratio
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing ratios run in release")]
fn disabled_observability_and_shard_count_cost_no_throughput() {
    let metrics = overhead_score(metrics_round);
    assert!(metrics >= OVERHEAD_MIN, "disabled metrics score {metrics:.3} (< {OVERHEAD_MIN})");
    let spans = overhead_score(span_round);
    assert!(spans >= OVERHEAD_MIN, "disabled spans score {spans:.3} (< {OVERHEAD_MIN})");
    let shards = shard_overhead();
    assert!(
        shards <= SHARD_OVERHEAD_MAX,
        "16 shards run {shards:.3}x slower than 1 shard (> {SHARD_OVERHEAD_MAX})"
    );
}
