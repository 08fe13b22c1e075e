//! Sharded-workload span tooling behind `imobif spans summary|dump|flame`.
//!
//! The workload is the constant-density arena of
//! [`crate::arena::build_arena`] on a [`ShardedWorld`], the same
//! FNV-pinned workload the benchmark's shard and thread sweeps build:
//! `node_count` iMobif nodes uniformly placed on a square sized for
//! constant density, `n_flows` greedy-routed flows of 8 Mbit each, run
//! through the epoch-barrier engine. Span tracing is enabled for the whole
//! run, so afterwards the world carries raw spans (ring-bounded), exact
//! per-phase aggregates, and the always-on epoch counters.

use std::io::Write as _;
use std::time::Instant;

use imobif::ImobifApp;
use imobif_netsim::{ShardedWorld, SimTime};
use imobif_obs::{PhaseAgg, Registry, COORD_SHARD};

use crate::arena::{build_arena, sharded_world, ArenaError, ArenaRun};
use crate::flame::scope_label;

/// Largest simulated run `imobif spans` accepts, in seconds (`--secs`):
/// about 11.6 simulated days, far below where the run's microsecond
/// deadlines could overflow.
pub const MAX_SECS: u64 = 1_000_000;

/// Largest shard count `imobif spans` accepts (`--shards`). Every shard
/// keeps an outbox run per destination shard, so the table grows with the
/// square of the count: about 84 MB of run headers at the ceiling.
pub const MAX_SHARDS: usize = 1024;

/// Largest span ring `imobif spans` accepts (`--span-cap`), in spans. The
/// ring is reserved up front: 192 MiB at the ceiling.
pub const MAX_SPAN_CAP: usize = 1 << 22;

/// Parameters of one `imobif spans` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpansRunSpec {
    /// Nodes in the arena.
    pub nodes: usize,
    /// Flows installed.
    pub flows: usize,
    /// Spatial shards.
    pub shards: usize,
    /// Worker threads (1 = serial coordinator loop).
    pub threads: usize,
    /// Simulated seconds to run.
    pub secs: u64,
    /// Topology/flow seed.
    pub seed: u64,
    /// Span ring capacity.
    pub span_cap: usize,
    /// Emit a live progress line on stderr while running.
    pub progress: bool,
}

impl Default for SpansRunSpec {
    fn default() -> Self {
        SpansRunSpec {
            nodes: 1000,
            flows: 8,
            shards: 8,
            threads: 1,
            secs: 10,
            seed: 2025,
            span_cap: imobif_netsim::DEFAULT_SPAN_CAPACITY,
            progress: false,
        }
    }
}

/// Builds the workload for `spec` with span tracing enabled.
///
/// # Errors
///
/// As [`build_arena`]: the node count is out of range, or the arena
/// cannot route `spec.flows` flows.
///
/// # Panics
///
/// Panics if `spec.shards` is zero.
pub fn prepare(spec: &SpansRunSpec) -> Result<ArenaRun<ShardedWorld<ImobifApp>>, ArenaError> {
    let mut run =
        build_arena(spec.nodes, spec.flows, spec.seed, |cfg| sharded_world(cfg, spec.shards))?;
    run.world.enable_spans(spec.span_cap);
    run.world.set_threads(spec.threads);
    Ok(run)
}

/// Runs the workload to `spec.secs` of simulated time, in slices so a
/// `--progress` line (epochs/sec, mean active shards, sim fraction, ETA)
/// can refresh on stderr between slices. Slicing does not perturb results:
/// epoch windows are aligned to the deadline-free schedule either way.
/// `spec.secs` must not exceed [`MAX_SECS`].
pub fn drive(run: &mut ArenaRun<ShardedWorld<ImobifApp>>, spec: &SpansRunSpec) {
    const SLICES: u64 = 40;
    let total_us = spec.secs * 1_000_000;
    let t0 = Instant::now();
    let mut last_epochs = 0u64;
    let mut last_wall = 0.0f64;
    for i in 1..=SLICES {
        run.world.run_until(SimTime::from_micros(total_us * i / SLICES));
        if !spec.progress {
            continue;
        }
        let wall = t0.elapsed().as_secs_f64();
        let p = run.world.epoch_profile().unwrap_or_default();
        let frac = i as f64 / SLICES as f64;
        let rate = if wall > last_wall {
            (p.epochs - last_epochs) as f64 / (wall - last_wall)
        } else {
            0.0
        };
        let eta = if frac > 0.0 { wall / frac * (1.0 - frac) } else { 0.0 };
        eprint!(
            "\rspans: {:3.0}% sim | {} epochs @ {:.0}/s | {:.1} active shards | eta {:.1}s   ",
            frac * 100.0,
            p.epochs,
            rate,
            p.mean_active_shards(),
            eta
        );
        let _ = std::io::stderr().flush();
        last_epochs = p.epochs;
        last_wall = wall;
    }
    if spec.progress {
        eprintln!();
    }
}

/// Span aggregates in deterministic report order: coordinator scope first,
/// then shards ascending; phases alphabetically within a scope.
#[must_use]
pub fn sorted_aggregates(run: &ArenaRun<ShardedWorld<ImobifApp>>) -> Vec<PhaseAgg> {
    let mut aggs: Vec<PhaseAgg> =
        run.world.spans().map(|sp| sp.aggregates().to_vec()).unwrap_or_default();
    // COORD_SHARD is u32::MAX; map it below every real shard index.
    let key = |a: &PhaseAgg| if a.shard == COORD_SHARD { 0u64 } else { a.shard as u64 + 1 };
    aggs.sort_by(|a, b| key(a).cmp(&key(b)).then(a.name.cmp(b.name)));
    aggs
}

/// Markdown report: run parameters, epoch-pipeline counters, and a
/// per-`(scope, phase)` wall-time table.
#[must_use]
pub fn summary_markdown(run: &ArenaRun<ShardedWorld<ImobifApp>>, spec: &SpansRunSpec) -> String {
    let p = run.world.epoch_profile().unwrap_or_default();
    let sp = run.world.spans();
    let (recorded, evicted) = sp.map_or((0, 0), |s| (s.recorded(), s.evicted()));
    let mut out = format!(
        "# spans summary — {} nodes, {} flows, {} shards, {} thread(s), {}s sim, seed {}\n\n",
        spec.nodes, spec.flows, spec.shards, spec.threads, spec.secs, spec.seed
    );
    out.push_str(&format!(
        "epochs: {} | shard-epochs: {} (mean {:.2} active) | idle skipped: {}\n",
        p.epochs,
        p.shard_epochs,
        p.mean_active_shards(),
        p.idle_shard_epochs_skipped
    ));
    let reg = Registry::enabled();
    run.world.publish_metrics(&reg);
    let snap = reg.snapshot();
    out.push_str(&format!(
        "fast-forward: {} epochs ({:.3} sim-secs skipped) | xfer: {} delivers, \
         {} observations, {} replica patches\n",
        snap.counter("shard.fast_forward.epochs").unwrap_or(0),
        snap.float("shard.fast_forward.sim_secs_skipped").unwrap_or(0.0),
        p.delivers_merged,
        p.observations_applied,
        p.replica_patches
    ));
    out.push_str(&format!(
        "wall: sched {:.3}s | compute {:.3}s (summed per shard) | apply {:.3}s\n",
        p.sched_secs, p.compute_secs, p.apply_secs
    ));
    out.push_str(&format!(
        "spans recorded: {recorded} (evicted from ring: {evicted}) | packets delivered: {}\n\n",
        run.delivered_packets()
    ));
    out.push_str("| scope | phase | count | total ms | mean µs | max µs |\n");
    out.push_str("|---|---|---:|---:|---:|---:|\n");
    for a in sorted_aggregates(run) {
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.1} | {} |\n",
            scope_label(a.shard),
            a.name,
            a.count,
            a.total_us as f64 / 1e3,
            a.mean_us(),
            a.max_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use imobif_obs::MetricValue;

    use super::*;

    fn tiny_spec() -> SpansRunSpec {
        SpansRunSpec { nodes: 120, flows: 2, shards: 4, secs: 2, ..SpansRunSpec::default() }
    }

    #[test]
    fn prepare_drive_summarize_round_trip() {
        let spec = tiny_spec();
        let mut run = prepare(&spec).expect("valid arena");
        drive(&mut run, &spec);
        assert_eq!(run.world.time(), SimTime::from_micros(spec.secs * 1_000_000));
        let p = run.world.epoch_profile().expect("spans enabled");
        assert!(p.epochs > 0);
        let md = summary_markdown(&run, &spec);
        assert!(md.contains("| coord | sched |"));
        assert!(md.contains("| shard0 | compute |"));
        let aggs = sorted_aggregates(&run);
        assert!(!aggs.is_empty());
        // coord rows first, shards ascending afterwards.
        let first_real = aggs.iter().position(|a| a.shard != COORD_SHARD).expect("shard rows");
        assert!(aggs[..first_real].iter().all(|a| a.shard == COORD_SHARD));
        assert!(aggs[first_real..].windows(2).all(|w| w[0].shard <= w[1].shard));
    }

    #[test]
    fn sliced_drive_matches_single_run_until() {
        let spec = tiny_spec();
        let mut sliced = prepare(&spec).expect("valid arena");
        drive(&mut sliced, &spec);
        let mut whole = prepare(&spec).expect("valid arena");
        whole.world.run_until(SimTime::from_micros(spec.secs * 1_000_000));
        assert_eq!(sliced.world.events_processed(), whole.world.events_processed());
        assert_eq!(sliced.world.packets_delivered(), whole.world.packets_delivered());
        assert_eq!(sliced.delivered_packets(), whole.delivered_packets());
        // The epoch schedule's counters, fast-forwards included, do not
        // depend on how the caller slices the run.
        let shard_counters = |run: &ArenaRun<ShardedWorld<ImobifApp>>| {
            let reg = Registry::enabled();
            run.world.publish_metrics(&reg);
            let snap = reg.snapshot();
            let skipped = snap.float("shard.fast_forward.sim_secs_skipped");
            let counters: Vec<(String, u64)> = snap
                .entries
                .into_iter()
                .filter_map(|(name, value)| match value {
                    MetricValue::Counter(n) if name.starts_with("shard.") => Some((name, n)),
                    _ => None,
                })
                .collect();
            (counters, skipped)
        };
        let (want, want_skipped) = shard_counters(&whole);
        assert!(want.iter().any(|(name, n)| name == "shard.fast_forward.epochs" && *n > 0));
        assert_eq!(shard_counters(&sliced), (want, want_skipped));
    }
}
