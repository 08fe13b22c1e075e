//! Shard count, thread count, the epoch schedule and span tracing must be
//! invisible to the simulation. The sweep workload must reproduce its pins
//! at every shard count, under the dense step-every-epoch schedule, and
//! with spans on at two threads, and its delta-synced replica must match
//! ground truth. Its epoch schedule is pinned too, since no output shows
//! it. The thread-sweep workload must reproduce its pin at
//! every thread count, and the fig6 figure bytes their pin with the metrics
//! registry disabled and enabled.

use imobif::ImobifApp;
use imobif_bench::instances::build_sharded_arena;
use imobif_experiments::arena::ArenaRun;
use imobif_experiments::figures::fig6;
use imobif_experiments::obs::{disable_metrics, enable_metrics};
use imobif_experiments::runner::clear_memos;
use imobif_netsim::{ShardedWorld, SimTime, DEFAULT_SPAN_CAPACITY};
use imobif_obs::{fnv1a64, Registry};

/// The recorded fingerprints of the sweep workload (1 000 nodes, 8 flows,
/// seed 2025, 10 sim-secs; identical at every shard count).
const SWEEP_TRACE_FNV: u64 = 0x20de_a642_2e6d_913c;
/// See [`SWEEP_TRACE_FNV`].
const SWEEP_SUMMARY_FNV: u64 = 0xbca0_645b_b9b7_1a01;
/// The thread-sweep trace fingerprint (5 000 nodes, 16 flows, 8 shards,
/// seed 2025, 10 sim-secs; identical at every thread count).
const THREAD_SWEEP_TRACE_FNV: u64 = 0x112d_658e_8cfd_184f;
/// FNV-1a 64 of `fig6::run(8, 2025).to_csv()` at the pre-observability
/// tip — the figure bytes the instrumented engine must still produce.
const FIG6_CSV_FNV: u64 = 0x67fd_e585_6d82_96c6;

/// Shard counts the sweep workload runs at.
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The sweep's epochs at every shard count and schedule.
const SWEEP_EPOCHS: u64 = 222;
/// The sweep's epochs whose window opened past the previous one's end, in
/// one `run_until` call (each call counts from its own first epoch, so
/// `imobif spans summary`, which runs its 10 sim-s in 40 slices, reports
/// 191).
const SWEEP_FAST_FORWARDS: u64 = 221;
/// `(shard-epochs run, idle shard-epochs skipped)` at each of
/// [`SHARD_COUNTS`] on the activity schedule, which runs only the shards
/// with an event in the window. No output pin sees these: a schedule that
/// also ran idle shards, or stepped every shard every epoch, keeps every
/// fingerprint.
const SWEEP_SHARD_EPOCHS: [(u64, u64); 5] =
    [(222, 0), (354, 90), (448, 440), (638, 1_138), (873, 2_679)];

/// The summary fingerprint the sweep pins: packet totals, event count,
/// bit-exact energy totals, and the first death.
fn summary_fnv(run: &ArenaRun<ShardedWorld<ImobifApp>>) -> u64 {
    let totals = run.world.totals();
    let summary = format!(
        "{},{},{},{},{},{:016x},{:016x},{:016x},{:016x},{:?}",
        run.delivered_packets(),
        run.world.packets_sent(),
        run.world.packets_delivered(),
        run.world.packets_dropped(),
        run.world.events_processed(),
        totals.data.to_bits(),
        totals.mobility.to_bits(),
        totals.hello.to_bits(),
        totals.notification.to_bits(),
        run.world.first_death(),
    );
    fnv1a64(summary.as_bytes())
}

/// Runs the sweep workload at `shards`, letting `setup` adjust the world
/// first, checks both pins, the schedule `(shard-epochs run, idle
/// shard-epochs skipped)` that `publish_metrics` reports beside the
/// sweep's epochs and fast-forwards, and the replica against ground
/// truth, and returns the finished run.
fn assert_sweep_pins(
    shards: usize,
    label: &str,
    (shard_epochs, idle): (u64, u64),
    setup: impl FnOnce(&mut ArenaRun<ShardedWorld<ImobifApp>>),
) -> ArenaRun<ShardedWorld<ImobifApp>> {
    let mut run = build_sharded_arena(1_000, 8, shards, 2025, true);
    setup(&mut run);
    run.world.run_until(SimTime::from_micros(10_000_000));
    assert!(run.delivered_packets() > 0, "sweep arena must deliver packets ({label})");
    assert_eq!(run.world.trace_fnv(), SWEEP_TRACE_FNV, "trace FNV drifted ({label})");
    assert_eq!(summary_fnv(&run), SWEEP_SUMMARY_FNV, "summary FNV drifted ({label})");
    let registry = Registry::enabled();
    run.world.publish_metrics(&registry);
    let snap = registry.snapshot();
    let schedule = [
        "shard.epochs",
        "shard.shard_epochs",
        "shard.idle_shard_epochs_skipped",
        "shard.fast_forward.epochs",
    ]
    .map(|name| snap.counter(name).unwrap_or_else(|| panic!("{name} published ({label})")));
    let want = [SWEEP_EPOCHS, shard_epochs, idle, SWEEP_FAST_FORWARDS];
    assert_eq!(schedule, want, "epoch schedule drifted ({label})");
    if let Err(e) = run.world.verify_replica_sync() {
        panic!("replica diverged from ground truth ({label}): {e}");
    }
    run
}

#[test]
fn sweep_pins_hold_at_every_shard_count_schedule_and_span_setting() {
    // Shipping default: activity-scheduled epochs, spans disabled, serial.
    for (shards, schedule) in SHARD_COUNTS.into_iter().zip(SWEEP_SHARD_EPOCHS) {
        assert_sweep_pins(shards, &format!("{shards} shards"), schedule, |_| {});
    }

    // The dense step-every-epoch schedule is the reference the activity
    // schedule must reproduce: the same epochs, every shard run in each.
    let dense = (8 * SWEEP_EPOCHS, 0);
    assert_sweep_pins(8, "dense epochs", dense, |run| run.world.set_dense_epochs(true));

    // Full span tracing on two threads: observability and threads may cost
    // wall time, never results.
    let spanned = assert_sweep_pins(8, "spans on, 2 threads", SWEEP_SHARD_EPOCHS[3], |run| {
        run.world.enable_spans(DEFAULT_SPAN_CAPACITY);
        run.world.set_threads(2);
    });
    let sink = spanned.world.spans().expect("spans enabled");
    assert!(sink.recorded() > 0, "spanned run must actually record spans");
}

#[test]
fn thread_sweep_pin_holds_at_one_two_and_four_threads() {
    for threads in [1, 2, 4] {
        let mut run = build_sharded_arena(5_000, 16, 8, 2025, true);
        run.world.set_threads(threads);
        run.world.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(
            run.world.trace_fnv(),
            THREAD_SWEEP_TRACE_FNV,
            "thread-sweep trace FNV drifted at {threads} thread(s)"
        );
    }
}

#[test]
fn fig6_csv_pin_holds() {
    // Cleared memos make each run simulate its cases instead of replaying
    // the previous run's results.
    clear_memos();
    let disabled = fnv1a64(fig6::run(8, 2025).to_csv().as_bytes());
    let registry = enable_metrics();
    clear_memos();
    let enabled = fnv1a64(fig6::run(8, 2025).to_csv().as_bytes());
    disable_metrics();
    assert!(
        registry.snapshot().counter("queue.pushes").unwrap_or(0) > 0,
        "the enabled registry must have captured the fig6 runs"
    );
    for (label, hash) in [("disabled", disabled), ("enabled", enabled)] {
        assert_eq!(
            hash, FIG6_CSV_FNV,
            "fig6 CSV bytes with metrics {label} drifted from the pre-observability pin"
        );
    }
}
