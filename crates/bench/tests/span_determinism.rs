//! Span tracing must be invisible to the simulation: with spans disabled
//! the sweep-workload fingerprints and the fig6 figure bytes must equal
//! the pins recorded before the span layer landed, and enabling spans (or
//! pooled workers) must not move them. The thread-sweep workload must
//! reproduce its pin at one and at two worker threads.

use imobif_bench::instances::{build_sharded_arena, ShardedArenaRun};
use imobif_experiments::figures::fig6;
use imobif_netsim::{SimTime, DEFAULT_SPAN_CAPACITY};
use imobif_obs::fnv1a64;

/// PR 7's recorded fingerprints for the sweep workload (1 000 nodes,
/// 8 flows, seed 2025, 10 sim-secs; identical at every shard count).
const PR7_SWEEP_TRACE_FNV: u64 = 0x20de_a642_2e6d_913c;
/// See [`PR7_SWEEP_TRACE_FNV`].
const PR7_SWEEP_SUMMARY_FNV: u64 = 0xbca0_645b_b9b7_1a01;
/// The thread-sweep trace fingerprint (5 000 nodes, 16 flows, 8 shards,
/// seed 2025, 10 sim-secs; identical at every worker-thread count).
const THREAD_SWEEP_TRACE_FNV: u64 = 0x112d_658e_8cfd_184f;
/// FNV-1a 64 of `fig6::run(8, 2025).to_csv()` at the pre-observability
/// tip — the figure bytes the instrumented engine must still produce.
const PR7_FIG6_CSV_FNV: u64 = 0x67fd_e585_6d82_96c6;

/// The summary fingerprint the scale benchmark pins: packet totals, event
/// count, bit-exact energy totals, and the first death.
fn summary_fnv(run: &ShardedArenaRun) -> u64 {
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

#[test]
fn sweep_pins_hold_with_spans_disabled_and_enabled() {
    let deadline = SimTime::from_micros(10_000_000);

    // Shipping default: spans disabled, serial.
    let mut plain = build_sharded_arena(1_000, 8, 8, 2025, true);
    plain.run_until_time(deadline);
    assert_eq!(plain.world.trace_fnv(), PR7_SWEEP_TRACE_FNV, "trace FNV drifted (spans off)");
    assert_eq!(summary_fnv(&plain), PR7_SWEEP_SUMMARY_FNV, "summary FNV drifted (spans off)");

    // Full span tracing plus pooled workers: observability may cost wall
    // time, never results.
    let mut spanned = build_sharded_arena(1_000, 8, 8, 2025, true);
    spanned.world.enable_spans(DEFAULT_SPAN_CAPACITY);
    spanned.world.set_threads(2);
    spanned.run_until_time(deadline);
    assert_eq!(spanned.world.trace_fnv(), PR7_SWEEP_TRACE_FNV, "trace FNV drifted (spans on)");
    assert_eq!(summary_fnv(&spanned), PR7_SWEEP_SUMMARY_FNV, "summary FNV drifted (spans on)");
    let sink = spanned.world.spans().expect("spans enabled");
    assert!(sink.recorded() > 0, "spanned run must actually record spans");
}

#[test]
fn thread_sweep_pin_holds_at_one_and_two_threads() {
    for threads in [1, 2] {
        let mut run = build_sharded_arena(5_000, 16, 8, 2025, true);
        run.world.set_threads(threads);
        run.run_until_time(SimTime::from_micros(10_000_000));
        assert_eq!(
            run.world.trace_fnv(),
            THREAD_SWEEP_TRACE_FNV,
            "thread-sweep trace FNV drifted at {threads} thread(s)"
        );
    }
}

#[test]
fn fig6_csv_pin_holds() {
    let csv = fig6::run(8, 2025).to_csv();
    assert_eq!(
        fnv1a64(csv.as_bytes()),
        PR7_FIG6_CSV_FNV,
        "fig6 CSV bytes drifted from the pre-observability pin"
    );
}
