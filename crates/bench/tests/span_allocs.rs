//! Steady-state allocation gate for the span layer.
//!
//! A single test in its own binary, with the counting allocator installed.
//! The window counts the calling thread's allocations only: each world
//! runs its shards on one thread, the caller's, which the test asserts,
//! and the test harness's own threads may allocate meanwhile. A warmed
//! sharded HELLO-dense world (stationary nodes, beacons only — application
//! state saturates in the first rounds) must allocate exactly zero times
//! over a long window, both with spans disabled (the shipping default: no
//! clock reads, no span construction) and with spans enabled (ring
//! pre-sized, aggregate table saturated during warmup).

use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_bench::instances::build_sharded_hello_dense;
use imobif_netsim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warmed_sharded_epochs_allocate_zero_with_spans_off_and_on() {
    // Spans disabled — the shipping default.
    let mut w = build_sharded_hello_dense(16);
    assert_eq!(w.threads(), 1, "the epochs must run on this thread, with no scoped threads");
    w.run_until(SimTime::from_micros(5_000_000));
    let before = alloc_track::thread_allocs();
    w.run_until(SimTime::from_micros(25_000_000));
    let disabled_allocs = alloc_track::thread_allocs() - before;
    assert_eq!(
        disabled_allocs, 0,
        "warmed sharded epochs allocated {disabled_allocs} times with spans disabled"
    );

    // Spans enabled: a small ring so steady state exercises eviction too.
    let mut w = build_sharded_hello_dense(16);
    assert_eq!(w.threads(), 1, "the epochs must run on this thread, with no scoped threads");
    w.enable_spans(1 << 10);
    w.run_until(SimTime::from_micros(5_000_000));
    let before = alloc_track::thread_allocs();
    w.run_until(SimTime::from_micros(25_000_000));
    let enabled_allocs = alloc_track::thread_allocs() - before;
    assert_eq!(
        enabled_allocs, 0,
        "warmed sharded epochs allocated {enabled_allocs} times with spans enabled"
    );
    let sink = w.spans().expect("spans enabled");
    assert!(sink.recorded() > 0, "the window must have recorded spans");
}
