//! Steady-state allocation gate for HELLO beaconing on the serial engine.
//!
//! A single test in its own binary: the counting allocator's totals are
//! process-global, so any concurrently running test would pollute the
//! window. Every beacon round lands its batch in a different calendar
//! bucket; drained buckets hand their storage to the next cold one, so a
//! warmed beacon-only world must allocate nothing.

use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_bench::instances::build_hello_dense;
use imobif_netsim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warmed_hello_dense_allocates_zero_over_sixty_sim_seconds() {
    let mut w = build_hello_dense();
    w.run_while(|w| w.time() < SimTime::from_micros(5_000_000));
    let snap = alloc_track::snapshot();
    let events = w.run_while(|w| w.time() < SimTime::from_micros(65_000_000));
    let allocs = alloc_track::snapshot().allocs_since(&snap);
    assert!(events > 0, "the warmed world must process events");
    assert_eq!(allocs, 0, "a warmed hello_dense world allocated {allocs} times in 60 sim-s");
}
