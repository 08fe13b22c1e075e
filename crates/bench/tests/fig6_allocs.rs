//! Steady-state allocation gate for the packet path.
//!
//! A single test in its own binary, with the counting allocator installed.
//! The window counts the calling thread's allocations only: the serial
//! world runs every event on the thread that drives it, and the test
//! harness's own threads may allocate meanwhile. A warmed informed Fig. 6
//! instance — queue, neighbor tables, decision state and the outbox all
//! sized during warm-up — must deliver packets without a single heap
//! allocation.

use imobif::MobilityMode;
use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_bench::instances::{build_fig6, Variant};
use imobif_netsim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warmed_fig6_allocates_zero_per_delivered_packet() {
    let mut run = build_fig6(MobilityMode::Informed, Variant::after(), 0);
    run.run_until_time(SimTime::from_micros(120_000_000));
    let bits_before = run.delivered_bits();
    // A `World` has no worker threads: the run steps on this thread.
    let before = alloc_track::thread_allocs();
    run.run_until_time(SimTime::from_micros(240_000_000));
    let allocs = alloc_track::thread_allocs() - before;
    let packets = (run.delivered_bits() - bits_before) / 8_000;
    assert!(packets > 0, "the steady-state window must deliver packets");
    assert_eq!(allocs, 0, "a warmed instance allocated {allocs} times over {packets} packets");
}
