//! Steady-state allocation gate for the packet path.
//!
//! A single test in its own binary: the counting allocator's totals are
//! process-global, so any concurrently running test would pollute the
//! window. A warmed informed Fig. 6 instance — queue buckets, neighbor
//! tables, decision state and the outbox all sized during warm-up — must
//! deliver packets without a single heap allocation.

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
    let snap = alloc_track::snapshot();
    run.run_until_time(SimTime::from_micros(240_000_000));
    let allocs = alloc_track::snapshot().allocs_since(&snap);
    let packets = (run.delivered_bits() - bits_before) / 8_000;
    assert!(packets > 0, "the steady-state window must deliver packets");
    assert_eq!(allocs, 0, "a warmed instance allocated {allocs} times over {packets} packets");
}
