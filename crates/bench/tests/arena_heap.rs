//! Heap gate for the constant-density arena: live bytes per node after one
//! simulated second, on the serial engine and on four shards.
//!
//! A single test in its own binary, with the counting allocator installed.
//! Live bytes are process-wide, so the one test measures the two worlds in
//! turn, each from a baseline read just before it is built. One sim-s
//! covers the build, the first beacon round and, on the sharded world, the
//! barrier runs that carry its board patches and the tables its barrier
//! links.

use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_bench::instances::{build_scale_arena, build_sharded_arena, Variant};
use imobif_netsim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 5_000;
const FLOWS: usize = 16;
const SEED: u64 = 2025;

/// Live bytes per node of the serial arena when the ceiling was set.
/// Before each node kept one flow record instead of four maps and the
/// beacon lane held node ids, it read 1,187.1; before a hearer-list entry
/// shrank from 64 to 48 bytes and the grid dropped its per-slot change
/// stamps, 824.1; before the entry dropped its grid-clock stamp (48 to 40
/// bytes), 801.5.
const SERIAL_BYTES_PER_NODE: f64 = 793.5;

/// Live bytes per node of the arena on four shards when the ceiling was
/// set. Before those changes and the barrier runs that name beacon records
/// instead of copying them, it read 1,493.9; before the first barrier
/// linked every table from the hearer lists, 1,048.1; before the 48-byte
/// hearer-list entry and the stamp-free grid, 935.1; before the 40-byte
/// entry and the flat barrier runs, 912.5.
const SHARDED_BYTES_PER_NODE: f64 = 903.8;

/// How far above its reading a world may grow.
const SLACK: f64 = 1.05;

/// Live bytes per node held by the world `run` builds and runs.
fn live_bytes_per_node<W>(run: impl FnOnce() -> W) -> f64 {
    let base = alloc_track::snapshot().current_bytes;
    let world = run();
    let live = alloc_track::snapshot().current_bytes.saturating_sub(base);
    drop(world);
    live as f64 / NODES as f64
}

#[test]
fn arenas_hold_at_most_their_bytes_per_node() {
    let second = SimTime::from_micros(1_000_000);
    let serial = live_bytes_per_node(|| {
        let mut run = build_scale_arena(NODES, FLOWS, Variant::after(), SEED);
        run.world.run_until(second);
        run
    });
    let sharded = live_bytes_per_node(|| {
        let mut run = build_sharded_arena(NODES, FLOWS, 4, SEED, false);
        run.world.run_until(second);
        run
    });
    println!("live bytes per node: serial {serial:.1}, 4 shards {sharded:.1}");
    for (name, got, ceiling) in
        [("serial", serial, SERIAL_BYTES_PER_NODE), ("4-shard", sharded, SHARDED_BYTES_PER_NODE)]
    {
        assert!(
            got <= ceiling * SLACK,
            "the {name} arena holds {got:.1} bytes per node, over {ceiling} + 5%"
        );
    }
}
