//! Steady-state allocation gate for the hearer-list marking a move makes.
//!
//! A single test in its own binary, with the counting allocator installed.
//! The window counts the calling thread's allocations only: both worlds
//! run every event, and the sharded one every epoch, on the thread that
//! drives them, and the test harness's own threads may allocate meanwhile.
//!
//! A relay in a 7×7 lattice, too big to scan, paces half a meter out and
//! back inside its grid cell, so no hearer set changes: each step runs the
//! flip enumeration (at once in the serial world, at the barrier on four
//! shards, through the barrier's mover and step buffers) and forgets the
//! relay's own list, which its next beacon recomputes. Warmed, neither
//! world may allocate.

use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::{
    Application, NodeCtx, NodeId, Outbox, ShardedWorld, SimConfig, SimDuration, SimTime, World,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// On every timer, steps toward the spot it is not at and re-arms the
/// timer; a node that never gets a timer stays put.
#[derive(Debug)]
struct Pacer {
    home: Point2,
    away: Point2,
    out: bool,
}

impl Application for Pacer {
    type Msg = ();

    fn on_message(&mut self, _: &NodeCtx<'_>, _: NodeId, (): (), _: &mut Outbox<()>) {}

    fn on_timer(&mut self, _: &NodeCtx<'_>, tag: u64, out: &mut Outbox<()>) {
        self.out = !self.out;
        out.move_toward(if self.out { self.away } else { self.home }, 1.0);
        out.set_timer(SimDuration::from_millis(400), tag);
    }
}

/// The lattice, 20 m apart, and the relay at (40, 40): its eight nearest
/// nodes lie 20 or 28.3 m away, and 28.6 m at most from (40.5, 40); every
/// other node lies 39.5 m away or more.
fn lattice() -> impl Iterator<Item = (Point2, Pacer)> {
    (0..49).map(|i| {
        let home = Point2::new(f64::from(i % 7) * 20.0, f64::from(i / 7) * 20.0);
        (home, Pacer { home, away: Point2::new(home.x + 0.5, home.y), out: false })
    })
}

const RELAY: NodeId = NodeId::new(2 + 2 * 7);

/// The allocations of the calling thread while `run` runs.
fn allocs(run: impl FnOnce()) -> u64 {
    let before = alloc_track::thread_allocs();
    run();
    alloc_track::thread_allocs() - before
}

#[test]
fn a_relay_pacing_inside_its_cell_allocates_zero_serial_and_on_four_shards() {
    let (warm, end) = (SimTime::from_micros(5_000_000), SimTime::from_micros(65_000_000));

    let mut serial: World<Pacer> = World::new(SimConfig::default()).unwrap();
    for (p, app) in lattice() {
        serial.add_node(p, Battery::new(1e3).unwrap(), app);
    }
    serial.start();
    serial.schedule_timer(RELAY, SimDuration::from_millis(100), 0);
    serial.run_until(warm);
    let misses = serial.kernel_stats().hello_cache_misses;
    let n = allocs(|| serial.run_until(end));
    assert_eq!(n, 0, "the warmed serial world allocated {n} times in 60 sim-s");
    // The relay recomputed its list after every period's steps, and no
    // other node did.
    assert_eq!(serial.kernel_stats().hello_cache_misses - misses, 60);
    assert!(serial.node(RELAY).total_moved() > 60.0);

    let bounds = (Point2::new(0.0, 0.0), Point2::new(120.0, 120.0));
    let mut sharded: ShardedWorld<Pacer> =
        ShardedWorld::new(SimConfig::default(), bounds, 4).unwrap();
    assert_eq!(sharded.threads(), 1, "the epochs must run on this thread");
    for (p, app) in lattice() {
        sharded.add_node(p, Battery::new(1e3).unwrap(), app);
    }
    sharded.start();
    sharded.schedule_timer(RELAY, SimDuration::from_millis(100), 0);
    sharded.run_until(warm);
    let misses = sharded.kernel_stats().hello_cache_misses;
    let n = allocs(|| sharded.run_until(end));
    assert_eq!(n, 0, "the warmed 4-shard world allocated {n} times in 60 sim-s");
    assert_eq!(sharded.kernel_stats().hello_cache_misses - misses, 60);
    assert!(sharded.total_moved(RELAY) > 60.0);
}
