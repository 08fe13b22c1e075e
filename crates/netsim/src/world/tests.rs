//! Serial-world tests: energy charging, death semantics, tracing and the
//! hearer cache. The ordering rules the handlers share with the sharded
//! world are pinned on both engines by
//! `handler_ordering_rules_hold_on_both_engines` in `shard/tests.rs`.

use super::engine::Event;
use super::*;
use crate::trace::TraceEvent;
use crate::{EnergyCategory, NeighborTable, NodeCtx, Outbox, SimDuration};
use imobif_energy::PowerLawModel;

/// Test protocol: forwards a counter along a chain and records receipt.
#[derive(Debug, Default)]
struct Echo {
    received: Vec<(NodeId, u32)>,
    forward_to: Option<NodeId>,
    move_target: Option<Point2>,
}

impl Application for Echo {
    type Msg = u32;

    fn on_message(&mut self, _ctx: &NodeCtx<'_>, from: NodeId, msg: u32, out: &mut Outbox<u32>) {
        self.received.push((from, msg));
        if let Some(next) = self.forward_to {
            out.send(next, 8000, msg + 1, EnergyCategory::Data);
        }
        if let Some(target) = self.move_target {
            out.move_toward(target, 1.0);
        }
    }

    fn on_timer(&mut self, _ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<u32>) {
        if let Some(next) = self.forward_to {
            out.send(next, 8000, tag as u32, EnergyCategory::Data);
        }
    }
}

fn make_world() -> World<Echo> {
    World::new(SimConfig::default()).unwrap()
}

fn chain(world: &mut World<Echo>, n: usize, spacing: f64, joules: f64) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            world.add_node(
                Point2::new(i as f64 * spacing, 0.0),
                Battery::new(joules).unwrap(),
                Echo::default(),
            )
        })
        .collect()
}

#[test]
fn message_relays_along_chain_and_charges_energy() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.app_mut(ids[1]).forward_to = Some(ids[2]);
    w.start();
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 7);
    w.run_until(SimTime::from_micros(10_000_000));

    assert_eq!(w.app(ids[2]).received, vec![(ids[1], 8)]);
    let e01 = w.ledger().node(ids[0]).data;
    let expected = PowerLawModel::paper_default(2.0).unwrap().energy(20.0, 8000.0);
    assert!((e01 - expected).abs() < 1e-12);
    // Ledger totals equal battery drawdown.
    let drawdown: f64 = ids.iter().map(|&id| 10.0 - w.residual_energy(id)).sum();
    assert!((w.ledger().totals().total() - drawdown).abs() < 1e-9);
}

#[test]
fn kernel_stats_and_publish_metrics_flush_everything() {
    let mut w = make_world();
    // Default config beacons for free; charge them so the hello energy
    // category shows up in the published metrics.
    w.reach.cfg.hello.charge_energy = true;
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.start();
    w.enable_tracing(4);
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 7);
    w.run_until(SimTime::from_micros(5_000_000));

    let stats = *w.kernel_stats();
    assert!(stats.hello_beacons > 0, "hello is on by default");
    assert_eq!(stats.timers_fired, 1);
    assert_eq!(
        stats.hello_fanout_bins.iter().sum::<u64>(),
        stats.hello_beacons,
        "every beacon records one fan-out sample"
    );
    assert!(w.engine.queue.stats().pushes > 0);

    let registry = imobif_obs::Registry::enabled();
    w.publish_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("queue.pushes"), Some(w.engine.queue.stats().pushes));
    assert_eq!(snap.counter("kernel.events_processed"), Some(w.events_processed()));
    assert_eq!(snap.counter("kernel.hello_beacons"), Some(stats.hello_beacons));
    assert!(snap.float("energy.hello_joules").unwrap() > 0.0);
    assert!(snap.float("energy.data_joules").unwrap() > 0.0);
    assert_eq!(snap.counter("packets.delivered"), Some(w.ledger().packets_delivered));
    assert_eq!(snap.counter("trace.recorded"), Some(w.trace().unwrap().total_recorded()));
    // Publishing again accumulates counters (batch semantics).
    w.publish_metrics(&registry);
    assert_eq!(
        registry.snapshot().counter("queue.pushes"),
        Some(2 * w.engine.queue.stats().pushes)
    );
    // A disabled registry records nothing.
    let off = imobif_obs::Registry::disabled();
    w.publish_metrics(&off);
    assert!(off.snapshot().entries.is_empty());
}

#[test]
fn unaffordable_send_kills_node() {
    let mut w = make_world();
    let ids = chain(&mut w, 2, 20.0, 10.0);
    // Node 0 can afford ~2 sends of 8000 bits at 20 m (e ≈ 4e-3 J)…
    // give it far less than one send's worth.
    let mut w2 = make_world();
    let a = w2.add_node(Point2::ORIGIN, Battery::new(1e-6).unwrap(), Echo::default());
    let b = w2.add_node(Point2::new(20.0, 0.0), Battery::new(1.0).unwrap(), Echo::default());
    w2.app_mut(a).forward_to = Some(b);
    w2.start();
    w2.schedule_timer(a, SimDuration::ZERO, 1);
    w2.run_until(SimTime::from_micros(1_000_000));
    assert!(!w2.is_alive(a));
    assert!(w2.app(b).received.is_empty());
    assert_eq!(w2.ledger().first_death().unwrap().0, a);
    drop((w, ids));
}

#[test]
fn movement_charges_mobility_energy() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(10.0).unwrap(), Echo::default());
    w.app_mut(b).forward_to = None;
    w.app_mut(a).forward_to = Some(b);
    w.app_mut(b).move_target = Some(Point2::new(10.0, 5.0));
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    // b moved 1 m (max_step) toward the target on packet receipt.
    assert_eq!(w.position(b), Point2::new(10.0, 1.0));
    assert!((w.ledger().node(b).mobility - 0.5).abs() < 1e-12);
    assert!((w.node(b).total_moved() - 1.0).abs() < 1e-12);
}

#[test]
fn movement_beyond_budget_kills_mid_step() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    // 0.2 J at 0.5 J/m buys 0.4 m of movement.
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(0.2).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.app_mut(b).move_target = Some(Point2::new(20.0, 0.0));
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    assert!(!w.is_alive(b));
    let moved = w.node(b).total_moved();
    assert!(moved > 0.3 && moved < 0.5, "moved {moved}, expected ~0.4");
    // All its energy ended up as mobility spend in the ledger.
    assert!(w.ledger().node(b).mobility > 0.19);
}

#[test]
fn hello_populates_neighbor_tables() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.start();
    w.run_until(SimTime::from_micros(100_000));
    let n0 = w.node(ids[0]).neighbor_table().fresh(w.time());
    assert_eq!(n0.len(), 1);
    assert_eq!(n0[0].id, ids[1]);
    let n1 = w.node(ids[1]).neighbor_table().fresh(w.time());
    assert_eq!(n1.len(), 2);
}

#[test]
fn hello_energy_charged_when_enabled() {
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let mut w: World<Echo> = World::new(cfg).unwrap();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    w.start();
    w.run_until(SimTime::from_micros(3_500_000));
    // Beacons at t=0,1,2,3 s -> 4 charged beacons.
    let per_beacon = PowerLawModel::paper_default(2.0).unwrap().energy(30.0, 512.0);
    assert!((w.ledger().node(a).hello - 4.0 * per_beacon).abs() < 1e-12);
}

#[test]
fn dead_node_receives_nothing() {
    let mut w = make_world();
    let a = w.add_node(Point2::ORIGIN, Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(10.0, 0.0), Battery::new(0.0).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.start();
    w.schedule_timer(a, SimDuration::ZERO, 1);
    w.run_until(SimTime::from_micros(1_000_000));
    assert!(w.app(b).received.is_empty());
    assert_eq!(w.ledger().packets_dropped, 1);
}

#[test]
fn run_while_stops_on_predicate() {
    let mut w = make_world();
    let _ = chain(&mut w, 2, 20.0, 10.0);
    w.start();
    let n = w.run_while(|w| w.time() < SimTime::from_micros(1_500_000));
    assert!(n > 0);
}

#[test]
fn topology_view_reflects_positions() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.start();
    let topo = w.topology_view();
    assert_eq!(topo.node_count(), 3);
    assert_eq!(topo.neighbors(ids[0]), vec![ids[1]]);
}

#[test]
#[should_panic(expected = "before start")]
fn step_before_start_panics() {
    let mut w = make_world();
    let _ = w.step();
}

#[test]
fn tracing_records_kernel_events_in_order() {
    let mut w = make_world();
    let ids = chain(&mut w, 3, 20.0, 10.0);
    w.enable_tracing(64);
    w.app_mut(ids[0]).forward_to = Some(ids[1]);
    w.app_mut(ids[1]).forward_to = Some(ids[2]);
    w.app_mut(ids[1]).move_target = Some(Point2::new(20.0, 5.0));
    w.start();
    w.schedule_timer(ids[0], SimDuration::from_millis(10), 1);
    w.run_until(SimTime::from_micros(2_000_000));
    let trace = w.trace().expect("tracing enabled");
    let events = trace.events();
    assert!(!events.is_empty());
    // Timestamps are non-decreasing.
    for pair in events.windows(2) {
        assert!(pair[0].time() <= pair[1].time());
    }
    // The relay's Sent follows its Delivered; its Moved follows too.
    let sent = trace.filtered(|e| matches!(e, TraceEvent::Sent { .. }));
    let moved = trace.filtered(|e| matches!(e, TraceEvent::Moved { .. }));
    assert_eq!(sent.len(), 2, "source and relay each send once");
    assert_eq!(moved.len(), 1, "the relay moves once");
    // Without tracing there is no ring.
    let w2 = make_world();
    assert!(w2.trace().is_none());
}

/// Node positions on a `side × side` lattice: past the small-world scan,
/// so beacons go through the grid and the hearer cache.
fn lattice(side: usize, spacing: f64) -> Vec<Point2> {
    (0..side * side)
        .map(|i| Point2::new((i % side) as f64 * spacing, (i / side) as f64 * spacing))
        .collect()
}

/// The nodes whose beacons sit on `queue`'s lane, in lane order, and the
/// number of beacons on its heap.
pub(super) fn beacon_layout<M>(queue: &crate::EventQueue<Event<M>>) -> (Vec<NodeId>, usize) {
    let on_heap = queue.heap_events().filter(|e| matches!(e, Event::HelloBeacon { .. }));
    (queue.lane_ids().map(NodeId::new).collect(), on_heap.count())
}

#[test]
fn beacon_rounds_ride_the_lane_not_the_heap() {
    let mut w = make_world();
    for p in lattice(18, 14.0) {
        w.add_node(p, Battery::new(1.0).unwrap(), Echo::default());
    }
    let all: Vec<NodeId> = (0..18 * 18).map(NodeId::new).collect();
    w.start();
    assert_eq!(beacon_layout(&w.engine.queue), (all.clone(), 0), "the first round");
    // Mid-period, every beacon has gone out once and come back on the lane.
    w.run_until(SimTime::from_micros(1_500_000));
    assert_eq!(beacon_layout(&w.engine.queue), (all, 0), "the second round");
}

#[test]
fn hello_cache_hits_in_a_static_world_and_publishes() {
    let mut w = make_world();
    for p in lattice(7, 14.0) {
        w.add_node(p, Battery::new(1.0).unwrap(), Echo::default());
    }
    w.start();
    // The first round links every hearer; after it, beacons write only
    // their board records.
    w.run_until(SimTime::from_micros(500_000));
    let first = *w.kernel_stats();
    assert_eq!(first.hello_beacons, 49);
    let links: usize = (0..49).map(|i| w.node(NodeId::new(i)).neighbor_table().len()).sum();
    assert_eq!(first.hello_link_changes, links as u64, "one join per hearer of a beacon");
    w.run_until(SimTime::from_micros(5_000_000));
    let stats = *w.kernel_stats();
    assert_eq!(stats.hello_link_changes, first.hello_link_changes, "no table write after");
    // Nothing moves: each node misses once, on its first beacon, and
    // nothing forgets its list after it.
    assert_eq!(stats.hello_cache_misses, 49);
    assert_eq!(stats.hello_cache_hits + stats.hello_cache_misses, stats.hello_beacons);
    assert!(stats.hello_cache_hits >= 4 * 49);

    let registry = imobif_obs::Registry::enabled();
    w.publish_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("kernel.hello_cache_hits"), Some(stats.hello_cache_hits));
    assert_eq!(snap.counter("kernel.hello_cache_misses"), Some(stats.hello_cache_misses));
    assert_eq!(snap.counter("kernel.hello_link_changes"), Some(stats.hello_link_changes));
    imobif_obs::promlint::lint(&snap.to_prometheus()).expect("kernel families lint clean");
}

/// Test protocol: the timer tagged `i` moves the node to `stops[i]`.
#[derive(Debug, Default)]
struct Pacer {
    stops: Vec<Point2>,
}

impl Application for Pacer {
    type Msg = ();

    fn on_message(&mut self, _: &NodeCtx<'_>, _: NodeId, (): (), _: &mut Outbox<()>) {}

    fn on_timer(&mut self, _ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<()>) {
        out.move_toward(self.stops[tag as usize], 10.0);
    }
}

/// Steps `w` through one beacon round, node by node, and returns the nodes
/// that recomputed their hearer lists, each with its link changes.
fn recomputed_in_a_round(w: &mut World<Pacer>) -> Vec<(usize, u64)> {
    let mut recomputed = Vec::new();
    for i in 0..w.node_count() {
        let before = *w.kernel_stats();
        assert!(w.step());
        let after = *w.kernel_stats();
        assert_eq!(after.hello_beacons, before.hello_beacons + 1);
        if after.hello_cache_misses > before.hello_cache_misses {
            recomputed.push((i, after.hello_link_changes - before.hello_link_changes));
        } else {
            assert_eq!(after.hello_link_changes, before.hello_link_changes, "beacon {i}");
        }
    }
    w.verify_hearer_lists().expect("every kept list is exact");
    recomputed
}

#[test]
fn pacing_inside_a_cell_recomputes_only_the_mover_and_a_crossing_also_the_corner() {
    // A 7×7 lattice at 20 m with the 30 m range: the mover at (40, 40)
    // hears its eight nearest nodes (20 or 28.3 m away) and no farther one
    // (40 m or more), and stays inside its 30 m grid cell.
    let mut w: World<Pacer> = World::new(SimConfig::default()).unwrap();
    for p in lattice(7, 20.0) {
        w.add_node(p, Battery::new(100.0).unwrap(), Pacer::default());
    }
    let (mover, corner) = (NodeId::new(2 + 2 * 7), NodeId::new(1 + 7));
    let home = Point2::new(40.0, 40.0);
    assert_eq!((w.position(mover), w.position(corner)), (home, Point2::new(20.0, 20.0)));
    // A 2 m diagonal step away from (20, 20) leaves it 30.3 m away and
    // every other node's distance on the same side of the range.
    let d = std::f64::consts::SQRT_2;
    let stepped = Point2::new(40.0 + d, 40.0 + d);
    w.app_mut(mover).stops = vec![Point2::new(40.5, 40.0), home, stepped];
    w.start();
    w.run_until(SimTime::from_micros(500_000));
    let first = *w.kernel_stats();
    assert_eq!((first.hello_beacons, first.hello_cache_misses), (49, 49));

    // Half a meter out and back between every two beacons, for five
    // periods: no node's hearer set changes, so the mover, whose own move
    // forgets its list, is the one beacon that recomputes.
    for k in 0..5 {
        w.schedule_timer(mover, SimDuration::from_millis(1000 * k + 100), 0);
        w.schedule_timer(mover, SimDuration::from_millis(1000 * k + 300), 1);
    }
    for k in 1..=5 {
        w.run_until(SimTime::from_micros(k * 1_000_000 - 1));
        assert_eq!(w.position(mover), home);
        assert_eq!(recomputed_in_a_round(&mut w), vec![(mover.index(), 0)], "round {k}");
    }
    let paced = *w.kernel_stats();
    assert_eq!(paced.hello_beacons, 6 * 49);
    assert_eq!(paced.hello_cache_misses, first.hello_cache_misses + 5);
    assert_eq!(paced.hello_link_changes, first.hello_link_changes, "no link changes");

    // The crossing step takes the mover out of the corner's range, which
    // forgets the corner's list: the next round recomputes just the corner
    // and the mover, each finding the one leaver.
    w.run_until(SimTime::from_micros(5_500_000));
    w.schedule_timer(mover, SimDuration::from_millis(100), 2);
    w.run_until(SimTime::from_micros(5_999_999));
    assert_eq!(w.position(mover), stepped);
    assert_eq!(recomputed_in_a_round(&mut w), vec![(corner.index(), 1), (mover.index(), 1)]);
    // Each froze the other's beacon of the round before; the mover's
    // other links read this round's board.
    let now = w.time();
    let heard = |a, b| w.node(a).neighbor_table().get(b, now).unwrap().heard_at;
    assert_eq!(heard(mover, corner), SimTime::from_micros(5_000_000));
    assert_eq!(heard(corner, mover), SimTime::from_micros(5_000_000));
    assert_eq!(heard(mover, NodeId::new(3 + 3 * 7)), now);
}

/// The hearer cache against a brute-force oracle: node columns and a grid
/// of the live nodes, told of every move and death as the engines tell
/// their caches.
struct CacheBench {
    positions: Vec<Point2>,
    alive: Vec<bool>,
    grid: SpatialGrid,
    cache: beacon::HearerCache,
    stats: KernelStats,
    /// Each node's hearer set at its latest beacon, by brute force.
    heard: Vec<Vec<u32>>,
}

impl CacheBench {
    const RANGE: f64 = 30.0;

    fn view(&self) -> beacon::BeaconView<'_> {
        beacon::BeaconView {
            positions: &self.positions,
            alive: &self.alive,
            grid: &self.grid,
            range: Self::RANGE,
        }
    }

    /// Node `i` steps to `to`, or dies (`None`): the grid takes the step,
    /// then the lists it changed are forgotten.
    fn step(&mut self, i: usize, to: Option<Point2>) {
        let from = match to {
            Some(to) => {
                self.positions[i] = to;
                self.grid.update(i as u32, to)
            }
            None => {
                self.alive[i] = false;
                self.grid.remove(i as u32)
            }
        };
        let from = from.expect("a live node is on the grid");
        let Self { positions, alive, grid, cache, .. } = self;
        let view = beacon::BeaconView { positions, alive, grid, range: Self::RANGE };
        view.for_each_flip(from, to, |k| cache.forget(k as usize));
    }

    /// Node `i` beacons from `from`; its link changes must be the
    /// difference between the brute-force hearer sets of its last two
    /// beacons.
    fn beacon(&mut self, i: usize, from: Point2) {
        let n = self.positions.len();
        let r_sq = Self::RANGE * Self::RANGE;
        let want: Vec<u32> = (0..n)
            .filter(|&j| j != i && self.alive[j] && from.distance_sq_to(self.positions[j]) <= r_sq)
            .map(|j| j as u32)
            .collect();
        let prev = std::mem::replace(&mut self.heard[i], want);
        let now = &self.heard[i];
        let joined: Vec<u32> = now.iter().copied().filter(|k| !prev.contains(k)).collect();
        let left: Vec<u32> = prev.iter().copied().filter(|k| !now.contains(k)).collect();
        let Self { positions, alive, grid, cache, stats, .. } = self;
        let view = beacon::BeaconView { positions, alive, grid, range: Self::RANGE };
        let got = cache.links(&view, stats, NodeId::new(i as u32), i, n, from);
        proptest::prop_assert_eq!(got.joined, &joined[..]);
        proptest::prop_assert_eq!(got.left, &left[..]);
    }
}

proptest::proptest! {
    /// Every beacon's link changes are the difference between the
    /// brute-force hearer sets of the node's previous beacon and this one,
    /// over random moves, deaths and beacons of live nodes, when the cache
    /// is told of them as the engines tell it: a move forgets the mover's
    /// own list, and once the grid holds a move or a death, the lists of
    /// the live nodes it takes into or out of range are forgotten. Op 3 is
    /// a sharded node's own move: its list is forgotten, it beacons from
    /// the new spot, and only then does the grid catch up, as at the
    /// barrier. Op 6 walks a node back to where it last beaconed, where
    /// only the own-move forget keeps its list from being reused. Most
    /// moves are relay-sized steps under 1 m, which rarely change a
    /// hearer set. A world past `SMALL_WORLD_SCAN` nodes reuses a list
    /// until something forgets it, a smaller one only while nothing moved
    /// or died. After every op, each live node's kept list must equal a
    /// brute-force hearer set.
    #[test]
    fn prop_cached_hearers_match_brute_force(
        coords in proptest::collection::vec((0.0..120.0f64, 0.0..120.0f64), 2..60),
        steps in proptest::collection::vec((0u8..10, 0usize..60, 0.0..120.0f64, 0.0..120.0f64), 1..300),
    ) {
        let positions: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let n = positions.len();
        let mut grid = SpatialGrid::new(CacheBench::RANGE);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i as u32, p);
        }
        let mut beaconed = positions.clone();
        let mut b = CacheBench {
            positions,
            alive: vec![true; n],
            grid,
            cache: beacon::HearerCache::default(),
            stats: KernelStats::default(),
            heard: vec![Vec::new(); n],
        };
        for (op, who, x, y) in steps {
            let i = who % n;
            if !b.alive[i] {
                continue;
            }
            let target = Point2::new(x, y);
            match op {
                0 | 1 | 4 | 5 | 6 => {
                    // A short move, so lists change by a member or two, a
                    // relay's step of at most 1 m, or the way back.
                    let to = match op {
                        0 => b.positions[i].step_toward(target, 8.0).0,
                        6 => beaconed[i],
                        _ => b.positions[i].step_toward(target, x / 120.0).0,
                    };
                    b.cache.forget(i);
                    b.step(i, Some(to));
                }
                2 if x < 15.0 => b.step(i, None),
                3 => {
                    b.cache.forget(i);
                    b.beacon(i, target);
                    beaconed[i] = target;
                    b.step(i, Some(target));
                }
                _ => {
                    let from = b.positions[i];
                    b.beacon(i, from);
                    beaconed[i] = from;
                }
            }
            let view = b.view();
            for j in (0..n).filter(|&j| b.alive[j]) {
                let kept = b.cache.verify(&view, NodeId::new(j as u32), j, b.positions[j]);
                proptest::prop_assert!(kept.is_ok(), "{:?}", kept);
            }
        }
        proptest::prop_assert_eq!(
            b.stats.hello_cache_hits + b.stats.hello_cache_misses,
            b.stats.hello_beacons
        );
    }
}

proptest::proptest! {
    /// The beacon board plus link diffs give every node — dead ones
    /// included — the same neighbor view as the push tables they replace,
    /// where every beacon is observed into the table of every live hearer.
    ///
    /// The sequences mix beacons, short moves (a node with a beacon-sized
    /// battery dies mid-step), scheduled deaths and charged beacons that
    /// kill their sender, over a near cluster and a far one offset by
    /// whole grid-table widths, so their cells alias onto the same grid
    /// slots. Without a crowd the world is small enough to scan. With one,
    /// the crowd then gathers, and each member's hearer list grows to hold
    /// the whole crowd. A leaver frozen with its origin's new record instead
    /// of the previous one fails the comparison.
    #[test]
    fn prop_board_and_links_match_push_tables(
        coords in proptest::collection::vec((0.0..90.0f64, 0.0..90.0f64, 0u8..4), 4..40),
        steps in proptest::collection::vec(
            (0u8..10, 0usize..40, 0.0..90.0f64, 0.0..90.0f64, 0u64..400),
            1..150,
        ),
        crowd in 0u8..2,
    ) {
        // Whole widths of every grid table these worlds reach.
        const FAR: f64 = 30.0 * 1024.0;
        const CROWD: usize = 24;
        let mut cfg = SimConfig::default();
        cfg.hello.charge_energy = true;
        let per_beacon = cfg.tx.energy(cfg.range, cfg.hello.bits as f64);
        let mut w: World<Echo> = World::new(cfg).unwrap();
        let mut offsets = Vec::new();
        for &(x, y, kind) in &coords {
            let off = if kind == 1 { FAR } else { 0.0 };
            // Kind 0 pays for two and a half beacons: it dies at its third.
            let joules = if kind == 0 { 2.5 * per_beacon } else { 10.0 };
            w.add_node(Point2::new(x + off, y), Battery::new(joules).unwrap(), Echo::default());
            offsets.push(off);
        }
        let n = coords.len();
        let ring = |k: usize| {
            let a = k as f64 * std::f64::consts::TAU / CROWD as f64;
            Point2::new(300.0 + 60.0 * a.cos(), 300.0 + 60.0 * a.sin())
        };
        let crowd = if crowd == 1 { CROWD } else { 0 };
        for k in 0..crowd {
            // Enough for the 60 m walk at 0.5 J/m.
            w.add_node(ring(k), Battery::new(40.0).unwrap(), Echo::default());
        }
        let total = n + crowd;
        // The world is driven event by event, never started.
        w.engine.fill_board();
        let mut push: Vec<NeighborTable> =
            (0..total).map(|_| NeighborTable::new(cfg.hello.ttl)).collect();
        let mut now = SimTime::ZERO;
        // Runs one event at `now`; a beacon that goes out is pushed into the
        // table of every live hearer.
        let op = |w: &mut World<Echo>, push: &mut [NeighborTable], now, event| {
            let beacon = match event {
                Event::HelloBeacon { node } if w.is_alive(node) => Some(node),
                _ => None,
            };
            w.engine.queue.push(now, event);
            assert!(w.engine.step(&mut w.reach));
            // Drop the beacon the handler rescheduled: the sequence decides.
            while w.engine.queue.pop_next().is_some() {}
            if let Some(id) = beacon.filter(|&id| w.is_alive(id)) {
                let (pos, residual) = (w.position(id), w.residual_energy(id));
                for (h, table) in push.iter_mut().enumerate() {
                    let hearer = NodeId::new(h as u32);
                    let in_range = pos.distance_sq_to(w.position(hearer)) <= cfg.range * cfg.range;
                    if hearer != id && w.is_alive(hearer) && in_range {
                        table.observe(id, pos, residual, now);
                    }
                }
            }
        };
        for (kind, who, x, y, dt) in steps {
            let i = who % n;
            let id = NodeId::new(i as u32);
            now += SimDuration::from_millis(dt);
            w.engine.time = now;
            match kind {
                0..=3 => {
                    let target = Point2::new(x + offsets[i], y);
                    w.engine.dispatch(&mut w.reach, id, i, |_, _, out| out.move_toward(target, 8.0));
                }
                4 if x < 20.0 => op(&mut w, &mut push, now, Event::ScheduledKill { node: id }),
                _ => op(&mut w, &mut push, now, Event::HelloBeacon { node: id }),
            }
            assert_views_match(&w, &push, now);
        }
        for _ in 0..if crowd > 0 { 20 } else { 0 } {
            now += SimDuration::from_millis(250);
            w.engine.time = now;
            for k in n..total {
                let id = NodeId::new(k as u32);
                let center = Point2::new(300.0, 300.0);
                w.engine.dispatch(&mut w.reach, id, k, |_, _, out| out.move_toward(center, 3.0));
                op(&mut w, &mut push, now, Event::HelloBeacon { node: id });
            }
            assert_views_match(&w, &push, now);
        }
    }
}

/// Every node's view — `fresh`, `len` and `get` for every peer — equals
/// its push table's, and every kept hearer list is exact.
fn assert_views_match(w: &World<Echo>, push: &[NeighborTable], now: SimTime) {
    w.verify_hearer_lists().expect("every kept hearer list is exact");
    for (h, table) in push.iter().enumerate() {
        let (got, want) = (w.node(NodeId::new(h as u32)).neighbor_table(), table.view());
        assert_eq!(got.fresh(now), want.fresh(now), "node {h} at {now:?}");
        assert_eq!(got.len(), want.len(), "node {h} knows the same peers");
        for j in (0..push.len() as u32).map(NodeId::new) {
            assert_eq!(got.get(j, now), want.get(j, now), "node {h}, peer {j:?}");
        }
    }
}

#[test]
fn determinism_same_setup_same_trace() {
    let run = || {
        let mut w = make_world();
        let ids = chain(&mut w, 4, 20.0, 10.0);
        for pair in ids.windows(2) {
            w.app_mut(pair[0]).forward_to = Some(pair[1]);
        }
        w.app_mut(ids[1]).move_target = Some(Point2::new(40.0, 9.0));
        w.start();
        for i in 0..5 {
            w.schedule_timer(ids[0], SimDuration::from_millis(i * 100), i);
        }
        w.run_until(SimTime::from_micros(10_000_000));
        (
            ids.iter().map(|&id| w.position(id)).collect::<Vec<_>>(),
            ids.iter().map(|&id| w.residual_energy(id)).collect::<Vec<_>>(),
            w.ledger().packets_sent,
        )
    };
    assert_eq!(run(), run());
}
