//! Sharded-world tests: shard-count/thread-count invariance, the ordering
//! rules and the serial/sharded agreement run on both engines, the
//! activity schedule against the dense one, and layout geometry.

use super::super::beacon::{BeaconView, HearerCache, Links, SMALL_WORLD_SCAN};
use super::super::engine::{Engine, Reach};
use super::*;
use crate::hello::Beacon;
use crate::node::NodeStore;
use crate::trace::{RingTrace, TraceEvent};
use crate::{
    EnergyCategory, EventQueue, NeighborEntry, NeighborTable, NeighborView, NodeCtx, NodeEnergy,
    Outbox, World,
};
use imobif_energy::PowerLawModel;
use imobif_geom::SpatialGrid;

/// Test protocol: forwards a counter along a chain, optionally moves on
/// receipt, and records what it saw.
#[derive(Debug, Default)]
struct Echo {
    received: Vec<(NodeId, u32)>,
    forward_to: Option<NodeId>,
    move_target: Option<Point2>,
    seen_neighbors: usize,
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

    fn on_timer(&mut self, ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<u32>) {
        self.seen_neighbors = ctx.neighbors().len();
        if let Some(next) = self.forward_to {
            out.send(next, 8000, tag as u32, EnergyCategory::Data);
        }
    }
}

const BOUNDS: (Point2, Point2) = (Point2 { x: 0.0, y: 0.0 }, Point2 { x: 100.0, y: 100.0 });

fn make_sharded(shards: usize) -> ShardedWorld<Echo> {
    make_sharded_with(SimConfig::default(), shards)
}

fn make_sharded_with(cfg: SimConfig, shards: usize) -> ShardedWorld<Echo> {
    ShardedWorld::new(cfg, BOUNDS, shards).unwrap()
}

/// The serial twin of [`make_sharded_with`]: same config.
fn make_serial(cfg: SimConfig) -> World<Echo> {
    World::new(cfg).unwrap()
}

#[derive(Debug, Clone)]
struct Scenario {
    positions: Vec<Point2>,
    joules: f64,
    move_y: f64,
    timers: Vec<u64>,
    run_micros: u64,
}

/// Everything observable about a finished run. Derives `PartialEq` so the
/// invariance tests compare runs bit-for-bit (energies via `to_bits`).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    positions: Vec<Point2>,
    energies: Vec<u64>,
    total_moved: Vec<u64>,
    deaths: Vec<Option<SimTime>>,
    receipts: Vec<Vec<(NodeId, u32)>>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    totals: [u64; 4],
    first_death: Option<(NodeId, SimTime)>,
    events_processed: u64,
    time: SimTime,
    trace: Vec<TraceEvent>,
    fnv: u64,
    /// Every node's fresh neighbor view at the end, as bits.
    tables: Vec<Vec<[u64; 5]>>,
}

impl Fingerprint {
    /// The books alone: everything but the trace.
    fn books(mut self) -> Self {
        self.trace.clear();
        self.fnv = 0;
        self
    }
}

fn energy_bits(e: NodeEnergy) -> [u64; 4] {
    [e.data.to_bits(), e.mobility.to_bits(), e.hello.to_bits(), e.notification.to_bits()]
}

/// A neighbor view's fresh entries at `now`, each as `[id, x, y, residual,
/// heard at]` bits.
fn table_bits(view: NeighborView<'_>, now: SimTime) -> Vec<[u64; 5]> {
    let bits = |e: NeighborEntry| {
        let [x, y, r] = [e.position.x, e.position.y, e.residual_energy].map(f64::to_bits);
        [u64::from(e.id.raw()), x, y, r, e.heard_at.as_micros()]
    };
    view.iter_fresh(now).map(bits).collect()
}

impl<A: Application> ShardedWorld<A> {
    /// `id`'s neighbor table, read through the replica board as its hooks
    /// read it.
    fn table(&self, id: NodeId) -> NeighborView<'_> {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.nodes.neighbor_table(slot).view_with(&self.replica.board)
    }

    /// The link changes the runs have room for: 0 until some beacon ships
    /// one, since the runs keep their buffers.
    fn link_run_capacity(&self) -> usize {
        self.outs.iter().map(|o| o.links.capacity()).sum()
    }
}

/// Both engines behind one interface, so a scenario, its fingerprint and
/// the ordering table run unchanged on the serial and the sharded world.
trait Driver {
    fn add(&mut self, p: Point2, joules: f64) -> NodeId;
    fn echo(&mut self, id: NodeId) -> &mut Echo;
    fn trace_on(&mut self);
    fn begin(&mut self);
    fn timer(&mut self, id: NodeId, millis: u64, tag: u64);
    fn run_to(&mut self, t: SimTime);
    fn fingerprint(&self, ids: &[NodeId]) -> Fingerprint;
    /// Whether `hearer`'s neighbor table holds `origin`.
    fn heard(&self, hearer: NodeId, origin: NodeId) -> bool;
    fn stats(&self) -> KernelStats;
    /// Trace records kept so far.
    fn records(&self) -> u64;
    /// Hands `event` to the engine's [`Reach`] as `id`'s trace record.
    fn reach_trace(&mut self, id: NodeId, event: fn() -> TraceEvent);
}

impl Driver for World<Echo> {
    fn add(&mut self, p: Point2, joules: f64) -> NodeId {
        self.add_node(p, Battery::new(joules).unwrap(), Echo::default())
    }
    fn echo(&mut self, id: NodeId) -> &mut Echo {
        self.app_mut(id)
    }
    fn trace_on(&mut self) {
        self.enable_tracing(1 << 16);
    }
    fn begin(&mut self) {
        self.start();
    }
    fn timer(&mut self, id: NodeId, millis: u64, tag: u64) {
        self.schedule_timer(id, SimDuration::from_millis(millis), tag);
    }
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn fingerprint(&self, ids: &[NodeId]) -> Fingerprint {
        let ledger = self.ledger();
        let trace = self.trace().map(RingTrace::events).unwrap_or_default();
        Fingerprint {
            positions: ids.iter().map(|&id| self.position(id)).collect(),
            energies: ids.iter().map(|&id| self.residual_energy(id).to_bits()).collect(),
            total_moved: ids.iter().map(|&id| self.node(id).total_moved().to_bits()).collect(),
            deaths: ids.iter().map(|&id| ledger.death_time(id)).collect(),
            receipts: ids.iter().map(|&id| self.app(id).received.clone()).collect(),
            sent: ledger.packets_sent,
            delivered: ledger.packets_delivered,
            dropped: ledger.packets_dropped,
            totals: energy_bits(ledger.totals()),
            first_death: ledger.first_death(),
            events_processed: self.events_processed(),
            time: self.time(),
            fnv: imobif_obs::fnv1a64(crate::trace::events_to_jsonl(&trace).as_bytes()),
            trace,
            tables: ids
                .iter()
                .map(|&id| table_bits(self.node(id).neighbor_table(), self.time()))
                .collect(),
        }
    }
    fn heard(&self, hearer: NodeId, origin: NodeId) -> bool {
        self.node(hearer).neighbor_table().get(origin, self.time()).is_some()
    }
    fn stats(&self) -> KernelStats {
        *self.kernel_stats()
    }
    fn records(&self) -> u64 {
        self.trace().map_or(0, RingTrace::total_recorded)
    }
    fn reach_trace(&mut self, id: NodeId, event: fn() -> TraceEvent) {
        Reach::<u32>::trace(&mut self.reach, id.index(), id, event);
    }
}

impl Driver for ShardedWorld<Echo> {
    fn add(&mut self, p: Point2, joules: f64) -> NodeId {
        self.add_node(p, Battery::new(joules).unwrap(), Echo::default())
    }
    fn echo(&mut self, id: NodeId) -> &mut Echo {
        self.app_mut(id)
    }
    fn trace_on(&mut self) {
        self.enable_tracing();
    }
    fn begin(&mut self) {
        self.start();
    }
    fn timer(&mut self, id: NodeId, millis: u64, tag: u64) {
        self.schedule_timer(id, SimDuration::from_millis(millis), tag);
    }
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn fingerprint(&self, ids: &[NodeId]) -> Fingerprint {
        Fingerprint {
            positions: ids.iter().map(|&id| self.position(id)).collect(),
            energies: ids.iter().map(|&id| self.residual_energy(id).to_bits()).collect(),
            total_moved: ids.iter().map(|&id| self.total_moved(id).to_bits()).collect(),
            deaths: ids.iter().map(|&id| self.death_time(id)).collect(),
            receipts: ids.iter().map(|&id| self.app(id).received.clone()).collect(),
            sent: self.packets_sent(),
            delivered: self.packets_delivered(),
            dropped: self.packets_dropped(),
            totals: energy_bits(self.totals()),
            first_death: self.first_death(),
            events_processed: self.events_processed(),
            time: self.time(),
            trace: self.merged_trace(),
            fnv: self.trace_fnv(),
            tables: ids.iter().map(|&id| table_bits(self.table(id), self.time())).collect(),
        }
    }
    fn heard(&self, hearer: NodeId, origin: NodeId) -> bool {
        self.table(hearer).get(origin, self.time()).is_some()
    }
    fn stats(&self) -> KernelStats {
        self.kernel_stats()
    }
    fn records(&self) -> u64 {
        self.trace_events_recorded()
    }
    fn reach_trace(&mut self, id: NodeId, event: fn() -> TraceEvent) {
        let (si, slot) = self.locate(id);
        let sh = SharedCtx { cfg: &self.cfg, owner: &self.owner };
        let (_, mut reach) = self.shards[si].split(&sh, &self.replica, &mut self.outs[si]);
        reach.trace(slot, id, event);
    }
}

fn run_scenario(w: &mut impl Driver, sc: &Scenario) -> Fingerprint {
    let ids: Vec<NodeId> = sc.positions.iter().map(|&p| w.add(p, sc.joules)).collect();
    w.trace_on();
    for pair in ids.windows(2) {
        w.echo(pair[0]).forward_to = Some(pair[1]);
    }
    if ids.len() > 1 {
        w.echo(ids[1]).move_target = Some(Point2::new(50.0, sc.move_y));
    }
    w.begin();
    for (i, &t) in sc.timers.iter().enumerate() {
        w.timer(ids[0], t, i as u64);
    }
    w.run_to(SimTime::from_micros(sc.run_micros));
    w.fingerprint(&ids)
}

// ---------------------------------------------------------------- layout

#[test]
fn layout_factors_into_most_square_grid() {
    let cases = [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4)), (5, (1, 5))];
    for (shards, dims) in cases {
        let l = ShardLayout::new(BOUNDS.0, BOUNDS.1, shards);
        assert_eq!(l.grid_dims(), dims, "shards={shards}");
        assert_eq!(l.shard_count(), shards);
    }
}

#[test]
fn layout_maps_every_point_to_a_valid_cell() {
    let l = ShardLayout::new(BOUNDS.0, BOUNDS.1, 4);
    assert_eq!(l.shard_of(Point2::new(10.0, 10.0)), 0);
    assert_eq!(l.shard_of(Point2::new(90.0, 10.0)), 1);
    assert_eq!(l.shard_of(Point2::new(10.0, 90.0)), 2);
    assert_eq!(l.shard_of(Point2::new(90.0, 90.0)), 3);
    // Outside the bounds clamps to edge cells; degenerate bounds still map.
    assert_eq!(l.shard_of(Point2::new(-5.0, -5.0)), 0);
    assert_eq!(l.shard_of(Point2::new(500.0, 500.0)), 3);
    let degenerate = ShardLayout::new(Point2::new(3.0, 3.0), Point2::new(3.0, 3.0), 4);
    assert!(degenerate.shard_of(Point2::new(3.0, 3.0)) < 4);
}

// ------------------------------------------------------------ construction

#[test]
fn sharded_world_rejects_unshardable_configs() {
    let mk =
        |cfg: SimConfig, shards: usize| ShardedWorld::<Echo>::new(cfg, BOUNDS, shards).map(|_| ());
    let no_lookahead = SimConfig { hop_latency: SimDuration::ZERO, ..SimConfig::default() };
    assert_eq!(mk(no_lookahead, 2), Err(SimError::InvalidConfig { field: "hop_latency" }));
    assert_eq!(mk(SimConfig::default(), 0), Err(SimError::InvalidConfig { field: "shards" }));
}

// -------------------------------------------------------------- semantics

#[test]
fn cross_shard_chain_delivers_and_charges_like_a_chain_should() {
    // Three nodes spanning all four shards' midline, 20 m apart.
    let mut w = make_sharded(4);
    let sc = Scenario {
        positions: vec![Point2::new(30.0, 50.0), Point2::new(50.0, 50.0), Point2::new(70.0, 50.0)],
        joules: 10.0,
        move_y: 50.0,
        timers: vec![10],
        run_micros: 10_000_000,
    };
    let ids = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
    let fp = run_scenario(&mut w, &sc);
    assert_eq!(w.app(ids[2]).received, vec![(ids[1], 1)]);
    assert!(fp.delivered >= 2, "timer packet relayed across two hops");
    let e0 = w.node_energy(ids[0]).data;
    let expected = PowerLawModel::paper_default(2.0).unwrap().energy(20.0, 8000.0);
    assert!((e0 - expected).abs() < 1e-12, "sender charged for the 20 m hop");
    // The ledger total equals the battery drawdown.
    let drawdown: f64 = ids.iter().map(|&id| 10.0 - w.residual_energy(id)).sum();
    assert!((w.totals().total() - drawdown).abs() < 1e-9);
}

/// Two nodes in two other shards each send a hub one packet at the same
/// instant. The hub takes them in key order, lower sender id first, as in
/// one shard: the barrier sorts the epoch's deliveries, where appending
/// them shard by shard would hand it shard 2's sender first.
#[test]
fn same_instant_deliveries_from_two_shards_arrive_in_key_order() {
    let receipts = |shards| {
        let mut w = make_sharded(shards);
        let ids =
            [(49.0, 49.0), (51.0, 51.0), (49.0, 51.0)].map(|(x, y)| w.add(Point2::new(x, y), 10.0));
        if shards == 4 {
            assert_eq!(ids.map(|id| w.layout().shard_of(w.position(id))), [0, 3, 2]);
        }
        w.start();
        for &id in &ids[1..] {
            w.echo(id).forward_to = Some(ids[0]);
            w.schedule_timer(id, SimDuration::from_millis(10), 7);
        }
        w.run_until(SimTime::from_micros(1_000_000));
        w.app(ids[0]).received.clone()
    };
    let serial = receipts(1);
    assert_eq!(serial, [(NodeId::new(1), 7), (NodeId::new(2), 7)]);
    assert_eq!(receipts(4), serial);
}

#[test]
fn hello_observations_cross_shard_boundaries() {
    // Two nodes 2 m apart but on opposite sides of the 2×2 layout's
    // vertical midline: neighbor knowledge can only arrive via the barrier.
    let mut w = make_sharded(4);
    let a = w.add_node(Point2::new(49.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(51.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    assert_ne!(w.layout().shard_of(w.position(a)), w.layout().shard_of(w.position(b)));
    w.start();
    w.schedule_timer(a, SimDuration::from_millis(2500), 0);
    w.schedule_timer(b, SimDuration::from_millis(2500), 0);
    w.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(w.app(a).seen_neighbors, 1, "a heard b's beacons across the boundary");
    assert_eq!(w.app(b).seen_neighbors, 1, "b heard a's beacons across the boundary");
    let stats = w.kernel_stats();
    assert!(stats.hello_beacons >= 6);
    assert_eq!(stats.hello_fanout_bins.iter().sum::<u64>(), stats.hello_beacons);
}

#[test]
fn beacon_rounds_ride_each_shards_lane_not_its_heap() {
    let mut w = make_sharded(4);
    for i in 0..300 {
        let p = Point2::new(2.0 + (i % 20) as f64 * 5.0, 2.0 + (i / 20) as f64 * 6.5);
        w.add_node(p, Battery::new(1.0).unwrap(), Echo::default());
    }
    // Each shard's lane holds its own nodes' beacons in global id order.
    let expected: Vec<Vec<NodeId>> = (0..4)
        .map(|s| {
            let owned = w.owner.iter().enumerate().filter(|(_, o)| o.0 == s);
            owned.map(|(i, _)| NodeId::new(i as u32)).collect()
        })
        .collect();
    assert!(expected.iter().all(|nodes| nodes.len() > 30), "every shard owns nodes");
    let layout = |w: &ShardedWorld<Echo>| -> Vec<(Vec<NodeId>, usize)> {
        w.shards.iter().map(|s| crate::world::tests::beacon_layout(&s.engine.queue)).collect()
    };
    let want: Vec<(Vec<NodeId>, usize)> = expected.into_iter().map(|n| (n, 0)).collect();
    w.start();
    assert_eq!(layout(&w), want, "the first round");
    w.run_until(SimTime::from_micros(1_500_000));
    assert_eq!(layout(&w), want, "the second round");
}

// ------------------------------------------------------ both engines

/// One row of the ordering table: a small world, one source timer, and
/// the rule its outcome must show on both engines.
struct Rule {
    name: &'static str,
    charge_hello: bool,
    nodes: Vec<(Point2, f64)>,
    /// `(sender, receiver)` for the source and its one relay hop.
    forward: Option<(usize, usize)>,
    /// Packets the sender sends, one every 5 ms from 5 ms on.
    packets: u64,
    /// A node that steps toward a target on every receipt.
    mover: Option<(usize, Point2)>,
    run_millis: u64,
    check: fn(&Outcome),
}

struct Outcome {
    fp: Fingerprint,
    stats: KernelStats,
    /// `heard_by[i]`: the nodes whose neighbor tables hold node `i`.
    heard_by: Vec<Vec<usize>>,
}

impl Outcome {
    fn position_of(&self, kind: fn(&TraceEvent) -> bool) -> usize {
        self.fp.trace.iter().position(kind).expect("the record is in the trace")
    }

    fn count(&self, kind: fn(&TraceEvent) -> bool) -> usize {
        self.fp.trace.iter().filter(|e| kind(e)).count()
    }
}

fn run_rule(w: &mut impl Driver, rule: &Rule, traced: bool) -> Outcome {
    let ids: Vec<NodeId> = rule.nodes.iter().map(|&(p, joules)| w.add(p, joules)).collect();
    if traced {
        w.trace_on();
    }
    if let Some((from, to)) = rule.forward {
        w.echo(ids[from]).forward_to = Some(ids[to]);
    }
    if let Some((node, target)) = rule.mover {
        w.echo(ids[node]).move_target = Some(target);
    }
    w.begin();
    if let Some((from, _)) = rule.forward {
        for k in 0..rule.packets {
            w.timer(ids[from], 5 * (k + 1), k);
        }
    }
    w.run_to(SimTime::from_micros(rule.run_millis * 1000));
    let heard_by = ids
        .iter()
        .map(|&origin| (0..ids.len()).filter(|&h| w.heard(ids[h], origin)).collect())
        .collect();
    Outcome { fp: w.fingerprint(&ids), stats: w.stats(), heard_by }
}

fn ordering_rules() -> Vec<Rule> {
    let pair = |a: f64, b: f64| vec![(Point2::new(40.0, 50.0), a), (Point2::new(60.0, 50.0), b)];
    let row = |pad: usize| {
        let mut nodes: Vec<_> =
            (0..6).map(|i| (Point2::new(10.0 + 12.0 * i as f64, 50.0), 1.0)).collect();
        nodes.extend((0..pad).map(|j| (Point2::new(1000.0 + j as f64, 900.0), 1.0)));
        nodes
    };
    vec![
        Rule {
            name: "a live destination receives the packet",
            charge_hello: false,
            nodes: pair(10.0, 10.0),
            forward: Some((0, 1)),
            packets: 1,
            mover: None,
            run_millis: 1000,
            check: |o| {
                let sent = o.position_of(|e| matches!(e, TraceEvent::Sent { .. }));
                let delivered = o.position_of(|e| matches!(e, TraceEvent::Delivered { .. }));
                assert!(sent < delivered);
                assert_eq!((o.fp.sent, o.fp.delivered, o.fp.dropped), (1, 1, 0));
                assert_eq!(o.fp.receipts[1], [(NodeId::new(0), 0)]);
            },
        },
        Rule {
            name: "a dead destination drops the packet",
            charge_hello: false,
            nodes: pair(10.0, 0.0),
            forward: Some((0, 1)),
            packets: 1,
            mover: None,
            run_millis: 1000,
            check: |o| {
                let sent = o.position_of(|e| matches!(e, TraceEvent::Sent { .. }));
                let dropped = o.position_of(|e| matches!(e, TraceEvent::Dropped { .. }));
                assert!(sent < dropped);
                assert_eq!((o.fp.sent, o.fp.delivered, o.fp.dropped), (1, 0, 1));
                assert!(o.fp.receipts[1].is_empty());
            },
        },
        Rule {
            name: "Died comes before Dropped on an unaffordable send",
            charge_hello: false,
            nodes: pair(1e-6, 10.0),
            forward: Some((0, 1)),
            packets: 1,
            mover: None,
            run_millis: 1000,
            check: |o| {
                let died = o.position_of(|e| matches!(e, TraceEvent::Died { .. }));
                let dropped = o.position_of(|e| matches!(e, TraceEvent::Dropped { .. }));
                assert!(died < dropped);
                assert_eq!(o.count(|e| matches!(e, TraceEvent::Sent { .. })), 0);
                assert_eq!((o.fp.sent, o.fp.dropped), (0, 1));
                assert_eq!(o.fp.deaths[0], Some(SimTime::from_micros(5_000)));
            },
        },
        Rule {
            name: "an affordable step moves the full step",
            charge_hello: false,
            nodes: pair(10.0, 10.0),
            forward: Some((0, 1)),
            packets: 1,
            mover: Some((1, Point2::new(60.0, 90.0))),
            run_millis: 1000,
            check: |o| {
                let moved = o.position_of(|e| matches!(e, TraceEvent::Moved { .. }));
                assert!(
                    matches!(o.fp.trace[moved], TraceEvent::Moved { energy, .. } if energy == 0.5)
                );
                assert_eq!(o.fp.positions[1], Point2::new(60.0, 51.0));
                assert_eq!(o.fp.deaths[1], None);
            },
        },
        Rule {
            name: "a partial Moved comes before Died",
            charge_hello: false,
            // 0.3 J at 0.5 J/m buys 0.6 m of the 1 m step.
            nodes: pair(10.0, 0.3),
            forward: Some((0, 1)),
            packets: 1,
            mover: Some((1, Point2::new(60.0, 90.0))),
            run_millis: 1000,
            check: |o| {
                let moved = o.position_of(|e| matches!(e, TraceEvent::Moved { .. }));
                let died = o.position_of(|e| matches!(e, TraceEvent::Died { .. }));
                assert!(moved < died);
                let TraceEvent::Moved { energy, to, .. } = o.fp.trace[moved] else {
                    unreachable!()
                };
                assert!((energy - 0.3).abs() < 1e-9, "the whole residual is spent");
                assert!((to.y - 50.6).abs() < 1e-9, "moved exactly as far as affordable");
                assert_eq!(o.fp.energies[1], 0.0f64.to_bits());
            },
        },
        Rule {
            name: "a step at exactly 0 J stays put and dies",
            charge_hello: false,
            // The first receipt's full 1 m step spends exactly the 0.5 J
            // the node holds; the second finds nothing left to spend.
            nodes: pair(10.0, 0.5),
            forward: Some((0, 1)),
            packets: 2,
            mover: Some((1, Point2::new(60.0, 90.0))),
            run_millis: 1000,
            check: |o| {
                let died = o.position_of(|e| matches!(e, TraceEvent::Died { .. }));
                let spent: Vec<f64> = o.fp.trace[..died]
                    .iter()
                    .filter_map(|e| match *e {
                        TraceEvent::Moved { energy, .. } => Some(energy),
                        _ => None,
                    })
                    .collect();
                assert_eq!(spent, [0.5, 0.0]);
                assert_eq!(o.fp.positions[1], Point2::new(60.0, 51.0));
                assert_eq!(o.fp.total_moved[1], 1.0f64.to_bits());
                assert!(o.fp.deaths[1].is_some());
            },
        },
        Rule {
            name: "a zero-length step does nothing",
            charge_hello: false,
            nodes: pair(10.0, 10.0),
            forward: Some((0, 1)),
            packets: 1,
            mover: Some((1, Point2::new(60.0, 50.0))),
            run_millis: 1000,
            check: |o| {
                assert_eq!(o.count(|e| matches!(e, TraceEvent::Moved { .. })), 0);
                assert_eq!(o.fp.positions[1], Point2::new(60.0, 50.0));
                assert_eq!(o.fp.total_moved[1], 0.0f64.to_bits());
                assert_eq!(o.fp.totals[1], 0.0f64.to_bits(), "no mobility energy");
            },
        },
        Rule {
            name: "a funded beacon reschedules at the HELLO period",
            charge_hello: true,
            nodes: vec![(Point2::new(10.0, 10.0), 10.0)],
            forward: None,
            packets: 0,
            mover: None,
            run_millis: 3500,
            check: |o| {
                // Beacons at t = 0, 1, 2 and 3 s.
                assert_eq!(o.stats.hello_beacons, 4);
                assert_eq!(o.fp.events_processed, 4);
                let per_beacon = PowerLawModel::paper_default(2.0).unwrap().energy(30.0, 512.0);
                let hello = f64::from_bits(o.fp.totals[2]);
                assert!((hello - 4.0 * per_beacon).abs() < 1e-12);
            },
        },
        Rule {
            name: "an unfunded beacon kills its node",
            charge_hello: true,
            nodes: vec![(Point2::new(10.0, 10.0), 1e-12)],
            forward: None,
            packets: 0,
            mover: None,
            run_millis: 3500,
            check: |o| {
                assert_eq!(o.stats.hello_beacons, 0);
                assert_eq!(o.fp.events_processed, 1, "the beacon chain stops");
                assert_eq!(o.fp.deaths[0], Some(SimTime::ZERO));
                assert!(matches!(o.fp.trace[..], [TraceEvent::Died { .. }]));
            },
        },
        Rule {
            name: "the scan path finds the hearers",
            charge_hello: false,
            nodes: row(0),
            forward: None,
            packets: 0,
            mover: None,
            run_millis: 500,
            check: |o| {
                // One round of the row's six nodes: each first scan misses.
                let s = &o.stats;
                assert_eq!(s.hello_cache_hits + s.hello_cache_misses, s.hello_beacons);
                assert_eq!((s.hello_cache_hits, s.hello_cache_misses), (0, 6));
                assert_eq!(o.heard_by[2], [0, 1, 3, 4], "30 m range hears ±2 hops at 12 m");
            },
        },
        Rule {
            name: "the grid path finds the same hearers",
            charge_hello: false,
            nodes: row(SMALL_WORLD_SCAN),
            forward: None,
            packets: 0,
            mover: None,
            run_millis: 500,
            check: |o| {
                assert!(o.stats.hello_cache_misses > 0);
                assert_eq!(o.heard_by[2], [0, 1, 3, 4], "30 m range hears ±2 hops at 12 m");
            },
        },
    ]
}

/// The handlers' rules, one table, checked on the serial world and on a
/// four-shard world (whose 2×2 layout puts the rows' senders and receivers
/// in different shards). Every row also runs untraced: the books must not
/// change, no record may be kept, and neither engine's `Reach` may build a
/// record while tracing is off. The order of a send's `Sent` record and its
/// delivery shows in no engine output; `handlers_call_their_reach_in_rule_order`
/// checks it, with the other ordering rules, on the calls themselves.
#[test]
fn handler_ordering_rules_hold_on_both_engines() {
    fn check(engine: &str, rule: &Rule, mut traced: impl Driver, mut untraced: impl Driver) {
        let on = run_rule(&mut traced, rule, true);
        (rule.check)(&on);
        let off = run_rule(&mut untraced, rule, false);
        assert_eq!(
            off.fp.books(),
            on.fp.books(),
            "{engine}: {}: books depend on tracing",
            rule.name
        );
        assert_eq!(untraced.records(), 0, "{engine}: {}", rule.name);
        untraced.reach_trace(NodeId::new(0), || panic!("a record was built with tracing off"));
        let kept = traced.records();
        traced.reach_trace(NodeId::new(0), || TraceEvent::Died {
            time: SimTime::ZERO,
            node: NodeId::new(0),
        });
        assert_eq!(traced.records(), kept + 1, "{engine}: tracing on keeps the record");
    }
    for rule in &ordering_rules() {
        let mut cfg = SimConfig::default();
        cfg.hello.charge_energy = rule.charge_hello;
        check("serial", rule, make_serial(cfg), make_serial(cfg));
        check("sharded", rule, make_sharded_with(cfg, 4), make_sharded_with(cfg, 4));
    }
}

/// One call a handler made on its [`Reach`].
#[derive(Debug, PartialEq)]
enum Call {
    Schedule(SimTime),
    /// A lane push: the next event of a fixed-period stream.
    Periodic(SimTime),
    Deliver(NodeId),
    /// The hearers that joined and left.
    Hear(Vec<u32>, Vec<u32>),
    Moved(NodeId),
    Died(NodeId),
    Trace(&'static str),
}

/// A third [`Reach`]: live columns and one queue, like the serial world's,
/// but it publishes nothing and logs every call the handlers make. Some
/// ordering rules are invisible in an engine's outputs (the serial world
/// keeps its trace and its queue apart), so the table above cannot see
/// them; the calls can.
struct LogReach {
    cfg: SimConfig,
    grid: SpatialGrid,
    calls: Vec<Call>,
}

impl Reach<u32> for LogReach {
    fn cfg(&self) -> &SimConfig {
        &self.cfg
    }
    fn slot_of(&self, id: NodeId) -> usize {
        id.index()
    }
    fn peer_position(&self, nodes: &NodeStore, to: NodeId) -> Point2 {
        nodes.position(to.index())
    }
    fn schedule(
        &mut self,
        queue: &mut EventQueue<Event<u32>>,
        at: SimTime,
        _slot: usize,
        _id: NodeId,
        event: Event<u32>,
    ) {
        self.calls.push(Call::Schedule(at));
        queue.push(at, event);
    }
    fn schedule_periodic(
        &mut self,
        queue: &mut EventQueue<Event<u32>>,
        at: SimTime,
        _slot: usize,
        id: NodeId,
    ) {
        self.calls.push(Call::Periodic(at));
        assert!(queue.push_lane(at, id.raw(), || Event::HelloBeacon { node: id }));
    }
    fn deliver(
        &mut self,
        queue: &mut EventQueue<Event<u32>>,
        _now: SimTime,
        _slot: usize,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
        msg: u32,
    ) {
        self.calls.push(Call::Deliver(to));
        queue.push(arrival, Event::Deliver { from, to, msg });
    }
    fn beacon_view<'a>(&'a self, nodes: &'a NodeStore) -> BeaconView<'a> {
        BeaconView {
            positions: nodes.positions(),
            alive: nodes.alive_flags(),
            grid: &self.grid,
            range: self.cfg.range,
        }
    }
    fn board<'a>(&'a self, own: &'a [Beacon]) -> &'a [Beacon] {
        own
    }
    fn hear(&mut self, _: &mut NodeStore, _: NodeId, _: usize, _: Beacon, links: Links<'_>) {
        self.calls.push(Call::Hear(links.joined.to_vec(), links.left.to_vec()));
    }
    fn moved(&mut self, _: &NodeStore, _: &mut HearerCache, id: NodeId, _to: Point2) {
        self.calls.push(Call::Moved(id));
    }
    fn died(&mut self, _: &NodeStore, _: &mut HearerCache, id: NodeId) {
        self.calls.push(Call::Died(id));
    }
    fn trace(&mut self, _slot: usize, _id: NodeId, event: impl FnOnce() -> TraceEvent) {
        self.calls.push(Call::Trace(event().kind()));
    }
}

/// Runs `act` on an engine of two nodes 20 m apart holding `joules` (HELLO
/// charged) and returns the calls its handlers made on their [`Reach`].
fn reach_calls(joules: [f64; 2], act: impl FnOnce(&mut Engine<Echo>, &mut LogReach)) -> Vec<Call> {
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let mut reach = LogReach { cfg, grid: SpatialGrid::new(cfg.range), calls: Vec::new() };
    let mut engine = Engine::new();
    for (x, j) in [(40.0, joules[0]), (60.0, joules[1])] {
        let battery = Battery::new(j).unwrap();
        engine.add_node(Point2::new(x, 50.0), battery, Echo::default(), cfg.hello.ttl);
    }
    engine.fill_board();
    act(&mut engine, &mut reach);
    reach.calls
}

/// The handlers' ordering rules as calls on the [`Reach`] both engines
/// implement.
#[test]
fn handlers_call_their_reach_in_rule_order() {
    use Call::{Deliver, Died, Hear, Moved, Periodic, Trace};
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let send = |engine: &mut Engine<Echo>, reach: &mut LogReach| {
        engine.dispatch(reach, a, 0, |_, _, out| out.send(b, 8000, 0, EnergyCategory::Data));
    };
    let step_toward = |target: Point2| {
        move |engine: &mut Engine<Echo>, reach: &mut LogReach| {
            engine.dispatch(reach, b, 1, |_, _, out| out.move_toward(target, 1.0));
        }
    };
    let up = step_toward(Point2::new(60.0, 90.0));
    let event = |event: Event<u32>| {
        move |engine: &mut Engine<Echo>, reach: &mut LogReach| {
            engine.queue.push(SimTime::ZERO, event);
            assert!(engine.step(reach));
        }
    };
    let beacon = || event(Event::HelloBeacon { node: a });

    assert_eq!(reach_calls([10.0, 10.0], send), [Trace("sent"), Deliver(b)], "Sent, then deliver");
    assert_eq!(
        reach_calls([1e-6, 10.0], send),
        [Died(a), Trace("died"), Trace("dropped")],
        "an unaffordable send: Died, then Dropped"
    );
    assert_eq!(
        reach_calls([10.0, 0.0], event(Event::Deliver { from: a, to: b, msg: 0 })),
        [Trace("dropped")],
        "a dead destination"
    );
    assert_eq!(reach_calls([10.0, 10.0], up), [Moved(b), Trace("moved")], "a full step");
    assert_eq!(
        reach_calls([10.0, 0.3], up),
        [Moved(b), Trace("moved"), Died(b), Trace("died")],
        "a partial step: Moved, then Died"
    );
    let twice = |engine: &mut Engine<Echo>, reach: &mut LogReach| {
        up(engine, reach);
        up(engine, reach);
    };
    assert_eq!(
        reach_calls([10.0, 0.5], twice),
        [Moved(b), Trace("moved"), Trace("moved"), Died(b), Trace("died")],
        "a step at exactly 0 J publishes no move"
    );
    assert_eq!(reach_calls([10.0, 10.0], step_toward(Point2::new(60.0, 50.0))), [], "zero-length");
    assert_eq!(
        reach_calls([10.0, 10.0], beacon()),
        [Hear(vec![1], vec![]), Periodic(SimTime::ZERO + SimConfig::default().hello.period)],
        "a funded beacon reschedules on the lane at the HELLO period"
    );
    assert_eq!(reach_calls([1e-12, 10.0], beacon()), [Died(a), Trace("died")], "unfunded beacon");
}

/// Where none of the documented serial-vs-sharded deltas can show — no
/// hook reads its neighbor table, and no node moves or dies within an
/// epoch of a beacon or of a send to it — the serial world and the
/// sharded world at 1 and 4 shards produce the same run. This is the check
/// that catches one `Reach` impl diverging while each engine stays
/// self-consistent.
#[test]
fn serial_and_sharded_engines_agree_where_no_delta_can_show() {
    let mut cfg = SimConfig::default();
    cfg.hello.charge_energy = true;
    let sc = Scenario {
        positions: (0..6).map(|i| Point2::new(10.0 + 16.0 * i as f64, 50.0)).collect(),
        joules: 0.3,
        move_y: 90.0,
        timers: vec![0, 340, 680, 1020, 1360, 1700],
        run_micros: 20_000_000,
    };
    let agreed = |fp: Fingerprint| {
        let jsonl = crate::trace::events_to_jsonl(&fp.trace);
        let mut trace: Vec<&str> = jsonl.lines().collect();
        trace.sort_unstable();
        let trace: Vec<String> = trace.into_iter().map(str::to_owned).collect();
        let counts = [fp.sent, fp.delivered, fp.dropped, fp.events_processed];
        (fp.energies, fp.totals, fp.deaths, counts, fp.receipts, trace)
    };
    let serial = agreed(run_scenario(&mut make_serial(cfg), &sc));
    let (_, _, deaths, counts, _, trace) = &serial;
    assert!(deaths[1].is_some() && counts[2] > 0, "the relay dies and later packets drop");
    assert!(trace.iter().any(|l| l.contains("\"moved\"")), "the relay moves before dying");
    for shards in [1, 4] {
        let sharded = agreed(run_scenario(&mut make_sharded_with(cfg, shards), &sc));
        assert_eq!(sharded, serial, "{shards}-shard run diverged from the serial world");
    }
}

// ------------------------------------------------------------- invariance

fn invariance_scenario() -> Scenario {
    Scenario {
        positions: vec![
            Point2::new(12.0, 80.0),
            Point2::new(30.0, 70.0),
            Point2::new(48.0, 55.0),
            Point2::new(62.0, 48.0),
            Point2::new(80.0, 30.0),
            Point2::new(95.0, 12.0),
        ],
        joules: 0.8,
        move_y: 20.0,
        timers: vec![0, 150, 300, 450],
        run_micros: 8_000_000,
    }
}

#[test]
fn shard_count_is_invisible_in_every_observable() {
    let sc = invariance_scenario();
    let mut base_w = make_sharded(1);
    let base = run_scenario(&mut base_w, &sc);
    assert!(base.delivered > 0 && base.sent > 0, "scenario exercises the data plane");
    for shards in [2usize, 4, 8, 16] {
        let mut w = make_sharded(shards);
        let got = run_scenario(&mut w, &sc);
        assert_eq!(got, base, "{shards}-shard run diverged from the 1-shard reference");
    }
}

#[test]
fn thread_count_is_invisible_in_every_observable() {
    let sc = invariance_scenario();
    let mut serial = make_sharded(4);
    let base = run_scenario(&mut serial, &sc);
    for threads in [2usize, 4] {
        let mut w = make_sharded(4);
        w.set_threads(threads);
        let got = run_scenario(&mut w, &sc);
        assert_eq!(got, base, "{threads}-thread run diverged from the serial run");
    }
}

proptest::proptest! {
    /// The tentpole guarantee, over random topologies: a 1-shard world and
    /// N-shard worlds (serial and threaded) produce bit-identical traces,
    /// energies, counters and death times.
    #[test]
    fn prop_one_vs_n_shards_trace_identity(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..10.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 2usize..9,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut base_w = make_sharded(1);
        let base = run_scenario(&mut base_w, &sc);
        let mut w = make_sharded(shards);
        let got = run_scenario(&mut w, &sc);
        proptest::prop_assert_eq!(&got, &base);
        let mut threaded = make_sharded(shards);
        threaded.set_threads(2);
        let got_threaded = run_scenario(&mut threaded, &sc);
        proptest::prop_assert_eq!(&got_threaded, &base);
    }

    /// The delta-synced replica equals the ground truth rebuilt from every
    /// shard's authoritative state after arbitrary move/kill sequences —
    /// the low-energy scenarios here die mid-run, the mover relocates
    /// across shard boundaries, and the threaded path is exercised too.
    #[test]
    fn prop_delta_synced_replica_matches_ground_truth(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..2.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut w = make_sharded(shards);
        w.set_threads(threads);
        let _ = run_scenario(&mut w, &sc);
        let sync = w.verify_replica_sync();
        proptest::prop_assert!(sync.is_ok(), "replica diverged: {:?}", sync);
    }

    /// Epoch fast-forward (the activity schedule skipping idle shards) is
    /// observationally identical to stepping every shard through every
    /// epoch, across 1..16 shards and 1..4 threads.
    #[test]
    fn prop_fast_forward_matches_dense_epochs(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..10.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 1usize..17,
        threads in 1usize..5,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut dense = make_sharded(shards);
        dense.set_dense_epochs(true);
        let want = run_scenario(&mut dense, &sc);
        let mut fast = make_sharded(shards);
        fast.set_threads(threads);
        let got = run_scenario(&mut fast, &sc);
        proptest::prop_assert_eq!(&got, &want);
    }
}

// ----------------------------------------------------------- hearer cache

/// A 7×7 lattice inside `BOUNDS`: past the small-world scan, so beacons go
/// through the replica grid and the shards' hearer caches.
fn lattice_scenario() -> Scenario {
    Scenario {
        positions: (0..49)
            .map(|i| Point2::new((i % 7) as f64 * 14.0 + 3.0, (i / 7) as f64 * 14.0 + 3.0))
            .collect(),
        joules: 10.0,
        move_y: 90.0,
        timers: vec![0, 300, 600, 900, 1200],
        run_micros: 4_000_000,
    }
}

/// A six-node path across the shard boundaries whose first relay steps
/// toward `(50, 90)` on each packet: small enough to scan, so beacons
/// reuse or rescan the replica's columns.
fn path_scenario() -> Scenario {
    Scenario {
        positions: (0..6)
            .map(|i| Point2::new(10.0 + 16.0 * i as f64, 40.0 + 4.0 * i as f64))
            .collect(),
        ..lattice_scenario()
    }
}

/// The run's fingerprint plus what depends on the hearer lists alone: the
/// kernel counters (fan-out bins) and what each node saw in its table.
fn cache_fingerprint(
    w: &mut ShardedWorld<Echo>,
    sc: &Scenario,
) -> (Fingerprint, KernelStats, Vec<usize>) {
    let f = run_scenario(w, sc);
    let seen =
        (0..sc.positions.len() as u32).map(|i| w.app(NodeId::new(i)).seen_neighbors).collect();
    (f, w.kernel_stats(), seen)
}

#[test]
fn hello_cache_is_shard_count_invariant_and_publishes() {
    for sc in [lattice_scenario(), path_scenario()] {
        cache_is_shard_count_invariant_and_publishes(&sc);
    }
}

/// Hit, miss and link counts and every output equal at 1, 2, 4 and 8
/// shards, since a shard's beacons read the replica, and every kernel
/// family published equal to `kernel_stats()`.
fn cache_is_shard_count_invariant_and_publishes(sc: &Scenario) {
    let mut one = make_sharded(1);
    let base = cache_fingerprint(&mut one, sc);
    assert!(base.1.hello_cache_hits > 0 && base.1.hello_cache_misses > 0);
    assert_eq!(base.1.hello_cache_hits + base.1.hello_cache_misses, base.1.hello_beacons);
    one.verify_hearer_lists().expect("every kept list is exact");
    for shards in [2, 8] {
        let mut w = make_sharded(shards);
        w.set_threads(2);
        assert_eq!(cache_fingerprint(&mut w, sc), base, "{shards} shards");
    }
    let mut four = make_sharded(4);
    four.set_threads(2);
    assert_eq!(cache_fingerprint(&mut four, sc), base);

    let reg = imobif_obs::Registry::enabled();
    four.publish_metrics(&reg);
    let snap = reg.snapshot();
    let k = four.kernel_stats();
    assert_eq!(k, base.1);
    assert_eq!(snap.counter("kernel.hello_beacons"), Some(k.hello_beacons));
    assert_eq!(snap.counter("kernel.timers_fired"), Some(k.timers_fired));
    assert!(k.timers_fired > 0, "the scenario's source timers fire");
    assert_eq!(snap.counter("kernel.hello_cache_hits"), Some(k.hello_cache_hits));
    assert_eq!(snap.counter("kernel.hello_cache_misses"), Some(k.hello_cache_misses));
    assert_eq!(snap.counter("kernel.hello_link_changes"), Some(k.hello_link_changes));
    assert_eq!(k.hello_fanout_bins.iter().sum::<u64>(), k.hello_beacons, "one sample a beacon");
    match snap.get("kernel.hello_fanout") {
        Some(imobif_obs::MetricValue::Histogram(h)) => {
            assert_eq!(h.buckets, k.hello_fanout_bins);
            assert_eq!(h.count, k.hello_beacons);
        }
        other => panic!("expected the fan-out histogram, got {other:?}"),
    }
    imobif_obs::promlint::lint(&snap.to_prometheus()).expect("kernel families lint clean");
}

/// On a static sharded world the first round's barrier links every
/// hearer from the hearer lists, with no link run carrying anything;
/// afterwards a beacon sends only its board record, so no table is
/// written.
#[test]
fn static_world_stops_writing_tables_after_the_first_round() {
    let sc = lattice_scenario();
    let mut w = make_sharded(4);
    for &p in &sc.positions {
        w.add(p, sc.joules);
    }
    w.start();
    w.run_until(SimTime::from_micros(500_000));
    let first = w.counters.observations_applied;
    let links: usize = (0..sc.positions.len() as u32).map(|i| w.table(NodeId::new(i)).len()).sum();
    assert_eq!(first, links as u64, "one join per hearer of a first-round beacon");
    assert_eq!(w.link_run_capacity(), 0, "the first barrier shipped no link change");
    assert_eq!(w.kernel_stats().hello_link_changes, first);
    let patches = w.counters.replica_patches;
    w.run_until(SimTime::from_micros(5_000_000));
    assert_eq!(w.counters.observations_applied, first, "no link change after the first round");
    assert_eq!(w.kernel_stats().hello_link_changes, first);
    let beacons = w.kernel_stats().hello_beacons;
    assert_eq!(beacons, 6 * sc.positions.len() as u64, "rounds at 0, 1, …, 5 s");
    assert_eq!(w.counters.replica_patches - patches, beacons - 49, "one board patch a beacon");
    w.verify_replica_sync().expect("the replica board matches the owners'");
}

/// Oracle protocol: an app timer moves its node up to 12 m toward the
/// target its tag carries in centimeters, `x << 32 | y`.
#[derive(Debug, Default)]
struct Walker;

impl Application for Walker {
    type Msg = u32;

    fn on_message(&mut self, _: &NodeCtx<'_>, _: NodeId, _: u32, _: &mut Outbox<u32>) {}

    fn on_timer(&mut self, _: &NodeCtx<'_>, tag: u64, out: &mut Outbox<u32>) {
        let cm = |v: u64| (v & 0xffff_ffff) as f64 / 100.0;
        out.move_toward(Point2::new(cm(tag >> 32), cm(tag)), 12.0);
    }
}

/// The sharded twin of the serial reference oracle: after every epoch,
/// every node's view — dead ones included — equals a push table that
/// observes each beacon of the epoch into every hearer the epoch's replica
/// shows, skipping hearers dead at the barrier. That is the rule the
/// barrier applied when beacons carried their payload to each hearer.
///
/// Nodes walk on timers, fail on scheduled kills (some at a beacon
/// instant, when peers' records are still in flight), and when beacons
/// are charged, which each case draws, a beacon-sized battery dies at its
/// third beacon; 1-5 shards, one or two threads, and worlds on both sides
/// of the small-world scan. A leaver frozen with its origin's new record,
/// a death that freezes its links from its own shard's board, a lost
/// leave mark or a link change applied to a dead hearer fails the
/// comparison. Free beacons with nothing else in the first epoch take the
/// bulk join, every other case the per-beacon joins, and both must run.
#[test]
fn prop_sharded_board_and_links_match_barrier_push_tables() {
    use proptest::Strategy;
    let name = "prop_sharded_board_and_links_match_barrier_push_tables";
    let mut paths = [0u32; 2];
    proptest::run_cases(name, |rng| {
        let coords =
            proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 0u8..4), 2..48).generate(rng);
        let moves = proptest::collection::vec(
            (0usize..48, 0u64..5_000, 0.0..100.0f64, 0.0..100.0f64),
            0..40,
        )
        .generate(rng);
        let kills =
            proptest::collection::vec((0usize..48, 0u64..5, 0u64..1_000), 0..6).generate(rng);
        let shards = (1usize..6).generate(rng);
        let threads = (1usize..3).generate(rng);
        let charge = (0u8..2).generate(rng) == 1;
        let mut cfg = SimConfig::default();
        cfg.hello.charge_energy = charge;
        let per_beacon = cfg.tx.energy(cfg.range, cfg.hello.bits as f64);
        let mut w = ShardedWorld::new(cfg, BOUNDS, shards).unwrap();
        w.set_threads(threads);
        let n = coords.len();
        for &(x, y, kind) in &coords {
            let joules = if kind == 0 { 2.5 * per_beacon } else { 1e3 };
            w.add_node(Point2::new(x, y), Battery::new(joules).unwrap(), Walker);
        }
        w.start();
        for &(who, ms, x, y) in &moves {
            let tag = ((x * 100.0) as u64) << 32 | (y * 100.0) as u64;
            w.schedule_timer(NodeId::new((who % n) as u32), SimDuration::from_millis(ms), tag);
        }
        // Every other kill lands on a beacon instant.
        let kill_at = |&(_, secs, ms): &(usize, u64, u64)| {
            let offset = if ms % 2 == 0 { 0 } else { ms * 1_000 };
            SimTime::from_micros(secs * 1_000_000 + offset)
        };
        for kill in &kills {
            let id = NodeId::new((kill.0 % n) as u32);
            let (si, slot) = w.locate(id);
            let Shard { engine, keys } = &mut w.shards[si];
            keys.push(
                &mut engine.queue,
                kill_at(kill),
                slot,
                id,
                Event::ScheduledKill { node: id },
            );
        }
        let first_end = SimTime::ZERO + cfg.hop_latency;
        let bulk = !charge
            && moves
                .iter()
                .all(|&(_, ms, ..)| SimTime::ZERO + SimDuration::from_millis(ms) >= first_end)
            && kills.iter().all(|k| kill_at(k) >= first_end);
        paths[usize::from(bulk)] += 1;
        let mut push: Vec<NeighborTable> =
            (0..n).map(|_| NeighborTable::new(cfg.hello.ttl)).collect();
        let r_sq = cfg.range * cfg.range;
        let deadline = SimTime::from_micros(6_000_000);
        let next_event = |w: &ShardedWorld<Walker>| {
            w.shards.iter().filter_map(|s| s.engine.queue.peek_time()).min()
        };
        while let Some(next) = next_event(&w).filter(|&t| t <= deadline) {
            let rep = &w.replica;
            let (positions, alive, board) =
                (rep.positions.clone(), rep.alive.clone(), rep.board.clone());
            // Runs exactly the epoch `next` opens.
            let end = next + cfg.hop_latency;
            w.run_until(SimTime::from_micros(end.as_micros() - 1));
            if end == first_end {
                let shipped = w.link_run_capacity() > 0;
                let linked = w.counters.observations_applied > 0;
                proptest::prop_assert!(!(bulk && shipped), "the bulk join ships no link change");
                proptest::prop_assert!(bulk || shipped || !linked, "per-beacon joins ship changes");
            }
            for (j, &was) in board.iter().enumerate() {
                // A record stamped inside the window is a beacon sent this
                // epoch. Every node is alive at start, so the first round
                // rewrites every record `start` wrote at 0 (a free beacon
                // leaves it bit-identical).
                let record = w.replica.board[j];
                if record.heard_at < next {
                    proptest::prop_assert_eq!(record, was);
                    continue;
                }
                proptest::prop_assert!(record.heard_at < end);
                let origin = NodeId::new(j as u32);
                for (i, table) in push.iter_mut().enumerate() {
                    let heard =
                        i != j && alive[i] && record.position.distance_sq_to(positions[i]) <= r_sq;
                    if heard && w.is_alive(NodeId::new(i as u32)) {
                        let Beacon { position, residual_energy, heard_at } = record;
                        table.observe(origin, position, residual_energy, heard_at);
                    }
                }
            }
            let now = w.time();
            for (h, table) in push.iter().enumerate() {
                let (got, want) = (w.table(NodeId::new(h as u32)), table.view());
                proptest::prop_assert_eq!(got.fresh(now), want.fresh(now), "node {h} at {now:?}");
                proptest::prop_assert_eq!(got.len(), want.len(), "node {} knows the same peers", h);
                for j in (0..n as u32).map(NodeId::new) {
                    proptest::prop_assert_eq!(got.get(j, now), want.get(j, now));
                }
            }
            let kept = w.verify_hearer_lists();
            proptest::prop_assert!(kept.is_ok(), "stale hearer list: {:?}", kept);
        }
        let sync = w.verify_replica_sync();
        proptest::prop_assert!(sync.is_ok(), "replica diverged: {:?}", sync);
    });
    assert!(paths.iter().all(|&k| k > 0), "per-beacon and bulk cases: {paths:?}");
}

/// One half of the bulk-join check: `nodes` (kind 0 dead at start, kind 1 a
/// source forwarding to the next node, kind 2 stepping toward the middle on
/// each packet) on `shards` shards, traced, with source timers at 1.5 s and
/// 3 s. `first_timer` adds a zero-delay timer on node `t`, which forwards
/// nothing: a heap event inside the first epoch.
fn bulk_join_world(
    nodes: &[(f64, f64, u8)],
    shards: usize,
    threads: usize,
    t: usize,
    first_timer: bool,
) -> ShardedWorld<Echo> {
    let mut w = make_sharded(shards);
    w.set_threads(threads);
    let n = nodes.len();
    for &(x, y, kind) in nodes {
        w.add(Point2::new(x, y), if kind == 0 { 0.0 } else { 10.0 });
    }
    w.trace_on();
    for (i, &(_, _, kind)) in nodes.iter().enumerate() {
        let id = NodeId::new(i as u32);
        match kind {
            1 if i != t => w.echo(id).forward_to = Some(NodeId::new(((i + 1) % n) as u32)),
            2 => w.echo(id).move_target = Some(Point2::new(50.0, 50.0)),
            _ => {}
        }
    }
    w.begin();
    if first_timer {
        w.timer(NodeId::new(t as u32), 0, 0);
    }
    for (i, &(_, _, kind)) in nodes.iter().enumerate() {
        if kind == 1 && i != t {
            w.timer(NodeId::new(i as u32), 1_500, i as u64);
            w.timer(NodeId::new(i as u32), 3_000, i as u64);
        }
    }
    w
}

/// What the bulk join must leave as the per-beacon joins do: every table,
/// the kernel counters but `timers_fired`, the applied observations, a
/// replica in sync and the merged trace.
fn bulk_join_outcome(w: &ShardedWorld<Echo>) -> (Vec<Vec<[u64; 5]>>, KernelStats, u64, u64) {
    let tables =
        (0..w.node_count() as u32).map(|i| table_bits(w.table(NodeId::new(i)), w.time())).collect();
    let stats = KernelStats { timers_fired: 0, ..w.kernel_stats() };
    w.verify_replica_sync().expect("the replica matches the owners");
    (tables, stats, w.counters.observations_applied, w.trace_fnv())
}

/// Runs `w` to `deadline` one epoch at a time, the schedule one call
/// would run, and checks its kept hearer lists at every barrier.
fn run_checking_lists<A: Application + Send>(w: &mut ShardedWorld<A>, deadline: SimTime)
where
    A::Msg: Send,
{
    let heads =
        |w: &ShardedWorld<A>| w.shards.iter().filter_map(|s| s.engine.queue.peek_time()).min();
    while let Some(next) = heads(w).filter(|&t| t <= deadline) {
        let end = next + w.cfg.hop_latency;
        w.run_until(SimTime::from_micros(end.as_micros() - 1).min(deadline));
        let kept = w.verify_hearer_lists();
        assert!(kept.is_ok(), "stale hearer list after the epoch at {next:?}: {kept:?}");
    }
    w.run_until(deadline);
}

/// A node that moves and then beacons keeps a list centered where it
/// ended. Another node's step in the same epoch must be tested against
/// that position even when its shard's patches land first, before the
/// replica has taken the first node's move: here node Y, in shard 0,
/// steps from 31 m to 29 m of where node X ends, but stays within range
/// of where X started, 19 and 17 m away.
#[test]
fn a_step_is_marked_against_where_a_moved_beaconer_ended() {
    let mut w = ShardedWorld::new(SimConfig::default(), BOUNDS, 2).unwrap();
    let cm = |p: Point2| ((p.x * 100.0) as u64) << 32 | (p.y * 100.0) as u64;
    let (y_from, y_to) = (Point2::new(41.0, 49.0), Point2::new(43.0, 49.0));
    let (x_from, x_to) = (Point2::new(60.0, 51.0), Point2::new(72.0, 51.0));
    let y = w.add_node(y_from, Battery::new(1e3).unwrap(), Walker);
    let x = w.add_node(x_from, Battery::new(1e3).unwrap(), Walker);
    assert_eq!((w.layout().shard_of(y_from), w.layout().shard_of(x_from)), (0, 1));
    let r_sq = w.config().range * w.config().range;
    assert!(x_to.distance_sq_to(y_from) > r_sq && x_to.distance_sq_to(y_to) <= r_sq);
    assert!(x_from.distance_sq_to(y_from) <= r_sq && x_from.distance_sq_to(y_to) <= r_sq);
    // Far fillers, 46 m or more from both, make the world too big to scan.
    for i in 0..SMALL_WORLD_SCAN - 1 {
        w.add_node(Point2::new(1.0 + 3.0 * i as f64, 97.0), Battery::new(1e3).unwrap(), Walker);
    }
    w.start();
    // Both steps go half a millisecond before the beacon round at 1 s,
    // inside the one epoch that runs it.
    w.schedule_timer(y, SimDuration::from_micros(999_500), cm(y_to));
    w.schedule_timer(x, SimDuration::from_micros(999_500), cm(x_to));
    run_checking_lists(&mut w, SimTime::from_micros(2_500_000));
    assert_eq!((w.position(x), w.position(y)), (x_to, y_to));
    assert!(w.table(x).get(y, w.time()).is_some(), "X hears Y again from its 2 s beacon");
}

proptest::proptest! {
    /// The bulk join against the per-beacon joins it replaces, on random
    /// sharded worlds: 2–300 nodes, some dead at start, 1–16 shards, one or
    /// two threads. Each world is built twice, as it is and with one
    /// zero-delay timer that forces the per-beacon path, and both agree
    /// after the first barrier and again after 5 sim-s, once sources have
    /// sent and relays moved.
    #[test]
    fn prop_bulk_join_matches_per_beacon_joins(
        nodes in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 0u8..8), 2..300),
        shards in 1usize..17,
        threads in 1usize..3,
        t in 0usize..300,
    ) {
        let t = t % nodes.len();
        let mut bulk = bulk_join_world(&nodes, shards, threads, t, false);
        let mut joins = bulk_join_world(&nodes, shards, threads, t, true);
        for secs in [0, 5] {
            let at = SimTime::from_micros(secs * 1_000_000);
            run_checking_lists(&mut bulk, at);
            run_checking_lists(&mut joins, at);
            if secs == 0 {
                proptest::prop_assert_eq!(bulk.link_run_capacity(), 0, "the bulk join ran");
                let linked = joins.counters.observations_applied > 0;
                proptest::prop_assert_eq!(joins.link_run_capacity() > 0, linked, "joins shipped");
            }
            proptest::prop_assert_eq!(bulk_join_outcome(&bulk), bulk_join_outcome(&joins));
        }
    }
}

// ------------------------------------------------------------------ spans

/// Compute spans per shard, indexed by shard id.
fn compute_spans_per_shard(w: &ShardedWorld<Echo>) -> Vec<u64> {
    let mut counts = vec![0; w.shard_count()];
    let sink = w.spans().expect("spans enabled");
    for a in sink.aggregates().iter().filter(|a| a.name == phase::COMPUTE) {
        counts[a.shard as usize] += a.count;
    }
    counts
}

/// Spans recorded under `name`, over every scope.
fn span_count(w: &ShardedWorld<Echo>, name: &str) -> u64 {
    let sink = w.spans().expect("spans enabled");
    sink.aggregates().iter().filter(|a| a.name == name).map(|a| a.count).sum()
}

#[test]
fn spans_do_not_perturb_any_observable() {
    let sc = invariance_scenario();
    let mut plain = make_sharded(4);
    let base = run_scenario(&mut plain, &sc);
    assert!(plain.spans().is_none(), "spans stay off unless enabled");

    let mut spanned = make_sharded(4);
    spanned.enable_spans(1 << 12);
    let got = run_scenario(&mut spanned, &sc);
    assert_eq!(got, base, "span tracing changed simulation output");
    let sink = spanned.spans().expect("spans enabled");
    assert!(sink.recorded() > 0, "a run this size records spans");
    let phases: Vec<&str> = sink.aggregates().iter().map(|a| a.name).collect();
    for want in [phase::SCHED, phase::COMPUTE, phase::XFER_MERGE, phase::OBS_APPLY] {
        assert!(phases.contains(&want), "missing phase {want}: {phases:?}");
    }

    let mut threaded = make_sharded(4);
    threaded.set_threads(2);
    threaded.enable_spans(1 << 12);
    let got = run_scenario(&mut threaded, &sc);
    assert_eq!(got, base, "span tracing on the threaded path changed output");
    let sink = threaded.spans().expect("spans enabled");
    assert!(
        sink.aggregates().iter().any(|a| a.name == phase::BARRIER_WAIT),
        "threaded runs record barrier_wait spans"
    );
    // Each share's compute spans land under their own shard, none lost:
    // the same count per shard as the one-thread run, summing to the
    // published shard-epochs.
    let per_shard = compute_spans_per_shard(&threaded);
    assert_eq!(per_shard, compute_spans_per_shard(&spanned), "compute spans per shard");
    let reg = imobif_obs::Registry::enabled();
    threaded.publish_metrics(&reg);
    let shard_epochs = reg.snapshot().counter("shard.shard_epochs").expect("published");
    assert_eq!(per_shard.iter().sum::<u64>(), shard_epochs, "one compute span per shard-epoch");
}

#[test]
fn span_aggregates_count_the_published_epochs() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    assert!(w.spans().is_none(), "no spans before enabling");
    w.enable_spans(DEFAULT_SPAN_CAPACITY);
    let _ = run_scenario(&mut w, &sc);
    let reg = imobif_obs::Registry::enabled();
    w.publish_metrics(&reg);
    let snap = reg.snapshot();
    let epochs = snap.counter("shard.epochs").expect("family present");
    let shard_epochs = snap.counter("shard.shard_epochs").expect("family present");
    assert!(epochs > 0);
    assert!(
        (epochs..=4 * epochs).contains(&shard_epochs),
        "one to four of the 4 shards run per epoch"
    );
    assert_eq!(span_count(&w, phase::SCHED), epochs, "one sched span per epoch");
    assert_eq!(span_count(&w, phase::COMPUTE), shard_epochs, "one compute span per shard-epoch");
}

#[test]
fn publish_metrics_flushes_shard_families() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    w.enable_spans(1 << 12);
    let _ = run_scenario(&mut w, &sc);

    let reg = imobif_obs::Registry::enabled();
    w.publish_metrics(&reg);
    let snap = reg.snapshot();
    let c = w.counters;
    assert_eq!(snap.counter("shard.epochs"), Some(c.epochs));
    assert_eq!(snap.counter("shard.shard_epochs"), Some(c.shard_epochs));
    assert_eq!(snap.counter("shard.xfer.delivers_merged"), Some(c.delivers_merged));
    assert_eq!(snap.counter("shard.xfer.observations_applied"), Some(c.observations_applied));
    assert_eq!(snap.counter("shard.xfer.replica_patches"), Some(c.replica_patches));
    assert!(
        snap.counter("shard.fast_forward.epochs").expect("family present") > 0,
        "sparse timer schedule fast-forwards"
    );
    let per_shard: u64 = (0..4)
        .map(|i| snap.counter(&format!("shard.s{i}.events_processed")).expect("per-shard family"))
        .sum();
    assert_eq!(per_shard, w.events_processed());
    assert_eq!(snap.counter("spans.recorded"), Some(w.spans().unwrap().recorded()));
    // Traces were enabled by run_scenario; the trace family mirrors them.
    assert_eq!(snap.counter("trace.recorded"), Some(w.trace_events_recorded()));
    match snap.get("shard.coord.sched_wall_us") {
        Some(imobif_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, c.epochs),
        other => panic!("expected sched wall histogram, got {other:?}"),
    }
    // Prometheus rendering of the full family set lints clean.
    imobif_obs::promlint::lint(&snap.to_prometheus()).expect("shard families lint clean");

    let off = imobif_obs::Registry::disabled();
    w.publish_metrics(&off);
    assert!(off.snapshot().entries.is_empty(), "disabled registry stays empty");
}

#[test]
fn span_ring_evicts_but_aggregates_stay_exact() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    w.enable_spans(8);
    let _ = run_scenario(&mut w, &sc);
    let sink = w.spans().expect("spans enabled");
    assert!(sink.recorded() > 8, "run outgrows a tiny ring");
    assert_eq!(sink.evicted(), sink.recorded() - 8);
    assert_eq!(sink.spans().len(), 8);
    let reg = imobif_obs::Registry::enabled();
    w.publish_metrics(&reg);
    let epochs = reg.snapshot().counter("shard.epochs");
    assert_eq!(Some(span_count(&w, phase::SCHED)), epochs, "aggregates are exempt from eviction");
}
