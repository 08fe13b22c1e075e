//! One shard: an [`Engine`] over the nodes it owns, and the sharded
//! [`Reach`] its handlers run through.
//!
//! A shard mutates only its own state (batteries, positions, neighbor
//! tables, beacon board, local ledger, local queue). Every consequence that
//! touches another node — a packet delivery, a HELLO link change, a
//! position, liveness or beacon record other shards must see — goes into
//! the epoch's [`ShardOutbox`], partitioned by destination shard at
//! emission, and is applied at the next epoch barrier (see
//! [`xfer`](super::xfer) for the run layout and the ordering argument).

use imobif_energy::Battery;
use imobif_geom::{Point2, SpatialGrid};

use super::super::beacon::{BeaconView, HearerCache, Links};
use super::super::engine::{Engine, Event, Reach};
use super::xfer::{Dlv, LinkGroup, RepPatch, ShardOutbox, LEAVE, NO_FROZEN};
use crate::hello::Beacon;
use crate::node::NodeStore;
use crate::trace::TraceEvent;
use crate::{Application, EventQueue, NodeId, SimConfig, SimDuration, SimTime};

/// Deterministic total order for cross-shard deliveries and trace events:
/// `(emission time, emitting node, per-node emission sequence)`. The key is
/// independent of shard assignment — ordering between *different* nodes
/// never consults `seq`, and one node's `seq` values are assigned in its
/// own event order, which every shard layout reproduces. That is what
/// makes the barrier merge (and the merged trace) bit-identical at any
/// shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct XKey {
    pub(super) time: SimTime,
    pub(super) origin: u32,
    pub(super) seq: u32,
}

/// The epoch-frozen global snapshot every shard reads: position and
/// liveness columns (the same struct-of-arrays layout as [`NodeStore`]) and
/// the beacon board, indexed by global node id, plus a spatial grid over
/// the live nodes for beacon fan-out queries. Only the barrier writes it,
/// from the owner shards' [`RepPatch`] runs — O(changes) per epoch, never a
/// rebuild. During an epoch every active shard reads it through a shared
/// borrow, on scoped threads too; the barrier patches it in place once
/// the epoch's threads have joined, so it is never copied or shared.
#[derive(Debug)]
pub(super) struct Replica {
    pub(super) positions: Vec<Point2>,
    pub(super) alive: Vec<bool>,
    /// Every node's latest beacon as of the last barrier: what linked
    /// neighbor entries read, so a beacon reaches its hearers' tables at
    /// the next barrier, like every other cross-node effect.
    pub(super) board: Vec<Beacon>,
    pub(super) grid: SpatialGrid,
}

impl Replica {
    pub(super) fn new(cell_size: f64) -> Self {
        Replica {
            positions: Vec::new(),
            alive: Vec::new(),
            board: Vec::new(),
            grid: SpatialGrid::new(cell_size),
        }
    }
}

/// Read-only simulation context shared by every shard: configuration and
/// the global owner map (`global id → (shard, slot)`).
pub(super) struct SharedCtx<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) owner: &'a [(u32, u32)],
}

/// A shard's per-node key sequences and its keyed trace: what makes every
/// queue key, delivery key and trace key independent of the shard layout.
#[derive(Debug, Default)]
pub(super) struct ShardKeys {
    /// Per-slot sequence for queue keys (`(id << 32) | seq`).
    qseq: Vec<u32>,
    /// Per-slot sequence for [`XKey`]s (deliveries and trace events).
    eseq: Vec<u32>,
    pub(super) trace: Option<Vec<(XKey, TraceEvent)>>,
    /// Monotonic beacon counter; stamps destination link runs so a beacon
    /// can open at most one group per destination.
    beacon_stamp: u64,
}

impl ShardKeys {
    /// The next queue key of `id` (local `slot`): `(id << 32) | seq`, from
    /// its ascending per-node sequence.
    fn qkey(&mut self, slot: usize, id: NodeId) -> u64 {
        let s = self.qseq[slot];
        self.qseq[slot] = s.wrapping_add(1);
        (u64::from(id.raw()) << 32) | u64::from(s)
    }

    /// Queues `event` for `id` (local `slot`) under its next queue key.
    pub(super) fn push<M>(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
        event: Event<M>,
    ) {
        let key = self.qkey(slot, id);
        queue.push_keyed(at, key, event);
    }

    /// Queues `id`'s next beacon on the lane, as its id, under its next
    /// queue key. The shard's clock never runs back, and beacons that pop
    /// at one instant pop in key order, which is node-id order: the keys of
    /// their successors rise with the id.
    pub(super) fn push_periodic<M>(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
    ) {
        let key = self.qkey(slot, id);
        let in_lane = queue.push_lane_keyed(at, key, id.raw(), || Event::HelloBeacon { node: id });
        debug_assert!(in_lane, "node {id:?}'s beacon at {at:?} fell below the lane's tail");
    }

    fn ekey(&mut self, slot: usize, id: NodeId, time: SimTime) -> XKey {
        let s = self.eseq[slot];
        self.eseq[slot] = s.wrapping_add(1);
        XKey { time, origin: id.raw(), seq: s }
    }
}

/// One spatial shard: an engine over the nodes it owns (locally indexed)
/// and their key sequences. Cross-shard effects go into the epoch's
/// [`ShardOutbox`], which the coordinator owns and passes in.
pub(super) struct Shard<A: Application> {
    pub(super) engine: Engine<A>,
    pub(super) keys: ShardKeys,
}

impl<A: Application> Shard<A> {
    pub(super) fn new() -> Self {
        Shard { engine: Engine::new(), keys: ShardKeys::default() }
    }

    /// Admits a node with an empty neighbor table of lifetime `ttl` (see
    /// [`Engine::add_node`]) and returns its slot.
    pub(super) fn add_node(
        &mut self,
        position: Point2,
        battery: Battery,
        app: A,
        ttl: SimDuration,
    ) -> usize {
        self.keys.qseq.push(0);
        self.keys.eseq.push(0);
        self.engine.add_node(position, battery, app, ttl)
    }

    /// The engine and the reach its handlers run through this epoch.
    pub(super) fn split<'a>(
        &'a mut self,
        sh: &'a SharedCtx<'a>,
        rep: &'a Replica,
        xout: &'a mut ShardOutbox<A::Msg>,
    ) -> (&'a mut Engine<A>, ShardReach<'a, A::Msg>) {
        (&mut self.engine, ShardReach { sh, rep, xout, keys: &mut self.keys })
    }

    /// Runs every local event strictly before `end` (and at or before
    /// `deadline`), reading the epoch-frozen `rep` snapshot for all remote
    /// state and emitting cross-shard effects into `xout`.
    pub(super) fn run_epoch(
        &mut self,
        sh: &SharedCtx<'_>,
        rep: &Replica,
        xout: &mut ShardOutbox<A::Msg>,
        end: SimTime,
        deadline: SimTime,
    ) {
        let (engine, mut reach) = self.split(sh, rep, xout);
        while let Some(t) = engine.queue.peek_time() {
            if t >= end || t > deadline {
                break;
            }
            engine.step(&mut reach);
        }
    }
}

/// The sharded [`Reach`]: remote state comes from the epoch-frozen
/// [`Replica`], and every consequence for another node is keyed into the
/// epoch's [`ShardOutbox`].
pub(super) struct ShardReach<'a, M> {
    sh: &'a SharedCtx<'a>,
    rep: &'a Replica,
    xout: &'a mut ShardOutbox<M>,
    keys: &'a mut ShardKeys,
}

impl<M> Reach<M> for ShardReach<'_, M> {
    fn cfg(&self) -> &SimConfig {
        self.sh.cfg
    }

    #[inline]
    fn slot_of(&self, id: NodeId) -> usize {
        self.sh.owner[id.index()].1 as usize
    }

    /// The receiver's replica position — uniformly for local *and* remote
    /// receivers, which is what keeps the energy charge independent of the
    /// shard count.
    #[inline]
    fn peer_position(&self, _nodes: &NodeStore, to: NodeId) -> Point2 {
        self.rep.positions[to.index()]
    }

    #[inline]
    fn schedule(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
        event: Event<M>,
    ) {
        self.keys.push(queue, at, slot, id, event);
    }

    #[inline]
    fn schedule_periodic(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
    ) {
        self.keys.push_periodic(queue, at, slot, id);
    }

    /// Local deliveries also go through the outbox: enqueueing them early
    /// would consume the target's queue sequence out of global key order.
    fn deliver(
        &mut self,
        _queue: &mut EventQueue<Event<M>>,
        now: SimTime,
        slot: usize,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
        msg: M,
    ) {
        let (dsi, dslot) = self.sh.owner[to.index()];
        let key = self.keys.ekey(slot, from, now);
        self.xout.dlv[dsi as usize].push(Dlv { key, arrival, from, to, slot: dslot, msg });
    }

    fn beacon_view<'a>(&'a self, _nodes: &'a NodeStore) -> BeaconView<'a> {
        BeaconView {
            positions: &self.rep.positions,
            alive: &self.rep.alive,
            grid: &self.rep.grid,
            range: self.sh.cfg.range,
        }
    }

    /// Hooks and dying nodes read the replica's board: a beacon reaches
    /// every table at the next barrier, local hearers included.
    #[inline]
    fn board<'a>(&'a self, _own: &'a [Beacon]) -> &'a [Beacon] {
        &self.rep.board
    }

    /// Sends a replica patch naming the owner's board slot, whose record
    /// the barrier copies, and the link changes as one grouped run entry
    /// per destination shard, all applied at the next barrier — HELLO
    /// processing latency of at most one epoch, identical at every shard
    /// count. A beacon with leavers stores `prev` once, for every
    /// destination's group to name. In a bulk-join epoch the barrier links
    /// every table from the hearer lists instead, and no change is sent.
    fn hear(
        &mut self,
        _nodes: &mut NodeStore,
        origin: NodeId,
        slot: usize,
        prev: Beacon,
        links: Links<'_>,
    ) {
        self.xout.rep.push(RepPatch::Beacon { node: origin, slot: slot as u32 });
        if self.xout.bulk_join {
            debug_assert!(links.left.is_empty(), "no hearer leaves before anything moves");
            return;
        }
        self.keys.beacon_stamp += 1;
        let stamp = self.keys.beacon_stamp;
        let frozen = if links.left.is_empty() {
            NO_FROZEN
        } else {
            self.xout.frozen.push(prev);
            (self.xout.frozen.len() - 1) as u32
        };
        let joins = links.joined.iter().map(|&h| (h, 0));
        for (h, leave) in joins.chain(links.left.iter().map(|&h| (h, LEAVE))) {
            let (dsi, dslot) = self.sh.owner[h as usize];
            let run = &mut self.xout.links[dsi as usize];
            if run.mark != stamp {
                run.mark = stamp;
                let start = run.slots.len() as u32;
                run.groups.push(LinkGroup { origin, start, len: 0, frozen });
            }
            run.slots.push(dslot | leave);
            run.groups.last_mut().expect("group opened above").len += 1;
        }
    }

    /// The barrier moves the replica's grid entry and forgets the lists
    /// the step changed, once every patch of the epoch has landed.
    #[inline]
    fn moved(&mut self, _: &NodeStore, _: &mut HearerCache, id: NodeId, to: Point2) {
        self.xout.rep.push(RepPatch::Moved { node: id, to });
    }

    #[inline]
    fn died(&mut self, _: &NodeStore, _: &mut HearerCache, id: NodeId) {
        self.xout.rep.push(RepPatch::Died { node: id });
    }

    /// Keys the record by its emission time (every record carries it) and
    /// the emitting node's next sequence number.
    #[inline]
    fn trace(&mut self, slot: usize, id: NodeId, event: impl FnOnce() -> TraceEvent) {
        if self.keys.trace.is_some() {
            let event = event();
            let key = self.keys.ekey(slot, id, event.time());
            self.keys.trace.as_mut().expect("checked").push((key, event));
        }
    }
}
