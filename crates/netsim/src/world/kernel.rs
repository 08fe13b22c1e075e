//! The serial world's [`Reach`] and its run loop.
//!
//! [`SerialReach`] is the serial half of the engine seam: every node reads
//! every other node's live columns, and every consequence takes hold at
//! once — a delivery goes on the world's own queue, a beacon's link
//! changes reach the hearers' tables as it is sent, hooks read the
//! engine's own beacon board, and a move or death updates the spatial
//! grid. The handlers themselves live in [`engine`](super::engine).

use imobif_geom::{Point2, SpatialGrid};

use super::beacon::{BeaconView, Links};
use super::engine::{Event, Reach};
use super::World;
use crate::hello::Beacon;
use crate::node::NodeStore;
use crate::trace::{RingTrace, TraceEvent};
use crate::{Application, EventQueue, NodeId, SimConfig, SimDuration, SimTime};

/// What the serial world adds to its engine: configuration, a spatial grid
/// holding exactly the live nodes, and the trace ring.
pub(super) struct SerialReach {
    pub(super) cfg: SimConfig,
    pub(super) grid: SpatialGrid,
    pub(super) trace: Option<RingTrace>,
}

impl<M> Reach<M> for SerialReach {
    fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    #[inline]
    fn slot_of(&self, id: NodeId) -> usize {
        id.index()
    }

    #[inline]
    fn peer_position(&self, nodes: &NodeStore, to: NodeId) -> Point2 {
        nodes.position(to.index())
    }

    #[inline]
    fn schedule(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        _slot: usize,
        _id: NodeId,
        event: Event<M>,
    ) {
        queue.push(at, event);
    }

    /// The global sequence only rises, and the clock never runs back.
    #[inline]
    fn schedule_periodic(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        _slot: usize,
        id: NodeId,
    ) {
        let in_lane = queue.push_lane(at, id.raw(), || Event::HelloBeacon { node: id });
        debug_assert!(in_lane, "a beacon at {at:?} fell below the lane's tail");
    }

    #[inline]
    fn deliver(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        _now: SimTime,
        _slot: usize,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
        msg: M,
    ) {
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

    #[inline]
    fn board<'a>(&'a self, own: &'a [Beacon]) -> &'a [Beacon] {
        own
    }

    /// The engine already wrote the record on its own board, which hooks
    /// read; only the links change here.
    fn hear(
        &mut self,
        nodes: &mut NodeStore,
        origin: NodeId,
        _slot: usize,
        prev: Beacon,
        links: Links<'_>,
    ) {
        for &k in links.left {
            if nodes.is_alive(k as usize) {
                nodes.neighbor_table_mut(k as usize).freeze(origin, prev);
            }
        }
        for &k in links.joined {
            if nodes.is_alive(k as usize) {
                nodes.neighbor_table_mut(k as usize).join(origin);
            }
        }
    }

    #[inline]
    fn moved(&mut self, id: NodeId, to: Point2) {
        self.grid.update(id.raw(), to);
    }

    #[inline]
    fn died(&mut self, id: NodeId) {
        self.grid.remove(id.raw());
    }

    #[inline]
    fn trace(&mut self, _slot: usize, _id: NodeId, event: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(&event());
        }
    }
}

impl<A: Application> World<A> {
    /// Starts the world: writes the beacon board, schedules HELLO beacons
    /// and runs each application's `on_start` hook in node-id order.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        self.engine.fill_board();
        let now = self.engine.time;
        // Beacons fire immediately at start so neighbor tables are populated
        // before the first data packet; the queue's sequence numbers give a
        // deterministic beacon order. The whole round goes on the lane.
        for i in 0..self.engine.nodes.len() {
            let node = NodeId::new(i as u32);
            self.reach.schedule_periodic(&mut self.engine.queue, now, i, node);
        }
        for i in 0..self.engine.nodes.len() {
            if self.engine.nodes.is_alive(i) {
                let id = NodeId::new(i as u32);
                self.engine.dispatch(&mut self.reach, id, i, |app, ctx, out| {
                    app.on_start(ctx, out);
                });
            }
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the world was not started.
    pub fn step(&mut self) -> bool {
        assert!(self.started, "step() before start()");
        self.engine.step(&mut self.reach)
    }

    /// Runs until the clock passes `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.engine.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.engine.time = self.engine.time.max(deadline);
    }

    /// Runs until `stop` returns `true` (checked after every event) or the
    /// queue drains. Returns the number of events processed.
    pub fn run_while<F: FnMut(&World<A>) -> bool>(&mut self, mut keep_going: F) -> u64 {
        let mut n = 0;
        while keep_going(self) && self.step() {
            n += 1;
        }
        n
    }

    /// Schedules an application timer from outside (used by experiment
    /// drivers to kick off flow sources).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.engine.queue.push(self.engine.time + delay, Event::AppTimer { node, tag });
    }

    /// Schedules `node` to fail (leave service) after `delay` — the hook
    /// churn and duty-cycle schedules lower into. When the event fires the
    /// node dies through the same path as a battery death, so the ledger
    /// records the death and a `Died` trace event is emitted; a node that
    /// already died is left untouched.
    pub fn schedule_kill(&mut self, node: NodeId, delay: SimDuration) {
        self.engine.queue.push(self.engine.time + delay, Event::ScheduledKill { node });
    }
}
