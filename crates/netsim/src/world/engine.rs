//! The crate's one event loop, shared by the serial and the sharded world.
//!
//! [`Engine`] holds what a run mutates event by event — node columns,
//! applications, the queue, the ledger, the HELLO hearer cache, the kernel
//! counters and the clock — and the only bodies of the kernel's handlers:
//! `step`, `dispatch`, `send`, `move_node`, `kill` and `hello_beacon`. A
//! [`World`](super::World) embeds one engine; a
//! [`ShardedWorld`](crate::ShardedWorld) embeds one per shard. Everything
//! in which the two differ — how a node reads and reaches the other nodes —
//! the handlers ask of a [`Reach`], a generic parameter resolved at compile
//! time, never a trait object.
//!
//! # Ordering rules
//!
//! The handlers fix the order of every consequence. The pinned trace
//! fingerprints (`tests/determinism.rs`, `tests/trace_causality.rs`) hold
//! the order of the records; these rules also hold for the calls on the
//! [`Reach`], whether or not an engine's outputs can tell them apart:
//!
//! * a successful send records `Sent` *then* schedules the delivery;
//! * an unaffordable send kills the sender (recording `Died`) *then*
//!   records `Dropped`;
//! * a mid-step death records the partial `Moved` *then* `Died`.

use imobif_energy::Battery;
use imobif_geom::Point2;

use super::beacon::{BeaconView, HearerCache, Links};
use super::observe::KernelStats;
use crate::hello::Beacon;
use crate::node::NodeStore;
use crate::trace::TraceEvent;
use crate::{
    Action, Application, EnergyCategory, EnergyLedger, EventQueue, NeighborTable, NodeCtx, NodeId,
    Outbox, Popped, SimConfig, SimDuration, SimTime,
};

/// Internal kernel events.
#[derive(Debug)]
pub(crate) enum Event<M> {
    /// A packet arriving at `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// An application timer firing at `node`.
    AppTimer { node: NodeId, tag: u64 },
    /// A periodic HELLO beacon due at `node`, pushed by hand or fallen
    /// below the lane's tail; a beacon on the lane is its node id alone.
    HelloBeacon { node: NodeId },
    /// An externally scheduled failure (churn / duty-cycle schedules): take
    /// `node` out of service when the clock reaches the event, unless it
    /// already died.
    ScheduledKill { node: NodeId },
}

/// How an engine's nodes read and reach every other node: exactly the
/// decisions in which the serial world and a shard differ. Its methods are
/// the handlers' only channel for consequences outside the engine's own
/// state — scheduling, HELLO hearing, move and death publication, trace
/// records. The generic `trace` method keeps the trait from ever being a
/// trait object: the handlers are compiled once per impl.
pub(crate) trait Reach<M> {
    /// The run's configuration, energy models included.
    fn cfg(&self) -> &SimConfig;

    /// The engine slot holding node `id`.
    fn slot_of(&self, id: NodeId) -> usize;

    /// The position of `to` a transmission to it is charged for.
    fn peer_position(&self, nodes: &NodeStore, to: NodeId) -> Point2;

    /// Queues `event` for node `id` (engine slot `slot`) at `at`.
    fn schedule(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
        event: Event<M>,
    );

    /// Queues `id`'s next HELLO beacon, the event of its fixed-period
    /// stream, on the queue's monotone lane as the node id alone, under the
    /// key [`Reach::schedule`] would give it. Every node's first beacon
    /// goes at the same instant, in node-id order, and each later one at
    /// its pop time plus the fixed period; pops come in `(time, key)`
    /// order, so both engines' keys reach the lane in rising order. A
    /// push below the lane's tail goes to the heap as
    /// [`Event::HelloBeacon`].
    fn schedule_periodic(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        at: SimTime,
        slot: usize,
        id: NodeId,
    );

    /// Schedules the arrival of a packet `from` (engine slot `slot`) sent
    /// at `now`.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        queue: &mut EventQueue<Event<M>>,
        now: SimTime,
        slot: usize,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
        msg: M,
    );

    /// What a beacon's hearer search reads of the other nodes.
    fn beacon_view<'a>(&'a self, nodes: &'a NodeStore) -> BeaconView<'a>;

    /// The beacon board, indexed by node id, that hooks and dying nodes
    /// read linked neighbor entries from: the engine's own column `own`, or
    /// a copy of it.
    fn board<'a>(&'a self, own: &'a [Beacon]) -> &'a [Beacon];

    /// Publishes `origin`'s beacon, whose new record the engine has written
    /// on its own board at `slot`: `links` are the hearers that joined or
    /// left its hearer set. A joiner links `origin`; a leaver freezes
    /// `prev`, the previous record, which is the last beacon it heard.
    /// Link changes for dead hearers are skipped: a dying node froze its
    /// links.
    fn hear(
        &mut self,
        nodes: &mut NodeStore,
        origin: NodeId,
        slot: usize,
        prev: Beacon,
        links: Links<'_>,
    );

    /// Publishes that `id` now stands at `to`. The serial world also
    /// forgets, in `hearers`, the kept lists the step changed; a shard
    /// leaves that to the barrier.
    fn moved(&mut self, nodes: &NodeStore, hearers: &mut HearerCache, id: NodeId, to: Point2);

    /// Publishes that `id` died, and, like [`Reach::moved`], forgets the
    /// kept lists that heard it in the serial world.
    fn died(&mut self, nodes: &NodeStore, hearers: &mut HearerCache, id: NodeId);

    /// Keeps the trace record node `id` (engine slot `slot`) emits. Builds
    /// it only when tracing is on.
    fn trace(&mut self, slot: usize, id: NodeId, event: impl FnOnce() -> TraceEvent);
}

/// One event loop's state. The serial world indexes its columns by global
/// node id; a shard by local slot (its [`Reach`] maps ids to slots).
pub(crate) struct Engine<A: Application> {
    pub(super) nodes: NodeStore,
    pub(super) apps: Vec<A>,
    pub(super) queue: EventQueue<Event<A::Msg>>,
    /// Slot-indexed energy ledger.
    pub(super) ledger: EnergyLedger,
    /// Reusable action buffer handed to application hooks: one allocation
    /// for the whole run instead of a fresh `Vec` per event.
    outbox: Outbox<A::Msg>,
    /// Slot-indexed beacon board: each node's latest HELLO beacon, written
    /// whole at start ([`Engine::fill_board`]).
    pub(super) board: Vec<Beacon>,
    /// Every node's HELLO hearer list, kept until a move or a death
    /// forgets it.
    pub(super) hearers: HearerCache,
    /// Plain-field kernel instrumentation (see [`KernelStats`]).
    pub(super) stats: KernelStats,
    /// The latest event time processed.
    pub(super) time: SimTime,
    /// Events processed since construction.
    pub(super) events_processed: u64,
}

impl<A: Application> Engine<A> {
    pub(super) fn new() -> Self {
        Engine {
            nodes: NodeStore::new(),
            apps: Vec::new(),
            queue: EventQueue::new(),
            ledger: EnergyLedger::new(),
            outbox: Outbox::new(),
            board: Vec::new(),
            hearers: HearerCache::default(),
            stats: KernelStats::default(),
            time: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Appends a node with an empty neighbor table whose entries expire
    /// after `ttl`, and returns its slot.
    pub(super) fn add_node(
        &mut self,
        position: Point2,
        battery: Battery,
        app: A,
        ttl: SimDuration,
    ) -> usize {
        let slot = self.nodes.push(position, battery, NeighborTable::new(ttl));
        self.apps.push(app);
        self.ledger.grow_to(self.nodes.len());
        slot
    }

    /// Writes the board once every node is added: one exact-size column,
    /// each record its node's state at time zero. No table links a node
    /// before its first beacon, so no hearer reads these records.
    pub(super) fn fill_board(&mut self) {
        let nodes = &self.nodes;
        self.board.clear();
        self.board.reserve_exact(nodes.len());
        self.board.extend((0..nodes.len()).map(|slot| Beacon {
            position: nodes.position(slot),
            residual_energy: nodes.residual(slot),
            heard_at: SimTime::ZERO,
        }));
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    /// A beacon off the lane is its node id, handed straight to
    /// [`Engine::hello_beacon`].
    pub(super) fn step<R: Reach<A::Msg>>(&mut self, reach: &mut R) -> bool {
        let Some((t, popped)) = self.queue.pop_next() else {
            return false;
        };
        // The clock never runs backwards even if an action scheduled
        // something "in the past".
        self.time = self.time.max(t);
        self.events_processed += 1;
        let time = self.time;
        let event = match popped {
            Popped::Lane(node) => {
                self.hello_beacon(reach, NodeId::new(node));
                return true;
            }
            Popped::Event(event) => event,
        };
        match event {
            Event::Deliver { from, to, msg } => {
                let slot = reach.slot_of(to);
                if self.nodes.is_alive(slot) {
                    self.ledger.packets_delivered += 1;
                    reach.trace(slot, to, || TraceEvent::Delivered { time, from, to });
                    self.dispatch(reach, to, slot, |app, ctx, out| {
                        app.on_message(ctx, from, msg, out);
                    });
                } else {
                    self.ledger.packets_dropped += 1;
                    reach.trace(slot, to, || TraceEvent::Dropped { time, to });
                }
            }
            Event::AppTimer { node, tag } => {
                let slot = reach.slot_of(node);
                if self.nodes.is_alive(slot) {
                    self.stats.timers_fired += 1;
                    self.dispatch(reach, node, slot, |app, ctx, out| app.on_timer(ctx, tag, out));
                }
            }
            Event::HelloBeacon { node } => self.hello_beacon(reach, node),
            Event::ScheduledKill { node } => {
                let slot = reach.slot_of(node);
                if self.nodes.is_alive(slot) {
                    self.kill(reach, slot, node);
                }
            }
        }
        true
    }

    /// Runs one application hook, then performs the actions it pushed in
    /// push order, stopping early if one of them killed the node.
    ///
    /// The outbox is taken out of `self` for the duration of the call so
    /// the action loop can borrow the engine mutably; its backing storage
    /// is put back afterwards, so the steady state allocates nothing.
    pub(super) fn dispatch<R, F>(&mut self, reach: &mut R, id: NodeId, slot: usize, f: F)
    where
        R: Reach<A::Msg>,
        F: FnOnce(&mut A, &NodeCtx<'_>, &mut Outbox<A::Msg>),
    {
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        {
            let ctx = NodeCtx {
                id,
                now: self.time,
                store: &self.nodes,
                slot,
                board: reach.board(&self.board),
                cfg: reach.cfg(),
            };
            f(&mut self.apps[slot], &ctx, &mut outbox);
        }
        for action in outbox.drain() {
            if !self.nodes.is_alive(slot) {
                // A previous action in this batch killed the node.
                break;
            }
            match action {
                Action::Send { to, bits, msg, category } => {
                    self.send(reach, id, slot, to, bits, msg, category);
                }
                Action::SetTimer { delay, tag } => {
                    let at = self.time + delay;
                    reach.schedule(
                        &mut self.queue,
                        at,
                        slot,
                        id,
                        Event::AppTimer { node: id, tag },
                    );
                }
                Action::MoveToward { target, max_step } => {
                    self.move_node(reach, id, slot, target, max_step);
                }
            }
        }
        self.outbox = outbox;
    }

    /// Charges `from` for transmitting `bits` to `to`, then records `Sent`
    /// and schedules the delivery. A sender whose residual energy cannot
    /// cover the transmission is out of service (the paper's death
    /// condition): it dies, and the packet is dropped.
    #[allow(clippy::too_many_arguments)]
    fn send<R: Reach<A::Msg>>(
        &mut self,
        reach: &mut R,
        from: NodeId,
        slot: usize,
        to: NodeId,
        bits: u64,
        msg: A::Msg,
        category: EnergyCategory,
    ) {
        let d = self.nodes.position(slot).distance_to(reach.peer_position(&self.nodes, to));
        let e = reach.cfg().tx.energy(d, bits as f64);
        let time = self.time;
        if self.nodes.battery_mut(slot).try_consume(e).is_err() {
            self.ledger.packets_dropped += 1;
            self.kill(reach, slot, from);
            reach.trace(slot, from, || TraceEvent::Dropped { time, to });
            return;
        }
        self.ledger.charge(NodeId::new(slot as u32), category, e);
        self.ledger.packets_sent += 1;
        reach.trace(slot, from, || TraceEvent::Sent { time, from, to, bits, category, energy: e });
        let arrival = time + reach.cfg().tx_delay(bits);
        reach.deliver(&mut self.queue, time, slot, from, to, arrival, msg);
    }

    /// Moves `id` toward `target` by at most `max_step` meters, charging
    /// the locomotion law, and forgets its own hearer list: its next
    /// beacon goes out from elsewhere, or, in a shard, before the barrier
    /// has seen where it went. A node that cannot afford the full step
    /// moves as far as its battery allows, drains, and dies mid-step.
    fn move_node<R: Reach<A::Msg>>(
        &mut self,
        reach: &mut R,
        id: NodeId,
        slot: usize,
        target: Point2,
        max_step: f64,
    ) {
        let pos = self.nodes.position(slot);
        let (mut new_pos, mut moved) = pos.step_toward(target, max_step);
        if moved <= 0.0 {
            return;
        }
        let cost = reach.cfg().mobility.cost(moved);
        let residual = self.nodes.residual(slot);
        let time = self.time;
        let full_step = cost <= residual;
        self.hearers.forget(slot);
        let energy = if full_step {
            self.nodes.battery_mut(slot).try_consume(cost).expect("checked affordable");
            self.nodes.set_position(slot, new_pos, moved);
            reach.moved(&self.nodes, &mut self.hearers, id, new_pos);
            cost
        } else {
            // Move as far as the battery allows, then die mid-step. A node
            // that can afford no distance at all stays put, and only its
            // death is published.
            let affordable = reach.cfg().mobility.reachable_distance(residual).min(moved);
            if affordable > 0.0 && affordable.is_finite() {
                (new_pos, moved) = pos.step_toward(target, affordable);
                self.nodes.set_position(slot, new_pos, moved);
                reach.moved(&self.nodes, &mut self.hearers, id, new_pos);
            }
            self.nodes.battery_mut(slot).drain()
        };
        self.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Mobility, energy);
        reach.trace(slot, id, || TraceEvent::Moved {
            time,
            node: id,
            from: pos,
            to: new_pos,
            energy,
        });
        if !full_step {
            self.kill(reach, slot, id);
        }
    }

    /// Takes the node out of service: records the death time, publishes
    /// the death and records `Died`.
    fn kill<R: Reach<A::Msg>>(&mut self, reach: &mut R, slot: usize, id: NodeId) {
        // Any leftover charge is stranded: below the per-action requirement
        // that killed the node, so never spendable. It is deliberately not
        // added to the ledger — it was not consumed.
        let _stranded = self.nodes.kill(slot);
        // A dead node hears nothing more: its linked entries keep the
        // records it last heard.
        self.nodes.neighbor_table_mut(slot).freeze_all(reach.board(&self.board));
        let time = self.time;
        self.ledger.record_death(NodeId::new(slot as u32), time);
        reach.died(&self.nodes, &mut self.hearers, id);
        reach.trace(slot, id, || TraceEvent::Died { time, node: id });
    }

    /// Broadcasts one HELLO beacon from `node` (if alive) — its identity,
    /// position and residual energy, the paper's prescribed triple — and
    /// reschedules the next one. The beacon writes its record on the board
    /// once; tables change only where the hearer set did. A node that
    /// cannot afford the beacon dies instead, and its beacon chain stops.
    fn hello_beacon<R: Reach<A::Msg>>(&mut self, reach: &mut R, node: NodeId) {
        let slot = reach.slot_of(node);
        if !self.nodes.is_alive(slot) {
            return;
        }
        let (range, hello) = (reach.cfg().range, reach.cfg().hello);
        if hello.charge_energy {
            // Beacons are broadcast at full range power.
            let e = reach.cfg().tx.energy(range, hello.bits as f64);
            if self.nodes.battery_mut(slot).try_consume(e).is_err() {
                self.kill(reach, slot, node);
                return;
            }
            self.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Hello, e);
        }
        let pos = self.nodes.position(slot);
        let record = Beacon {
            position: pos,
            residual_energy: self.nodes.residual(slot),
            heard_at: self.time,
        };
        let prev = std::mem::replace(&mut self.board[slot], record);
        let slots = self.nodes.len();
        let view = reach.beacon_view(&self.nodes);
        let links = self.hearers.links(&view, &mut self.stats, node, slot, slots, pos);
        reach.hear(&mut self.nodes, node, slot, prev, links);
        let at = self.time + hello.period;
        reach.schedule_periodic(&mut self.queue, at, slot, node);
    }
}
