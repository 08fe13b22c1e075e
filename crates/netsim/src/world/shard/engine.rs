//! The per-shard event engine: one shard's node columns, calendar queue
//! and event loop.
//!
//! A shard is a self-contained copy of the kernel's event loop over the
//! nodes it owns. It mutates only its own state (batteries, positions,
//! neighbor tables, local ledger, local queue); every consequence that
//! touches another node — a packet delivery, a HELLO observation, a
//! position or liveness change other shards must see — is pushed into the
//! epoch's [`ShardOutbox`], partitioned by destination shard at emission,
//! and applied at the next epoch barrier (see [`xfer`](super::xfer) for
//! the run layout and the ordering argument).

use imobif_geom::{Point2, SpatialGrid};

use super::super::beacon::{BeaconView, HearerCache};
use super::super::kernel::Event;
use super::super::observe::KernelStats;
use super::xfer::{Dlv, ObsGroup, RepPatch, ShardOutbox};
use crate::node::NodeStore;
use crate::trace::TraceEvent;
use crate::{
    Action, Application, EnergyCategory, EnergyLedger, EventQueue, NeighborTable, NodeCtx, NodeId,
    Outbox, SimConfig, SimTime,
};

use imobif_energy::{MobilityCostModel, TxEnergyModel};

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
/// liveness columns (the same struct-of-arrays layout as [`NodeStore`])
/// indexed by global node id, plus a spatial grid over the live nodes for
/// beacon fan-out queries. Only the barrier writes it, from the owner
/// shards' [`RepPatch`] runs — O(changes) per epoch, never a rebuild. The
/// coordinator hands it to workers behind an `Arc` and regains exclusive
/// access (`Arc::get_mut`) once every worker has reported its epoch done.
#[derive(Debug)]
pub(super) struct Replica {
    pub(super) positions: Vec<Point2>,
    pub(super) alive: Vec<bool>,
    pub(super) grid: SpatialGrid,
}

impl Replica {
    pub(super) fn new(cell_size: f64) -> Self {
        Replica { positions: Vec::new(), alive: Vec::new(), grid: SpatialGrid::new(cell_size) }
    }
}

/// Read-only simulation context shared by every shard: configuration,
/// energy models, and the global owner map (`global id → (shard, slot)`).
pub(super) struct SharedCtx<'a> {
    pub(super) cfg: &'a SimConfig,
    pub(super) tx_model: &'a dyn TxEnergyModel,
    pub(super) mobility_model: &'a dyn MobilityCostModel,
    pub(super) owner: &'a [(u32, u32)],
}

impl SharedCtx<'_> {
    #[inline]
    pub(super) fn slot_of(&self, id: NodeId) -> usize {
        self.owner[id.index()].1 as usize
    }
}

/// One spatial shard: the nodes it owns (struct-of-arrays, locally
/// indexed), their applications, a local calendar queue keyed by
/// `(node, per-node seq)`, and a local energy ledger (slot-indexed).
/// Cross-shard effects go into the epoch's [`ShardOutbox`], which the
/// coordinator owns and passes in.
pub(super) struct Shard<A: Application> {
    pub(super) nodes: NodeStore,
    pub(super) apps: Vec<A>,
    /// Local slot → global node id (ascending: slots are assigned in
    /// `add_node` order).
    pub(super) globals: Vec<NodeId>,
    pub(super) queue: EventQueue<Event<A::Msg>>,
    /// Per-slot sequence for queue keys (`(id << 32) | seq`).
    pub(super) qseq: Vec<u32>,
    /// Per-slot sequence for [`XKey`]s (deliveries and trace events).
    pub(super) eseq: Vec<u32>,
    /// Slot-indexed ledger; global totals are aggregated by the world.
    pub(super) ledger: EnergyLedger,
    pub(super) outbox: Outbox<A::Msg>,
    pub(super) trace: Option<Vec<(XKey, TraceEvent)>>,
    /// The owned nodes' HELLO hearer lists (slot-indexed), revalidated
    /// against the replica grid.
    pub(super) hearers: HearerCache,
    /// Monotonic beacon counter; stamps destination observation runs so a
    /// beacon can open at most one group per destination.
    pub(super) beacon_stamp: u64,
    pub(super) stats: KernelStats,
    pub(super) events_processed: u64,
    /// Local clock: the latest event time this shard has processed.
    pub(super) time: SimTime,
}

impl<A: Application> Shard<A> {
    pub(super) fn new(backend: crate::QueueBackend) -> Self {
        Shard {
            nodes: NodeStore::new(),
            apps: Vec::new(),
            globals: Vec::new(),
            queue: EventQueue::with_backend(backend),
            qseq: Vec::new(),
            eseq: Vec::new(),
            ledger: EnergyLedger::new(),
            outbox: Outbox::new(),
            trace: None,
            hearers: HearerCache::default(),
            beacon_stamp: 0,
            stats: KernelStats::default(),
            events_processed: 0,
            time: SimTime::ZERO,
        }
    }

    /// Returns the shard to its just-constructed state, recycling neighbor
    /// tables and application instances.
    pub(super) fn clear_into(
        &mut self,
        backend: crate::QueueBackend,
        spare_tables: &mut Vec<NeighborTable>,
        recycled_apps: &mut Vec<A>,
    ) {
        self.nodes.drain_tables_into(spare_tables);
        recycled_apps.append(&mut self.apps);
        self.globals.clear();
        if self.queue.backend() == backend {
            self.queue.clear();
        } else {
            self.queue = EventQueue::with_backend(backend);
        }
        self.qseq.clear();
        self.eseq.clear();
        self.ledger.clear();
        self.outbox.clear();
        self.trace = None;
        self.hearers.clear();
        self.beacon_stamp = 0;
        self.stats = KernelStats::default();
        self.events_processed = 0;
        self.time = SimTime::ZERO;
    }

    /// Next queue key for `slot` / global `id`: ascending per-node
    /// sequence, shard-assignment independent.
    pub(super) fn qkey(&mut self, slot: usize, id: NodeId) -> u64 {
        let s = self.qseq[slot];
        self.qseq[slot] = s.wrapping_add(1);
        (u64::from(id.raw()) << 32) | u64::from(s)
    }

    fn ekey(&mut self, slot: usize, id: NodeId) -> XKey {
        let s = self.eseq[slot];
        self.eseq[slot] = s.wrapping_add(1);
        XKey { time: self.time, origin: id.raw(), seq: s }
    }

    fn push_event(&mut self, time: SimTime, slot: usize, id: NodeId, event: Event<A::Msg>) {
        let key = self.qkey(slot, id);
        self.queue.push_keyed(time, key, event);
    }

    fn trace_emit(&mut self, slot: usize, id: NodeId, event: TraceEvent) {
        if self.trace.is_some() {
            let key = self.ekey(slot, id);
            self.trace.as_mut().expect("checked").push((key, event));
        }
    }

    /// Kills the node at `slot`: drains the battery, records the death in
    /// the local ledger, emits the `Died` replica patch and trace record.
    fn kill(&mut self, slot: usize, id: NodeId, xout: &mut ShardOutbox<A::Msg>) {
        let _stranded = self.nodes.kill(slot);
        let time = self.time;
        self.ledger.record_death(NodeId::new(slot as u32), time);
        xout.rep.push(RepPatch::Died { node: id });
        self.trace_emit(slot, id, TraceEvent::Died { time, node: id });
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
        while let Some(t) = self.queue.peek_time() {
            if t >= end || t > deadline {
                break;
            }
            self.step(sh, rep, xout);
        }
    }

    fn step(&mut self, sh: &SharedCtx<'_>, rep: &Replica, xout: &mut ShardOutbox<A::Msg>) {
        let Some((t, event)) = self.queue.pop() else {
            return;
        };
        self.time = self.time.max(t);
        self.events_processed += 1;
        match event {
            Event::Deliver { from, to, msg } => {
                let slot = sh.slot_of(to);
                if self.nodes.is_alive(slot) {
                    self.ledger.packets_delivered += 1;
                    let time = self.time;
                    self.trace_emit(slot, to, TraceEvent::Delivered { time, from, to });
                    self.dispatch(sh, rep, xout, to, slot, |app, ctx, out| {
                        app.on_message(ctx, from, msg, out);
                    });
                } else {
                    self.ledger.packets_dropped += 1;
                    let time = self.time;
                    self.trace_emit(slot, to, TraceEvent::Dropped { time, to });
                }
            }
            Event::AppTimer { node, tag } => {
                let slot = sh.slot_of(node);
                if self.nodes.is_alive(slot) {
                    self.stats.timers_fired += 1;
                    self.dispatch(sh, rep, xout, node, slot, |app, ctx, out| {
                        app.on_timer(ctx, tag, out);
                    });
                }
            }
            Event::HelloBeacon { node } => self.hello_beacon(sh, rep, xout, node),
            Event::ScheduledKill { node } => {
                let slot = sh.slot_of(node);
                if self.nodes.is_alive(slot) {
                    self.kill(slot, node, xout);
                }
            }
        }
    }

    /// Runs one application hook and applies the actions it pushed, in push
    /// order — the shard-local mirror of the kernel's dispatch.
    pub(super) fn dispatch<F>(
        &mut self,
        sh: &SharedCtx<'_>,
        rep: &Replica,
        xout: &mut ShardOutbox<A::Msg>,
        id: NodeId,
        slot: usize,
        f: F,
    ) where
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
                truth: None,
                tx_model: sh.tx_model,
                mobility_model: sh.mobility_model,
                hello_enabled: sh.cfg.hello.enabled,
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
                    self.send(sh, rep, xout, id, slot, to, bits, msg, category);
                }
                Action::SetTimer { delay, tag } => {
                    let at = self.time + delay;
                    self.push_event(at, slot, id, Event::AppTimer { node: id, tag });
                }
                Action::MoveToward { target, max_step } => {
                    self.move_node(sh, xout, id, slot, target, max_step);
                }
            }
        }
        self.outbox = outbox;
    }

    /// Unicast send. The receiver's distance comes from the epoch-frozen
    /// replica snapshot — uniformly for local *and* remote receivers, which
    /// is what keeps the energy charge independent of the shard count.
    /// Local deliveries also go through the outbox: enqueueing them early
    /// would consume the target's queue sequence out of global key order.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        sh: &SharedCtx<'_>,
        rep: &Replica,
        xout: &mut ShardOutbox<A::Msg>,
        from: NodeId,
        slot: usize,
        to: NodeId,
        bits: u64,
        msg: A::Msg,
        category: EnergyCategory,
    ) {
        let d = self.nodes.position(slot).distance_to(rep.positions[to.index()]);
        let e = sh.tx_model.energy(d, bits as f64);
        if self.nodes.battery_mut(slot).try_consume(e).is_err() {
            // Same order as the kernel: the unaffordable sender dies
            // (recording `Died`), then the packet records `Dropped`.
            self.ledger.packets_dropped += 1;
            self.kill(slot, from, xout);
            let time = self.time;
            self.trace_emit(slot, from, TraceEvent::Dropped { time, to });
            return;
        }
        self.ledger.charge(NodeId::new(slot as u32), category, e);
        self.ledger.packets_sent += 1;
        let time = self.time;
        self.trace_emit(slot, from, TraceEvent::Sent { time, from, to, bits, category, energy: e });
        let arrival = self.time + sh.cfg.tx_delay(bits);
        let (dsi, dslot) = sh.owner[to.index()];
        let key = self.ekey(slot, from);
        xout.dlv[dsi as usize].push(Dlv { key, arrival, from, to, slot: dslot, msg });
    }

    /// Bounded movement step; mirrors the kernel's mobility subsystem and
    /// additionally emits the `Moved` replica patch (partial `Moved`
    /// strictly before `Died` on a mid-step death, as the trace pins).
    fn move_node(
        &mut self,
        sh: &SharedCtx<'_>,
        xout: &mut ShardOutbox<A::Msg>,
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
        let cost = sh.mobility_model.cost(moved);
        let residual = self.nodes.residual(slot);
        if cost <= residual {
            self.nodes.battery_mut(slot).try_consume(cost).expect("checked affordable");
            self.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Mobility, cost);
            self.nodes.set_position(slot, new_pos, moved);
            let time = self.time;
            self.trace_emit(
                slot,
                id,
                TraceEvent::Moved { time, node: id, from: pos, to: new_pos, energy: cost },
            );
            xout.rep.push(RepPatch::Moved { node: id, to: new_pos });
        } else {
            let affordable = sh.mobility_model.reachable_distance(residual).min(moved);
            if affordable > 0.0 && affordable.is_finite() {
                (new_pos, moved) = pos.step_toward(target, affordable);
                self.nodes.set_position(slot, new_pos, moved);
            }
            let spent = self.nodes.battery_mut(slot).drain();
            self.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Mobility, spent);
            let time = self.time;
            self.trace_emit(
                slot,
                id,
                TraceEvent::Moved { time, node: id, from: pos, to: new_pos, energy: spent },
            );
            xout.rep.push(RepPatch::Moved { node: id, to: new_pos });
            self.kill(slot, id, xout);
        }
    }

    /// One HELLO beacon: hearers come from the epoch-frozen snapshot, and
    /// the observations they would record are emitted as one grouped run
    /// entry per destination shard, applied at the next barrier — HELLO
    /// processing latency of at most one epoch, identical at every shard
    /// count.
    fn hello_beacon(
        &mut self,
        sh: &SharedCtx<'_>,
        rep: &Replica,
        xout: &mut ShardOutbox<A::Msg>,
        node: NodeId,
    ) {
        let slot = sh.slot_of(node);
        if !self.nodes.is_alive(slot) {
            return;
        }
        if sh.cfg.hello.charge_energy {
            let e = sh.tx_model.energy(sh.cfg.range, sh.cfg.hello.bits as f64);
            if self.nodes.battery_mut(slot).try_consume(e).is_err() {
                self.kill(slot, node, xout);
                return;
            }
            self.ledger.charge(NodeId::new(slot as u32), EnergyCategory::Hello, e);
        }
        let pos = self.nodes.position(slot);
        let residual = self.nodes.residual(slot);
        self.beacon_stamp += 1;
        let stamp = self.beacon_stamp;
        let time = self.time;
        let view = BeaconView {
            positions: &rep.positions,
            alive: &rep.alive,
            grid: &rep.grid,
            range: sh.cfg.range,
        };
        let slots = self.nodes.len();
        let hearers = self.hearers.hearers(&view, &mut self.stats, node, slot, slots, pos);
        for &h in hearers {
            let (dsi, dslot) = sh.owner[h as usize];
            let run = &mut xout.obs[dsi as usize];
            if run.mark != stamp {
                run.mark = stamp;
                run.groups.push(ObsGroup {
                    time,
                    origin: node,
                    position: pos,
                    residual,
                    start: run.slots.len() as u32,
                    len: 0,
                });
            }
            run.slots.push(dslot);
            run.groups.last_mut().expect("group opened above").len += 1;
        }
        let at = self.time + sh.cfg.hello.period;
        self.push_event(at, slot, node, Event::HelloBeacon { node });
    }
}
