//! The application layer: the trait protocol code implements to run on
//! simulated nodes.

use imobif_energy::{MobilityCostModel, TxEnergyModel};
use imobif_geom::Point2;

use crate::hello::Beacon;
use crate::node::NodeStore;
use crate::{EnergyCategory, NeighborEntry, NeighborView, NodeId, SimDuration, SimTime};

/// A protocol running on every node of a [`crate::World`].
///
/// One application instance exists per node. The kernel calls the trait's
/// hooks when events reach the node; the application pushes the
/// [`Action`]s it wants performed into the kernel-owned [`Outbox`], and the
/// kernel applies them (charging energy, scheduling deliveries, moving the
/// node). Applications hold all protocol state (for iMobif: the flow
/// table, mobility strategy and status); the kernel owns the physical
/// state (position, battery, neighbor table).
///
/// Hooks receive a read-only [`NodeCtx`]; pushing actions instead of
/// mutating the world directly keeps every energy expenditure flowing
/// through one accounting path. The outbox is a buffer the kernel reuses
/// across events, so the steady-state packet path performs no heap
/// allocation (see DESIGN.md §Hot path & performance).
pub trait Application: Sized {
    /// The message type this protocol exchanges.
    type Msg: Clone + std::fmt::Debug;

    /// Called once when the world starts, in node-id order.
    fn on_start(&mut self, ctx: &NodeCtx<'_>, out: &mut Outbox<Self::Msg>) {
        let _ = (ctx, out);
    }

    /// Called when a message addressed to this node arrives.
    fn on_message(
        &mut self,
        ctx: &NodeCtx<'_>,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    );

    /// Called when a timer set with [`Action::SetTimer`] fires.
    fn on_timer(&mut self, ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<Self::Msg>) {
        let _ = (ctx, tag, out);
    }
}

/// The kernel-owned action buffer handed to [`Application`] hooks.
///
/// Hooks push the effects they want; the kernel drains the buffer after
/// the hook returns, preserving push order. One `Outbox` lives for the
/// whole simulation and its backing storage is reused event after event,
/// which is what makes the per-packet hot path allocation-free once
/// capacities have warmed up.
#[derive(Debug)]
pub struct Outbox<M> {
    actions: Vec<Action<M>>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Outbox { actions: Vec::new() }
    }

    /// Queues an arbitrary action.
    pub fn push(&mut self, action: Action<M>) {
        self.actions.push(action);
    }

    /// Queues a unicast transmission (see [`Action::Send`]).
    pub fn send(&mut self, to: NodeId, bits: u64, msg: M, category: EnergyCategory) {
        self.actions.push(Action::Send { to, bits, msg, category });
    }

    /// Queues a timer (see [`Action::SetTimer`]).
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::SetTimer { delay, tag });
    }

    /// Queues a bounded movement step (see [`Action::MoveToward`]).
    pub fn move_toward(&mut self, target: Point2, max_step: f64) {
        self.actions.push(Action::MoveToward { target, max_step });
    }

    /// Number of queued actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Kernel-side drain: yields the queued actions in push order while
    /// keeping the backing capacity for reuse.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }

    /// Discards any queued actions, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.actions.clear();
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// An effect an application asks the kernel to perform.
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Unicast `msg` to `to`, transmitting `bits` bits at the minimum power
    /// for the current sender–receiver distance (paper Assumption 4). The
    /// sender is charged `E_T(d, bits)`; an unaffordable send kills the
    /// sender and drops the packet.
    Send {
        /// Receiver.
        to: NodeId,
        /// Packet size in bits.
        bits: u64,
        /// Payload.
        msg: M,
        /// Ledger category for the transmission energy.
        category: EnergyCategory,
    },
    /// Deliver `tag` back to `on_timer` after `delay`.
    SetTimer {
        /// How long from now the timer fires.
        delay: SimDuration,
        /// Opaque tag returned to the application.
        tag: u64,
    },
    /// Move toward `target`, at most `max_step` meters (the paper's bounded
    /// per-packet movement). The mover is charged `E_M(moved)`; if the
    /// battery cannot cover the full step the node moves as far as it can
    /// afford and dies.
    MoveToward {
        /// Where the node wants to end up.
        target: Point2,
        /// Per-step movement bound in meters.
        max_step: f64,
    },
}

/// What a node can observe about a peer: position and residual energy.
///
/// With HELLO beaconing enabled this is the (possibly slightly stale)
/// neighbor-table view the paper describes; with beaconing disabled the
/// kernel substitutes ground truth (a perfect-information mode for tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerInfo {
    /// The peer's position.
    pub position: Point2,
    /// The peer's residual energy in joules.
    pub residual_energy: f64,
}

/// Read-only view of a node's world, handed to application hooks.
///
/// Everything here is information the paper's assumptions grant a node:
/// its own position (GPS) and residual energy, its neighbor table, and its
/// power-distance / movement-cost estimators.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    /// The store holding this node's own state. In a [`crate::World`] this
    /// is the global store; in a [`crate::ShardedWorld`] it is the owning
    /// shard's local store.
    pub(crate) store: &'a NodeStore,
    /// Index of this node within `store`.
    pub(crate) slot: usize,
    /// The beacon board, indexed by node id, that the node's linked
    /// neighbor entries read: the serial world's live column, or a shard's
    /// epoch replica.
    pub(crate) board: &'a [Beacon],
    /// Ground-truth store indexed by global node id, for the
    /// perfect-information mode used when HELLO is disabled. `None` in
    /// sharded worlds, where no ground-truth remote reads exist.
    pub(crate) truth: Option<&'a NodeStore>,
    pub(crate) tx_model: &'a dyn TxEnergyModel,
    pub(crate) mobility_model: &'a dyn MobilityCostModel,
    pub(crate) hello_enabled: bool,
}

impl NodeCtx<'_> {
    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's current position.
    #[must_use]
    pub fn position(&self) -> Point2 {
        self.store.position(self.slot)
    }

    /// This node's residual energy in joules.
    #[must_use]
    pub fn residual_energy(&self) -> f64 {
        self.store.residual(self.slot)
    }

    /// Fresh neighbor-table entries, sorted by id.
    #[must_use]
    pub fn neighbors(&self) -> Vec<NeighborEntry> {
        self.neighbor_view().fresh(self.now)
    }

    #[inline]
    fn neighbor_view(&self) -> NeighborView<'_> {
        self.store.neighbor_table(self.slot).view_with(self.board)
    }

    /// What this node knows about `peer`.
    ///
    /// With HELLO enabled, the knowledge comes from the neighbor table and
    /// is `None` for peers never heard from (or heard too long ago). With
    /// HELLO disabled, ground truth is returned for any live node (sharded
    /// worlds have no ground-truth store, so they require HELLO).
    #[must_use]
    pub fn peer_info(&self, peer: NodeId) -> Option<PeerInfo> {
        if self.hello_enabled {
            self.neighbor_view()
                .get(peer, self.now)
                .map(|e| PeerInfo { position: e.position, residual_energy: e.residual_energy })
        } else {
            let truth = self.truth?;
            let i = peer.index();
            (i < truth.len() && truth.is_alive(i)).then(|| PeerInfo {
                position: truth.position(i),
                residual_energy: truth.residual(i),
            })
        }
    }

    /// Energy to transmit `bits` bits across `d` meters — the paper's
    /// `E_T(d, l)`.
    #[must_use]
    pub fn tx_energy(&self, d: f64, bits: f64) -> f64 {
        self.tx_model.energy(d, bits)
    }

    /// Per-bit transmission energy across `d` meters — `E_T(d, 1)`.
    #[must_use]
    pub fn tx_energy_per_bit(&self, d: f64) -> f64 {
        self.tx_model.energy_per_bit(d)
    }

    /// Energy to move `d` meters — the paper's `E_M(d)`.
    #[must_use]
    pub fn mobility_cost(&self, d: f64) -> f64 {
        self.mobility_model.cost(d)
    }

    /// The node's transmission-energy estimator, for callers that need to
    /// sample it (e.g. fitting the max-lifetime exponent `α'`).
    #[must_use]
    pub fn tx_model(&self) -> &dyn TxEnergyModel {
        self.tx_model
    }

    /// The node's movement-cost estimator (paper Assumption 3: nodes can
    /// measure or estimate the energy needed to move).
    #[must_use]
    pub fn mobility_model(&self) -> &dyn MobilityCostModel {
        self.mobility_model
    }
}
