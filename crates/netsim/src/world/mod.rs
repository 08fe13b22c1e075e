//! The simulation world: one event loop, two ways to reach the nodes.
//!
//! [`World`] is a thin facade over an [`Engine`](engine::Engine) — node
//! columns, applications, queue, ledger, hearer cache, kernel counters and
//! clock, plus the only bodies of the kernel's handlers — and the serial
//! [`Reach`](engine::Reach) (`kernel`): live columns, its own queue, a
//! spatial grid and a trace ring. A [`ShardedWorld`](crate::ShardedWorld)
//! runs one such engine per shard behind the sharded `Reach` instead
//! (DESIGN.md §10–11). The remaining modules hold the HELLO hearer cache
//! (`beacon`) and tracing, [`KernelStats`] and metrics (`observe`).

mod beacon;
mod engine;
mod kernel;
mod observe;
pub(crate) mod shard;
#[cfg(test)]
mod tests;

pub use observe::KernelStats;

use imobif_energy::Battery;
use imobif_geom::{Point2, SpatialGrid};

use crate::node::NodeRef;
use crate::{Application, EnergyLedger, NodeId, SimConfig, SimError, SimTime, TopologyView};
use engine::Engine;
use kernel::SerialReach;

/// The deterministic discrete-event world: nodes, radio medium, batteries,
/// application instances and the event loop tying them together.
///
/// # Determinism
///
/// All state evolution is driven by the [`EventQueue`](crate::EventQueue),
/// which orders events by `(time, insertion sequence)`. Given identical
/// configuration, node setup and application behavior, two runs produce
/// identical traces — the workspace integration tests assert this
/// bit-for-bit.
///
/// # Energy accounting
///
/// Every joule leaves a battery through exactly one of three kernel paths —
/// unicast send, HELLO beacon, movement — and each mirrors the expenditure
/// into the [`EnergyLedger`] with its category. A node whose battery cannot
/// cover a transmission or a movement step dies (paper §4: the lifetime
/// experiments hinge on exactly when bottleneck nodes die).
///
/// See the crate-level docs for an end-to-end example.
pub struct World<A: Application> {
    engine: Engine<A>,
    reach: SerialReach,
    started: bool,
}

impl<A: Application> World<A> {
    /// Creates an empty world.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(World {
            engine: Engine::new(),
            reach: SerialReach { grid: SpatialGrid::new(cfg.range.max(1.0)), cfg, trace: None },
            started: false,
        })
    }

    /// Adds a node with its application instance, returning its id.
    /// Panics if called after [`World::start`].
    pub fn add_node(&mut self, position: Point2, battery: Battery, app: A) -> NodeId {
        assert!(!self.started, "nodes must be added before start()");
        let slot = self.engine.add_node(position, battery, app, self.reach.cfg.hello.ttl);
        let id = NodeId::new(slot as u32);
        if self.engine.nodes.is_alive(slot) {
            self.reach.grid.insert(id.raw(), position);
        }
        id
    }

    /// Current virtual time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.engine.time
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.engine.nodes.len()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.reach.cfg
    }

    /// Kernel events processed since construction. The benchmark harness
    /// divides this by wall time to report events/second.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed
    }

    /// Kernel state of a node. Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef::new(&self.engine.nodes, &self.engine.board, id.index())
    }

    /// Position of a node.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point2 {
        self.engine.nodes.position(id.index())
    }

    /// Whether a node is alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.engine.nodes.is_alive(id.index())
    }

    /// Residual energy of a node, in joules.
    #[must_use]
    pub fn residual_energy(&self, id: NodeId) -> f64 {
        self.engine.nodes.residual(id.index())
    }

    /// The application instance of a node. Panics if `id` is out of range.
    #[must_use]
    pub fn app(&self, id: NodeId) -> &A {
        &self.engine.apps[id.index()]
    }

    /// Mutable access to a node's application instance (for flow setup by
    /// experiment drivers). Panics if `id` is out of range.
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.engine.apps[id.index()]
    }

    /// The energy ledger.
    #[must_use]
    pub fn ledger(&self) -> &EnergyLedger {
        &self.engine.ledger
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.engine.queue.len()
    }

    /// Test hook: checks that every live node's kept HELLO hearer list —
    /// the one its next beacon from where it stands would reuse — equals
    /// a brute-force hearer set from there over the live columns.
    #[doc(hidden)]
    pub fn verify_hearer_lists(&self) -> Result<(), String> {
        let nodes = &self.engine.nodes;
        let view = engine::Reach::<A::Msg>::beacon_view(&self.reach, nodes);
        (0..nodes.len()).filter(|&i| nodes.is_alive(i)).try_for_each(|i| {
            self.engine.hearers.verify(&view, NodeId::new(i as u32), i, nodes.position(i))
        })
    }

    /// A routing snapshot of the current connectivity graph.
    #[must_use]
    pub fn topology_view(&self) -> TopologyView {
        TopologyView::new(
            self.engine.nodes.positions().to_vec(),
            self.engine.nodes.alive_flags().to_vec(),
            self.reach.cfg.range,
        )
    }
}

impl<A: Application> std::fmt::Debug for World<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.engine.time)
            .field("nodes", &self.engine.nodes.len())
            .field("pending_events", &self.engine.queue.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}
