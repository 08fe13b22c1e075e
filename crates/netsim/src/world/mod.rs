//! The simulation world, decomposed into typed subsystems.
//!
//! [`World`] is a thin facade over [`WorldCore`] — the application-
//! independent physical state — plus the generic pieces (event queue,
//! application instances, outbox). The behavior lives in focused
//! submodules: `kernel` (event loop, dispatch, [`Effect`] application),
//! `mobility` (movement/death), `beacon` (HELLO service), `delivery`
//! (unicast send/receive) and `observe` (tracing, [`KernelStats`],
//! metrics). Subsystems mutate their own domain state directly through
//! `&mut WorldCore` and return every cross-cutting consequence as an
//! [`Effect`] the kernel applies in order — the single interception point
//! for future fault injection and sharding (DESIGN.md §10).

mod beacon;
mod delivery;
mod kernel;
mod mobility;
mod observe;
pub(crate) mod shard;
#[cfg(test)]
mod tests;

pub use kernel::{Effect, TimerKind};
pub use observe::KernelStats;

use imobif_energy::{Battery, MobilityCostModel, TxEnergyModel};
use imobif_geom::{Point2, SpatialGrid};

use crate::node::{NodeRef, NodeStore};
use crate::trace::RingTrace;
use crate::{
    Application, EnergyLedger, EventQueue, NeighborTable, NodeId, Outbox, SimConfig, SimError,
    SimTime, TopologyView,
};
use kernel::Event;

/// The application-independent half of the world: every field a subsystem
/// needs to simulate the physical substrate. Non-generic, so the subsystem
/// modules are plain functions over `&mut WorldCore` with no
/// `A: Application` parameter.
pub(crate) struct WorldCore {
    cfg: SimConfig,
    tx_model: Box<dyn TxEnergyModel>,
    mobility_model: Box<dyn MobilityCostModel>,
    time: SimTime,
    nodes: NodeStore,
    grid: SpatialGrid,
    ledger: EnergyLedger,
    trace: Option<RingTrace>,
    /// Every node's HELLO hearer list, revalidated against `grid`.
    hearers: beacon::HearerCache,
    /// Plain-field kernel instrumentation (see [`KernelStats`]).
    stats: KernelStats,
}

/// The deterministic discrete-event world: nodes, radio medium, batteries,
/// application instances and the event loop tying them together.
///
/// # Determinism
///
/// All state evolution is driven by the [`EventQueue`], which orders events
/// by `(time, insertion sequence)`. Given identical configuration, node
/// setup and application behavior, two runs produce identical traces — the
/// workspace integration tests assert this bit-for-bit.
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
    core: WorldCore,
    queue: EventQueue<Event<A::Msg>>,
    apps: Vec<A>,
    started: bool,
    /// Reusable action buffer handed to application hooks: one allocation
    /// for the whole run instead of a fresh `Vec` per event.
    outbox: Outbox<A::Msg>,
    /// Neighbor tables recycled by [`World::reset_into`], handed back out
    /// by `add_node` so a reused world allocates no new tables.
    spare_tables: Vec<NeighborTable>,
    /// Kernel events processed since construction or the last reset
    /// (throughput metric).
    events_processed: u64,
}

impl<A: Application> World<A> {
    /// Creates an empty world.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(
        cfg: SimConfig,
        tx_model: Box<dyn TxEnergyModel>,
        mobility_model: Box<dyn MobilityCostModel>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(World {
            queue: EventQueue::with_backend(cfg.queue_backend),
            core: WorldCore {
                grid: SpatialGrid::new(cfg.range.max(1.0)),
                cfg,
                tx_model,
                mobility_model,
                time: SimTime::ZERO,
                nodes: NodeStore::new(),
                ledger: EnergyLedger::new(),
                trace: None,
                hearers: beacon::HearerCache::default(),
                stats: KernelStats::default(),
            },
            apps: Vec::new(),
            started: false,
            outbox: Outbox::new(),
            spare_tables: Vec::new(),
            events_processed: 0,
        })
    }

    /// Returns the world to its just-constructed state under a (possibly
    /// different) configuration and models, keeping every allocation for
    /// the next replicate; application instances are drained into
    /// `recycled_apps` so the caller can reuse theirs too. A reset world is
    /// observationally identical to a fresh `World::new(cfg, …)` — the same
    /// setup produces a bit-identical event trace (asserted by a property
    /// test). Tracing is disabled by the reset, matching a fresh world.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cfg` fails validation; the
    /// world is left unchanged in that case.
    pub fn reset_into(
        &mut self,
        cfg: SimConfig,
        tx_model: Box<dyn TxEnergyModel>,
        mobility_model: Box<dyn MobilityCostModel>,
        recycled_apps: &mut Vec<A>,
    ) -> Result<(), SimError> {
        cfg.validate()?;
        self.core.nodes.drain_tables_into(&mut self.spare_tables);
        recycled_apps.append(&mut self.apps);
        if self.queue.backend() == cfg.queue_backend {
            self.queue.clear();
        } else {
            self.queue = EventQueue::with_backend(cfg.queue_backend);
        }
        // The grid keeps its buckets only while the cell size (derived from
        // the radio range) is unchanged; a new range needs a new geometry,
        // whose clock restarts, so no cached hearer list may outlive it.
        if self.core.grid.cell_size() == cfg.range.max(1.0) {
            self.core.grid.clear();
        } else {
            self.core.grid = SpatialGrid::new(cfg.range.max(1.0));
        }
        self.core.hearers.clear();
        self.core.cfg = cfg;
        self.core.tx_model = tx_model;
        self.core.mobility_model = mobility_model;
        self.core.time = SimTime::ZERO;
        self.core.ledger.clear();
        self.core.trace = None;
        self.started = false;
        self.events_processed = 0;
        self.core.stats = KernelStats::default();
        Ok(())
    }

    /// Like [`World::reset_into`] (same error contract), dropping the old
    /// application instances instead of recycling them.
    pub fn reset(
        &mut self,
        cfg: SimConfig,
        tx_model: Box<dyn TxEnergyModel>,
        mobility_model: Box<dyn MobilityCostModel>,
    ) -> Result<(), SimError> {
        let mut dropped = Vec::new();
        self.reset_into(cfg, tx_model, mobility_model, &mut dropped)
    }

    /// Adds a node with its application instance, returning its id.
    /// Panics if called after [`World::start`].
    pub fn add_node(&mut self, position: Point2, battery: Battery, app: A) -> NodeId {
        assert!(!self.started, "nodes must be added before start()");
        let id = NodeId::new(self.core.nodes.len() as u32);
        let table = match self.spare_tables.pop() {
            Some(mut t) => {
                t.reset(self.core.cfg.hello.ttl);
                t
            }
            None => NeighborTable::new(self.core.cfg.hello.ttl),
        };
        let slot = self.core.nodes.push(position, battery, table);
        if self.core.nodes.is_alive(slot) {
            self.core.grid.insert(id.raw(), position);
        }
        self.apps.push(app);
        self.core.ledger.grow_to(self.core.nodes.len());
        id
    }

    /// Current virtual time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.core.time
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.core.cfg
    }

    /// Kernel events processed since construction or the last reset. The
    /// benchmark harness divides this by wall time to report events/second.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Kernel state of a node. Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef::new(&self.core.nodes, id.index())
    }

    /// Position of a node.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point2 {
        self.core.nodes.position(id.index())
    }

    /// Whether a node is alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.core.nodes.is_alive(id.index())
    }

    /// Residual energy of a node, in joules.
    #[must_use]
    pub fn residual_energy(&self, id: NodeId) -> f64 {
        self.core.nodes.residual(id.index())
    }

    /// The application instance of a node. Panics if `id` is out of range.
    #[must_use]
    pub fn app(&self, id: NodeId) -> &A {
        &self.apps[id.index()]
    }

    /// Mutable access to a node's application instance (for flow setup by
    /// experiment drivers). Panics if `id` is out of range.
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.apps[id.index()]
    }

    /// The energy ledger.
    #[must_use]
    pub fn ledger(&self) -> &EnergyLedger {
        &self.core.ledger
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// A routing snapshot of the current connectivity graph.
    #[must_use]
    pub fn topology_view(&self) -> TopologyView {
        TopologyView::new(
            self.core.nodes.positions().to_vec(),
            self.core.nodes.alive_flags().to_vec(),
            self.core.cfg.range,
        )
    }
}

impl<A: Application> std::fmt::Debug for World<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.core.time)
            .field("nodes", &self.core.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}
