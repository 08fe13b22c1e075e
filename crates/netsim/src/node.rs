//! Per-node simulator state, stored as a struct of arrays.

use imobif_energy::Battery;
use imobif_geom::Point2;

use crate::hello::Beacon;
use crate::{NeighborTable, NeighborView, NodeId};

/// The kernel-side state of every wireless node, laid out as a struct of
/// arrays: positions, batteries, liveness flags, odometers and neighbor
/// tables each live in their own dense vector, indexed by node slot.
///
/// This is the physical substrate the paper's Assumptions 1–4 talk about:
/// position (GPS), battery (residual-energy measurement), and the
/// HELLO-maintained neighbor table. Protocol state (flow tables, mobility
/// strategies) lives in the application objects, not here.
///
/// The columnar layout exists for the hot sweeps: the small-world beacon
/// scan touches only `positions` and `alive` (16 nodes per pair of cache
/// lines instead of one node per line), and the sharded world
/// ([`crate::ShardedWorld`]) replicates exactly the `positions`/`alive`
/// columns as its cross-shard snapshot. In a [`crate::World`] slot `i`
/// holds node id `i`; in a shard the slot is local and the global id lives
/// in the shard's `globals` map.
#[derive(Debug, Clone, Default)]
pub struct NodeStore {
    positions: Vec<Point2>,
    batteries: Vec<Battery>,
    alive: Vec<bool>,
    total_moved: Vec<f64>,
    neighbors: Vec<NeighborTable>,
}

impl NodeStore {
    /// An empty store.
    #[must_use]
    pub(crate) fn new() -> Self {
        NodeStore::default()
    }

    /// Number of node slots.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the store holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends a node slot; a node with a depleted battery starts dead.
    /// Returns the new slot's index.
    pub(crate) fn push(
        &mut self,
        position: Point2,
        battery: Battery,
        neighbors: NeighborTable,
    ) -> usize {
        let slot = self.positions.len();
        self.alive.push(!battery.is_depleted());
        self.positions.push(position);
        self.batteries.push(battery);
        self.total_moved.push(0.0);
        self.neighbors.push(neighbors);
        slot
    }

    /// Current position of slot `i`.
    #[must_use]
    #[inline]
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// The whole position column (for snapshot replication and topology
    /// views).
    #[must_use]
    #[inline]
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// The whole liveness column.
    #[must_use]
    #[inline]
    pub fn alive_flags(&self) -> &[bool] {
        &self.alive
    }

    /// The battery of slot `i`.
    #[must_use]
    #[inline]
    pub fn battery(&self, i: usize) -> &Battery {
        &self.batteries[i]
    }

    #[inline]
    pub(crate) fn battery_mut(&mut self, i: usize) -> &mut Battery {
        &mut self.batteries[i]
    }

    /// Residual energy of slot `i`, in joules.
    #[must_use]
    #[inline]
    pub fn residual(&self, i: usize) -> f64 {
        self.batteries[i].residual()
    }

    /// Returns `true` while slot `i` can still participate.
    #[must_use]
    #[inline]
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Total distance slot `i` has moved so far, in meters.
    #[must_use]
    #[inline]
    pub fn total_moved(&self, i: usize) -> f64 {
        self.total_moved[i]
    }

    /// The neighbor table of slot `i`; its linked entries read the beacon
    /// board.
    #[inline]
    pub(crate) fn neighbor_table(&self, i: usize) -> &NeighborTable {
        &self.neighbors[i]
    }

    #[inline]
    pub(crate) fn neighbor_table_mut(&mut self, i: usize) -> &mut NeighborTable {
        &mut self.neighbors[i]
    }

    #[inline]
    pub(crate) fn set_position(&mut self, i: usize, p: Point2, moved: f64) {
        self.positions[i] = p;
        self.total_moved[i] += moved;
    }

    /// Kills slot `i`, draining its battery; returns the stranded charge.
    pub(crate) fn kill(&mut self, i: usize) -> f64 {
        self.alive[i] = false;
        self.batteries[i].drain()
    }
}

/// A read-only view of one node's kernel state, borrowed from a
/// [`NodeStore`] — the struct-of-arrays replacement for the former
/// per-node struct.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    store: &'a NodeStore,
    /// The beacon board the node's linked neighbor entries read.
    board: &'a [Beacon],
    index: usize,
}

impl<'a> NodeRef<'a> {
    pub(crate) fn new(store: &'a NodeStore, board: &'a [Beacon], index: usize) -> Self {
        NodeRef { store, board, index }
    }

    /// The node's identity (world stores index nodes by id).
    #[must_use]
    pub fn id(&self) -> NodeId {
        NodeId::new(self.index as u32)
    }

    /// Current position.
    #[must_use]
    pub fn position(&self) -> Point2 {
        self.store.position(self.index)
    }

    /// The battery.
    #[must_use]
    pub fn battery(&self) -> &'a Battery {
        self.store.battery(self.index)
    }

    /// Residual energy in joules.
    #[must_use]
    pub fn residual_energy(&self) -> f64 {
        self.store.residual(self.index)
    }

    /// Returns `true` while the node can still participate.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.store.is_alive(self.index)
    }

    /// Total distance moved so far, in meters.
    #[must_use]
    pub fn total_moved(&self) -> f64 {
        self.store.total_moved(self.index)
    }

    /// The node's neighbor table.
    #[must_use]
    pub fn neighbor_table(&self) -> NeighborView<'a> {
        self.store.neighbor_table(self.index).view_with(self.board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn store(joules: f64) -> NodeStore {
        let mut s = NodeStore::new();
        s.push(
            Point2::new(1.0, 2.0),
            Battery::new(joules).unwrap(),
            NeighborTable::new(SimDuration::from_secs(3)),
        );
        s
    }

    #[test]
    fn fresh_node_is_alive() {
        let s = store(5.0);
        assert!(s.is_alive(0));
        assert_eq!(s.residual(0), 5.0);
        assert_eq!(s.total_moved(0), 0.0);
        assert_eq!(s.position(0), Point2::new(1.0, 2.0));
    }

    #[test]
    fn node_with_empty_battery_starts_dead() {
        assert!(!store(0.0).is_alive(0));
    }

    #[test]
    fn kill_drains_battery() {
        let mut s = store(5.0);
        assert_eq!(s.kill(0), 5.0);
        assert!(!s.is_alive(0));
        assert!(s.battery(0).is_depleted());
    }

    #[test]
    fn set_position_accumulates_movement() {
        let mut s = store(5.0);
        s.set_position(0, Point2::new(2.0, 2.0), 1.0);
        s.set_position(0, Point2::new(2.0, 4.0), 2.0);
        assert_eq!(s.total_moved(0), 3.0);
        assert_eq!(s.position(0), Point2::new(2.0, 4.0));
    }
}
