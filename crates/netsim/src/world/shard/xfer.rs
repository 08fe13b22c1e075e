//! Cross-shard transfer buffers: one flat run of each effect class per
//! source shard, in emission order, with no split by destination shard. A
//! beacon ships only the changes to its hearer set, so a barrier carries a
//! few dozen effects, and each class carries what the barrier needs:
//!
//! * **Deliveries** ([`Dlv`]) keep their [`XKey`]. The barrier appends
//!   every active source's run to one scratch run, sorts it once by key
//!   and enqueues each delivery on its target's owner shard. Enqueueing a
//!   delivery uses up only its target node's queue sequence, which
//!   downstream tie-breaks depend on, so the one sort gives every node its
//!   deliveries in key order at any shard count.
//! * **Link changes** ([`LinkChange`]) name the beacon's origin, the
//!   hearer that joined or left its hearer set (a global id, a leaver's
//!   carrying [`LEAVE`]), and, for a leaver, the record it freezes: a
//!   beacon with leavers stores its origin's previous beacon once, in the
//!   outbox's `frozen` column, and its changes name it by index. A beacon
//!   whose hearer set is unchanged sends no change, only its replica
//!   patch. Changes for *different* origins touch different table entries
//!   and commute, and changes for the *same* origin all come, in order,
//!   from its owner's run: they need no key and no sort.
//! * **Replica patches** ([`RepPatch`]) are keyless position, liveness and
//!   beacon-board deltas; a beacon patch names the owner's board slot, and
//!   the barrier copies the record from there. A node's patches all come
//!   from its one owner shard (runs preserve per-node order) and patches
//!   for different nodes touch disjoint replica entries, so runs are
//!   applied source-by-source.
//!
//! The buffers are owned by the coordinator (not the shard) and recycled
//! every epoch: steady-state barriers allocate nothing.

use imobif_geom::Point2;

use super::reach::XKey;
use crate::hello::Beacon;
use crate::{NodeId, SimTime};

/// One cross-shard packet delivery, keyed for the barrier's sort.
#[derive(Debug)]
pub(super) struct Dlv<M> {
    pub(super) key: XKey,
    pub(super) arrival: SimTime,
    pub(super) from: NodeId,
    pub(super) to: NodeId,
    pub(super) msg: M,
}

/// Marks a leaver in [`LinkChange::hearer`]; a hearer without it joined.
pub(super) const LEAVE: u32 = 1 << 31;

/// One hearer joining or leaving `origin`'s hearer set. A leaver freezes
/// the record at index `frozen` of the source outbox's
/// [`ShardOutbox::frozen`] column; a joiner reads none.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkChange {
    pub(super) origin: NodeId,
    /// The hearer's global id, with [`LEAVE`] set for a leaver.
    pub(super) hearer: u32,
    pub(super) frozen: u32,
}

/// A keyless replica delta: the owner shard's position, liveness and
/// beacon-board changes, applied to the epoch-frozen
/// [`Replica`](super::reach::Replica) in emission order. A beacon names
/// its node's board slot in the owner shard, and the barrier copies that
/// record: only a beacon writes a board record, so at the barrier the
/// owner's record is the epoch's last beacon of the node.
#[derive(Debug, Clone, Copy)]
pub(super) enum RepPatch {
    Moved { node: NodeId, to: Point2 },
    Died { node: NodeId },
    Beacon { node: NodeId, slot: u32 },
}

/// One shard's outgoing effects for the current epoch, each run in
/// emission order. Owned by the coordinator so the barrier can read a
/// source's runs while mutating destination shards.
#[derive(Debug)]
pub(super) struct ShardOutbox<M> {
    pub(super) dlv: Vec<Dlv<M>>,
    pub(super) links: Vec<LinkChange>,
    /// The records leavers freeze, one per beacon with leavers.
    pub(super) frozen: Vec<Beacon>,
    /// Replica deltas for nodes this shard owns.
    pub(super) rep: Vec<RepPatch>,
    /// Set for a first epoch that runs only free beacons: its barrier
    /// links every table from its node's hearer list, so the epoch ships
    /// no link change.
    pub(super) bulk_join: bool,
}

impl<M> Default for ShardOutbox<M> {
    fn default() -> Self {
        ShardOutbox {
            dlv: Vec::new(),
            links: Vec::new(),
            frozen: Vec::new(),
            rep: Vec::new(),
            bulk_join: false,
        }
    }
}

/// Reusable barrier scratch, which allocates nothing after warmup.
#[derive(Debug)]
pub(super) struct BarrierScratch<M> {
    /// Every active source's deliveries, sorted by key.
    pub(super) dlv: Vec<Dlv<M>>,
    /// The nodes the epoch's patches moved or killed, once per patch.
    pub(super) movers: Vec<NodeId>,
    /// Each mover's step, once: its pre-barrier replica position and its
    /// final one, `None` once dead.
    pub(super) steps: Vec<(Point2, Option<Point2>)>,
}

impl<M> Default for BarrierScratch<M> {
    fn default() -> Self {
        BarrierScratch { dlv: Vec::new(), movers: Vec::new(), steps: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link change names its frozen record instead of carrying it, and
    /// a beacon patch names a board slot: neither copies a 32-byte record.
    #[test]
    fn a_link_change_is_12_bytes_and_a_patch_24() {
        assert_eq!(std::mem::size_of::<LinkChange>(), 12);
        assert_eq!(std::mem::size_of::<RepPatch>(), 24);
    }
}
