//! Cross-shard transfer buffers: per-destination-shard effect runs.
//!
//! PR 6 carried every cross-shard consequence as a uniform `Xfer` enum in a
//! single per-shard vector, gathered into one global inbox and sorted at
//! every barrier. That sort — O(total effects log total effects) per epoch,
//! over ~100-byte elements dominated by HELLO observations — was the
//! epoch-barrier tax. This module replaces it with three effect-specific
//! runs, each exploiting what the barrier actually needs from it:
//!
//! * **Deliveries** ([`Dlv`]) keep their [`XKey`] and are partitioned by
//!   destination shard at emission. Within one `(source, destination)` run
//!   they are already in key order (shard event loops pop in `(time, node,
//!   seq)` order and per-node sequences are monotonic), so the barrier
//!   restores the exact global order with a k-way binary-heap merge over
//!   the source runs of each destination — no sort. Strict key order
//!   matters here because applying a delivery consumes the *target's*
//!   queue sequence, which downstream tie-breaks depend on.
//! * **Link changes** ([`LinkGroup`]) are grouped: one 16-byte group per
//!   beacon per destination shard whose hearers joined or left the
//!   beacon's hearer set, plus a flat array of destination-local hearer
//!   slots, each marked join or leave. A beacon with leavers stores the
//!   record they freeze once, in the source outbox's `frozen` column, and
//!   its groups name it by index; joiners read no record. A beacon whose
//!   hearer set is unchanged sends no group, only its replica patch.
//!   Changes for *different* origins touch different table entries and
//!   commute, and changes for the *same* origin are already ordered within
//!   their single source run — groups need no key and no merge at all.
//! * **Replica patches** ([`RepPatch`]) are keyless position, liveness and
//!   beacon-board deltas; a beacon patch names the owner's board slot, and
//!   the barrier copies the record from there. A node's patches all come
//!   from its one owner shard (runs preserve per-node order) and patches
//!   for different nodes touch disjoint replica entries, so runs are
//!   applied source-by-source.
//!
//! The buffers are owned by the coordinator (not the shard), sized to the
//! shard count, and recycled every epoch: steady-state barriers allocate
//! nothing.

use imobif_geom::Point2;

use super::reach::XKey;
use crate::hello::Beacon;
use crate::{NodeId, SimTime};

/// One cross-shard packet delivery, keyed for the barrier merge.
#[derive(Debug)]
pub(super) struct Dlv<M> {
    pub(super) key: XKey,
    pub(super) arrival: SimTime,
    pub(super) from: NodeId,
    pub(super) to: NodeId,
    /// Destination-local slot of `to`, resolved at emission.
    pub(super) slot: u32,
    pub(super) msg: M,
}

/// Marks a leaver in [`LinkRun::slots`]; a slot without it is a joiner.
pub(super) const LEAVE: u32 = 1 << 31;

/// [`LinkGroup::frozen`] of a beacon without leavers.
pub(super) const NO_FROZEN: u32 = u32::MAX;

/// One HELLO beacon's link changes landing in one destination shard: the
/// origin, a `start..start + len` window into the run's flat slot array,
/// and where the record its leavers freeze (the origin's previous beacon)
/// sits in the source outbox's [`ShardOutbox::frozen`] column —
/// [`NO_FROZEN`] when the beacon has no leavers, since joiners read none.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkGroup {
    pub(super) origin: NodeId,
    pub(super) start: u32,
    pub(super) len: u32,
    pub(super) frozen: u32,
}

/// The link-change run for one destination shard.
#[derive(Debug, Default)]
pub(super) struct LinkRun {
    pub(super) groups: Vec<LinkGroup>,
    /// Destination-local hearer slots, windowed by the groups; a leaver's
    /// slot carries [`LEAVE`].
    pub(super) slots: Vec<u32>,
    /// Beacon stamp that last opened a group here (emission-side scratch:
    /// lets a beacon detect "first hearer in this destination" in O(1)).
    pub(super) mark: u64,
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

/// One shard's outgoing effects for the current epoch, partitioned by
/// destination shard. Owned by the coordinator so the barrier can read a
/// source's runs while mutating destination shards.
#[derive(Debug)]
pub(super) struct ShardOutbox<M> {
    /// `dlv[d]`: deliveries bound for shard `d`, in local key order.
    pub(super) dlv: Vec<Vec<Dlv<M>>>,
    /// `links[d]`: grouped link changes bound for shard `d`.
    pub(super) links: Vec<LinkRun>,
    /// The records leavers freeze, one per beacon with leavers, named by
    /// the groups of every destination.
    pub(super) frozen: Vec<Beacon>,
    /// Replica deltas for nodes this shard owns.
    pub(super) rep: Vec<RepPatch>,
    /// Set for a first epoch that runs only free beacons: its barrier
    /// links every table from its node's hearer list, so the epoch ships
    /// no link change.
    pub(super) bulk_join: bool,
}

impl<M> ShardOutbox<M> {
    /// An empty outbox with one run of each kind per destination shard.
    pub(super) fn new(dests: usize) -> Self {
        ShardOutbox {
            dlv: std::iter::repeat_with(Vec::new).take(dests).collect(),
            links: std::iter::repeat_with(LinkRun::default).take(dests).collect(),
            frozen: Vec::new(),
            rep: Vec::new(),
            bulk_join: false,
        }
    }
}

/// Reusable scratch for the barrier's k-way delivery merge: a binary heap
/// of `(head key, source shard)` run cursors. The merge pops the run with
/// the smallest head, drains its prefix up to the next-smallest head
/// (moving elements by value), and re-pushes the run if it still has
/// items — no sort, no clones, no allocation after warmup.
#[derive(Debug, Default)]
pub(super) struct MergeScratch {
    pub(super) heap: std::collections::BinaryHeap<std::cmp::Reverse<(XKey, u32)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link group names its frozen record instead of carrying it, and a
    /// beacon patch names a board slot: neither copies a 32-byte record.
    #[test]
    fn a_link_group_is_16_bytes_and_a_patch_24() {
        assert_eq!(std::mem::size_of::<LinkGroup>(), 16);
        assert_eq!(std::mem::size_of::<RepPatch>(), 24);
    }
}
