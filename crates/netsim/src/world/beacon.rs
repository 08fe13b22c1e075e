//! Who hears a HELLO beacon, and who started or stopped hearing it:
//! [`HearerCache::links`], the one hearer search both engines' beacon
//! handler calls (see [`engine`](super::engine)), over whatever
//! [`BeaconView`] the engine's `Reach` exposes — the serial world's live
//! columns and grid, or a shard's epoch replica. A move or a death tells
//! the cache which kept lists it changed ([`BeaconView::for_each_flip`]).

use imobif_geom::{Point2, SpatialGrid};

use super::observe::KernelStats;
use crate::NodeId;

/// Up to this many nodes, HELLO neighbor discovery scans the node array
/// instead of using the spatial grid's range query: the pinned-path
/// experiment worlds carry only the flow's relays, a dozen distance
/// checks. A scanned list is reused while its node beacons from the same
/// spot and the grid's clock stands still.
pub(super) const SMALL_WORLD_SCAN: usize = 32;

/// What a beacon's hearer search reads of the other nodes: position and
/// liveness columns indexed by global node id, a grid holding exactly the
/// live nodes, and the radio range. The grid's cells are at least the
/// range wide (every engine sizes them at `range.max(1.0)`), so a hearer
/// query reads at most 9 of its buckets.
pub(crate) struct BeaconView<'a> {
    pub(super) positions: &'a [Point2],
    pub(super) alive: &'a [bool],
    pub(super) grid: &'a SpatialGrid,
    pub(super) range: f64,
}

impl BeaconView<'_> {
    /// Calls `forget` with the id of every node whose kept hearer list a
    /// node's step from `from` to `to`, or its death at `from` (`to` is
    /// `None`), made stale: the live nodes within range of exactly one of
    /// the two points, at their grid positions. The grid must already
    /// hold the step. A world small enough to scan keeps its lists by the
    /// grid's clock instead, and names none.
    pub(super) fn for_each_flip(&self, from: Point2, to: Option<Point2>, forget: impl FnMut(u32)) {
        if self.positions.len() > SMALL_WORLD_SCAN {
            self.grid.for_each_flip(from, to, self.range, forget);
        }
    }
}

/// How one beacon's hearer set differs from the previous beacon's of the
/// same node: the hearers that joined and the ones that left, each
/// ascending by id. Both are empty when the set is unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links<'a> {
    pub(crate) joined: &'a [u32],
    pub(crate) left: &'a [u32],
}

/// One node's latest hearer list, sorted, read for a beacon from `center`
/// at grid clock `stamp`. A forgotten list keeps its members, for the next
/// list to be diffed against, and a NaN center, which equals no beacon
/// position.
#[derive(Debug, Clone)]
struct Entry {
    center: Point2,
    stamp: u64,
    list: Vec<u32>,
}

/// The center of a list no beacon reuses.
const NOWHERE: Point2 = Point2::new(f64::NAN, f64::NAN);

/// Every node's latest HELLO hearer list: the authoritative record of who
/// hears it, which is what lets a beacon write neighbor tables only where
/// its hearer set changed. A beacon reuses its node's list when nothing
/// changed it, and otherwise recomputes it and diffs it against the
/// stored one.
///
/// Storage is one 48-byte [`Entry`] per node, each owning its list's
/// `Vec`: a changed list is copied into the old one's capacity, so a list
/// allocates only when it outgrows every earlier version of itself.
#[derive(Debug, Default)]
pub(super) struct HearerCache {
    /// Indexed by the caller's node slot.
    entries: Vec<Entry>,
    /// The latest scanned or queried list.
    scratch: Vec<u32>,
    /// The latest beacon's [`Links`].
    joined: Vec<u32>,
    left: Vec<u32>,
}

impl HearerCache {
    /// The change in the set of nodes that hear a beacon `node` sends from
    /// `pos` — every live node other than `node` within range — since the
    /// node's previous beacon. `slot` is the node's entry, one of `slots`
    /// the caller owns. Counts the beacon, its fan-out, its link changes
    /// and the cache hit (a reused list) or miss (a scan or a query) into
    /// `stats`.
    pub(super) fn links(
        &mut self,
        view: &BeaconView<'_>,
        stats: &mut KernelStats,
        node: NodeId,
        slot: usize,
        slots: usize,
        pos: Point2,
    ) -> Links<'_> {
        if self.entries.len() < slots {
            self.entries.resize(slots, Entry { center: NOWHERE, stamp: 0, list: Vec::new() });
        }
        self.joined.clear();
        self.left.clear();
        let len = if let Some(list) = self.kept(view, slot, pos) {
            stats.hello_cache_hits += 1;
            list.len()
        } else {
            stats.hello_cache_misses += 1;
            if view.positions.len() <= SMALL_WORLD_SCAN {
                scan(view, node, pos, &mut self.scratch);
            } else {
                self.query(view, node, pos);
            }
            self.store(slot, pos, view.grid.clock())
        };
        stats.hello_beacons += 1;
        stats.hello_fanout_bins[KernelStats::fanout_bin(len)] += 1;
        stats.hello_link_changes += (self.joined.len() + self.left.len()) as u64;
        Links { joined: &self.joined, left: &self.left }
    }

    /// The list a beacon from `pos` reuses as `slot`'s hearers, if any.
    ///
    /// A world small enough to scan reuses a list for a beacon from its
    /// center while the grid's clock still reads its stamp: the grid holds
    /// exactly the live nodes, and every insert, update and remove
    /// advances its clock.
    ///
    /// Past that size a list is reused for a beacon from its center until
    /// it is forgotten ([`HearerCache::forget`]). The engines forget a
    /// node's own list when it moves, and, when a node steps or dies, the
    /// lists of the live nodes it takes into or out of range
    /// ([`BeaconView::for_each_flip`]): the serial world at once, a
    /// sharded one at the barrier, once every patch has landed, against
    /// every node's final replica position. So a list not forgotten
    /// belongs to a node that has not moved since it beaconed, and a node
    /// lies on it exactly when it is within range of its center.
    fn kept(&self, view: &BeaconView<'_>, slot: usize, pos: Point2) -> Option<&[u32]> {
        let e = self.entries.get(slot)?;
        let scanned = view.positions.len() <= SMALL_WORLD_SCAN;
        (e.center == pos && (!scanned || e.stamp == view.grid.clock())).then_some(&e.list[..])
    }

    /// Forgets `slot`'s kept list: the node's next beacon recomputes it.
    pub(super) fn forget(&mut self, slot: usize) {
        if let Some(e) = self.entries.get_mut(slot) {
            e.center = NOWHERE;
        }
    }

    /// `slot`'s stored hearer list, ascending: empty if the node never
    /// beaconed.
    pub(super) fn list(&self, slot: usize) -> &[u32] {
        self.entries.get(slot).map_or(&[], |e| &e.list)
    }

    /// Checks that the list a beacon `node` sends from `pos` would reuse,
    /// if any, equals a brute-force scan of `view`'s columns.
    pub(super) fn verify(
        &self,
        view: &BeaconView<'_>,
        node: NodeId,
        slot: usize,
        pos: Point2,
    ) -> Result<(), String> {
        let Some(list) = self.kept(view, slot, pos) else { return Ok(()) };
        let mut want = Vec::new();
        scan(view, node, pos, &mut want);
        if list == want {
            Ok(())
        } else {
            Err(format!("node {node:?} at {pos:?} keeps hearers {list:?}, not {want:?}"))
        }
    }

    /// Collects the hearers of a beacon `node` sends from `pos` — the live
    /// nodes other than `node` within range — from the grid into
    /// `scratch`, sorted.
    ///
    /// The filter has no branch: every candidate is written at the end of
    /// the list, which grows by the range test's outcome, so a hearer's id
    /// stays and the next candidate overwrites a non-hearer's. About a
    /// third of the candidates pass, so a branch on the test would
    /// mispredict often.
    fn query(&mut self, view: &BeaconView<'_>, node: NodeId, pos: Point2) {
        let r_sq = view.range * view.range;
        let mut len = 0;
        for bucket in view.grid.range_buckets(pos, view.range) {
            self.scratch.resize(len + bucket.len(), 0);
            for &(k, p) in bucket {
                self.scratch[len] = k;
                len += usize::from((k != node.raw()) & (pos.distance_sq_to(p) <= r_sq));
            }
        }
        self.scratch.truncate(len);
        self.scratch.sort_unstable();
    }

    /// Diffs `scratch` against `slot`'s stored list into `joined` and
    /// `left`, then stores it for beacons from `center` at grid clock
    /// `stamp`. Returns its length.
    fn store(&mut self, slot: usize, center: Point2, stamp: u64) -> usize {
        let e = &mut self.entries[slot];
        // Most recomputed lists are unchanged: no diff, no copy.
        if e.list != self.scratch {
            diff_sorted(&e.list, &self.scratch, &mut self.joined, &mut self.left);
            e.list.clone_from(&self.scratch);
        }
        e.center = center;
        e.stamp = stamp;
        e.list.len()
    }
}

/// Fills `out` with the hearers of a beacon `node` sends from `pos`, by a
/// scan of `view`'s columns: ascending, as a stored list is.
fn scan(view: &BeaconView<'_>, node: NodeId, pos: Point2, out: &mut Vec<u32>) {
    let r_sq = view.range * view.range;
    out.clear();
    out.extend((0..view.positions.len()).filter_map(|i| {
        (i != node.index() && view.alive[i] && pos.distance_sq_to(view.positions[i]) <= r_sq)
            .then_some(i as u32)
    }));
}

/// Merges two ascending id lists: ids only in `new` go to `joined`, ids
/// only in `old` to `left`.
fn diff_sorted(old: &[u32], new: &[u32], joined: &mut Vec<u32>, left: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                left.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                joined.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    left.extend_from_slice(&old[i..]);
    joined.extend_from_slice(&new[j..]);
}

#[cfg(test)]
mod tests {
    use super::Entry;

    /// A center, a clock stamp and a list: 16 + 8 + 24.
    #[test]
    fn a_cache_entry_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }
}
