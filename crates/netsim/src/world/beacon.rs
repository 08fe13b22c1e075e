//! Who hears a HELLO beacon, and who started or stopped hearing it:
//! [`HearerCache::links`], the one hearer search both engines' beacon
//! handler calls (see [`engine`](super::engine)), over whatever
//! [`BeaconView`] the engine's `Reach` exposes — the serial world's live
//! columns and grid, or a shard's epoch replica.

use imobif_geom::{Point2, SlotWindow, SpatialGrid};

use super::observe::KernelStats;
use crate::NodeId;

/// Up to this many nodes, HELLO neighbor discovery scans the node array
/// instead of using the spatial grid's range query and its slot windows:
/// the pinned-path experiment worlds carry only the flow's relays, a dozen
/// distance checks. A scanned list is reused while its node beacons from
/// the same spot and the grid's clock stands still.
pub(super) const SMALL_WORLD_SCAN: usize = 32;

/// What a beacon's hearer search reads of the other nodes: position and
/// liveness columns indexed by global node id, a grid holding exactly the
/// live nodes, and the radio range. The grid's cells are at least the
/// range wide (every engine sizes them at `range.max(1.0)`), so a hearer
/// query reads a [`SlotWindow`] of at most 9 slots.
pub(crate) struct BeaconView<'a> {
    pub(super) positions: &'a [Point2],
    pub(super) alive: &'a [bool],
    pub(super) grid: &'a SpatialGrid,
    pub(super) range: f64,
}

/// How one beacon's hearer set differs from the previous beacon's of the
/// same node: the hearers that joined and the ones that left, each
/// ascending by id. Both are empty when the set is unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links<'a> {
    pub(crate) joined: &'a [u32],
    pub(crate) left: &'a [u32],
}

/// One node's latest hearer list, sorted. The list was read at grid clock
/// `stamp` for a beacon from `center`; a grid-path list from the slots of
/// `window`, `counts[i]` of its members from window slot `i` (saturating at
/// `u8::MAX`), a scanned one from no window.
#[derive(Debug, Clone)]
struct Entry {
    center: Point2,
    stamp: u64,
    list: Vec<u32>,
    window: SlotWindow,
    counts: [u8; 9],
}

impl Entry {
    /// Holds no list and revalidates none: a NaN center equals no beacon
    /// position.
    const EMPTY: Entry = Entry {
        center: Point2::new(f64::NAN, f64::NAN),
        stamp: 0,
        list: Vec::new(),
        window: SlotWindow::EMPTY,
        counts: [0; 9],
    };

    /// Whether the list is still exact for a beacon from its center, given
    /// that only the window slots in `changed` changed since its stamp:
    /// each changed slot must hold, within range, only list members other
    /// than `node`, and exactly as many as it did. The unchanged slots hold
    /// the same items, and an item lives in one slot, so the hearer set is
    /// then a subset of the list of the same size: the list.
    fn recheck(&self, view: &BeaconView<'_>, node: NodeId, changed: u16) -> bool {
        let r_sq = view.range * view.range;
        view.grid.window_buckets(self.window, changed).all(|(i, bucket)| {
            let mut n = 0;
            let members = bucket
                .iter()
                .filter(|&&(k, p)| k != node.raw() && self.center.distance_sq_to(p) <= r_sq)
                .all(|&(k, _)| {
                    n += 1;
                    self.list.binary_search(&k).is_ok()
                });
            members && n == usize::from(self.counts[i]) && self.counts[i] < u8::MAX
        })
    }
}

/// Every node's latest HELLO hearer list: the authoritative record of who
/// hears it, which is what lets a beacon write neighbor tables only where
/// its hearer set changed. A list is revalidated against the grid's
/// change stamps over the window it was read from, rechecking only the
/// slots that changed, instead of recomputed by a range query and a sort;
/// a recomputed list is diffed against the stored one.
///
/// Storage is one 64-byte [`Entry`] per node, each owning its list's
/// `Vec`: a changed list is copied into the old one's capacity, so a list
/// allocates only when it outgrows every earlier version of itself.
#[derive(Debug, Default)]
pub(super) struct HearerCache {
    /// Indexed by the caller's node slot.
    entries: Vec<Entry>,
    /// The latest scanned or recomputed list.
    scratch: Vec<u32>,
    /// The latest beacon's [`Links`].
    joined: Vec<u32>,
    left: Vec<u32>,
}

impl HearerCache {
    /// The change in the set of nodes that hear a beacon `node` sends from
    /// `pos` — every live node other than `node` within range — since the
    /// node's previous beacon. `slot` is the node's entry, one of `slots`
    /// the caller owns.
    ///
    /// A world small enough to scan reuses the stored list for a beacon
    /// from the stored center while the grid's clock still reads the stored
    /// stamp, and scans again otherwise. That is exact: the grid holds
    /// exactly the live nodes, every insert, update and remove advances its
    /// clock, and a live node's position changes only with its grid entry
    /// (a shard's replica takes both at the barrier). Beyond that size, a
    /// beacon from the stored center asks the grid which slots of the
    /// stored window changed since the stored stamp. If none did, the list
    /// is reused; if some did, [`Entry::recheck`] reads just those,
    /// and the list is reused if it passes, else queried again over the
    /// same window. A new center, or a grid that grew, queries a new
    /// window. On both paths the stored center is what catches a sharded
    /// node whose own move reaches the replica only at the next barrier.
    /// Counts the beacon, its fan-out, its link changes and the cache hit
    /// (and recheck) or miss into `stats`: a reused list is a hit, a scan
    /// or a query a miss.
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
            self.entries.resize(slots, Entry::EMPTY);
        }
        self.joined.clear();
        self.left.clear();
        let e = &self.entries[slot];
        let len = if view.positions.len() <= SMALL_WORLD_SCAN {
            let stamp = view.grid.clock();
            if e.center == pos && e.stamp == stamp {
                stats.hello_cache_hits += 1;
                e.list.len()
            } else {
                stats.hello_cache_misses += 1;
                let r_sq = view.range * view.range;
                self.scratch.clear();
                self.scratch.extend((0..view.positions.len()).filter_map(|i| {
                    (i != node.index()
                        && view.alive[i]
                        && pos.distance_sq_to(view.positions[i]) <= r_sq)
                        .then_some(i as u32)
                }));
                // A scanned list records no window: the grid path rereads it.
                self.store(slot, Entry { center: pos, stamp, ..Entry::EMPTY })
            }
        } else {
            let changed =
                if e.center == pos { view.grid.changed_slots(e.window, e.stamp) } else { None };
            match changed {
                Some(0) => {
                    stats.hello_cache_hits += 1;
                    e.list.len()
                }
                Some(changed) if e.recheck(view, node, changed) => {
                    stats.hello_cache_hits += 1;
                    stats.hello_cache_rechecks += 1;
                    let len = e.list.len();
                    self.entries[slot].stamp = view.grid.clock();
                    len
                }
                _ => {
                    stats.hello_cache_misses += 1;
                    let window = match changed {
                        Some(_) => e.window,
                        None => view.grid.slot_window(pos, view.range),
                    };
                    let counts = self.query(view, node, pos, window);
                    let key = Entry {
                        center: pos,
                        stamp: view.grid.clock(),
                        window,
                        counts,
                        ..Entry::EMPTY
                    };
                    self.store(slot, key)
                }
            }
        };
        stats.hello_beacons += 1;
        stats.hello_fanout_bins[KernelStats::fanout_bin(len)] += 1;
        stats.hello_link_changes += (self.joined.len() + self.left.len()) as u64;
        Links { joined: &self.joined, left: &self.left }
    }

    /// `slot`'s stored hearer list, ascending: empty if the node never
    /// beaconed.
    pub(super) fn list(&self, slot: usize) -> &[u32] {
        self.entries.get(slot).map_or(&[], |e| &e.list)
    }

    /// Collects the hearers of a beacon `node` sends from `pos` — the live
    /// nodes other than `node` within range — from the slots of `window`
    /// into `scratch`, sorted. Returns how many each window slot held.
    ///
    /// The filter has no branch: every candidate is written at the end of
    /// the list, which grows by the range test's outcome, so a hearer's id
    /// stays and the next candidate overwrites a non-hearer's. About a
    /// third of the candidates pass, so a branch on the test would
    /// mispredict often.
    fn query(
        &mut self,
        view: &BeaconView<'_>,
        node: NodeId,
        pos: Point2,
        window: SlotWindow,
    ) -> [u8; 9] {
        let r_sq = view.range * view.range;
        let mut counts = [0u8; 9];
        let mut len = 0;
        for (i, bucket) in view.grid.window_buckets(window, window.mask()) {
            self.scratch.resize(len + bucket.len(), 0);
            let mut hits = 0;
            for &(k, p) in bucket {
                self.scratch[len + hits] = k;
                hits += usize::from((k != node.raw()) & (pos.distance_sq_to(p) <= r_sq));
            }
            counts[i] = u8::try_from(hits).unwrap_or(u8::MAX);
            len += hits;
        }
        self.scratch.truncate(len);
        self.scratch.sort_unstable();
        counts
    }

    /// Diffs `scratch` against `slot`'s stored list into `joined` and
    /// `left`, then stores it, with `key`'s center, stamp, window and
    /// counts. Returns its length.
    fn store(&mut self, slot: usize, key: Entry) -> usize {
        let mut list = std::mem::take(&mut self.entries[slot].list);
        // Most recomputed lists are unchanged: no diff, no copy.
        if list != self.scratch {
            diff_sorted(&list, &self.scratch, &mut self.joined, &mut self.left);
            list.clone_from(&self.scratch);
        }
        let len = list.len();
        self.entries[slot] = Entry { list, ..key };
        len
    }
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

    /// The packed 7-byte window and the nine counts share the entry's last
    /// 16 bytes: 16 + 8 + 24 + 7 + 9. Unpacked, the window would take 8
    /// bytes at alignment 4 and push the entry to 72.
    #[test]
    fn a_cache_entry_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }
}
