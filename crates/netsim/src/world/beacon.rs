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

/// Pool words before every list: its owner's slot and its capacity.
const HEADER: usize = 2;

/// One node's latest hearer list, `pool[offset..offset + len]`, inside a
/// run of the pool that starts with a [`HEADER`]. `offset` 0 means no run.
/// The list was read at grid clock `stamp` for a beacon from `center`; a
/// grid-path list from the slots of `window`, `counts[i]` of its members
/// from window slot `i` (saturating at `u8::MAX`), a scanned one from no
/// window.
#[derive(Debug, Clone, Copy)]
struct Entry {
    center: Point2,
    stamp: u64,
    offset: u32,
    len: u32,
    window: SlotWindow,
    counts: [u8; 9],
}

impl Entry {
    /// Holds no list and revalidates none: a NaN center equals no beacon
    /// position.
    const EMPTY: Entry = Entry {
        center: Point2::new(f64::NAN, f64::NAN),
        stamp: 0,
        offset: 0,
        len: 0,
        window: SlotWindow::EMPTY,
        counts: [0; 9],
    };
}

/// Every node's latest HELLO hearer list: the authoritative record of who
/// hears it, which is what lets a beacon write neighbor tables only where
/// its hearer set changed. A list is revalidated against the grid's
/// change stamps over the window it was read from, rechecking only the
/// slots that changed, instead of recomputed by a range query and a sort;
/// a recomputed list is diffed against the stored one.
///
/// Storage is one flat 48-byte [`Entry`] per node plus a single `u32` pool
/// holding every list behind a two-word header, so the cache costs about
/// `56 + 4 × fan-out` bytes a node. A list that outgrows its run moves to
/// the end of the pool (with a quarter of headroom); the run it left is
/// garbage until the pool is full and at least half garbage, when the
/// live runs are compacted in place — no list is ever dropped, and no
/// allocation is made.
#[derive(Debug, Default)]
pub(super) struct HearerCache {
    /// Indexed by the caller's node slot.
    entries: Vec<Entry>,
    pool: Vec<u32>,
    /// Pool words no entry owns any more.
    garbage: usize,
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
    /// is reused; if some did, [`HearerCache::recheck`] reads just those,
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
        let e = self.entries[slot];
        let len = if view.positions.len() <= SMALL_WORLD_SCAN {
            let stamp = view.grid.clock();
            if e.center == pos && e.stamp == stamp {
                stats.hello_cache_hits += 1;
                e.len as usize
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
                    e.len as usize
                }
                Some(changed) if self.recheck(view, node, &e, changed) => {
                    stats.hello_cache_hits += 1;
                    stats.hello_cache_rechecks += 1;
                    self.entries[slot].stamp = view.grid.clock();
                    e.len as usize
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

    /// Whether `e`'s list is still exact for a beacon from its center,
    /// given that only the window slots in `changed` changed since its
    /// stamp: each changed slot must hold, within range, only list members
    /// other than `node`, and exactly as many as it did. The unchanged
    /// slots hold the same items, and an item lives in one slot, so the
    /// hearer set is then a subset of the list of the same size: the list.
    fn recheck(&self, view: &BeaconView<'_>, node: NodeId, e: &Entry, changed: u16) -> bool {
        let list = &self.pool[e.offset as usize..][..e.len as usize];
        let r_sq = view.range * view.range;
        view.grid.window_buckets(e.window, changed).all(|(i, bucket)| {
            let mut n = 0;
            let members = bucket
                .iter()
                .filter(|&&(k, p)| k != node.raw() && e.center.distance_sq_to(p) <= r_sq)
                .all(|&(k, _)| {
                    n += 1;
                    list.binary_search(&k).is_ok()
                });
            members && n == usize::from(e.counts[i]) && e.counts[i] < u8::MAX
        })
    }

    /// Collects the hearers of a beacon `node` sends from `pos` — the live
    /// nodes other than `node` within range — from the slots of `window`
    /// into `scratch`, sorted. Returns how many each window slot held.
    fn query(
        &mut self,
        view: &BeaconView<'_>,
        node: NodeId,
        pos: Point2,
        window: SlotWindow,
    ) -> [u8; 9] {
        let r_sq = view.range * view.range;
        let mut counts = [0u8; 9];
        self.scratch.clear();
        for (i, bucket) in view.grid.window_buckets(window, window.mask()) {
            for &(k, p) in bucket {
                if k != node.raw() && pos.distance_sq_to(p) <= r_sq {
                    self.scratch.push(k);
                    counts[i] = counts[i].saturating_add(1);
                }
            }
        }
        self.scratch.sort_unstable();
        counts
    }

    /// Diffs `scratch` against `slot`'s stored list into `joined` and
    /// `left`, then stores it, with `key`'s center, stamp, window and
    /// counts. Returns its length.
    fn store(&mut self, slot: usize, key: Entry) -> usize {
        let e = self.entries[slot];
        let old = &self.pool[e.offset as usize..][..e.len as usize];
        let len = self.scratch.len();
        let mut offset = e.offset as usize;
        // Most recomputed lists are unchanged: no diff, no copy.
        if old != self.scratch {
            diff_sorted(old, &self.scratch, &mut self.joined, &mut self.left);
            let cap = if offset == 0 { 0 } else { self.pool[offset - 1] as usize };
            if len > cap {
                // Give up the run first, so a compaction reclaims it.
                self.entries[slot] = Entry::EMPTY;
                if offset != 0 {
                    self.garbage += HEADER + cap;
                }
                // A list that grew once tends to keep changing; give it room.
                let cap = if cap == 0 { len } else { len + len / 4 + 1 };
                self.make_room(HEADER + cap);
                offset = self.pool.len() + HEADER;
                assert!(offset + cap <= u32::MAX as usize, "hearer pool outgrew u32 offsets");
                self.pool.extend_from_slice(&[slot as u32, cap as u32]);
                self.pool.resize(offset + cap, 0);
            }
            self.pool[offset..][..len].copy_from_slice(&self.scratch);
        }
        self.entries[slot] = Entry { offset: offset as u32, len: len as u32, ..key };
        len
    }

    /// Ensures the pool has room for `need` more words: by compacting it
    /// when it is full and at least half garbage, else by growing it by an
    /// eighth (not doubling: the pool is most of the cache's memory).
    fn make_room(&mut self, need: usize) {
        if self.pool.len() + need <= self.pool.capacity() {
            return;
        }
        if self.garbage * 2 >= self.pool.len() {
            self.compact();
        }
        if self.pool.len() + need > self.pool.capacity() {
            self.pool.reserve_exact(need.max(self.pool.len() / 8));
        }
    }

    /// Slides every owned run down over the garbage, in pool order. A run
    /// is owned when its header's slot still points at it.
    fn compact(&mut self) {
        let (mut read, mut write) = (0, 0);
        while read < self.pool.len() {
            let (owner, cap) = (self.pool[read] as usize, self.pool[read + 1] as usize);
            let run = HEADER + cap;
            if self.entries[owner].offset as usize == read + HEADER {
                self.pool.copy_within(read..read + run, write);
                self.entries[owner].offset = (write + HEADER) as u32;
                write += run;
            }
            read += run;
        }
        self.pool.truncate(write);
        self.garbage = 0;
    }
}

#[cfg(test)]
impl HearerCache {
    /// Pool words in use: shrinks only when [`HearerCache::compact`] runs.
    pub(super) fn pool_len(&self) -> usize {
        self.pool.len()
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

    /// The packed 7-byte window leaves the nine counts room inside the
    /// entry's 8-byte alignment: 16 + 8 + 4 + 4 + 7 + 9 bytes.
    #[test]
    fn a_cache_entry_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }
}
