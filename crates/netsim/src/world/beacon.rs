//! Who hears a HELLO beacon: [`HearerCache::hearers`], the one hearer
//! search both engines' beacon handler calls (see
//! [`engine`](super::engine)), over whatever [`BeaconView`] the engine's
//! `Reach` exposes — the serial world's live columns and grid, or a
//! shard's epoch replica.

use imobif_geom::{Point2, SpatialGrid};

use super::observe::KernelStats;
use crate::NodeId;

/// Below this many nodes, HELLO neighbor discovery scans the node array
/// instead of using the spatial grid and the hearer cache: the pinned-path
/// experiment worlds carry only the flow's relays, a dozen distance checks.
pub(super) const SMALL_WORLD_SCAN: usize = 32;

/// What a beacon's hearer search reads of the other nodes: position and
/// liveness columns indexed by global node id, a grid holding exactly the
/// live nodes, and the radio range.
pub(crate) struct BeaconView<'a> {
    pub(super) positions: &'a [Point2],
    pub(super) alive: &'a [bool],
    pub(super) grid: &'a SpatialGrid,
    pub(super) range: f64,
}

/// One node's cached hearer list, `pool[offset..offset + len]` inside a
/// reserved run of `cap` words. It is exact for a beacon from `center`
/// while the grid window around `center` is unchanged since `stamp`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    center: Point2,
    stamp: u64,
    offset: u32,
    len: u16,
    cap: u16,
}

impl Entry {
    /// Holds no list: a NaN center equals no beacon position.
    const EMPTY: Entry =
        Entry { center: Point2::new(f64::NAN, f64::NAN), stamp: 0, offset: 0, len: 0, cap: 0 };
}

/// Every node's HELLO hearer list, kept between beacons and revalidated in
/// `O(window slots)` against the grid's change stamps instead of
/// recomputed by a range query, a filter and a sort.
///
/// Storage is one flat 32-byte [`Entry`] per node plus a single `u32` pool
/// holding every list, so the cache costs about `32 + 4 × fan-out` bytes a
/// node. A list that outgrows its run moves to the end of the pool (with a
/// quarter of headroom); the run it left is garbage until the pool is full
/// and at least half garbage, when every list is dropped and refills on
/// its node's next beacon — no allocation. A list longer than `u16::MAX`
/// is never cached.
#[derive(Debug, Default)]
pub(super) struct HearerCache {
    /// Indexed by the caller's node slot.
    entries: Vec<Entry>,
    pool: Vec<u32>,
    /// Pool words no entry reserves any more.
    garbage: usize,
    /// The latest scanned or recomputed list.
    scratch: Vec<u32>,
}

impl HearerCache {
    /// Drops every list, keeping the allocations.
    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.pool.clear();
        self.garbage = 0;
        self.scratch.clear();
    }

    /// The nodes that hear a beacon `node` sends from `pos`: every live
    /// node other than `node` within range, ascending by id. `slot` is the
    /// node's cache entry, one of `slots` the caller owns.
    ///
    /// The list is cached unless the world is small enough to scan, and is
    /// reused while the beacon position matches the cached one and
    /// [`SpatialGrid::window_unchanged_since`] holds. The stored position
    /// is what catches a sharded node whose own move reaches the replica
    /// grid only at the next barrier. Counts the beacon, its fan-out and
    /// the cache hit or miss into `stats`.
    pub(super) fn hearers(
        &mut self,
        view: &BeaconView<'_>,
        stats: &mut KernelStats,
        node: NodeId,
        slot: usize,
        slots: usize,
        pos: Point2,
    ) -> &[u32] {
        let list: &[u32] = if view.positions.len() <= SMALL_WORLD_SCAN {
            let r_sq = view.range * view.range;
            self.scratch.clear();
            self.scratch.extend((0..view.positions.len()).filter_map(|i| {
                (i != node.index()
                    && view.alive[i]
                    && pos.distance_sq_to(view.positions[i]) <= r_sq)
                    .then_some(i as u32)
            }));
            &self.scratch
        } else {
            if self.entries.len() < slots {
                self.entries.resize(slots, Entry::EMPTY);
            }
            let e = self.entries[slot];
            if e.center == pos && view.grid.window_unchanged_since(pos, view.range, e.stamp) {
                stats.hello_cache_hits += 1;
                &self.pool[e.offset as usize..][..usize::from(e.len)]
            } else {
                stats.hello_cache_misses += 1;
                self.refill(view, node, slot, pos);
                &self.scratch
            }
        };
        stats.hello_beacons += 1;
        stats.hello_fanout_bins[KernelStats::fanout_bin(list.len())] += 1;
        list
    }

    /// Recomputes `node`'s list into `scratch` and stores it in its entry.
    fn refill(&mut self, view: &BeaconView<'_>, node: NodeId, slot: usize, pos: Point2) {
        view.grid.query_range_into(pos, view.range, &mut self.scratch);
        self.scratch.retain(|&k| k != node.raw());
        self.scratch.sort_unstable();
        let Ok(len) = u16::try_from(self.scratch.len()) else {
            self.entries[slot] = Entry::EMPTY;
            return;
        };
        let mut e = self.entries[slot];
        if len > e.cap {
            self.garbage += usize::from(e.cap);
            // A list that grew once tends to keep changing; give it room.
            let cap = if e.cap == 0 { len } else { len.saturating_add(len / 4 + 1) };
            self.make_room(usize::from(cap));
            e.offset = self.pool.len() as u32;
            e.cap = cap;
            self.pool.resize(self.pool.len() + usize::from(cap), 0);
        }
        self.pool[e.offset as usize..][..usize::from(len)].copy_from_slice(&self.scratch);
        self.entries[slot] = Entry { center: pos, stamp: view.grid.clock(), len, ..e };
    }

    /// Ensures the pool has room for `need` more words: by dropping every
    /// list when the pool is full and at least half garbage, else by
    /// growing it by an eighth (not doubling: the pool is most of the
    /// cache's memory).
    fn make_room(&mut self, need: usize) {
        if self.pool.len() + need <= self.pool.capacity() {
            return;
        }
        if self.garbage * 2 >= self.pool.len() {
            self.entries.fill(Entry::EMPTY);
            self.pool.clear();
            self.garbage = 0;
        }
        if self.pool.len() + need > self.pool.capacity() {
            self.pool.reserve_exact(need.max(self.pool.len() / 8));
        }
    }
}
