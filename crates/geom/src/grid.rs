//! A direct-mapped spatial grid for range queries, with per-slot change
//! stamps that let a caller revalidate a cached query result.

use crate::hash::FxHashMap;
use crate::Point2;

/// log2 of the smallest table's width and of its height: 4×4 slots.
const MIN_SIDE_BITS: u32 = 2;

/// Items per slot, on average, before the table grows.
const MAX_LOAD: usize = 2;

/// A uniform grid over the plane, bucketing items by cell so that
/// within-range queries touch only nearby cells.
///
/// The simulator uses it for radio neighborhood computation: HELLO beacons
/// and routing snapshots ask "who is within range of this point", and the
/// grid keeps that `O(items in range)` for the large arenas.
///
/// Items are identified by a caller-chosen `u32` key (node ids). Positions
/// may be updated in place as nodes move.
///
/// # Layout
///
/// Cells are not hashed: cell `(gx, gy)` lives in slot
/// `(gx & (W-1), gy & (W-1))` of a `W × W` table, `W` a power of two that
/// doubles whenever the items outnumber the slots two to one. Memory is
/// therefore `O(items)` however far apart the points are; cells that alias
/// to one slot share its bucket, and every query still filters candidates
/// by exact distance.
///
/// # Queries and change stamps
///
/// A query's radius must not exceed the cell size: it reads the
/// [`SlotWindow`] of the 3×3 cells around its center. A grid-wide clock
/// advances on every `insert`, `update` and `remove`, and each slot records
/// the clock value of its last change. A caller that keeps a query result,
/// its window and the [`SpatialGrid::clock`] value it was taken at can ask
/// [`SpatialGrid::changed_slots`] which window slots changed since, and
/// read just those with [`SpatialGrid::window_buckets`].
///
/// # Example
///
/// ```rust
/// use imobif_geom::{Point2, SpatialGrid};
///
/// let mut grid = SpatialGrid::new(30.0);
/// grid.insert(0, Point2::new(0.0, 0.0));
/// grid.insert(1, Point2::new(20.0, 0.0));
/// grid.insert(2, Point2::new(70.0, 0.0));
///
/// let mut near = Vec::new();
/// grid.query_range_into(Point2::new(0.0, 0.0), 30.0, &mut near);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
///
/// // A move outside the window around the origin changes none of its slots.
/// let window = grid.slot_window(Point2::new(0.0, 0.0), 30.0);
/// let stamp = grid.clock();
/// grid.update(2, Point2::new(75.0, 0.0));
/// assert_eq!(grid.changed_slots(window, stamp), Some(0));
/// // A move inside it names the one slot it changed, whose bucket now
/// // holds the moved item.
/// grid.update(1, Point2::new(25.0, 0.0));
/// let changed = grid.changed_slots(window, stamp).unwrap();
/// assert_eq!(changed.count_ones(), 1);
/// let (_, bucket) = grid.window_buckets(window, changed).next().unwrap();
/// assert!(bucket.contains(&(1, Point2::new(25.0, 0.0))));
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    /// log2 of the table's side `W`. Slot `(sx, sy)` is
    /// `slots[(sx << side_bits) | sy]`, so a column of a query window is
    /// contiguous.
    side_bits: u32,
    /// Each slot's `(key, position)` pairs: a range query reads positions
    /// straight from the buckets.
    slots: Vec<Vec<(u32, Point2)>>,
    /// Per slot, the clock value of its last change.
    stamps: Vec<u64>,
    /// Advances on every mutation.
    clock: u64,
    /// Each item's slot; its position lives in the slot's bucket only.
    slot_of_key: FxHashMap<u32, u32>,
}

/// Closest distance along one axis from coordinate `c` to cell index `g`
/// (the interval `[g·cell, (g+1)·cell]`); zero when `c` lies inside it.
/// Cell indices saturate at the `i64` limits, so the two extreme cells
/// reach out to infinity.
#[inline]
fn cell_axis_gap(c: f64, g: i64, cell: f64) -> f64 {
    let lo = if g == i64::MIN { f64::NEG_INFINITY } else { g as f64 * cell };
    let hi = if g == i64::MAX { f64::INFINITY } else { g as f64 * cell + cell };
    (lo - c).max(c - hi).max(0.0)
}

/// The slots a range query reads: the center's cell and those of its
/// eight neighbors whose rectangles come within the radius, each once (a
/// table is at least four slots wide, so three neighboring columns never
/// alias). A small `Copy` value to keep beside a cached query result:
/// [`SpatialGrid::changed_slots`] names the window's slots that changed
/// since the result was taken, and [`SpatialGrid::window_buckets`] reads
/// them. A table growth invalidates it.
///
/// The window's slot `i` (`0..9`) is the cell at offset
/// `(i / 3 - 1, i % 3 - 1)` from the center's.
///
/// Packed to 7 bytes, alignment 1, so a cache entry that keeps one beside
/// 4- and 8-byte fields pads no further than their own alignment needs;
/// its fields are only ever read by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct SlotWindow {
    /// The center cell's slot.
    center: u32,
    /// Bit `i` is set when window slot `i` is read.
    mask: u16,
    /// The `side_bits` of the table the window was taken from.
    side_bits: u8,
}

impl SlotWindow {
    /// A window that reads no slot and that no grid revalidates.
    pub const EMPTY: SlotWindow = SlotWindow { center: 0, mask: 0, side_bits: 0 };

    /// The window's slots: bit `i` for window slot `i`.
    #[must_use]
    pub fn mask(self) -> u16 {
        self.mask
    }

    /// The table slot of window slot `i`.
    fn slot(self, i: u32) -> usize {
        let bits = u32::from(self.side_bits);
        let m = (1 << bits) - 1;
        let sx = ((self.center >> bits) + i / 3).wrapping_sub(1) & m;
        let sy = ((self.center & m) + i % 3).wrapping_sub(1) & m;
        ((sx << bits) | sy) as usize
    }
}

/// The set bits of `mask`, lowest first.
fn ones(mut mask: u16) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            i
        })
    })
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell size in meters, which
    /// bounds every query's radius.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not a positive finite number.
    #[must_use]
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size.is_finite() && cell_size > 0.0, "cell_size must be positive and finite");
        let slots = 1 << (2 * MIN_SIDE_BITS);
        SpatialGrid {
            cell_size,
            side_bits: MIN_SIDE_BITS,
            slots: std::iter::repeat_with(Vec::new).take(slots).collect(),
            stamps: vec![0; slots],
            clock: 0,
            slot_of_key: FxHashMap::default(),
        }
    }

    /// The grid's change clock: advanced by every mutation. Record it with
    /// a query result and its [`SlotWindow`], and hand both to
    /// [`SpatialGrid::changed_slots`] to learn which slots to recheck.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    fn cell_of(&self, p: Point2) -> (i64, i64) {
        ((p.x / self.cell_size).floor() as i64, (p.y / self.cell_size).floor() as i64)
    }

    fn slot_of(&self, p: Point2) -> usize {
        let (gx, gy) = self.cell_of(p);
        self.slot_of_cell(gx, gy)
    }

    fn slot_of_cell(&self, gx: i64, gy: i64) -> usize {
        let mask = (1 << self.side_bits) - 1;
        (((gx as u64 & mask) << self.side_bits) | (gy as u64 & mask)) as usize
    }

    /// Records a change to `slot`.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    /// Number of items currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slot_of_key.len()
    }

    /// Returns `true` if no items are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slot_of_key.is_empty()
    }

    /// Inserts an item, or moves it if the key is already present.
    pub fn insert(&mut self, key: u32, position: Point2) {
        let slot = self.slot_of(position);
        let Some(old_slot) = self.slot_of_key.insert(key, slot as u32) else {
            self.slots[slot].push((key, position));
            self.touch(slot);
            if self.slot_of_key.len() > MAX_LOAD * self.slots.len() {
                self.grow();
            }
            return;
        };
        let old_slot = old_slot as usize;
        let bucket = &mut self.slots[old_slot];
        let i = bucket.iter().position(|&(k, _)| k == key).expect("stored item is in its slot");
        if old_slot == slot {
            bucket[i].1 = position;
        } else {
            bucket.swap_remove(i);
            self.slots[slot].push((key, position));
            self.touch(old_slot);
        }
        self.touch(slot);
    }

    /// Updates the position of an existing item; inserts it if absent.
    pub fn update(&mut self, key: u32, position: Point2) {
        self.insert(key, position);
    }

    /// Removes an item, returning its last position if it was present.
    pub fn remove(&mut self, key: u32) -> Option<Point2> {
        let slot = self.slot_of_key.remove(&key)? as usize;
        let bucket = &mut self.slots[slot];
        let i = bucket.iter().position(|&(k, _)| k == key).expect("stored item is in its slot");
        let (_, position) = bucket.swap_remove(i);
        self.touch(slot);
        Some(position)
    }

    /// Doubles the table's width and height and re-buckets every item.
    /// Growing fourfold at a time halves the re-bucketing a large build
    /// does. Every [`SlotWindow`] taken before reads a narrower table, so
    /// [`SpatialGrid::changed_slots`] reports it invalid.
    fn grow(&mut self) {
        self.side_bits += 1;
        let slots = 1 << (2 * self.side_bits);
        let old = std::mem::take(&mut self.slots);
        self.slots = std::iter::repeat_with(Vec::new).take(slots).collect();
        self.stamps = vec![0; slots];
        for (key, p) in old.into_iter().flatten() {
            let slot = self.slot_of(p);
            self.slots[slot].push((key, p));
            *self.slot_of_key.get_mut(&key).expect("stored item has a slot") = slot as u32;
        }
    }

    /// Position of an item, if present.
    #[must_use]
    pub fn position(&self, key: u32) -> Option<Point2> {
        let slot = *self.slot_of_key.get(&key)? as usize;
        self.slots[slot].iter().find(|&&(k, _)| k == key).map(|&(_, p)| p)
    }

    /// Clears `out` and fills it with the keys of all items within
    /// `radius` meters of `center`, inclusive, in unspecified order; a
    /// negative or NaN radius finds none. Hot paths keep one scratch `Vec`
    /// alive across queries, so the steady state allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    pub fn query_range_into(&self, center: Point2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let r_sq = radius * radius;
        let window = self.slot_window(center, radius);
        // `for_each` folds the window's iterator internally, which measured
        // faster than a `for` loop or an `extend` over it.
        self.window_buckets(window, window.mask()).for_each(|(_, bucket)| {
            for &(key, p) in bucket {
                if center.distance_sq_to(p) <= r_sq {
                    out.push(key);
                }
            }
        });
    }

    /// The keys [`SpatialGrid::query_range_into`] finds, as an iterator
    /// that allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    pub fn query_range_iter(&self, center: Point2, radius: f64) -> impl Iterator<Item = u32> + '_ {
        let r_sq = radius * radius;
        let window = self.slot_window(center, radius);
        self.window_buckets(window, window.mask())
            .flat_map(|(_, bucket)| bucket)
            .filter(move |&&(_, p)| center.distance_sq_to(p) <= r_sq)
            .map(|&(k, _)| k)
    }

    /// The slots a range query reads, as a value to keep beside its result:
    /// the center's cell and each neighbor cell whose rectangle comes
    /// within `radius`. A negative or NaN radius reads no slot.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    #[must_use]
    pub fn slot_window(&self, center: Point2, radius: f64) -> SlotWindow {
        assert!(
            radius.is_nan() || radius <= self.cell_size,
            "a slot window's radius must not exceed the cell size"
        );
        let (cx, cy) = self.cell_of(center);
        let (cell, r_sq) = (self.cell_size, radius * radius);
        let mut mask = 0;
        if radius >= 0.0 {
            // Each column's and row's squared gap, once. Cell indices
            // saturate at the i64 limits: no cell lies beyond.
            let gaps_sq = |c: f64, g: i64| {
                [-1, 0, 1].map(|d| g.checked_add(d).map(|g| cell_axis_gap(c, g, cell).powi(2)))
            };
            let rows = gaps_sq(center.y, cy);
            for (i, dx_sq) in gaps_sq(center.x, cx).into_iter().enumerate() {
                for (j, dy_sq) in rows.into_iter().enumerate() {
                    if dx_sq.zip(dy_sq).is_some_and(|(dx_sq, dy_sq)| dx_sq + dy_sq <= r_sq) {
                        mask |= 1 << (3 * i + j);
                    }
                }
            }
        }
        SlotWindow {
            center: self.slot_of_cell(cx, cy) as u32,
            mask,
            side_bits: self.side_bits as u8,
        }
    }

    /// Which of `window`'s slots changed since the grid's
    /// [`SpatialGrid::clock`] read `stamp`, as a mask over window slots:
    /// each slot an `insert`, `update` or `remove` touched since, whether
    /// or not the item lies within any radius. `None` when the table grew
    /// since: that changes every slot and invalidates the window. Costs one
    /// stamp read per window slot, at most 9. `stamp` must come from this
    /// grid's `clock()`.
    #[must_use]
    pub fn changed_slots(&self, window: SlotWindow, stamp: u64) -> Option<u16> {
        if u32::from(window.side_bits) != self.side_bits {
            return None;
        }
        let changed = ones(window.mask).filter(|&i| self.stamps[window.slot(i)] > stamp);
        Some(changed.fold(0, |m, i| m | 1 << i))
    }

    /// The buckets of the window slots `select` names, as `(window slot,
    /// every (key, position) pair in it)`. They are candidates: the caller
    /// filters them by distance, as a query does.
    ///
    /// # Panics
    ///
    /// Panics if the table grew since `window` was taken.
    pub fn window_buckets(
        &self,
        window: SlotWindow,
        select: u16,
    ) -> impl Iterator<Item = (usize, &[(u32, Point2)])> + '_ {
        assert_eq!(u32::from(window.side_bits), self.side_bits, "the window outlived its table");
        ones(window.mask & select).map(move |i| (i as usize, self.slots[window.slot(i)].as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The keys `query_range_into` finds, sorted.
    fn query(g: &SpatialGrid, center: Point2, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        g.query_range_into(center, radius, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        let _ = SpatialGrid::new(0.0);
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = SpatialGrid::new(10.0);
        assert!(g.is_empty());
        g.insert(7, Point2::new(5.0, 5.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point2::new(5.0, 5.0)));
        assert_eq!(query(&g, Point2::new(5.0, 5.0), 0.0), vec![7]);
        assert_eq!(g.remove(7), Some(Point2::new(5.0, 5.0)));
        assert!(g.is_empty());
        assert_eq!(g.remove(7), None);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(1.0, 1.0));
        g.update(1, Point2::new(95.0, 95.0));
        assert!(query(&g, Point2::new(1.0, 1.0), 5.0).is_empty());
        assert_eq!(query(&g, Point2::new(95.0, 95.0), 5.0), vec![1]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn insert_existing_key_updates() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(1.0, 1.0));
        g.insert(1, Point2::new(50.0, 50.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(1), Some(Point2::new(50.0, 50.0)));
    }

    #[test]
    fn query_respects_exact_radius() {
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(0.0, 0.0));
        g.insert(1, Point2::new(30.0, 0.0));
        g.insert(2, Point2::new(30.1, 0.0));
        assert_eq!(query(&g, Point2::new(0.0, 0.0), 30.0), vec![0, 1]);
    }

    #[test]
    fn query_handles_negative_coordinates() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(3, Point2::new(-25.0, -25.0));
        assert_eq!(query(&g, Point2::new(-20.0, -20.0), 10.0), vec![3]);
    }

    #[test]
    fn query_range_into_clears_and_fills_buffer() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(1.0, 1.0));
        g.insert(2, Point2::new(2.0, 2.0));
        let mut buf = vec![99, 98, 97];
        g.query_range_into(Point2::ORIGIN, 5.0, &mut buf);
        buf.sort_unstable();
        assert_eq!(buf, vec![1, 2]);
        // Stale contents are cleared even on the invalid-radius path.
        g.query_range_into(Point2::ORIGIN, -1.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn update_back_and_forth_across_cells_stays_consistent() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(5.0, 5.0));
        for _ in 0..10 {
            g.update(1, Point2::new(15.0, 5.0));
            g.update(1, Point2::new(5.0, 5.0));
        }
        assert_eq!(query(&g, Point2::new(5.0, 5.0), 1.0), vec![1]);
        assert!(query(&g, Point2::new(15.0, 5.0), 1.0).is_empty());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn invalid_radius_returns_empty() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Point2::ORIGIN);
        assert!(query(&g, Point2::ORIGIN, f64::NAN).is_empty());
        assert!(query(&g, Point2::ORIGIN, -1.0).is_empty());
    }

    #[test]
    fn huge_coordinates_do_not_overflow_the_window() {
        // Cell indices saturate at x = 1e300; the window must neither
        // overflow past them nor prune the saturated cell.
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(1e300, 0.0));
        g.insert(1, Point2::new(1e300, 10.0));
        g.insert(2, Point2::new(-1e300, 0.0));
        assert_eq!(query(&g, Point2::new(1e300, 0.0), 30.0), vec![0, 1]);
        assert_eq!(query(&g, Point2::new(-1e300, 5.0), 30.0), vec![2]);
    }

    #[test]
    fn table_memory_is_bounded_by_items_not_extent() {
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(0.0, 0.0));
        g.insert(1, Point2::new(1e12, 1e12));
        assert_eq!(g.slots.len(), 16);
        assert_eq!(query(&g, Point2::new(1e12, 1e12), 30.0), vec![1]);
        assert_eq!(query(&g, Point2::ORIGIN, 30.0), vec![0]);
        // Growth keeps the table within a constant factor of the items.
        for i in 0..1000u32 {
            g.insert(i + 2, Point2::new(f64::from(i) * 1e9, 0.0));
        }
        assert!(g.slots.len() * MAX_LOAD >= g.len());
        assert!(g.slots.len() <= 2 * g.len());
        assert_eq!(g.stamps.len(), g.slots.len());
    }

    #[test]
    fn changed_slots_name_the_touched_window_slots() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Point2::new(5.0, 5.0));
        let c = Point2::new(5.0, 5.0);
        // Every neighbor cell lies 5 m away or more (7.07 m at a corner):
        // a 4 m window is the center's slot alone, a 10 m one all nine.
        let (narrow, wide) = (g.slot_window(c, 4.0), g.slot_window(c, 10.0));
        assert_eq!((narrow.mask(), wide.mask()), (1 << 4, 0x1ff));
        let s = g.clock();
        assert_eq!(g.changed_slots(wide, s), Some(0));
        // A change in the corner cell (-1, -1) beyond the narrow radius is
        // pruned like the query prunes it.
        g.insert(1, Point2::new(-8.0, -8.0));
        assert_eq!(g.changed_slots(narrow, s), Some(0));
        assert_eq!(g.changed_slots(wide, s), Some(1 << 0));
        // A move to the neighbor cell (-1, 0) changes both slots, and the
        // item sits in the second one's bucket.
        g.update(1, Point2::new(-8.0, 5.0));
        assert_eq!(g.changed_slots(wide, s), Some(0b11));
        let buckets: Vec<_> = g.window_buckets(wide, 0b11).collect();
        assert_eq!(buckets, vec![(0, &[][..]), (1, &[(1, Point2::new(-8.0, 5.0))][..])]);
        // A later stamp sees nothing of either.
        assert_eq!(g.changed_slots(wide, g.clock()), Some(0));
        // A growth invalidates the window: 33 items outgrow the 16-slot
        // table.
        let s = g.clock();
        for k in 0..33 {
            g.insert(k, Point2::new(f64::from(k) * 100.0, 0.0));
        }
        assert_eq!(g.changed_slots(wide, s), None);
        // An invalid radius reads no slot, so nothing can change it.
        let nan = g.slot_window(Point2::ORIGIN, f64::NAN);
        assert_eq!(nan.mask(), 0);
        assert_eq!(g.changed_slots(nan, g.clock()), Some(0));
        assert_eq!(g.changed_slots(SlotWindow::EMPTY, g.clock()), None);
    }

    #[test]
    fn slot_windows_at_the_saturated_cells_find_their_items() {
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(1e300, 0.0));
        g.insert(1, Point2::new(-1e300, 0.0));
        // The extreme cells reach out to infinity and no column lies
        // beyond them: the window is their column alone, the next one in
        // being far out of range.
        for (center, key) in [(Point2::new(1e300, 5.0), 0), (Point2::new(-1e300, 5.0), 1)] {
            let w = g.slot_window(center, 30.0);
            assert_eq!(w.mask().count_ones(), 3);
            let found: Vec<u32> = g
                .window_buckets(w, w.mask())
                .flat_map(|(_, b)| b)
                .filter(|&&(_, p)| center.distance_sq_to(p) <= 900.0)
                .map(|&(k, _)| k)
                .collect();
            assert_eq!(found, vec![key]);
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed the cell size")]
    fn slot_window_wider_than_a_cell_panics() {
        let _ = SpatialGrid::new(10.0).slot_window(Point2::ORIGIN, 10.5);
    }

    #[test]
    #[should_panic(expected = "must not exceed the cell size")]
    fn query_range_into_wider_than_a_cell_panics() {
        SpatialGrid::new(10.0).query_range_into(Point2::ORIGIN, 10.5, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "must not exceed the cell size")]
    fn query_range_iter_wider_than_a_cell_panics() {
        let _ = SpatialGrid::new(10.0).query_range_iter(Point2::ORIGIN, 10.5);
    }

    proptest! {
        /// The grid query must agree exactly with the brute-force scan, at
        /// every radius up to the cell size: a sampled one, 0 and exactly
        /// the cell size. Half the queries are centered on an item, which
        /// a radius-0 query must find.
        #[test]
        fn prop_query_matches_brute_force(
            items in proptest::collection::vec((0u32..64, -200.0..200.0f64, -200.0..200.0f64), 0..64),
            qx in -200.0..200.0f64,
            qy in -200.0..200.0f64,
            on_item in 0u8..2,
            radius in 0.0..=17.0f64,
        ) {
            let mut g = SpatialGrid::new(17.0);
            let mut truth: std::collections::HashMap<u32, Point2> = Default::default();
            for &(k, x, y) in &items {
                let p = Point2::new(x, y);
                g.insert(k, p);
                truth.insert(k, p);
            }
            let center = match items.last() {
                Some(&(k, _, _)) if on_item == 1 => truth[&k],
                _ => Point2::new(qx, qy),
            };
            for radius in [radius, 0.0, 17.0] {
                let got = query(&g, center, radius);
                let mut iterated: Vec<u32> = g.query_range_iter(center, radius).collect();
                iterated.sort_unstable();
                prop_assert_eq!(&iterated, &got);
                let mut want: Vec<u32> = truth
                    .iter()
                    .filter(|(_, p)| center.distance_to(**p) <= radius)
                    .map(|(&k, _)| k)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }

        /// A cached query result revalidated by the changed-slot rule is
        /// always as good as a fresh query. The rule: when the result's
        /// window slots that changed since its stamp hold, within the
        /// radius, only items already in the result, and each as many as
        /// it did, the result is still exact; otherwise it is read again
        /// from the same window. The sequences mix inserts, sub-cell moves
        /// (under 1 m), moves between the slots of one query window and
        /// removals, with positions that alias to one slot (offsets in
        /// whole table widths) and growth mid-sequence (up to 400 live keys
        /// against a 16-slot table, which grows past 32 items and again
        /// past 128). After every step `changed_slots` must name exactly
        /// the window slots the steps since the stamp touched, or report
        /// invalidation after a growth.
        #[test]
        fn prop_cached_query_matches_fresh(
            ops in proptest::collection::vec(
                (0u8..10, 0u32..400, -3i64..3, -3i64..3, 0.0..10.0f64, 0i64..3),
                1..400,
            ),
            queries in proptest::collection::vec(
                (-3i64..3, -3i64..3, 0.0..10.0f64, 0u8..2),
                1..6,
            ),
        ) {
            const CELL: f64 = 10.0;
            // Aliasing offset: a multiple of every table width the
            // sequence can reach, so `far` shifts a point onto the same
            // slot as its near twin.
            const PERIOD: f64 = CELL * 1024.0;

            /// A kept result: its window, stamp, sorted keys, per-slot
            /// counts, the table slots changed since, and whether a growth
            /// has happened since.
            struct Kept {
                window: SlotWindow,
                stamp: u64,
                list: Vec<u32>,
                counts: [usize; 9],
                touched: Vec<usize>,
                invalid: bool,
            }
            /// The in-range keys of `window` (sorted) and their per-slot
            /// counts.
            fn read(g: &SpatialGrid, (c, r): (Point2, f64), window: SlotWindow) -> Kept {
                let (mut list, mut counts) = (Vec::new(), [0; 9]);
                for (i, bucket) in g.window_buckets(window, window.mask()) {
                    for &(k, p) in bucket {
                        if c.distance_sq_to(p) <= r * r {
                            list.push(k);
                            counts[i] += 1;
                        }
                    }
                }
                list.sort_unstable();
                Kept { window, stamp: g.clock(), list, counts, touched: Vec::new(), invalid: false }
            }

            let mut g = SpatialGrid::new(CELL);
            let mut truth: std::collections::HashMap<u32, Point2> = Default::default();
            let point = |cx: i64, cy: i64, jitter: f64, far: i64| {
                Point2::new(
                    cx as f64 * CELL + jitter + far as f64 * PERIOD,
                    cy as f64 * CELL + (10.0 - jitter),
                )
            };
            let queries: Vec<(Point2, f64)> = queries
                .into_iter()
                .map(|(cx, cy, jitter, kind)| {
                    (point(cx, cy, jitter, 0), if kind == 0 { jitter } else { CELL })
                })
                .collect();
            let mut kept: Vec<Kept> =
                queries.iter().map(|&q| read(&g, q, g.slot_window(q.0, q.1))).collect();
            for (op, key, cx, cy, jitter, far) in ops {
                let to = match op {
                    0..=4 => Some(point(cx, cy, jitter, far)),
                    5 | 6 => truth.get(&key).map(|p| {
                        Point2::new(p.x + jitter / 10.0 - 0.5, p.y + cy as f64 / 6.0)
                    }),
                    7 => {
                        // Somewhere in the window of one query: the few
                        // keys this moves hop between its slots.
                        let (c, _) = queries[key as usize % queries.len()];
                        Some(Point2::new(c.x + (jitter - 5.0) * 1.9, c.y + cy as f64 * 3.1))
                    }
                    _ => None,
                };
                let key = if op == 7 { key % 8 } else { key };
                let (bits, was) = (g.side_bits, g.slot_of_key.get(&key).map(|&s| s as usize));
                let mut touched: Vec<usize> = was.into_iter().collect();
                match to {
                    Some(p) => {
                        touched.push(g.slot_of(p));
                        if op <= 4 {
                            g.insert(key, p);
                        } else {
                            g.update(key, p);
                        }
                        truth.insert(key, p);
                    }
                    None => prop_assert_eq!(g.remove(key), truth.remove(&key)),
                }
                prop_assert_eq!(g.len(), truth.len());
                let grew = g.side_bits != bits;
                for (&q, k) in queries.iter().zip(&mut kept) {
                    k.touched.extend(&touched);
                    k.invalid |= grew;
                    let fresh = query(&g, q.0, q.1);
                    let Some(changed) = g.changed_slots(k.window, k.stamp) else {
                        prop_assert!(k.invalid);
                        *k = read(&g, q, g.slot_window(q.0, q.1));
                        prop_assert_eq!(&k.list, &fresh);
                        continue;
                    };
                    prop_assert!(!k.invalid);
                    let want = ones(k.window.mask)
                        .filter(|&i| k.touched.contains(&k.window.slot(i)))
                        .fold(0, |m, i| m | 1 << i);
                    prop_assert_eq!(changed, want);
                    let exact = g.window_buckets(k.window, changed).all(|(i, bucket)| {
                        let mut n = 0;
                        bucket.iter().filter(|&&(_, p)| q.0.distance_sq_to(p) <= q.1 * q.1).all(
                            |&(key, _)| {
                                n += 1;
                                k.list.binary_search(&key).is_ok()
                            },
                        ) && n == k.counts[i]
                    });
                    if exact {
                        prop_assert_eq!(&k.list, &fresh);
                        k.stamp = g.clock();
                        k.touched.clear();
                    } else {
                        *k = read(&g, q, k.window);
                        prop_assert_eq!(&k.list, &fresh);
                    }
                    let mut want: Vec<u32> = truth
                        .iter()
                        .filter(|(_, p)| q.0.distance_sq_to(**p) <= q.1 * q.1)
                        .map(|(&k, _)| k)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(&k.list, &want);
                }
            }
        }
    }
}
