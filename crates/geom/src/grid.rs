//! A direct-mapped spatial grid for range queries, which tells a caller
//! that keeps results which of them an item's move changed.

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
/// # Queries and moves
///
/// A query's radius must not exceed the cell size: it reads the buckets of
/// the 3×3 cells around its center ([`SpatialGrid::range_buckets`]). A
/// caller that keeps query results can learn which of them an item's move
/// changed: [`SpatialGrid::for_each_flip`] names the items within range of
/// exactly one of the item's old and new positions.
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
/// // Item 2 steps from (70, 0) to (45, 0): it comes within 30 m of item 1
/// // alone, and stays out of item 0's range.
/// let from = grid.update(2, Point2::new(45.0, 0.0));
/// assert_eq!(from, Some(Point2::new(70.0, 0.0)));
/// let mut flipped = Vec::new();
/// grid.for_each_flip(from.unwrap(), Some(Point2::new(45.0, 0.0)), 30.0, |k| flipped.push(k));
/// assert_eq!(flipped, vec![1]);
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
/// alias). Window slot `i` (`0..9`) is the cell at offset
/// `(i / 3 - 1, i % 3 - 1)` from the center's.
#[derive(Debug, Clone, Copy)]
struct SlotWindow {
    /// The center cell's slot.
    center: u32,
    /// Bit `i` is set when window slot `i` is read.
    mask: u16,
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
        SpatialGrid {
            cell_size,
            side_bits: MIN_SIDE_BITS,
            slots: std::iter::repeat_with(Vec::new).take(1 << (2 * MIN_SIDE_BITS)).collect(),
            slot_of_key: FxHashMap::default(),
        }
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

    /// Inserts an item, or moves it if the key is already present, and
    /// returns its previous position.
    pub fn insert(&mut self, key: u32, position: Point2) -> Option<Point2> {
        let slot = self.slot_of(position);
        let Some(old_slot) = self.slot_of_key.insert(key, slot as u32) else {
            self.slots[slot].push((key, position));
            if self.slot_of_key.len() > MAX_LOAD * self.slots.len() {
                self.grow();
            }
            return None;
        };
        let old_slot = old_slot as usize;
        let bucket = &mut self.slots[old_slot];
        let i = bucket.iter().position(|&(k, _)| k == key).expect("stored item is in its slot");
        if old_slot == slot {
            Some(std::mem::replace(&mut bucket[i].1, position))
        } else {
            let (_, from) = bucket.swap_remove(i);
            self.slots[slot].push((key, position));
            Some(from)
        }
    }

    /// Updates the position of an existing item, or inserts it if absent,
    /// and returns its previous position.
    pub fn update(&mut self, key: u32, position: Point2) -> Option<Point2> {
        self.insert(key, position)
    }

    /// Removes an item, returning its last position if it was present.
    pub fn remove(&mut self, key: u32) -> Option<Point2> {
        let slot = self.slot_of_key.remove(&key)? as usize;
        let bucket = &mut self.slots[slot];
        let i = bucket.iter().position(|&(k, _)| k == key).expect("stored item is in its slot");
        Some(bucket.swap_remove(i).1)
    }

    /// Doubles the table's width and height and re-buckets every item.
    /// Growing fourfold at a time halves the re-bucketing a large build
    /// does.
    fn grow(&mut self) {
        self.side_bits += 1;
        let slots = 1 << (2 * self.side_bits);
        let old = std::mem::take(&mut self.slots);
        self.slots = std::iter::repeat_with(Vec::new).take(slots).collect();
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
        // `for_each` folds the window's iterator internally, which measured
        // faster than a `for` loop or an `extend` over it.
        self.range_buckets(center, radius).for_each(|bucket| {
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
        self.range_buckets(center, radius)
            .flatten()
            .filter(move |&&(_, p)| center.distance_sq_to(p) <= r_sq)
            .map(|&(k, _)| k)
    }

    /// Calls `f` with the key of every item within `radius` of exactly one
    /// of `a` and `b`, each once, in unspecified order; with `b` `None`,
    /// of every item within `radius` of `a`. These are the items whose
    /// range queries at their own positions an item stepping from `a` to
    /// `b` (or leaving from `a`) enters or leaves: each test is the one
    /// such a query makes, since `distance_sq_to` is symmetric bit for
    /// bit. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    pub fn for_each_flip(&self, a: Point2, b: Option<Point2>, radius: f64, mut f: impl FnMut(u32)) {
        let r_sq = radius * radius;
        let near = |c: Point2, p: Point2| c.distance_sq_to(p) <= r_sq;
        let mut side = |c: Point2, other: Option<Point2>| {
            for &(key, p) in self.range_buckets(c, radius).flatten() {
                if near(c, p) && !other.is_some_and(|o| near(o, p)) {
                    f(key);
                }
            }
        };
        side(a, b);
        if let Some(b) = b {
            side(b, Some(a));
        }
    }

    /// The buckets a query of `radius` around `center` reads: the center's
    /// cell and each neighbor cell whose rectangle comes within `radius`,
    /// each once. Their items are candidates that the caller filters by
    /// distance, as a query does. A negative or NaN radius reads none.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    pub fn range_buckets(
        &self,
        center: Point2,
        radius: f64,
    ) -> impl Iterator<Item = &[(u32, Point2)]> + '_ {
        let window = self.slot_window(center, radius);
        ones(window.mask).map(move |i| self.slots[self.window_slot(window, i)].as_slice())
    }

    /// The table slot of `window`'s slot `i`.
    fn window_slot(&self, window: SlotWindow, i: u32) -> usize {
        let bits = self.side_bits;
        let m = (1 << bits) - 1;
        let sx = ((window.center >> bits) + i / 3).wrapping_sub(1) & m;
        let sy = ((window.center & m) + i % 3).wrapping_sub(1) & m;
        ((sx << bits) | sy) as usize
    }

    /// The [`SlotWindow`] a query of `radius` around `center` reads.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    fn slot_window(&self, center: Point2, radius: f64) -> SlotWindow {
        assert!(
            radius.is_nan() || radius <= self.cell_size,
            "a query's radius must not exceed the cell size"
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
        SlotWindow { center: self.slot_of_cell(cx, cy) as u32, mask }
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
    }

    #[test]
    fn moves_and_removals_return_the_old_position() {
        let mut g = SpatialGrid::new(10.0);
        assert_eq!(g.insert(1, Point2::new(1.0, 1.0)), None);
        assert_eq!(g.update(1, Point2::new(2.0, 1.0)), Some(Point2::new(1.0, 1.0)));
        assert_eq!(g.update(1, Point2::new(25.0, 1.0)), Some(Point2::new(2.0, 1.0)));
        assert_eq!(g.remove(2), None);
        assert_eq!(g.remove(1), Some(Point2::new(25.0, 1.0)));
        assert_eq!(g.len(), 0);
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
            assert_eq!(g.slot_window(center, 30.0).mask.count_ones(), 3);
            let found: Vec<u32> = g
                .range_buckets(center, 30.0)
                .flatten()
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

        /// The flip enumeration names exactly the items within range of
        /// one of its two points and not the other, each once; with no
        /// second point, exactly the items within range of the first.
        /// Items and points cluster in a few cells, so many items lie near
        /// both points, and half the items sit a whole table width away
        /// (`far`), so their cells alias onto the points' slots. Up to 300
        /// keys against a 16-slot table grow it twice. Half the second
        /// points are a sub-meter step from the first, a relay's pace.
        #[test]
        fn prop_flips_match_brute_force(
            items in proptest::collection::vec(
                (0u32..300, -2i64..2, -2i64..2, 0.0..10.0f64, 0.0..10.0f64, 0u8..2),
                0..300,
            ),
            a in (-15.0..15.0f64, -15.0..15.0f64),
            b in (-15.0..15.0f64, -15.0..15.0f64, 0u8..3),
            radius in 0.0..=10.0f64,
        ) {
            const CELL: f64 = 10.0;
            // A multiple of every table width the items can reach.
            const PERIOD: f64 = CELL * 1024.0;
            let mut g = SpatialGrid::new(CELL);
            let mut truth: std::collections::HashMap<u32, Point2> = Default::default();
            for &(k, cx, cy, x, y, far) in &items {
                let p = Point2::new(
                    cx as f64 * CELL + x + f64::from(far) * PERIOD,
                    cy as f64 * CELL + y,
                );
                g.insert(k, p);
                truth.insert(k, p);
            }
            let a = Point2::new(a.0, a.1);
            let b = match b.2 {
                0 => None,
                1 => Some(Point2::new(b.0, b.1)),
                _ => Some(Point2::new(a.x + b.0 / 15.0, a.y + b.1 / 15.0)),
            };
            let mut got = Vec::new();
            g.for_each_flip(a, b, radius, |k| got.push(k));
            got.sort_unstable();
            let near = |c: Point2, p: Point2| c.distance_sq_to(p) <= radius * radius;
            let mut want: Vec<u32> = truth
                .iter()
                .filter(|&(_, &p)| near(a, p) != b.is_some_and(|b| near(b, p)))
                .map(|(&k, _)| k)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(&got, &want);
            // No point flips against itself.
            got.clear();
            g.for_each_flip(a, Some(a), radius, |k| got.push(k));
            prop_assert!(got.is_empty());
        }
    }
}
