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
/// by exact distance. A query window as wide as the table folds, so each
/// slot is read once.
///
/// # Change stamps
///
/// A grid-wide clock advances on every `insert`, `update`, `remove`,
/// `clear` and table growth, and each slot records the clock value of its
/// last change. A caller that kept the result of a query together with the
/// [`SpatialGrid::clock`] value it was taken at can ask
/// [`SpatialGrid::window_unchanged_since`] whether any slot the query reads
/// has changed since; if none has, the kept result is still exact.
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
/// let mut near = grid.query_range(Point2::new(0.0, 0.0), 30.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
///
/// // A move outside the window around the origin leaves it unchanged.
/// let stamp = grid.clock();
/// grid.update(2, Point2::new(75.0, 0.0));
/// assert!(grid.window_unchanged_since(Point2::new(0.0, 0.0), 30.0, stamp));
/// grid.update(1, Point2::new(25.0, 0.0));
/// assert!(!grid.window_unchanged_since(Point2::new(0.0, 0.0), 30.0, stamp));
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
    /// Clock value of the last `clear` or table growth, which changed
    /// every slot at once.
    floor: u64,
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

/// The cells a query window covers along one axis.
#[derive(Debug, Clone, Copy)]
struct Axis {
    lo: i64,
    hi: i64,
    /// The window is at least as wide as the table: `lo..=hi` are then the
    /// table's own columns (or rows), each read once, with no pruning.
    folded: bool,
}

impl Axis {
    fn new(center_cell: i64, span: i64, bits: u32) -> Axis {
        let dim = 1i64 << bits;
        if span.saturating_mul(2) >= dim - 1 {
            Axis { lo: 0, hi: dim - 1, folded: true }
        } else {
            Axis {
                lo: center_cell.saturating_sub(span),
                hi: center_cell.saturating_add(span),
                folded: false,
            }
        }
    }

    #[inline]
    fn gap(self, c: f64, g: i64, cell: f64) -> f64 {
        if self.folded {
            0.0
        } else {
            cell_axis_gap(c, g, cell)
        }
    }
}

/// The slots one range query reads: every cell whose rectangle comes within
/// the radius, mapped onto the table. Cells entirely outside the radius are
/// pruned before any slot is touched; for the common radius ≈ cell-size
/// query that skips most corner cells.
#[derive(Debug, Clone, Copy)]
struct Window {
    center: Point2,
    r_sq: f64,
    cell: f64,
    xs: Axis,
    ys: Axis,
    mask: u64,
    side_bits: u32,
}

impl Window {
    /// The window's slots, each once.
    fn slots(self) -> impl Iterator<Item = usize> {
        let Window { center, r_sq, cell, xs, ys, mask, side_bits } = self;
        (xs.lo..=xs.hi)
            .filter_map(move |gx| {
                let dx = xs.gap(center.x, gx, cell);
                let column = ((gx as u64 & mask) << side_bits) as usize;
                (dx * dx <= r_sq).then_some((column, dx * dx))
            })
            .flat_map(move |(column, dx_sq)| {
                (ys.lo..=ys.hi).filter_map(move |gy| {
                    let dy = ys.gap(center.y, gy, cell);
                    (dx_sq + dy * dy <= r_sq).then_some(column | (gy as u64 & mask) as usize)
                })
            })
    }
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell size in meters.
    ///
    /// A cell size close to the typical query radius is the sweet spot: a
    /// radius-`r` query then touches at most 9 cells.
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
            floor: 0,
            slot_of_key: FxHashMap::default(),
        }
    }

    /// The configured cell size in meters.
    #[must_use]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The grid's change clock: advanced by every mutation. Record it with
    /// a query result and hand it back to
    /// [`SpatialGrid::window_unchanged_since`] to revalidate that result.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    fn cell_of(&self, p: Point2) -> (i64, i64) {
        ((p.x / self.cell_size).floor() as i64, (p.y / self.cell_size).floor() as i64)
    }

    fn slot_of(&self, p: Point2) -> usize {
        let (gx, gy) = self.cell_of(p);
        let mask = (1 << self.side_bits) - 1;
        (((gx as u64 & mask) << self.side_bits) | (gy as u64 & mask)) as usize
    }

    /// Records a change to `slot`.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    /// Records a change to every slot at once.
    fn touch_all(&mut self) {
        self.clock += 1;
        self.floor = self.clock;
    }

    /// The window of a query; empty when `radius` is negative or not
    /// finite, which always queries empty.
    fn window(&self, center: Point2, radius: f64) -> Window {
        let (xs, ys) = if radius.is_finite() && radius >= 0.0 {
            let span = (radius / self.cell_size).ceil() as i64;
            let (cx, cy) = self.cell_of(center);
            (Axis::new(cx, span, self.side_bits), Axis::new(cy, span, self.side_bits))
        } else {
            let empty = Axis { lo: 1, hi: 0, folded: true };
            (empty, empty)
        };
        Window {
            center,
            r_sq: radius * radius,
            cell: self.cell_size,
            xs,
            ys,
            mask: (1 << self.side_bits) - 1,
            side_bits: self.side_bits,
        }
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
    /// does.
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
        self.touch_all();
    }

    /// Position of an item, if present.
    #[must_use]
    pub fn position(&self, key: u32) -> Option<Point2> {
        let slot = *self.slot_of_key.get(&key)? as usize;
        self.slots[slot].iter().find(|&&(k, _)| k == key).map(|&(_, p)| p)
    }

    /// All item keys within `radius` meters of `center` (inclusive),
    /// including an item exactly at `center`.
    ///
    /// The result order is unspecified; callers that need determinism should
    /// sort. The query itself is exact — the grid only prunes candidates.
    #[must_use]
    pub fn query_range(&self, center: Point2, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_range_into(center, radius, &mut out);
        out
    }

    /// Like [`SpatialGrid::query_range`], but clears and fills a
    /// caller-provided buffer instead of allocating. Hot paths keep one
    /// scratch `Vec` alive across queries so the steady state allocates
    /// nothing.
    pub fn query_range_into(&self, center: Point2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let window = self.window(center, radius);
        // `for_each` folds the nested window iterator internally, which
        // measured faster than a `for` loop over it.
        window.slots().for_each(|slot| {
            for &(key, p) in &self.slots[slot] {
                if center.distance_sq_to(p) <= window.r_sq {
                    out.push(key);
                }
            }
        });
    }

    /// Iterates over the keys within `radius` meters of `center` without
    /// allocating. Same exact semantics as [`SpatialGrid::query_range`]
    /// (inclusive radius, unspecified order); callers that need determinism
    /// should collect and sort.
    pub fn query_range_iter(&self, center: Point2, radius: f64) -> impl Iterator<Item = u32> + '_ {
        let window = self.window(center, radius);
        window
            .slots()
            .flat_map(move |slot| &self.slots[slot])
            .filter(move |&&(_, p)| center.distance_sq_to(p) <= window.r_sq)
            .map(|&(k, _)| k)
    }

    /// Returns `true` if no slot that a `query_range(center, radius)` reads
    /// has changed since the grid's [`SpatialGrid::clock`] read `stamp` —
    /// in which case that query's result is the same as it was then.
    ///
    /// The check costs one stamp read per slot in the window (at most 9 for
    /// a radius ≈ cell-size query). It is conservative: a change to an
    /// item outside the radius, or to a far cell aliasing into the window,
    /// also reports a change. `stamp` must come from this grid's `clock()`.
    #[must_use]
    pub fn window_unchanged_since(&self, center: Point2, radius: f64, stamp: u64) -> bool {
        stamp >= self.floor
            && self.window(center, radius).slots().all(|slot| self.stamps[slot] <= stamp)
    }

    /// Removes every item while keeping the table and its buckets'
    /// allocations, so a reused grid reaches steady state without
    /// reallocating. A cleared grid answers every query exactly like a
    /// freshly constructed one.
    pub fn clear(&mut self) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.slot_of_key.clear();
        self.touch_all();
    }

    /// Iterates over all `(key, position)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point2)> + '_ {
        self.slots.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(g.query_range(Point2::new(5.0, 5.0), 0.0), vec![7]);
        assert_eq!(g.remove(7), Some(Point2::new(5.0, 5.0)));
        assert!(g.is_empty());
        assert_eq!(g.remove(7), None);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(1.0, 1.0));
        g.update(1, Point2::new(95.0, 95.0));
        assert!(g.query_range(Point2::new(1.0, 1.0), 5.0).is_empty());
        assert_eq!(g.query_range(Point2::new(95.0, 95.0), 5.0), vec![1]);
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
        let mut near = g.query_range(Point2::new(0.0, 0.0), 30.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
    }

    #[test]
    fn query_handles_negative_coordinates() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(3, Point2::new(-25.0, -25.0));
        assert_eq!(g.query_range(Point2::new(-20.0, -20.0), 10.0), vec![3]);
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
        assert_eq!(g.query_range(Point2::new(5.0, 5.0), 1.0), vec![1]);
        assert!(g.query_range(Point2::new(15.0, 5.0), 1.0).is_empty());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_answering_queries() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point2::new(5.0, 5.0));
        g.insert(2, Point2::new(50.0, 50.0));
        g.clear();
        assert!(g.is_empty());
        assert!(g.query_range(Point2::new(5.0, 5.0), 100.0).is_empty());
        assert_eq!(g.position(1), None);
        // Reuse after clear behaves like a fresh grid.
        g.insert(3, Point2::new(5.0, 5.0));
        assert_eq!(g.query_range(Point2::new(5.0, 5.0), 1.0), vec![3]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn invalid_radius_returns_empty() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Point2::ORIGIN);
        assert!(g.query_range(Point2::ORIGIN, f64::NAN).is_empty());
        assert!(g.query_range(Point2::ORIGIN, -1.0).is_empty());
    }

    #[test]
    fn huge_coordinates_do_not_overflow_the_window() {
        // Cell indices saturate at x = 1e300; the window must neither
        // overflow past them nor prune the saturated cell.
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(1e300, 0.0));
        g.insert(1, Point2::new(1e300, 10.0));
        g.insert(2, Point2::new(-1e300, 0.0));
        let mut near = g.query_range(Point2::new(1e300, 0.0), 30.0);
        near.sort_unstable();
        assert_eq!(near, vec![0, 1]);
        assert_eq!(g.query_range(Point2::new(-1e300, 5.0), 30.0), vec![2]);
    }

    #[test]
    fn table_memory_is_bounded_by_items_not_extent() {
        let mut g = SpatialGrid::new(30.0);
        g.insert(0, Point2::new(0.0, 0.0));
        g.insert(1, Point2::new(1e12, 1e12));
        assert_eq!(g.slots.len(), 16);
        assert_eq!(g.query_range(Point2::new(1e12, 1e12), 30.0), vec![1]);
        assert_eq!(g.query_range(Point2::ORIGIN, 30.0), vec![0]);
        // Growth keeps the table within a constant factor of the items.
        for i in 0..1000u32 {
            g.insert(i + 2, Point2::new(f64::from(i) * 1e9, 0.0));
        }
        assert!(g.slots.len() * MAX_LOAD >= g.len());
        assert!(g.slots.len() <= 2 * g.len());
        assert_eq!(g.stamps.len(), g.slots.len());
    }

    #[test]
    fn stamps_track_the_window() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(0, Point2::new(5.0, 5.0));
        let s = g.clock();
        assert!(g.window_unchanged_since(Point2::new(5.0, 5.0), 10.0, s));
        // A change in the window's corner cell beyond the radius is pruned
        // like the query prunes it; a change inside the window is not.
        g.insert(1, Point2::new(-8.0, -8.0));
        assert!(g.window_unchanged_since(Point2::new(5.0, 5.0), 4.0, s));
        assert!(!g.window_unchanged_since(Point2::new(5.0, 5.0), 10.0, s));
        let s = g.clock();
        g.clear();
        assert!(!g.window_unchanged_since(Point2::new(5.0, 5.0), 10.0, s));
        // An invalid radius always queries empty, so nothing can change it.
        assert!(g.window_unchanged_since(Point2::ORIGIN, f64::NAN, g.clock()));
    }

    proptest! {
        /// The grid query must agree exactly with the brute-force scan.
        #[test]
        fn prop_query_matches_brute_force(
            items in proptest::collection::vec((0u32..64, -200.0..200.0f64, -200.0..200.0f64), 0..64),
            qx in -200.0..200.0f64,
            qy in -200.0..200.0f64,
            radius in 0.0..100.0f64,
        ) {
            let mut g = SpatialGrid::new(17.0);
            let mut truth: std::collections::HashMap<u32, Point2> = Default::default();
            for (k, x, y) in items {
                let p = Point2::new(x, y);
                g.insert(k, p);
                truth.insert(k, p);
            }
            let center = Point2::new(qx, qy);
            let mut got = g.query_range(center, radius);
            got.sort_unstable();
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

        /// A cached query result plus `window_unchanged_since` is always as
        /// good as a fresh query: over random insert/update/remove/clear
        /// sequences, with positions that alias to one slot (offsets in
        /// whole table widths), radii wider than the table, and growth
        /// mid-sequence (up to 400 live keys against a 16-slot table, which
        /// grows past 32 items and again past 128).
        #[test]
        fn prop_cached_query_matches_fresh(
            ops in proptest::collection::vec(
                (0u8..8, 0u32..400, -3i64..3, -3i64..3, 0.0..10.0f64, 0i64..3),
                1..400,
            ),
            queries in proptest::collection::vec(
                (-3i64..3, -3i64..3, 0.0..10.0f64, 0u8..4),
                1..6,
            ),
        ) {
            const CELL: f64 = 10.0;
            // Aliasing offset: a multiple of every table width the
            // sequence can reach, so `far` shifts a point onto the same
            // slot as its near twin.
            const PERIOD: f64 = CELL * 1024.0;
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
                    let radius = match kind {
                        0 => jitter,
                        1 => CELL + jitter,
                        2 => 3.0 * CELL + jitter,
                        _ => 1e9,
                    };
                    (point(cx, cy, jitter, 0), radius)
                })
                .collect();
            let fresh = |g: &SpatialGrid, (c, r): (Point2, f64)| {
                let mut v = g.query_range(c, r);
                v.sort_unstable();
                v
            };
            let mut cached: Vec<(u64, Vec<u32>)> =
                queries.iter().map(|&q| (g.clock(), fresh(&g, q))).collect();
            for (op, key, cx, cy, jitter, far) in ops {
                match op {
                    0..=4 => {
                        let p = point(cx, cy, jitter, far);
                        g.insert(key, p);
                        truth.insert(key, p);
                    }
                    5 => {
                        let p = point(cx, cy, jitter, far);
                        g.update(key, p);
                        truth.insert(key, p);
                    }
                    7 if key % 64 == 0 => {
                        g.clear();
                        truth.clear();
                    }
                    _ => prop_assert_eq!(g.remove(key), truth.remove(&key)),
                }
                prop_assert_eq!(g.len(), truth.len());
                for (&q, (stamp, list)) in queries.iter().zip(&mut cached) {
                    let now = fresh(&g, q);
                    if g.window_unchanged_since(q.0, q.1, *stamp) {
                        prop_assert_eq!(&*list, &now);
                    } else {
                        *stamp = g.clock();
                        *list = now;
                    }
                    let mut want: Vec<u32> = truth
                        .iter()
                        .filter(|(_, p)| q.0.distance_sq_to(**p) <= q.1 * q.1)
                        .map(|(&k, _)| k)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(&*list, &want);
                }
            }
        }
    }
}
