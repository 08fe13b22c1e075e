//! Topology snapshots of the unit-disk radio medium.

use std::collections::VecDeque;

use imobif_geom::{Point2, SpatialGrid};

use crate::NodeId;

/// An immutable snapshot of the connectivity graph: node positions, liveness
/// and the unit-disk radio range.
///
/// Routing operates on snapshots rather than the live world so that route
/// computation is a pure function (easy to test, impossible to mutate the
/// simulation by accident). The paper pins each flow's path at setup time,
/// so a snapshot at flow start is exactly the information routing may use.
///
/// # Example
///
/// ```rust
/// use imobif_geom::Point2;
/// use imobif_netsim::{NodeId, TopologyView};
///
/// let topo = TopologyView::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0), Point2::new(100.0, 0.0)],
///     vec![true, true, true],
///     30.0,
/// );
/// assert_eq!(topo.neighbors(NodeId::new(0)), vec![NodeId::new(1)]);
/// assert!(!topo.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct TopologyView {
    positions: Vec<Point2>,
    alive: Vec<bool>,
    range: f64,
    grid: SpatialGrid,
}

impl TopologyView {
    /// Creates a snapshot from positions, liveness flags and radio range.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length or `range` is not
    /// positive and finite.
    #[must_use]
    pub fn new(positions: Vec<Point2>, alive: Vec<bool>, range: f64) -> Self {
        assert_eq!(positions.len(), alive.len(), "positions/alive length mismatch");
        assert!(range.is_finite() && range > 0.0, "range must be positive");
        let mut grid = SpatialGrid::new(range.max(1.0));
        for (i, (&p, &a)) in positions.iter().zip(&alive).enumerate() {
            if a {
                grid.insert(i as u32, p);
            }
        }
        TopologyView { positions, alive, range, grid }
    }

    /// Number of nodes (alive or dead).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Radio range in meters.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point2 {
        self.positions[id.index()]
    }

    /// Whether a node is alive.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Whether two nodes are within radio range of each other.
    #[must_use]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.position(a).distance_to(self.position(b)) <= self.range
    }

    /// Live neighbors of `id` within radio range, sorted by id (excludes
    /// `id` itself and returns an empty list for a dead node).
    ///
    /// Allocates a fresh `Vec`; hot callers should prefer
    /// [`TopologyView::neighbors_into`] with a reused scratch buffer, or
    /// [`TopologyView::iter_neighbors_unordered`] when order is irrelevant.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.neighbors_into(id, &mut v);
        v
    }

    /// Like [`TopologyView::neighbors`], but clears and fills a
    /// caller-provided buffer instead of allocating, so a loop that walks
    /// many neighborhoods (routing, BFS) allocates nothing in steady state.
    pub fn neighbors_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if !self.is_alive(id) {
            return;
        }
        out.extend(self.iter_neighbors_unordered(id));
        out.sort_unstable();
    }

    /// Iterates over the live neighbors of `id` in *unspecified* order
    /// without allocating. Yields nothing for a dead node. Callers whose
    /// results depend on visit order must use the sorted forms instead.
    pub fn iter_neighbors_unordered(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let raw = id.raw();
        let alive = self.is_alive(id);
        self.grid
            .query_range_iter(self.position(id), self.range)
            .filter(move |&k| alive && k != raw)
            .map(NodeId::new)
    }

    /// Mean number of live neighbors per live node (the paper reports
    /// "approximately 12" for its topology).
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        let mut live = 0usize;
        let mut total = 0usize;
        for i in 0..self.node_count() as u32 {
            let id = NodeId::new(i);
            if self.is_alive(id) {
                live += 1;
                total += self.iter_neighbors_unordered(id).count();
            }
        }
        if live == 0 {
            return 0.0;
        }
        total as f64 / live as f64
    }

    /// Returns `true` if every live node can reach every other live node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let live: Vec<NodeId> = (0..self.node_count() as u32)
            .map(NodeId::new)
            .filter(|&id| self.is_alive(id))
            .collect();
        let Some(&start) = live.first() else {
            return true; // vacuously connected
        };
        let mut seen = vec![false; self.node_count()];
        seen[start.index()] = true;
        let mut queue = VecDeque::from([start]);
        let mut nbrs = Vec::new();
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            self.neighbors_into(u, &mut nbrs);
            for &v in &nbrs {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(spacing: f64, n: usize, range: f64) -> TopologyView {
        let positions = (0..n).map(|i| Point2::new(i as f64 * spacing, 0.0)).collect();
        TopologyView::new(positions, vec![true; n], range)
    }

    #[test]
    fn line_topology_neighbors() {
        let t = line(20.0, 5, 30.0);
        assert_eq!(t.neighbors(NodeId::new(0)), vec![NodeId::new(1)]);
        assert_eq!(t.neighbors(NodeId::new(2)), vec![NodeId::new(1), NodeId::new(3)]);
        assert!(t.in_range(NodeId::new(0), NodeId::new(1)));
        assert!(!t.in_range(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn neighbors_into_clears_stale_buffer_and_matches_neighbors() {
        let t = line(20.0, 5, 30.0);
        let mut buf = vec![NodeId::new(42)];
        t.neighbors_into(NodeId::new(2), &mut buf);
        assert_eq!(buf, t.neighbors(NodeId::new(2)));
        let mut unordered: Vec<NodeId> = t.iter_neighbors_unordered(NodeId::new(2)).collect();
        unordered.sort_unstable();
        assert_eq!(unordered, buf);
    }

    #[test]
    fn dead_nodes_are_invisible() {
        let positions = vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0), Point2::new(40.0, 0.0)];
        let t = TopologyView::new(positions, vec![true, false, true], 30.0);
        assert!(t.neighbors(NodeId::new(0)).is_empty());
        assert!(t.neighbors(NodeId::new(1)).is_empty());
        // 0 and 2 are out of range of each other; dead 1 no longer bridges.
        assert!(!t.is_connected());
    }

    #[test]
    fn connectivity() {
        assert!(line(20.0, 5, 30.0).is_connected());
        assert!(!line(40.0, 5, 30.0).is_connected());
        // Single node and empty network are connected.
        assert!(line(20.0, 1, 30.0).is_connected());
        assert!(TopologyView::new(vec![], vec![], 30.0).is_connected());
    }

    #[test]
    fn average_degree_of_line() {
        let t = line(20.0, 3, 30.0);
        // Degrees: 1, 2, 1 -> mean 4/3.
        assert!((t.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = TopologyView::new(vec![Point2::ORIGIN], vec![], 30.0);
    }

    proptest! {
        #[test]
        fn prop_neighbor_relation_is_symmetric(
            coords in proptest::collection::vec((0.0..150.0f64, 0.0..150.0f64), 2..40),
        ) {
            let positions: Vec<Point2> = coords.into_iter().map(Point2::from).collect();
            let n = positions.len();
            let t = TopologyView::new(positions, vec![true; n], 30.0);
            for i in 0..n as u32 {
                for j in t.neighbors(NodeId::new(i)) {
                    prop_assert!(t.neighbors(j).contains(&NodeId::new(i)));
                }
            }
        }

        /// `neighbors_into` equals a brute-force scan over every live node,
        /// with a quarter of the nodes dead, at ranges from 0.1 m (where
        /// the grid's cells clamp to 1 m) to 60 m, drawn log-uniformly.
        /// The nodes spread over 1–8 ranges, so every range has neighbors.
        #[test]
        fn prop_neighbors_match_brute_force(
            nodes in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0u8..4), 1..60),
            range_exp in 0.0..=1.0f64,
            spread in 1.0..8.0f64,
        ) {
            let range = 0.1 * 600f64.powf(range_exp);
            let side = spread * range;
            let positions: Vec<Point2> =
                nodes.iter().map(|&(x, y, _)| Point2::new(x * side, y * side)).collect();
            let alive: Vec<bool> = nodes.iter().map(|&(_, _, kind)| kind != 0).collect();
            let t = TopologyView::new(positions.clone(), alive.clone(), range);
            let mut got = Vec::new();
            for (i, &p) in positions.iter().enumerate() {
                t.neighbors_into(NodeId::new(i as u32), &mut got);
                let want: Vec<NodeId> = (0..positions.len())
                    .filter(|&j| {
                        alive[i] && alive[j] && j != i && p.distance_to(positions[j]) <= range
                    })
                    .map(|j| NodeId::new(j as u32))
                    .collect();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
