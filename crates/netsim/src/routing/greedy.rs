//! Greedy geographic forwarding.

use crate::{NodeId, RouteError, TopologyView};

/// Greedy geographic routing: each node forwards to its neighbor closest to
/// the destination, requiring strict progress.
///
/// This is the routing the paper's evaluation uses ("The network uses greedy
/// routing to forward packets from the source to the destination", §4).
/// Greedy forwarding can stall at a local maximum — a node none of whose
/// neighbors is closer to the destination — in which case routing fails
/// with [`RouteError::NoProgress`]; the experiment harness redraws the
/// source/destination pair, as random-topology studies conventionally do.
///
/// # Example
///
/// ```rust
/// use imobif_geom::Point2;
/// use imobif_netsim::routing::GreedyRouter;
/// use imobif_netsim::{NodeId, TopologyView};
///
/// let topo = TopologyView::new(
///     vec![
///         Point2::new(0.0, 0.0),
///         Point2::new(25.0, 5.0),
///         Point2::new(50.0, 0.0),
///     ],
///     vec![true, true, true],
///     30.0,
/// );
/// let path = GreedyRouter.route(&topo, NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRouter;

impl GreedyRouter {
    /// Computes a path from `src` to `dst`.
    ///
    /// The returned vector starts with `src`, ends with `dst`, has no
    /// repeated nodes, and every consecutive pair is within radio range.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TrivialFlow`] if `src == dst`;
    /// * [`RouteError::BadEndpoint`] if either endpoint is dead or unknown;
    /// * [`RouteError::NoProgress`] when forwarding reaches a local
    ///   maximum, which includes every disconnected pair.
    pub fn route(
        &self,
        topo: &TopologyView,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<NodeId>, RouteError> {
        check_endpoints(topo, src, dst)?;
        let target = topo.position(dst);
        let mut path = vec![src];
        let mut current = src;
        let mut nbrs = Vec::new();
        while current != dst {
            let here = topo.position(current).distance_to(target);
            // Among neighbors strictly closer to the destination, take the
            // closest; ties break toward the smaller id (neighbors_into
            // sorts and `<` keeps the first minimum). One scratch buffer
            // serves every hop, so the loop allocates nothing after the
            // first neighborhood.
            let mut best: Option<(f64, NodeId)> = None;
            topo.neighbors_into(current, &mut nbrs);
            for &n in &nbrs {
                let d = topo.position(n).distance_to(target);
                if d < here && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, n));
                }
            }
            let Some((_, next)) = best else {
                return Err(RouteError::NoProgress { stuck_at: current });
            };
            path.push(next);
            current = next;
            // Strict progress bounds the path length; this is belt and
            // braces against floating-point pathologies.
            if path.len() > topo.node_count() {
                return Err(RouteError::NoProgress { stuck_at: current });
            }
        }
        Ok(path)
    }
}

/// Rejects unknown, dead or identical endpoints.
fn check_endpoints(topo: &TopologyView, src: NodeId, dst: NodeId) -> Result<(), RouteError> {
    if src.index() >= topo.node_count() {
        return Err(RouteError::BadEndpoint(src));
    }
    if dst.index() >= topo.node_count() {
        return Err(RouteError::BadEndpoint(dst));
    }
    if src == dst {
        return Err(RouteError::TrivialFlow);
    }
    if !topo.is_alive(src) {
        return Err(RouteError::BadEndpoint(src));
    }
    if !topo.is_alive(dst) {
        return Err(RouteError::BadEndpoint(dst));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::is_valid_path;
    use imobif_geom::Point2;
    use proptest::prelude::*;

    fn topo(points: Vec<(f64, f64)>, range: f64) -> TopologyView {
        let n = points.len();
        TopologyView::new(points.into_iter().map(Point2::from).collect(), vec![true; n], range)
    }

    #[test]
    fn direct_neighbor_is_one_hop() {
        let t = topo(vec![(0.0, 0.0), (20.0, 0.0)], 30.0);
        let p = GreedyRouter.route(&t, NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(p, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn trivial_flow_rejected() {
        let t = topo(vec![(0.0, 0.0), (20.0, 0.0)], 30.0);
        assert_eq!(
            GreedyRouter.route(&t, NodeId::new(0), NodeId::new(0)).unwrap_err(),
            RouteError::TrivialFlow
        );
    }

    #[test]
    fn dead_endpoint_rejected() {
        let t = TopologyView::new(
            vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0)],
            vec![true, false],
            30.0,
        );
        assert_eq!(
            GreedyRouter.route(&t, NodeId::new(0), NodeId::new(1)).unwrap_err(),
            RouteError::BadEndpoint(NodeId::new(1))
        );
    }

    #[test]
    fn out_of_range_endpoint_rejected() {
        let t = topo(vec![(0.0, 0.0)], 30.0);
        assert!(matches!(
            GreedyRouter.route(&t, NodeId::new(0), NodeId::new(5)),
            Err(RouteError::BadEndpoint(_))
        ));
    }

    #[test]
    fn local_maximum_detected() {
        // A gap: nothing within range of node 0 is closer to node 2.
        let t = topo(vec![(0.0, 0.0), (0.0, 29.0), (100.0, 0.0)], 30.0);
        assert_eq!(
            GreedyRouter.route(&t, NodeId::new(0), NodeId::new(2)).unwrap_err(),
            RouteError::NoProgress { stuck_at: NodeId::new(0) }
        );
    }

    #[test]
    fn picks_greedier_neighbor() {
        // Both 1 and 2 are in range of 0; 2 is closer to 3.
        let t = topo(vec![(0.0, 0.0), (15.0, 10.0), (25.0, 0.0), (50.0, 0.0)], 30.0);
        let p = GreedyRouter.route(&t, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(p[1], NodeId::new(2));
    }

    proptest! {
        /// On random dense topologies, any route that succeeds satisfies the
        /// router postcondition and makes monotone progress.
        #[test]
        fn prop_successful_routes_are_valid(
            coords in proptest::collection::vec((0.0..150.0f64, 0.0..150.0f64), 10..60),
        ) {
            let t = topo(coords, 30.0);
            let src = NodeId::new(0);
            let dst = NodeId::new((t.node_count() - 1) as u32);
            if let Ok(path) = GreedyRouter.route(&t, src, dst) {
                prop_assert!(is_valid_path(&t, &path, src, dst));
                let target = t.position(dst);
                let dists: Vec<f64> =
                    path.iter().map(|&n| t.position(n).distance_to(target)).collect();
                for w in dists.windows(2) {
                    prop_assert!(w[1] < w[0], "distance to target must strictly decrease");
                }
            }
        }
    }
}
