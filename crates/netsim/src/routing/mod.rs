//! Routing substrate: path computation over topology snapshots.
//!
//! The paper's evaluation "uses greedy routing to forward packets from the
//! source to the destination" (§4), so [`GreedyRouter`] — greedy
//! geographic forwarding — is the one router. It is a pure function over a
//! [`crate::TopologyView`]; the returned path starts at the source and ends
//! at the destination.

mod greedy;

pub use greedy::GreedyRouter;

use crate::{NodeId, TopologyView};

/// Debug-checks the router postcondition (used by tests).
#[must_use]
pub fn is_valid_path(topo: &TopologyView, path: &[NodeId], src: NodeId, dst: NodeId) -> bool {
    if path.first() != Some(&src) || path.last() != Some(&dst) {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    for id in path {
        if !seen.insert(*id) || !topo.is_alive(*id) {
            return false;
        }
    }
    path.windows(2).all(|w| topo.in_range(w[0], w[1]))
}
