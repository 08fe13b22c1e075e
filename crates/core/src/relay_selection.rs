//! Joint relay selection and positioning — the paper's future work.
//!
//! Paper §5: "In our future work, we plan to extend the framework so that it
//! can optimize both the selection and positions of the intermediate flow
//! nodes." This module implements that extension as a planning procedure:
//! instead of accepting whatever relays greedy routing picked and only
//! moving them, it chooses *which* nodes should serve as relays and *where*
//! they should stand, minimizing total expected energy (movement investment
//! plus transmission for the whole flow).
//!
//! The optimal target placement for `k` relays is known (evenly spaced on
//! the source–destination chord); the open choices are `k` and the
//! assignment of physical nodes to the `k` slots. The planner sweeps `k`,
//! greedily assigns the nearest available candidate to each slot, and
//! keeps the cheapest plan.

use imobif_energy::{LinearMobilityCost, PowerLawModel};
use imobif_geom::{Point2, Segment};
use imobif_netsim::{NodeId, TopologyView};

/// One relay assignment in a [`RelayPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayAssignment {
    /// The node chosen to serve as a relay.
    pub node: NodeId,
    /// The evenly spaced slot position it should move to.
    pub target: Point2,
    /// Distance from the node's current position to the slot, in meters.
    pub move_distance: f64,
}

/// A joint relay-selection-and-positioning plan for one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayPlan {
    /// Chosen relays in path order (source and destination excluded).
    pub relays: Vec<RelayAssignment>,
    /// One-time movement energy to reach the slots, in joules.
    pub movement_energy: f64,
    /// Transmission energy for the whole flow once in place, in joules.
    pub transmission_energy: f64,
}

impl RelayPlan {
    /// Total expected energy of the plan, in joules.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.movement_energy + self.transmission_energy
    }

    /// The full path (source, relays, destination) as node ids.
    #[must_use]
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut p = Vec::with_capacity(self.relays.len() + 2);
        p.push(src);
        p.extend(self.relays.iter().map(|r| r.node));
        p.push(dst);
        p
    }
}

/// Plans relays for a flow of `flow_bits` bits from `src` to `dst`,
/// sweeping relay counts from 0 to `max_relays` and returning the
/// cheapest plan.
///
/// Candidates are all live nodes other than the endpoints. For each relay
/// count `k`, the `k` slot positions divide the chord evenly, and each slot
/// takes the nearest not-yet-used candidate (a greedy assignment — optimal
/// assignment is a linear program the paper leaves unexplored; greedy is
/// the natural distributed-systems compromise and is exact when candidates
/// are plentiful).
///
/// Returns `None` when `src == dst` or either endpoint is dead.
#[must_use]
pub fn plan_relays(
    topo: &TopologyView,
    src: NodeId,
    dst: NodeId,
    tx: &PowerLawModel,
    mobility: &LinearMobilityCost,
    flow_bits: f64,
    max_relays: usize,
) -> Option<RelayPlan> {
    if src == dst || !topo.is_alive(src) || !topo.is_alive(dst) {
        return None;
    }
    let chord = Segment::new(topo.position(src), topo.position(dst));
    if chord.is_degenerate() {
        return None;
    }
    let candidates: Vec<NodeId> = (0..topo.node_count() as u32)
        .map(NodeId::new)
        .filter(|&id| id != src && id != dst && topo.is_alive(id))
        .collect();
    let mut best: Option<RelayPlan> = None;
    for k in 0..=max_relays.min(candidates.len()) {
        let hops = (k + 1) as f64;
        let hop_len = chord.length() / hops;
        let slots: Vec<Point2> = (1..=k).map(|i| chord.point_at(i as f64 / hops)).collect();
        // Greedy nearest-candidate assignment, slot by slot.
        let mut used = vec![false; candidates.len()];
        let mut relays = Vec::with_capacity(k);
        let mut movement_energy = 0.0;
        let mut feasible = true;
        for &slot in &slots {
            let mut best_c: Option<(f64, usize)> = None;
            for (ci, &cand) in candidates.iter().enumerate() {
                if used[ci] {
                    continue;
                }
                let d = topo.position(cand).distance_to(slot);
                if best_c.is_none_or(|(bd, _)| d < bd) {
                    best_c = Some((d, ci));
                }
            }
            let Some((d, ci)) = best_c else {
                feasible = false;
                break;
            };
            used[ci] = true;
            movement_energy += mobility.cost(d);
            relays.push(RelayAssignment { node: candidates[ci], target: slot, move_distance: d });
        }
        if !feasible {
            continue;
        }
        let transmission_energy = hops * tx.energy(hop_len, flow_bits);
        let plan = RelayPlan { relays, movement_energy, transmission_energy };
        if best.as_ref().is_none_or(|b| plan.total_energy() < b.total_energy()) {
            best = Some(plan);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use imobif_energy::{LinearMobilityCost, PowerLawModel};

    fn models() -> (PowerLawModel, LinearMobilityCost) {
        (PowerLawModel::paper_default(2.0).unwrap(), LinearMobilityCost::new(0.5).unwrap())
    }

    fn topo(points: Vec<(f64, f64)>) -> TopologyView {
        let n = points.len();
        TopologyView::new(points.into_iter().map(Point2::from).collect(), vec![true; n], 30.0)
    }

    #[test]
    fn no_candidates_means_direct_link() {
        let (tx, mv) = models();
        let t = topo(vec![(0.0, 0.0), (60.0, 0.0)]);
        let plan = plan_relays(&t, NodeId::new(0), NodeId::new(1), &tx, &mv, 8e6, 4).unwrap();
        assert!(plan.relays.is_empty());
        assert_eq!(plan.movement_energy, 0.0);
        assert!((plan.transmission_energy - tx.energy(60.0, 8e6)).abs() < 1e-9);
    }

    #[test]
    fn long_flow_recruits_relays() {
        let (tx, mv) = models();
        // Two idle nodes sit near the ideal slot positions of a 90 m chord.
        let t = topo(vec![(0.0, 0.0), (90.0, 0.0), (31.0, 2.0), (61.0, -2.0)]);
        let plan = plan_relays(&t, NodeId::new(0), NodeId::new(1), &tx, &mv, 8e7, 4).unwrap();
        assert_eq!(plan.relays.len(), 2, "a big flow should recruit both relays");
        // Relays are assigned in slot order along the chord.
        assert!(plan.relays[0].target.x < plan.relays[1].target.x);
        let path = plan.path(NodeId::new(0), NodeId::new(1));
        assert_eq!(path.first(), Some(&NodeId::new(0)));
        assert_eq!(path.last(), Some(&NodeId::new(1)));
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn short_flow_declines_far_relays() {
        let (tx, mv) = models();
        // The only candidate is 100 m off the chord: walking there costs
        // 50 J, which a tiny flow can never repay.
        let t = topo(vec![(0.0, 0.0), (60.0, 0.0), (30.0, 100.0)]);
        let plan = plan_relays(&t, NodeId::new(0), NodeId::new(1), &tx, &mv, 1_000.0, 4).unwrap();
        assert!(plan.relays.is_empty());
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        let (tx, mv) = models();
        let t = topo(vec![(0.0, 0.0), (60.0, 0.0)]);
        assert!(plan_relays(&t, NodeId::new(0), NodeId::new(0), &tx, &mv, 1e6, 4).is_none());
        let dead = TopologyView::new(
            vec![Point2::new(0.0, 0.0), Point2::new(60.0, 0.0)],
            vec![true, false],
            30.0,
        );
        assert!(plan_relays(&dead, NodeId::new(0), NodeId::new(1), &tx, &mv, 1e6, 4).is_none());
    }

    #[test]
    fn more_bits_never_worsens_plan_energy_rate() {
        let (tx, mv) = models();
        let t = topo(vec![(0.0, 0.0), (90.0, 0.0), (31.0, 2.0), (61.0, -2.0)]);
        let small = plan_relays(&t, NodeId::new(0), NodeId::new(1), &tx, &mv, 1e4, 4).unwrap();
        let large = plan_relays(&t, NodeId::new(0), NodeId::new(1), &tx, &mv, 1e8, 4).unwrap();
        // Larger flows justify at least as many relays.
        assert!(large.relays.len() >= small.relays.len());
    }
}
