//! Wire types: the data-packet header and notification packets.
//!
//! iMobif is header-driven: "The source informs all nodes on the flow path
//! of the strategy and its status by including this information in data
//! packet headers" (paper §1), and each relay "aggregates the combined
//! cost-benefit value with the corresponding value in the packet header"
//! before forwarding.

use serde::{Deserialize, Serialize};

use imobif_netsim::{FlowId, NodeId};

use crate::StrategyKind;

/// The four-valued cost/benefit aggregate carried in every data packet.
///
/// Per paper §2, mobility performance is generalized to two metrics — the
/// *number of sustainable data bits* and the *expected residual energy* —
/// evaluated under two hypotheses: the node stays put (`*_no_move`,
/// Fig. 1's `bits`/`resi`) or executes the mobility strategy (`*_move`,
/// Fig. 1's `bits1`/`resi1`). How per-node values fold into the aggregate is
/// strategy-specific (min for bottleneck metrics, sum for totals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Sustainable data bits if no node moves.
    pub bits_no_move: f64,
    /// Expected residual energy if no node moves (J).
    pub resi_no_move: f64,
    /// Sustainable data bits if nodes execute the mobility strategy.
    pub bits_move: f64,
    /// Expected residual energy under the mobility strategy (J).
    pub resi_move: f64,
}

impl Aggregate {
    /// The identity for min-folded aggregates: all fields `+∞`.
    #[must_use]
    pub fn min_identity() -> Self {
        Aggregate {
            bits_no_move: f64::INFINITY,
            resi_no_move: f64::INFINITY,
            bits_move: f64::INFINITY,
            resi_move: f64::INFINITY,
        }
    }

    /// The identity for aggregates whose `bits` fold by min and whose
    /// `resi` fold by sum (the minimize-total-energy strategy, Fig. 3).
    #[must_use]
    pub fn min_bits_sum_resi_identity() -> Self {
        Aggregate {
            bits_no_move: f64::INFINITY,
            resi_no_move: 0.0,
            bits_move: f64::INFINITY,
            resi_move: 0.0,
        }
    }
}

/// One node's locally computed cost/benefit sample (Fig. 1 lines 15–19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// `bits` — sustainable bits staying at the current position.
    pub bits_no_move: f64,
    /// `resi` — expected residual energy staying put (may be negative when
    /// the residual cannot cover the remaining flow).
    pub resi_no_move: f64,
    /// `bits1` — sustainable bits after moving (mobility cost deducted).
    pub bits_move: f64,
    /// `resi1` — expected residual energy after moving.
    pub resi_move: f64,
}

impl PerfSample {
    /// Fig. 1 lines 15–19, as a pure function of local quantities:
    ///
    /// ```text
    /// resi  = e − E_T(d(x, next), f_ℓ)
    /// bits  = e / E_T(d(x, next), 1)                 (capped at f_ℓ)
    /// resi1 = e − E_T(d(x', next), f_ℓ) − E_M(d(x, x'))
    /// bits1 = (e − E_M(d(x, x'))) / E_T(d(x', next), 1)   (capped at f_ℓ)
    /// ```
    ///
    /// The sustainable-bits values are capped at the residual flow length
    /// `f_ℓ` per the paper §2's definition — "the amount of flow traffic
    /// the node can support with the current residual energy" — capacity
    /// beyond the remaining flow is not usable traffic (see DESIGN.md §4).
    ///
    /// # Example
    ///
    /// ```rust
    /// use imobif::PerfSample;
    /// use imobif_energy::{LinearMobilityCost, PowerLawModel};
    /// use imobif_geom::Point2;
    ///
    /// let tx = PowerLawModel::paper_default(2.0)?;
    /// let mv = LinearMobilityCost::new(0.5)?;
    /// let sample = PerfSample::compute(
    ///     100.0,                    // residual energy e
    ///     Point2::new(10.0, 10.0),  // current position x
    ///     Point2::new(10.0, 0.0),   // strategy target x'
    ///     Point2::new(20.0, 0.0),   // next node position
    ///     8.0e6,                    // residual flow bits f_ℓ
    ///     &tx,
    ///     &mv,
    /// );
    /// // Moving shortens the hop from 14.1 m to 10 m and costs 5 J.
    /// assert!(sample.resi_move > sample.resi_no_move);
    /// # Ok::<(), imobif_energy::EnergyError>(())
    /// ```
    #[must_use]
    pub fn compute(
        residual_energy: f64,
        position: imobif_geom::Point2,
        target: imobif_geom::Point2,
        next_position: imobif_geom::Point2,
        residual_flow_bits: f64,
        tx: &imobif_energy::PowerLawModel,
        mobility: &imobif_energy::LinearMobilityCost,
    ) -> PerfSample {
        let e = residual_energy;
        let cap = residual_flow_bits.max(0.0);
        // resi = e − E_T(d(x, f.next), f_ℓ)
        let d_cur = position.distance_to(next_position);
        let resi_no_move = e - tx.energy(d_cur, residual_flow_bits);
        // bits = e / E_T(d(x, f.next), 1)
        let bits_no_move = (e / tx.energy_per_bit(d_cur)).min(cap);
        // resi1 = e − E_T(d(x', f.next), f_ℓ) − E_M(d(x, x'))
        let d_move = position.distance_to(target);
        let e_m = mobility.cost(d_move);
        let d_new = target.distance_to(next_position);
        let resi_move = e - tx.energy(d_new, residual_flow_bits) - e_m;
        // bits1 = (e − E_M(d(x, x'))) / E_T(d(x', f.next), 1)
        let bits_move = ((e - e_m) / tx.energy_per_bit(d_new)).clamp(0.0, cap);
        PerfSample { bits_no_move, resi_no_move, bits_move, resi_move }
    }
}

/// The iMobif header on every data packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataHeader {
    /// Which flow this packet belongs to.
    pub flow: FlowId,
    /// Flow source.
    pub source: NodeId,
    /// Flow destination.
    pub destination: NodeId,
    /// The mobility strategy currently selected by the source.
    pub strategy: StrategyKind,
    /// The current mobility status (enabled/disabled), set by the source.
    pub mobility_enabled: bool,
    /// The source's estimate of the residual flow length in bits, including
    /// this packet — the `f_ℓ` of Fig. 1. An estimate: the `ext_estimate`
    /// experiment perturbs it deliberately.
    pub residual_flow_bits: f64,
    /// Application payload size of this packet, in bits.
    pub payload_bits: u64,
    /// Source-assigned sequence number.
    pub seq: u64,
    /// The running cost/benefit aggregate.
    pub aggregate: Aggregate,
}

/// A mobility status-change notification, sent by the destination back
/// toward the source along the reverse flow path (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Notification {
    /// The flow whose status should change.
    pub flow: FlowId,
    /// Requested status: `true` = enable mobility.
    pub enable: bool,
    /// The aggregate information that justified the request ("sends a
    /// mobility … notification with the aggregate information").
    pub aggregate: Aggregate,
}

/// Every message the iMobif protocol exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImobifMsg {
    /// A data packet with its iMobif header.
    Data(DataHeader),
    /// A status-change notification traveling destination → source.
    Notification(Notification),
}

#[cfg(test)]
mod tests {
    use super::*;
    use imobif_energy::{LinearMobilityCost, PowerLawModel};
    use imobif_geom::Point2;
    use proptest::prelude::*;

    fn models() -> (PowerLawModel, LinearMobilityCost) {
        (PowerLawModel::paper_default(2.0).unwrap(), LinearMobilityCost::new(0.5).unwrap())
    }

    /// Fig. 1 lines 16–19, checked term by term against the energy laws.
    #[test]
    fn sample_matches_figure_1_formulas() {
        let (tx, mv) = models();
        let e = 50.0;
        let x = Point2::new(10.0, 10.0);
        let target = Point2::new(10.0, 0.0);
        let next = Point2::new(30.0, 0.0);
        // A residual flow long enough that the f_ℓ cap is not binding.
        let f_bits = 2.0e7;
        let s = PerfSample::compute(e, x, target, next, f_bits, &tx, &mv);

        let d_cur = x.distance_to(next);
        let d_new = target.distance_to(next);
        let e_m = 0.5 * x.distance_to(target);
        assert!((s.resi_no_move - (e - tx.energy(d_cur, f_bits))).abs() < 1e-9);
        assert!((s.resi_move - (e - tx.energy(d_new, f_bits) - e_m)).abs() < 1e-9);
        // Both bits values are below the cap here, so they follow the law.
        assert!((s.bits_no_move - e / tx.energy_per_bit(d_cur)).abs() < 1e-3);
        assert!((s.bits_move - (e - e_m) / tx.energy_per_bit(d_new)).abs() < 1e-3);
    }

    /// Energy-rich nodes saturate the bits metric at f_ℓ under BOTH
    /// hypotheses, so the residual-energy comparison decides.
    #[test]
    fn sample_caps_bits_at_residual_flow_length() {
        let (tx, mv) = models();
        let s = PerfSample::compute(
            1.0e5, // plenty of energy
            Point2::new(10.0, 10.0),
            Point2::new(10.0, 0.0),
            Point2::new(30.0, 0.0),
            8.0e5,
            &tx,
            &mv,
        );
        assert_eq!(s.bits_no_move, 8.0e5);
        assert_eq!(s.bits_move, 8.0e5);
        assert_ne!(s.resi_no_move, s.resi_move);
    }

    /// A movement so expensive it exceeds the battery yields zero
    /// sustainable bits under the move hypothesis, never a negative value.
    #[test]
    fn sample_clamps_fatal_moves_to_zero_bits() {
        let (tx, mv) = models();
        let s = PerfSample::compute(
            1.0, // 1 J battery; walking 100 m would cost 50 J
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(120.0, 0.0),
            8.0e6,
            &tx,
            &mv,
        );
        assert_eq!(s.bits_move, 0.0);
        assert!(s.bits_no_move > 0.0);
    }

    /// A node already at its target sees identical hypotheses: the basis
    /// of the no-oscillation behavior at convergence.
    #[test]
    fn sample_at_target_is_a_tie() {
        let (tx, mv) = models();
        let x = Point2::new(15.0, 0.0);
        let s = PerfSample::compute(50.0, x, x, Point2::new(30.0, 0.0), 1.0e6, &tx, &mv);
        assert_eq!(s.bits_no_move, s.bits_move);
        assert_eq!(s.resi_no_move, s.resi_move);
    }

    proptest! {
        /// The move hypothesis never reports more residual energy than
        /// physically possible: resi1 ≤ resi0 + (savings), and moving to
        /// the current position is always a tie.
        #[test]
        fn prop_move_hypothesis_accounts_movement(
            e in 1.0..1e4f64,
            tx_d in 5.0..30.0f64,
            move_d in 0.0..20.0f64,
            f_bits in 1e3..1e7f64,
        ) {
            let (tx, mv) = models();
            let x = Point2::new(0.0, 0.0);
            let target = Point2::new(0.0, move_d);
            let next = Point2::new(tx_d, 0.0);
            let s = PerfSample::compute(e, x, target, next, f_bits, &tx, &mv);
            // Moving sideways never shortens the hop enough to beat its own
            // cost in this geometry (d_new ≥ d_cur), so both metrics agree
            // that staying is at least as good.
            prop_assert!(s.bits_move <= s.bits_no_move + 1e-9);
            prop_assert!(s.resi_move <= s.resi_no_move + 1e-9);
        }
    }

    #[test]
    fn identities_have_expected_fields() {
        let m = Aggregate::min_identity();
        assert!(m.bits_no_move.is_infinite() && m.resi_no_move.is_infinite());
        let s = Aggregate::min_bits_sum_resi_identity();
        assert!(s.bits_no_move.is_infinite());
        assert_eq!(s.resi_no_move, 0.0);
        assert_eq!(s.resi_move, 0.0);
    }

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let h = DataHeader {
            flow: FlowId::new(1),
            source: NodeId::new(0),
            destination: NodeId::new(5),
            strategy: StrategyKind::MinTotalEnergy,
            mobility_enabled: false,
            residual_flow_bits: 8e6,
            payload_bits: 8000,
            seq: 3,
            aggregate: Aggregate::min_identity(),
        };
        let m = ImobifMsg::Data(h);
        assert_eq!(m, m.clone());
        let n = ImobifMsg::Notification(Notification {
            flow: FlowId::new(1),
            enable: true,
            aggregate: Aggregate::min_identity(),
        });
        assert_ne!(m, n);
    }
}
