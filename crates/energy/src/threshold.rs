//! The global-information break-even threshold of Goldenberg et al. [6].
//!
//! The paper's introduction frames iMobif as the distributed replacement for
//! a threshold "calculated from simulation parameters using global
//! information": with full knowledge of the path, one can compute the flow
//! length (in bits) at which the transmission-energy savings of moving every
//! relay to its optimal position exactly pay for the movement. iMobif makes
//! the same call online with only local information; this module provides
//! the oracle so experiments can compare the two (experiment `ext_oracle`).

use imobif_geom::Polyline;
use serde::{Deserialize, Serialize};

use crate::{EnergyError, LinearMobilityCost, PowerLawModel};

/// The outcome of a global break-even analysis for one flow path.
///
/// # Example
///
/// ```rust
/// use imobif_energy::{mobility_break_even_bits, LinearMobilityCost, PowerLawModel};
/// use imobif_geom::{Point2, Polyline};
///
/// let path = Polyline::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(20.0, 15.0), // a relay well off the chord
///     Point2::new(60.0, 0.0),
/// ]).unwrap();
/// let tx = PowerLawModel::paper_default(2.0)?;
/// let mv = LinearMobilityCost::new(0.5)?;
/// let be = mobility_break_even_bits(&path, &tx, &mv)?;
/// // Moving helps eventually: some finite flow length pays for it.
/// let threshold = be.threshold_bits.unwrap();
/// assert!(threshold > 0.0 && threshold.is_finite());
/// assert!(be.is_worthwhile(2.0 * threshold));
/// assert!(!be.is_worthwhile(0.5 * threshold));
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakEven {
    /// Per-bit transmission energy along the current path (J/bit).
    pub per_bit_current: f64,
    /// Per-bit transmission energy along the optimal evenly spaced straight
    /// placement (J/bit).
    pub per_bit_optimal: f64,
    /// Total movement energy to reach the optimal placement (J).
    pub movement_cost: f64,
    /// Flow length in bits above which moving wins, or `None` if the current
    /// placement is already (at least) as good as the optimum.
    pub threshold_bits: Option<f64>,
}

impl BreakEven {
    /// Returns `true` if moving to the optimum saves energy for a flow of
    /// `bits` bits.
    #[must_use]
    pub fn is_worthwhile(&self, bits: f64) -> bool {
        match self.threshold_bits {
            Some(t) => bits > t,
            None => false,
        }
    }

    /// Net energy saved (positive) or wasted (negative) by moving, for a
    /// flow of `bits` bits, in joules.
    #[must_use]
    pub fn net_benefit(&self, bits: f64) -> f64 {
        (self.per_bit_current - self.per_bit_optimal) * bits - self.movement_cost
    }
}

/// Computes the global break-even flow length for moving all the relays of
/// `path` to the minimum-total-energy placement (evenly spaced on the
/// source–destination chord).
///
/// The threshold `L*` satisfies
/// `L*·(ε_current − ε_optimal) = E_M(total movement)`, i.e. the savings per
/// bit times the flow length equals the one-time movement investment.
///
/// # Errors
///
/// Returns [`EnergyError::InvalidParameter`] if the path has fewer than two
/// vertices' worth of structure to optimize (source equals destination).
pub fn mobility_break_even_bits(
    path: &Polyline,
    tx: &PowerLawModel,
    mobility: &LinearMobilityCost,
) -> Result<BreakEven, EnergyError> {
    if path.chord().is_degenerate() {
        return Err(EnergyError::InvalidParameter { name: "path chord" });
    }
    let per_bit_current: f64 = path.hop_lengths().iter().map(|&d| tx.energy_per_bit(d)).sum();
    let optimal = path.evenly_spaced_optimum();
    let per_bit_optimal: f64 = optimal.hop_lengths().iter().map(|&d| tx.energy_per_bit(d)).sum();
    let movement_cost: f64 = path
        .vertices()
        .iter()
        .zip(optimal.vertices())
        .map(|(&from, &to)| mobility.cost(from.distance_to(to)))
        .sum();
    let savings_per_bit = per_bit_current - per_bit_optimal;
    let threshold_bits = if savings_per_bit > 0.0 {
        Some(movement_cost / savings_per_bit)
    } else if movement_cost == 0.0 && savings_per_bit == 0.0 {
        // Already optimal: moving is free and changes nothing.
        None
    } else {
        None
    };
    Ok(BreakEven { per_bit_current, per_bit_optimal, movement_cost, threshold_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearMobilityCost, PowerLawModel};
    use imobif_geom::Point2;
    use proptest::prelude::*;

    fn tx() -> PowerLawModel {
        PowerLawModel::paper_default(2.0).unwrap()
    }

    fn mv(k: f64) -> LinearMobilityCost {
        LinearMobilityCost::new(k).unwrap()
    }

    fn bent_path() -> Polyline {
        Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(15.0, 12.0),
            Point2::new(45.0, -8.0),
            Point2::new(60.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn already_optimal_path_has_no_threshold() {
        let straight = Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(40.0, 0.0),
        ])
        .unwrap();
        let be = mobility_break_even_bits(&straight, &tx(), &mv(0.5)).unwrap();
        assert_eq!(be.movement_cost, 0.0);
        assert!(be.threshold_bits.is_none());
        assert!(!be.is_worthwhile(1e12));
    }

    #[test]
    fn bent_path_has_finite_threshold() {
        let be = mobility_break_even_bits(&bent_path(), &tx(), &mv(0.5)).unwrap();
        let t = be.threshold_bits.expect("bent path should benefit");
        assert!(t > 0.0 && t.is_finite());
        assert!(be.per_bit_current > be.per_bit_optimal);
        // Net benefit crosses zero exactly at the threshold.
        assert!(be.net_benefit(t).abs() < 1e-9);
        assert!(be.net_benefit(2.0 * t) > 0.0);
        assert!(be.net_benefit(0.5 * t) < 0.0);
    }

    #[test]
    fn cheaper_mobility_lowers_threshold() {
        let cheap = mobility_break_even_bits(&bent_path(), &tx(), &mv(0.1)).unwrap();
        let dear = mobility_break_even_bits(&bent_path(), &tx(), &mv(1.0)).unwrap();
        assert!(cheap.threshold_bits.unwrap() < dear.threshold_bits.unwrap());
    }

    #[test]
    fn free_mobility_has_zero_threshold() {
        let be = mobility_break_even_bits(&bent_path(), &tx(), &mv(0.0)).unwrap();
        assert_eq!(be.movement_cost, 0.0);
        assert_eq!(be.threshold_bits, Some(0.0));
        assert!(be.is_worthwhile(1.0));
    }

    #[test]
    fn degenerate_chord_is_rejected() {
        let loop_path = Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 10.0),
            Point2::new(0.0, 0.0),
        ])
        .unwrap();
        assert!(mobility_break_even_bits(&loop_path, &tx(), &mv(0.5)).is_err());
    }

    proptest! {
        /// The optimal placement is never worse per bit than the current one
        /// under a convex power law, so savings are non-negative.
        #[test]
        fn prop_optimum_never_loses(
            ys in proptest::collection::vec(-20.0..20.0f64, 1..6),
            k in 0.0..2.0f64,
        ) {
            let n = ys.len();
            let mut pts = vec![Point2::new(0.0, 0.0)];
            for (i, y) in ys.iter().enumerate() {
                pts.push(Point2::new(60.0 * (i + 1) as f64 / (n + 1) as f64, *y));
            }
            pts.push(Point2::new(60.0, 0.0));
            let path = Polyline::new(pts).unwrap();
            let be = mobility_break_even_bits(&path, &tx(), &mv(k)).unwrap();
            prop_assert!(be.per_bit_current >= be.per_bit_optimal - 1e-12);
            if let Some(t) = be.threshold_bits {
                prop_assert!(t >= 0.0);
            }
        }
    }
}
