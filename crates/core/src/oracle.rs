//! The global-information oracle the paper contrasts iMobif against.
//!
//! Paper §1: in Goldenberg et al. [6] "it is possible to numerically compare
//! the mobility benefit with the cost, and execute controlled mobility only
//! when the benefit exceeds that cost. … this threshold value is calculated
//! from simulation parameters using global information. In this paper we
//! extend that work by designing algorithms and protocols for the
//! collection and distribution of the benefit/cost information to enable
//! local decision making." The oracle here *is* that global calculation: a
//! global-information reference to compare the distributed mechanism
//! against, not a bound on what it can reach. It moves every relay or
//! none, and a schedule that moves some relays part of the way can spend
//! less than either.

use imobif_energy::{mobility_break_even_bits, EnergyError, LinearMobilityCost, PowerLawModel};
use imobif_geom::{Point2, Polyline};

/// Decides, with global information, whether enabling the
/// minimum-total-energy mobility strategy pays off for a flow of
/// `flow_bits` bits along `path_positions`.
///
/// Returns the decision together with the break-even threshold.
///
/// # Errors
///
/// Propagates [`EnergyError`] from the break-even analysis (degenerate
/// paths).
///
/// # Example
///
/// ```rust
/// use imobif::oracle_decision;
/// use imobif_energy::{LinearMobilityCost, PowerLawModel};
/// use imobif_geom::Point2;
///
/// let path = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(20.0, 18.0),
///     Point2::new(60.0, 0.0),
/// ];
/// let tx = PowerLawModel::paper_default(2.0)?;
/// let mv = LinearMobilityCost::new(0.5)?;
/// let short = oracle_decision(&path, &tx, &mv, 10_000.0)?;
/// let long = oracle_decision(&path, &tx, &mv, 1e9)?;
/// assert!(!short.enable_mobility, "10 kbit cannot amortize the walk");
/// assert!(long.enable_mobility, "1 Gbit easily amortizes it");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn oracle_decision(
    path_positions: &[Point2],
    tx: &PowerLawModel,
    mobility: &LinearMobilityCost,
    flow_bits: f64,
) -> Result<OracleDecision, EnergyError> {
    let path = Polyline::new(path_positions.to_vec())
        .map_err(|_| EnergyError::InvalidParameter { name: "path_positions" })?;
    let break_even = mobility_break_even_bits(&path, tx, mobility)?;
    Ok(OracleDecision {
        enable_mobility: break_even.is_worthwhile(flow_bits),
        threshold_bits: break_even.threshold_bits,
        expected_net_benefit: break_even.net_benefit(flow_bits),
    })
}

/// The oracle's verdict for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleDecision {
    /// Whether mobility should be enabled for this flow.
    pub enable_mobility: bool,
    /// The break-even flow length in bits (`None` when the path is already
    /// optimal).
    pub threshold_bits: Option<f64>,
    /// Net energy saved (positive) or wasted (negative) by moving, in
    /// joules, assuming an instantaneous move to the optimum.
    pub expected_net_benefit: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use imobif_energy::{LinearMobilityCost, PowerLawModel};

    fn models() -> (PowerLawModel, LinearMobilityCost) {
        (PowerLawModel::paper_default(2.0).unwrap(), LinearMobilityCost::new(0.5).unwrap())
    }

    fn bent() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(15.0, 14.0),
            Point2::new(45.0, -10.0),
            Point2::new(60.0, 0.0),
        ]
    }

    #[test]
    fn decision_flips_at_threshold() {
        let (tx, mv) = models();
        let d = oracle_decision(&bent(), &tx, &mv, 1.0).unwrap();
        let t = d.threshold_bits.unwrap();
        assert!(!d.enable_mobility);
        let below = oracle_decision(&bent(), &tx, &mv, t * 0.99).unwrap();
        let above = oracle_decision(&bent(), &tx, &mv, t * 1.01).unwrap();
        assert!(!below.enable_mobility);
        assert!(above.enable_mobility);
        assert!(below.expected_net_benefit < 0.0);
        assert!(above.expected_net_benefit > 0.0);
    }

    #[test]
    fn straight_path_never_enables() {
        let (tx, mv) = models();
        let straight = vec![Point2::new(0.0, 0.0), Point2::new(20.0, 0.0), Point2::new(40.0, 0.0)];
        let d = oracle_decision(&straight, &tx, &mv, 1e12).unwrap();
        assert!(!d.enable_mobility);
        assert!(d.threshold_bits.is_none());
    }

    #[test]
    fn degenerate_path_is_an_error() {
        let (tx, mv) = models();
        assert!(oracle_decision(&[Point2::ORIGIN], &tx, &mv, 1e6).is_err());
    }
}
