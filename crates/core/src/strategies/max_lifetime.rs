//! Maximizing system lifetime (paper §3.2, Fig. 4 — the paper's novel
//! strategy).

use imobif_geom::Point2;

use crate::{Aggregate, MobilityStrategy, PerfSample, StrategyInputs, StrategyKind};

/// The maximize-system-lifetime mobility strategy.
///
/// Paper Theorem 1: in the lifetime-optimal placement all relays sit on the
/// source–destination line with `P(d_i)/e_i` equal across hops — nodes with
/// more residual energy take proportionally longer hops, so everyone
/// depletes together. Because `P(d) = a + b·d^α` has no closed-form
/// solution for the resulting spacing when `α > 2`, the paper substitutes
/// the power-law approximation
///
/// ```text
/// (d_{i-1})^{α'} / (d_i)^{α'} = e_{i-1} / e_i
/// ```
///
/// with `α'` fit by regression ([`imobif_energy::fit_alpha_prime`]). The
/// localized rule solves `d_{i-1} + d_i = D` and the ratio equation using
/// only the previous node's position/energy and the node's own — all
/// available from the HELLO-fed neighbor table.
///
/// The aggregate function (paper Fig. 4) folds **min** for both metrics:
/// "system lifetime is completely determined by the lifetime of the
/// bottleneck nodes", so the expected residual energy of the path is the
/// *lowest* expected residual energy along it.
///
/// # Example
///
/// ```rust
/// use imobif::{MaxLifetimeStrategy, MobilityStrategy, StrategyInputs};
/// use imobif_geom::Point2;
///
/// let strategy = MaxLifetimeStrategy::new(2.0).unwrap();
/// let inputs = StrategyInputs {
///     prev_position: Point2::new(0.0, 0.0),
///     prev_residual: 1.0,  // weak predecessor…
///     self_position: Point2::new(10.0, 5.0),
///     self_residual: 9.0,  // …strong node
///     next_position: Point2::new(20.0, 0.0),
///     next_residual: 5.0,
/// };
/// let target = strategy.next_position(&inputs).unwrap();
/// // The strong node moves close to the weak predecessor, shortening the
/// // weak node's hop: d_prev/d_self = (1/9)^(1/2) = 1/3 of the 20 m chord.
/// assert!((target.x - 5.0).abs() < 1e-9);
/// assert!(target.y.abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MaxLifetimeStrategy {
    alpha_prime: f64,
    inv_alpha_prime: f64,
}

impl MaxLifetimeStrategy {
    /// Creates the strategy with the regression-fitted exponent `α'`.
    ///
    /// # Errors
    ///
    /// Returns [`imobif_energy::EnergyError::InvalidParameter`] unless
    /// `alpha_prime` is finite and positive.
    pub fn new(alpha_prime: f64) -> Result<Self, imobif_energy::EnergyError> {
        if !alpha_prime.is_finite() || alpha_prime <= 0.0 {
            return Err(imobif_energy::EnergyError::InvalidParameter { name: "alpha_prime" });
        }
        Ok(MaxLifetimeStrategy { alpha_prime, inv_alpha_prime: 1.0 / alpha_prime })
    }

    /// Creates the strategy by fitting `α'` to a transmission model over
    /// the operating distance range (the paper's "regression on historical
    /// data").
    ///
    /// # Errors
    ///
    /// Propagates regression errors from [`imobif_energy::fit_alpha_prime`].
    pub fn fitted(
        model: &imobif_energy::PowerLawModel,
        d_min: f64,
        d_max: f64,
    ) -> Result<Self, imobif_energy::EnergyError> {
        let alpha_prime = imobif_energy::fit_alpha_prime(model, d_min, d_max, 64)?;
        MaxLifetimeStrategy::new(alpha_prime)
    }

    /// The exponent `α'` in use.
    #[must_use]
    pub fn alpha_prime(&self) -> f64 {
        self.alpha_prime
    }
}

impl MobilityStrategy for MaxLifetimeStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::MaxSystemLifetime
    }

    /// Fig. 4: place the node on the prev→next segment, splitting it so
    /// that `d_prev : d_self = e_prev^(1/α') : e_self^(1/α')` — the
    /// predecessor's hop length scales with the predecessor's energy.
    fn next_position(&self, inputs: &StrategyInputs) -> Option<Point2> {
        let chord = inputs.next_position - inputs.prev_position;
        if chord.length() <= 1e-12 {
            return None;
        }
        // Clamp residuals away from zero so a drained neighbor degrades
        // gracefully (hop length → 0) instead of producing NaN.
        let w_prev = inputs.prev_residual.max(1e-12).powf(self.inv_alpha_prime);
        let w_self = inputs.self_residual.max(1e-12).powf(self.inv_alpha_prime);
        let t = w_prev / (w_prev + w_self);
        let target = inputs.prev_position + chord * t;
        target.is_finite().then_some(target)
    }

    fn init_aggregate(&self) -> Aggregate {
        Aggregate::min_identity()
    }

    /// Fig. 4: `min` on both metrics — bottleneck semantics.
    fn fold(&self, aggregate: &mut Aggregate, sample: PerfSample) {
        aggregate.bits_no_move = aggregate.bits_no_move.min(sample.bits_no_move);
        aggregate.resi_no_move = aggregate.resi_no_move.min(sample.resi_no_move);
        aggregate.bits_move = aggregate.bits_move.min(sample.bits_move);
        aggregate.resi_move = aggregate.resi_move.min(sample.resi_move);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inputs(e_prev: f64, e_self: f64) -> StrategyInputs {
        StrategyInputs {
            prev_position: Point2::new(0.0, 0.0),
            prev_residual: e_prev,
            self_position: Point2::new(7.0, 7.0),
            self_residual: e_self,
            next_position: Point2::new(20.0, 0.0),
            next_residual: 5.0,
        }
    }

    #[test]
    fn rejects_bad_alpha_prime() {
        assert!(MaxLifetimeStrategy::new(0.0).is_err());
        assert!(MaxLifetimeStrategy::new(-2.0).is_err());
        assert!(MaxLifetimeStrategy::new(f64::NAN).is_err());
    }

    #[test]
    fn equal_energy_gives_midpoint() {
        let s = MaxLifetimeStrategy::new(2.0).unwrap();
        let t = s.next_position(&inputs(5.0, 5.0)).unwrap();
        assert!((t.x - 10.0).abs() < 1e-9);
        assert!(t.y.abs() < 1e-9);
    }

    #[test]
    fn energy_rich_predecessor_gets_longer_hop() {
        let s = MaxLifetimeStrategy::new(2.0).unwrap();
        // prev has 16x the energy of self: d_prev/d_self = 16^(1/2) = 4,
        // so the node sits at 4/5 of the 20 m chord.
        let t = s.next_position(&inputs(16.0, 1.0)).unwrap();
        assert!((t.x - 16.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_prime_changes_split() {
        let quad = MaxLifetimeStrategy::new(2.0).unwrap();
        let cube = MaxLifetimeStrategy::new(3.0).unwrap();
        // With a larger exponent the energy imbalance translates into a
        // smaller hop-length imbalance: 16^(1/3) < 16^(1/2).
        let tq = quad.next_position(&inputs(16.0, 1.0)).unwrap();
        let tc = cube.next_position(&inputs(16.0, 1.0)).unwrap();
        assert!(tc.x < tq.x);
    }

    #[test]
    fn degenerate_chord_yields_none() {
        let s = MaxLifetimeStrategy::new(2.0).unwrap();
        let i = StrategyInputs {
            prev_position: Point2::new(3.0, 3.0),
            prev_residual: 5.0,
            self_position: Point2::new(7.0, 7.0),
            self_residual: 5.0,
            next_position: Point2::new(3.0, 3.0),
            next_residual: 5.0,
        };
        assert_eq!(s.next_position(&i), None);
    }

    #[test]
    fn zero_energy_neighbor_degrades_gracefully() {
        let s = MaxLifetimeStrategy::new(2.0).unwrap();
        let t = s.next_position(&inputs(0.0, 5.0)).unwrap();
        // Dead predecessor: its hop shrinks to ~0, node moves onto it.
        assert!(t.x < 1e-3);
        assert!(t.is_finite());
    }

    #[test]
    fn fold_is_bottleneck_min() {
        let s = MaxLifetimeStrategy::new(2.0).unwrap();
        let mut agg = s.init_aggregate();
        s.fold(
            &mut agg,
            PerfSample { bits_no_move: 10.0, resi_no_move: 4.0, bits_move: 20.0, resi_move: 6.0 },
        );
        s.fold(
            &mut agg,
            PerfSample { bits_no_move: 15.0, resi_no_move: 2.0, bits_move: 8.0, resi_move: 9.0 },
        );
        assert_eq!(agg.bits_no_move, 10.0);
        assert_eq!(agg.resi_no_move, 2.0);
        assert_eq!(agg.bits_move, 8.0);
        assert_eq!(agg.resi_move, 6.0);
    }

    #[test]
    fn fitted_uses_regression() {
        let model = imobif_energy::PowerLawModel::new(0.0, 1e-9, 2.0).unwrap();
        let s = MaxLifetimeStrategy::fitted(&model, 5.0, 30.0).unwrap();
        assert!((s.alpha_prime() - 2.0).abs() < 1e-6);
    }

    /// Synchronized relaxation converges to the Theorem-1 placement: on the
    /// chord, with `d_i^{α'}/e_i` constant across hops.
    #[test]
    fn relaxation_reaches_energy_proportional_spacing() {
        let alpha_prime = 2.0;
        let s = MaxLifetimeStrategy::new(alpha_prime).unwrap();
        let energies = [4.0, 1.0, 9.0, 2.0, 6.0]; // e_0 .. e_4 (e_4 = destination side)
        let mut pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(8.0, 6.0),
            Point2::new(17.0, -5.0),
            Point2::new(28.0, 4.0),
            Point2::new(40.0, 0.0),
        ];
        for _ in 0..500 {
            let prev_pts = pts.clone();
            for i in 1..pts.len() - 1 {
                let inp = StrategyInputs {
                    prev_position: prev_pts[i - 1],
                    prev_residual: energies[i - 1],
                    self_position: prev_pts[i],
                    self_residual: energies[i],
                    next_position: prev_pts[i + 1],
                    next_residual: energies[i + 1],
                };
                pts[i] = s.next_position(&inp).unwrap();
            }
        }
        let line = imobif_geom::Polyline::new(pts).unwrap();
        assert!(line.max_chord_deviation() < 1e-3);
        // d_i^{α'} / e_i equal across hops (hop i is transmitted by node i).
        let hops = line.hop_lengths();
        let ratios: Vec<f64> =
            hops.iter().zip(energies.iter()).map(|(d, e)| d.powf(alpha_prime) / e).collect();
        let (min, max) =
            ratios.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        assert!((max - min) / max < 0.01, "ratios not equalized: {ratios:?}");
    }

    proptest! {
        /// The split parameter always lands strictly inside the chord for
        /// positive energies.
        #[test]
        fn prop_target_is_inside_chord(
            e_prev in 0.01..100.0f64, e_self in 0.01..100.0f64, alpha in 1.0..4.0f64,
        ) {
            let s = MaxLifetimeStrategy::new(alpha).unwrap();
            let t = s.next_position(&inputs(e_prev, e_self)).unwrap();
            prop_assert!(t.x > 0.0 && t.x < 20.0);
            prop_assert!(t.y.abs() < 1e-9);
        }

        /// Monotonicity: increasing the predecessor's energy moves the
        /// target farther from the predecessor.
        #[test]
        fn prop_split_monotone_in_prev_energy(
            e1 in 0.1..50.0f64, delta in 0.1..50.0f64,
        ) {
            let s = MaxLifetimeStrategy::new(2.0).unwrap();
            let t1 = s.next_position(&inputs(e1, 5.0)).unwrap();
            let t2 = s.next_position(&inputs(e1 + delta, 5.0)).unwrap();
            prop_assert!(t2.x > t1.x);
        }
    }
}
