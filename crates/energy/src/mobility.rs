//! The locomotion cost model: `E_M(d) = k·d`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::EnergyError;

/// The paper's linear locomotion law `E_M(d) = k·d`.
///
/// The paper (§4) says `k` "denotes the energy consumption for traversing
/// unit distance, and thus is dependent on the path condition and the node
/// mass"; the evaluation sweeps `k ∈ {0.1, 0.5, 1.0}` J/m.
///
/// # Example
///
/// ```rust
/// use imobif_energy::LinearMobilityCost;
///
/// let m = LinearMobilityCost::new(0.5)?;
/// assert_eq!(m.cost(10.0), 5.0);
/// assert_eq!(m.reachable_distance(5.0), 10.0);
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearMobilityCost {
    k: f64,
}

impl LinearMobilityCost {
    /// Creates the model with per-meter cost `k` (J/m).
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidParameter`] unless `k` is finite and
    /// non-negative. `k = 0` models free mobility (useful in tests and as an
    /// upper bound on achievable savings).
    pub fn new(k: f64) -> Result<Self, EnergyError> {
        if !k.is_finite() || k < 0.0 {
            return Err(EnergyError::InvalidParameter { name: "k" });
        }
        Ok(LinearMobilityCost { k })
    }

    /// The per-meter cost `k`, in J/m.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Energy in joules to move `d` meters. `d` must be non-negative; small
    /// negative floating-point noise is clamped to zero.
    #[must_use]
    pub fn cost(&self, d: f64) -> f64 {
        debug_assert!(d >= -1e-9, "negative movement distance {d}");
        self.k * d.max(0.0)
    }

    /// Farthest distance reachable with `budget` joules, in meters:
    /// infinite when movement is free and the budget positive.
    #[must_use]
    pub fn reachable_distance(&self, budget: f64) -> f64 {
        if budget <= 0.0 || self.k == 0.0 {
            if self.k == 0.0 && budget > 0.0 {
                return f64::INFINITY;
            }
            return 0.0;
        }
        budget / self.k
    }
}

impl fmt::Display for LinearMobilityCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E_M(d) = {}·d", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_k() {
        assert!(LinearMobilityCost::new(-0.1).is_err());
        assert!(LinearMobilityCost::new(f64::INFINITY).is_err());
        assert!(LinearMobilityCost::new(0.0).is_ok());
    }

    #[test]
    fn linear_cost() {
        let m = LinearMobilityCost::new(0.5).unwrap();
        assert_eq!(m.cost(0.0), 0.0);
        assert_eq!(m.cost(4.0), 2.0);
    }

    #[test]
    fn free_mobility_reaches_infinitely_far() {
        let m = LinearMobilityCost::new(0.0).unwrap();
        assert_eq!(m.cost(1e6), 0.0);
        assert_eq!(m.reachable_distance(1.0), f64::INFINITY);
        assert_eq!(m.reachable_distance(0.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_reachable_distance_inverts_cost(
            k in 0.01..10.0f64, budget in 0.0..100.0f64,
        ) {
            let m = LinearMobilityCost::new(k).unwrap();
            let d = m.reachable_distance(budget);
            prop_assert!((m.cost(d) - budget).abs() < 1e-9);
        }

        #[test]
        fn prop_cost_monotone(k in 0.0..10.0f64, d1 in 0.0..1e3f64, d2 in 0.0..1e3f64) {
            let m = LinearMobilityCost::new(k).unwrap();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(m.cost(lo) <= m.cost(hi));
        }
    }
}
