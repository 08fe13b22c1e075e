//! The transmission energy model: `E_T(d, l) = l · (a + b·d^α)`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::EnergyError;

/// The analytic first-order radio model `P(d) = a + b·d^α` (J/bit).
///
/// The paper (§4) interprets `P(d)` as joules per bit, so that transmitting
/// `l` bits over a hop of length `d` costs `E_T(d, l) = l·P(d)`. `P` is
/// monotone non-decreasing in `d` for `d ≥ 0`.
///
/// Paper §4 sets `a = 10⁻⁷ J/bit` and varies `α ∈ {2, 3}`; the OCR dropped
/// `b`'s exponent, and this workspace calibrates `b = 10⁻⁸ J·m^−α/bit` so
/// the paper's 1 MB mean flow straddles the mobility break-even threshold
/// (see DESIGN.md § Calibration).
///
/// # Example
///
/// ```rust
/// use imobif_energy::PowerLawModel;
///
/// let m = PowerLawModel::new(1e-7, 1e-9, 2.0)?;
/// assert_eq!(m.energy_per_bit(0.0), 1e-7);
/// assert!(m.energy_per_bit(30.0) > m.energy_per_bit(10.0));
/// // E_T(30 m, 8000 bits) = 8000 · (1e-7 + 1e-9·900)
/// assert!((m.energy(30.0, 8000.0) - 8000.0 * 1e-6).abs() < 1e-12);
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawModel {
    a: f64,
    b: f64,
    alpha: f64,
}

impl PowerLawModel {
    /// Creates the model `P(d) = a + b·d^alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidParameter`] unless `a ≥ 0`, `b ≥ 0`,
    /// `a + b > 0` and `alpha ≥ 1`, all finite.
    pub fn new(a: f64, b: f64, alpha: f64) -> Result<Self, EnergyError> {
        if !a.is_finite() || a < 0.0 {
            return Err(EnergyError::InvalidParameter { name: "a" });
        }
        if !b.is_finite() || b < 0.0 {
            return Err(EnergyError::InvalidParameter { name: "b" });
        }
        if a + b <= 0.0 {
            return Err(EnergyError::InvalidParameter { name: "a+b" });
        }
        if !alpha.is_finite() || alpha < 1.0 {
            return Err(EnergyError::InvalidParameter { name: "alpha" });
        }
        Ok(PowerLawModel { a, b, alpha })
    }

    /// The paper's default model with the given path-loss exponent:
    /// `a = 10⁻⁷`, `b = 10⁻⁸` (calibrated; DESIGN.md § Calibration).
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidParameter`] if `alpha < 1`.
    pub fn paper_default(alpha: f64) -> Result<Self, EnergyError> {
        PowerLawModel::new(1e-7, 1e-8, alpha)
    }

    /// The distance-independent term `a`, in J/bit.
    #[must_use]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The distance-dependent coefficient `b`, in J·m^−α/bit.
    #[must_use]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The path-loss exponent `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Energy to transmit one bit across distance `d` meters, in joules:
    /// `P(d)`. `d` must be non-negative; small negative floating-point
    /// noise is clamped to zero.
    #[must_use]
    pub fn energy_per_bit(&self, d: f64) -> f64 {
        debug_assert!(d >= -1e-9, "negative transmission distance {d}");
        let d = d.max(0.0);
        // The paper's exponents are small integers and this runs for every
        // packet hop: avoid the libm `powf` call for them.
        let d_alpha = if self.alpha == 2.0 {
            d * d
        } else if self.alpha == 3.0 {
            d * d * d
        } else if self.alpha == 4.0 {
            (d * d) * (d * d)
        } else {
            d.powf(self.alpha)
        };
        self.a + self.b * d_alpha
    }

    /// Energy to transmit `bits` bits across distance `d`, in joules: the
    /// paper's `E_T(d, l)`.
    #[must_use]
    pub fn energy(&self, d: f64, bits: f64) -> f64 {
        bits * self.energy_per_bit(d)
    }

    /// Number of bits a node with `residual` joules can push across a hop
    /// of length `d` — the paper's "number of sustainable data bits" metric
    /// (§2), computed in Fig. 1 as `e / E_T(d, 1)`.
    ///
    /// Returns `0.0` for a non-positive residual and `f64::INFINITY` when
    /// the per-bit energy is zero.
    #[must_use]
    pub fn sustainable_bits(&self, residual: f64, d: f64) -> f64 {
        if residual <= 0.0 {
            return 0.0;
        }
        let per_bit = self.energy_per_bit(d);
        if per_bit <= 0.0 {
            f64::INFINITY
        } else {
            residual / per_bit
        }
    }
}

impl fmt::Display for PowerLawModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P(d) = {:.3e} + {:.3e}·d^{}", self.a, self.b, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(PowerLawModel::new(-1.0, 1e-9, 2.0).is_err());
        assert!(PowerLawModel::new(1e-7, -1.0, 2.0).is_err());
        assert!(PowerLawModel::new(1e-7, 1e-9, 0.5).is_err());
        assert!(PowerLawModel::new(f64::NAN, 1e-9, 2.0).is_err());
        assert!(PowerLawModel::new(0.0, 0.0, 2.0).is_err());
        assert!(PowerLawModel::new(0.0, 1e-9, 2.0).is_ok());
    }

    #[test]
    fn energy_matches_formula() {
        let m = PowerLawModel::paper_default(2.0).unwrap();
        let per_bit = m.energy_per_bit(30.0);
        assert!((per_bit - (1e-7 + 1e-8 * 900.0)).abs() < 1e-18);
        assert!((m.energy(30.0, 1000.0) - 1000.0 * per_bit).abs() < 1e-12);
    }

    #[test]
    fn alpha_three_grows_faster() {
        let m2 = PowerLawModel::paper_default(2.0).unwrap();
        let m3 = PowerLawModel::paper_default(3.0).unwrap();
        assert!(m3.energy_per_bit(30.0) > m2.energy_per_bit(30.0));
        // Below one meter the cubic term is smaller than the quadratic one.
        assert!(m3.energy_per_bit(0.5) < m2.energy_per_bit(0.5));
    }

    #[test]
    fn sustainable_bits_inverse_of_per_bit() {
        let m = PowerLawModel::paper_default(2.0).unwrap();
        let bits = m.sustainable_bits(1.0, 30.0);
        assert!((m.energy(30.0, bits) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sustainable_bits_edge_cases() {
        let m = PowerLawModel::paper_default(2.0).unwrap();
        assert_eq!(m.sustainable_bits(0.0, 30.0), 0.0);
        assert_eq!(m.sustainable_bits(-1.0, 30.0), 0.0);
    }

    #[test]
    fn display_shows_parameters() {
        let m = PowerLawModel::paper_default(2.0).unwrap();
        let s = m.to_string();
        assert!(s.contains("d^2"));
    }

    proptest! {
        #[test]
        fn prop_monotone_in_distance(
            d1 in 0.0..1e3f64, d2 in 0.0..1e3f64, alpha in 1.0..4.0f64,
        ) {
            let m = PowerLawModel::paper_default(alpha).unwrap();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(m.energy_per_bit(lo) <= m.energy_per_bit(hi));
        }

        #[test]
        fn prop_energy_linear_in_bits(
            d in 0.0..1e3f64, bits in 0.0..1e7f64,
        ) {
            let m = PowerLawModel::paper_default(2.0).unwrap();
            let e1 = m.energy(d, bits);
            let e2 = m.energy(d, 2.0 * bits);
            prop_assert!((e2 - 2.0 * e1).abs() <= 1e-9 * e2.abs().max(1.0));
        }

        #[test]
        fn prop_sustainable_bits_monotone_in_residual(
            d in 0.1..1e3f64, e1 in 0.0..100.0f64, e2 in 0.0..100.0f64,
        ) {
            let m = PowerLawModel::paper_default(2.0).unwrap();
            let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
            prop_assert!(m.sustainable_bits(lo, d) <= m.sustainable_bits(hi, d));
        }
    }
}
