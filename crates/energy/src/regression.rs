//! Power-law regression: fitting `y ≈ c·x^γ` from samples.
//!
//! The maximum-lifetime strategy (paper §3.2) cannot solve
//! `(a + b·d₁^α)/(a + b·d₂^α) = e₁/e₂` in closed form for `α > 2`, so the
//! paper substitutes the approximation `(d₁)^{α'}/(d₂)^{α'} = e₁/e₂` "where
//! the parameter α' is obtained through regression on historical data". This
//! module is that regression: an ordinary least-squares fit in log–log
//! space.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{EnergyError, PowerLawModel};

/// Result of fitting `y ≈ c·x^γ` to samples, by least squares on
/// `ln y = ln c + γ·ln x`.
///
/// # Example
///
/// ```rust
/// use imobif_energy::fit_power_law;
///
/// // Perfect cubic data recovers γ = 3 exactly.
/// let samples: Vec<(f64, f64)> = (1..10).map(|i| {
///     let x = i as f64;
///     (x, 5.0 * x.powi(3))
/// }).collect();
/// let fit = fit_power_law(&samples)?;
/// assert!((fit.exponent - 3.0).abs() < 1e-9);
/// assert!((fit.coefficient - 5.0).abs() < 1e-9);
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawFit {
    /// The multiplicative coefficient `c`.
    pub coefficient: f64,
    /// The exponent `γ`.
    pub exponent: f64,
    /// Coefficient of determination (R²) of the fit in log–log space;
    /// `1.0` for perfectly power-law data.
    pub r_squared: f64,
}

impl PowerLawFit {
    /// Evaluates the fitted law at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coefficient * x.powf(self.exponent)
    }
}

impl fmt::Display for PowerLawFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.4e}·x^{:.4} (R² = {:.4})",
            self.coefficient, self.exponent, self.r_squared
        )
    }
}

/// Fits `y ≈ c·x^γ` to `(x, y)` samples with strictly positive coordinates.
///
/// Samples with non-positive or non-finite coordinates are ignored (a node's
/// "historical data" may contain junk readings; the regression must be
/// robust to them).
///
/// # Errors
///
/// Returns [`EnergyError::InsufficientSamples`] when fewer than two usable
/// samples with distinct `x` remain.
pub fn fit_power_law(samples: &[(f64, f64)]) -> Result<PowerLawFit, EnergyError> {
    let logs: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0 && x.is_finite() && y.is_finite())
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return Err(EnergyError::InsufficientSamples);
    }
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = logs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let syy: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    if sxx <= f64::EPSILON {
        // All x identical: the exponent is unidentifiable.
        return Err(EnergyError::InsufficientSamples);
    }
    let exponent = sxy / sxx;
    let intercept = mean_y - exponent * mean_x;
    let r_squared = if syy <= f64::EPSILON { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Ok(PowerLawFit { coefficient: intercept.exp(), exponent, r_squared })
}

/// Obtains the paper's `α'` for a transmission energy model by regressing
/// `P(d)` against `d` over the operating distance range `[d_min, d_max]`
/// with `n` evenly spaced samples.
///
/// In a deployment the samples would come from the node's power–distance
/// history; here they come from the model itself, which is equivalent once
/// the table has converged.
///
/// # Errors
///
/// Returns [`EnergyError::InvalidParameter`] for an empty or inverted
/// distance range or `n < 2`, and propagates
/// [`EnergyError::InsufficientSamples`] from the underlying fit.
///
/// # Example
///
/// ```rust
/// use imobif_energy::{fit_alpha_prime, PowerLawModel};
///
/// let model = PowerLawModel::paper_default(2.0)?;
/// let alpha_prime = fit_alpha_prime(&model, 5.0, 30.0, 64)?;
/// // With a non-zero constant term `a`, the effective exponent is below α.
/// assert!(alpha_prime > 1.0 && alpha_prime < 2.0);
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
pub fn fit_alpha_prime(
    model: &PowerLawModel,
    d_min: f64,
    d_max: f64,
    n: usize,
) -> Result<f64, EnergyError> {
    if !(d_min.is_finite() && d_max.is_finite()) || d_min <= 0.0 || d_max <= d_min {
        return Err(EnergyError::InvalidParameter { name: "distance range" });
    }
    if n < 2 {
        return Err(EnergyError::InvalidParameter { name: "n" });
    }
    let samples: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let d = d_min + (d_max - d_min) * i as f64 / (n - 1) as f64;
            (d, model.energy_per_bit(d))
        })
        .collect();
    Ok(fit_power_law(&samples)?.exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerLawModel;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_power_law() {
        let samples: Vec<(f64, f64)> =
            (1..20).map(|i| (i as f64, 2.5 * (i as f64).powf(1.7))).collect();
        let fit = fit_power_law(&samples).unwrap();
        assert!((fit.exponent - 1.7).abs() < 1e-9);
        assert!((fit.coefficient - 2.5).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.eval(4.0) - 2.5 * 4.0f64.powf(1.7)).abs() < 1e-9);
    }

    #[test]
    fn ignores_junk_samples() {
        let mut samples: Vec<(f64, f64)> =
            (1..10).map(|i| (i as f64, (i as f64).powi(2))).collect();
        samples.push((-1.0, 5.0));
        samples.push((3.0, -2.0));
        samples.push((f64::NAN, 1.0));
        samples.push((0.0, 0.0));
        let fit = fit_power_law(&samples).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        assert_eq!(fit_power_law(&[]).unwrap_err(), EnergyError::InsufficientSamples);
        assert_eq!(fit_power_law(&[(1.0, 1.0)]).unwrap_err(), EnergyError::InsufficientSamples);
        // Two samples at the same x: exponent unidentifiable.
        assert_eq!(
            fit_power_law(&[(2.0, 1.0), (2.0, 3.0)]).unwrap_err(),
            EnergyError::InsufficientSamples
        );
    }

    #[test]
    fn alpha_prime_between_one_and_alpha() {
        for alpha in [2.0, 3.0] {
            let model = PowerLawModel::paper_default(alpha).unwrap();
            let ap = fit_alpha_prime(&model, 5.0, 30.0, 64).unwrap();
            assert!(ap > 0.5, "alpha'={ap} too small for alpha={alpha}");
            assert!(ap < alpha, "alpha'={ap} should be below alpha={alpha}");
        }
    }

    #[test]
    fn alpha_prime_approaches_alpha_without_constant_term() {
        let model = PowerLawModel::new(0.0, 1e-9, 2.0).unwrap();
        let ap = fit_alpha_prime(&model, 5.0, 30.0, 64).unwrap();
        assert!((ap - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_prime_validates_inputs() {
        let model = PowerLawModel::paper_default(2.0).unwrap();
        assert!(fit_alpha_prime(&model, 0.0, 30.0, 10).is_err());
        assert!(fit_alpha_prime(&model, 10.0, 5.0, 10).is_err());
        assert!(fit_alpha_prime(&model, 5.0, 30.0, 1).is_err());
    }

    #[test]
    fn display_mentions_r_squared() {
        let fit = fit_power_law(&[(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]).unwrap();
        assert!(fit.to_string().contains("R²"));
    }

    proptest! {
        #[test]
        fn prop_fit_recovers_arbitrary_power_laws(
            c in 0.1..10.0f64, gamma in 0.2..4.0f64,
        ) {
            let samples: Vec<(f64, f64)> =
                (1..16).map(|i| (i as f64, c * (i as f64).powf(gamma))).collect();
            let fit = fit_power_law(&samples).unwrap();
            prop_assert!((fit.exponent - gamma).abs() < 1e-6);
            prop_assert!((fit.coefficient - c).abs() / c < 1e-6);
        }

        #[test]
        fn prop_noisy_fit_is_bracketed(
            gamma in 1.0..3.0f64, noise_seed in 0u64..100,
        ) {
            // Deterministic multiplicative "noise" in [0.9, 1.1].
            let samples: Vec<(f64, f64)> = (1..32)
                .map(|i| {
                    let x = i as f64;
                    let wobble = 0.9 + 0.2 * (((i as u64 * 2654435761 + noise_seed) % 100) as f64 / 99.0);
                    (x, x.powf(gamma) * wobble)
                })
                .collect();
            let fit = fit_power_law(&samples).unwrap();
            prop_assert!((fit.exponent - gamma).abs() < 0.2);
        }
    }
}
