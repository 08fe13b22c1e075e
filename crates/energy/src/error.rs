//! Error type for energy-model operations.

use std::error::Error;
use std::fmt;

/// Errors produced by energy models and accounting.
///
/// # Example
///
/// ```rust
/// use imobif_energy::{Battery, EnergyError};
///
/// let mut battery = Battery::new(1.0)?;
/// let err = battery.try_consume(5.0).unwrap_err();
/// assert!(matches!(err, EnergyError::Depleted { .. }));
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum EnergyError {
    /// A battery could not supply the requested energy.
    Depleted {
        /// Joules requested by the operation.
        required: f64,
        /// Joules actually available.
        available: f64,
    },
    /// A model parameter was invalid (negative, NaN, …).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// A regression was attempted on too few or degenerate samples.
    InsufficientSamples,
    /// A count parameter lay outside the range a run admits.
    OutOfRange {
        /// Name of the offending parameter.
        name: &'static str,
        /// The value given.
        value: u64,
        /// Smallest admitted value.
        min: u64,
        /// Largest admitted value.
        max: u64,
    },
    /// A parameter asks for more simulated time than a run admits.
    SimTimeTooLong {
        /// Name of the offending parameter.
        name: &'static str,
        /// The simulated seconds it asks for.
        secs: f64,
        /// The most simulated seconds admitted.
        max_secs: f64,
    },
}

impl fmt::Display for EnergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergyError::Depleted { required, available } => {
                write!(f, "battery depleted: {required:.6} J required, {available:.6} J available")
            }
            EnergyError::InvalidParameter { name } => {
                write!(f, "invalid model parameter `{name}`")
            }
            EnergyError::InsufficientSamples => {
                write!(f, "regression needs at least two distinct positive samples")
            }
            EnergyError::OutOfRange { name, value, min, max } => {
                write!(f, "parameter `{name}` = {value} lies outside {min}..={max}")
            }
            EnergyError::SimTimeTooLong { name, secs, max_secs } => {
                write!(
                    f,
                    "parameter `{name}` asks for {secs:e} simulated seconds, above the limit of \
                     {max_secs:e}"
                )
            }
        }
    }
}

impl Error for EnergyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EnergyError::Depleted { required: 2.0, available: 1.0 };
        let msg = e.to_string();
        assert!(msg.contains("2.0"));
        assert!(msg.contains("1.0"));
        assert!(EnergyError::InvalidParameter { name: "alpha" }.to_string().contains("alpha"));
        assert!(!EnergyError::InsufficientSamples.to_string().is_empty());
        let range = EnergyError::OutOfRange { name: "flows", value: 0, min: 1, max: 9 };
        assert_eq!(range.to_string(), "parameter `flows` = 0 lies outside 1..=9");
        let long =
            EnergyError::SimTimeTooLong { name: "churn.mean_secs", secs: 1e300, max_secs: 1e9 };
        assert_eq!(
            long.to_string(),
            "parameter `churn.mean_secs` asks for 1e300 simulated seconds, above the limit of 1e9"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnergyError>();
    }
}
