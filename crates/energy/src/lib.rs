//! Energy substrate for the iMobif reproduction.
//!
//! The paper's entire cost/benefit calculus is built on two energy laws
//! (paper §4):
//!
//! * **Transmission**: the minimum power to reach distance `d` is
//!   `P(d) = a + b·d^α`, so transmitting `l` bits costs
//!   `E_T(d, l) = l·(a + b·d^α)` — see [`PowerLawModel`].
//! * **Mobility**: moving distance `d` costs `E_M(d) = k·d` —
//!   see [`LinearMobilityCost`].
//!
//! On top of these the crate provides what the framework's assumptions
//! require of each node:
//!
//! * [`Battery`] — residual-energy accounting (Assumption 3: "a node can
//!   measure its residual energy").
//! * [`fit_power_law`] / [`fit_alpha_prime`] — the regression the
//!   maximum-lifetime strategy uses to obtain its exponent `α'`
//!   (paper §3.2: "the parameter α' is obtained through regression on
//!   historical data").
//! * [`mobility_break_even_bits`] — the global-information break-even flow
//!   length of Goldenberg et al. \[6\], which the paper cites as the oracle
//!   its distributed mechanism replaces.
//!
//! Units are uniform across the workspace: meters, joules, bits (as `f64`
//! when fractional arithmetic is required), seconds.
//!
//! # Example
//!
//! ```rust
//! use imobif_energy::{LinearMobilityCost, PowerLawModel};
//!
//! let tx = PowerLawModel::new(1e-7, 1e-9, 2.0)?;
//! let mv = LinearMobilityCost::new(0.5)?;
//! // Sending one megabyte across a 30 m hop:
//! let e_t = tx.energy(30.0, 8_000_000.0);
//! // Walking 10 m:
//! let e_m = mv.cost(10.0);
//! assert!(e_t > e_m); // long flows make mobility worthwhile
//! # Ok::<(), imobif_energy::EnergyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod error;
mod mobility;
mod power;
mod regression;
mod threshold;

pub use battery::Battery;
pub use error::EnergyError;
pub use mobility::LinearMobilityCost;
pub use power::PowerLawModel;
pub use regression::{fit_alpha_prime, fit_power_law, PowerLawFit};
pub use threshold::{mobility_break_even_bits, BreakEven};
