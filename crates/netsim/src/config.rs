//! Simulator configuration.

use imobif_energy::{LinearMobilityCost, PowerLawModel};
use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimError};

/// Configuration of the HELLO beaconing subsystem.
///
/// Paper §2: "each node periodically sends HELLO messages to probe and
/// collect neighbor information. In iMobif, a node … embeds its location and
/// residual energy information into these HELLO messages."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HelloConfig {
    /// Beacon period.
    pub period: SimDuration,
    /// Beacon size in bits.
    pub bits: u64,
    /// Neighbor-table entry lifetime; entries older than this are ignored.
    pub ttl: SimDuration,
    /// Whether beacon transmissions are charged to the battery. The paper's
    /// energy ratios compare data-plane energy only (the HELLO cost is
    /// identical across the compared approaches), so this defaults to off.
    pub charge_energy: bool,
}

impl Default for HelloConfig {
    fn default() -> Self {
        HelloConfig {
            period: SimDuration::from_secs(1),
            bits: 512,
            ttl: SimDuration::from_secs(3),
            charge_energy: false,
        }
    }
}

/// Configuration of the simulation kernel, including the two energy laws
/// every node is charged by (paper §4).
///
/// # Example
///
/// ```rust
/// use imobif_netsim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.range, 30.0);
/// assert_eq!(cfg.tx.alpha(), 2.0);
/// assert_eq!(cfg.mobility.k(), 0.5);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Radio range in meters (paper §4: 30 m, see DESIGN.md §Calibration).
    pub range: f64,
    /// Link bit-rate used to compute per-packet transmission delay, in
    /// bits/second. The paper's flow rate is 8 kbit/s application-level;
    /// the link itself is faster.
    pub link_rate_bps: f64,
    /// Fixed per-hop processing/propagation latency added to each delivery.
    pub hop_latency: SimDuration,
    /// HELLO beaconing parameters.
    pub hello: HelloConfig,
    /// Transmission energy law `E_T(d, l) = l·(a + b·d^α)`.
    pub tx: PowerLawModel,
    /// Locomotion energy law `E_M(d) = k·d`.
    pub mobility: LinearMobilityCost,
}

impl Default for SimConfig {
    /// The paper's setup: 30 m range, `a = 10⁻⁷`, `b = 10⁻⁸`, `α = 2` and
    /// `k = 0.5` J/m.
    fn default() -> Self {
        SimConfig {
            range: 30.0,
            link_rate_bps: 1_000_000.0,
            hop_latency: SimDuration::from_millis(1),
            hello: HelloConfig::default(),
            tx: PowerLawModel::paper_default(2.0).expect("the paper's constants are valid"),
            mobility: LinearMobilityCost::new(0.5).expect("the paper's k is valid"),
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the first offending field:
    /// `range` and `link_rate_bps` must be positive and finite, and the
    /// HELLO period non-zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.range.is_finite() || self.range <= 0.0 {
            return Err(SimError::InvalidConfig { field: "range" });
        }
        if !self.link_rate_bps.is_finite() || self.link_rate_bps <= 0.0 {
            return Err(SimError::InvalidConfig { field: "link_rate_bps" });
        }
        if self.hello.period == SimDuration::ZERO {
            return Err(SimError::InvalidConfig { field: "hello.period" });
        }
        Ok(())
    }

    /// Transmission delay for a packet of `bits` bits (serialization time
    /// plus the fixed hop latency).
    #[must_use]
    pub fn tx_delay(&self, bits: u64) -> SimDuration {
        SimDuration::from_secs_f64(bits as f64 / self.link_rate_bps) + self.hop_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = SimConfig { range: 0.0, ..Default::default() };
        assert_eq!(cfg.validate().unwrap_err(), SimError::InvalidConfig { field: "range" });
        cfg.range = 30.0;
        cfg.link_rate_bps = f64::NAN;
        assert_eq!(cfg.validate().unwrap_err(), SimError::InvalidConfig { field: "link_rate_bps" });
        cfg.link_rate_bps = 1e6;
        cfg.hello.period = SimDuration::ZERO;
        assert_eq!(cfg.validate().unwrap_err(), SimError::InvalidConfig { field: "hello.period" });
    }

    #[test]
    fn tx_delay_scales_with_bits() {
        let cfg = SimConfig::default();
        let short = cfg.tx_delay(1000);
        let long = cfg.tx_delay(8000);
        assert!(long > short);
        // 8000 bits at 1 Mbps = 8 ms, plus 1 ms hop latency.
        assert_eq!(long, SimDuration::from_millis(9));
    }
}
