//! Scenario configuration: every constant of the paper's evaluation in one
//! place (see DESIGN.md § Calibration choices for how OCR-degraded values
//! were re-derived).

use imobif_energy::{EnergyError, LinearMobilityCost, PowerLawModel};
use imobif_netsim::{SimConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// Largest replicate count (`flows`) one run accepts.
pub const MAX_FLOWS: u64 = 100_000;

/// Largest arena a scenario may draw (`node_count`).
pub const MAX_NODES: usize = 1_000_000;

/// Most simulated seconds one spec value may ask for: a packet interval, a
/// churn mean, or a flow's mean paced time (about 32 years). Exponential
/// draws reach about 37 times their mean, and 37 × 10⁹ s still lies 500
/// times inside the ~1.8 × 10¹³ s a `SimTime` holds.
pub const MAX_SIM_SECS: f64 = 1e9;

/// Checks a replicate count against `1..=MAX_FLOWS`.
///
/// # Errors
///
/// Returns [`EnergyError::OutOfRange`] naming `flows` and the limit.
pub fn check_flows(flows: u64) -> Result<u64, EnergyError> {
    if (1..=MAX_FLOWS).contains(&flows) {
        Ok(flows)
    } else {
        Err(EnergyError::OutOfRange { name: "flows", value: flows, min: 1, max: MAX_FLOWS })
    }
}

/// Checks that `secs` simulated seconds, asked for by the parameter
/// `name`, lie within [`MAX_SIM_SECS`].
///
/// # Errors
///
/// Returns [`EnergyError::SimTimeTooLong`] naming `name` and the limit.
pub(crate) fn check_sim_secs(name: &'static str, secs: f64) -> Result<(), EnergyError> {
    if secs <= MAX_SIM_SECS {
        Ok(())
    } else {
        Err(EnergyError::SimTimeTooLong { name, secs, max_secs: MAX_SIM_SECS })
    }
}

/// How node batteries are initialized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnergyInit {
    /// All nodes start with the same energy (J). The energy-consumption
    /// experiments use an effectively unlimited battery so that nobody dies.
    Fixed(f64),
    /// Uniform in `[lo, hi]` joules — the lifetime experiments use low
    /// random batteries ("we intentionally set low residual energy to
    /// produce instances with short system lifetime").
    Uniform(f64, f64),
    /// Heterogeneous-battery population: each node independently gets the
    /// `high`-joule battery with probability `high_fraction`, else the
    /// `low`-joule one — mains-powered vs coin-cell mixes the paper never
    /// tried (scenario-family extension).
    TwoTier {
        /// Battery of the well-provisioned tier (J).
        high: f64,
        /// Battery of the constrained tier (J); must be below `high`.
        low: f64,
        /// Probability a node lands in the high tier, in `[0, 1]`.
        high_fraction: f64,
    },
}

impl EnergyInit {
    /// Bit-exact memo-key encoding: `(discriminant, param bits…)`. Every
    /// float enters via `to_bits`, so near-miss configs never alias.
    #[must_use]
    pub fn key(&self) -> (u8, u64, u64, u64) {
        match *self {
            EnergyInit::Fixed(e) => (0, e.to_bits(), 0, 0),
            EnergyInit::Uniform(lo, hi) => (1, lo.to_bits(), hi.to_bits(), 0),
            EnergyInit::TwoTier { high, low, high_fraction } => {
                (2, high.to_bits(), low.to_bits(), high_fraction.to_bits())
            }
        }
    }
}

/// How node positions are generated — the pluggable topology families
/// behind [`crate::topology::sample_positions`]. `Uniform` reproduces the
/// paper's deployment bit-for-bit; the others are scenario-family
/// extensions (clustered/urban hotspots, small-world lattices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyFamily {
    /// Independent uniform placement over the square arena (the paper's
    /// deployment).
    Uniform,
    /// Urban hotspots: `clusters` cluster centers drawn uniformly, then
    /// each node picks a center and scatters around it with a Gaussian of
    /// standard deviation `spread` meters (clamped to the arena).
    Clustered {
        /// Number of hotspot centers (≥ 1).
        clusters: u32,
        /// Gaussian scatter around a center, in meters.
        spread: f64,
    },
    /// Small-world structure (Lee & Holme): nodes sit on a jittered grid
    /// lattice, and each node is independently rewired — resampled
    /// uniformly over the arena — with probability `rewire`. `rewire = 0`
    /// is a pure lattice, `rewire = 1` is statistically uniform.
    SmallWorld {
        /// Per-node rewiring probability, in `[0, 1]`.
        rewire: f64,
    },
}

impl TopologyFamily {
    /// Bit-exact memo-key encoding (see [`EnergyInit::key`]).
    #[must_use]
    pub fn key(&self) -> (u8, u64, u64) {
        match *self {
            TopologyFamily::Uniform => (0, 0, 0),
            TopologyFamily::Clustered { clusters, spread } => {
                (1, u64::from(clusters), spread.to_bits())
            }
            TopologyFamily::SmallWorld { rewire } => (2, rewire.to_bits(), 0),
        }
    }
}

/// Node-failure (churn) schedule applied to an instance's relays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnModel {
    /// No scheduled failures — the paper's setting.
    None,
    /// DTN-style intermittent infrastructure (Urgaonkar & Neely): each
    /// relay independently fails after an exponentially distributed time
    /// with mean `mean_secs`, lowered to a kernel kill event at instance
    /// setup. Endpoints never churn (a dead source or destination makes
    /// the flow meaningless, not merely degraded).
    RelayExponential {
        /// Mean time to failure per relay, in seconds.
        mean_secs: f64,
    },
}

impl ChurnModel {
    /// Bit-exact memo-key encoding (see [`EnergyInit::key`]).
    #[must_use]
    pub fn key(&self) -> (u8, u64) {
        match *self {
            ChurnModel::None => (0, 0),
            ChurnModel::RelayExponential { mean_secs } => (1, mean_secs.to_bits()),
        }
    }
}

/// How a scalar field of [`ScenarioConfig`] is spelled in a spec.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// A non-negative integer that must fit a `usize`.
    Count,
    /// A non-negative integer.
    Int,
    /// A number; written with `{:?}`, which round-trips.
    Float,
    /// `true` or `false`.
    Bool,
}

/// One scalar field of [`ScenarioConfig`]: its spec key, its kind, and
/// how to read and write its exact bits (a float's `to_bits`, an integer
/// itself, a bool as 0 or 1).
pub(crate) struct Scalar {
    pub(crate) key: &'static str,
    pub(crate) kind: Kind,
    pub(crate) read: fn(&ScenarioConfig) -> u64,
    pub(crate) write: fn(&mut ScenarioConfig, u64),
}

macro_rules! scalar {
    ($field:ident, Count) => {
        scalar!($field, Count, |c| c.$field as u64, |c, v| c.$field = v as usize)
    };
    ($field:ident, Int) => {
        scalar!($field, Int, |c| c.$field, |c, v| c.$field = v)
    };
    ($field:ident, Float) => {
        scalar!($field, Float, |c| c.$field.to_bits(), |c, v| c.$field = f64::from_bits(v))
    };
    ($field:ident, Bool) => {
        scalar!($field, Bool, |c| u64::from(c.$field), |c, v| c.$field = v != 0)
    };
    ($field:ident, $kind:ident, $read:expr, $write:expr) => {
        Scalar { key: stringify!($field), kind: Kind::$kind, read: $read, write: $write }
    };
}

/// Every scalar field of [`ScenarioConfig`], in the canonical writer's
/// order. The spec parser, the canonical writer and [`ConfigKey`] all read
/// this table; the energy, topology and churn sub-tables are written and
/// keyed by their own types.
pub(crate) static SCALARS: [Scalar; 14] = [
    scalar!(node_count, Count),
    scalar!(area_side, Float),
    scalar!(range, Float),
    scalar!(a, Float),
    scalar!(b, Float),
    scalar!(alpha, Float),
    scalar!(k, Float),
    scalar!(mean_flow_bits, Float),
    scalar!(packet_bits, Int),
    scalar!(packet_interval_secs, Float),
    scalar!(max_step, Float),
    scalar!(initial_mobility_enabled, Bool),
    scalar!(estimate_factor, Float),
    scalar!(seed, Int),
];

/// The exact bits of every field of a [`ScenarioConfig`]. Two configs
/// share a key only if no field differs in any bit, so floats one ulp
/// apart, or `0.0` and `-0.0`, never alias. The batch memos key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConfigKey {
    scalars: [u64; SCALARS.len()],
    energy: (u8, u64, u64, u64),
    topology: (u8, u64, u64),
    churn: (u8, u64),
}

/// Full description of one simulated scenario.
///
/// # Example
///
/// ```rust
/// use imobif_experiments::config::ScenarioConfig;
///
/// let cfg = ScenarioConfig::paper_default();
/// assert_eq!(cfg.node_count, 100);
/// assert_eq!(cfg.area_side, 150.0);
/// assert_eq!(cfg.range, 30.0);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of nodes in the arena.
    pub node_count: usize,
    /// Side of the square deployment area, in meters.
    pub area_side: f64,
    /// Radio range, in meters.
    pub range: f64,
    /// Distance-independent transmission term `a` (J/bit).
    pub a: f64,
    /// Distance-dependent transmission coefficient `b` (J·m^−α/bit).
    pub b: f64,
    /// Path-loss exponent `α` (paper: 2 and 3).
    pub alpha: f64,
    /// Mobility cost `k` (J/m; paper: 0.1, 0.5, 1.0).
    pub k: f64,
    /// Mean flow length in bits (exponentially distributed; paper: 100 KB
    /// and 1 MB means).
    pub mean_flow_bits: f64,
    /// Data packet payload (bits); 8000 = 1 KB.
    pub packet_bits: u64,
    /// Packet pacing interval in seconds (1 s ⇒ the paper's 1 KB/s rate).
    pub packet_interval_secs: f64,
    /// Maximum movement per processed packet, in meters.
    pub max_step: f64,
    /// Battery initialization.
    pub initial_energy: EnergyInit,
    /// Initial mobility status ("node mobility is initially disabled").
    pub initial_mobility_enabled: bool,
    /// Flow-length estimate multiplier (1.0 = perfect).
    pub estimate_factor: f64,
    /// Node placement family (the paper uses [`TopologyFamily::Uniform`]).
    pub topology: TopologyFamily,
    /// Scheduled-failure model applied to relays ([`ChurnModel::None`] in
    /// the paper).
    pub churn: ChurnModel,
    /// Master random seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's §4 energy-consumption setup: 100 nodes in 150×150 m,
    /// 30 m range, `a = 10⁻⁷`, `b = 10⁻⁸`, `α = 2`, `k = 0.5` J/m, 1 MB
    /// mean flows, abundant batteries, mobility initially disabled.
    ///
    /// `b` is calibrated (DESIGN.md § Calibration) so that the 1 MB mean
    /// flow length straddles the mobility break-even threshold — the
    /// crossover Figs. 6(a) vs 6(c–f) hinge on.
    #[must_use]
    pub fn paper_default() -> Self {
        ScenarioConfig {
            node_count: 100,
            area_side: 150.0,
            range: 30.0,
            a: 1e-7,
            b: 1e-8,
            alpha: 2.0,
            k: 0.5,
            mean_flow_bits: 8e6,
            packet_bits: 8_000,
            packet_interval_secs: 1.0,
            max_step: 1.0,
            initial_energy: EnergyInit::Fixed(1e5),
            initial_mobility_enabled: false,
            estimate_factor: 1.0,
            topology: TopologyFamily::Uniform,
            churn: ChurnModel::None,
            seed: 42,
        }
    }

    /// The paper's §4.2 system-lifetime setup: like
    /// [`ScenarioConfig::paper_default`] but with deliberately low random
    /// batteries (`U[2.5, 25]` J).
    ///
    /// The OCR lost the paper's battery upper bound ("between 5 and …
    /// Joules"). What governs the lifetime dynamics is the battery-to-
    /// movement-cost ratio (here 5–50 m of affordable walking at k=0.5)
    /// and the battery-to-packet-transmission ratio (~40–400 packets
    /// before depletion); `U[2.5, 25]` reproduces the published shape —
    /// cost-unaware average ≈ 0.55, informed ≥ 1 — under the workspace's
    /// calibrated radio constant (DESIGN.md § Calibration).
    #[must_use]
    pub fn paper_lifetime() -> Self {
        ScenarioConfig {
            initial_energy: EnergyInit::Uniform(2.5, 25.0),
            ..ScenarioConfig::paper_default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::OutOfRange`] unless `node_count` lies in
    /// `2..=MAX_NODES`, [`EnergyError::SimTimeTooLong`] if the packet
    /// interval, the churn mean or the mean flow's paced time exceeds
    /// [`MAX_SIM_SECS`], else [`EnergyError::InvalidParameter`] naming the
    /// first bad field (a packet interval that rounds to zero microseconds
    /// among them).
    pub fn validate(&self) -> Result<(), EnergyError> {
        if !(2..=MAX_NODES).contains(&self.node_count) {
            return Err(EnergyError::OutOfRange {
                name: "node_count",
                value: self.node_count as u64,
                min: 2,
                max: MAX_NODES as u64,
            });
        }
        if !(self.area_side.is_finite() && self.area_side > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "area_side" });
        }
        if !(self.range.is_finite() && self.range > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "range" });
        }
        if !(self.mean_flow_bits.is_finite() && self.mean_flow_bits > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "mean_flow_bits" });
        }
        if self.packet_bits == 0 {
            return Err(EnergyError::InvalidParameter { name: "packet_bits" });
        }
        if !(self.packet_interval_secs.is_finite() && self.packet_interval_secs > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "packet_interval_secs" });
        }
        check_sim_secs("packet_interval_secs", self.packet_interval_secs)?;
        // Sim time counts whole microseconds: a shorter interval paces at
        // zero, which no flow accepts.
        if self.packet_interval() == SimDuration::ZERO {
            return Err(EnergyError::InvalidParameter { name: "packet_interval_secs" });
        }
        check_sim_secs("mean_flow_bits", self.paced_secs(self.mean_flow_bits))?;
        if !(self.max_step.is_finite() && self.max_step > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "max_step" });
        }
        match self.initial_energy {
            EnergyInit::Fixed(e) if !(e.is_finite() && e >= 0.0) => {
                return Err(EnergyError::InvalidParameter { name: "initial_energy" })
            }
            EnergyInit::Uniform(lo, hi) if !(lo.is_finite() && hi > lo && lo >= 0.0) => {
                return Err(EnergyError::InvalidParameter { name: "initial_energy" })
            }
            EnergyInit::TwoTier { high, low, high_fraction }
                if !(high.is_finite()
                    && low.is_finite()
                    && low > 0.0
                    && high > low
                    && (0.0..=1.0).contains(&high_fraction)) =>
            {
                return Err(EnergyError::InvalidParameter { name: "initial_energy" })
            }
            _ => {}
        }
        if !(self.estimate_factor.is_finite() && self.estimate_factor > 0.0) {
            return Err(EnergyError::InvalidParameter { name: "estimate_factor" });
        }
        match self.topology {
            TopologyFamily::Uniform => {}
            TopologyFamily::Clustered { clusters, spread } => {
                if clusters == 0 {
                    return Err(EnergyError::InvalidParameter { name: "topology.clusters" });
                }
                if !(spread.is_finite() && spread > 0.0) {
                    return Err(EnergyError::InvalidParameter { name: "topology.spread" });
                }
            }
            TopologyFamily::SmallWorld { rewire } => {
                if !(0.0..=1.0).contains(&rewire) {
                    return Err(EnergyError::InvalidParameter { name: "topology.rewire" });
                }
            }
        }
        match self.churn {
            ChurnModel::None => {}
            ChurnModel::RelayExponential { mean_secs } => {
                if !(mean_secs.is_finite() && mean_secs > 0.0) {
                    return Err(EnergyError::InvalidParameter { name: "churn.mean_secs" });
                }
                check_sim_secs("churn.mean_secs", mean_secs)?;
            }
        }
        // Model parameters validated by their constructors:
        let _ = self.tx_model()?;
        let _ = self.mobility_model()?;
        Ok(())
    }

    /// The transmission energy model `P(d) = a + b·d^α`.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidParameter`] if the parameters are
    /// invalid.
    pub fn tx_model(&self) -> Result<PowerLawModel, EnergyError> {
        PowerLawModel::new(self.a, self.b, self.alpha)
    }

    /// The mobility cost model `E_M(d) = k·d`.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidParameter`] if `k` is invalid.
    pub fn mobility_model(&self) -> Result<LinearMobilityCost, EnergyError> {
        LinearMobilityCost::new(self.k)
    }

    /// The simulator configuration for this scenario: its radio range and
    /// both energy models.
    ///
    /// # Panics
    ///
    /// Panics if a model parameter is invalid (call
    /// [`ScenarioConfig::validate`] first).
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            range: self.range,
            tx: self.tx_model().expect("validated config"),
            mobility: self.mobility_model().expect("validated config"),
            ..SimConfig::default()
        }
    }

    /// Packet pacing interval as a [`SimDuration`].
    #[must_use]
    pub fn packet_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.packet_interval_secs)
    }

    /// Simulated seconds a source takes to pace out a `bits`-bit flow.
    #[must_use]
    pub(crate) fn paced_secs(&self, bits: f64) -> f64 {
        bits / self.packet_bits as f64 * self.packet_interval_secs
    }

    /// This config's [`ConfigKey`].
    #[must_use]
    pub(crate) fn key(&self) -> ConfigKey {
        ConfigKey {
            scalars: std::array::from_fn(|i| (SCALARS[i].read)(self)),
            energy: self.initial_energy.key(),
            topology: self.topology.key(),
            churn: self.churn.key(),
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ScenarioConfig::paper_default().validate().unwrap();
        ScenarioConfig::paper_lifetime().validate().unwrap();
    }

    #[test]
    fn lifetime_config_uses_uniform_energy() {
        match ScenarioConfig::paper_lifetime().initial_energy {
            EnergyInit::Uniform(lo, hi) => {
                assert!(lo > 0.0 && hi > lo);
                // Low enough that a 1 MB flow depletes relays mid-flow.
                assert!(hi < 100.0);
            }
            other => panic!("expected Uniform, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = ScenarioConfig::paper_default();
        c.node_count = 1;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.alpha = 0.1;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.k = -1.0;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.initial_energy = EnergyInit::Uniform(10.0, 5.0);
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.estimate_factor = 0.0;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.initial_energy = EnergyInit::TwoTier { high: 10.0, low: 20.0, high_fraction: 0.5 };
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.topology = TopologyFamily::Clustered { clusters: 0, spread: 20.0 };
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.topology = TopologyFamily::SmallWorld { rewire: 1.5 };
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper_default();
        c.churn = ChurnModel::RelayExponential { mean_secs: 0.0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn memo_keys_distinguish_variants() {
        assert_ne!(EnergyInit::Fixed(1.0).key(), EnergyInit::Uniform(1.0, 2.0).key());
        assert_ne!(
            EnergyInit::TwoTier { high: 2.0, low: 1.0, high_fraction: 0.5 }.key(),
            EnergyInit::Uniform(2.0, 1.0).key()
        );
        assert_ne!(TopologyFamily::Uniform.key(), TopologyFamily::SmallWorld { rewire: 0.0 }.key());
        assert_ne!(
            TopologyFamily::Clustered { clusters: 4, spread: 15.0 }.key(),
            TopologyFamily::Clustered { clusters: 5, spread: 15.0 }.key()
        );
        assert_ne!(ChurnModel::None.key(), ChurnModel::RelayExponential { mean_secs: 200.0 }.key());
    }

    #[test]
    fn models_match_parameters() {
        let c = ScenarioConfig::paper_default();
        let tx = c.tx_model().unwrap();
        assert_eq!(tx.alpha(), 2.0);
        let mv = c.mobility_model().unwrap();
        assert_eq!(mv.k(), 0.5);
        assert_eq!(c.sim_config().range, 30.0);
        assert_eq!(c.packet_interval().as_micros(), 1_000_000);
    }
}
