//! The per-node strategy list of paper Assumption 1.
//!
//! "We make the following assumptions: 1) each node maintains a list of
//! application-specific mobility strategies and aggregate functions."
//! Data-packet headers name the active strategy ([`StrategyKind`]); every
//! node on the path resolves that name against its local registry, so
//! different flows can run different strategies through the same relay.

use std::sync::Arc;

use crate::{MaxLifetimeStrategy, MinEnergyStrategy, MobilityStrategy, StrategyKind};

/// An immutable map from [`StrategyKind`] to strategy implementation,
/// shared by all nodes of a deployment (via `Arc`). The source, every relay
/// and the destination resolve each data packet's strategy here, so the
/// map is a table with one slot per kind: a lookup is an index.
///
/// # Example
///
/// ```rust
/// use imobif::{StrategyKind, StrategyRegistry};
///
/// let registry = StrategyRegistry::paper_defaults(1.8)?;
/// assert!(registry.get(StrategyKind::MinTotalEnergy).is_some());
/// assert!(registry.get(StrategyKind::MaxSystemLifetime).is_some());
/// # Ok::<(), imobif_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrategyRegistry {
    entries: [Option<Arc<dyn MobilityStrategy>>; 2],
}

/// The table slot of `kind`.
fn slot(kind: StrategyKind) -> usize {
    match kind {
        StrategyKind::MinTotalEnergy => 0,
        StrategyKind::MaxSystemLifetime => 1,
    }
}

impl StrategyRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        StrategyRegistry::default()
    }

    /// A registry holding exactly one strategy, keyed by its own kind —
    /// the common single-goal deployment.
    #[must_use]
    pub fn single(strategy: Arc<dyn MobilityStrategy>) -> Self {
        let mut r = StrategyRegistry::new();
        r.insert(strategy);
        r
    }

    /// The paper's two strategies: minimize total energy and maximize
    /// system lifetime (with the given regression exponent `α'`).
    ///
    /// # Errors
    ///
    /// Returns [`imobif_energy::EnergyError::InvalidParameter`] for an
    /// invalid `alpha_prime`.
    pub fn paper_defaults(alpha_prime: f64) -> Result<Self, imobif_energy::EnergyError> {
        let mut r = StrategyRegistry::new();
        r.insert(Arc::new(MinEnergyStrategy::new()));
        r.insert(Arc::new(MaxLifetimeStrategy::new(alpha_prime)?));
        Ok(r)
    }

    /// Registers a strategy under its own [`MobilityStrategy::kind`],
    /// replacing any previous entry for that kind.
    pub fn insert(&mut self, strategy: Arc<dyn MobilityStrategy>) {
        let slot = slot(strategy.kind());
        self.entries[slot] = Some(strategy);
    }

    /// Resolves a strategy by kind.
    #[must_use]
    pub fn get(&self, kind: StrategyKind) -> Option<&dyn MobilityStrategy> {
        self.entries[slot(kind)].as_deref()
    }

    /// Number of registered strategies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Returns `true` if the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_registry_resolves_its_kind_only() {
        let r = StrategyRegistry::single(Arc::new(MinEnergyStrategy::new()));
        assert_eq!(r.len(), 1);
        assert!(r.get(StrategyKind::MinTotalEnergy).is_some());
        assert!(r.get(StrategyKind::MaxSystemLifetime).is_none());
    }

    #[test]
    fn paper_defaults_hold_both() {
        let r = StrategyRegistry::paper_defaults(2.0).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.get(StrategyKind::MinTotalEnergy).is_some());
        assert!(r.get(StrategyKind::MaxSystemLifetime).is_some());
    }

    #[test]
    fn insert_replaces_same_kind() {
        let mut r = StrategyRegistry::new();
        assert!(r.is_empty());
        r.insert(Arc::new(MaxLifetimeStrategy::new(2.0).unwrap()));
        let replacement: Arc<dyn MobilityStrategy> =
            Arc::new(MaxLifetimeStrategy::new(3.0).unwrap());
        r.insert(Arc::clone(&replacement));
        assert_eq!(r.len(), 1);
        let got = r.get(StrategyKind::MaxSystemLifetime).unwrap();
        assert!(std::ptr::addr_eq(got, Arc::as_ptr(&replacement)), "the later entry wins");
    }

    #[test]
    fn bad_alpha_prime_is_rejected() {
        assert!(StrategyRegistry::paper_defaults(-1.0).is_err());
    }
}
