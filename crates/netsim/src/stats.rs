//! Energy ledger and packet counters.

use serde::{Deserialize, Serialize};

use crate::{NodeId, SimTime};

/// What an energy expenditure was for. The figures decompose energy along
/// these axes (Fig. 6(b) compares mobility against transmission energy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnergyCategory {
    /// Data-packet transmission.
    Data,
    /// Physical node movement.
    Mobility,
    /// HELLO beaconing.
    Hello,
    /// iMobif enable/disable notification packets.
    Notification,
}

impl EnergyCategory {
    /// Every category, in ledger order.
    pub const ALL: [EnergyCategory; 4] = [
        EnergyCategory::Data,
        EnergyCategory::Mobility,
        EnergyCategory::Hello,
        EnergyCategory::Notification,
    ];

    /// Stable lowercase name, used in metric names and JSONL traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EnergyCategory::Data => "data",
            EnergyCategory::Mobility => "mobility",
            EnergyCategory::Hello => "hello",
            EnergyCategory::Notification => "notification",
        }
    }

    /// Inverse of [`EnergyCategory::as_str`].
    #[must_use]
    pub fn parse(name: &str) -> Option<EnergyCategory> {
        EnergyCategory::ALL.into_iter().find(|c| c.as_str() == name)
    }
}

/// Per-node energy totals by category, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeEnergy {
    /// Energy spent transmitting data packets.
    pub data: f64,
    /// Energy spent moving.
    pub mobility: f64,
    /// Energy spent beaconing.
    pub hello: f64,
    /// Energy spent on notification packets.
    pub notification: f64,
}

impl NodeEnergy {
    /// Total energy across all categories.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.data + self.mobility + self.hello + self.notification
    }

    /// Total radio (non-mobility) energy.
    #[must_use]
    pub fn transmission(&self) -> f64 {
        self.data + self.hello + self.notification
    }

    fn charge(&mut self, category: EnergyCategory, joules: f64) {
        match category {
            EnergyCategory::Data => self.data += joules,
            EnergyCategory::Mobility => self.mobility += joules,
            EnergyCategory::Hello => self.hello += joules,
            EnergyCategory::Notification => self.notification += joules,
        }
    }
}

/// The simulation-wide energy and packet accounting.
///
/// Every joule a battery gives up is mirrored here with its category, so
/// experiments can decompose totals exactly; the integration tests assert
/// that ledger totals equal battery drawdown.
///
/// # Example
///
/// ```rust
/// use imobif_netsim::{EnergyCategory, EnergyLedger, NodeId};
///
/// let mut ledger = EnergyLedger::new();
/// ledger.grow_to(2);
/// ledger.charge(NodeId::new(0), EnergyCategory::Data, 1.5);
/// ledger.charge(NodeId::new(1), EnergyCategory::Mobility, 2.0);
/// assert_eq!(ledger.totals().total(), 3.5);
/// assert_eq!(ledger.node(NodeId::new(1)).mobility, 2.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    per_node: Vec<NodeEnergy>,
    deaths: Vec<Option<SimTime>>,
    /// The least `(time, id)` death in `deaths`, kept as deaths are
    /// recorded: a run's stop condition reads it after every event.
    first: Option<(NodeId, SimTime)>,
    /// Packets handed to the medium.
    pub packets_sent: u64,
    /// Packets delivered to a live receiver.
    pub packets_delivered: u64,
    /// Packets dropped (dead sender/receiver, unaffordable transmission).
    pub packets_dropped: u64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Ensures the ledger tracks at least `n` nodes.
    pub fn grow_to(&mut self, n: usize) {
        if self.per_node.len() < n {
            self.per_node.resize(n, NodeEnergy::default());
            self.deaths.resize(n, None);
        }
    }

    /// Number of tracked nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Records `joules` spent by `node` under `category`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not tracked (`grow_to` not called) — a kernel
    /// bug, not a user error.
    pub fn charge(&mut self, node: NodeId, category: EnergyCategory, joules: f64) {
        self.per_node[node.index()].charge(category, joules);
    }

    /// Records that `node` died at `time`. Only the first death is kept.
    pub fn record_death(&mut self, node: NodeId, time: SimTime) {
        let slot = &mut self.deaths[node.index()];
        if slot.is_none() {
            *slot = Some(time);
            if self.first.is_none_or(|(id, t)| (time, node) < (t, id)) {
                self.first = Some((node, time));
            }
        }
    }

    /// Energy totals of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not tracked.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &NodeEnergy {
        &self.per_node[node.index()]
    }

    /// Death time of one node, if it died.
    #[must_use]
    pub fn death_time(&self, node: NodeId) -> Option<SimTime> {
        self.deaths.get(node.index()).copied().flatten()
    }

    /// The earliest death in the network — the paper's system-lifetime
    /// event — with the node that died; of deaths at one instant, the
    /// lowest id.
    #[must_use]
    pub fn first_death(&self) -> Option<(NodeId, SimTime)> {
        self.first
    }

    /// Network-wide energy totals by category.
    #[must_use]
    pub fn totals(&self) -> NodeEnergy {
        let mut sum = NodeEnergy::default();
        for e in &self.per_node {
            sum.data += e.data;
            sum.mobility += e.mobility;
            sum.hello += e.hello;
            sum.notification += e.notification;
        }
        sum
    }

    /// Iterator over `(node, energy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeEnergy)> + '_ {
        self.per_node.iter().enumerate().map(|(i, e)| (NodeId::new(i as u32), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_accumulate_separately() {
        let mut e = NodeEnergy::default();
        e.charge(EnergyCategory::Data, 1.0);
        e.charge(EnergyCategory::Mobility, 2.0);
        e.charge(EnergyCategory::Hello, 0.25);
        e.charge(EnergyCategory::Notification, 0.5);
        assert_eq!(e.total(), 3.75);
        assert_eq!(e.transmission(), 1.75);
    }

    #[test]
    fn ledger_tracks_per_node() {
        let mut l = EnergyLedger::new();
        l.grow_to(3);
        l.charge(NodeId::new(0), EnergyCategory::Data, 1.0);
        l.charge(NodeId::new(2), EnergyCategory::Data, 2.0);
        assert_eq!(l.node(NodeId::new(0)).data, 1.0);
        assert_eq!(l.node(NodeId::new(1)).data, 0.0);
        assert_eq!(l.totals().data, 3.0);
        assert_eq!(l.node_count(), 3);
    }

    #[test]
    fn first_death_is_earliest() {
        let mut l = EnergyLedger::new();
        l.grow_to(3);
        assert_eq!(l.first_death(), None);
        l.record_death(NodeId::new(2), SimTime::from_micros(50));
        l.record_death(NodeId::new(1), SimTime::from_micros(10));
        // A second death report for node 1 must not overwrite the first.
        l.record_death(NodeId::new(1), SimTime::from_micros(99));
        assert_eq!(l.first_death(), Some((NodeId::new(1), SimTime::from_micros(10))));
        assert_eq!(l.death_time(NodeId::new(1)), Some(SimTime::from_micros(10)));
        assert_eq!(l.death_time(NodeId::new(0)), None);
    }

    proptest::proptest! {
        /// The kept first death is the least `(time, id)` over every
        /// node's recorded death after each report, in any report order,
        /// with repeated nodes (only a first report counts) and equal
        /// times.
        #[test]
        fn prop_first_death_is_the_least_recorded(
            reports in proptest::collection::vec((0u32..8, 0u64..6), 0..24),
        ) {
            let mut l = EnergyLedger::new();
            l.grow_to(8);
            for (node, micros) in reports {
                l.record_death(NodeId::new(node), SimTime::from_micros(micros));
                let want = (0..8)
                    .filter_map(|i| l.death_time(NodeId::new(i)).map(|t| (t, NodeId::new(i))))
                    .min()
                    .map(|(t, id)| (id, t));
                proptest::prop_assert_eq!(l.first_death(), want);
            }
        }
    }

    #[test]
    fn grow_to_is_monotone() {
        let mut l = EnergyLedger::new();
        l.grow_to(5);
        l.charge(NodeId::new(4), EnergyCategory::Data, 1.0);
        l.grow_to(2); // must not shrink
        assert_eq!(l.node_count(), 5);
        assert_eq!(l.node(NodeId::new(4)).data, 1.0);
    }

    #[test]
    fn iter_yields_all_nodes() {
        let mut l = EnergyLedger::new();
        l.grow_to(4);
        assert_eq!(l.iter().count(), 4);
        let ids: Vec<NodeId> = l.iter().map(|(id, _)| id).collect();
        assert_eq!(ids[0], NodeId::new(0));
        assert_eq!(ids[3], NodeId::new(3));
    }
}
