//! Per-node flow tables.

use imobif_geom::Point2;
use imobif_netsim::{FlowId, NodeId};
use serde::{Deserialize, Serialize};

use crate::decision::DecisionCache;
use crate::{DestFlow, SourceFlow};

/// A node's role on a flow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowRole {
    /// The node originates the flow.
    Source,
    /// The node forwards the flow.
    Relay,
    /// The node consumes the flow.
    Destination,
}

/// One entry of the paper's per-node flow table (§2): "for each flow
/// traversing the node, its source, number of residual data bits, previous
/// node, mobility strategy and status, destination, and next node".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// The flow's identity.
    pub flow: FlowId,
    /// Flow source.
    pub source: NodeId,
    /// Flow destination.
    pub destination: NodeId,
    /// Previous node on the path (`None` at the source).
    pub prev: Option<NodeId>,
    /// Next node on the path (`None` at the destination).
    pub next: Option<NodeId>,
    /// This node's role.
    pub role: FlowRole,
    /// Local copy of the mobility status, updated from packet headers.
    pub mobility_enabled: bool,
    /// Last-seen residual flow length in bits.
    pub residual_bits: f64,
}

impl FlowEntry {
    /// Creates an entry; role is derived from `prev`/`next`.
    ///
    /// # Panics
    ///
    /// Panics if both `prev` and `next` are `None` (a one-node "flow").
    #[must_use]
    pub fn new(
        flow: FlowId,
        source: NodeId,
        destination: NodeId,
        prev: Option<NodeId>,
        next: Option<NodeId>,
    ) -> Self {
        let role = match (prev, next) {
            (None, Some(_)) => FlowRole::Source,
            (Some(_), None) => FlowRole::Destination,
            (Some(_), Some(_)) => FlowRole::Relay,
            (None, None) => panic!("flow entry needs a prev or a next"),
        };
        FlowEntry {
            flow,
            source,
            destination,
            prev,
            next,
            role,
            mobility_enabled: false,
            residual_bits: 0.0,
        }
    }
}

/// The flow table: all flows traversing one node.
///
/// One record per flow, in a `Vec` sorted by flow id: the [`FlowEntry`]
/// beside the state an [`ImobifApp`](crate::ImobifApp) keeps for that flow.
/// A node with no flow allocates nothing, and a lookup is one binary search
/// over the node's few flows.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    records: Vec<FlowRecord>,
}

/// What one node keeps about one flow: its table entry and the agent's
/// per-flow state, each `None` until the flow gives it one.
#[derive(Debug, Clone)]
pub(crate) struct FlowRecord {
    pub(crate) entry: FlowEntry,
    /// Set by [`ImobifApp::register_source`](crate::ImobifApp::register_source)
    /// at the flow's source.
    pub(crate) source: Option<SourceFlow>,
    /// Set by the first data packet delivered at the destination.
    pub(crate) dest: Option<DestFlow>,
    /// A relay's latest movement target for the flow.
    pub(crate) target: Option<Point2>,
    /// A relay's last strategy evaluation for the flow.
    pub(crate) cache: Option<DecisionCache>,
}

impl FlowTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Installs (or replaces) an entry. Replacing keeps the flow's agent
    /// state; a new flow's record grows the table by exactly one slot, so
    /// a relay of one flow holds one record.
    pub fn install(&mut self, entry: FlowEntry) {
        match self.find(entry.flow) {
            Ok(i) => self.records[i].entry = entry,
            Err(i) => {
                self.records.reserve_exact(1);
                let record =
                    FlowRecord { entry, source: None, dest: None, target: None, cache: None };
                self.records.insert(i, record);
            }
        }
    }

    /// Removes an entry with the flow's agent state, returning the entry if
    /// present.
    pub fn remove(&mut self, flow: FlowId) -> Option<FlowEntry> {
        let i = self.find(flow).ok()?;
        Some(self.records.remove(i).entry)
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, flow: FlowId) -> Option<&FlowEntry> {
        self.record(flow).map(|r| &r.entry)
    }

    /// Looks up an entry mutably.
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut FlowEntry> {
        self.record_mut(flow).map(|r| &mut r.entry)
    }

    /// Number of flows traversing the node.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no flows traverse the node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All entries, sorted by flow id for deterministic iteration.
    #[must_use]
    pub fn entries(&self) -> Vec<&FlowEntry> {
        self.records.iter().map(|r| &r.entry).collect()
    }

    /// The index of `flow`'s record in [`FlowTable::records`], or where
    /// it would be inserted.
    pub(crate) fn find(&self, flow: FlowId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&flow, |r| r.entry.flow)
    }

    /// `flow`'s record.
    pub(crate) fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.find(flow).ok().map(|i| &self.records[i])
    }

    /// `flow`'s record, mutably.
    pub(crate) fn record_mut(&mut self, flow: FlowId) -> Option<&mut FlowRecord> {
        self.find(flow).ok().map(|i| &mut self.records[i])
    }

    /// Every record, in flow-id order.
    pub(crate) fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Every record, in flow-id order, mutably; the slice keeps the order.
    pub(crate) fn records_mut(&mut self) -> &mut [FlowRecord] {
        &mut self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (FlowId, NodeId, NodeId) {
        (FlowId::new(1), NodeId::new(0), NodeId::new(9))
    }

    #[test]
    fn role_derivation() {
        let (f, s, d) = ids();
        assert_eq!(FlowEntry::new(f, s, d, None, Some(NodeId::new(1))).role, FlowRole::Source);
        assert_eq!(FlowEntry::new(f, s, d, Some(NodeId::new(1)), None).role, FlowRole::Destination);
        assert_eq!(
            FlowEntry::new(f, s, d, Some(NodeId::new(1)), Some(NodeId::new(2))).role,
            FlowRole::Relay
        );
    }

    #[test]
    #[should_panic(expected = "prev or a next")]
    fn one_node_flow_panics() {
        let (f, s, d) = ids();
        let _ = FlowEntry::new(f, s, d, None, None);
    }

    #[test]
    fn table_crud() {
        let (f, s, d) = ids();
        let mut t = FlowTable::new();
        assert!(t.is_empty());
        t.install(FlowEntry::new(f, s, d, None, Some(NodeId::new(1))));
        assert_eq!(t.len(), 1);
        assert!(t.get(f).is_some());
        t.get_mut(f).unwrap().residual_bits = 5.0;
        assert_eq!(t.get(f).unwrap().residual_bits, 5.0);
        assert!(t.remove(f).is_some());
        assert!(t.remove(f).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn entries_are_sorted() {
        let (_, s, d) = ids();
        let mut t = FlowTable::new();
        for i in [5u32, 1, 3] {
            t.install(FlowEntry::new(FlowId::new(i), s, d, None, Some(NodeId::new(1))));
        }
        let order: Vec<FlowId> = t.entries().iter().map(|e| e.flow).collect();
        assert_eq!(order, vec![FlowId::new(1), FlowId::new(3), FlowId::new(5)]);
    }
}
