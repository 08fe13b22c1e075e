//! Flow installation: wiring a routed path into the per-node agents.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::{FlowId, NodeId, ShardedWorld, SimDuration, World};
use serde::{Deserialize, Serialize};

use crate::{FlowEntry, ImobifApp, SourceFlow};

/// A world of iMobif agents that experiments can populate, start and
/// install flows into: the surface [`install_flow`] and the experiments'
/// world builders need, implemented by both the sequential [`World`] and
/// the sharded [`ShardedWorld`] so each world-building recipe is written
/// once for both engines.
pub trait FlowHost {
    /// Adds a node; valid only before [`FlowHost::start`].
    fn add_node(&mut self, position: Point2, battery: Battery, app: ImobifApp) -> NodeId;
    /// Starts the world: schedules every node's HELLO chain.
    fn start(&mut self);
    /// Number of nodes in the world.
    fn node_count(&self) -> usize;
    /// Whether `id` is alive.
    fn is_alive(&self, id: NodeId) -> bool;
    /// The iMobif agent at `id`.
    fn app(&self, id: NodeId) -> &ImobifApp;
    /// The iMobif agent at `id`, mutably.
    fn app_mut(&mut self, id: NodeId) -> &mut ImobifApp;
    /// Schedules the source's kick-off timer.
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64);
}

impl FlowHost for World<ImobifApp> {
    fn add_node(&mut self, position: Point2, battery: Battery, app: ImobifApp) -> NodeId {
        World::add_node(self, position, battery, app)
    }
    fn start(&mut self) {
        World::start(self);
    }
    fn node_count(&self) -> usize {
        World::node_count(self)
    }
    fn is_alive(&self, id: NodeId) -> bool {
        World::is_alive(self, id)
    }
    fn app(&self, id: NodeId) -> &ImobifApp {
        World::app(self, id)
    }
    fn app_mut(&mut self, id: NodeId) -> &mut ImobifApp {
        World::app_mut(self, id)
    }
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        World::schedule_timer(self, node, delay, tag);
    }
}

impl FlowHost for ShardedWorld<ImobifApp> {
    fn add_node(&mut self, position: Point2, battery: Battery, app: ImobifApp) -> NodeId {
        ShardedWorld::add_node(self, position, battery, app)
    }
    fn start(&mut self) {
        ShardedWorld::start(self);
    }
    fn node_count(&self) -> usize {
        ShardedWorld::node_count(self)
    }
    fn is_alive(&self, id: NodeId) -> bool {
        ShardedWorld::is_alive(self, id)
    }
    fn app(&self, id: NodeId) -> &ImobifApp {
        ShardedWorld::app(self, id)
    }
    fn app_mut(&mut self, id: NodeId) -> &mut ImobifApp {
        ShardedWorld::app_mut(self, id)
    }
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        ShardedWorld::schedule_timer(self, node, delay, tag);
    }
}

/// Everything needed to start one one-to-one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Flow identity.
    pub flow: FlowId,
    /// The pinned path, source first, destination last.
    pub path: Vec<NodeId>,
    /// Total flow length in bits.
    pub total_bits: u64,
    /// Per-packet payload in bits (paper: 8000 = 1 KB).
    pub packet_bits: u64,
    /// Packet pacing interval (paper: 1 s ⇒ 1 KB/s).
    pub interval: SimDuration,
    /// Initial mobility status ("node mobility is initially disabled" in
    /// the paper's simulations).
    pub initial_mobility_enabled: bool,
    /// Flow-length estimate multiplier (1.0 = perfect estimate).
    pub estimate_factor: f64,
    /// Delay before the first packet, giving HELLO beacons time to
    /// populate neighbor tables.
    pub start_delay: SimDuration,
    /// Which mobility strategy the source selects for this flow. Every
    /// node resolves it against its own strategy list
    /// ([`crate::StrategyRegistry`], paper Assumption 1).
    pub strategy: crate::StrategyKind,
}

impl FlowSpec {
    /// A spec with the paper's defaults: 1 KB packets at 1 KB/s, mobility
    /// initially disabled, the minimize-total-energy strategy, perfect
    /// flow-length estimates, 0.5 s start delay.
    #[must_use]
    pub fn paper_default(flow: FlowId, path: Vec<NodeId>, total_bits: u64) -> Self {
        FlowSpec {
            flow,
            path,
            total_bits,
            packet_bits: 8_000,
            interval: SimDuration::from_secs(1),
            initial_mobility_enabled: false,
            estimate_factor: 1.0,
            start_delay: SimDuration::from_millis(500),
            strategy: crate::StrategyKind::MinTotalEnergy,
        }
    }

    /// The same spec with a different strategy selection.
    #[must_use]
    pub fn with_strategy(mut self, strategy: crate::StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Number of data packets this flow will emit.
    #[must_use]
    pub fn packet_count(&self) -> u64 {
        self.total_bits.div_ceil(self.packet_bits)
    }
}

/// Errors from flow installation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowSetupError {
    /// The path has fewer than two nodes.
    PathTooShort,
    /// The path visits a node twice.
    RepeatedNode(NodeId),
    /// A path node does not exist in the world.
    UnknownNode(NodeId),
    /// A path node is dead.
    DeadNode(NodeId),
    /// The flow has no bits to send.
    EmptyFlow,
    /// Packet size or interval is zero.
    BadPacing,
}

impl fmt::Display for FlowSetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowSetupError::PathTooShort => write!(f, "flow path needs at least two nodes"),
            FlowSetupError::RepeatedNode(id) => write!(f, "flow path visits {id} twice"),
            FlowSetupError::UnknownNode(id) => write!(f, "flow path node {id} does not exist"),
            FlowSetupError::DeadNode(id) => write!(f, "flow path node {id} is dead"),
            FlowSetupError::EmptyFlow => write!(f, "flow has zero bits"),
            FlowSetupError::BadPacing => write!(f, "packet size and interval must be non-zero"),
        }
    }
}

impl Error for FlowSetupError {}

/// Installs a flow into a world of [`ImobifApp`] agents — sequential or
/// sharded, via [`FlowHost`]: flow-table entries along the path, source-side
/// pacing state, and the timer that emits the first packet.
///
/// The path is pinned, exactly as in the paper: routing resolves it once at
/// flow setup and mobility then optimizes the positions of the chosen
/// relays (relay *re-selection* is the paper's future work, provided as the
/// [`crate::relay_selection`] extension).
///
/// # Errors
///
/// Returns a [`FlowSetupError`] if the path is degenerate, repeats a node,
/// references unknown/dead nodes, or the pacing parameters are zero.
pub fn install_flow(world: &mut impl FlowHost, spec: &FlowSpec) -> Result<(), FlowSetupError> {
    if spec.path.len() < 2 {
        return Err(FlowSetupError::PathTooShort);
    }
    if spec.total_bits == 0 {
        return Err(FlowSetupError::EmptyFlow);
    }
    if spec.packet_bits == 0 || spec.interval == SimDuration::ZERO {
        return Err(FlowSetupError::BadPacing);
    }
    let mut seen = HashSet::new();
    for &id in &spec.path {
        if id.index() >= world.node_count() {
            return Err(FlowSetupError::UnknownNode(id));
        }
        if !world.is_alive(id) {
            return Err(FlowSetupError::DeadNode(id));
        }
        if !seen.insert(id) {
            return Err(FlowSetupError::RepeatedNode(id));
        }
    }
    let source = spec.path[0];
    let destination = *spec.path.last().expect("path checked non-empty");
    for (i, &node) in spec.path.iter().enumerate() {
        let prev = (i > 0).then(|| spec.path[i - 1]);
        let next = (i + 1 < spec.path.len()).then(|| spec.path[i + 1]);
        let mut entry = FlowEntry::new(spec.flow, source, destination, prev, next);
        entry.mobility_enabled = spec.initial_mobility_enabled;
        entry.residual_bits = spec.total_bits as f64;
        world.app_mut(node).install_entry(entry);
    }
    world.app_mut(source).register_source(
        spec.flow,
        SourceFlow {
            total_bits: spec.total_bits,
            sent_bits: 0,
            packet_bits: spec.packet_bits,
            interval: spec.interval,
            mobility_enabled: spec.initial_mobility_enabled,
            estimate_factor: spec.estimate_factor,
            seq: 0,
            status_changes: 0,
            strategy: spec.strategy,
        },
    );
    world.schedule_timer(source, spec.start_delay, spec.flow.raw() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImobifConfig, MinEnergyStrategy};
    use imobif_energy::Battery;
    use imobif_geom::Point2;
    use imobif_netsim::SimConfig;
    use std::sync::Arc;

    fn world_with_line(n: usize) -> (World<ImobifApp>, Vec<NodeId>) {
        let mut w = World::new(SimConfig::default()).unwrap();
        let ids = (0..n)
            .map(|i| {
                w.add_node(
                    Point2::new(i as f64 * 20.0, 0.0),
                    Battery::new(100.0).unwrap(),
                    ImobifApp::new(ImobifConfig::default(), Arc::new(MinEnergyStrategy::new())),
                )
            })
            .collect();
        (w, ids)
    }

    #[test]
    fn install_validates_paths() {
        let (mut w, ids) = world_with_line(3);
        let f = FlowId::new(0);
        let short = FlowSpec::paper_default(f, vec![ids[0]], 8000);
        assert_eq!(install_flow(&mut w, &short).unwrap_err(), FlowSetupError::PathTooShort);
        let repeated = FlowSpec::paper_default(f, vec![ids[0], ids[1], ids[0]], 8000);
        assert_eq!(
            install_flow(&mut w, &repeated).unwrap_err(),
            FlowSetupError::RepeatedNode(ids[0])
        );
        let unknown = FlowSpec::paper_default(f, vec![ids[0], NodeId::new(99)], 8000);
        assert_eq!(
            install_flow(&mut w, &unknown).unwrap_err(),
            FlowSetupError::UnknownNode(NodeId::new(99))
        );
        let empty = FlowSpec::paper_default(f, vec![ids[0], ids[1]], 0);
        assert_eq!(install_flow(&mut w, &empty).unwrap_err(), FlowSetupError::EmptyFlow);
        let mut bad = FlowSpec::paper_default(f, vec![ids[0], ids[1]], 8000);
        bad.packet_bits = 0;
        assert_eq!(install_flow(&mut w, &bad).unwrap_err(), FlowSetupError::BadPacing);
    }

    #[test]
    fn install_populates_entries_and_source() {
        let (mut w, ids) = world_with_line(3);
        let f = FlowId::new(7);
        let spec = FlowSpec::paper_default(f, ids.clone(), 24_000);
        install_flow(&mut w, &spec).unwrap();

        let src_entry = *w.app(ids[0]).flow_table().get(f).unwrap();
        assert_eq!(src_entry.role, crate::FlowRole::Source);
        assert_eq!(src_entry.next, Some(ids[1]));
        assert_eq!(src_entry.prev, None);

        let relay_entry = *w.app(ids[1]).flow_table().get(f).unwrap();
        assert_eq!(relay_entry.role, crate::FlowRole::Relay);
        assert_eq!(relay_entry.prev, Some(ids[0]));
        assert_eq!(relay_entry.next, Some(ids[2]));

        let dst_entry = *w.app(ids[2]).flow_table().get(f).unwrap();
        assert_eq!(dst_entry.role, crate::FlowRole::Destination);
        assert_eq!(dst_entry.next, None);

        let sf = w.app(ids[0]).source(f).unwrap();
        assert_eq!(sf.total_bits, 24_000);
        assert!(!sf.mobility_enabled);
        assert_eq!(spec.packet_count(), 3);
    }

    #[test]
    fn install_flow_drives_a_sharded_world_end_to_end() {
        use imobif_netsim::{ShardedWorld, SimTime};

        // The full iMobif protocol — data plane, aggregation, notifications,
        // relay movement — running on the epoch-barrier engine, with the
        // 1-shard run as the bit-exactness reference for 4 shards.
        let run = |shards: usize| {
            let bounds = (Point2::new(0.0, 0.0), Point2::new(80.0, 40.0));
            let mut w = ShardedWorld::new(SimConfig::default(), bounds, shards).unwrap();
            let strategy = Arc::new(MinEnergyStrategy::new());
            let cfg = ImobifConfig::default();
            let add = |x: f64, y: f64, w: &mut ShardedWorld<ImobifApp>| {
                w.add_node(
                    Point2::new(x, y),
                    Battery::new(1_000.0).unwrap(),
                    ImobifApp::new(cfg, strategy.clone()),
                )
            };
            let src = add(0.0, 0.0, &mut w);
            let relay = add(20.0, 15.0, &mut w);
            let dst = add(40.0, 0.0, &mut w);
            w.enable_tracing();
            w.start();
            let spec = FlowSpec::paper_default(FlowId::new(0), vec![src, relay, dst], 8_000_000);
            install_flow(&mut w, &spec).unwrap();
            w.run_until(SimTime::from_micros(1_100_000_000));
            assert_eq!(
                w.app(dst).dest(FlowId::new(0)).unwrap().received_bits,
                8_000_000,
                "{shards}-shard world delivered the whole flow"
            );
            assert!(w.position(relay).y < 15.0, "relay walked toward the chord");
            let t = w.totals();
            (w.position(relay), t.total().to_bits(), w.packets_delivered(), w.trace_fnv())
        };
        let base = run(1);
        assert_eq!(run(4), base, "4-shard iMobif run diverged from 1-shard");
    }

    #[test]
    fn packet_count_rounds_up() {
        let spec =
            FlowSpec::paper_default(FlowId::new(0), vec![NodeId::new(0), NodeId::new(1)], 8_001);
        assert_eq!(spec.packet_count(), 2);
    }
}
