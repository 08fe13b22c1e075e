//! `ImobifApp`: the iMobif framework as a [`imobif_netsim::Application`].
//!
//! This module is the paper's Fig. 1 (`FlowOperations`) made executable:
//! sources stamp strategy/status/flow-length into data headers and pace the
//! flow; relays compute their preferred position, fold the with/without-
//! mobility cost-benefit sample into the header, forward, and move when
//! enabled; destinations compare the aggregated hypotheses and send
//! enable/disable notifications back to the source.

use std::sync::Arc;

use imobif_geom::{FxHashMap, Point2};
use imobif_netsim::{Application, EnergyCategory, FlowId, NodeCtx, NodeId, Outbox, SimDuration};
use serde::{Deserialize, Serialize};

use crate::decision::{self, Decision, DecisionCache, DecisionCacheConfig, DecisionInputs};
use crate::{
    Aggregate, DataHeader, FlowEntry, FlowRole, FlowTable, ImobifMsg, MobilityMode,
    MobilityStrategy, Notification, StrategyInputs, StrategyKind, StrategyRegistry,
};

/// Node-level iMobif configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImobifConfig {
    /// The control mode (no-mobility / cost-unaware / informed).
    pub mode: MobilityMode,
    /// Maximum movement per processed data packet, in meters (paper §4).
    pub max_step: f64,
    /// Size of a notification packet in bits.
    pub notification_bits: u64,
    /// Strategy-decision cache tolerances.
    pub cache: DecisionCacheConfig,
}

impl Default for ImobifConfig {
    fn default() -> Self {
        ImobifConfig {
            mode: MobilityMode::Informed,
            max_step: 1.0,
            notification_bits: 512,
            cache: DecisionCacheConfig::default(),
        }
    }
}

/// Source-side state of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceFlow {
    /// Total flow length in bits.
    pub total_bits: u64,
    /// Bits handed to the network so far.
    pub sent_bits: u64,
    /// Data packet payload size in bits.
    pub packet_bits: u64,
    /// Packet pacing interval (paper: 1 KB/s ⇒ one 8000-bit packet/second).
    pub interval: SimDuration,
    /// Current mobility status (enabled/disabled), as selected by the
    /// source and updated by destination notifications.
    pub mobility_enabled: bool,
    /// Multiplier applied to the true residual flow length when stamping
    /// headers — 1.0 for perfect estimates; the `ext_estimate` experiment
    /// studies the paper's future-work question of inaccurate estimates.
    pub estimate_factor: f64,
    /// Next sequence number.
    pub seq: u64,
    /// How many times notifications flipped the status.
    pub status_changes: u64,
    /// The mobility strategy this source selected for the flow (paper §2:
    /// "flow sources select the mobility strategy and status").
    pub strategy: StrategyKind,
}

impl SourceFlow {
    /// Bits not yet sent.
    #[must_use]
    pub fn remaining_bits(&self) -> u64 {
        self.total_bits - self.sent_bits
    }

    /// Returns `true` once the whole flow has been handed to the network.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.sent_bits >= self.total_bits
    }
}

/// Destination-side state of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DestFlow {
    /// Payload bits received.
    pub received_bits: u64,
    /// Data packets received.
    pub received_packets: u64,
    /// Notifications sent back to the source (paper Fig. 7's metric).
    pub notifications_sent: u64,
    /// The last aggregate seen, for inspection.
    pub last_aggregate: Option<Aggregate>,
}

/// Miscellaneous per-node protocol counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImobifCounters {
    /// Data packets this node forwarded as a relay.
    pub data_packets_relayed: u64,
    /// Notifications this node forwarded toward a source.
    pub notifications_forwarded: u64,
    /// Times the neighbor table lacked fresh prev/next info, so the relay
    /// forwarded without computing mobility.
    pub info_misses: u64,
    /// Packets for flows with no local flow-table entry.
    pub unroutable_packets: u64,
    /// Movement actions issued.
    pub moves_executed: u64,
    /// Packets naming a strategy absent from this node's registry; they
    /// are forwarded without mobility processing.
    pub unknown_strategy: u64,
    /// Relay strategy evaluations served from the decision cache.
    pub cache_hits: u64,
    /// Relay strategy evaluations computed fresh (cache miss or disabled).
    pub cache_misses: u64,
}

/// The iMobif protocol agent running on every node.
///
/// One instance per node; the same type plays source, relay and destination
/// according to the flow table installed by [`crate::install_flow`].
///
/// # Example
///
/// See [`crate::install_flow`] for an end-to-end example; unit tests in
/// this module exercise each role in isolation.
#[derive(Debug)]
pub struct ImobifApp {
    registry: Arc<StrategyRegistry>,
    agent: Agent,
}

/// An [`ImobifApp`]'s state apart from its strategy list, with the
/// protocol handlers. Kept apart so a handler can borrow the strategy a
/// packet names from the registry while it updates this state: the batch
/// engine's workers share one registry `Arc`, and a clone per packet would
/// move its reference count's cache line between their cores.
#[derive(Debug)]
struct Agent {
    config: ImobifConfig,
    flows: FlowTable,
    sources: FxHashMap<FlowId, SourceFlow>,
    dests: FxHashMap<FlowId, DestFlow>,
    /// Latest per-flow movement targets; multiple concurrent flows are
    /// superposed by [`ImobifApp::combined_target`]. Kept sorted by flow id
    /// so `combined_target` sums the flows in one f64 order, whatever order
    /// their packets first arrived in: a node's movement is a function of
    /// its flows, never of a hash map's iteration order.
    targets: Vec<(FlowId, Point2)>,
    /// Per-flow memo of the last strategy evaluation (see
    /// [`DecisionCacheConfig`]).
    caches: FxHashMap<FlowId, DecisionCache>,
    counters: ImobifCounters,
}

impl ImobifApp {
    /// Creates an agent whose strategy list holds exactly `strategy` — the
    /// common single-goal deployment. Each call allocates a registry of its
    /// own; a world of many agents sharing one strategy builds one
    /// [`StrategyRegistry::single`] and hands each agent a clone of its
    /// `Arc` through [`ImobifApp::with_registry`].
    #[must_use]
    pub fn new(config: ImobifConfig, strategy: Arc<dyn MobilityStrategy>) -> Self {
        ImobifApp::with_registry(config, Arc::new(StrategyRegistry::single(strategy)))
    }

    /// Creates an agent with a full strategy list (paper Assumption 1);
    /// packet headers name which entry applies to each flow.
    #[must_use]
    pub fn with_registry(config: ImobifConfig, registry: Arc<StrategyRegistry>) -> Self {
        ImobifApp {
            registry,
            agent: Agent {
                config,
                flows: FlowTable::new(),
                sources: FxHashMap::default(),
                dests: FxHashMap::default(),
                targets: Vec::new(),
                caches: FxHashMap::default(),
                counters: ImobifCounters::default(),
            },
        }
    }

    /// The agent's configuration.
    #[must_use]
    pub fn config(&self) -> &ImobifConfig {
        &self.agent.config
    }

    /// The agent's strategy list.
    #[must_use]
    pub fn registry(&self) -> &Arc<StrategyRegistry> {
        &self.registry
    }

    /// Installs a flow-table entry (done by [`crate::install_flow`] at flow
    /// setup; the paper pins each flow's path when routing resolves it).
    pub fn install_entry(&mut self, entry: FlowEntry) {
        self.agent.flows.install(entry);
    }

    /// Registers this node as the source of `flow`.
    pub fn register_source(&mut self, flow: FlowId, source: SourceFlow) {
        self.agent.sources.insert(flow, source);
    }

    /// The flow table.
    #[must_use]
    pub fn flow_table(&self) -> &FlowTable {
        &self.agent.flows
    }

    /// Source-side state of `flow`, if this node sources it.
    #[must_use]
    pub fn source(&self, flow: FlowId) -> Option<&SourceFlow> {
        self.agent.sources.get(&flow)
    }

    /// Destination-side state of `flow`, if this node has received any of
    /// it.
    #[must_use]
    pub fn dest(&self, flow: FlowId) -> Option<&DestFlow> {
        self.agent.dests.get(&flow)
    }

    /// Protocol counters.
    #[must_use]
    pub fn counters(&self) -> &ImobifCounters {
        &self.agent.counters
    }

    /// The movement target this node currently pursues for `flow`.
    #[must_use]
    pub fn target(&self, flow: FlowId) -> Option<Point2> {
        let targets = &self.agent.targets;
        targets.binary_search_by_key(&flow, |&(f, _)| f).ok().map(|i| targets[i].1)
    }

    /// Superposes the targets of all flows traversing this node, weighted
    /// by each flow's residual length in bits.
    ///
    /// For a single flow this is that flow's target. With several flows a
    /// node cannot satisfy all of them, so it aims for the residual-traffic-
    /// weighted centroid — longer remaining flows pull harder. This is the
    /// multi-flow composition sketched in the paper's §2 (detailed in its
    /// technical report \[13\]).
    #[must_use]
    pub fn combined_target(&self) -> Option<Point2> {
        self.agent.combined_target()
    }
}

impl Agent {
    /// See [`ImobifApp::combined_target`].
    fn combined_target(&self) -> Option<Point2> {
        decision::combined_target(self.targets.iter().map(|&(flow, target)| {
            (target, self.flows.get(flow).map(|e| e.residual_bits.max(1.0)).unwrap_or(1.0))
        }))
    }

    /// One strategy evaluation — [`decision::evaluate_relay`] served from
    /// the per-flow cache when the inputs are within tolerance of the last
    /// computed ones (see [`DecisionCacheConfig`]).
    fn evaluate(
        &mut self,
        ctx: &NodeCtx<'_>,
        strategy: &dyn MobilityStrategy,
        flow: FlowId,
        inputs: &DecisionInputs,
    ) -> Option<Decision> {
        let cache_cfg = self.config.cache;
        if cache_cfg.enabled {
            if let Some(cached) = self.caches.get(&flow) {
                if let Some(hit) = cached.lookup(inputs, &cache_cfg) {
                    self.counters.cache_hits += 1;
                    return hit;
                }
            }
        }
        self.counters.cache_misses += 1;
        let outcome =
            decision::evaluate_relay(strategy, inputs, ctx.tx_model(), ctx.mobility_model());
        if cache_cfg.enabled {
            self.caches.insert(flow, DecisionCache::store(*inputs, outcome));
        }
        outcome
    }

    /// Relay-side handling of a data packet (Fig. 1 lines 12–27).
    fn relay_data(
        &mut self,
        ctx: &NodeCtx<'_>,
        strategy: Option<&dyn MobilityStrategy>,
        mut header: DataHeader,
        next: NodeId,
        prev: NodeId,
        out: &mut Outbox<ImobifMsg>,
    ) {
        self.counters.data_packets_relayed += 1;
        let mut move_target = None;
        match (strategy, ctx.peer_info(prev), ctx.peer_info(next)) {
            (Some(strategy), Some(prev_info), Some(next_info)) => {
                let inputs = DecisionInputs {
                    triple: StrategyInputs {
                        prev_position: prev_info.position,
                        prev_residual: prev_info.residual_energy,
                        self_position: ctx.position(),
                        self_residual: ctx.residual_energy(),
                        next_position: next_info.position,
                        next_residual: next_info.residual_energy,
                    },
                    residual_flow_bits: header.residual_flow_bits,
                };
                if let Some(d) = self.evaluate(ctx, strategy, header.flow, &inputs) {
                    decision::fold_sample(strategy, &mut header.aggregate, &d);
                    match self.targets.binary_search_by_key(&header.flow, |&(f, _)| f) {
                        Ok(i) => self.targets[i].1 = d.target,
                        Err(i) => self.targets.insert(i, (header.flow, d.target)),
                    }
                    if self.config.mode.should_move(header.mobility_enabled) {
                        if let Some(combined) = self.combined_target() {
                            self.counters.moves_executed += 1;
                            move_target = Some(combined);
                        }
                    }
                }
            }
            (None, _, _) => self.counters.unknown_strategy += 1,
            _ => self.counters.info_misses += 1,
        }
        // Fig. 1: forward first (line 22), then move (line 26) — the packet
        // is transmitted from the pre-move position.
        out.send(next, header.payload_bits, ImobifMsg::Data(header), EnergyCategory::Data);
        if let Some(target) = move_target {
            out.move_toward(target, self.config.max_step);
        }
    }

    /// Destination-side handling (Fig. 1 lines 7–11 and
    /// `UpdateMobilityStatus`, lines 29–36).
    fn deliver_data(
        &mut self,
        strategy: Option<&dyn MobilityStrategy>,
        header: DataHeader,
        prev: NodeId,
        out: &mut Outbox<ImobifMsg>,
    ) {
        let dest = self.dests.entry(header.flow).or_default();
        dest.received_bits += header.payload_bits;
        dest.received_packets += 1;
        dest.last_aggregate = Some(header.aggregate);
        if !self.config.mode.uses_notifications() {
            return;
        }
        let Some(strategy) = strategy else {
            self.counters.unknown_strategy += 1;
            return;
        };
        let verdict =
            decision::status_verdict(strategy, &header.aggregate, header.mobility_enabled);
        let Some(enable) = verdict else {
            return;
        };
        dest.notifications_sent += 1;
        out.send(
            prev,
            self.config.notification_bits,
            ImobifMsg::Notification(Notification {
                flow: header.flow,
                enable,
                aggregate: header.aggregate,
            }),
            EnergyCategory::Notification,
        );
    }

    fn handle_data(
        &mut self,
        registry: &StrategyRegistry,
        ctx: &NodeCtx<'_>,
        header: DataHeader,
        out: &mut Outbox<ImobifMsg>,
    ) {
        let Some(entry) = self.flows.get_mut(header.flow) else {
            self.counters.unroutable_packets += 1;
            return;
        };
        entry.residual_bits = header.residual_flow_bits;
        entry.mobility_enabled = header.mobility_enabled;
        let (role, prev, next) = (entry.role, entry.prev, entry.next);
        // Resolve the strategy the header names against the local list
        // (Assumption 1); unknown strategies degrade to plain forwarding.
        let strategy = registry.get(header.strategy);
        match role {
            FlowRole::Destination => {
                let prev = prev.expect("destination entries have a prev");
                self.deliver_data(strategy, header, prev, out);
            }
            FlowRole::Relay => {
                let next = next.expect("relay entries have a next");
                let prev = prev.expect("relay entries have a prev");
                self.relay_data(ctx, strategy, header, next, prev, out);
            }
            FlowRole::Source => {
                // A data packet delivered to its own source is a routing
                // bug upstream; drop it.
                self.counters.unroutable_packets += 1;
            }
        }
    }

    fn handle_notification(&mut self, n: Notification, out: &mut Outbox<ImobifMsg>) {
        let Some(entry) = self.flows.get(n.flow) else {
            self.counters.unroutable_packets += 1;
            return;
        };
        match entry.role {
            FlowRole::Source => {
                if let Some(sf) = self.sources.get_mut(&n.flow) {
                    if sf.mobility_enabled != n.enable {
                        sf.mobility_enabled = n.enable;
                        sf.status_changes += 1;
                    }
                }
            }
            FlowRole::Relay | FlowRole::Destination => {
                if let Some(prev) = entry.prev {
                    self.counters.notifications_forwarded += 1;
                    out.send(
                        prev,
                        self.config.notification_bits,
                        ImobifMsg::Notification(n),
                        EnergyCategory::Notification,
                    );
                }
            }
        }
    }

    /// Emits the next data packet of `flow` (source role).
    fn emit_packet(
        &mut self,
        registry: &StrategyRegistry,
        ctx: &NodeCtx<'_>,
        flow: FlowId,
        out: &mut Outbox<ImobifMsg>,
    ) {
        let Some(entry) = self.flows.get(flow).copied() else {
            return;
        };
        let Some(next) = entry.next else {
            return;
        };
        let Some(sf) = self.sources.get_mut(&flow) else {
            return;
        };
        if sf.is_finished() {
            return;
        }
        // A source whose own list lacks the selected strategy still ships
        // the data — mobility simply stays off for the flow.
        let (aggregate, mobility_enabled) = match registry.get(sf.strategy) {
            Some(strategy) => (strategy.init_aggregate(), sf.mobility_enabled),
            None => {
                self.counters.unknown_strategy += 1;
                (Aggregate::min_identity(), false)
            }
        };
        let sf = self.sources.get_mut(&flow).expect("checked above");
        let payload = sf.packet_bits.min(sf.remaining_bits());
        // `f_ℓ`: the residual flow length *including* this packet, scaled by
        // the (possibly imperfect) application estimate.
        let residual_estimate = (sf.remaining_bits() as f64) * sf.estimate_factor;
        sf.sent_bits += payload;
        let header = DataHeader {
            flow,
            source: ctx.id(),
            destination: entry.destination,
            strategy: sf.strategy,
            mobility_enabled,
            residual_flow_bits: residual_estimate,
            payload_bits: payload,
            seq: sf.seq,
            aggregate,
        };
        sf.seq += 1;
        let interval = sf.interval;
        let finished = sf.is_finished();
        out.send(next, payload, ImobifMsg::Data(header), EnergyCategory::Data);
        if !finished {
            out.set_timer(interval, flow.raw() as u64);
        }
    }
}

impl Application for ImobifApp {
    type Msg = ImobifMsg;

    fn on_message(
        &mut self,
        ctx: &NodeCtx<'_>,
        _from: NodeId,
        msg: ImobifMsg,
        out: &mut Outbox<ImobifMsg>,
    ) {
        match msg {
            ImobifMsg::Data(header) => self.agent.handle_data(&self.registry, ctx, header, out),
            ImobifMsg::Notification(n) => self.agent.handle_notification(n, out),
        }
    }

    fn on_timer(&mut self, ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<ImobifMsg>) {
        self.agent.emit_packet(&self.registry, ctx, FlowId::new(tag as u32), out)
    }
}
