//! Protocol-causality assertions via kernel tracing: the informed mode's
//! defining property is that *no relay moves before an enable notification
//! has traveled from the destination back to the source*.

use std::sync::Arc;

use imobif::{
    install_flow, FlowSpec, ImobifApp, ImobifConfig, MinEnergyStrategy, MobilityMode,
    MobilityStrategy,
};
use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_netsim::trace::{events_to_jsonl, TraceEvent};
use imobif_netsim::{EnergyCategory, FlowId, NodeId, SimConfig, SimTime, World};
use imobif_obs::fnv1a64;

/// FNV-1a64 of the canonical informed-mode run's full JSONL kernel trace,
/// recorded before the world/decision subsystem split. Any refactor of the
/// kernel, mobility, beacon, or delivery subsystems must reproduce this trace
/// byte for byte. The event queue produced this value as a bare binary
/// heap, then as a calendar queue, and again as a binary heap beside the
/// beacon lane, so this pin also checks the queue's pop order on a whole
/// run.
const INFORMED_RUN_TRACE_FNV: u64 = 0x7812_64e5_cdd6_e29f;

fn informed_world() -> (World<ImobifApp>, Vec<NodeId>) {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut w = World::new(SimConfig::default()).unwrap();
    let cfg = ImobifConfig { mode: MobilityMode::Informed, ..Default::default() };
    let pts = [(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)];
    let ids = pts
        .iter()
        .map(|&(x, y)| {
            w.add_node(
                Point2::new(x, y),
                Battery::new(100_000.0).unwrap(),
                ImobifApp::new(cfg, strategy.clone()),
            )
        })
        .collect();
    w.enable_tracing(100_000);
    w.start();
    (w, ids)
}

#[test]
fn movement_waits_for_the_enable_notification() {
    let (mut w, ids) = informed_world();
    // Mobility initially disabled; a 6 MB flow makes enabling worthwhile.
    install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), ids.clone(), 48_000_000))
        .unwrap();
    w.run_while(|w| w.time() < SimTime::from_micros(200_000_000));

    let trace = w.trace().expect("tracing enabled");
    let first_move = trace
        .filtered(|e| matches!(e, TraceEvent::Moved { .. }))
        .first()
        .map(TraceEvent::time)
        .expect("a 6 MB flow must trigger movement");
    let notif_sends = trace
        .filtered(|e| matches!(e, TraceEvent::Sent { category: EnergyCategory::Notification, .. }));
    // The enable request travels dest → relays → source: path length − 1
    // notification transmissions before anything may move.
    assert!(
        notif_sends.len() >= ids.len() - 1,
        "expected a full reverse path of notification sends, got {}",
        notif_sends.len()
    );
    let first_notif = notif_sends.first().map(TraceEvent::time).expect("non-empty");
    assert!(
        first_notif < first_move,
        "movement at {first_move} must not precede the first notification at {first_notif}"
    );
    // And the notification chain must have REACHED the source before the
    // first movement: the (path_len - 1)-th notification send precedes it.
    let chain_complete = notif_sends[ids.len() - 2].time();
    assert!(chain_complete <= first_move);
}

#[test]
fn informed_run_trace_fingerprint_is_pinned() {
    let (mut w, ids) = informed_world();
    install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), ids.clone(), 48_000_000))
        .unwrap();
    w.run_while(|w| w.time() < SimTime::from_micros(200_000_000));
    let jsonl = events_to_jsonl(&w.trace().expect("tracing enabled").events());
    assert_eq!(
        fnv1a64(jsonl.as_bytes()),
        INFORMED_RUN_TRACE_FNV,
        "kernel trace drifted from the pre-refactor pin; the event loop, \
         mobility, beacon, and delivery subsystems must stay bit-identical"
    );
}

#[test]
fn no_mobility_traces_contain_no_movement_or_notifications() {
    let strategy: Arc<dyn MobilityStrategy> = Arc::new(MinEnergyStrategy::new());
    let mut w = World::new(SimConfig::default()).unwrap();
    let cfg = ImobifConfig { mode: MobilityMode::NoMobility, ..Default::default() };
    let pts = [(0.0, 0.0), (14.0, 10.0), (32.0, -10.0), (50.0, 10.0), (64.0, 0.0)];
    let ids: Vec<NodeId> = pts
        .iter()
        .map(|&(x, y)| {
            w.add_node(
                Point2::new(x, y),
                Battery::new(100_000.0).unwrap(),
                ImobifApp::new(cfg, strategy.clone()),
            )
        })
        .collect();
    w.enable_tracing(100_000);
    w.start();
    install_flow(&mut w, &FlowSpec::paper_default(FlowId::new(0), ids.clone(), 800_000)).unwrap();
    w.run_while(|w| w.time() < SimTime::from_micros(150_000_000));
    let trace = w.trace().expect("tracing enabled");
    assert!(trace.filtered(|e| matches!(e, TraceEvent::Moved { .. })).is_empty());
    assert!(trace
        .filtered(|e| matches!(e, TraceEvent::Sent { category: EnergyCategory::Notification, .. }))
        .is_empty());
    assert!(trace.filtered(|e| matches!(e, TraceEvent::Died { .. })).is_empty());
    // Every data send has a matching delivery (loss-free medium, all alive).
    let sent = trace
        .filtered(|e| matches!(e, TraceEvent::Sent { category: EnergyCategory::Data, .. }))
        .len();
    let delivered = trace.filtered(|e| matches!(e, TraceEvent::Delivered { .. })).len();
    assert_eq!(sent, delivered);
}
