//! Sharded-world tests: shard-count/thread-count invariance, effect-order
//! pins in the merged trace, reset identity, and layout geometry.

use super::*;
use crate::trace::TraceEvent;
use crate::{EnergyCategory, NodeCtx, Outbox};
use imobif_energy::{LinearMobilityCost, PowerLawModel};

/// Test protocol: forwards a counter along a chain, optionally moves on
/// receipt, and records what it saw.
#[derive(Debug, Default)]
struct Echo {
    received: Vec<(NodeId, u32)>,
    forward_to: Option<NodeId>,
    move_target: Option<Point2>,
    seen_neighbors: usize,
}

impl Application for Echo {
    type Msg = u32;

    fn on_message(&mut self, _ctx: &NodeCtx<'_>, from: NodeId, msg: u32, out: &mut Outbox<u32>) {
        self.received.push((from, msg));
        if let Some(next) = self.forward_to {
            out.send(next, 8000, msg + 1, EnergyCategory::Data);
        }
        if let Some(target) = self.move_target {
            out.move_toward(target, 1.0);
        }
    }

    fn on_timer(&mut self, ctx: &NodeCtx<'_>, tag: u64, out: &mut Outbox<u32>) {
        self.seen_neighbors = ctx.neighbors().len();
        if let Some(next) = self.forward_to {
            out.send(next, 8000, tag as u32, EnergyCategory::Data);
        }
    }
}

const BOUNDS: (Point2, Point2) = (Point2 { x: 0.0, y: 0.0 }, Point2 { x: 100.0, y: 100.0 });

fn make_sharded(shards: usize) -> ShardedWorld<Echo> {
    ShardedWorld::new(
        SimConfig::default(),
        Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
        Arc::new(LinearMobilityCost::new(0.5).unwrap()),
        BOUNDS,
        shards,
    )
    .unwrap()
}

#[derive(Debug, Clone)]
struct Scenario {
    positions: Vec<Point2>,
    joules: f64,
    move_y: f64,
    timers: Vec<u64>,
    run_micros: u64,
}

/// Everything observable about a finished run. Derives `PartialEq` so the
/// invariance tests compare runs bit-for-bit (energies via `to_bits`).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    positions: Vec<Point2>,
    energies: Vec<u64>,
    total_moved: Vec<u64>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    totals: [u64; 4],
    first_death: Option<(NodeId, SimTime)>,
    events_processed: u64,
    time: SimTime,
    trace: Vec<TraceEvent>,
    fnv: u64,
}

fn run_scenario(w: &mut ShardedWorld<Echo>, sc: &Scenario) -> Fingerprint {
    let ids: Vec<NodeId> = sc
        .positions
        .iter()
        .map(|&p| w.add_node(p, Battery::new(sc.joules).unwrap(), Echo::default()))
        .collect();
    w.enable_tracing();
    for pair in ids.windows(2) {
        w.app_mut(pair[0]).forward_to = Some(pair[1]);
    }
    if ids.len() > 1 {
        w.app_mut(ids[1]).move_target = Some(Point2::new(50.0, sc.move_y));
    }
    w.start();
    for (i, &t) in sc.timers.iter().enumerate() {
        w.schedule_timer(ids[0], SimDuration::from_millis(t), i as u64);
    }
    w.run_until(SimTime::from_micros(sc.run_micros));
    let totals = w.totals();
    Fingerprint {
        positions: ids.iter().map(|&id| w.position(id)).collect(),
        energies: ids.iter().map(|&id| w.residual_energy(id).to_bits()).collect(),
        total_moved: ids.iter().map(|&id| w.total_moved(id).to_bits()).collect(),
        sent: w.packets_sent(),
        delivered: w.packets_delivered(),
        dropped: w.packets_dropped(),
        totals: [
            totals.data.to_bits(),
            totals.mobility.to_bits(),
            totals.hello.to_bits(),
            totals.notification.to_bits(),
        ],
        first_death: w.first_death(),
        events_processed: w.events_processed(),
        time: w.time(),
        trace: w.merged_trace(),
        fnv: w.trace_fnv(),
    }
}

// ---------------------------------------------------------------- layout

#[test]
fn layout_factors_into_most_square_grid() {
    let cases = [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4)), (5, (1, 5))];
    for (shards, dims) in cases {
        let l = ShardLayout::new(BOUNDS.0, BOUNDS.1, shards);
        assert_eq!(l.grid_dims(), dims, "shards={shards}");
        assert_eq!(l.shard_count(), shards);
    }
}

#[test]
fn layout_maps_every_point_to_a_valid_cell() {
    let l = ShardLayout::new(BOUNDS.0, BOUNDS.1, 4);
    assert_eq!(l.shard_of(Point2::new(10.0, 10.0)), 0);
    assert_eq!(l.shard_of(Point2::new(90.0, 10.0)), 1);
    assert_eq!(l.shard_of(Point2::new(10.0, 90.0)), 2);
    assert_eq!(l.shard_of(Point2::new(90.0, 90.0)), 3);
    // Outside the bounds clamps to edge cells; degenerate bounds still map.
    assert_eq!(l.shard_of(Point2::new(-5.0, -5.0)), 0);
    assert_eq!(l.shard_of(Point2::new(500.0, 500.0)), 3);
    let degenerate = ShardLayout::new(Point2::new(3.0, 3.0), Point2::new(3.0, 3.0), 4);
    assert!(degenerate.shard_of(Point2::new(3.0, 3.0)) < 4);
}

// ------------------------------------------------------------ construction

#[test]
fn sharded_world_rejects_unshardable_configs() {
    let mk = |cfg: SimConfig, shards: usize| {
        ShardedWorld::<Echo>::new(
            cfg,
            Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
            Arc::new(LinearMobilityCost::new(0.5).unwrap()),
            BOUNDS,
            shards,
        )
        .map(|_| ())
    };
    let mut no_hello = SimConfig::default();
    no_hello.hello.enabled = false;
    assert_eq!(mk(no_hello, 2), Err(SimError::InvalidConfig { field: "hello.enabled" }));
    let no_lookahead = SimConfig { hop_latency: SimDuration::ZERO, ..SimConfig::default() };
    assert_eq!(mk(no_lookahead, 2), Err(SimError::InvalidConfig { field: "hop_latency" }));
    assert_eq!(mk(SimConfig::default(), 0), Err(SimError::InvalidConfig { field: "shards" }));
}

// -------------------------------------------------------------- semantics

#[test]
fn cross_shard_chain_delivers_and_charges_like_a_chain_should() {
    // Three nodes spanning all four shards' midline, 20 m apart.
    let mut w = make_sharded(4);
    let sc = Scenario {
        positions: vec![Point2::new(30.0, 50.0), Point2::new(50.0, 50.0), Point2::new(70.0, 50.0)],
        joules: 10.0,
        move_y: 50.0,
        timers: vec![10],
        run_micros: 10_000_000,
    };
    let ids = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
    let fp = run_scenario(&mut w, &sc);
    assert_eq!(w.app(ids[2]).received, vec![(ids[1], 1)]);
    assert!(fp.delivered >= 2, "timer packet relayed across two hops");
    let e0 = w.node_energy(ids[0]).data;
    let expected = PowerLawModel::paper_default(2.0).unwrap().energy(20.0, 8000.0);
    assert!((e0 - expected).abs() < 1e-12, "sender charged for the 20 m hop");
    // The ledger total equals the battery drawdown.
    let drawdown: f64 = ids.iter().map(|&id| 10.0 - w.residual_energy(id)).sum();
    assert!((w.totals().total() - drawdown).abs() < 1e-9);
}

#[test]
fn hello_observations_cross_shard_boundaries() {
    // Two nodes 2 m apart but on opposite sides of the 2×2 layout's
    // vertical midline: neighbor knowledge can only arrive via the barrier.
    let mut w = make_sharded(4);
    let a = w.add_node(Point2::new(49.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(51.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    assert_ne!(w.layout().shard_of(w.position(a)), w.layout().shard_of(w.position(b)));
    w.start();
    w.schedule_timer(a, SimDuration::from_millis(2500), 0);
    w.schedule_timer(b, SimDuration::from_millis(2500), 0);
    w.run_until(SimTime::from_micros(3_000_000));
    assert_eq!(w.app(a).seen_neighbors, 1, "a heard b's beacons across the boundary");
    assert_eq!(w.app(b).seen_neighbors, 1, "b heard a's beacons across the boundary");
    let stats = w.kernel_stats();
    assert!(stats.hello_beacons >= 6);
    assert_eq!(stats.hello_fanout_bins.iter().sum::<u64>(), stats.hello_beacons);
}

#[test]
fn trace_pins_sent_before_delivered() {
    let mut w = make_sharded(2);
    let sc = Scenario {
        positions: vec![Point2::new(40.0, 50.0), Point2::new(60.0, 50.0)],
        joules: 10.0,
        move_y: 50.0,
        timers: vec![5],
        run_micros: 2_000_000,
    };
    let fp = run_scenario(&mut w, &sc);
    let sent_at = fp.trace.iter().position(|e| matches!(e, TraceEvent::Sent { .. }));
    let delivered_at = fp.trace.iter().position(|e| matches!(e, TraceEvent::Delivered { .. }));
    assert!(sent_at.unwrap() < delivered_at.unwrap(), "Sent precedes its Delivered");
}

#[test]
fn trace_pins_died_then_dropped_on_unaffordable_send() {
    let mut w = make_sharded(2);
    let a = w.add_node(Point2::new(40.0, 50.0), Battery::new(1e-6).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(60.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.enable_tracing();
    w.start();
    w.schedule_timer(a, SimDuration::from_millis(5), 0);
    w.run_until(SimTime::from_micros(1_000_000));
    let trace = w.merged_trace();
    let died = trace.iter().position(|e| matches!(e, TraceEvent::Died { .. })).unwrap();
    let dropped = trace.iter().position(|e| matches!(e, TraceEvent::Dropped { .. })).unwrap();
    assert!(died < dropped, "the kernel order: Kill (recording Died) then Dropped");
    assert!(!trace.iter().any(|e| matches!(e, TraceEvent::Sent { .. })));
    assert!(!w.is_alive(a));
    assert_eq!(w.first_death().unwrap().0, a);
}

#[test]
fn trace_pins_partial_moved_then_died_on_midstep_death() {
    let mut w = make_sharded(2);
    // b can afford receiving (free) but not the full 1 m step (cost 0.5/m):
    // budget 0.3 J ⇒ 0.6 m partial move, then death.
    let a = w.add_node(Point2::new(40.0, 50.0), Battery::new(10.0).unwrap(), Echo::default());
    let b = w.add_node(Point2::new(60.0, 50.0), Battery::new(0.3).unwrap(), Echo::default());
    w.app_mut(a).forward_to = Some(b);
    w.app_mut(b).move_target = Some(Point2::new(60.0, 90.0));
    w.enable_tracing();
    w.start();
    w.schedule_timer(a, SimDuration::from_millis(5), 0);
    w.run_until(SimTime::from_micros(1_000_000));
    let trace = w.merged_trace();
    let moved = trace.iter().position(|e| matches!(e, TraceEvent::Moved { .. })).unwrap();
    let died = trace.iter().position(|e| matches!(e, TraceEvent::Died { .. })).unwrap();
    assert!(moved < died, "partial Moved strictly precedes Died");
    match &trace[moved] {
        TraceEvent::Moved { energy, to, .. } => {
            assert!((energy - 0.3).abs() < 1e-9, "the whole residual is spent");
            assert!((to.y - 50.0 - 0.6).abs() < 1e-9, "moved exactly as far as affordable");
        }
        other => panic!("expected Moved, got {other:?}"),
    }
    assert!(!w.is_alive(b));
}

// ------------------------------------------------------------- invariance

fn invariance_scenario() -> Scenario {
    Scenario {
        positions: vec![
            Point2::new(12.0, 80.0),
            Point2::new(30.0, 70.0),
            Point2::new(48.0, 55.0),
            Point2::new(62.0, 48.0),
            Point2::new(80.0, 30.0),
            Point2::new(95.0, 12.0),
        ],
        joules: 0.8,
        move_y: 20.0,
        timers: vec![0, 150, 300, 450],
        run_micros: 8_000_000,
    }
}

#[test]
fn shard_count_is_invisible_in_every_observable() {
    let sc = invariance_scenario();
    let mut base_w = make_sharded(1);
    let base = run_scenario(&mut base_w, &sc);
    assert!(base.delivered > 0 && base.sent > 0, "scenario exercises the data plane");
    for shards in [2usize, 4, 8, 16] {
        let mut w = make_sharded(shards);
        let got = run_scenario(&mut w, &sc);
        assert_eq!(got, base, "{shards}-shard run diverged from the 1-shard reference");
    }
}

#[test]
fn thread_count_is_invisible_in_every_observable() {
    let sc = invariance_scenario();
    let mut serial = make_sharded(4);
    let base = run_scenario(&mut serial, &sc);
    for threads in [2usize, 4] {
        let mut w = make_sharded(4);
        w.set_threads(threads);
        let got = run_scenario(&mut w, &sc);
        assert_eq!(got, base, "{threads}-thread run diverged from the serial run");
    }
}

proptest::proptest! {
    /// The tentpole guarantee, over random topologies: a 1-shard world and
    /// N-shard worlds (serial and threaded) produce bit-identical traces,
    /// energies, counters and death times.
    #[test]
    fn prop_one_vs_n_shards_trace_identity(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..10.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 2usize..9,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut base_w = make_sharded(1);
        let base = run_scenario(&mut base_w, &sc);
        let mut w = make_sharded(shards);
        let got = run_scenario(&mut w, &sc);
        proptest::prop_assert_eq!(&got, &base);
        let mut threaded = make_sharded(shards);
        threaded.set_threads(2);
        let got_threaded = run_scenario(&mut threaded, &sc);
        proptest::prop_assert_eq!(&got_threaded, &base);
    }

    /// Reset-and-reuse is bit-identical to a fresh sharded world, including
    /// across shard-count changes (the warmup runs at a different count).
    #[test]
    fn prop_reset_sharded_world_matches_fresh(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..8),
        joules in 0.001..10.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..4),
        shards in 1usize..6,
        warm_shards in 1usize..6,
        warm_n in 1usize..6,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y: 10.0,
            timers,
            run_micros: 3_000_000,
        };
        let mut fresh = make_sharded(shards);
        let want = run_scenario(&mut fresh, &sc);

        let mut reused = make_sharded(warm_shards);
        let warmup = Scenario {
            positions: (0..warm_n).map(|i| Point2::new(5.0 + 13.0 * i as f64, 33.0)).collect(),
            joules: 0.02,
            move_y: 70.0,
            timers: vec![20, 40],
            run_micros: 2_000_000,
        };
        let _ = run_scenario(&mut reused, &warmup);
        let mut apps = Vec::new();
        reused
            .reset_into(
                SimConfig::default(),
                Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
                Arc::new(LinearMobilityCost::new(0.5).unwrap()),
                BOUNDS,
                shards,
                &mut apps,
            )
            .unwrap();
        proptest::prop_assert_eq!(apps.len(), warm_n, "old apps are recycled to the caller");
        let got = run_scenario(&mut reused, &sc);
        proptest::prop_assert_eq!(&got, &want);
    }

    /// The delta-synced replica equals the ground truth rebuilt from every
    /// shard's authoritative state after arbitrary move/kill sequences —
    /// the low-energy scenarios here die mid-run, the mover relocates
    /// across shard boundaries, and the pool path is exercised too.
    #[test]
    fn prop_delta_synced_replica_matches_ground_truth(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..2.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut w = make_sharded(shards);
        w.set_threads(threads);
        let _ = run_scenario(&mut w, &sc);
        let sync = w.verify_replica_sync();
        proptest::prop_assert!(sync.is_ok(), "replica diverged: {:?}", sync);
    }

    /// Epoch fast-forward (the activity scheduler skipping idle shards) is
    /// observationally identical to stepping every shard through every
    /// epoch, across 1..16 shards and 1..4 workers.
    #[test]
    fn prop_fast_forward_matches_dense_epochs(
        coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..9),
        joules in 0.001..10.0f64,
        move_y in 0.0..100.0f64,
        timers in proptest::collection::vec(0u64..1_000, 0..5),
        shards in 1usize..17,
        threads in 1usize..5,
    ) {
        let sc = Scenario {
            positions: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
            joules,
            move_y,
            timers,
            run_micros: 4_000_000,
        };
        let mut dense = make_sharded(shards);
        dense.set_dense_epochs(true);
        let want = run_scenario(&mut dense, &sc);
        let mut fast = make_sharded(shards);
        fast.set_threads(threads);
        let got = run_scenario(&mut fast, &sc);
        proptest::prop_assert_eq!(&got, &want);
    }
}

// ----------------------------------------------------------- hearer cache

/// A 7×7 lattice inside `BOUNDS`: past the small-world scan, so beacons go
/// through the replica grid and the shards' hearer caches.
fn lattice_scenario() -> Scenario {
    Scenario {
        positions: (0..49)
            .map(|i| Point2::new((i % 7) as f64 * 14.0 + 3.0, (i / 7) as f64 * 14.0 + 3.0))
            .collect(),
        joules: 10.0,
        move_y: 90.0,
        timers: vec![0, 300, 600, 900, 1200],
        run_micros: 4_000_000,
    }
}

/// The run's fingerprint plus what depends on the hearer lists alone: the
/// kernel counters (fan-out bins) and what each node saw in its table.
fn cache_fingerprint(
    w: &mut ShardedWorld<Echo>,
    sc: &Scenario,
) -> (Fingerprint, KernelStats, Vec<usize>) {
    let f = run_scenario(w, sc);
    let seen =
        (0..sc.positions.len() as u32).map(|i| w.app(NodeId::new(i)).seen_neighbors).collect();
    (f, w.kernel_stats(), seen)
}

#[test]
fn hello_cache_is_shard_count_invariant_and_publishes() {
    let sc = lattice_scenario();
    let mut one = make_sharded(1);
    let base = cache_fingerprint(&mut one, &sc);
    assert!(base.1.hello_cache_hits > 0 && base.1.hello_cache_misses > 0);
    assert_eq!(base.1.hello_cache_hits + base.1.hello_cache_misses, base.1.hello_beacons);
    let mut four = make_sharded(4);
    four.set_threads(2);
    assert_eq!(cache_fingerprint(&mut four, &sc), base);

    let reg = imobif_obs::Registry::enabled();
    four.publish_metrics(&reg);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("kernel.hello_cache_hits"), Some(base.1.hello_cache_hits));
    assert_eq!(snap.counter("kernel.hello_cache_misses"), Some(base.1.hello_cache_misses));
    imobif_obs::promlint::lint(&snap.to_prometheus()).expect("kernel families lint clean");
}

#[test]
fn reset_with_a_new_range_matches_fresh() {
    let cfg = SimConfig { range: 20.0, ..SimConfig::default() };
    let sc = lattice_scenario();
    let mut fresh = ShardedWorld::new(
        cfg,
        Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
        Arc::new(LinearMobilityCost::new(0.5).unwrap()),
        BOUNDS,
        4,
    )
    .unwrap();
    let want = cache_fingerprint(&mut fresh, &sc);

    // Fill the caches at the default 30 m range on the same lattice: the
    // stale entries' centers match the next run's nodes, and their stamps
    // are far ahead of the replacement grid's restarted clock.
    let mut reused = make_sharded(4);
    let warm = cache_fingerprint(&mut reused, &sc);
    assert!(warm.1.hello_cache_hits > 0);
    reused
        .reset_into(
            cfg,
            Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
            Arc::new(LinearMobilityCost::new(0.5).unwrap()),
            BOUNDS,
            4,
            &mut Vec::new(),
        )
        .unwrap();
    let got = cache_fingerprint(&mut reused, &sc);
    assert_eq!(got.0.fnv, want.0.fnv);
    assert_eq!(got, want);
}

// ------------------------------------------------------------------ spans

#[test]
fn spans_do_not_perturb_any_observable() {
    let sc = invariance_scenario();
    let mut plain = make_sharded(4);
    let base = run_scenario(&mut plain, &sc);
    assert!(plain.spans().is_none(), "spans stay off unless enabled");

    let mut spanned = make_sharded(4);
    spanned.enable_spans(1 << 12);
    let got = run_scenario(&mut spanned, &sc);
    assert_eq!(got, base, "span tracing changed simulation output");
    let sink = spanned.spans().expect("spans enabled");
    assert!(sink.recorded() > 0, "a run this size records spans");
    let phases: Vec<&str> = sink.aggregates().iter().map(|a| a.name).collect();
    for want in [phase::SCHED, phase::COMPUTE, phase::XFER_MERGE, phase::OBS_APPLY] {
        assert!(phases.contains(&want), "missing phase {want}: {phases:?}");
    }

    let mut pooled = make_sharded(4);
    pooled.set_threads(2);
    pooled.enable_spans(1 << 12);
    let got = run_scenario(&mut pooled, &sc);
    assert_eq!(got, base, "span tracing on the pooled path changed output");
    let sink = pooled.spans().expect("spans enabled");
    assert!(
        sink.aggregates().iter().any(|a| a.name == phase::BARRIER_WAIT),
        "pooled runs record barrier_wait spans"
    );
    assert!(
        sink.aggregates().iter().any(|a| a.name == phase::COMPUTE && a.shard != COORD_SHARD),
        "worker-timed compute spans carry real shard ids"
    );
}

#[test]
fn epoch_profile_is_derived_from_counters_and_span_aggregates() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    assert!(w.epoch_profile().is_none(), "no profile before enabling");
    w.enable_epoch_profiling();
    let _ = run_scenario(&mut w, &sc);
    let p = w.epoch_profile().expect("profiling enabled");
    assert!(p.epochs > 0);
    assert!(p.shard_epochs >= p.epochs, "at least one shard runs per epoch");
    assert!(p.mean_active_shards() <= 4.0);
    assert!(p.sched_secs >= 0.0 && p.compute_secs >= 0.0 && p.apply_secs >= 0.0);
    let sink = w.spans().expect("profiling is span-backed");
    let sched_count: u64 =
        sink.aggregates().iter().filter(|a| a.name == phase::SCHED).map(|a| a.count).sum();
    assert_eq!(sched_count, p.epochs, "one sched span per epoch");
    let compute_count: u64 =
        sink.aggregates().iter().filter(|a| a.name == phase::COMPUTE).map(|a| a.count).sum();
    assert_eq!(compute_count, p.shard_epochs, "one compute span per shard-epoch");
}

#[test]
fn publish_metrics_flushes_shard_families() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    w.enable_spans(1 << 12);
    let _ = run_scenario(&mut w, &sc);
    let p = w.epoch_profile().expect("spans enabled");

    let reg = imobif_obs::Registry::enabled();
    w.publish_metrics(&reg);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("shard.epochs"), Some(p.epochs));
    assert_eq!(snap.counter("shard.shard_epochs"), Some(p.shard_epochs));
    assert_eq!(snap.counter("shard.xfer.delivers_merged"), Some(p.delivers_merged));
    assert_eq!(snap.counter("shard.xfer.observations_applied"), Some(p.observations_applied));
    assert_eq!(snap.counter("shard.xfer.replica_patches"), Some(p.replica_patches));
    assert!(
        snap.counter("shard.fast_forward.epochs").expect("family present") > 0,
        "sparse timer schedule fast-forwards"
    );
    let per_shard: u64 = (0..4)
        .map(|i| snap.counter(&format!("shard.s{i}.events_processed")).expect("per-shard family"))
        .sum();
    assert_eq!(per_shard, w.events_processed());
    assert_eq!(snap.counter("spans.recorded"), Some(w.spans().unwrap().recorded()));
    // Traces were enabled by run_scenario; the trace family mirrors them.
    assert_eq!(snap.counter("trace.recorded"), Some(w.trace_events_recorded()));
    match snap.get("shard.coord.sched_wall_us") {
        Some(imobif_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, p.epochs),
        other => panic!("expected sched wall histogram, got {other:?}"),
    }
    // Prometheus rendering of the full family set lints clean.
    imobif_obs::promlint::lint(&snap.to_prometheus()).expect("shard families lint clean");

    let off = imobif_obs::Registry::disabled();
    w.publish_metrics(&off);
    assert!(off.snapshot().entries.is_empty(), "disabled registry stays empty");
}

#[test]
fn span_ring_evicts_but_aggregates_and_profile_stay_exact() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    w.enable_spans(8);
    let _ = run_scenario(&mut w, &sc);
    let sink = w.spans().expect("spans enabled");
    assert!(sink.recorded() > 8, "run outgrows a tiny ring");
    assert_eq!(sink.evicted(), sink.recorded() - 8);
    assert_eq!(sink.spans().len(), 8);
    let p = w.epoch_profile().expect("profile still derivable");
    let sched_count: u64 =
        sink.aggregates().iter().filter(|a| a.name == phase::SCHED).map(|a| a.count).sum();
    assert_eq!(sched_count, p.epochs, "aggregates are exempt from ring eviction");
}

#[test]
fn reset_clears_spans_and_counters() {
    let sc = invariance_scenario();
    let mut w = make_sharded(4);
    w.enable_spans(1 << 12);
    let _ = run_scenario(&mut w, &sc);
    assert!(w.epoch_profile().expect("enabled").epochs > 0);
    let mut apps = Vec::new();
    w.reset_into(
        SimConfig::default(),
        Arc::new(PowerLawModel::paper_default(2.0).unwrap()),
        Arc::new(LinearMobilityCost::new(0.5).unwrap()),
        BOUNDS,
        4,
        &mut apps,
    )
    .unwrap();
    let p = w.epoch_profile().expect("span enablement survives reset");
    assert_eq!(p.epochs, 0);
    assert_eq!(w.spans().unwrap().recorded(), 0);
}
