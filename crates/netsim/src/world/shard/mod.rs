//! Spatially sharded world: the kernel partitioned into a grid of shards,
//! each owning its nodes' state and a local event queue, coupled only
//! through deterministic epoch barriers.
//!
//! A shard embeds the same [`Engine`](super::engine::Engine) as the
//! serial [`World`](crate::World) and runs the same handlers; only its
//! [`Reach`](super::engine::Reach) differs (`reach.rs`: replica reads,
//! keyed queue and trace, outbox emission).
//!
//! # Epoch-barrier protocol (DESIGN.md §11–12)
//!
//! The conservative-window argument: every cross-node interaction has a
//! minimum latency of `cfg.hop_latency` (the fixed component of
//! [`SimConfig::tx_delay`]), so a shard can process all events in the
//! window `[next, next + hop_latency)` — where `next` is the *global*
//! minimum pending event time — without ever receiving an event that lands
//! inside the window. Each epoch:
//!
//! 1. the coordinator reads every shard's queue head: the least one opens
//!    the window, and the **active** shards are those whose head lies
//!    inside it. Idle shards are never run, and sparse phases
//!    fast-forward the epoch clock in one jump (windows are placed at
//!    event times, never stepped through empty wall-clock);
//! 2. every active shard drains its local queue up to (exclusive) the
//!    window end, reading remote state only from the epoch-frozen replica
//!    snapshot and pushing cross-shard consequences into its
//!    per-destination outbox runs. One epoch loop serves every thread
//!    count: the active shards run in place on the calling thread, or,
//!    with more than one thread and more than one active shard, in
//!    contiguous shares on scoped threads that borrow them for the epoch;
//! 3. at the barrier, keyless replica patches update the frozen
//!    position, liveness and beacon-board snapshot in O(changes), grouped
//!    HELLO link changes update hearer tables (a first epoch of free
//!    beacons alone links every table from its node's hearer list
//!    instead), and deliveries are k-way merged per destination in their
//!    shard-count-independent key order `(time, origin node, per-node
//!    sequence)` and enqueued on the owner shards.
//!
//! Because the delivery keys, the per-node queue keys, and the window
//! boundaries are all derived from values independent of the shard
//! assignment — and every barrier effect either keeps its per-node order
//! (same source run) or commutes (disjoint state) — a run is
//! **bit-identical at any shard count and any thread count**. The 1-shard
//! world is the reference; property tests pin `N`-shard and `N`-thread
//! traces to it, and pin the activity schedule to the dense
//! step-every-epoch one.
//!
//! # Intentional semantic deltas vs [`World`](crate::World)
//!
//! The sharded world is not trace-identical to the sequential `World`; it
//! trades a bounded, deterministic staleness for decoupling:
//!
//! * HELLO observations commit at the next barrier (≤ one `hop_latency`
//!   after the beacon) instead of instantaneously;
//! * transmission distance uses the receiver's epoch-frozen snapshot
//!   position rather than its live position;
//! * beacon hearer sets come from the snapshot positions/liveness.
//!
//! All deltas are identical at every shard count, so experiments compare
//! sharded runs against sharded runs.

mod profile;
mod reach;
#[cfg(test)]
mod tests;
mod xfer;

use imobif_energy::Battery;
use imobif_geom::Point2;
use imobif_obs::span::phase;
use imobif_obs::{Registry, SpanSink, COORD_SHARD};

use super::beacon::BeaconView;
use super::engine::{Engine, Event};
use super::observe::KernelStats;
use crate::hello::Beacon;
use crate::trace::TraceEvent;
use crate::{Application, NodeEnergy, NodeId, SimConfig, SimDuration, SimError, SimTime};
use profile::EpochCounters;
use reach::{Replica, Shard, SharedCtx, XKey};
use xfer::{BarrierScratch, RepPatch, ShardOutbox, LEAVE};

/// A span ring capacity for [`ShardedWorld::enable_spans`] that holds the
/// raw spans of a typical run (phase aggregates are exact at any
/// capacity).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// The spatial partition: a `gx × gy` grid of rectangular cells over the
/// deployment bounds, one shard per cell. Nodes are assigned to the shard
/// owning their *initial* position and keep that assignment when they move
/// (ownership is static; movement is propagated through snapshot patches).
#[derive(Debug, Clone)]
pub struct ShardLayout {
    min: Point2,
    gx: usize,
    gy: usize,
    cell_w: f64,
    cell_h: f64,
}

impl ShardLayout {
    /// Builds a layout of `shards` cells over the rectangle `min..=max`,
    /// factoring the count into the most square grid it divides into
    /// (e.g. 8 → 2×4, 16 → 4×4).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the bounds are inverted.
    #[must_use]
    pub fn new(min: Point2, max: Point2, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        assert!(max.x >= min.x && max.y >= min.y, "inverted layout bounds");
        let mut gx = 1;
        let mut d = 1;
        while d * d <= shards {
            if shards.is_multiple_of(d) {
                gx = d;
            }
            d += 1;
        }
        let gy = shards / gx;
        ShardLayout {
            min,
            gx,
            gy,
            cell_w: (max.x - min.x) / gx as f64,
            cell_h: (max.y - min.y) / gy as f64,
        }
    }

    /// Total number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.gx * self.gy
    }

    /// The grid dimensions `(columns, rows)`.
    #[must_use]
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.gx, self.gy)
    }

    /// The shard owning `p`. Points outside the bounds clamp to the edge
    /// cells, so every point maps to a valid shard.
    #[must_use]
    pub fn shard_of(&self, p: Point2) -> usize {
        // Float→int casts saturate (NaN → 0), so degenerate geometry
        // (zero-width bounds) still lands in a valid cell.
        let cx = (((p.x - self.min.x) / self.cell_w).floor() as usize).min(self.gx - 1);
        let cy = (((p.y - self.min.y) / self.cell_h).floor() as usize).min(self.gy - 1);
        cy * self.gx + cx
    }
}

/// The sharded analogue of [`World`](crate::World): the same kernel
/// semantics partitioned into spatial shards coupled only through
/// deterministic epoch barriers (see the module docs for the protocol and
/// the intentional semantic deltas).
///
/// Output — traces, energy totals, packet counters, death times — is
/// **bit-identical at any shard count and any thread count**; shards and
/// threads are purely a performance knob. With `set_threads(n)`, `n > 1`,
/// an epoch that activates more than one shard splits them into at most
/// `n` contiguous shares: the calling thread runs one, and a scoped thread
/// each other, borrowing its shards and outboxes for that epoch only.
pub struct ShardedWorld<A: Application> {
    cfg: SimConfig,
    layout: ShardLayout,
    shards: Vec<Shard<A>>,
    /// Per-source outboxes, owned by the coordinator so barriers can read
    /// a source's runs while mutating destination shards.
    outs: Vec<ShardOutbox<A::Msg>>,
    /// Global node id → `(shard, slot within shard)`.
    owner: Vec<(u32, u32)>,
    /// Epoch-frozen global position/liveness snapshot, read by every shard
    /// during an epoch and patched in place at its barrier.
    replica: Replica,
    /// The shards the current epoch runs, ascending.
    active: Vec<u32>,
    scratch: BarrierScratch,
    /// Always-on pipeline counters (plain integer adds, no clock reads).
    counters: EpochCounters,
    /// Span sink; `None` ⇒ zero cost: no timestamps read, no spans built.
    spans: Option<Box<SpanSink>>,
    /// Test-only schedule: run every shard every epoch (the PR 6
    /// behavior) instead of only active shards.
    dense_epochs: bool,
    /// End of the latest epoch's window, whichever `run_until` call ran
    /// it: a window opening past it fast-forwarded.
    prev_end: Option<SimTime>,
    time: SimTime,
    started: bool,
    threads: usize,
}

impl<A: Application> ShardedWorld<A> {
    /// Creates an empty sharded world over the deployment rectangle
    /// `bounds` with `shards` spatial shards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`], if `hop_latency` is zero (the epoch width —
    /// the conservative-window argument needs positive lookahead), or if
    /// `shards` is zero.
    pub fn new(cfg: SimConfig, bounds: (Point2, Point2), shards: usize) -> Result<Self, SimError> {
        cfg.validate()?;
        if cfg.hop_latency == SimDuration::ZERO {
            return Err(SimError::InvalidConfig { field: "hop_latency" });
        }
        if shards == 0 {
            return Err(SimError::InvalidConfig { field: "shards" });
        }
        let layout = ShardLayout::new(bounds.0, bounds.1, shards);
        let n = layout.shard_count();
        Ok(ShardedWorld {
            replica: Replica::new(cfg.range.max(1.0)),
            cfg,
            layout,
            shards: (0..n).map(|_| Shard::new()).collect(),
            outs: (0..n).map(|_| ShardOutbox::new(n)).collect(),
            owner: Vec::new(),
            active: Vec::new(),
            scratch: BarrierScratch::default(),
            counters: EpochCounters::default(),
            spans: None,
            dense_epochs: false,
            prev_end: None,
            time: SimTime::ZERO,
            started: false,
            threads: 1,
        })
    }

    /// Adds a node with its application instance, returning its global id.
    /// The node joins the shard owning its position. Panics if called after
    /// [`ShardedWorld::start`].
    pub fn add_node(&mut self, position: Point2, battery: Battery, app: A) -> NodeId {
        assert!(!self.started, "nodes must be added before start()");
        let id = NodeId::new(self.owner.len() as u32);
        let si = self.layout.shard_of(position);
        let shard = &mut self.shards[si];
        let ttl = self.cfg.hello.ttl;
        let slot = shard.add_node(position, battery, app, ttl);
        self.owner.push((si as u32, slot as u32));
        let alive = shard.engine.nodes.is_alive(slot);
        let replica = &mut self.replica;
        replica.positions.push(position);
        replica.alive.push(alive);
        if alive {
            replica.grid.insert(id.raw(), position);
        }
        id
    }

    /// Starts the world: writes the beacon boards (every owner's and the
    /// replica's copy, each sized once), schedules every node's HELLO
    /// beacon chain and runs `on_start` hooks, both in global node-id
    /// order, then performs one barrier exchange so start-time effects are
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        for shard in &mut self.shards {
            shard.engine.fill_board();
        }
        self.replica.board.reserve_exact(self.owner.len());
        let owners = self.owner.iter().map(|&(si, slot)| (si as usize, slot as usize));
        self.replica.board.extend(owners.map(|(si, slot)| self.shards[si].engine.board[slot]));
        for (i, &(si, slot)) in self.owner.iter().enumerate() {
            let id = NodeId::new(i as u32);
            let Shard { engine, keys } = &mut self.shards[si as usize];
            keys.push_periodic(&mut engine.queue, SimTime::ZERO, slot as usize, id);
        }
        let Self { cfg, owner, shards, outs, replica, active, scratch, counters, spans, .. } = self;
        let sh = SharedCtx { cfg, owner };
        for (i, &(si, slot)) in owner.iter().enumerate() {
            let (engine, mut reach) =
                shards[si as usize].split(&sh, replica, &mut outs[si as usize]);
            if engine.nodes.is_alive(slot as usize) {
                let id = NodeId::new(i as u32);
                engine.dispatch(&mut reach, id, slot as usize, |app, ctx, out| {
                    app.on_start(ctx, out);
                });
            }
        }
        active.clear();
        active.extend(0..shards.len() as u32);
        apply_epoch(shards, outs, active, &sh, replica, scratch, counters, spans, 0);
    }

    /// Schedules an application timer from outside (used by experiment
    /// drivers to kick off flow sources).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        let (si, slot) = self.locate(node);
        let at = self.time + delay;
        let Shard { engine, keys } = &mut self.shards[si];
        keys.push(&mut engine.queue, at, slot, node, Event::AppTimer { node, tag });
    }

    /// Runs epochs until the clock passes `deadline` or every queue drains.
    /// With `set_threads(n > 1)`, an epoch with more than one active shard
    /// runs them in at most `n` contiguous shares on scoped threads, the
    /// calling thread taking one; the output is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the world was not started.
    pub fn run_until(&mut self, deadline: SimTime)
    where
        A: Send,
        A::Msg: Send,
    {
        assert!(self.started, "run_until() before start()");
        let epoch = self.cfg.hop_latency;
        let dense = self.dense_epochs;
        let threads = self.threads;
        let n = self.shards.len() as u32;
        let Self {
            cfg,
            owner,
            shards,
            outs,
            replica,
            active,
            scratch,
            counters,
            spans,
            prev_end,
            time,
            ..
        } = self;
        let sh = SharedCtx { cfg, owner };
        loop {
            let t0 = spans.as_ref().map(|sp| sp.now_us());
            let head = |s: u32| shards[s as usize].engine.queue.peek_time();
            let Some(next) = (0..n).filter_map(head).min() else { break };
            if next > deadline {
                break;
            }
            let eid = counters.epochs;
            let end = next + epoch;
            active.clear();
            active.extend(
                (0..n).filter(|&s| dense || head(s).is_some_and(|t| t < end && t <= deadline)),
            );
            if let Some(pe) = *prev_end {
                if next > pe {
                    counters.fast_forward_epochs += 1;
                    counters.fast_forward_us_skipped += next.as_micros() - pe.as_micros();
                }
            }
            *prev_end = Some(end);
            // A first epoch of free beacons alone (every heap head lies
            // past its window) links the tables at its barrier from the
            // hearer lists: the bulk join (DESIGN.md §12.2).
            let bulk_join = eid == 0
                && !cfg.hello.charge_energy
                && shards.iter().all(|s| s.engine.queue.heap_peek_time().is_none_or(|t| t >= end));
            if bulk_join {
                for &s in active.iter() {
                    outs[s as usize].bulk_join = true;
                }
            }
            counters.epochs += 1;
            counters.shard_epochs += active.len() as u64;
            counters.idle_shard_epochs_skipped += (shards.len() - active.len()) as u64;
            if let Some(sp) = spans.as_mut() {
                let now = sp.now_us();
                sp.record(phase::SCHED, COORD_SHARD, eid, t0.unwrap_or(now), now);
            }
            if threads > 1 && active.len() > 1 {
                run_shares(shards, outs, active, &sh, replica, end, deadline, threads, spans, eid);
            } else {
                for &s in active.iter() {
                    let c0 = spans.as_ref().map(|sp| sp.now_us());
                    let out = &mut outs[s as usize];
                    shards[s as usize].run_epoch(&sh, replica, out, end, deadline);
                    if let Some(sp) = spans.as_mut() {
                        let now = sp.now_us();
                        sp.record(phase::COMPUTE, s, eid, c0.unwrap_or(now), now);
                    }
                }
            }
            apply_epoch(shards, outs, active, &sh, replica, scratch, counters, spans, eid);
            *time = (*time).max(end.min(deadline));
        }
        self.time = self.time.max(deadline);
    }

    #[inline]
    fn locate(&self, id: NodeId) -> (usize, usize) {
        let (si, slot) = self.owner[id.index()];
        (si as usize, slot as usize)
    }

    /// Current virtual time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// Number of spatial shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The spatial partition.
    #[must_use]
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Sets the number of threads [`ShardedWorld::run_until`] runs an
    /// epoch's active shards on (clamped to at least 1). Purely a
    /// performance knob — the output is identical at any setting. Above 1,
    /// an epoch with more than one active shard spawns its scoped threads
    /// and joins them before its barrier; nothing outlives the epoch.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables epoch span tracing: every epoch phase (scheduling, each
    /// shard's compute window, barrier wait, and the three barrier stages)
    /// records a `(name, shard, epoch, t_start, t_end)` span into a ring
    /// of `capacity` raw spans plus exact per-phase aggregates. When not
    /// enabled the engine never reads the clock and builds no spans.
    /// Purely observational — simulation output is bit-identical either
    /// way (property-tested).
    pub fn enable_spans(&mut self, capacity: usize) {
        if self.spans.is_none() {
            self.spans = Some(Box::new(SpanSink::new(capacity)));
        }
    }

    /// The span sink, if span tracing is enabled.
    #[must_use]
    pub fn spans(&self) -> Option<&SpanSink> {
        self.spans.as_deref()
    }

    /// Flushes the engine's pipeline counters, per-shard families, and
    /// span aggregates into `registry`, once per call (the run loops
    /// never touch the registry). No-op on a disabled registry.
    ///
    /// Families: `shard.*` pipeline/fast-forward/xfer counters, per-shard
    /// `shard.s{i}.events_processed`, the [`KernelStats`] families summed
    /// over shards, and — when span tracing is on — `spans.{recorded,
    /// evicted}` plus per-scope `shard.{coord|s{i}}.{phase}_wall_us`
    /// histograms and `..._secs` totals. With tracing enabled,
    /// `trace.{recorded,evicted}` mirrors the serial world's family
    /// (sharded traces are unbounded, so `evicted` is always 0).
    pub fn publish_metrics(&self, registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        let c = &self.counters;
        registry.counter("shard.epochs").add(c.epochs);
        registry.counter("shard.shard_epochs").add(c.shard_epochs);
        registry.counter("shard.idle_shard_epochs_skipped").add(c.idle_shard_epochs_skipped);
        registry.counter("shard.fast_forward.epochs").add(c.fast_forward_epochs);
        registry
            .float_counter("shard.fast_forward.sim_secs_skipped")
            .add(c.fast_forward_us_skipped as f64 / 1e6);
        registry.counter("shard.xfer.delivers_merged").add(c.delivers_merged);
        registry.counter("shard.xfer.observations_applied").add(c.observations_applied);
        registry.counter("shard.xfer.replica_patches").add(c.replica_patches);
        self.kernel_stats().publish(registry);
        registry.gauge("shard.count").set(self.shards.len() as f64);
        for (i, s) in self.shards.iter().enumerate() {
            registry
                .counter(&format!("shard.s{i}.events_processed"))
                .add(s.engine.events_processed);
        }
        if self.shards.iter().any(|s| s.keys.trace.is_some()) {
            let recorded: u64 =
                self.shards.iter().map(|s| s.keys.trace.as_ref().map_or(0, Vec::len) as u64).sum();
            registry.counter("trace.recorded").add(recorded);
            registry.counter("trace.evicted").add(0);
        }
        if let Some(sp) = &self.spans {
            registry.counter("spans.recorded").add(sp.recorded());
            registry.counter("spans.evicted").add(sp.evicted());
            for agg in sp.aggregates() {
                let scope = if agg.shard == COORD_SHARD {
                    "coord".to_string()
                } else {
                    format!("s{}", agg.shard)
                };
                let h = registry.histogram(
                    &format!("shard.{scope}.{}_wall_us", agg.name),
                    &imobif_obs::span::SPAN_WALL_BOUNDS_US,
                );
                for (bin, &n) in agg.bins.iter().enumerate() {
                    h.observe_n(imobif_obs::span::SPAN_WALL_BIN_VALUES[bin], n);
                }
                registry
                    .float_counter(&format!("shard.{scope}.{}_secs", agg.name))
                    .add(agg.total_us as f64 / 1e6);
            }
        }
    }

    /// Test/bench hook: run every shard every epoch (the PR 6 schedule)
    /// instead of only the active ones. Output is bit-identical either
    /// way — property-tested — so this exists purely as the reference
    /// schedule for those tests.
    #[doc(hidden)]
    pub fn set_dense_epochs(&mut self, on: bool) {
        self.dense_epochs = on;
    }

    /// Test hook: checks that the delta-synced replica exactly matches a
    /// from-scratch snapshot of every shard's ground truth (bitwise
    /// positions, liveness, beacon records, and grid membership). Valid
    /// between runs after [`ShardedWorld::start`], which writes the boards
    /// — the replica is intentionally one barrier stale *inside* an epoch.
    #[doc(hidden)]
    pub fn verify_replica_sync(&self) -> Result<(), String> {
        for (i, &(si, slot)) in self.owner.iter().enumerate() {
            let sh = &self.shards[si as usize];
            let slot = slot as usize;
            let alive = sh.engine.nodes.is_alive(slot);
            if self.replica.alive[i] != alive {
                return Err(format!(
                    "node {i}: replica alive={}, ground truth={}",
                    self.replica.alive[i], alive
                ));
            }
            let truth = sh.engine.nodes.position(slot);
            let rep = self.replica.positions[i];
            if truth.x.to_bits() != rep.x.to_bits() || truth.y.to_bits() != rep.y.to_bits() {
                return Err(format!(
                    "node {i}: replica position {rep:?} != ground truth {truth:?}"
                ));
            }
            let (own, rep) = (sh.engine.board[slot], self.replica.board[i]);
            let bits =
                |b: Beacon| [b.position.x, b.position.y, b.residual_energy].map(f64::to_bits);
            if bits(own) != bits(rep) || own.heard_at != rep.heard_at {
                return Err(format!("node {i}: replica beacon {rep:?} != owner's {own:?}"));
            }
            match (alive, self.replica.grid.position(i as u32)) {
                (true, Some(g))
                    if g.x.to_bits() == truth.x.to_bits() && g.y.to_bits() == truth.y.to_bits() => {
                }
                (false, None) => {}
                (_, g) => {
                    return Err(format!(
                        "node {i}: grid entry {g:?} inconsistent (alive={alive}, truth={truth:?})"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Test hook: checks that every live node's kept HELLO hearer list —
    /// the one its next beacon from where it stands would reuse — equals
    /// a brute-force hearer set from there over the replica. Valid between
    /// runs, when the replica has taken every patch and every marking.
    #[doc(hidden)]
    pub fn verify_hearer_lists(&self) -> Result<(), String> {
        let rep = &self.replica;
        let view = BeaconView {
            positions: &rep.positions,
            alive: &rep.alive,
            grid: &rep.grid,
            range: self.cfg.range,
        };
        self.owner.iter().enumerate().try_for_each(|(i, &(si, slot))| {
            let engine = &self.shards[si as usize].engine;
            let slot = slot as usize;
            if !engine.nodes.is_alive(slot) {
                return Ok(());
            }
            engine.hearers.verify(&view, NodeId::new(i as u32), slot, engine.nodes.position(slot))
        })
    }

    /// Whether a node is alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.nodes.is_alive(slot)
    }

    /// Position of a node (the owner shard's live value).
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point2 {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.nodes.position(slot)
    }

    /// Residual energy of a node, in joules.
    #[must_use]
    pub fn residual_energy(&self, id: NodeId) -> f64 {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.nodes.residual(slot)
    }

    /// Total distance a node has moved, in meters.
    #[must_use]
    pub fn total_moved(&self, id: NodeId) -> f64 {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.nodes.total_moved(slot)
    }

    /// The application instance of a node.
    #[must_use]
    pub fn app(&self, id: NodeId) -> &A {
        let (si, slot) = self.locate(id);
        &self.shards[si].engine.apps[slot]
    }

    /// Mutable access to a node's application instance (for flow setup by
    /// experiment drivers).
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        let (si, slot) = self.locate(id);
        &mut self.shards[si].engine.apps[slot]
    }

    /// Number of pending events across all shards.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.engine.queue.len()).sum()
    }

    /// Kernel events processed across all shards since construction.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_processed).sum()
    }

    /// Packets sent across all shards.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.ledger.packets_sent).sum()
    }

    /// Packets delivered across all shards.
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.ledger.packets_delivered).sum()
    }

    /// Packets dropped across all shards.
    #[must_use]
    pub fn packets_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.ledger.packets_dropped).sum()
    }

    /// Per-category energy expenditure of one node.
    #[must_use]
    pub fn node_energy(&self, id: NodeId) -> NodeEnergy {
        let (si, slot) = self.locate(id);
        *self.shards[si].engine.ledger.node(NodeId::new(slot as u32))
    }

    /// Network-wide energy totals.
    ///
    /// Accumulated in **global node-id order** — never as per-shard partial
    /// sums — so the floating-point result is bit-identical at any shard
    /// count.
    #[must_use]
    pub fn totals(&self) -> NodeEnergy {
        let mut t = NodeEnergy::default();
        for &(si, slot) in &self.owner {
            let e = self.shards[si as usize].engine.ledger.node(NodeId::new(slot));
            t.data += e.data;
            t.mobility += e.mobility;
            t.hello += e.hello;
            t.notification += e.notification;
        }
        t
    }

    /// When a node died, if it has.
    #[must_use]
    pub fn death_time(&self, id: NodeId) -> Option<SimTime> {
        let (si, slot) = self.locate(id);
        self.shards[si].engine.ledger.death_time(NodeId::new(slot as u32))
    }

    /// The earliest death and its node (ties broken by lowest global id) —
    /// the paper's network-lifetime metric.
    #[must_use]
    pub fn first_death(&self) -> Option<(NodeId, SimTime)> {
        let mut best: Option<(NodeId, SimTime)> = None;
        for (i, &(si, slot)) in self.owner.iter().enumerate() {
            if let Some(t) = self.shards[si as usize].engine.ledger.death_time(NodeId::new(slot)) {
                let better = match best {
                    None => true,
                    Some((_, bt)) => t < bt,
                };
                if better {
                    best = Some((NodeId::new(i as u32), t));
                }
            }
        }
        best
    }

    /// Kernel instrumentation summed across shards.
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for s in &self.shards {
            total += s.engine.stats;
        }
        total
    }

    /// Enables in-memory tracing on every shard. Unlike
    /// [`World::enable_tracing`](crate::World::enable_tracing) the sharded
    /// trace is unbounded — it exists to fingerprint determinism, not to
    /// sample long runs.
    pub fn enable_tracing(&mut self) {
        for s in &mut self.shards {
            if s.keys.trace.is_none() {
                s.keys.trace = Some(Vec::new());
            }
        }
    }

    /// The per-shard traces merged into one global stream, ordered by the
    /// shard-count-independent key `(time, origin node, per-node
    /// sequence)`.
    #[must_use]
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        let mut keyed: Vec<(XKey, TraceEvent)> = Vec::new();
        for s in &self.shards {
            if let Some(t) = &s.keys.trace {
                keyed.extend(t.iter().copied());
            }
        }
        keyed.sort_unstable_by_key(|&(k, _)| k);
        keyed.into_iter().map(|(_, e)| e).collect()
    }

    /// FNV-1a fingerprint of the merged trace serialized as JSONL — the
    /// value the shard-count-invariance gates compare.
    #[must_use]
    pub fn trace_fnv(&self) -> u64 {
        imobif_obs::fnv1a64(crate::trace::events_to_jsonl(&self.merged_trace()).as_bytes())
    }

    /// Total trace events recorded across shards. Sharded traces are
    /// unbounded (unlike the serial world's `RingTrace`), so nothing is
    /// ever evicted and this equals the merged trace length.
    #[must_use]
    pub fn trace_events_recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.keys.trace.as_ref().map_or(0, Vec::len) as u64).sum()
    }
}

impl<A: Application> std::fmt::Debug for ShardedWorld<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("time", &self.time)
            .field("nodes", &self.owner.len())
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

/// One active shard of a threaded epoch, borrowed with its outbox for the
/// epoch, and the `(start_us, end_us)` of its compute span when spans are
/// on.
struct Job<'a, A: Application> {
    idx: u32,
    shard: &'a mut Shard<A>,
    out: &'a mut ShardOutbox<A::Msg>,
    span_us: Option<(u64, u64)>,
}

/// Step 2 of a threaded epoch: splits the `active` shards into at most
/// `threads` contiguous shares, runs the first on the calling thread and
/// each other on a scoped thread, every one reading the frozen `replica`.
/// A scoped thread cannot borrow the span sink, so each share times its
/// shards against a copy of the sink's clock; after the scope the
/// coordinator records their `compute` spans in shard order, then the
/// epoch's `barrier_wait`.
#[allow(clippy::too_many_arguments)]
fn run_shares<A: Application + Send>(
    shards: &mut [Shard<A>],
    outs: &mut [ShardOutbox<A::Msg>],
    active: &[u32],
    sh: &SharedCtx<'_>,
    replica: &Replica,
    end: SimTime,
    deadline: SimTime,
    threads: usize,
    spans: &mut Option<Box<SpanSink>>,
    epoch_id: u64,
) where
    A::Msg: Send,
{
    let clock = spans.as_ref().map(|sp| sp.clock());
    let t1 = clock.map(|c| c.now_us());
    let mut wanted = active.iter().copied().peekable();
    let mut jobs: Vec<Job<'_, A>> = shards
        .iter_mut()
        .zip(outs.iter_mut())
        .zip(0u32..)
        .filter_map(|((shard, out), idx)| {
            wanted.next_if_eq(&idx).map(|_| Job { idx, shard, out, span_us: None })
        })
        .collect();
    let run = |job: &mut Job<'_, A>| {
        let start = clock.map(|c| c.now_us());
        job.shard.run_epoch(sh, replica, job.out, end, deadline);
        job.span_us = clock.zip(start).map(|(c, a)| (a, c.now_us()));
    };
    std::thread::scope(|scope| {
        let mut shares = jobs.chunks_mut(active.len().div_ceil(threads));
        let own = shares.next();
        for share in shares {
            scope.spawn(move || share.iter_mut().for_each(run));
        }
        own.into_iter().flatten().for_each(run);
    });
    if let Some(sp) = spans.as_mut() {
        for job in &jobs {
            if let Some((a, b)) = job.span_us {
                sp.record(phase::COMPUTE, job.idx, epoch_id, a, b);
            }
        }
        let now = sp.now_us();
        sp.record(phase::BARRIER_WAIT, COORD_SHARD, epoch_id, t1.unwrap_or(now), now);
    }
}

/// The barrier: applies the outgoing effect runs of the `active` shards.
///
/// * Replica patches first (source-by-source: per-node order is preserved
///   within a source run, and patches for different nodes commute).
/// * Then the marking: every node the patches moved or killed steps once
///   on the replica's grid, and the hearer lists its step changed are
///   forgotten ([`mark_steps`]).
/// * Link changes next: a bulk-join epoch's tables are linked from the
///   hearer lists, then grouped changes apply destination-major for table
///   locality — they need no merge (changes for different origins touch
///   different entries; same-origin order comes from the single source
///   run).
/// * Deliveries last, k-way merged per destination in strict global key
///   order, because applying one consumes the target's queue sequence and
///   downstream tie-breaks depend on it.
#[allow(clippy::too_many_arguments)]
fn apply_epoch<A: Application>(
    shards: &mut [Shard<A>],
    outs: &mut [ShardOutbox<A::Msg>],
    active: &[u32],
    sh: &SharedCtx<'_>,
    replica: &mut Replica,
    scratch: &mut BarrierScratch,
    counters: &mut EpochCounters,
    spans: &mut Option<Box<SpanSink>>,
    epoch_id: u64,
) {
    let mut delivers = 0u64;
    let mut links = 0u64;
    let mut patches = 0u64;
    let t_rep = spans.as_ref().map(|sp| sp.now_us());
    for &s in active {
        let rep_run = &mut outs[s as usize].rep;
        let board = &shards[s as usize].engine.board;
        patches += rep_run.len() as u64;
        for patch in rep_run.drain(..) {
            match patch {
                RepPatch::Moved { node, to } => {
                    replica.positions[node.index()] = to;
                    if replica.alive[node.index()] {
                        scratch.movers.push(node);
                    }
                }
                RepPatch::Died { node } => {
                    if replica.alive[node.index()] {
                        replica.alive[node.index()] = false;
                        scratch.movers.push(node);
                    }
                }
                RepPatch::Beacon { node, slot } => {
                    replica.board[node.index()] = board[slot as usize];
                }
            }
        }
    }
    mark_steps(shards, sh, replica, scratch);
    let t_obs = if let Some(sp) = spans.as_mut() {
        let now = sp.now_us();
        sp.record(phase::REPLICA_SYNC, COORD_SHARD, epoch_id, t_rep.unwrap_or(now), now);
        Some(now)
    } else {
        None
    };
    for &s in active {
        if std::mem::take(&mut outs[s as usize].bulk_join) {
            links += link_hearer_lists(&mut shards[s as usize].engine);
        }
    }
    for (d, dest) in shards.iter_mut().enumerate() {
        for &s in active {
            let ShardOutbox { links: runs, frozen, .. } = &mut outs[s as usize];
            let run = &mut runs[d];
            if run.groups.is_empty() {
                continue;
            }
            for g in &run.groups {
                for &change in &run.slots[g.start as usize..(g.start + g.len) as usize] {
                    // Liveness is checked against the owner's ground truth
                    // at application time: a hearer that died inside the
                    // epoch froze its links at the board it could read,
                    // and takes no change from this epoch, at any shard
                    // count.
                    let slot = (change & !LEAVE) as usize;
                    if dest.engine.nodes.is_alive(slot) {
                        let table = dest.engine.nodes.neighbor_table_mut(slot);
                        if change & LEAVE == 0 {
                            table.join(g.origin);
                        } else {
                            table.freeze(g.origin, frozen[g.frozen as usize]);
                        }
                    }
                }
            }
            links += run.slots.len() as u64;
            run.groups.clear();
            run.slots.clear();
        }
    }
    for &s in active {
        outs[s as usize].frozen.clear();
    }
    let t_dlv = if let Some(sp) = spans.as_mut() {
        let now = sp.now_us();
        sp.record(phase::OBS_APPLY, COORD_SHARD, epoch_id, t_obs.unwrap_or(now), now);
        Some(now)
    } else {
        None
    };
    for (d, dest) in shards.iter_mut().enumerate() {
        scratch.heap.clear();
        for &s in active {
            let run = &outs[s as usize].dlv[d];
            // The merge below restores the global order only from runs
            // that are in key order: a shard pops same-instant events in
            // node-id key order (DESIGN.md §12.2).
            debug_assert!(
                run.is_sorted_by(|a, b| a.key < b.key),
                "shard {s}'s deliveries to shard {d} are out of key order"
            );
            if let Some(head) = run.first() {
                scratch.heap.push(std::cmp::Reverse((head.key, s)));
            }
        }
        while let Some(std::cmp::Reverse((_, s))) = scratch.heap.pop() {
            let limit = scratch.heap.peek().map(|&std::cmp::Reverse((k, _))| k);
            let run = &mut outs[s as usize].dlv[d];
            let upto = limit.map_or(run.len(), |lk| run.partition_point(|x| x.key < lk));
            delivers += upto as u64;
            for x in run.drain(..upto) {
                let Shard { engine, keys } = dest;
                let event = Event::Deliver { from: x.from, to: x.to, msg: x.msg };
                keys.push(&mut engine.queue, x.arrival, x.slot as usize, x.to, event);
            }
            if let Some(head) = run.first() {
                scratch.heap.push(std::cmp::Reverse((head.key, s)));
            }
        }
    }
    if let Some(sp) = spans.as_mut() {
        let now = sp.now_us();
        sp.record(phase::XFER_MERGE, COORD_SHARD, epoch_id, t_dlv.unwrap_or(now), now);
    }
    counters.delivers_merged += delivers;
    counters.observations_applied += links;
    counters.replica_patches += patches;
}

/// Moves the replica grid's entry of every node the barrier's patches
/// moved or killed to its final replica state, then forgets the hearer
/// lists each step changed ([`BeaconView::for_each_flip`]).
///
/// A node's first grid move of the barrier starts from its pre-barrier
/// position, where every list the epoch computed read it, and a later one
/// finds it already at its final position, so each node steps once. The
/// steps are marked only once the grid holds them all: a node that moved
/// and then beaconed in the epoch keeps a list centered where it ended,
/// so another node's step must be tested against that position, not the
/// pre-barrier one a patch loop would still find if that node's own patch
/// lands later.
fn mark_steps<A: Application>(
    shards: &mut [Shard<A>],
    sh: &SharedCtx<'_>,
    replica: &mut Replica,
    scratch: &mut BarrierScratch,
) {
    let Replica { positions, alive, grid, .. } = replica;
    for node in scratch.movers.drain(..) {
        let i = node.index();
        let to = alive[i].then(|| positions[i]);
        let from = match to {
            Some(to) => grid.update(node.raw(), to),
            None => grid.remove(node.raw()),
        };
        if let Some(from) = from.filter(|&from| to != Some(from)) {
            scratch.steps.push((from, to));
        }
    }
    let view = BeaconView { positions, alive, grid, range: sh.cfg.range };
    for (from, to) in scratch.steps.drain(..) {
        view.for_each_flip(from, to, |k| {
            let (si, slot) = sh.owner[k as usize];
            shards[si as usize].engine.hearers.forget(slot as usize);
        });
    }
}

/// The bulk join: links every live node's table to its own hearer list,
/// and returns the links made. Exact at the barrier of a first epoch that
/// ran only free beacons: nothing has moved or died since the replica was
/// written, every live node beaconed from its replica position, and the
/// distance test is symmetric, so the nodes a node hears are the nodes
/// that hear it — the joins the epoch's beacons would have sent it.
fn link_hearer_lists<A: Application>(engine: &mut Engine<A>) -> u64 {
    let Engine { nodes, hearers, .. } = engine;
    let mut links = 0;
    for slot in 0..nodes.len() {
        if nodes.is_alive(slot) {
            let list = hearers.list(slot);
            links += list.len() as u64;
            nodes.neighbor_table_mut(slot).link_all(list);
        }
    }
    links
}
