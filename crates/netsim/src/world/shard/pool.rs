//! A persistent shard worker pool.
//!
//! PR 6 spawned a `thread::scope` inside every `run_until` call, so batch
//! drivers that reset and re-run an arena paid thread startup per
//! replicate. The pool here is created once (lazily, on the first
//! multi-threaded run), owned by the [`ShardedWorld`]
//! (crate::ShardedWorld), parked on a channel between epochs, and reused
//! across `run_until` calls *and* `reset_into` replicates; it is joined
//! when the world drops or the thread count changes.
//!
//! The crate forbids `unsafe`, so instead of lifetime-erased borrows the
//! pool moves state by value: each [`Job`] carries the shard, its outbox,
//! the epoch window, and `Arc` handles to the frozen replica and the
//! shared read-only context. A worker runs the shard's event loop for the
//! window, **drops its replica/context handles, and only then** reports
//! [`Done`] — the coordinator receives every `Done` of the epoch before it
//! patches the replica, so `Arc::get_mut` on the replica is guaranteed to
//! succeed (the channel's happens-before edge makes the workers' drops
//! visible).
//!
//! Job distribution is a single shared `mpsc` receiver behind a mutex:
//! plain work stealing, no per-worker queues, deterministic output because
//! the coordinator alone decides the active set and applies effects.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use imobif_obs::SpanClock;

use super::reach::{Replica, Shard, SharedCtx};
use super::xfer::ShardOutbox;
use crate::{Application, SimConfig, SimTime};

/// Read-only per-run context shared with the workers: an owned snapshot of
/// the configuration and owner map. Rebuilt once per `run_until` (the owner
/// map is append-only between resets, so a snapshot taken at run entry is
/// exact).
pub(super) struct WorkerCtx {
    pub(super) cfg: SimConfig,
    pub(super) owner: Vec<(u32, u32)>,
}

impl WorkerCtx {
    pub(super) fn shared(&self) -> SharedCtx<'_> {
        SharedCtx { cfg: &self.cfg, owner: &self.owner }
    }
}

/// One epoch's work for one shard, moved to a worker by value.
pub(super) struct Job<A: Application> {
    pub(super) idx: u32,
    pub(super) shard: Shard<A>,
    pub(super) out: ShardOutbox<A::Msg>,
    pub(super) end: SimTime,
    pub(super) deadline: SimTime,
    pub(super) rep: Arc<Replica>,
    pub(super) ctx: Arc<WorkerCtx>,
    /// Span clock copied from the coordinator's sink; `None` ⇒ span
    /// tracing is off and the worker never reads the clock.
    pub(super) clock: Option<SpanClock>,
}

/// A finished job: the shard and its filled outbox, returned by value.
pub(super) struct Done<A: Application> {
    pub(super) idx: u32,
    pub(super) shard: Shard<A>,
    pub(super) out: ShardOutbox<A::Msg>,
    /// `(start_us, end_us)` of the compute window on the job's clock,
    /// recorded into the sink by the coordinator at collect time.
    pub(super) span_us: Option<(u64, u64)>,
}

/// The persistent worker threads. Workers block on the shared job queue
/// between epochs; dropping the pool closes the queue and joins them.
pub(super) struct WorkerPool<A: Application> {
    job_tx: Sender<Job<A>>,
    done_rx: Receiver<Done<A>>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<A: Application> WorkerPool<A> {
    pub(super) fn new(workers: usize) -> Self
    where
        A: Send + 'static,
        A::Msg: Send + 'static,
    {
        let (job_tx, job_rx) = channel::<Job<A>>();
        let (done_tx, done_rx) = channel::<Done<A>>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || loop {
                    let job = {
                        let rx = job_rx.lock().expect("shard pool queue poisoned");
                        rx.recv()
                    };
                    let Ok(job) = job else { break };
                    let Job { idx, mut shard, mut out, end, deadline, rep, ctx, clock } = job;
                    let start_us = clock.map(|c| c.now_us());
                    shard.run_epoch(&ctx.shared(), &rep, &mut out, end, deadline);
                    let span_us = clock.zip(start_us).map(|(c, a)| (a, c.now_us()));
                    // Release the replica handle *before* signaling done:
                    // the coordinator's `Arc::get_mut` after collecting the
                    // epoch's `Done`s relies on it.
                    drop(rep);
                    drop(ctx);
                    if done_tx.send(Done { idx, shard, out, span_us }).is_err() {
                        break;
                    }
                })
            })
            .collect();
        WorkerPool { job_tx, done_rx, workers, handles }
    }

    pub(super) fn workers(&self) -> usize {
        self.workers
    }

    pub(super) fn submit(&self, job: Job<A>) {
        self.job_tx.send(job).expect("shard worker pool hung up");
    }

    pub(super) fn collect(&self) -> Done<A> {
        self.done_rx.recv().expect("shard worker pool hung up")
    }
}

impl<A: Application> Drop for WorkerPool<A> {
    fn drop(&mut self) {
        // Swap the sender for a detached one so the real queue closes and
        // every parked worker's `recv` errors out.
        let (detached, _) = channel();
        drop(std::mem::replace(&mut self.job_tx, detached));
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
