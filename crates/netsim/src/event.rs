//! The deterministic event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a calendar/bucket queue tuned for the near-monotone
//! schedules discrete-event simulation produces: virtual time is divided
//! into fixed-width buckets arranged in a ring covering a sliding window of
//! one ring-span ahead of the cursor; an event lands in its bucket in O(1),
//! the bucket under the cursor is sorted once when the cursor reaches it,
//! and events beyond the window wait in an overflow heap that is drained
//! into the ring as the window slides forward. For the simulator's workload
//! (deliveries milliseconds ahead, timers/beacons a second ahead) every
//! push is an O(1) append: a 1 s reschedule is always inside the ~2.1 s
//! window, regardless of where the cursor sits.
//!
//! It pops in exactly `(time, insertion sequence)` order; the property
//! tests compare its pop sequence against a binary-heap oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Bucket width in microseconds. A power of two so the bucket-index
/// arithmetic compiles to shifts. 32.8 ms: several per-hop delivery delays
/// share a bucket, while the 1 s periodic timers land ~30 buckets apart.
const BUCKET_WIDTH_MICROS: u64 = 32_768;

/// Number of buckets in the ring — exactly 64 so bucket occupancy fits one
/// `u64` bitmap and the cursor advances with a `trailing_zeros`, never a
/// scan. The ring covers `BUCKET_WIDTH_MICROS * NUM_BUCKETS` ≈ 2.1 s of
/// virtual time ahead of the cursor, comfortably covering the simulator's
/// 1 s HELLO/pacing periods so periodic reschedules stay in the ring
/// instead of the overflow heap.
const NUM_BUCKETS: usize = 64;

/// Plain-field instrumentation for one queue.
///
/// These are ordinary `u64` fields bumped inline on the hot paths — no
/// atomics, no branches on an observability handle, no allocation — so the
/// queue costs the same whether or not anyone is watching. They are flushed
/// into an `imobif-obs` registry once per run by the world's
/// `publish_metrics` (see `world.rs`), which is the only place that ever
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events pushed.
    pub pushes: u64,
    /// Total events popped.
    pub pops: u64,
    /// High-water mark of pending events.
    pub max_len: u64,
    /// Calendar only: pushes that landed beyond the window, in the
    /// overflow heap ("overflow-heap falls").
    pub overflow_pushes: u64,
    /// Calendar only: overflow events drained back into the ring as the
    /// window slid forward.
    pub overflow_drained: u64,
    /// Calendar only: window slides (cursor advances past an emptied
    /// bucket).
    pub window_slides: u64,
    /// Calendar only: occupied-bucket counts sampled at each window slide,
    /// binned by bit length: bin `i` counts samples with
    /// `2^(i-1) < occupied ≤ 2^i - 1` (bin 0 is "zero occupied", bin 7 is
    /// 64). Representative upper values per bin are in
    /// [`QueueStats::OCCUPANCY_BIN_VALUES`].
    pub occupancy_bins: [u64; 8],
}

impl QueueStats {
    /// Representative value for each `occupancy_bins` slot, usable as the
    /// observation value when flushing into a fixed-bucket histogram with
    /// bounds `[0, 1, 3, 7, 15, 31, 63]`.
    pub const OCCUPANCY_BIN_VALUES: [u64; 8] = [0, 1, 3, 7, 15, 31, 63, 64];

    #[inline]
    fn occupancy_bin(occupied: u32) -> usize {
        (u32::BITS - occupied.leading_zeros()) as usize
    }
}

/// A future-event list with deterministic tie-breaking.
///
/// Events are ordered by `(time, insertion sequence)`: two events scheduled
/// for the same instant pop in the order they were pushed. This is what
/// makes whole-simulation runs bit-for-bit reproducible from a seed, which
/// the integration tests assert.
///
/// # Example
///
/// ```rust
/// use imobif_netsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(20), "late");
/// q.push(SimTime::from_micros(10), "early");
/// q.push(SimTime::from_micros(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    next_seq: u64,
    stats: QueueStats,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

/// The calendar behind an [`EventQueue`].
///
/// The ring covers a *sliding window* of `NUM_BUCKETS` consecutive global
/// bucket indices starting at `gcursor` (the global index of the cursor
/// bucket). Because the window is exactly one ring revolution long, each
/// ring slot corresponds to exactly one global bucket inside the window, so
/// slots never mix events from different revolutions.
///
/// Invariants maintained by every operation:
///
/// * when `len > 0`, the bucket under the cursor is non-empty and sorted
///   *descending* by `(time, seq)`, so the next event to pop is its last
///   element and `peek` is O(1);
/// * every ring event's global bucket lies in `[gcursor, gcursor + 64)`;
/// * the overflow heap holds only events at or beyond `gcursor + 64` — it
///   is drained into the ring every time the window slides forward.
///
/// The sliding window (rather than a fixed day-aligned one) is what makes
/// periodic reschedules O(1): an event one second ahead is always inside
/// the ~2.1 s window no matter where the cursor sits, so it never detours
/// through the overflow heap.
#[derive(Debug)]
struct Calendar<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupancy: u64,
    /// Index of the current bucket within the ring (`gcursor % 64`).
    cursor: usize,
    /// Global index of the cursor bucket on the full time axis
    /// (`time / BUCKET_WIDTH_MICROS`); the window starts here.
    gcursor: u64,
    /// Events scheduled beyond the current window, earliest first.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Storage recycled from drained buckets. A periodic workload (HELLO
    /// beacons, pacing timers) drops its whole batch into one bucket per
    /// period, and each period lands on a different ring slot — so without
    /// recycling, every cold slot regrows a `Vec` from zero (a full doubling
    /// chain of allocations) while the capacity of the slot just drained
    /// sits stranded until the ring wraps. Handing drained storage to the
    /// next cold bucket makes steady-state pushes allocation-free.
    spares: Vec<Vec<Scheduled<E>>>,
    /// High-water bucket capacity seen at recycle time. When a cold bucket
    /// warms with the spare pool empty (the first ring revolution, before
    /// anything has drained), it reserves this much in one shot instead of
    /// crawling up a doubling chain — the cold-start analogue of the spare
    /// pool itself.
    cap_hint: usize,
    len: usize,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupancy: 0,
            cursor: 0,
            gcursor: 0,
            overflow: BinaryHeap::new(),
            spares: Vec::new(),
            cap_hint: 0,
            len: 0,
        }
    }

    fn ring_index(t: u64) -> usize {
        ((t / BUCKET_WIDTH_MICROS) % NUM_BUCKETS as u64) as usize
    }

    /// Gives a cold (capacity-zero) bucket recycled storage before its
    /// first push — or, when nothing is pooled yet, a single full-size
    /// reservation at the high-water capacity so the cold start pays one
    /// allocation per bucket instead of a doubling chain.
    fn warm(bucket: &mut Vec<Scheduled<E>>, spares: &mut Vec<Vec<Scheduled<E>>>, cap_hint: usize) {
        if bucket.capacity() == 0 {
            if let Some(spare) = spares.pop() {
                *bucket = spare;
            } else if cap_hint > 0 {
                bucket.reserve_exact(cap_hint);
            }
        }
    }

    /// Folds a bucket's capacity into the cold-start hint. Called after
    /// pushes (a growing bucket raises the hint *during* the first burst,
    /// before anything has drained) and at recycle time.
    #[inline]
    fn note_cap(&mut self, idx: usize) {
        let cap = self.buckets[idx].capacity();
        if cap > self.cap_hint {
            self.cap_hint = cap;
        }
    }

    /// Moves a drained bucket's storage into the spare pool so the next
    /// cold bucket can reuse it instead of reallocating.
    fn recycle(&mut self, idx: usize) {
        let bucket = &mut self.buckets[idx];
        self.cap_hint = self.cap_hint.max(bucket.capacity());
        if bucket.capacity() > 0 && self.spares.len() < NUM_BUCKETS {
            self.spares.push(std::mem::take(bucket));
        }
    }

    fn push(&mut self, item: Scheduled<E>, stats: &mut QueueStats) {
        let t = item.time.as_micros();
        let g = t / BUCKET_WIDTH_MICROS;
        if self.len == 0 {
            // Empty queue: jump straight onto the item's bucket. A single
            // sorted element trivially satisfies the cursor invariant.
            self.gcursor = g;
            self.cursor = Self::ring_index(t);
            Self::warm(&mut self.buckets[self.cursor], &mut self.spares, self.cap_hint);
            self.buckets[self.cursor].push(item);
            self.note_cap(self.cursor);
            self.occupancy |= 1 << self.cursor;
        } else if g <= self.gcursor {
            // At or before the cursor bucket (including "in the past"):
            // insert into the sorted cursor bucket so ordering holds.
            let key = (item.time, item.seq);
            let bucket = &mut self.buckets[self.cursor];
            let pos = bucket.partition_point(|s| (s.time, s.seq) > key);
            bucket.insert(pos, item);
            self.note_cap(self.cursor);
        } else if g < self.gcursor + NUM_BUCKETS as u64 {
            // Inside the window: O(1) append, sorted when the cursor gets
            // there.
            let idx = Self::ring_index(t);
            Self::warm(&mut self.buckets[idx], &mut self.spares, self.cap_hint);
            self.buckets[idx].push(item);
            self.note_cap(idx);
            self.occupancy |= 1 << idx;
        } else {
            self.overflow.push(item);
            stats.overflow_pushes += 1;
        }
        self.len += 1;
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        self.buckets[self.cursor].last()
    }

    fn pop(&mut self, stats: &mut QueueStats) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let item = self.buckets[self.cursor]
            .pop()
            .expect("calendar invariant: cursor bucket non-empty while len > 0");
        self.len -= 1;
        if self.buckets[self.cursor].is_empty() {
            self.occupancy &= !(1 << self.cursor);
            self.recycle(self.cursor);
            if self.len > 0 {
                self.advance(stats);
            }
        }
        Some(item)
    }

    /// Slides the window forward to the next non-empty bucket — the next
    /// occupied ring slot in circular order, or the earliest overflow event
    /// when the ring has drained — then pulls newly-covered overflow events
    /// into the ring. Only called with `len > 0` and an empty cursor bucket.
    fn advance(&mut self, stats: &mut QueueStats) {
        stats.window_slides += 1;
        stats.occupancy_bins[QueueStats::occupancy_bin(self.occupancy.count_ones())] += 1;
        // Occupied buckets after the cursor, via the bitmap: one
        // trailing_zeros instead of a ring scan. Slots below the cursor
        // wrap around to the buckets just past the old window's end.
        let ahead = self.occupancy & !((1 << self.cursor) - 1);
        if ahead != 0 {
            let slot = ahead.trailing_zeros() as usize;
            self.gcursor += (slot - self.cursor) as u64;
            self.cursor = slot;
        } else if self.occupancy != 0 {
            let slot = self.occupancy.trailing_zeros() as usize;
            self.gcursor += (NUM_BUCKETS - self.cursor + slot) as u64;
            self.cursor = slot;
        } else {
            // Ring drained: everything pending sits in the overflow. Jump
            // to its earliest event (skipping empty spans entirely).
            let t_min = self
                .overflow
                .peek()
                .expect("calendar invariant: len > 0 with an empty ring implies overflow events")
                .time
                .as_micros();
            self.gcursor = t_min / BUCKET_WIDTH_MICROS;
            self.cursor = Self::ring_index(t_min);
        }
        // The window slid forward: overflow events now inside it belong in
        // the ring (they are all at or beyond the old window's end, so none
        // precede the new cursor bucket — ordering is preserved).
        while self.overflow.peek().is_some_and(|s| {
            s.time.as_micros() / BUCKET_WIDTH_MICROS < self.gcursor + NUM_BUCKETS as u64
        }) {
            let item = self.overflow.pop().expect("peeked non-empty");
            stats.overflow_drained += 1;
            let idx = Self::ring_index(item.time.as_micros());
            Self::warm(&mut self.buckets[idx], &mut self.spares, self.cap_hint);
            self.buckets[idx].push(item);
            self.occupancy |= 1 << idx;
        }
        // The earliest pending event sits in the (non-empty) cursor bucket.
        self.sort_cursor_bucket();
    }

    fn sort_cursor_bucket(&mut self) {
        self.buckets[self.cursor].sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
    }

    /// Empties the calendar while keeping every bucket's allocation (and
    /// the overflow heap's) for reuse.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupancy = 0;
        self.cursor = 0;
        self.gcursor = 0;
        self.overflow.clear();
        self.len = 0;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue { calendar: Calendar::new(), next_seq: 0, stats: QueueStats::default() }
    }

    /// Plain-field instrumentation accumulated since construction or the
    /// last [`EventQueue::clear`].
    #[must_use]
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Schedules `event` at `time`.
    ///
    /// Scheduling in the past is allowed (the event fires "immediately" from
    /// the caller's perspective); the world clamps such events to its
    /// current clock.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(Scheduled { time, seq, event }, &mut self.stats);
        self.stats.pushes += 1;
        let len = self.len() as u64;
        if len > self.stats.max_len {
            self.stats.max_len = len;
        }
    }

    /// Schedules `event` at `time` under a caller-chosen tiebreak key
    /// instead of the internal insertion sequence. Events at equal times pop
    /// in ascending key order.
    ///
    /// This is the sharded world's scheduling primitive: each shard keys
    /// events by `(node id << 32) | per-node sequence`, which makes the pop
    /// order of any pair of nodes' events independent of which other nodes
    /// share the queue — the property that keeps N-shard runs bit-identical
    /// to 1-shard runs. A queue must use either `push` or `push_keyed`
    /// exclusively; mixing them can collide keys.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.calendar.push(Scheduled { time, seq: key, event }, &mut self.stats);
        self.stats.pushes += 1;
        let len = self.len() as u64;
        if len > self.stats.max_len {
            self.stats.max_len = len;
        }
    }

    /// Removes and returns the earliest event.
    // Always inlined into the event loop. Out of line, the fast path copies
    // the popped entry field by field through a return slot, and the serial
    // 5 000-node arena benchmark (`arena_5k_serial`) ran measurably slower.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let item = self.calendar.pop(&mut self.stats);
        self.stats.pops += item.is_some() as u64;
        item.map(|s| (s.time, s.event))
    }

    /// Time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.peek().map(|s| s.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.calendar.len
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event and resets the insertion-sequence counter,
    /// returning the queue to its freshly-constructed state while keeping
    /// the backing allocations (calendar buckets, overflow heap) for reuse.
    ///
    /// After `clear()` the queue is observationally identical to a new
    /// queue: the same pushes pop in the same order with the same internal
    /// `(time, seq)` keys.
    pub fn clear(&mut self) {
        self.next_seq = 0;
        self.stats = QueueStats::default();
        self.calendar.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Microseconds covered by one full ring revolution (the window span).
    const RING_SPAN_MICROS: u64 = BUCKET_WIDTH_MICROS * NUM_BUCKETS as u64;

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_micros(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((SimTime::from_micros(5), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 'c');
        q.push(SimTime::from_micros(10), 'a');
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(30)));
    }

    #[test]
    fn clear_restores_fresh_state_and_keeps_popping_correctly() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(SimTime::from_micros(i * 40_000), i);
        }
        let _ = q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // Same pushes as a fresh queue pop identically (seq restarts).
        q.push(SimTime::from_micros(7), 101);
        q.push(SimTime::from_micros(7), 102);
        q.push(SimTime::from_micros(3), 100);
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 100)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 101)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 102)));
    }

    #[test]
    fn periodic_reschedules_pop_in_order_across_window_slides() {
        // The kernel's beacon pattern: pop an event at t, push it back at
        // t + 1 s. Crosses many ring revolutions; order must hold exactly.
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_micros(i * 3), i);
        }
        let mut last = SimTime::ZERO;
        for _ in 0..2_000 {
            let (t, id) = q.pop().expect("queue stays populated");
            assert!(t >= last);
            last = t;
            q.push(t + crate::SimDuration::from_secs_f64(1.0), id);
        }
    }

    #[test]
    fn stats_track_pushes_pops_and_overflow() {
        let mut q = EventQueue::new();
        // Two in-window events and one far beyond the window (overflow).
        q.push(SimTime::from_micros(10), 0);
        q.push(SimTime::from_micros(20), 1);
        q.push(SimTime::from_micros(RING_SPAN_MICROS * 3), 2);
        assert_eq!(q.stats().pushes, 3);
        assert_eq!(q.stats().max_len, 3);
        assert_eq!(q.stats().overflow_pushes, 1);
        while q.pop().is_some() {}
        let stats = *q.stats();
        assert_eq!(stats.pops, 3);
        assert_eq!(stats.overflow_drained, 1);
        assert!(stats.window_slides >= 1);
        assert_eq!(stats.occupancy_bins.iter().sum::<u64>(), stats.window_slides);
        // clear() resets instrumentation along with the queue.
        q.clear();
        assert_eq!(*q.stats(), QueueStats::default());
    }

    #[test]
    fn occupancy_bins_cover_the_full_range() {
        assert_eq!(QueueStats::occupancy_bin(0), 0);
        assert_eq!(QueueStats::occupancy_bin(1), 1);
        assert_eq!(QueueStats::occupancy_bin(3), 2);
        assert_eq!(QueueStats::occupancy_bin(4), 3);
        assert_eq!(QueueStats::occupancy_bin(63), 6);
        assert_eq!(QueueStats::occupancy_bin(64), 7);
        // Each representative value maps back to its own bin.
        for (bin, &v) in QueueStats::OCCUPANCY_BIN_VALUES.iter().enumerate() {
            assert_eq!(QueueStats::occupancy_bin(v as u32), bin);
        }
    }

    #[test]
    fn calendar_handles_multi_day_gaps() {
        let mut q = EventQueue::new();
        // Far beyond one ring revolution, several empty revolutions apart.
        let times =
            [0, RING_SPAN_MICROS * 3 + 17, RING_SPAN_MICROS * 10, RING_SPAN_MICROS * 10 + 1];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((SimTime::from_micros(t), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(1_000_000), "future");
        q.push(SimTime::from_micros(2_000_000), "later");
        assert_eq!(q.pop().unwrap().1, "future");
        // "Now" is 1 s; scheduling before that must still pop next.
        q.push(SimTime::from_micros(500), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// A future-event list [`run_schedule`] can push to and pop from: the
    /// calendar under test or the binary-heap oracle.
    trait FutureEvents {
        fn push(&mut self, time: SimTime, i: usize);
        fn pop(&mut self) -> Option<(SimTime, usize)>;
    }

    impl FutureEvents for EventQueue<usize> {
        fn push(&mut self, time: SimTime, i: usize) {
            EventQueue::push(self, time, i);
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            EventQueue::pop(self)
        }
    }

    /// The oracle: `Scheduled`'s reversed ordering makes the max-heap pop
    /// the earliest `(time, seq)` first. The push index is the sequence.
    impl FutureEvents for BinaryHeap<Scheduled<usize>> {
        fn push(&mut self, time: SimTime, i: usize) {
            BinaryHeap::push(self, Scheduled { time, seq: i as u64, event: i });
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            BinaryHeap::pop(self).map(|s| (s.time, s.event))
        }
    }

    /// Drives an interleaved push/pop schedule and returns the pop trace.
    fn run_schedule(q: &mut impl FutureEvents, script: &[(u64, bool)]) -> Vec<(SimTime, usize)> {
        let mut popped = Vec::new();
        for (i, &(t, also_pop)) in script.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
            if also_pop {
                if let Some(item) = q.pop() {
                    popped.push(item);
                }
            }
        }
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        popped
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and
        /// same-time events come out in push order.
        #[test]
        fn prop_pop_order_is_total(times in proptest::collection::vec(0u64..100, 0..64)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "same-time events must pop in push order");
                    }
                }
                last = Some((t, i));
            }
        }

        #[test]
        fn prop_len_tracks_pushes_and_pops(n in 0usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_micros(i as u64 % 7), i);
            }
            prop_assert_eq!(q.len(), n);
            let mut popped = 0;
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(popped, n);
        }

        /// The calendar pops the exact same `(time, seq)` sequence as the
        /// heap oracle, including under interleaved pushes and pops and
        /// across multi-day time spans.
        #[test]
        fn prop_backends_pop_identically(
            script in proptest::collection::vec(
                (0u64..(RING_SPAN_MICROS * 4), 0u32..3),
                0..96,
            ),
        ) {
            let script: Vec<(u64, bool)> =
                script.into_iter().map(|(t, p)| (t, p == 0)).collect();
            let calendar = run_schedule(&mut EventQueue::new(), &script);
            let heap = run_schedule(&mut BinaryHeap::new(), &script);
            prop_assert_eq!(calendar, heap);
        }

        /// On monotone schedules (every push at or after the last pop, the
        /// kernel's usage pattern) the popped clock never regresses.
        #[test]
        fn prop_clock_never_regresses_on_monotone_schedules(
            deltas in proptest::collection::vec((0u64..3_000_000, 0u32..2), 1..96),
        ) {
            let mut q = EventQueue::new();
            let mut now = SimTime::ZERO;
            let mut clock = SimTime::ZERO;
            for (i, &(delta, also_pop)) in deltas.iter().enumerate() {
                q.push(SimTime::from_micros(now.as_micros() + delta), i);
                if also_pop == 0 {
                    if let Some((t, _)) = q.pop() {
                        prop_assert!(t >= clock, "clock regressed: {t:?} < {clock:?}");
                        clock = t;
                        now = now.max(t);
                    }
                }
            }
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= clock);
                clock = t;
            }
        }
    }
}
