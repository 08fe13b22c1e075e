//! The deterministic event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a calendar/bucket queue tuned for the near-monotone
//! schedules discrete-event simulation produces: virtual time is divided
//! into fixed-width buckets arranged in a ring covering a sliding window of
//! one ring-span ahead of the cursor; an event lands in its bucket in O(1),
//! the bucket under the cursor is sorted once when the cursor reaches it,
//! and events beyond the window wait in an overflow heap that is drained
//! into the ring as the window slides forward. For the simulator's workload
//! (deliveries milliseconds ahead, timers a second ahead) every push is an
//! O(1) append: a 1 s reschedule is always inside the ~2.1 s window,
//! regardless of where the cursor sits. A burst of events at the cursor's
//! own instant is O(1) per push too, as long as each one carries a larger
//! key than the last.
//!
//! Beside the calendar runs the **monotone lane**: a FIFO for one stream
//! whose `(time, key)` only increase, such as the HELLO beacons every node
//! sends at exactly `k·P`. A lane push is an append and a lane pop takes
//! the front, so the stream never enters a bucket, is never sorted and
//! never sizes the calendar's recycled storage. `pop` and `peek_time` take
//! whichever of the lane's head and the calendar's head has the smaller
//! `(time, key)`. A lane push whose key is not above the lane's tail goes
//! to the calendar instead (and the push reports it), so the merge is exact
//! for any caller.
//!
//! It pops in exactly `(time, key)` order, where the key is the insertion
//! sequence or a caller-chosen tiebreak; the property tests compare its pop
//! sequence, lane included, against a binary-heap oracle.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
/// `publish_metrics` (see `world/observe.rs`), which is the only place that
/// ever reads them.
///
/// `pushes`, `pops` and `max_len` count the whole queue, monotone lane
/// included; the other fields describe the calendar alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events pushed, lane pushes included.
    pub pushes: u64,
    /// Total events popped, lane pops included.
    pub pops: u64,
    /// High-water mark of pending events, lane and calendar together.
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
    /// The monotone lane: ascending by `(time, seq)`, so its front is its
    /// earliest event (see the module docs).
    lane: VecDeque<Scheduled<E>>,
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

/// One calendar bucket: a ring buffer, so the cursor bucket gains an
/// event at either end in O(1).
type Bucket<E> = VecDeque<Scheduled<E>>;

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
///   *descending* by `(time, seq)`, so the next event to pop is its back
///   element and `peek` is O(1); an event larger than every other in the
///   bucket goes on its front, also O(1);
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
    buckets: Vec<Bucket<E>>,
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupancy: u64,
    /// Index of the current bucket within the ring (`gcursor % 64`).
    cursor: usize,
    /// Global index of the cursor bucket on the full time axis
    /// (`time / BUCKET_WIDTH_MICROS`); the window starts here.
    gcursor: u64,
    /// Events scheduled beyond the current window, earliest first.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Storage recycled from drained buckets. A periodic workload (pacing
    /// timers) drops its whole batch into one bucket per period, and each
    /// period lands on a different ring slot — so without recycling, every
    /// cold slot regrows a bucket from zero (a full doubling chain of
    /// allocations) while the capacity of the slot just drained sits
    /// stranded until the ring wraps. Handing drained storage to the next
    /// cold bucket makes steady-state pushes allocation-free.
    spares: Vec<Bucket<E>>,
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
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
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
    fn warm(bucket: &mut Bucket<E>, spares: &mut Vec<Bucket<E>>, cap_hint: usize) {
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
            // Rewinds the empty ring buffer to its start, so the appends
            // that refill it stay contiguous for the sort.
            bucket.clear();
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
            self.buckets[self.cursor].push_back(item);
            self.note_cap(self.cursor);
            self.occupancy |= 1 << self.cursor;
        } else if g <= self.gcursor {
            // At or before the cursor bucket (including "in the past"):
            // insert into the sorted cursor bucket so ordering holds. The
            // largest key so far — the next event of a same-instant burst
            // — goes on the front in O(1).
            let key = (item.time, item.seq);
            let bucket = &mut self.buckets[self.cursor];
            if bucket.front().is_some_and(|s| (s.time, s.seq) < key) {
                bucket.push_front(item);
            } else {
                let pos = bucket.partition_point(|s| (s.time, s.seq) > key);
                bucket.insert(pos, item);
            }
            self.note_cap(self.cursor);
        } else if g < self.gcursor + NUM_BUCKETS as u64 {
            // Inside the window: O(1) append, sorted when the cursor gets
            // there.
            let idx = Self::ring_index(t);
            Self::warm(&mut self.buckets[idx], &mut self.spares, self.cap_hint);
            self.buckets[idx].push_back(item);
            self.note_cap(idx);
            self.occupancy |= 1 << idx;
        } else {
            self.overflow.push(item);
            stats.overflow_pushes += 1;
        }
        self.len += 1;
    }

    #[inline(always)]
    fn peek(&self) -> Option<&Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        self.buckets[self.cursor].back()
    }

    // The fast path is inlined into `EventQueue::pop`, and so into the
    // event loop; draining a bucket, the rarer case, stays out of line.
    #[inline(always)]
    fn pop(&mut self, stats: &mut QueueStats) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let item = self.buckets[self.cursor]
            .pop_back()
            .expect("calendar invariant: cursor bucket non-empty while len > 0");
        self.len -= 1;
        if self.buckets[self.cursor].is_empty() {
            self.drained(stats);
        }
        Some(item)
    }

    /// Retires the emptied cursor bucket and, while events remain, slides
    /// the window on to the next one.
    #[inline(never)]
    fn drained(&mut self, stats: &mut QueueStats) {
        self.occupancy &= !(1 << self.cursor);
        self.recycle(self.cursor);
        if self.len > 0 {
            self.advance(stats);
        }
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
            self.buckets[idx].push_back(item);
            self.occupancy |= 1 << idx;
        }
        // The earliest pending event sits in the (non-empty) cursor bucket.
        self.sort_cursor_bucket();
    }

    fn sort_cursor_bucket(&mut self) {
        self.buckets[self.cursor]
            .make_contiguous()
            .sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
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
        EventQueue {
            calendar: Calendar::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Plain-field instrumentation accumulated since construction or the
    /// last [`EventQueue::clear`].
    #[must_use]
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// The next insertion sequence number.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time`.
    ///
    /// Scheduling in the past is allowed (the event fires "immediately" from
    /// the caller's perspective); the world clamps such events to its
    /// current clock.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.calendar.push(Scheduled { time, seq, event }, &mut self.stats);
        self.count_push();
    }

    /// Schedules `event` at `time` under a caller-chosen tiebreak key
    /// instead of the internal insertion sequence. Events at equal times pop
    /// in ascending key order.
    ///
    /// This is the sharded world's scheduling primitive: each shard keys
    /// events by `(node id << 32) | per-node sequence`, which makes the pop
    /// order of any pair of nodes' events independent of which other nodes
    /// share the queue — the property that keeps N-shard runs bit-identical
    /// to 1-shard runs. A queue must use either the sequence (`push`,
    /// `push_lane`) or caller keys (`push_keyed`, `push_lane_keyed`)
    /// exclusively; mixing them can collide keys.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.calendar.push(Scheduled { time, seq: key, event }, &mut self.stats);
        self.count_push();
    }

    /// Schedules `event` at `time` on the monotone lane, under the next
    /// insertion sequence number, and returns `true`. If `time` lies before
    /// the lane's latest event the lane would fall out of order, so the
    /// event goes to the calendar instead and the call returns `false`:
    /// either way it pops in exact `(time, seq)` order.
    ///
    /// Meant for a stream whose times only rise, such as a fixed-period
    /// beacon rescheduled at its pop time plus the period: its events then
    /// never enter a calendar bucket.
    pub fn push_lane(&mut self, time: SimTime, event: E) -> bool {
        let seq = self.take_seq();
        self.push_to_lane(Scheduled { time, seq, event })
    }

    /// [`EventQueue::push_lane`] under a caller-chosen key (see
    /// [`EventQueue::push_keyed`]): the event joins the lane if
    /// `(time, key)` is above the lane's latest event, and the calendar
    /// otherwise. Returns whether it joined the lane.
    pub fn push_lane_keyed(&mut self, time: SimTime, key: u64, event: E) -> bool {
        self.push_to_lane(Scheduled { time, seq: key, event })
    }

    fn push_to_lane(&mut self, item: Scheduled<E>) -> bool {
        let in_order =
            self.lane.back().is_none_or(|tail| (tail.time, tail.seq) < (item.time, item.seq));
        if in_order {
            self.lane.push_back(item);
        } else {
            self.calendar.push(item, &mut self.stats);
        }
        self.count_push();
        in_order
    }

    #[inline]
    fn count_push(&mut self) {
        self.stats.pushes += 1;
        let len = self.len() as u64;
        if len > self.stats.max_len {
            self.stats.max_len = len;
        }
    }

    /// Removes and returns the earliest event: the lane's head or the
    /// calendar's, whichever has the smaller `(time, key)`.
    // Always inlined into the event loop. Out of line, the fast path copies
    // the popped entry field by field through a return slot, and the serial
    // 5 000-node arena benchmark (`arena_5k_serial`) ran measurably slower.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let item = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.calendar.pop(&mut self.stats)
        };
        self.stats.pops += item.is_some() as u64;
        item.map(|s| (s.time, s.event))
    }

    /// Whether the earliest pending event is the lane's head.
    #[inline(always)]
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.calendar.peek()) {
            (Some(l), Some(c)) => (l.time, l.seq) < (c.time, c.seq),
            (lane, _) => lane.is_some(),
        }
    }

    /// Time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.lane.front(), self.calendar.peek()) {
            (Some(l), Some(c)) => Some(l.time.min(c.time)),
            (l, c) => l.or(c).map(|s| s.time),
        }
    }

    /// Number of pending events, lane included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.calendar.len + self.lane.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event and resets the insertion-sequence counter,
    /// returning the queue to its freshly-constructed state while keeping
    /// the backing allocations (calendar buckets, overflow heap, lane) for
    /// reuse.
    ///
    /// After `clear()` the queue is observationally identical to a new
    /// queue: the same pushes pop in the same order with the same internal
    /// `(time, seq)` keys.
    pub fn clear(&mut self) {
        self.next_seq = 0;
        self.stats = QueueStats::default();
        self.calendar.clear();
        self.lane.clear();
    }

    /// The events on the lane, earliest first.
    #[cfg(test)]
    pub(crate) fn lane_events(&self) -> impl Iterator<Item = &E> {
        self.lane.iter().map(|s| &s.event)
    }

    /// The events in the calendar (ring and overflow), in no order.
    #[cfg(test)]
    pub(crate) fn calendar_events(&self) -> impl Iterator<Item = &E> {
        let ring = self.calendar.buckets.iter().flatten();
        ring.chain(self.calendar.overflow.iter()).map(|s| &s.event)
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

    #[test]
    fn lane_and_calendar_merge_by_time_then_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        assert!(q.push_lane(t(10), "lane-0"));
        q.push(t(10), "cal-1");
        assert!(q.push_lane(t(10), "lane-2"));
        q.push(t(5), "cal-3");
        assert_eq!((q.len(), q.peek_time()), (4, Some(t(5))));
        assert_eq!(q.pop(), Some((t(5), "cal-3")));
        assert_eq!(q.pop(), Some((t(10), "lane-0")));
        assert_eq!(q.pop(), Some((t(10), "cal-1")));
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(10))));
        assert_eq!(q.pop(), Some((t(10), "lane-2")));
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        let stats = *q.stats();
        assert_eq!((stats.pushes, stats.pops, stats.max_len), (4, 4, 4));
    }

    #[test]
    fn lane_push_below_its_tail_goes_to_the_calendar() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        assert!(q.push_lane_keyed(t(20), 5, 'a'));
        assert!(!q.push_lane_keyed(t(20), 3, 'b'), "a smaller key at the tail's instant");
        assert!(!q.push_lane_keyed(t(10), 9, 'c'), "an earlier instant");
        assert!(q.push_lane_keyed(t(20), 6, 'd'));
        assert_eq!(q.lane_events().count(), 2);
        assert_eq!(q.calendar_events().count(), 2);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [(t(10), 'c'), (t(20), 'b'), (t(20), 'a'), (t(20), 'd')]);
        // Once the lane drains, any push joins it again.
        assert!(q.push_lane_keyed(t(1), 0, 'e'));
        q.clear();
        assert_eq!((q.len(), q.lane_events().count()), (0, 0));
        assert_eq!(*q.stats(), QueueStats::default());
    }

    #[test]
    fn same_instant_bursts_pop_in_key_order() {
        // Rising keys at the cursor's instant take the O(1) front append;
        // a falling key still takes its sorted place.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for key in (0..50u64).chain([3_000, 1_000, 2_000]) {
            q.push_keyed(t, key * 10, key);
        }
        q.push_keyed(t, 15, 100);
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        let mut want: Vec<u64> = (0..50).chain([1_000, 2_000, 3_000]).collect();
        want.insert(2, 100);
        assert_eq!(keys, want);
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

    /// The lane schedule [`prop_lane_merges_exactly`] drives through the
    /// queue and the heap oracle side by side, in one key mode.
    struct LaneHarness {
        q: EventQueue<usize>,
        oracle: BinaryHeap<Scheduled<usize>>,
        /// Caller keys `(node << 32) | per-node sequence`, as a shard
        /// keys its queue; otherwise the queue's own sequence.
        keyed: bool,
        seq: u64,
        node_seq: Vec<u32>,
        period: u64,
        /// Per pushed event: its node and whether it is periodic.
        kinds: Vec<(u32, bool)>,
        /// Per pushed event: whether it joined the lane.
        on_lane: Vec<bool>,
        lane_len: usize,
        lane_tail: (SimTime, u64),
        strays_on_lane: usize,
    }

    impl LaneHarness {
        fn new(keyed: bool, nodes: u32, period: u64) -> Self {
            let mut h = LaneHarness {
                q: EventQueue::new(),
                oracle: BinaryHeap::new(),
                keyed,
                seq: 0,
                node_seq: vec![0; nodes as usize],
                period,
                kinds: Vec::new(),
                on_lane: Vec::new(),
                lane_len: 0,
                lane_tail: (SimTime::ZERO, 0),
                strays_on_lane: 0,
            };
            // The first round: every stream at t = 0, in node order.
            for node in 0..nodes {
                h.push(SimTime::ZERO, node, true, true);
            }
            h
        }

        /// Pushes one event, on the lane or the calendar, and checks a
        /// lane push lands where the fallback rule says.
        fn push(&mut self, at: SimTime, node: u32, periodic: bool, lane: bool) {
            let uid = self.kinds.len();
            let key = if self.keyed {
                let s = &mut self.node_seq[node as usize];
                *s += 1;
                (u64::from(node) << 32) | u64::from(*s - 1)
            } else {
                self.seq += 1;
                self.seq - 1
            };
            let joined = match (lane, self.keyed) {
                (false, false) => {
                    self.q.push(at, uid);
                    false
                }
                (false, true) => {
                    self.q.push_keyed(at, key, uid);
                    false
                }
                (true, false) => self.q.push_lane(at, uid),
                (true, true) => self.q.push_lane_keyed(at, key, uid),
            };
            if lane {
                let fits = self.lane_len == 0 || self.lane_tail < (at, key);
                assert_eq!(joined, fits, "lane push at {at:?} key {key}");
                if periodic && self.strays_on_lane == 0 {
                    assert!(joined, "a periodic stream alone stays on the lane");
                }
            }
            if joined {
                self.lane_len += 1;
                self.lane_tail = (at, key);
                self.strays_on_lane += usize::from(!periodic);
            }
            self.kinds.push((node, periodic));
            self.on_lane.push(joined);
            self.oracle.push(Scheduled { time: at, seq: key, event: uid });
        }

        /// Pops both sides and compares; a popped periodic event goes back
        /// on the lane one period later while `repush` holds.
        fn pop(&mut self, repush: bool) -> Option<SimTime> {
            let got = self.q.pop();
            assert_eq!(got, self.oracle.pop().map(|s| (s.time, s.event)));
            let (t, uid) = got?;
            if self.on_lane[uid] {
                self.lane_len -= 1;
                self.strays_on_lane -= usize::from(!self.kinds[uid].1);
            }
            let (node, periodic) = self.kinds[uid];
            if periodic && repush {
                self.push(t + crate::SimDuration::from_micros(self.period), node, true, true);
            }
            Some(t)
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.oracle.len());
            assert_eq!(self.q.peek_time(), self.oracle.peek().map(|s| s.time));
        }
    }

    /// Periods the lane proptest draws from: tick-sized, sub-bucket, one
    /// bucket, the HELLO period, and beyond the window (overflow heap).
    const LANE_PERIODS: [u64; 5] = [1, 700, BUCKET_WIDTH_MICROS, 1_000_000, RING_SPAN_MICROS * 3];

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

        /// Random interleavings of a periodic lane stream (`nodes` streams
        /// from t = 0, each popped event pushed again one period later),
        /// one-shot calendar pushes at the stream's instants or just after,
        /// stray lane pushes that may fall below the lane's tail, and pops:
        /// in both key modes the queue pops exactly as the heap oracle, and
        /// its `len` and `peek_time` agree after every step. Steps
        /// `(op, a, b, c)`: op 0–1 pops; op 2 pushes a one-shot for node
        /// `c` at the `a`th period instant from the clock, plus `b` µs when
        /// `c` is odd; op 3 pushes a one-shot for node `c` on the lane, at
        /// the `(a - 1)`th instant, plus `b` µs when `c` is odd — below the
        /// lane's tail, at its instant (where the key decides) or above.
        #[test]
        fn prop_lane_merges_exactly(
            nodes in 1u32..6,
            period in 0usize..LANE_PERIODS.len(),
            script in proptest::collection::vec((0u8..4, 0u64..4, 0u64..40_000, 0u32..8), 0..160),
        ) {
            let period = LANE_PERIODS[period];
            for keyed in [false, true] {
                let mut h = LaneHarness::new(keyed, nodes, period);
                h.check();
                let mut now = SimTime::ZERO;
                for &(op, a, b, c) in &script {
                    match op {
                        0 | 1 => now = h.pop(true).unwrap_or(now),
                        _ => {
                            let lane = op == 3;
                            let instant = (now.as_micros() / period + a).saturating_sub(u64::from(lane));
                            let at = instant * period + if c % 2 == 1 { b } else { 0 };
                            h.push(SimTime::from_micros(at), c % nodes, false, lane);
                        }
                    }
                    h.check();
                }
                while h.pop(false).is_some() {
                    h.check();
                }
                prop_assert!(h.q.is_empty());
            }
        }
    }
}
