//! The deterministic event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a binary heap beside a **monotone lane**. The lane is
//! a FIFO for one stream whose `(time, key)` only increase, such as the
//! HELLO beacons every node sends at exactly `k·P`: a lane push is an
//! append and a lane pop takes the front, so the stream never enters the
//! heap and is never sifted. A lane entry is its time, its key and a `u32`
//! id (the beaconing node), 24 bytes, not a whole event: the stream's
//! events differ only in that id. Every other event (deliveries,
//! application timers, movement steps) goes on the heap, which holds only a
//! few of them at a time. [`EventQueue::pop_next`] and `peek_time` take
//! whichever of the lane's head and the heap's head has the smaller
//! `(time, key)`; a lane pop hands back the id, and builds no event. A lane
//! push whose key is not above the lane's tail goes to the heap instead, as
//! the event its caller builds for it (and the push reports it), so the
//! merge is exact for any caller.
//!
//! It pops in exactly `(time, key)` order, where the key is the insertion
//! sequence or a caller-chosen tiebreak; the property tests compare its pop
//! sequence, lane included, against a bare binary-heap oracle.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// Plain-field instrumentation for one queue.
///
/// These are ordinary `u64` fields bumped inline on the hot paths — no
/// atomics, no branches on an observability handle, no allocation — so the
/// queue costs the same whether or not anyone is watching. They are flushed
/// into an `imobif-obs` registry once per run by the world's
/// `publish_metrics` (see `world/observe.rs`), which is the only place that
/// ever reads them. Each counts the whole queue, monotone lane included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events pushed, lane pushes included.
    pub pushes: u64,
    /// Total events popped, lane pops included.
    pub pops: u64,
    /// High-water mark of pending events, lane and heap together.
    pub max_len: u64,
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
    /// Every pending event not on the lane, earliest `(time, seq)` on top.
    heap: BinaryHeap<Scheduled<E>>,
    /// The monotone lane: ascending by `(time, seq)`, so its front is its
    /// earliest entry (see the module docs).
    lane: VecDeque<LaneEntry>,
    next_seq: u64,
    stats: QueueStats,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// One pending entry of the lane: its `(time, seq)` and the id its event
/// would carry.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    time: SimTime,
    seq: u64,
    id: u32,
}

/// What [`EventQueue::pop_next`] takes off the queue: a heap event, or the
/// id of a lane entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// An event pushed with `push`, `push_keyed`, or a lane push that fell
    /// to the heap.
    Event(E),
    /// The id of an entry that rode the lane.
    Lane(u32),
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

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Plain-field instrumentation accumulated since construction.
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
        self.heap.push(Scheduled { time, seq, event });
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
        self.heap.push(Scheduled { time, seq: key, event });
        self.count_push();
    }

    /// Schedules the entry `id` at `time` on the monotone lane, under the
    /// next insertion sequence number, and returns `true`; it pops from
    /// [`EventQueue::pop_next`] as [`Popped::Lane`]`(id)`. If `time` lies
    /// before the lane's latest entry the lane would fall out of order, so
    /// the event `stray` builds goes to the heap instead and the call
    /// returns `false`: either way it pops in exact `(time, seq)` order.
    ///
    /// Meant for a stream whose times only rise, such as a fixed-period
    /// beacon rescheduled at its pop time plus the period: its entries then
    /// never enter the heap, and no event is built for them.
    pub fn push_lane(&mut self, time: SimTime, id: u32, stray: impl FnOnce() -> E) -> bool {
        let seq = self.take_seq();
        self.push_to_lane(LaneEntry { time, seq, id }, stray)
    }

    /// [`EventQueue::push_lane`] under a caller-chosen key (see
    /// [`EventQueue::push_keyed`]): the entry joins the lane if
    /// `(time, key)` is above the lane's latest entry, and `stray()` joins
    /// the heap otherwise. Returns whether it joined the lane.
    pub fn push_lane_keyed(
        &mut self,
        time: SimTime,
        key: u64,
        id: u32,
        stray: impl FnOnce() -> E,
    ) -> bool {
        self.push_to_lane(LaneEntry { time, seq: key, id }, stray)
    }

    fn push_to_lane(&mut self, entry: LaneEntry, stray: impl FnOnce() -> E) -> bool {
        let in_order =
            self.lane.back().is_none_or(|tail| (tail.time, tail.seq) < (entry.time, entry.seq));
        if in_order {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Scheduled { time: entry.time, seq: entry.seq, event: stray() });
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

    /// Removes and returns the earliest entry: the lane's head or the
    /// heap's, whichever has the smaller `(time, key)`. A lane entry comes
    /// back as its id.
    // Always inlined into the event loop. Out of line, the fast path copies
    // the popped entry field by field through a return slot, and the serial
    // 5 000-node arena benchmark (`arena_5k_serial`) ran measurably slower.
    #[inline(always)]
    pub fn pop_next(&mut self) -> Option<(SimTime, Popped<E>)> {
        let item = if self.lane_first() {
            self.lane.pop_front().map(|l| (l.time, Popped::Lane(l.id)))
        } else {
            self.heap.pop().map(|s| (s.time, Popped::Event(s.event)))
        };
        self.stats.pops += item.is_some() as u64;
        item
    }

    /// Removes and returns the earliest event of a queue whose lane is
    /// unused: every push went through [`EventQueue::push`] or
    /// [`EventQueue::push_keyed`]. A queue with lane pushes pops through
    /// [`EventQueue::pop_next`].
    ///
    /// # Panics
    ///
    /// Panics if the earliest entry is on the lane.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_next().map(|(time, popped)| match popped {
            Popped::Event(event) => (time, event),
            Popped::Lane(id) => panic!("lane entry {id} popped through pop(); use pop_next()"),
        })
    }

    /// Whether the earliest pending event is the lane's head.
    #[inline(always)]
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => (l.time, l.seq) < (h.time, h.seq),
            (lane, _) => lane.is_some(),
        }
    }

    /// Time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.time.min(h.time)),
            (l, h) => l.map(|l| l.time).or(h.map(|h| h.time)),
        }
    }

    /// Number of pending events, lane included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids on the lane, earliest first.
    #[cfg(test)]
    pub(crate) fn lane_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.lane.iter().map(|l| l.id)
    }

    /// The events on the heap, in no order.
    #[cfg(test)]
    pub(crate) fn heap_events(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|s| &s.event)
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

    /// About 2.1 s, twice the HELLO period: the unit of the far-future and
    /// long-period cases below.
    const SPAN_MICROS: u64 = 1 << 21;

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
    fn periodic_reschedules_pop_in_order_over_many_periods() {
        // The kernel's beacon pattern: pop an event at t, push it back at
        // t + 1 s, for 200 periods; order must hold exactly.
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
    fn stats_track_pushes_pops_and_max_len() {
        let mut q = EventQueue::new();
        // Two near events and one far ahead.
        q.push(SimTime::from_micros(10), 0);
        q.push(SimTime::from_micros(20), 1);
        q.push(SimTime::from_micros(SPAN_MICROS * 3), 2);
        assert_eq!(q.stats().pushes, 3);
        assert_eq!(q.stats().max_len, 3);
        while q.pop().is_some() {}
        assert_eq!(q.stats().pops, 3);
    }

    #[test]
    fn multi_day_gaps_pop_in_order() {
        let mut q = EventQueue::new();
        // Far ahead of each other, several empty spans apart.
        let times = [0, SPAN_MICROS * 3 + 17, SPAN_MICROS * 10, SPAN_MICROS * 10 + 1];
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
    fn lane_and_heap_merge_by_time_then_key() {
        use Popped::{Event, Lane};
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        let stray = || unreachable!("every lane push here is in order");
        assert!(q.push_lane(t(10), 0, stray));
        q.push(t(10), "cal-1");
        assert!(q.push_lane(t(10), 2, stray));
        q.push(t(5), "cal-3");
        assert_eq!((q.len(), q.peek_time()), (4, Some(t(5))));
        assert_eq!(q.pop_next(), Some((t(5), Event("cal-3"))));
        assert_eq!(q.pop_next(), Some((t(10), Lane(0))));
        assert_eq!(q.pop_next(), Some((t(10), Event("cal-1"))));
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(10))));
        assert_eq!(q.pop_next(), Some((t(10), Lane(2))));
        assert_eq!((q.len(), q.peek_time(), q.pop_next()), (0, None, None));
        let stats = *q.stats();
        assert_eq!((stats.pushes, stats.pops, stats.max_len), (4, 4, 4));
    }

    #[test]
    fn lane_push_below_its_tail_goes_to_the_heap() {
        use Popped::{Event, Lane};
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        assert!(q.push_lane_keyed(t(20), 5, 0, || 'a'));
        assert!(!q.push_lane_keyed(t(20), 3, 1, || 'b'), "a smaller key at the tail's instant");
        assert!(!q.push_lane_keyed(t(10), 9, 2, || 'c'), "an earlier instant");
        assert!(q.push_lane_keyed(t(20), 6, 3, || 'd'));
        assert_eq!(q.lane_ids().collect::<Vec<_>>(), [0, 3]);
        assert_eq!(q.heap_events().count(), 2);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(
            popped,
            [(t(10), Event('c')), (t(20), Event('b')), (t(20), Lane(0)), (t(20), Lane(3))]
        );
        // Once the lane drains, any push joins it again.
        assert!(q.push_lane_keyed(t(1), 0, 4, || 'e'));
    }

    #[test]
    #[should_panic(expected = "lane entry 7 popped through pop()")]
    fn pop_refuses_a_lane_entry() {
        let mut q: EventQueue<char> = EventQueue::new();
        q.push(SimTime::from_micros(2), 'h');
        q.push_lane(SimTime::from_micros(1), 7, || 'l');
        let _ = q.pop();
    }

    /// A lane entry is its time, its key and an id: a quarter of a
    /// scheduled simulator event.
    #[test]
    fn a_lane_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<LaneEntry>(), 24);
    }

    #[test]
    fn same_instant_bursts_pop_in_key_order() {
        // Rising keys at one instant sift up no level; a falling key still
        // takes its place.
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
    /// queue under test or the binary-heap oracle.
    trait FutureEvents {
        /// Pushes the `i`th event under `key`, or under the queue's own
        /// sequence (which then equals `i`) when `key` is `None`.
        fn push(&mut self, time: SimTime, key: Option<u64>, i: usize);
        fn pop(&mut self) -> Option<(SimTime, usize)>;
    }

    impl FutureEvents for EventQueue<usize> {
        fn push(&mut self, time: SimTime, key: Option<u64>, i: usize) {
            match key {
                Some(key) => EventQueue::push_keyed(self, time, key, i),
                None => EventQueue::push(self, time, i),
            }
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            EventQueue::pop(self)
        }
    }

    /// The oracle: `Scheduled`'s reversed ordering makes the max-heap pop
    /// the earliest `(time, seq)` first.
    impl FutureEvents for BinaryHeap<Scheduled<usize>> {
        fn push(&mut self, time: SimTime, key: Option<u64>, i: usize) {
            BinaryHeap::push(self, Scheduled { time, seq: key.unwrap_or(i as u64), event: i });
        }
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            BinaryHeap::pop(self).map(|s| (s.time, s.event))
        }
    }

    /// Drives an interleaved push/pop schedule and returns the pop trace.
    /// With `keyed` set, the `i`th push carries the unique caller key
    /// `(node << 32) | i` of one of five nodes, which falls as often as it
    /// rises, as a shard's keys do.
    fn run_schedule(
        q: &mut impl FutureEvents,
        script: &[(u64, bool)],
        keyed: bool,
    ) -> Vec<(SimTime, usize)> {
        let mut popped = Vec::new();
        for (i, &(t, also_pop)) in script.iter().enumerate() {
            let key = keyed.then(|| ((i as u64 * 7) % 5) << 32 | i as u64);
            q.push(SimTime::from_micros(t), key, i);
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

        /// Pushes one event, on the lane or the heap, and checks a
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
                (true, false) => self.q.push_lane(at, uid as u32, || uid),
                (true, true) => self.q.push_lane_keyed(at, key, uid as u32, || uid),
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

        /// Pops both sides and compares; an entry that joined the lane must
        /// pop as its id, any other as its event. A popped periodic event
        /// goes back on the lane one period later while `repush` holds.
        fn pop(&mut self, repush: bool) -> Option<SimTime> {
            let got = self.q.pop_next().map(|(t, popped)| match popped {
                Popped::Event(uid) => {
                    assert!(!self.on_lane[uid], "event {uid} joined the lane");
                    (t, uid)
                }
                Popped::Lane(id) => {
                    assert!(self.on_lane[id as usize], "entry {id} fell to the heap");
                    (t, id as usize)
                }
            });
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

    /// Periods the lane proptest draws from: tick-sized, sub-millisecond,
    /// a per-hop delay, the HELLO period, and several seconds.
    const LANE_PERIODS: [u64; 5] = [1, 700, 32_768, 1_000_000, SPAN_MICROS * 3];

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

        /// The queue pops the exact same `(time, key)` sequence as the
        /// heap oracle, including under interleaved pushes and pops and
        /// across multi-day time spans, under its own sequence and under
        /// caller keys.
        #[test]
        fn prop_backends_pop_identically(
            script in proptest::collection::vec(
                (0u64..(SPAN_MICROS * 4), 0u32..3),
                0..96,
            ),
        ) {
            let script: Vec<(u64, bool)> =
                script.into_iter().map(|(t, p)| (t, p == 0)).collect();
            for keyed in [false, true] {
                let queue = run_schedule(&mut EventQueue::new(), &script, keyed);
                let heap = run_schedule(&mut BinaryHeap::new(), &script, keyed);
                prop_assert_eq!(queue, heap);
            }
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
        /// one-shot heap pushes at the stream's instants or just after,
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
