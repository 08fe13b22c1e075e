//! Neighbor tables fed by HELLO beacons.

use imobif_geom::Point2;
use serde::{Deserialize, Serialize};

use crate::{NodeId, SimDuration, SimTime};

/// One neighbor-table entry: what a node knows about a peer from the peer's
/// most recent HELLO beacon.
///
/// Paper §2 requires exactly these fields: "a neighbor table with the
/// identity, location, and residual energy of each neighbor".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's identity.
    pub id: NodeId,
    /// The neighbor's position at beacon time.
    pub position: Point2,
    /// The neighbor's residual energy at beacon time, in joules.
    pub residual_energy: f64,
    /// When the beacon was received.
    pub heard_at: SimTime,
}

/// One HELLO beacon as its hearers record it: the sender's position and
/// residual energy at beacon time, and when it was sent.
///
/// Every node's latest beacon sits on the world's *beacon board*, a column
/// indexed by node id. A hearer that still hears the node reads its entry
/// from the board; one that stopped hearing it keeps a frozen copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Beacon {
    pub(crate) position: Point2,
    pub(crate) residual_energy: f64,
    pub(crate) heard_at: SimTime,
}

impl Beacon {
    fn entry(self, id: NodeId) -> NeighborEntry {
        NeighborEntry {
            id,
            position: self.position,
            residual_energy: self.residual_energy,
            heard_at: self.heard_at,
        }
    }
}

/// A node's neighbor table: every peer it has heard a HELLO beacon from,
/// with the latest beacon heard, aged out after a TTL on read.
///
/// A world keeps a peer's entry in one of two forms. While the node is in
/// the peer's current hearer set it hears every beacon the peer sends, so
/// its entry *is* the peer's latest beacon: the table stores only the
/// peer's id and reads the record from the beacon board. When the node
/// leaves the hearer set (or dies), the entry is frozen: the table keeps
/// the last beacon heard. A beacon therefore writes tables only where its
/// hearer set changed. Read a table through a [`NeighborView`]
/// ([`crate::NodeRef::neighbor_table`] in a world).
///
/// # Example
///
/// ```rust
/// use imobif_geom::Point2;
/// use imobif_netsim::{NeighborTable, NodeId, SimDuration, SimTime};
///
/// let mut table = NeighborTable::new(SimDuration::from_secs(3));
/// table.observe(NodeId::new(1), Point2::new(5.0, 0.0), 9.5, SimTime::ZERO);
///
/// // Fresh at t=2s…
/// assert!(table.view().get(NodeId::new(1), SimTime::from_micros(2_000_000)).is_some());
/// // …expired at t=4s.
/// assert!(table.view().get(NodeId::new(1), SimTime::from_micros(4_000_000)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    ttl: SimDuration,
    /// Peers whose current hearer set holds this node, sorted: bare ids,
    /// whose entries are the board's records. Neighborhoods are small
    /// (tens of nodes), so sorted `Vec`s beat a hash map on every
    /// operation, and a membership test touches one or two cache lines.
    live: Vec<NodeId>,
    /// Peers this node stopped hearing, each with the last beacon heard
    /// from it, sorted by id and disjoint from `live`.
    frozen: Vec<(NodeId, Beacon)>,
}

impl NeighborTable {
    /// Creates an empty table whose entries expire after `ttl`.
    #[must_use]
    pub fn new(ttl: SimDuration) -> Self {
        NeighborTable { ttl, live: Vec::new(), frozen: Vec::new() }
    }

    /// The configured entry lifetime.
    #[must_use]
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Records (or refreshes) a neighbor observation from a beacon, as a
    /// frozen entry.
    pub fn observe(&mut self, id: NodeId, position: Point2, residual_energy: f64, now: SimTime) {
        self.freeze(id, Beacon { position, residual_energy, heard_at: now });
    }

    /// Stores `beacon` as `id`'s frozen entry: this node no longer hears
    /// `id`, and `beacon` is the last it heard.
    pub(crate) fn freeze(&mut self, id: NodeId, beacon: Beacon) {
        if let Ok(i) = self.live.binary_search(&id) {
            self.live.remove(i);
        }
        self.store_frozen(id, beacon);
    }

    fn store_frozen(&mut self, id: NodeId, beacon: Beacon) {
        match self.frozen_index(id) {
            Ok(i) => self.frozen[i].1 = beacon,
            Err(i) => self.frozen.insert(i, (id, beacon)),
        }
    }

    fn frozen_index(&self, id: NodeId) -> Result<usize, usize> {
        self.frozen.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// Links `id`: this node joined `id`'s hearer set, so its entry is
    /// `id`'s board record from now on.
    pub(crate) fn join(&mut self, id: NodeId) {
        if let Ok(i) = self.frozen_index(id) {
            self.frozen.remove(i);
        }
        if let Err(i) = self.live.binary_search(&id) {
            self.live.insert(i, id);
        }
    }

    /// Links every id of the ascending list `ids` into this empty table, at
    /// exact capacity: the node joined each one's hearer set.
    pub(crate) fn link_all(&mut self, ids: &[u32]) {
        debug_assert!(self.is_empty(), "link_all fills an empty table");
        debug_assert!(ids.is_sorted_by(|a, b| a < b), "link_all takes ascending ids");
        self.live = ids.iter().map(|&k| NodeId::new(k)).collect();
    }

    /// Freezes every linked entry at its `board` record: the node stopped
    /// hearing (it died).
    pub(crate) fn freeze_all(&mut self, board: &[Beacon]) {
        for i in 0..self.live.len() {
            let id = self.live[i];
            self.store_frozen(id, board[id.index()]);
        }
        self.live.clear();
    }

    /// The table's entries. A table outside a world holds only observed
    /// entries, so its view needs no beacon board.
    #[must_use]
    pub fn view(&self) -> NeighborView<'_> {
        self.view_with(&[])
    }

    /// The table's entries, linked ones read from `board` (indexed by node
    /// id).
    #[inline]
    pub(crate) fn view_with<'a>(&'a self, board: &'a [Beacon]) -> NeighborView<'a> {
        NeighborView { table: self, board }
    }

    /// Number of stored (possibly stale) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len() + self.frozen.len()
    }

    /// Returns `true` if the table stores no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty() && self.frozen.is_empty()
    }
}

/// A read-only view of a [`NeighborTable`] together with the beacon board
/// its linked entries read from.
#[derive(Debug, Clone, Copy)]
pub struct NeighborView<'a> {
    table: &'a NeighborTable,
    board: &'a [Beacon],
}

impl<'a> NeighborView<'a> {
    /// Looks up a neighbor, returning `None` if unknown or stale at `now`.
    #[must_use]
    #[inline]
    pub fn get(&self, id: NodeId, now: SimTime) -> Option<NeighborEntry> {
        let t = self.table;
        let beacon = if t.live.binary_search(&id).is_ok() {
            self.board[id.index()]
        } else {
            t.frozen[t.frozen_index(id).ok()?].1
        };
        (now - beacon.heard_at <= t.ttl).then(|| beacon.entry(id))
    }

    /// All entries fresh at `now`, sorted by node id for determinism.
    #[must_use]
    pub fn fresh(&self, now: SimTime) -> Vec<NeighborEntry> {
        let mut v = Vec::new();
        self.fresh_into(now, &mut v);
        v
    }

    /// Like [`NeighborView::fresh`], but clears and fills a caller buffer
    /// instead of allocating.
    pub fn fresh_into(&self, now: SimTime, out: &mut Vec<NeighborEntry>) {
        out.clear();
        out.extend(self.iter_fresh(now));
    }

    /// Iterates over the entries fresh at `now`, in node-id order, without
    /// materializing a `Vec`.
    pub fn iter_fresh(&self, now: SimTime) -> impl Iterator<Item = NeighborEntry> + 'a {
        let (t, board) = (self.table, self.board);
        let (mut l, mut f) = (0, 0);
        std::iter::from_fn(move || {
            // Merge the two sorted id lists.
            let live_first = match (t.live.get(l), t.frozen.get(f)) {
                (None, None) => return None,
                (Some(&a), Some(&(b, _))) => a < b,
                (live, _) => live.is_some(),
            };
            let (id, beacon) = if live_first {
                l += 1;
                (t.live[l - 1], board[t.live[l - 1].index()])
            } else {
                f += 1;
                t.frozen[f - 1]
            };
            Some(beacon.entry(id))
        })
        .filter(move |e| now - e.heard_at <= t.ttl)
    }

    /// Number of stored (possibly stale) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if the table stores no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn beacon(x: f64, residual_energy: f64, secs: u64) -> Beacon {
        Beacon { position: Point2::new(x, 0.0), residual_energy, heard_at: t(secs) }
    }

    #[test]
    fn observe_and_get() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(1), Point2::new(1.0, 2.0), 5.0, t(0));
        let e = nt.view().get(NodeId::new(1), t(1)).unwrap();
        assert_eq!(e.position, Point2::new(1.0, 2.0));
        assert_eq!(e.residual_energy, 5.0);
        assert!(nt.view().get(NodeId::new(2), t(1)).is_none());
    }

    #[test]
    fn refresh_updates_entry() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(1), Point2::new(1.0, 2.0), 5.0, t(0));
        nt.observe(NodeId::new(1), Point2::new(3.0, 4.0), 4.0, t(2));
        let e = nt.view().get(NodeId::new(1), t(4)).unwrap();
        assert_eq!(e.position, Point2::new(3.0, 4.0));
        assert_eq!(e.residual_energy, 4.0);
        assert_eq!(nt.len(), 1);
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(1), Point2::ORIGIN, 1.0, t(0));
        assert!(nt.view().get(NodeId::new(1), t(3)).is_some());
        assert!(nt.view().get(NodeId::new(1), t(4)).is_none());
    }

    #[test]
    fn fresh_is_sorted_and_filtered() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(5), Point2::ORIGIN, 1.0, t(0));
        nt.observe(NodeId::new(2), Point2::ORIGIN, 1.0, t(5));
        nt.observe(NodeId::new(9), Point2::ORIGIN, 1.0, t(5));
        let fresh = nt.view().fresh(t(6));
        let ids: Vec<NodeId> = fresh.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![NodeId::new(2), NodeId::new(9)]);
    }

    #[test]
    fn fresh_into_reuses_buffer_and_matches_fresh() {
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(5), Point2::ORIGIN, 1.0, t(0));
        nt.observe(NodeId::new(2), Point2::ORIGIN, 1.0, t(5));
        let mut buf = vec![NeighborEntry {
            id: NodeId::new(99),
            position: Point2::ORIGIN,
            residual_energy: 0.0,
            heard_at: t(0),
        }];
        nt.view().fresh_into(t(6), &mut buf);
        assert_eq!(buf, nt.view().fresh(t(6)));
        let iterated: Vec<NeighborEntry> = nt.view().iter_fresh(t(6)).collect();
        assert_eq!(iterated, buf);
    }

    #[test]
    fn link_all_fills_an_empty_table_at_exact_capacity() {
        let board = [beacon(0.0, 1.0, 0), beacon(1.0, 2.0, 1), beacon(2.0, 3.0, 1)];
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.link_all(&[0, 2]);
        assert_eq!(nt.live.capacity(), 2);
        let entries = nt.view_with(&board).fresh(t(1));
        let got: Vec<(u32, f64)> = entries.iter().map(|e| (e.id.raw(), e.position.x)).collect();
        assert_eq!(got, [(0, 0.0), (2, 2.0)], "linked entries read the board");
    }

    #[test]
    fn linked_entries_read_the_board_until_frozen() {
        let mut board = vec![beacon(0.0, 1.0, 0); 4];
        let mut nt = NeighborTable::new(SimDuration::from_secs(3));
        nt.observe(NodeId::new(1), Point2::new(9.0, 0.0), 2.0, t(1));
        nt.join(NodeId::new(1));
        nt.join(NodeId::new(3));
        nt.observe(NodeId::new(2), Point2::ORIGIN, 3.0, t(1));
        assert_eq!(nt.len(), 3, "joining drops the frozen copy");
        board[1] = beacon(1.0, 5.0, 2);
        board[3] = beacon(3.0, 6.0, 2);
        let ids = |nt: &NeighborTable, board: &[Beacon]| -> Vec<(u32, f64)> {
            nt.view_with(board).fresh(t(3)).iter().map(|e| (e.id.raw(), e.position.x)).collect()
        };
        assert_eq!(ids(&nt, &board), [(1, 1.0), (2, 0.0), (3, 3.0)], "merged in id order");
        nt.freeze(NodeId::new(3), board[3]);
        board[3] = beacon(3.5, 7.0, 3);
        assert_eq!(nt.view_with(&board).get(NodeId::new(3), t(3)).unwrap().position.x, 3.0);
        nt.freeze_all(&board);
        board[1] = beacon(1.5, 8.0, 3);
        assert_eq!(ids(&nt, &board), [(1, 1.0), (2, 0.0), (3, 3.0)], "death froze the links");
        assert_eq!(nt.len(), 3);
    }
}
