//! The batch engine's memo maps: each result is stored under a key holding
//! everything it depends on, and computed once per key however many
//! workers ask for it.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use imobif_geom::hash::FxHasher;
use imobif_geom::FxHashMap;

/// Adds one lookup to a memo layer's hit or miss total.
pub(crate) fn count_lookup(missed: bool, hits: &AtomicU64, misses: &AtomicU64) {
    if missed { misses } else { hits }.fetch_add(1, Ordering::Relaxed);
}

/// How many ways each memo map is split. A power of two so the shard pick
/// is a mask; 8 is plenty — the batch engine caps at 16 workers, and two
/// workers only contend when their keys land in the same eighth.
const SHARDS: usize = 8;

/// A memo map sharded [`SHARDS`] ways by key hash, so lookups for different
/// keys almost never touch the same lock.
///
/// Each key maps to a cell that the first worker to miss claims and fills.
/// A worker asking for a key whose value is still being computed waits for
/// it instead of computing it again, so each key misses exactly once (until
/// evicted). Values are pure functions of their keys, so a hit clones the
/// value out of the cell and holds no lock while it computes.
pub(crate) struct ShardedMemo<K, V> {
    shards: [Mutex<FxHashMap<K, Arc<OnceLock<V>>>>; SHARDS],
    /// Entries held across all shards before a full shard is emptied.
    cap: usize,
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        ShardedMemo { shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())), cap }
    }

    fn shard(&self, key: &K) -> &Mutex<FxHashMap<K, Arc<OnceLock<V>>>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Use high bits: FxHasher's low bits are the map's bucket index, so
        // taking them for the shard pick would correlate the two.
        &self.shards[(h.finish() >> 56) as usize & (SHARDS - 1)]
    }

    /// `key`'s value, and whether this call computed it (a miss). The first
    /// caller for a key runs `compute`; callers arriving while it runs wait
    /// for its value and count as hits. A new key that finds its shard at
    /// the shard's slice of the cap empties the shard first.
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let cell = {
            let mut shard = self.shard(&key).lock().expect("memo shard lock");
            match shard.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    if shard.len() >= self.cap.div_ceil(SHARDS) {
                        shard.clear();
                    }
                    Arc::clone(shard.entry(key).or_default())
                }
            }
        };
        let mut missed = false;
        let value = cell
            .get_or_init(|| {
                missed = true;
                compute()
            })
            .clone();
        (value, missed)
    }

    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("memo shard lock").clear();
        }
    }
}
