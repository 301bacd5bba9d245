//! The sharded in-memory LRU front.
//!
//! Lookups take a shard's read lock only: recency is an `AtomicU64` stamped
//! from a global clock, so concurrent readers never serialize on the hot
//! path. Inserts take the write lock of exactly one shard and evict that
//! shard's least-recently-used slot when full. Eviction is per-shard (and
//! therefore approximate globally), the standard cache trade-off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::entry::CacheEntry;

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Slot>,
}

/// A fixed-capacity, sharded, approximately-LRU map from query fingerprint
/// to cache entry.
pub struct ShardedLru {
    shards: Vec<RwLock<Shard>>,
    clock: AtomicU64,
    evictions: AtomicU64,
    per_shard_cap: usize,
}

/// Number of shards. A power of two so shard selection is a mask; 16 is
/// plenty of write-parallelism for a server's typical number of run slots.
const SHARDS: usize = 16;

impl ShardedLru {
    /// Creates a front holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        ShardedLru {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            clock: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
            per_shard_cap,
        }
    }

    fn shard(&self, fingerprint: u64) -> &RwLock<Shard> {
        // Fingerprints are FNV outputs; fold the high bits in so shard
        // selection doesn't depend only on the low nibble.
        let idx = ((fingerprint >> 32) ^ fingerprint) as usize & (SHARDS - 1);
        &self.shards[idx]
    }

    /// Looks up a fingerprint, stamping recency.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<CacheEntry>> {
        let shard = read(self.shard(fingerprint));
        let slot = shard.map.get(&fingerprint)?;
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(now, Ordering::Relaxed);
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts (or replaces) an entry, evicting the shard's LRU slot if the
    /// shard is full.
    pub fn insert(&self, entry: Arc<CacheEntry>) {
        let fingerprint = entry.fingerprint();
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = write(self.shard(fingerprint));
        if !shard.map.contains_key(&fingerprint) && shard.map.len() >= self.per_shard_cap {
            if let Some((&victim, _)) = shard
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            fingerprint,
            Slot {
                entry,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).map.len()).sum()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Shard locks ignore poison: a shard's map is whole at every unlock.
fn read(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::KernelQuery;
    use sortsynth_isa::{IsaMode, Machine};

    fn entry(n: u8, scratch: u8) -> Arc<CacheEntry> {
        let machine = Machine::new(n, scratch, IsaMode::Cmov);
        Arc::new(CacheEntry {
            query: KernelQuery::best(n, scratch, IsaMode::Cmov),
            program: machine.parse_program("mov s1 r1").unwrap(),
            minimal_certified: false,
            search_millis: 0,
            gate_checksum: None,
        })
    }

    #[test]
    fn get_after_insert() {
        let lru = ShardedLru::new(8);
        let e = entry(3, 1);
        let fp = e.fingerprint();
        assert!(lru.get(fp).is_none());
        lru.insert(Arc::clone(&e));
        assert_eq!(lru.get(fp).as_deref(), Some(&*e));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // Capacity 16 → one slot per shard; two entries in the same shard
        // force an eviction of whichever was touched least recently.
        let lru = ShardedLru::new(1);
        let mut by_shard: HashMap<usize, Vec<Arc<CacheEntry>>> = HashMap::new();
        for n in 2..=9u8 {
            for scratch in 1..=4u8 {
                if n + scratch > 13 {
                    continue;
                }
                let e = entry(n, scratch);
                let idx = ((e.fingerprint() >> 32) ^ e.fingerprint()) as usize & (SHARDS - 1);
                by_shard.entry(idx).or_default().push(e);
            }
        }
        let (_, same_shard) = by_shard
            .into_iter()
            .find(|(_, v)| v.len() >= 2)
            .expect("some shard holds two queries");
        let (a, b) = (&same_shard[0], &same_shard[1]);
        lru.insert(Arc::clone(a));
        lru.insert(Arc::clone(b));
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(a.fingerprint()).is_none(), "older entry evicted");
        assert!(lru.get(b.fingerprint()).is_some());
    }
}
