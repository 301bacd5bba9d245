//! Persistent, content-addressed kernel cache.
//!
//! Synthesizing a sorting kernel is expensive (seconds to hours as `n`
//! grows) while the result is tiny (tens of instructions), which makes the
//! synthesis service's workload ideal for a durable cache. This crate
//! provides:
//!
//! * [`KernelQuery`] — the canonical form of a synthesis request, with a
//!   64-bit content [fingerprint](KernelQuery::fingerprint) covering exactly
//!   the inputs that determine the answer (ISA, `n`, scratch count, length
//!   bound, and the non-optimality-preserving search toggles);
//! * [`CacheEntry`] — a solved query with its kernel and provenance;
//! * [`KernelCache`] — a sharded in-memory LRU front over an append-friendly
//!   on-disk log with per-entry checksums, crash-tolerant recovery, and
//!   atomic write-then-rename compaction (see [`disk`] for the format).
//!
//! Every kernel passes the static-verification gate
//! ([`sortsynth_verify::gate`]) before it can enter the cache: inserts,
//! recovery on open, and disk-scan promotions all refuse programs that are
//! malformed for their query's machine or refuted on a 0-1 input. The gate
//! never rejects a correct kernel (the 0-1 check is necessary for
//! correctness on both ISAs), so a cache that only ever held genuine
//! synthesis results behaves identically — the gate exists to stop a
//! corrupted or hand-edited store from serving wrong kernels forever.
//!
//! ```
//! use sortsynth_cache::{CacheEntry, KernelCache, KernelQuery};
//! use sortsynth_isa::{IsaMode, Machine};
//!
//! let cache = KernelCache::in_memory(64);
//! let query = KernelQuery::best(2, 1, IsaMode::Cmov);
//! assert!(cache.get(&query).is_none());
//!
//! let machine = Machine::new(2, 1, IsaMode::Cmov);
//! let program = machine
//!     .parse_program("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1")
//!     .unwrap();
//! cache
//!     .insert(CacheEntry { query: query.clone(), program, minimal_certified: true, search_millis: 5, gate_checksum: None })
//!     .unwrap();
//! assert_eq!(cache.get(&query).unwrap().program.len(), 4);
//! ```

pub mod disk;
mod entry;
mod memory;
mod query;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use sortsynth_obs::names;
use sortsynth_obs::segment::SegmentWriter;

pub use disk::{LoadReport, LOG_FILE, VERSION};
pub use entry::CacheEntry;
pub use memory::ShardedLru;
pub use query::{CutSpec, KernelQuery};
/// FNV-1a 64, the hash behind every query fingerprint (re-exported from
/// the record layer, which checksums with it).
pub use sortsynth_obs::segment::fnv1a;

/// Counters describing cache behaviour since open.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory front.
    pub memory_hits: u64,
    /// Lookups answered by scanning the disk log after a memory miss.
    pub disk_hits: u64,
    /// Lookups answered by neither.
    pub misses: u64,
    /// Entries inserted since open.
    pub insertions: u64,
    /// Entries evicted from the memory front (still on disk).
    pub evictions: u64,
    /// Entries refused by the static-verification gate since open
    /// (rejected inserts plus disk hits that failed re-verification).
    /// Open-time rejections are reported separately in
    /// [`LoadReport::verify_rejected`].
    pub verify_rejected: u64,
    /// Disk-hit promotions that skipped gate re-analysis because the record
    /// round-tripped with a valid gate stamp. Open-time skips are reported
    /// separately in [`LoadReport::verify_skipped`].
    pub verify_skipped: u64,
    /// What recovery found when the store was opened.
    pub load: LoadReport,
}

#[derive(Default)]
struct Counters {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    verify_rejected: AtomicU64,
    verify_skipped: AtomicU64,
}

/// Mirrors one cache counter increment into the process-wide metrics
/// registry (so `sortsynth serve` exposes live cache efficacy without
/// polling [`KernelCache::stats`]).
fn obs_inc(name: &str) {
    names::counter(name).inc();
}

/// Why the static-verification gate refused an entry.
fn gate_error(entry: &CacheEntry) -> Option<String> {
    if !entry.query.is_valid() {
        return Some(format!(
            "query n={} scratch={} out of range",
            entry.query.n, entry.query.scratch
        ));
    }
    sortsynth_verify::gate(&entry.query.machine(), &entry.program)
        .err()
        .map(|e| e.to_string())
}

struct DiskStore {
    dir: PathBuf,
    /// Append handle, serialized so concurrent inserts can't interleave
    /// records. Poison is ignored: loading discards a torn record.
    file: Mutex<SegmentWriter>,
}

/// The kernel cache: LRU front, optional durable log behind it.
pub struct KernelCache {
    lru: ShardedLru,
    store: Option<DiskStore>,
    counters: Counters,
    load: LoadReport,
}

impl KernelCache {
    /// A purely in-memory cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> Self {
        KernelCache {
            lru: ShardedLru::new(capacity),
            store: None,
            counters: Counters::default(),
            load: LoadReport::default(),
        }
    }

    /// Opens (creating if needed) the durable cache in `dir`, recovering
    /// every intact entry into the memory front.
    ///
    /// If recovery rejected a corrupt or torn tail, the log is immediately
    /// compacted (atomic write-then-rename) so the corruption cannot be
    /// consulted again and subsequent appends don't extend a bad tail.
    /// Intact frames whose kernels fail the static-verification gate are
    /// dropped the same way (counted in [`LoadReport::verify_rejected`]).
    pub fn open(dir: impl AsRef<Path>, capacity: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (mut entries, mut load) = disk::load(&dir)?;
        let intact = entries.len();
        // A record whose gate stamp round-trips intact has already passed
        // this gate version for these exact bytes — the frame checksum rules
        // out torn writes and the stamp rules out hand edits, so re-running
        // the analysis would only reproduce the recorded verdict.
        let mut skipped = 0u64;
        entries.retain(|e| {
            if e.gate_stamp_valid() {
                skipped += 1;
                return true;
            }
            gate_error(e).is_none()
        });
        load.verify_rejected = (intact - entries.len()) as u64;
        load.verify_skipped = skipped;
        if skipped > 0 {
            names::counter(names::VERIFY_GATE_SKIPPED_TOTAL).add(skipped);
        }
        if load.rejected_tail || load.verify_rejected > 0 {
            disk::rewrite_atomic(&dir, entries.iter())?;
        }
        let lru = ShardedLru::new(capacity);
        for entry in entries {
            lru.insert(Arc::new(entry));
        }
        let file = disk::open_for_append(&dir)?;
        Ok(KernelCache {
            lru,
            store: Some(DiskStore {
                dir,
                file: Mutex::new(file),
            }),
            counters: Counters::default(),
            load,
        })
    }

    /// Looks up a query: memory front first, then (on miss, for durable
    /// caches whose front may have evicted) a disk scan. Disk hits are
    /// promoted back into the front. Fingerprint collisions are ruled out by
    /// comparing the stored query for equality.
    pub fn get(&self, query: &KernelQuery) -> Option<Arc<CacheEntry>> {
        if let Some(entry) = self.resident(query) {
            return Some(entry);
        }
        if let Some(store) = &self.store {
            // Hold the append lock while scanning so a concurrent insert
            // can't be half-written under the reader.
            let _guard = store.file.lock().unwrap_or_else(PoisonError::into_inner);
            let scan_start = std::time::Instant::now();
            let scanned = disk::load(&store.dir);
            names::histogram(names::CACHE_DISK_PROMOTION_SECONDS)
                .observe_duration(scan_start.elapsed());
            if let Ok((entries, _)) = scanned {
                // Latest write wins: scan from the back.
                if let Some(entry) = entries.into_iter().rev().find(|e| e.query == *query) {
                    // Re-verify before promotion: the log may have been
                    // modified behind the append handle. A record whose gate
                    // stamp still matches its bytes needs no re-analysis.
                    let stamped = entry.gate_stamp_valid();
                    if stamped {
                        self.counters.verify_skipped.fetch_add(1, Ordering::Relaxed);
                        obs_inc(names::VERIFY_GATE_SKIPPED_TOTAL);
                    }
                    if stamped || gate_error(&entry).is_none() {
                        let entry = Arc::new(entry);
                        let evicted_before = self.lru.evictions();
                        self.lru.insert(Arc::clone(&entry));
                        self.note_evictions(evicted_before);
                        self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                        obs_inc(names::CACHE_DISK_HITS_TOTAL);
                        return Some(entry);
                    }
                    self.counters
                        .verify_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    obs_inc(names::CACHE_VERIFY_REJECTED_TOTAL);
                }
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        obs_inc(names::CACHE_MISSES_TOTAL);
        None
    }

    /// Looks up a query in the memory front only, never scanning the disk.
    /// A hit counts as a memory hit; a miss counts nothing, so a re-check
    /// after a [`Self::get`] that already counted the miss counts it once.
    pub fn resident(&self, query: &KernelQuery) -> Option<Arc<CacheEntry>> {
        let entry = self
            .lru
            .get(query.fingerprint())
            .filter(|entry| entry.query == *query)?;
        self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
        obs_inc(names::CACHE_MEMORY_HITS_TOTAL);
        Some(entry)
    }

    /// Publishes LRU evictions that happened since `before` to the metrics
    /// registry (the local total lives in [`ShardedLru`] itself).
    fn note_evictions(&self, before: u64) {
        let evicted = self.lru.evictions() - before;
        if evicted > 0 {
            names::counter(names::CACHE_EVICTIONS_TOTAL).add(evicted);
        }
    }

    /// Inserts an entry: appended to the log (durable caches) and published
    /// to the memory front. The entry is visible to other threads' `get` as
    /// soon as this returns.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] (without touching the log)
    /// when the kernel fails the static-verification gate: malformed for
    /// the query's machine, or refuted by a 0-1 input.
    pub fn insert(&self, mut entry: CacheEntry) -> io::Result<()> {
        // Inserts always run the gate — a caller-provided stamp is never
        // trusted as proof; only this cache stamps what it verified itself.
        if let Some(why) = gate_error(&entry) {
            self.counters
                .verify_rejected
                .fetch_add(1, Ordering::Relaxed);
            obs_inc(names::CACHE_VERIFY_REJECTED_TOTAL);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("kernel refused by verification gate: {why}"),
            ));
        }
        entry.stamp_gate();
        let entry = Arc::new(entry);
        if let Some(store) = &self.store {
            let mut file = store.file.lock().unwrap_or_else(PoisonError::into_inner);
            disk::append(&mut file, &entry)?;
        }
        let evicted_before = self.lru.evictions();
        self.lru.insert(entry);
        self.note_evictions(evicted_before);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        obs_inc(names::CACHE_INSERTIONS_TOTAL);
        Ok(())
    }

    /// Rewrites the log atomically, deduplicating by fingerprint (latest
    /// entry wins). No-op for in-memory caches.
    pub fn compact(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let mut file = store.file.lock().unwrap_or_else(PoisonError::into_inner);
        let (entries, _) = disk::load(&store.dir)?;
        let mut deduped: Vec<CacheEntry> = Vec::new();
        for entry in entries {
            if let Some(slot) = deduped
                .iter_mut()
                .find(|e| e.fingerprint() == entry.fingerprint())
            {
                *slot = entry;
            } else {
                deduped.push(entry);
            }
        }
        disk::rewrite_atomic(&store.dir, deduped.iter())?;
        *file = disk::open_for_append(&store.dir)?;
        Ok(())
    }

    /// Entries resident in the memory front.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the memory front is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Behaviour counters since open.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.lru.evictions(),
            verify_rejected: self.counters.verify_rejected.load(Ordering::Relaxed),
            verify_skipped: self.counters.verify_skipped.load(Ordering::Relaxed),
            load: self.load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::{IsaMode, Machine};

    /// A correct (bubble-network, not minimal) kernel for each `n`, so test
    /// entries pass the verification gate.
    fn entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        let mut blocks = Vec::new();
        for pass in 0..n - 1 {
            for u in 1..n - pass {
                let v = u + 1;
                blocks.push(format!(
                    "mov s1 r{u}; cmp r{u} r{v}; cmovg r{u} r{v}; cmovg r{v} s1"
                ));
            }
        }
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program: machine.parse_program(&blocks.join("; ")).unwrap(),
            minimal_certified: false,
            search_millis: 3,
            gate_checksum: None,
        }
    }

    /// An entry whose kernel does not sort (refuted by the 0-1 gate).
    fn bogus_entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program: machine.parse_program("mov s1 r1; mov r1 r2").unwrap(),
            minimal_certified: false,
            search_millis: 3,
            gate_checksum: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sskc-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_hit_miss_counters() {
        let cache = KernelCache::in_memory(8);
        let e = entry(3);
        assert!(cache.get(&e.query).is_none());
        cache.insert(e.clone()).unwrap();
        assert!(cache.get(&e.query).is_some());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn durable_cache_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let cache = KernelCache::open(&dir, 8).unwrap();
            cache.insert(entry(2)).unwrap();
            cache.insert(entry(3)).unwrap();
        }
        let cache = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(cache.stats().load.loaded, 2);
        assert_eq!(cache.get(&entry(2).query).unwrap().program.len(), 4);
        assert!(cache.get(&entry(3).query).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_refuses_kernels_that_fail_the_gate() {
        let cache = KernelCache::in_memory(8);
        let bogus = bogus_entry(2);
        let err = cache.insert(bogus.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(cache.get(&bogus.query).is_none());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.verify_rejected, 1);
    }

    #[test]
    fn recovery_drops_refuted_entries_and_repairs_the_log() {
        let dir = tmp_dir("gate");
        {
            let cache = KernelCache::open(&dir, 8).unwrap();
            cache.insert(entry(2)).unwrap();
        }
        // Smuggle a refuted kernel past the gate by appending at the disk
        // layer directly (as a corrupted or hand-edited store would).
        {
            let mut file = disk::open_for_append(&dir).unwrap();
            disk::append(&mut file, &bogus_entry(3)).unwrap();
        }
        let cache = KernelCache::open(&dir, 8).unwrap();
        let load = cache.stats().load;
        assert_eq!(load.loaded, 2, "both frames were intact on disk");
        assert_eq!(load.verify_rejected, 1);
        assert!(cache.get(&entry(2).query).is_some());
        assert!(cache.get(&bogus_entry(3).query).is_none());
        drop(cache);
        // The rejected frame was compacted away, so the next open is clean.
        let reopened = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(reopened.stats().load.loaded, 1);
        assert_eq!(reopened.stats().load.verify_rejected, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_entries_still_served_from_disk() {
        let dir = tmp_dir("evict");
        // Capacity 1 → per-shard capacity 1; entries landing in the same
        // shard evict each other, but the log keeps both.
        let cache = KernelCache::open(&dir, 1).unwrap();
        for n in 2..=9u8 {
            cache.insert(entry(n)).unwrap();
        }
        for n in 2..=9u8 {
            assert!(cache.get(&entry(n).query).is_some(), "n = {n}");
        }
        let stats = cache.stats();
        assert_eq!(stats.memory_hits + stats.disk_hits, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_dedups_and_preserves() {
        let dir = tmp_dir("compact");
        let cache = KernelCache::open(&dir, 8).unwrap();
        cache.insert(entry(2)).unwrap();
        cache.insert(entry(3)).unwrap();
        let mut updated = entry(2);
        updated.search_millis = 99;
        cache.insert(updated.clone()).unwrap();
        cache.compact().unwrap();
        // Post-compaction appends still work.
        cache.insert(entry(4)).unwrap();
        drop(cache);
        let reopened = KernelCache::open(&dir, 8).unwrap();
        assert_eq!(reopened.stats().load.loaded, 3);
        assert_eq!(reopened.get(&updated.query).unwrap().search_millis, 99);
        assert!(reopened.get(&entry(4).query).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
