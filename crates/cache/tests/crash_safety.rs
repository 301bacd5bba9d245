//! Crash-safety: a truncated or bit-flipped log entry must be rejected on
//! recovery, after which the kernel is simply re-synthesized and re-cached —
//! corruption costs a cache miss, never a wrong answer.

use std::fs;
use std::path::PathBuf;

use sortsynth_cache::{disk, CacheEntry, KernelCache, KernelQuery};
use sortsynth_isa::IsaMode;
use sortsynth_search::{synthesize, SynthesisConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sskc-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Synthesizes the query's kernel the way the service would.
fn synthesize_entry(query: &KernelQuery) -> CacheEntry {
    let cfg = SynthesisConfig::best(query.machine());
    let result = synthesize(&cfg);
    CacheEntry {
        query: query.clone(),
        program: result.first_program().expect("n=3 kernel exists"),
        minimal_certified: result.minimal_certified,
        search_millis: result.stats.search_time.as_millis() as u64,
        gate_checksum: None,
    }
}

fn corruption_round_trip(tag: &str, corrupt: impl FnOnce(&mut Vec<u8>)) {
    let dir = tmp_dir(tag);
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);

    // Cold synthesis, cached.
    {
        let cache = KernelCache::open(&dir, 8).unwrap();
        let entry = synthesize_entry(&query);
        assert_eq!(entry.program.len(), 11, "paper's n=3 optimal length");
        cache.insert(entry).unwrap();
    }

    // Crash damage.
    let path = disk::log_path(&dir);
    let mut bytes = fs::read(&path).unwrap();
    corrupt(&mut bytes);
    fs::write(&path, &bytes).unwrap();

    // Recovery rejects the damaged entry; the query misses.
    let cache = KernelCache::open(&dir, 8).unwrap();
    assert_eq!(cache.stats().load.loaded, 0);
    assert!(cache.stats().load.rejected_tail);
    assert!(
        cache.get(&query).is_none(),
        "corrupt entry must not be served"
    );

    // The caller's recovery path: re-synthesize, re-insert, hit again —
    // including across another reopen (the repaired log is clean).
    let entry = synthesize_entry(&query);
    cache.insert(entry).unwrap();
    assert_eq!(cache.get(&query).unwrap().program.len(), 11);
    drop(cache);
    let reopened = KernelCache::open(&dir, 8).unwrap();
    assert_eq!(reopened.stats().load.loaded, 1);
    assert!(!reopened.stats().load.rejected_tail);
    let served = reopened.get(&query).unwrap();
    assert!(query.machine().is_correct(&served.program));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_entry_is_rejected_and_resynthesized() {
    corruption_round_trip("trunc", |bytes| {
        let keep = bytes.len() - 7;
        bytes.truncate(keep);
    });
}

#[test]
fn bit_flipped_entry_is_rejected_and_resynthesized() {
    corruption_round_trip("flip", |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    });
}

#[test]
fn overlong_length_field_is_rejected_and_resynthesized() {
    // The entry's payload_len claims one byte more than the file holds:
    // recovery must refuse it before allocating, not read past the end.
    corruption_round_trip("overlong", |bytes| {
        let at = 12 + 8;
        let left = (bytes.len() - at - 12) as u32;
        bytes[at..at + 4].copy_from_slice(&(left + 1).to_le_bytes());
    });
}
