//! The on-disk kernel log, `kernels.sskc`: a [`sortsynth_obs::segment`]
//! record file with magic `SSKCACHE` and version 1. Each record is one
//! entry, tagged with its query fingerprint; the payload is the entry's
//! canonical [`CacheEntry`] JSON.
//!
//! Inserts append a single record, so the common path never rewrites the
//! file. Recovery ([`load`]) keeps the intact prefix: it stops at the first
//! record that is torn, oversized, checksum-mismatched, unparsable, or
//! whose tag disagrees with its payload's fingerprint, and treats the rest
//! as lost. [`rewrite_atomic`] (compaction and corruption repair) replaces
//! the whole file atomically, so readers never observe a half-written
//! store.

use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};

use sortsynth_obs::segment::{self, SegmentWriter};

use crate::entry::CacheEntry;

/// File magic. Eight bytes so the header is naturally aligned.
pub const MAGIC: &[u8; 8] = b"SSKCACHE";
/// Current format version. Bumping it invalidates every existing store.
pub const VERSION: u32 = 1;
/// Name of the log file inside a cache directory.
pub const LOG_FILE: &str = "kernels.sskc";

/// What [`load`] found on disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries recovered intact.
    pub loaded: u64,
    /// Bytes of log discarded as corrupt or torn (0 on a clean load).
    pub lost_bytes: u64,
    /// Whether a corrupt/torn tail (or a bad header) was encountered.
    pub rejected_tail: bool,
    /// Whether the header was missing/foreign/old-version, invalidating the
    /// whole file.
    pub invalidated: bool,
    /// Intact frames refused by the static-verification gate on open
    /// (malformed for their own query's machine, or refuted on a 0-1
    /// input). Set by [`crate::KernelCache::open`], not by [`load`] — the
    /// disk layer only validates framing.
    pub verify_rejected: u64,
    /// Intact frames whose gate stamp round-tripped valid, letting recovery
    /// skip gate re-analysis. Set by [`crate::KernelCache::open`], not by
    /// [`load`].
    pub verify_skipped: u64,
}

/// The log file inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

/// Loads every intact entry from the log in `dir`. Missing file is an empty,
/// clean load. A bad header invalidates the file; a bad entry truncates the
/// logical log at that entry.
pub fn load(dir: &Path) -> io::Result<(Vec<CacheEntry>, LoadReport)> {
    let scan = segment::scan(
        &log_path(dir),
        MAGIC,
        VERSION..=VERSION,
        |_, tag, payload| {
            let entry = CacheEntry::from_payload(payload).ok()?;
            // A record whose fingerprint disagrees with its own payload is as
            // corrupt as a bad checksum.
            (entry.fingerprint() == tag).then_some(entry)
        },
    );
    let scan = match scan {
        Ok(scan) => scan,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return Ok((Vec::new(), LoadReport::default()))
        }
        Err(e) => return Err(e),
    };
    let report = LoadReport {
        loaded: scan.records.len() as u64,
        lost_bytes: scan.lost_bytes,
        rejected_tail: scan.rejected_tail,
        invalidated: scan.version.is_none(),
        ..LoadReport::default()
    };
    Ok((scan.records, report))
}

/// Opens the log for appending, writing a fresh header if the file is new.
pub fn open_for_append(dir: &Path) -> io::Result<SegmentWriter> {
    SegmentWriter::open_append(log_path(dir), MAGIC, VERSION)
}

/// Appends one entry as one record, so a crash can tear at most this
/// entry — which recovery then drops.
pub fn append(log: &mut SegmentWriter, entry: &CacheEntry) -> io::Result<()> {
    log.append(entry.fingerprint(), &entry.to_payload())
}

/// Rewrites the whole log atomically ([`segment::write_atomic`]). Used for
/// compaction and to repair a store whose tail was rejected.
pub fn rewrite_atomic<'a>(
    dir: &Path,
    entries: impl IntoIterator<Item = &'a CacheEntry>,
) -> io::Result<()> {
    let records = entries
        .into_iter()
        .map(|entry| (entry.fingerprint(), entry.to_payload()));
    segment::write_atomic(&log_path(dir), MAGIC, VERSION, records)
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;
    use crate::query::KernelQuery;
    use sortsynth_isa::{IsaMode, Machine};

    fn entry(n: u8) -> CacheEntry {
        let machine = Machine::new(n, 1, IsaMode::Cmov);
        let program = machine.parse_program("mov s1 r1").unwrap();
        CacheEntry {
            query: KernelQuery::best(n, 1, IsaMode::Cmov),
            program,
            minimal_certified: false,
            search_millis: 1,
            gate_checksum: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sskc-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        append(&mut file, &entry(3)).unwrap();
        drop(file);
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(2), entry(3)]);
        assert_eq!(report.loaded, 2);
        assert!(!report.rejected_tail && report.lost_bytes == 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_prefix() {
        let dir = tmp_dir("trunc");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        append(&mut file, &entry(3)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let len = fs::metadata(&path).unwrap().len();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..len as usize - 5]).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(2)]);
        assert!(report.rejected_tail);
        assert!(report.lost_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let dir = tmp_dir("flip");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert!(report.rejected_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates() {
        let dir = tmp_dir("ver");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        let path = log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xFF; // version LSB
        fs::write(&path, &bytes).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert!(entries.is_empty());
        assert!(report.invalidated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_atomic_replaces_contents() {
        let dir = tmp_dir("rw");
        let mut file = open_for_append(&dir).unwrap();
        append(&mut file, &entry(2)).unwrap();
        drop(file);
        rewrite_atomic(&dir, [&entry(3), &entry(4)]).unwrap();
        let (entries, report) = load(&dir).unwrap();
        assert_eq!(entries, vec![entry(3), entry(4)]);
        assert_eq!(report.loaded, 2);
        assert!(!log_path(&dir).with_extension("sskc.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
