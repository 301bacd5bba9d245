//! External-memory spill tier: disk-backed open-list spans, closed-set
//! segments with delayed duplicate detection, and a resume journal.
//!
//! Under [`crate::SynthesisConfig::mem_budget_bytes`] a layered run keeps
//! its resident footprint near the budget by moving cold data into
//! checksummed append-only segments ([`sortsynth_obs::segment`], WAL
//! discipline). The round loop ([`crate::layered`]) runs such a run as one
//! worker over one key partition, and the tier hangs off that partition's
//! shard: [`checkpoint`] at seed, [`SpanStream`] fetches in the expand
//! phase, and [`end_of_layer`] at the layer barrier.
//!
//! * **Frontier spans** — once the resident estimate crosses the budget,
//!   freshly interned states keep their metadata and closed-set entry but
//!   their span goes to `frontier-{g}.seg` instead of the arena.
//!   Spans are batched into chunked records of at most [`CHUNK`] spans and
//!   [`RECORD_CAP`] payload bytes, each a run of varint-coded span entries
//!   ([`put_span`]: live indices, one to three bytes each, or rotated
//!   `MachineState`s on machines without a live space) tagged with its
//!   first state id; a record is one buffered push, and the segment is
//!   flushed and synced once, when it is sealed at the layer boundary. The
//!   next layer's expansion streams those spans back in id order (the
//!   append order) through a [`SpanStream`], one record at a time, so one
//!   sequential read covers the whole layer.
//! * **Closed-set segments** — at the end of a layer under budget pressure,
//!   closed-map entries of already-expanded layers are evicted to a sorted
//!   `closed-{g}.seg` of 12-byte `key u64 | id u32` entries. Candidates
//!   interned after that are checked against those segments by **delayed
//!   duplicate detection** (DDD): a sorted merge-join at the end of each
//!   layer deletes the frontier entries that duplicate an evicted state.
//!   Same-layer and next-layer duplicates stay exact through the resident
//!   map, so only older-layer dedup is delayed — which is lossless for
//!   layered search (an older duplicate can never be on a shorter path).
//! * **Journal** — at each layer boundary [`checkpoint`] streams the shard
//!   to `journal.ssj` as tagged records, each encoded only as the atomic
//!   writer consumes it: a header (fingerprint, layer, bound, budget, the
//!   [`ShardStats`] block, §3.5 minima, goals, segment references, and each
//!   section's entry count), then chunked sections — states (edge and
//!   metadata), extra parents, the resident closed map, frontier ids, and
//!   resident frontier spans. A killed search resumes with
//!   [`crate::SynthesisConfig::resume_from`]: [`restore`] checks the
//!   fingerprint, strictly re-verifies every referenced segment, reads the
//!   records into an empty shard, and cross-checks the section counts, so a
//!   torn, cut, or corrupt spill directory is a [`ResumeError`], never
//!   silently replayed.
//!
//! Mid-run spill I/O failures (disk full, permission loss) panic with a
//! clear message, a failed flush or sync when a segment is sealed
//! included: the engine cannot continue correctly without its spilled
//! state, and the journal on disk, which names only sealed and synced
//! segments, remains valid for a later resume.

use std::fmt;
use std::fs;
use std::io;
use std::iter;
use std::path::{Path, PathBuf};
use std::slice::ChunksExact;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sortsynth_obs::names;
use sortsynth_obs::segment::{self, fnv1a, SegmentError, SegmentReader, SegmentWriter};
use sortsynth_obs::Histogram;

use crate::config::SynthesisConfig;
use crate::shard::{parent_idx, parent_ref, Edge, MinPerm, Shard, PARENT_NONE};
use crate::state::Assign;
use crate::stats::ShardStats;

/// Magic for frontier-span segments.
pub(crate) const FRONTIER_MAGIC: &[u8; 8] = b"SSSPILLF";
/// Magic for sorted closed-set segments.
pub(crate) const CLOSED_MAGIC: &[u8; 8] = b"SSSPILLC";
/// Magic for the resume journal.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"SSJOURNL";
/// On-disk format version shared by all three file kinds. Version 5 codes
/// a span element as its live index ([`crate::LiveSpace`]) on machines that
/// have a live space; version 4 coded every element as a register
/// assignment, in chunked varint entries; version 3 streamed the journal as
/// tagged sections with 64-bit closed keys. A directory written by an older
/// build is refused as a bad header, never misparsed.
pub(crate) const SPILL_VERSION: u32 = 5;
/// Journal file name inside the spill directory.
pub(crate) const JOURNAL_NAME: &str = "journal.ssj";
/// Entries per checksummed record: spans per frontier record, and entries
/// per closed-segment record and journal section record.
const CHUNK: usize = 4096;
/// Payload bytes a frontier record stays within, so the pending record is
/// small at any n. A record closes before an entry that would cross the
/// cap; an entry larger than the cap gets a record of its own.
const RECORD_CAP: usize = 64 * 1024;
/// Bytes per closed entry, in closed segments and the journal: key u64 +
/// state id u32.
const CLOSED_ENTRY: usize = 12;
/// Bytes per journal state entry: parent u32, instr u16, g u16, span
/// length u32, perm u32, max_dist u16, goal u8.
const STATE_ENTRY: usize = 19;
/// Bytes per journal extra-parent entry: state id u32, parent u32, instr u16.
const PARENT_ENTRY: usize = 10;

/// Journal record tags: the header, then the sections in stream order.
const TAG_HEADER: u64 = 0;
const TAG_STATES: u64 = 1;
const TAG_PARENTS: u64 = 2;
const TAG_CLOSED: u64 = 3;
const TAG_FRONTIER: u64 = 4;
const TAG_SPANS: u64 = 5;
/// Sections whose entry counts the header carries, indexed by tag − 1.
const SECTIONS: usize = 5;

/// Why resuming a search from a spill directory failed.
#[derive(Debug)]
pub enum ResumeError {
    /// Underlying I/O failure while reading the journal or segments.
    Io(io::Error),
    /// A journal or segment failed its checksum / length verification.
    Segment(SegmentError),
    /// The directory holds no journal checkpoint.
    MissingJournal {
        /// The spill directory that was searched.
        dir: PathBuf,
    },
    /// The journal was written by a run with a different configuration
    /// (machine, strategy, or cuts).
    ConfigMismatch {
        /// Fingerprint of the requesting configuration.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// The journal's records passed their checksums but do not add up: a
    /// journal cut at a record boundary, or an entry naming a state the
    /// journal never declared.
    Malformed {
        /// Which journal section failed to decode.
        what: &'static str,
    },
    /// The requesting configuration cannot be resumed (a non-layered
    /// strategy).
    Unsupported {
        /// Why the configuration is not resumable.
        why: &'static str,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "resume i/o error: {e}"),
            ResumeError::Segment(e) => write!(f, "resume rejected: {e}"),
            ResumeError::MissingJournal { dir } => {
                write!(f, "no resume journal in {}", dir.display())
            }
            ResumeError::ConfigMismatch { expected, found } => write!(
                f,
                "journal belongs to a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            ResumeError::Malformed { what } => {
                write!(f, "malformed resume journal: bad {what}")
            }
            ResumeError::Unsupported { why } => write!(f, "cannot resume: {why}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<io::Error> for ResumeError {
    fn from(e: io::Error) -> Self {
        ResumeError::Io(e)
    }
}

impl From<SegmentError> for ResumeError {
    fn from(e: SegmentError) -> Self {
        ResumeError::Segment(e)
    }
}

/// Fingerprints every configuration knob that changes the search space. A
/// journal only resumes under a fingerprint-identical configuration;
/// budgets, limits, thread counts, and observability knobs are deliberately
/// excluded (resuming under a different memory budget is fine and useful).
pub(crate) fn config_fingerprint(cfg: &SynthesisConfig) -> u64 {
    let m = &cfg.machine;
    let desc = format!(
        "n={} scratch={} mode={:?} strategy={:?} cut={:?} \
         opt_first={} dead_write={} value_flow={} budget_viab={} all={} max_len={:?}",
        m.n(),
        m.scratch(),
        m.mode(),
        cfg.strategy,
        cfg.cut,
        cfg.optimal_instrs_only,
        cfg.dead_write_cut,
        cfg.value_flow_cut,
        cfg.budget_viability,
        cfg.all_solutions,
        cfg.max_len,
    );
    fnv1a(desc.as_bytes())
}

/// A spill directory for a run that set no explicit
/// [`crate::SynthesisConfig::spill_dir`]: unique per process and per tier.
pub(crate) fn default_spill_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sortsynth-spill-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A segment file referenced by the journal: the layer it belongs to (the
/// file is `frontier-{layer}.seg` or `closed-{layer}.seg`) plus the byte
/// length that was fully flushed when the reference was recorded — the
/// strict reader's trust boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegRef {
    pub layer: u32,
    pub valid_len: u64,
}

/// The path of the segment of `layer` with `magic`.
fn seg_path(dir: &Path, magic: &[u8; 8], layer: u32) -> PathBuf {
    let kind = if magic == FRONTIER_MAGIC {
        "frontier"
    } else {
        "closed"
    };
    dir.join(format!("{kind}-{layer}.seg"))
}

/// Opens a referenced segment strictly against its recorded valid length.
fn open_seg(dir: &Path, magic: &[u8; 8], seg: SegRef) -> Result<SegmentReader, SegmentError> {
    let path = seg_path(dir, magic, seg.layer);
    SegmentReader::open_strict(path, magic, SPILL_VERSION, seg.valid_len)
}

/// Appends `v` as a LEB128 varint: seven bits per byte, low group first,
/// the top bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes one varint from the front of `bytes` and advances past it;
/// `None` when it is cut short or does not fit 64 bits.
fn varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

/// Appends the span entry of state `id`, the entry after state `prev`:
/// `varint(id − prev) | varint(len) | len × varint(code)`, where an
/// element's code ([`Assign::code`]) is its live index — one to three
/// bytes — or, on machines without a live space, its packed bits with the
/// flag nibble rotated to the bottom. The one encoder of frontier records and
/// journal section 5; [`SpanEntries`] is its decoder.
fn put_span<A: Assign>(out: &mut Vec<u8>, prev: u32, id: u32, span: &[A]) {
    let delta = id.checked_sub(prev).expect("span entries in id order");
    put_varint(out, delta as u64);
    put_varint(out, span.len() as u64);
    for &a in span {
        put_varint(out, a.code());
    }
}

/// Reads back the span entries [`put_span`] wrote into one record.
struct SpanEntries<'a> {
    rest: &'a [u8],
    /// The id of the entry read last (at first, the delta base).
    prev: u32,
}

impl SpanEntries<'_> {
    /// Decodes the next entry's span into `span` and returns its state id;
    /// `Ok(None)` at the end of the record. An element that is no element
    /// of `space` (a live index past its end) is malformed.
    fn next<A: Assign>(
        &mut self,
        space: &A::Space,
        span: &mut Vec<A>,
    ) -> Result<Option<u32>, ResumeError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let bad = || ResumeError::Malformed { what: "spans" };
        let rest = &mut self.rest;
        let delta = varint(rest).and_then(|d| u32::try_from(d).ok());
        let id = delta
            .and_then(|d| self.prev.checked_add(d))
            .ok_or_else(bad)?;
        // Every assignment takes at least one byte: a length past the
        // record's end is refused before anything is allocated.
        let len = varint(rest).filter(|&len| len <= rest.len() as u64);
        let len = len.ok_or_else(bad)?;
        span.clear();
        span.reserve(len as usize);
        for _ in 0..len {
            let code = varint(rest);
            let a = code.and_then(|c| A::from_code(space, c)).ok_or_else(bad)?;
            span.push(a);
        }
        self.prev = id;
        Ok(Some(id))
    }
}

/// Appends one closed entry: key u64 | id u32.
fn put_closed(out: &mut Vec<u8>, key: u64, id: u32) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
}

/// Decodes one entry [`put_closed`] wrote.
fn closed_of(entry: &[u8]) -> (u64, u32) {
    (le64(&entry[..8]), le32(&entry[8..]))
}

fn le16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().expect("two bytes"))
}

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("four bytes"))
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("eight bytes"))
}

/// The spill tier of a budgeted layered run's one key partition. Its
/// counters live in the owning shard's [`ShardStats`], which every method
/// that moves bytes takes.
pub(crate) struct SpillTier {
    dir: PathBuf,
    /// The resident-estimate budget the shard's spill decision holds.
    pub budget: u64,
    /// Writer for the frontier segment of the layer currently being
    /// generated (`g + 1` while layer `g` expands). Created lazily on the
    /// first spilled span of the layer.
    writer: Option<FrontierWriter>,
    /// Sealed frontier segment holding the spilled spans of the layer now
    /// being expanded; [`SpillTier::frontier_stream`] reads it back.
    cur: Option<SegRef>,
    /// Layers of consumed frontier segments awaiting deletion. A segment
    /// may only be removed once a journal checkpoint that no longer
    /// references it has been durably renamed into place — deleting
    /// earlier opens a crash window where the last durable checkpoint
    /// points at a missing file.
    pending_delete: Vec<u32>,
    /// Closed-set keys of every state first interned in the current layer,
    /// for the end-of-layer DDD merge-join.
    layer_keys: Vec<(u64, u32)>,
    closed_segs: Vec<SegRef>,
    write_hist: Arc<Histogram>,
    read_hist: Arc<Histogram>,
}

impl SpillTier {
    pub fn new(dir: PathBuf, budget: u64) -> io::Result<SpillTier> {
        fs::create_dir_all(&dir)?;
        Ok(SpillTier {
            dir,
            budget,
            writer: None,
            cur: None,
            pending_delete: Vec::new(),
            layer_keys: Vec::new(),
            closed_segs: Vec::new(),
            write_hist: names::histogram(names::SEARCH_SPILL_WRITE_SECONDS),
            read_hist: names::histogram(names::SEARCH_SPILL_READ_SECONDS),
        })
    }

    /// Records a fresh intern (resident or spilled) under its closed-set
    /// key for the end-of-layer DDD pass.
    pub fn note_fresh(&mut self, key: u64, id: u32) {
        self.layer_keys.push((key, id));
    }

    /// Adds state `id`'s assignment span to the frontier segment of
    /// `layer`. Append order matches intern order (dense increasing ids),
    /// which is what the delta coding and the streaming fetch rely on.
    pub fn spill_span<A: Assign>(
        &mut self,
        layer: u32,
        id: u32,
        assigns: &[A],
        stats: &mut ShardStats,
    ) {
        let writer = self.writer.get_or_insert_with(|| {
            let path = seg_path(&self.dir, FRONTIER_MAGIC, layer);
            let seg = SegmentWriter::create(&path, FRONTIER_MAGIC, SPILL_VERSION)
                .unwrap_or_else(|e| panic!("spill tier cannot create {}: {e}", path.display()));
            stats.spill_segments += 1;
            FrontierWriter {
                seg,
                layer,
                payload: Vec::new(),
                first: 0,
                prev: 0,
                spans: 0,
            }
        });
        debug_assert_eq!(writer.layer, layer, "one frontier segment per layer");
        writer.add(id, assigns, stats, &self.write_hist);
        stats.spilled_open += 1;
    }

    /// End-of-layer: the consumed frontier segment is dead (its layer is
    /// fully expanded) and the one under construction is pushed, synced,
    /// and becomes next layer's read target. The dead segment's file is
    /// *not* deleted here: the last durable journal still references it,
    /// so it is queued and only removed after the next checkpoint rename
    /// ([`checkpoint`]).
    pub fn seal_frontier(&mut self, stats: &mut ShardStats) {
        if let Some(old) = self.cur.take() {
            self.pending_delete.push(old.layer);
        }
        if let Some(mut writer) = self.writer.take() {
            writer.push_record(stats, &self.write_hist);
            writer
                .seg
                .sync()
                .unwrap_or_else(|e| panic!("spill tier frontier seal failed: {e}"));
            self.cur = Some(SegRef {
                layer: writer.layer,
                valid_len: writer.seg.bytes(),
            });
        }
    }

    /// A stream over the spilled spans of the layer now being expanded;
    /// `None` when that layer spilled nothing.
    pub fn frontier_stream<A: Assign>(&self) -> Option<SpanStream<A>> {
        self.cur.map(|seg| SpanStream {
            dir: self.dir.clone(),
            seg,
            reader: None,
            record: Vec::new(),
            at: 0,
            prev: 0,
            span: Vec::new(),
            hist: Arc::clone(&self.read_hist),
        })
    }

    /// Delayed duplicate detection over the layer's fresh interns: sorted
    /// merge-join of this layer's keys against every closed segment.
    /// Returns the sorted, deduplicated ids that duplicate an evicted
    /// older-layer state — the engine deletes them from the next frontier.
    pub fn ddd_filter(&mut self, stats: &mut ShardStats) -> Vec<u32> {
        let mut keys = std::mem::take(&mut self.layer_keys);
        if keys.is_empty() || self.closed_segs.is_empty() {
            return Vec::new();
        }
        keys.sort_unstable_by_key(|&(k, _)| k);
        let mut dead: Vec<u32> = Vec::new();
        for &seg in &self.closed_segs {
            let t0 = Instant::now();
            let mut reader = open_seg(&self.dir, CLOSED_MAGIC, seg)
                .unwrap_or_else(|e| panic!("spill tier cannot reopen closed segment: {e}"));
            let mut i = 0usize;
            'seg: while let Some((_, payload)) = reader
                .next()
                .unwrap_or_else(|e| panic!("spill tier closed read failed: {e}"))
            {
                // Only the key of each (key, evicted id) entry is read.
                for entry in payload.chunks_exact(CLOSED_ENTRY) {
                    let (key, _) = closed_of(entry);
                    while i < keys.len() && keys[i].0 < key {
                        i += 1;
                    }
                    if i >= keys.len() {
                        break 'seg;
                    }
                    while i < keys.len() && keys[i].0 == key {
                        dead.push(keys[i].1);
                        i += 1;
                    }
                }
            }
            self.read_hist.observe(t0.elapsed().as_secs_f64());
        }
        dead.sort_unstable();
        dead.dedup();
        stats.ddd_dedup_hits += dead.len() as u64;
        dead
    }

    /// Persists evicted closed-map entries as the sorted segment
    /// `closed-{layer}.seg` (globally sorted across its chunked records).
    pub fn append_closed(
        &mut self,
        layer: u32,
        mut evicted: Vec<(u64, u32)>,
        stats: &mut ShardStats,
    ) {
        if evicted.is_empty() {
            return;
        }
        evicted.sort_unstable_by_key(|&(k, _)| k);
        let path = seg_path(&self.dir, CLOSED_MAGIC, layer);
        let t0 = Instant::now();
        let mut writer = SegmentWriter::create(&path, CLOSED_MAGIC, SPILL_VERSION)
            .unwrap_or_else(|e| panic!("spill tier cannot create {}: {e}", path.display()));
        let mut payload = Vec::with_capacity(CHUNK * CLOSED_ENTRY);
        for chunk in evicted.chunks(CHUNK) {
            payload.clear();
            for &(key, id) in chunk {
                put_closed(&mut payload, key, id);
            }
            writer
                .push(0, &payload)
                .unwrap_or_else(|e| panic!("spill tier closed append failed: {e}"));
        }
        writer
            .sync()
            .unwrap_or_else(|e| panic!("spill tier closed segment sync failed: {e}"));
        self.write_hist.observe(t0.elapsed().as_secs_f64());
        stats.spilled_closed += evicted.len() as u64;
        stats.spilled_bytes += writer.bytes();
        stats.spill_segments += 1;
        self.closed_segs.push(SegRef {
            layer,
            valid_len: writer.bytes(),
        });
    }

    /// Removes the spill directory (end of a completed run that used a
    /// default temp directory).
    pub fn cleanup(&self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// The frontier segment under construction and its pending record: span
/// entries since the last push, coded against the record's first id.
struct FrontierWriter {
    seg: SegmentWriter,
    layer: u32,
    payload: Vec<u8>,
    /// The pending record's tag: the id of its first span.
    first: u32,
    /// The id of the last span added.
    prev: u32,
    /// Spans in the pending record.
    spans: usize,
}

impl FrontierWriter {
    /// Adds one span entry to the pending record, pushing the record first
    /// when the entry would take it past [`RECORD_CAP`], and after when it
    /// holds [`CHUNK`] spans or has reached the cap.
    fn add<A: Assign>(&mut self, id: u32, assigns: &[A], stats: &mut ShardStats, hist: &Histogram) {
        if self.spans == 0 {
            (self.first, self.prev) = (id, id);
        }
        let start = self.payload.len();
        put_span(&mut self.payload, self.prev, id, assigns);
        if self.payload.len() > RECORD_CAP && self.spans > 0 {
            // Re-coded as the first entry of the next record.
            self.payload.truncate(start);
            self.push_record(stats, hist);
            (self.first, self.prev) = (id, id);
            put_span(&mut self.payload, id, id, assigns);
        }
        self.prev = id;
        self.spans += 1;
        if self.spans == CHUNK || self.payload.len() >= RECORD_CAP {
            self.push_record(stats, hist);
        }
    }

    /// Pushes the pending record, if it holds any span, as one buffered
    /// write.
    fn push_record(&mut self, stats: &mut ShardStats, hist: &Histogram) {
        if self.spans == 0 {
            return;
        }
        let t0 = Instant::now();
        let before = self.seg.bytes();
        self.seg
            .push(self.first as u64, &self.payload)
            .unwrap_or_else(|e| panic!("spill tier frontier append failed: {e}"));
        stats.spilled_bytes += self.seg.bytes() - before;
        self.payload.clear();
        self.spans = 0;
        hist.observe(t0.elapsed().as_secs_f64());
    }
}

/// The spilled spans of one frontier, read back from its sealed segment
/// in id order, one record at a time: the segment (opened at the first
/// fetch), the current record's payload, the offset of its next entry, the
/// id of the entry before that one, and the span fetched last.
pub(crate) struct SpanStream<A> {
    dir: PathBuf,
    seg: SegRef,
    reader: Option<SegmentReader>,
    record: Vec<u8>,
    at: usize,
    prev: u32,
    span: Vec<A>,
    hist: Arc<Histogram>,
}

impl<A: Assign> SpanStream<A> {
    /// The spilled span of frontier state `id`. Callers fetch in
    /// increasing id order (the frontier's order), so the read is one
    /// sequential pass per layer; entries whose state was deleted by DDD
    /// are skipped in stride, across record boundaries.
    pub fn fetch(&mut self, space: &A::Space, id: u32) -> &[A] {
        let (dir, seg) = (&self.dir, self.seg);
        let reader = self.reader.get_or_insert_with(|| {
            open_seg(dir, FRONTIER_MAGIC, seg)
                .unwrap_or_else(|e| panic!("spill tier cannot reopen frontier segment: {e}"))
        });
        loop {
            if self.at == self.record.len() {
                let t0 = Instant::now();
                let (tag, payload) = reader
                    .next()
                    .unwrap_or_else(|e| panic!("spill tier frontier read failed: {e}"))
                    .unwrap_or_else(|| panic!("spilled span of state {id} missing from segment"));
                self.hist.observe(t0.elapsed().as_secs_f64());
                // A record's first entry is coded against its tag.
                self.prev = u32::try_from(tag)
                    .unwrap_or_else(|_| panic!("spill tier frontier record tagged {tag}"));
                (self.record, self.at) = (payload, 0);
            }
            let mut entries = SpanEntries {
                rest: &self.record[self.at..],
                prev: self.prev,
            };
            let rid = entries
                .next(space, &mut self.span)
                .unwrap_or_else(|_| {
                    panic!("spill tier frontier record malformed before state {id}")
                })
                .expect("an unread record has an entry");
            self.at = self.record.len() - entries.rest.len();
            self.prev = rid;
            if rid == id {
                return &self.span;
            }
            assert!(
                rid < id,
                "frontier segment out of order: saw {rid} while looking for {id}"
            );
        }
    }
}

/// Encodes `entries` as consecutive `tag` records of at most [`CHUNK`]
/// entries each, lazily: a record's bytes exist only while it is written.
fn chunked<T>(
    tag: u64,
    mut entries: impl Iterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) -> impl Iterator<Item = (u64, Vec<u8>)> {
    iter::from_fn(move || {
        let mut payload = Vec::new();
        for e in entries.by_ref().take(CHUNK) {
            put(&mut payload, e);
        }
        (!payload.is_empty()).then_some((tag, payload))
    })
}

/// Writes the journal checkpoint declaring layer `g`, with `frontier` as
/// its frontier, straight from `shard` through [`segment::write_atomic`];
/// then deletes the consumed segments the new checkpoint no longer
/// references. In that order, a kill at any point leaves the durable
/// journal with every file it names still on disk.
pub(crate) fn checkpoint<A: Assign>(
    shard: &mut Shard<A>,
    cfg: &SynthesisConfig,
    min_perm: &MinPerm,
    g: u32,
    bound: u32,
    frontier: &[u32],
) {
    let tier = shard.spill.as_mut().expect("checkpoint without spill");
    let (arena, edges, goals) = (&shard.arena, &shard.edges, &shard.goals);
    let parents = || {
        let lists = shard.more_parents.iter();
        lists.flat_map(|(&id, ps)| ps.iter().map(move |&(p, a)| (id, p, a)))
    };
    let resident = || frontier.iter().copied().filter(|&id| arena.has_span(id));
    let min_perm = min_perm.to_vec();
    // The header is u64 LE words: scalars, counters, the section counts and
    // list lengths, then the lists (minima, goals, segment references).
    let counts = [
        edges.len(),
        parents().count(),
        arena.closed_len(),
        frontier.len(),
        resident().count(),
        min_perm.len(),
        goals.len(),
        tier.cur.iter().len(),
        tier.closed_segs.len(),
    ];
    let segs = tier.cur.iter().chain(&tier.closed_segs);
    let mut words = vec![config_fingerprint(cfg), g as u64, bound as u64, tier.budget];
    words.extend(shard.counters.to_array());
    words.extend(counts.map(|c| c as u64));
    words.extend(min_perm.iter().chain(goals.iter()).map(|&v| v as u64));
    words.extend(segs.flat_map(|s| [s.layer as u64, s.valid_len]));
    let header: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();

    let states = chunked(TAG_STATES, edges.iter().enumerate(), |out, (id, e)| {
        let (m, g) = (arena.meta(id as u32), u16::try_from(e.g));
        out.extend_from_slice(&parent_idx(e.parent).to_le_bytes());
        out.extend_from_slice(&e.instr.to_le_bytes());
        out.extend_from_slice(&g.expect("program lengths fit u16").to_le_bytes());
        out.extend_from_slice(&m.assign_count().to_le_bytes());
        out.extend_from_slice(&m.perm.to_le_bytes());
        out.extend_from_slice(&m.max_dist.to_le_bytes());
        out.push(m.goal as u8);
    });
    let extra = chunked(TAG_PARENTS, parents(), |out, (id, p, a)| {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&a.to_le_bytes());
    });
    let closed = chunked(TAG_CLOSED, arena.closed(), |out, (k, id)| {
        put_closed(out, k, id)
    });
    let ids = chunked(TAG_FRONTIER, frontier.iter(), |out, id| {
        out.extend_from_slice(&id.to_le_bytes())
    });
    // Span entries are delta-coded across the whole section, from id 0.
    let mut prev = 0;
    let spans = chunked(TAG_SPANS, resident(), move |out, id| {
        put_span(out, prev, id, arena.assignments(id));
        prev = id;
    });
    let records = iter::once((TAG_HEADER, header))
        .chain(states)
        .chain(extra)
        .chain(closed)
        .chain(ids)
        .chain(spans);
    let path = tier.dir.join(JOURNAL_NAME);
    segment::write_atomic(&path, JOURNAL_MAGIC, SPILL_VERSION, records)
        .unwrap_or_else(|e| panic!("spill tier journal checkpoint failed: {e}"));
    for layer in tier.pending_delete.drain(..) {
        let _ = fs::remove_file(seg_path(&tier.dir, FRONTIER_MAGIC, layer));
    }
}

/// The tier's layer barrier, once layer `g` is merged: seals the frontier
/// segment under construction, runs delayed duplicate detection over the
/// layer's fresh interns (deleting duplicates of evicted states from
/// `next`), evicts already-expanded closed entries under budget pressure,
/// compacts the arena's span store down to the surviving frontier, and
/// writes the journal checkpoint for layer `g + 1`. `next` is that layer's
/// frontier, in ascending id order.
pub(crate) fn end_of_layer<A: Assign>(
    shard: &mut Shard<A>,
    cfg: &SynthesisConfig,
    min_perm: &MinPerm,
    g: u32,
    bound: u32,
    next: &mut Vec<u32>,
) {
    debug_assert!(next.windows(2).all(|w| w[0] < w[1]), "frontier id order");
    let tier = shard.spill.as_mut().expect("end_of_layer without spill");
    tier.seal_frontier(&mut shard.counters);
    let dead = tier.ddd_filter(&mut shard.counters);
    if !dead.is_empty() {
        next.retain(|id| dead.binary_search(id).is_err());
    }
    let budget = tier.budget;
    if shard.resident_bytes() > budget {
        let evicted = shard
            .arena
            .evict_closed(|id| next.binary_search(&id).is_ok());
        let tier = shard.spill.as_mut().expect("spill tier");
        tier.append_closed(g, evicted, &mut shard.counters);
    }
    shard.arena.compact_spans(next);
    checkpoint(shard, cfg, min_perm, g + 1, bound, next);
}

/// What [`restore`] hands back: the layer to re-run, its frontier, and the
/// length bound at the checkpoint.
pub(crate) struct Resumed {
    pub g: u32,
    pub bound: u32,
    pub frontier: Vec<u32>,
}

/// The fixed-stride entries of a section record, counted into `seen`.
fn fixed<'a>(
    payload: &'a [u8],
    stride: usize,
    seen: &mut u64,
) -> Result<ChunksExact<'a, u8>, ResumeError> {
    if !payload.len().is_multiple_of(stride) {
        return Err(ResumeError::Malformed { what: "section" });
    }
    *seen += (payload.len() / stride) as u64;
    Ok(payload.chunks_exact(stride))
}

/// Restores the checkpoint in `dir` into the empty `shard` and `min_perm`.
/// The journal is read strictly: its header's fingerprint must match
/// `cfg`, every segment it references is verified end to end before any
/// section is trusted, and every resident span element must be an element
/// of `space`. The checkpointed layer re-runs from its start —
/// the journal was written before the layer began, so a mid-layer crash
/// loses at most one layer's work, and a partially written next-layer
/// frontier segment is truncated when its writer is recreated.
pub(crate) fn restore<A: Assign>(
    dir: &Path,
    cfg: &SynthesisConfig,
    space: &A::Space,
    shard: &mut Shard<A>,
    min_perm: &MinPerm,
) -> Result<Resumed, ResumeError> {
    let path = dir.join(JOURNAL_NAME);
    if !path.exists() {
        return Err(ResumeError::MissingJournal {
            dir: dir.to_path_buf(),
        });
    }
    let bad = |what| ResumeError::Malformed { what };
    let actions = cfg.machine.actions().len();
    let instr = |b: &[u8]| Some(le16(b)).filter(|&a| (a as usize) < actions);
    let len = fs::metadata(&path)?.len();
    let mut reader = SegmentReader::open_strict(&path, JOURNAL_MAGIC, SPILL_VERSION, len)?;
    let header = match reader.next()? {
        Some((TAG_HEADER, payload)) if payload.len().is_multiple_of(8) => payload,
        _ => return Err(bad("header")),
    };
    let mut words = header.chunks_exact(8).map(le64);
    let mut next = || words.next().ok_or(bad("header"));
    let expected = config_fingerprint(cfg);
    let found = next()?;
    if found != expected {
        return Err(ResumeError::ConfigMismatch { expected, found });
    }
    let (g, bound, budget) = (next()? as u32, next()? as u32, next()?);
    let mut counters = [0; ShardStats::LEN];
    let mut counts = [0; SECTIONS];
    for c in counters.iter_mut().chain(&mut counts) {
        *c = next()?;
    }
    let [perms, goals, cur_segs, closed_segs] = [next()?, next()?, next()?, next()?];
    if cur_segs > 1 {
        return Err(bad("header"));
    }
    let mut list = |n: u64| (0..n).map(|_| next()).collect::<Result<Vec<u64>, _>>();
    let perms: Vec<u32> = list(perms)?.into_iter().map(|v| v as u32).collect();
    let goals = list(goals)?;
    let refs = list(closed_segs.saturating_add(cur_segs).saturating_mul(2))?;
    if words.next().is_some() {
        return Err(bad("header"));
    }
    let mut segs: Vec<SegRef> = refs
        .chunks_exact(2)
        .map(|r| SegRef {
            layer: r[0] as u32,
            valid_len: r[1],
        })
        .collect();
    let cur = (cur_segs == 1).then(|| segs.remove(0));
    let referenced = cur.iter().map(|&s| (FRONTIER_MAGIC, s));
    for (magic, seg) in referenced.chain(segs.iter().map(|&s| (CLOSED_MAGIC, s))) {
        let mut seg = open_seg(dir, magic, seg)?;
        while seg.next()?.is_some() {}
    }

    let mut seen = [0u64; SECTIONS];
    let mut frontier = Vec::new();
    let (mut span, mut span_prev) = (Vec::new(), 0);
    while let Some((tag, payload)) = reader.next()? {
        let states = shard.edges.len() as u32;
        let known = |id: u32| (id < states).then_some(id).ok_or(bad("state id"));
        let seen = seen
            .get_mut((tag as usize).wrapping_sub(1))
            .ok_or(bad("record tag"))?;
        match tag {
            TAG_STATES => {
                for e in fixed(&payload, STATE_ENTRY, seen)? {
                    // A parent is interned before its child.
                    let parent = match le32(&e[..4]) {
                        u32::MAX => PARENT_NONE,
                        p if (p as usize) < shard.edges.len() => parent_ref(0, p),
                        _ => return Err(bad("parent")),
                    };
                    let instr = instr(&e[4..6]).ok_or(bad("instr"))?;
                    let g = le16(&e[6..8]) as u32;
                    shard.edges.push(Edge { parent, g, instr });
                    let (len, perm) = (le32(&e[8..12]), le32(&e[12..16]));
                    let (max_dist, goal) = (le16(&e[16..18]), e[18] != 0);
                    shard.arena.restore_meta(len, perm, max_dist, goal);
                }
            }
            TAG_PARENTS => {
                for e in fixed(&payload, PARENT_ENTRY, seen)? {
                    let id = known(le32(&e[..4]))?;
                    let parent = (known(le32(&e[4..8]))?, instr(&e[8..]).ok_or(bad("instr"))?);
                    shard.more_parents.entry(id).or_default().push(parent);
                }
            }
            TAG_CLOSED => {
                for e in fixed(&payload, CLOSED_ENTRY, seen)? {
                    let (key, id) = closed_of(e);
                    shard.arena.restore_closed(key, known(id)?);
                }
            }
            TAG_FRONTIER => {
                // Expansion streams spilled spans in increasing id order.
                for e in fixed(&payload, 4, seen)? {
                    let id = known(le32(e))?;
                    if frontier.last().is_some_and(|&last| last >= id) {
                        return Err(bad("frontier order"));
                    }
                    frontier.push(id);
                }
            }
            TAG_SPANS => {
                let mut entries = SpanEntries {
                    rest: &payload,
                    prev: span_prev,
                };
                while let Some(id) = entries.next(space, &mut span)? {
                    let id = known(id)?;
                    if span.len() != shard.arena.meta(id).assign_count() as usize {
                        return Err(bad("spans"));
                    }
                    shard.arena.restore_span(id, span.drain(..));
                    *seen += 1;
                }
                span_prev = entries.prev;
            }
            _ => unreachable!("every section tag has a count slot"),
        }
    }
    if seen != counts {
        return Err(bad("section counts"));
    }
    if goals.iter().any(|&id| id >= shard.edges.len() as u64) {
        return Err(bad("goals"));
    }
    let mut tier = SpillTier::new(dir.to_path_buf(), cfg.mem_budget_bytes.unwrap_or(budget))?;
    (tier.cur, tier.closed_segs) = (cur, segs);
    min_perm.restore(&perms);
    shard.goals = goals.into_iter().map(|id| id as u32).collect();
    shard.counters = ShardStats::from_array(counters);
    shard.spill = Some(tier);
    Ok(Resumed { g, bound, frontier })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop, prop_assert, prop_assert_eq, proptest};
    use proptest::Strategy as _;
    use sortsynth_isa::{factorial, IsaMode, Machine, MachineState};

    use crate::live::LiveSpace;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssspill-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> SynthesisConfig {
        SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov)).max_len(11)
    }

    /// A shard holding `states` root-level states whose spans live on disk,
    /// with `tier` attached.
    fn spilled_shard<A: Assign>(cfg: &SynthesisConfig, tier: SpillTier, states: u32) -> Shard<A> {
        let mut shard = Shard::new(cfg, 0, 0);
        for id in 0..states {
            shard.arena.insert_spilled(1000 + id as u64, 1, 1, 0, false);
            shard.edges.push(Edge {
                parent: PARENT_NONE,
                g: 0,
                instr: 0,
            });
        }
        shard.spill = Some(tier);
        shard
    }

    fn restore_into_empty<A: Assign>(
        dir: &Path,
        cfg: &SynthesisConfig,
        space: &A::Space,
    ) -> Result<Resumed, ResumeError> {
        restore(
            dir,
            cfg,
            space,
            &mut Shard::<A>::new(cfg, 0, 0),
            &MinPerm::new(),
        )
    }

    /// The live space of `cfg`'s machine.
    fn live(cfg: &SynthesisConfig) -> LiveSpace {
        LiveSpace::build(&cfg.machine).expect("the machine has a live space")
    }

    /// The assignment spans `tier` spilled into the layer now being
    /// expanded.
    fn stream(tier: &SpillTier) -> SpanStream<MachineState> {
        tier.frontier_stream().expect("a sealed frontier segment")
    }

    /// Byte offset of the last record in a segment file.
    fn last_record_start(bytes: &[u8]) -> usize {
        let (mut at, mut last) = (12, 12);
        while at < bytes.len() {
            last = at;
            at += 20 + le32(&bytes[at + 8..at + 12]) as usize;
        }
        last
    }

    #[test]
    fn checkpoint_round_trips_into_an_empty_shard() {
        let dir = tmp("roundtrip");
        let cfg = cfg().all_solutions(true);
        let mut shard = Shard::new(&cfg, 0, 0);
        let mut tier = SpillTier::new(dir.clone(), 1 << 20).unwrap();
        // A root, a resident frontier state, and a spilled goal state.
        // Live indices below the n = 3 cmp/cmov space's 180 where they are
        // restored: the resident spans.
        let spans: [Vec<u16>; 3] = [vec![17], vec![3, 170], vec![20_000]];
        for (id, span) in (0u32..).zip(&spans) {
            let (key, len, goal) = (0x100 + id as u64, span.len() as u32, id == 2);
            if goal {
                shard.arena.insert_spilled(key, len, len + 3, 7, goal);
                tier.spill_span(1, id, span, &mut shard.counters);
            } else {
                shard.arena.insert_new(key, span, len + 3, 7, goal);
            }
            shard.edges.push(Edge {
                parent: if id == 0 {
                    PARENT_NONE
                } else {
                    parent_ref(0, 0)
                },
                g: id.min(1),
                instr: id as u16 + 4,
            });
        }
        tier.seal_frontier(&mut shard.counters);
        tier.append_closed(0, vec![(0x42, 0)], &mut shard.counters);
        shard.more_parents.insert(2, vec![(0, 5), (1, 6)]);
        shard.more_parents.insert(1, vec![(0, 9)]);
        shard.goals = vec![2];
        // Every counter distinct, so a swapped or dropped one shows.
        shard.counters = ShardStats::from_array(std::array::from_fn(|i| 10 + i as u64));
        shard.spill = Some(tier);
        let min_perm = MinPerm::new();
        min_perm.note(0, 6);
        min_perm.note(1, 4);
        min_perm.note(3, 2);
        let frontier = [1, 2];
        checkpoint(&mut shard, &cfg, &min_perm, 1, 9, &frontier);

        let mut restored = Shard::new(&cfg, 0, 0);
        let restored_perm = MinPerm::new();
        let resumed = restore(&dir, &cfg, &live(&cfg), &mut restored, &restored_perm).unwrap();
        assert_eq!((resumed.g, resumed.bound), (1, 9));
        assert_eq!(resumed.frontier, frontier);
        assert_eq!(restored.edges, shard.edges);
        assert_eq!(restored.more_parents, shard.more_parents);
        assert_eq!(restored.goals, shard.goals);
        let metas = |s: &Shard<u16>| {
            (0..s.arena.len() as u32)
                .map(|id| {
                    let m = s.arena.meta(id);
                    (m.assign_count(), m.perm, m.max_dist, m.goal)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(metas(&restored), metas(&shard));
        let closed = |s: &Shard<u16>| {
            let mut entries: Vec<_> = s.arena.closed().collect();
            entries.sort_unstable();
            entries
        };
        assert_eq!(closed(&restored), closed(&shard));
        let spans_of = |s: &Shard<u16>| {
            (0..s.arena.len() as u32)
                .map(|id| {
                    s.arena
                        .has_span(id)
                        .then(|| s.arena.assignments(id).to_vec())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            spans_of(&restored),
            [None, Some(spans[1].clone()), None],
            "only the resident frontier span is restored"
        );
        assert_eq!(restored_perm.to_vec(), min_perm.to_vec());
        assert_eq!(restored.counters, shard.counters);
        let (a, b) = (restored.spill.unwrap(), shard.spill.as_ref().unwrap());
        assert_eq!(
            (a.cur, &a.closed_segs, a.budget),
            (b.cur, &b.closed_segs, b.budget)
        );

        // A journal cut after its last complete record passes every
        // checksum, and the section counts refuse it.
        let path = dir.join(JOURNAL_NAME);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..last_record_start(&bytes)]).unwrap();
        assert!(matches!(
            restore_into_empty::<u16>(&dir, &cfg, &live(&cfg)),
            Err(ResumeError::Malformed { .. })
        ));
        b.cleanup();
    }

    #[test]
    fn spill_round_trip_and_ddd() {
        let dir = tmp("tier");
        let mut stats = ShardStats::default();
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        let a = [
            MachineState::from_values(&[1, 2, 3]),
            MachineState::from_values(&[3, 2, 1]),
        ];
        let b = [MachineState::from_values(&[2, 1, 3])];
        tier.spill_span(1, 5, &a, &mut stats);
        tier.spill_span(1, 7, &b, &mut stats);
        tier.note_fresh(100, 5);
        tier.note_fresh(200, 7);
        tier.seal_frontier(&mut stats);
        assert_eq!(stats.spilled_open, 2);
        // DDD against a closed segment holding key 200 kills id 7.
        tier.append_closed(0, vec![(200, 2), (150, 1)], &mut stats);
        let dead = tier.ddd_filter(&mut stats);
        assert_eq!(dead, vec![7]);
        assert_eq!(stats.ddd_dedup_hits, 1);
        // Streamed fetch skips the dead record in stride.
        assert_eq!(stream(&tier).fetch(&cfg().machine, 5), &a[..]);
        // Journal round trip through the tier.
        let cfg = cfg();
        let mut shard = spilled_shard::<MachineState>(&cfg, tier, 8);
        shard.counters = stats;
        checkpoint(&mut shard, &cfg, &MinPerm::new(), 1, 11, &[5]);
        let loaded = restore_into_empty::<MachineState>(&dir, &cfg, &cfg.machine).unwrap();
        assert_eq!(loaded.frontier, vec![5]);
        assert!(matches!(
            restore_into_empty::<MachineState>(&dir, &cfg.clone().max_len(10), &cfg.machine),
            Err(ResumeError::ConfigMismatch { .. })
        ));
        // A torn byte inside a referenced segment is detected, not replayed.
        let seg_path = dir.join("frontier-1.seg");
        let mut bytes = fs::read(&seg_path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&seg_path, &bytes).unwrap();
        let err = restore_into_empty::<MachineState>(&dir, &cfg, &cfg.machine)
            .err()
            .unwrap();
        assert!(err.to_string().contains("checksum"), "{err}");
        shard.spill.unwrap().cleanup();
    }

    /// A random assignment of an `n`-input machine with one scratch
    /// register, its `lt`/`gt` flag bits set at random.
    fn arb_assignment(n: usize) -> impl proptest::Strategy<Value = MachineState> {
        let values = prop::collection::vec(0..=n as u8, n + 1);
        (values, any::<bool>(), any::<bool>()).prop_map(|(values, lt, gt)| {
            let mut a = MachineState::from_values(&values);
            a.set_flags(lt, gt);
            a
        })
    }

    /// Spans of an `n`-input machine: an id delta and 1..=n! assignments.
    fn arb_spans() -> impl proptest::Strategy<Value = Vec<(u32, Vec<MachineState>)>> {
        (2usize..=5).prop_flat_map(|n| {
            let span = prop::collection::vec(arb_assignment(n), 1..=factorial(n as u8) as usize);
            prop::collection::vec((0u32..5000, span), 1..12)
        })
    }

    proptest! {
        /// Span entries decode to exactly the spans and ids encoded, flag
        /// bits included, from any delta base; a record cut by one byte is
        /// malformed, never a shorter valid record.
        #[test]
        fn span_entries_round_trip(spans in arb_spans(), base in 0u32..1 << 24) {
            let (mut out, mut prev, mut ids) = (Vec::new(), base, Vec::new());
            for (delta, span) in &spans {
                put_span(&mut out, prev, prev + delta, span);
                prev += delta;
                ids.push(prev);
            }
            let machine = cfg().machine;
            let mut entries = SpanEntries { rest: &out, prev: base };
            let mut span: Vec<MachineState> = Vec::new();
            for (&id, (_, expected)) in ids.iter().zip(&spans) {
                prop_assert_eq!(entries.next(&machine, &mut span).unwrap(), Some(id));
                prop_assert_eq!(&span, expected);
            }
            prop_assert!(entries.next(&machine, &mut span).unwrap().is_none());
            let mut cut = SpanEntries { rest: &out[..out.len() - 1], prev: base };
            let decoded = iter::from_fn(|| cut.next(&machine, &mut span).transpose()).last();
            prop_assert!(matches!(decoded, Some(Err(ResumeError::Malformed { .. }))));
        }
    }

    /// Live assignments of the n = 6 min/max machine: enough that the
    /// largest indices take three varint bytes.
    const LIVE6: u16 = 20_160;

    /// The n = 6 min/max live space, built once per test binary.
    fn live6() -> &'static LiveSpace {
        static SPACE: std::sync::OnceLock<LiveSpace> = std::sync::OnceLock::new();
        SPACE.get_or_init(|| {
            let space = LiveSpace::build(&Machine::new(6, 1, IsaMode::MinMax)).expect("live space");
            assert_eq!(space.len(), LIVE6 as usize);
            space
        })
    }

    proptest! {
        /// Live-index span entries round-trip too, and a code that is no
        /// live index of the space (past its end, `NONE`, or wider than 16
        /// bits) is malformed.
        #[test]
        fn live_span_entries_round_trip(
            spans in prop::collection::vec(
                (0u32..5000, prop::collection::vec(0u16..LIVE6, 1..200)),
                1..12,
            ),
            bad in 0usize..4,
        ) {
            let space = live6();
            let (mut out, mut prev, mut ids) = (Vec::new(), 0u32, Vec::new());
            for (delta, span) in &spans {
                put_span(&mut out, prev, prev + delta, span);
                prev += delta;
                ids.push(prev);
            }
            let mut entries = SpanEntries { rest: &out, prev: 0 };
            let mut span: Vec<u16> = Vec::new();
            for (&id, (_, expected)) in ids.iter().zip(&spans) {
                prop_assert_eq!(entries.next(space, &mut span).unwrap(), Some(id));
                prop_assert_eq!(&span, expected);
            }
            let mut wrong = Vec::new();
            put_varint(&mut wrong, 0);
            put_varint(&mut wrong, 1);
            let code = [LIVE6 as u64, u16::MAX as u64, 1 << 16, u64::MAX][bad];
            put_varint(&mut wrong, code);
            let mut entries = SpanEntries { rest: &wrong, prev: 0 };
            prop_assert!(matches!(
                entries.next(space, &mut span),
                Err(ResumeError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn varints_round_trip_and_refuse_overflow() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut rest = &out[..];
            assert_eq!((varint(&mut rest), rest.len()), (Some(v), 0), "{v:#x}");
        }
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(varint(&mut &max[..]), Some(u64::MAX));
        // A tenth byte above 1 sets bits past 63; an eleventh never ends.
        max[9] = 0x02;
        assert_eq!(varint(&mut &max[..]), None);
        assert_eq!(varint(&mut &[0xff; 11][..]), None);
        assert_eq!(varint(&mut &[0x80][..]), None, "cut short");
    }

    /// Each record of the sealed frontier segment: its tag, the ids of
    /// its spans, and its payload length.
    fn frontier_records(tier: &SpillTier, machine: &Machine) -> Vec<(u64, Vec<u32>, usize)> {
        let seg = tier.cur.expect("a sealed frontier segment");
        let mut reader = open_seg(&tier.dir, FRONTIER_MAGIC, seg).unwrap();
        let (mut records, mut span) = (Vec::new(), Vec::<MachineState>::new());
        while let Some((tag, payload)) = reader.next().unwrap() {
            let mut entries = SpanEntries {
                rest: &payload,
                prev: tag as u32,
            };
            let ids = iter::from_fn(|| entries.next(machine, &mut span).unwrap()).collect();
            records.push((tag, ids, payload.len()));
        }
        records
    }

    /// A one-assignment span that differs with `id`.
    fn small_span(id: u32) -> [MachineState; 1] {
        [MachineState::from_values(&[1 + (id % 3) as u8, 2, 3, 0])]
    }

    #[test]
    fn frontier_records_split_at_the_span_and_byte_caps() {
        let dir = tmp("caps");
        let mut stats = ShardStats::default();
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        // Small spans: the span cap closes the first record.
        let small = CHUNK as u32 + 904;
        for id in 0..small {
            tier.spill_span(1, id, &small_span(id), &mut stats);
        }
        tier.seal_frontier(&mut stats);
        let machine = cfg().machine;
        let records = frontier_records(&tier, &machine);
        let counts: Vec<_> = records.iter().map(|(t, ids, _)| (*t, ids.len())).collect();
        assert_eq!(counts, [(0, CHUNK), (CHUNK as u64, 904)]);
        let mut spans = stream(&tier);
        for id in 0..small {
            assert_eq!(spans.fetch(&machine, id), small_span(id));
        }

        // Wide spans of 10-byte assignments, 10 003 bytes an entry: six fit
        // under the byte cap and a seventh would not. A span wider than the
        // cap gets a record of its own, and the span after it a new one.
        let wide = |id: u32, len: u64| -> Vec<MachineState> {
            (0..len)
                .map(|i| MachineState::from_bits(u64::MAX - i - id as u64))
                .collect()
        };
        let lens: Vec<u64> = iter::repeat_n(1000, 20).chain([7000, 1]).collect();
        let first = small;
        for (id, &len) in (first..).zip(&lens) {
            tier.spill_span(2, id, &wide(id, len), &mut stats);
        }
        tier.seal_frontier(&mut stats);
        let records = frontier_records(&tier, &machine);
        let spans: Vec<_> = records.iter().map(|(_, ids, _)| ids.len()).collect();
        assert_eq!(spans, [6, 6, 6, 2, 1, 1]);
        for (tag, ids, len) in &records {
            assert_eq!(*tag, ids[0] as u64, "a record is tagged with its first id");
            assert!(*len <= RECORD_CAP || ids.len() == 1, "{len} bytes");
        }
        let mut spans = stream(&tier);
        for (id, &len) in (first..).zip(&lens) {
            assert_eq!(spans.fetch(&machine, id), wide(id, len));
        }
        assert_eq!(stats.spilled_open, small as u64 + lens.len() as u64);
        assert_eq!(stats.spill_segments, 2);
        tier.cleanup();
    }

    #[test]
    fn fetch_skips_ddd_deleted_ids_on_both_sides_of_a_record_boundary() {
        let dir = tmp("boundary");
        let mut stats = ShardStats::default();
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        let states = CHUNK as u32 + 100;
        for id in 0..states {
            tier.spill_span(1, id, &small_span(id), &mut stats);
            tier.note_fresh(1 << 32 | id as u64, id);
        }
        tier.seal_frontier(&mut stats);
        // The last two ids of the first record and the first two of the
        // second duplicate evicted states.
        let b = CHUNK as u32;
        let deleted = [b - 2, b - 1, b, b + 1];
        let evicted = deleted.iter().map(|&id| (1 << 32 | id as u64, 0)).collect();
        tier.append_closed(0, evicted, &mut stats);
        assert_eq!(tier.ddd_filter(&mut stats), deleted);
        let (machine, mut spans) = (cfg().machine, stream(&tier));
        for id in (0..states).filter(|id| !deleted.contains(id)) {
            assert_eq!(spans.fetch(&machine, id), small_span(id), "state {id}");
        }
        tier.cleanup();
    }

    #[test]
    fn consumed_segment_outlives_the_checkpoint_that_drops_it() {
        // A consumed frontier segment may only be deleted after the next
        // journal rename: a SIGKILL between seal and rename must leave the
        // durable journal with every file it references still on disk.
        let dir = tmp("gc");
        let mut stats = ShardStats::default();
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        tier.spill_span(1, 0, &[MachineState::from_values(&[1, 2])], &mut stats);
        tier.seal_frontier(&mut stats); // layer-1 segment becomes the read target
        let first = dir.join("frontier-1.seg");
        tier.spill_span(2, 1, &[MachineState::from_values(&[2, 1])], &mut stats);
        tier.seal_frontier(&mut stats); // layer 1 consumed — must NOT delete yet
        assert!(
            first.exists(),
            "consumed segment deleted before the checkpoint rename"
        );
        let cfg = cfg();
        let mut shard = spilled_shard::<MachineState>(&cfg, tier, 2);
        shard.counters = stats;
        checkpoint(&mut shard, &cfg, &MinPerm::new(), 2, 11, &[1]);
        assert!(
            !first.exists(),
            "checkpoint rename must gc consumed segments"
        );
        restore_into_empty::<MachineState>(&dir, &cfg, &cfg.machine).unwrap();
        shard.spill.unwrap().cleanup();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Writes one small checkpoint into `dir`: two states (one resident
    /// and one spilled span) and one closed-segment reference.
    fn two_state_checkpoint(dir: &Path) -> (SynthesisConfig, Shard<u16>) {
        let cfg = cfg();
        let mut shard = Shard::new(&cfg, 0, 0);
        let mut tier = SpillTier::new(dir.to_path_buf(), 64).unwrap();
        let resident = [5u16];
        let spilled = [300u16];
        shard.arena.insert_new(0xaaaa, &resident, 1, 2, false);
        shard.arena.insert_spilled(0xbbbb, 1, 1, 1, false);
        tier.spill_span(1, 1, &spilled, &mut shard.counters);
        tier.seal_frontier(&mut shard.counters);
        tier.append_closed(0, vec![(0xcccc, 0)], &mut shard.counters);
        for (g, instr) in [(1, 3), (1, 5)] {
            shard.edges.push(Edge {
                parent: PARENT_NONE,
                g,
                instr,
            });
        }
        shard.counters.expanded = 1;
        shard.spill = Some(tier);
        let min_perm = MinPerm::new();
        min_perm.note(1, 1);
        checkpoint(&mut shard, &cfg, &min_perm, 1, 11, &[0, 1]);
        (cfg, shard)
    }

    /// One frontier record of two spans, byte for byte: state 3's span
    /// (live index 7) and state 5's (live indices 200 and 20 000). A change
    /// to this expectation is a segment format change — bump
    /// [`SPILL_VERSION`] with it.
    #[test]
    fn two_span_frontier_record_is_pinned() {
        let dir = tmp("frontier-pin");
        let mut stats = ShardStats::default();
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        tier.spill_span(1, 3, &[7u16], &mut stats);
        tier.spill_span(1, 5, &[200u16, 20_000], &mut stats);
        tier.seal_frontier(&mut stats);
        let bytes = fs::read(dir.join("frontier-1.seg")).unwrap();
        assert_eq!(stats.spilled_bytes, bytes.len() as u64 - 12);
        tier.cleanup();
        assert_eq!(hex(&bytes), GOLDEN_FRONTIER);
    }

    const GOLDEN_FRONTIER: &str = concat!(
        // header: "SSSPILLF", version 5
        "53535350494c4c4605000000",
        // record: tag 3 (the first id), payload_len 10, checksum
        "03000000000000000a000000534494953a0e1079",
        // state 3: delta 0, len 1, index 7
        "000107",
        // state 5: delta 2, len 2, index 200 (2 varint bytes), index 20 000
        // (3 bytes)
        "0202c801a09c01",
    );

    /// A journal written by a build that coded spans as register
    /// assignments (format version 4) is refused as a bad header, never
    /// decoded as live indices.
    #[test]
    fn a_version_4_journal_is_refused() {
        let dir = tmp("v4");
        let (cfg, shard) = two_state_checkpoint(&dir);
        let path = dir.join(JOURNAL_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = restore_into_empty::<u16>(&dir, &cfg, &live(&cfg))
            .err()
            .expect("refused");
        assert!(
            matches!(err, ResumeError::Segment(SegmentError::BadHeader { .. })),
            "{err}"
        );
        shard.spill.unwrap().cleanup();
    }

    /// The two-state checkpoint, byte for byte. A change to this
    /// expectation is a journal format change — bump [`SPILL_VERSION`]
    /// with it.
    #[test]
    fn two_state_checkpoint_is_pinned() {
        let dir = tmp("pin");
        let (_, shard) = two_state_checkpoint(&dir);
        let bytes = fs::read(dir.join(JOURNAL_NAME)).unwrap();
        shard.spill.unwrap().cleanup();
        assert_eq!(hex(&bytes), GOLDEN_JOURNAL);
    }

    /// Records that pass their checksums but name a state, parent, action,
    /// or live index the journal's machine does not have, or a frontier
    /// out of expansion order, are refused, never replayed. Each case rewrites one record
    /// of the two-state checkpoint.
    #[test]
    fn inconsistent_journal_records_are_malformed() {
        let dir = tmp("tamper");
        let (cfg, shard) = two_state_checkpoint(&dir);
        let path = dir.join(JOURNAL_NAME);
        let len = fs::metadata(&path).unwrap().len();
        let mut reader =
            SegmentReader::open_strict(&path, JOURNAL_MAGIC, SPILL_VERSION, len).unwrap();
        let mut records = Vec::new();
        while let Some(record) = reader.next().unwrap() {
            records.push(record);
        }
        type Damage = fn(&mut Vec<u8>);
        let cases: [(&str, u64, Damage); 5] = [
            ("state id", TAG_FRONTIER, |p| {
                p[4..].copy_from_slice(&7u32.to_le_bytes())
            }),
            ("frontier order", TAG_FRONTIER, |p| p.rotate_left(4)),
            ("parent", TAG_STATES, |p| {
                p[..4].copy_from_slice(&1u32.to_le_bytes())
            }),
            ("instr", TAG_STATES, |p| {
                p[4..6].copy_from_slice(&[0xff, 0xff])
            }),
            // State 0's resident span names live index 65 534: no element
            // of any live space, yet no `NONE` either.
            ("spans", TAG_SPANS, |p| {
                p.truncate(2);
                put_varint(p, u16::MAX as u64 - 1);
            }),
        ];
        for (what, tag, damage) in cases {
            let mut records = records.clone();
            let (_, payload) = records.iter_mut().find(|(t, _)| *t == tag).unwrap();
            damage(payload);
            segment::write_atomic(&path, JOURNAL_MAGIC, SPILL_VERSION, records).unwrap();
            let err = restore_into_empty::<u16>(&dir, &cfg, &live(&cfg))
                .err()
                .expect(what);
            assert!(
                matches!(err, ResumeError::Malformed { what: w } if w == what),
                "{what}: {err}"
            );
        }
        shard.spill.unwrap().cleanup();
    }

    const GOLDEN_JOURNAL: &str = concat!(
        // header: "SSJOURNL", version 5
        "53534a4f55524e4c05000000",
        // header record: tag 0, payload_len 320, checksum; 40 u64 words
        "00000000000000004001000081eb066c3f55e02e",
        // fingerprint, g = 1, bound = 11, budget = 64
        "6a34d1a6a0ebf16301000000000000000b000000000000004000000000000000",
        // ShardStats in declaration order: expanded = 1, spilled_open = 1,
        // spilled_closed = 1, spilled_bytes = 68, spill_segments = 2
        "0100000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000010000000000000000000000000000004400000000000000",
        "0200000000000000",
        // section counts: 2 states, 0 parents, 2 closed, 2 frontier, 1 span
        "0200000000000000000000000000000002000000000000000200000000000000",
        "0100000000000000",
        // list lengths: 2 minima, 0 goals, 1 frontier segment, 1 closed
        "0200000000000000000000000000000001000000000000000100000000000000",
        // minima [none, 1]; segment refs (layer, valid_len): frontier-1
        // (36 bytes), closed-0 (44 bytes)
        "ffffffff00000000010000000000000001000000000000002400000000000000",
        "00000000000000002c00000000000000",
        // states record: tag 1, two 19-byte entries
        "01000000000000002600000096653b4c90d5e3a4",
        "ffffffff030001000100000001000000020000ffffffff050001000100000001",
        "000000010000",
        // closed record: tag 3, two 12-byte entries (map order)
        "03000000000000001800000052f32fa408bf1ba6",
        "aaaa00000000000000000000bbbb00000000000001000000",
        // frontier record: tag 4, ids 0 and 1
        "040000000000000008000000347de4d1294ccd08",
        "0000000001000000",
        // spans record: tag 5, state 0's resident span (state 1's is in
        // frontier-1.seg): delta 0 from id 0, len 1, live index 5
        "0500000000000000030000000d550c6c18b149d9",
        "000105",
    );

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let a = SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov));
        let b = SynthesisConfig::new(Machine::new(4, 1, IsaMode::Cmov));
        let c = SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov)).dead_write_cut(true);
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        // Budgets, limits, thread counts, and observability knobs are
        // excluded on purpose.
        let d = SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov))
            .mem_budget_bytes(1 << 20)
            .threads(2)
            .progress_every(1);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&d));
        // Journals written while the fingerprint still named the closed-set
        // key width carry a different fingerprint, so resuming one is a
        // `ConfigMismatch` (see `spill_round_trip_and_ddd`), never a
        // replay.
        let legacy = "n=3 scratch=1 mode=Cmov strategy=Layered key=U64 cut=None \
                      opt_first=false dead_write=false value_flow=false budget_viab=false \
                      all=false max_len=None";
        assert_ne!(config_fingerprint(&a), fnv1a(legacy.as_bytes()));
    }
}
