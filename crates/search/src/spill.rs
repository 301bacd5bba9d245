//! External-memory spill tier: disk-backed open-list spans, closed-set
//! segments with delayed duplicate detection, and a resume journal.
//!
//! Under [`crate::SynthesisConfig::mem_budget_bytes`] a layered run on the
//! single-shard driver keeps its resident footprint near the budget by moving cold data
//! into checksummed append-only segments ([`sortsynth_obs::segment`], WAL
//! discipline):
//!
//! * **Frontier spans** — once the resident estimate crosses the budget,
//!   freshly interned states keep their metadata and closed-set entry but
//!   their assignment span goes to `frontier-{g}.seg` instead of the arena.
//!   The next layer's expansion streams those spans back in id order (the
//!   append order), so one sequential read covers the whole layer.
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
//! clear message: the engine cannot continue correctly without its spilled
//! state, and the journal on disk remains valid for a later resume.

use std::fmt;
use std::fs;
use std::io;
use std::iter;
use std::path::{Path, PathBuf};
use std::slice::ChunksExact;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sortsynth_isa::MachineState;
use sortsynth_obs::names;
use sortsynth_obs::segment::{self, fnv1a, SegmentError, SegmentReader, SegmentWriter};
use sortsynth_obs::Histogram;

use crate::config::{Strategy, SynthesisConfig};
use crate::engine::ShardStats;
use crate::shard::{parent_idx, parent_ref, Edge, MinPerm, Shard, PARENT_NONE};

/// Magic for frontier-span segments.
pub(crate) const FRONTIER_MAGIC: &[u8; 8] = b"SSSPILLF";
/// Magic for sorted closed-set segments.
pub(crate) const CLOSED_MAGIC: &[u8; 8] = b"SSSPILLC";
/// Magic for the resume journal.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"SSJOURNL";
/// On-disk format version shared by all three file kinds. Version 3
/// streams the journal as tagged sections and narrows closed entries to
/// 64-bit keys: a directory written by an older build is refused as a bad
/// header, never misparsed.
pub(crate) const SPILL_VERSION: u32 = 3;
/// Journal file name inside the spill directory.
pub(crate) const JOURNAL_NAME: &str = "journal.ssj";
/// Entries per checksummed record, in closed segments and journal sections.
const CHUNK: usize = 4096;
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

/// Appends a span's assignments as u64 LE bits: the payload of a
/// frontier-segment record and the body of a journal span entry.
fn put_span(out: &mut Vec<u8>, assigns: &[MachineState]) {
    for a in assigns {
        out.extend_from_slice(&a.bits().to_le_bytes());
    }
}

/// Decodes the bytes [`put_span`] wrote.
fn span_of(bytes: &[u8]) -> impl Iterator<Item = MachineState> + '_ {
    bytes
        .chunks_exact(8)
        .map(|b| MachineState::from_bits(le64(b)))
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

/// The spill tier owned by one sequential layered engine. Its counters
/// live in the owning shard's [`ShardStats`], which every method that
/// moves bytes takes.
pub(crate) struct SpillTier {
    dir: PathBuf,
    /// The resident-estimate budget the shard's spill decision holds.
    pub budget: u64,
    /// Writer for the frontier segment of the layer currently being
    /// generated (`g + 1` while layer `g` expands). Created lazily on the
    /// first spilled span of the layer.
    writer: Option<SegmentWriter>,
    writer_layer: u32,
    /// Sealed frontier segment holding the spilled spans of the layer now
    /// being expanded.
    cur: Option<SegRef>,
    /// Streaming reader over `cur`, opened lazily at the first fetch.
    reader: Option<SegmentReader>,
    read_buf: Vec<MachineState>,
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
            writer_layer: 0,
            cur: None,
            reader: None,
            read_buf: Vec::new(),
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

    /// Appends state `id`'s assignment span to the frontier segment of
    /// `layer`. Append order matches intern order (dense increasing ids),
    /// which is what the streaming fetch relies on.
    pub fn spill_span(
        &mut self,
        layer: u32,
        id: u32,
        assigns: &[MachineState],
        stats: &mut ShardStats,
    ) {
        let t0 = Instant::now();
        if self.writer.is_none() || self.writer_layer != layer {
            let path = seg_path(&self.dir, FRONTIER_MAGIC, layer);
            let writer = SegmentWriter::create(&path, FRONTIER_MAGIC, SPILL_VERSION)
                .unwrap_or_else(|e| panic!("spill tier cannot create {}: {e}", path.display()));
            self.writer = Some(writer);
            self.writer_layer = layer;
            stats.spill_segments += 1;
        }
        let writer = self.writer.as_mut().unwrap();
        let mut payload = Vec::with_capacity(assigns.len() * 8);
        put_span(&mut payload, assigns);
        let before = writer.bytes();
        writer
            .append(id as u64, &payload)
            .unwrap_or_else(|e| panic!("spill tier frontier append failed: {e}"));
        stats.spilled_bytes += writer.bytes() - before;
        stats.spilled_open += 1;
        self.write_hist.observe(t0.elapsed().as_secs_f64());
    }

    /// End-of-layer: the consumed frontier segment is dead (its layer is
    /// fully expanded) and the one under construction becomes next layer's
    /// read target. The dead segment's file is *not* deleted here: the
    /// last durable journal still references it, so it is queued and only
    /// removed after the next checkpoint rename ([`checkpoint`]).
    pub fn seal_frontier(&mut self) {
        self.reader = None;
        if let Some(old) = self.cur.take() {
            self.pending_delete.push(old.layer);
        }
        if let Some(writer) = self.writer.take() {
            self.cur = Some(SegRef {
                layer: self.writer_layer,
                valid_len: writer.bytes(),
            });
        }
    }

    /// Streams the spilled span of frontier state `id` back from the
    /// current frontier segment. Callers fetch in increasing id order (the
    /// frontier's order), so the read is one sequential pass per layer;
    /// records whose state was deleted by DDD are skipped in stride.
    pub fn fetch_span(&mut self, id: u32) -> &[MachineState] {
        let t0 = Instant::now();
        if self.reader.is_none() {
            let seg = self
                .cur
                .expect("fetch_span without a sealed frontier segment");
            let reader = open_seg(&self.dir, FRONTIER_MAGIC, seg)
                .unwrap_or_else(|e| panic!("spill tier cannot reopen frontier segment: {e}"));
            self.reader = Some(reader);
        }
        let reader = self.reader.as_mut().unwrap();
        loop {
            let (rid, payload) = reader
                .next()
                .unwrap_or_else(|e| panic!("spill tier frontier read failed: {e}"))
                .unwrap_or_else(|| panic!("spilled span of state {id} missing from segment"));
            if rid != id as u64 {
                assert!(
                    rid < id as u64,
                    "frontier segment out of order: saw {rid} while looking for {id}"
                );
                continue;
            }
            self.read_buf.clear();
            self.read_buf.extend(span_of(&payload));
            self.read_hist.observe(t0.elapsed().as_secs_f64());
            return &self.read_buf;
        }
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
        for chunk in evicted.chunks(CHUNK) {
            let mut payload = Vec::with_capacity(chunk.len() * CLOSED_ENTRY);
            for &(key, id) in chunk {
                put_closed(&mut payload, key, id);
            }
            writer
                .append(0, &payload)
                .unwrap_or_else(|e| panic!("spill tier closed append failed: {e}"));
        }
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
pub(crate) fn checkpoint(
    shard: &mut Shard,
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
        arena.closed().len(),
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
    let spans = chunked(TAG_SPANS, resident(), |out, id| {
        out.extend_from_slice(&id.to_le_bytes());
        put_span(out, arena.assignments(id));
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
/// `cfg`, and every segment it references is verified end to end before
/// any section is trusted. The checkpointed layer re-runs from its start —
/// the journal was written before the layer began, so a mid-layer crash
/// loses at most one layer's work, and a partially written next-layer
/// frontier segment is truncated when its writer is recreated.
pub(crate) fn restore(
    dir: &Path,
    cfg: &SynthesisConfig,
    shard: &mut Shard,
    min_perm: &MinPerm,
) -> Result<Resumed, ResumeError> {
    if cfg.strategy != Strategy::Layered {
        return Err(ResumeError::Unsupported {
            why: "resume requires the layered strategy",
        });
    }
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
                // id u32 | the state's span, its length from the restored meta.
                let mut rest = &payload[..];
                while let Some((id, tail)) = rest.split_first_chunk::<4>() {
                    let id = known(u32::from_le_bytes(*id))?;
                    let len = shard.arena.meta(id).assign_count() as usize * 8;
                    let span = tail.get(..len).ok_or(bad("spans"))?;
                    shard.arena.restore_span(id, span_of(span));
                    rest = &tail[len..];
                    *seen += 1;
                }
                if !rest.is_empty() {
                    return Err(bad("spans"));
                }
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
    use sortsynth_isa::{IsaMode, Machine};

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
    fn spilled_shard(cfg: &SynthesisConfig, tier: SpillTier, states: u32) -> Shard {
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

    fn restore_into_empty(dir: &Path, cfg: &SynthesisConfig) -> Result<Resumed, ResumeError> {
        restore(dir, cfg, &mut Shard::new(cfg, 0, 0), &MinPerm::new())
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
        let spans = [
            vec![MachineState::from_values(&[1, 2, 3])],
            vec![
                MachineState::from_values(&[2, 1, 3]),
                MachineState::from_values(&[3, 1, 2]),
            ],
            vec![MachineState::from_values(&[3, 2, 1])],
        ];
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
        tier.seal_frontier();
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
        let resumed = restore(&dir, &cfg, &mut restored, &restored_perm).unwrap();
        assert_eq!((resumed.g, resumed.bound), (1, 9));
        assert_eq!(resumed.frontier, frontier);
        assert_eq!(restored.edges, shard.edges);
        assert_eq!(restored.more_parents, shard.more_parents);
        assert_eq!(restored.goals, shard.goals);
        let metas = |s: &Shard| {
            (0..s.arena.len() as u32)
                .map(|id| {
                    let m = s.arena.meta(id);
                    (m.assign_count(), m.perm, m.max_dist, m.goal)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(metas(&restored), metas(&shard));
        let closed = |s: &Shard| {
            let mut entries: Vec<_> = s.arena.closed().collect();
            entries.sort_unstable();
            entries
        };
        assert_eq!(closed(&restored), closed(&shard));
        let spans_of = |s: &Shard| {
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
            restore_into_empty(&dir, &cfg),
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
        tier.seal_frontier();
        assert_eq!(stats.spilled_open, 2);
        // DDD against a closed segment holding key 200 kills id 7.
        tier.append_closed(0, vec![(200, 2), (150, 1)], &mut stats);
        let dead = tier.ddd_filter(&mut stats);
        assert_eq!(dead, vec![7]);
        assert_eq!(stats.ddd_dedup_hits, 1);
        // Streamed fetch skips the dead record in stride.
        assert_eq!(tier.fetch_span(5), &a[..]);
        // Journal round trip through the tier.
        let cfg = cfg();
        let mut shard = spilled_shard(&cfg, tier, 8);
        shard.counters = stats;
        checkpoint(&mut shard, &cfg, &MinPerm::new(), 1, 11, &[5]);
        let loaded = restore_into_empty(&dir, &cfg).unwrap();
        assert_eq!(loaded.frontier, vec![5]);
        assert!(matches!(
            restore_into_empty(&dir, &cfg.clone().max_len(10)),
            Err(ResumeError::ConfigMismatch { .. })
        ));
        // A torn byte inside a referenced segment is detected, not replayed.
        let seg_path = dir.join("frontier-1.seg");
        let mut bytes = fs::read(&seg_path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&seg_path, &bytes).unwrap();
        let err = restore_into_empty(&dir, &cfg).err().unwrap();
        assert!(err.to_string().contains("checksum"), "{err}");
        shard.spill.unwrap().cleanup();
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
        tier.seal_frontier(); // layer-1 segment becomes the read target
        let first = dir.join("frontier-1.seg");
        tier.spill_span(2, 1, &[MachineState::from_values(&[2, 1])], &mut stats);
        tier.seal_frontier(); // layer 1 consumed — must NOT delete yet
        assert!(
            first.exists(),
            "consumed segment deleted before the checkpoint rename"
        );
        let cfg = cfg();
        let mut shard = spilled_shard(&cfg, tier, 2);
        shard.counters = stats;
        checkpoint(&mut shard, &cfg, &MinPerm::new(), 2, 11, &[1]);
        assert!(
            !first.exists(),
            "checkpoint rename must gc consumed segments"
        );
        restore_into_empty(&dir, &cfg).unwrap();
        shard.spill.unwrap().cleanup();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Writes one small checkpoint into `dir`: two states (one resident
    /// and one spilled span) and one closed-segment reference.
    fn two_state_checkpoint(dir: &Path) -> (SynthesisConfig, Shard) {
        let cfg = cfg();
        let mut shard = Shard::new(&cfg, 0, 0);
        let mut tier = SpillTier::new(dir.to_path_buf(), 64).unwrap();
        let resident = [MachineState::from_values(&[1, 2, 3])];
        let spilled = [MachineState::from_values(&[2, 1, 3])];
        shard.arena.insert_new(0xaaaa, &resident, 1, 2, false);
        shard.arena.insert_spilled(0xbbbb, 1, 1, 1, false);
        tier.spill_span(1, 1, &spilled, &mut shard.counters);
        tier.seal_frontier();
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

    /// Records that pass their checksums but name a state, parent, or
    /// action the journal never declared, or a frontier out of expansion
    /// order, are refused, never replayed. Each case rewrites one record
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
        let cases: [(&str, u64, Damage); 4] = [
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
        ];
        for (what, tag, damage) in cases {
            let mut records = records.clone();
            let (_, payload) = records.iter_mut().find(|(t, _)| *t == tag).unwrap();
            damage(payload);
            segment::write_atomic(&path, JOURNAL_MAGIC, SPILL_VERSION, records).unwrap();
            let err = restore_into_empty(&dir, &cfg).err().expect(what);
            assert!(
                matches!(err, ResumeError::Malformed { what: w } if w == what),
                "{what}: {err}"
            );
        }
        shard.spill.unwrap().cleanup();
    }

    const GOLDEN_JOURNAL: &str = concat!(
        // header: "SSJOURNL", version 3
        "53534a4f55524e4c03000000",
        // header record: tag 0, payload_len 320, checksum; 40 u64 words
        "000000000000000040010000790b7e6bb967495c",
        // fingerprint, g = 1, bound = 11, budget = 64
        "6a34d1a6a0ebf16301000000000000000b000000000000004000000000000000",
        // ShardStats in declaration order: expanded = 1, spilled_open = 1,
        // spilled_closed = 1, spilled_bytes = 72, spill_segments = 2
        "0100000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000010000000000000000000000000000004800000000000000",
        "0200000000000000",
        // section counts: 2 states, 0 parents, 2 closed, 2 frontier, 1 span
        "0200000000000000000000000000000002000000000000000200000000000000",
        "0100000000000000",
        // list lengths: 2 minima, 0 goals, 1 frontier segment, 1 closed
        "0200000000000000000000000000000001000000000000000100000000000000",
        // minima [none, 1]; segment refs (layer, valid_len): frontier-1
        // (40 bytes), closed-0 (44 bytes)
        "ffffffff00000000010000000000000001000000000000002800000000000000",
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
        // frontier-1.seg)
        "05000000000000000c000000e54eb3a94e7b0ba6",
        "000000002103000000000000",
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
