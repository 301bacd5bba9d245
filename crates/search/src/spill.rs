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
//!   `closed-{g}.seg`. Candidates interned after that are checked against
//!   those segments by **delayed duplicate detection** (DDD): a sorted
//!   merge-join at the end of each layer deletes the frontier entries that
//!   duplicate an evicted state. Same-layer and next-layer duplicates stay
//!   exact through the resident map, so only older-layer dedup is delayed —
//!   which is lossless for layered search (an older duplicate can never be
//!   on a shorter path).
//! * **Journal** — a checkpoint written atomically at each layer boundary
//!   records everything needed to re-run the next layer: parent edges,
//!   per-state metadata, the resident closed map, the frontier (resident
//!   spans inline, spilled spans by segment reference), and the counters. A
//!   killed search resumes with [`crate::SynthesisConfig::resume_from`]; the
//!   journal and every referenced segment byte are strictly re-verified
//!   (checksums, recorded valid lengths) before anything is trusted, so a
//!   torn or corrupt spill directory is reported as a [`ResumeError`], never
//!   silently replayed.
//!
//! Mid-run spill I/O failures (disk full, permission loss) panic with a
//! clear message: the engine cannot continue correctly without its spilled
//! state, and the journal on disk remains valid for a later resume.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sortsynth_isa::MachineState;
use sortsynth_obs::names;
use sortsynth_obs::segment::{self, fnv1a, SegmentError, SegmentReader, SegmentWriter};
use sortsynth_obs::Histogram;

use crate::config::SynthesisConfig;
use crate::engine::ShardStats;

/// Magic for frontier-span segments.
pub(crate) const FRONTIER_MAGIC: &[u8; 8] = b"SSSPILLF";
/// Magic for sorted closed-set segments.
pub(crate) const CLOSED_MAGIC: &[u8; 8] = b"SSSPILLC";
/// Magic for the resume journal.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"SSJOURNL";
/// On-disk format version shared by all three file kinds. Version 2 moved
/// to tagged records: a directory written by an older build is refused as
/// a bad header, never misparsed.
pub(crate) const SPILL_VERSION: u32 = 2;
/// Journal file name inside the spill directory.
pub(crate) const JOURNAL_NAME: &str = "journal.ssj";
/// Closed-segment record granularity: entries per checksummed record.
const CLOSED_CHUNK: usize = 4096;
/// Bytes per closed-segment entry: stored-width key u128 + state id u32.
const CLOSED_ENTRY: usize = 20;

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
    /// The journal payload decoded to nonsense (internal corruption that
    /// still passed the checksum — should not happen).
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

/// A segment file referenced by the journal: name (inside the spill
/// directory) plus the byte length that was fully flushed when the
/// reference was recorded — the strict reader's trust boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegRef {
    pub name: String,
    pub valid_len: u64,
}

/// The spill tier owned by one sequential layered engine.
pub(crate) struct SpillTier {
    dir: PathBuf,
    budget: u64,
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
    /// Consumed segment files awaiting deletion. A segment may only be
    /// removed once a journal checkpoint that no longer references it has
    /// been durably renamed into place — deleting earlier opens a crash
    /// window where the last durable checkpoint points at a missing file.
    pending_delete: Vec<String>,
    /// Stored-width keys of every state first interned in the current
    /// layer, for the end-of-layer DDD merge-join.
    layer_keys: Vec<(u128, u32)>,
    closed_segs: Vec<SegRef>,
    pub spilled_open: u64,
    pub spilled_closed: u64,
    pub ddd_dedup_hits: u64,
    pub spilled_bytes: u64,
    pub segments_created: u64,
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
            spilled_open: 0,
            spilled_closed: 0,
            ddd_dedup_hits: 0,
            spilled_bytes: 0,
            segments_created: 0,
            write_hist: names::histogram(names::SEARCH_SPILL_WRITE_SECONDS),
            read_hist: names::histogram(names::SEARCH_SPILL_READ_SECONDS),
        })
    }

    /// Rebuilds the tier a resumed engine left behind: segment references
    /// and counters come from the verified journal.
    pub fn resumed(dir: PathBuf, budget: u64, journal: &Journal) -> io::Result<SpillTier> {
        let mut tier = SpillTier::new(dir, budget)?;
        tier.cur = journal.frontier_seg.clone();
        tier.closed_segs = journal.closed_segs.clone();
        tier.spilled_open = journal.spilled_open;
        tier.spilled_closed = journal.spilled_closed;
        tier.ddd_dedup_hits = journal.ddd_dedup_hits;
        tier.spilled_bytes = journal.spilled_bytes;
        tier.segments_created = journal.spill_segments;
        Ok(tier)
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Records a fresh intern (resident or spilled) for the end-of-layer
    /// DDD pass. `stored_key` is the arena's stored-width key
    /// ([`crate::intern::StateArena::stored_key`]).
    pub fn note_fresh(&mut self, stored_key: u128, id: u32) {
        self.layer_keys.push((stored_key, id));
    }

    /// Appends state `id`'s assignment span to the frontier segment of
    /// `layer`. Append order matches intern order (dense increasing ids),
    /// which is what the streaming fetch relies on.
    pub fn spill_span(&mut self, layer: u32, id: u32, assigns: &[MachineState]) {
        let t0 = Instant::now();
        if self.writer.is_none() || self.writer_layer != layer {
            let name = format!("frontier-{layer}.seg");
            let writer = SegmentWriter::create(self.dir.join(&name), FRONTIER_MAGIC, SPILL_VERSION)
                .unwrap_or_else(|e| panic!("spill tier cannot create {name}: {e}"));
            self.writer = Some(writer);
            self.writer_layer = layer;
            self.segments_created += 1;
        }
        let writer = self.writer.as_mut().unwrap();
        let mut payload = Vec::with_capacity(assigns.len() * 8);
        for a in assigns {
            put_u64(&mut payload, a.bits());
        }
        let before = writer.bytes();
        writer
            .append(id as u64, &payload)
            .unwrap_or_else(|e| panic!("spill tier frontier append failed: {e}"));
        self.spilled_bytes += writer.bytes() - before;
        self.spilled_open += 1;
        self.write_hist.observe(t0.elapsed().as_secs_f64());
    }

    /// End-of-layer: the consumed frontier segment is dead (its layer is
    /// fully expanded) and the one under construction becomes next layer's
    /// read target. The dead segment's file is *not* deleted here: the
    /// last durable journal still references it, so it is queued and only
    /// removed after the next checkpoint rename ([`Self::write_journal`]).
    pub fn seal_frontier(&mut self) {
        self.reader = None;
        if let Some(old) = self.cur.take() {
            self.pending_delete.push(old.name);
        }
        if let Some(writer) = self.writer.take() {
            let name = writer
                .path()
                .file_name()
                .expect("segment path has a file name")
                .to_string_lossy()
                .into_owned();
            self.cur = Some(SegRef {
                name,
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
                .as_ref()
                .expect("fetch_span without a sealed frontier segment");
            let reader = SegmentReader::open_strict(
                self.dir.join(&seg.name),
                FRONTIER_MAGIC,
                SPILL_VERSION,
                seg.valid_len,
            )
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
            self.read_buf.extend(
                payload
                    .chunks_exact(8)
                    .map(|b| MachineState::from_bits(u64::from_le_bytes(b.try_into().unwrap()))),
            );
            self.read_hist.observe(t0.elapsed().as_secs_f64());
            return &self.read_buf;
        }
    }

    /// Delayed duplicate detection over the layer's fresh interns: sorted
    /// merge-join of this layer's keys against every closed segment.
    /// Returns the sorted, deduplicated ids that duplicate an evicted
    /// older-layer state — the engine deletes them from the next frontier.
    pub fn ddd_filter(&mut self) -> Vec<u32> {
        let mut keys = std::mem::take(&mut self.layer_keys);
        if keys.is_empty() || self.closed_segs.is_empty() {
            return Vec::new();
        }
        keys.sort_unstable_by_key(|&(k, _)| k);
        let mut dead: Vec<u32> = Vec::new();
        for seg in &self.closed_segs {
            let t0 = Instant::now();
            let mut reader = SegmentReader::open_strict(
                self.dir.join(&seg.name),
                CLOSED_MAGIC,
                SPILL_VERSION,
                seg.valid_len,
            )
            .unwrap_or_else(|e| panic!("spill tier cannot reopen closed segment: {e}"));
            let mut i = 0usize;
            'seg: while let Some((_, payload)) = reader
                .next()
                .unwrap_or_else(|e| panic!("spill tier closed read failed: {e}"))
            {
                // (key u128, evicted id u32) entries; only the key is read.
                for entry in payload.chunks_exact(CLOSED_ENTRY) {
                    let key = u128::from_le_bytes(entry[..16].try_into().unwrap());
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
        self.ddd_dedup_hits += dead.len() as u64;
        dead
    }

    /// Persists evicted closed-map entries as the sorted segment
    /// `closed-{layer}.seg` (globally sorted across its chunked records).
    pub fn append_closed(&mut self, layer: u32, mut evicted: Vec<(u128, u32)>) {
        if evicted.is_empty() {
            return;
        }
        evicted.sort_unstable_by_key(|&(k, _)| k);
        let name = format!("closed-{layer}.seg");
        let t0 = Instant::now();
        let mut writer = SegmentWriter::create(self.dir.join(&name), CLOSED_MAGIC, SPILL_VERSION)
            .unwrap_or_else(|e| panic!("spill tier cannot create {name}: {e}"));
        for chunk in evicted.chunks(CLOSED_CHUNK) {
            let mut payload = Vec::with_capacity(chunk.len() * CLOSED_ENTRY);
            for &(key, id) in chunk {
                put_u128(&mut payload, key);
                put_u32(&mut payload, id);
            }
            writer
                .append(0, &payload)
                .unwrap_or_else(|e| panic!("spill tier closed append failed: {e}"));
        }
        self.write_hist.observe(t0.elapsed().as_secs_f64());
        self.spilled_closed += evicted.len() as u64;
        self.spilled_bytes += writer.bytes();
        self.segments_created += 1;
        self.closed_segs.push(SegRef {
            name,
            valid_len: writer.bytes(),
        });
    }

    /// The current frontier segment reference, for the journal.
    pub fn frontier_seg(&self) -> Option<SegRef> {
        self.cur.clone()
    }

    /// The closed segment references, for the journal.
    pub fn closed_segs(&self) -> Vec<SegRef> {
        self.closed_segs.clone()
    }

    /// Atomically replaces the journal checkpoint, then deletes consumed
    /// segments the new checkpoint no longer references — in that order,
    /// so a kill at any point leaves the durable journal with every file
    /// it names still on disk.
    pub fn write_journal(&mut self, journal: &Journal) {
        // Checkpoints larger than one record go out as consecutive
        // records, so their size is bounded only by the filesystem.
        let payload = journal.encode();
        let records = payload
            .chunks(segment::MAX_RECORD as usize)
            .map(|chunk| (0, chunk));
        segment::write_atomic(
            &self.dir.join(JOURNAL_NAME),
            JOURNAL_MAGIC,
            SPILL_VERSION,
            records,
        )
        .unwrap_or_else(|e| panic!("spill tier journal checkpoint failed: {e}"));
        for name in self.pending_delete.drain(..) {
            let _ = fs::remove_file(self.dir.join(name));
        }
    }

    /// Removes the spill directory (end of a completed run that used a
    /// default temp directory).
    pub fn cleanup(&self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A parent edge as persisted in the journal (mirror of the engine's
/// private `Node`).
#[derive(Debug, Clone)]
pub(crate) struct JournalNode {
    pub parent: u32,
    pub instr: u16,
    pub len: u16,
    pub more: Vec<(u32, u16)>,
}

/// Per-state metadata as persisted in the journal (mirror of
/// `StateMeta` minus the span offset, which the frontier section carries).
#[derive(Debug, Clone, Copy)]
pub(crate) struct JournalMeta {
    pub len: u32,
    pub perm: u32,
    pub max_dist: u16,
    pub goal: bool,
}

/// One layer-boundary checkpoint: everything needed to re-run the layer it
/// names. Written via [`SpillTier::write_journal`] (atomic tmp + rename),
/// decoded by [`load_journal`].
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    pub fingerprint: u64,
    /// The layer about to be expanded.
    pub g: u32,
    pub bound: u32,
    pub budget: u64,
    pub min_perm: Vec<u32>,
    pub goals: Vec<u32>,
    /// Search counters at the checkpoint (layers < g fully counted). The
    /// merge-disposition and routing counters are not persisted.
    pub counters: ShardStats,
    pub spilled_open: u64,
    pub spilled_closed: u64,
    pub ddd_dedup_hits: u64,
    pub spilled_bytes: u64,
    pub spill_segments: u64,
    pub nodes: Vec<JournalNode>,
    pub metas: Vec<JournalMeta>,
    /// Resident closed-map entries, stored-width keys.
    pub closed: Vec<(u128, u32)>,
    /// The frontier of layer `g`, in expansion (id) order.
    pub frontier: Vec<u32>,
    /// Resident frontier spans (spilled ones live in `frontier_seg`).
    pub spans: Vec<(u32, Vec<MachineState>)>,
    pub frontier_seg: Option<SegRef>,
    pub closed_segs: Vec<SegRef>,
}

impl Journal {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.nodes.len() * 24);
        put_u64(&mut out, self.fingerprint);
        put_u32(&mut out, self.g);
        put_u32(&mut out, self.bound);
        put_u64(&mut out, self.budget);
        put_u32(&mut out, self.min_perm.len() as u32);
        for &p in &self.min_perm {
            put_u32(&mut out, p);
        }
        put_u32(&mut out, self.goals.len() as u32);
        for &g in &self.goals {
            put_u32(&mut out, g);
        }
        let c = &self.counters;
        for c in [
            c.expanded,
            c.generated,
            c.dedup_hits,
            c.viability_pruned,
            c.cut_pruned,
            c.dead_write_pruned,
            c.value_flow_pruned,
            c.states_kept,
            c.scratch_reused,
            c.swar_batches,
            self.spilled_open,
            self.spilled_closed,
            self.ddd_dedup_hits,
            self.spilled_bytes,
            self.spill_segments,
        ] {
            put_u64(&mut out, c);
        }
        put_u32(&mut out, self.nodes.len() as u32);
        for n in &self.nodes {
            put_u32(&mut out, n.parent);
            put_u16(&mut out, n.instr);
            put_u16(&mut out, n.len);
            put_u32(&mut out, n.more.len() as u32);
            for &(p, ai) in &n.more {
                put_u32(&mut out, p);
                put_u16(&mut out, ai);
            }
        }
        put_u32(&mut out, self.metas.len() as u32);
        for m in &self.metas {
            put_u32(&mut out, m.len);
            put_u32(&mut out, m.perm);
            put_u16(&mut out, m.max_dist);
            out.push(m.goal as u8);
        }
        put_u32(&mut out, self.closed.len() as u32);
        for &(key, id) in &self.closed {
            put_u128(&mut out, key);
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.frontier.len() as u32);
        for &id in &self.frontier {
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.spans.len() as u32);
        for (id, span) in &self.spans {
            put_u32(&mut out, *id);
            put_u32(&mut out, span.len() as u32);
            for a in span {
                put_u64(&mut out, a.bits());
            }
        }
        put_seg_ref_opt(&mut out, self.frontier_seg.as_ref());
        put_u32(&mut out, self.closed_segs.len() as u32);
        for seg in &self.closed_segs {
            put_seg_ref(&mut out, seg);
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Journal, ResumeError> {
        let bad = |what| ResumeError::Malformed { what };
        let mut r = ByteReader::new(payload);
        let fingerprint = r.u64().ok_or(bad("header"))?;
        let g = r.u32().ok_or(bad("header"))?;
        let bound = r.u32().ok_or(bad("header"))?;
        let budget = r.u64().ok_or(bad("header"))?;
        let min_perm = r.vec_u32().ok_or(bad("min_perm"))?;
        let goals = r.vec_u32().ok_or(bad("goals"))?;
        let mut counters = [0u64; 15];
        for c in &mut counters {
            *c = r.u64().ok_or(bad("counters"))?;
        }
        let node_count = r.u32().ok_or(bad("nodes"))? as usize;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let parent = r.u32().ok_or(bad("nodes"))?;
            let instr = r.u16().ok_or(bad("nodes"))?;
            let len = r.u16().ok_or(bad("nodes"))?;
            let extra = r.u32().ok_or(bad("nodes"))? as usize;
            let mut more = Vec::with_capacity(extra);
            for _ in 0..extra {
                more.push((r.u32().ok_or(bad("nodes"))?, r.u16().ok_or(bad("nodes"))?));
            }
            nodes.push(JournalNode {
                parent,
                instr,
                len,
                more,
            });
        }
        let meta_count = r.u32().ok_or(bad("metas"))? as usize;
        let mut metas = Vec::with_capacity(meta_count);
        for _ in 0..meta_count {
            metas.push(JournalMeta {
                len: r.u32().ok_or(bad("metas"))?,
                perm: r.u32().ok_or(bad("metas"))?,
                max_dist: r.u16().ok_or(bad("metas"))?,
                goal: r.u8().ok_or(bad("metas"))? != 0,
            });
        }
        let closed_count = r.u32().ok_or(bad("closed"))? as usize;
        let mut closed = Vec::with_capacity(closed_count);
        for _ in 0..closed_count {
            closed.push((
                r.u128().ok_or(bad("closed"))?,
                r.u32().ok_or(bad("closed"))?,
            ));
        }
        let frontier = r.vec_u32().ok_or(bad("frontier"))?;
        let span_count = r.u32().ok_or(bad("spans"))? as usize;
        let mut spans = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            let id = r.u32().ok_or(bad("spans"))?;
            let len = r.u32().ok_or(bad("spans"))? as usize;
            let mut span = Vec::with_capacity(len);
            for _ in 0..len {
                span.push(MachineState::from_bits(r.u64().ok_or(bad("spans"))?));
            }
            spans.push((id, span));
        }
        let frontier_seg = r.seg_ref_opt().ok_or(bad("frontier segment ref"))?;
        let seg_count = r.u32().ok_or(bad("closed segment refs"))? as usize;
        let mut closed_segs = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            closed_segs.push(r.seg_ref().ok_or(bad("closed segment refs"))?);
        }
        if !r.at_end() {
            return Err(bad("trailing bytes"));
        }
        Ok(Journal {
            fingerprint,
            g,
            bound,
            budget,
            min_perm,
            goals,
            counters: ShardStats {
                expanded: counters[0],
                generated: counters[1],
                dedup_hits: counters[2],
                viability_pruned: counters[3],
                cut_pruned: counters[4],
                dead_write_pruned: counters[5],
                value_flow_pruned: counters[6],
                states_kept: counters[7],
                scratch_reused: counters[8],
                swar_batches: counters[9],
                ..ShardStats::default()
            },
            spilled_open: counters[10],
            spilled_closed: counters[11],
            ddd_dedup_hits: counters[12],
            spilled_bytes: counters[13],
            spill_segments: counters[14],
            nodes,
            metas,
            closed,
            frontier,
            spans,
            frontier_seg,
            closed_segs,
        })
    }
}

/// Loads and fingerprint-checks the journal in `dir`.
pub(crate) fn load_journal(dir: &Path, expected: u64) -> Result<Journal, ResumeError> {
    let path = dir.join(JOURNAL_NAME);
    if !path.exists() {
        return Err(ResumeError::MissingJournal {
            dir: dir.to_path_buf(),
        });
    }
    let payload = segment::read_atomic(&path, JOURNAL_MAGIC, SPILL_VERSION)?;
    let journal = Journal::decode(&payload)?;
    if journal.fingerprint != expected {
        return Err(ResumeError::ConfigMismatch {
            expected,
            found: journal.fingerprint,
        });
    }
    Ok(journal)
}

/// Strictly verifies every segment the journal references, end to end,
/// before any of it is trusted: each record inside the recorded valid
/// length must parse and checksum. A torn tail *within* the valid length —
/// i.e. bytes the journal claims were durable — is an error; bytes past the
/// valid length (a torn in-progress segment from the crashed run) are
/// ignored by construction of the strict reader.
pub(crate) fn verify_segments(dir: &Path, journal: &Journal) -> Result<(), ResumeError> {
    if let Some(seg) = &journal.frontier_seg {
        drain_strict(dir, seg, FRONTIER_MAGIC)?;
    }
    for seg in &journal.closed_segs {
        drain_strict(dir, seg, CLOSED_MAGIC)?;
    }
    Ok(())
}

fn drain_strict(dir: &Path, seg: &SegRef, magic: &[u8; 8]) -> Result<(), ResumeError> {
    let mut reader =
        SegmentReader::open_strict(dir.join(&seg.name), magic, SPILL_VERSION, seg.valid_len)?;
    while reader.next()?.is_some() {}
    Ok(())
}

// ---------------------------------------------------------------------
// Byte codec helpers
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_seg_ref(out: &mut Vec<u8>, seg: &SegRef) {
    put_u16(out, seg.name.len() as u16);
    out.extend_from_slice(seg.name.as_bytes());
    put_u64(out, seg.valid_len);
}

fn put_seg_ref_opt(out: &mut Vec<u8>, seg: Option<&SegRef>) {
    match seg {
        None => out.push(0),
        Some(seg) => {
            out.push(1);
            put_seg_ref(out, seg);
        }
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|s| u128::from_le_bytes(s.try_into().unwrap()))
    }

    fn vec_u32(&mut self) -> Option<Vec<u32>> {
        let len = self.u32()? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Some(out)
    }

    fn seg_ref(&mut self) -> Option<SegRef> {
        let name_len = self.u16()? as usize;
        let name = String::from_utf8(self.take(name_len)?.to_vec()).ok()?;
        let valid_len = self.u64()?;
        Some(SegRef { name, valid_len })
    }

    fn seg_ref_opt(&mut self) -> Option<Option<SegRef>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.seg_ref()?)),
            _ => None,
        }
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
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

    #[test]
    fn journal_round_trips() {
        let journal = Journal {
            fingerprint: 0xfeed,
            g: 3,
            bound: 20,
            budget: 1 << 28,
            min_perm: vec![24, 12, 6],
            goals: vec![],
            counters: ShardStats {
                expanded: 100,
                generated: 900,
                swar_batches: 88,
                ..ShardStats::default()
            },
            spilled_open: 7,
            spilled_closed: 11,
            ddd_dedup_hits: 5,
            spilled_bytes: 4096,
            spill_segments: 2,
            nodes: vec![
                JournalNode {
                    parent: u32::MAX,
                    instr: 0,
                    len: 0,
                    more: vec![],
                },
                JournalNode {
                    parent: 0,
                    instr: 9,
                    len: 1,
                    more: vec![(0, 4)],
                },
            ],
            metas: vec![
                JournalMeta {
                    len: 6,
                    perm: 6,
                    max_dist: 4,
                    goal: false,
                },
                JournalMeta {
                    len: 5,
                    perm: 4,
                    max_dist: 3,
                    goal: true,
                },
            ],
            closed: vec![(42, 0), (77, 1)],
            frontier: vec![1],
            spans: vec![(1, vec![MachineState::from_values(&[1, 2])])],
            frontier_seg: Some(SegRef {
                name: "frontier-4.seg".into(),
                valid_len: 1234,
            }),
            closed_segs: vec![SegRef {
                name: "closed-3.seg".into(),
                valid_len: 99,
            }],
        };
        let decoded = Journal::decode(&journal.encode()).unwrap();
        assert_eq!(decoded.fingerprint, journal.fingerprint);
        assert_eq!(decoded.g, 3);
        assert_eq!(decoded.bound, 20);
        assert_eq!(decoded.min_perm, journal.min_perm);
        assert_eq!(decoded.counters, journal.counters);
        assert_eq!(decoded.nodes.len(), 2);
        assert_eq!(decoded.nodes[1].more, vec![(0, 4)]);
        assert_eq!(decoded.metas[1].perm, 4);
        assert!(decoded.metas[1].goal);
        assert_eq!(decoded.closed, journal.closed);
        assert_eq!(decoded.frontier, vec![1]);
        assert_eq!(decoded.spans, journal.spans);
        assert_eq!(decoded.frontier_seg, journal.frontier_seg);
        assert_eq!(decoded.closed_segs, journal.closed_segs);
        assert_eq!(decoded.spilled_bytes, 4096);
    }

    #[test]
    fn truncated_journal_is_malformed() {
        let journal = Journal {
            fingerprint: 1,
            g: 0,
            bound: 0,
            budget: 0,
            min_perm: vec![],
            goals: vec![],
            counters: ShardStats::default(),
            spilled_open: 0,
            spilled_closed: 0,
            ddd_dedup_hits: 0,
            spilled_bytes: 0,
            spill_segments: 0,
            nodes: vec![],
            metas: vec![],
            closed: vec![],
            frontier: vec![],
            spans: vec![],
            frontier_seg: None,
            closed_segs: vec![],
        };
        let bytes = journal.encode();
        assert!(Journal::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Journal::decode(&bytes).is_ok());
    }

    #[test]
    fn spill_round_trip_and_ddd() {
        let dir = tmp("tier");
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        let a = [
            MachineState::from_values(&[1, 2, 3]),
            MachineState::from_values(&[3, 2, 1]),
        ];
        let b = [MachineState::from_values(&[2, 1, 3])];
        tier.spill_span(1, 5, &a);
        tier.spill_span(1, 7, &b);
        tier.note_fresh(100, 5);
        tier.note_fresh(200, 7);
        tier.seal_frontier();
        assert_eq!(tier.spilled_open, 2);
        // DDD against a closed segment holding key 200 kills id 7.
        tier.append_closed(0, vec![(200, 2), (150, 1)]);
        let dead = tier.ddd_filter();
        assert_eq!(dead, vec![7]);
        assert_eq!(tier.ddd_dedup_hits, 1);
        // Streamed fetch skips the dead record in stride.
        assert_eq!(tier.fetch_span(5), &a[..]);
        // Journal round trip through the tier.
        let journal = Journal {
            fingerprint: 9,
            g: 1,
            bound: 11,
            budget: 0,
            min_perm: vec![],
            goals: vec![],
            counters: ShardStats::default(),
            spilled_open: tier.spilled_open,
            spilled_closed: tier.spilled_closed,
            ddd_dedup_hits: tier.ddd_dedup_hits,
            spilled_bytes: tier.spilled_bytes,
            spill_segments: tier.segments_created,
            nodes: vec![],
            metas: vec![],
            closed: vec![],
            frontier: vec![5],
            spans: vec![],
            frontier_seg: tier.frontier_seg(),
            closed_segs: tier.closed_segs(),
        };
        tier.write_journal(&journal);
        let loaded = load_journal(&dir, 9).unwrap();
        assert_eq!(loaded.frontier, vec![5]);
        verify_segments(&dir, &loaded).unwrap();
        assert!(matches!(
            load_journal(&dir, 10),
            Err(ResumeError::ConfigMismatch { .. })
        ));
        // A torn byte inside a referenced segment is detected, not replayed.
        let seg = loaded.frontier_seg.clone().unwrap();
        let seg_path = dir.join(&seg.name);
        let mut bytes = fs::read(&seg_path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&seg_path, &bytes).unwrap();
        let err = verify_segments(&dir, &loaded).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        tier.cleanup();
    }

    #[test]
    fn consumed_segment_outlives_the_checkpoint_that_drops_it() {
        // A consumed frontier segment may only be deleted after the next
        // journal rename: a SIGKILL between seal and rename must leave the
        // durable journal with every file it references still on disk.
        let dir = tmp("gc");
        let mut tier = SpillTier::new(dir.clone(), 0).unwrap();
        tier.spill_span(1, 0, &[MachineState::from_values(&[1, 2])]);
        tier.seal_frontier(); // layer-1 segment becomes the read target
        let first = dir.join("frontier-1.seg");
        tier.spill_span(2, 1, &[MachineState::from_values(&[2, 1])]);
        tier.seal_frontier(); // layer 1 consumed — must NOT delete yet
        assert!(
            first.exists(),
            "consumed segment deleted before the checkpoint rename"
        );
        let journal = Journal {
            fingerprint: 9,
            g: 2,
            bound: 11,
            budget: 0,
            min_perm: vec![],
            goals: vec![],
            counters: ShardStats::default(),
            spilled_open: tier.spilled_open,
            spilled_closed: tier.spilled_closed,
            ddd_dedup_hits: tier.ddd_dedup_hits,
            spilled_bytes: tier.spilled_bytes,
            spill_segments: tier.segments_created,
            nodes: vec![],
            metas: vec![],
            closed: vec![],
            frontier: vec![1],
            spans: vec![],
            frontier_seg: tier.frontier_seg(),
            closed_segs: tier.closed_segs(),
        };
        tier.write_journal(&journal);
        assert!(
            !first.exists(),
            "checkpoint rename must gc consumed segments"
        );
        let loaded = load_journal(&dir, 9).unwrap();
        verify_segments(&dir, &loaded).unwrap();
        tier.cleanup();
    }

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
