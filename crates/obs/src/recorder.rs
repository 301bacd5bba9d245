//! The flight recorder: a bounded, crash-safe, on-disk ring of search
//! progress snapshots for post-mortem analysis of hour-scale runs.
//!
//! # On-disk format
//!
//! A recording is one or two [`crate::segment`] files (`<path>` plus, after
//! a rotation, `<path>.1` holding the previous segment): magic `SSFLIGHT`,
//! version 2 (v1 recordings stay readable), one record per frame, tagged
//! with the frame's `seq` (a frame number that keeps increasing across
//! rotations), whose payload is the frame body below.
//!
//! Every [`FlightRecorder::record`] appends one record, so a crash
//! (including a panicking search worker) can tear at most the final frame
//! — which [`read_recording`] then drops, keeping the intact prefix. The
//! snapshot delivered just before the crash is therefore always
//! recoverable: callers feed the recorder from a progress hook whose
//! delivery precedes the panic propagation.
//!
//! Boundedness: when the live segment exceeds its byte budget the recorder
//! rotates it aside to `<path>.1` (dropping the previous `.1`) and starts a
//! fresh segment, so a recording holds at most two segments ≈ 2× the
//! budget no matter how long the run — the "ring" is chunked at segment
//! granularity to keep every append a pure O(frame) write.
//!
//! # Frame payload
//!
//! A [`SearchProgress`] in little-endian fields, then a per-shard table:
//!
//! ```text
//! elapsed_micros u64
//! column* u64        (the schema's COLUMNS in table order; an absent
//!                     f_bound is u64::MAX)
//! flags u8 (bit0 finished, bit1 distance_table_skipped)
//! outcome_len u8 | outcome bytes (UTF-8, empty = none)
//! shard_count u32 | shard* { interned_states u64, arena_bytes u64, open_depth u64 }
//! ```
//!
//! A segment at version `v` holds exactly the columns whose `since ≤ v`.
//! Version 2 appended the six external-memory counters to the v1 block;
//! the reader keys the layout off the segment header's version and decodes
//! v1 recordings with those fields zeroed, so old recordings stay
//! inspectable.

use std::fs;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use crate::names;
use crate::progress::{SearchProgress, ShardSnapshot, COLUMNS};
use crate::segment::{self, SegmentWriter};

/// Segment magic; eight bytes so the header is naturally aligned.
pub const MAGIC: &[u8; 8] = b"SSFLIGHT";
/// Format version written by new recordings.
pub const VERSION: u32 = 2;
/// Oldest segment version the reader still decodes.
pub const MIN_VERSION: u32 = 1;
/// Default live-segment byte budget before rotation (per segment; a
/// recording keeps the live segment plus one rotated predecessor).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Encodes one frame payload: every [`COLUMNS`] entry as a `u64` (an
/// absent bound as `u64::MAX`), then the flags, outcome, and shard table.
fn encode(p: &SearchProgress, out: &mut Vec<u8>) {
    out.extend_from_slice(&(p.elapsed.as_micros() as u64).to_le_bytes());
    for col in COLUMNS {
        out.extend_from_slice(&(col.get)(p).unwrap_or(u64::MAX).to_le_bytes());
    }
    let flags = (p.finished as u8) | ((p.distance_table_skipped as u8) << 1);
    out.push(flags);
    let outcome = p.outcome.as_deref().unwrap_or("");
    let outcome = &outcome.as_bytes()[..outcome.len().min(255)];
    out.push(outcome.len() as u8);
    out.extend_from_slice(outcome);
    out.extend_from_slice(&(p.shards.len() as u32).to_le_bytes());
    for shard in &p.shards {
        for v in shard.values() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decodes a payload written at format `version`: columns introduced
/// after `version` are absent from the payload and read as 0.
fn decode(payload: &[u8], version: u32) -> Option<SearchProgress> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let mut p = SearchProgress {
        elapsed: Duration::from_micros(cur.u64()?),
        ..SearchProgress::default()
    };
    for col in COLUMNS.iter().filter(|c| c.since <= version) {
        let v = cur.u64()?;
        if !(col.nullable && v == u64::MAX) {
            (col.set)(&mut p, v);
        }
    }
    let flags = cur.u8()?;
    p.finished = flags & 0b1 != 0;
    p.distance_table_skipped = flags & 0b10 != 0;
    let outcome_len = cur.u8()? as usize;
    let outcome_bytes = cur.bytes(outcome_len)?;
    if outcome_len > 0 {
        p.outcome = Some(String::from_utf8(outcome_bytes.to_vec()).ok()?);
    }
    let shard_count = cur.u32()? as usize;
    // A frame never carries more shards than bytes remaining allow.
    if shard_count > cur.remaining() / 24 {
        return None;
    }
    p.shards = (0..shard_count)
        .map(|_| {
            Some(ShardSnapshot::from_values([
                cur.u64()?,
                cur.u64()?,
                cur.u64()?,
            ]))
        })
        .collect::<Option<_>>()?;
    Some(p)
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

struct Inner {
    segment: SegmentWriter,
    next_seq: u64,
}

/// A live recording: append-only, checksummed, rotated at the segment byte
/// budget. Thread-safe (a progress hook may fire from any worker).
pub struct FlightRecorder {
    path: PathBuf,
    segment_bytes: u64,
    inner: Mutex<Inner>,
}

/// The rotated-predecessor path for a recording at `path`.
pub fn rotated_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".1");
    PathBuf::from(name)
}

impl FlightRecorder {
    /// Creates (truncating) a recording at `path` with the default segment
    /// budget.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<FlightRecorder> {
        FlightRecorder::with_segment_bytes(path, DEFAULT_SEGMENT_BYTES)
    }

    /// Creates a recording whose live segment rotates once it exceeds
    /// `segment_bytes` (floored to one frame per segment).
    pub fn with_segment_bytes(
        path: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> io::Result<FlightRecorder> {
        let path = path.into();
        // A fresh recording owns both segment slots.
        let _ = fs::remove_file(rotated_path(&path));
        let segment = SegmentWriter::create(&path, MAGIC, VERSION)?;
        Ok(FlightRecorder {
            path,
            segment_bytes,
            inner: Mutex::new(Inner {
                segment,
                next_seq: 0,
            }),
        })
    }

    /// The live segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one snapshot as a frame and returns the frame number the
    /// recorder assigned; flushed before returning, so the frame survives
    /// any later crash.
    pub fn record(&self, progress: &SearchProgress) -> io::Result<u64> {
        let mut payload = Vec::with_capacity(128);
        encode(progress, &mut payload);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.segment.bytes() > self.segment_bytes.max(1) {
            // Rotate: the live segment becomes `.1` (dropping the previous
            // one) and a fresh segment takes its place. Sequence numbers
            // keep counting, so a reader stitches segments unambiguously.
            let _ = fs::remove_file(rotated_path(&self.path));
            fs::rename(&self.path, rotated_path(&self.path))?;
            inner.segment = SegmentWriter::create(&self.path, MAGIC, VERSION)?;
            names::counter(names::RECORDER_ROTATIONS_TOTAL).inc();
        }
        let before = inner.segment.bytes();
        inner.segment.append(seq, &payload)?;
        names::counter(names::RECORDER_FRAMES_TOTAL).inc();
        names::counter(names::RECORDER_BYTES_TOTAL).add(inner.segment.bytes() - before);
        Ok(seq)
    }
}

/// What [`read_recording`] recovered.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Intact frames, oldest first (stitched across segments).
    pub frames: Vec<SearchProgress>,
    /// Frame numbers, one per entry of `frames`: monotonic across
    /// rotations.
    pub seqs: Vec<u64>,
    /// Segment files read.
    pub segments: u32,
    /// Bytes discarded as torn or corrupt (0 on a clean read).
    pub lost_bytes: u64,
    /// Whether a torn/corrupt tail (or bad header) was hit in any segment.
    pub rejected_tail: bool,
}

fn read_segment(path: &Path, recording: &mut Recording) -> io::Result<bool> {
    let scan = segment::scan(
        path,
        MAGIC,
        MIN_VERSION..=VERSION,
        |version, seq, payload| Some((seq, decode(payload, version)?)),
    );
    let scan = match scan {
        Ok(scan) => scan,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    recording.segments += 1;
    recording.lost_bytes += scan.lost_bytes;
    recording.rejected_tail |= scan.rejected_tail;
    for (seq, frame) in scan.records {
        recording.seqs.push(seq);
        recording.frames.push(frame);
    }
    Ok(true)
}

/// Loads a recording: the rotated predecessor segment (if any) followed by
/// the live segment, torn tails dropped per segment. Errors only on a
/// missing live segment or an I/O failure; corruption is reported in the
/// returned [`Recording`], never fatal.
pub fn read_recording(path: impl AsRef<Path>) -> io::Result<Recording> {
    let path = path.as_ref();
    let mut recording = Recording::default();
    read_segment(&rotated_path(path), &mut recording)?;
    if !read_segment(path, &mut recording)? {
        return Err(io::Error::new(
            ErrorKind::NotFound,
            format!("no recording at {}", path.display()),
        ));
    }
    Ok(recording)
}

#[cfg(test)]
mod tests {
    use super::*;
    // The recorder's frame checksum, as the hand-encoded segments below
    // spell it.
    use crate::segment::flight_fnv as fnv1a;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssflight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("run.ssfr")
    }

    fn frame(expanded: u64) -> SearchProgress {
        SearchProgress {
            elapsed: Duration::from_micros(expanded * 10),
            expanded,
            generated: expanded * 7,
            open: 42,
            f_bound: Some(5),
            viability_pruned: 3,
            cut_pruned: 2,
            dedup_hits: 1,
            dead_write_pruned: 0,
            value_flow_pruned: 4,
            spilled_open: expanded / 3,
            spilled_closed: expanded / 5,
            ddd_dedup_hits: 6,
            resumed_frontier_states: 0,
            resident_bytes: expanded * 64,
            spilled_bytes: expanded * 16,
            distance_table_skipped: false,
            finished: false,
            outcome: None,
            shards: vec![
                ShardSnapshot {
                    interned_states: expanded,
                    arena_bytes: expanded * 100,
                    open_depth: 21,
                },
                ShardSnapshot {
                    interned_states: expanded / 2,
                    arena_bytes: expanded * 50,
                    open_depth: 21,
                },
            ],
        }
    }

    /// Golden pin: the v2 payload of one fully populated frame, byte for
    /// byte. A change here breaks every recording already on disk.
    #[test]
    fn v2_frame_encoding_is_pinned() {
        let mut f = frame(300);
        f.f_bound = Some(9);
        f.dead_write_pruned = 8;
        f.resumed_frontier_states = 12;
        f.distance_table_skipped = true;
        f.finished = true;
        f.outcome = Some("Solved".into());
        let mut bytes = Vec::new();
        encode(&f, &mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            // elapsed_micros, expanded, generated, open, f_bound
            "b80b000000000000",
            "2c01000000000000",
            "3408000000000000",
            "2a00000000000000",
            "0900000000000000",
            // viability, cut, dedup, dead-write, value-flow
            "0300000000000000",
            "0200000000000000",
            "0100000000000000",
            "0800000000000000",
            "0400000000000000",
            // v2: spilled open/closed, DDD, resumed, resident, spilled bytes
            "6400000000000000",
            "3c00000000000000",
            "0600000000000000",
            "0c00000000000000",
            "004b000000000000",
            "c012000000000000",
            // flags, outcome "Solved", two shards
            "0306536f6c766564",
            "02000000",
            "2c01000000000000",
            "3075000000000000",
            "1500000000000000",
            "9600000000000000",
            "983a000000000000",
            "1500000000000000",
        );
        assert_eq!(hex, golden);
    }

    /// Golden pin: a whole two-frame segment as `FlightRecorder` writes it —
    /// header, then per frame `seq`, length, checksum and payload.
    #[test]
    fn two_frame_segment_is_pinned() {
        let path = tmp("pin");
        let rec = FlightRecorder::create(&path).unwrap();
        for expanded in [1u64, 2] {
            let mut f = SearchProgress {
                elapsed: Duration::from_micros(expanded * 1000),
                expanded,
                generated: expanded * 7,
                ..SearchProgress::default()
            };
            f.finished = expanded == 2;
            rec.record(&f).unwrap();
        }
        drop(rec);
        let hex: String = fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN_SEGMENT);
    }

    const GOLDEN_SEGMENT: &str = concat!(
        // header: "SSFLIGHT", version 2
        "5353464c4947485402000000",
        // frame 0: seq, payload_len 134, checksum
        "0000000000000000",
        "86000000",
        "620ca72406b7d1cb",
        // elapsed, expanded, generated, open, f_bound (absent)
        "e803000000000000",
        "0100000000000000",
        "0700000000000000",
        "0000000000000000",
        "ffffffffffffffff",
        // the other eleven counters, all zero
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000",
        // flags, outcome_len 0, shard_count 0
        "000000000000",
        // frame 1: seq, payload_len 134, checksum
        "0100000000000000",
        "86000000",
        "25fba2d064648f1d",
        // elapsed, expanded, generated, open, f_bound (absent)
        "d007000000000000",
        "0200000000000000",
        "0e00000000000000",
        "0000000000000000",
        "ffffffffffffffff",
        // the other eleven counters, all zero
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000",
        // flags, outcome_len 0, shard_count 0
        "010000000000",
    );

    #[test]
    fn record_then_read_round_trips() {
        let path = tmp("rt");
        let rec = FlightRecorder::create(&path).unwrap();
        for i in 1..=3u64 {
            rec.record(&frame(i * 100)).unwrap();
        }
        let mut done = frame(400);
        done.finished = true;
        done.outcome = Some("Solved".into());
        rec.record(&done).unwrap();
        let recording = read_recording(&path).unwrap();
        assert_eq!(recording.frames.len(), 4);
        assert!(!recording.rejected_tail && recording.lost_bytes == 0);
        assert_eq!(recording.segments, 1);
        let last = recording.frames.last().unwrap();
        assert_eq!(recording.seqs, [0, 1, 2, 3]);
        assert!(last.finished);
        assert_eq!(last.outcome.as_deref(), Some("Solved"));
        assert_eq!(last.shards.len(), 2);
        assert_eq!(last.shards[0].arena_bytes, 40_000);
        assert_eq!(last.f_bound, Some(5));
        assert_eq!(last.spilled_open, 400 / 3);
        assert_eq!(last.resident_bytes, 400 * 64);
    }

    /// A v1 recording (written before the external-memory counters existed)
    /// must still read back cleanly, with the v2 fields zeroed.
    #[test]
    fn v1_recording_reads_with_zeroed_spill_fields() {
        let path = tmp("v1");
        // Hand-encode a v1 segment: v1 header + one frame whose payload is
        // the 10-field fixed block, flags, outcome, and one shard.
        let mut payload = Vec::new();
        for v in [10u64, 20, 30, 40, u64::MAX, 1, 2, 3, 4, 5] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.push(0b01); // finished
        let outcome = b"Solved";
        payload.push(outcome.len() as u8);
        payload.extend_from_slice(outcome);
        payload.extend_from_slice(&1u32.to_le_bytes());
        for v in [7u64, 700, 9] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(&path, &bytes).unwrap();
        let recording = read_recording(&path).unwrap();
        assert_eq!(recording.frames.len(), 1);
        assert!(!recording.rejected_tail && recording.lost_bytes == 0);
        let f = &recording.frames[0];
        assert_eq!(
            (f.elapsed, f.expanded, f.generated, f.open),
            (Duration::from_micros(10), 20, 30, 40)
        );
        assert_eq!(f.f_bound, None);
        assert_eq!(f.value_flow_pruned, 5);
        assert!(f.finished);
        assert_eq!(f.outcome.as_deref(), Some("Solved"));
        assert_eq!(f.shards.len(), 1);
        assert_eq!(f.shards[0].arena_bytes, 700);
        assert_eq!(
            (f.spilled_open, f.spilled_closed, f.ddd_dedup_hits),
            (0, 0, 0),
            "v1 frames decode with spill fields zeroed"
        );
        assert_eq!(
            (f.resumed_frontier_states, f.resident_bytes, f.spilled_bytes),
            (0, 0, 0)
        );
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let path = tmp("torn");
        let rec = FlightRecorder::create(&path).unwrap();
        rec.record(&frame(100)).unwrap();
        rec.record(&frame(200)).unwrap();
        drop(rec);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let recording = read_recording(&path).unwrap();
        assert_eq!(recording.frames.len(), 1);
        assert_eq!(recording.frames[0].expanded, 100);
        assert!(recording.rejected_tail);
        assert!(recording.lost_bytes > 0);
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let path = tmp("flip");
        let rec = FlightRecorder::create(&path).unwrap();
        rec.record(&frame(100)).unwrap();
        drop(rec);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 9;
        bytes[at] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let recording = read_recording(&path).unwrap();
        assert!(recording.frames.is_empty());
        assert!(recording.rejected_tail);
    }

    #[test]
    fn rotation_bounds_the_recording_and_reader_stitches() {
        let path = tmp("rot");
        // Tiny budget: every few frames force a rotation.
        let rec = FlightRecorder::with_segment_bytes(&path, 256).unwrap();
        for i in 0..40u64 {
            rec.record(&frame(i)).unwrap();
        }
        assert!(rotated_path(&path).exists(), "rotation happened");
        let live = fs::metadata(&path).unwrap().len();
        let old = fs::metadata(rotated_path(&path)).unwrap().len();
        assert!(live + old < 40 * 200, "recording stayed bounded");
        let recording = read_recording(&path).unwrap();
        assert_eq!(recording.segments, 2);
        assert!(!recording.rejected_tail);
        // Stitched frames are consecutive and end at the last append.
        let seqs = &recording.seqs;
        assert_eq!(seqs.len(), recording.frames.len());
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
        assert_eq!(*seqs.last().unwrap(), 39);
        assert!(recording.frames.len() < 40, "old segments were dropped");
    }

    #[test]
    fn missing_recording_is_an_error() {
        let path = tmp("missing");
        assert!(read_recording(&path).is_err());
    }

    #[test]
    fn outcome_longer_than_255_bytes_is_truncated_not_fatal() {
        let path = tmp("long");
        let rec = FlightRecorder::create(&path).unwrap();
        let mut f = frame(1);
        f.outcome = Some("x".repeat(400));
        rec.record(&f).unwrap();
        let recording = read_recording(&path).unwrap();
        assert_eq!(
            recording.frames[0].outcome.as_deref(),
            Some(&"x".repeat(255)[..])
        );
    }
}
