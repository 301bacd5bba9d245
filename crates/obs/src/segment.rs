//! Checksummed append-only record files: the one on-disk record layer
//! under the kernel cache's log, the flight recorder's segments, and the
//! search engine's spill tier (frontier and closed-set segments and the
//! resume journal).
//!
//! A file is a header (caller-chosen 8-byte magic + version) followed by
//! tagged, length-prefixed records, each guarded by an FNV-1a checksum:
//!
//! ```text
//! header:  magic       (8 bytes)
//!          version     (u32 LE)
//! record*: tag         (u64 LE — the caller's key: a query fingerprint, a
//!                       frame number, a state id, or 0)
//!          payload_len (u32 LE)
//!          checksum    (u64 LE — FNV-1a of the payload bytes)
//!          payload
//! ```
//!
//! (Flight recordings checksum with `flight_fnv`, a variant of FNV-1a
//! their writer has always used; every other file uses [`fnv1a`].)
//!
//! Every append is flushed before it returns, so a crash tears at most the
//! final record. A reader refuses a record whose declared length exceeds
//! [`MAX_RECORD`] or the bytes left in the file before it allocates the
//! payload. Two read disciplines exist:
//!
//! * **Tolerant** ([`scan`]): a torn, corrupt, or undecodable record ends
//!   the read, keeping the intact prefix and reporting the rest as lost —
//!   the kernel cache's recovery and the flight recorder's post-mortem.
//! * **Strict** ([`SegmentReader::open_strict`] with a known valid length):
//!   any checksum mismatch, short record, or length disagreement *within
//!   the recorded valid length* is a hard [`SegmentError`] — the spill
//!   tier's behavior, because a resume journal that references bytes it
//!   cannot trust must fail loudly, never silently replay.
//!
//! [`write_atomic`] replaces a whole file (cache compaction and repair, the
//! journal checkpoint) from a lazily consumed stream of records: temp file,
//! fsync, rename, directory fsync.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Hard cap on one record payload; anything larger is corruption.
pub const MAX_RECORD: u32 = 64 * 1024 * 1024;
/// File header bytes: magic + version.
const HEADER_LEN: u64 = 12;
/// Record header bytes: tag + payload length + checksum.
const RECORD_HEAD: u64 = 20;

/// FNV-1a 64 — the record checksum, and the workspace's one fingerprint
/// hash (cache keys, gate stamps, spill configuration fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv(0x0000_0100_0000_01b3, bytes)
}

/// The flight recorder's record checksum: FNV-1a with `0x1_0000_01b3` in
/// place of the FNV prime `0x100_0000_01b3`, as the recorder has written
/// it since its first version. Kept so recordings already on disk verify.
pub(crate) fn flight_fnv(bytes: &[u8]) -> u64 {
    fnv(0x1_0000_01b3, bytes)
}

fn fnv(prime: u64, bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(prime);
    }
    hash
}

/// The checksum records carry in a file with `magic`.
fn checksum_for(magic: &[u8; 8]) -> fn(&[u8]) -> u64 {
    if magic == crate::recorder::MAGIC {
        flight_fnv
    } else {
        fnv1a
    }
}

/// Why a strict segment read failed.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header's magic or version did not match.
    BadHeader { path: PathBuf },
    /// A record's checksum did not match its payload, or a record was torn
    /// inside the segment's recorded valid length.
    Checksum { path: PathBuf, at: u64 },
    /// The file is shorter than the recorded valid length.
    Truncated {
        path: PathBuf,
        expected: u64,
        actual: u64,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
            SegmentError::BadHeader { path } => {
                write!(f, "bad segment header in {}", path.display())
            }
            SegmentError::Checksum { path, at } => write!(
                f,
                "segment checksum mismatch in {} at byte {at} (torn or corrupt record)",
                path.display()
            ),
            SegmentError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "segment {} truncated: {actual} bytes on disk, {expected} recorded",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// Appends checksummed records to a segment file.
pub struct SegmentWriter {
    file: BufWriter<File>,
    checksum: fn(&[u8]) -> u64,
    bytes: u64,
    records: u64,
}

impl SegmentWriter {
    /// Creates (truncating) a segment at `path` with the given magic and
    /// version.
    pub fn create(path: impl Into<PathBuf>, magic: &[u8; 8], version: u32) -> io::Result<Self> {
        SegmentWriter::open(path.into(), magic, version, true)
    }

    /// Opens the segment at `path` for appending, writing the header only
    /// when the file is empty or new — the kernel cache's log, which
    /// outlives any one writer. The caller has already read (or repaired)
    /// an existing file, so its header is not checked here.
    pub fn open_append(
        path: impl Into<PathBuf>,
        magic: &[u8; 8],
        version: u32,
    ) -> io::Result<Self> {
        SegmentWriter::open(path.into(), magic, version, false)
    }

    fn open(path: PathBuf, magic: &[u8; 8], version: u32, truncate: bool) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .append(!truncate)
            .truncate(truncate)
            .open(&path)?;
        let mut bytes = file.metadata()?.len();
        if bytes == 0 {
            let mut header = [0u8; HEADER_LEN as usize];
            header[..8].copy_from_slice(magic);
            header[8..].copy_from_slice(&version.to_le_bytes());
            file.write_all(&header)?;
            file.flush()?;
            bytes = HEADER_LEN;
        }
        Ok(SegmentWriter {
            file: BufWriter::new(file),
            checksum: checksum_for(magic),
            bytes,
            records: 0,
        })
    }

    /// Appends one record, flushed before returning so the record
    /// survives any later crash of this process. A record that fits the
    /// write buffer goes out in one write; a larger one is not copied.
    pub fn append(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "oversized record"
        );
        self.file.write_all(&tag.to_le_bytes())?;
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file
            .write_all(&(self.checksum)(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.file.flush()?;
        self.bytes += RECORD_HEAD + payload.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Bytes in the file so far (header + records) — the valid length a
    /// journal records for strict re-reads.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended by this writer.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Streams records back out of a segment.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    file: BufReader<File>,
    checksum: fn(&[u8]) -> u64,
    version: u32,
    /// Bytes of header and returned records.
    consumed: u64,
    /// Where the records end: the recorded valid length (strict) or the
    /// file's length at open (tolerant).
    end: u64,
    strict: bool,
    /// Whether a defect ended a tolerant read.
    torn: bool,
}

impl SegmentReader {
    /// Opens a segment strictly against a recorded valid length: every byte
    /// up to `valid_len` must parse and checksum, or the read fails.
    pub fn open_strict(
        path: impl Into<PathBuf>,
        magic: &[u8; 8],
        version: u32,
        valid_len: u64,
    ) -> Result<Self, SegmentError> {
        SegmentReader::new(path.into(), magic, version..=version, Some(valid_len))
    }

    /// Strict against `valid_len` when it is given; tolerant otherwise (a
    /// defect ends the stream, which [`scan`] builds on).
    fn new(
        path: PathBuf,
        magic: &[u8; 8],
        versions: RangeInclusive<u32>,
        valid_len: Option<u64>,
    ) -> Result<Self, SegmentError> {
        let file = File::open(&path)?;
        let actual = file.metadata()?.len();
        if let Some(expected) = valid_len.filter(|&v| actual < v) {
            return Err(SegmentError::Truncated {
                path,
                expected,
                actual,
            });
        }
        let mut file = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        let read = matches!(read_exact_or_eof(&mut file, &mut header), Ok(true));
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if !read || &header[..8] != magic || !versions.contains(&version) {
            return Err(SegmentError::BadHeader { path });
        }
        Ok(SegmentReader {
            path,
            file,
            checksum: checksum_for(magic),
            version,
            consumed: HEADER_LEN,
            end: valid_len.unwrap_or(actual),
            strict: valid_len.is_some(),
            torn: false,
        })
    }

    /// The next record's tag and payload, `Ok(None)` at the (valid) end of
    /// the segment. In strict mode any defect before the valid length is an
    /// error; in tolerant mode it ends the stream.
    // Not `Iterator`: the fallible `Result<Option<_>>` shape would have to
    // flip to `Option<Result<_>>` and every caller wants `?` on the outside.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(u64, Vec<u8>)>, SegmentError> {
        if self.consumed >= self.end {
            return Ok(None);
        }
        let mut head = [0u8; RECORD_HEAD as usize];
        if !matches!(read_exact_or_eof(&mut self.file, &mut head), Ok(true)) {
            return self.defect();
        }
        let tag = u64::from_le_bytes(head[0..8].try_into().unwrap());
        let payload_len = u32::from_le_bytes(head[8..12].try_into().unwrap());
        let checksum = u64::from_le_bytes(head[12..20].try_into().unwrap());
        // The one length bound, checked before the payload is allocated.
        if payload_len > MAX_RECORD || self.consumed + RECORD_HEAD + payload_len as u64 > self.end {
            return self.defect();
        }
        let mut payload = vec![0u8; payload_len as usize];
        if !matches!(read_exact_or_eof(&mut self.file, &mut payload), Ok(true))
            || (self.checksum)(&payload) != checksum
        {
            return self.defect();
        }
        self.consumed += RECORD_HEAD + payload_len as u64;
        Ok(Some((tag, payload)))
    }

    fn defect(&mut self) -> Result<Option<(u64, Vec<u8>)>, SegmentError> {
        if self.strict {
            return Err(SegmentError::Checksum {
                path: self.path.clone(),
                at: self.consumed,
            });
        }
        self.torn = true;
        Ok(None)
    }
}

fn read_exact_or_eof(file: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "torn record"))
                }
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// What a tolerant [`scan`] recovered from one file.
#[derive(Debug)]
pub struct Scan<T> {
    /// The header's version; `None` when the header was missing, foreign,
    /// or outside the accepted range, which loses the whole file.
    pub version: Option<u32>,
    /// The intact prefix, decoded, in file order.
    pub records: Vec<T>,
    /// Bytes after the intact prefix (0 on a clean read).
    pub lost_bytes: u64,
    /// Whether a bad header or a torn, oversized, corrupt, or undecodable
    /// record ended the read.
    pub rejected_tail: bool,
}

/// Reads the file at `path` tolerantly — the write-ahead-log discipline: each
/// record goes through `decode(version, tag, payload)` in order until the
/// first one that is torn, oversized, corrupt, or that `decode` refuses,
/// and everything from there on is lost. A missing file is an
/// [`ErrorKind::NotFound`] error; damage never is.
pub fn scan<T>(
    path: &Path,
    magic: &[u8; 8],
    versions: RangeInclusive<u32>,
    mut decode: impl FnMut(u32, u64, &[u8]) -> Option<T>,
) -> io::Result<Scan<T>> {
    let mut reader = match SegmentReader::new(path.to_path_buf(), magic, versions, None) {
        Ok(reader) => reader,
        Err(SegmentError::Io(e)) => return Err(e),
        Err(_) => {
            return Ok(Scan {
                version: None,
                records: Vec::new(),
                lost_bytes: fs::metadata(path)?.len(),
                rejected_tail: true,
            })
        }
    };
    let mut records = Vec::new();
    let mut kept = reader.consumed;
    while let Ok(Some((tag, payload))) = reader.next() {
        let Some(record) = decode(reader.version, tag, &payload) else {
            reader.torn = true;
            break;
        };
        records.push(record);
        kept = reader.consumed;
    }
    Ok(Scan {
        version: Some(reader.version),
        records,
        lost_bytes: reader.end - kept,
        rejected_tail: reader.torn,
    })
}

/// Atomically replaces `path` with a segment holding `records` (tag,
/// payload): written to `<path>.tmp`, fsynced, renamed into place, and the
/// directory fsynced, so a reader or a crash sees the old file or the new
/// one, never a mix, and the new one stays once this returns.
pub fn write_atomic<P: AsRef<[u8]>>(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    records: impl IntoIterator<Item = (u64, P)>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut w = SegmentWriter::create(&tmp, magic, version)?;
    for (tag, payload) in records {
        w.append(tag, payload.as_ref())?;
    }
    w.file.get_ref().sync_all()?;
    drop(w);
    fs::rename(&tmp, path)?;
    // The rename is durable only once the directory holding it is synced.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssseg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("seg.bin")
    }

    const MAGIC: &[u8; 8] = b"SSTESTSG";

    fn payloads(path: &Path, versions: RangeInclusive<u32>) -> Scan<(u64, Vec<u8>)> {
        scan(path, MAGIC, versions, |_, tag, payload| {
            Some((tag, payload.to_vec()))
        })
        .unwrap()
    }

    #[test]
    fn round_trip_and_valid_length() {
        let path = tmp("rt");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(7, b"alpha").unwrap();
        w.append(0, b"beta").unwrap();
        let valid = w.bytes();
        assert_eq!(w.records(), 2);
        assert_eq!(valid, 12 + 20 + 5 + 20 + 4);
        drop(w);
        let mut r = SegmentReader::open_strict(&path, MAGIC, 1, valid).unwrap();
        assert_eq!(r.next().unwrap(), Some((7, b"alpha".to_vec())));
        assert_eq!(r.next().unwrap(), Some((0, b"beta".to_vec())));
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn append_open_writes_the_header_once() {
        let path = tmp("append");
        let mut w = SegmentWriter::open_append(&path, MAGIC, 1).unwrap();
        w.append(1, b"first").unwrap();
        drop(w);
        let mut w = SegmentWriter::open_append(&path, MAGIC, 1).unwrap();
        assert_eq!(w.bytes(), 12 + 20 + 5);
        w.append(2, b"second").unwrap();
        assert_eq!(w.bytes(), fs::metadata(&path).unwrap().len());
        drop(w);
        let read = payloads(&path, 1..=1);
        assert_eq!(
            read.records,
            [(1, b"first".to_vec()), (2, b"second".to_vec())]
        );
        assert!(!read.rejected_tail && read.lost_bytes == 0);
    }

    #[test]
    fn strict_read_reports_bit_flip() {
        let path = tmp("flip");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(0, b"payload-bytes").unwrap();
        let valid = w.bytes();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut r = SegmentReader::open_strict(&path, MAGIC, 1, valid).unwrap();
        let err = r.next().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn strict_read_reports_truncation() {
        let path = tmp("trunc");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(0, b"will be cut").unwrap();
        let valid = w.bytes();
        drop(w);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let err = SegmentReader::open_strict(&path, MAGIC, 1, valid).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Two ways a crash or bit rot damages the last record: its bytes are
    /// cut short, or its length field claims more bytes than the file has
    /// left. Either way the tolerant reader keeps the prefix and reports
    /// the tail as lost, and the strict reader fails.
    #[test]
    fn tolerant_read_drops_torn_tail() {
        let cut: fn(&mut Vec<u8>) = |bytes| bytes.truncate(bytes.len() - 5);
        let overlong: fn(&mut Vec<u8>) = |bytes| {
            // The second record's payload_len, now one byte past the end of
            // the file and far under MAX_RECORD.
            let at = 12 + 20 + 4 + 8;
            let left = (bytes.len() - at - 12) as u32;
            bytes[at..at + 4].copy_from_slice(&(left + 1).to_le_bytes());
        };
        for (label, damage) in [("cut", cut), ("overlong", overlong)] {
            let path = tmp(&format!("torn-{label}"));
            let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
            w.append(1, b"kept").unwrap();
            let kept = w.bytes();
            w.append(2, b"torn-away").unwrap();
            drop(w);
            let mut bytes = fs::read(&path).unwrap();
            damage(&mut bytes);
            fs::write(&path, &bytes).unwrap();
            let read = payloads(&path, 1..=1);
            assert_eq!(read.records, [(1, b"kept".to_vec())], "{label}");
            assert!(read.rejected_tail, "{label}");
            assert_eq!(read.lost_bytes, bytes.len() as u64 - kept, "{label}");
            let mut strict =
                SegmentReader::open_strict(&path, MAGIC, 1, bytes.len() as u64).unwrap();
            assert!(strict.next().unwrap().is_some(), "{label}");
            assert!(strict.next().is_err(), "{label}: strict read accepted it");
        }
    }

    #[test]
    fn tolerant_read_stops_where_decode_refuses() {
        let path = tmp("decode");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(1, b"good").unwrap();
        let kept = w.bytes();
        w.append(2, b"bad").unwrap();
        w.append(3, b"good").unwrap();
        drop(w);
        let read = scan(&path, MAGIC, 1..=1, |_, tag, p| {
            (p == b"good").then_some(tag)
        })
        .unwrap();
        assert_eq!(read.records, [1]);
        assert!(read.rejected_tail);
        assert_eq!(read.lost_bytes, fs::metadata(&path).unwrap().len() - kept);
    }

    #[test]
    fn tolerant_read_accepts_a_version_range() {
        let path = tmp("versions");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(0, b"v1").unwrap();
        drop(w);
        let old = payloads(&path, 1..=2);
        assert_eq!((old.version, old.records.len()), (Some(1), 1));
        let refused = payloads(&path, 2..=2);
        assert_eq!(refused.version, None);
        assert!(refused.records.is_empty() && refused.rejected_tail);
        assert_eq!(refused.lost_bytes, fs::metadata(&path).unwrap().len());
        assert!(matches!(
            SegmentReader::open_strict(&path, MAGIC, 2, 12),
            Err(SegmentError::BadHeader { .. })
        ));
    }

    #[test]
    fn atomic_write_round_trips_and_detects_corruption() {
        // Records go out in order, each checksummed on its own, so a reader
        // streams a replaced file record by record (the spill journal).
        let path = tmp("atomic");
        let records = [&b"journal-"[..], b"state-", b"tail"];
        write_atomic(&path, MAGIC, 3, records.map(|c| (0, c))).unwrap();
        assert!(!path.with_extension("bin.tmp").exists());
        let len = fs::metadata(&path).unwrap().len();
        let mut r = SegmentReader::open_strict(&path, MAGIC, 3, len).unwrap();
        for chunk in records {
            assert_eq!(r.next().unwrap(), Some((0, chunk.to_vec())));
        }
        assert!(r.next().unwrap().is_none());
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let mut r = SegmentReader::open_strict(&path, MAGIC, 3, len).unwrap();
        assert!(r.next().is_ok() && r.next().is_ok());
        assert!(r.next().is_err());
    }

    #[test]
    fn wrong_magic_is_a_bad_header() {
        let path = tmp("magic");
        let mut w = SegmentWriter::create(&path, MAGIC, 1).unwrap();
        w.append(0, b"x").unwrap();
        drop(w);
        assert!(matches!(
            SegmentReader::open_strict(&path, b"WRONGMGC", 1, 12),
            Err(SegmentError::BadHeader { .. })
        ));
        let read = scan(&path, b"WRONGMGC", 1..=1, |_, _, _| Some(())).unwrap();
        assert_eq!((read.version, read.rejected_tail), (None, true));
    }
}
