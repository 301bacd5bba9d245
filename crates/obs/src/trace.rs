//! Structured tracing: spans with parent links, monotonic timestamps, and
//! pluggable subscribers.
//!
//! Emission is fan-out: every [`Event`] is delivered to each installed
//! [`Subscriber`]. When tracing is [disabled](set_enabled) or no subscriber
//! is installed, span construction and event emission reduce to one relaxed
//! atomic load (plus one atomic increment per span for ID allocation), so
//! instrumented code pays nothing measurable in the common case.
//!
//! Two subscribers ship with the crate: [`RingBuffer`], a bounded
//! latest-events log with a JSON drain (what the service exposes and tests
//! assert on), and [`FileSubscriber`], which streams JSON lines to a file
//! (what the CLI's `--trace` flag uses).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::Level;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Static string — avoids the allocation for well-known names on hot
    /// paths (operation names, outcome tags).
    Static(&'static str),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(s) => write_json_string(out, s),
            FieldValue::Static(s) => write_json_string(out, s),
        }
    }
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was opened.
    SpanStart,
    /// A span closed; carries an `elapsed_us` field.
    SpanEnd,
    /// A point event inside (or outside) a span.
    Point,
    /// A log line mirrored into the event stream.
    Log,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "event",
            EventKind::Log => "log",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the process trace epoch (monotonic).
    pub micros: u64,
    /// What this event marks.
    pub kind: EventKind,
    /// Severity.
    pub level: Level,
    /// Event (or span) name.
    pub name: &'static str,
    /// The span this event belongs to.
    pub span: Option<u64>,
    /// The span's parent, for `SpanStart` events.
    pub parent: Option<u64>,
    /// Structured payload.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Free-form message (log events).
    pub message: Option<String>,
}

impl Event {
    /// Encodes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"ts_us\":{},\"kind\":\"{}\",\"level\":\"{}\",\"name\":",
            self.micros,
            self.kind.name(),
            self.level.name()
        );
        write_json_string(&mut out, self.name);
        if let Some(span) = self.span {
            let _ = write!(out, ",\"span\":{span}");
        }
        if let Some(parent) = self.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        if let Some(message) = &self.message {
            out.push_str(",\"message\":");
            write_json_string(&mut out, message);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, key);
                out.push(':');
                value.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A consumer of trace events. Implementations must be cheap and must not
/// re-enter the tracing facility.
pub trait Subscriber: Send + Sync {
    /// Called once per emitted event, on the emitting thread.
    fn on_event(&self, event: &Event);
}

struct Dispatch {
    subscribers: RwLock<Vec<(u64, Arc<dyn Subscriber>)>>,
    next_id: AtomicU64,
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| Dispatch {
        subscribers: RwLock::new(Vec::new()),
        next_id: AtomicU64::new(1),
    })
}

/// `true` only while tracing is enabled *and* a subscriber is installed —
/// the single flag hot paths check before building an event.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The operator-facing switch (`set_enabled`); on by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

fn refresh_active() {
    let has_subscribers = !dispatch()
        .subscribers
        .read()
        .expect("subscriber list poisoned")
        .is_empty();
    ACTIVE.store(
        ENABLED.load(Ordering::Relaxed) && has_subscribers,
        Ordering::Relaxed,
    );
}

/// Master switch for event emission (metrics are unaffected). Used by the
/// overhead benchmark to compare instrumented and bare runs.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    refresh_active();
}

/// Whether events are currently being delivered to at least one subscriber.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs a subscriber; returns a token for [`remove_subscriber`].
pub fn add_subscriber(subscriber: Arc<dyn Subscriber>) -> u64 {
    let d = dispatch();
    let id = d.next_id.fetch_add(1, Ordering::Relaxed);
    d.subscribers
        .write()
        .expect("subscriber list poisoned")
        .push((id, subscriber));
    refresh_active();
    id
}

/// Removes a subscriber installed by [`add_subscriber`].
pub fn remove_subscriber(id: u64) {
    dispatch()
        .subscribers
        .write()
        .expect("subscriber list poisoned")
        .retain(|(sid, _)| *sid != id);
    refresh_active();
}

/// Microseconds since the process trace epoch (first use of the facility).
pub fn now_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Delivers an event to every installed subscriber (no-op when inactive).
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let subscribers = dispatch()
        .subscribers
        .read()
        .expect("subscriber list poisoned");
    for (_, subscriber) in subscribers.iter() {
        subscriber.on_event(&event);
    }
}

/// Emits a point event outside any span.
pub fn event(level: Level, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    emit(Event {
        micros: now_micros(),
        kind: EventKind::Point,
        level,
        name,
        span: None,
        parent: None,
        fields: fields.to_vec(),
        message: None,
    });
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A traced region of work. Opening emits a `span_start` event; dropping
/// emits `span_end` with the elapsed microseconds. IDs are allocated even
/// while tracing is inactive so parent links stay stable across late
/// subscriber installation, but no events are emitted for inactive spans.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    started: Instant,
    /// Whether the start event was emitted (emit the end only then, so a
    /// subscriber never sees an unpaired `span_end`).
    live: bool,
}

impl Span {
    fn open(
        name: &'static str,
        parent: Option<u64>,
        fields: &[(&'static str, FieldValue)],
    ) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let live = enabled();
        if live {
            emit(Event {
                micros: now_micros(),
                kind: EventKind::SpanStart,
                level: Level::Info,
                name,
                span: Some(id),
                parent,
                fields: fields.to_vec(),
                message: None,
            });
        }
        Span {
            id,
            parent,
            name,
            started: Instant::now(),
            live,
        }
    }

    /// Opens a root span.
    pub fn root(name: &'static str) -> Span {
        Span::open(name, None, &[])
    }

    /// Opens a root span with fields.
    pub fn root_with(name: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        Span::open(name, None, fields)
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        Span::open(name, Some(self.id), &[])
    }

    /// Opens a span as a child of a bare span ID — for parent links that
    /// cross a thread or queue boundary where the parent `Span` itself
    /// cannot be borrowed (e.g. a worker picking up an enqueued request).
    pub fn child_of(parent: u64, name: &'static str) -> Span {
        Span::open(name, Some(parent), &[])
    }

    /// This span's ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Emits a point event inside this span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if !enabled() {
            return;
        }
        emit(Event {
            micros: now_micros(),
            kind: EventKind::Point,
            level: Level::Info,
            name,
            span: Some(self.id),
            parent: self.parent,
            fields: fields.to_vec(),
            message: None,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live || !enabled() {
            return;
        }
        emit(Event {
            micros: now_micros(),
            kind: EventKind::SpanEnd,
            level: Level::Info,
            name: self.name,
            span: Some(self.id),
            parent: self.parent,
            fields: vec![(
                "elapsed_us",
                FieldValue::U64(self.started.elapsed().as_micros() as u64),
            )],
            message: None,
        });
    }
}

/// A bounded ring buffer of the latest events, drainable as JSON.
pub struct RingBuffer {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("ring buffer poisoned")
            .drain(..)
            .collect()
    }

    /// Drains the buffer into one JSON array.
    pub fn drain_json(&self) -> String {
        let events = self.drain();
        let mut out = String::from("[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push(']');
        out
    }
}

impl Subscriber for RingBuffer {
    fn on_event(&self, event: &Event) {
        // Clone outside the lock: the deep copy is the expensive part, and
        // many threads funnel through this mutex on busy servers.
        let event = event.clone();
        let mut events = self.events.lock().expect("ring buffer poisoned");
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

/// Default per-segment byte budget for [`FileSubscriber`] rotation.
pub const TRACE_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;
/// Default number of rotated segments kept next to the live log.
pub const TRACE_KEEP_SEGMENTS: usize = 3;

struct FileWriter {
    writer: BufWriter<File>,
    bytes: u64,
}

/// Streams events to a file as JSON lines (one object per line). Buffered;
/// flushed on [`FileSubscriber::flush`] and on drop.
///
/// Long runs don't grow the log without bound: once the live file exceeds
/// its byte budget it is rotated aside (`<path>.1`, `<path>.2`, …, keeping
/// the newest `keep` rotated segments) and a fresh file takes its place.
pub struct FileSubscriber {
    path: PathBuf,
    segment_bytes: u64,
    keep: usize,
    writer: Mutex<FileWriter>,
}

impl FileSubscriber {
    /// Creates (truncating) the log file with the default rotation policy
    /// ([`TRACE_SEGMENT_BYTES`] per segment, [`TRACE_KEEP_SEGMENTS`] kept).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_rotation(path, TRACE_SEGMENT_BYTES, TRACE_KEEP_SEGMENTS)
    }

    /// Creates (truncating) the log file, rotating whenever it exceeds
    /// `segment_bytes` and keeping the newest `keep` rotated segments.
    pub fn with_rotation(
        path: impl AsRef<Path>,
        segment_bytes: u64,
        keep: usize,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        Ok(FileSubscriber {
            writer: Mutex::new(FileWriter {
                writer: BufWriter::new(File::create(&path)?),
                bytes: 0,
            }),
            path,
            segment_bytes: segment_bytes.max(1),
            keep: keep.max(1),
        })
    }

    /// Flushes buffered events to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.writer
            .lock()
            .expect("trace file poisoned")
            .writer
            .flush()
    }

    fn rotated(&self, n: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    }

    /// Rotates the live file aside and starts a fresh one. Best-effort: a
    /// failed rotation keeps writing to the old file rather than dropping
    /// events.
    fn rotate(&self, state: &mut FileWriter) {
        if state.writer.flush().is_err() {
            return;
        }
        let _ = fs::remove_file(self.rotated(self.keep));
        for n in (1..self.keep).rev() {
            let _ = fs::rename(self.rotated(n), self.rotated(n + 1));
        }
        if fs::rename(&self.path, self.rotated(1)).is_err() {
            return;
        }
        if let Ok(file) = File::create(&self.path) {
            state.writer = BufWriter::new(file);
            state.bytes = 0;
        }
    }
}

impl Subscriber for FileSubscriber {
    fn on_event(&self, event: &Event) {
        let mut state = self.writer.lock().expect("trace file poisoned");
        if state.bytes > self.segment_bytes {
            self.rotate(&mut state);
        }
        let line = event.to_json();
        let _ = state.writer.write_all(line.as_bytes());
        let _ = state.writer.write_all(b"\n");
        state.bytes += line.len() as u64 + 1;
    }
}

impl Drop for FileSubscriber {
    fn drop(&mut self) {
        if let Ok(mut state) = self.writer.lock() {
            let _ = state.writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_parents_and_pair_start_end() {
        let ring = Arc::new(RingBuffer::new(64));
        let id = add_subscriber(ring.clone());
        let root_id;
        let child_id;
        {
            let root = Span::root_with("request", &[("op", FieldValue::Str("synth".into()))]);
            root_id = root.id();
            let child = root.child("search");
            child_id = child.id();
            child.event("progress", &[("expanded", FieldValue::U64(7))]);
        }
        remove_subscriber(id);
        let events = ring.drain();
        assert_eq!(events.len(), 5, "{events:?}");
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].span, Some(root_id));
        assert_eq!(events[1].parent, Some(root_id));
        assert_eq!(events[1].span, Some(child_id));
        assert_eq!(events[2].name, "progress");
        assert_eq!(events[2].field("expanded"), Some(&FieldValue::U64(7)));
        // Children close before parents.
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].span, Some(child_id));
        assert_eq!(events[4].span, Some(root_id));
        assert!(matches!(
            events[3].field("elapsed_us"),
            Some(FieldValue::U64(_))
        ));
    }

    #[test]
    fn ring_buffer_bounds_and_json_drain() {
        let ring = RingBuffer::new(2);
        for i in 0..5u64 {
            ring.on_event(&Event {
                micros: i,
                kind: EventKind::Point,
                level: Level::Info,
                name: "tick",
                span: None,
                parent: None,
                fields: vec![("i", FieldValue::U64(i))],
                message: None,
            });
        }
        assert_eq!(ring.dropped(), 3);
        let json = ring.drain_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"i\":3") && json.contains("\"i\":4"));
        assert!(!json.contains("\"i\":1"));
        assert_eq!(ring.drain().len(), 0, "drain empties the ring");
    }

    #[test]
    fn json_escapes_strings() {
        let event = Event {
            micros: 1,
            kind: EventKind::Log,
            level: Level::Warn,
            name: "log",
            span: None,
            parent: None,
            fields: vec![("path", FieldValue::Str("a\"b\\c\nd".into()))],
            message: Some("line\t1".into()),
        };
        let json = event.to_json();
        assert!(json.contains("\"path\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"message\":\"line\\t1\""));
    }

    #[test]
    fn inactive_tracing_emits_nothing() {
        // No subscriber installed in this scope → spans are silent even
        // though the master switch is on.
        let ring = Arc::new(RingBuffer::new(8));
        {
            let span = Span::root("quiet");
            span.event("e", &[]);
        }
        let id = add_subscriber(ring.clone());
        remove_subscriber(id);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn file_subscriber_rotates_and_flushes_on_drop() {
        let dir = std::env::temp_dir().join(format!("sstrace-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let event = Event {
            micros: 1,
            kind: EventKind::Point,
            level: Level::Info,
            name: "tick",
            span: None,
            parent: None,
            fields: vec![("payload", FieldValue::Str("x".repeat(64)))],
            message: None,
        };
        let line_len = event.to_json().len() as u64 + 1;
        {
            // Cap at ~4 lines per segment, keep 2 rotated segments.
            let file = FileSubscriber::with_rotation(&path, line_len * 4, 2).unwrap();
            for _ in 0..20 {
                file.on_event(&event);
            }
            // Drop flushes the live segment without an explicit flush().
        }
        let live = fs::read_to_string(&path).unwrap();
        assert!(!live.is_empty(), "flush-on-drop wrote buffered events");
        assert!(live.lines().all(|l| l.contains("\"name\":\"tick\"")));
        let seg = |n: usize| {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".{n}"));
            PathBuf::from(name)
        };
        assert!(
            seg(1).exists() && seg(2).exists(),
            "kept 2 rotated segments"
        );
        assert!(!seg(3).exists(), "older segments were discarded");
        let total: u64 = [path.clone(), seg(1), seg(2)]
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        assert!(
            total < 20 * line_len,
            "rotation bounded the log: {total} bytes"
        );
    }
}
