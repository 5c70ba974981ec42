//! Pluggable event sinks and the [`TraceConfig`] that selects one.
//!
//! A [`Sink`] receives every emitted [`Event`] together with its session
//! sequence number. The tracer calls sinks under the session lock, so a
//! sink observes events in exactly the order they were assigned sequence
//! numbers — a `JsonlSink` file is therefore sorted by `seq` with no gaps.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Destination for emitted events.
///
/// Implementations must tolerate being called from multiple threads, but
/// never concurrently: the session serializes `record` calls.
pub trait Sink: Send {
    /// Record one event. `seq` is the session-wide sequence number,
    /// starting at 0 and dense (no gaps).
    fn record(&mut self, seq: u64, event: &Event);
    /// Flush any buffered output. Called when the session finishes.
    fn flush(&mut self) {}
    /// Events this sink received but could not retain (ring eviction,
    /// failed writes). Surfaced as `TelemetryReport::events_dropped` so a
    /// truncated trace is never mistaken for a complete one.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every event; counters and the ledger still aggregate.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _seq: u64, _event: &Event) {}
}

/// Fixed-capacity in-memory ring buffer keeping the most recent events.
///
/// On overflow the oldest event is dropped; [`RingSink::dropped`] counts
/// how many were lost so tests (and reports) can detect truncation.
///
/// ```
/// use rana_trace::{Event, RingSink, Sink};
///
/// let mut ring = RingSink::new(2);
/// for seq in 0..5 {
///     ring.record(seq, &Event::CacheLookup { cache: "schedule".into(), fingerprint: seq, hit: false });
/// }
/// assert_eq!(ring.dropped(), 3);
/// let seqs: Vec<u64> = ring.events().iter().map(|(seq, _)| *seq).collect();
/// assert_eq!(seqs, vec![3, 4]); // oldest evicted first
/// ```
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: std::collections::VecDeque<(u64, Event)>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: std::collections::VecDeque::with_capacity(capacity.max(1)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first, each with its sequence number.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.events.iter().cloned().collect()
    }

    /// Number of events evicted due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for RingSink {
    fn record(&mut self, seq: u64, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((seq, event.clone()));
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Streams events as one JSON object per line to a file.
///
/// Lines are written in sequence order and the float formatting is
/// shortest-round-trip, so a deterministic workload produces a
/// byte-identical file.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: BufWriter<File>,
    lines: u64,
    attempts: u64,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let writer = BufWriter::new(File::create(&path)?);
        Ok(JsonlSink { path, writer, lines: 0, attempts: 0 })
    }

    /// Path the sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, seq: u64, event: &Event) {
        // I/O errors are swallowed rather than panicking inside the
        // traced hot path; the line count lets callers detect short files.
        self.attempts += 1;
        if writeln!(self.writer, "{}", event.to_json(seq)).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }

    fn dropped(&self) -> u64 {
        self.attempts - self.lines
    }
}

/// A ring sink behind a shared handle, so a caller can keep reading it
/// while the tracer owns the `Sink` half.
///
/// ```
/// use rana_trace::{Event, SharedRing, Sink};
///
/// let shared = SharedRing::new(8);
/// let mut sink = shared.sink();
/// sink.record(0, &Event::CacheLookup { cache: "c".into(), fingerprint: 1, hit: true });
/// assert_eq!(shared.snapshot().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SharedRing {
    inner: std::sync::Arc<Mutex<RingSink>>,
}

impl SharedRing {
    /// Creates a shared ring with the given capacity.
    pub fn new(capacity: usize) -> Self {
        SharedRing { inner: std::sync::Arc::new(Mutex::new(RingSink::new(capacity))) }
    }

    /// A `Sink` handle feeding this ring; hand it to `Session::start`.
    pub fn sink(&self) -> SharedRingSink {
        SharedRingSink { inner: self.inner.clone() }
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, Event)> {
        self.inner.lock().unwrap().events()
    }

    /// Events evicted due to overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped()
    }
}

/// The `Sink` half of a [`SharedRing`].
#[derive(Debug)]
pub struct SharedRingSink {
    inner: std::sync::Arc<Mutex<RingSink>>,
}

impl Sink for SharedRingSink {
    fn record(&mut self, seq: u64, event: &Event) {
        self.inner.lock().unwrap().record(seq, event);
    }

    fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped()
    }
}

/// Selects how a tracing session writes events out.
pub enum TraceConfig {
    /// Aggregate counters and the energy ledger only; events are dropped.
    CountersOnly,
    /// [`CountersOnly`](Self::CountersOnly), plus a
    /// [`metrics::Registry`](crate::metrics::Registry) that every event
    /// is folded into; the serving loop also records into it directly
    /// ([`metrics::record`](crate::metrics::record)).
    Metrics,
    /// Keep the most recent `capacity` events in memory.
    Ring {
        /// Ring capacity in events.
        capacity: usize,
    },
    /// Stream events to a JSONL file at `path`.
    Jsonl {
        /// Output file path (created/truncated at session start).
        path: PathBuf,
    },
    /// Use a caller-provided sink.
    Custom(Box<dyn Sink>),
}

impl TraceConfig {
    /// Builds the sink for this configuration. I/O failure opening a
    /// JSONL file degrades to a null sink (the session still aggregates
    /// counters).
    pub fn into_sink(self) -> Box<dyn Sink> {
        match self {
            TraceConfig::CountersOnly | TraceConfig::Metrics => Box::new(NullSink),
            TraceConfig::Ring { capacity } => Box::new(RingSink::new(capacity)),
            TraceConfig::Jsonl { path } => match JsonlSink::create(&path) {
                Ok(sink) => Box::new(sink),
                Err(_) => Box::new(NullSink),
            },
            TraceConfig::Custom(sink) => sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(seq: u64) -> Event {
        Event::CacheLookup { cache: "t".into(), fingerprint: seq, hit: seq.is_multiple_of(2) }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for seq in 0..10 {
            ring.record(seq, &lookup(seq));
        }
        assert_eq!(ring.dropped(), 7);
        let seqs: Vec<u64> = ring.events().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn ring_capacity_zero_clamps_to_one() {
        let mut ring = RingSink::new(0);
        ring.record(0, &lookup(0));
        ring.record(1, &lookup(1));
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("rana_trace_sink_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(0, &lookup(0));
            sink.record(1, &lookup(1));
            sink.flush();
            assert_eq!(sink.lines(), 2);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with("{\"seq\":")));
        let _ = std::fs::remove_file(&path);
    }
}
