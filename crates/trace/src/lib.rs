//! # rana-trace — telemetry & energy accounting for the RANA reproduction
//!
//! A zero-cost-when-disabled, deterministic telemetry layer. The runtime
//! crates (`rana-core`, `rana-accel`, `rana-edram`, `rana-serve`) emit
//! typed [`Event`]s at their decision points — schedule selection, refresh
//! divider programming, thermal sensing, memo-cache lookups, serving
//! dispatch — through a pluggable [`Sink`]. A per-run [`Registry`]
//! aggregates hierarchical counters, span timings and the paper's Eq. 14
//! energy ledger into a [`TelemetryReport`].
//!
//! ## Zero cost when off
//!
//! Every emission site is guarded by [`enabled`], a single relaxed atomic
//! load. When no session is active the guard is false, no event is
//! constructed, no string is allocated, and existing outputs stay
//! byte-identical. Tracing is opted into per run via [`Session::start`]
//! with a [`TraceConfig`].
//!
//! ## Determinism
//!
//! Events carry only workload-derived data (names, tilings, energies,
//! fingerprints) — never timestamps or machine state — and sinks observe
//! them in sequence order, so a fixed workload produces a byte-identical
//! JSONL stream. Wall-clock span timings live only in the aggregate
//! report, and [`TelemetryReport::to_json`] can omit them for
//! deterministic artifacts.
//!
//! The ledger is a float sum, so worker pools fold it in input order via
//! [`hold_ledgers`] and [`replay_ledgers`], bit-exact at any thread count.
//!
//! ```
//! use rana_trace::{Event, EnergyLedger, Session, TraceConfig};
//!
//! let session = Session::start(TraceConfig::Ring { capacity: 64 });
//! // ... run a workload; instrumented crates emit events ...
//! rana_trace::emit(|| Event::ThermalSample {
//!     at: "layer0".into(),
//!     temp_c: 45.0,
//!     scaled_retention_us: 734.0,
//! });
//! rana_trace::ledger(&EnergyLedger { computing_j: 1e-3, ..Default::default() });
//! let report = session.finish();
//! assert_eq!(report.events_emitted, 1);
//! assert!((report.ledger.total_j() - 1e-3).abs() < 1e-15);
//! ```

#![warn(missing_docs)]

mod event;
mod report;
mod sink;

pub use event::{json_f64, json_string, EnergyLedger, Event};
pub use report::{Registry, SpanStats, TelemetryReport};
pub use sink::{JsonlSink, NullSink, RingSink, SharedRing, SharedRingSink, Sink, TraceConfig};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

thread_local! {
    /// Ledgers held by [`hold_ledgers`] on this thread (`None` outside it).
    static HELD: RefCell<Option<Vec<EnergyLedger>>> = const { RefCell::new(None) };
}

/// Fast global "is any session active" flag; emission sites check this
/// before doing anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active session's shared state, if any.
static CURRENT: Mutex<Option<Arc<SessionState>>> = Mutex::new(None);

/// Serializes whole sessions: tests (which run in parallel threads under
/// `cargo test`) each start a session, and two concurrent sessions would
/// interleave their events. Held by [`Session`] for its lifetime.
static SESSION_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

struct SessionState {
    inner: Mutex<SessionInner>,
}

struct SessionInner {
    seq: u64,
    sink: Box<dyn Sink>,
    registry: Registry,
}

/// Whether a tracing session is currently active.
///
/// This is the only cost tracing imposes on an untraced run: one relaxed
/// atomic load per emission site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_state<R>(f: impl FnOnce(&mut SessionInner) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let state = CURRENT.lock().unwrap().clone()?;
    let mut inner = state.inner.lock().unwrap();
    Some(f(&mut inner))
}

/// Emits one event if tracing is active. The closure runs only when a
/// session exists, so event construction (and its allocations) is free
/// when tracing is off.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    with_state(|inner| {
        let event = build();
        inner.registry.count_event(event.kind());
        if let Some(ledger) = event.ledger() {
            fold_ledger(&mut inner.registry, ledger);
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.sink.record(seq, &event);
    });
}

/// Adds `n` to the hierarchical counter at the dotted `path` (no event is
/// recorded — counters are aggregation-only and cheap enough for warm
/// paths).
#[inline]
pub fn count(path: &str, n: u64) {
    if !enabled() {
        return;
    }
    with_state(|inner| inner.registry.add(path, n));
}

/// Accumulates one finalized per-layer Eq. 14 ledger into the report
/// without emitting an event. Used by emission sites that already emitted
/// a [`Event::ScheduleChosen`] elsewhere, or that only need the ledger.
#[inline]
pub fn ledger(l: &EnergyLedger) {
    if !enabled() {
        return;
    }
    with_state(|inner| fold_ledger(&mut inner.registry, l));
}

/// Folds `l` into the registry, or into this thread's [`hold_ledgers`] list.
fn fold_ledger(registry: &mut Registry, l: &EnergyLedger) {
    if HELD.with(|h| h.borrow_mut().as_mut().map(|held| held.push(*l))).is_none() {
        registry.add_ledger(l);
    }
}

/// Runs `f`, holding back the ledgers it folds on this thread; returns
/// them in fold order for [`replay_ledgers`]. Holds nest.
pub fn hold_ledgers<R>(f: impl FnOnce() -> R) -> (R, Vec<EnergyLedger>) {
    let outer = HELD.with(|h| h.borrow_mut().replace(Vec::new()));
    let out = f();
    (out, HELD.with(|h| std::mem::replace(&mut *h.borrow_mut(), outer)).unwrap_or_default())
}

/// Folds ledgers returned by [`hold_ledgers`], in order, here.
pub fn replay_ledgers(ledgers: &[EnergyLedger]) {
    ledgers.iter().for_each(ledger);
}

/// Times the enclosed closure and records it as a span named `name` when
/// tracing is active; otherwise just runs the closure.
///
/// Span wall-times land only in the aggregate [`TelemetryReport`]
/// (non-deterministic section), never in the event stream.
#[inline]
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_secs_f64();
    with_state(|inner| inner.registry.record_span(name, elapsed));
    out
}

/// An active tracing session. Starting a session flips the global
/// [`enabled`] flag; dropping or [`finish`](Session::finish)ing it turns
/// tracing back off and yields the aggregated [`TelemetryReport`].
///
/// Sessions are globally exclusive: a second `Session::start` blocks until
/// the first finishes. This serializes tests that trace and guarantees a
/// JSONL file never interleaves two workloads.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
    state: Arc<SessionState>,
}

impl Session {
    /// Starts a session writing through the sink selected by `config`.
    ///
    /// [`TraceConfig::Off`] still creates a session (with a null sink and
    /// live counters) — passing `Off` is how callers say "aggregate but
    /// keep no events"; to not trace at all, simply don't start a session.
    pub fn start(config: TraceConfig) -> Session {
        let guard = SESSION_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let sink = config.into_sink().unwrap_or_else(|| Box::new(NullSink));
        let state = Arc::new(SessionState {
            inner: Mutex::new(SessionInner { seq: 0, sink, registry: Registry::new() }),
        });
        *CURRENT.lock().unwrap() = Some(state.clone());
        ENABLED.store(true, Ordering::SeqCst);
        Session { _guard: guard, state }
    }

    /// Snapshot of everything aggregated so far (counters, spans, ledger,
    /// event counts), without ending the session.
    pub fn snapshot(&self) -> TelemetryReport {
        let inner = self.state.inner.lock().unwrap();
        inner.registry.clone().into_report(inner.seq, inner.sink.dropped())
    }

    /// Ends the session, flushes the sink, and returns the aggregated
    /// report. Tracing is disabled before this returns.
    pub fn finish(self) -> TelemetryReport {
        ENABLED.store(false, Ordering::SeqCst);
        CURRENT.lock().unwrap().take();
        // Emitters that cloned the state Arc before the disable may still
        // hold it briefly; draining through the mutex (rather than
        // Arc::try_unwrap) is race-free either way.
        let mut inner = self.state.inner.lock().unwrap();
        inner.sink.flush();
        let seq = inner.seq;
        let dropped = inner.sink.dropped();
        std::mem::take(&mut inner.registry).into_report(seq, dropped)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // `finish` consumes self, so reaching Drop with tracing enabled
        // means the session is being abandoned (e.g. a panic in a test):
        // turn the global flag off so later code isn't traced into a dead
        // sink.
        ENABLED.store(false, Ordering::SeqCst);
        CURRENT.lock().unwrap().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test here. Sessions are process-global, so a test
    /// that checks the disabled state would otherwise see another test's
    /// session, including one started the instant a `finish` released
    /// the session lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Takes [`TEST_LOCK`], surviving a panicked holder.
    fn test_lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_emit_is_a_noop() {
        let _lock = test_lock();
        assert!(!enabled());
        emit(|| panic!("event constructed while tracing disabled"));
        count("never", 1);
        ledger(&EnergyLedger::default());
        let x = span("never", || 42);
        assert_eq!(x, 42);
    }

    #[test]
    fn session_collects_events_counters_and_ledger() {
        let _lock = test_lock();
        let session = Session::start(TraceConfig::Ring { capacity: 4 });
        emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 1, hit: true });
        emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 2, hit: false });
        count("cache.schedule.hit", 1);
        count("cache.schedule.miss", 1);
        ledger(&EnergyLedger { computing_j: 2.0, buffer_j: 1.0, refresh_j: 0.5, offchip_j: 0.5 });
        let report = session.finish();
        assert!(!enabled());
        assert_eq!(report.events_emitted, 2);
        assert_eq!(report.event_counts["cache_lookup"], 2);
        assert_eq!(report.hit_rate("cache.schedule"), Some(0.5));
        assert_eq!(report.ledger.total_j(), 4.0);
        assert_eq!(report.ledger_layers, 1);
    }

    #[test]
    fn schedule_chosen_feeds_ledger_automatically() {
        let _lock = test_lock();
        let session = Session::start(TraceConfig::CountersOnly);
        emit(|| Event::ScheduleChosen {
            network: "alexnet".into(),
            layer: "conv1".into(),
            pattern: "OD".into(),
            tiling: [16, 16, 1, 16],
            energy: EnergyLedger {
                computing_j: 1.0,
                buffer_j: 0.0,
                refresh_j: 0.0,
                offchip_j: 0.0,
            },
        });
        let report = session.finish();
        assert_eq!(report.ledger_layers, 1);
        assert_eq!(report.ledger.computing_j, 1.0);
    }

    #[test]
    fn held_ledgers_replay_in_caller_order() {
        let _lock = test_lock();
        let session = Session::start(TraceConfig::CountersOnly);
        let l = |x| EnergyLedger { computing_j: x, ..Default::default() };
        let ((), outer) = hold_ledgers(|| {
            ledger(&l(1.0));
            let ((), inner) = hold_ledgers(|| ledger(&l(2.0)));
            assert_eq!(inner, vec![l(2.0)]);
            replay_ledgers(&inner);
        });
        assert_eq!(outer, vec![l(1.0), l(2.0)]);
        assert_eq!(session.snapshot().ledger_layers, 0);
        replay_ledgers(&outer);
        let report = session.finish();
        assert_eq!(report.ledger_layers, 2);
        assert_eq!(report.ledger.computing_j, 3.0);
    }

    #[test]
    fn ring_overflow_surfaces_in_report() {
        let _lock = test_lock();
        let session = Session::start(TraceConfig::Ring { capacity: 2 });
        for k in 0..5 {
            emit(|| Event::CacheLookup { cache: "c".into(), fingerprint: k, hit: false });
        }
        assert_eq!(session.snapshot().events_dropped, 3);
        let report = session.finish();
        assert_eq!(report.events_emitted, 5);
        assert_eq!(report.events_dropped, 3);
        assert!(report.to_json(true).contains("\"events_dropped\": 3"));
    }

    #[test]
    fn spans_recorded_only_inside_session() {
        let _lock = test_lock();
        let session = Session::start(TraceConfig::CountersOnly);
        let out = span("work", || 7);
        assert_eq!(out, 7);
        let report = session.finish();
        assert_eq!(report.spans["work"].count, 1);
    }
}
