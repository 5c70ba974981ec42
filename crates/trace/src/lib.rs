//! # rana-trace — telemetry & energy accounting for the RANA reproduction
//!
//! A zero-cost-when-disabled, deterministic telemetry layer. The runtime
//! crates (`rana-core`, `rana-accel`, `rana-edram`, `rana-serve`) emit
//! typed [`Event`]s at their decision points — schedule selection, refresh
//! divider programming, thermal sensing, memo-cache lookups, serving
//! dispatch — through a pluggable [`Sink`]. A per-run [`Registry`]
//! aggregates hierarchical counters, span timings and the paper's Eq. 14
//! energy ledger into a [`TelemetryReport`]. A session started with
//! [`TraceConfig::Metrics`] also folds every event into a
//! [`metrics::Registry`] of histograms, gauges and per-tenant SLO
//! trackers.
//!
//! ## Zero cost when off
//!
//! Every emission site is guarded by [`enabled`]. While no session exists
//! anywhere in the process that guard is a single relaxed atomic load: no
//! event is constructed, no string is allocated, and existing outputs stay
//! byte-identical. Tracing is opted into per run via [`Session::start`]
//! with a [`TraceConfig`].
//!
//! ## Sessions are per thread
//!
//! A session is installed on the thread that starts it, and only that
//! thread's emission sites reach it, so concurrent runs (and tests) never
//! see each other's events. The worker pool (`rana_core::par::par_map`)
//! installs the caller's session in each worker through a [`Handle`], so
//! work fanned over the pool is recorded as if it ran inline.
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
//! let session = Session::start(TraceConfig::CountersOnly);
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
#![forbid(unsafe_code)]

mod event;
pub mod json;
pub mod metrics;
mod report;
mod sink;

pub use event::{EnergyLedger, Event};
pub use json::{json_f64, json_string};
pub use report::{Registry, SpanStats, TelemetryReport};
pub use sink::{JsonlSink, NullSink, RingSink, SharedRing, SharedRingSink, Sink, TraceConfig};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    /// The session installed on this thread, if any.
    static CURRENT: RefCell<Option<Arc<Mutex<State>>>> = const { RefCell::new(None) };
    /// Ledgers held by [`hold_ledgers`] on this thread (`None` outside it).
    static HELD: RefCell<Option<Vec<EnergyLedger>>> = const { RefCell::new(None) };
}

/// Live sessions in the process. While it is zero, every emission site
/// returns after this one relaxed load. `Relaxed` suffices because the
/// count publishes no data: a thread only records into a session it
/// installed itself, or entered through a [`Handle`] it was handed.
static SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// One session's aggregation state, shared with the pool workers that
/// inherit it.
struct State {
    seq: u64,
    sink: Box<dyn Sink>,
    registry: Registry,
    /// The [`TraceConfig::Metrics`] registry (`None` for other configs).
    metrics: Option<metrics::Registry>,
}

/// Locks a session's state; fails only if a thread panicked while
/// recording into it.
fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().expect("a thread panicked while recording into this session")
}

/// Whether a tracing session is installed on the calling thread.
///
/// This is the only cost tracing imposes on an untraced run: one relaxed
/// atomic load per emission site while no session exists anywhere.
#[inline]
pub fn enabled() -> bool {
    SESSIONS.load(Ordering::Relaxed) != 0 && CURRENT.with(|c| c.borrow().is_some())
}

/// Runs `f` on the calling thread's session state, if one is installed.
#[inline]
fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    if SESSIONS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| Some(f(&mut lock(c.borrow().as_ref()?))))
}

/// Emits one event if tracing is active. The closure runs only when a
/// session exists, so event construction (and its allocations) is free
/// when tracing is off.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    with_state(|state| {
        let event = build();
        state.registry.count_event(event.kind());
        if let Some(ledger) = event.ledger() {
            fold_ledger(&mut state.registry, ledger);
        }
        if let Some(reg) = &mut state.metrics {
            metrics::apply_event(reg, &event);
        }
        let seq = state.seq;
        state.seq += 1;
        state.sink.record(seq, &event);
    });
}

/// Adds `n` to the hierarchical counter at the dotted `path` (no event is
/// recorded — counters are aggregation-only and cheap enough for warm
/// paths).
#[inline]
pub fn count(path: &str, n: u64) {
    with_state(|state| state.registry.add(path, n));
}

/// Accumulates one finalized per-layer Eq. 14 ledger into the report
/// without emitting an event. Used by emission sites that already emitted
/// a [`Event::ScheduleChosen`] elsewhere, or that only need the ledger.
#[inline]
pub fn ledger(l: &EnergyLedger) {
    with_state(|state| fold_ledger(&mut state.registry, l));
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
    with_state(|state| state.registry.record_span(name, elapsed));
    out
}

/// The session installed on one thread, captured so that other threads
/// can record into it. The worker pool captures the caller's and enters
/// it on every worker.
///
/// ```
/// use rana_trace::{Handle, Session, TraceConfig};
///
/// let session = Session::start(TraceConfig::CountersOnly);
/// let handle = Handle::current();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         assert!(!rana_trace::enabled());
///         handle.enter(|| rana_trace::count("worker", 1));
///     });
/// });
/// assert_eq!(session.finish().counter("worker"), 1);
/// ```
pub struct Handle(Option<Arc<Mutex<State>>>);

impl Handle {
    /// Captures the calling thread's session (an empty handle when none
    /// is installed).
    pub fn current() -> Handle {
        Handle(CURRENT.with(|c| c.borrow().clone()))
    }

    /// Runs `f` with this handle's session installed on the calling
    /// thread, then restores whatever was installed before.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.replace(self.0.clone()));
        let out = f();
        CURRENT.with(|c| *c.borrow_mut() = prev);
        out
    }
}

/// An active tracing session. Starting one installs it on the calling
/// thread; dropping or [`finish`](Session::finish)ing it uninstalls it
/// and yields the aggregated [`TelemetryReport`].
///
/// Sessions are per thread, inherited by `par_map`: only the starting
/// thread and the pool workers it fans out to (see [`Handle`]) record
/// into a session, so sessions on different threads never mix. A session
/// started on a thread that already has one shadows it until finished.
/// A session cannot move to another thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<rana_trace::Session>();
/// ```
pub struct Session {
    state: Arc<Mutex<State>>,
    /// What this session shadows on its thread, restored when it ends.
    prev: Option<Arc<Mutex<State>>>,
    /// Pins the session to the thread whose slot it occupies.
    _thread: PhantomData<*const ()>,
}

impl Session {
    /// Starts a session on the calling thread, writing through the sink
    /// selected by `config`.
    pub fn start(config: TraceConfig) -> Session {
        let metrics = matches!(config, TraceConfig::Metrics).then(metrics::Registry::new);
        let state = Arc::new(Mutex::new(State {
            seq: 0,
            sink: config.into_sink(),
            registry: Registry::new(),
            metrics,
        }));
        let prev = CURRENT.with(|c| c.replace(Some(state.clone())));
        SESSIONS.fetch_add(1, Ordering::Relaxed);
        Session { state, prev, _thread: PhantomData }
    }

    /// Snapshot of everything aggregated so far (counters, spans, ledger,
    /// event counts, metrics), without ending the session.
    pub fn snapshot(&self) -> TelemetryReport {
        let state = lock(&self.state);
        TelemetryReport {
            metrics: state.metrics.clone(),
            ..state.registry.clone().into_report(state.seq, state.sink.dropped())
        }
    }

    /// Ends the session, flushes the sink, and returns the aggregated
    /// report, with the metrics registry of a [`TraceConfig::Metrics`]
    /// session. The session is uninstalled before this returns.
    pub fn finish(self) -> TelemetryReport {
        let state = self.state.clone();
        drop(self);
        let mut state = lock(&state);
        state.sink.flush();
        let (seq, dropped) = (state.seq, state.sink.dropped());
        TelemetryReport {
            metrics: state.metrics.take(),
            ..std::mem::take(&mut state.registry).into_report(seq, dropped)
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // A session dropped during thread teardown has no slot left to clear.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
        SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_is_a_noop() {
        assert!(!enabled());
        emit(|| panic!("event constructed while tracing disabled"));
        count("never", 1);
        ledger(&EnergyLedger::default());
        let x = span("never", || 42);
        assert_eq!(x, 42);
    }

    #[test]
    fn session_collects_events_counters_and_ledger() {
        let session = Session::start(TraceConfig::CountersOnly);
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
        let session = Session::start(TraceConfig::Custom(Box::new(SharedRing::new(2).sink())));
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
        let session = Session::start(TraceConfig::CountersOnly);
        let out = span("work", || 7);
        assert_eq!(out, 7);
        let report = session.finish();
        assert_eq!(report.spans["work"].count, 1);
    }

    #[test]
    fn nested_session_shadows_until_finished() {
        let outer = Session::start(TraceConfig::CountersOnly);
        count("outer", 1);
        let inner = Session::start(TraceConfig::CountersOnly);
        count("inner", 1);
        assert_eq!(inner.finish().counter("outer"), 0);
        count("outer", 1);
        let report = outer.finish();
        assert_eq!((report.counter("outer"), report.counter("inner")), (2, 0));
        assert!(!enabled());
    }
}
