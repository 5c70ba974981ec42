//! # rana-metrics — streaming histograms, SLO tracking and deterministic
//! exposition for the RANA reproduction
//!
//! A zero-cost-when-disabled metrics layer sitting next to `rana-trace`:
//! where the tracer records *what happened* (a typed event stream), this
//! crate records *how it is distributed* — log-linear HDR-style
//! histograms ([`HistI64`]/[`HistF64`]) with bounded relative error and
//! associative merge, windowed rate estimators over simulated time
//! ([`WindowedRate`]), and per-tenant SLO trackers ([`SloTracker`]) for
//! deadline-miss rate, attained percentiles and budget burn rate.
//!
//! ## Wiring
//!
//! Most subsystems need no code changes: they already emit trace events,
//! and [`TraceBridge`] is a `rana_trace::Sink` that folds every event into
//! the active [`MetricsSession`]. Only the serving loop records directly
//! (per-request latency, queue wait and SLO outcomes carry data no event
//! has).
//!
//! ## Zero cost when off
//!
//! Every recording free function is guarded by [`enabled`] — one relaxed
//! atomic load — and takes closures for anything that allocates, so an
//! unmetered run pays nothing and existing BENCH artifacts stay
//! byte-identical.
//!
//! ## Determinism
//!
//! Histogram quantiles are exact functions of bucket state; merge is
//! associative and commutative; rates run on the simulated clock; and the
//! two snapshot forms ([`Registry::to_json`], [`Registry::to_prometheus`])
//! iterate sorted maps with shortest-round-trip float formatting. A fixed
//! workload produces byte-identical snapshots, which is what lets the
//! bench-regression gate diff them against committed baselines.
//!
//! ```
//! use rana_metrics::{MetricKey, MetricsSession};
//!
//! let session = MetricsSession::start();
//! rana_metrics::observe_f64(|| MetricKey::new("serve.latency_us"), 230.0);
//! rana_metrics::counter_add(|| MetricKey::new("serve.requests"), 1);
//! let reg = session.finish();
//! assert_eq!(reg.counter("serve.requests"), 1);
//! assert_eq!(reg.hist_f64("serve.latency_us").unwrap().count(), 1);
//! ```

#![warn(missing_docs)]

mod bridge;
mod expose;
mod hist;
mod rate;
mod registry;
mod slo;

pub use bridge::{apply_event, TraceBridge};
pub use expose::EXPOSED_QUANTILES;
pub use hist::{HistF64, HistI64, DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS};
pub use rate::WindowedRate;
pub use registry::{MetricKey, Registry};
pub use slo::{SloObservation, SloReport, SloSpec, SloTracker};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Fast global "is a metrics session active" flag; every recording site
/// checks this before doing anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active session's registry, if any.
static CURRENT: Mutex<Option<Arc<Mutex<Registry>>>> = Mutex::new(None);

/// Serializes whole sessions, exactly like `rana_trace`: tests run in
/// parallel threads and two concurrent sessions would mix their metrics.
static SESSION_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// Whether a metrics session is currently active.
///
/// This is the only cost metrics impose on an unmetered run: one relaxed
/// atomic load per recording site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the active registry, if any. Recording sites with
/// non-trivial key construction should guard with [`enabled`] first (the
/// free functions below do).
#[inline]
pub fn with(f: impl FnOnce(&mut Registry)) {
    if !enabled() {
        return;
    }
    let Some(reg) = CURRENT.lock().unwrap().clone() else { return };
    f(&mut reg.lock().unwrap());
}

/// Adds `n` to the counter at the key built by `key` (only built when a
/// session is active).
#[inline]
pub fn counter_add(key: impl FnOnce() -> MetricKey, n: u64) {
    with(|r| r.counter_add(key(), n));
}

/// Sets the gauge at the key built by `key`.
#[inline]
pub fn gauge_set(key: impl FnOnce() -> MetricKey, v: f64) {
    with(|r| r.gauge_set(key(), v));
}

/// Records `v` into the f64 histogram at the key built by `key`.
#[inline]
pub fn observe_f64(key: impl FnOnce() -> MetricKey, v: f64) {
    with(|r| r.observe_f64(key(), v));
}

/// Records `v` into the i64 histogram at the key built by `key`.
#[inline]
pub fn observe_i64(key: impl FnOnce() -> MetricKey, v: i64) {
    with(|r| r.observe_i64(key(), v));
}

/// Folds one request outcome into `tenant`'s SLO tracker.
#[inline]
pub fn slo_observe(tenant: &str, spec: &SloSpec, obs: SloObservation) {
    with(|r| r.slo_observe(tenant, spec, obs));
}

/// An active metrics session. Starting one flips the global [`enabled`]
/// flag; finishing (or dropping) it turns metrics back off and yields the
/// final [`Registry`].
///
/// Sessions are globally exclusive: a second `start` blocks until the
/// first finishes, which serializes tests that meter.
pub struct MetricsSession {
    _guard: MutexGuard<'static, ()>,
    registry: Arc<Mutex<Registry>>,
}

impl Default for MetricsSession {
    fn default() -> Self {
        Self::start()
    }
}

impl MetricsSession {
    /// Starts a session with an empty registry.
    pub fn start() -> MetricsSession {
        let guard = SESSION_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let registry = Arc::new(Mutex::new(Registry::new()));
        *CURRENT.lock().unwrap() = Some(registry.clone());
        ENABLED.store(true, Ordering::SeqCst);
        MetricsSession { _guard: guard, registry }
    }

    /// Clone of everything recorded so far, without ending the session.
    pub fn snapshot(&self) -> Registry {
        self.registry.lock().unwrap().clone()
    }

    /// Ends the session and returns the final registry. Metrics are
    /// disabled before this returns.
    pub fn finish(self) -> Registry {
        ENABLED.store(false, Ordering::SeqCst);
        CURRENT.lock().unwrap().take();
        // Recorders that cloned the Arc before the disable may still hold
        // it briefly; draining through the mutex is race-free either way.
        std::mem::take(&mut *self.registry.lock().unwrap())
    }
}

impl Drop for MetricsSession {
    fn drop(&mut self) {
        // `finish` consumes self, so reaching Drop with metrics enabled
        // means the session is being abandoned (e.g. a panicking test):
        // turn the flag off so later code isn't metered into a dead
        // registry.
        ENABLED.store(false, Ordering::SeqCst);
        CURRENT.lock().unwrap().take();
    }
}

/// Serializes this crate's unit tests that start a session or check the
/// disabled state: sessions are process-global, so they would otherwise
/// see each other, including a session started the instant a `finish`
/// released the session lock.
#[cfg(test)]
fn test_lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        let _lock = test_lock();
        assert!(!enabled());
        counter_add(|| panic!("key built while metrics disabled"), 1);
        observe_f64(|| panic!("key built while metrics disabled"), 1.0);
        with(|_| panic!("registry accessed while metrics disabled"));
    }

    #[test]
    fn session_collects_and_finishes() {
        let _lock = test_lock();
        let session = MetricsSession::start();
        assert!(enabled());
        counter_add(|| MetricKey::new("hits"), 2);
        observe_f64(|| MetricKey::new("lat_us"), 10.0);
        observe_i64(|| MetricKey::new("cycles"), 7);
        gauge_set(|| MetricKey::new("temp_c"), 45.0);
        let snap = session.snapshot();
        assert_eq!(snap.counter("hits"), 2);
        let reg = session.finish();
        assert!(!enabled());
        assert_eq!(reg.counter("hits"), 2);
        assert_eq!(reg.hist_f64("lat_us").unwrap().count(), 1);
        assert_eq!(reg.hist_i64("cycles").unwrap().count(), 1);
        assert_eq!(reg.gauge("temp_c"), Some(45.0));
    }

    #[test]
    fn sessions_are_exclusive_and_sequential() {
        let _lock = test_lock();
        let a = MetricsSession::start();
        counter_add(|| MetricKey::new("a"), 1);
        let reg_a = a.finish();
        let b = MetricsSession::start();
        counter_add(|| MetricKey::new("b"), 1);
        let reg_b = b.finish();
        assert_eq!(reg_a.counter("a"), 1);
        assert_eq!(reg_a.counter("b"), 0);
        assert_eq!(reg_b.counter("b"), 1);
        assert_eq!(reg_b.counter("a"), 0);
    }
}
