//! The typed metrics registry: counters, gauges, histograms, windowed
//! rates and per-tenant SLO trackers, keyed by name + sorted labels.
//!
//! Every collection is a `BTreeMap`, so iteration — and therefore the
//! Prometheus/JSON exposition in [`expose`](super::expose) — is always in
//! sorted key order regardless of insertion order: a fixed workload
//! produces byte-identical snapshots.

use super::hist::{HistF64, HistI64};
use super::rate::WindowedRate;
use super::slo::{SloObservation, SloSpec, SloTracker};
use std::collections::BTreeMap;
use std::fmt;

/// A metric identity: dotted name plus sorted `(label, value)` pairs.
///
/// ```
/// use rana_trace::metrics::MetricKey;
///
/// let k = MetricKey::new("serve.latency_us").label("tenant", "alexnet");
/// assert_eq!(k.to_string(), "serve.latency_us{tenant=\"alexnet\"}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A label-free key.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), labels: Vec::new() }
    }

    /// Returns the key with one more label, keeping labels sorted (so two
    /// keys with the same labels in different orders are the same key).
    pub fn label(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        let (k, v) = (k.into(), v.into());
        let at = self.labels.partition_point(|(lk, _)| lk.as_str() <= k.as_str());
        self.labels.insert(at, (k, v));
        self
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted label set.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

impl From<&str> for MetricKey {
    fn from(name: &str) -> Self {
        MetricKey::new(name)
    }
}

/// Mutable metrics state for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    pub(crate) counters: BTreeMap<MetricKey, u64>,
    pub(crate) gauges: BTreeMap<MetricKey, f64>,
    pub(crate) hists_f64: BTreeMap<MetricKey, HistF64>,
    pub(crate) hists_i64: BTreeMap<MetricKey, HistI64>,
    pub(crate) rates: BTreeMap<MetricKey, WindowedRate>,
    pub(crate) slos: BTreeMap<String, SloTracker>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter at `key`.
    pub fn counter_add(&mut self, key: impl Into<MetricKey>, n: u64) {
        *self.counters.entry(key.into()).or_insert(0) += n;
    }

    /// Sets the gauge at `key` to `v` (last write wins).
    pub fn gauge_set(&mut self, key: impl Into<MetricKey>, v: f64) {
        self.gauges.insert(key.into(), v);
    }

    /// Records `v` into the f64 histogram at `key` (created on first
    /// use at the default precision).
    pub fn observe_f64(&mut self, key: impl Into<MetricKey>, v: f64) {
        self.hists_f64.entry(key.into()).or_default().record(v);
    }

    /// Records `v` into the i64 histogram at `key`.
    pub fn observe_i64(&mut self, key: impl Into<MetricKey>, v: i64) {
        self.hists_i64.entry(key.into()).or_default().record(v);
    }

    /// Records `n` events at simulated time `t_us` into the windowed rate
    /// at `key`; the estimator is created with `window_us`/`slots` on
    /// first use (later calls reuse the existing window).
    pub fn rate_record(
        &mut self,
        key: impl Into<MetricKey>,
        window_us: f64,
        slots: u64,
        t_us: f64,
        n: u64,
    ) {
        self.rates
            .entry(key.into())
            .or_insert_with(|| WindowedRate::new(window_us, slots))
            .record(t_us, n);
    }

    /// Folds a request outcome into `tenant`'s SLO tracker, creating the
    /// tracker with `spec` on first observation.
    pub fn slo_observe(&mut self, tenant: &str, spec: &SloSpec, obs: SloObservation) {
        self.slos.entry(tenant.to_string()).or_insert_with(|| SloTracker::new(*spec)).observe(obs);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, key: impl Into<MetricKey>) -> u64 {
        self.counters.get(&key.into()).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, key: impl Into<MetricKey>) -> Option<f64> {
        self.gauges.get(&key.into()).copied()
    }

    /// The f64 histogram at `key`, if any value was observed.
    pub fn hist_f64(&self, key: impl Into<MetricKey>) -> Option<&HistF64> {
        self.hists_f64.get(&key.into())
    }

    /// The i64 histogram at `key`, if any value was observed.
    pub fn hist_i64(&self, key: impl Into<MetricKey>) -> Option<&HistI64> {
        self.hists_i64.get(&key.into())
    }

    /// The windowed rate at `key`, if any event was recorded.
    pub fn rate(&self, key: impl Into<MetricKey>) -> Option<&WindowedRate> {
        self.rates.get(&key.into())
    }

    /// The SLO tracker of `tenant`, if observed.
    pub fn slo(&self, tenant: &str) -> Option<&SloTracker> {
        self.slos.get(tenant)
    }

    /// All tenants with SLO trackers, sorted.
    pub fn slo_tenants(&self) -> Vec<&str> {
        self.slos.keys().map(String::as_str).collect()
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge bucket-wise. Windowed rates and SLO
    /// trackers are stream-order-dependent, so `other`'s replace any
    /// colliding entry rather than pretending to merge.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists_f64 {
            self.hists_f64.entry(k.clone()).or_default().merge(h);
        }
        for (k, h) in &other.hists_i64 {
            self.hists_i64.entry(k.clone()).or_default().merge(h);
        }
        for (k, r) in &other.rates {
            self.rates.insert(k.clone(), r.clone());
        }
        for (k, s) in &other.slos {
            self.slos.insert(k.clone(), s.clone());
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists_f64.is_empty()
            && self.hists_i64.is_empty()
            && self.rates.is_empty()
            && self.slos.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_labels_canonically() {
        let a = MetricKey::new("m").label("b", "2").label("a", "1");
        let b = MetricKey::new("m").label("a", "1").label("b", "2");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "m{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn registry_accumulates_each_type() {
        let mut r = Registry::new();
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        r.gauge_set("temp_c", 45.0);
        r.gauge_set("temp_c", 47.5);
        r.observe_f64("lat_us", 100.0);
        r.observe_i64("cycles", 42);
        r.rate_record("arrivals", 1e6, 8, 0.0, 4);
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.gauge("temp_c"), Some(47.5));
        assert_eq!(r.hist_f64("lat_us").unwrap().count(), 1);
        assert_eq!(r.hist_i64("cycles").unwrap().count(), 1);
        assert_eq!(r.rate("arrivals").unwrap().total(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        a.observe_f64("h", 1.0);
        b.observe_f64("h", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.hist_f64("h").unwrap().count(), 2);
    }
}
