//! Aggregation: hierarchical counters, span timing statistics and the
//! per-run [`TelemetryReport`].
//!
//! Counters are keyed by dotted paths (`scheduler.candidates`,
//! `cache.schedule.hit`) so a report groups naturally by subsystem.
//! Span statistics record wall-clock time and are therefore *not* part of
//! any byte-deterministic artifact; [`TelemetryReport::to_json`] has a
//! `deterministic` switch that omits them (and can be diffed across runs),
//! while the full form feeds `results/BENCH_trace.json` where wall-time
//! regressions are the point.

use crate::event::{json_f64, json_string, EnergyLedger};
use std::collections::BTreeMap;

/// Aggregated statistics for one named span (e.g. `par.map`,
/// `scheduler.search_layer`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock time across spans, seconds.
    pub total_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
}

impl SpanStats {
    /// Mean span duration in seconds (0 when no spans completed).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// Mutable aggregation state owned by a tracing session.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
    ledger: EnergyLedger,
    ledger_layers: u64,
    event_counts: BTreeMap<&'static str, u64>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter at the dotted `path`.
    pub fn add(&mut self, path: &str, n: u64) {
        *self.counters.entry(path.to_string()).or_insert(0) += n;
    }

    /// Records one completed span under `name`.
    pub fn record_span(&mut self, name: &str, seconds: f64) {
        let s = self.spans.entry(name.to_string()).or_default();
        s.count += 1;
        s.total_s += seconds;
        if seconds > s.max_s {
            s.max_s = seconds;
        }
    }

    /// Accumulates one finalized per-layer Eq. 14 ledger.
    pub fn add_ledger(&mut self, l: &EnergyLedger) {
        self.ledger.accumulate(l);
        self.ledger_layers += 1;
    }

    /// Bumps the per-kind event counter.
    pub fn count_event(&mut self, kind: &'static str) {
        *self.event_counts.entry(kind).or_insert(0) += 1;
    }

    /// Freezes this registry into a report. `events_emitted` is the
    /// session's final sequence counter; `events_dropped` is what the
    /// sink reported losing (ring eviction, failed writes).
    pub fn into_report(self, events_emitted: u64, events_dropped: u64) -> TelemetryReport {
        TelemetryReport {
            events_emitted,
            events_dropped,
            event_counts: self.event_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            counters: self.counters,
            spans: self.spans,
            ledger: self.ledger,
            ledger_layers: self.ledger_layers,
            metrics: None,
        }
    }
}

/// Immutable per-run telemetry summary produced by
/// [`Session::finish`](crate::Session::finish).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Total events emitted (final sequence counter).
    pub events_emitted: u64,
    /// Events the sink failed to retain (ring eviction, failed writes);
    /// nonzero means the event stream is truncated.
    pub events_dropped: u64,
    /// Events per kind label.
    pub event_counts: BTreeMap<String, u64>,
    /// Hierarchical dotted-path counters.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock span statistics (non-deterministic across runs).
    pub spans: BTreeMap<String, SpanStats>,
    /// Sum of all finalized per-layer Eq. 14 ledgers.
    pub ledger: EnergyLedger,
    /// Number of per-layer ledgers folded into [`Self::ledger`].
    pub ledger_layers: u64,
    /// The metrics registry of a
    /// [`TraceConfig::Metrics`](crate::TraceConfig::Metrics) session
    /// (`None` for every other configuration). Not part of
    /// [`Self::to_json`].
    pub metrics: Option<crate::metrics::Registry>,
}

impl TelemetryReport {
    /// Counter value at `path` (0 when absent).
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// Cache hit rate for the dotted cache prefix (e.g. `cache.schedule`),
    /// computed from its `.hit` / `.miss` counters. `None` until at least
    /// one lookup was counted.
    pub fn hit_rate(&self, cache_prefix: &str) -> Option<f64> {
        let hits = self.counter(&format!("{cache_prefix}.hit"));
        let misses = self.counter(&format!("{cache_prefix}.miss"));
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Serializes the report to a JSON object.
    ///
    /// With `deterministic = true` the wall-clock span block is replaced
    /// by span *counts* only, making the output byte-stable for a fixed
    /// workload; `false` includes total/mean/max seconds for
    /// `results/BENCH_trace.json`-style performance records.
    pub fn to_json(&self, deterministic: bool) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"events_emitted\": {},\n", self.events_emitted));
        s.push_str(&format!("  \"events_dropped\": {},\n", self.events_dropped));

        s.push_str("  \"event_counts\": {");
        let mut first = true;
        for (k, v) in &self.event_counts {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    {}: {}", json_string(k), v));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });

        s.push_str("  \"counters\": {");
        first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    {}: {}", json_string(k), v));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });

        s.push_str("  \"spans\": {");
        first = true;
        for (k, v) in &self.spans {
            if !first {
                s.push(',');
            }
            first = false;
            if deterministic {
                s.push_str(&format!("\n    {}: {{\"count\": {}}}", json_string(k), v.count));
            } else {
                s.push_str(&format!(
                    "\n    {}: {{\"count\": {}, \"total_s\": {}, \"mean_s\": {}, \"max_s\": {}}}",
                    json_string(k),
                    v.count,
                    json_f64(v.total_s),
                    json_f64(v.mean_s()),
                    json_f64(v.max_s),
                ));
            }
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });

        s.push_str(&format!(
            "  \"ledger\": {{\n    \"layers\": {},\n    \"computing_j\": {},\n    \
             \"buffer_j\": {},\n    \"refresh_j\": {},\n    \"offchip_j\": {},\n    \
             \"total_j\": {}\n  }}\n",
            self.ledger_layers,
            json_f64(self.ledger.computing_j),
            json_f64(self.ledger.buffer_j),
            json_f64(self.ledger.refresh_j),
            json_f64(self.ledger.offchip_j),
            json_f64(self.ledger.total_j()),
        ));
        s.push('}');
        s
    }

    /// CSV rows (`counter,value`) over all dotted counters, sorted by
    /// path — a deterministic companion to the JSONL event stream.
    pub fn counters_csv_rows(&self) -> Vec<String> {
        self.counters.iter().map(|(k, v)| format!("{k},{v}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_by_path() {
        let mut r = Registry::new();
        r.add("cache.schedule.hit", 3);
        r.add("cache.schedule.hit", 2);
        r.add("cache.schedule.miss", 5);
        let rep = r.into_report(0, 0);
        assert_eq!(rep.counter("cache.schedule.hit"), 5);
        assert_eq!(rep.hit_rate("cache.schedule"), Some(0.5));
        assert_eq!(rep.hit_rate("cache.absent"), None);
    }

    #[test]
    fn spans_track_count_total_max() {
        let mut r = Registry::new();
        r.record_span("par.map", 1.0);
        r.record_span("par.map", 3.0);
        let rep = r.into_report(0, 0);
        let s = rep.spans["par.map"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total_s, 4.0);
        assert_eq!(s.max_s, 3.0);
        assert_eq!(s.mean_s(), 2.0);
    }

    #[test]
    fn deterministic_json_omits_wall_clock() {
        let mut r = Registry::new();
        r.record_span("par.map", 0.123);
        r.add_ledger(&EnergyLedger {
            computing_j: 1.0,
            buffer_j: 0.5,
            refresh_j: 0.25,
            offchip_j: 0.25,
        });
        let rep = r.into_report(7, 0);
        let det = rep.to_json(true);
        assert!(det.contains("\"par.map\": {\"count\": 1}"));
        assert!(!det.contains("total_s"));
        assert!(det.contains("\"total_j\": 2"));
        let full = rep.to_json(false);
        assert!(full.contains("\"total_s\": 0.123"));
    }

    #[test]
    fn csv_rows_sorted_by_path() {
        let mut r = Registry::new();
        r.add("b.two", 2);
        r.add("a.one", 1);
        let rep = r.into_report(0, 0);
        assert_eq!(rep.counters_csv_rows(), vec!["a.one,1".to_string(), "b.two,2".to_string()]);
    }
}
