//! Deterministic snapshot exposition: Prometheus-style text and canonical
//! JSON.
//!
//! Both forms iterate the registry's `BTreeMap`s in sorted key order and
//! format floats with shortest-round-trip `{}` formatting, so for a fixed
//! workload the emitted bytes are identical run to run — they can be
//! committed as baselines and diffed by the bench-regression gate.
//! Wall-clock time never appears: windowed rates expose their simulated-
//! time peaks and totals, not a "current" rate.

use super::hist::{HistF64, HistI64};
use super::registry::{MetricKey, Registry};
use crate::{json_f64, json_string};
use std::fmt::Write as _;

/// The quantiles every histogram exposes, with their label spellings.
pub const EXPOSED_QUANTILES: [(f64, &str); 5] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.95, "0.95"), (0.99, "0.99"), (1.0, "1")];

/// Sanitizes a dotted metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders `{k="v",...}` including `extra` pairs, or an empty string.
fn prom_labels(key: &MetricKey, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(String, String)> = key
        .labels()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .chain(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        .collect();
    pairs.sort();
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!("{}=\"{}\"", prom_name(k), v.replace('\\', "\\\\").replace('"', "\\\""))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => json_f64(x),
        None => "null".to_string(),
    }
}

fn hist_f64_json(h: &HistF64) -> String {
    let q = |p: f64| opt_f64(h.quantile(p));
    format!(
        concat!(
            "{{\"count\":{},\"skipped\":{},\"buckets\":{},\"min\":{},\"max\":{},",
            "\"mean\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}"
        ),
        h.count(),
        h.skipped(),
        h.buckets(),
        opt_f64(h.min()),
        opt_f64(h.max()),
        opt_f64(h.mean()),
        json_f64(h.sum()),
        q(0.50),
        q(0.90),
        q(0.95),
        q(0.99),
    )
}

fn hist_i64_json(h: &HistI64) -> String {
    let q = |p: f64| match h.quantile(p) {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"count\":{},\"buckets\":{},\"min\":{},\"max\":{},\"mean\":{},",
            "\"sum\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}"
        ),
        h.count(),
        h.buckets(),
        h.min().map_or("null".to_string(), |v| v.to_string()),
        h.max().map_or("null".to_string(), |v| v.to_string()),
        opt_f64(h.mean()),
        h.sum(),
        q(0.50),
        q(0.90),
        q(0.95),
        q(0.99),
    )
}

/// Writes one JSON map section: `"title": {"key": <render(v)>, ...}`.
fn json_section<V>(
    out: &mut String,
    title: &str,
    entries: impl Iterator<Item = (String, V)>,
    render: impl Fn(&V) -> String,
    last: bool,
) {
    let body: Vec<String> =
        entries.map(|(k, v)| format!("    {}: {}", json_string(&k), render(&v))).collect();
    if body.is_empty() {
        let _ = write!(out, "  {}: {{}}", json_string(title));
    } else {
        let _ = write!(out, "  {}: {{\n{}\n  }}", json_string(title), body.join(",\n"));
    }
    out.push_str(if last { "\n" } else { ",\n" });
}

impl Registry {
    /// Canonical JSON snapshot: sections in fixed order, keys sorted,
    /// shortest-round-trip floats — byte-deterministic for a fixed
    /// workload.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        json_section(
            &mut s,
            "counters",
            self.counters.iter().map(|(k, v)| (k.to_string(), *v)),
            |v| v.to_string(),
            false,
        );
        json_section(
            &mut s,
            "gauges",
            self.gauges.iter().map(|(k, v)| (k.to_string(), *v)),
            |v| json_f64(*v),
            false,
        );
        json_section(
            &mut s,
            "histograms_f64",
            self.hists_f64.iter().map(|(k, h)| (k.to_string(), h)),
            |h| hist_f64_json(h),
            false,
        );
        json_section(
            &mut s,
            "histograms_i64",
            self.hists_i64.iter().map(|(k, h)| (k.to_string(), h)),
            |h| hist_i64_json(h),
            false,
        );
        json_section(
            &mut s,
            "rates",
            self.rates.iter().map(|(k, r)| (k.to_string(), r)),
            |r| {
                format!(
                    "{{\"window_us\":{},\"total\":{},\"peak_per_s\":{}}}",
                    json_f64(r.window_us()),
                    r.total(),
                    json_f64(r.peak_per_s()),
                )
            },
            false,
        );
        json_section(
            &mut s,
            "slo",
            self.slos.iter().map(|(t, s)| (t.clone(), s.report(t))),
            |r| r.to_json(),
            true,
        );
        s.push('}');
        s
    }

    /// Prometheus-style text exposition, deterministically ordered.
    ///
    /// Counters become `<name>_total`, gauges plain samples, histograms
    /// summaries (`{quantile="…"}` samples plus `_count`/`_sum`), rates a
    /// `_total` counter plus a `_peak_per_s` gauge, and each tenant SLO a
    /// block of `rana_slo_*{tenant="…"}` samples.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        let mut typed: Option<(String, &str)> = None;
        let mut type_line = |s: &mut String, name: &str, kind: &'static str| {
            if typed.as_ref().is_none_or(|(n, k)| n != name || *k != kind) {
                let _ = writeln!(s, "# TYPE {name} {kind}");
                typed = Some((name.to_string(), kind));
            }
        };

        for (k, v) in &self.counters {
            let name = format!("{}_total", prom_name(k.name()));
            type_line(&mut s, &name, "counter");
            let _ = writeln!(s, "{name}{} {v}", prom_labels(k, &[]));
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k.name());
            type_line(&mut s, &name, "gauge");
            let _ = writeln!(s, "{name}{} {}", prom_labels(k, &[]), json_f64(*v));
        }
        for (k, h) in &self.hists_f64 {
            let name = prom_name(k.name());
            type_line(&mut s, &name, "summary");
            for (q, label) in EXPOSED_QUANTILES {
                let _ = writeln!(
                    s,
                    "{name}{} {}",
                    prom_labels(k, &[("quantile", label)]),
                    opt_f64(h.quantile(q)),
                );
            }
            let _ = writeln!(s, "{name}_count{} {}", prom_labels(k, &[]), h.count());
            let _ = writeln!(s, "{name}_sum{} {}", prom_labels(k, &[]), json_f64(h.sum()));
        }
        for (k, h) in &self.hists_i64 {
            let name = prom_name(k.name());
            type_line(&mut s, &name, "summary");
            for (q, label) in EXPOSED_QUANTILES {
                let v = h.quantile(q).map_or("null".to_string(), |v| v.to_string());
                let _ = writeln!(s, "{name}{} {v}", prom_labels(k, &[("quantile", label)]));
            }
            let _ = writeln!(s, "{name}_count{} {}", prom_labels(k, &[]), h.count());
            let _ = writeln!(s, "{name}_sum{} {}", prom_labels(k, &[]), h.sum());
        }
        for (k, r) in &self.rates {
            let base = prom_name(k.name());
            let total = format!("{base}_total");
            type_line(&mut s, &total, "counter");
            let _ = writeln!(s, "{total}{} {}", prom_labels(k, &[]), r.total());
            let peak = format!("{base}_peak_per_s");
            type_line(&mut s, &peak, "gauge");
            let _ = writeln!(s, "{peak}{} {}", prom_labels(k, &[]), json_f64(r.peak_per_s()));
        }
        for (tenant, tracker) in &self.slos {
            let r = tracker.report(tenant);
            let key = MetricKey::new("slo").label("tenant", tenant.as_str());
            let labels = prom_labels(&key, &[]);
            for (name, value) in [
                ("rana_slo_requests_total", r.requests.to_string()),
                ("rana_slo_misses_total", r.misses.to_string()),
                ("rana_slo_miss_rate", json_f64(r.miss_rate)),
                ("rana_slo_burn_rate", json_f64(r.burn_rate)),
                ("rana_slo_latency_p50_us", json_f64(r.p50_us)),
                ("rana_slo_latency_p95_us", json_f64(r.p95_us)),
                ("rana_slo_latency_p99_us", json_f64(r.p99_us)),
                ("rana_slo_queue_wait_p99_us", json_f64(r.queue_p99_us)),
                ("rana_slo_compliant", u8::from(r.compliant()).to_string()),
            ] {
                let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
                type_line(&mut s, name, kind);
                let _ = writeln!(s, "{name}{labels} {value}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::slo::{SloObservation, SloSpec};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add(MetricKey::new("cache.lookups").label("outcome", "hit"), 9);
        r.counter_add(MetricKey::new("cache.lookups").label("outcome", "miss"), 1);
        r.gauge_set("thermal.last_temp_c", 46.25);
        for v in [100.0, 220.0, 250.0, 900.0] {
            r.observe_f64(MetricKey::new("serve.latency_us").label("tenant", "alexnet"), v);
        }
        r.observe_i64("exec.layer_cycles", 4096);
        r.rate_record("serve.arrivals", 1e6, 16, 10.0, 3);
        r.slo_observe(
            "alexnet",
            &SloSpec::from_deadline(1_000.0),
            SloObservation {
                latency_us: Some(400.0),
                queue_wait_us: Some(10.0),
                missed_deadline: false,
                now_us: 410.0,
            },
        );
        r
    }

    #[test]
    fn json_is_byte_deterministic() {
        let a = sample_registry().to_json();
        let b = sample_registry().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"counters\""));
        assert!(
            a.contains("cache.lookups{outcome=\\\"hit\\\"}")
                || a.contains("cache.lookups{outcome=\"hit\"}")
        );
        assert!(a.contains("\"slo\""));
    }

    #[test]
    fn prometheus_is_byte_deterministic_and_sanitized() {
        let a = sample_registry().to_prometheus();
        let b = sample_registry().to_prometheus();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE cache_lookups_total counter"));
        assert!(a.contains("cache_lookups_total{outcome=\"hit\"} 9"));
        assert!(a.contains("serve_latency_us{quantile=\"0.99\",tenant=\"alexnet\"}"));
        assert!(a.contains("rana_slo_compliant{tenant=\"alexnet\"} 1"));
        assert!(!a.contains("serve.latency"), "dotted names must be sanitized");
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let r = Registry::new();
        let j = r.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert_eq!(r.to_prometheus(), "");
    }
}
