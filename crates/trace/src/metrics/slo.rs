//! Per-tenant service-level-objective tracking.
//!
//! A serving tenant's SLO is expressed as latency percentile targets plus
//! a deadline-miss budget (the fraction of requests allowed to miss their
//! deadline). The [`SloTracker`] folds every observed request outcome —
//! completion latency, queue wait, deadline hit/miss, drop — into
//! histograms and windowed rates, and [`SloReport`] freezes the attained
//! percentiles, the miss rate, and the *burn rate* (observed miss rate
//! over budgeted miss rate: > 1 means the tenant is burning error budget
//! faster than allowed).

use super::hist::HistF64;
use super::rate::WindowedRate;
use crate::json::Obj;

/// Latency/deadline objectives of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Target median latency, µs.
    pub target_p50_us: f64,
    /// Target 95th-percentile latency, µs.
    pub target_p95_us: f64,
    /// Target 99th-percentile latency, µs.
    pub target_p99_us: f64,
    /// Fraction of requests allowed to miss their deadline (error
    /// budget), e.g. `0.01`.
    pub deadline_miss_budget: f64,
    /// Window for the miss-rate estimator, µs of simulated time.
    pub burn_window_us: f64,
}

impl SloSpec {
    /// Derives a spec from a hard per-request deadline: the median should
    /// land by half the deadline, p95 by 80 %, p99 exactly at it, with a
    /// 1 % miss budget burning over 1 s windows.
    pub fn from_deadline(deadline_us: f64) -> Self {
        assert!(deadline_us > 0.0, "deadline must be positive");
        Self {
            target_p50_us: 0.5 * deadline_us,
            target_p95_us: 0.8 * deadline_us,
            target_p99_us: deadline_us,
            deadline_miss_budget: 0.01,
            burn_window_us: 1_000_000.0,
        }
    }
}

/// One observed request outcome, fed to [`SloTracker::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObservation {
    /// Completion latency, µs (`None` for a request dropped before
    /// executing).
    pub latency_us: Option<f64>,
    /// Time spent queued before dispatch, µs (`None` when dropped).
    pub queue_wait_us: Option<f64>,
    /// Whether the request missed its deadline (dropped or finished
    /// late).
    pub missed_deadline: bool,
    /// Simulated time of the outcome, µs.
    pub now_us: f64,
}

/// Streaming per-tenant SLO state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    spec: SloSpec,
    latency: HistF64,
    queue_wait: HistF64,
    requests: u64,
    misses: u64,
    miss_rate: WindowedRate,
    request_rate: WindowedRate,
}

impl SloTracker {
    /// An empty tracker for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        assert!(
            spec.deadline_miss_budget > 0.0 && spec.deadline_miss_budget <= 1.0,
            "miss budget must be in (0, 1]"
        );
        Self {
            spec,
            latency: HistF64::new(),
            queue_wait: HistF64::new(),
            requests: 0,
            misses: 0,
            miss_rate: WindowedRate::new(spec.burn_window_us, 16),
            request_rate: WindowedRate::new(spec.burn_window_us, 16),
        }
    }

    /// The tracked objectives.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Folds one request outcome into the tracker.
    pub fn observe(&mut self, obs: SloObservation) {
        self.requests += 1;
        self.request_rate.record(obs.now_us, 1);
        if let Some(l) = obs.latency_us {
            self.latency.record(l);
        }
        if let Some(w) = obs.queue_wait_us {
            self.queue_wait.record(w);
        }
        if obs.missed_deadline {
            self.misses += 1;
            self.miss_rate.record(obs.now_us, 1);
        }
    }

    /// The completion-latency histogram.
    pub fn latency(&self) -> &HistF64 {
        &self.latency
    }

    /// The queue-wait histogram.
    pub fn queue_wait(&self) -> &HistF64 {
        &self.queue_wait
    }

    /// Total observed request outcomes (completions and drops).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Deadline misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Freezes the tracker into a report.
    pub fn report(&self, tenant: &str) -> SloReport {
        let q = |h: &HistF64, p: f64| h.quantile(p).unwrap_or(0.0);
        let miss_rate =
            if self.requests == 0 { 0.0 } else { self.misses as f64 / self.requests as f64 };
        SloReport {
            tenant: tenant.to_string(),
            spec: self.spec,
            requests: self.requests,
            misses: self.misses,
            miss_rate,
            burn_rate: miss_rate / self.spec.deadline_miss_budget,
            peak_miss_per_s: self.miss_rate.peak_per_s(),
            peak_request_per_s: self.request_rate.peak_per_s(),
            p50_us: q(&self.latency, 0.50),
            p95_us: q(&self.latency, 0.95),
            p99_us: q(&self.latency, 0.99),
            queue_p50_us: q(&self.queue_wait, 0.50),
            queue_p99_us: q(&self.queue_wait, 0.99),
        }
    }
}

/// Frozen per-tenant SLO summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Tenant name.
    pub tenant: String,
    /// The objectives the tenant was tracked against.
    pub spec: SloSpec,
    /// Request outcomes observed.
    pub requests: u64,
    /// Deadline misses (drops plus late completions).
    pub misses: u64,
    /// `misses / requests` (0 when nothing observed).
    pub miss_rate: f64,
    /// `miss_rate / deadline_miss_budget`; > 1 burns budget too fast.
    pub burn_rate: f64,
    /// Highest windowed miss rate, misses/s of simulated time.
    pub peak_miss_per_s: f64,
    /// Highest windowed request rate, requests/s of simulated time.
    pub peak_request_per_s: f64,
    /// Attained median latency, µs.
    pub p50_us: f64,
    /// Attained 95th-percentile latency, µs.
    pub p95_us: f64,
    /// Attained 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Attained median queue wait, µs.
    pub queue_p50_us: f64,
    /// Attained 99th-percentile queue wait, µs.
    pub queue_p99_us: f64,
}

impl SloReport {
    /// Whether every latency target is attained and the miss rate is
    /// within budget.
    pub fn compliant(&self) -> bool {
        self.p50_us <= self.spec.target_p50_us
            && self.p95_us <= self.spec.target_p95_us
            && self.p99_us <= self.spec.target_p99_us
            && self.miss_rate <= self.spec.deadline_miss_budget
    }

    /// Deterministic single-line JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("tenant", &self.tenant)
            .raw("requests", self.requests)
            .raw("misses", self.misses)
            .f64("miss_rate", self.miss_rate)
            .f64("miss_budget", self.spec.deadline_miss_budget)
            .f64("burn_rate", self.burn_rate)
            .f64("peak_miss_per_s", self.peak_miss_per_s)
            .f64("peak_request_per_s", self.peak_request_per_s)
            .f64("p50_us", self.p50_us)
            .f64("p95_us", self.p95_us)
            .f64("p99_us", self.p99_us)
            .f64("target_p50_us", self.spec.target_p50_us)
            .f64("target_p95_us", self.spec.target_p95_us)
            .f64("target_p99_us", self.spec.target_p99_us)
            .f64("queue_p50_us", self.queue_p50_us)
            .f64("queue_p99_us", self.queue_p99_us)
            .raw("compliant", self.compliant())
            .finish()
    }

    /// CSV row matching [`SloReport::csv_header`].
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.6},{:.6},{:.4},{:.1},{:.1},{:.1},{:.1},{:.1},{}",
            self.tenant,
            self.requests,
            self.misses,
            self.miss_rate,
            self.burn_rate,
            self.peak_request_per_s,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.queue_p50_us,
            self.queue_p99_us,
            if self.compliant() { "yes" } else { "no" },
        )
    }

    /// Header for [`SloReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "tenant,requests,misses,miss_rate,burn_rate,peak_request_per_s,\
         p50_us,p95_us,p99_us,queue_p50_us,queue_p99_us,compliant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            target_p50_us: 100.0,
            target_p95_us: 300.0,
            target_p99_us: 500.0,
            deadline_miss_budget: 0.05,
            burn_window_us: 100_000.0,
        }
    }

    #[test]
    fn compliant_tenant_reports_compliant() {
        let mut t = SloTracker::new(spec());
        for k in 0..100 {
            t.observe(SloObservation {
                latency_us: Some(50.0 + k as f64 * 0.5),
                queue_wait_us: Some(5.0),
                missed_deadline: false,
                now_us: k as f64 * 1_000.0,
            });
        }
        let r = t.report("alexnet");
        assert!(r.compliant(), "{r:?}");
        assert_eq!(r.requests, 100);
        assert_eq!(r.misses, 0);
        assert_eq!(r.burn_rate, 0.0);
        assert!(r.p99_us <= 100.0);
    }

    #[test]
    fn misses_burn_budget() {
        let mut t = SloTracker::new(spec());
        for k in 0..100u64 {
            t.observe(SloObservation {
                latency_us: (k % 10 != 0).then_some(80.0),
                queue_wait_us: None,
                missed_deadline: k % 10 == 0,
                now_us: k as f64 * 500.0,
            });
        }
        let r = t.report("vgg");
        assert_eq!(r.misses, 10);
        assert!((r.miss_rate - 0.1).abs() < 1e-12);
        assert!((r.burn_rate - 2.0).abs() < 1e-12, "10% misses over a 5% budget burns at 2x");
        assert!(!r.compliant());
        assert!(r.peak_miss_per_s > 0.0);
    }

    #[test]
    fn from_deadline_spec_is_ordered() {
        let s = SloSpec::from_deadline(10_000.0);
        assert!(s.target_p50_us < s.target_p95_us);
        assert!(s.target_p95_us < s.target_p99_us);
        assert_eq!(s.target_p99_us, 10_000.0);
    }

    #[test]
    fn report_json_is_deterministic() {
        let mut t = SloTracker::new(spec());
        t.observe(SloObservation {
            latency_us: Some(42.0),
            queue_wait_us: Some(1.5),
            missed_deadline: false,
            now_us: 10.0,
        });
        assert_eq!(t.report("a").to_json(), t.report("a").to_json());
        assert!(t.report("a").to_json().contains("\"compliant\":true"));
    }
}
