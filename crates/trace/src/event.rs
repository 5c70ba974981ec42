//! Typed telemetry events and the Eq. 14 energy ledger.
//!
//! Every event is a plain-data record: strings, integers and floats only,
//! no references into the emitting subsystem. This keeps `rana-trace` at
//! the bottom of the crate stack (everything can depend on it, it depends
//! on nothing) and makes the serialized form stable — the JSONL writer
//! emits exactly these fields, in declaration order, with
//! shortest-round-trip float formatting, so a fixed workload produces a
//! byte-identical trace.

/// The four-component system energy of paper Eq. 14, as telemetry data.
///
/// Mirrors `rana_core::energy::EnergyBreakdown` field for field, but lives
/// down here so events can carry energy without a dependency cycle. The
/// per-run sum of every [`Event::ScheduleChosen`] ledger reconciles with
/// the evaluator's totals — that cross-check is a test
/// (`tests/telemetry.rs`), not a second source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// MAC (computing) energy, joules — the `α·Emac` term.
    pub computing_j: f64,
    /// On-chip buffer access energy, joules — the `βb·Ebuffer` term.
    pub buffer_j: f64,
    /// eDRAM refresh energy, joules — the `γ·Erefresh` term.
    pub refresh_j: f64,
    /// Off-chip access energy, joules — the `βd·Eddr` term.
    pub offchip_j: f64,
}

impl EnergyLedger {
    /// Total system energy, joules.
    pub fn total_j(&self) -> f64 {
        self.computing_j + self.buffer_j + self.refresh_j + self.offchip_j
    }

    /// Adds another ledger into this one, component by component.
    pub fn accumulate(&mut self, rhs: &EnergyLedger) {
        self.computing_j += rhs.computing_j;
        self.buffer_j += rhs.buffer_j;
        self.refresh_j += rhs.refresh_j;
        self.offchip_j += rhs.offchip_j;
    }

    /// Largest relative disagreement against a reference ledger,
    /// component by component plus the total (`0.0` when both sides of a
    /// component are zero). The reconciliation tests check this against
    /// `1e-9`.
    pub fn relative_error(&self, reference: &EnergyLedger) -> f64 {
        let rel = |a: f64, b: f64| {
            let scale = a.abs().max(b.abs());
            if scale == 0.0 {
                0.0
            } else {
                (a - b).abs() / scale
            }
        };
        rel(self.computing_j, reference.computing_j)
            .max(rel(self.buffer_j, reference.buffer_j))
            .max(rel(self.refresh_j, reference.refresh_j))
            .max(rel(self.offchip_j, reference.offchip_j))
            .max(rel(self.total_j(), reference.total_j()))
    }
}

/// One telemetry event.
///
/// Variants map one-to-one onto the decision points of the runtime crates:
/// the Stage-2 scheduler, the refresh controller, the thermal loop, the
/// schedule cache and the serving dispatch loop. Emission sites construct
/// an event only after [`crate::enabled`] returns true, so a disabled
/// tracer never pays for the strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Stage-2 outcome for one layer of a finalized network schedule:
    /// the winning `(pattern, tiling)` and its Eq. 14 energy *after*
    /// inter-layer forwarding. Summing these ledgers over a run
    /// reproduces the evaluator's network totals.
    ScheduleChosen {
        /// Network the layer belongs to.
        network: String,
        /// Layer name.
        layer: String,
        /// Winning computation pattern (`ID` / `OD` / `WD`).
        pattern: String,
        /// Winning tiling `[Tm, Tn, Tr, Tc]`.
        tiling: [usize; 4],
        /// Final Eq. 14 energy of the layer.
        energy: EnergyLedger,
    },
    /// A refresh-controller decision: what interval the divider is
    /// programmed to, how many banks the per-bank flags select, and why.
    RefreshDecision {
        /// What the decision covers (layer, batch, or bank scope).
        scope: String,
        /// Banks flagged for refresh (0 = refresh-free).
        banks: usize,
        /// Programmed clock-divider ratio.
        divider: u64,
        /// Operating refresh interval (ladder rung), µs.
        rung_us: f64,
        /// Words the controller refreshes over the scope.
        refresh_words: u64,
        /// Why: `refresh-free`, `conventional`, `flagged`, `retune`,
        /// `keep-base`, `fallback-conservative`, `rescheduled`, …
        reason: String,
    },
    /// A thermal-loop sensor sample and the retention it implies.
    ThermalSample {
        /// Where the sample was taken (layer boundary, batch dispatch).
        at: String,
        /// Quantized sensor reading, °C.
        temp_c: f64,
        /// Temperature-scaled tolerable retention time, µs.
        scaled_retention_us: f64,
    },
    /// One schedule-cache lookup.
    CacheLookup {
        /// Which cache (`schedule`, `adaptive`, `serve-op`).
        cache: String,
        /// The canonical FNV-1a key that was probed.
        fingerprint: u64,
        /// Whether the entry was present.
        hit: bool,
    },
    /// One batch dispatched by the serving loop.
    TenantDispatch {
        /// Tenant (network) name.
        tenant: String,
        /// Requests in the batch.
        batch: usize,
        /// Tightest deadline slack in the batch at dispatch, µs.
        deadline_slack_us: f64,
    },
    /// One functional-engine layer execution completed.
    ExecCompleted {
        /// Layer name.
        layer: String,
        /// Execution cycles.
        cycles: u64,
        /// Buffer words read by the compute.
        reads: u64,
        /// Words refreshed during execution.
        refresh_words: u64,
        /// Bit faults observed.
        faults: u64,
    },
    /// A fleet die crashed: its queue and any in-flight batch are lost to
    /// the die and must be re-dispatched (or dropped) by the router.
    DieFailed {
        /// Die index within the cluster.
        die: usize,
        /// Requests queued on the die at the instant of failure.
        queued: usize,
        /// Requests in the batch executing when the die died.
        in_flight: usize,
    },
    /// A fleet die began a graceful drain: it stops accepting work and
    /// hands its queue back to the router, but finishes the in-flight
    /// batch and keeps its warm schedule cache for rejoin.
    DieDrained {
        /// Die index within the cluster.
        die: usize,
        /// Requests handed back to the router.
        queued: usize,
    },
    /// One request moved between dies by the failure/drain machinery.
    RequestRerouted {
        /// Tenant (network) name of the request.
        tenant: String,
        /// Die the request was queued on.
        from_die: usize,
        /// Die the router re-dispatched it to.
        to_die: usize,
        /// Why it moved: `crash` or `drain`.
        reason: String,
    },
    /// One refresh-strategy decision for one layer: which strategy ran,
    /// what it chose to refresh and what it skipped relative to a
    /// conventional all-banks controller at the same base interval.
    PolicyDecision {
        /// What the decision covers (layer, tenant, or die scope).
        scope: String,
        /// Strategy label (`conventional`, `rana-flagged`,
        /// `access-triggered`, `error-budget`).
        strategy: String,
        /// Banks the decision flags for refresh (0 = refresh-free).
        banks: usize,
        /// Effective refresh interval as a multiple of the base interval
        /// (1 for exact-interval strategies; >1 when an error budget
        /// stretches the divider).
        interval_multiple: u32,
        /// Words the strategy refreshes over the scope.
        refresh_words: u64,
        /// Words a conventional controller would have refreshed that this
        /// strategy skips.
        skipped_words: u64,
        /// Retention-failure rate the resident data is exposed to.
        failure_rate: f64,
        /// Why: `refresh-free`, `conventional`, `flagged`, `access-live`,
        /// `budget-stretch`, …
        reason: String,
    },
}

impl Event {
    /// Stable lowercase kind label; used for per-kind counters and as the
    /// `"type"` field of the JSONL form.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ScheduleChosen { .. } => "schedule_chosen",
            Event::RefreshDecision { .. } => "refresh_decision",
            Event::ThermalSample { .. } => "thermal_sample",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::TenantDispatch { .. } => "tenant_dispatch",
            Event::ExecCompleted { .. } => "exec_completed",
            Event::DieFailed { .. } => "die_failed",
            Event::DieDrained { .. } => "die_drained",
            Event::RequestRerouted { .. } => "request_rerouted",
            Event::PolicyDecision { .. } => "policy_decision",
        }
    }

    /// The event's Eq. 14 energy contribution, if it carries one.
    pub fn ledger(&self) -> Option<&EnergyLedger> {
        match self {
            Event::ScheduleChosen { energy, .. } => Some(energy),
            _ => None,
        }
    }

    /// Deterministic single-line JSON form (no trailing newline).
    ///
    /// Field order is fixed, floats use shortest-round-trip formatting,
    /// and nothing machine- or time-dependent is included, so a fixed
    /// workload serializes byte-identically.
    pub fn to_json(&self, seq: u64) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(&format!("{{\"seq\":{seq},\"type\":\"{}\",", self.kind()));
        match self {
            Event::ScheduleChosen { network, layer, pattern, tiling, energy } => {
                s.push_str(&format!(
                    "\"network\":{},\"layer\":{},\"pattern\":{},\
                     \"tiling\":[{},{},{},{}],\"energy\":{{\
                     \"computing_j\":{},\"buffer_j\":{},\"refresh_j\":{},\"offchip_j\":{}}}",
                    json_string(network),
                    json_string(layer),
                    json_string(pattern),
                    tiling[0],
                    tiling[1],
                    tiling[2],
                    tiling[3],
                    json_f64(energy.computing_j),
                    json_f64(energy.buffer_j),
                    json_f64(energy.refresh_j),
                    json_f64(energy.offchip_j),
                ));
            }
            Event::RefreshDecision { scope, banks, divider, rung_us, refresh_words, reason } => {
                s.push_str(&format!(
                    "\"scope\":{},\"banks\":{banks},\"divider\":{divider},\
                     \"rung_us\":{},\"refresh_words\":{refresh_words},\"reason\":{}",
                    json_string(scope),
                    json_f64(*rung_us),
                    json_string(reason),
                ));
            }
            Event::ThermalSample { at, temp_c, scaled_retention_us } => {
                s.push_str(&format!(
                    "\"at\":{},\"temp_c\":{},\"scaled_retention_us\":{}",
                    json_string(at),
                    json_f64(*temp_c),
                    json_f64(*scaled_retention_us),
                ));
            }
            Event::CacheLookup { cache, fingerprint, hit } => {
                s.push_str(&format!(
                    "\"cache\":{},\"fingerprint\":{fingerprint},\"hit\":{hit}",
                    json_string(cache),
                ));
            }
            Event::TenantDispatch { tenant, batch, deadline_slack_us } => {
                s.push_str(&format!(
                    "\"tenant\":{},\"batch\":{batch},\"deadline_slack_us\":{}",
                    json_string(tenant),
                    json_f64(*deadline_slack_us),
                ));
            }
            Event::ExecCompleted { layer, cycles, reads, refresh_words, faults } => {
                s.push_str(&format!(
                    "\"layer\":{},\"cycles\":{cycles},\"reads\":{reads},\
                     \"refresh_words\":{refresh_words},\"faults\":{faults}",
                    json_string(layer),
                ));
            }
            Event::DieFailed { die, queued, in_flight } => {
                s.push_str(&format!("\"die\":{die},\"queued\":{queued},\"in_flight\":{in_flight}"));
            }
            Event::DieDrained { die, queued } => {
                s.push_str(&format!("\"die\":{die},\"queued\":{queued}"));
            }
            Event::RequestRerouted { tenant, from_die, to_die, reason } => {
                s.push_str(&format!(
                    "\"tenant\":{},\"from_die\":{from_die},\"to_die\":{to_die},\"reason\":{}",
                    json_string(tenant),
                    json_string(reason),
                ));
            }
            Event::PolicyDecision {
                scope,
                strategy,
                banks,
                interval_multiple,
                refresh_words,
                skipped_words,
                failure_rate,
                reason,
            } => {
                s.push_str(&format!(
                    "\"scope\":{},\"strategy\":{},\"banks\":{banks},\
                     \"interval_multiple\":{interval_multiple},\
                     \"refresh_words\":{refresh_words},\"skipped_words\":{skipped_words},\
                     \"failure_rate\":{},\"reason\":{}",
                    json_string(scope),
                    json_string(strategy),
                    json_f64(*failure_rate),
                    json_string(reason),
                ));
            }
        }
        s.push('}');
        s
    }
}

/// JSON string literal with the standard escapes.
///
/// With [`json_f64`], the one JSON scalar writer every deterministic
/// report in the workspace uses, so equal input always gives equal bytes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest-round-trip JSON number for an `f64` (`null` for non-finite
/// values, which JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_totals() {
        let mut a =
            EnergyLedger { computing_j: 1.0, buffer_j: 2.0, refresh_j: 3.0, offchip_j: 4.0 };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total_j(), 20.0);
    }

    #[test]
    fn relative_error_is_componentwise_max() {
        let a = EnergyLedger { computing_j: 1.0, buffer_j: 1.0, refresh_j: 0.0, offchip_j: 1.0 };
        let mut b = a;
        assert_eq!(a.relative_error(&b), 0.0);
        b.buffer_j = 1.1;
        assert!((a.relative_error(&b) - 0.1 / 1.1).abs() < 1e-12);
        // A zero-vs-zero component contributes nothing.
        assert_eq!(b.refresh_j, 0.0);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let e = Event::CacheLookup { cache: "sch\"edule".into(), fingerprint: 7, hit: true };
        assert_eq!(
            e.to_json(3),
            "{\"seq\":3,\"type\":\"cache_lookup\",\"cache\":\"sch\\\"edule\",\
             \"fingerprint\":7,\"hit\":true}"
        );
    }

    #[test]
    fn every_kind_serializes() {
        let events = [
            Event::ScheduleChosen {
                network: "n".into(),
                layer: "l".into(),
                pattern: "OD".into(),
                tiling: [16, 16, 1, 16],
                energy: EnergyLedger::default(),
            },
            Event::RefreshDecision {
                scope: "s".into(),
                banks: 2,
                divider: 9000,
                rung_us: 734.0,
                refresh_words: 0,
                reason: "refresh-free".into(),
            },
            Event::ThermalSample { at: "a".into(), temp_c: 45.5, scaled_retention_us: 700.0 },
            Event::CacheLookup { cache: "c".into(), fingerprint: 1, hit: false },
            Event::TenantDispatch { tenant: "t".into(), batch: 4, deadline_slack_us: 100.0 },
            Event::ExecCompleted {
                layer: "l".into(),
                cycles: 10,
                reads: 20,
                refresh_words: 0,
                faults: 0,
            },
            Event::DieFailed { die: 3, queued: 7, in_flight: 2 },
            Event::DieDrained { die: 4, queued: 5 },
            Event::RequestRerouted {
                tenant: "t".into(),
                from_die: 3,
                to_die: 9,
                reason: "crash".into(),
            },
            Event::PolicyDecision {
                scope: "alexnet/conv1".into(),
                strategy: "error-budget".into(),
                banks: 3,
                interval_multiple: 53,
                refresh_words: 1024,
                skipped_words: 4096,
                failure_rate: 1e-4,
                reason: "budget-stretch".into(),
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let j = e.to_json(i as u64);
            assert!(j.starts_with(&format!("{{\"seq\":{i},\"type\":\"{}\"", e.kind())), "{j}");
            assert!(j.ends_with('}'), "{j}");
        }
    }
}
