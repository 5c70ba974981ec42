//! Typed telemetry events and the Eq. 14 energy ledger.
//!
//! Every event is a plain-data record: strings, integers and floats only,
//! no references into the emitting subsystem. This keeps `rana-trace` at
//! the bottom of the crate stack (everything can depend on it, it depends
//! on nothing) and makes the serialized form stable — the JSONL writer
//! emits exactly these fields, in declaration order, with
//! shortest-round-trip float formatting, so a fixed workload produces a
//! byte-identical trace.

use crate::json::{array, Obj};

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

    /// The compact `{"computing_j":…,"buffer_j":…,"refresh_j":…,"offchip_j":…}`
    /// object every report embeds for an Eq. 14 energy.
    pub fn to_json(&self) -> String {
        self.components().into_iter().fold(Obj::new(), |o, (key, j)| o.f64(key, j)).finish()
    }

    /// The four components as `(report key, joules)`, in Eq. 14 order.
    pub fn components(&self) -> [(&'static str, f64); 4] {
        [
            ("computing_j", self.computing_j),
            ("buffer_j", self.buffer_j),
            ("refresh_j", self.refresh_j),
            ("offchip_j", self.offchip_j),
        ]
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
        /// Bit faults observed, counted at every access that resolves
        /// them: a decayed word read twice counts its flipped bits twice.
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
        let o = Obj::new().raw("seq", seq).str("type", self.kind());
        match self {
            Event::ScheduleChosen { network, layer, pattern, tiling, energy } => o
                .str("network", network)
                .str("layer", layer)
                .str("pattern", pattern)
                .raw("tiling", array(tiling))
                .raw("energy", energy.to_json()),
            Event::RefreshDecision { scope, banks, divider, rung_us, refresh_words, reason } => o
                .str("scope", scope)
                .raw("banks", banks)
                .raw("divider", divider)
                .f64("rung_us", *rung_us)
                .raw("refresh_words", refresh_words)
                .str("reason", reason),
            Event::ThermalSample { at, temp_c, scaled_retention_us } => o
                .str("at", at)
                .f64("temp_c", *temp_c)
                .f64("scaled_retention_us", *scaled_retention_us),
            Event::CacheLookup { cache, fingerprint, hit } => {
                o.str("cache", cache).raw("fingerprint", fingerprint).raw("hit", hit)
            }
            Event::TenantDispatch { tenant, batch, deadline_slack_us } => o
                .str("tenant", tenant)
                .raw("batch", batch)
                .f64("deadline_slack_us", *deadline_slack_us),
            Event::ExecCompleted { layer, cycles, reads, refresh_words, faults } => o
                .str("layer", layer)
                .raw("cycles", cycles)
                .raw("reads", reads)
                .raw("refresh_words", refresh_words)
                .raw("faults", faults),
            Event::DieFailed { die, queued, in_flight } => {
                o.raw("die", die).raw("queued", queued).raw("in_flight", in_flight)
            }
            Event::DieDrained { die, queued } => o.raw("die", die).raw("queued", queued),
            Event::RequestRerouted { tenant, from_die, to_die, reason } => o
                .str("tenant", tenant)
                .raw("from_die", from_die)
                .raw("to_die", to_die)
                .str("reason", reason),
            Event::PolicyDecision {
                scope,
                strategy,
                banks,
                interval_multiple,
                refresh_words,
                skipped_words,
                failure_rate,
                reason,
            } => o
                .str("scope", scope)
                .str("strategy", strategy)
                .raw("banks", banks)
                .raw("interval_multiple", interval_multiple)
                .raw("refresh_words", refresh_words)
                .raw("skipped_words", skipped_words)
                .f64("failure_rate", *failure_rate)
                .str("reason", reason),
        }
        .finish()
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

    /// Exact bytes of every event kind, with escapes, a control
    /// character, a non-finite float, a negative float and `u64::MAX`.
    #[test]
    fn every_kind_serializes() {
        let events = [
            Event::ScheduleChosen {
                network: "AlexNet".into(),
                layer: "conv\"1".into(),
                pattern: "OD".into(),
                tiling: [16, 16, 1, 16],
                energy: EnergyLedger {
                    computing_j: 1.5e-3,
                    buffer_j: 2.25e-7,
                    refresh_j: 0.0,
                    offchip_j: 3e-4,
                },
            },
            Event::RefreshDecision {
                scope: "layer/conv1".into(),
                banks: 2,
                divider: 9000,
                rung_us: 734.5,
                refresh_words: 123_456,
                reason: "refresh-free".into(),
            },
            Event::ThermalSample {
                at: "pass0\\layer1".into(),
                temp_c: 45.5,
                scaled_retention_us: f64::INFINITY,
            },
            Event::CacheLookup { cache: "schedule".into(), fingerprint: u64::MAX, hit: false },
            Event::TenantDispatch {
                tenant: "GoogLeNet".into(),
                batch: 4,
                deadline_slack_us: -12.75,
            },
            Event::ExecCompleted {
                layer: "l\n\u{1}".into(),
                cycles: 10,
                reads: 20,
                refresh_words: 0,
                faults: 3,
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
        let golden = [
            r#"{"seq":0,"type":"schedule_chosen","network":"AlexNet","layer":"conv\"1","pattern":"OD","tiling":[16,16,1,16],"energy":{"computing_j":0.0015,"buffer_j":0.000000225,"refresh_j":0,"offchip_j":0.0003}}"#,
            r#"{"seq":1,"type":"refresh_decision","scope":"layer/conv1","banks":2,"divider":9000,"rung_us":734.5,"refresh_words":123456,"reason":"refresh-free"}"#,
            r#"{"seq":2,"type":"thermal_sample","at":"pass0\\layer1","temp_c":45.5,"scaled_retention_us":null}"#,
            r#"{"seq":3,"type":"cache_lookup","cache":"schedule","fingerprint":18446744073709551615,"hit":false}"#,
            r#"{"seq":4,"type":"tenant_dispatch","tenant":"GoogLeNet","batch":4,"deadline_slack_us":-12.75}"#,
            r#"{"seq":5,"type":"exec_completed","layer":"l\n\u0001","cycles":10,"reads":20,"refresh_words":0,"faults":3}"#,
            r#"{"seq":6,"type":"die_failed","die":3,"queued":7,"in_flight":2}"#,
            r#"{"seq":7,"type":"die_drained","die":4,"queued":5}"#,
            r#"{"seq":8,"type":"request_rerouted","tenant":"t","from_die":3,"to_die":9,"reason":"crash"}"#,
            r#"{"seq":9,"type":"policy_decision","scope":"alexnet/conv1","strategy":"error-budget","banks":3,"interval_multiple":53,"refresh_words":1024,"skipped_words":4096,"failure_rate":0.0001,"reason":"budget-stretch"}"#,
        ];
        for (i, (e, want)) in events.iter().zip(golden).enumerate() {
            assert_eq!(e.to_json(i as u64), want, "{}", e.kind());
        }
    }
}
