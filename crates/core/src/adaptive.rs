//! Thermal-adaptive refresh runtime: the closed loop
//! temperature → retention → reconfiguration.
//!
//! The Stage-1/Stage-2 pipeline fixes one tolerable retention time at the
//! characterization temperature and compiles a static layerwise
//! configuration against it. But eDRAM retention roughly halves per +10 °C
//! of die temperature, and the die heats up *because* the accelerator runs
//! — so a schedule that is refresh-free at 45 °C can silently exceed the
//! Stage-1 failure-rate target after a few hundred milliseconds of
//! inference. This module closes that loop at runtime:
//!
//! * **Plant** — [`ThermalModel`] (a lumped-RC die node) integrates the
//!   per-layer accelerator power (Eq. 14 MAC + buffer + refresh energy over
//!   the layer's execution time) into a junction-temperature trajectory.
//! * **Sensor + policy** — [`AdaptiveRuntime`] samples the temperature at
//!   every layer boundary (quantized to the sensor resolution), maps it
//!   through the temperature-scaled [`RetentionDistribution`] to the
//!   currently tolerable retention time, derates it by a safety margin,
//!   and snaps the result onto a quantized *interval ladder*
//!   (`nominal · 2^(−k/steps)`). When the rung changes, the runtime
//!   retunes the [`ClockDivider`] and recomputes the per-bank refresh
//!   flags. When a layer's scheduled data lifetime no longer fits under
//!   the tightened interval, the runtime either falls back to the
//!   precomputed conservative (45 µs-class) schedule or re-runs the
//!   memoized scheduler online with the tighter refresh model
//!   ([`FallbackPolicy`]).
//! * **Validation** — [`run_probes`] replays every adapted layer's
//!   retention exposure (data lifetime, refresh interval, die temperature)
//!   through the functional execution engine's Monte-Carlo cell faults and
//!   reports the realized bit-failure rate, which the `exp_thermal` bench
//!   checks against the Stage-1 target and brackets between the naive
//!   static-45 µs policy and a static oracle fixed at the peak
//!   temperature.
//!
//! The whole loop is deterministic: for a fixed [`AdaptiveConfig::seed`]
//! two runs produce byte-identical [`AdaptiveReport::to_json`] output.

use crate::designs::Design;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::evaluate::Evaluator;
use crate::operating::{
    account_layer, check_throttle, crit_us, hedged, keeps_base, quantize, throttle, ThermalPolicy,
    LADDER_STEPS_PER_OCTAVE, RESCHEDULE_REFRESH_WEIGHT, RETENTION_MARGIN, THROTTLE_TEMP_C,
};
use crate::par::ScheduleCache;
use crate::scheduler::{LayerSchedule, NetworkSchedule, Scheduler, SearchBatch};
use rana_accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_accel::{
    layer_refresh_words, AcceleratorConfig, Fnv1a, Pattern, RefreshModel, SchedLayer, Tiling,
};
use rana_edram::thermal::{ThermalModel, TrajectoryPoint};
use rana_edram::{ClockDivider, RefreshConfig, RetentionDistribution};
use rana_policy::Strategy;
use rana_trace::json::{array, Obj};
use rana_zoo::Network;

pub use crate::operating::ladder_rung_us;

/// What the runtime does when a layer's scheduled data lifetime exceeds
/// the currently safe refresh interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Switch the layer to the precomputed conservative schedule (the
    /// weakest-cell interval of the distribution, 45 µs-class), which
    /// minimizes energy under refresh that any temperature survives.
    Conservative,
    /// Re-run the Stage-2 scheduler online for the layer with the
    /// tightened refresh model. The search is memoized (PR 2), so each
    /// (layer shape, ladder rung) pair is searched at most once per run.
    Reschedule,
}

impl FallbackPolicy {
    /// Stable lowercase label (used in JSON and CSV output).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackPolicy::Conservative => "conservative",
            FallbackPolicy::Reschedule => "reschedule",
        }
    }
}

/// Tuning of the adaptive policy. The rest of the policy is fixed: the
/// target is the design's Stage-1 failure rate, and the retention margin,
/// sensor resolution, interval ladder, throttle cap and reschedule refresh
/// weight are the constants of [`crate::operating`], which serving shares.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// What to do when a layer's data lifetime exceeds the safe interval.
    pub fallback: FallbackPolicy,
    /// Seed for the Monte-Carlo validation probes. The control loop itself
    /// is seed-free (fully deterministic); the seed only selects the
    /// per-cell retention draw of [`run_probes`].
    pub seed: u64,
}

/// Which schedule a layer execution came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// The nominal Stage-2 schedule, kept because it is refresh-free under
    /// the current interval.
    Base,
    /// The precomputed conservative schedule.
    Conservative,
    /// Rescheduled online under the tightened refresh model.
    Rescheduled,
}

impl ScheduleSource {
    /// Stable lowercase label (used in CSV output).
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleSource::Base => "base",
            ScheduleSource::Conservative => "conservative",
            ScheduleSource::Rescheduled => "rescheduled",
        }
    }
}

/// One layer execution under the adaptive policy.
#[derive(Debug, Clone)]
pub struct LayerAdaptation {
    /// Pass index the layer ran in.
    pub pass: usize,
    /// Layer name.
    pub layer: String,
    /// Junction temperature entering the layer (after any throttling), °C.
    pub start_temp_c: f64,
    /// Junction temperature leaving the layer, °C.
    pub end_temp_c: f64,
    /// Idle time inserted before the layer by the thermal throttle, µs.
    pub throttle_us: f64,
    /// Quantized sensor reading the policy acted on, °C.
    pub sensed_c: f64,
    /// Tolerable retention at the sensed temperature (before margin), µs.
    pub tolerable_us: f64,
    /// Operating refresh interval (divider-quantized ladder rung), µs.
    pub interval_us: f64,
    /// Programmed clock-divider ratio.
    pub divider_ratio: u64,
    /// Whether the divider changed at this layer boundary.
    pub retuned: bool,
    /// Which schedule the layer executed.
    pub source: ScheduleSource,
    /// Longest scheduled data lifetime of the executed configuration, µs.
    pub crit_us: f64,
    /// Whether the layer ran without any refresh.
    pub refresh_free: bool,
    /// Banks flagged for refresh by the refresh-optimized controller.
    pub flagged_banks: usize,
    /// Execution time, µs.
    pub time_us: f64,
    /// Accelerator power dissipated over the layer, W.
    pub power_w: f64,
    /// Refresh operations issued during the layer.
    pub refresh_words: u64,
    /// Eq. 14 energy of the layer under the current interval.
    pub energy: EnergyBreakdown,
}

/// One full network pass under the adaptive policy.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass index.
    pub pass: usize,
    /// Junction temperature entering the pass, °C.
    pub start_temp_c: f64,
    /// Junction temperature leaving the pass, °C.
    pub end_temp_c: f64,
    /// Pass execution time (excluding throttle idles), µs.
    pub time_us: f64,
    /// Idle time inserted by the thermal throttle during the pass, µs.
    pub throttle_us: f64,
    /// Eq. 14 energy of the pass.
    pub energy: EnergyBreakdown,
    /// Refresh operations issued over the pass.
    pub refresh_words: u64,
    /// Divider retunes over the pass.
    pub retunes: usize,
    /// Layers that fell back to the conservative schedule.
    pub fallbacks: usize,
    /// Layers rescheduled online.
    pub reschedules: usize,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerAdaptation>,
}

impl PassRecord {
    /// Tightest operating interval used during the pass, µs.
    pub fn min_interval_us(&self) -> f64 {
        self.layers.iter().map(|l| l.interval_us).fold(f64::INFINITY, f64::min)
    }

    /// The pass summary [`AdaptiveReport::to_json`] lists under `passes`.
    fn to_json(&self) -> String {
        Obj::new()
            .raw("pass", self.pass)
            .f64("start_temp_c", self.start_temp_c)
            .f64("end_temp_c", self.end_temp_c)
            .f64("time_us", self.time_us)
            .raw("refresh_words", self.refresh_words)
            .f64("refresh_j", self.energy.refresh_j)
            .f64("min_interval_us", self.min_interval_us())
            .raw("retunes", self.retunes)
            .raw("fallbacks", self.fallbacks)
            .raw("reschedules", self.reschedules)
            .finish()
    }
}

/// The full log of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Network name.
    pub network: String,
    /// The design point the run adapted.
    pub design: Design,
    /// The policy configuration the run used.
    pub config: AdaptiveConfig,
    /// The thermal plant constants.
    pub thermal: ThermalModel,
    /// Nominal (characterization-temperature) refresh interval, µs.
    pub nominal_interval_us: f64,
    /// Every pass, in order.
    pub passes: Vec<PassRecord>,
    /// Temperature trajectory: one sample per layer boundary and idle
    /// period, in time order.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Total idle (cooldown) time inserted between passes, µs.
    pub idle_us: f64,
}

impl AdaptiveReport {
    /// Peak junction temperature over the whole run, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.trajectory.iter().map(|p| p.temp_c).fold(self.thermal.ambient_c, f64::max)
    }

    /// Total Eq. 14 energy over all passes.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.passes.iter().map(|p| p.energy).fold(EnergyBreakdown::default(), |a, b| a + b)
    }

    /// Total refresh operations over all passes.
    pub fn total_refresh_words(&self) -> u64 {
        self.passes.iter().map(|p| p.refresh_words).sum()
    }

    /// Total busy (non-idle) time, µs.
    pub fn total_time_us(&self) -> f64 {
        self.passes.iter().map(|p| p.time_us).sum()
    }

    /// Tightest operating interval over the whole run, µs.
    pub fn min_interval_us(&self) -> f64 {
        self.passes.iter().map(|p| p.min_interval_us()).fold(f64::INFINITY, f64::min)
    }

    /// Total divider retunes.
    pub fn total_retunes(&self) -> usize {
        self.passes.iter().map(|p| p.retunes).sum()
    }

    /// Total conservative fallbacks.
    pub fn total_fallbacks(&self) -> usize {
        self.passes.iter().map(|p| p.fallbacks).sum()
    }

    /// Total online reschedules.
    pub fn total_reschedules(&self) -> usize {
        self.passes.iter().map(|p| p.reschedules).sum()
    }

    /// Total idle time inserted by the thermal throttle, µs.
    pub fn total_throttle_us(&self) -> f64 {
        self.passes.iter().map(|p| p.throttle_us).sum()
    }

    /// Retention-exposure probe specs for [`run_probes`]: one per executed
    /// layer, at the hotter of its boundary temperatures.
    pub fn probe_specs(&self) -> Vec<ProbeSpec> {
        self.passes
            .iter()
            .flat_map(|p| p.layers.iter())
            .map(|l| ProbeSpec {
                label: format!("pass{}/{}", l.pass, l.layer),
                span_us: l.crit_us,
                refresh_interval_us: if l.refresh_free { None } else { Some(l.interval_us) },
                delta_c: self.thermal.delta_c(l.start_temp_c.max(l.end_temp_c)),
            })
            .collect()
    }

    /// Serializes the run summary (per-pass resolution) to a compact,
    /// deterministic JSON string. Byte-identical across runs for a fixed
    /// configuration — the determinism test compares this output directly.
    pub fn to_json(&self) -> String {
        let thermal = Obj::new()
            .f64("ambient_c", self.thermal.ambient_c)
            .f64("r_ja_c_per_w", self.thermal.r_ja_c_per_w)
            .f64("tau_us", self.thermal.tau_us)
            .f64("characterization_c", self.thermal.characterization_c)
            .finish();
        Obj::new()
            .str("network", &self.network)
            .str("design", self.design.label())
            .f64("target_rate", self.design.failure_rate())
            .f64("retention_margin", RETENTION_MARGIN)
            .str("fallback", self.config.fallback.label())
            .f64("throttle_temp_c", THROTTLE_TEMP_C)
            .f64("reschedule_refresh_weight", RESCHEDULE_REFRESH_WEIGHT)
            .raw("seed", self.config.seed)
            .raw("thermal", thermal)
            .f64("nominal_interval_us", self.nominal_interval_us)
            .f64("peak_temp_c", self.peak_temp_c())
            .f64("min_interval_us", self.min_interval_us())
            .f64("total_time_us", self.total_time_us())
            .f64("idle_us", self.idle_us)
            .f64("throttle_us", self.total_throttle_us())
            .raw("energy", self.total_energy().ledger().to_json())
            .raw("refresh_words", self.total_refresh_words())
            .raw("retunes", self.total_retunes())
            .raw("fallbacks", self.total_fallbacks())
            .raw("reschedules", self.total_reschedules())
            .raw("passes", array(self.passes.iter().map(PassRecord::to_json)))
            .finish()
    }
}

/// One step of a thermal scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioStep {
    /// Run this many back-to-back network passes.
    Passes(usize),
    /// Idle (zero power) for this long, µs.
    Idle(f64),
}

/// A thermal scenario: the sequence of busy and idle periods a policy is
/// driven through.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Steps in order.
    pub steps: Vec<ScenarioStep>,
}

impl Scenario {
    /// The bench scenario: `heating_passes` back-to-back inferences (the
    /// heating transient), a cooldown idle, then one more pass on the
    /// partially cooled die.
    pub fn heating_transient(heating_passes: usize, cooldown_us: f64) -> Self {
        Self {
            steps: vec![
                ScenarioStep::Passes(heating_passes),
                ScenarioStep::Idle(cooldown_us),
                ScenarioStep::Passes(1),
            ],
        }
    }

    /// Total number of network passes in the scenario.
    pub fn total_passes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                ScenarioStep::Passes(n) => *n,
                ScenarioStep::Idle(_) => 0,
            })
            .sum()
    }
}

/// The closed-loop thermal-adaptive refresh runtime.
///
/// Construct with [`AdaptiveRuntime::new`], drive with
/// [`AdaptiveRuntime::run_pass`] / [`AdaptiveRuntime::idle`] (or
/// [`AdaptiveRuntime::run_scenario`]), then read the accumulated
/// [`AdaptiveRuntime::report`].
///
/// # Example
///
/// ```
/// use rana_core::adaptive::{AdaptiveConfig, AdaptiveRuntime, FallbackPolicy};
/// use rana_core::designs::Design;
/// use rana_core::evaluate::Evaluator;
/// use rana_edram::ThermalModel;
///
/// let eval = Evaluator::paper_platform();
/// let net = rana_zoo::alexnet();
/// let design = Design::RanaStarE5;
/// let config = AdaptiveConfig { fallback: FallbackPolicy::Reschedule, seed: 42 };
/// let mut rt = AdaptiveRuntime::new(&eval, &net, design, ThermalModel::embedded_65nm(), config);
///
/// let pass = rt.run_pass(); // one inference pass: sense → derate → retune
/// assert!(pass.energy.total_j() > 0.0);
/// assert!(rt.temp_c() > 45.0, "compute heats the die above ambient");
/// let report = rt.report();
/// assert_eq!(report.passes.len(), 1);
/// ```
#[derive(Debug)]
pub struct AdaptiveRuntime {
    /// The design's nominal Stage-2 scheduler; online reschedules hedge
    /// it at each ladder rung.
    template: Scheduler,
    cache: ScheduleCache,
    layers: Vec<SchedLayer>,
    base: NetworkSchedule,
    conservative: NetworkSchedule,
    /// Refresh strategy for per-layer accounting; defaults to the legacy
    /// controller kind's strategy ([`Strategy::for_kind`]).
    strategy: Strategy,
    dist: RetentionDistribution,
    policy: ThermalPolicy,
    thermal: ThermalModel,
    config: AdaptiveConfig,
    report: AdaptiveReport,
    temp_c: f64,
    now_us: f64,
    divider: ClockDivider,
    interval_us: f64,
}

impl AdaptiveRuntime {
    /// Builds the runtime for `net` under `design` on `eval`'s platform.
    ///
    /// Precomputes the nominal (base) and conservative schedules through
    /// the evaluator's shared memo cache; the runtime starts at ambient
    /// temperature with the nominal divider setting.
    ///
    /// # Panics
    ///
    /// Panics if `design` does not buffer in eDRAM, or if `thermal`'s
    /// ambient is not below the throttle cap.
    pub fn new(
        eval: &Evaluator,
        net: &Network,
        design: Design,
        thermal: ThermalModel,
        config: AdaptiveConfig,
    ) -> Self {
        assert!(design.uses_edram(), "adaptive refresh needs an eDRAM design, got {design}");
        check_throttle(THROTTLE_TEMP_C, &thermal);

        let template = eval.scheduler_for(design);
        let kind = template.refresh.kind;
        let dist = eval.retention().clone();
        let policy = ThermalPolicy::new(
            &template,
            dist.tolerable_retention_us(design.failure_rate()),
            LADDER_STEPS_PER_OCTAVE,
        );
        let base = eval.evaluate(net, design).schedule;
        let conservative = eval
            .evaluate_with_refresh(
                net,
                design,
                RefreshModel { interval_us: dist.typical_retention_us(), kind },
            )
            .schedule;
        let layers = net.conv_layers().map(SchedLayer::from_conv).collect();
        let (divider, interval_us) = policy.nominal();
        let report = AdaptiveReport {
            network: net.name().to_string(),
            design,
            config,
            thermal,
            nominal_interval_us: template.refresh.interval_us,
            passes: Vec::new(),
            trajectory: Vec::new(),
            idle_us: 0.0,
        };
        Self {
            template,
            cache: ScheduleCache::new(),
            layers,
            base,
            conservative,
            strategy: Strategy::for_kind(kind),
            dist,
            policy,
            thermal,
            config,
            report,
            temp_c: thermal.ambient_c,
            now_us: 0.0,
            divider,
            interval_us,
        }
    }

    /// Current junction temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Wall-clock time since construction, µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Current operating refresh interval, µs.
    pub fn interval_us(&self) -> f64 {
        self.interval_us
    }

    /// The accumulated run log.
    pub fn report(&self) -> &AdaptiveReport {
        &self.report
    }

    /// Consumes the runtime, returning the run log.
    pub fn into_report(self) -> AdaptiveReport {
        self.report
    }

    /// The retention distribution at the characterization temperature
    /// (what [`run_probes`] scales per probe).
    pub fn retention(&self) -> &RetentionDistribution {
        &self.dist
    }

    /// The refresh strategy accounting each layer's refresh traffic.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Replaces the refresh strategy. The default,
    /// [`Strategy::for_kind`] of the design's controller, reproduces the
    /// legacy accounting bit for bit; an [`Strategy::ErrorBudget`]
    /// strategy stretches each layer's effective interval against the
    /// *temperature-scaled* retention distribution, so the thermal loop
    /// and the budget compose.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// The oracle interval: the ladder rung the policy would pick if it
    /// knew the run's peak temperature in advance. A static policy fixed
    /// at this interval is safe for the whole run and is the tightest such
    /// single setting the ladder offers — the bench's upper-efficiency
    /// bracket.
    pub fn oracle_interval_us(&self) -> f64 {
        self.policy.operate(&self.thermal, self.report.peak_temp_c()).interval_us
    }

    /// The static-oracle bracket: the same policy machinery with perfect
    /// temperature foreknowledge. Compiles every layer exactly as the
    /// online policy would at the oracle rung ([`Self::oracle_interval_us`]
    /// — keep base where refresh-free, else the configured fallback with
    /// the same hedged pricing), then drives that fixed schedule through
    /// `scenario` at the fixed oracle interval. Call after the adaptive
    /// run, since the oracle needs the realized peak temperature.
    pub fn oracle_static_run(&self, scenario: &Scenario) -> StaticRun {
        let interval_us = self.oracle_interval_us();
        let layers = (0..self.layers.len()).map(|idx| self.select(idx, interval_us).1).collect();
        let schedule = NetworkSchedule { network: self.base.network.clone(), layers };
        run_static_policy(
            "static-oracle",
            &schedule,
            &self.template.cfg,
            &self.template.model,
            RefreshModel { interval_us, kind: self.template.refresh.kind },
            &self.thermal,
            scenario,
        )
    }

    /// Layer `idx`'s schedule at `interval_us`: the base schedule where it
    /// stays refresh-free, else the configured fallback (an online
    /// reschedule hedges exactly like serving's).
    fn select(&self, idx: usize, interval_us: f64) -> (ScheduleSource, LayerSchedule) {
        let base = &self.base.layers[idx];
        if keeps_base(base, interval_us) {
            return (ScheduleSource::Base, base.clone());
        }
        match self.config.fallback {
            FallbackPolicy::Conservative => {
                (ScheduleSource::Conservative, self.conservative.layers[idx].clone())
            }
            FallbackPolicy::Reschedule => {
                let s = hedged(&self.template, interval_us, RESCHEDULE_REFRESH_WEIGHT);
                let layer = &self.layers[idx];
                let mut batch = SearchBatch::new(Some(&self.cache));
                let planned = batch.plan(&s, s.search_key(), s.layer_key(layer), layer);
                (ScheduleSource::Rescheduled, batch.run(None).get(planned, &layer.name))
            }
        }
    }

    /// Idles (zero compute power) for `duration_us`, letting the die cool.
    pub fn idle(&mut self, duration_us: f64) {
        assert!(duration_us >= 0.0, "idle duration must be non-negative");
        self.temp_c = self.thermal.step(self.temp_c, 0.0, duration_us);
        self.now_us += duration_us;
        self.report.idle_us += duration_us;
        self.report.trajectory.push(TrajectoryPoint {
            t_us: self.now_us,
            temp_c: self.temp_c,
            power_w: 0.0,
        });
    }

    /// Runs one full network pass under the adaptive policy, appending a
    /// [`PassRecord`] to the report.
    pub fn run_pass(&mut self) -> &PassRecord {
        let pass = self.report.passes.len();
        let start_temp_c = self.temp_c;
        let mut layers = Vec::with_capacity(self.layers.len());
        for idx in 0..self.layers.len() {
            let rec = self.adapt_layer(pass, idx);
            layers.push(rec);
        }
        let record = PassRecord {
            pass,
            start_temp_c,
            end_temp_c: self.temp_c,
            time_us: layers.iter().map(|l| l.time_us).sum(),
            throttle_us: layers.iter().map(|l| l.throttle_us).sum(),
            energy: layers.iter().map(|l| l.energy).fold(EnergyBreakdown::default(), |a, b| a + b),
            refresh_words: layers.iter().map(|l| l.refresh_words).sum(),
            retunes: layers.iter().filter(|l| l.retuned).count(),
            fallbacks: layers.iter().filter(|l| l.source == ScheduleSource::Conservative).count(),
            reschedules: layers.iter().filter(|l| l.source == ScheduleSource::Rescheduled).count(),
            layers,
        };
        self.report.passes.push(record);
        self.report.passes.last().expect("just pushed")
    }

    /// Runs a whole scenario.
    pub fn run_scenario(&mut self, scenario: &Scenario) {
        for step in &scenario.steps {
            match step {
                ScenarioStep::Passes(n) => {
                    for _ in 0..*n {
                        self.run_pass();
                    }
                }
                ScenarioStep::Idle(d) => self.idle(*d),
            }
        }
    }

    /// One layer boundary: sense → safe interval → retune → select
    /// schedule → account → heat.
    fn adapt_layer(&mut self, pass: usize, idx: usize) -> LayerAdaptation {
        // Thermal throttle: if the previous layer left the die above the
        // throttle temperature, idle until it cools back to the cap before
        // launching this layer.
        let throttle_us = throttle(&self.thermal, self.temp_c, THROTTLE_TEMP_C);
        if let Some(dt) = throttle_us {
            self.temp_c = THROTTLE_TEMP_C;
            self.now_us += dt;
            self.report.trajectory.push(TrajectoryPoint {
                t_us: self.now_us,
                temp_c: self.temp_c,
                power_w: 0.0,
            });
        }
        let start_temp_c = self.temp_c;
        let op = self.policy.operate(&self.thermal, start_temp_c);
        let (sensed_c, tolerable_us, interval_us) = (op.sensed_c, op.tolerable_us, op.interval_us);
        let retuned = op.divider.ratio() != self.divider.ratio();
        self.divider = op.divider;
        self.interval_us = interval_us;
        let (source, chosen) = self.select(idx, interval_us);

        // Re-account refresh and energy at the *operating* interval (the
        // chosen schedule may have been priced at a different one); the
        // sim's traffic already carries any forwarding adjustment. The
        // strategy sees the temperature-scaled retention so error budgets
        // stretch against the cells' current behavior.
        let dist_now = self.dist.at_temperature_delta(self.thermal.delta_c(sensed_c));
        let (decision, energy) = account_layer(
            self.strategy,
            &self.template,
            &chosen.sim,
            interval_us,
            &dist_now,
            || format!("pass{pass}"),
        );
        let refresh_words = decision.refresh_words;
        let flagged_banks = decision.flagged_banks();

        if rana_trace::enabled() {
            let at = format!("pass{}/{}", pass, chosen.sim.layer);
            rana_trace::emit(|| rana_trace::Event::ThermalSample {
                at: at.clone(),
                temp_c: sensed_c,
                scaled_retention_us: tolerable_us,
            });
            rana_trace::emit(|| rana_trace::Event::RefreshDecision {
                scope: at,
                banks: flagged_banks,
                divider: self.divider.ratio(),
                rung_us: interval_us,
                refresh_words,
                reason: if retuned {
                    format!("retune+{}", source.label())
                } else {
                    source.label().to_string()
                },
            });
            rana_trace::count("adaptive.layers", 1);
            if retuned {
                rana_trace::count("adaptive.retunes", 1);
            }
        }

        let time_us = chosen.sim.time_us;
        let power_w = energy.accelerator_j() / (time_us * 1e-6);
        self.temp_c = self.thermal.step(start_temp_c, power_w, time_us);
        self.now_us += time_us;
        self.report.trajectory.push(TrajectoryPoint {
            t_us: self.now_us,
            temp_c: self.temp_c,
            power_w,
        });

        LayerAdaptation {
            pass,
            layer: chosen.sim.layer.clone(),
            start_temp_c,
            end_temp_c: self.temp_c,
            throttle_us: throttle_us.unwrap_or(0.0),
            sensed_c,
            tolerable_us,
            interval_us,
            divider_ratio: self.divider.ratio(),
            retuned,
            source,
            crit_us: crit_us(&chosen),
            refresh_free: refresh_words == 0,
            flagged_banks,
            time_us,
            power_w,
            refresh_words,
            energy,
        }
    }
}

// ---------------------------------------------------------------------------
// Static reference policies (the bench's brackets).

/// One layer execution under a static policy.
#[derive(Debug, Clone)]
pub struct StaticLayerRecord {
    /// Pass index.
    pub pass: usize,
    /// Layer name.
    pub layer: String,
    /// Longest scheduled data lifetime, µs.
    pub crit_us: f64,
    /// Refresh operations issued during the layer.
    pub refresh_words: u64,
    /// Junction temperature entering the layer, °C.
    pub start_temp_c: f64,
    /// Junction temperature leaving the layer, °C.
    pub end_temp_c: f64,
}

/// A static (fixed-interval) policy driven through the same scenario.
#[derive(Debug, Clone)]
pub struct StaticRun {
    /// Policy label.
    pub label: String,
    /// Fixed operating interval (divider-quantized), µs.
    pub interval_us: f64,
    /// Total Eq. 14 energy.
    pub energy: EnergyBreakdown,
    /// Total refresh operations.
    pub refresh_words: u64,
    /// Peak junction temperature, °C.
    pub peak_temp_c: f64,
    /// Per-layer records in execution order.
    pub records: Vec<StaticLayerRecord>,
}

impl StaticRun {
    /// Retention-exposure probe specs for [`run_probes`]. A static policy
    /// never retunes: a layer is refresh-free iff it issued no pulses.
    pub fn probe_specs(&self, thermal: &ThermalModel) -> Vec<ProbeSpec> {
        self.records
            .iter()
            .map(|r| ProbeSpec {
                label: format!("{}:pass{}/{}", self.label, r.pass, r.layer),
                span_us: r.crit_us,
                refresh_interval_us: if r.refresh_words == 0 {
                    None
                } else {
                    Some(self.interval_us)
                },
                delta_c: thermal.delta_c(r.start_temp_c.max(r.end_temp_c)),
            })
            .collect()
    }
}

/// Drives `schedule` through `scenario` under a fixed refresh policy,
/// integrating the same thermal plant the adaptive runtime uses. The
/// policy's interval is divider-quantized, and refresh and energy are
/// re-accounted at the quantized interval, so the same schedule can be
/// priced under any static policy.
pub fn run_static_policy(
    label: &str,
    schedule: &NetworkSchedule,
    cfg: &AcceleratorConfig,
    model: &EnergyModel,
    policy: RefreshModel,
    thermal: &ThermalModel,
    scenario: &Scenario,
) -> StaticRun {
    let interval_us = quantize(cfg.frequency_hz, policy.interval_us).1;
    let refresh = RefreshModel { interval_us, kind: policy.kind };
    let mut temp_c = thermal.ambient_c;
    let mut peak_temp_c = temp_c;
    let mut energy = EnergyBreakdown::default();
    let mut refresh_words = 0u64;
    let mut records = Vec::new();
    let mut pass = 0usize;
    for step in &scenario.steps {
        match step {
            ScenarioStep::Idle(d) => temp_c = thermal.step(temp_c, 0.0, *d),
            ScenarioStep::Passes(n) => {
                for _ in 0..*n {
                    for l in &schedule.layers {
                        let words = layer_refresh_words(&l.sim, cfg, &refresh);
                        let e = model.layer_energy(&l.sim, words, cfg);
                        let power_w = e.accelerator_j() / (l.sim.time_us * 1e-6);
                        let start_temp_c = temp_c;
                        temp_c = thermal.step(temp_c, power_w, l.sim.time_us);
                        peak_temp_c = peak_temp_c.max(temp_c);
                        energy += e;
                        refresh_words += words;
                        records.push(StaticLayerRecord {
                            pass,
                            layer: l.sim.layer.clone(),
                            crit_us: crit_us(l),
                            refresh_words: words,
                            start_temp_c,
                            end_temp_c: temp_c,
                        });
                    }
                    pass += 1;
                }
            }
        }
    }
    StaticRun { label: label.to_string(), interval_us, energy, refresh_words, peak_temp_c, records }
}

// ---------------------------------------------------------------------------
// Functional validation: Monte-Carlo retention probes.

/// One retention exposure to replay through the functional engine: data
/// held for `span_us` at temperature delta `delta_c`, refreshed every
/// `refresh_interval_us` (or never).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Where the exposure came from (for reporting).
    pub label: String,
    /// Probe duration — the scheduled data lifetime being validated, µs.
    pub span_us: f64,
    /// Refresh pulse period during the probe; `None` runs refresh-free.
    pub refresh_interval_us: Option<f64>,
    /// Die temperature delta against the characterization point, °C.
    pub delta_c: f64,
}

/// Aggregate result of a probe batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSummary {
    /// Probes executed.
    pub probes: usize,
    /// Total bits read by the compute across all probes.
    pub bits_read: u64,
    /// Total faulted bits observed.
    pub faulted_bits: u64,
    /// Highest single-probe failure rate.
    pub worst_rate: f64,
    /// Label of the worst probe.
    pub worst_probe: String,
}

impl ValidationSummary {
    /// Realized aggregate bit-failure rate (`0` when nothing was read).
    pub fn realized_rate(&self) -> f64 {
        if self.bits_read == 0 {
            0.0
        } else {
            self.faulted_bits as f64 / self.bits_read as f64
        }
    }
}

/// The probe workload: a small CONV layer whose residents fit a 2-bank
/// buffer, finely tiled so the loop nest touches the buffer throughout the
/// dilated span.
fn probe_workload() -> (SchedLayer, Vec<i16>, Vec<i16>) {
    let layer = SchedLayer {
        name: "probe".into(),
        n: 4,
        h: 8,
        l: 8,
        m: 6,
        k: 3,
        s: 1,
        r: 6,
        c: 6,
        pad: 0,
        groups: 1,
    };
    let inputs: Vec<i16> =
        (0..layer.n * layer.h * layer.l).map(|i| ((i * 37) % 251) as i16 - 125).collect();
    let weights: Vec<i16> =
        (0..layer.m * layer.n * layer.k * layer.k).map(|i| ((i * 53) % 197) as i16 - 98).collect();
    (layer, inputs, weights)
}

/// Replays retention exposures through the functional execution engine
/// with Monte-Carlo cell faults.
///
/// Each spec dilates the probe workload's clock so one layer execution
/// lasts exactly `span_us`, scales the retention distribution to the
/// spec's temperature, optionally refreshes at the spec's interval, and
/// counts faulted bits against bits read. Per-probe cell retention draws
/// derive deterministically from `seed` and the probe's index and label,
/// so a batch is reproducible end to end.
pub fn run_probes(
    specs: &[ProbeSpec],
    dist: &RetentionDistribution,
    seed: u64,
) -> ValidationSummary {
    let (layer, inputs, weights) = probe_workload();
    let tiling = Tiling::new(2, 2, 2, 2);
    let mut cfg = AcceleratorConfig::paper_edram();
    cfg.buffer.num_banks = 2;
    cfg.buffer.bank_words = 2048;
    let base_cycles = rana_accel::trace::trace(&layer, Pattern::Id, tiling, &cfg).cycles;

    let mut summary = ValidationSummary {
        probes: 0,
        bits_read: 0,
        faulted_bits: 0,
        worst_rate: 0.0,
        worst_probe: String::new(),
    };
    for (i, spec) in specs.iter().enumerate() {
        assert!(spec.span_us > 0.0, "probe span must be positive: {}", spec.label);
        let mut c = cfg.clone();
        // Dilate the clock so the probe runs for exactly span_us.
        c.frequency_hz = base_cycles as f64 / spec.span_us * 1e6;
        let mut h = Fnv1a::new();
        h.write_u64(seed);
        h.write_usize(i);
        for b in spec.label.bytes() {
            h.write_u8(b);
        }
        let model = BufferModel::Edram {
            dist: dist.at_temperature_delta(spec.delta_c),
            seed: h.finish(),
            refresh: spec.refresh_interval_us.map(RefreshConfig::conventional),
        };
        let r = execute_layer_grouped_with(
            Engine::Blocked,
            &layer,
            Pattern::Id,
            tiling,
            &c,
            &inputs,
            &weights,
            Formats::default(),
            &model,
        );
        let bits = r.reads * 16;
        let rate = if bits == 0 { 0.0 } else { r.faults as f64 / bits as f64 };
        summary.probes += 1;
        summary.bits_read += bits;
        summary.faulted_bits += r.faults;
        if rate > summary.worst_rate {
            summary.worst_rate = rate;
            summary.worst_probe = spec.label.clone();
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_accel::ControllerKind;

    fn runtime(fallback: FallbackPolicy) -> AdaptiveRuntime {
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::alexnet();
        let design = Design::RanaStarE5;
        AdaptiveRuntime::new(
            &eval,
            &net,
            design,
            ThermalModel::embedded_65nm(),
            AdaptiveConfig { fallback, seed: 7 },
        )
    }

    #[test]
    fn cold_first_layer_keeps_nominal_interval() {
        let mut rt = runtime(FallbackPolicy::Conservative);
        let nominal = rt.interval_us();
        rt.run_pass();
        let first = &rt.report().passes[0].layers[0];
        // At ambient = characterization the ladder sits one margin-rung
        // below nominal at most.
        assert!(first.interval_us <= nominal);
        assert!(first.interval_us >= nominal * 0.8);
    }

    #[test]
    fn heating_tightens_the_interval_monotonically() {
        let mut rt = runtime(FallbackPolicy::Conservative);
        for _ in 0..6 {
            rt.run_pass();
        }
        let r = rt.report();
        let first = r.passes.first().expect("passes");
        let last = r.passes.last().expect("passes");
        assert!(last.end_temp_c > first.start_temp_c + 1.0, "die should heat up");
        assert!(last.min_interval_us() <= first.min_interval_us());
        // Temperature trajectory is monotone under back-to-back passes.
        for w in r.trajectory.windows(2) {
            assert!(w[1].temp_c >= w[0].temp_c - 1e-9);
        }
    }

    #[test]
    fn interval_always_respects_margined_retention() {
        let mut rt = runtime(FallbackPolicy::Reschedule);
        rt.run_scenario(&Scenario::heating_transient(6, 100_000.0));
        for p in &rt.report().passes {
            for l in &p.layers {
                assert!(
                    l.interval_us <= l.tolerable_us * 0.85 + 1e-9,
                    "{}: interval {} vs tolerable {}",
                    l.layer,
                    l.interval_us,
                    l.tolerable_us
                );
                // And every executed layer's data either outlives nothing
                // (refresh-free, lifetime under the interval) or refreshes.
                if l.refresh_free {
                    assert!(
                        l.crit_us < l.interval_us || l.time_us < l.interval_us,
                        "{}: refresh-free with crit {} >= interval {}",
                        l.layer,
                        l.crit_us,
                        l.interval_us
                    );
                }
            }
        }
    }

    #[test]
    fn idle_cools_towards_ambient() {
        let mut rt = runtime(FallbackPolicy::Conservative);
        for _ in 0..4 {
            rt.run_pass();
        }
        let hot = rt.temp_c();
        rt.idle(200_000.0);
        assert!(rt.temp_c() < hot);
        assert!(rt.temp_c() >= ThermalModel::embedded_65nm().ambient_c - 1e-9);
    }

    #[test]
    fn oracle_interval_is_at_most_every_adaptive_interval() {
        let mut rt = runtime(FallbackPolicy::Conservative);
        rt.run_scenario(&Scenario::heating_transient(6, 150_000.0));
        let oracle = rt.oracle_interval_us();
        for p in &rt.report().passes {
            for l in &p.layers {
                assert!(oracle <= l.interval_us + 1e-9);
            }
        }
    }

    #[test]
    fn reschedule_fallback_uses_memo_cache() {
        let mut rt = runtime(FallbackPolicy::Reschedule);
        rt.run_scenario(&Scenario::heating_transient(8, 0.0));
        // Whatever was rescheduled online landed in the runtime's own
        // cache keyed by (shape, rung) — never more entries than
        // reschedules.
        let r = rt.report();
        if r.total_reschedules() > 0 {
            assert!(rt.cache.len() <= r.total_reschedules());
        }
    }

    #[test]
    fn probes_are_deterministic_and_safe_when_cold() {
        let specs = vec![
            ProbeSpec {
                label: "free".into(),
                span_us: 200.0,
                refresh_interval_us: None,
                delta_c: 0.0,
            },
            ProbeSpec {
                label: "refreshed".into(),
                span_us: 2_000.0,
                refresh_interval_us: Some(300.0),
                delta_c: 0.0,
            },
        ];
        let dist = RetentionDistribution::kong2008();
        let a = run_probes(&specs, &dist, 11);
        let b = run_probes(&specs, &dist, 11);
        assert_eq!(a, b);
        assert!(a.bits_read > 0);
        // 200 µs and 300 µs exposures sit far below the 734 µs tolerable
        // point: realized rate must be under the 1e-5 target.
        assert!(a.realized_rate() <= 1e-5, "rate {}", a.realized_rate());
    }

    #[test]
    fn hot_unrefreshed_probe_faults_more() {
        let dist = RetentionDistribution::kong2008();
        let cold = run_probes(
            &[ProbeSpec {
                label: "cold".into(),
                span_us: 600.0,
                refresh_interval_us: None,
                delta_c: 0.0,
            }],
            &dist,
            3,
        );
        let hot = run_probes(
            &[ProbeSpec {
                label: "hot".into(),
                span_us: 600.0,
                refresh_interval_us: None,
                delta_c: 35.0,
            }],
            &dist,
            3,
        );
        assert!(
            hot.faulted_bits > cold.faulted_bits,
            "hot {} vs cold {}",
            hot.faulted_bits,
            cold.faulted_bits
        );
    }

    #[test]
    fn report_json_is_deterministic() {
        let mk = || {
            let mut rt = runtime(FallbackPolicy::Reschedule);
            rt.run_scenario(&Scenario::heating_transient(3, 50_000.0));
            rt.into_report().to_json()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn static_policy_covers_scenario() {
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::alexnet();
        let design = Design::RanaStarE5;
        let e = eval.evaluate_with_refresh(
            &net,
            design,
            RefreshModel { interval_us: 45.0, kind: ControllerKind::RefreshOptimized },
        );
        let scenario = Scenario::heating_transient(3, 10_000.0);
        let run = run_static_policy(
            "static-45",
            &e.schedule,
            eval.edram_config(),
            &EnergyModel::paper_65nm(),
            RefreshModel { interval_us: 45.0, kind: ControllerKind::RefreshOptimized },
            &ThermalModel::embedded_65nm(),
            &scenario,
        );
        assert_eq!(run.records.len(), 4 * e.schedule.layers.len());
        assert!(run.refresh_words > 0, "45 µs refresh must issue pulses");
        assert!(run.peak_temp_c > ThermalModel::embedded_65nm().ambient_c);
        assert_eq!(run.probe_specs(&ThermalModel::embedded_65nm()).len(), run.records.len());
    }
}
