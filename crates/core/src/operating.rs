//! The operating-point engine: RANA's three stages, applied once per
//! thermal rung at run time.
//!
//! * Stage 1 ([`ThermalPolicy::operate`]): sense the junction temperature,
//!   derate the tolerable retention by [`scale_for_delta`] and the safety
//!   margin, snap it onto the interval ladder ([`ladder_rung_us`]) and
//!   quantize the rung to a [`ClockDivider`]: the *operating interval*.
//! * Stage 2: a layer keeps its base schedule iff it stays refresh-free at
//!   that interval (`keeps_base`); otherwise it is rescheduled with
//!   refresh priced at `weight ×` its Table III cost (`hedged`).
//! * Stage 3 (`account_layer`): the refresh strategy's per-layer decision
//!   and the layer's Eq. 14 energy.
//!
//! [`AdaptiveRuntime`](crate::adaptive::AdaptiveRuntime) drives it per
//! layer boundary, `rana-serve`'s serving loop per batch through
//! [`ProfileCache`], and [`precompile`](crate::store::precompile) over the
//! ladder's rungs ([`rung_us`]). Serving only ever runs at those rungs and
//! both search through the same network walk, so a precompiled store's
//! keys match serving's by construction. The knobs all three share are
//! the constants below ([`LADDER_STEPS_PER_OCTAVE`] and friends). Where
//! callers differ, the difference is an argument: who throttles
//! ([`throttle`]), and which retention distribution the strategy sees.

use crate::energy::EnergyBreakdown;
use crate::evaluate::Evaluator;
use crate::fxhash::FxBuildHasher;
use crate::par::ScheduleCache;
use crate::scheduler::{
    compose_key, LayerSchedule, NetworkSchedule, Planned, Scheduler, SearchBatch,
};
use rana_accel::{LayerSim, RefreshModel, SchedLayer};
use rana_edram::thermal::ThermalModel;
use rana_edram::{ClockDivider, RetentionDistribution};
use rana_policy::{LayerCtx, LayerDecision, RefreshStrategy, Strategy};
use rana_zoo::Network;
use std::borrow::Cow;
use std::collections::HashMap;

/// Safety margin on the tolerable retention time: covers sensor
/// quantization and the heating within a layer or batch.
pub const RETENTION_MARGIN: f64 = 0.85;
/// Temperature sensor resolution, °C (samples quantize up).
pub const SENSOR_QUANTUM_C: f64 = 0.25;
/// Interval-ladder resolution, rungs per octave of derating. Serving and
/// [`precompile`](crate::store::precompile) both default to it, so a
/// precompiled store's rungs match serving's bit for bit.
pub const LADDER_STEPS_PER_OCTAVE: u32 = 4;
/// Thermal throttle cap, °C: the die idles back to it before launching
/// work from above it.
pub const THROTTLE_TEMP_C: f64 = 85.0;
/// Refresh-cost hedge of online reschedules: refresh is priced at this
/// multiple of its Table III cost.
pub const RESCHEDULE_REFRESH_WEIGHT: f64 = 4.0;

/// Panics unless the interval ladder has at least one rung per octave.
pub(crate) fn check_ladder_steps(steps_per_octave: u32) {
    assert!(steps_per_octave >= 1, "ladder needs at least one step per octave");
}

/// Panics unless the reschedule refresh weight is at least 1.
pub(crate) fn check_refresh_weight(weight: f64) {
    assert!(weight >= 1.0, "refresh weight must be at least 1, got {weight}");
}

/// Panics unless the thermal throttle cap lies above ambient.
pub fn check_throttle(cap_c: f64, thermal: &ThermalModel) {
    assert!(
        cap_c > thermal.ambient_c,
        "throttle cap {cap_c} degC must be above ambient {} degC",
        thermal.ambient_c
    );
}

/// Retention scale factor for a temperature delta: `2^(−ΔT/10)` (retention
/// roughly halves per +10 °C of junction temperature).
pub fn scale_for_delta(delta_c: f64) -> f64 {
    (-delta_c / 10.0).exp2()
}

/// Rung `k` of the interval ladder: `nominal · 2^(−k/steps)`.
pub fn rung_us(nominal_us: f64, steps_per_octave: u32, k: u32) -> f64 {
    nominal_us * (-f64::from(k) / f64::from(steps_per_octave)).exp2()
}

/// Largest interval-ladder rung [`rung_us`] that does not exceed
/// `safe_us`. Quantizing the operating interval onto one ladder caps the
/// number of distinct scheduling contexts (and therefore memo cache
/// entries) at `steps_per_octave` per octave of derating.
///
/// # Panics
///
/// Panics if `safe_us` is not positive.
pub fn ladder_rung_us(nominal_us: f64, safe_us: f64, steps_per_octave: u32) -> f64 {
    if safe_us >= nominal_us {
        return nominal_us;
    }
    assert!(safe_us > 0.0, "safe interval must be positive, got {safe_us}");
    let steps = f64::from(steps_per_octave);
    let mut k = (steps * (nominal_us / safe_us).log2()).ceil() as u32;
    let mut rung = rung_us(nominal_us, steps_per_octave, k);
    // ceil() can land exactly on safe_us's rung and float rounding can
    // leave it a hair above; step down once more if so.
    while rung > safe_us {
        k += 1;
        rung = rung_us(nominal_us, steps_per_octave, k);
    }
    rung
}

/// The clock divider for `interval_us` and the pulse period it produces.
pub(crate) fn quantize(frequency_hz: f64, interval_us: f64) -> (ClockDivider, f64) {
    let divider = ClockDivider::for_interval(frequency_hz, interval_us);
    (divider, divider.pulse_period_us(frequency_hz))
}

/// What Stage 1 decided at one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Quantized sensor reading, °C.
    pub sensed_c: f64,
    /// Tolerable retention at the sensed temperature (before margin), µs.
    pub tolerable_us: f64,
    /// Clock divider programmed for the rung.
    pub divider: ClockDivider,
    /// Operating refresh interval (divider-quantized rung), µs.
    pub interval_us: f64,
}

/// Stage 1 for one platform: sensor ([`SENSOR_QUANTUM_C`]), derate,
/// margin ([`RETENTION_MARGIN`]), ladder and divider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalPolicy {
    frequency_hz: f64,
    nominal_us: f64,
    steps_per_octave: u32,
    base_tolerable_us: f64,
}

impl ThermalPolicy {
    /// The policy on `template`'s clock and nominal interval, given the
    /// tolerable retention at the characterization temperature.
    ///
    /// # Panics
    ///
    /// Panics if the ladder has no step per octave.
    pub fn new(template: &Scheduler, base_tolerable_us: f64, steps_per_octave: u32) -> Self {
        check_ladder_steps(steps_per_octave);
        Self {
            frequency_hz: template.cfg.frequency_hz,
            nominal_us: template.refresh.interval_us,
            steps_per_octave,
            base_tolerable_us,
        }
    }

    /// The divider and operating interval at the nominal rung.
    pub fn nominal(&self) -> (ClockDivider, f64) {
        quantize(self.frequency_hz, self.nominal_us)
    }

    /// Sense (rounded *up* to the sensor resolution) → derate → margin →
    /// ladder rung → divider at `temp_c`.
    pub fn operate(&self, thermal: &ThermalModel, temp_c: f64) -> OperatingPoint {
        let sensed_c = sensor_step(temp_c) * SENSOR_QUANTUM_C;
        let tolerable_us = self.base_tolerable_us * scale_for_delta(thermal.delta_c(sensed_c));
        let safe_us = tolerable_us * RETENTION_MARGIN;
        let rung = ladder_rung_us(self.nominal_us, safe_us, self.steps_per_octave);
        let (divider, interval_us) = quantize(self.frequency_hz, rung);
        OperatingPoint { sensed_c, tolerable_us, divider, interval_us }
    }
}

/// The sensor step of `temp_c`: the reading in units of
/// [`SENSOR_QUANTUM_C`], rounded up. Stage 1 sees the temperature only
/// through it.
fn sensor_step(temp_c: f64) -> f64 {
    (temp_c / SENSOR_QUANTUM_C).ceil()
}

/// [`ThermalPolicy::operate`] memoized by sensor step, for one thermal
/// model.
///
/// Every temperature of one sensor step reads the same, so it has the
/// same operating point. The memo computes that point with `operate` at
/// the step's first sample and hands out the same bits from then on: a
/// serving loop pays Stage 1's `exp2`, `log2` and divider quantization
/// once per step (161 steps from the 45 °C ambient to the throttle cap),
/// not once per batch.
#[derive(Debug, Clone)]
pub struct OperatingMemo {
    policy: ThermalPolicy,
    thermal: ThermalModel,
    /// Operating points by the bits of their sensor step.
    points: HashMap<u64, OperatingPoint, FxBuildHasher>,
}

impl OperatingMemo {
    /// An empty memo of `policy` on `thermal`.
    pub fn new(policy: ThermalPolicy, thermal: ThermalModel) -> Self {
        Self { policy, thermal, points: HashMap::default() }
    }

    /// The memoized policy.
    pub fn policy(&self) -> &ThermalPolicy {
        &self.policy
    }

    /// [`ThermalPolicy::operate`] at `temp_c`, bit for bit.
    pub fn operate(&mut self, temp_c: f64) -> OperatingPoint {
        let step = sensor_step(temp_c).to_bits();
        if let Some(&point) = self.points.get(&step) {
            return point;
        }
        let point = self.policy.operate(&self.thermal, temp_c);
        self.points.insert(step, point);
        point
    }
}

/// Thermal throttle: when the junction sits above `cap_c`, the idle (zero
/// power) time that cools it back to the cap, µs, from the exact RC
/// solution `dt = τ·ln((T0 − amb) / (cap − amb))`. This bounds the refresh
/// → heat → tighter-interval feedback loop the way DVFS duty-cycling
/// bounds a thermal runaway.
pub fn throttle(thermal: &ThermalModel, temp_c: f64, cap_c: f64) -> Option<f64> {
    let amb = thermal.ambient_c;
    (temp_c > cap_c).then(|| thermal.tau_us * ((temp_c - amb) / (cap_c - amb)).ln())
}

/// Longest scheduled data lifetime of a layer schedule, µs: the quantity a
/// refresh-free execution must keep below the operating interval.
pub fn crit_us(l: &LayerSchedule) -> f64 {
    l.sim.lifetimes.critical_intervals().into_iter().fold(0.0, f64::max)
}

/// The decision rule (DESIGN.md): a layer keeps its base schedule iff the
/// schedule stays refresh-free at `interval_us`.
pub(crate) fn keeps_base(base: &LayerSchedule, interval_us: f64) -> bool {
    crit_us(base) < interval_us
}

/// The online-reschedule scheduler at `interval_us`: `template` with
/// refresh priced at `weight ×` its cost. Under a heating transient a
/// candidate's refresh bill keeps growing as the interval tightens, so the
/// search hedges; accounting always uses the unweighted model.
pub(crate) fn hedged(template: &Scheduler, interval_us: f64, weight: f64) -> Scheduler {
    let mut s = template.clone();
    s.refresh = RefreshModel { interval_us, kind: template.refresh.kind };
    s.model.costs.edram_refresh_pj *= weight;
    s
}

/// One network at one bank share: its nominal scheduler, CONV layers and
/// the base schedule every rung starts from.
pub(crate) struct NetworkPlan {
    pub(crate) nominal: Scheduler,
    pub(crate) layers: Vec<SchedLayer>,
    base: NetworkSchedule,
}

impl NetworkPlan {
    pub(crate) fn new(t: &Scheduler, banks: usize, net: &Network, cache: &ScheduleCache) -> Self {
        let mut nominal = t.clone();
        nominal.cfg.buffer.num_banks = banks;
        let base = nominal.schedule_network_with(net, Some(cache), 1);
        let layers = net.conv_layers().map(SchedLayer::from_conv).collect();
        Self { nominal, layers, base }
    }

    /// Each rung's per-layer schedules, for the hedged schedulers `rungs`
    /// (one per rung; they differ only in refresh interval, so they form
    /// one search group): the base schedule where [`keeps_base`]
    /// (borrowed), else a reschedule through `cache` (owned). Lookups are
    /// planned rung by rung in layer order, then each layer shape is
    /// searched once for every rung that reschedules it. Serving passes
    /// one rung.
    pub(crate) fn choose<'p>(
        &'p self,
        rungs: &'p [Scheduler],
        cache: &'p ScheduleCache,
    ) -> Vec<Vec<Cow<'p, LayerSchedule>>> {
        let mut batch = SearchBatch::new(Some(cache));
        let planned: Vec<Vec<Option<Planned>>> = rungs
            .iter()
            .map(|hedged| {
                let (ctx, search_key) = (hedged.fingerprint(), hedged.search_key());
                let interval_us = hedged.refresh.interval_us;
                self.base
                    .layers
                    .iter()
                    .zip(&self.layers)
                    .map(|(base, layer)| {
                        (!keeps_base(base, interval_us))
                            .then(|| batch.plan(hedged, search_key, compose_key(ctx, layer), layer))
                    })
                    .collect()
            })
            .collect();
        let searched = batch.run(None);
        planned
            .iter()
            .map(|row| {
                row.iter()
                    .zip(self.base.layers.iter().zip(&self.layers))
                    .map(|(planned, (base, layer))| match planned {
                        Some(p) => Cow::Owned(searched.get(*p, &layer.name)),
                        None => Cow::Borrowed(base),
                    })
                    .collect()
            })
            .collect()
    }
}

/// One executed layer's refresh decision and Eq. 14 energy on `sched`'s
/// platform at `interval_us`. A strategy other than the controller's
/// default is a new decision point and is traced under `"{scope()}/{layer}"`.
pub(crate) fn account_layer(
    strategy: Strategy,
    sched: &Scheduler,
    sim: &LayerSim,
    interval_us: f64,
    retention: &RetentionDistribution,
    scope: impl FnOnce() -> String,
) -> (LayerDecision, EnergyBreakdown) {
    let ctx = LayerCtx { sim, cfg: &sched.cfg, interval_us, retention };
    let decision = if strategy == Strategy::for_kind(sched.refresh.kind) {
        strategy.decide(&ctx)
    } else {
        rana_policy::decide_traced(&strategy, &ctx, &format!("{}/{}", scope(), sim.layer))
    };
    let energy = sched.model.layer_energy(sim, decision.refresh_words, &sched.cfg);
    (decision, energy)
}

/// One tenant inference at one operating point (bank share, operating
/// interval, refresh strategy), under the keep-base-iff-refresh-free rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Profile {
    /// Execution time, µs.
    pub time_us: f64,
    /// Eq. 14 energy at the operating interval.
    pub energy: EnergyBreakdown,
    /// Words refreshed.
    pub refresh_words: u64,
    /// Off-chip energy of one weight reload, J.
    pub reload_j: f64,
    /// Layers that abandoned the base schedule for an online reschedule.
    pub rescheduled_layers: u64,
    /// Most banks the refresh controller flags in any layer.
    pub flagged_banks: usize,
    /// Fresh Stage-2 layer searches building the profile cost (0 when
    /// every search hit the schedule cache, e.g. after a warm start).
    pub fresh_searches: u64,
}

impl Profile {
    /// Energy of `batch` back-to-back inferences with weights held
    /// resident: requests 2..B skip the weight DRAM loads.
    pub fn batch_energy(&self, batch: usize) -> EnergyBreakdown {
        let b = batch as f64;
        EnergyBreakdown {
            computing_j: self.energy.computing_j * b,
            buffer_j: self.energy.buffer_j * b,
            refresh_j: self.energy.refresh_j * b,
            offchip_j: (self.energy.offchip_j * b - (b - 1.0) * self.reload_j).max(0.0),
        }
    }
}

/// Builds [`Profile`]s: Stage 2 through the evaluator's shared schedule
/// cache, Stage 3 against the characterization-temperature retention.
#[derive(Debug)]
struct ProfileBuilder<'a> {
    eval: &'a Evaluator,
    template: Scheduler,
    weight: f64,
    scope: &'static str,
}

impl ProfileBuilder<'_> {
    fn build(
        &self,
        tenant: usize,
        net: &Network,
        banks: usize,
        interval_us: f64,
        s: Strategy,
    ) -> Profile {
        let cache = self.eval.cache();
        let misses_before = cache.misses();
        let plan = NetworkPlan::new(&self.template, banks, net, cache);
        let hedged = [hedged(&plan.nominal, interval_us, self.weight)];
        let mut p = Profile::default();
        let mut reload_words = 0u64;
        for chosen in plan.choose(&hedged, cache).swap_remove(0) {
            let (sim, retention) = (&chosen.sim, self.eval.retention());
            let scope = || format!("{}{tenant}", self.scope);
            let (decision, energy) =
                account_layer(s, &plan.nominal, sim, interval_us, retention, scope);
            p.rescheduled_layers += u64::from(matches!(chosen, Cow::Owned(_)));
            p.flagged_banks = p.flagged_banks.max(decision.flagged_banks());
            p.time_us += chosen.sim.time_us;
            p.energy += energy;
            p.refresh_words += decision.refresh_words;
            reload_words += chosen.sim.traffic.dram_weight_loads;
        }
        p.reload_j = reload_words as f64 * self.template.model.costs.ddr_access_pj * 1e-12;
        p.fresh_searches = cache.misses() - misses_before;
        p
    }
}

/// `(tenant, banks, operating interval bits, strategy memo key)`.
type ProfileKey = (usize, usize, u64, (u8, u64));

/// Memoizes [`Profile`]s by `(tenant, banks, operating interval bits,
/// strategy memo key)`; a strategy of `None` is the design controller's
/// default and shares its key. The per-layer searches inside flow through
/// the evaluator's shared [`ScheduleCache`].
#[derive(Debug)]
pub struct ProfileCache<'a> {
    builder: ProfileBuilder<'a>,
    /// Each profile, and whether a dispatch was charged for its searches.
    memo: HashMap<ProfileKey, (Profile, bool), FxBuildHasher>,
}

impl<'a> ProfileCache<'a> {
    /// A cache over `eval`'s platform for the nominal scheduler `template`
    /// (from [`Evaluator::scheduler_for`]), hedging online reschedules by
    /// `reschedule_refresh_weight`.
    ///
    /// # Panics
    ///
    /// Panics if the weight is below 1.
    pub fn new(eval: &'a Evaluator, template: Scheduler, reschedule_refresh_weight: f64) -> Self {
        check_refresh_weight(reschedule_refresh_weight);
        let builder =
            ProfileBuilder { eval, template, weight: reschedule_refresh_weight, scope: "tenant" };
        Self { builder, memo: HashMap::default() }
    }

    /// Traces non-default strategy decisions under `"{scope}{tenant}/{layer}"`
    /// (default scope `"tenant"`).
    pub fn scoped(mut self, scope: &'static str) -> Self {
        self.builder.scope = scope;
        self
    }

    /// Distinct profiles computed so far.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether no profile has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// The template's whole-buffer bank count.
    pub fn full_banks(&self) -> usize {
        self.builder.template.cfg.buffer.num_banks
    }

    /// The profile of one `tenant` inference on the whole buffer at
    /// `interval_us` under `strategy` (memoized).
    pub fn profile(
        &mut self,
        tenant: usize,
        net: &Network,
        interval_us: f64,
        strategy: Option<Strategy>,
    ) -> Profile {
        self.dispatch_at(tenant, net, self.full_banks(), interval_us, strategy, false).0
    }

    /// [`Self::profile`] at a `banks`-bank share of the buffer.
    pub fn profile_at(
        &mut self,
        tenant: usize,
        net: &Network,
        banks: usize,
        interval_us: f64,
        strategy: Option<Strategy>,
    ) -> Profile {
        self.dispatch_at(tenant, net, banks, interval_us, strategy, false).0
    }

    /// [`Self::profile_at`] for a dispatch, plus the profile's fresh
    /// searches that no earlier dispatch was charged for (the first
    /// dispatch gets them all, later ones 0).
    pub fn dispatch(
        &mut self,
        tenant: usize,
        net: &Network,
        banks: usize,
        interval_us: f64,
        strategy: Option<Strategy>,
    ) -> (Profile, u64) {
        self.dispatch_at(tenant, net, banks, interval_us, strategy, true)
    }

    fn dispatch_at(
        &mut self,
        tenant: usize,
        net: &Network,
        banks: usize,
        interval_us: f64,
        s: Option<Strategy>,
        charge: bool,
    ) -> (Profile, u64) {
        let Self { builder, memo } = self;
        let s = s.unwrap_or(Strategy::for_kind(builder.template.refresh.kind));
        let key = (tenant, banks, interval_us.to_bits(), s.memo_key());
        let (p, charged) = memo
            .entry(key)
            .or_insert_with(|| (builder.build(tenant, net, banks, interval_us, s), false));
        let fresh = if *charged || !charge { 0 } else { p.fresh_searches };
        *charged |= charge;
        (*p, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Design;

    fn cache_for(eval: &Evaluator) -> (ProfileCache<'_>, f64) {
        let template = eval.scheduler_for(Design::RanaStarE5);
        let nominal = template.refresh.interval_us;
        (ProfileCache::new(eval, template, 4.0), nominal)
    }

    #[test]
    fn ladder_rungs_are_quantized() {
        let (nominal, steps) = (734.0, 4);
        for safe in [700.0, 500.0, 300.0, 120.0, 50.0] {
            let rung = ladder_rung_us(nominal, safe, steps);
            assert!(rung <= safe);
            let k = f64::from(steps) * (nominal / rung).log2();
            assert!((k - k.round()).abs() < 1e-6, "rung {rung} is not on the ladder");
            assert_eq!(rung.to_bits(), rung_us(nominal, steps, k.round() as u32).to_bits());
            // And the next rung up would overshoot.
            assert!(rung_us(nominal, steps, k.round() as u32 - 1) > safe);
        }
        assert_eq!(ladder_rung_us(nominal, 2.0 * nominal, steps), rung_us(nominal, steps, 0));
    }

    #[test]
    fn the_operating_memo_is_operate_bit_for_bit() {
        let eval = Evaluator::paper_platform();
        let design = Design::RanaStarE5;
        let tolerable = eval.retention().tolerable_retention_us(design.failure_rate());
        let policy =
            ThermalPolicy::new(&eval.scheduler_for(design), tolerable, LADDER_STEPS_PER_OCTAVE);
        let thermal = ThermalModel::embedded_65nm();
        // Every sensor step from ambient to the throttle cap: on each
        // quantum boundary, just above it (the next step) and between.
        let (first, last) =
            (sensor_step(thermal.ambient_c) as i32, sensor_step(THROTTLE_TEMP_C) as i32);
        assert_eq!(last - first + 1, 161);
        let temps: Vec<f64> = (first..=last)
            .flat_map(|k| {
                let on = f64::from(k) * SENSOR_QUANTUM_C;
                [on, on.next_up(), on + 0.4 * SENSOR_QUANTUM_C, on.next_down()]
            })
            .collect();
        // Whichever temperature of a step comes first fills its entry.
        for order in [temps.clone(), temps.iter().rev().copied().collect()] {
            let mut memo = OperatingMemo::new(policy, thermal);
            for &t in &order {
                let (got, want) = (memo.operate(t), policy.operate(&thermal, t));
                assert_eq!(got.sensed_c.to_bits(), want.sensed_c.to_bits(), "{t} degC");
                assert_eq!(got.tolerable_us.to_bits(), want.tolerable_us.to_bits(), "{t} degC");
                assert_eq!(got.divider, want.divider, "{t} degC");
                assert_eq!(got.interval_us.to_bits(), want.interval_us.to_bits(), "{t} degC");
            }
            // One entry per step, plus the step just above the cap.
            assert_eq!(memo.points.len(), 162);
        }
    }

    #[test]
    fn throttle_cools_exactly_to_the_cap() {
        let thermal = ThermalModel::embedded_65nm();
        assert_eq!(throttle(&thermal, 80.0, 85.0), None);
        let dt = throttle(&thermal, 95.0, 85.0).expect("above the cap");
        assert!((thermal.step(95.0, 0.0, dt) - 85.0).abs() < 1e-9);
    }

    #[test]
    fn profiles_are_memoized_and_interval_sensitive() {
        let eval = Evaluator::paper_platform();
        let (mut cache, nominal) = cache_for(&eval);
        let net = rana_zoo::alexnet();
        let a = cache.profile(0, &net, nominal, None);
        let b = cache.profile(0, &net, nominal, None);
        assert_eq!(cache.len(), 1, "same (tenant, rung) must hit the memo");
        assert_eq!(a, b);
        assert!(a.time_us > 0.0 && a.energy.total_j() > 0.0);
        // A much tighter interval forces reschedules and more refresh.
        let tight = cache.profile(0, &net, nominal / 16.0, None);
        assert_eq!(cache.len(), 2);
        assert!(tight.refresh_words >= a.refresh_words);
        assert!(tight.rescheduled_layers > 0);
        // A bank share is a distinct operating point.
        cache.profile_at(0, &net, 22, nominal, None);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn fresh_searches_are_charged_to_the_first_dispatch_only() {
        let eval = Evaluator::paper_platform();
        let (mut cache, nominal) = cache_for(&eval);
        let net = rana_zoo::alexnet();
        let banks = cache.full_banks();
        // Building without dispatching leaves the charge pending.
        let built = cache.profile_at(0, &net, banks, nominal / 16.0, None);
        assert!(built.fresh_searches > 0, "a cold evaluator must run fresh searches");
        let (_, fresh0) = cache.dispatch(0, &net, banks, nominal / 16.0, None);
        assert_eq!(fresh0, built.fresh_searches);
        let (_, again) = cache.dispatch(0, &net, banks, nominal / 16.0, None);
        assert_eq!(again, 0);
        // Another tenant of the same network at the same rung: new
        // profile key, but every layer search hits the schedule cache.
        let (p1, fresh1) = cache.dispatch(1, &net, banks, nominal / 16.0, None);
        assert_eq!((p1.fresh_searches, fresh1), (0, 0));
    }

    #[test]
    fn strategies_key_the_memo_and_none_matches_the_default() {
        let eval = Evaluator::paper_platform();
        let (mut cache, nominal) = cache_for(&eval);
        let net = rana_zoo::alexnet();
        let implicit = cache.profile(0, &net, nominal, None);
        let explicit = cache.profile(0, &net, nominal, Some(Strategy::RanaFlagged));
        assert_eq!(cache.len(), 1, "None and the explicit default share a key");
        assert_eq!(implicit, explicit);
        let conv = cache.profile(0, &net, nominal, Some(Strategy::Conventional));
        assert_eq!(cache.len(), 2, "a pinned strategy gets its own entry");
        assert!(conv.refresh_words >= implicit.refresh_words);
    }

    #[test]
    fn batches_amortize_weight_reloads() {
        let eval = Evaluator::paper_platform();
        let (mut cache, nominal) = cache_for(&eval);
        let p = cache.profile(0, &rana_zoo::alexnet(), nominal, None);
        assert_eq!(p.batch_energy(1), p.energy);
        let four = p.batch_energy(4);
        assert_eq!(four.computing_j, 4.0 * p.energy.computing_j);
        assert!(four.offchip_j < 4.0 * p.energy.offchip_j);
    }
}
