//! RANA's layer-based scheduling scheme (paper §IV-C3, Figure 13).
//!
//! For each CONV layer, the scheduler explores computation patterns ×
//! tiling parameters subject to the core-local storage constraints
//! (`Tn·Th·Tl ≤ Ri`, `Tm·Tr·Tc ≤ Ro`, `Tm·Tn·K² ≤ Rw`) and picks the
//! candidate minimizing the system energy model. The per-layer winners
//! form the *hybrid computation pattern* `⟨OD/WD, Tm, Tn, Tr, Tc⟩`.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::par::{self, ScheduleCache};
use rana_accel::fingerprint::{Fingerprint, Fnv1a};
use rana_accel::refresh::layer_refresh_words;
use rana_accel::{analyze, AcceleratorConfig, LayerSim, Pattern, RefreshModel, SchedLayer, Tiling};
use rana_zoo::Network;
use std::collections::HashMap;

/// The chosen execution of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSchedule {
    /// Full analysis of the winning `(pattern, tiling)`.
    pub sim: LayerSim,
    /// Refresh words over the layer under the design's controller.
    pub refresh_words: u64,
    /// Energy under Eq. 14.
    pub energy: EnergyBreakdown,
}

/// A whole network scheduled layer by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSchedule {
    /// Network name.
    pub network: String,
    /// Per-layer schedules, in execution order.
    pub layers: Vec<LayerSchedule>,
}

impl NetworkSchedule {
    /// Total energy over all layers.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers.iter().fold(EnergyBreakdown::default(), |acc, l| acc + l.energy)
    }

    /// Total refresh words.
    pub fn total_refresh_words(&self) -> u64 {
        self.layers.iter().map(|l| l.refresh_words).sum()
    }

    /// Total off-chip words.
    pub fn total_dram_words(&self) -> u64 {
        self.layers.iter().map(|l| l.sim.traffic.dram_total()).sum()
    }

    /// Total execution time in µs.
    pub fn total_time_us(&self) -> f64 {
        self.layers.iter().map(|l| l.sim.time_us).sum()
    }

    /// How many layers picked each pattern `(ID, OD, WD)`.
    pub fn pattern_histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for l in &self.layers {
            match l.sim.pattern {
                Pattern::Id => h.0 += 1,
                Pattern::Od => h.1 += 1,
                Pattern::Wd => h.2 += 1,
            }
        }
        h
    }
}

/// The scheduler: hardware, refresh model, energy costs, and the pattern
/// space to explore.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Target accelerator.
    pub cfg: AcceleratorConfig,
    /// Refresh interval + controller.
    pub refresh: RefreshModel,
    /// Energy model.
    pub model: EnergyModel,
    /// Patterns to explore (RANA: `[OD, WD]`; baselines fix one).
    pub patterns: Vec<Pattern>,
    /// Optional fixed tiling (DaDianNao's tree structure fixes
    /// `Tm = Tn = 64`, `Tr = Tc = 1`; the Table IV baselines run the
    /// platform's natural tiling).
    pub fixed_tiling: Option<Tiling>,
    /// Whether activations may stay on chip between layers when capacity
    /// allows (a property of the platform's unified buffer, on for every
    /// design).
    pub interlayer_forwarding: bool,
    /// Optional DDR3 bandwidth constraint: when set, candidates whose
    /// off-chip traffic would stall the compute (transfer time exceeding
    /// compute time under perfect double buffering) are avoided whenever a
    /// compute-bound candidate exists — "minimize energy subject to no
    /// memory-bound slowdown".
    pub bandwidth: Option<rana_accel::dram::Ddr3Model>,
}

impl Scheduler {
    /// A RANA scheduler (OD+WD exploration) on `cfg`.
    pub fn rana(cfg: AcceleratorConfig, refresh: RefreshModel) -> Self {
        Self {
            cfg,
            refresh,
            model: EnergyModel::paper_65nm(),
            patterns: Pattern::RANA_SPACE.to_vec(),
            fixed_tiling: None,
            interlayer_forwarding: true,
            bandwidth: None,
        }
    }

    /// A fixed-pattern scheduler (the ID/OD baselines of Table IV).
    pub fn fixed_pattern(cfg: AcceleratorConfig, refresh: RefreshModel, pattern: Pattern) -> Self {
        Self {
            cfg,
            refresh,
            model: EnergyModel::paper_65nm(),
            patterns: vec![pattern],
            fixed_tiling: None,
            interlayer_forwarding: true,
            bandwidth: None,
        }
    }

    /// Evaluates one candidate completely.
    fn candidate(&self, layer: &SchedLayer, pattern: Pattern, tiling: Tiling) -> LayerSchedule {
        let sim = analyze(layer, pattern, tiling, &self.cfg);
        let refresh_words = layer_refresh_words(&sim, &self.cfg, &self.refresh);
        let energy = self.model.layer_energy(&sim, refresh_words, &self.cfg);
        LayerSchedule { sim, refresh_words, energy }
    }

    /// Whether a candidate satisfies the optional bandwidth constraint.
    fn meets_perf(&self, s: &LayerSchedule) -> bool {
        match &self.bandwidth {
            None => true,
            Some(ddr) => !rana_accel::dram::LayerPerformance::of(&s.sim, ddr).memory_bound(),
        }
    }

    /// The selection predicate: does `cand` replace the incumbent?
    ///
    /// Prefer candidates meeting the bandwidth constraint, then minimize
    /// energy; within a 1% energy band (energy is nearly flat in some
    /// tiling directions) prefer fewer cycles, preserving the paper's
    /// "performance loss is negligible" property.
    ///
    /// This is *not* a total order (the cycle tie-break only applies
    /// inside the band), so the scan over candidates must always run in
    /// the canonical candidate order — which is why the parallel path
    /// evaluates concurrently but folds serially.
    fn improves(best: &Option<(LayerSchedule, bool)>, cand: &LayerSchedule, cand_ok: bool) -> bool {
        match best {
            None => true,
            Some((b, b_ok)) => {
                if cand_ok != *b_ok {
                    cand_ok
                } else {
                    let (e, be) = (cand.energy.total_j(), b.energy.total_j());
                    e < be * 0.99 || (e <= be * 1.01 && cand.sim.cycles < b.sim.cycles)
                }
            }
        }
    }

    /// The candidate space `(pattern, tiling)` in canonical scan order.
    ///
    /// # Panics
    ///
    /// Panics if the pattern list is empty.
    fn candidate_space(&self, layer: &SchedLayer) -> Vec<(Pattern, Tiling)> {
        assert!(!self.patterns.is_empty(), "scheduler needs at least one pattern");
        let tilings: Vec<Tiling> = match self.fixed_tiling {
            Some(t) => vec![t],
            None => Tiling::candidates(layer, &self.cfg),
        };
        let mut out = Vec::with_capacity(self.patterns.len() * tilings.len());
        for &pattern in &self.patterns {
            for &tiling in &tilings {
                out.push((pattern, tiling));
            }
        }
        out
    }

    /// A lower bound on a candidate's Eq. 14 energy, cheaper than the
    /// full [`Scheduler::candidate`].
    ///
    /// Admissible by construction: the computing, buffer, and off-chip
    /// terms are *exact* — they share [`rana_accel::storage_and_traffic`],
    /// the closed-form traffic core of `analyze()`, including overflow
    /// reload/spill penalties — and only the refresh term is bounded by
    /// its floor of 0. The bound therefore equals the true energy minus
    /// the candidate's refresh energy, and skips the name/cycle/lifetime
    /// bookkeeping plus the refresh-word simulation of a full evaluation.
    fn energy_lower_bound(&self, layer: &SchedLayer, pattern: Pattern, tiling: Tiling) -> f64 {
        let (_, _, traffic) = rana_accel::storage_and_traffic(layer, pattern, tiling, &self.cfg);
        let pj = 1e-12;
        layer.total_macs() as f64 * self.model.costs.mac_pj * pj
            + traffic.buffer_total() as f64
                * self.model.costs.buffer_access_pj(self.cfg.buffer.tech)
                * pj
            + traffic.dram_total() as f64 * self.model.costs.ddr_access_pj * pj
    }

    /// The serial candidate scan, optionally pruned by the energy lower
    /// bound. Pruning is only sound without a bandwidth constraint (a
    /// high-energy candidate may still be the only compute-bound one), and
    /// only skips candidates whose bound already exceeds the incumbent's
    /// 1% tie-break band — exactly the condition under which the selection
    /// predicate could never pick them, so the result is identical to the
    /// exhaustive scan.
    fn search_layer(&self, layer: &SchedLayer, prune: bool) -> LayerSchedule {
        let prune = prune && self.bandwidth.is_none();
        let mut best: Option<(LayerSchedule, bool)> = None;
        let mut evaluated = 0u64;
        let mut pruned = 0u64;
        for (pattern, tiling) in self.candidate_space(layer) {
            if prune {
                if let Some((b, _)) = &best {
                    if self.energy_lower_bound(layer, pattern, tiling) > b.energy.total_j() * 1.01 {
                        pruned += 1;
                        continue;
                    }
                }
            }
            evaluated += 1;
            let cand = self.candidate(layer, pattern, tiling);
            let cand_ok = self.meets_perf(&cand);
            if Self::improves(&best, &cand, cand_ok) {
                best = Some((cand, cand_ok));
            }
        }
        if rana_trace::enabled() {
            rana_trace::count("scheduler.searches", 1);
            rana_trace::count("scheduler.candidates_evaluated", evaluated);
            rana_trace::count("scheduler.candidates_pruned", pruned);
        }
        best.expect("tiling candidate list is never empty").0
    }

    /// Schedules one layer: the minimum-energy `(pattern, tiling)`.
    ///
    /// Candidates that provably cannot beat the incumbent (by the
    /// admissible energy lower bound) are skipped without a full
    /// analysis; the result is identical to
    /// [`Self::schedule_layer_exhaustive`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern list is empty.
    pub fn schedule_layer(&self, layer: &SchedLayer) -> LayerSchedule {
        self.search_layer(layer, true)
    }

    /// [`Self::schedule_layer`] without lower-bound pruning: analyzes
    /// every candidate. The reference implementation the pruned and
    /// parallel paths are tested against.
    pub fn schedule_layer_exhaustive(&self, layer: &SchedLayer) -> LayerSchedule {
        self.search_layer(layer, false)
    }

    /// Canonical fingerprint of everything a layer search's *result*
    /// depends on: accelerator, refresh model, energy costs, pattern
    /// space, tiling policy, and bandwidth constraint.
    /// `interlayer_forwarding` is deliberately excluded — it post-processes
    /// the network schedule and never changes a per-layer search.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.cfg.fingerprint_into(&mut h);
        self.refresh.fingerprint_into(&mut h);
        self.model.costs.fingerprint_into(&mut h);
        h.write_usize(self.patterns.len());
        for p in &self.patterns {
            p.fingerprint_into(&mut h);
        }
        match self.fixed_tiling {
            None => h.write_u8(0),
            Some(t) => {
                h.write_u8(1);
                t.fingerprint_into(&mut h);
            }
        }
        match &self.bandwidth {
            None => h.write_u8(0),
            Some(d) => {
                h.write_u8(1);
                d.fingerprint_into(&mut h);
            }
        }
        h.finish()
    }

    /// Memoization key for one layer under this scheduler: the context
    /// fingerprint composed with the layer's shape fingerprint (the layer
    /// *name* is excluded, so repeated shapes share an entry).
    pub fn layer_key(&self, layer: &SchedLayer) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.fingerprint());
        layer.fingerprint_into(&mut h);
        h.finish()
    }

    /// Schedules one layer through `cache`: a hit returns the finished
    /// search with this layer's name patched in; a miss runs
    /// [`Self::schedule_layer`] and stores the result.
    pub fn schedule_layer_memo(&self, layer: &SchedLayer, cache: &ScheduleCache) -> LayerSchedule {
        let key = self.layer_key(layer);
        if let Some(mut hit) = cache.get(key) {
            hit.sim.layer = layer.name.clone();
            return hit;
        }
        let result = self.schedule_layer(layer);
        cache.insert(key, result.clone());
        result
    }

    /// Emits one finalized [`rana_trace::Event::ScheduleChosen`] per
    /// layer. Runs serially over the assembled schedule *after*
    /// forwarding, so the emitted energies are the ones the evaluator
    /// totals fold (the per-run trace ledger reconciles with `Evaluator`)
    /// and the event order is layer order at any thread count.
    fn trace_network(sched: &NetworkSchedule) {
        if !rana_trace::enabled() {
            return;
        }
        for l in &sched.layers {
            rana_trace::emit(|| rana_trace::Event::ScheduleChosen {
                network: sched.network.clone(),
                layer: l.sim.layer.clone(),
                pattern: l.sim.pattern.to_string(),
                tiling: [l.sim.tiling.tm, l.sim.tiling.tn, l.sim.tiling.tr, l.sim.tiling.tc],
                energy: l.energy.ledger(),
            });
        }
    }

    /// Schedules every CONV layer of a network, then applies inter-layer
    /// activation forwarding.
    pub fn schedule_network(&self, net: &Network) -> NetworkSchedule {
        let mut layers: Vec<LayerSchedule> =
            net.conv_layers().map(|c| self.schedule_layer(&SchedLayer::from_conv(c))).collect();
        if self.interlayer_forwarding {
            self.apply_forwarding(net, &mut layers);
        }
        let sched = NetworkSchedule { network: net.name().to_string(), layers };
        Self::trace_network(&sched);
        sched
    }

    /// [`Self::schedule_network`] with every layer searched exhaustively
    /// (no lower-bound pruning): the reference path for benchmarks and
    /// determinism tests.
    pub fn schedule_network_exhaustive(&self, net: &Network) -> NetworkSchedule {
        let mut layers: Vec<LayerSchedule> = net
            .conv_layers()
            .map(|c| self.schedule_layer_exhaustive(&SchedLayer::from_conv(c)))
            .collect();
        if self.interlayer_forwarding {
            self.apply_forwarding(net, &mut layers);
        }
        let sched = NetworkSchedule { network: net.name().to_string(), layers };
        Self::trace_network(&sched);
        sched
    }

    /// The parallel + memoized network engine. Produces a schedule
    /// bit-identical to [`Self::schedule_network`]:
    ///
    /// * repeated layer shapes are deduplicated by [`Self::layer_key`] and
    ///   searched once (ResNet-50 collapses 53 searches to ~half);
    /// * the unique searches fan across `threads` workers (`0` = auto);
    /// * with a `cache`, finished searches are reused across calls,
    ///   networks, and design points.
    ///
    /// Determinism: unique shapes keep first-encounter order, workers
    /// return results by input index, and forwarding runs serially after
    /// assembly — no step depends on thread scheduling.
    pub fn schedule_network_with(
        &self,
        net: &Network,
        cache: Option<&ScheduleCache>,
        threads: usize,
    ) -> NetworkSchedule {
        let threads = if threads == 0 { par::thread_count() } else { threads };
        let layers_in: Vec<SchedLayer> = net.conv_layers().map(SchedLayer::from_conv).collect();

        // Dedup repeated shapes, preserving first-encounter order.
        let mut slot_by_key: HashMap<u64, usize> = HashMap::new();
        let mut unique: Vec<&SchedLayer> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(layers_in.len());
        for layer in &layers_in {
            let key = self.layer_key(layer);
            let next_slot = unique.len();
            let slot = *slot_by_key.entry(key).or_insert(next_slot);
            if slot == next_slot {
                unique.push(layer);
            }
            slot_of.push(slot);
        }

        let searched: Vec<LayerSchedule> = par::par_map_with(&unique, threads, |l| match cache {
            Some(c) => self.schedule_layer_memo(l, c),
            None => self.schedule_layer(l),
        });

        let mut layers: Vec<LayerSchedule> = layers_in
            .iter()
            .zip(&slot_of)
            .map(|(layer, &slot)| {
                let mut sched = searched[slot].clone();
                sched.sim.layer = layer.name.clone();
                sched
            })
            .collect();
        if self.interlayer_forwarding {
            self.apply_forwarding(net, &mut layers);
        }
        let sched = NetworkSchedule { network: net.name().to_string(), layers };
        Self::trace_network(&sched);
        sched
    }

    /// Inter-layer activation residency: when a layer's activations fit in
    /// the unified buffer alongside both the producer's and the consumer's
    /// resident sets, they never round-trip through DRAM. This is what
    /// large eDRAM buffers buy (§V-C: DaDianNao's 36 MB "stores all the
    /// intermediate data and alleviates all the extra off-chip memory
    /// access"); pooling between CONV layers shrinks the forwarded volume
    /// (pooling executes inside the PEs, §II-B). The producer is
    /// approximated as the preceding CONV layer — exact for chains,
    /// conservative-in-size for residual/inception branches (DESIGN.md).
    fn apply_forwarding(&self, net: &Network, layers: &mut [LayerSchedule]) {
        let capacity = self.cfg.buffer.capacity_words();
        let convs: Vec<_> = net.conv_layers().collect();
        for j in 1..layers.len() {
            let full_in = convs[j].input_words();
            let (prod, cons) = {
                let (a, b) = layers.split_at_mut(j);
                (&mut a[j - 1], &mut b[0])
            };
            // Consumer must hold its whole input beside its other residents.
            let cons_resident =
                cons.sim.storage.total() - cons.sim.storage.input_words.min(full_in) + full_in;
            // Producer must hold the (post-pooling) activation beside its
            // other residents at the end of its execution.
            let prod_resident =
                prod.sim.storage.total() - prod.sim.storage.output_words.min(full_in) + full_in;
            if cons_resident > capacity || prod_resident > capacity {
                continue;
            }
            prod.sim.traffic.dram_output_stores =
                prod.sim.traffic.dram_output_stores.saturating_sub(full_in);
            cons.sim.traffic.dram_input_loads = 0;
            prod.energy = self.model.layer_energy(&prod.sim, prod.refresh_words, &self.cfg);
            cons.energy = self.model.layer_energy(&cons.sim, cons.refresh_words, &self.cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_accel::ControllerKind;
    use rana_zoo::{resnet50, vgg16};

    fn rana_45() -> Scheduler {
        Scheduler::rana(AcceleratorConfig::paper_edram(), RefreshModel::conventional_45us())
    }

    #[test]
    fn schedule_respects_core_constraints() {
        let s = rana_45();
        let l = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let sched = s.schedule_layer(&l);
        assert!(sched.sim.tiling.fits_core(&l, &s.cfg));
    }

    #[test]
    fn vgg_shallow_layers_prefer_wd() {
        // §V-B3: VGG layers 2-8 exceed the eDRAM capacity under OD; WD wins.
        let s = rana_45();
        let l = SchedLayer::from_conv(vgg16().conv("conv1_2").unwrap());
        let sched = s.schedule_layer(&l);
        assert_eq!(sched.sim.pattern, Pattern::Wd, "conv1_2 should pick WD");
        assert!(sched.sim.fits_buffer);
    }

    #[test]
    fn deep_layers_prefer_od() {
        let s = rana_45();
        let l = SchedLayer::from_conv(vgg16().conv("conv5_3").unwrap());
        let sched = s.schedule_layer(&l);
        assert_eq!(sched.sim.pattern, Pattern::Od, "conv5_3 should pick OD");
    }

    #[test]
    fn hybrid_beats_pure_od_on_vgg() {
        // §V-B1: RANA(0) total energy is below eD+OD.
        let net = vgg16();
        let hybrid = rana_45().schedule_network(&net);
        let pure_od = Scheduler::fixed_pattern(
            AcceleratorConfig::paper_edram(),
            RefreshModel::conventional_45us(),
            Pattern::Od,
        )
        .schedule_network(&net);
        assert!(
            hybrid.total_energy().total_j() < pure_od.total_energy().total_j(),
            "hybrid {} >= OD {}",
            hybrid.total_energy().total_j(),
            pure_od.total_energy().total_j()
        );
        let (_, od, wd) = hybrid.pattern_histogram();
        assert!(od > 0 && wd > 0, "a hybrid schedule should mix patterns: od={od} wd={wd}");
    }

    #[test]
    fn longer_retention_cannot_increase_energy() {
        let net = resnet50();
        let e45 = rana_45().schedule_network(&net).total_energy();
        let s734 = Scheduler::rana(
            AcceleratorConfig::paper_edram(),
            RefreshModel { interval_us: 734.0, kind: ControllerKind::Conventional },
        );
        let e734 = s734.schedule_network(&net).total_energy();
        assert!(e734.refresh_j <= e45.refresh_j + 1e-12);
        assert!(e734.total_j() <= e45.total_j() + 1e-12);
    }

    #[test]
    fn bandwidth_constraint_steers_away_from_spills() {
        // VGG conv1_2 under pure OD spills partial sums; on a crippled
        // channel the constrained scheduler must find a compute-bound
        // schedule (WD fits and streams far less).
        use rana_accel::dram::{Ddr3Model, LayerPerformance};
        let l = SchedLayer::from_conv(vgg16().conv("conv1_2").unwrap());
        let slow = Ddr3Model::ddr3_1600().scaled(0.1);

        let mut unconstrained = Scheduler::fixed_pattern(
            AcceleratorConfig::paper_edram(),
            RefreshModel::conventional_45us(),
            Pattern::Od,
        );
        unconstrained.fixed_tiling = Some(Tiling::new(16, 16, 1, 16));
        let a = unconstrained.schedule_layer(&l);
        assert!(
            LayerPerformance::of(&a.sim, &slow).memory_bound(),
            "natural-tiling OD (with its partial-sum spills) should be memory-bound"
        );

        let mut constrained = rana_45();
        constrained.bandwidth = Some(slow);
        let b = constrained.schedule_layer(&l);
        assert!(
            !LayerPerformance::of(&b.sim, &slow).memory_bound(),
            "constrained schedule must stay compute-bound ({} {})",
            b.sim.pattern,
            b.sim.tiling
        );
    }

    #[test]
    fn fixed_tiling_is_honored() {
        let mut s = rana_45();
        s.cfg = AcceleratorConfig::dadiannao();
        s.fixed_tiling = Some(Tiling::new(64, 64, 1, 1));
        let l = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        let sched = s.schedule_layer(&l);
        assert_eq!(sched.sim.tiling, Tiling::new(64, 64, 1, 1));
    }
}
