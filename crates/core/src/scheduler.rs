//! RANA's layer-based scheduling scheme (paper §IV-C3, Figure 13).
//!
//! For each CONV layer, the scheduler explores computation patterns ×
//! tiling parameters subject to the core-local storage constraints
//! (`Tn·Th·Tl ≤ Ri`, `Tm·Tr·Tc ≤ Ro`, `Tm·Tn·K² ≤ Rw`) and picks the
//! candidate minimizing the system energy model. The per-layer winners
//! form the *hybrid computation pattern* `⟨OD/WD, Tm, Tn, Tr, Tc⟩`.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::fxhash::FxBuildHasher;
use crate::par::{self, ScheduleCache};
use rana_accel::fingerprint::{Fingerprint, Fnv1a};
use rana_accel::refresh::RefreshPricer;
use rana_accel::{
    AcceleratorConfig, LayerSim, Pattern, RefreshModel, SchedLayer, Tiling, TilingGrid,
};
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
        }
    }

    /// The selection predicate: does a candidate of total energy
    /// `total_j` and `cycles` cycles replace the incumbent?
    ///
    /// Minimize energy; within a 1% energy band (energy is nearly flat in
    /// some tiling directions) prefer fewer cycles, preserving the paper's
    /// "performance loss is negligible" property.
    ///
    /// This is *not* a total order (the cycle tie-break only applies
    /// inside the band), so the scan over candidates must always run in
    /// the canonical candidate order — which is why the parallel path
    /// evaluates concurrently but folds serially.
    fn improves(best: Option<&Incumbent>, total_j: f64, cycles: u64) -> bool {
        best.is_none_or(|b| {
            total_j < b.total_j * 0.99 || (total_j <= b.total_j * 1.01 && cycles < b.cycles)
        })
    }

    /// The canonical candidate scan, run once for a whole *search group*:
    /// schedulers with equal [`Self::search_key`]s, which differ only in
    /// `refresh` and `model.costs.edram_refresh_pj`. The patterns run
    /// outermost over the name-less `shape`'s [`TilingGrid`]. Each
    /// candidate is priced once at zero refresh from its
    /// [`TilingGrid::parts`]: the computing, buffer and off-chip terms of
    /// Eq. 14, which every member shares. A candidate that is not skipped
    /// is analyzed once from the same parts, each member adds its own
    /// refresh term, and the result is folded into the member's own
    /// incumbent by the unchanged selection predicate. Every member sees
    /// the same candidates in the same order at bit-identical prices, so
    /// its fold *is* its own scan. A group of one is the plain scan.
    ///
    /// An incumbent is the candidate's grid position plus its price; only
    /// the winners' [`LayerSim`]s are built, from the grid, at the end.
    ///
    /// With `prune` a candidate is skipped without analysis only when its
    /// shared energy, a lower bound on every member's energy, exceeds
    /// `1.01 ×` *every* member's incumbent energy. No member's predicate
    /// could then accept it, so skipping changes no fold state and each
    /// result equals the exhaustive scan's (proof in DESIGN.md).
    ///
    /// Returns one schedule per member, in member order, named as `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern list is empty or no tiling fits the core.
    fn search_group(group: &[&Scheduler], shape: &SchedLayer, prune: bool) -> Vec<LayerSchedule> {
        let lead = group[0];
        assert!(!lead.patterns.is_empty(), "scheduler needs at least one pattern");
        let grid = TilingGrid::new(shape, &lead.cfg, lead.fixed_tiling);
        let macs = shape.total_macs();
        let mut best: Vec<Option<Incumbent>> = vec![None; group.len()];
        // The skip bar: 1.01 × the largest incumbent energy, once every
        // member has an incumbent.
        let mut bar: Option<f64> = None;
        let mut evaluated = 0u64;
        let mut pruned = 0u64;
        let pricers: Vec<_> =
            group.iter().map(|m| RefreshPricer::new(&m.cfg, &m.refresh)).collect();
        for &pattern in &lead.patterns {
            for index in 0..grid.len() {
                let parts = grid.parts(pattern, index);
                let shared = lead.model.without_refresh(macs, &parts.2, &lead.cfg);
                if bar.is_some_and(|bar| shared.total_j() > bar) {
                    pruned += 1;
                    continue;
                }
                evaluated += 1;
                let sim = grid.sim(pattern, index, parts);
                let mut moved = false;
                for ((member, pricer), incumbent) in group.iter().zip(&pricers).zip(&mut best) {
                    let refresh_words = pricer.words(&sim);
                    let energy = member.model.with_refresh(shared, refresh_words);
                    let total_j = energy.total_j();
                    if Self::improves(incumbent.as_ref(), total_j, sim.cycles) {
                        *incumbent = Some(Incumbent {
                            pattern,
                            index,
                            energy,
                            total_j,
                            cycles: sim.cycles,
                            refresh_words,
                        });
                        moved = true;
                    }
                }
                if prune && moved {
                    bar = best.iter().try_fold(f64::NEG_INFINITY, |bar, b| {
                        b.as_ref().map(|b| bar.max(b.total_j * 1.01))
                    });
                }
            }
        }
        if rana_trace::enabled() {
            rana_trace::count("scheduler.searches", group.len() as u64);
            rana_trace::count("scheduler.candidates_evaluated", evaluated);
            rana_trace::count("scheduler.candidates_pruned", pruned);
        }
        best.into_iter()
            .map(|b| {
                let b = b.expect("tiling candidate list is never empty");
                let sim = grid.sim(b.pattern, b.index, grid.parts(b.pattern, b.index));
                LayerSchedule { sim, refresh_words: b.refresh_words, energy: b.energy }
            })
            .collect()
    }

    /// One layer through [`Self::search_group`] as a group of one: the scan
    /// runs on a name-less copy (no per-candidate name clone) and only the
    /// winner gets the name.
    fn search_layer(&self, layer: &SchedLayer, prune: bool) -> LayerSchedule {
        let mut best = Self::search_group(&[self], &nameless(layer), prune);
        let mut winner = best.pop().expect("one member, one schedule");
        winner.sim.layer = layer.name.clone();
        winner
    }

    /// Schedules one layer: the minimum-energy `(pattern, tiling)`.
    ///
    /// Candidates that provably cannot beat the incumbent (their
    /// refresh-free energy already exceeds it) are skipped without a full
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
    /// every candidate. The reference implementation the pruned, grouped
    /// and parallel paths are tested against.
    pub fn schedule_layer_exhaustive(&self, layer: &SchedLayer) -> LayerSchedule {
        self.search_layer(layer, false)
    }

    /// Schedules one layer for every member of a search group in one
    /// candidate scan (see [`Self::search_key`]). Member `i`'s schedule is
    /// exactly `group[i].schedule_layer_exhaustive(layer)`, and the scan
    /// visits each candidate at most once, however many members share it.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty, its members' search keys differ, or
    /// the pattern list is empty.
    pub fn schedule_layer_group(group: &[&Scheduler], layer: &SchedLayer) -> Vec<LayerSchedule> {
        let key = group.first().expect("a search group needs a member").search_key();
        assert!(group.iter().all(|s| s.search_key() == key), "members of a search group differ");
        let mut out = Self::search_group(group, &nameless(layer), true);
        for s in &mut out {
            s.sim.layer = layer.name.clone();
        }
        out
    }

    /// Canonical fingerprint of everything a layer search's *result*
    /// depends on: accelerator, refresh model, energy costs, pattern
    /// space and tiling policy.
    pub fn fingerprint(&self) -> u64 {
        self.context_walk(true)
    }

    /// The [`Self::fingerprint`] walk without the refresh model and
    /// `model.costs.edram_refresh_pj`. Schedulers with equal search keys
    /// form a *search group*: they analyze every candidate identically and
    /// share its refresh-free energy, and differ only in how they price
    /// refresh, so one candidate scan serves them all
    /// ([`Self::schedule_layer_group`]).
    pub fn search_key(&self) -> u64 {
        self.context_walk(false)
    }

    /// The context walk behind [`Self::fingerprint`] (`priced`) and
    /// [`Self::search_key`] (refresh model left out, refresh cost zeroed).
    fn context_walk(&self, priced: bool) -> u64 {
        let mut h = Fnv1a::new();
        self.cfg.fingerprint_into(&mut h);
        let mut costs = self.model.costs;
        if priced {
            self.refresh.fingerprint_into(&mut h);
        } else {
            costs.edram_refresh_pj = 0.0;
        }
        costs.fingerprint_into(&mut h);
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
        // The tag of the bandwidth constraint the scheduler once had, always
        // "none": keeping it keeps every key, and so every persisted store,
        // valid.
        h.write_u8(0);
        h.finish()
    }

    /// Memoization key for one layer under this scheduler: the context
    /// fingerprint composed with the layer's shape fingerprint (the layer
    /// *name* is excluded, so repeated shapes share an entry).
    pub fn layer_key(&self, layer: &SchedLayer) -> u64 {
        compose_key(self.fingerprint(), layer)
    }

    /// The network schedule of `net` from its per-layer searches `layers`
    /// (in CONV-layer order): applies inter-layer activation forwarding,
    /// then emits one finalized [`rana_trace::Event::ScheduleChosen`] per
    /// layer. The events run serially over the assembled schedule *after*
    /// forwarding, so the emitted energies are the ones the evaluator
    /// totals fold (the per-run trace ledger reconciles with `Evaluator`)
    /// and the event order is layer order at any thread count.
    fn assemble(&self, net: &Network, mut layers: Vec<LayerSchedule>) -> NetworkSchedule {
        self.apply_forwarding(net, &mut layers);
        let sched = NetworkSchedule { network: net.name().to_string(), layers };
        if rana_trace::enabled() {
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
        sched
    }

    /// Schedules every CONV layer of a network, then applies inter-layer
    /// activation forwarding.
    pub fn schedule_network(&self, net: &Network) -> NetworkSchedule {
        let layers =
            net.conv_layers().map(|c| self.schedule_layer(&SchedLayer::from_conv(c))).collect();
        self.assemble(net, layers)
    }

    /// [`Self::schedule_network`] with every layer searched exhaustively
    /// (no lower-bound pruning): the reference path for benchmarks and
    /// determinism tests.
    pub fn schedule_network_exhaustive(&self, net: &Network) -> NetworkSchedule {
        let layers = net
            .conv_layers()
            .map(|c| self.schedule_layer_exhaustive(&SchedLayer::from_conv(c)))
            .collect();
        self.assemble(net, layers)
    }

    /// The parallel + memoized network engine for one network: the
    /// one-point case of the batch engine behind
    /// [`Evaluator::evaluate_many`](crate::evaluate::Evaluator::evaluate_many).
    /// Produces a schedule bit-identical to [`Self::schedule_network`];
    /// `threads` workers (`0` = auto) share the searches, and with a
    /// `cache` finished searches are reused across calls, networks, and
    /// design points.
    pub fn schedule_network_with(
        &self,
        net: &Network,
        cache: Option<&ScheduleCache>,
        threads: usize,
    ) -> NetworkSchedule {
        Self::schedule_networks(&[(self, net)], cache, threads)
            .pop()
            .expect("one point in, one schedule out")
    }

    /// The batch network engine. Schedules every `(scheduler, network)`
    /// point, each bit-identical to [`Self::schedule_network`], in three
    /// steps:
    ///
    /// 1. *Plan*, serially in input order. Within a network repeated layer
    ///    shapes collapse onto their first occurrence (ResNet-50's 53
    ///    layers need about half as many searches); every other layer is
    ///    looked up in `cache` — or found planned by an earlier point,
    ///    which counts as the hit it would be if the points ran one by
    ///    one — and a miss joins the *search unit* of its (search key,
    ///    layer shape).
    /// 2. *Search*: each unit is one [`Self::search_group`] scan; the
    ///    units fan across `threads` workers (`0` = auto), and the results
    ///    are stored in `cache`.
    /// 3. *Assemble*, serially in input order: name each layer, apply
    ///    forwarding, and emit the point's trace events.
    ///
    /// No step depends on thread scheduling. The schedules, the cache's
    /// hit, miss and entry counts, `scheduler.searches` and the trace
    /// events equal a point-by-point run's at any thread count (the
    /// lookup events all come first, from the plan); only the candidate
    /// counters are lower, one scan per unit.
    pub(crate) fn schedule_networks(
        points: &[(&Scheduler, &Network)],
        cache: Option<&ScheduleCache>,
        threads: usize,
    ) -> Vec<NetworkSchedule> {
        let threads = if threads == 0 { par::thread_count() } else { threads };
        let mut batch = SearchBatch::new(cache);
        let plans: Vec<(Vec<usize>, Vec<Planned>)> = points
            .iter()
            .map(|&(s, net)| {
                let (ctx, search_key) = (s.fingerprint(), s.search_key());
                let mut slot_by_key: HashMap<u64, usize, FxBuildHasher> = HashMap::default();
                let mut planned = Vec::new();
                let slot_of = net
                    .conv_layers()
                    .map(|conv| {
                        let layer = SchedLayer::from_conv(conv);
                        let key = compose_key(ctx, &layer);
                        *slot_by_key.entry(key).or_insert_with(|| {
                            planned.push(batch.plan(s, search_key, key, &layer));
                            planned.len() - 1
                        })
                    })
                    .collect();
                (slot_of, planned)
            })
            .collect();
        let searched = batch.run(Some(threads));
        points
            .iter()
            .zip(plans)
            .map(|(&(s, net), (slot_of, planned))| {
                let layers = net
                    .conv_layers()
                    .zip(slot_of)
                    .map(|(conv, slot)| searched.get(planned[slot], &conv.name))
                    .collect();
                s.assemble(net, layers)
            })
            .collect()
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

/// `layer` without its name: what a scan analyzes, so no candidate clones
/// the name.
fn nameless(layer: &SchedLayer) -> SchedLayer {
    SchedLayer { name: String::new(), ..*layer }
}

/// A layer's shape without its name, `Copy`: what a search unit is keyed
/// by next to the search key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape([usize; 10]);

impl Shape {
    fn of(l: &SchedLayer) -> Self {
        Self([l.n, l.h, l.l, l.m, l.k, l.s, l.r, l.c, l.pad, l.groups])
    }

    /// The name-less layer of this shape.
    fn layer(self) -> SchedLayer {
        let [n, h, l, m, k, s, r, c, pad, groups] = self.0;
        SchedLayer { name: String::new(), n, h, l, m, k, s, r, c, pad, groups }
    }
}

/// A member's best candidate so far in a scan: its grid position and its
/// price, with the energy total the selection predicate compares cached.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    pattern: Pattern,
    index: usize,
    energy: EnergyBreakdown,
    total_j: f64,
    cycles: u64,
    refresh_words: u64,
}

/// [`Scheduler::layer_key`] from an already computed context fingerprint.
pub(crate) fn compose_key(ctx: u64, layer: &SchedLayer) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(ctx);
    layer.fingerprint_into(&mut h);
    h.finish()
}

/// Where a planned layer search finds its schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Planned {
    /// Cache hit number `.0` of the batch.
    Cached(usize),
    /// Member `.1` of search unit `.0`.
    Unit(usize, usize),
}

/// One layer shape and the search-group members that need it searched.
struct Unit<'a> {
    shape: SchedLayer,
    members: Vec<&'a Scheduler>,
    /// Per member, when the batch stores its results in a cache: its
    /// cache key and the name of the layer that planned it (the name the
    /// cache entry carries).
    keys: Vec<(u64, String)>,
}

/// Layer searches planned in input order, then run one search-group scan
/// per (search key, layer shape) unit.
pub(crate) struct SearchBatch<'a> {
    cache: Option<&'a ScheduleCache>,
    hits: Vec<LayerSchedule>,
    planned: HashMap<u64, (usize, usize), FxBuildHasher>,
    unit_of: HashMap<(u64, Shape), usize, FxBuildHasher>,
    units: Vec<Unit<'a>>,
}

impl<'a> SearchBatch<'a> {
    pub(crate) fn new(cache: Option<&'a ScheduleCache>) -> Self {
        Self {
            cache,
            hits: Vec::new(),
            planned: HashMap::default(),
            unit_of: HashMap::default(),
            units: Vec::new(),
        }
    }

    /// Plans the search of `layer` (cache key `key`) under `s` (search key
    /// `search_key`), counting the lookup as the hit or miss that a cache
    /// lookup would count at this point of a serial run.
    pub(crate) fn plan(
        &mut self,
        s: &'a Scheduler,
        search_key: u64,
        key: u64,
        layer: &SchedLayer,
    ) -> Planned {
        if let Some(&(unit, member)) = self.planned.get(&key) {
            if let Some(cache) = self.cache {
                cache.count_planned_hit(key);
            }
            return Planned::Unit(unit, member);
        }
        if let Some(hit) = self.cache.and_then(|c| c.get(key)) {
            self.hits.push(hit);
            return Planned::Cached(self.hits.len() - 1);
        }
        let units = &mut self.units;
        let unit = *self.unit_of.entry((search_key, Shape::of(layer))).or_insert_with_key(|k| {
            let shape = k.1.layer();
            units.push(Unit { shape, members: Vec::new(), keys: Vec::new() });
            units.len() - 1
        });
        let u = &mut self.units[unit];
        u.members.push(s);
        if self.cache.is_some() {
            u.keys.push((key, layer.name.clone()));
        }
        let slot = (unit, u.members.len() - 1);
        self.planned.insert(key, slot);
        Planned::Unit(slot.0, slot.1)
    }

    /// Scans every unit — over `threads` pool workers, or inline (no
    /// `par.map` span) for `None` — and stores the results in the cache.
    pub(crate) fn run(self, threads: Option<usize>) -> Searched {
        let scan = |u: &Unit<'a>| Scheduler::search_group(&u.members, &u.shape, true);
        let found = match threads {
            Some(threads) => par::par_map_with(&self.units, threads, scan),
            None => self.units.iter().map(scan).collect(),
        };
        if let Some(cache) = self.cache {
            for (unit, schedules) in self.units.into_iter().zip(&found) {
                for ((key, name), s) in unit.keys.into_iter().zip(schedules) {
                    let mut entry = s.clone();
                    entry.sim.layer = name;
                    cache.insert(key, entry);
                }
            }
        }
        Searched { hits: self.hits, found }
    }
}

/// The schedules a [`SearchBatch`] planned: its cache hits, and what each
/// unit's scan found per member (without a name).
pub(crate) struct Searched {
    hits: Vec<LayerSchedule>,
    found: Vec<Vec<LayerSchedule>>,
}

impl Searched {
    /// The schedule `planned` points at, named `name`.
    pub(crate) fn get(&self, planned: Planned, name: &str) -> LayerSchedule {
        let mut s = match planned {
            Planned::Cached(hit) => self.hits[hit].clone(),
            Planned::Unit(unit, member) => self.found[unit][member].clone(),
        };
        // The clone's name buffer, if it has one, takes the new name.
        s.sim.layer.clear();
        s.sim.layer.push_str(name);
        s
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
    fn fixed_tiling_is_honored() {
        let mut s = rana_45();
        s.cfg = AcceleratorConfig::dadiannao();
        s.fixed_tiling = Some(Tiling::new(64, 64, 1, 1));
        let l = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        let sched = s.schedule_layer(&l);
        assert_eq!(sched.sim.tiling, Tiling::new(64, 64, 1, 1));
    }
}
