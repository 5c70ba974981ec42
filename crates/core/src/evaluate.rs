//! The evaluation platform: run a network under a Table IV design and
//! report the energy breakdown (the engine behind Figures 1 and 15-19).

use crate::designs::Design;
use crate::energy::EnergyBreakdown;
use crate::par::ScheduleCache;
use crate::scheduler::{NetworkSchedule, Scheduler};
use rana_accel::{AcceleratorConfig, Pattern, RefreshModel, Tiling};
use rana_edram::RetentionDistribution;
use rana_zoo::Network;
use std::sync::Arc;

/// Evaluated energy of one network under one design.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkEnergy {
    /// Network name.
    pub network: String,
    /// Design label.
    pub design: String,
    /// Totals.
    pub total: EnergyBreakdown,
    /// Total refresh words.
    pub refresh_words: u64,
    /// Total off-chip words.
    pub dram_words: u64,
    /// Total execution time (µs).
    pub time_us: f64,
    /// The full per-layer schedule (Figure 17 needs it).
    pub schedule: NetworkSchedule,
}

/// The evaluation platform: a base accelerator (SRAM and eDRAM variants
/// share everything but the buffer) plus the retention distribution.
///
/// Every evaluation runs on the parallel + memoized scheduling engine
/// with a cache shared across calls (and across clones of this
/// evaluator): re-evaluating a design point, or a network whose layer
/// shapes another design point already searched under the same context,
/// reuses the finished searches. Results are bit-identical to the serial
/// scheduler — the cache key covers everything a search depends on.
///
/// # Example
///
/// ```
/// use rana_core::designs::Design;
/// use rana_core::evaluate::Evaluator;
///
/// let eval = Evaluator::paper_platform();
/// let net = rana_zoo::alexnet();
/// let sram = eval.evaluate(&net, Design::SId);        // equal-area SRAM baseline
/// let rana = eval.evaluate(&net, Design::RanaStarE5); // full RANA
/// assert!(rana.total.total_j() < sram.total.total_j());
///
/// // The memo cache is shared: re-evaluating costs no new searches.
/// let misses = eval.cache().misses();
/// let again = eval.evaluate(&net, Design::RanaStarE5);
/// assert_eq!(again, rana);
/// assert_eq!(eval.cache().misses(), misses);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    sram_cfg: AcceleratorConfig,
    edram_cfg: AcceleratorConfig,
    dist: RetentionDistribution,
    fixed_tiling: Option<Tiling>,
    cache: Arc<ScheduleCache>,
}

impl Evaluator {
    /// The paper's test platform (§III-A): 256 PEs @200 MHz, 384 KB SRAM
    /// vs 1.454 MB-class eDRAM.
    pub fn paper_platform() -> Self {
        Self {
            sram_cfg: AcceleratorConfig::paper_sram(),
            edram_cfg: AcceleratorConfig::paper_edram(),
            dist: RetentionDistribution::kong2008(),
            fixed_tiling: None,
            cache: Arc::new(ScheduleCache::new()),
        }
    }

    /// The paper's platform with the eDRAM buffer scaled by `factor`
    /// (Figure 18's 0.25×…8× sweep).
    pub fn paper_platform_scaled(factor: f64) -> Self {
        Self { edram_cfg: AcceleratorConfig::paper_edram_scaled(factor), ..Self::paper_platform() }
    }

    /// The DaDianNao platform of §V-C: 4096 PEs, fixed
    /// `Tm = Tn = 64, Tr = Tc = 1`, 36 MB eDRAM. The baseline design for
    /// this platform is [`Self::evaluate_dadiannao_baseline`].
    pub fn dadiannao_platform() -> Self {
        Self {
            sram_cfg: AcceleratorConfig::dadiannao(),
            edram_cfg: AcceleratorConfig::dadiannao(),
            dist: RetentionDistribution::kong2008(),
            fixed_tiling: Some(Tiling::new(64, 64, 1, 1)),
            cache: Arc::new(ScheduleCache::new()),
        }
    }

    /// The schedule cache shared by this evaluator's calls.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The eDRAM accelerator configuration in use.
    pub fn edram_config(&self) -> &AcceleratorConfig {
        &self.edram_cfg
    }

    /// The retention distribution in use.
    pub fn retention(&self) -> &RetentionDistribution {
        &self.dist
    }

    /// Builds the scheduler a design uses. Baselines run the platform's
    /// natural tiling `⟨Tm = rows, Tn = rows, Tr = 1, Tc = cols⟩`; RANA
    /// designs explore tilings (Figure 13). A platform with a hard-wired
    /// tiling (DaDianNao) overrides both.
    pub fn scheduler_for(&self, design: Design) -> Scheduler {
        let cfg = if design.uses_edram() { self.edram_cfg.clone() } else { self.sram_cfg.clone() };
        let refresh = design.refresh_model(&self.dist);
        let natural = Tiling::new(cfg.pe_rows, cfg.pe_rows, 1, cfg.pe_cols);
        let mut s = Scheduler::rana(cfg, refresh);
        s.patterns = design.patterns();
        s.fixed_tiling =
            self.fixed_tiling.or(if design.explores_tiling() { None } else { Some(natural) });
        s
    }

    /// Packages a finished schedule into the reported summary.
    fn package(net: &Network, design: String, schedule: NetworkSchedule) -> NetworkEnergy {
        NetworkEnergy {
            network: net.name().to_string(),
            design,
            total: schedule.total_energy(),
            refresh_words: schedule.total_refresh_words(),
            dram_words: schedule.total_dram_words(),
            time_us: schedule.total_time_us(),
            schedule,
        }
    }

    /// Evaluates labeled `(network, scheduler)` points as one batch on the
    /// memoized engine ([`Scheduler::schedule_network_with`] for one
    /// point): each layer shape missing from the cache is searched once
    /// for every point whose scheduler shares its search group, and the
    /// searches fan over the worker pool.
    fn evaluate_batch(&self, points: Vec<(&Network, Scheduler, String)>) -> Vec<NetworkEnergy> {
        let runs: Vec<(&Scheduler, &Network)> =
            points.iter().map(|(net, s, _)| (s, *net)).collect();
        let schedules = Scheduler::schedule_networks(&runs, Some(&self.cache), 0);
        points
            .into_iter()
            .zip(schedules)
            .map(|((net, _, label), schedule)| Self::package(net, label, schedule))
            .collect()
    }

    /// Evaluates `net` under `design`.
    pub fn evaluate(&self, net: &Network, design: Design) -> NetworkEnergy {
        self.evaluate_many(&[(net, design)]).pop().expect("one point in, one result out")
    }

    /// Evaluates with an explicit refresh model (the Figure 16 retention
    /// time sweep).
    pub fn evaluate_with_refresh(
        &self,
        net: &Network,
        design: Design,
        refresh: RefreshModel,
    ) -> NetworkEnergy {
        self.evaluate_refresh_many(&[(net, design, refresh)])
            .pop()
            .expect("one point in, one result out")
    }

    /// Evaluates every `(network, design)` point as one batch sharing one
    /// schedule cache. Results come back in input order and are identical
    /// to calling [`Self::evaluate`] point by point, and so are the
    /// cache's hit, miss and entry counts and `scheduler.searches` (the
    /// batch plans its lookups in input order). Only the candidate
    /// counters fall: points whose schedulers differ only in their refresh
    /// model share each layer's candidate scan.
    pub fn evaluate_many(&self, points: &[(&Network, Design)]) -> Vec<NetworkEnergy> {
        self.evaluate_batch(
            points
                .iter()
                .map(|&(net, design)| (net, self.scheduler_for(design), design.label().to_string()))
                .collect(),
        )
    }

    /// [`Self::evaluate_many`] for explicit refresh models (retention
    /// sweeps): evaluates every `(network, design, refresh)` point as one
    /// batch, in input order.
    pub fn evaluate_refresh_many(
        &self,
        points: &[(&Network, Design, RefreshModel)],
    ) -> Vec<NetworkEnergy> {
        self.evaluate_batch(
            points
                .iter()
                .map(|&(net, design, refresh)| {
                    let mut scheduler = self.scheduler_for(design);
                    scheduler.refresh = refresh;
                    (net, scheduler, format!("{} @{}us", design.label(), refresh.interval_us))
                })
                .collect(),
        )
    }

    /// The original DaDianNao baseline: pure WD at the fixed tiling,
    /// conventional 45 µs refresh (§V-C: "it only uses the WD computation
    /// pattern").
    pub fn evaluate_dadiannao_baseline(&self, net: &Network) -> NetworkEnergy {
        let mut scheduler = self.scheduler_for(Design::EdOd);
        scheduler.patterns = vec![Pattern::Wd];
        let point = (net, scheduler, "DaDianNao".to_string());
        self.evaluate_batch(vec![point]).pop().expect("one point in, one result out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_zoo::{alexnet, resnet50};

    #[test]
    fn rana_star_beats_sram_baseline_on_resnet() {
        // The headline claim: large system-energy savings vs S+ID.
        let eval = Evaluator::paper_platform();
        let net = resnet50();
        let sram = eval.evaluate(&net, Design::SId);
        let rana = eval.evaluate(&net, Design::RanaStarE5);
        assert!(
            rana.total.total_j() < 0.7 * sram.total.total_j(),
            "RANA* {} vs S+ID {}",
            rana.total.total_j(),
            sram.total.total_j()
        );
        assert!(rana.dram_words < sram.dram_words, "off-chip access must shrink");
    }

    #[test]
    fn edram_id_raises_energy_on_alexnet() {
        // §V-B1: AlexNet is small, eD+ID pays refresh with no off-chip
        // gain -> ~2.3x the SRAM design's energy.
        let eval = Evaluator::paper_platform();
        let net = alexnet();
        let sram = eval.evaluate(&net, Design::SId);
        let edid = eval.evaluate(&net, Design::EdId);
        let ratio = edid.total.total_j() / sram.total.total_j();
        assert!(ratio > 1.5, "eD+ID/S+ID on AlexNet = {ratio}");
    }

    #[test]
    fn refresh_drops_across_rana_stages() {
        let eval = Evaluator::paper_platform();
        let net = resnet50();
        let rana0 = eval.evaluate(&net, Design::Rana0);
        let rana5 = eval.evaluate(&net, Design::RanaE5);
        let star = eval.evaluate(&net, Design::RanaStarE5);
        assert!(rana5.refresh_words < rana0.refresh_words / 10, "E-5 should remove most refresh");
        assert!(star.refresh_words <= rana5.refresh_words);
        // RANA*: refresh nearly free.
        assert!(star.total.refresh_j < 0.05 * star.total.total_j());
    }

    #[test]
    fn dadiannao_rana_saves_buffer_energy() {
        // §V-C: RANA(0) on DaDianNao switches WD -> OD, slashing weight
        // buffer reads.
        let eval = Evaluator::dadiannao_platform();
        let net = alexnet();
        let base = eval.evaluate_dadiannao_baseline(&net);
        let rana0 = eval.evaluate(&net, Design::Rana0);
        assert!(
            rana0.total.buffer_j < 0.3 * base.total.buffer_j,
            "RANA(0) buffer {} vs DaDianNao {}",
            rana0.total.buffer_j,
            base.total.buffer_j
        );
    }

    #[test]
    fn performance_is_preserved() {
        // §IV-A: "the performance loss is negligible" — RANA does not run
        // slower than the baselines (its explored tilings may even be
        // faster than the natural one).
        let eval = Evaluator::paper_platform();
        let net = resnet50();
        let edod = eval.evaluate(&net, Design::EdOd);
        let star = eval.evaluate(&net, Design::RanaStarE5);
        assert!(
            star.time_us <= edod.time_us * 1.05,
            "RANA* {} us vs eD+OD {} us",
            star.time_us,
            edod.time_us
        );
    }
}
