//! Stage-3 execution: the controller runtime that walks a network's
//! layerwise configurations against the functional eDRAM (paper §IV-A:
//! "The accelerator loads the configurations layer by layer ... the
//! eDRAM controller only issues refresh to the bank whose refresh flag is
//! valid").

use crate::config_gen::LayerwiseConfig;
use rana_edram::controller::RefreshIssuer;
use rana_edram::{EdramArray, RefreshConfig, RefreshPattern};

/// Walks layerwise configurations through time on a functional eDRAM.
///
/// # Example
///
/// ```
/// use rana_core::{designs::Design, evaluate::Evaluator, runtime::ControllerRuntime};
/// use rana_core::config_gen::LayerwiseConfig;
/// use rana_edram::{EdramArray, RetentionDistribution};
///
/// let eval = Evaluator::paper_platform();
/// let net = rana_zoo::alexnet();
/// let design = Design::RanaStarE5;
/// let result = eval.evaluate(&net, design);
/// let refresh = design.refresh_model(eval.retention());
/// let lw = LayerwiseConfig::generate(&result.schedule, eval.edram_config(), &refresh);
///
/// let mut mem = EdramArray::new(44, 16 * 1024, RetentionDistribution::kong2008(), 1);
/// let mut rt = ControllerRuntime::new(&lw);
/// for layer in &result.schedule.layers {
///     rt.run_layer(&mut mem, layer.sim.time_us);
/// }
/// // AlexNet under RANA* ducks every lifetime: zero refreshes issued.
/// assert_eq!(rt.issued_words(), 0);
/// ```
#[derive(Debug)]
pub struct ControllerRuntime<'a> {
    config: &'a LayerwiseConfig,
    issuer: RefreshIssuer,
    next_layer: usize,
}

impl<'a> ControllerRuntime<'a> {
    /// Creates a runtime at time zero, pulse period = the configuration's
    /// tolerable retention time.
    pub fn new(config: &'a LayerwiseConfig) -> Self {
        Self {
            config,
            issuer: RefreshIssuer::new(RefreshConfig {
                interval_us: config.tolerable_retention_us,
                pattern: RefreshPattern::Flagged(Vec::new()),
            }),
            next_layer: 0,
        }
    }

    /// Runs the next layer: loads its refresh flags into the controller
    /// and advances time by `duration_us`, issuing flagged refreshes.
    ///
    /// # Panics
    ///
    /// Panics if every configured layer has already run.
    pub fn run_layer(&mut self, mem: &mut EdramArray, duration_us: f64) {
        let layer =
            self.config.layers.get(self.next_layer).unwrap_or_else(|| {
                panic!("all {} layers already executed", self.config.layers.len())
            });
        self.next_layer += 1;
        self.issuer.load_flags(layer.refresh_flags.clone());
        let to = self.issuer.now_us() + duration_us;
        self.issuer.advance(mem, to);
    }

    /// Current wall-clock, µs.
    pub fn now_us(&self) -> f64 {
        self.issuer.now_us()
    }

    /// Total refreshed words so far.
    pub fn issued_words(&self) -> u64 {
        self.issuer.issued_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Design;
    use crate::evaluate::Evaluator;
    use rana_edram::RetentionDistribution;

    fn runtime_words(design: Design, net: &rana_zoo::Network) -> (u64, f64) {
        let eval = Evaluator::paper_platform();
        let result = eval.evaluate(net, design);
        let refresh = design.refresh_model(eval.retention());
        let lw = LayerwiseConfig::generate(&result.schedule, eval.edram_config(), &refresh);
        let cfg = eval.edram_config();
        let mut mem = EdramArray::new(
            cfg.buffer.num_banks,
            cfg.buffer.bank_words,
            RetentionDistribution::kong2008(),
            1,
        );
        let mut rt = ControllerRuntime::new(&lw);
        for layer in &result.schedule.layers {
            rt.run_layer(&mut mem, layer.sim.time_us);
        }
        (rt.issued_words(), rt.now_us())
    }

    #[test]
    fn rana_star_runtime_is_nearly_refresh_free_on_resnet() {
        let net = rana_zoo::resnet50();
        let (star_words, star_time) = runtime_words(Design::RanaStarE5, &net);
        // Compare against a conventional controller at 45 us on the same
        // machine: pulses x all banks over the same wall clock.
        let conventional = (star_time / 45.0) as u64 * 44 * 16 * 1024;
        assert!(
            star_words < conventional / 50,
            "runtime refresh {star_words} should be <2% of conventional {conventional}"
        );
    }

    #[test]
    fn flags_change_between_layers() {
        // The runtime must actually reload flags: a VGG RANA(0) schedule
        // mixes refresh-needing and refresh-free layers.
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::vgg16();
        let design = Design::Rana0;
        let result = eval.evaluate(&net, design);
        let refresh = design.refresh_model(eval.retention());
        let lw = LayerwiseConfig::generate(&result.schedule, eval.edram_config(), &refresh);
        let distinct: std::collections::HashSet<&Vec<bool>> =
            lw.layers.iter().map(|l| &l.refresh_flags).collect();
        assert!(distinct.len() > 1, "expected several distinct flag vectors");
    }

    #[test]
    #[should_panic(expected = "already executed")]
    fn running_past_the_last_layer_panics() {
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::alexnet();
        let design = Design::RanaStarE5;
        let result = eval.evaluate(&net, design);
        let refresh = design.refresh_model(eval.retention());
        let lw = LayerwiseConfig::generate(&result.schedule, eval.edram_config(), &refresh);
        let mut mem = EdramArray::new(2, 64, RetentionDistribution::kong2008(), 1);
        let mut rt = ControllerRuntime::new(&lw);
        for _ in 0..=lw.layers.len() {
            rt.run_layer(&mut mem, 1.0);
        }
    }
}
