//! SGD training and evaluation loops.

use crate::data::SyntheticDataset;
use crate::fault::FaultContext;
use crate::layers::{Layer, SoftmaxCrossEntropy};

/// Mini-batch SGD trainer.
///
/// # Example
///
/// ```
/// use rana_nn::{data::SyntheticDataset, models, train::Trainer};
/// let data = SyntheticDataset::new(4, 160, 3);
/// let mut net = models::vgg_s(4, 1);
/// let mut t = Trainer::new(0.05, 9);
/// t.train(&mut net, &data, 1, 0.0);
/// let acc = t.evaluate(&mut net, &data, 0.0, 1);
/// assert!(acc > 0.25);
/// ```
#[derive(Debug)]
pub struct Trainer {
    lr: f32,
    seed: u64,
    batch: usize,
    step: u64,
    loss: SoftmaxCrossEntropy,
}

impl Trainer {
    /// Creates a trainer with learning rate `lr` and a fault-injection RNG
    /// seed.
    pub fn new(lr: f32, seed: u64) -> Self {
        Self { lr, seed, batch: 16, step: 0, loss: SoftmaxCrossEntropy::new() }
    }

    /// Trains for `epochs` with retention failures injected at `fault_rate`
    /// during every forward pass. Returns the final epoch's training
    /// accuracy.
    pub fn train(
        &mut self,
        net: &mut dyn Layer,
        data: &SyntheticDataset,
        epochs: usize,
        fault_rate: f64,
    ) -> f64 {
        let mut last_acc = 0.0;
        for _ in 0..epochs {
            let mut correct = 0usize;
            let mut total = 0usize;
            for (x, labels) in data.batches(self.batch) {
                self.step += 1;
                let mut ctx = FaultContext::new(fault_rate, self.seed.wrapping_add(self.step));
                let logits = net.forward(&x, &mut ctx);
                let (_, grad) = self.loss.loss_and_grad(&logits, &labels);
                net.backward(&grad);
                net.update(self.lr);
                let preds = self.loss.predict(&logits);
                correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
                total += labels.len();
            }
            last_acc = correct as f64 / total as f64;
        }
        last_acc
    }

    /// Evaluates accuracy under `fault_rate`, averaging `trials`
    /// independent error draws (errors are stochastic, §IV-B).
    pub fn evaluate(
        &mut self,
        net: &mut dyn Layer,
        data: &SyntheticDataset,
        fault_rate: f64,
        trials: usize,
    ) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut acc_sum = 0.0;
        for trial in 0..trials {
            let mut correct = 0usize;
            let mut total = 0usize;
            for (x, labels) in data.batches(self.batch) {
                let mut ctx =
                    FaultContext::new(fault_rate, self.seed ^ (0xEAA0 + trial as u64) << 8);
                let logits = net.forward(&x, &mut ctx);
                let preds = self.loss.predict(&logits);
                correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
                total += labels.len();
            }
            acc_sum += correct as f64 / total as f64;
        }
        acc_sum / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn training_improves_over_chance() {
        let data = SyntheticDataset::new(4, 160, 11);
        let (train, test) = data.split(0.8);
        let mut net = models::alexnet_s(4, 21);
        let mut t = Trainer::new(0.05, 3);
        t.train(&mut net, &train, 4, 0.0);
        let acc = t.evaluate(&mut net, &test, 0.0, 1);
        assert!(acc > 0.5, "test accuracy {acc} after 4 epochs");
    }

    #[test]
    fn catastrophic_fault_rate_destroys_accuracy() {
        let data = SyntheticDataset::new(4, 80, 13);
        let mut net = models::alexnet_s(4, 23);
        let mut t = Trainer::new(0.05, 5);
        t.train(&mut net, &data, 3, 0.0);
        let clean = t.evaluate(&mut net, &data, 0.0, 1);
        let broken = t.evaluate(&mut net, &data, 0.5, 2);
        assert!(broken < clean, "rate 0.5 accuracy {broken} vs clean {clean}");
    }

    #[test]
    fn tiny_fault_rate_is_harmless() {
        // The heart of Figure 11: 1e-5 costs nothing.
        let data = SyntheticDataset::new(4, 80, 17);
        let mut net = models::vgg_s(4, 29);
        let mut t = Trainer::new(0.05, 7);
        t.train(&mut net, &data, 3, 0.0);
        let clean = t.evaluate(&mut net, &data, 0.0, 1);
        let tiny = t.evaluate(&mut net, &data, 1e-5, 2);
        assert!(tiny >= clean - 0.05, "rate 1e-5 accuracy {tiny} vs clean {clean}");
    }
}
