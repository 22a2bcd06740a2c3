//! SC-in-the-loop training (paper §II-A, §IV).
//!
//! The forward pass runs through the stochastic engine — so the network
//! sees the exact deterministic generation bias, OR-accumulation
//! compression, and quantization it will see at inference — while gradients
//! flow through the float layers (straight-through). This is what lets
//! moderate LFSR sharing *gain* accuracy: the error profile is fixed, and
//! training absorbs it.

use crate::engine::ScEngine;
use crate::error::GeoError;
use geo_nn::datasets::Dataset;
use geo_nn::loss::{argmax_rows, softmax_cross_entropy};
use geo_nn::optim::Optimizer;
use geo_nn::train::TrainConfig;
use geo_nn::{Sequential, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-epoch record of SC training.
#[derive(Debug, Clone, Default)]
pub struct ScHistory {
    /// Mean training loss per epoch (computed on SC logits).
    pub losses: Vec<f32>,
}

impl ScHistory {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.last().copied()
    }
}

fn gather(ds: &Dataset, idx: &[usize]) -> Result<(geo_nn::Tensor, Vec<usize>), GeoError> {
    let (c, h, w) = ds.image_shape();
    let sz = c * h * w;
    let mut data = Vec::with_capacity(idx.len() * sz);
    let mut labels = Vec::with_capacity(idx.len());
    for &i in idx {
        data.extend_from_slice(&ds.images.data()[i * sz..(i + 1) * sz]);
        labels.push(ds.labels[i]);
    }
    let batch = geo_nn::Tensor::from_vec(vec![idx.len(), c, h, w], data).map_err(GeoError::Nn)?;
    Ok((batch, labels))
}

/// Trains `model` with SC forward passes and float backward passes.
///
/// # Errors
///
/// Propagates engine and layer errors.
///
/// # Examples
///
/// ```
/// use geo_core::{train_sc, GeoConfig, ScEngine};
/// use geo_nn::datasets::{generate, DatasetSpec};
/// use geo_nn::optim::Optimizer;
/// use geo_nn::train::TrainConfig;
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let (train_ds, _) = generate(&DatasetSpec::mnist_like(0).with_samples(16, 8));
/// let mut model = geo_nn::models::lenet5(1, 8, 10, 0);
/// let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
/// let mut opt = Optimizer::paper_default();
/// let cfg = TrainConfig { epochs: 1, batch_size: 8, seed: 0 };
/// let history = train_sc(&mut engine, &mut model, &train_ds, &mut opt, &cfg)?;
/// assert_eq!(history.losses.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn train_sc(
    engine: &mut ScEngine,
    model: &mut Sequential,
    dataset: &Dataset,
    optimizer: &mut Optimizer,
    config: &TrainConfig,
) -> Result<ScHistory, GeoError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = ScHistory::default();
    for epoch in 0..config.epochs {
        // Step decay: straight-through gradients (float backward against an
        // SC forward) are biased, so late training needs a smaller step to
        // stay stable — halve the rate at 50% and again at 75%.
        if config.epochs >= 8 && (epoch * 2 == config.epochs || epoch * 4 == config.epochs * 3) {
            optimizer.scale_lr(0.5);
        }
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let (batch, labels) = gather(dataset, chunk)?;
            let logits = engine.forward(model, &batch, true)?;
            let out = softmax_cross_entropy(&logits, &labels)?;
            model.backward(&out.grad)?;
            optimizer.step(&mut model.params_mut());
            epoch_loss += out.loss;
            batches += 1;
        }
        history.losses.push(epoch_loss / batches.max(1) as f32);
    }
    Ok(history)
}

/// Top-1 accuracy of the SC datapath on `dataset` (inference mode:
/// quantized near-memory BN, running statistics).
///
/// # Errors
///
/// Propagates engine and layer errors.
pub fn evaluate_sc(
    engine: &mut ScEngine,
    model: &mut Sequential,
    dataset: &Dataset,
) -> Result<f32, GeoError> {
    top1_accuracy(dataset, |x| engine.forward(model, x, false))
}

/// Top-1 accuracy of `forward`'s logits over `dataset`, in batches of
/// 32 — the loop [`evaluate_sc`] and
/// [`crate::ProgramExecutor::evaluate`] share.
pub(crate) fn top1_accuracy(
    dataset: &Dataset,
    mut forward: impl FnMut(&Tensor) -> Result<Tensor, GeoError>,
) -> Result<f32, GeoError> {
    let mut correct = 0usize;
    let batch = 32usize;
    let mut i = 0;
    while i < dataset.len() {
        let n = batch.min(dataset.len() - i);
        let (x, labels) = dataset.batch(i, n);
        let logits = forward(&x)?;
        for (pred, label) in argmax_rows(&logits).into_iter().zip(&labels) {
            if pred == *label {
                correct += 1;
            }
        }
        i += n;
    }
    Ok(correct as f32 / dataset.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeoConfig;
    use geo_nn::datasets::{generate, DatasetSpec};
    use geo_nn::models;

    #[test]
    fn sc_training_reduces_loss() {
        let (train_ds, _) = generate(&DatasetSpec::mnist_like(4).with_samples(48, 16));
        let mut model = models::lenet5(1, 8, 10, 2);
        let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).unwrap();
        let mut opt = Optimizer::paper_default();
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 16,
            seed: 0,
        };
        let history = train_sc(&mut engine, &mut model, &train_ds, &mut opt, &cfg).unwrap();
        assert_eq!(history.losses.len(), 4);
        assert!(
            history.final_loss().unwrap() < history.losses[0],
            "losses {:?}",
            history.losses
        );
    }

    #[test]
    fn sc_trained_model_beats_chance() {
        let (train_ds, test_ds) = generate(&DatasetSpec::mnist_like(6).with_samples(80, 40));
        let mut model = models::lenet5(1, 8, 10, 3);
        let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).unwrap();
        let mut opt = Optimizer::paper_default();
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 16,
            seed: 1,
        };
        train_sc(&mut engine, &mut model, &train_ds, &mut opt, &cfg).unwrap();
        let acc = evaluate_sc(&mut engine, &mut model, &test_ds).unwrap();
        assert!(acc > 0.2, "SC accuracy {acc} should beat 10-class chance");
    }

    #[test]
    fn evaluate_handles_empty_dataset_shape() {
        let (train_ds, _) = generate(&DatasetSpec::mnist_like(1).with_samples(8, 4));
        let mut model = models::lenet5(1, 8, 10, 0);
        let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).unwrap();
        let acc = evaluate_sc(&mut engine, &mut model, &train_ds.take(3)).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
