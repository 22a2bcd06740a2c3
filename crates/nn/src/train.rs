//! Training and evaluation loops.
//!
//! The float loop here trains the fixed-point baselines; the SC-in-the-loop
//! variant (SC forward, float backward) lives in `geo-core`, which reuses
//! these types.

use crate::datasets::Dataset;
use crate::error::NnError;
use crate::loss::{argmax_rows, softmax_cross_entropy};
use crate::model::Sequential;
use crate::optim::Optimizer;
use crate::quant::{forward_quantized, QuantConfig};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 16,
            seed: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean training loss per epoch.
    pub losses: Vec<f32>,
}

impl History {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.last().copied()
    }
}

/// Shuffled index order for one epoch.
pub(crate) fn epoch_order(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

/// Gathers samples `idx` into a batch tensor + labels.
pub(crate) fn gather(ds: &Dataset, idx: &[usize]) -> Result<(Tensor, Vec<usize>), NnError> {
    let (c, h, w) = ds.image_shape();
    let sz = c * h * w;
    let mut data = Vec::with_capacity(idx.len() * sz);
    let mut labels = Vec::with_capacity(idx.len());
    for &i in idx {
        data.extend_from_slice(&ds.images.data()[i * sz..(i + 1) * sz]);
        labels.push(ds.labels[i]);
    }
    let batch = Tensor::from_vec(vec![idx.len(), c, h, w], data)?;
    Ok((batch, labels))
}

/// Trains `model` in float with the given optimizer.
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn train(
    model: &mut Sequential,
    dataset: &Dataset,
    optimizer: &mut Optimizer,
    config: &TrainConfig,
) -> Result<History, NnError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = History::default();
    model.set_training(true);
    for _ in 0..config.epochs {
        let order = epoch_order(dataset.len(), &mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(config.batch_size) {
            let (batch, labels) = gather(dataset, chunk)?;
            let logits = model.forward(&batch)?;
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

/// Top-1 accuracy of the float model on `dataset` (eval mode).
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn evaluate(model: &mut Sequential, dataset: &Dataset) -> Result<f32, NnError> {
    model.set_training(false);
    let mut correct = 0usize;
    let batch = 32usize;
    let mut i = 0;
    while i < dataset.len() {
        let n = batch.min(dataset.len() - i);
        let (x, labels) = dataset.batch(i, n);
        let logits = model.forward(&x)?;
        for (pred, label) in argmax_rows(&logits).into_iter().zip(&labels) {
            if pred == *label {
                correct += 1;
            }
        }
        i += n;
    }
    model.set_training(true);
    Ok(correct as f32 / dataset.len() as f32)
}

/// Full confusion matrix of the float model on `dataset` (eval mode).
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn evaluate_confusion(
    model: &mut Sequential,
    dataset: &Dataset,
) -> Result<crate::metrics::ConfusionMatrix, NnError> {
    model.set_training(false);
    let mut matrix = crate::metrics::ConfusionMatrix::new(dataset.classes);
    let batch = 32usize;
    let mut i = 0;
    while i < dataset.len() {
        let n = batch.min(dataset.len() - i);
        let (x, labels) = dataset.batch(i, n);
        let logits = model.forward(&x)?;
        for (pred, label) in argmax_rows(&logits).into_iter().zip(&labels) {
            matrix.record(*label, pred);
        }
        i += n;
    }
    model.set_training(true);
    Ok(matrix)
}

/// Top-1 accuracy with a fake-quantized datapath (the Eyeriss baseline).
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn evaluate_quantized(
    model: &mut Sequential,
    dataset: &Dataset,
    config: QuantConfig,
) -> Result<f32, NnError> {
    model.set_training(false);
    let mut correct = 0usize;
    let batch = 32usize;
    let mut i = 0;
    while i < dataset.len() {
        let n = batch.min(dataset.len() - i);
        let (x, labels) = dataset.batch(i, n);
        let logits = forward_quantized(model, &x, config)?;
        for (pred, label) in argmax_rows(&logits).into_iter().zip(&labels) {
            if pred == *label {
                correct += 1;
            }
        }
        i += n;
    }
    model.set_training(true);
    Ok(correct as f32 / dataset.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate, DatasetSpec};
    use crate::models;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (train_ds, test_ds) = generate(&DatasetSpec::mnist_like(1).with_samples(120, 60));
        let mut model = models::lenet5(1, 8, 10, 0);
        let mut opt = Optimizer::paper_default();
        let config = TrainConfig {
            epochs: 12,
            batch_size: 16,
            seed: 0,
        };
        let history = train(&mut model, &train_ds, &mut opt, &config).unwrap();
        assert!(history.final_loss().unwrap() < history.losses[0]);
        let acc = evaluate(&mut model, &test_ds).unwrap();
        assert!(acc > 0.3, "accuracy {acc} should beat 10-class chance");
    }

    #[test]
    fn quantized_evaluation_tracks_float_at_8_bits() {
        let (train_ds, test_ds) = generate(&DatasetSpec::mnist_like(2).with_samples(120, 60));
        let mut model = models::lenet5(1, 8, 10, 1);
        let mut opt = Optimizer::paper_default();
        train(
            &mut model,
            &train_ds,
            &mut opt,
            &TrainConfig {
                epochs: 10,
                batch_size: 16,
                seed: 0,
            },
        )
        .unwrap();
        let float_acc = evaluate(&mut model, &test_ds).unwrap();
        let mut q8 = model.clone();
        crate::quant::quantize_weights(&mut q8, 8);
        let q8_acc = evaluate_quantized(&mut q8, &test_ds, QuantConfig::uniform(8)).unwrap();
        assert!(
            (float_acc - q8_acc).abs() < 0.15,
            "8-bit ({q8_acc}) should track float ({float_acc})"
        );
    }

    #[test]
    fn confusion_matrix_agrees_with_accuracy() {
        let (train_ds, test_ds) = generate(&DatasetSpec::mnist_like(5).with_samples(96, 48));
        let mut model = models::lenet5(1, 8, 10, 4);
        let mut opt = Optimizer::paper_default();
        train(
            &mut model,
            &train_ds,
            &mut opt,
            &TrainConfig {
                epochs: 6,
                batch_size: 16,
                seed: 0,
            },
        )
        .unwrap();
        let acc = evaluate(&mut model, &test_ds).unwrap();
        let matrix = evaluate_confusion(&mut model, &test_ds).unwrap();
        assert!((matrix.accuracy() - acc).abs() < 1e-6);
        assert_eq!(matrix.total() as usize, test_ds.len());
    }

    #[test]
    fn history_and_config_defaults() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.batch_size > 0);
        assert_eq!(History::default().final_loss(), None);
    }

    #[test]
    fn epoch_order_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let order = epoch_order(50, &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
