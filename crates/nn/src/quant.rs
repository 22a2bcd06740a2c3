//! Fixed-point fake quantization, used to model the Eyeriss 4/8-bit
//! baselines of Table I ("Eyeriss results are retrained at respective
//! precision").

use crate::error::NnError;
use crate::layers::Layer;
use crate::model::Sequential;
use crate::tensor::Tensor;

/// Fixed-point quantization settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Weight bit width.
    pub weight_bits: u8,
    /// Activation bit width.
    pub activation_bits: u8,
}

impl QuantConfig {
    /// `n`-bit weights and activations (the paper's 4-bit / 8-bit points).
    pub fn uniform(bits: u8) -> Self {
        QuantConfig {
            weight_bits: bits,
            activation_bits: bits,
        }
    }
}

/// Symmetric per-tensor fake quantization to `bits` bits: values are
/// rounded to the nearest of `2^bits` levels spanning `±max_abs`.
///
/// Returns the input unchanged for an all-zero tensor.
pub fn fake_quantize(t: &Tensor, bits: u8) -> Tensor {
    let max = t.max_abs();
    if max == 0.0 {
        return t.clone();
    }
    let levels = (1u32 << (bits - 1)) as f32; // signed levels per side
    t.map(|x| (x / max * levels).round().clamp(-levels, levels) / levels * max)
}

/// Quantizes the weights of every conv/linear layer in place.
pub fn quantize_weights(model: &mut Sequential, bits: u8) {
    for layer in model.layers_mut() {
        match layer {
            Layer::Conv2d(c) => {
                c.weight.value = fake_quantize(&c.weight.value, bits);
                if let Some(b) = &mut c.bias {
                    b.value = fake_quantize(&b.value, bits);
                }
            }
            Layer::Linear(l) => {
                l.weight.value = fake_quantize(&l.weight.value, bits);
                l.bias.value = fake_quantize(&l.bias.value, bits);
            }
            _ => {}
        }
    }
}

/// Forward pass with fake-quantized activations after every layer,
/// modeling a fixed-point datapath. Weights should already be quantized
/// (see [`quantize_weights`]).
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn forward_quantized(
    model: &mut Sequential,
    input: &Tensor,
    config: QuantConfig,
) -> Result<Tensor, NnError> {
    let mut x = fake_quantize(input, config.activation_bits);
    for layer in model.layers_mut() {
        x = layer.forward(&x)?;
        x = fake_quantize(&x, config.activation_bits);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fake_quantize_is_idempotent() {
        let t = Tensor::from_vec(vec![4], vec![0.11, -0.52, 0.97, 0.0]).unwrap();
        let q1 = fake_quantize(&t, 4);
        let q2 = fake_quantize(&q1, 4);
        for (a, b) in q1.data().iter().zip(q2.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn error_shrinks_with_more_bits() {
        let t = Tensor::from_vec(vec![5], vec![0.13, -0.77, 0.42, 0.91, -0.05]).unwrap();
        let err = |bits: u8| {
            let q = fake_quantize(&t, bits);
            t.data()
                .iter()
                .zip(q.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(8) < err(4));
        assert!(err(4) < err(2));
    }

    #[test]
    fn max_value_is_preserved() {
        let t = Tensor::from_vec(vec![2], vec![1.0, -0.5]).unwrap();
        let q = fake_quantize(&t, 4);
        assert_eq!(q.data()[0], 1.0);
    }

    #[test]
    fn zero_tensor_is_unchanged() {
        let t = Tensor::zeros(&[3]);
        assert_eq!(fake_quantize(&t, 4), t);
    }

    #[test]
    fn quantize_weights_touches_conv_and_linear() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng)),
            Layer::Linear(Linear::new(8, 2, &mut rng)),
        ]);
        let before: Vec<f32> = model.params_mut()[0].value.data().to_vec();
        quantize_weights(&mut model, 2);
        let after: Vec<f32> = model.params_mut()[0].value.data().to_vec();
        assert_ne!(before, after, "2-bit quantization must change weights");
        // 2-bit symmetric grid: {-1, -1/2, 0, 1/2, 1}·max — at most 5 levels
        // (normalize -0.0 to 0.0 before comparing).
        let distinct: std::collections::HashSet<String> =
            after.iter().map(|x| format!("{:.6}", x + 0.0)).collect();
        assert!(distinct.len() <= 6, "levels: {distinct:?}");
    }

    #[test]
    fn forward_quantized_runs_a_model() {
        let mut model = crate::models::cnn4(1, 8, 4, 3);
        model.set_training(false);
        quantize_weights(&mut model, 8);
        let out = forward_quantized(
            &mut model,
            &Tensor::full(&[1, 1, 8, 8], 0.5),
            QuantConfig::uniform(8),
        )
        .unwrap();
        assert_eq!(out.shape(), &[1, 4]);
        assert!(out.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_config() {
        let c = QuantConfig::uniform(4);
        assert_eq!(c.weight_bits, 4);
        assert_eq!(c.activation_bits, 4);
    }
}
