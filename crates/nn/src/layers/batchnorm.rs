//! Batch normalization over channels of `(N, C, H, W)` tensors.
//!
//! GEO performs an 8-bit fixed-point batch normalization near memory before
//! ReLU to recover the dynamic range that partial binary accumulation adds
//! (paper §III-B, worth 5.5–6.5 accuracy points). This float layer provides
//! the training-time statistics; the SC engine quantizes the folded affine
//! transform for inference.

use crate::error::NnError;
use crate::tensor::{Param, Tensor};

/// Per-channel batch normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Learnable scale, `(C)`.
    pub gamma: Param,
    /// Learnable shift, `(C)`.
    pub beta: Param,
    /// Running mean used at inference, `(C)`.
    pub running_mean: Tensor,
    /// Running variance used at inference, `(C)`.
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    training: bool,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    input: Tensor,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            momentum: 0.1,
            eps: 1e-5,
            training: true,
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Switches between batch statistics (training) and running statistics
    /// (inference).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// The folded per-channel affine transform `y = scale·x + shift` that
    /// inference hardware applies, using running statistics.
    ///
    /// This is what GEO's near-memory BN units compute in 8-bit fixed point.
    pub fn folded_affine(&self) -> Vec<(f32, f32)> {
        (0..self.channels())
            .map(|c| {
                let inv_std = 1.0 / (self.running_var.data()[c] + self.eps).sqrt();
                let scale = self.gamma.value.data()[c] * inv_std;
                let shift = self.beta.value.data()[c] - scale * self.running_mean.data()[c];
                (scale, shift)
            })
            .collect()
    }

    /// Forward pass. In training mode uses batch statistics and updates the
    /// running estimates; in eval mode uses the running statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is `(N, C, H, W)`
    /// with matching `C`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let s = input.shape();
        if s.len() != 4 || s[1] != self.channels() {
            return Err(NnError::ShapeMismatch {
                expected: format!("(N, {}, H, W)", self.channels()),
                actual: s.to_vec(),
            });
        }
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = (n * h * w) as f32;
        let mut out = Tensor::zeros(s);
        if self.training {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut sum = 0.0;
                for b in 0..n {
                    for y in 0..h {
                        for x in 0..w {
                            sum += input.at4(b, ci, y, x);
                        }
                    }
                }
                mean[ci] = sum / m;
                let mut sq = 0.0;
                for b in 0..n {
                    for y in 0..h {
                        for x in 0..w {
                            let d = input.at4(b, ci, y, x) - mean[ci];
                            sq += d * d;
                        }
                    }
                }
                var[ci] = sq / m;
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let bta = self.beta.value.data()[ci];
                for b in 0..n {
                    for y in 0..h {
                        for x in 0..w {
                            let xh = (input.at4(b, ci, y, x) - mean[ci]) * inv_std[ci];
                            out.set4(b, ci, y, x, g * xh + bta);
                        }
                    }
                }
                self.running_mean.data_mut()[ci] =
                    (1.0 - self.momentum) * self.running_mean.data()[ci] + self.momentum * mean[ci];
                self.running_var.data_mut()[ci] =
                    (1.0 - self.momentum) * self.running_var.data()[ci] + self.momentum * var[ci];
            }
            self.cache = Some(BnCache {
                input: input.clone(),
                mean,
                inv_std,
            });
        } else {
            for (ci, (scale, shift)) in self.folded_affine().into_iter().enumerate() {
                for b in 0..n {
                    for y in 0..h {
                        for x in 0..w {
                            out.set4(b, ci, y, x, scale * input.at4(b, ci, y, x) + shift);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Backward pass (training mode): accumulates gamma/beta gradients and
    /// returns the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before a training-mode
    /// `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForward)?;
        let input = &cache.input;
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let m = (n * h * w) as f32;
        let mut grad_in = Tensor::zeros(s);
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            let mean = cache.mean[ci];
            // Channel-wise sums needed by the BN backward formula.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xh = 0.0f32;
            for b in 0..n {
                for y in 0..h {
                    for x in 0..w {
                        let dy = grad_out.at4(b, ci, y, x);
                        let xh = (input.at4(b, ci, y, x) - mean) * inv_std;
                        sum_dy += dy;
                        sum_dy_xh += dy * xh;
                    }
                }
            }
            self.gamma.grad.data_mut()[ci] += sum_dy_xh;
            self.beta.grad.data_mut()[ci] += sum_dy;
            for b in 0..n {
                for y in 0..h {
                    for x in 0..w {
                        let dy = grad_out.at4(b, ci, y, x);
                        let xh = (input.at4(b, ci, y, x) - mean) * inv_std;
                        let dx = g * inv_std * (dy - sum_dy / m - xh * sum_dy_xh / m);
                        grad_in.set4(b, ci, y, x, dx);
                    }
                }
            }
        }
        Ok(grad_in)
    }

    /// Learnable parameters (gamma, then beta).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_forward_normalizes_channels() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let input = Tensor::kaiming(&[4, 2, 3, 3], 9, &mut rng).map(|x| x * 10.0 + 2.0);
        let out = bn.forward(&input).unwrap();
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for y in 0..3 {
                    for x in 0..3 {
                        vals.push(out.at4(b, c, y, x));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.data_mut()[0] = 2.0;
        bn.running_var.data_mut()[0] = 4.0;
        bn.set_training(false);
        let input = Tensor::full(&[1, 1, 1, 1], 6.0);
        let out = bn.forward(&input).unwrap();
        // (6 - 2) / sqrt(4 + eps) ≈ 2.0
        assert!((out.data()[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn folded_affine_matches_eval_forward() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.data_mut()[0] = 1.0;
        bn.running_var.data_mut()[0] = 9.0;
        bn.gamma.value.data_mut()[0] = 2.0;
        bn.beta.value.data_mut()[0] = -1.0;
        bn.set_training(false);
        let (scale, shift) = bn.folded_affine()[0];
        let x = 5.0f32;
        let input = Tensor::full(&[1, 1, 1, 1], x);
        let out = bn.forward(&input).unwrap();
        assert!((out.data()[0] - (scale * x + shift)).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_full_bn_backward() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor::kaiming(&[2, 2, 2, 2], 4, &mut rng);
        // Fix statistics drift across repeated forwards for the numeric
        // check by using fresh layers each evaluation.
        let loss = |inp: &Tensor| -> f32 {
            let mut b = BatchNorm2d::new(2);
            b.gamma.value.data_mut()[0] = 1.3;
            b.gamma.value.data_mut()[1] = 0.8;
            b.beta.value.data_mut()[0] = 0.2;
            let out = b.forward(inp).unwrap();
            out.data().iter().map(|&v| v * v).sum::<f32>() * 0.5
        };
        bn.gamma.value.data_mut()[0] = 1.3;
        bn.gamma.value.data_mut()[1] = 0.8;
        bn.beta.value.data_mut()[0] = 0.2;
        let out = bn.forward(&input).unwrap();
        let grad_in = bn.backward(&out).unwrap(); // dL/dy = y for 0.5·y²
        let eps = 1e-2f32;
        for &(b, c, y, x) in &[(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)] {
            let mut plus = input.clone();
            plus.set4(b, c, y, x, input.at4(b, c, y, x) + eps);
            let mut minus = input.clone();
            minus.set4(b, c, y, x, input.at4(b, c, y, x) - eps);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grad_in.at4(b, c, y, x);
            assert!(
                (analytic - numeric).abs() < 5e-2,
                "({b},{c},{y},{x}): analytic {analytic}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn shape_validation_and_missing_forward() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
        assert!(bn.backward(&Tensor::zeros(&[1, 3, 2, 2])).is_err());
        assert_eq!(bn.params_mut().len(), 2);
        assert_eq!(bn.channels(), 3);
    }
}
