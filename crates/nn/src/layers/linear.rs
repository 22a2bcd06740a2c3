//! Fully-connected layer with explicit backward pass.

use crate::error::NnError;
use crate::tensor::{Param, Tensor};
use rand::Rng;

/// A fully-connected layer over `(N, In)` tensors.
///
/// GEO supports FC layers on the same MAC fabric (with underutilization,
/// paper §III-A); the SC engine reuses this layer's weights directly.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `(Out, In)`.
    pub weight: Param,
    /// Per-output bias.
    pub bias: Param,
    input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-initialized weights and zero bias.
    pub fn new<R: Rng>(input: usize, output: usize, rng: &mut R) -> Self {
        Linear {
            weight: Param::new(Tensor::kaiming(&[output, input], input, rng)),
            bias: Param::new(Tensor::zeros(&[output])),
            input: None,
        }
    }

    /// Input features.
    pub fn input_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output features.
    pub fn output_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Forward pass; caches the input for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is `(N, In)`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let s = input.shape();
        if s.len() != 2 || s[1] != self.input_features() {
            return Err(NnError::ShapeMismatch {
                expected: format!("(N, {})", self.input_features()),
                actual: s.to_vec(),
            });
        }
        let (n, inf) = (s[0], s[1]);
        let outf = self.output_features();
        let mut out = Tensor::zeros(&[n, outf]);
        for b in 0..n {
            for o in 0..outf {
                let mut acc = self.bias.value.data()[o];
                for i in 0..inf {
                    acc += input.at2(b, i) * self.weight.value.at2(o, i);
                }
                out.set2(b, o, acc);
            }
        }
        self.input = Some(input.clone());
        Ok(out)
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self.input.as_ref().ok_or(NnError::MissingForward)?;
        let (n, inf) = (input.shape()[0], input.shape()[1]);
        let outf = self.output_features();
        let mut grad_in = Tensor::zeros(&[n, inf]);
        for b in 0..n {
            for o in 0..outf {
                let g = grad_out.at2(b, o);
                self.bias.grad.data_mut()[o] += g;
                for i in 0..inf {
                    let wi = self.weight.value.at2(o, i);
                    self.weight.grad.data_mut()[o * inf + i] += g * input.at2(b, i);
                    grad_in.data_mut()[b * inf + i] += g * wi;
                }
            }
        }
        Ok(grad_in)
    }

    /// Learnable parameters (weight, then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut lin = Linear::new(2, 2, &mut rng());
        lin.weight.value = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn shape_validation() {
        let mut lin = Linear::new(3, 2, &mut rng());
        assert!(lin.forward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(lin.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut lin = Linear::new(3, 2, &mut rng());
        let mut r = rng();
        let x = Tensor::kaiming(&[2, 3], 3, &mut r);
        let out = lin.forward(&x).unwrap();
        let grad_in = lin.backward(&Tensor::full(out.shape(), 1.0)).unwrap();
        let eps = 1e-3f32;
        // Weight gradient at (1, 2).
        let analytic = lin.weight.grad.at2(1, 2);
        let orig = lin.weight.value.at2(1, 2);
        lin.weight.value.set2(1, 2, orig + eps);
        let up: f32 = lin.forward(&x).unwrap().data().iter().sum();
        lin.weight.value.set2(1, 2, orig - eps);
        let down: f32 = lin.forward(&x).unwrap().data().iter().sum();
        lin.weight.value.set2(1, 2, orig);
        assert!((analytic - (up - down) / (2.0 * eps)).abs() < 1e-2);
        // Input gradient at (0, 1).
        let mut plus = x.clone();
        plus.set2(0, 1, x.at2(0, 1) + eps);
        let up: f32 = lin.forward(&plus).unwrap().data().iter().sum();
        let mut minus = x.clone();
        minus.set2(0, 1, x.at2(0, 1) - eps);
        let down: f32 = lin.forward(&minus).unwrap().data().iter().sum();
        assert!((grad_in.at2(0, 1) - (up - down) / (2.0 * eps)).abs() < 1e-2);
    }

    #[test]
    fn bias_grad_sums_over_batch() {
        let mut lin = Linear::new(2, 2, &mut rng());
        let x = Tensor::zeros(&[3, 2]);
        let out = lin.forward(&x).unwrap();
        lin.backward(&Tensor::full(out.shape(), 1.0)).unwrap();
        assert_eq!(lin.bias.grad.data(), &[3.0, 3.0]);
        assert_eq!(lin.params_mut().len(), 2);
    }
}
