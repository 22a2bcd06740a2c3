//! 2-d convolution with explicit backward pass.

use crate::error::NnError;
use crate::tensor::{Param, Tensor};
use rand::Rng;

/// A 2-d convolution layer over `(N, C, H, W)` tensors.
///
/// Weights are stored `(Cout, Cin, KH, KW)` — the `(Cin, H, W)` ordering the
/// paper's partial-binary-accumulation discussion assumes.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Kernel weights, `(Cout, Cin, KH, KW)`.
    pub weight: Param,
    /// Optional per-output-channel bias.
    pub bias: Option<Param>,
    stride: usize,
    padding: usize,
    input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights.
    pub fn new<R: Rng>(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let fan_in = cin * kernel * kernel;
        let weight = Param::new(Tensor::kaiming(&[cout, cin, kernel, kernel], fan_in, rng));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[cout])));
        Conv2d {
            weight,
            bias,
            stride,
            padding,
            input: None,
        }
    }

    /// Output channels.
    pub fn cout(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Input channels.
    pub fn cin(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Kernel height/width (square kernels).
    pub fn kernel(&self) -> usize {
        self.weight.value.shape()[2]
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Checks that an input of shape `s` is `(N, Cin, H, W)` with `Cin`
    /// matching the layer, and that the layer yields at least one output
    /// pixel on it: `stride ≥ 1` and a kernel no larger than the padded
    /// input (`k ≤ H + 2·pad`, `k ≤ W + 2·pad`). [`Conv2d::output_size`]
    /// is defined only for inputs that pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] naming the failed condition.
    pub fn check_input(&self, s: &[usize]) -> Result<(), NnError> {
        let mismatch = |expected: String| NnError::ShapeMismatch {
            expected,
            actual: s.to_vec(),
        };
        if s.len() != 4 || s[1] != self.cin() {
            return Err(mismatch(format!("(N, {}, H, W)", self.cin())));
        }
        if self.stride == 0 {
            return Err(mismatch("a conv stride of at least 1".into()));
        }
        let (k, pad) = (self.kernel(), self.padding);
        let padded = |n: usize| n.saturating_add(pad.saturating_mul(2));
        if k > padded(s[2]) || k > padded(s[3]) {
            return Err(mismatch(format!(
                "(N, {}, H, W) with kernel {k} ≤ H + 2·{pad} and ≤ W + 2·{pad}",
                self.cin()
            )));
        }
        Ok(())
    }

    /// Output spatial size for an input of `(h, w)` that passes
    /// [`Conv2d::check_input`].
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let k = self.kernel();
        (
            (h + 2 * self.padding - k) / self.stride + 1,
            (w + 2 * self.padding - k) / self.stride + 1,
        )
    }

    /// Forward pass; caches the input for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input passes
    /// [`Conv2d::check_input`].
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let s = input.shape();
        self.check_input(s)?;
        let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.kernel();
        let (oh, ow) = self.output_size(h, w);
        let mut out = Tensor::zeros(&[n, self.cout(), oh, ow]);
        let weight = &self.weight.value;
        for b in 0..n {
            for co in 0..self.cout() {
                let bias = self.bias.as_ref().map_or(0.0, |p| p.value.data()[co]);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        for ci in 0..cin {
                            for ky in 0..k {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at4(b, ci, iy as usize, ix as usize)
                                        * weight.at4(co, ci, ky, kx);
                                }
                            }
                        }
                        out.set4(b, co, oy, ox, acc);
                    }
                }
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
        let s = input.shape();
        let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.kernel();
        let (oh, ow) = self.output_size(h, w);
        let mut grad_in = Tensor::zeros(s);
        let weight = self.weight.value.clone();
        for b in 0..n {
            for co in 0..self.cout() {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.at4(b, co, oy, ox);
                        if g == 0.0 {
                            continue;
                        }
                        if let Some(bias) = &mut self.bias {
                            bias.grad.data_mut()[co] += g;
                        }
                        for ci in 0..cin {
                            for ky in 0..k {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let x = input.at4(b, ci, iy as usize, ix as usize);
                                    self.weight.grad.add4(co, ci, ky, kx, g * x);
                                    grad_in.add4(
                                        b,
                                        ci,
                                        iy as usize,
                                        ix as usize,
                                        g * weight.at4(co, ci, ky, kx),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    /// Learnable parameters (weight, then bias if present).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng());
        conv.weight.value.data_mut()[0] = 1.0;
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, false, &mut rng());
        for v in conv.weight.value.data_mut() {
            *v = 1.0;
        }
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 45.0);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng());
        let input = Tensor::zeros(&[2, 2, 5, 5]);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &[2, 3, 5, 5]);
    }

    #[test]
    fn stride_two_halves_output() {
        let conv = Conv2d::new(1, 1, 3, 2, 1, false, &mut rng());
        assert_eq!(conv.output_size(8, 8), (4, 4));
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, false, &mut rng());
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 5, 5])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[1, 4, 5, 5])).is_err());
    }

    #[test]
    fn rejects_geometries_without_output_pixels() {
        // A 5×5 kernel without padding does not fit a 3×3 input, and a
        // zero stride never advances: both are shape errors, not panics.
        let mut conv = Conv2d::new(1, 2, 5, 1, 0, false, &mut rng());
        let err = conv.forward(&Tensor::zeros(&[1, 1, 3, 3])).unwrap_err();
        assert!(err.to_string().contains("kernel 5 ≤ H + 2·0"), "{err}");
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 3, 5])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 5, 5])).is_ok());
        let mut conv = Conv2d::new(1, 2, 3, 0, 1, false, &mut rng());
        let err = conv.forward(&Tensor::zeros(&[1, 1, 4, 4])).unwrap_err();
        assert!(err.to_string().contains("stride of at least 1"), "{err}");
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Numerical gradient check on a tiny convolution.
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, true, &mut rng());
        let mut r = rng();
        let input = Tensor::kaiming(&[1, 2, 4, 4], 4, &mut r);
        let out = conv.forward(&input).unwrap();
        // Loss = sum of outputs → grad_out = ones.
        let grad_out = Tensor::full(out.shape(), 1.0);
        let grad_in = conv.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        // Check a few weight coordinates.
        for &(co, ci, ky, kx) in &[(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 1)] {
            let analytic = conv.weight.grad.at4(co, ci, ky, kx);
            let orig = conv.weight.value.at4(co, ci, ky, kx);
            conv.weight.value.set4(co, ci, ky, kx, orig + eps);
            let up: f32 = conv.forward(&input).unwrap().data().iter().sum();
            conv.weight.value.set4(co, ci, ky, kx, orig - eps);
            let down: f32 = conv.forward(&input).unwrap().data().iter().sum();
            conv.weight.value.set4(co, ci, ky, kx, orig);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "weight grad: analytic {analytic}, numeric {numeric}"
            );
        }
        // Check a few input coordinates.
        for &(c, y, x) in &[(0, 0, 0), (1, 3, 3), (0, 2, 1)] {
            let analytic = grad_in.at4(0, c, y, x);
            let mut plus = input.clone();
            plus.set4(0, c, y, x, input.at4(0, c, y, x) + eps);
            let up: f32 = conv.forward(&plus).unwrap().data().iter().sum();
            let mut minus = input.clone();
            minus.set4(0, c, y, x, input.at4(0, c, y, x) - eps);
            let down: f32 = conv.forward(&minus).unwrap().data().iter().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "input grad: analytic {analytic}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_output_positions() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, true, &mut rng());
        let input = Tensor::zeros(&[1, 1, 3, 3]);
        let out = conv.forward(&input).unwrap();
        conv.backward(&Tensor::full(out.shape(), 1.0)).unwrap();
        // Bias contributes to every one of the 9 output positions.
        assert_eq!(conv.bias.as_ref().unwrap().grad.data()[0], 9.0);
    }

    #[test]
    fn params_mut_exposes_weight_and_bias() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, true, &mut rng());
        assert_eq!(conv.params_mut().len(), 2);
        let mut no_bias = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng());
        assert_eq!(no_bias.params_mut().len(), 1);
    }
}
