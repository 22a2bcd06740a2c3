//! Pooling layers.
//!
//! GEO uses *average* pooling with computation skipping: the output
//! converter's parallel counters add neighboring outputs before conversion,
//! so pooled layers can run shorter streams (paper §III-A, §IV). Max pooling
//! is provided for completeness.

use crate::error::NnError;
use crate::tensor::Tensor;

/// Shape contract shared by both 2×2 pools: 4-d with even spatial
/// dimensions, returned unpacked.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] otherwise.
pub fn pool2x2_shape(s: &[usize]) -> Result<(usize, usize, usize, usize), NnError> {
    if s.len() != 4 || !s[2].is_multiple_of(2) || !s[3].is_multiple_of(2) {
        return Err(NnError::ShapeMismatch {
            expected: "(N, C, even H, even W)".into(),
            actual: s.to_vec(),
        });
    }
    Ok((s[0], s[1], s[2], s[3]))
}

/// 2×2 stride-2 average pool as a free function — the single shared
/// implementation behind [`AvgPool2d::forward`] and the inference
/// engine's prepared/fused pooling paths, which must stay float-identical
/// to it (same tap order, same `/ 4.0`).
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless the input is 4-d with even
/// spatial dimensions.
pub fn avg_pool2x2(input: &Tensor) -> Result<Tensor, NnError> {
    let (n, c, h, w) = pool2x2_shape(input.shape())?;
    let mut out = Tensor::zeros(&[n, c, h / 2, w / 2]);
    for b in 0..n {
        for ci in 0..c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    let sum = input.at4(b, ci, 2 * oy, 2 * ox)
                        + input.at4(b, ci, 2 * oy, 2 * ox + 1)
                        + input.at4(b, ci, 2 * oy + 1, 2 * ox)
                        + input.at4(b, ci, 2 * oy + 1, 2 * ox + 1);
                    out.set4(b, ci, oy, ox, sum / 4.0);
                }
            }
        }
    }
    Ok(out)
}

/// 2×2 stride-2 max pool as a free function (no argmax bookkeeping) —
/// shared by [`MaxPool2d::forward`] and the inference engine.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless the input is 4-d with even
/// spatial dimensions.
pub fn max_pool2x2(input: &Tensor) -> Result<Tensor, NnError> {
    let (n, c, h, w) = pool2x2_shape(input.shape())?;
    let mut out = Tensor::zeros(&[n, c, h / 2, w / 2]);
    for b in 0..n {
        for ci in 0..c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let v = input.at4(b, ci, 2 * oy + dy, 2 * ox + dx);
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out.set4(b, ci, oy, ox, best);
                }
            }
        }
    }
    Ok(out)
}

/// 2×2 average pooling with stride 2 over `(N, C, H, W)` tensors.
#[derive(Debug, Clone, Default)]
pub struct AvgPool2d {
    input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pooling window edge (fixed 2).
    pub const WINDOW: usize = 2;

    /// Forward pass; caches the input shape for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is 4-d with even
    /// spatial dimensions.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = avg_pool2x2(input)?;
        self.input_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    /// Backward pass: spreads each output gradient evenly over its window.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self.input_shape.as_ref().ok_or(NnError::MissingForward)?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut grad_in = Tensor::zeros(shape);
        for b in 0..n {
            for ci in 0..c {
                for oy in 0..h / 2 {
                    for ox in 0..w / 2 {
                        let g = grad_out.at4(b, ci, oy, ox) / 4.0;
                        grad_in.set4(b, ci, 2 * oy, 2 * ox, g);
                        grad_in.set4(b, ci, 2 * oy, 2 * ox + 1, g);
                        grad_in.set4(b, ci, 2 * oy + 1, 2 * ox, g);
                        grad_in.set4(b, ci, 2 * oy + 1, 2 * ox + 1, g);
                    }
                }
            }
        }
        Ok(grad_in)
    }
}

/// 2×2 max pooling with stride 2 over `(N, C, H, W)` tensors.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2d {
    input_shape: Option<Vec<usize>>,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches argmax positions for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is 4-d with even
    /// spatial dimensions.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        // Output values come from the shared kernel; the extra pass here
        // only records argmax positions for backward (training-only cost).
        let out = max_pool2x2(input)?;
        let (n, c, h, w) = pool2x2_shape(input.shape())?;
        self.argmax = vec![0; n * c * (h / 2) * (w / 2)];
        let mut flat = 0usize;
        for b in 0..n {
            for ci in 0..c {
                for oy in 0..h / 2 {
                    for ox in 0..w / 2 {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let (y, x) = (2 * oy + dy, 2 * ox + dx);
                                let v = input.at4(b, ci, y, x);
                                if v > best {
                                    best = v;
                                    best_idx = ((b * c + ci) * h + y) * w + x;
                                }
                            }
                        }
                        debug_assert_eq!(best, out.at4(b, ci, oy, ox));
                        self.argmax[flat] = best_idx;
                        flat += 1;
                    }
                }
            }
        }
        self.input_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    /// Backward pass: routes each output gradient to its argmax position.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self.input_shape.as_ref().ok_or(NnError::MissingForward)?;
        let mut grad_in = Tensor::zeros(shape);
        for (flat, &idx) in self.argmax.iter().enumerate() {
            grad_in.data_mut()[idx] += grad_out.data()[flat];
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap()
    }

    #[test]
    fn avg_pool_averages_windows() {
        let mut pool = AvgPool2d::new();
        let out = pool.forward(&sample()).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_evenly() {
        let mut pool = AvgPool2d::new();
        pool.forward(&sample()).unwrap();
        let grad = pool
            .backward(&Tensor::from_vec(vec![1, 1, 2, 2], vec![4.0, 0.0, 0.0, 8.0]).unwrap())
            .unwrap();
        assert_eq!(grad.at4(0, 0, 0, 0), 1.0);
        assert_eq!(grad.at4(0, 0, 1, 1), 1.0);
        assert_eq!(grad.at4(0, 0, 0, 2), 0.0);
        assert_eq!(grad.at4(0, 0, 3, 3), 2.0);
    }

    #[test]
    fn max_pool_takes_window_maxima() {
        let mut pool = MaxPool2d::new();
        let out = pool.forward(&sample()).unwrap();
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new();
        pool.forward(&sample()).unwrap();
        let grad = pool
            .backward(&Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .unwrap();
        assert_eq!(grad.at4(0, 0, 1, 1), 1.0);
        assert_eq!(grad.at4(0, 0, 1, 3), 2.0);
        assert_eq!(grad.at4(0, 0, 3, 1), 3.0);
        assert_eq!(grad.at4(0, 0, 3, 3), 4.0);
        assert_eq!(grad.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn free_fns_match_layer_forwards() {
        let x = sample();
        let mut a = AvgPool2d::new();
        assert_eq!(
            avg_pool2x2(&x).unwrap().data(),
            a.forward(&x).unwrap().data()
        );
        let mut m = MaxPool2d::new();
        assert_eq!(
            max_pool2x2(&x).unwrap().data(),
            m.forward(&x).unwrap().data()
        );
        assert!(avg_pool2x2(&Tensor::zeros(&[1, 1, 3, 4])).is_err());
        assert!(max_pool2x2(&Tensor::zeros(&[1, 1, 4, 3])).is_err());
        assert_eq!(pool2x2_shape(&[2, 3, 4, 6]).unwrap(), (2, 3, 4, 6));
    }

    #[test]
    fn odd_sizes_are_rejected() {
        let mut a = AvgPool2d::new();
        assert!(a.forward(&Tensor::zeros(&[1, 1, 3, 4])).is_err());
        let mut m = MaxPool2d::new();
        assert!(m.forward(&Tensor::zeros(&[1, 1, 4, 3])).is_err());
        assert!(a.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
        assert!(m.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }
}
