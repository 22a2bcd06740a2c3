//! Network layers with explicit forward and backward passes.
//!
//! Layers are concrete structs wrapped by the [`Layer`] enum so that the SC
//! inference engine (crate `geo-core`) can pattern-match on layer kinds and
//! substitute stochastic forward implementations while reusing the float
//! backward passes (the paper's SC-forward / float-backward training).

mod batchnorm;
mod conv;
mod linear;
mod pool;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::{avg_pool2x2, max_pool2x2, pool2x2_shape, AvgPool2d, MaxPool2d};

use crate::error::NnError;
use crate::tensor::{Param, Tensor};

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the activation mask for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        input.map(|x| x.max(0.0))
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self.mask.as_ref().ok_or(NnError::MissingForward)?;
        let mut grad = grad_out.clone();
        for (g, &m) in grad.data_mut().iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(grad)
    }
}

/// Flattens `(N, C, H, W)` to `(N, C·H·W)` for the transition to FC layers.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the input shape for backward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for inputs with fewer than 2 dims.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let s = input.shape();
        if s.len() < 2 {
            return Err(NnError::ShapeMismatch {
                expected: "at least 2-d".into(),
                actual: s.to_vec(),
            });
        }
        self.input_shape = Some(s.to_vec());
        let n = s[0];
        let rest: usize = s[1..].iter().product();
        input.clone().reshape(vec![n, rest])
    }

    /// Backward pass: reshapes the gradient back to the input shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForward`] if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self.input_shape.clone().ok_or(NnError::MissingForward)?;
        grad_out.clone().reshape(shape)
    }
}

/// A network layer: the closed set of layer kinds GEO accelerates.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Layer {
    /// 2-d convolution.
    Conv2d(Conv2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// Batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// ReLU activation.
    Relu(Relu),
    /// 2×2 average pooling.
    AvgPool2d(AvgPool2d),
    /// 2×2 max pooling.
    MaxPool2d(MaxPool2d),
    /// Flatten to 2-d.
    Flatten(Flatten),
}

impl Layer {
    /// Forward pass, dispatching to the concrete layer.
    ///
    /// # Errors
    ///
    /// Propagates the concrete layer's shape errors.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Conv2d(l) => l.forward(input),
            Layer::Linear(l) => l.forward(input),
            Layer::BatchNorm2d(l) => l.forward(input),
            Layer::Relu(l) => Ok(l.forward(input)),
            Layer::AvgPool2d(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::Flatten(l) => l.forward(input),
        }
    }

    /// Backward pass, dispatching to the concrete layer.
    ///
    /// # Errors
    ///
    /// Propagates the concrete layer's errors (notably
    /// [`NnError::MissingForward`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::BatchNorm2d(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
            Layer::AvgPool2d(l) => l.backward(grad_out),
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
        }
    }

    /// Learnable parameters of the layer (possibly empty).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Conv2d(l) => l.params_mut(),
            Layer::Linear(l) => l.params_mut(),
            Layer::BatchNorm2d(l) => l.params_mut(),
            _ => Vec::new(),
        }
    }

    /// Propagates the training/eval mode switch to stateful layers.
    pub fn set_training(&mut self, training: bool) {
        if let Layer::BatchNorm2d(l) = self {
            l.set_training(training);
        }
    }

    /// Short human-readable kind name, for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Linear(_) => "linear",
            Layer::BatchNorm2d(_) => "batchnorm2d",
            Layer::Relu(_) => "relu",
            Layer::AvgPool2d(_) => "avgpool2d",
            Layer::MaxPool2d(_) => "maxpool2d",
            Layer::Flatten(_) => "flatten",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu
            .backward(&Tensor::from_vec(vec![4], vec![1.0, 1.0, 1.0, 1.0]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn flatten_round_trips() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = fl.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let g = fl.backward(&Tensor::zeros(&[2, 60])).unwrap();
        assert_eq!(g.shape(), &[2, 3, 4, 5]);
        assert!(fl.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn layer_enum_dispatches_and_reports_kinds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layers = vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, false, &mut rng)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Relu(Relu::new()),
            Layer::AvgPool2d(AvgPool2d::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(8, 4, &mut rng)),
        ];
        let mut x = Tensor::full(&[2, 1, 4, 4], 0.5);
        for l in &mut layers {
            x = l.forward(&x).unwrap();
        }
        assert_eq!(x.shape(), &[2, 4]);
        let mut g = Tensor::full(&[2, 4], 1.0);
        for l in layers.iter_mut().rev() {
            g = l.backward(&g).unwrap();
        }
        assert_eq!(g.shape(), &[2, 1, 4, 4]);
        let kinds: Vec<&str> = layers.iter().map(|l| l.kind()).collect();
        assert_eq!(
            kinds,
            [
                "conv2d",
                "batchnorm2d",
                "relu",
                "avgpool2d",
                "flatten",
                "linear"
            ]
        );
        // Param counts: conv (1) + bn (2) + linear (2).
        let n_params: usize = layers.iter_mut().map(|l| l.params_mut().len()).sum();
        assert_eq!(n_params, 5);
    }

    #[test]
    fn set_training_reaches_batchnorm() {
        let mut l = Layer::BatchNorm2d(BatchNorm2d::new(1));
        l.set_training(false);
        // Eval mode forward works without batch statistics.
        let out = l.forward(&Tensor::full(&[1, 1, 2, 2], 1.0)).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
    }
}
