//! Sequential network container.

use crate::error::NnError;
use crate::layers::Layer;
use crate::tensor::{Param, Tensor};

/// A feed-forward stack of [`Layer`]s.
///
/// # Examples
///
/// ```
/// use geo_nn::{Layer, Linear, Relu, Sequential, Tensor};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), geo_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Sequential::new(vec![
///     Layer::Linear(Linear::new(4, 8, &mut rng)),
///     Layer::Relu(Relu::new()),
///     Layer::Linear(Linear::new(8, 2, &mut rng)),
/// ]);
/// let out = model.forward(&Tensor::zeros(&[1, 4]))?;
/// assert_eq!(out.shape(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Wraps an ordered list of layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Sequential { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the SC engine to drive
    /// per-layer forward passes and by optimizers for parameters).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Full float forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Full backward pass from the loss gradient; accumulates parameter
    /// gradients and returns the input gradient.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (notably [`NnError::MissingForward`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All learnable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.grad.zero();
        }
    }

    /// Switches every layer between training and evaluation behavior.
    pub fn set_training(&mut self, training: bool) {
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }

    /// Total learnable parameter count.
    pub fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// One-line-per-layer structural summary.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{i}: {}", l.kind()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(5);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng)),
            Layer::Relu(Relu::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(2 * 4 * 4, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_model();
        let x = Tensor::full(&[2, 1, 4, 4], 0.3);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        let gx = m.backward(&Tensor::full(&[2, 3], 1.0)).unwrap();
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut m = tiny_model();
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        m.forward(&x).unwrap();
        m.backward(&Tensor::full(&[1, 3], 1.0)).unwrap();
        assert!(m.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
        m.zero_grads();
        assert!(m.params_mut().iter().all(|p| p.grad.max_abs() == 0.0));
    }

    #[test]
    fn parameter_count_matches_structure() {
        let mut m = tiny_model();
        // conv: 2·1·3·3 + 2 bias; linear: 3·32 + 3 bias.
        assert_eq!(m.parameter_count(), 18 + 2 + 96 + 3);
    }

    #[test]
    fn summary_lists_layers() {
        let m = tiny_model();
        let s = m.summary();
        assert!(s.contains("0: conv2d"));
        assert!(s.contains("3: linear"));
    }
}
