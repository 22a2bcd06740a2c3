//! A small dense `f32` tensor, sufficient to train the paper's CNNs.
//!
//! Row-major storage with explicit shape; convolution layers use the
//! `(N, C, H, W)` convention throughout.

use crate::error::NnError;
use rand::Rng;
use std::fmt;

/// A dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use geo_nn::Tensor;
///
/// # fn main() -> Result<(), geo_nn::NnError> {
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(t.at2(1, 2), 6.0);
/// assert_eq!(t.shape(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Wraps `data` with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if `data.len()` is not the
    /// product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, NnError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Kaiming-uniform initialization for a weight tensor with the given
    /// fan-in, the standard initialization for ReLU networks.
    pub fn kaiming<R: Rng>(shape: &[usize], fan_in: usize, rng: &mut R) -> Self {
        let bound = (6.0 / fan_in.max(1) as f32).sqrt();
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the elements.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the elements.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its elements.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self, NnError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    #[inline]
    fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Element at `(n, c, h, w)` of a 4-d tensor.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Sets the element at `(n, c, h, w)` of a 4-d tensor.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx4(n, c, h, w);
        self.data[i] = v;
    }

    /// Adds `v` to the element at `(n, c, h, w)` of a 4-d tensor.
    #[inline]
    pub fn add4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx4(n, c, h, w);
        self.data[i] += v;
    }

    /// Element at `(r, c)` of a 2-d tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Sets the element at `(r, c)` of a 2-d tensor.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c] = v;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "tensor shapes must match");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets all elements to zero (for gradient buffers).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Maximum absolute element, 0 for empty tensors.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(f, " {preview:?}")?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

/// A learnable parameter: value and accumulated gradient, kept in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient buffer.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_full_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let t = Tensor::full(&[2], 7.0);
        assert_eq!(t.data(), &[7.0, 7.0]);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
        assert_eq!(
            Tensor::from_vec(vec![2, 2], vec![0.0; 3]).unwrap_err(),
            NnError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn indexing_4d_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        t.set4(1, 2, 3, 4, 9.0);
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        t.add4(1, 2, 3, 4, 1.0);
        assert_eq!(t.at4(1, 2, 3, 4), 10.0);
        // Row-major: last index is contiguous.
        t.set4(0, 0, 0, 1, 5.0);
        assert_eq!(t.data()[1], 5.0);
    }

    #[test]
    fn indexing_2d_round_trips() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set2(2, 3, 1.5);
        assert_eq!(t.at2(2, 3), 1.5);
        assert_eq!(t.data()[11], 1.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.clone().reshape(vec![3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn map_add_scale_zero() {
        let mut t = Tensor::from_vec(vec![3], vec![1.0, -2.0, 3.0]).unwrap();
        let m = t.map(|x| x * 2.0);
        assert_eq!(m.data(), &[2.0, -4.0, 6.0]);
        t.add_assign(&m);
        assert_eq!(t.data(), &[3.0, -6.0, 9.0]);
        t.scale(0.5);
        assert_eq!(t.data(), &[1.5, -3.0, 4.5]);
        assert_eq!(t.max_abs(), 4.5);
        t.zero();
        assert_eq!(t.max_abs(), 0.0);
    }

    #[test]
    fn kaiming_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::kaiming(&[8, 8], 64, &mut rng);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(1);
        let t2 = Tensor::kaiming(&[8, 8], 64, &mut rng2);
        assert_eq!(t, t2);
    }

    #[test]
    fn param_pairs_value_and_grad() {
        let p = Param::new(Tensor::full(&[2, 2], 1.0));
        assert_eq!(p.grad.shape(), p.value.shape());
        assert_eq!(p.grad.max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shapes must match")]
    fn add_assign_checks_shapes() {
        let mut a = Tensor::zeros(&[2]);
        a.add_assign(&Tensor::zeros(&[3]));
    }
}
