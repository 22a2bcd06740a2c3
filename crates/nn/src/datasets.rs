//! Deterministic synthetic image-classification datasets.
//!
//! Stand-ins for MNIST / SVHN / CIFAR-10 (see DESIGN.md §3): each class has
//! a fixed smooth template; samples are jittered, brightness-scaled, noisy
//! copies. Difficulty is controlled by the noise level, so the SC-vs-float
//! accuracy *deltas* the paper reports stay visible without shipping
//! datasets. Pixels are in `[0, 1]`, matching unipolar SC activations.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labeled image dataset, `(N, C, H, W)` pixels in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"svhn-like"`).
    pub name: String,
    /// Images, `(N, C, H, W)`.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image shape `(C, H, W)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        let s = self.images.shape();
        (s[1], s[2], s[3])
    }

    /// The `i`-th image as a `(1, C, H, W)` tensor.
    pub fn image(&self, i: usize) -> Tensor {
        let (c, h, w) = self.image_shape();
        let sz = c * h * w;
        let data = self.images.data()[i * sz..(i + 1) * sz].to_vec();
        Tensor::from_vec(vec![1, c, h, w], data).expect("image slice is consistent")
    }

    /// A contiguous batch `[start, start + n)` as `(n, C, H, W)` images and
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dataset.
    pub fn batch(&self, start: usize, n: usize) -> (Tensor, Vec<usize>) {
        assert!(start + n <= self.len(), "batch out of range");
        let (c, h, w) = self.image_shape();
        let sz = c * h * w;
        let data = self.images.data()[start * sz..(start + n) * sz].to_vec();
        (
            Tensor::from_vec(vec![n, c, h, w], data).expect("batch slice is consistent"),
            self.labels[start..start + n].to_vec(),
        )
    }

    /// The first `n` samples as a new dataset (for quick evaluations).
    pub fn take(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        let (images, labels) = self.batch(0, n);
        Dataset {
            name: self.name.clone(),
            images,
            labels,
            classes: self.classes,
        }
    }
}

/// Parameters of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Image channels.
    pub channels: usize,
    /// Image height and width.
    pub size: usize,
    /// Number of classes.
    pub classes: usize,
    /// Training samples.
    pub train: usize,
    /// Test samples.
    pub test: usize,
    /// Additive noise amplitude (difficulty control).
    pub noise: f32,
    /// Generation seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// MNIST-like: single channel, easy (LeNet-5 saturates, as in Table I).
    pub fn mnist_like(seed: u64) -> Self {
        DatasetSpec {
            name: "mnist-like".into(),
            channels: 1,
            size: 8,
            classes: 10,
            train: 256,
            test: 128,
            noise: 0.06,
            seed,
        }
    }

    /// SVHN-like: three channels, moderate difficulty.
    ///
    /// Sized 8×8 so two 2×2 pooling stages divide evenly, matching the
    /// model builders in [`crate::models`].
    pub fn svhn_like(seed: u64) -> Self {
        DatasetSpec {
            name: "svhn-like".into(),
            channels: 3,
            size: 8,
            classes: 10,
            train: 320,
            test: 160,
            noise: 0.16,
            seed,
        }
    }

    /// CIFAR-like: three channels, hard (accuracy well off the ceiling).
    pub fn cifar_like(seed: u64) -> Self {
        DatasetSpec {
            name: "cifar-like".into(),
            channels: 3,
            size: 8,
            classes: 10,
            train: 320,
            test: 160,
            noise: 0.28,
            seed,
        }
    }

    /// Scales train/test sample counts (for quick or thorough runs).
    pub fn with_samples(mut self, train: usize, test: usize) -> Self {
        self.train = train;
        self.test = test;
        self
    }
}

/// Approximate standard normal via Irwin–Hall (sum of 12 uniforms).
fn normal(rng: &mut StdRng) -> f32 {
    (0..12).map(|_| rng.gen::<f32>()).sum::<f32>() - 6.0
}

/// Bilinear upsampling of a `g×g` grid to `size×size`.
fn upsample(grid: &[f32], g: usize, size: usize) -> Vec<f32> {
    let mut out = vec![0.0; size * size];
    for y in 0..size {
        for x in 0..size {
            let fy = y as f32 / size as f32 * (g - 1) as f32;
            let fx = x as f32 / size as f32 * (g - 1) as f32;
            let (y0, x0) = (fy as usize, fx as usize);
            let (y1, x1) = ((y0 + 1).min(g - 1), (x0 + 1).min(g - 1));
            let (dy, dx) = (fy - y0 as f32, fx - x0 as f32);
            out[y * size + x] = grid[y0 * g + x0] * (1.0 - dy) * (1.0 - dx)
                + grid[y0 * g + x1] * (1.0 - dy) * dx
                + grid[y1 * g + x0] * dy * (1.0 - dx)
                + grid[y1 * g + x1] * dy * dx;
        }
    }
    out
}

fn generate_split(
    spec: &DatasetSpec,
    templates: &[Vec<f32>],
    n: usize,
    rng: &mut StdRng,
) -> Dataset {
    let (c, s) = (spec.channels, spec.size);
    let mut data = vec![0.0f32; n * c * s * s];
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % spec.classes;
        labels.push(label);
        let template = &templates[label];
        let dx = rng.gen_range(-1i32..=1);
        let dy = rng.gen_range(-1i32..=1);
        let brightness = rng.gen_range(0.85f32..1.15);
        for ci in 0..c {
            for y in 0..s {
                for x in 0..s {
                    let sy = (y as i32 + dy).clamp(0, s as i32 - 1) as usize;
                    let sx = (x as i32 + dx).clamp(0, s as i32 - 1) as usize;
                    let base = template[(ci * s + sy) * s + sx] * brightness;
                    let v = base + spec.noise * normal(rng);
                    data[((i * c + ci) * s + y) * s + x] = v.clamp(0.0, 1.0);
                }
            }
        }
    }
    Dataset {
        name: spec.name.clone(),
        images: Tensor::from_vec(vec![n, c, s, s], data).expect("generated size is consistent"),
        labels,
        classes: spec.classes,
    }
}

/// Generates the `(train, test)` split for a spec. Same spec (including
/// seed) always yields identical datasets.
///
/// # Examples
///
/// ```
/// use geo_nn::datasets::{generate, DatasetSpec};
///
/// let (train, test) = generate(&DatasetSpec::mnist_like(0));
/// assert_eq!(train.len(), 256);
/// assert_eq!(test.classes, 10);
/// ```
pub fn generate(spec: &DatasetSpec) -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Fixed per-class smooth templates: a coarse random field upsampled.
    let g = 4;
    let templates: Vec<Vec<f32>> = (0..spec.classes)
        .map(|_| {
            let mut t = Vec::with_capacity(spec.channels * spec.size * spec.size);
            for _ in 0..spec.channels {
                let grid: Vec<f32> = (0..g * g).map(|_| rng.gen_range(0.0..1.0)).collect();
                t.extend(upsample(&grid, g, spec.size));
            }
            t
        })
        .collect();
    let train = generate_split(spec, &templates, spec.train, &mut rng);
    let test = generate_split(spec, &templates, spec.test, &mut rng);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::svhn_like(42);
        let (a_train, a_test) = generate(&spec);
        let (b_train, b_test) = generate(&spec);
        assert_eq!(a_train.images.data(), b_train.images.data());
        assert_eq!(a_test.labels, b_test.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = generate(&DatasetSpec::svhn_like(1));
        let (b, _) = generate(&DatasetSpec::svhn_like(2));
        assert_ne!(a.images.data(), b.images.data());
    }

    #[test]
    fn pixels_are_unipolar() {
        let (train, test) = generate(&DatasetSpec::cifar_like(7));
        for &v in train.images.data().iter().chain(test.images.data()) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn labels_are_balanced_and_in_range() {
        let (train, _) = generate(&DatasetSpec::mnist_like(3));
        let mut counts = [0usize; 10];
        for &l in &train.labels {
            assert!(l < 10);
            counts[l] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin labels are balanced");
    }

    #[test]
    fn shapes_match_specs() {
        let (train, test) = generate(&DatasetSpec::mnist_like(0));
        assert_eq!(train.images.shape(), &[256, 1, 8, 8]);
        assert_eq!(test.images.shape(), &[128, 1, 8, 8]);
        assert_eq!(train.image_shape(), (1, 8, 8));
        let (svhn, _) = generate(&DatasetSpec::svhn_like(0));
        assert_eq!(svhn.image_shape(), (3, 8, 8));
    }

    #[test]
    fn batching_and_single_images() {
        let (train, _) = generate(&DatasetSpec::mnist_like(0));
        let (batch, labels) = train.batch(4, 8);
        assert_eq!(batch.shape(), &[8, 1, 8, 8]);
        assert_eq!(labels.len(), 8);
        assert_eq!(labels[0], train.labels[4]);
        let img = train.image(4);
        assert_eq!(img.shape(), &[1, 1, 8, 8]);
        assert_eq!(img.data(), &batch.data()[..64]);
    }

    #[test]
    fn take_truncates() {
        let (train, _) = generate(&DatasetSpec::mnist_like(0));
        let small = train.take(10);
        assert_eq!(small.len(), 10);
        assert!(!small.is_empty());
        let all = train.take(10_000);
        assert_eq!(all.len(), train.len());
    }

    #[test]
    fn with_samples_overrides_counts() {
        let spec = DatasetSpec::cifar_like(0).with_samples(32, 16);
        let (train, test) = generate(&spec);
        assert_eq!(train.len(), 32);
        assert_eq!(test.len(), 16);
    }

    #[test]
    fn classes_are_distinguishable() {
        // Templates of different classes should differ substantially more
        // than noise: mean inter-class template distance > 0.
        let (train, _) = generate(&DatasetSpec::mnist_like(5));
        let a = train.image(0); // class 0
        let b = train.image(1); // class 1
        let dist: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.len() as f32;
        assert!(dist > 0.05, "classes too similar: {dist}");
    }
}
