//! Builders for the paper's evaluation networks (§IV), scaled to the
//! synthetic thumbnail datasets — plus the [`ModelSpec`] topology layer
//! that makes each network a single source of truth.
//!
//! * [`cnn4`] — the 4-layer CMSIS-NN-style CNN used for CIFAR-10 and SVHN
//!   (3 conv + 1 FC), with average pooling after the first two convolutions.
//! * [`lenet5`] — LeNet-5 for MNIST (2 conv + 2 FC here).
//! * [`vgg16_small`] — VGG-16 with downscaled spatial dimensions and
//!   reduced FC width, as the paper itself does ("X/Y input dimensions of
//!   each layer downscaled, FC-512 instead of FC-4096"); here channel widths
//!   are reduced further to keep SC simulation tractable.
//!
//! Every builder goes through a [`ModelSpec`]: a declarative layer list
//! from which both the live [`Sequential`] (weights, backprop) and the
//! architecture-level network descriptor (`geo_arch::NetworkDesc`) are
//! derived. The [`spec`] module also carries the paper-scale topologies
//! (full CIFAR-10 CNN-4, MNIST LeNet-5, downscaled VGG-16) so the
//! performance simulator and the functional engine consume *one*
//! description of each network instead of two hand-maintained copies.
//!
//! All convolutions are bias-free: the batch-norm shift absorbs the bias,
//! which matches GEO's near-memory BN hardware.

use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Layer, Linear, Relu};
use crate::model::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One entry of a [`ModelSpec`]: input channel/feature counts are derived
/// from the running shape while building, so they cannot drift out of sync
/// with the layers upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecLayer {
    /// A square convolution followed by batch norm and ReLU (the repo's
    /// standard conv block; convolutions are bias-free, BN absorbs it).
    ConvBnRelu {
        /// Output channels.
        cout: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// 2×2 average pooling (halves both spatial dimensions).
    AvgPool,
    /// Flatten `(C, H, W)` into features.
    Flatten,
    /// A fully-connected layer; `relu` appends a ReLU after it.
    Linear {
        /// Output features.
        outf: usize,
        /// Whether a ReLU follows (hidden classifier stages).
        relu: bool,
    },
}

/// A declarative network topology: the single source of truth from which
/// the live model ([`ModelSpec::build`]) and the architecture descriptor
/// (`geo_arch::NetworkDesc::from_spec`) are both derived.
///
/// # Examples
///
/// ```
/// let spec = geo_nn::models::spec::cnn4(3, 8, 10);
/// let model = spec.build(0).unwrap();
/// assert_eq!(model.layers().len(), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Network name, e.g. `"CNN-4 (CIFAR-10)"`.
    pub name: String,
    /// Input shape `(C, H, W)`.
    pub input: (usize, usize, usize),
    /// Layers in execution order.
    pub layers: Vec<SpecLayer>,
}

impl ModelSpec {
    /// Traces the shape through the spec, returning the flattened feature
    /// count at the end (`C·H·W` if never flattened).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first layer whose shape underflows
    /// (kernel larger than its padded input, or pooling a 1-pixel map).
    pub fn trace_features(&self) -> Result<usize, String> {
        let (mut c, mut h, mut w) = self.input;
        let mut features = None;
        for (i, layer) in self.layers.iter().enumerate() {
            match *layer {
                SpecLayer::ConvBnRelu {
                    cout,
                    kernel,
                    stride,
                    pad,
                } => {
                    if h + 2 * pad < kernel || w + 2 * pad < kernel || stride == 0 {
                        return Err(format!(
                            "layer {i}: {kernel}×{kernel} conv (stride {stride}, pad {pad}) \
                             does not fit a {h}×{w} input"
                        ));
                    }
                    h = (h + 2 * pad - kernel) / stride + 1;
                    w = (w + 2 * pad - kernel) / stride + 1;
                    c = cout;
                }
                SpecLayer::AvgPool => {
                    if h < 2 || w < 2 {
                        return Err(format!("layer {i}: cannot 2×2-pool a {h}×{w} map"));
                    }
                    h /= 2;
                    w /= 2;
                }
                SpecLayer::Flatten => features = Some(c * h * w),
                SpecLayer::Linear { outf, .. } => features = Some(outf),
            }
        }
        Ok(features.unwrap_or(c * h * w))
    }

    /// Builds the live model: conv blocks draw weights from a seeded RNG in
    /// spec order, so two builds with the same seed are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec's shapes do not compose (see
    /// [`ModelSpec::trace_features`]).
    pub fn build(&self, seed: u64) -> Result<Sequential, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut c, mut h, mut w) = self.input;
        let mut flattened: Option<usize> = None;
        let mut layers = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            match *layer {
                SpecLayer::ConvBnRelu {
                    cout,
                    kernel,
                    stride,
                    pad,
                } => {
                    if h + 2 * pad < kernel || w + 2 * pad < kernel || stride == 0 {
                        return Err(format!(
                            "layer {i}: {kernel}×{kernel} conv (stride {stride}, pad {pad}) \
                             does not fit a {h}×{w} input"
                        ));
                    }
                    layers.push(Layer::Conv2d(Conv2d::new(
                        c, cout, kernel, stride, pad, false, &mut rng,
                    )));
                    layers.push(Layer::BatchNorm2d(BatchNorm2d::new(cout)));
                    layers.push(Layer::Relu(Relu::new()));
                    h = (h + 2 * pad - kernel) / stride + 1;
                    w = (w + 2 * pad - kernel) / stride + 1;
                    c = cout;
                }
                SpecLayer::AvgPool => {
                    if h < 2 || w < 2 {
                        return Err(format!("layer {i}: cannot 2×2-pool a {h}×{w} map"));
                    }
                    layers.push(Layer::AvgPool2d(AvgPool2d::new()));
                    h /= 2;
                    w /= 2;
                }
                SpecLayer::Flatten => {
                    layers.push(Layer::Flatten(Flatten::new()));
                    flattened = Some(c * h * w);
                }
                SpecLayer::Linear { outf, relu } => {
                    let inf = flattened.take().unwrap_or(c * h * w);
                    layers.push(Layer::Linear(Linear::new(inf, outf, &mut rng)));
                    if relu {
                        layers.push(Layer::Relu(Relu::new()));
                    }
                    // Chained classifier stages feed each other.
                    flattened = Some(outf);
                }
            }
        }
        Ok(Sequential::new(layers))
    }
}

/// Topology specs: the thumbnail builders used with the synthetic datasets
/// and the paper-scale evaluation networks (§IV), side by side.
///
/// The paper-scale specs are what `geo_arch::NetworkDesc::{cnn4_cifar,
/// lenet5_mnist, vgg16_scaled_cifar}` lower — the performance tables and
/// the functional engine share these definitions.
pub mod spec {
    use super::{ModelSpec, SpecLayer};

    /// Thumbnail CNN-4 (three conv blocks, widths 16/24/32, one FC).
    ///
    /// # Panics
    ///
    /// Panics unless `size` is nonzero and divisible by 4 (two pooling
    /// stages), *before* any shape composition — a spec returned from
    /// here always builds.
    pub fn cnn4(channels: usize, size: usize, classes: usize) -> ModelSpec {
        assert!(
            size != 0 && size.is_multiple_of(4),
            "cnn4 needs a nonzero size divisible by 4, got {size}"
        );
        ModelSpec {
            name: "CNN-4 (thumbnail)".into(),
            input: (channels, size, size),
            layers: vec![
                SpecLayer::ConvBnRelu {
                    cout: 16,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 24,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 32,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                SpecLayer::Flatten,
                SpecLayer::Linear {
                    outf: classes,
                    relu: false,
                },
            ],
        }
    }

    /// Thumbnail LeNet-5 (two conv blocks, widths 6/12, two FCs).
    ///
    /// # Panics
    ///
    /// Panics unless `size` is nonzero and divisible by 4, before any
    /// shape composition.
    pub fn lenet5(channels: usize, size: usize, classes: usize) -> ModelSpec {
        assert!(
            size != 0 && size.is_multiple_of(4),
            "lenet5 needs a nonzero size divisible by 4, got {size}"
        );
        ModelSpec {
            name: "LeNet-5 (thumbnail)".into(),
            input: (channels, size, size),
            layers: vec![
                SpecLayer::ConvBnRelu {
                    cout: 6,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 12,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                SpecLayer::AvgPool,
                SpecLayer::Flatten,
                SpecLayer::Linear {
                    outf: 32,
                    relu: true,
                },
                SpecLayer::Linear {
                    outf: classes,
                    relu: false,
                },
            ],
        }
    }

    /// Thumbnail VGG-16 (thirteen 3×3 convolutions in five blocks, reduced
    /// widths, two-layer classifier).
    ///
    /// # Panics
    ///
    /// Panics unless `size` is nonzero and divisible by 8 (three pooling
    /// stages). The check lives here, *before* shape composition: a
    /// `size` of 0 is divisible by 8 but underflows the first conv, and
    /// used to surface as the builder's unrelated "spec shapes compose"
    /// panic instead of this documented message.
    pub fn vgg16_small(channels: usize, size: usize, classes: usize) -> ModelSpec {
        assert!(
            size != 0 && size.is_multiple_of(8),
            "vgg16_small needs a nonzero size divisible by 8, got {size}"
        );
        let widths: [&[usize]; 5] = [
            &[8, 8],
            &[16, 16],
            &[24, 24, 24],
            &[32, 32, 32],
            &[32, 32, 32],
        ];
        let mut layers = Vec::new();
        for (block, ws) in widths.iter().enumerate() {
            for &w in ws.iter() {
                layers.push(SpecLayer::ConvBnRelu {
                    cout: w,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                });
            }
            // Pool after the first three blocks: size/8 spatial at the end.
            if block < 3 {
                layers.push(SpecLayer::AvgPool);
            }
        }
        layers.push(SpecLayer::Flatten);
        layers.push(SpecLayer::Linear {
            outf: 64,
            relu: true,
        });
        layers.push(SpecLayer::Linear {
            outf: classes,
            relu: false,
        });
        ModelSpec {
            name: "VGG-16 (thumbnail)".into(),
            input: (channels, size, size),
            layers,
        }
    }

    /// Paper-scale CNN-4 on CIFAR-10 (CMSIS-NN): three 5×5 convolutions
    /// with pooling, then the classifier FC.
    pub fn cnn4_cifar() -> ModelSpec {
        ModelSpec {
            name: "CNN-4 (CIFAR-10)".into(),
            input: (3, 32, 32),
            layers: vec![
                SpecLayer::ConvBnRelu {
                    cout: 32,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 32,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 64,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                SpecLayer::AvgPool,
                SpecLayer::Flatten,
                SpecLayer::Linear {
                    outf: 10,
                    relu: false,
                },
            ],
        }
    }

    /// Paper-scale LeNet-5 on MNIST (2 conv + 3 FC).
    pub fn lenet5_mnist() -> ModelSpec {
        ModelSpec {
            name: "LeNet-5 (MNIST)".into(),
            input: (1, 28, 28),
            layers: vec![
                SpecLayer::ConvBnRelu {
                    cout: 6,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                SpecLayer::AvgPool,
                SpecLayer::ConvBnRelu {
                    cout: 16,
                    kernel: 5,
                    stride: 1,
                    pad: 0,
                },
                SpecLayer::AvgPool,
                SpecLayer::Flatten,
                SpecLayer::Linear {
                    outf: 120,
                    relu: true,
                },
                SpecLayer::Linear {
                    outf: 84,
                    relu: true,
                },
                SpecLayer::Linear {
                    outf: 10,
                    relu: false,
                },
            ],
        }
    }

    /// Paper-scale VGG-16 with the paper's downscaling: X/Y input
    /// dimensions halved (16×16 input) and the FC layers reduced to 512.
    pub fn vgg16_scaled_cifar() -> ModelSpec {
        let widths: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
        let mut layers = Vec::new();
        for (block, &(w, reps)) in widths.iter().enumerate() {
            for _ in 0..reps {
                layers.push(SpecLayer::ConvBnRelu {
                    cout: w,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                });
            }
            if block < 4 {
                layers.push(SpecLayer::AvgPool);
            }
        }
        layers.push(SpecLayer::Flatten);
        layers.push(SpecLayer::Linear {
            outf: 512,
            relu: true,
        });
        layers.push(SpecLayer::Linear {
            outf: 512,
            relu: true,
        });
        layers.push(SpecLayer::Linear {
            outf: 10,
            relu: false,
        });
        ModelSpec {
            name: "VGG-16 (scaled, CIFAR-10)".into(),
            input: (3, 16, 16),
            layers,
        }
    }
}

/// The 4-layer CNN (CNN-4): three conv blocks and one classifier FC.
/// Average pooling follows the first two blocks, so those layers run the
/// shorter `sp` stream length under GEO's computation skipping.
///
/// # Panics
///
/// Panics unless `size` is divisible by 4 (two pooling stages).
///
/// # Examples
///
/// ```
/// let model = geo_nn::models::cnn4(3, 8, 10, 0);
/// assert_eq!(model.layers().len(), 13); // 3×(conv+bn+relu) + 2 pools + flatten + fc
/// ```
pub fn cnn4(channels: usize, size: usize, classes: usize, seed: u64) -> Sequential {
    spec::cnn4(channels, size, classes)
        .build(seed)
        .expect("thumbnail cnn4 spec shapes compose")
}

/// LeNet-5, scaled for thumbnail inputs: two conv+pool blocks and a
/// two-layer classifier.
///
/// # Panics
///
/// Panics unless `size` is divisible by 4.
pub fn lenet5(channels: usize, size: usize, classes: usize, seed: u64) -> Sequential {
    spec::lenet5(channels, size, classes)
        .build(seed)
        .expect("thumbnail lenet5 spec shapes compose")
}

/// VGG-16 with downscaled spatial dimensions and channel widths: thirteen
/// 3×3 convolutions in five blocks (2-2-3-3-3) with pooling after the first
/// three blocks, then a reduced two-layer classifier.
///
/// # Panics
///
/// Panics unless `size` is nonzero and divisible by 8 (three pooling
/// stages) — validated by [`spec::vgg16_small`] before shape composition,
/// so the builder's `.expect` on [`ModelSpec::build`] is unreachable for
/// any spec this function constructs.
pub fn vgg16_small(channels: usize, size: usize, classes: usize, seed: u64) -> Sequential {
    spec::vgg16_small(channels, size, classes)
        .build(seed)
        .expect("thumbnail vgg16 spec shapes compose")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn cnn4_runs_end_to_end() {
        let mut m = cnn4(3, 8, 10, 0);
        let y = m.forward(&Tensor::full(&[2, 3, 8, 8], 0.5)).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // 3 convs + 1 FC = the "4-layer" CNN.
        let convs = m.layers().iter().filter(|l| l.kind() == "conv2d").count();
        let fcs = m.layers().iter().filter(|l| l.kind() == "linear").count();
        assert_eq!((convs, fcs), (3, 1));
    }

    #[test]
    fn lenet5_runs_end_to_end() {
        let mut m = lenet5(1, 8, 10, 0);
        let y = m.forward(&Tensor::full(&[1, 1, 8, 8], 0.5)).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn vgg16_small_has_thirteen_convs() {
        let mut m = vgg16_small(3, 8, 10, 0);
        let convs = m.layers().iter().filter(|l| l.kind() == "conv2d").count();
        assert_eq!(convs, 13);
        let y = m.forward(&Tensor::full(&[1, 3, 8, 8], 0.5)).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn builders_are_seeded() {
        let mut a = cnn4(3, 8, 10, 42);
        let mut b = cnn4(3, 8, 10, 42);
        assert_eq!(a.parameter_count(), b.parameter_count());
        let pa = a.params_mut();
        let pb = b.params_mut();
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!(x.value.data(), y.value.data());
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn cnn4_rejects_bad_sizes() {
        let _ = cnn4(3, 10, 10, 0);
    }

    #[test]
    #[should_panic(expected = "divisible by 8")]
    fn vgg_rejects_bad_sizes() {
        let _ = vgg16_small(3, 12, 10, 0);
    }

    /// Size 0 *is* divisible by 8; without the nonzero check it slipped
    /// past the old assert and underflowed the first conv, panicking with
    /// the builder's unrelated "spec shapes compose" message. The spec
    /// must reject it with the documented message before composition.
    #[test]
    #[should_panic(expected = "nonzero size divisible by 8")]
    fn vgg_rejects_size_zero_before_shape_composition() {
        let _ = spec::vgg16_small(3, 0, 10);
    }

    /// The paper-scale VGG-16 spec builds: every downstream consumer
    /// (prepare, compile, serve) starts from this call succeeding.
    #[test]
    fn vgg16_scaled_cifar_builds() {
        for seed in [0u64, 1, 42] {
            let model = spec::vgg16_scaled_cifar()
                .build(seed)
                .expect("paper-scale vgg16 spec shapes compose");
            let convs = model
                .layers()
                .iter()
                .filter(|l| l.kind() == "conv2d")
                .count();
            let pools = model
                .layers()
                .iter()
                .filter(|l| l.kind() == "avgpool2d")
                .count();
            assert_eq!((convs, pools), (13, 4));
        }
    }

    #[test]
    fn convolutions_have_no_bias() {
        let m = cnn4(3, 8, 10, 0);
        for l in m.layers() {
            if let Layer::Conv2d(c) = l {
                assert!(c.bias.is_none(), "BN absorbs the conv bias");
            }
        }
    }

    #[test]
    fn spec_build_rejects_underflowing_shapes() {
        let bad = ModelSpec {
            name: "bad".into(),
            input: (1, 2, 2),
            layers: vec![
                SpecLayer::AvgPool,
                SpecLayer::AvgPool, // 1×1 map cannot pool again
            ],
        };
        assert!(bad.build(0).is_err());
        assert!(bad.trace_features().is_err());
        let bad_conv = ModelSpec {
            name: "bad-conv".into(),
            input: (1, 3, 3),
            layers: vec![SpecLayer::ConvBnRelu {
                cout: 4,
                kernel: 5,
                stride: 1,
                pad: 0,
            }],
        };
        assert!(bad_conv.build(0).is_err());
    }

    #[test]
    fn paper_specs_build_consistent_classifier_widths() {
        // The paper LeNet-5 flattens 16×5×5 = 400 features into FC-120.
        let spec = spec::lenet5_mnist();
        let model = spec.build(0).unwrap();
        let first_fc = model
            .layers()
            .iter()
            .find_map(|l| match l {
                Layer::Linear(lin) => Some((lin.input_features(), lin.output_features())),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_fc, (400, 120));
    }

    #[test]
    fn spec_traces_match_builders() {
        for (spec, expect) in [
            (spec::cnn4(3, 8, 10), 10),
            (spec::lenet5(1, 8, 10), 10),
            (spec::vgg16_small(3, 8, 10), 10),
            (spec::cnn4_cifar(), 10),
            (spec::lenet5_mnist(), 10),
            (spec::vgg16_scaled_cifar(), 10),
        ] {
            assert_eq!(spec.trace_features().unwrap(), expect, "{}", spec.name);
        }
    }
}
