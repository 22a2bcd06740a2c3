//! Network descriptors: the layer shapes the compiler and performance
//! simulator consume.
//!
//! Descriptors are *derived*, never hand-maintained: either traced from a
//! live `geo-nn` model ([`NetworkDesc::from_model`]) or lowered from a
//! declarative [`ModelSpec`] ([`NetworkDesc::from_spec`]). The paper-scale
//! evaluation networks (CIFAR-10 CNN-4, MNIST LeNet-5, downscaled VGG-16)
//! are lowered from the single topology source of truth in
//! `geo_nn::models::spec`, so the performance tables and the functional
//! engine can never disagree about a network's shape.

use geo_nn::{Layer, ModelSpec, Sequential, SpecLayer};

/// Shape of one compute layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerShape {
    /// A 2-d convolution.
    Conv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Input spatial height.
        in_h: usize,
        /// Input spatial width.
        in_w: usize,
        /// Followed by 2×2 average pooling (computation skipping applies).
        pooled: bool,
    },
    /// A fully-connected layer.
    Fc {
        /// Input features.
        inf: usize,
        /// Output features.
        outf: usize,
    },
}

impl LayerShape {
    /// Output spatial size of a conv layer; `(1, 1)` for FC.
    pub fn output_hw(&self) -> (usize, usize) {
        match *self {
            LayerShape::Conv {
                kernel,
                stride,
                pad,
                in_h,
                in_w,
                ..
            } => (
                (in_h + 2 * pad - kernel) / stride + 1,
                (in_w + 2 * pad - kernel) / stride + 1,
            ),
            LayerShape::Fc { .. } => (1, 1),
        }
    }

    /// Kernel volume (`Cin·K·K` for conv, `inf` for FC).
    pub fn kernel_volume(&self) -> usize {
        match *self {
            LayerShape::Conv { cin, kernel, .. } => cin * kernel * kernel,
            LayerShape::Fc { inf, .. } => inf,
        }
    }

    /// Output channels / features.
    pub fn output_channels(&self) -> usize {
        match *self {
            LayerShape::Conv { cout, .. } => cout,
            LayerShape::Fc { outf, .. } => outf,
        }
    }

    /// Total multiply-accumulates of the layer.
    pub fn macs(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (self.output_channels() * oh * ow) as u64 * self.kernel_volume() as u64
    }

    /// Weight count.
    pub fn weights(&self) -> u64 {
        (self.output_channels() * self.kernel_volume()) as u64
    }

    /// Input activation count.
    pub fn input_activations(&self) -> u64 {
        match *self {
            LayerShape::Conv {
                cin, in_h, in_w, ..
            } => (cin * in_h * in_w) as u64,
            LayerShape::Fc { inf, .. } => inf as u64,
        }
    }

    /// Output element count (before pooling).
    pub fn outputs(&self) -> u64 {
        let (oh, ow) = self.output_hw();
        (self.output_channels() * oh * ow) as u64
    }

    /// Whether computation skipping (pooled stream length) applies.
    pub fn pooled(&self) -> bool {
        matches!(self, LayerShape::Conv { pooled: true, .. })
    }
}

/// An ordered stack of compute layers with a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDesc {
    /// Network name, e.g. `"CNN-4 (CIFAR-10)"`.
    pub name: String,
    /// Compute layers in execution order.
    pub layers: Vec<LayerShape>,
}

/// Folds one value into a running FNV-1a hash, byte by byte.
fn fnv64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl NetworkDesc {
    /// Stable 64-bit fingerprint of the layer stack — every structural
    /// field of every layer, in order, folded through FNV-1a. Serialized
    /// program artifacts carry this value so the load boundary can bind a
    /// program to the network it was compiled for; the name is excluded,
    /// so renaming a network does not invalidate its cached programs.
    ///
    /// The value is part of the durable artifact format: changing how it
    /// is computed is a format break and must bump
    /// [`crate::artifact::FORMAT_VERSION`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv64(0xCBF2_9CE4_8422_2325, self.layers.len() as u64);
        for layer in &self.layers {
            match *layer {
                LayerShape::Conv {
                    cin,
                    cout,
                    kernel,
                    stride,
                    pad,
                    in_h,
                    in_w,
                    pooled,
                } => {
                    for v in [
                        0,
                        cin,
                        cout,
                        kernel,
                        stride,
                        pad,
                        in_h,
                        in_w,
                        pooled as usize,
                    ] {
                        h = fnv64(h, v as u64);
                    }
                }
                LayerShape::Fc { inf, outf } => {
                    for v in [1, inf, outf] {
                        h = fnv64(h, v as u64);
                    }
                }
            }
        }
        h
    }

    /// Total MACs of one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerShape::macs).sum()
    }

    /// Total weights.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(LayerShape::weights).sum()
    }

    /// Traces the compute-layer shapes of a live `geo-nn` model given its
    /// input `(C, H, W)`.
    pub fn from_model(name: &str, model: &Sequential, input: (usize, usize, usize)) -> Self {
        let (mut c, mut h, mut w) = input;
        let mut layers = Vec::new();
        let model_layers = model.layers();
        for (i, layer) in model_layers.iter().enumerate() {
            match layer {
                Layer::Conv2d(conv) => {
                    // Pooled if any pooling occurs before the next conv/fc.
                    let pooled = model_layers[i + 1..]
                        .iter()
                        .take_while(|l| !matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
                        .any(|l| matches!(l, Layer::AvgPool2d(_) | Layer::MaxPool2d(_)));
                    let shape = LayerShape::Conv {
                        cin: c,
                        cout: conv.cout(),
                        kernel: conv.kernel(),
                        stride: conv.stride(),
                        pad: conv.padding(),
                        in_h: h,
                        in_w: w,
                        pooled,
                    };
                    let (oh, ow) = shape.output_hw();
                    layers.push(shape);
                    c = conv.cout();
                    h = oh;
                    w = ow;
                }
                Layer::Linear(lin) => {
                    layers.push(LayerShape::Fc {
                        inf: lin.input_features(),
                        outf: lin.output_features(),
                    });
                }
                Layer::AvgPool2d(_) | Layer::MaxPool2d(_) => {
                    h /= 2;
                    w /= 2;
                }
                _ => {}
            }
        }
        NetworkDesc {
            name: name.to_string(),
            layers,
        }
    }

    /// Lowers a declarative [`ModelSpec`] into compute-layer shapes.
    ///
    /// This is the canonical `Model → NetworkDesc` path: a conv block
    /// becomes a [`LayerShape::Conv`] (marked `pooled` when a pooling
    /// stage follows before the next compute layer), a linear becomes a
    /// [`LayerShape::Fc`] whose input features come from the traced shape,
    /// and pure data-movement layers (pool, flatten, BN, ReLU) only advance
    /// the running shape.
    ///
    /// # Panics
    ///
    /// Panics if the spec's shapes do not compose (a kernel larger than
    /// its padded input, or pooling a 1-pixel map) — the same condition
    /// `ModelSpec::build` reports as an error.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        let (mut c, mut h, mut w) = spec.input;
        let mut flattened: Option<usize> = None;
        let mut layers = Vec::new();
        for (i, layer) in spec.layers.iter().enumerate() {
            match *layer {
                SpecLayer::ConvBnRelu {
                    cout,
                    kernel,
                    stride,
                    pad,
                } => {
                    assert!(
                        h + 2 * pad >= kernel && w + 2 * pad >= kernel && stride > 0,
                        "spec layer {i}: {kernel}×{kernel} conv does not fit a {h}×{w} input"
                    );
                    let pooled = spec.layers[i + 1..]
                        .iter()
                        .take_while(|l| {
                            !matches!(l, SpecLayer::ConvBnRelu { .. } | SpecLayer::Linear { .. })
                        })
                        .any(|l| matches!(l, SpecLayer::AvgPool));
                    let shape = LayerShape::Conv {
                        cin: c,
                        cout,
                        kernel,
                        stride,
                        pad,
                        in_h: h,
                        in_w: w,
                        pooled,
                    };
                    let (oh, ow) = shape.output_hw();
                    layers.push(shape);
                    c = cout;
                    h = oh;
                    w = ow;
                }
                SpecLayer::AvgPool => {
                    assert!(
                        h >= 2 && w >= 2,
                        "spec layer {i}: cannot pool a {h}×{w} map"
                    );
                    h /= 2;
                    w /= 2;
                }
                SpecLayer::Flatten => flattened = Some(c * h * w),
                SpecLayer::Linear { outf, .. } => {
                    let inf = flattened.take().unwrap_or(c * h * w);
                    layers.push(LayerShape::Fc { inf, outf });
                    flattened = Some(outf);
                }
            }
        }
        NetworkDesc {
            name: spec.name.clone(),
            layers,
        }
    }

    /// The paper-scale CNN-4 on CIFAR-10 (CMSIS-NN): three 5×5
    /// convolutions with pooling, then the classifier FC. Lowered from
    /// `geo_nn::models::spec::cnn4_cifar`.
    pub fn cnn4_cifar() -> Self {
        Self::from_spec(&geo_nn::models::spec::cnn4_cifar())
    }

    /// The paper-scale LeNet-5 on MNIST. Lowered from
    /// `geo_nn::models::spec::lenet5_mnist`.
    pub fn lenet5_mnist() -> Self {
        Self::from_spec(&geo_nn::models::spec::lenet5_mnist())
    }

    /// VGG-16 with the paper's downscaling: X/Y input dimensions halved
    /// (16×16 input) and the FC layers reduced to 512. Lowered from
    /// `geo_nn::models::spec::vgg16_scaled_cifar`.
    pub fn vgg16_scaled_cifar() -> Self {
        Self::from_spec(&geo_nn::models::spec::vgg16_scaled_cifar())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_nn::models;

    #[test]
    fn conv_shape_math() {
        let conv = LayerShape::Conv {
            cin: 3,
            cout: 32,
            kernel: 5,
            stride: 1,
            pad: 2,
            in_h: 32,
            in_w: 32,
            pooled: true,
        };
        assert_eq!(conv.output_hw(), (32, 32));
        assert_eq!(conv.kernel_volume(), 75);
        assert_eq!(conv.macs(), 32 * 32 * 32 * 75);
        assert_eq!(conv.weights(), 32 * 75);
        assert_eq!(conv.input_activations(), 3 * 32 * 32);
        assert!(conv.pooled());
    }

    #[test]
    fn fc_shape_math() {
        let fc = LayerShape::Fc {
            inf: 1024,
            outf: 10,
        };
        assert_eq!(fc.output_hw(), (1, 1));
        assert_eq!(fc.macs(), 10240);
        assert_eq!(fc.weights(), 10240);
        assert!(!fc.pooled());
    }

    #[test]
    fn cnn4_cifar_matches_cmsis_structure() {
        let net = NetworkDesc::cnn4_cifar();
        assert_eq!(net.layers.len(), 4);
        // First layer dominates? No: layer 2 has the most MACs.
        assert!(net.total_macs() > 10_000_000);
        assert!(net.total_weights() > 70_000);
    }

    #[test]
    fn lenet5_mnist_macs_are_sane() {
        let net = NetworkDesc::lenet5_mnist();
        assert_eq!(net.layers.len(), 5);
        // Classic LeNet-5: ~0.4M MACs.
        let m = net.total_macs();
        assert!(m > 200_000 && m < 2_000_000, "macs {m}");
    }

    #[test]
    fn vgg16_scaled_has_13_convs_and_3_fcs() {
        let net = NetworkDesc::vgg16_scaled_cifar();
        let convs = net
            .layers
            .iter()
            .filter(|l| matches!(l, LayerShape::Conv { .. }))
            .count();
        let fcs = net
            .layers
            .iter()
            .filter(|l| matches!(l, LayerShape::Fc { .. }))
            .count();
        assert_eq!((convs, fcs), (13, 3));
        // Downscaled VGG is still tens of MMACs per frame.
        assert!(net.total_macs() > 50_000_000, "macs {}", net.total_macs());
    }

    /// The derived descriptors must reproduce the totals of the
    /// previously hand-written constructors exactly — this is the
    /// regression gate for the spec-lowering refactor.
    #[test]
    fn derived_descs_match_hand_written_totals() {
        let cases: [(NetworkDesc, u64, u64); 3] = [
            (NetworkDesc::cnn4_cifar(), 12_298_240, 89_440),
            (NetworkDesc::lenet5_mnist(), 416_520, 61_470),
            (NetworkDesc::vgg16_scaled_cifar(), 78_828_544, 15_239_872),
        ];
        for (net, macs, weights) in cases {
            assert_eq!(net.total_macs(), macs, "{} MACs", net.name);
            assert_eq!(net.total_weights(), weights, "{} weights", net.name);
        }
    }

    /// Lowering a spec and tracing the model built from the same spec
    /// must agree layer-for-layer (shape-level MAC/weight/activation
    /// consistency between the functional and performance paths).
    #[test]
    fn spec_lowering_agrees_with_model_trace() {
        for spec in [
            geo_nn::models::spec::cnn4(3, 8, 10),
            geo_nn::models::spec::lenet5(1, 8, 10),
            geo_nn::models::spec::vgg16_small(3, 8, 10),
        ] {
            let derived = NetworkDesc::from_spec(&spec);
            let model = spec.build(0).expect("spec builds");
            let traced = NetworkDesc::from_model(&spec.name, &model, spec.input);
            assert_eq!(derived.layers, traced.layers, "{}", spec.name);
            assert_eq!(derived.total_macs(), traced.total_macs());
            assert_eq!(derived.total_weights(), traced.total_weights());
        }
    }

    #[test]
    fn derived_cnn4_keeps_pooled_flags_and_fc_width() {
        let net = NetworkDesc::cnn4_cifar();
        assert!(net.layers[..3].iter().all(LayerShape::pooled));
        assert_eq!(
            net.layers[3],
            LayerShape::Fc {
                inf: 64 * 4 * 4,
                outf: 10
            }
        );
    }

    #[test]
    fn fingerprints_distinguish_networks_and_track_structure() {
        let lenet = NetworkDesc::lenet5_mnist();
        let cnn4 = NetworkDesc::cnn4_cifar();
        let vgg = NetworkDesc::vgg16_scaled_cifar();
        assert_eq!(
            lenet.fingerprint(),
            NetworkDesc::lenet5_mnist().fingerprint()
        );
        assert_ne!(lenet.fingerprint(), cnn4.fingerprint());
        assert_ne!(cnn4.fingerprint(), vgg.fingerprint());
        assert_ne!(lenet.fingerprint(), vgg.fingerprint());

        // Renames don't invalidate cached artifacts…
        let mut renamed = lenet.clone();
        renamed.name = "something-else".into();
        assert_eq!(renamed.fingerprint(), lenet.fingerprint());

        // …but any structural change does, down to a single flag.
        let mut tweaked = lenet.clone();
        if let LayerShape::Conv { pooled, .. } = &mut tweaked.layers[0] {
            *pooled = !*pooled;
        }
        assert_ne!(tweaked.fingerprint(), lenet.fingerprint());
    }

    #[test]
    fn from_model_traces_shapes() {
        let model = models::cnn4(3, 8, 10, 0);
        let net = NetworkDesc::from_model("cnn4-small", &model, (3, 8, 8));
        assert_eq!(net.layers.len(), 4);
        match net.layers[0] {
            LayerShape::Conv {
                cin, cout, pooled, ..
            } => {
                assert_eq!((cin, cout), (3, 16));
                assert!(pooled);
            }
            _ => panic!("first layer should be conv"),
        }
        match net.layers[2] {
            LayerShape::Conv {
                cin, in_h, pooled, ..
            } => {
                assert_eq!(cin, 24);
                assert_eq!(in_h, 2);
                assert!(!pooled);
            }
            _ => panic!("third layer should be conv"),
        }
        match net.layers[3] {
            LayerShape::Fc { inf, outf } => {
                assert_eq!(inf, 32 * 2 * 2);
                assert_eq!(outf, 10);
            }
            _ => panic!("last layer should be fc"),
        }
    }
}
