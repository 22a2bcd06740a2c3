//! Property-based tests on the SC engine: invariants that must hold for
//! any weights, inputs, and configuration.

use geo_core::{Accumulation, GeoConfig, GeoError, ScEngine};
use geo_nn::{Conv2d, Layer, Linear, NnError, Sequential, Tensor};
use geo_sc::{RngKind, SharingLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn conv_model(seed: u64, cin: usize, cout: usize) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![Layer::Conv2d(Conv2d::new(
        cin, cout, 3, 1, 1, false, &mut rng,
    ))])
}

fn input(seed: u64, cin: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::kaiming(&[1, cin, 4, 4], 4, &mut rng).map(|v| v.abs().min(1.0))
}

/// A 1×1 identity convolution with a single pinned weight.
fn unit_conv(weight: f32) -> Sequential {
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = Sequential::new(vec![Layer::Conv2d(Conv2d::new(
        1, 1, 1, 1, 0, false, &mut rng,
    ))]);
    if let Layer::Conv2d(c) = &mut model.layers_mut()[0] {
        c.weight.value.data_mut()[0] = weight;
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// OR-accumulated outputs are bounded by the stream value range
    /// [-1, 1] regardless of kernel size or weights.
    #[test]
    fn or_outputs_are_stream_bounded(seed in 0u64..200, cin in 1usize..4, cout in 1usize..4) {
        let mut model = conv_model(seed, cin, cout);
        let x = input(seed ^ 99, cin);
        let mut engine = ScEngine::new(
            GeoConfig::geo(64, 64)
                .with_accumulation(Accumulation::Or)
                .with_progressive(false),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        for &v in y.data() {
            prop_assert!((-1.0..=1.0).contains(&v), "OR output {} out of range", v);
        }
    }

    /// Output magnitude ordering: |OR| ≤ |PBW| ≤ |FXP| element-wise does
    /// not hold in general with signs, but the total positive mass does
    /// for all-positive weights.
    #[test]
    fn accumulation_mass_ordering(seed in 0u64..200) {
        let mut model = conv_model(seed, 2, 2);
        for l in model.layers_mut() {
            if let Layer::Conv2d(c) = l {
                for v in c.weight.value.data_mut() {
                    *v = v.abs().max(0.05);
                }
            }
        }
        let x = input(seed ^ 7, 2);
        let mass = |mode: Accumulation, model: &mut Sequential| {
            let mut e = ScEngine::new(
                GeoConfig::geo(128, 128).with_accumulation(mode).with_progressive(false),
            ).unwrap();
            let y = e.forward(model, &x, false).unwrap();
            y.data().iter().map(|v| f64::from(*v)).sum::<f64>()
        };
        let or = mass(Accumulation::Or, &mut model);
        let pbw = mass(Accumulation::Pbw, &mut model);
        let fxp = mass(Accumulation::Fxp, &mut model);
        prop_assert!(or <= pbw + 1e-6);
        prop_assert!(pbw <= fxp + 1e-6);
    }

    /// LFSR engines are deterministic for every sharing level; the output
    /// is identical across fresh engines.
    #[test]
    fn determinism_for_every_sharing_level(seed in 0u64..200, sharing_idx in 0usize..3) {
        let sharing = SharingLevel::ALL[sharing_idx];
        let mut model = conv_model(seed, 2, 3);
        let x = input(seed ^ 3, 2);
        let cfg = GeoConfig::geo(32, 32).with_sharing(sharing);
        let mut e1 = ScEngine::new(cfg).unwrap();
        let mut e2 = ScEngine::new(cfg).unwrap();
        let a = e1.forward(&mut model, &x, false).unwrap();
        let b = e2.forward(&mut model, &x, false).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }

    /// Zero input produces exactly zero output in every mode (no stream
    /// leaks through an all-zero activation).
    #[test]
    fn zero_input_gives_zero_output(mode_idx in 0usize..5, rng_idx in 0usize..2) {
        let mode = Accumulation::ALL[mode_idx];
        let rng_kind = [RngKind::Lfsr, RngKind::Trng][rng_idx];
        let mut model = conv_model(1, 2, 2);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let mut engine = ScEngine::new(
            GeoConfig::geo(32, 32).with_accumulation(mode).with_rng(rng_kind),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        prop_assert!(y.data().iter().all(|&v| v == 0.0));
    }

    /// Full-scale operands survive quantization in normal mode: with
    /// `x = 1.0` and `w = 1.0` the engine must select the all-ones
    /// stream (level `2^width`), never the clamped `255/256` level, so a
    /// 1×1 identity convolution reproduces its input *exactly* in every
    /// accumulation mode.
    #[test]
    fn full_scale_conv_is_exact_in_every_mode(mode_idx in 0usize..5) {
        let mut model = unit_conv(1.0);
        let x = Tensor::full(&[1, 1, 1, 1], 1.0);
        let mut engine = ScEngine::new(
            GeoConfig::geo(32, 32)
                .with_accumulation(Accumulation::ALL[mode_idx])
                .with_progressive(false),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        prop_assert_eq!(y.data(), &[1.0f32][..]);
    }

    /// Same full-scale contract through the FC path: a 1-in/1-out linear
    /// layer with unit weight passes `x = 1.0` through exactly.
    #[test]
    fn full_scale_linear_is_exact_in_every_mode(mode_idx in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![Layer::Linear(Linear::new(1, 1, &mut rng))]);
        if let Layer::Linear(l) = &mut model.layers_mut()[0] {
            l.weight.value.data_mut()[0] = 1.0;
        }
        let x = Tensor::full(&[1, 1], 1.0);
        let mut engine = ScEngine::new(
            GeoConfig::geo(32, 32)
                .with_accumulation(Accumulation::ALL[mode_idx])
                .with_progressive(false),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        prop_assert_eq!(y.data(), &[1.0f32][..]);
    }

    /// Negative full scale is symmetric: `w = -1.0` on `x = 1.0` yields
    /// exactly `-1.0` through the split-unipolar negative stream.
    #[test]
    fn full_scale_negative_weight_is_exact(mode_idx in 0usize..5) {
        let mut model = unit_conv(-1.0);
        let x = Tensor::full(&[1, 1, 1, 1], 1.0);
        let mut engine = ScEngine::new(
            GeoConfig::geo(32, 32)
                .with_accumulation(Accumulation::ALL[mode_idx])
                .with_progressive(false),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        prop_assert_eq!(y.data(), &[-1.0f32][..]);
    }

    /// FC layers obey the same stream-bound invariant as convolutions.
    #[test]
    fn linear_or_outputs_bounded(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Sequential::new(vec![Layer::Linear(Linear::new(12, 5, &mut rng))]);
        let x = Tensor::kaiming(&[2, 12], 12, &mut rng).map(|v| v.abs().min(1.0));
        let mut engine = ScEngine::new(
            GeoConfig::geo(64, 64).with_accumulation(Accumulation::Or),
        ).unwrap();
        let y = engine.forward(&mut model, &x, false).unwrap();
        for &v in y.data() {
            prop_assert!((-1.0..=1.0).contains(&v));
        }
    }
}

/// Progressive generation deliberately clamps levels to 255: the 256-entry
/// progressive buffer models GEO's 8-bit counter hardware, so full scale
/// lands close to — but intentionally not exactly — `1.0` (the act and
/// weight streams each lose a bit, and their AND loses a little more to
/// stream correlation).
#[test]
fn progressive_full_scale_clamps_to_buffer_limit() {
    let mut model = unit_conv(1.0);
    let x = Tensor::full(&[1, 1, 1, 1], 1.0);
    let mut engine = ScEngine::new(
        GeoConfig::geo(128, 128)
            .with_accumulation(Accumulation::Fxp)
            .with_progressive(true),
    )
    .unwrap();
    let y = engine.forward(&mut model, &x, false).unwrap();
    let v = y.data()[0];
    assert!(
        (0.9..1.0).contains(&v),
        "progressive full scale should clamp just below 1.0, got {v}"
    );
}

/// A hand-built conv that yields no output pixel on its input — a kernel
/// larger than the padded input, or a zero stride — gets the typed shape
/// error naming the condition from every engine entry point (prepare,
/// inference and training forwards, the oracle, the single-layer run),
/// never a panic or an internal error. `ModelSpec::build` rejects these
/// geometries too, but hand-built models do not pass through it.
#[test]
fn conv_without_output_pixels_is_a_shape_error() {
    let mut rng = StdRng::seed_from_u64(0);
    let cases = [
        (
            Conv2d::new(1, 2, 5, 1, 0, false, &mut rng),
            "kernel 5 ≤ H + 2·0",
        ),
        (
            Conv2d::new(1, 2, 3, 0, 1, false, &mut rng),
            "stride of at least 1",
        ),
    ];
    let x = Tensor::full(&[1, 1, 3, 3], 0.5);
    for (conv, condition) in cases {
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let mut engine = ScEngine::new(GeoConfig::geo(32, 32)).unwrap();
        let results = [
            engine.prepare(&model, x.shape()).map(|_| ()),
            engine.forward(&mut model, &x, false).map(|_| ()),
            engine.forward(&mut model, &x, true).map(|_| ()),
            engine.forward_reference(&mut model, &x, false).map(|_| ()),
            engine.forward_single_layer(&model, 0, &x).map(|_| ()),
        ];
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Err(GeoError::Nn(NnError::ShapeMismatch { expected, actual })) => {
                    assert!(expected.contains(condition), "entry {i}: {expected}");
                    assert_eq!(actual, x.shape(), "entry {i}");
                }
                other => panic!("entry {i} ({condition}): expected a shape error, got {other:?}"),
            }
        }
    }
}
