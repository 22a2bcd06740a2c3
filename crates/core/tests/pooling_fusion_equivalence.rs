//! Conv→pool fusion equivalence contract (DESIGN.md §16): the fused
//! pipeline — `Conv → [BatchNorm] → [ReLU] → AvgPool2d` collapsed into
//! one [`PreparedStep`], plus level-chained activations between SC
//! layers — must be **bit-identical** to the unfused pipeline
//! (`GeoConfig::with_fuse_pooling(false)`), not merely close. The fused
//! kernels run the exact per-pixel conversion order of the unfused
//! steps (convert → affine → clamp → window sum → `/ 4.0`), so no
//! accumulation mode, generation mode, sharing level, or thread count
//! may move a single output bit.
//!
//! Error behavior is part of the contract too: pools reject odd spatial
//! dims at prepare time, and fusion detection falls through to the
//! unfused pool step for odd conv outputs, so both configs fail with
//! the same error. Non-adjacent pools (no conv immediately upstream)
//! and max pools never fuse and must also stay identical.

use geo_core::{Accumulation, GeoConfig, ScEngine};
use geo_nn::{models, AvgPool2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, Sequential, Tensor};
use geo_sc::SharingLevel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

/// The two pooled paper workloads: LeNet-5 fuses `Conv→BN→ReLU→AvgPool`
/// twice then level-chains `Flatten→Linear→ReLU→Linear`; CNN-4 adds a
/// trailing unpooled conv block, so a fused step also feeds a plain
/// `Conv` consumer through chained levels.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Net {
    Lenet5,
    Cnn4,
}

const NETS: [Net; 2] = [Net::Lenet5, Net::Cnn4];

impl Net {
    fn model(self, seed: u64) -> Sequential {
        match self {
            Net::Lenet5 => models::lenet5(1, 8, 10, seed),
            Net::Cnn4 => models::cnn4(3, 8, 10, seed),
        }
    }

    fn input(self, seed: u64) -> Tensor {
        let channels = match self {
            Net::Lenet5 => 1,
            Net::Cnn4 => 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::kaiming(&[2, channels, 8, 8], 8, &mut rng).map(|v| v.abs().min(1.0));
        // Pin one exact full-scale element to keep the all-ones stream
        // path under test.
        x.data_mut()[0] = 1.0;
        x
    }
}

/// One full forward on a fresh engine + model under `threads` workers,
/// returning the raw output bit patterns. Engines are built inside the
/// pool scope so TRNG/fault draws see identical pass counters on both
/// sides of each comparison.
fn forward_bits(threads: usize, cfg: GeoConfig, net: Net, seed: u64) -> Vec<u32> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let mut model = net.model(seed);
        let x = net.input(seed ^ 0x5eed);
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let y = engine.forward(&mut model, &x, false).expect("forward");
        y.data().iter().map(|v| v.to_bits()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused forward at any thread count is bit-identical to the
    /// serial *unfused* forward, for every accumulation mode ×
    /// generation mode × sharing level × workload. (Unfused thread
    /// invariance is already pinned by `parallel_equivalence`, so one
    /// serial unfused oracle covers the full cross product.)
    #[test]
    fn fused_is_bit_identical_to_unfused(
        seed in 0u64..200,
        mode_idx in 0usize..5,
        sharing_idx in 0usize..3,
        progressive in any::<bool>(),
        threads in 1usize..9,
        net in prop::sample::select(NETS.to_vec()),
    ) {
        let cfg = GeoConfig::geo(16, 32)
            .with_accumulation(Accumulation::ALL[mode_idx])
            .with_sharing(SharingLevel::ALL[sharing_idx])
            .with_progressive(progressive);
        let unfused = forward_bits(1, cfg.with_fuse_pooling(false), net, seed);
        let fused = forward_bits(threads, cfg, net, seed);
        prop_assert_eq!(
            unfused, fused,
            "{net:?} {:?} threads={threads} diverged", Accumulation::ALL[mode_idx]
        );
    }
}

/// Exhaustive sweep: all five accumulation modes under both generation
/// modes match the unfused oracle on both workloads at a fixed seed.
#[test]
fn every_mode_fused_matches_unfused() {
    for net in NETS {
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = GeoConfig::geo(16, 32)
                    .with_accumulation(mode)
                    .with_progressive(progressive);
                assert_eq!(
                    forward_bits(1, cfg.with_fuse_pooling(false), net, 7),
                    forward_bits(4, cfg, net, 7),
                    "{net:?} {mode:?} progressive={progressive} diverged"
                );
            }
        }
    }
}

/// Conv (no pad) over a 5×5 input produces a 3×3 output, which the 2×2
/// pool rejects. Fusion detection skips odd conv outputs, so the fused
/// config falls through to the unfused pool step and fails with the
/// *same* error at the same point — error parity, not just value parity.
#[test]
fn odd_dims_error_identically_fused_and_unfused() {
    let model = || {
        let mut rng = StdRng::seed_from_u64(3);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, false, &mut rng)),
            Layer::AvgPool2d(AvgPool2d::new()),
        ])
    };
    let x = Tensor::full(&[1, 1, 5, 5], 0.5);
    let errs: Vec<String> = [true, false]
        .into_iter()
        .map(|fuse| {
            let cfg = GeoConfig::geo(16, 32).with_fuse_pooling(fuse);
            let mut engine = ScEngine::new(cfg).expect("valid test config");
            engine
                .forward(&mut model(), &x, false)
                .expect_err("odd pool input must fail")
                .to_string()
        })
        .collect();
    assert_eq!(errs[0], errs[1], "fused and unfused errors diverged");
    assert!(errs[0].contains("even"), "unexpected error: {}", errs[0]);
}

/// Pools with no conv immediately upstream never fuse (the second
/// `AvgPool` consumes the already-pooled tensor), and max pools never
/// fuse at all; both topologies still match the unfused pipeline.
#[test]
fn non_fusible_pools_stay_identical() {
    let run = |fuse: bool, max_pool: bool| {
        let mut rng = StdRng::seed_from_u64(11);
        let tail: Layer = if max_pool {
            Layer::MaxPool2d(MaxPool2d::new())
        } else {
            Layer::AvgPool2d(AvgPool2d::new())
        };
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, false, &mut rng)),
            Layer::AvgPool2d(AvgPool2d::new()),
            tail,
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(12, 4, &mut rng)),
        ]);
        let x = Tensor::full(&[1, 1, 8, 8], 0.25);
        let cfg = GeoConfig::geo(16, 32).with_fuse_pooling(fuse);
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let y = engine.forward(&mut model, &x, false).expect("forward");
        y.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    for max_pool in [false, true] {
        assert_eq!(
            run(false, max_pool),
            run(true, max_pool),
            "max_pool={max_pool} diverged"
        );
    }
}

/// `forward_single_layer` and `forward_reference` are unfused by
/// construction: toggling `fuse_pooling` cannot change a bit of either.
#[test]
fn single_layer_and_reference_paths_ignore_the_fusion_flag() {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let run = |fuse: bool| {
        let cfg = GeoConfig::geo(16, 32).with_fuse_pooling(fuse);
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let mut model = Net::Lenet5.model(5);
        let x = Net::Lenet5.input(9);
        let reference = engine
            .forward_reference(&mut model, &x, false)
            .expect("reference forward");
        let single = engine
            .forward_single_layer(&model, 0, &x)
            .expect("single-layer forward");
        (bits(&reference), bits(&single))
    };
    // Same seeds and draw order on both sides, so the outputs must be
    // byte-for-byte stable across the flag flip.
    assert_eq!(run(false), run(true));
}

/// §III-A skipped-conversion accounting: each fused layer skips exactly
/// `n · cout · (oh·ow − poh·pow)` conversions per pass — a *static*
/// count, so it is invariant across thread counts — and the unfused
/// pipeline skips none.
#[test]
fn conversions_skipped_matches_static_prediction() {
    let skipped = |threads: usize, fuse: bool| -> Vec<u64> {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool construction never fails");
        pool.install(|| {
            let cfg = GeoConfig::geo(16, 32).with_fuse_pooling(fuse);
            let mut engine = ScEngine::new(cfg).expect("valid test config");
            let mut model = Net::Lenet5.model(2);
            let x = Net::Lenet5.input(4);
            engine.forward(&mut model, &x, false).expect("forward");
            engine
                .telemetry_report()
                .layers
                .iter()
                .map(|l| l.conversions_skipped)
                .collect()
        })
    };
    // LeNet-5 thumbnail on 8×8 inputs, batch 2: conv1 (cout 6) keeps an
    // 8×8 output pooled to 4×4 → 2·6·(64−16) = 576; conv2 (cout 12)
    // keeps 4×4 pooled to 2×2 → 2·12·(16−4) = 288; linears skip none.
    assert_eq!(skipped(1, true), vec![576, 288, 0, 0]);
    for threads in [2, 4, 8] {
        assert_eq!(
            skipped(threads, true),
            vec![576, 288, 0, 0],
            "thread-variant skip count at {threads} threads"
        );
    }
    assert_eq!(skipped(4, false), vec![0, 0, 0, 0]);
}
