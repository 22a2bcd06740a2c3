//! Telemetry determinism contract (DESIGN.md §12): every counter in a
//! [`TelemetryReport`](geo_core::telemetry::TelemetryReport) is an exact
//! integer sum, so the counter projection must be **bit-identical at
//! every thread count**, and the MAC/lane totals must agree between the
//! compacted kernels (`forward`) and the retained reference kernels
//! (`forward_reference`) — both count one MAC per lane·pixel that
//! survives the identical set of skip tests (padding bounds, zero
//! activation level, zero weight lane).
//!
//! Only the counter projection ([`LayerTelemetry::counters`]) is under
//! contract; the wall-clock `phase_ns` fields are explicitly excluded.

use geo_core::telemetry::LayerTelemetry;
use geo_core::{Accumulation, GeoConfig, ScEngine, FC_BINARY_WIDTH};
use geo_nn::{models, Layer, Sequential, Tensor};
use geo_sc::{KernelDims, SeedPlan, SharingLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::collections::HashSet;

#[derive(Debug, Clone, Copy)]
enum Net {
    Lenet5,
    Cnn4,
    /// The scaled VGG-16 thumbnail: 13 convs in five blocks, avg pools
    /// after the first three — the depth case for counter pre-sizing.
    Vgg16,
}

const NETS: [Net; 3] = [Net::Lenet5, Net::Cnn4, Net::Vgg16];

impl Net {
    fn model(self, seed: u64) -> Sequential {
        match self {
            Net::Lenet5 => models::lenet5(1, 8, 10, seed),
            Net::Cnn4 => models::cnn4(3, 8, 10, seed),
            Net::Vgg16 => models::vgg16_small(3, 8, 10, seed),
        }
    }

    fn input(self, seed: u64) -> Tensor {
        let c = match self {
            Net::Lenet5 => 1,
            Net::Cnn4 | Net::Vgg16 => 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::kaiming(&[2, c, 8, 8], c * 64, &mut rng).map(|v| v.abs().min(1.0));
        x.data_mut()[0] = 1.0;
        x
    }
}

/// One forward pass under a pool of `threads` workers, returning the
/// per-layer telemetry snapshots.
fn layer_telemetry(
    threads: usize,
    cfg: GeoConfig,
    net: Net,
    seed: u64,
    reference: bool,
) -> Vec<LayerTelemetry> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let mut model = net.model(seed);
        let x = net.input(seed ^ 0x5eed);
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let out = if reference {
            engine.forward_reference(&mut model, &x, false)
        } else {
            engine.forward(&mut model, &x, false)
        };
        out.expect("forward succeeds");
        engine.telemetry_report().layers
    })
}

fn counters(layers: &[LayerTelemetry]) -> Vec<[u64; 8]> {
    layers.iter().map(LayerTelemetry::counters).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The counter projection is bit-identical across 1..=8 worker
    /// threads, for every accumulation mode and both workloads.
    #[test]
    fn counters_are_bit_identical_across_thread_counts(
        mode in prop::sample::select(Accumulation::ALL.to_vec()),
        net in prop::sample::select(NETS.to_vec()),
        threads in 2usize..=8,
        seed in 0u64..4,
    ) {
        let cfg = GeoConfig::geo(16, 32).with_accumulation(mode);
        let serial = counters(&layer_telemetry(1, cfg, net, seed, false));
        let parallel = counters(&layer_telemetry(threads, cfg, net, seed, false));
        prop_assert_eq!(serial, parallel, "{net:?} {mode:?} threads={threads}");
    }
}

/// §III-A skipped-conversion accounting at 13-conv depth: on the VGG
/// thumbnail, the conv closing each avg-pooled block skips exactly
/// `n · cout · (oh·ow − poh·pow)` conversions per pass — a static
/// count, bit-identical at every thread count — and every other layer
/// skips none.
#[test]
fn vgg_conversions_skipped_matches_static_prediction() {
    let skipped = |threads: usize| -> Vec<u64> {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool construction never fails");
        pool.install(|| {
            let mut model = Net::Vgg16.model(2);
            let x = Net::Vgg16.input(4);
            let mut engine = ScEngine::new(GeoConfig::geo(16, 32)).expect("valid test config");
            engine.forward(&mut model, &x, false).expect("forward");
            engine
                .telemetry_report()
                .layers
                .iter()
                .map(|l| l.conversions_skipped)
                .collect()
        })
    };
    // Thumbnail on 8×8 inputs, batch 2: block 1's closing conv (cout 8,
    // 8×8 pooled to 4×4) skips 2·8·(64−16) = 768; block 2's (cout 16,
    // 4×4→2×2) 2·16·(16−4) = 384; block 3's (cout 24, 2×2→1×1)
    // 2·24·(4−1) = 144. Blocks 4–5 are unpooled; linears never skip.
    let expected = vec![0, 768, 0, 384, 0, 0, 144, 0, 0, 0, 0, 0, 0, 0, 0];
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            skipped(threads),
            expected,
            "thread-variant skip count at {threads} threads"
        );
    }
}

/// The same static prediction on the paper-scale spec (batch 1,
/// 3×16×16): four avg-pooled blocks skip 12288 / 6144 / 3072 / 1536
/// conversions; the fifth block and the classifier skip none.
/// Release-only heavy case.
#[test]
fn paper_scale_vgg_conversions_skipped_matches_static_prediction() {
    let skip_heavy = std::env::var("GEO_SKIP_HEAVY_TESTS").is_ok_and(|v| !v.is_empty() && v != "0");
    if skip_heavy || cfg!(debug_assertions) {
        eprintln!("skipped: GEO_SKIP_HEAVY_TESTS set or debug build (paper-scale VGG is heavy)");
        return;
    }
    let mut model = models::spec::vgg16_scaled_cifar()
        .build(1)
        .expect("paper-scale spec builds");
    let mut rng = StdRng::seed_from_u64(9);
    let x = Tensor::kaiming(&[1, 3, 16, 16], 16, &mut rng).map(|v| v.abs().min(1.0));
    let mut engine = ScEngine::new(GeoConfig::geo(16, 32)).expect("valid test config");
    engine.forward(&mut model, &x, false).expect("forward");
    let skipped: Vec<u64> = engine
        .telemetry_report()
        .layers
        .iter()
        .map(|l| l.conversions_skipped)
        .collect();
    // conv2 (cout 64, 16²→8²): 1·64·(256−64) = 12288; conv4 (128, 8²→4²):
    // 6144; conv7 (256, 4²→2²): 3072; conv10 (512, 2²→1²): 1536.
    let expected = vec![0, 12288, 0, 6144, 0, 0, 3072, 0, 0, 1536, 0, 0, 0, 0, 0, 0];
    assert_eq!(skipped, expected);
}

/// MAC and lane totals agree between `forward` and `forward_reference`
/// on both workloads across all five accumulation modes.
#[test]
fn mac_and_lane_totals_match_reference_kernels() {
    for net in NETS {
        for mode in Accumulation::ALL {
            let cfg = GeoConfig::geo(16, 32).with_accumulation(mode);
            let compacted = layer_telemetry(1, cfg, net, 7, false);
            let reference = layer_telemetry(1, cfg, net, 7, true);
            assert_eq!(
                compacted.len(),
                reference.len(),
                "{net:?} {mode:?}: layer count"
            );
            // Individual deep layers can legitimately count zero MACs at
            // thumbnail scale (every activation level quantizes to zero),
            // but the network as a whole must do work.
            let total: u64 = compacted.iter().map(|l| l.macs).sum();
            assert!(total > 0, "{net:?} {mode:?}: no MACs counted");
            for (i, (c, r)) in compacted.iter().zip(&reference).enumerate() {
                assert_eq!(c.macs, r.macs, "{net:?} {mode:?} layer {i}: macs");
                // Lane compaction happens at resolve time on both paths,
                // so kept/skipped lane counts match too.
                assert_eq!(
                    (c.compacted_lanes, c.skipped_zero_lanes),
                    (r.compacted_lanes, r.skipped_zero_lanes),
                    "{net:?} {mode:?} layer {i}: lanes"
                );
            }
        }
    }
}

/// Table lookups and table builds per parametrized layer, after one
/// inference forward on a fresh engine.
fn lookups_and_misses(cfg: GeoConfig, net: Net) -> (Vec<u64>, Vec<u64>) {
    let layers = layer_telemetry(1, cfg, net, 3, false);
    let lookups = layers.iter().map(|l| l.table_hits + l.table_misses);
    let misses = layers.iter().map(|l| l.table_misses);
    (lookups.collect(), misses.collect())
}

/// One stream-table lookup per activation lane plus one per distinct
/// weight generator slot (`SeedPlan::weight_slot`), not one per weight,
/// under every sharing level.
#[test]
fn tables_are_looked_up_once_per_lane_and_weight_generator() {
    for net in NETS {
        for sharing in SharingLevel::ALL {
            let cfg = GeoConfig::geo(32, 64).with_sharing(sharing);
            let model = net.model(3);
            let plan = ScEngine::new(cfg)
                .expect("valid test config")
                .stream_plan(&model);
            let expected: Vec<u64> = model
                .layers()
                .iter()
                .zip(plan)
                .filter_map(|(layer, len)| {
                    let width = GeoConfig::width_for(len?);
                    let (lanes, slots) = match layer {
                        Layer::Conv2d(conv) => {
                            let (cout, cin, k) = (conv.cout(), conv.cin(), conv.kernel());
                            let plan =
                                SeedPlan::new(sharing, width, 0, KernelDims::new(cout, cin, k, k));
                            let mut slots = HashSet::new();
                            for co in 0..cout {
                                for ci in 0..cin {
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            slots.insert(plan.weight_slot(co, ci, ky, kx));
                                        }
                                    }
                                }
                            }
                            (cin * k * k, slots.len())
                        }
                        Layer::Linear(lin) => {
                            let (features, outf) = (lin.input_features(), lin.output_features());
                            let wdim = FC_BINARY_WIDTH.min(features);
                            let dims = KernelDims::new(outf, features.div_ceil(wdim), 1, wdim);
                            let plan = SeedPlan::new(sharing, width, 0, dims);
                            let slots: HashSet<usize> = (0..outf)
                                .flat_map(|o| (0..features).map(move |i| (o, i)))
                                .map(|(o, i)| plan.weight_slot(o, i / wdim, 0, i % wdim))
                                .collect();
                            (features, slots.len())
                        }
                        _ => return None,
                    };
                    Some((lanes + slots) as u64)
                })
                .collect();
            let (lookups, _) = lookups_and_misses(cfg, net);
            assert_eq!(lookups, expected, "{net:?} {sharing:?}");
        }
    }
}

/// Fetching each weight generator's table on its first use builds the
/// same tables as one lookup per weight: per-layer table builds at
/// GEO-32,64 equal the counts recorded with a lookup for every weight.
#[test]
fn table_builds_match_the_per_weight_resolve() {
    let recorded: [(Net, SharingLevel, [u64; 4]); 6] = [
        (Net::Lenet5, SharingLevel::None, [56, 62, 126, 254]),
        (Net::Lenet5, SharingLevel::Moderate, [18, 62, 96, 64]),
        (Net::Lenet5, SharingLevel::Extreme, [12, 54, 56, 40]),
        (Net::Cnn4, SharingLevel::None, [62, 62, 126, 254]),
        (Net::Cnn4, SharingLevel::Moderate, [54, 62, 126, 254]),
        (Net::Cnn4, SharingLevel::Extreme, [30, 62, 126, 136]),
    ];
    for (net, sharing, misses) in recorded {
        let cfg = GeoConfig::geo(32, 64).with_sharing(sharing);
        let (_, built) = lookups_and_misses(cfg, net);
        assert_eq!(built, misses, "{net:?} {sharing:?}");
    }
}
