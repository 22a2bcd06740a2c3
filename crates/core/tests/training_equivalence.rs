//! SC-in-the-loop training must run the exact datapath inference runs
//! (§II-A, §IV): the float backward pass learns around the SC forward's
//! bias, so any drift between the training forward and the per-layer SC
//! datapath would train against a datapath that is never deployed.
//!
//! These tests pin the training arm of the engine bit for bit, on the
//! LeNet-5 and CNN-4 thumbnails across every accumulation mode, both
//! generation modes, and 1 and 4 worker threads (LFSR generation, no
//! faults):
//!
//! 1. `ScEngine::forward(.., true)` equals the layer-by-layer composition
//!    of training-mode float forwards (batch norm on batch statistics,
//!    ReLU saturated at 1.0) and `ScEngine::forward_single_layer` for
//!    every conv/linear layer.
//! 2. `ProgramExecutor::forward(.., true)` equals `ScEngine::forward(..,
//!    true)`.
//! 3. A fixed two-epoch `train_sc` run reproduces recorded per-epoch
//!    loss bits.

use geo_arch::AccelConfig;
use geo_core::{train_sc, Accumulation, GeoConfig, ProgramExecutor, ScEngine};
use geo_nn::datasets::{generate, Dataset, DatasetSpec};
use geo_nn::optim::Optimizer;
use geo_nn::train::TrainConfig;
use geo_nn::{models, Layer, Sequential, Tensor};
use rayon::ThreadPoolBuilder;

const THREADS: [usize; 2] = [1, 4];

#[derive(Debug, Clone, Copy)]
enum Net {
    Lenet5,
    Cnn4,
}

const NETS: [Net; 2] = [Net::Lenet5, Net::Cnn4];

impl Net {
    fn model(self) -> Sequential {
        match self {
            Net::Lenet5 => models::lenet5(1, 8, 10, 7),
            Net::Cnn4 => models::cnn4(3, 8, 10, 7),
        }
    }

    fn input_chw(self) -> (usize, usize, usize) {
        match self {
            Net::Lenet5 => (1, 8, 8),
            Net::Cnn4 => (3, 8, 8),
        }
    }

    fn datasets(self) -> (Dataset, Dataset) {
        match self {
            Net::Lenet5 => generate(&DatasetSpec::mnist_like(5).with_samples(24, 8)),
            Net::Cnn4 => generate(&DatasetSpec::cifar_like(5).with_samples(24, 8)),
        }
    }

    /// A batch of four training images.
    fn batch(self) -> Tensor {
        self.datasets().0.batch(0, 4).0
    }

    /// Per-epoch loss bits of [`train_run`], recorded before the training
    /// arm was rebuilt on prepared steps.
    fn recorded_losses(self) -> [u32; 2] {
        match self {
            Net::Lenet5 => [0x400c_8be9, 0x4009_2d25],
            Net::Cnn4 => [0x401d_97d6, 0x4008_63ed],
        }
    }
}

fn config(mode: Accumulation, progressive: bool) -> GeoConfig {
    GeoConfig::geo(32, 64)
        .with_accumulation(mode)
        .with_progressive(progressive)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn in_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails")
        .install(op)
}

/// The training forward rebuilt layer by layer: every float layer runs
/// its training-mode forward, and every conv/linear output comes from
/// `forward_single_layer` on the activations that reach it.
fn composed_training_forward(cfg: GeoConfig, model: &mut Sequential, x: &Tensor) -> Vec<u32> {
    let mut engine = ScEngine::new(cfg).expect("valid config");
    model.set_training(true);
    let mut x = x.clone();
    for i in 0..model.layers().len() {
        if matches!(model.layers()[i], Layer::Conv2d(_) | Layer::Linear(_)) {
            model.layers_mut()[i].forward(&x).expect("float forward");
            x = engine
                .forward_single_layer(model, i, &x)
                .expect("single-layer forward");
            continue;
        }
        x = match &mut model.layers_mut()[i] {
            Layer::Relu(r) => r.forward(&x).map(|v| v.min(1.0)),
            other => other.forward(&x).expect("float forward"),
        };
    }
    bits(&x)
}

#[test]
fn training_forward_equals_per_layer_composition() {
    for net in NETS {
        let x = net.batch();
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = config(mode, progressive);
                for threads in THREADS {
                    let (engine_bits, composed) = in_pool(threads, || {
                        let mut model = net.model();
                        let mut engine = ScEngine::new(cfg).expect("valid config");
                        let y = engine.forward(&mut model, &x, true).expect("forward");
                        let mut model = net.model();
                        (bits(&y), composed_training_forward(cfg, &mut model, &x))
                    });
                    assert_eq!(
                        engine_bits, composed,
                        "{net:?} {mode:?} progressive={progressive} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn program_training_forward_equals_engine() {
    for net in NETS {
        let x = net.batch();
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = config(mode, progressive);
                for threads in THREADS {
                    let (direct, via_program) = in_pool(threads, || {
                        let mut model = net.model();
                        let mut engine = ScEngine::new(cfg).expect("valid config");
                        let direct = engine.forward(&mut model, &x, true).expect("forward");
                        let mut model = net.model();
                        let mut exec = ProgramExecutor::compile(
                            cfg,
                            &AccelConfig::ulp_geo(32, 64),
                            &model,
                            net.input_chw(),
                            "training-thumb",
                        )
                        .expect("program compiles");
                        let via = exec.forward(&mut model, &x, true).expect("program forward");
                        (bits(&direct), bits(&via))
                    });
                    assert_eq!(
                        direct, via_program,
                        "{net:?} {mode:?} progressive={progressive} threads={threads}"
                    );
                }
            }
        }
    }
}

/// A fixed two-epoch SC-in-the-loop training run.
fn train_run(net: Net) -> Vec<u32> {
    let (train, _) = net.datasets();
    let mut model = net.model();
    let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).expect("valid config");
    let mut opt = Optimizer::paper_default();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        seed: 3,
    };
    let history = train_sc(&mut engine, &mut model, &train, &mut opt, &cfg).expect("train_sc");
    history.losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn train_sc_losses_match_recorded_bits() {
    for net in NETS {
        for threads in THREADS {
            let losses = in_pool(threads, || train_run(net));
            assert_eq!(losses, net.recorded_losses(), "{net:?} threads={threads}");
        }
    }
}
