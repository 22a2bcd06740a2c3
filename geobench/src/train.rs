//! `train`: SC-in-the-loop training of CNN-4 on CIFAR-like images (the
//! Table I method), then SC evaluation on a held-out split.
//!
//! Weights change every step, so each `ScEngine::forward` re-resolves
//! them; evaluation re-resolves fixed weights. This is the one workload
//! where `geo_nn`'s backward pass and optimizer run.
//!
//! `train_sc` and `evaluate_sc` run once as the reference. The measured
//! training and evaluation are the same loops spelled out over their
//! public calls, which must reproduce the losses and the accuracy bit for
//! bit; timing them step by step and batch by batch lets each figure be a
//! median over steps or batches, which a few seconds of a stalled host
//! cannot move.

use crate::common::{
    bits_equal, cifar_like, closure, exec_layers, fail, forward_layers, live_gate, med, ms,
    prepare_layers, sc_layers, Ctx, Outcome, Target,
};
use crate::stats::percentile;
use crate::trace::Tracer;
use geo_arch::AccelConfig;
use geo_core::{evaluate_sc, train_sc, GeoConfig, ScEngine, ScHistory};
use geo_nn::datasets::Dataset;
use geo_nn::loss::{argmax_rows, softmax_cross_entropy};
use geo_nn::optim::Optimizer;
use geo_nn::train::TrainConfig;
use geo_nn::{models, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const TRAIN: usize = 320;
const TEST: usize = 480;
const EPOCHS: usize = 4;
const BATCH: usize = 16;
/// Batch size `evaluate_sc` uses.
const EVAL_BATCH: usize = 32;
/// Cold prepares whose median is `setup_s`.
const SETUPS: usize = 11;
/// Share of `--seconds` spent evaluating after each training repeat of 80
/// steps: short, frequent evaluation phases sample the host's changing
/// speed as the training steps do.
const EVAL_SHARE: f64 = 0.05;

/// Images `idx` of `ds` as one batch.
fn gather(ds: &Dataset, idx: &[usize]) -> Result<(Tensor, Vec<usize>), String> {
    let (c, h, w) = ds.image_shape();
    let sz = c * h * w;
    let mut data = Vec::with_capacity(idx.len() * sz);
    for &i in idx {
        data.extend_from_slice(&ds.images.data()[i * sz..(i + 1) * sz]);
    }
    let labels = idx.iter().map(|&i| ds.labels[i]).collect();
    let batch =
        Tensor::from_vec(vec![idx.len(), c, h, w], data).map_err(fail("Tensor::from_vec"))?;
    Ok((batch, labels))
}

/// `train_sc`'s loop spelled out over its public calls, one span per call
/// and one group per step; pushes each step's wall time (ms) to
/// `step_ms`.
fn per_call_train(
    t: &Tracer,
    engine: &mut ScEngine,
    model: &mut Sequential,
    ds: &Dataset,
    cfg: &TrainConfig,
    step_ms: &mut Vec<f64>,
) -> Result<ScHistory, String> {
    let mut optimizer = Optimizer::paper_default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history = ScHistory::default();
    let mut step = 0u64;
    for epoch in 0..cfg.epochs {
        // train_sc's step decay: halve the rate at 50% and 75% of training.
        if cfg.epochs >= 8 && (epoch * 2 == cfg.epochs || epoch * 4 == cfg.epochs * 3) {
            optimizer.scale_lr(0.5);
        }
        let mut order: Vec<usize> = (0..ds.len()).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let start = Instant::now();
            let loss = t.span("train.step", None, step, |id| -> Result<f32, String> {
                let (x, labels) = t.span("data.gather", id, step, |_| gather(ds, chunk))?;
                let logits = t
                    .span("engine.train_forward", id, step, |_| {
                        engine.forward(model, &x, true)
                    })
                    .map_err(fail("ScEngine::forward"))?;
                let loss = t
                    .span("nn.loss", id, step, |_| {
                        softmax_cross_entropy(&logits, &labels)
                    })
                    .map_err(fail("softmax_cross_entropy"))?;
                t.span("nn.backward", id, step, |_| model.backward(&loss.grad))
                    .map_err(fail("Sequential::backward"))?;
                t.span("nn.optim", id, step, |_| {
                    optimizer.step(&mut model.params_mut());
                });
                Ok(loss.loss)
            })?;
            step_ms.push(ms(start.elapsed()));
            epoch_loss += loss;
            batches += 1;
            step += 1;
        }
        history.losses.push(epoch_loss / batches.max(1) as f32);
    }
    Ok(history)
}

/// `evaluate_sc`'s loop over its public calls; returns top-1 accuracy and
/// pushes each batch's wall time (ms) to `batch_ms`.
fn per_call_eval(
    t: &Tracer,
    engine: &mut ScEngine,
    model: &mut Sequential,
    ds: &Dataset,
    batch_ms: &mut Vec<f64>,
) -> Result<f32, String> {
    let mut correct = 0usize;
    let mut i = 0;
    while i < ds.len() {
        let n = EVAL_BATCH.min(ds.len() - i);
        let group = i as u64;
        let start = Instant::now();
        correct += t.span("eval.batch", None, group, |id| -> Result<usize, String> {
            let (x, labels) = ds.batch(i, n);
            let logits = t
                .span("engine.eval_forward", id, group, |_| {
                    engine.forward(model, &x, false)
                })
                .map_err(fail("ScEngine::forward"))?;
            Ok(argmax_rows(&logits)
                .into_iter()
                .zip(&labels)
                .filter(|(p, l)| p == *l)
                .count())
        })?;
        batch_ms.push(ms(start.elapsed()));
        i += n;
    }
    Ok(correct as f32 / ds.len().max(1) as f32)
}

fn same_losses(a: &ScHistory, b: &ScHistory) -> bool {
    a.losses.len() == b.losses.len()
        && a.losses
            .iter()
            .zip(&b.losses)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates engine and layer errors.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let target = Target {
        name: "cnn4",
        config: GeoConfig::geo(32, 64),
        accel: AccelConfig::ulp_geo(32, 64),
        shape: [1, 3, 8, 8],
    };
    let config = target.config;
    let shape = target.shape;
    let (train_ds, test_ds) = cifar_like(ctx.seed, 8, TRAIN, TEST);
    let init = models::cnn4(3, 8, 10, ctx.seed);
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        seed: ctx.seed,
    };
    let steps = (EPOCHS * TRAIN.div_ceil(BATCH)) as u64;
    let eval_batches = TEST.div_ceil(EVAL_BATCH) as u64;

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut engine = ScEngine::new(config).map_err(fail("ScEngine::new"))?;
        let prepared = engine
            .prepare(&init, &shape)
            .map_err(fail("ScEngine::prepare"))?;
        setups.push(start.elapsed().as_secs_f64());
        drop(prepared);
    }
    out.put("setup_s", med(&setups, "setup")?);

    let mut engine = ScEngine::new(config).map_err(fail("ScEngine::new"))?;
    let mut model = init.clone();
    let history = train_sc(
        &mut engine,
        &mut model,
        &train_ds,
        &mut Optimizer::paper_default(),
        &cfg,
    )
    .map_err(fail("train_sc"))?;
    out.attempted += steps;
    let accuracy = evaluate_sc(&mut engine, &mut model, &test_ds).map_err(fail("evaluate_sc"))?;
    out.attempted += eval_batches;
    eprintln!(
        "train: final loss {:?}, accuracy {accuracy}",
        history.final_loss()
    );

    // Measured phase: repeats of the per-call training loop, each followed
    // by per-call evaluations of the reference model, so both figures
    // sample the whole run. On a traced run the second training repeat
    // records spans and the untraced ones give the overhead baseline.
    let untraced = Tracer::new(false);
    // One untimed evaluation first, so the timed ones start warm.
    per_call_eval(
        &untraced,
        &mut engine,
        &mut model,
        &test_ds,
        &mut Vec::new(),
    )?;
    out.attempted += eval_batches;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let traced_rep = usize::from(ctx.tracer.enabled());
    let (mut traced_ms, mut step_ms, mut eval_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay = None;
    let mut rep = 0;
    while rep <= traced_rep || Instant::now() < deadline {
        let (tracer, times) = if ctx.tracer.enabled() && rep == traced_rep {
            (&ctx.tracer, &mut traced_ms)
        } else {
            (&untraced, &mut step_ms)
        };
        let mut e = ScEngine::new(config).map_err(fail("ScEngine::new"))?;
        let mut m = init.clone();
        let losses = per_call_train(tracer, &mut e, &mut m, &train_ds, &cfg, times)?;
        out.attempted += steps;
        out.check(same_losses(&history, &losses), || {
            format!(
                "train: per-call loop losses {:?} differ from train_sc {:?}",
                losses.losses, history.losses
            )
        });
        replay = Some((e, m));
        rep += 1;

        let eval_until = Instant::now() + Duration::from_secs_f64(ctx.seconds * EVAL_SHARE);
        loop {
            let acc = per_call_eval(&untraced, &mut engine, &mut model, &test_ds, &mut eval_ms)?;
            out.attempted += eval_batches;
            out.check(acc.to_bits() == accuracy.to_bits(), || {
                format!("train: per-call evaluation {acc} differs from evaluate_sc {accuracy}")
            });
            if Instant::now() >= eval_until {
                break;
            }
        }
    }
    let step = med(&step_ms, "training step")?;
    out.put("images_per_s", BATCH as f64 * 1e3 / step);
    out.put("p50_ms", med(&eval_ms, "evaluation batch")?);

    let (x, _) = test_ds.batch(0, BATCH);
    let logits = engine
        .forward(&mut model, &x, false)
        .map_err(fail("ScEngine::forward"))?;
    live_gate(&mut out, "cnn4 (trained)", &logits);

    // The last replayed model must evaluate the same, traced on a traced
    // run.
    let (mut e, mut m) = replay.ok_or("no per-call training run")?;
    let replay_acc = per_call_eval(&ctx.tracer, &mut e, &mut m, &test_ds, &mut Vec::new())?;
    out.attempted += eval_batches;
    out.check(replay_acc.to_bits() == accuracy.to_bits(), || {
        format!(
            "train: replayed model's evaluation {replay_acc} differs from evaluate_sc {accuracy}"
        )
    });
    let replay_logits = e
        .forward(&mut m, &x, false)
        .map_err(fail("ScEngine::forward"))?;
    out.check(bits_equal(&logits, &replay_logits), || {
        "train: the replayed model's logits differ from train_sc's".to_string()
    });

    if ctx.tracer.enabled() {
        let traced = med(&traced_ms, "traced training step")?;
        out.put("trace.overhead_pct", 100.0 * (traced / step - 1.0));
        let samples: Vec<Option<f64>> = eval_ms.iter().copied().map(Some).collect();
        out.put("p99_ms", percentile(&samples, 99.0).ok_or("no evaluation")?);
        prepare_layers(ctx, &mut out, &config, &init, &shape, 3)?;
        sc_layers(ctx, &mut out, &config, &init)?;
        let prepared = ScEngine::new(config)
            .and_then(|mut e| e.prepare(&model, &shape))
            .map_err(fail("ScEngine::prepare"))?;
        let (x8, _) = test_ds.batch(0, 8);
        forward_layers(ctx, &mut out, &prepared, &test_ds.image(0), &x8, 30)?;
        exec_layers(ctx, &mut out, &target, &mut model, 3)?;
        closure(
            ctx,
            &mut out,
            &["train.step", "eval.batch", "program.setup"],
        )?;
    }
    Ok(out)
}
