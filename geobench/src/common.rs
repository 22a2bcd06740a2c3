//! Pieces every workload shares: run context and outcome, seeded inputs,
//! batch-norm calibration and the live-signal gate, and the per-layer
//! measurements taken the same way on each workload's model.

use crate::stats::median;
use crate::trace::{closure_gap_pct, durations_ms, Tracer};
use geo_arch::{compiler, perfsim, AccelConfig, NetworkDesc};
use geo_core::{GeoConfig, PreparedModel, ProgramExecutor, ScEngine};
use geo_nn::datasets::{generate, Dataset, DatasetSpec};
use geo_nn::{Layer, Sequential, Tensor};
use geo_sc::{Lfsr, ProgressiveSng, StreamTable};
use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a workload run is given.
pub struct Ctx {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Span recorder; disabled on untraced runs.
    pub tracer: Tracer,
}

/// What a workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Maps a library error to a message naming the call that failed.
pub fn fail<E: Display>(call: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{call}: {e}")
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty sample set, or an error naming it.
pub fn med(values: &[f64], what: &str) -> Result<f64, String> {
    median(values).ok_or_else(|| format!("no {what} samples"))
}

/// Bit-for-bit equality of two outputs.
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Synthetic CIFAR-like images (three channels, 10 classes) at `size`,
/// derived from `seed`.
pub fn cifar_like(seed: u64, size: usize, train: usize, test: usize) -> (Dataset, Dataset) {
    let mut spec = DatasetSpec::cifar_like(seed).with_samples(train, test);
    spec.size = size;
    generate(&spec)
}

/// Sets every batch norm's running statistics from one pass of `batch`
/// through the SC datapath, layer by layer.
///
/// Default statistics (mean 0, variance 1) collapse the untrained VGG
/// models' deep SC layers to level 0, so their logits are constant. Each
/// conv/linear layer here runs on the SC datapath exactly as in a full
/// forward (`ScEngine::forward_single_layer`), each batch norm takes the
/// mean and variance of the SC outputs it receives, and ReLU saturates at
/// 1.0 as unipolar streams do.
///
/// # Errors
///
/// Propagates engine and layer errors.
pub fn calibrate(config: &GeoConfig, model: &mut Sequential, batch: &Tensor) -> Result<(), String> {
    let mut engine = ScEngine::new(*config).map_err(fail("ScEngine::new"))?;
    model.set_training(false);
    let mut x = batch.clone();
    for i in 0..model.layers().len() {
        if matches!(model.layers()[i], Layer::Conv2d(_) | Layer::Linear(_)) {
            x = engine
                .forward_single_layer(model, i, &x)
                .map_err(fail("ScEngine::forward_single_layer"))?;
            continue;
        }
        x = match &mut model.layers_mut()[i] {
            Layer::BatchNorm2d(bn) => {
                let (mean, var) = channel_stats(&x)?;
                bn.running_mean.data_mut().copy_from_slice(&mean);
                bn.running_var.data_mut().copy_from_slice(&var);
                bn.forward(&x).map_err(fail("BatchNorm2d::forward"))?
            }
            Layer::Relu(_) => x.map(|v| v.clamp(0.0, 1.0)),
            other => other.forward(&x).map_err(fail("Layer::forward"))?,
        };
    }
    Ok(())
}

/// Per-channel mean and (biased) variance of an `(N, C, H, W)` tensor.
fn channel_stats(x: &Tensor) -> Result<(Vec<f32>, Vec<f32>), String> {
    let &[n, c, h, w] = x.shape() else {
        return Err(format!("batch norm input {:?} is not 4-d", x.shape()));
    };
    let plane = h * w;
    let count = (n * plane) as f64;
    let mut mean = Vec::with_capacity(c);
    let mut var = Vec::with_capacity(c);
    for ci in 0..c {
        let values = (0..n).flat_map(|b| {
            let at = (b * c + ci) * plane;
            x.data()[at..at + plane].iter().map(|&v| f64::from(v))
        });
        let (sum, sq) = values.fold((0.0, 0.0), |(s, q), v| (s + v, q + v * v));
        let m = sum / count;
        mean.push(m as f32);
        var.push((sq / count - m * m).max(0.0) as f32);
    }
    Ok((mean, var))
}

/// Largest difference between any row of `logits` and the first row: 0
/// means the model answers every input the same and carries no signal.
pub fn logit_spread(logits: &Tensor) -> f32 {
    let rows = logits.shape().first().copied().unwrap_or(0);
    let d = logits.data();
    let width = d.len() / rows.max(1);
    d.chunks(width.max(1))
        .flat_map(|row| row.iter().zip(&d[..width]).map(|(a, b)| (a - b).abs()))
        .fold(0.0, f32::max)
}

/// The live-signal gate: fails the run if a model's SC logits are the
/// same for every input of a batch.
pub fn live_gate(out: &mut Outcome, model: &str, logits: &Tensor) {
    let spread = logit_spread(logits);
    eprintln!("live-signal gate: {model} logit spread {spread} across a batch");
    out.check(spread > 0.0, || {
        format!("{model}: SC logits are constant across a batch (no live signal)")
    });
}

/// Peak resident set of this process, in MB.
///
/// # Errors
///
/// Reports an unreadable `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`: time the hypervisor gave the host's CPUs to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Records `sc.table_us` and `sc.progressive_table_us`: one
/// `StreamTable::new`, and one `ProgressiveSng::generate` for each of the
/// 256 operand values, at every stream length `model` runs at under
/// `config`, summed over the lengths (median of five builds each).
///
/// # Errors
///
/// Reports a stream length no LFSR width realizes.
pub fn sc_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    config: &GeoConfig,
    model: &Sequential,
) -> Result<(), String> {
    let mut table_us = 0.0;
    let mut progressive_us = 0.0;
    for len in stream_lens(config, model)? {
        let mut rng = Lfsr::new(GeoConfig::width_for(len), 1).map_err(fail("Lfsr::new"))?;
        let mut t = Vec::with_capacity(5);
        let mut p = Vec::with_capacity(5);
        for _ in 0..5 {
            let start = Instant::now();
            ctx.tracer.span("sc.table", None, len as u64, |_| {
                black_box(StreamTable::new(len, &mut rng));
            });
            t.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            ctx.tracer
                .span("sc.progressive_table", None, len as u64, |_| {
                    for v in 0..=u8::MAX {
                        black_box(ProgressiveSng::new(v).generate(len, &mut rng));
                    }
                });
            p.push(start.elapsed().as_secs_f64() * 1e6);
        }
        table_us += med(&t, "table")?;
        progressive_us += med(&p, "progressive table")?;
    }
    out.put("sc.table_us", table_us);
    out.put("sc.progressive_table_us", progressive_us);
    Ok(())
}

/// The distinct stream lengths `model` runs at under `config`.
fn stream_lens(config: &GeoConfig, model: &Sequential) -> Result<Vec<usize>, String> {
    let engine = ScEngine::new(*config).map_err(fail("ScEngine::new"))?;
    let mut lens: Vec<usize> = engine.stream_plan(model).into_iter().flatten().collect();
    lens.sort_unstable();
    lens.dedup();
    Ok(lens)
}

/// Records `engine.prepare_cold_ms`, `engine.prepare_warm_ms` and
/// `tables.build_ms` (cold minus warm on one engine) as medians of `reps`
/// fresh engines.
///
/// # Errors
///
/// Propagates engine errors.
pub fn prepare_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    config: &GeoConfig,
    model: &Sequential,
    shape: &[usize],
    reps: usize,
) -> Result<(), String> {
    let (mut cold, mut warm, mut tables) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..reps {
        let mut engine = ScEngine::new(*config).map_err(fail("ScEngine::new"))?;
        let mut timed = |name: &'static str| -> Result<f64, String> {
            let start = Instant::now();
            let prepared = ctx
                .tracer
                .span(name, None, r as u64, |_| engine.prepare(model, shape))
                .map_err(fail("ScEngine::prepare"))?;
            let t = ms(start.elapsed());
            drop(black_box(prepared));
            Ok(t)
        };
        let c = timed("engine.prepare_cold")?;
        let w = timed("engine.prepare_warm")?;
        cold.push(c);
        warm.push(w);
        tables.push(c - w);
    }
    out.put("engine.prepare_cold_ms", med(&cold, "cold prepare")?);
    out.put("engine.prepare_warm_ms", med(&warm, "warm prepare")?);
    out.put("tables.build_ms", med(&tables, "table build")?);
    Ok(())
}

/// Records `engine.forward_ms.b1`, `engine.forward_ms.b8` (at the run's
/// engine thread count) and `rayon.b1_overhead_ms` (batch-1 forward on
/// every core minus the same forward on one thread, both through
/// `ThreadPool::install`), medians of `reps` calls.
///
/// # Errors
///
/// Propagates engine errors.
pub fn forward_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    prepared: &PreparedModel,
    x1: &Tensor,
    x8: &Tensor,
    reps: usize,
) -> Result<(), String> {
    let timed = |name: &'static str, x: &Tensor| -> Result<Vec<f64>, String> {
        (0..reps)
            .map(|r| {
                let start = Instant::now();
                let y = ctx
                    .tracer
                    .span(name, None, r as u64, |_| prepared.forward(x))
                    .map_err(fail("PreparedModel::forward"))?;
                black_box(y);
                Ok(ms(start.elapsed()))
            })
            .collect()
    };
    let b1 = med(&timed("engine.forward.b1", x1)?, "b1 forward")?;
    let b8 = med(&timed("engine.forward.b8", x8)?, "b8 forward")?;
    let pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|_| format!("rayon: cannot build a {threads}-thread pool"))
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let b1_all = pool(cores)?.install(|| timed("engine.forward.b1_all_cores", x1))?;
    let b1_serial = pool(1)?.install(|| timed("engine.forward.b1_serial", x1))?;
    out.put("engine.forward_ms.b1", b1);
    out.put("engine.forward_ms.b8", b8);
    out.put(
        "rayon.b1_overhead_ms",
        med(&b1_all, "all-core b1 forward")? - med(&b1_serial, "serial b1 forward")?,
    );
    Ok(())
}

/// What a workload's model is compiled for: the engine configuration, the
/// accelerator design point and the input shape.
pub struct Target {
    /// Network name, also the artifact's file name.
    pub name: &'static str,
    /// Engine configuration.
    pub config: GeoConfig,
    /// Accelerator the program is compiled for.
    pub accel: AccelConfig,
    /// Shape of one input, `[1, c, h, w]`.
    pub shape: [usize; 4],
}

impl Target {
    fn input(&self) -> (usize, usize, usize) {
        (self.shape[1], self.shape[2], self.shape[3])
    }

    /// Where the GEOA artifact is written and read back, inside the
    /// benchmark's ignored output directory.
    fn artifact(&self) -> String {
        format!("{OUT_DIR}/{}.geoa", self.name)
    }
}

/// The benchmark's output directory (spans, artifacts), ignored by git.
pub const OUT_DIR: &str = "geobench/out";

/// One set-up under program control: compile `model` for the target's
/// accelerator, write the GEOA artifact and reload it
/// (`ProgramExecutor::from_artifact`), then `ProgramExecutor::prepare`;
/// one span per step under a `program.setup` span.
///
/// # Errors
///
/// Propagates compiler, artifact, engine and file errors.
pub fn program_setup(
    tracer: &Tracer,
    group: u64,
    target: &Target,
    model: &mut Sequential,
) -> Result<PreparedModel, String> {
    let path = target.artifact();
    std::fs::create_dir_all(OUT_DIR).map_err(fail("create output directory"))?;
    tracer.span("program.setup", None, group, |id| {
        let exec = tracer.span("arch.compile", id, group, |_| {
            let net = NetworkDesc::from_model(target.name, model, target.input());
            let program = compiler::compile(&net, &target.accel);
            ProgramExecutor::new(target.config, &net, program).map_err(fail("ProgramExecutor::new"))
        })?;
        tracer.span("arch.artifact_write", id, group, |_| {
            let bytes = exec
                .to_artifact()
                .map_err(fail("ProgramExecutor::to_artifact"))?;
            std::fs::write(&path, bytes).map_err(fail("write artifact"))
        })?;
        drop(exec);
        let mut exec = tracer.span("exec.load", id, group, |_| {
            let bytes = std::fs::read(&path).map_err(fail("read artifact"))?;
            let net = NetworkDesc::from_model(target.name, model, target.input());
            ProgramExecutor::from_artifact(target.config, &net, &bytes)
                .map_err(fail("ProgramExecutor::from_artifact"))
        })?;
        tracer
            .span("exec.prepare", id, group, |_| {
                exec.prepare(model, &target.shape)
            })
            .map_err(fail("ProgramExecutor::prepare"))
    })
}

/// Records `arch.compile_ms`, `exec.load_ms` and `exec.prepare_ms` (span
/// medians over every program set-up of the run, after `reps` more),
/// `arch.artifact_bytes` and `arch.sim_cycles`: the accelerator cycles
/// perfsim models for one frame, exact and never mixed with host time.
///
/// # Errors
///
/// Propagates set-up errors; reports a run with no program set-up.
pub fn exec_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    target: &Target,
    model: &mut Sequential,
    reps: usize,
) -> Result<(), String> {
    for r in 0..reps {
        drop(program_setup(&ctx.tracer, r as u64, target, model)?);
    }
    out.put("arch.compile_ms", span_median(ctx, "arch.compile")?);
    out.put("exec.load_ms", span_median(ctx, "exec.load")?);
    out.put("exec.prepare_ms", span_median(ctx, "exec.prepare")?);
    let path = target.artifact();
    let bytes = std::fs::metadata(&path).map_err(fail("artifact"))?.len();
    out.put("arch.artifact_bytes", bytes as f64);
    let net = NetworkDesc::from_model(target.name, model, target.input());
    let sim = perfsim::simulate(&target.accel, &compiler::compile(&net, &target.accel));
    out.put("arch.sim_cycles", sim.cycles as f64);
    Ok(())
}

/// Largest closure gap (see [`closure_gap_pct`]) the traced run accepts,
/// in percent of the end-to-end time.
pub const CLOSURE_TOLERANCE_PCT: f64 = 5.0;

/// Puts `trace.closure_gap_pct`, the largest closure gap over the blocking
/// paths rooted at `roots`, and fails the run if it exceeds
/// [`CLOSURE_TOLERANCE_PCT`].
///
/// # Errors
///
/// Reports a root that was never recorded.
pub fn closure(ctx: &Ctx, out: &mut Outcome, roots: &[&str]) -> Result<(), String> {
    let spans = ctx.tracer.spans();
    let mut worst = 0.0f64;
    for root in roots {
        let gap = closure_gap_pct(&spans, root).ok_or_else(|| format!("no {root} spans"))?;
        out.check(gap <= CLOSURE_TOLERANCE_PCT, || {
            format!("closure: layer self times miss {gap:.2}% of {root} (tolerance {CLOSURE_TOLERANCE_PCT}%)")
        });
        worst = worst.max(gap);
    }
    out.put("trace.closure_gap_pct", worst);
    Ok(())
}

/// Median duration (ms) of the spans called `name`.
///
/// # Errors
///
/// Reports a span that was never recorded.
pub fn span_median(ctx: &Ctx, name: &str) -> Result<f64, String> {
    med(&durations_ms(&ctx.tracer.spans(), name), name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_detects_constant_logits() {
        let same =
            Tensor::from_vec(vec![3, 2], vec![0.5, -0.25, 0.5, -0.25, 0.5, -0.25]).expect("shape");
        assert_eq!(logit_spread(&same), 0.0);
        let live = Tensor::from_vec(vec![2, 2], vec![0.5, -0.25, 0.5, 0.0]).expect("shape");
        assert_eq!(logit_spread(&live), 0.25);
        let mut out = Outcome::default();
        live_gate(&mut out, "m", &same);
        assert_eq!(out.mismatches.len(), 1);
    }

    #[test]
    fn channel_stats_are_per_channel() {
        // Two images, two channels of 1×2: channel 0 holds 1,3,5,7.
        let x = Tensor::from_vec(
            vec![2, 2, 1, 2],
            vec![1.0, 3.0, 0.0, 0.0, 5.0, 7.0, 2.0, 2.0],
        )
        .expect("shape");
        let (mean, var) = channel_stats(&x).expect("4-d");
        assert_eq!(mean, vec![4.0, 1.0]);
        assert_eq!(var, vec![5.0, 1.0]);
    }
}
