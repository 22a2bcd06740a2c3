//! `paper-scale`: offline batch inference of the paper-scale VGG-16
//! (`vgg16_scaled_cifar`, 78.8M MACs, 3×16×16 inputs).
//!
//! Set-up compiles the model for the accelerator, writes the GEOA artifact
//! and reloads it, then prepares it under program control; the measured
//! phase runs batch-8 forwards. Warm weight resolve dominates set-up here,
//! and the prepared working set is far larger than the host's caches.
//!
//! It runs at GEO-64,128 (a Table I configuration). At GEO-32,64 the
//! Kaiming-initialized 3×3 convs of fan-in 2304 and more round below one
//! stream level at the pooled length 32, so block 3's last conv emits only
//! zeros whatever the batch-norm statistics, and the logits are constant.

use crate::common::{
    bits_equal, calibrate, cifar_like, closure, exec_layers, fail, forward_layers, live_gate, med,
    ms, program_setup, sc_layers, Ctx, Outcome, Target,
};
use crate::stats::percentile;
use crate::trace::Tracer;
use geo_arch::AccelConfig;
use geo_core::{GeoConfig, PreparedModel, ScEngine};
use geo_nn::models::spec;
use geo_nn::Tensor;
use std::hint::black_box;
use std::time::Instant;

const SIZE: usize = 16;
/// Images in the batch-norm calibration batch.
const CALIB: usize = 8;
/// Batch size of the measured forwards.
const BATCH: usize = 8;
/// Set-ups whose median is `setup_s`.
const SETUPS: usize = 3;

/// Runs batch-8 forwards over `batches` until `seconds` pass (at least
/// three); returns the wall time of each, in ms.
fn forward_loop(
    tracer: &Tracer,
    prepared: &PreparedModel,
    batches: &[Tensor],
    seconds: f64,
) -> Result<Vec<f64>, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while times.len() < 3 || Instant::now() < deadline {
        let x = &batches[times.len() % batches.len()];
        let group = times.len() as u64;
        let start = Instant::now();
        let y = tracer.span("paper.batch", None, group, |id| {
            tracer.span("engine.forward.b8", id, group, |_| prepared.forward(x))
        });
        black_box(y.map_err(fail("PreparedModel::forward"))?);
        times.push(ms(start.elapsed()));
    }
    Ok(times)
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates compiler, artifact, engine and file errors.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let target = Target {
        name: "vgg16-scaled",
        config: GeoConfig::geo(64, 128),
        accel: AccelConfig::ulp_geo(64, 128),
        shape: [1, 3, SIZE, SIZE],
    };
    let config = target.config;
    let shape = target.shape;
    let (calib, images) = cifar_like(ctx.seed, SIZE, CALIB, 2 * BATCH);
    let batches = [images.batch(0, BATCH).0, images.batch(BATCH, BATCH).0];
    let mut model = spec::vgg16_scaled_cifar()
        .build(ctx.seed)
        .map_err(|e| format!("vgg16_scaled_cifar: {e}"))?;
    calibrate(&config, &mut model, &calib.images)?;
    let tracer = &ctx.tracer;

    // Output check on the first set-up: the artifact-loaded program's
    // prepared model must match a direct ScEngine::prepare bit for bit.
    // Only one prepared model is alive at a time.
    let mut setups = Vec::with_capacity(SETUPS);
    let start = Instant::now();
    let first = program_setup(tracer, 0, &target, &mut model)?;
    setups.push(start.elapsed().as_secs_f64());
    let via_artifact = first
        .forward(&batches[0])
        .map_err(fail("PreparedModel::forward"))?;
    drop(first);
    live_gate(&mut out, "vgg16_scaled_cifar", &via_artifact);
    let mut engine = ScEngine::new(config).map_err(fail("ScEngine::new"))?;
    let start = Instant::now();
    let direct = tracer
        .span("engine.prepare_cold", None, 0, |_| {
            engine.prepare(&model, &shape)
        })
        .map_err(fail("ScEngine::prepare"))?;
    let cold_ms = ms(start.elapsed());
    let direct_out = direct
        .forward(&batches[0])
        .map_err(fail("PreparedModel::forward"))?;
    drop(direct);
    out.check(bits_equal(&via_artifact, &direct_out), || {
        "paper-scale: artifact-loaded ProgramExecutor::prepare differs from ScEngine::prepare"
            .to_string()
    });
    if tracer.enabled() {
        let start = Instant::now();
        let warm = tracer
            .span("engine.prepare_warm", None, 0, |_| {
                engine.prepare(&model, &shape)
            })
            .map_err(fail("ScEngine::prepare"))?;
        let warm_ms = ms(start.elapsed());
        drop(warm);
        out.put("engine.prepare_cold_ms", cold_ms);
        out.put("engine.prepare_warm_ms", warm_ms);
        out.put("tables.build_ms", cold_ms - warm_ms);
    }
    drop(engine);

    let mut kept = None;
    for group in 1..SETUPS as u64 {
        drop(kept.take()); // one prepared model alive at a time
        let start = Instant::now();
        kept = Some(program_setup(tracer, group, &target, &mut model)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let prepared = kept.ok_or("no set-up kept")?;
    out.put("setup_s", med(&setups, "setup")?);
    out.attempted += SETUPS as u64;

    let seconds = if tracer.enabled() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let times = forward_loop(tracer, &prepared, &batches, seconds)?;
    out.attempted += times.len() as u64;
    let p50 = med(&times, "forward")?;
    out.put("p50_ms", p50);
    out.put("images_per_s", BATCH as f64 * 1e3 / p50);

    if tracer.enabled() {
        let plain = forward_loop(&Tracer::new(false), &prepared, &batches, seconds)?;
        out.attempted += plain.len() as u64;
        out.put(
            "trace.overhead_pct",
            100.0 * (p50 / med(&plain, "forward")? - 1.0),
        );
        let samples: Vec<Option<f64>> = plain.iter().copied().map(Some).collect();
        out.put("p99_ms", percentile(&samples, 99.0).ok_or("no forwards")?);
        closure(ctx, &mut out, &["program.setup", "paper.batch"])?;
        exec_layers(ctx, &mut out, &target, &mut model, 0)?;
        sc_layers(ctx, &mut out, &config, &model)?;
        let x1 = images.image(0);
        forward_layers(ctx, &mut out, &prepared, &x1, &batches[0], 3)?;
    }
    Ok(out)
}
