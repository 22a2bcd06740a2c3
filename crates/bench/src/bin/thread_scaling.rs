//! Thread-scaling benchmark for the engine's resolve/compute split:
//! LeNet-5 forward-pass wall clock at 1, 2, 4, … worker threads, with the
//! outputs of every thread count asserted bit-identical to serial before
//! any timing is reported.
//!
//! Thread counts come from `ThreadPool::install`, so the sweep is
//! self-contained; `RAYON_NUM_THREADS` still governs runs outside the
//! sweep (see DESIGN.md §"Resolve/compute pipeline").
//!
//! Besides the human-readable table, the sweep lands in
//! `results/thread_scaling.json` in the same `geo-perf-trajectory-v1`
//! schema as `BENCH_forward.json`: one cell per thread count, with
//! `ms_before` the serial wall clock and `ms_after` that count's. A
//! `--quick` sweep writes the git-ignored
//! `results/thread_scaling_quick.json` instead, so a smoke check leaves
//! the tracked full sweep alone.
//!
//! Run: `cargo run --release -p geo-bench --bin thread_scaling [-- --quick]`

use geo_bench::runs::Scale;
use geo_bench::trajectory::{Cell, Report};
use geo_core::{GeoConfig, ScEngine};
use geo_nn::{models, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::process::ExitCode;
use std::time::Instant;

/// Thread counts swept, clamped to sensible values on small hosts but
/// always including an oversubscribed point to prove identity holds there.
const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

fn forward_pass(model: &Sequential, config: GeoConfig, x: &Tensor) -> Vec<f32> {
    let mut model = model.clone();
    let mut engine = ScEngine::new(config).expect("valid experiment config");
    engine
        .forward(&mut model, x, false)
        .expect("forward succeeds")
        .data()
        .to_vec()
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let (batch, size, reps) = match scale {
        Scale::Quick => (2usize, 8usize, 1usize),
        Scale::Full => (8, 16, 3),
    };
    let config = GeoConfig::geo(32, 64);
    let model = models::lenet5(1, size, 10, 7);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let x = Tensor::kaiming(&[batch, 1, size, size], size, &mut rng).map(|v| v.abs().min(1.0));

    println!(
        "thread-scaling: lenet5 size={size} batch={batch} streams={}/{} reps={reps}",
        config.stream_len_pooled, config.stream_len
    );
    println!("host parallelism: {}", rayon::current_num_threads());
    println!(
        "{:>8} {:>12} {:>9} {:>10}",
        "threads", "time", "speedup", "identical"
    );

    let mut cells = Vec::new();
    let mut serial: Option<(Vec<f32>, f64)> = None;
    for threads in THREADS {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction");
        // Warm-up pass (table construction, page faults), then timed reps.
        let out = pool.install(|| forward_pass(&model, config, &x));
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let timed = pool.install(|| forward_pass(&model, config, &x));
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(timed.len(), out.len(), "output shape varies across reps");
        }
        let identical = match &serial {
            None => {
                serial = Some((out, best));
                true
            }
            Some((reference, _)) => {
                reference.len() == out.len()
                    && reference
                        .iter()
                        .zip(&out)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
        };
        assert!(
            identical,
            "{threads}-thread output diverged from serial — the resolve/compute contract is broken"
        );
        let speedup = serial.as_ref().map(|(_, t1)| t1 / best).unwrap_or(1.0);
        println!(
            "{threads:>8} {:>10.1}ms {speedup:>8.2}x {identical:>10}",
            best * 1e3
        );
        let serial_ms = serial
            .as_ref()
            .map(|(_, t1)| t1 * 1e3)
            .unwrap_or(best * 1e3);
        cells.push(Cell {
            model: "lenet5".to_string(),
            accumulation: format!("{:?}", config.accumulation),
            progressive: config.progressive,
            threads,
            ms_before: serial_ms,
            ms_after: best * 1e3,
            speedup,
            identical,
        });
    }
    println!("BIT_IDENTICAL_ACROSS_ALL_THREAD_COUNTS");

    let (scale, path) = match scale {
        Scale::Quick => ("quick", "results/thread_scaling_quick.json"),
        Scale::Full => ("full", "results/thread_scaling.json"),
    };
    let report = Report {
        bench: "thread_scaling".to_string(),
        threads: rayon::current_num_threads(),
        scale: scale.to_string(),
        cells,
        runs: Vec::new(),
    };
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("thread_scaling: cannot create results/: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = report.write(path) {
        eprintln!("thread_scaling: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("Sweep written to {path}");
    ExitCode::SUCCESS
}
