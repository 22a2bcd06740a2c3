//! The GEO reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path geobench/Cargo.toml -- \
//!     --workload <serve|train|paper-scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input is derived from `--seed`.
//! Output checks run first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric (from spans
//! recorded around each library call) with `--trace 1`. A
//! traced run also writes its spans to `geobench/out/`. See
//! `geobench/README.md` for the workloads, metrics and layer map.

mod common;
mod paper;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;
mod workload;

use common::{peak_rss_mb, Ctx, Outcome};
use spec::BenchSpec;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::{layer_totals, Tracer};
use workload::{Metric, Workload, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every metric the run owes, with its declared unit.
fn result_line(spec: &BenchSpec, trace: bool, out: &Outcome) -> Result<String, String> {
    let owed: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, _)) in owed.iter().enumerate() {
        let declared = spec
            .metric(name)
            .ok_or_else(|| format!("{name} is not declared in BENCHMARK.json"))?;
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("the run measured no {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} = {value} is not a number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            geo_bench::json::quote(name),
            geo_bench::json::quote(&declared.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.mismatches.is_empty(),
        out.attempted.max(1),
        out.failed
    ))
}

/// Engine worker threads when `RAYON_NUM_THREADS` is unset: one fewer
/// than the cores, at least one.
///
/// Every parallel layer waits for its slowest worker, and a shared virtual
/// machine rarely gets all of its cores at once: with as many workers as
/// cores, a core taken by the hypervisor stalls every layer. On a 2-vCPU
/// host the serve loop's closed-loop rate then swung between 760 and 1590
/// req/s from run to run (p50 1.8 to 3.7 ms), against 1120 to 1300 req/s
/// (p50 1.40 to 1.45 ms) with one worker.
fn engine_threads(cores: usize) -> usize {
    cores.saturating_sub(1).max(1)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Set before any thread starts; the rayon shim reads it per call,
        // also on the server's dispatcher thread.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        std::env::set_var("RAYON_NUM_THREADS", engine_threads(cores).to_string());
    }
    let spec = BenchSpec::load("BENCHMARK.json")?;
    let w = args.workload;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    eprintln!(
        "geobench: workload {} seed {} seconds {} trace {} threads {} (available {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let ticks_before = common::cpu_ticks();
    let mut out = w.run(&ctx)?;
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, common::cpu_ticks()) {
        let steal = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!("host: {steal:.1}% of CPU time stolen by the hypervisor during the run");
    }
    out.put("peak_rss_mb", peak_rss_mb()?);
    out.put("rayon.threads", rayon::current_num_threads() as f64);
    for m in &out.mismatches {
        eprintln!("output check failed: {m}");
    }
    if args.trace {
        let dir = common::OUT_DIR;
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/trace-{}-seed{}.json", w.name(), args.seed);
        std::fs::write(&path, ctx.tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("spans written to {path}; self time by layer:");
        for (name, t) in layer_totals(&ctx.tracer.spans()) {
            eprintln!(
                "  {name:<28} {:>7} spans {:>12.3} ms total {:>12.3} ms self",
                t.count, t.total_ms, t.self_ms
            );
        }
    }
    for (name, value) in &out.metrics {
        eprintln!("  {name} = {value}");
    }
    println!("{}", result_line(&spec, args.trace, &out)?);
    Ok(out.mismatches.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("geobench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_takes_workload_seed_seconds_and_trace() {
        let a = parse_args(&argv(
            "--workload paper-scale --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::PaperScale,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload train --seconds 1",
            "--workload train --seed 1 --seconds 0",
            "--workload train --seed 1 --seconds 1 --trace 2",
            "--workload train --seed 1 --seconds",
            "--workload train --seed 1 --seconds 1 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn engine_leaves_a_core_free() {
        assert_eq!(engine_threads(1), 1);
        assert_eq!(engine_threads(2), 1);
        assert_eq!(engine_threads(8), 7);
    }

    #[test]
    fn result_line_prints_every_owed_metric_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let spec = BenchSpec::parse(&text).expect("valid");
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.put(name, 1.5 + i as f64);
        }
        let line = result_line(&spec, false, &out).expect("complete");
        let doc = geo_bench::json::Parser::new(&line)
            .parse_document()
            .expect("one JSON object");
        let top = doc.as_object("result").expect("object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            line.contains("\"p50_ms\": {\"value\": 4.5, \"unit\": \"ms\"}"),
            "{line}"
        );
        // A missing metric or a failed check is never printed as a pass.
        out.metrics.pop();
        assert!(result_line(&spec, false, &out).is_err());
        assert!(result_line(&spec, true, &out).is_err());
    }
}
