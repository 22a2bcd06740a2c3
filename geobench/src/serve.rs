//! `serve`: open-loop single-image serving of the calibrated VGG-16
//! thumbnail behind an `ScServer` with the default `ServeConfig`.
//!
//! One thread submits requests on a fixed schedule and one collects the
//! answers, at two absolute rates: `LOW_RPS`, where requests run alone,
//! and `HIGH_RPS`, where the server fuses a few requests per batch without
//! overflowing its queue. A closed loop then keeps batches full. Latency
//! runs from each request's *due* time, so a generator that falls behind
//! is charged for it; a refused or failed request counts as infinitely
//! slow.
//!
//! The measured time is split into `ROUNDS` rounds of (low, high, closed
//! loop), and each figure is the median over rounds, so every phase samples
//! the whole run and one stretch of a noisy host decides none of them. The
//! high rate's figures are diagnostics that only traced runs print, so
//! untraced runs give its share of each round to the closed loop.

use crate::common::{
    bits_equal, calibrate, cifar_like, closure, exec_layers, fail, forward_layers, live_gate, med,
    ms, prepare_layers, sc_layers, Ctx, Outcome, Target,
};
use crate::stats::{mean, percentile, Sample};
use crate::trace::Tracer;
use geo_arch::AccelConfig;
use geo_core::{GeoConfig, GeoError, Pending, ScEngine, ScServer, ServeConfig, ServeResponse};
use geo_nn::{models, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate of the `low` phase, in requests per second.
pub const LOW_RPS: u32 = 100;
/// Offered rate of the `high` phase, in requests per second.
pub const HIGH_RPS: u32 = 200;
/// Distinct request images; each request picks one at random.
const POOL: usize = 64;
/// Images in the batch-norm calibration batch.
const CALIB: usize = 16;
/// Cold prepares whose median is `setup_s`.
const SETUPS: usize = 11;
/// Requests kept in flight by the closed loop: two full batches.
const WINDOW: usize = 16;
/// Rounds of (low, high, closed loop): with 20 s measured, each round
/// sends 100 requests at the low rate and runs the closed loop for 3 s
/// (untraced), or sends 100 at the low rate, 240 at the high rate and
/// runs the closed loop for 1.8 s (traced).
const ROUNDS: usize = 5;
/// Share of each round spent at the low rate. Its p50 settles on a few
/// hundred requests, while the closed loop's rate follows the host's
/// speed from second to second and needs the longer sample.
const LOW_SHARE: f64 = 0.25;
/// Share of each round spent at the high rate on a traced run.
const HIGH_SHARE: f64 = 0.3;
/// Slices of each closed-loop phase whose answer rates are medianed.
const RATE_SLICES: usize = 4;

/// Due time of request `i` of a phase sending `rps` requests per second,
/// measured from the phase start.
pub fn due_offset(i: u64, rps: u32) -> Duration {
    Duration::from_nanos(i * 1_000_000_000 / u64::from(rps))
}

/// Requests a phase of `seconds` sends at `rps` (at least one).
pub fn request_count(seconds: f64, rps: u32) -> usize {
    (seconds * f64::from(rps)).round().max(1.0) as usize
}

/// The request images and the unbatched output each must produce.
struct Pool {
    inputs: Vec<Tensor>,
    expected: Vec<Tensor>,
}

/// One request as the collector saw it.
struct Record {
    /// Due-to-answer time in ms; `None` when refused or failed.
    latency: Sample,
    /// Queue-to-completion time reported by the server, in ms.
    service: Option<f64>,
    /// How late the generator submitted it, in ms.
    gen_lag: f64,
    /// Requests fused into its forward pass.
    batch: usize,
    /// The answer differed from the unbatched forward.
    mismatch: bool,
}

/// Records one answered (or refused) request and its spans.
fn settle(
    tracer: &Tracer,
    pool: &Pool,
    pick: usize,
    id: u64,
    due: Instant,
    sent: Instant,
    result: Result<ServeResponse, GeoError>,
) -> Record {
    let done = Instant::now();
    let gen_lag = ms(sent.saturating_duration_since(due));
    match result {
        Ok(resp) => {
            let root = tracer.record("serve.request", None, id, due, done);
            tracer.record("serve.gen_lag", root, id, due, sent);
            tracer.record("serve.server", root, id, sent, sent + resp.latency);
            Record {
                latency: Some(ms(done.duration_since(due))),
                service: Some(ms(resp.latency)),
                gen_lag,
                batch: resp.batch,
                mismatch: !bits_equal(&resp.output, &pool.expected[pick]),
            }
        }
        Err(e) => {
            eprintln!("serve: request {id} failed: {e}");
            Record {
                latency: None,
                service: None,
                gen_lag,
                batch: 0,
                mismatch: false,
            }
        }
    }
}

/// Sends `picks` on a fixed schedule of `rps` from one thread and collects
/// the answers on this one.
fn open_loop(
    tracer: &Tracer,
    server: &ScServer,
    pool: &Pool,
    picks: &[usize],
    rps: u32,
    first_id: u64,
) -> Vec<Record> {
    type Sent = (usize, Instant, Instant, Result<Pending, GeoError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    thread::scope(|s| {
        s.spawn(move || {
            for (i, &pick) in picks.iter().enumerate() {
                let due = start + due_offset(i as u64, rps);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let sent = Instant::now();
                let pending = server.submit(pool.inputs[pick].clone());
                if tx.send((i, due, sent, pending)).is_err() {
                    break;
                }
            }
        });
        rx.into_iter()
            .map(|(i, due, sent, pending)| {
                let result = pending.and_then(Pending::wait);
                settle(
                    tracer,
                    pool,
                    picks[i],
                    first_id + i as u64,
                    due,
                    sent,
                    result,
                )
            })
            .collect()
    })
}

/// Keeps `WINDOW` requests in flight for `seconds`; returns the records
/// and the requests answered per second in each of `RATE_SLICES` equal
/// slices of the phase.
fn closed_loop(
    tracer: &Tracer,
    server: &ScServer,
    pool: &Pool,
    rng: &mut StdRng,
    seconds: f64,
    first_id: u64,
) -> (Vec<Record>, Vec<f64>) {
    let start = Instant::now();
    let slice = seconds / RATE_SLICES as f64;
    let mut answered = [0usize; RATE_SLICES];
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut next_id = first_id;
    let mut submit = |inflight: &mut VecDeque<_>| {
        let pick = rng.gen_range(0..POOL);
        let sent = Instant::now();
        inflight.push_back((
            pick,
            next_id,
            sent,
            server.submit(pool.inputs[pick].clone()),
        ));
        next_id += 1;
    };
    while inflight.len() < WINDOW {
        submit(&mut inflight);
    }
    let mut records = Vec::new();
    while let Some((pick, id, sent, pending)) = inflight.pop_front() {
        let result = pending.and_then(Pending::wait);
        let ok = result.is_ok();
        records.push(settle(tracer, pool, pick, id, sent, sent, result));
        let at = (start.elapsed().as_secs_f64() / slice) as usize;
        if let Some(n) = answered.get_mut(at) {
            *n += usize::from(ok);
            submit(&mut inflight);
        }
    }
    let rates = answered.iter().map(|&n| n as f64 / slice).collect();
    (records, rates)
}

fn latencies(records: &[Record]) -> Vec<Sample> {
    records.iter().map(|r| r.latency).collect()
}

/// A latency that landed on a failure (+∞), printed as the largest finite
/// number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// Puts the `pN` of `samples` pooled over the whole phase.
fn put_percentile(out: &mut Outcome, name: &'static str, samples: &[Sample], p: f64) {
    out.put(
        name,
        finite(percentile(samples, p).unwrap_or(f64::INFINITY)),
    );
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates engine and server errors.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let target = Target {
        name: "vgg16-thumbnail",
        config: GeoConfig::geo(32, 64),
        accel: AccelConfig::ulp_geo(32, 64),
        shape: [1, 3, 8, 8],
    };
    let config = target.config;
    let shape = target.shape;
    let (calib, test) = cifar_like(ctx.seed, 8, CALIB, POOL);
    let mut model = models::vgg16_small(3, 8, 10, ctx.seed);
    calibrate(&config, &mut model, &calib.images)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let start = Instant::now();
        let mut engine = ScEngine::new(config).map_err(fail("ScEngine::new"))?;
        let p = engine
            .prepare(&model, &shape)
            .map_err(fail("ScEngine::prepare"))?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = Arc::new(prepared.ok_or("no setup ran")?);
    out.put("setup_s", med(&setups, "setup")?);

    let inputs: Vec<Tensor> = (0..POOL).map(|i| test.image(i)).collect();
    let expected = inputs
        .iter()
        .map(|x| prepared.forward(x))
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("PreparedModel::forward"))?;
    let pool = Pool { inputs, expected };
    let (batch8, _) = test.batch(0, 8);
    let logits = prepared
        .forward(&batch8)
        .map_err(fail("PreparedModel::forward"))?;
    live_gate(&mut out, "vgg16 thumbnail", &logits);

    let server = ScServer::spawn(Arc::clone(&prepared), ServeConfig::default())
        .map_err(fail("ScServer::spawn"))?;
    for x in pool.inputs.iter().take(32) {
        server.infer(x.clone()).map_err(fail("ScServer::infer"))?;
    }
    let tracer = &ctx.tracer;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let round = ctx.seconds / ROUNDS as f64;
    let (mut low, mut high, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut low_p50, mut high_p50, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_id = 0u64;
    let high_share = if tracer.enabled() { HIGH_SHARE } else { 0.0 };
    for _ in 0..ROUNDS {
        for (rps, share, records, p50s) in [
            (LOW_RPS, LOW_SHARE, &mut low, &mut low_p50),
            (HIGH_RPS, high_share, &mut high, &mut high_p50),
        ] {
            if share == 0.0 {
                continue;
            }
            let picks: Vec<usize> = (0..request_count(round * share, rps))
                .map(|_| rng.gen_range(0..POOL))
                .collect();
            let phase = open_loop(tracer, &server, &pool, &picks, rps, next_id);
            next_id += phase.len() as u64;
            p50s.push(percentile(&latencies(&phase), 50.0).unwrap_or(f64::INFINITY));
            records.extend(phase);
        }
        let closed = round * (1.0 - LOW_SHARE - high_share);
        let (phase, slice_rates) = closed_loop(tracer, &server, &pool, &mut rng, closed, next_id);
        next_id += phase.len() as u64;
        sat.extend(phase);
        rates.extend(slice_rates);
    }
    let saturated_rps = med(&rates, "closed-loop rate")?;

    // Tracing overhead: the closed loop again, without spans.
    let plain = tracer.enabled().then(|| {
        let untraced = Tracer::new(false);
        closed_loop(
            &untraced,
            &server,
            &pool,
            &mut rng,
            ctx.seconds * 0.25,
            next_id,
        )
    });
    server.shutdown().map_err(fail("ScServer::shutdown"))?;

    out.put("p50_ms", finite(med(&low_p50, "low-rate p50")?));
    out.put("images_per_s", saturated_rps);

    let extra = plain.as_ref().map_or(&[][..], |(records, _)| records);
    let all: Vec<&Record> = low.iter().chain(&high).chain(&sat).chain(extra).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|r| r.latency.is_none()).count() as u64;
    let mismatched = all.iter().filter(|r| r.mismatch).count();
    out.check(mismatched == 0, || {
        format!("serve: {mismatched} responses differ from an unbatched PreparedModel::forward")
    });

    if let Some((_, plain_rates)) = plain {
        let plain_rps = med(&plain_rates, "closed-loop rate")?;
        serve_diagnostics(&low, &high, med(&high_p50, "high-rate p50")?);
        put_percentile(&mut out, "p99_ms", &latencies(&low), 99.0);
        out.put(
            "trace.overhead_pct",
            100.0 * (plain_rps / saturated_rps - 1.0),
        );

        prepare_layers(ctx, &mut out, &config, &model, &shape, 3)?;
        sc_layers(ctx, &mut out, &config, &model)?;
        forward_layers(ctx, &mut out, &prepared, &pool.inputs[0], &batch8, 30)?;
        exec_layers(ctx, &mut out, &target, &mut model, 3)?;
        closure(ctx, &mut out, &["serve.request", "program.setup"])?;
    }
    Ok(out)
}

/// Prints the serve loop's own figures from the open-loop phases: the
/// high rate's p50 (median over rounds), p99 from due time, fused batch
/// size, server-side latency and generator lateness.
fn serve_diagnostics(low: &[Record], high: &[Record], high_p50: f64) {
    let p = |samples: &[Sample], q: f64| finite(percentile(samples, q).unwrap_or(f64::INFINITY));
    let open: Vec<&Record> = low.iter().chain(high).collect();
    let service: Vec<Sample> = open.iter().map(|r| r.service).collect();
    let lag: Vec<Sample> = open.iter().map(|r| Some(r.gen_lag)).collect();
    let batches: Vec<f64> = high
        .iter()
        .filter(|r| r.latency.is_some())
        .map(|r| r.batch as f64)
        .collect();
    eprintln!(
        "serve: at {HIGH_RPS} req/s p50 {:.3} ms, p99 {:.3} ms, fused batch mean {:.3}; \
         at {LOW_RPS} req/s p99 {:.3} ms; server latency p50 {:.3} ms, p99 {:.3} ms; \
         generator lag p99 {:.3} ms",
        finite(high_p50),
        p(&latencies(high), 99.0),
        mean(&batches).unwrap_or(0.0),
        p(&latencies(low), 99.0),
        p(&service, 50.0),
        p(&service, 99.0),
        p(&lag, 99.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_evenly_spaced_and_absolute() {
        assert_eq!(due_offset(0, LOW_RPS), Duration::ZERO);
        assert_eq!(due_offset(1, LOW_RPS), Duration::from_millis(10));
        assert_eq!(due_offset(3, HIGH_RPS), Duration::from_millis(15));
        // Due times depend only on the index, never on when earlier
        // requests were answered: request 1000 at 100 req/s is due at 10 s.
        assert_eq!(due_offset(1000, LOW_RPS), Duration::from_secs(10));
        assert_eq!(request_count(10.0, LOW_RPS), 1000);
        assert_eq!(request_count(0.0, HIGH_RPS), 1);
    }

    #[test]
    fn refused_requests_are_charged_as_misses() {
        let records = [Some(2.0), None, Some(3.0)]
            .into_iter()
            .map(|latency| Record {
                latency,
                service: latency,
                gen_lag: 0.0,
                batch: 1,
                mismatch: false,
            })
            .collect::<Vec<_>>();
        let mut out = Outcome::default();
        put_percentile(&mut out, "p99", &latencies(&records), 99.0);
        put_percentile(&mut out, "p50", &latencies(&records), 50.0);
        assert_eq!(out.metrics, vec![("p99", f64::MAX), ("p50", 3.0)]);
    }
}
