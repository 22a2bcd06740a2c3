//! Batched request serving against a shared [`PreparedModel`].
//!
//! The serve loop is the "serve-many" half of the compile-once,
//! serve-many lifecycle (DESIGN.md §15): [`ScEngine::prepare`] is run
//! once per model × config × fault-model to produce an immutable
//! [`PreparedModel`], and an [`ScServer`] then multiplexes concurrent
//! inference requests against it from a single dispatcher thread.
//!
//! The dispatcher applies *adaptive batching*: it blocks until at least
//! one request is queued, then drains whatever else is already waiting —
//! up to [`ServeConfig::max_batch`] requests — and fuses shape-compatible
//! neighbours into one forward pass. Under light load a request runs
//! alone at the lowest possible latency; under heavy load requests
//! amortize the per-pass overhead across the batch. The submission queue
//! is bounded by [`ServeConfig::queue_depth`]; a full queue rejects new
//! work with [`GeoError::ServeOverflow`] instead of growing without
//! bound.
//!
//! The dispatcher is agnostic to conv→pool fusion (DESIGN.md §16): a
//! `PreparedModel` prepared with `fuse_pooling` on simply carries
//! `ConvPooled`/level-chained steps, and every batched or unbatched
//! request takes the fused path with bit-identical outputs — no serve
//! code dispatches on it.
//!
//! [`ScEngine::prepare`]: crate::ScEngine::prepare
//!
//! # Examples
//!
//! ```
//! use geo_core::{GeoConfig, ScEngine, ScServer, ServeConfig};
//! use geo_nn::{models, Tensor};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), geo_core::GeoError> {
//! let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
//! let mut model = models::lenet5(1, 8, 10, 0);
//! let prepared = Arc::new(engine.prepare(&mut model, &[1, 1, 8, 8])?);
//! let server = ScServer::spawn(prepared, ServeConfig::default())?;
//! let response = server.infer(Tensor::full(&[1, 1, 8, 8], 0.5))?;
//! assert_eq!(response.output.shape(), &[1, 10]);
//! server.shutdown()?;
//! # Ok(())
//! # }
//! ```

use crate::engine::PreparedModel;
use crate::error::GeoError;
use crate::ServeConfig;
use geo_nn::Tensor;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A queued inference request: the input, when it entered the queue, and
/// the channel the dispatcher answers on.
struct Request {
    input: Tensor,
    enqueued: Instant,
    reply: mpsc::Sender<Result<ServeResponse, GeoError>>,
}

/// A completed inference returned by the serve loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The model output for this request's input (first dimension matches
    /// the request's own batch dimension).
    pub output: Tensor,
    /// Queue-to-completion latency: time from submission until the
    /// dispatcher finished this request's forward pass.
    pub latency: Duration,
    /// Number of requests fused into the forward pass that produced this
    /// response (1 when the request ran alone).
    pub batch: usize,
}

/// A handle to one in-flight request, returned by [`ScServer::submit`].
///
/// Dropping a `Pending` abandons the request; the dispatcher still runs
/// it but the result is discarded.
#[must_use = "a Pending must be waited on to observe the response"]
pub struct Pending {
    reply: mpsc::Receiver<Result<ServeResponse, GeoError>>,
}

impl Pending {
    /// Blocks until the dispatcher answers this request.
    ///
    /// # Errors
    ///
    /// Returns the forward pass's own error if inference failed, or
    /// [`GeoError::ServeShutdown`] if the server terminated before
    /// answering.
    pub fn wait(self) -> Result<ServeResponse, GeoError> {
        self.reply.recv().map_err(|_| GeoError::ServeShutdown)?
    }
}

/// A serving loop over an immutable, `Arc`-shared [`PreparedModel`].
///
/// The server owns one dispatcher thread. Any number of client threads
/// may hold a `&ScServer` (or clone the underlying `Arc<PreparedModel>`)
/// and call [`submit`](ScServer::submit) / [`infer`](ScServer::infer)
/// concurrently. See the [module docs](crate::serve) for the batching
/// policy.
pub struct ScServer {
    tx: Option<SyncSender<Request>>,
    handle: Option<JoinHandle<()>>,
    prepared: Arc<PreparedModel>,
    capacity: usize,
}

impl ScServer {
    /// Starts the dispatcher thread for `prepared` with the given
    /// batching configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if `config` fails
    /// [`ServeConfig::validate`], or [`GeoError::Internal`] if the OS
    /// refuses to spawn the dispatcher thread.
    pub fn spawn(prepared: Arc<PreparedModel>, config: ServeConfig) -> Result<Self, GeoError> {
        config.validate()?;
        let (tx, rx) = mpsc::sync_channel::<Request>(config.queue_depth);
        let worker = Arc::clone(&prepared);
        let handle = std::thread::Builder::new()
            .name("geo-serve".into())
            .spawn(move || dispatch(&worker, &rx, config.max_batch))
            .map_err(|e| GeoError::Internal(format!("failed to spawn serve thread: {e}")))?;
        Ok(ScServer {
            tx: Some(tx),
            handle: Some(handle),
            prepared,
            capacity: config.queue_depth,
        })
    }

    /// The prepared model this server executes.
    pub fn prepared(&self) -> &Arc<PreparedModel> {
        &self.prepared
    }

    /// Enqueues one inference request without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::ServeOverflow`] when the submission queue is
    /// full (back-pressure: retry or shed load), or
    /// [`GeoError::ServeShutdown`] if the server has shut down.
    pub fn submit(&self, input: Tensor) -> Result<Pending, GeoError> {
        let tx = self.tx.as_ref().ok_or(GeoError::ServeShutdown)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        let request = Request {
            input,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        match tx.try_send(request) {
            Ok(()) => Ok(Pending { reply: reply_rx }),
            Err(TrySendError::Full(_)) => Err(GeoError::ServeOverflow {
                capacity: self.capacity,
            }),
            Err(TrySendError::Disconnected(_)) => Err(GeoError::ServeShutdown),
        }
    }

    /// Submits one request and blocks until its response.
    ///
    /// # Errors
    ///
    /// Propagates [`submit`](ScServer::submit) and
    /// [`Pending::wait`] errors.
    pub fn infer(&self, input: Tensor) -> Result<ServeResponse, GeoError> {
        self.submit(input)?.wait()
    }

    /// Stops accepting requests, drains the queue, and joins the
    /// dispatcher thread.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::Internal`] if the dispatcher thread panicked.
    pub fn shutdown(mut self) -> Result<(), GeoError> {
        self.tx = None; // closing the channel ends the dispatch loop
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| GeoError::Internal("serve dispatcher panicked".into())),
            None => Ok(()),
        }
    }
}

impl Drop for ScServer {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            // A panic in the dispatcher already answered ServeShutdown to
            // every waiter (their reply senders were dropped); nothing
            // more to surface from Drop.
            let _ = handle.join();
        }
    }
}

/// The dispatcher loop: block for one request, drain up to `max_batch`,
/// fuse shape-compatible neighbours, answer everyone.
fn dispatch(prepared: &PreparedModel, rx: &Receiver<Request>, max_batch: usize) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        // Fuse maximal runs of requests whose non-batch dimensions agree;
        // a shape change ends the run so request order is preserved.
        let mut start = 0;
        while start < batch.len() {
            let tail = batch[start].input.shape().get(1..).map(<[usize]>::to_vec);
            let mut end = start + 1;
            while end < batch.len()
                && batch[end].input.shape().get(1..).map(<[usize]>::to_vec) == tail
            {
                end += 1;
            }
            run_group(prepared, &batch[start..end]);
            start = end;
        }
    }
}

/// Runs one shape-compatible group as a single forward pass and replies
/// to every member. Group errors fan out to all members. Inputs without a
/// batch dimension (0-d tensors) have nothing to concatenate along, so
/// each of them runs alone and gets the engine's own shape error.
fn run_group(prepared: &PreparedModel, group: &[Request]) {
    if group.len() > 1 && group[0].input.shape().is_empty() {
        for req in group {
            run_group(prepared, std::slice::from_ref(req));
        }
        return;
    }
    let result = if group.len() == 1 {
        prepared.forward(&group[0].input).map(|out| vec![out])
    } else {
        forward_fused(prepared, group)
    };
    match result {
        Ok(outputs) => {
            for (req, output) in group.iter().zip(outputs) {
                let response = ServeResponse {
                    output,
                    latency: req.enqueued.elapsed(),
                    batch: group.len(),
                };
                let _ = req.reply.send(Ok(response));
            }
        }
        Err(e) => {
            for req in group {
                let _ = req.reply.send(Err(e.clone()));
            }
        }
    }
}

/// Concatenates a group along the batch dimension, runs one forward, and
/// splits the output back per request.
fn forward_fused(prepared: &PreparedModel, group: &[Request]) -> Result<Vec<Tensor>, GeoError> {
    let first_shape = group[0].input.shape();
    let mut fused_shape = first_shape.to_vec();
    let rows: Vec<usize> = group
        .iter()
        .map(|r| *r.input.shape().first().unwrap_or(&0))
        .collect();
    fused_shape[0] = rows.iter().sum();
    let mut data = Vec::with_capacity(fused_shape.iter().product());
    for req in group {
        data.extend_from_slice(req.input.data());
    }
    let fused = Tensor::from_vec(fused_shape, data).map_err(GeoError::Nn)?;
    let out = prepared.forward(&fused)?;
    split_rows(&out, &rows)
}

/// Splits `out` back into per-request tensors of `rows[i]` leading rows
/// each.
fn split_rows(out: &Tensor, rows: &[usize]) -> Result<Vec<Tensor>, GeoError> {
    let total: usize = rows.iter().sum();
    let out_shape = out.shape();
    if out_shape.first() != Some(&total) {
        return Err(GeoError::Internal(format!(
            "fused forward returned {out_shape:?} for {total} batched rows"
        )));
    }
    let item = out.data().len() / total.max(1);
    let mut pieces = Vec::with_capacity(rows.len());
    let mut offset = 0;
    for &n in rows {
        let mut shape = out_shape.to_vec();
        shape[0] = n;
        let piece = out.data()[offset..offset + n * item].to_vec();
        pieces.push(Tensor::from_vec(shape, piece).map_err(GeoError::Nn)?);
        offset += n * item;
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeoConfig;
    use crate::ScEngine;
    use geo_nn::models;

    fn prepared_lenet() -> Arc<PreparedModel> {
        let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).expect("config");
        let model = models::lenet5(1, 8, 10, 0);
        Arc::new(engine.prepare(&model, &[1, 1, 8, 8]).expect("prepare"))
    }

    #[test]
    fn serve_matches_direct_forward_and_reports_batch() {
        let prepared = prepared_lenet();
        let input = Tensor::full(&[1, 1, 8, 8], 0.4);
        let direct = prepared.forward(&input).expect("direct");
        let server = ScServer::spawn(Arc::clone(&prepared), ServeConfig::default()).expect("spawn");
        let response = server.infer(input).expect("infer");
        assert_eq!(response.output.data(), direct.data());
        assert!(response.batch >= 1);
        assert!(response.latency > Duration::ZERO);
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn fused_group_outputs_split_back_per_request() {
        let prepared = prepared_lenet();
        let server = ScServer::spawn(
            Arc::clone(&prepared),
            ServeConfig::default().with_max_batch(4),
        )
        .expect("spawn");
        let inputs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full(&[1, 1, 8, 8], 0.2 + 0.1 * i as f32))
            .collect();
        let pending: Vec<Pending> = inputs
            .iter()
            .map(|t| server.submit(t.clone()).expect("submit"))
            .collect();
        for (input, p) in inputs.iter().zip(pending) {
            let response = p.wait().expect("wait");
            let direct = prepared.forward(input).expect("direct");
            assert_eq!(response.output.shape(), direct.shape());
            assert_eq!(response.output.data(), direct.data());
        }
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let prepared = prepared_lenet();
        let server = ScServer::spawn(Arc::clone(&prepared), ServeConfig::default()).expect("spawn");
        server.shutdown().expect("shutdown");
        let server = ScServer::spawn(prepared, ServeConfig::default()).expect("respawn");
        drop(server); // Drop also joins cleanly
    }

    #[test]
    fn overflow_reports_queue_capacity() {
        let err = GeoError::ServeOverflow { capacity: 2 };
        assert!(err.to_string().contains("2 requests"));
    }

    #[test]
    fn zero_dim_requests_run_alone_and_get_the_shape_error() {
        // Two 0-d requests drained together share the (absent) non-batch
        // shape; fusing them would index a batch dimension they lack.
        let prepared = prepared_lenet();
        let (reply, replies) = mpsc::channel();
        let group: Vec<Request> = (0..2)
            .map(|_| Request {
                input: Tensor::full(&[], 0.5),
                enqueued: Instant::now(),
                reply: reply.clone(),
            })
            .collect();
        run_group(&prepared, &group);
        drop((group, reply));
        let replies: Vec<_> = replies.iter().collect();
        assert_eq!(replies.len(), 2);
        for r in replies {
            assert!(
                matches!(
                    &r,
                    Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch { actual, .. }))
                        if actual.is_empty()
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn split_rows_rejects_row_mismatch() {
        let out = Tensor::full(&[3, 2], 1.0);
        assert!(split_rows(&out, &[2, 2]).is_err());
        let pieces = split_rows(&out, &[1, 2]).expect("split");
        assert_eq!(pieces[0].shape(), &[1, 2]);
        assert_eq!(pieces[1].shape(), &[2, 2]);
    }
}
