//! Program-driven execution: walking a compiled GEO ISA program through
//! the functional SC datapath.
//!
//! The accelerator model (`geo-arch`) compiles a network into a
//! [`Program`] — the instruction stream its cycle/energy simulator
//! consumes. [`ProgramExecutor`] closes the loop on the functional side:
//! it validates a compiled program against the network it claims to
//! implement (tile coverage, layer correspondence, stream lengths) and
//! then *executes* it, deriving every parametrized layer's stream length
//! from the program's `GEN` instructions instead of re-planning them.
//!
//! Execution dispatches into the same per-layer prepare and step
//! executor as [`ScEngine::forward`] (via the shared length-parameterized
//! forward loop), so program-driven inference and training are
//! **bit-identical to the direct engine path at every thread count** —
//! the contract `crates/core/tests/program_equivalence.rs` and
//! `crates/core/tests/training_equivalence.rs` enforce across all
//! accumulation and generation modes. Accuracy numbers (Table I) and
//! cycle/energy numbers (Tables II–III) therefore come from one compiled
//! program stream, not two independently maintained descriptions.
//!
//! ```text
//!  ModelSpec ──build──▶ Sequential ─┐
//!      │                            ├─▶ ProgramExecutor::forward ──▶ logits
//!      └─lower─▶ NetworkDesc ─compile─▶ Program ──▶ perfsim::simulate ──▶ cycles/energy
//! ```

use crate::config::GeoConfig;
use crate::engine::ScEngine;
use crate::error::GeoError;
use crate::training::top1_accuracy;
use geo_arch::compiler;
use geo_arch::{AccelConfig, Instr, NetworkDesc, Program, ProgramArtifact};
use geo_nn::datasets::Dataset;
use geo_nn::{Layer, Sequential, Tensor};

/// Executes a compiled GEO [`Program`] on the functional SC datapath.
///
/// [`ProgramExecutor::forward`] (inference or SC-in-the-loop training)
/// and [`ProgramExecutor::prepare`] run the engine's own datapath with
/// stream lengths decoded from the program, after one shared check that
/// the live model is the network the program was compiled for.
///
/// # Examples
///
/// ```
/// use geo_arch::AccelConfig;
/// use geo_core::{GeoConfig, ProgramExecutor};
/// use geo_nn::{models, Tensor};
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let mut model = models::lenet5(1, 8, 10, 0);
/// let mut exec = ProgramExecutor::compile(
///     GeoConfig::geo(32, 64),
///     &AccelConfig::ulp_geo(32, 64),
///     &model,
///     (1, 8, 8),
///     "lenet5-thumb",
/// )?;
/// let logits = exec.forward(&mut model, &Tensor::full(&[1, 1, 8, 8], 0.5), false)?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct ProgramExecutor {
    engine: ScEngine,
    program: Program,
    /// The network the program was validated against; `forward` and
    /// `prepare` re-trace the live model against it so a program cannot
    /// silently run a different network of coincidentally equal stream
    /// lengths.
    net: NetworkDesc,
    /// Stream length of each program layer, decoded from its `GEN`
    /// instructions (`cycles / 2` — split-unipolar runs both halves).
    lens: Vec<usize>,
}

impl ProgramExecutor {
    /// Validates `program` against the network it was compiled from and
    /// pairs it with an engine for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if the engine configuration is
    /// unrealizable, if the program's layer structure does not match
    /// `net`, if any layer's `GEN` tiles fail to cover its output volume
    /// exactly (out of bounds, overlapping, or incomplete), or if stream
    /// lengths are inconsistent within a layer.
    pub fn new(config: GeoConfig, net: &NetworkDesc, program: Program) -> Result<Self, GeoError> {
        Self::with_engine(ScEngine::new(config)?, net, program)
    }

    /// As [`ProgramExecutor::new`], but adopts an existing engine — e.g.
    /// one that just ran SC-in-the-loop training, so its per-pass state
    /// (TRNG reseeding counters, resilience tallies) carries over into
    /// program-driven evaluation.
    ///
    /// # Errors
    ///
    /// As [`ProgramExecutor::new`], minus the engine-construction cases.
    pub fn with_engine(
        engine: ScEngine,
        net: &NetworkDesc,
        program: Program,
    ) -> Result<Self, GeoError> {
        let lens = validate_program(&program, net)?;
        Ok(ProgramExecutor {
            engine,
            program,
            net: net.clone(),
            lens,
        })
    }

    /// Compiles `model` (with input shape `input = (C, H, W)`) for
    /// `accel` and wraps the result: the one-stop
    /// model → descriptor → program → executor pipeline.
    ///
    /// # Errors
    ///
    /// As [`ProgramExecutor::new`]; a mismatch here means the compiler and
    /// executor disagree about the schedule, which is a bug worth failing
    /// loudly on.
    pub fn compile(
        config: GeoConfig,
        accel: &AccelConfig,
        model: &Sequential,
        input: (usize, usize, usize),
        name: &str,
    ) -> Result<Self, GeoError> {
        let net = NetworkDesc::from_model(name, model, input);
        let program = compiler::compile(&net, accel);
        Self::new(config, &net, program)
    }

    /// Loads a durable program artifact (see [`geo_arch::artifact`]) and
    /// validates it against `net` **before any compute**: container
    /// integrity (magic, version, per-section checksums), strict operand
    /// decoding, the network fingerprint, and the full semantic
    /// validation of [`ProgramExecutor::new`] (operand ranges, exact tile
    /// coverage) all run at the load boundary.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::Artifact`] for any container-level failure —
    /// truncation, bad magic, version or checksum mismatch, malformed
    /// instruction words, or a fingerprint that does not match `net` —
    /// and [`GeoError::InvalidConfig`] for the semantic cases of
    /// [`ProgramExecutor::new`]. Never panics, whatever `bytes` holds.
    pub fn from_artifact(
        config: GeoConfig,
        net: &NetworkDesc,
        bytes: &[u8],
    ) -> Result<Self, GeoError> {
        let artifact = ProgramArtifact::from_bytes(bytes)?;
        artifact.verify_for(net)?;
        Self::new(config, net, artifact.into_program())
    }

    /// Serializes the executor's validated program as a durable artifact
    /// bound to its network (the inverse of
    /// [`ProgramExecutor::from_artifact`]).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::Artifact`] if the program cannot be encoded —
    /// unreachable for programs that passed construction-time validation.
    pub fn to_artifact(&self) -> Result<Vec<u8>, GeoError> {
        Ok(ProgramArtifact::new(self.program.clone(), &self.net).to_bytes()?)
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The underlying functional engine.
    pub fn engine(&self) -> &ScEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (e.g. to reset its
    /// resilience report).
    pub fn engine_mut(&mut self) -> &mut ScEngine {
        &mut self.engine
    }

    /// Per-layer stream lengths decoded from the program's `GEN`
    /// instructions, in layer order.
    pub fn stream_lens(&self) -> &[usize] {
        &self.lens
    }

    /// Telemetry snapshot of program-driven execution: the engine's
    /// per-layer runtime counters (see [`ScEngine::telemetry_report`])
    /// merged with the compiled program's per-layer ping-pong traffic
    /// from [`geo_arch::perfsim::memory_traffic`]. Program layers and
    /// the engine's parametrized layers are index-aligned (validated at
    /// construction), so the merge is positional.
    ///
    /// The byte counts are static program properties scaled by the pass
    /// count (at least one).
    pub fn telemetry_report(&self) -> crate::telemetry::TelemetryReport {
        let mut report = self.engine.telemetry_report();
        report.source = format!("program:{}", self.program.name);
        let traffic = geo_arch::perfsim::memory_traffic(&self.program);
        if report.layers.len() < traffic.len() {
            report
                .layers
                .resize(traffic.len(), crate::telemetry::LayerTelemetry::default());
        }
        let passes = report.passes.max(1);
        for (layer, t) in report.layers.iter_mut().zip(&traffic) {
            layer.pingpong_bytes = t.pingpong_bytes().saturating_mul(passes);
        }
        report
    }

    /// Runs `model` under program control: each parametrized layer's
    /// stream length comes from the program's `GEN` cycles and is
    /// cross-checked against the engine's own stream plan, then the layer
    /// dispatches into the shared prepare/step datapath.
    ///
    /// Bit-identical to [`ScEngine::forward`] with the same `config` at
    /// every thread count, in training and inference mode alike.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if `model` does not match the
    /// network the program was compiled for (parametrized layer count or
    /// re-traced layer shapes; an input that is neither `[N, C, H, W]`
    /// nor `[N, F]` cannot be traced and is rejected too), or if a
    /// program stream length disagrees with the engine plan (the program
    /// was compiled for different `{sp, s}` lengths); propagates datapath
    /// errors.
    pub fn forward(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
    ) -> Result<Tensor, GeoError> {
        self.check_model(model, input.shape())?;
        let len_for = program_len(&self.program.name, &self.lens);
        self.engine
            .forward_with_lens(model, input, training, len_for)
    }

    /// Resolves `model` once under program control into an immutable
    /// [`PreparedModel`](crate::PreparedModel) — the program-path
    /// analogue of [`ScEngine::prepare`]. The model check and the
    /// program-decoded stream lengths are exactly
    /// [`ProgramExecutor::forward`]'s, so serving from the prepared model
    /// stays bit-identical to program-driven forwards.
    ///
    /// Conv→pool fusion and level chaining (DESIGN.md §16) are inherited
    /// from the shared prepare loop: the compiled ISA is untouched (the
    /// compiler already models pooled layers via shorter `sp` streams
    /// and quartered writeback), and the tile-coverage/stream-length
    /// validation runs on the *program*, before fusion rewrites the step
    /// sequence — so it is unchanged by the fused path.
    ///
    /// # Errors
    ///
    /// As [`ProgramExecutor::forward`]; propagates resolve errors.
    pub fn prepare(
        &mut self,
        model: &mut Sequential,
        input_shape: &[usize],
    ) -> Result<crate::PreparedModel, GeoError> {
        self.check_model(model, input_shape)?;
        model.set_training(false);
        let mut len_for = program_len(&self.program.name, &self.lens);
        self.engine
            .prepare_with_lens(model, input_shape, &mut len_for)
    }

    /// The one model check [`ProgramExecutor::forward`] and
    /// [`ProgramExecutor::prepare`] share. It holds the live `model`'s
    /// parametrized-layer count and its compute shapes, re-traced from
    /// `input_shape` (`[N, C, H, W]` as `(C, H, W)`, `[N, F]` as
    /// `(F, 1, 1)`), against the network the program was validated for:
    /// equal stream lengths are not enough to prove the program
    /// addresses *this* model.
    fn check_model(&self, model: &Sequential, input_shape: &[usize]) -> Result<(), GeoError> {
        let params = model
            .layers()
            .iter()
            .filter(|l| matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
            .count();
        if params != self.lens.len() {
            return Err(GeoError::InvalidConfig(format!(
                "model has {params} parametrized layers but program '{}' encodes {}",
                self.program.name,
                self.lens.len()
            )));
        }
        let traced = match *input_shape {
            [_, c, h, w] => Some((c, h, w)),
            // Flat features can only feed fully-connected layers (tracing
            // a conv over a 1×1 map could underflow its output size).
            [_, f] if !model.layers().iter().any(|l| matches!(l, Layer::Conv2d(_))) => {
                Some((f, 1, 1))
            }
            _ => None,
        };
        if !traced.is_some_and(|chw| {
            NetworkDesc::from_model(&self.net.name, model, chw).layers == self.net.layers
        }) {
            return Err(GeoError::InvalidConfig(format!(
                "model shapes for input {input_shape:?} do not match network '{}' \
                 the program was compiled for",
                self.net.name
            )));
        }
        Ok(())
    }

    /// Top-1 accuracy of program-driven inference on `dataset` — the
    /// program-path analogue of [`crate::evaluate_sc`], sharing its
    /// batching and scoring loop.
    ///
    /// # Errors
    ///
    /// Propagates [`ProgramExecutor::forward`] errors.
    pub fn evaluate(&mut self, model: &mut Sequential, dataset: &Dataset) -> Result<f32, GeoError> {
        top1_accuracy(dataset, |x| self.forward(model, x, false))
    }
}

/// The stream-length source of program-driven runs: each parametrized
/// layer's length decoded from the program's `GEN` instructions,
/// cross-checked against the engine's own plan.
fn program_len<'a>(
    name: &'a str,
    lens: &'a [usize],
) -> impl FnMut(u32, usize) -> Result<usize, GeoError> + 'a {
    move |pl, planned| {
        let len = lens.get(pl as usize).copied().ok_or_else(|| {
            GeoError::Internal(format!(
                "program '{name}' has no layer {pl} despite matching layer counts"
            ))
        })?;
        if len != planned {
            return Err(GeoError::InvalidConfig(format!(
                "program '{name}' runs layer {pl} at stream length {len}, \
                 engine plan says {planned} — program compiled for different \
                 {{sp, s}} lengths"
            )));
        }
        Ok(len)
    }
}

/// Checks `program` implements `net` layer for layer and returns the
/// per-layer stream lengths its `GEN` instructions encode.
fn validate_program(program: &Program, net: &NetworkDesc) -> Result<Vec<usize>, GeoError> {
    if program.layer_count() != net.layers.len() {
        return Err(GeoError::InvalidConfig(format!(
            "program '{}' has {} layers, network '{}' has {}",
            program.name,
            program.layer_count(),
            net.name,
            net.layers.len()
        )));
    }
    let mut lens = Vec::with_capacity(net.layers.len());
    for (li, layer) in net.layers.iter().enumerate() {
        let instrs = program
            .layer_instrs(li)
            .ok_or_else(|| GeoError::Internal(format!("layer {li} start index out of bounds")))?;
        lens.push(validate_layer(program, li, layer, instrs, &net.name)?);
    }
    Ok(lens)
}

/// Validates one layer's instruction slice and returns its stream length.
fn validate_layer(
    program: &Program,
    li: usize,
    layer: &geo_arch::LayerShape,
    instrs: &[Instr],
    net_name: &str,
) -> Result<usize, GeoError> {
    let bad = |msg: String| GeoError::InvalidConfig(format!("program '{}': {msg}", program.name));
    let gens: Vec<_> = instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Generate { cycles, tile, .. } => Some((*cycles, tile)),
            _ => None,
        })
        .collect();
    let Some(&(cycles, first_tile)) = gens.first() else {
        return Err(bad(format!("layer {li} has no GEN instructions")));
    };
    if cycles == 0 || cycles % 2 != 0 {
        return Err(bad(format!(
            "layer {li} GEN cycles {cycles} is not an even split-unipolar count"
        )));
    }
    if let Some(&(other, _)) = gens.iter().find(|(c, _)| *c != cycles) {
        return Err(bad(format!(
            "layer {li} mixes GEN stream cycles {cycles} and {other}"
        )));
    }

    // Tile coverage: every (col_pass, cout, pos) cell of the layer's
    // output volume exactly once — in bounds, no overlap, nothing missing.
    let cout = layer.output_channels();
    let (oh, ow) = layer.output_hw();
    let outputs = (oh * ow).max(1);
    let col_passes = first_tile.col_passes as usize;
    if col_passes == 0 {
        return Err(bad(format!("layer {li} tile declares zero column passes")));
    }
    let mut covered = vec![false; col_passes * cout * outputs];
    for (_, t) in &gens {
        if t.layer as usize != li {
            return Err(bad(format!(
                "layer {li} contains a GEN addressed to layer {}",
                t.layer
            )));
        }
        if t.col_passes as usize != col_passes || t.col_pass >= t.col_passes {
            return Err(bad(format!(
                "layer {li} tile col pass {}/{} inconsistent with {col_passes}",
                t.col_pass, t.col_passes
            )));
        }
        if t.cout_begin >= t.cout_end || t.cout_end as usize > cout {
            return Err(bad(format!(
                "layer {li} tile channels {}..{} outside 0..{cout}",
                t.cout_begin, t.cout_end
            )));
        }
        if t.pos_begin >= t.pos_end || t.pos_end as usize > outputs {
            return Err(bad(format!(
                "layer {li} tile positions {}..{} outside 0..{outputs}",
                t.pos_begin, t.pos_end
            )));
        }
        for c in t.cout_begin..t.cout_end {
            for p in t.pos_begin..t.pos_end {
                let cell = (t.col_pass as usize * cout + c as usize) * outputs + p as usize;
                if std::mem::replace(&mut covered[cell], true) {
                    return Err(bad(format!(
                        "layer {li} output cell (channel {c}, position {p}) \
                         generated twice in column pass {}",
                        t.col_pass
                    )));
                }
            }
        }
    }
    if let Some(missing) = covered.iter().position(|&b| !b) {
        let cp = missing / (cout * outputs);
        let c = (missing / outputs) % cout;
        let p = missing % outputs;
        return Err(bad(format!(
            "network '{net_name}' layer {li}: output cell (channel {c}, position {p}) \
             never generated in column pass {cp}"
        )));
    }
    Ok((cycles / 2) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_nn::models;

    fn thumb_exec() -> (Sequential, ProgramExecutor) {
        let model = models::lenet5(1, 8, 10, 0);
        let exec = ProgramExecutor::compile(
            GeoConfig::geo(32, 64),
            &AccelConfig::ulp_geo(32, 64),
            &model,
            (1, 8, 8),
            "lenet5-thumb",
        )
        .unwrap();
        (model, exec)
    }

    #[test]
    fn compiles_and_decodes_stream_lengths() {
        let (_, exec) = thumb_exec();
        // conv1 (pooled) 32, conv2 (pooled) 32, fc1 64, fc2 (output) 128.
        assert_eq!(exec.stream_lens(), &[32, 32, 64, 128]);
    }

    #[test]
    fn forward_matches_direct_engine() {
        let (mut model, mut exec) = thumb_exec();
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let via_program = exec.forward(&mut model, &x, false).unwrap();
        let mut engine = ScEngine::new(GeoConfig::geo(32, 64)).unwrap();
        let direct = engine.forward(&mut model, &x, false).unwrap();
        assert_eq!(via_program.data(), direct.data());
    }

    #[test]
    fn rejects_programs_compiled_for_other_stream_lengths() {
        let model = models::lenet5(1, 8, 10, 0);
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        // Program compiled at {16, 32}; engine configured for {32, 64}.
        let program = compiler::compile(&net, &AccelConfig::ulp_geo(16, 32));
        let mut exec = ProgramExecutor::new(GeoConfig::geo(32, 64), &net, program).unwrap();
        let mut model = model;
        let err = exec
            .forward(&mut model, &Tensor::full(&[1, 1, 8, 8], 0.5), false)
            .unwrap_err();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_layer_count_mismatch() {
        let model = models::lenet5(1, 8, 10, 0);
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        let mut program = compiler::compile(&net, &AccelConfig::ulp_geo(32, 64));
        program.layer_starts.pop();
        let err = ProgramExecutor::new(GeoConfig::geo(32, 64), &net, program)
            .err()
            .unwrap();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_incomplete_tile_coverage() {
        let model = models::lenet5(1, 8, 10, 0);
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        let mut program = compiler::compile(&net, &AccelConfig::ulp_geo(32, 64));
        // Drop one GEN (and its paired loads keep the slice non-empty).
        let gen_at = program
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Generate { .. }))
            .unwrap();
        program.instrs.remove(gen_at);
        for s in &mut program.layer_starts {
            if *s > gen_at {
                *s -= 1;
            }
        }
        let err = ProgramExecutor::new(GeoConfig::geo(32, 64), &net, program)
            .err()
            .unwrap();
        assert!(
            err.to_string().contains("never generated"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn rejects_model_with_different_layer_count() {
        let (_, mut exec) = thumb_exec();
        // 15 parametrized layers vs. the program's 4.
        let mut other = models::vgg16_small(3, 16, 10, 0);
        let err = exec
            .forward(&mut other, &Tensor::full(&[1, 3, 16, 16], 0.5), false)
            .unwrap_err();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn rejects_model_with_same_plan_but_different_shapes() {
        let (_, mut exec) = thumb_exec();
        // The CNN-4 thumbnail coincidentally has the same parametrized-layer
        // count AND the same stream plan [32, 32, 64, 128] as the LeNet-5
        // thumbnail; only the shape re-trace can tell them apart.
        let mut other = models::cnn4(3, 8, 10, 0);
        let err = exec
            .forward(&mut other, &Tensor::full(&[1, 3, 8, 8], 0.5), false)
            .unwrap_err();
        assert!(
            err.to_string().contains("do not match network"),
            "unexpected error: {err}"
        );
    }

    /// A `[N, F]` input must not skip the shape re-trace: a program for
    /// one MLP refuses another with equal layer count and stream lengths,
    /// in both `forward` and `prepare`.
    #[test]
    fn rejects_other_mlp_on_flat_inputs() {
        use geo_nn::{Linear, Relu};
        use rand::{rngs::StdRng, SeedableRng};
        let mlp = |hidden: usize| {
            let mut rng = StdRng::seed_from_u64(1);
            Sequential::new(vec![
                Layer::Linear(Linear::new(16, hidden, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Linear(Linear::new(hidden, 4, &mut rng)),
            ])
        };
        let (mut compiled_for, mut other) = (mlp(8), mlp(12));
        let mut exec = ProgramExecutor::compile(
            GeoConfig::geo(32, 64),
            &AccelConfig::ulp_geo(32, 64),
            &compiled_for,
            (16, 1, 1),
            "mlp",
        )
        .unwrap();
        assert_eq!(exec.stream_lens(), &[64, 128]);
        let x = Tensor::full(&[2, 16], 0.5);
        assert_eq!(
            exec.forward(&mut compiled_for, &x, false).unwrap().shape(),
            &[2, 4]
        );
        let err = exec.forward(&mut other, &x, false).unwrap_err();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
        let err = exec.prepare(&mut other, x.shape()).err().unwrap();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
        // Inputs of any other rank cannot be traced at all, and flat
        // features cannot feed a network with convolutions.
        let err = exec.prepare(&mut compiled_for, &[2, 4, 4]).err().unwrap();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
        let (mut lenet, mut thumb) = thumb_exec();
        let err = thumb
            .forward(&mut lenet, &Tensor::full(&[1, 64], 0.5), false)
            .unwrap_err();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn prepared_program_matches_program_forward() {
        let (mut model, mut exec) = thumb_exec();
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let via_program = exec.forward(&mut model, &x, false).unwrap();
        let (mut model2, mut exec2) = thumb_exec();
        let prepared = exec2.prepare(&mut model2, x.shape()).unwrap();
        let served = prepared.forward(&x).unwrap();
        assert_eq!(via_program.data(), served.data());
        // A program at other stream lengths must refuse to prepare.
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        let program = compiler::compile(&net, &AccelConfig::ulp_geo(16, 32));
        let mut wrong = ProgramExecutor::new(GeoConfig::geo(32, 64), &net, program).unwrap();
        let err = wrong.prepare(&mut model, &[1, 1, 8, 8]).err().unwrap();
        assert!(matches!(err, GeoError::InvalidConfig(_)), "{err}");
        // A different network of equal lengths must fail the re-trace.
        let mut other = models::cnn4(3, 8, 10, 0);
        let err = exec.prepare(&mut other, &[1, 3, 8, 8]).err().unwrap();
        assert!(
            err.to_string().contains("do not match network"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn telemetry_report_merges_pingpong_traffic() {
        let (mut model, mut exec) = thumb_exec();
        exec.forward(&mut model, &Tensor::full(&[1, 1, 8, 8], 0.5), false)
            .unwrap();
        let report = exec.telemetry_report();
        assert_eq!(report.source, "program:lenet5-thumb");
        assert_eq!(report.layers.len(), exec.stream_lens().len());
        assert!(report.layers.iter().any(|l| l.pingpong_bytes > 0));
        assert_eq!(report.passes, 1);
        assert!(report.total().macs > 0);
    }

    #[test]
    fn artifact_round_trip_is_bit_identical() {
        let (mut model, exec) = thumb_exec();
        let bytes = exec.to_artifact().unwrap();
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        let mut reloaded = ProgramExecutor::from_artifact(GeoConfig::geo(32, 64), &net, &bytes)
            .expect("valid artifact must load");
        assert_eq!(reloaded.program(), exec.program());
        // Bit-identical forward outputs: a fresh in-memory executor and
        // the reloaded one see the same engine state and program.
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let mut fresh = thumb_exec().1;
        let direct = fresh.forward(&mut model, &x, false).unwrap();
        let via_artifact = reloaded.forward(&mut model, &x, false).unwrap();
        assert_eq!(via_artifact.data(), direct.data());
    }

    #[test]
    fn from_artifact_rejects_corruption_and_wrong_network() {
        let (model, exec) = thumb_exec();
        let net = NetworkDesc::from_model("lenet5-thumb", &model, (1, 8, 8));
        let bytes = exec.to_artifact().unwrap();
        // Corrupt payload byte → checksum failure at the load boundary.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let err = ProgramExecutor::from_artifact(GeoConfig::geo(32, 64), &net, &bad)
            .err()
            .unwrap();
        assert!(matches!(err, GeoError::Artifact(_)), "{err}");
        // Truncation → typed artifact error, never a panic.
        let err = ProgramExecutor::from_artifact(GeoConfig::geo(32, 64), &net, &bytes[..10])
            .err()
            .unwrap();
        assert!(matches!(err, GeoError::Artifact(_)), "{err}");
        // Valid container, wrong network → fingerprint mismatch before
        // any compute.
        let other = NetworkDesc::cnn4_cifar();
        let err = ProgramExecutor::from_artifact(GeoConfig::geo(32, 64), &other, &bytes)
            .err()
            .unwrap();
        assert!(
            err.to_string().contains("fingerprint"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn evaluate_runs_on_a_small_dataset() {
        use geo_nn::datasets::{generate, DatasetSpec};
        let (mut model, mut exec) = thumb_exec();
        let (_, test) = generate(&DatasetSpec::mnist_like(8).with_samples(8, 8));
        let acc = exec.evaluate(&mut model, &test).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
