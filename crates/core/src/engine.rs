//! The GEO stochastic-computing inference engine.
//!
//! Executes a `geo-nn` network with a simulated SC datapath: activations
//! and split-unipolar weights become LFSR/TRNG-generated bitstreams (via
//! cached value-indexed tables), multiplications are ANDs, and
//! accumulation follows the configured SC/fixed-point split (§III-B).
//! Batch normalization runs as the quantized near-memory affine transform
//! at inference, and pooling operates on converted counts (computation
//! skipping).
//!
//! In training mode the float layers still run forward to cache their
//! inputs, but each parametrized layer's *output* is replaced by the SC
//! result — the paper's "simulated SC computes output values while the
//! floating-point forward pass guides back propagation".
//!
//! # Prepare/compute pipeline (DESIGN.md §15)
//!
//! Each parametrized layer executes in two phases with a hard
//! immutability boundary between them:
//!
//! 1. **Prepare** (serial, `&mut self`): every lane table is built or
//!    fetched through the [`TableCache`] and every *weight-side* operand
//!    is quantized into a [`PreparedConv`]/[`PreparedLinear`]. Table
//!    construction is the injection point for the fault model, so running
//!    it serially in a fixed order keeps fault draws and counters
//!    deterministic and call-order independent. Prepare also performs
//!    every computation that is invariant across requests and output
//!    positions: zero-weight lanes are compacted away into
//!    per-output-channel, per-polarity [`CompactKernel`] lists that hold
//!    each weight's live split half once, and activation tables are
//!    flattened into the gather slab. Nothing in a prepared layer depends
//!    on the activations; compute draws its per-worker [`Scratch`] from
//!    one process-wide grow-only pool.
//! 2. **Compute** (pure, `&self`): the request's activations are
//!    quantized and range-validated ([`ActBatch`]), then disjoint output
//!    slices are computed in parallel across `rayon` workers. A conv task
//!    is a tile of output rows `(b, oy)`, sized by cache budgets on its
//!    gathered activations and the worker count; it gathers its rows once
//!    and streams every weight entry of every output channel across all
//!    of its pixels (weight-stationary, GEO §III-C). A linear task is a
//!    run of output neurons. Each pixel's accumulators are pixel-local
//!    and the prepared state is immutable, so the result is
//!    **bit-identical to the serial engine at every thread count and
//!    tile size** — the correctness contract
//!    `crates/core/tests/parallel_equivalence.rs` enforces.
//!
//! [`ScEngine::prepare`] hoists phase 1 for a whole network into an
//! immutable, `Send + Sync`, `Arc`-shareable [`PreparedModel`] whose
//! [`PreparedModel::forward`] borrows `&self` — the compile-once,
//! serve-many entry point `geo_core::serve` batches requests against.
//!
//! There is one SC datapath: every conv/linear layer, whichever entry
//! point runs it, goes through one per-layer prepare
//! ([`ScEngine::prepare_layer`]) and one step executor
//! ([`PreparedStep::run`]). [`ScEngine::forward`] at inference is
//! prepare-then-compute over the whole network, which is what pins the
//! prepared path bit-identical to every historical output. In training
//! it walks the layers so float layers can run `&mut` forwards and cache
//! their inputs for backward, taking each conv/linear output from the
//! executor on that layer's unfused step — SC-in-the-loop training runs
//! exactly the datapath inference runs.
//! [`ScEngine::forward_single_layer`] prepares and runs only its own
//! layer, and [`crate::ProgramExecutor`] drives the same paths with
//! program-decoded stream lengths.
//!
//! # Sparsity-compacted kernels (DESIGN.md §11)
//!
//! The compute phase walks dense arrays built at resolve time instead of
//! re-deriving per-lane facts per pixel: per-row positive and negative
//! lists of live weight halves with their stream words contiguous in
//! memory (DESIGN.md §14). A conv tile gathers its rows' activations once,
//! lane-major, and each list entry's words stay in registers while they
//! stream across the tile's pixels into per-pixel accumulators; APC
//! carries its compressor pairing per pixel instead of allocating per
//! MAC. Compaction consumes the layer's resolve, whose lane
//! list is transient. The pre-compaction kernels are retained verbatim (the
//! [`reference`] module, reachable via [`ScEngine::forward_reference`]):
//! a self-contained oracle over the same resolve, the bit-identity oracle
//! for `crates/core/tests/compaction_equivalence.rs` and the "before"
//! side of the `bench_forward` perf trajectory.
//!
//! Thread count follows `RAYON_NUM_THREADS` (or an installed
//! `rayon::ThreadPool`), defaulting to the machine's parallelism.

use crate::config::{Accumulation, GeoConfig};
use crate::error::GeoError;
use crate::tables::{ProgressiveTable, TableCache};
use crate::telemetry::{EngineTelemetry, LayerCounters, Phase, TelemetryReport};
use geo_nn::{Conv2d, Layer, Linear, Sequential, Tensor};
use geo_sc::fault::{FaultCounters, FaultInjector, FaultModel};
use geo_sc::{quantize_unipolar, Bitstream, KernelDims, RngSpec, SeedPlan, StreamTable};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Array width assumed when mapping fully-connected layers onto the MAC
/// fabric: features fill a pseudo-kernel of this W dimension, so partial
/// binary accumulation applies to FC layers too (with the underutilization
/// the paper notes in §III-A).
pub const FC_BINARY_WIDTH: usize = 8;

/// Per-layer-index seed stride, keeping layer seed plans disjoint.
const LAYER_SEED_STRIDE: u32 = 0x1009;

/// A value-indexed stream source: normal or progressive.
enum LaneTable {
    Normal(Arc<StreamTable>),
    Progressive(Arc<ProgressiveTable>),
}

impl LaneTable {
    /// Stream lookup for a quantized operand level.
    ///
    /// [`act_level`] / [`ScEngine::weight_levels`] quantize every
    /// operand into the table's range, so an out-of-range level here means
    /// an engine bug — it surfaces as [`GeoError::Internal`] rather than a
    /// silent clamp (which would alias distinct operands) or a panic.
    fn stream(&self, level: u32) -> Result<&Bitstream, GeoError> {
        match self {
            LaneTable::Normal(t) => {
                if level > (1u32 << t.width()) {
                    return Err(GeoError::Internal(format!(
                        "operand level {level} exceeds stream-table range 0..={}",
                        1u32 << t.width()
                    )));
                }
                Ok(t.stream(level))
            }
            LaneTable::Progressive(t) => {
                if level > 255 {
                    return Err(GeoError::Internal(format!(
                        "operand level {level} exceeds the 8-bit progressive buffer"
                    )));
                }
                Ok(t.stream(level as u8))
            }
        }
    }

    /// Packed stream words for a *resolve-validated* operand level — the
    /// hot-loop form of [`Self::stream`], with the range check and
    /// `Result` plumbing hoisted out: the resolve phase validates the
    /// layer's maximum activation level once ([`validate_act_levels`]),
    /// so per-pixel lookups index straight into the table.
    #[inline]
    fn words(&self, level: u32) -> &[u64] {
        match self {
            LaneTable::Normal(t) => t.words(level),
            LaneTable::Progressive(t) => t.words(level as u8),
        }
    }

    /// Identity key for flat-table deduplication: lanes sharing one cached
    /// table (the sharing levels of §II-C) share one flat slab.
    fn ptr_key(&self) -> usize {
        match self {
            LaneTable::Normal(t) => Arc::as_ptr(t) as usize,
            LaneTable::Progressive(t) => Arc::as_ptr(t) as usize,
        }
    }

    /// Number of quantized levels the table carries (max level + 1).
    fn level_count(&self) -> usize {
        match self {
            LaneTable::Normal(t) => (1usize << t.width()) + 1,
            LaneTable::Progressive(_) => 256,
        }
    }
}

/// Copies every activation table's streams into one flat, level-indexed
/// slab: lane `i`'s stream for level `lv` occupies
/// `act_flat[act_off[i] + lv·words ..][..words]`. The hoisted gathers
/// then read packed words with one indexed load — no `LaneTable` enum
/// match, no `Arc` dereference, no per-level slice lookup — which is
/// what licenses the branchless level-0 masking in
/// [`PreparedConv::gather_tile`] and [`PreparedLinear::gather_batch`].
/// Tables shared between lanes are deduplicated by pointer identity, so
/// the slab size tracks the layer's *distinct* tables.
fn flatten_act_tables(
    tables: &[LaneTable],
    words: usize,
) -> Result<(Vec<u64>, Vec<u32>), GeoError> {
    let mut flat: Vec<u64> = Vec::new();
    let mut offs: Vec<u32> = Vec::with_capacity(tables.len());
    let mut seen: Vec<(usize, u32)> = Vec::new();
    for t in tables {
        let key = t.ptr_key();
        if let Some(&(_, off)) = seen.iter().find(|&&(p, _)| p == key) {
            offs.push(off);
            continue;
        }
        let off = u32::try_from(flat.len()).map_err(|_| {
            GeoError::Internal("flat activation table exceeds u32 indexing".to_string())
        })?;
        let levels = t.level_count();
        flat.reserve(levels * words);
        for level in 0..levels {
            flat.extend_from_slice(t.words(level as u32));
        }
        seen.push((key, off));
        offs.push(off);
    }
    Ok((flat, offs))
}

/// Validates once, at resolve time, that every quantized activation level
/// is inside the lane tables' range, licensing the infallible
/// [`LaneTable::words`] lookups the compute phase performs. All of a
/// layer's activation tables share one width/length, so checking the
/// maximum level against the first table covers them all.
fn validate_act_levels(tables: &[LaneTable], levels: &[u32]) -> Result<(), GeoError> {
    if let (Some(table), Some(&max)) = (tables.first(), levels.iter().max()) {
        table.stream(max)?;
    }
    Ok(())
}

/// Per-layer and total fault-injection counts observed by an engine built
/// with [`ScEngine::with_faults`].
///
/// Counters attribute each injected fault to the parametrized layer whose
/// stream tables were being built when it happened; because deterministic
/// tables are cached, a layer's static faults are counted on the pass that
/// first builds its tables, while transient faults recur every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Forward passes executed with fault injection active.
    pub passes: u64,
    /// Fault counts per parametrized (conv/linear) layer, in network order.
    pub layers: Vec<FaultCounters>,
    /// Fault counts across all layers.
    pub total: FaultCounters,
}

impl ResilienceReport {
    fn record(&mut self, param_layer: u32, delta: FaultCounters) {
        let idx = param_layer as usize;
        if self.layers.len() <= idx {
            self.layers.resize(idx + 1, FaultCounters::default());
        }
        self.layers[idx].accumulate(&delta);
        self.total.accumulate(&delta);
    }

    /// Folds another report into this one — how a prepared pass's locally
    /// accumulated fault counts flow back into the engine's report.
    fn absorb(&mut self, other: &ResilienceReport) {
        self.passes += other.passes;
        for (i, layer) in other.layers.iter().enumerate() {
            if self.layers.len() <= i {
                self.layers.resize(i + 1, FaultCounters::default());
            }
            self.layers[i].accumulate(layer);
        }
        self.total.accumulate(&other.total);
    }
}

/// One weight lane as the resolve leaves it: quantized split levels, the
/// accumulator group the lane feeds, and the index of the table its
/// streams come from in [`Resolved::tables`]. Transient: compaction and
/// the oracle read it, then drop it.
struct WeightRef {
    pos: u32,
    neg: u32,
    group: usize,
    table: u32,
}

impl WeightRef {
    /// Range-validates both split levels against `tables[table]` once, so
    /// every later [`LaneTable::words`] read of them is in range.
    fn new(
        tables: &[LaneTable],
        table: u32,
        (pos, neg): (u32, u32),
        group: usize,
    ) -> Result<Self, GeoError> {
        tables[table as usize].stream(pos.max(neg))?;
        Ok(WeightRef {
            pos,
            neg,
            group,
            table,
        })
    }

    /// Whether both split halves are zero (the lane contributes nothing).
    fn is_zero(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }
}

/// A layer's weight tables while its resolve runs: one per generator slot
/// ([`SeedPlan::weight_slot`]) the layer uses, fetched through the cache
/// on the slot's first use. First uses come in weight order, so the cache
/// builds the same tables in the same order as one lookup per weight.
#[derive(Default)]
struct WeightTables {
    /// Slot → index into `tables`; [`WeightTables::UNUSED`] until first use.
    index: Vec<u32>,
    tables: Vec<LaneTable>,
}

impl WeightTables {
    const UNUSED: u32 = u32::MAX;

    /// The index of `slot`'s table, calling `fetch` for it on first use.
    #[inline]
    fn index_of(
        &mut self,
        slot: usize,
        fetch: impl FnOnce() -> Result<LaneTable, GeoError>,
    ) -> Result<u32, GeoError> {
        if slot >= self.index.len() {
            self.index.resize(slot + 1, Self::UNUSED);
        }
        if self.index[slot] == Self::UNUSED {
            // At most one table per slot, so the count stays below `UNUSED`.
            self.index[slot] = self.tables.len() as u32;
            self.tables.push(fetch()?);
        }
        Ok(self.index[slot])
    }
}

/// One conv/linear layer as the resolve leaves it, before compaction: the
/// activation lane tables, the distinct weight tables, and one
/// [`WeightRef`] per weight, `rows` output channels/neurons of
/// `act_tables.len()` lanes each, in resolve order.
struct Resolved {
    len: usize,
    /// Accumulator groups per output (partial binary accumulation).
    groups: usize,
    rows: usize,
    act_tables: Vec<LaneTable>,
    /// The weight tables in first-use order; [`WeightRef::table`] indexes it.
    tables: Vec<LaneTable>,
    lanes: Vec<WeightRef>,
    /// How many of `lanes` are nonzero (counted as the resolve pushes them).
    kept: usize,
    /// How many positive and negative split halves of `lanes` are live,
    /// which sizes the compacted lists exactly.
    live: [usize; 2],
}

/// Sparsity-compacted weight lanes for a whole layer (DESIGN.md §14): per
/// output channel/neuron, the lanes whose *positive* split half is live in
/// one [`LaneList`] and those whose *negative* half is live in another,
/// each holding only its live half's stream words. Every kept lane has
/// exactly one live half (`geo_sc::encode`), so each weight's words are
/// stored once, and each mode kernel folds the two lists separately and
/// returns `count(pos) − count(neg)`.
///
/// Entry order within a row matches the resolve order (`ci`, `ky`, `kx`
/// ascending), so the sequence of accumulate calls per polarity — and
/// therefore APC compressor pairing — is exactly the pre-compaction
/// sequence. A lane with both halves live would appear in both lists.
#[derive(Debug)]
struct CompactKernel {
    pos: LaneList,
    neg: LaneList,
    /// Words per stream (`len.div_ceil(64)`).
    words: usize,
    /// Per lane index (kernel position or input feature), the number of
    /// rows whose lists keep it: a live unit of lane `l` is folded
    /// `lane_rows[l]` times, which is how MACs are counted without walking
    /// the lane lists (see [`ActBatch::macs`]).
    lane_rows: Vec<u64>,
}

/// One polarity's live weight halves for a whole layer, in
/// structure-of-arrays form: row `r`'s entries are
/// `offsets[r]..offsets[r + 1]`, and entry `e` holds a gather offset, an
/// accumulator group and `words` stream words, lane-major
/// (`w[e·words + j]`). With one-word streams this is the layout the
/// 4-wide single-word kernels stream through.
#[derive(Debug)]
struct LaneList {
    offsets: Vec<usize>,
    /// Gather offset `lane · act_stride`, where `act_stride` is `ow` for
    /// conv and 1 for linear. A linear entry's activation words live at
    /// `acts[aoff·words ..]` of its [`ActBuf`]; a conv entry's run in a
    /// tile of `rows` rows starts at unit `aoff·rows` ([`TileAct`]).
    aoff: Vec<u32>,
    /// Accumulator group each entry feeds.
    group: Vec<u32>,
    /// The live half's stream words.
    w: Vec<u64>,
}

impl LaneList {
    /// An empty list of `rows` rows with room for exactly `entries`
    /// entries of `words` words each.
    fn with_capacity(rows: usize, entries: usize, words: usize) -> LaneList {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        LaneList {
            offsets,
            aoff: Vec::with_capacity(entries),
            group: Vec::with_capacity(entries),
            w: Vec::with_capacity(entries * words),
        }
    }

    /// Row `r`'s entries.
    #[inline]
    fn row(&self, r: usize, words: usize) -> RowView<'_> {
        let (lo, hi) = (self.offsets[r], self.offsets[r + 1]);
        RowView {
            aoff: &self.aoff[lo..hi],
            group: &self.group[lo..hi],
            w: &self.w[lo * words..hi * words],
        }
    }
}

impl CompactKernel {
    /// Compacts a resolved layer's lanes into per-row, per-polarity lists
    /// of live halves, reading each half's stream words from its table.
    /// `act_stride` is the gathered-activation stride per lane index
    /// (conv: `ow`, linear: 1); callers guarantee
    /// `act_tables.len() · act_stride` fits `u32`.
    fn build(r: &Resolved, act_stride: usize) -> CompactKernel {
        let (rows, lanes_per_row) = (r.rows, r.act_tables.len());
        let words = r.len.div_ceil(64);
        let mut lists = r.live.map(|n| LaneList::with_capacity(rows, n, words));
        let mut lane_rows = vec![0; lanes_per_row];
        for row in 0..rows {
            let row_lanes = &r.lanes[row * lanes_per_row..][..lanes_per_row];
            for (l, wref) in row_lanes.iter().enumerate() {
                if wref.is_zero() {
                    continue;
                }
                lane_rows[l] += 1;
                let table = &r.tables[wref.table as usize];
                for (list, level) in lists.iter_mut().zip([wref.pos, wref.neg]) {
                    if level > 0 {
                        list.aoff.push((l * act_stride) as u32);
                        list.group.push(wref.group as u32);
                        list.w.extend_from_slice(table.words(level));
                    }
                }
            }
            for list in &mut lists {
                list.offsets.push(list.aoff.len());
            }
        }
        let [pos, neg] = lists;
        CompactKernel {
            pos,
            neg,
            words,
            lane_rows,
        }
    }

    /// Row `r`'s positive and negative list views.
    #[inline]
    fn row(&self, r: usize) -> [RowView<'_>; 2] {
        [&self.pos, &self.neg].map(|list| list.row(r, self.words))
    }

    /// Most entries any row holds in either list — which sizes the
    /// per-worker APC product scratch exactly once.
    fn max_row_entries(&self) -> usize {
        let lens = |l: &LaneList| l.offsets.windows(2).map(|w| w[1] - w[0]).max();
        lens(&self.pos).max(lens(&self.neg)).unwrap_or(0)
    }
}

/// Everything input-independent that the pure compute phase needs for one
/// convolution layer, compacted by [`PreparedConv::new`] once per (model
/// × config × fault-model); its only per-weight state is the
/// [`CompactKernel`]. Shared as `&self` across worker threads and across
/// requests (see the compile-time assertions below); per-request
/// activations arrive separately as an [`ActBatch`].
struct PreparedConv {
    mode: Accumulation,
    len: usize,
    words: usize,
    /// Quantization width (`log2 len`) for per-request activation levels.
    width: u8,
    /// Progressive generation flag, fixed at prepare time.
    progressive: bool,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    volume: usize,
    act_tables: Vec<LaneTable>,
    /// Level-indexed flat copy of the activation tables
    /// ([`flatten_act_tables`]).
    act_flat: Vec<u64>,
    /// Per-output-channel compacted nonzero lanes (the hot-path layout).
    compact: CompactKernel,
    /// Input channel per kernel position (`lane / k²`) — conv activation
    /// tables are per position, shared by every output channel, so the
    /// spatial gather walks these instead of per-compacted-lane copies.
    pos_ci: Vec<u32>,
    /// Kernel row offset per kernel position (`(lane % k²) / k`).
    pos_ky: Vec<u32>,
    /// Kernel column offset per kernel position (`lane % k`).
    pos_kx: Vec<u32>,
    /// Flat activation-table offset per kernel position
    /// ([`flatten_act_tables`]).
    pos_ao: Vec<u32>,
    /// Per input element `(ci, iy, ix)` of one batch item, the MACs a
    /// nonzero level there feeds ([`ActBatch::macs`]): one per output
    /// pixel reading it through kernel position `l`, times `lane_rows[l]`.
    mac_weights: Vec<u64>,
    /// Accumulator groups per output pixel (partial binary accumulation).
    groups: usize,
}

/// Everything input-independent that the pure compute phase needs for one
/// fully-connected layer, compacted by [`PreparedLinear::new`] (see
/// [`PreparedConv`]).
struct PreparedLinear {
    mode: Accumulation,
    len: usize,
    words: usize,
    /// Quantization width (`log2 len`) for per-request activation levels.
    width: u8,
    /// Progressive generation flag, fixed at prepare time.
    progressive: bool,
    features: usize,
    outf: usize,
    act_tables: Vec<LaneTable>,
    /// Level-indexed flat copy of the activation tables
    /// ([`flatten_act_tables`]).
    act_flat: Vec<u64>,
    /// Per-output-neuron compacted nonzero lanes (the hot-path layout).
    compact: CompactKernel,
    /// Flat activation-table offset per input feature.
    pos_ao: Vec<u32>,
    /// Accumulator groups per output neuron (partial binary accumulation).
    groups: usize,
    /// Most entries any row holds in either list: the APC product gather.
    max_row_entries: usize,
}

/// One request's quantized activations: the only input-dependent state a
/// prepared layer's compute phase reads. Produced by
/// [`PreparedConv::accept`] / [`PreparedLinear::accept`], which also
/// range-validate the levels so compute-phase table lookups stay
/// infallible.
struct ActBatch {
    /// Batch dimension of the request.
    n: usize,
    /// Quantized activation levels, input-tensor order.
    levels: Vec<u32>,
}

impl ActBatch {
    /// The MACs a layer folds on this batch, when a nonzero level at
    /// element `i` of a batch item is folded `weights[i]` times (zero
    /// levels are skipped by every mode kernel).
    fn macs(&self, weights: &[u64]) -> u64 {
        let live = |(&lv, &w): (&u32, &u64)| w & u64::from(lv != 0).wrapping_neg();
        let item = |lv: &[u32]| lv.iter().zip(weights).map(live).sum::<u64>();
        self.levels.chunks(weights.len().max(1)).map(item).sum()
    }
}

/// Quantized activation level for table lookup.
///
/// Operands live in memory as 8-bit values; matching the LFSR width to
/// the stream length *truncates* them to the top `width` bits (§II-B).
/// A full-scale operand (`x = 1.0`) quantizes to level 256 — the
/// documented all-ones encoding of [`quantize_unipolar`] — and
/// `256 >> shift` is exactly `2^width`, the all-ones entry a normal
/// [`StreamTable`] explicitly carries. The progressive path instead
/// saturates at 255: its stream buffer holds 8-bit operands, a
/// deliberate hardware limit and the one place the two generation
/// modes encode operands differently.
fn act_level(progressive: bool, x: f32, width: u8) -> u32 {
    let q = quantize_unipolar(x.clamp(0.0, 1.0), 8);
    if progressive {
        q.min(255)
    } else {
        q >> (8 - width.min(8))
    }
}

/// What a parametrized step materializes for the next step (DESIGN.md
/// §16): an f32 tensor (`Float` — the network boundary default), or the
/// next SC consumer's quantized activation levels (`Levels` — the
/// resident integer pipeline, assigned at prepare time when every step in
/// between is level-transparent: ReLU is absorbed because
/// `act_level(clamp(v)) == act_level(v)`, Flatten because levels carry
/// their shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// Materialize an f32 tensor (non-SC boundary or network output).
    Float,
    /// Materialize the downstream SC layer's activation levels directly,
    /// quantized with *its* generation mode and width — the exact values
    /// its `accept` would have produced from the f32 tensor.
    Levels {
        /// Consumer's progressive-generation flag.
        progressive: bool,
        /// Consumer's quantization width (`log2` of its stream length).
        width: u8,
    },
}

impl Emit {
    /// Materializes a computed f32 tensor in this output form.
    fn apply(self, t: Tensor) -> Flow {
        match self {
            Emit::Float => Flow::Float(t),
            Emit::Levels { progressive, width } => Flow::Levels(LevelTensor {
                shape: t.shape().to_vec(),
                levels: Flow::Float(t).into_levels(progressive, width),
            }),
        }
    }
}

/// Quantized activation levels flowing between chained SC layers in
/// place of an f32 tensor: the producing layer ran [`act_level`] once per
/// produced pixel with the consumer's parameters, so the consumer skips
/// its quantization pass entirely.
struct LevelTensor {
    /// Logical tensor shape the levels stand in for (reshaped by
    /// Flatten, validated by the consumer like a tensor shape).
    shape: Vec<usize>,
    /// Quantized levels, tensor order.
    levels: Vec<u32>,
}

/// The activation value moving between prepared steps: an f32 tensor or
/// a chained [`LevelTensor`]. Which variant reaches which step is decided
/// at prepare time ([`Emit`]); a `Levels` value reaching a float-only
/// step is an internal invariant violation, not a user error.
enum Flow {
    Float(Tensor),
    Levels(LevelTensor),
}

impl Flow {
    /// The logical activation shape, whichever form carries it.
    fn shape(&self) -> &[usize] {
        match self {
            Flow::Float(t) => t.shape(),
            Flow::Levels(lt) => &lt.shape,
        }
    }

    /// The activation levels of an SC consumer quantizing with
    /// `progressive`/`width`: an f32 tensor goes through [`act_level`];
    /// chained levels were produced upstream with exactly these
    /// parameters, so `act_level` runs once per pixel across the chain.
    fn into_levels(self, progressive: bool, width: u8) -> Vec<u32> {
        match self {
            Flow::Float(t) => t
                .data()
                .iter()
                .map(|&x| act_level(progressive, x, width))
                .collect(),
            Flow::Levels(lt) => lt.levels,
        }
    }

    /// Unwraps the f32 tensor, erroring on a chained value — used by the
    /// float-only steps (batch norm, pooling, network output), which the
    /// prepare-time chaining pass never feeds levels by construction.
    fn into_float(self, ctx: &str) -> Result<Tensor, GeoError> {
        match self {
            Flow::Float(t) => Ok(t),
            Flow::Levels(_) => Err(GeoError::Internal(format!(
                "level-chained activations reached float-only {ctx}"
            ))),
        }
    }
}

// The compute phase hands these to scoped worker threads by shared
// reference, and `PreparedModel` is additionally shared across requests
// (`Arc`, the serve path); pin the auto-trait obligations at compile time
// so a future non-Sync field (e.g. a Cell or Rc in a table) fails here,
// not at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LaneTable>();
    assert_send_sync::<CompactKernel>();
    assert_send_sync::<PreparedConv>();
    assert_send_sync::<PreparedLinear>();
    assert_send_sync::<Emit>();
    assert_send_sync::<LevelTensor>();
    assert_send_sync::<PreparedModel>();
};

/// A borrowed, gather-ready view of one output row's entries in one
/// [`LaneList`]. Every slice aliases the list's arrays directly — there is
/// no per-row repacking; entries whose input falls outside the image
/// read zero words from the gathered activations instead (see
/// [`PreparedConv::gather_tile`]).
#[derive(Clone, Copy)]
struct RowView<'a> {
    /// Per-entry gather offsets (`lane · act_stride`): a linear entry `i`
    /// reads `acts[aoff[i]·words ..]` and `nz[aoff[i]]` of its [`ActBuf`];
    /// a conv entry's run in a tile of `rows` rows starts at unit
    /// `aoff[i]·rows` ([`TileAct`]).
    aoff: &'a [u32],
    /// Per-entry accumulator groups.
    group: &'a [u32],
    /// Lane-major stream words (`w[i·words + j]`).
    w: &'a [u64],
}

/// A linear batch element's gathered activations, as the [`ModeKernel`]s
/// read them: one unit per input feature, shared by every output neuron
/// of the element, so the gather is amortized `outf`×.
struct ActBuf<'a> {
    /// Gathered activation words, `units · words`, lane-major within a
    /// unit (`acts[u·words + j]`), zeroed for skipped (level-0) units.
    acts: &'a [u64],
    /// Per-unit nonzero-activation flags (0/1) — APC gating.
    nz: &'a [u8],
    /// Count of zero (level-0) units. Zero proves every lane of every row
    /// is live, licensing the APC kernel's statically-paired fast path.
    zeros: u32,
}

/// A linear worker's accumulator buffers, each reused for one polarity
/// list after the other.
struct PixelBuf<'a> {
    /// APC product gather, lane-major (`words` adjacent words per kept
    /// product, arrival order preserved).
    prod: &'a mut [u64],
    /// Grouped accumulators (`groups·words`), Pbw/Pbhw (and multiword Or).
    acc: &'a mut [u64],
}

/// Per-worker compute buffers of the conv tile loop and the linear
/// kernels. Grow-only: [`Pooled::take`] grows them once per worker and
/// layer, and the per-task loops only slice them, so they never allocate.
#[derive(Default)]
struct Scratch {
    /// Gathered activation words: a conv tile's `[lane][pixel][word]`
    /// (lane `l`'s run of the tile's `rows·ow` pixels starts at unit
    /// `l·rows·ow`), or a linear batch element's `[feature][word]`.
    acts: Vec<u64>,
    /// Per-unit nonzero-activation flags (0/1), laid out like `acts`.
    nz: Vec<u8>,
    /// OR accumulators per group (linear) or per group and pixel (conv
    /// Or, Pbw, Pbhw), or each conv pixel's held APC product.
    acc: Vec<u64>,
    /// The linear APC product gather ([`PixelBuf::prod`]).
    prod: Vec<u64>,
    /// Per-pixel APC open-pair flags (conv).
    open: Vec<u64>,
    /// Per-pixel counts of the positive and negative lists (conv).
    counts: [Vec<i64>; 2],
    /// One output channel's values across a conv tile.
    vals: Vec<f32>,
}

/// The process's one grow-only pool of [`Scratch`]: a buffer set per
/// worker that ran concurrently, each grown to the largest task it has
/// held. Every conv and linear layer of every engine and prepared model
/// draws from it, so what stays allocated is the largest layer's scratch,
/// not its sum over layers, models and engines, and repeated forwards
/// reuse it.
static SCRATCH: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// Locks [`SCRATCH`]. Buffers are overwrite-before-read, so a worker that
/// panicked cannot leave one half-valid: recover the poison.
fn scratch_pool() -> std::sync::MutexGuard<'static, Vec<Scratch>> {
    SCRATCH.lock().unwrap_or_else(|p| p.into_inner())
}

/// Grows `v` to at least `len` elements. The old buffer is freed first,
/// so the two never coexist.
fn grow<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        *v = Vec::new();
        v.resize(len, T::default());
    }
}

/// RAII guard over a [`Scratch`] taken from [`SCRATCH`], returned to it
/// on drop.
struct Pooled(Scratch);

impl Pooled {
    /// A pooled scratch, its buffers grown by `sizes` (through [`grow`])
    /// to what the caller's layer reads.
    fn take(sizes: impl FnOnce(&mut Scratch)) -> Pooled {
        let mut s = scratch_pool().pop().unwrap_or_default();
        sizes(&mut s);
        Pooled(s)
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        let s = std::mem::take(&mut self.0);
        scratch_pool().push(s);
    }
}

/// The linear layer's monomorphized per-neuron accumulation kernels
/// (DESIGN.md §14): a worker's run dispatches on the layer's accumulation
/// mode once, and each mode's count is a straight-line SWAR reduction
/// over one polarity list's gathered activation words — 4 entries per
/// inner-loop iteration, popcounts combined by pairwise adds — with no
/// per-MAC mode or liveness branch. A neuron is the positive list's count
/// minus the negative list's: OR folds and popcount sums split by
/// polarity exactly, and each list keeps the resolve order APC pairs
/// products in. (Conv layers run the [`TileKernel`]s.)
trait ModeKernel {
    /// The accumulated count of one polarity list: entry `i` reads its
    /// activation words at `act.acts[aoff[i]·words ..]`.
    fn count(pix: &mut PixelBuf, list: &RowView, act: &ActBuf, words: usize) -> i64;

    /// The signed accumulated count of one neuron from its row's
    /// `[positive, negative]` list views.
    #[inline]
    fn neuron(pix: &mut PixelBuf, row: &[RowView; 2], act: &ActBuf, words: usize) -> i64 {
        Self::count(pix, &row[0], act, words) - Self::count(pix, &row[1], act, words)
    }
}

/// 4-wide OR/AND reduction of one single-word list: the OR
/// accumulation collapses into four independent register accumulators
/// folded by a pairwise tree. OR is associative and commutative, so any
/// reduction shape is bit-identical to the reference kernels' sequential
/// fold.
#[inline]
fn or_fold(aoff: &[u32], acts: &[u64], w: &[u64]) -> u64 {
    let (mut p0, mut p1, mut p2, mut p3) = (0u64, 0u64, 0u64, 0u64);
    let mut o4 = aoff.chunks_exact(4);
    let mut w4 = w.chunks_exact(4);
    for (o, w) in (&mut o4).zip(&mut w4) {
        p0 |= acts[o[0] as usize] & w[0];
        p1 |= acts[o[1] as usize] & w[1];
        p2 |= acts[o[2] as usize] & w[2];
        p3 |= acts[o[3] as usize] & w[3];
    }
    for (&o, &w) in o4.remainder().iter().zip(w4.remainder()) {
        p0 |= acts[o as usize] & w;
    }
    (p0 | p1) | (p2 | p3)
}

/// OR accumulation (`groups == 1`): register accumulators, no memory
/// traffic at all in the single-word case.
struct OrKernel;

impl ModeKernel for OrKernel {
    #[inline]
    fn count(pix: &mut PixelBuf, list: &RowView, act: &ActBuf, words: usize) -> i64 {
        if words == 1 {
            return i64::from(or_fold(list.aoff, act.acts, list.w).count_ones());
        }
        // Every OR entry feeds group 0, so the grouped fold is the OR fold.
        GroupedKernel::count(pix, list, act, words)
    }
}

/// Partial-binary accumulation (Pbw/Pbhw): per-entry group-indexed OR
/// accumulators, 4 entries per iteration.
struct GroupedKernel;

impl ModeKernel for GroupedKernel {
    #[inline]
    fn count(pix: &mut PixelBuf, list: &RowView, act: &ActBuf, words: usize) -> i64 {
        let (acc, acts) = (&mut *pix.acc, act.acts);
        acc.fill(0);
        if words == 1 {
            let mut o4 = list.aoff.chunks_exact(4);
            let mut w4 = list.w.chunks_exact(4);
            let mut g4 = list.group.chunks_exact(4);
            for ((o, w), g) in (&mut o4).zip(&mut w4).zip(&mut g4) {
                let a0 = acts[o[0] as usize];
                let a1 = acts[o[1] as usize];
                let a2 = acts[o[2] as usize];
                let a3 = acts[o[3] as usize];
                acc[g[0] as usize] |= a0 & w[0];
                acc[g[1] as usize] |= a1 & w[1];
                acc[g[2] as usize] |= a2 & w[2];
                acc[g[3] as usize] |= a3 & w[3];
            }
            let rest = o4.remainder().iter().zip(w4.remainder());
            for ((&o, &w), &g) in rest.zip(g4.remainder()) {
                acc[g as usize] |= acts[o as usize] & w;
            }
        } else {
            let entries = list.aoff.iter().zip(list.group);
            for ((&o, &g), w) in entries.zip(list.w.chunks_exact(words)) {
                let a = &acts[o as usize * words..][..words];
                let acc_g = &mut acc[g as usize * words..][..words];
                for ((s, &a), &w) in acc_g.iter_mut().zip(a).zip(w) {
                    *s |= a & w;
                }
            }
        }
        acc.iter().map(|w| i64::from(w.count_ones())).sum()
    }
}

/// 4-wide popcount reduction of one single-word list: four
/// independent counters, combined by pairwise adds. Exact integer
/// arithmetic, so any association is bit-identical to the reference
/// fold.
#[inline]
fn fxp_fold(aoff: &[u32], acts: &[u64], w: &[u64]) -> i64 {
    let (mut c0, mut c1, mut c2, mut c3) = (0i64, 0i64, 0i64, 0i64);
    let mut o4 = aoff.chunks_exact(4);
    let mut w4 = w.chunks_exact(4);
    for (o, w) in (&mut o4).zip(&mut w4) {
        c0 += i64::from((acts[o[0] as usize] & w[0]).count_ones());
        c1 += i64::from((acts[o[1] as usize] & w[1]).count_ones());
        c2 += i64::from((acts[o[2] as usize] & w[2]).count_ones());
        c3 += i64::from((acts[o[3] as usize] & w[3]).count_ones());
    }
    for (&o, &w) in o4.remainder().iter().zip(w4.remainder()) {
        c0 += i64::from((acts[o as usize] & w).count_ones());
    }
    (c0 + c1) + (c2 + c3)
}

/// Exact fixed-point accumulation: SWAR popcount tree over one list.
struct FxpKernel;

impl ModeKernel for FxpKernel {
    #[inline]
    fn count(_pix: &mut PixelBuf, list: &RowView, act: &ActBuf, words: usize) -> i64 {
        if words == 1 {
            return fxp_fold(list.aoff, act.acts, list.w);
        }
        let mut total = 0i64;
        for (&o, w) in list.aoff.iter().zip(list.w.chunks_exact(words)) {
            let a = &act.acts[o as usize * words..][..words];
            for (&a, &w) in a.iter().zip(w) {
                total += i64::from((a & w).count_ones());
            }
        }
        total
    }
}

/// The one-level APC count of a statically-paired product run: every
/// listed lane is known live, so pair `t` is list entries `2t, 2t+1` and
/// the reference reduction's `Σ_pairs (2·ones(a∧b) + ones(a∨b)) +
/// ones(tail)` collapses — by the inclusion–exclusion identity
/// `ones(a∨b) = ones(a) + ones(b) − ones(a∧b)` — to
/// `Σ ones(product) + Σ_pairs ones(a∧b)`, computed here with no product
/// staging and full ILP. Integer-exact, so bit-identical to
/// [`geo_sc::apc::apc_reduce`] by construction.
#[inline]
fn apc_static(aoff: &[u32], w: &[u64], acts: &[u64]) -> i64 {
    let mut sum = 0i64;
    let mut o2 = aoff.chunks_exact(2);
    let mut w2 = w.chunks_exact(2);
    for (o, ww) in (&mut o2).zip(&mut w2) {
        let a = acts[o[0] as usize] & ww[0];
        let b = acts[o[1] as usize] & ww[1];
        sum += i64::from(a.count_ones()) + i64::from(b.count_ones());
        sum += i64::from((a & b).count_ones());
    }
    if let (Some(&o), Some(&ww)) = (o2.remainder().first(), w2.remainder().first()) {
        sum += i64::from((acts[o as usize] & ww).count_ones());
    }
    sum
}

/// One-level APC accumulation over one polarity list. Single-word
/// neurons with no zero activation anywhere ([`ActBuf::zeros`]) take
/// [`apc_static`]; every other neuron compacts the list's live products
/// into scratch (write always, advance by the unit's nonzero flag —
/// branchless, and the cursor never outruns the entry index) preserving
/// the reference kernels' push order exactly, then reduces with
/// [`geo_sc::apc::apc_reduce`].
struct ApcKernel;

impl ModeKernel for ApcKernel {
    #[inline]
    fn count(pix: &mut PixelBuf, list: &RowView, act: &ActBuf, words: usize) -> i64 {
        let prod = &mut *pix.prod;
        let mut np = 0usize;
        if words == 1 {
            if act.zeros == 0 {
                return apc_static(list.aoff, list.w, act.acts);
            }
            for (&o, &w) in list.aoff.iter().zip(list.w) {
                let u = o as usize;
                prod[np] = act.acts[u] & w;
                np += usize::from(act.nz[u]);
            }
            return geo_sc::apc::apc_reduce(&prod[..np], 1);
        }
        for (&o, w) in list.aoff.iter().zip(list.w.chunks_exact(words)) {
            let u = o as usize;
            let a = &act.acts[u * words..][..words];
            for ((p, &a), &w) in prod[np * words..][..words].iter_mut().zip(a).zip(w) {
                *p = a & w;
            }
            np += usize::from(act.nz[u]);
        }
        geo_sc::apc::apc_reduce(&prod[..np * words], words)
    }
}

/// Stores the first error any worker produced (later ones are dropped —
/// one failure already fails the whole layer).
fn record_error(slot: &Mutex<Option<GeoError>>, err: GeoError) {
    let mut guard = match slot.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if guard.is_none() {
        *guard = Some(err);
    }
}

impl PreparedConv {
    /// Compacts a resolved convolution at input geometry `(h, w)`:
    /// flattens the activation tables into the gather slab, packs the
    /// nonzero lanes and fixes per-worker scratch sizing.
    fn new(
        conv: &Conv2d,
        (h, w): (usize, usize),
        r: Resolved,
        config: &GeoConfig,
    ) -> Result<Self, GeoError> {
        let (oh, ow) = conv.output_size(h, w);
        let (k, volume, words) = (conv.kernel(), r.act_tables.len(), r.len.div_ceil(64));
        let (act_flat, pos_ao) = flatten_act_tables(&r.act_tables, words)?;
        // The per-lane gather offsets (`lane · ow`) are stored as u32.
        if u32::try_from(volume.saturating_mul(ow.max(1))).is_err() {
            return Err(GeoError::Internal(format!(
                "conv gather index space {volume}·{ow} exceeds u32"
            )));
        }
        let compact = CompactKernel::build(&r, ow);
        let (stride, pad) = (conv.stride(), conv.padding());
        let mut pos_ci = Vec::with_capacity(volume);
        let mut pos_ky = Vec::with_capacity(volume);
        let mut pos_kx = Vec::with_capacity(volume);
        // Output coordinate `o` reads input `o·stride + kpos − pad` at kernel
        // offset `kpos`, when that lies inside `0..n`.
        let inside = |o: usize, kpos: usize, n: usize| {
            (o * stride + kpos).checked_sub(pad).filter(|&i| i < n)
        };
        let mut mac_weights = vec![0u64; conv.cin() * h * w];
        for (lane, &rows) in compact.lane_rows.iter().enumerate() {
            let rem = lane % (k * k);
            let (ci, ky, kx) = (lane / (k * k), rem / k, rem % k);
            pos_ci.push(ci as u32);
            pos_ky.push(ky as u32);
            pos_kx.push(kx as u32);
            for iy in (0..oh).filter_map(|oy| inside(oy, ky, h)) {
                for ix in (0..ow).filter_map(|ox| inside(ox, kx, w)) {
                    mac_weights[(ci * h + iy) * w + ix] += rows;
                }
            }
        }
        Ok(PreparedConv {
            mode: config.accumulation,
            len: r.len,
            words,
            width: GeoConfig::width_for(r.len),
            progressive: config.progressive,
            cin: conv.cin(),
            h,
            w,
            cout: r.rows,
            stride,
            pad,
            oh,
            ow,
            volume,
            act_tables: r.act_tables,
            act_flat,
            compact,
            pos_ci,
            pos_ky,
            pos_kx,
            pos_ao,
            mac_weights,
            groups: r.groups,
        })
    }

    /// Accepts one request's activations in either form and turns them
    /// into compute-ready levels, validating the batch's shape against
    /// the prepared geometry and its maximum level against the lane
    /// tables (keeping compute-phase lookups infallible). An f32 tensor
    /// is quantized; chained levels (produced upstream with this layer's
    /// width and generation mode) are only re-validated. Pure
    /// per-element work — safe to run concurrently from any number of
    /// requests.
    fn accept(&self, flow: Flow) -> Result<ActBatch, GeoError> {
        let s = flow.shape();
        if s.len() != 4 || s[1] != self.cin {
            return Err(shape_mismatch(format!("(N, {}, H, W)", self.cin), s));
        }
        if s[2] != self.h || s[3] != self.w {
            let expected = format!("(N, {}, {}, {})", self.cin, self.h, self.w);
            return Err(shape_mismatch(expected, s));
        }
        let n = s[0];
        let levels = flow.into_levels(self.progressive, self.width);
        validate_act_levels(&self.act_tables, &levels)?;
        Ok(ActBatch { n, levels })
    }

    /// Phase 2: computes the whole output, one parallel task per *tile*:
    /// a contiguous run of spatial rows `(b, oy)` of the `[n·oh, cout,
    /// ow]` staging buffer, as many as [`Self::tile_units`] allows. A task
    /// gathers its rows once ([`Self::gather_tile`]), then streams every
    /// lane entry of every output channel across all of the tile's pixels
    /// ([`TileKernel`]): the weights stay stationary while the activations
    /// stream past, so a layer's lane lists are read once per tile instead
    /// of once per row and column. A serial pass transposes the staging
    /// buffer to the `[n, cout, oh, ow]` output layout in the form `emit`
    /// asks for. Bit-identical at every thread count and tile size: each
    /// pixel folds the same entries in the same order from shared
    /// immutable state, and each staging row is written by exactly one
    /// task. Infallible — every lookup the kernels perform was validated
    /// at prepare/accept time.
    fn compute(&self, batch: &ActBatch, emit: Emit) -> Flow {
        let row_elems = self.cout * self.ow;
        let mut tmp = vec![0f32; batch.n * self.oh * row_elems];
        self.run_tiles(
            &mut tmp,
            &batch.levels,
            (1, row_elems),
            |chunk, co, vals| {
                for (t, v) in vals.chunks_exact(self.ow).enumerate() {
                    chunk[t * row_elems + co * self.ow..][..self.ow].copy_from_slice(v);
                }
            },
        );
        self.transpose_stage(&tmp, batch.n, self.oh, self.ow, emit)
    }

    /// Fused conv→avg-pool compute (§III-A computation skipping): each
    /// tile is a run of whole *pooled* rows, i.e. both full-resolution rows
    /// of each. Per output channel, the tile's full-resolution values get
    /// the absorbed batch-norm affine and ReLU clamp per pixel in the exact
    /// unfused op order, and each 2×2 window is combined once — the
    /// full-resolution tensor is never materialized and the serial
    /// transpose shrinks 4×. Returns the `[n, oh/2, cout, ow/2]` staging
    /// buffer. Bit-identical to the unfused compute → BnAffine::apply →
    /// clamp → `avg_pool2x2` pipeline: the counts come from the same tile
    /// loop, and every float op runs in the same order on the same values.
    fn compute_pooled(&self, batch: &ActBatch, bn: Option<&BnAffine>, relu: bool) -> Vec<f32> {
        let (ow, pow2) = (self.ow, self.ow / 2);
        let row_elems = self.cout * pow2;
        let mut tmp = vec![0f32; batch.n * (self.oh / 2) * row_elems];
        self.run_tiles(
            &mut tmp,
            &batch.levels,
            (2, row_elems),
            |chunk, co, vals| {
                if let Some(bn) = bn {
                    let (sc, sh) = (bn.scales[co], bn.shifts[co]);
                    for v in vals.iter_mut() {
                        *v = sc * *v + sh;
                    }
                }
                if relu {
                    for v in vals.iter_mut() {
                        *v = v.clamp(0.0, 1.0);
                    }
                }
                for (t, pair) in vals.chunks_exact(2 * ow).enumerate() {
                    let (r0, r1) = pair.split_at(ow);
                    let dst = &mut chunk[t * row_elems + co * pow2..][..pow2];
                    for (pox, d) in dst.iter_mut().enumerate() {
                        let sum = r0[2 * pox] + r0[2 * pox + 1] + r1[2 * pox] + r1[2 * pox + 1];
                        *d = sum / 4.0;
                    }
                }
            },
        );
        tmp
    }

    /// Runs the tile loop over `staging`, whose task units hold
    /// `unit_rows` full-resolution rows and `unit_elems` values each: one
    /// parallel task per tile of [`Self::tile_units`] units, where
    /// `store(chunk, co, values)` writes one output channel's values of
    /// the tile's pixels into the tile's chunk.
    fn run_tiles(
        &self,
        staging: &mut [f32],
        levels: &[u32],
        (unit_rows, unit_elems): (usize, usize),
        store: impl Fn(&mut [f32], usize, &mut [f32]) + Sync,
    ) {
        let tile = self.tile_units(staging.len() / unit_elems.max(1), unit_rows);
        staging
            .par_chunks_mut((tile * unit_elems).max(1))
            .enumerate()
            .for_each_init(
                || self.scratch(unit_rows * tile),
                |worker, (i, chunk)| {
                    let rows = unit_rows * (chunk.len() / unit_elems);
                    let r0 = unit_rows * i * tile;
                    self.tile(r0, rows, levels, &mut worker.0, |co, vals| {
                        store(chunk, co, vals)
                    });
                },
            );
    }

    /// Serial transpose of a `[n, r, cout, c]` staging buffer into the
    /// `[n, cout, r, c]` output layout (`r`/`c` are full-resolution or
    /// pooled dims), materialized as `emit` asks: an f32 tensor, or the
    /// chained consumer's levels with its [`act_level`] quantization
    /// fused into the copy, so the consumer skips its quantization pass.
    fn transpose_stage(&self, tmp: &[f32], n: usize, r: usize, c: usize, emit: Emit) -> Flow {
        let shape = vec![n, self.cout, r, c];
        match emit {
            Emit::Float => {
                let mut out = Tensor::zeros(&shape);
                self.transpose_into(tmp, out.data_mut(), n, r, c, |v| v);
                Flow::Float(out)
            }
            Emit::Levels { progressive, width } => {
                let mut levels = vec![0u32; tmp.len()];
                self.transpose_into(tmp, &mut levels, n, r, c, |v| {
                    act_level(progressive, v, width)
                });
                Flow::Levels(LevelTensor { shape, levels })
            }
        }
    }

    fn transpose_into<T>(
        &self,
        tmp: &[f32],
        dst: &mut [T],
        n: usize,
        r: usize,
        c: usize,
        map: impl Fn(f32) -> T,
    ) {
        let row_elems = self.cout * c;
        for b in 0..n {
            for y in 0..r {
                let src = &tmp[(b * r + y) * row_elems..][..row_elems];
                for co in 0..self.cout {
                    let at = ((b * self.cout + co) * r + y) * c;
                    for (d, &v) in dst[at..at + c].iter_mut().zip(&src[co * c..][..c]) {
                        *d = map(v);
                    }
                }
            }
        }
    }

    /// A pooled [`Scratch`] grown to hold tiles of `rows` full-resolution
    /// rows.
    fn scratch(&self, rows: usize) -> Pooled {
        let (pixels, words) = (rows * self.ow, self.words);
        Pooled::take(|s| {
            grow(&mut s.acts, self.volume * pixels * words);
            grow(&mut s.nz, self.volume * pixels);
            grow(&mut s.acc, self.groups * pixels * words);
            grow(&mut s.open, pixels);
            grow(&mut s.counts[0], pixels);
            grow(&mut s.counts[1], pixels);
            grow(&mut s.vals, pixels);
        })
    }

    /// Task units per tile: as many units of `unit_rows` full-resolution
    /// rows each (1, or 2 for a pooled row) as fit [`TILE_BYTES`] of
    /// gathered activation words and [`TILE_PIXELS`] pixels, and no more
    /// than an even share of the `units` per worker, so every worker gets
    /// a tile. Tiling moves no output bit: each pixel is a pure function of
    /// its indices.
    fn tile_units(&self, units: usize, unit_rows: usize) -> usize {
        let unit_pixels = unit_rows * self.ow;
        let unit_bytes = unit_pixels * self.volume * self.words * 8;
        let budget = (TILE_BYTES / unit_bytes.max(1)).min(TILE_PIXELS / unit_pixels.max(1));
        let share = units.div_ceil(rayon::current_num_threads().max(1));
        budget.min(share).max(1)
    }

    /// Computes the `rows` full-resolution rows from row `r0` (row `=
    /// b·oh + oy`) and hands each output channel's values, one per tile
    /// pixel `(row − r0)·ow + ox`, to `out(co, values)`. Dispatches once
    /// on the accumulation mode and the stream's word count: one- and
    /// two-word streams (every benchmarked configuration) get kernels
    /// monomorphized with their words in registers, longer ones read the
    /// count at run time.
    fn tile(
        &self,
        r0: usize,
        rows: usize,
        levels: &[u32],
        s: &mut Scratch,
        out: impl FnMut(usize, &mut [f32]),
    ) {
        fn by_words<K: TileKernel>(
            conv: &PreparedConv,
            r0: usize,
            rows: usize,
            levels: &[u32],
            s: &mut Scratch,
            out: impl FnMut(usize, &mut [f32]),
        ) {
            match conv.words {
                1 => conv.tile_with::<K, 1>(r0, rows, levels, s, out),
                2 => conv.tile_with::<K, 2>(r0, rows, levels, s, out),
                _ => conv.tile_with::<K, 0>(r0, rows, levels, s, out),
            }
        }
        match self.mode {
            Accumulation::Or | Accumulation::Pbw | Accumulation::Pbhw => {
                by_words::<OrGroups>(self, r0, rows, levels, s, out)
            }
            Accumulation::Fxp => by_words::<Popcounts>(self, r0, rows, levels, s, out),
            Accumulation::Apc => by_words::<ApcPairs>(self, r0, rows, levels, s, out),
        }
    }

    /// The tile loop of one mode `K` at `W` words per stream (0: the
    /// layer's runtime count): gather the tile once, then per output
    /// channel count its positive and negative lists at every pixel and
    /// hand `(pos − neg) / len` to `out`.
    fn tile_with<K: TileKernel, const W: usize>(
        &self,
        r0: usize,
        rows: usize,
        levels: &[u32],
        s: &mut Scratch,
        mut out: impl FnMut(usize, &mut [f32]),
    ) {
        let words = tile_words::<W>(self.words);
        let pixels = rows * self.ow;
        self.gather_tile::<W>(r0, rows, levels, s);
        let Scratch {
            acts,
            nz,
            acc,
            open,
            counts: [pos, neg],
            vals,
            ..
        } = s;
        let act = TileAct {
            acts,
            nz,
            rows,
            words,
        };
        let acc = &mut acc[..self.groups * pixels * words];
        let (pos, neg) = (&mut pos[..pixels], &mut neg[..pixels]);
        let (open, vals) = (&mut open[..pixels], &mut vals[..pixels]);
        for co in 0..self.cout {
            let [lp, ln] = self.compact.row(co);
            K::count::<W>(&lp, &act, acc, open, pos);
            K::count::<W>(&ln, &act, acc, open, neg);
            for ((v, &p), &n) in vals.iter_mut().zip(pos.iter()).zip(neg.iter()) {
                *v = (p - n) as f32 / self.len as f32;
            }
            out(co, vals);
        }
    }

    /// Gathers the activation words of tile rows `r0..r0 + rows` into
    /// `s.acts`, lane-major (`[lane][pixel][word]`, with pixel
    /// `(row − r0)·ow + ox`), zeroing out-of-bounds and level-0 units
    /// with a branchless mask and recording per-unit nonzero flags in
    /// `s.nz`. Each row is gathered once per call and shared by every
    /// output channel. Zero activation words are accumulation identities
    /// in every mode (OR, popcount, and the nz-gated APC pairing), so
    /// dropped lanes need no repacking — and masking, rather than skipping
    /// the level-0 table read, matches the reference kernels' skip
    /// semantics exactly even when fault injection corrupts a table's
    /// level-0 stream.
    fn gather_tile<const W: usize>(&self, r0: usize, rows: usize, levels: &[u32], s: &mut Scratch) {
        let (ow, words) = (self.ow, tile_words::<W>(self.words));
        let pixels = rows * ow;
        let acts = &mut s.acts[..self.volume * pixels * words];
        let nz = &mut s.nz[..self.volume * pixels];
        // Output coordinate `o` reads input `o·stride + kpos − pad`, when
        // that lies inside `0..n`.
        let inside = |o: usize, kpos: usize, n: usize| {
            (o * self.stride + kpos)
                .checked_sub(self.pad)
                .filter(|&i| i < n)
        };
        let lanes = acts
            .chunks_exact_mut(pixels * words)
            .zip(nz.chunks_exact_mut(pixels));
        for (l, (lane_a, lane_n)) in lanes.enumerate() {
            let (ci, ky, kx) = (
                self.pos_ci[l] as usize,
                self.pos_ky[l] as usize,
                self.pos_kx[l] as usize,
            );
            let table = &self.act_flat[self.pos_ao[l] as usize..];
            let runs = lane_a
                .chunks_exact_mut(ow * words)
                .zip(lane_n.chunks_exact_mut(ow));
            for (row, (dst_a, dst_n)) in (r0..).zip(runs) {
                let (b, oy) = (row / self.oh, row % self.oh);
                let Some(iy) = inside(oy, ky, self.h) else {
                    dst_a.fill(0);
                    dst_n.fill(0);
                    continue;
                };
                let src = &levels[((b * self.cin + ci) * self.h + iy) * self.w..][..self.w];
                for (ox, (a, z)) in dst_a.chunks_exact_mut(words).zip(dst_n).enumerate() {
                    let lv = inside(ox, kx, self.w).map_or(0, |ix| src[ix] as usize);
                    let keep = u64::from(lv != 0);
                    let mask = keep.wrapping_neg();
                    for (a, &t) in a.iter_mut().zip(&table[lv * words..][..words]) {
                        *a = t & mask;
                    }
                    *z = keep as u8;
                }
            }
        }
    }
}

/// Byte budget of one tile's gathered activation words: half of a 2 MiB
/// L2, so a tile stays cache-resident while every lane entry of every
/// output channel streams across it.
const TILE_BYTES: usize = 1 << 20;

/// Most pixels in one tile. A run this long already amortizes an entry's
/// set-up and keeps the per-pixel accumulators in L1; a longer one holds
/// more scratch for no measured gain — a layer with few kernel positions
/// would otherwise fit hundreds of rows in [`TILE_BYTES`].
const TILE_PIXELS: usize = 64;

/// A gathered tile, as the [`TileKernel`]s read it.
struct TileAct<'a> {
    /// `[lane][pixel][word]` activation words ([`Scratch::acts`]).
    acts: &'a [u64],
    /// `[lane][pixel]` nonzero flags ([`Scratch::nz`]).
    nz: &'a [u8],
    /// Rows in the tile: an entry's gather offset `aoff = lane·ow` times
    /// `rows` is its lane's first unit.
    rows: usize,
    /// Words per stream.
    words: usize,
}

/// Words per stream of a kernel monomorphized at `W` words: `W` itself,
/// or the runtime count `words` when `W` is 0.
#[inline(always)]
fn tile_words<const W: usize>(words: usize) -> usize {
    if W == 0 {
        words
    } else {
        W
    }
}

/// Weight-stationary accumulation kernels (DESIGN.md §14): each walks one
/// polarity list row once, holds each entry's stream words in registers
/// and streams them across the contiguous activation words of every tile
/// pixel into per-pixel accumulators. Each pixel folds the same entries
/// in the same order as the reference kernels; OR folds and popcount sums are exact, and APC pairing is
/// carried per pixel, so every count is bit-identical to the reference.
trait TileKernel {
    /// Overwrites `out[p]` with `list`'s accumulated count at every tile
    /// pixel `p`. `acc` holds `groups · out.len() · words` words and
    /// `open` `out.len()`; both are scratch.
    fn count<const W: usize>(
        list: &RowView,
        act: &TileAct,
        acc: &mut [u64],
        open: &mut [u64],
        out: &mut [i64],
    );
}

/// `ones(a ∧ w)` summed over one pixel's stream words.
#[inline(always)]
fn and_ones(a: &[u64], w: &[u64]) -> i64 {
    a.iter()
        .zip(w)
        .map(|(&a, &w)| i64::from((a & w).count_ones()))
        .sum()
}

/// OR accumulation into per-group, per-pixel words (`[group][pixel][word]`):
/// Or is the one-group case, Pbw/Pbhw have `k` or `k²` groups.
struct OrGroups;

impl TileKernel for OrGroups {
    #[inline]
    fn count<const W: usize>(
        list: &RowView,
        act: &TileAct,
        acc: &mut [u64],
        _open: &mut [u64],
        out: &mut [i64],
    ) {
        let words = tile_words::<W>(act.words);
        let (run, stride) = (out.len() * words, act.rows * words);
        let entries = || {
            list.aoff
                .iter()
                .zip(list.group)
                .zip(list.w.chunks_exact(words))
        };
        acc.fill(0);
        for ((&o, &g), w) in entries() {
            let a = &act.acts[o as usize * stride..][..run];
            let s = &mut acc[g as usize * run..][..run];
            for (s, a) in s.chunks_exact_mut(words).zip(a.chunks_exact(words)) {
                for j in 0..words {
                    s[j] |= a[j] & w[j];
                }
            }
        }
        out.fill(0);
        for group in acc.chunks_exact(run) {
            for (c, s) in out.iter_mut().zip(group.chunks_exact(words)) {
                *c += s.iter().map(|x| i64::from(x.count_ones())).sum::<i64>();
            }
        }
    }
}

/// Exact fixed-point accumulation: per-pixel popcount sums.
struct Popcounts;

impl TileKernel for Popcounts {
    #[inline]
    fn count<const W: usize>(
        list: &RowView,
        act: &TileAct,
        _acc: &mut [u64],
        _open: &mut [u64],
        out: &mut [i64],
    ) {
        let words = tile_words::<W>(act.words);
        let (run, stride) = (out.len() * words, act.rows * words);
        let entries = || list.aoff.iter().zip(list.w.chunks_exact(words));
        out.fill(0);
        for (&o, w) in entries() {
            let a = &act.acts[o as usize * stride..][..run];
            for (c, a) in out.iter_mut().zip(a.chunks_exact(words)) {
                *c += and_ones(a, w);
            }
        }
    }
}

/// One-level APC accumulation with its pairing carried per pixel. The
/// reference pushes a product per live unit (nonzero activation level)
/// in list order and [`geo_sc::apc::apc_reduce`] counts each consecutive
/// pair `(a, b)` as `2·ones(a∧b) + ones(a∨b)` and an odd tail as
/// `ones(tail)`; by `ones(a∨b) = ones(a) + ones(b) − ones(a∧b)` that is
/// `ones(a) + ones(b) + ones(a∧b)`. So each pixel adds `ones(x)` for every
/// product `x`, plus `ones(held ∧ x)` while a product is held open
/// (`open[p]` all ones, the held product in `acc`), and a live unit
/// toggles the open flag ([`apc_step`]). A dead unit's words are masked
/// to zero, so it adds nothing and leaves the pairing as it was.
/// Integer-exact, with no per-pixel compaction or branch.
struct ApcPairs;

/// Folds product `a ∧ w` of a unit with nonzero flag `z` into one
/// pixel's APC count `c`, open flag `m` and held product `h`.
#[inline(always)]
fn apc_step(c: &mut i64, m: &mut u64, h: &mut [u64], a: &[u64], w: &[u64], z: u8) {
    let mask = *m;
    for ((h, &a), &w) in h.iter_mut().zip(a).zip(w) {
        let x = a & w;
        *c += i64::from(x.count_ones()) + i64::from((*h & mask & x).count_ones());
        *h = (*h & mask) | (x & !mask);
    }
    *m = mask ^ u64::from(z).wrapping_neg();
}

impl TileKernel for ApcPairs {
    #[inline]
    fn count<const W: usize>(
        list: &RowView,
        act: &TileAct,
        acc: &mut [u64],
        open: &mut [u64],
        out: &mut [i64],
    ) {
        let words = tile_words::<W>(act.words);
        let (pixels, held) = (out.len(), &mut acc[..out.len() * words]);
        let entries = || list.aoff.iter().zip(list.w.chunks_exact(words));
        out.fill(0);
        open.fill(0);
        for (&o, w) in entries() {
            let unit = o as usize * act.rows;
            let a = &act.acts[unit * words..][..pixels * words];
            let nz = &act.nz[unit..][..pixels];
            let cols = out
                .iter_mut()
                .zip(open.iter_mut())
                .zip(held.chunks_exact_mut(words));
            for (((c, m), h), (a, &z)) in cols.zip(a.chunks_exact(words).zip(nz)) {
                apc_step(c, m, h, a, w, z);
            }
        }
    }
}

impl PreparedLinear {
    /// Compacts a resolved fully-connected layer (see
    /// [`PreparedConv::new`]).
    fn new(r: Resolved, config: &GeoConfig) -> Result<Self, GeoError> {
        let (features, words) = (r.act_tables.len(), r.len.div_ceil(64));
        let (act_flat, pos_ao) = flatten_act_tables(&r.act_tables, words)?;
        // The per-lane gather offsets (`lane · 1`) are stored as u32.
        if u32::try_from(features).is_err() {
            return Err(GeoError::Internal(format!(
                "linear gather index space {features} exceeds u32"
            )));
        }
        let compact = CompactKernel::build(&r, 1);
        let max_row_entries = compact.max_row_entries();
        Ok(PreparedLinear {
            mode: config.accumulation,
            len: r.len,
            words,
            width: GeoConfig::width_for(r.len),
            progressive: config.progressive,
            features,
            outf: r.rows,
            act_tables: r.act_tables,
            act_flat,
            compact,
            pos_ao,
            groups: r.groups,
            max_row_entries,
        })
    }

    /// Accepts one request's activations in either form (see
    /// [`PreparedConv::accept`]).
    fn accept(&self, flow: Flow) -> Result<ActBatch, GeoError> {
        let s = flow.shape();
        if s.len() != 2 || s[1] != self.features {
            return Err(shape_mismatch(format!("(N, {})", self.features), s));
        }
        let n = s[0];
        let levels = flow.into_levels(self.progressive, self.width);
        validate_act_levels(&self.act_tables, &levels)?;
        Ok(ActBatch { n, levels })
    }

    /// Phase 2: computes the whole output, materialized as `emit` asks
    /// (chained levels are a serial map over the small `[n, outf]`
    /// output). Output neurons `(b, o)` are split into one contiguous
    /// run per worker (rather than scheduling each neuron as its own
    /// chunk), so per-chunk dispatch overhead is paid once per worker.
    /// Chunk geometry cannot affect the numerics — each neuron is a pure
    /// function of its row index — so this stays bit-identical at every
    /// thread count.
    fn compute(&self, batch: &ActBatch, emit: Emit) -> Flow {
        let mut out = Tensor::zeros(&[batch.n, self.outf]);
        let total = batch.n * self.outf;
        let chunk_rows = total.div_ceil(rayon::current_num_threads().max(1)).max(1);
        out.data_mut()
            .par_chunks_mut(chunk_rows)
            .enumerate()
            .for_each_init(
                || self.scratch(),
                |scratch, (ci, chunk)| {
                    let scratch = &mut scratch.0;
                    let start = ci * chunk_rows;
                    match self.mode {
                        Accumulation::Or => {
                            self.compute_chunk::<OrKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Pbw | Accumulation::Pbhw => {
                            self.compute_chunk::<GroupedKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Fxp => {
                            self.compute_chunk::<FxpKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Apc => {
                            self.compute_chunk::<ApcKernel>(start, chunk, batch, scratch)
                        }
                    }
                },
            );
        emit.apply(out)
    }

    /// A pooled [`Scratch`] grown to hold one batch element's gather and
    /// one neuron's accumulators.
    fn scratch(&self) -> Pooled {
        let words = self.words;
        Pooled::take(|s| {
            grow(&mut s.acts, self.features * words);
            grow(&mut s.nz, self.features);
            grow(&mut s.acc, self.groups * words);
            grow(&mut s.prod, self.max_row_entries * words);
        })
    }

    /// Gathers batch element `b`'s activation words — one unit per input
    /// feature — into `acts` and `nz`, zeroing level-0 units with a
    /// branchless mask (identical semantics to
    /// [`PreparedConv::gather_tile`]), and returns its count of level-0
    /// units.
    fn gather_batch(&self, b: usize, levels: &[u32], acts: &mut [u64], nz: &mut [u8]) -> u32 {
        let words = self.words;
        let base = b * self.features;
        let mut zero_units = 0u32;
        for f in 0..self.features {
            let lv = levels[base + f] as usize;
            let keep = u64::from(lv != 0);
            let mask = keep.wrapping_neg();
            let src = self.pos_ao[f] as usize + lv * words;
            for j in 0..words {
                acts[f * words + j] = self.act_flat[src + j] & mask;
            }
            nz[f] = keep as u8;
            zero_units += 1 - keep as u32;
        }
        zero_units
    }

    /// Computes one worker's run of output neurons (`row = b·outf + o`),
    /// monomorphized over the accumulation-mode kernel. A worker's run is
    /// contiguous in `(b, o)` order, so the batch element's activation
    /// gather is performed once per `b` and shared by its `outf` neurons;
    /// a neuron's two [`RowView`]s borrow its lane lists directly.
    fn compute_chunk<M: ModeKernel>(
        &self,
        start: usize,
        chunk: &mut [f32],
        batch: &ActBatch,
        scratch: &mut Scratch,
    ) {
        let (ck, words) = (&self.compact, self.words);
        let Scratch {
            acts,
            nz,
            acc,
            prod,
            ..
        } = scratch;
        let (acts, nz) = (&mut acts[..self.features * words], &mut nz[..self.features]);
        let mut pix = PixelBuf {
            prod: &mut prod[..self.max_row_entries * words],
            acc: &mut acc[..self.groups * words],
        };
        let (mut cur_b, mut zeros) = (usize::MAX, 0);
        for (j, out_v) in chunk.iter_mut().enumerate() {
            let row = start + j;
            let o = row % self.outf;
            let b = row / self.outf;
            if b != cur_b {
                zeros = self.gather_batch(b, &batch.levels, acts, nz);
                cur_b = b;
            }
            let act = ActBuf { acts, nz, zeros };
            *out_v = M::neuron(&mut pix, &ck.row(o), &act, words) as f32 / self.len as f32;
        }
    }
}

/// The stochastic inference engine.
///
/// # Examples
///
/// ```
/// use geo_core::{GeoConfig, ScEngine};
/// use geo_nn::{models, Tensor};
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
/// let mut model = models::lenet5(1, 8, 10, 0);
/// let logits = engine.forward(&mut model, &Tensor::full(&[1, 1, 8, 8], 0.5), false)?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct ScEngine {
    config: GeoConfig,
    cache: TableCache,
    resilience: ResilienceReport,
    telemetry: EngineTelemetry,
}

impl ScEngine {
    /// Creates an engine for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] for unrealizable configurations.
    pub fn new(config: GeoConfig) -> Result<Self, GeoError> {
        Self::with_faults(config, FaultModel::none())
    }

    /// Creates an engine whose datapath injects the given fault model
    /// (see [`geo_sc::fault`]).
    ///
    /// [`FaultModel::none`] is guaranteed to take the exact fault-free code
    /// path, so its outputs are bit-for-bit identical to
    /// [`ScEngine::new`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] for unrealizable configurations
    /// and [`GeoError::Sc`] for fault rates outside `[0, 1]`.
    pub fn with_faults(config: GeoConfig, faults: FaultModel) -> Result<Self, GeoError> {
        config.validate()?;
        faults.validate().map_err(GeoError::Sc)?;
        let mut cache = TableCache::new();
        if !faults.is_none() {
            cache.set_faults(Some(FaultInjector::new(faults).map_err(GeoError::Sc)?));
        }
        Ok(ScEngine {
            config,
            cache,
            resilience: ResilienceReport::default(),
            telemetry: EngineTelemetry::default(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GeoConfig {
        &self.config
    }

    /// The fault model injected into this engine's datapath, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.cache.fault_model()
    }

    /// Per-layer fault counts accumulated since creation (or the last
    /// [`ScEngine::reset_resilience_report`]). Empty for fault-free
    /// engines.
    pub fn resilience_report(&self) -> &ResilienceReport {
        &self.resilience
    }

    /// Clears the accumulated resilience report.
    pub fn reset_resilience_report(&mut self) {
        self.resilience = ResilienceReport::default();
    }

    /// Snapshot of the per-layer telemetry counters and phase times
    /// accumulated since creation (or the last
    /// [`ScEngine::reset_telemetry`]).
    ///
    /// Counters cover both the compacted and reference compute paths,
    /// which resolve the same lanes and execute the identical MAC set by
    /// construction.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report("sc-engine")
    }

    /// Clears the accumulated telemetry counters and phase times.
    pub fn reset_telemetry(&mut self) {
        self.telemetry.reset();
    }

    /// Stream length assigned to each parametrized (conv/linear) layer:
    /// `sp` if the layer feeds a pooling stage, the output length for the
    /// last layer, `s` otherwise. Indexed by position in `model.layers()`.
    pub fn stream_plan(&self, model: &Sequential) -> Vec<Option<usize>> {
        let layers = model.layers();
        let param_idx: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
            .map(|(i, _)| i)
            .collect();
        let mut plan = vec![None; layers.len()];
        for (k, &i) in param_idx.iter().enumerate() {
            let next = param_idx.get(k + 1).copied().unwrap_or(layers.len());
            let pooled = layers[i..next]
                .iter()
                .any(|l| matches!(l, Layer::AvgPool2d(_) | Layer::MaxPool2d(_)));
            let len = if k + 1 == param_idx.len() {
                self.config.output_stream_len
            } else if pooled {
                self.config.stream_len_pooled
            } else {
                self.config.stream_len
            };
            plan[i] = Some(len);
        }
        plan
    }

    /// Runs the network with the SC datapath.
    ///
    /// With `training = true`, float layers run forward first (caching
    /// inputs for backward) and SC outputs replace their results; batch
    /// norm uses batch statistics. With `training = false`, only the SC
    /// path runs and batch norm applies its quantized folded affine.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches.
    pub fn forward(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
    ) -> Result<Tensor, GeoError> {
        self.forward_with_lens(model, input, training, |_, len| Ok(len))
    }

    /// Runs the network through the *pre-compaction reference kernels*:
    /// the per-pixel loops that test padding bounds and lane zeroness on
    /// every lane and materialize APC products as heap bitstreams.
    ///
    /// The oracle is self-contained: it walks the model layer by layer,
    /// resolves each conv/linear layer through the same resolve the
    /// prepared path compacts, and copies each lane's stream words into
    /// its own records. It never reads a compacted kernel or the flat
    /// activation slab. It is the oracle the compacted kernels are proven
    /// bit-identical against (`crates/core/tests/compaction_equivalence.rs`)
    /// and the "before" side of the `bench_forward` perf trajectory.
    /// Outputs, resilience reports and telemetry MAC and lane counts equal
    /// [`ScEngine::forward`]'s at every thread count, in both modes. The
    /// walk is unfused, so an oracle comparison can never take the
    /// conv→pool fusion or level-chaining fast path it checks.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches, exactly as
    /// [`ScEngine::forward`] does.
    pub fn forward_reference(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
    ) -> Result<Tensor, GeoError> {
        self.walk(
            model,
            input,
            training,
            |eng, layer, x, pl, len, tel, res| {
                let r = eng.resolve_layer(layer, x.shape(), len, pl, tel, res)?;
                let r = reference::RefLayer::new(r, eng.config);
                let tel = tel.layer(pl as usize);
                timed(tel, Phase::Compute, || r.forward(layer, x, tel))
            },
        )
    }

    /// The forward loop, parameterized over the per-layer stream-length
    /// source: `len_for(param_layer, planned_len)` returns the length each
    /// parametrized layer runs at. [`ScEngine::forward`] passes the stream
    /// plan through unchanged; [`crate::exec::ProgramExecutor`] supplies
    /// lengths decoded from a compiled ISA program (cross-checked against
    /// the plan), so both paths share one datapath and stay bit-identical
    /// by construction.
    ///
    /// Both arms run every SC layer through the one per-layer prepare
    /// ([`Self::prepare_layer`]) and the one step executor
    /// ([`PreparedStep::run`]). Inference prepares the whole network into
    /// a one-shot [`PreparedModel`] — the same code the serve path reuses
    /// across requests, which is what pins that path bit-identical to
    /// every historical `forward` output. Training walks the layers
    /// ([`Self::walk`]), because float layers must run `&mut` forwards to
    /// cache inputs for backward (batch norm on batch statistics): each
    /// conv/linear layer runs its float forward, then takes its output
    /// from the executor on that layer's unfused step.
    pub(crate) fn forward_with_lens<F>(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
        mut len_for: F,
    ) -> Result<Tensor, GeoError>
    where
        F: FnMut(u32, usize) -> Result<usize, GeoError>,
    {
        if !training {
            model.set_training(false);
            let prepared = self.prepare_with_lens(model, input.shape(), &mut len_for)?;
            let out = prepared.forward(input);
            // Fold the pass's locally accumulated counters back into the
            // engine's reports.
            self.telemetry.absorb(&prepared.telemetry);
            self.resilience.absorb(&prepared.resilience);
            return out;
        }
        self.walk(model, input, true, |eng, layer, x, pl, len, tel, res| {
            let len = len_for(pl, len)?;
            let step = eng.prepare_layer(layer, x.shape(), len, pl, tel, res)?;
            let out = step.run(Flow::Float(x), tel)?;
            out.into_float("training step output")
        })
    }

    /// Runs `model` one layer at a time in one cache pass, `sc(engine,
    /// layer, input, param_layer, planned_len, ..)` computing each
    /// conv/linear output. In training every layer first runs its float
    /// forward, which non-SC layers keep; at inference non-SC layers run
    /// their prepared near-memory steps.
    fn walk<F>(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
        mut sc: F,
    ) -> Result<Tensor, GeoError>
    where
        F: FnMut(
            &mut Self,
            &Layer,
            Tensor,
            u32,
            usize,
            &mut EngineTelemetry,
            &mut ResilienceReport,
        ) -> Result<Tensor, GeoError>,
    {
        self.cache.begin_pass();
        let (mut tel, mut res) = (EngineTelemetry::default(), ResilienceReport::default());
        tel.passes.incr();
        if self.fault_model().is_some() {
            res.passes = 1;
        }
        model.set_training(training);
        let plan = self.stream_plan(model);
        let mut x = input.clone();
        let mut param_layer = 0u32;
        for (i, layer) in model.layers_mut().iter_mut().enumerate() {
            let tel_layer = param_layer.saturating_sub(1) as usize;
            x = match layer {
                Layer::Conv2d(_) | Layer::Linear(_) => {
                    if training {
                        layer.forward(&x)?; // cache input for backward
                    }
                    let len = planned_len(&plan, i)?;
                    let out = sc(self, layer, x, param_layer, len, &mut tel, &mut res)?;
                    param_layer += 1;
                    out
                }
                // ReLU, then saturate at 1.0 (see `PreparedStep::Relu`).
                Layer::Relu(r) if training => r.forward(&x).map(|v| v.min(1.0)),
                other if training => {
                    timed(tel.layer(tel_layer), Phase::NearMem, || other.forward(&x))?
                }
                other => {
                    tel.ensure_layers(tel_layer + 1);
                    let out = self
                        .near_mem_step(other, tel_layer)?
                        .run(Flow::Float(x), &tel)?;
                    out.into_float("near-memory step output")?
                }
            };
        }
        self.telemetry.absorb(&tel);
        self.resilience.absorb(&res);
        Ok(x)
    }

    /// Compiles `model` for inputs of `input_shape` (the batch dimension
    /// is free — any `N` may be served) into an immutable, `Send + Sync`,
    /// `Arc`-shareable [`PreparedModel`]: one serial pass over the network
    /// builds every lane table, weight stream, compacted kernel, and
    /// near-memory affine exactly as a direct [`ScEngine::forward`] would,
    /// after which any number of requests can run
    /// [`PreparedModel::forward`] concurrently against the shared state.
    ///
    /// Table and fault-draw order matches a direct forward's (compute
    /// never touches the cache or RNG), so prepared outputs are
    /// bit-identical to direct forwards. One prepare consumes one cache
    /// pass: TRNG tables and transient faults are drawn here and then
    /// *frozen* for every request served from this `PreparedModel` (see
    /// [`TableCache::begin_pass`]).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches, exactly as
    /// [`ScEngine::forward`] does.
    pub fn prepare(
        &mut self,
        model: &Sequential,
        input_shape: &[usize],
    ) -> Result<PreparedModel, GeoError> {
        self.prepare_with_lens(model, input_shape, &mut |_, len| Ok(len))
    }

    /// The prepare loop behind [`ScEngine::prepare`] and the inference arm
    /// of [`ScEngine::forward_with_lens`]: traces shapes through the
    /// network (replicating the forward loop's shape errors) and hoists
    /// every input-independent step into a [`PreparedStep`] sequence.
    pub(crate) fn prepare_with_lens<F>(
        &mut self,
        model: &Sequential,
        input_shape: &[usize],
        len_for: &mut F,
    ) -> Result<PreparedModel, GeoError>
    where
        F: FnMut(u32, usize) -> Result<usize, GeoError>,
    {
        self.cache.begin_pass();
        let plan = self.stream_plan(model);
        let mut telemetry = EngineTelemetry::default();
        let mut resilience = ResilienceReport::default();
        if self.fault_model().is_some() {
            resilience.passes = 1;
        }
        let fuse = self.config.fuse_pooling;
        let layers = model.layers();
        let mut steps = Vec::with_capacity(layers.len());
        let mut shape: Vec<usize> = input_shape.to_vec();
        let mut param_layer = 0u32;
        let mut i = 0;
        while i < layers.len() {
            // Near-memory steps are attributed to the parametrized layer
            // whose outputs they transform, as in the training loop.
            let tel_layer = param_layer.saturating_sub(1) as usize;
            let step = match &layers[i] {
                sc @ (Layer::Conv2d(_) | Layer::Linear(_)) => {
                    let len = len_for(param_layer, planned_len(&plan, i)?)?;
                    let step = self.prepare_layer(
                        sc,
                        &shape,
                        len,
                        param_layer,
                        &mut telemetry,
                        &mut resilience,
                    )?;
                    param_layer += 1;
                    // Fusion detection (§III-A): a `Conv → [BatchNorm] →
                    // [ReLU] → AvgPool2d` run with even output dims fuses
                    // into one step. Odd dims fall through — the unfused
                    // AvgPool arm then raises the identical shape error.
                    // Resolve order is unchanged: `prepare_layer` above
                    // drew this layer's tables/faults, and
                    // `BnAffine::prepare` touches neither the cache nor
                    // the RNG.
                    match step {
                        PreparedStep::Conv {
                            layer,
                            param_layer: pl,
                            emit,
                        } if fuse => match fusible_pool_run(layers, i + 1)
                            .filter(|_| layer.oh.is_multiple_of(2) && layer.ow.is_multiple_of(2))
                        {
                            Some((bn, relu, next)) => {
                                i = next - 1;
                                PreparedStep::ConvPooled {
                                    layer,
                                    param_layer: pl,
                                    bn: bn
                                        .map(|b| BnAffine::prepare(b, self.config.bn_bits))
                                        .transpose()?,
                                    relu,
                                    emit,
                                }
                            }
                            None => PreparedStep::Conv {
                                layer,
                                param_layer: pl,
                                emit,
                            },
                        },
                        step => step,
                    }
                }
                other => self.near_mem_step(other, tel_layer)?,
            };
            shape = step.output_shape(&shape)?;
            steps.push(step);
            i += 1;
        }
        if fuse {
            assign_level_chaining(&mut steps);
        }
        // Pre-size the per-layer counters: `PreparedModel::forward` only
        // holds `&self`, so it cannot grow the vector on first use. Near-
        // memory steps attribute to `tel_layer`, which can reach index 0
        // even in a network with no parametrized layers.
        telemetry.ensure_layers(param_layer.max(1) as usize);
        Ok(PreparedModel {
            config: self.config,
            input_shape: input_shape.to_vec(),
            steps,
            telemetry,
            resilience,
        })
    }

    /// The prepared step of a non-parametrized layer, its near-memory
    /// time attributed to `tel_layer`: batch norm becomes its quantized
    /// folded affine; ReLU, pools and Flatten evaluate as they are.
    fn near_mem_step(&self, layer: &Layer, tel_layer: usize) -> Result<PreparedStep, GeoError> {
        Ok(match layer {
            Layer::BatchNorm2d(bn) => PreparedStep::BatchNorm {
                affine: BnAffine::prepare(bn, self.config.bn_bits)?,
                tel_layer,
            },
            Layer::Relu(_) => PreparedStep::Relu,
            Layer::AvgPool2d(_) => PreparedStep::AvgPool { tel_layer },
            Layer::MaxPool2d(_) => PreparedStep::MaxPool { tel_layer },
            Layer::Flatten(_) => PreparedStep::Flatten { tel_layer },
            Layer::Conv2d(_) | Layer::Linear(_) => {
                return Err(GeoError::Internal("conv/linear near-memory step".into()))
            }
        })
    }

    /// Phase 1 for one parametrized layer — the one per-layer prepare
    /// every SC run goes through (whole-network prepare, the training
    /// loop, single-layer runs): [`Self::resolve_layer`], then compaction
    /// into the layer's unfused step, emitting f32.
    fn prepare_layer(
        &mut self,
        layer: &Layer,
        shape: &[usize],
        len: usize,
        param_layer: u32,
        telemetry: &mut EngineTelemetry,
        resilience: &mut ResilienceReport,
    ) -> Result<PreparedStep, GeoError> {
        let start = Instant::now();
        let r = self.resolve_layer(layer, shape, len, param_layer, telemetry, resilience)?;
        let emit = Emit::Float;
        let step = match layer {
            Layer::Conv2d(conv) => PreparedStep::Conv {
                layer: PreparedConv::new(conv, (shape[2], shape[3]), r, &self.config)?,
                param_layer,
                emit,
            },
            // `resolve_layer` admits only conv and linear layers.
            _ => PreparedStep::Linear {
                layer: PreparedLinear::new(r, &self.config)?,
                param_layer,
                emit,
            },
        };
        let tel = telemetry.layer(param_layer as usize);
        tel.add_phase_ns(Phase::Resolve, elapsed_ns(start));
        Ok(step)
    }

    /// The resolve the prepared path and the oracle share: checks the
    /// activation `shape` against the layer, builds or fetches its lane
    /// tables in the fixed order that keeps fault draws deterministic,
    /// quantizes its weights at stream length `len`, and records resolve
    /// counters and injected faults under `param_layer`.
    fn resolve_layer(
        &mut self,
        layer: &Layer,
        shape: &[usize],
        len: usize,
        param_layer: u32,
        telemetry: &mut EngineTelemetry,
        resilience: &mut ResilienceReport,
    ) -> Result<Resolved, GeoError> {
        let before = self.cache.fault_counters();
        let (hits0, misses0) = self.cache.lookup_counts();
        let r = match layer {
            Layer::Conv2d(conv) => {
                conv.check_input(shape).map_err(GeoError::Nn)?;
                self.resolve_conv(conv, len, param_layer)?
            }
            Layer::Linear(lin) => {
                if shape.len() != 2 || shape[1] != lin.input_features() {
                    let expected = format!("(N, {})", lin.input_features());
                    return Err(shape_mismatch(expected, shape));
                }
                self.resolve_linear(lin, len, param_layer)?
            }
            other => {
                return Err(GeoError::Internal(format!(
                    "stream plan assigned a length to non-parametrized layer {}",
                    other.kind()
                )))
            }
        };
        let tel = telemetry.layer(param_layer as usize);
        let (hits, misses) = self.cache.lookup_counts();
        tel.table_hits.add(hits - hits0);
        tel.table_misses.add(misses - misses0);
        tel.compacted_lanes.add(r.kept as u64);
        tel.skipped_zero_lanes.add((r.lanes.len() - r.kept) as u64);
        if self.cache.fault_model().is_some() {
            let delta = self.cache.fault_counters().delta_since(&before);
            tel.fault_events.add(delta.total());
            resilience.record(param_layer, delta);
        }
        Ok(r)
    }

    /// Runs the SC datapath of the single parametrized layer at
    /// `layer_index` on the given activations — the building block of
    /// per-layer error analysis ([`crate::analyze`]).
    ///
    /// Uses the same stream plan, seeds, and tables as a full forward, and
    /// the same per-layer prepare and step executor, so the result is
    /// bit-identical to that layer's contribution in
    /// [`ScEngine::forward`]. Only this layer is prepared — a
    /// whole-network prepare per call would redo every other layer's
    /// resolve — and its step is the *unfused* one by construction, so
    /// conv→pool fusion and level chaining cannot apply and per-layer
    /// oracle comparisons see the layer's raw full-resolution output.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if `layer_index` is not a
    /// conv/linear layer; propagates substrate errors.
    pub fn forward_single_layer(
        &mut self,
        model: &Sequential,
        layer_index: usize,
        input: &Tensor,
    ) -> Result<Tensor, GeoError> {
        self.cache.begin_pass();
        let plan = self.stream_plan(model);
        let len = plan.get(layer_index).copied().flatten().ok_or_else(|| {
            GeoError::InvalidConfig(format!(
                "layer {layer_index} is not a parametrized (conv/linear) layer"
            ))
        })?;
        let param_layer = model.layers()[..layer_index]
            .iter()
            .filter(|l| matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
            .count() as u32;
        let mut telemetry = EngineTelemetry::default();
        let mut resilience = ResilienceReport::default();
        let step = self.prepare_layer(
            &model.layers()[layer_index],
            input.shape(),
            len,
            param_layer,
            &mut telemetry,
            &mut resilience,
        )?;
        let out = step
            .run(Flow::Float(input.clone()), &telemetry)?
            .into_float("single-layer output")?;
        self.telemetry.absorb(&telemetry);
        self.resilience.absorb(&resilience);
        Ok(out)
    }

    fn layer_seed(&self, param_layer: u32) -> u32 {
        self.config
            .base_seed
            .wrapping_add(param_layer.wrapping_mul(LAYER_SEED_STRIDE))
    }

    fn lane_table(&mut self, width: u8, len: usize, spec: RngSpec) -> Result<LaneTable, GeoError> {
        Ok(if self.config.progressive {
            LaneTable::Progressive(self.cache.progressive(self.config.rng, width, len, spec)?)
        } else {
            LaneTable::Normal(self.cache.regular(self.config.rng, width, len, spec)?)
        })
    }

    /// Quantized split-weight levels for table lookup (same truncation and
    /// full-scale semantics as [`act_level`], so `|w| = 1.0` keeps
    /// the all-ones stream in normal mode).
    fn weight_levels(&self, w: f32, width: u8) -> (u32, u32) {
        let w = w.clamp(-1.0, 1.0);
        let pos = quantize_unipolar(w.max(0.0), 8);
        let neg = quantize_unipolar((-w).max(0.0), 8);
        if self.config.progressive {
            (pos.min(255), neg.min(255))
        } else {
            let shift = 8 - width.min(8);
            (pos >> shift, neg >> shift)
        }
    }

    /// The resolve loop of a convolution (see [`Self::resolve_layer`]):
    /// one activation table per kernel position, then one [`WeightRef`]
    /// per weight in `(co, ci, ky, kx)` order, fetching each weight
    /// generator's table on its first use.
    fn resolve_conv(
        &mut self,
        conv: &Conv2d,
        len: usize,
        param_layer: u32,
    ) -> Result<Resolved, GeoError> {
        let cin = conv.cin();
        let (cout, k) = (conv.cout(), conv.kernel());
        let width = GeoConfig::width_for(len);
        let dims = KernelDims::new(cout, cin, k, k);
        let plan = SeedPlan::new(
            self.config.sharing,
            width,
            self.layer_seed(param_layer),
            dims,
        );
        let volume = dims.kernel_volume();
        let mode = self.config.accumulation;

        // Activation lane tables: one generator per kernel position,
        // broadcast across all rows (kernels).
        let act_tables: Vec<LaneTable> = (0..volume)
            .map(|lane| {
                let spec = plan.activation_spec(lane);
                self.lane_table(width, len, spec)
            })
            .collect::<Result<_, _>>()?;

        // Weight lanes: per (kernel, position), with the accumulator group
        // each lane feeds precomputed from its kernel coordinates.
        let mut weights = WeightTables::default();
        let mut lanes = Vec::with_capacity(cout * volume);
        let (mut kept, mut live) = (0, [0; 2]);
        for co in 0..cout {
            for ci in 0..cin {
                for ky in 0..k {
                    for kx in 0..k {
                        let table = weights.index_of(plan.weight_slot(co, ci, ky, kx), || {
                            self.lane_table(width, len, plan.weight_spec(co, ci, ky, kx))
                        })?;
                        let levels =
                            self.weight_levels(conv.weight.value.at4(co, ci, ky, kx), width);
                        let group = match mode {
                            Accumulation::Pbw => kx,
                            Accumulation::Pbhw => ky * k + kx,
                            Accumulation::Or | Accumulation::Fxp | Accumulation::Apc => 0,
                        };
                        let lane = WeightRef::new(&weights.tables, table, levels, group)?;
                        kept += usize::from(!lane.is_zero());
                        live[0] += usize::from(lane.pos > 0);
                        live[1] += usize::from(lane.neg > 0);
                        lanes.push(lane);
                    }
                }
            }
        }
        let groups = match mode {
            Accumulation::Or => 1,
            Accumulation::Pbw => k,
            Accumulation::Pbhw => k * k,
            Accumulation::Fxp | Accumulation::Apc => 1, // handled separately
        };
        Ok(Resolved {
            len,
            groups,
            rows: cout,
            act_tables,
            tables: weights.tables,
            lanes,
            kept,
            live,
        })
    }

    /// The resolve loop of a fully-connected layer (see
    /// [`Self::resolve_conv`]): features map onto a pseudo-kernel of width
    /// [`FC_BINARY_WIDTH`], so the accumulation split applies.
    fn resolve_linear(
        &mut self,
        lin: &Linear,
        len: usize,
        param_layer: u32,
    ) -> Result<Resolved, GeoError> {
        let features = lin.input_features();
        let outf = lin.output_features();
        let width = GeoConfig::width_for(len);
        let wdim = FC_BINARY_WIDTH.min(features);
        let cdim = features.div_ceil(wdim);
        let dims = KernelDims::new(outf, cdim, 1, wdim);
        let plan = SeedPlan::new(
            self.config.sharing,
            width,
            self.layer_seed(param_layer),
            dims,
        );
        let mode = self.config.accumulation;

        let act_tables: Vec<LaneTable> = (0..features)
            .map(|lane| {
                let spec = plan.activation_spec(lane);
                self.lane_table(width, len, spec)
            })
            .collect::<Result<_, _>>()?;
        let mut weights = WeightTables::default();
        let mut lanes = Vec::with_capacity(outf * features);
        let (mut kept, mut live) = (0, [0; 2]);
        for o in 0..outf {
            for i in 0..features {
                let (ci, wi) = (i / wdim, i % wdim);
                let table = weights.index_of(plan.weight_slot(o, ci, 0, wi), || {
                    self.lane_table(width, len, plan.weight_spec(o, ci, 0, wi))
                })?;
                let levels = self.weight_levels(lin.weight.value.at2(o, i), width);
                let group = match mode {
                    Accumulation::Pbw | Accumulation::Pbhw => wi,
                    Accumulation::Or | Accumulation::Fxp | Accumulation::Apc => 0,
                };
                let lane = WeightRef::new(&weights.tables, table, levels, group)?;
                kept += usize::from(!lane.is_zero());
                live[0] += usize::from(lane.pos > 0);
                live[1] += usize::from(lane.neg > 0);
                lanes.push(lane);
            }
        }
        let groups = match mode {
            Accumulation::Or => 1,
            Accumulation::Pbw | Accumulation::Pbhw => wdim,
            Accumulation::Fxp | Accumulation::Apc => 1,
        };
        Ok(Resolved {
            len,
            groups,
            rows: outf,
            act_tables,
            tables: weights.tables,
            lanes,
            kept,
            live,
        })
    }
}

/// Stream length planned for layer `i`, which the forward loop only asks
/// for at conv/linear layers — a `None` there is an engine bug.
fn planned_len(plan: &[Option<usize>], i: usize) -> Result<usize, GeoError> {
    plan.get(i).copied().flatten().ok_or_else(|| {
        GeoError::Internal(format!(
            "parametrized layer {i} missing from the stream plan"
        ))
    })
}

/// The pre-compaction compute kernels, preserved verbatim, behind the
/// self-contained oracle [`ScEngine::forward_reference`].
///
/// Two consumers keep this module alive: the compaction equivalence
/// proptests use it as the bit-identity oracle for the compacted kernels,
/// and `bench_forward` times it as the "before" side of the repo's perf
/// trajectory (`BENCH_forward.json`). It deliberately keeps every cost the
/// compacted path removed — per-lane stream-word copies, per-pixel padding
/// and zero-weight tests, the fallible table lookup, per-chunk FC
/// scheduling, and the per-MAC heap allocations feeding
/// [`geo_sc::apc::apc_count`]. It reads a layer's resolve and nothing the
/// compaction builds.
mod reference {
    use super::*;

    /// One resolved conv/linear layer in the oracle's form: the resolve
    /// itself and the oracle's own per-lane records, copies of each lane's
    /// positive/negative stream words (empty for a zero half).
    pub(super) struct RefLayer {
        r: Resolved,
        lane_words: Vec<[Vec<u64>; 2]>,
        words: usize,
        config: GeoConfig,
    }

    impl RefLayer {
        /// Copies every resolved lane's stream words into the oracle's own
        /// records; the resolve validated every level.
        pub(super) fn new(r: Resolved, config: GeoConfig) -> RefLayer {
            let copy = |lane: &WeightRef, level: u32| match level {
                0 => Vec::new(),
                _ => r.tables[lane.table as usize].words(level).to_vec(),
            };
            let lane_words = r.lanes.iter().map(|l| [copy(l, l.pos), copy(l, l.neg)]);
            RefLayer {
                lane_words: lane_words.collect(),
                words: r.len.div_ceil(64),
                r,
                config,
            }
        }

        /// Pre-compaction phase 2 of `layer` (the conv/linear layer this
        /// was resolved from) on activations `x`, whose shape the resolve
        /// checked.
        pub(super) fn forward(
            &self,
            layer: &Layer,
            x: Tensor,
            tel: &LayerCounters,
        ) -> Result<Tensor, GeoError> {
            let s = x.shape().to_vec();
            let width = GeoConfig::width_for(self.r.len);
            let levels = Flow::Float(x).into_levels(self.config.progressive, width);
            match layer {
                Layer::Conv2d(conv) => self.conv(conv, &s, &levels, tel),
                _ => self.linear(s[0], &levels, tel),
            }
        }

        /// The per-pixel `cin·k·k` loop with padding, zero-activation, and
        /// zero-weight tests inline, one output row `(b, co, oy)` per chunk.
        fn conv(
            &self,
            conv: &Conv2d,
            s: &[usize],
            levels: &[u32],
            tel: &LayerCounters,
        ) -> Result<Tensor, GeoError> {
            let (cin, h, w) = (s[1], s[2], s[3]);
            let (k, stride, pad) = (conv.kernel(), conv.stride(), conv.padding());
            let (oh, ow) = conv.output_size(h, w);
            let (rows, volume) = (self.r.rows, self.r.act_tables.len());
            let mut out = Tensor::zeros(&[s[0], rows, oh, ow]);
            self.par_rows(out.data_mut(), ow.max(1), tel, |row, chunk, scratch| {
                let (oy, co, b) = (row % oh, row / oh % rows, row / oh / rows);
                let idx_in = |c: usize, y: usize, x: usize| ((b * cin + c) * h + y) * w + x;
                for (ox, out_v) in chunk.iter_mut().enumerate() {
                    scratch.reset();
                    let mut lane = 0usize;
                    for ci in 0..cin {
                        for ky in 0..k {
                            for kx in 0..k {
                                let cur = lane;
                                lane += 1;
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let alevel = levels[idx_in(ci, iy as usize, ix as usize)];
                                if alevel == 0 {
                                    continue;
                                }
                                let i = co * volume + cur;
                                if self.r.lanes[i].is_zero() {
                                    continue;
                                }
                                let astream = self.r.act_tables[cur].stream(alevel)?;
                                self.accumulate(astream.as_words(), i, scratch);
                            }
                        }
                    }
                    *out_v = scratch.finish(self.config.accumulation, self.r.len)?;
                }
                Ok(())
            })?;
            Ok(out)
        }

        /// Each output neuron scheduled as its own single-element chunk
        /// (`par_chunks_mut(1)`).
        fn linear(
            &self,
            n: usize,
            levels: &[u32],
            tel: &LayerCounters,
        ) -> Result<Tensor, GeoError> {
            let (rows, features) = (self.r.rows, self.r.act_tables.len());
            let mut out = Tensor::zeros(&[n, rows]);
            self.par_rows(out.data_mut(), 1, tel, |row, chunk, scratch| {
                let (o, b) = (row % rows, row / rows);
                scratch.reset();
                for i in 0..features {
                    let alevel = levels[b * features + i];
                    if alevel == 0 {
                        continue;
                    }
                    if self.r.lanes[o * features + i].is_zero() {
                        continue;
                    }
                    let astream = self.r.act_tables[i].stream(alevel)?;
                    self.accumulate(astream.as_words(), o * features + i, scratch);
                }
                chunk[0] = scratch.finish(self.config.accumulation, self.r.len)?;
                Ok(())
            })?;
            Ok(out)
        }

        /// Runs `row_fn(row, chunk, scratch)` over `out` in parallel
        /// chunks of `chunk_len`, one scratch per worker, flushing MACs
        /// into `tel` per chunk and returning the first error any chunk
        /// produced.
        fn par_rows<F>(
            &self,
            out: &mut [f32],
            chunk_len: usize,
            tel: &LayerCounters,
            row_fn: F,
        ) -> Result<(), GeoError>
        where
            F: Fn(usize, &mut [f32], &mut RefScratch) -> Result<(), GeoError> + Sync,
        {
            let first_err: Mutex<Option<GeoError>> = Mutex::new(None);
            out.par_chunks_mut(chunk_len).enumerate().for_each_init(
                || RefScratch::new(self.r.groups, self.words),
                |scratch, (row, chunk)| {
                    if let Err(err) = row_fn(row, chunk, scratch) {
                        record_error(&first_err, err);
                    }
                    tel.macs.add(std::mem::take(&mut scratch.macs));
                },
            );
            let err = first_err.into_inner().unwrap_or_else(|p| p.into_inner());
            err.map_or(Ok(()), Err)
        }

        /// Folds one multiply-accumulate of lane `i` into the mode-specific
        /// accumulator state (pre-compaction form, including the per-MAC
        /// APC allocations).
        fn accumulate(&self, act_words: &[u64], i: usize, scratch: &mut RefScratch) {
            let (words, len) = (self.words, self.r.len);
            scratch.macs += 1;
            let (wref, [pos_words, neg_words]) = (&self.r.lanes[i], &self.lane_words[i]);
            let g = wref.group;
            match self.config.accumulation {
                Accumulation::Or | Accumulation::Pbw | Accumulation::Pbhw => {
                    if words == 1 {
                        if wref.pos > 0 {
                            scratch.acc_pos[g] |= act_words[0] & pos_words[0];
                        }
                        if wref.neg > 0 {
                            scratch.acc_neg[g] |= act_words[0] & neg_words[0];
                        }
                        return;
                    }
                    if wref.pos > 0 {
                        for (j, &a) in act_words.iter().enumerate().take(words) {
                            scratch.acc_pos[g * words + j] |= a & pos_words[j];
                        }
                    }
                    if wref.neg > 0 {
                        for (j, &a) in act_words.iter().enumerate().take(words) {
                            scratch.acc_neg[g * words + j] |= a & neg_words[j];
                        }
                    }
                }
                Accumulation::Fxp => {
                    if wref.pos > 0 {
                        scratch.fxp_pos += (0..words)
                            .map(|j| (act_words[j] & pos_words[j]).count_ones() as i64)
                            .sum::<i64>();
                    }
                    if wref.neg > 0 {
                        scratch.fxp_neg += (0..words)
                            .map(|j| (act_words[j] & neg_words[j]).count_ones() as i64)
                            .sum::<i64>();
                    }
                }
                Accumulation::Apc => {
                    if wref.pos > 0 {
                        let product: Vec<u64> =
                            (0..words).map(|j| act_words[j] & pos_words[j]).collect();
                        scratch.apc_pos.push(Bitstream::from_words(product, len));
                    }
                    if wref.neg > 0 {
                        let product: Vec<u64> =
                            (0..words).map(|j| act_words[j] & neg_words[j]).collect();
                        scratch.apc_neg.push(Bitstream::from_words(product, len));
                    }
                }
            }
        }
    }

    /// Per-worker accumulator state of the pre-compaction engine; the APC
    /// buffers grow with each product stream, exactly as they used to.
    struct RefScratch {
        acc_pos: Vec<u64>,
        acc_neg: Vec<u64>,
        fxp_pos: i64,
        fxp_neg: i64,
        apc_pos: Vec<Bitstream>,
        apc_neg: Vec<Bitstream>,
        /// MACs accumulated since the last telemetry flush; *not* cleared
        /// by the per-pixel [`RefScratch::reset`]. One accumulate call per
        /// surviving lane, the same MAC definition the compacted path
        /// counts — the two paths skip the identical lane set, so their
        /// totals are provably equal.
        macs: u64,
    }

    impl RefScratch {
        fn new(groups: usize, words: usize) -> Self {
            RefScratch {
                acc_pos: vec![0u64; groups * words],
                acc_neg: vec![0u64; groups * words],
                fxp_pos: 0,
                fxp_neg: 0,
                apc_pos: Vec::new(),
                apc_neg: Vec::new(),
                macs: 0,
            }
        }

        fn reset(&mut self) {
            self.acc_pos.fill(0);
            self.acc_neg.fill(0);
            self.fxp_pos = 0;
            self.fxp_neg = 0;
            self.apc_pos.clear();
            self.apc_neg.clear();
        }

        /// Converts the accumulated state into the output value.
        fn finish(&self, mode: Accumulation, len: usize) -> Result<f32, GeoError> {
            let signed = match mode {
                Accumulation::Or | Accumulation::Pbw | Accumulation::Pbhw => {
                    let pos: i64 = self.acc_pos.iter().map(|w| w.count_ones() as i64).sum();
                    let neg: i64 = self.acc_neg.iter().map(|w| w.count_ones() as i64).sum();
                    pos - neg
                }
                Accumulation::Fxp => self.fxp_pos - self.fxp_neg,
                Accumulation::Apc => {
                    // One approximate compressor layer, then exact counting
                    // — the single-level limit the paper describes for APCs.
                    let pos = geo_sc::apc::apc_count(&self.apc_pos, 1)? as i64;
                    let neg = geo_sc::apc::apc_count(&self.apc_neg, 1)? as i64;
                    pos - neg
                }
            };
            Ok(signed as f32 / len as f32)
        }
    }
}

/// Inference-time batch normalization, prepared once: the folded
/// per-channel affine quantized to `bits` (GEO's near-memory 8-bit BN),
/// or exact when `bits` is `None`.
struct BnAffine {
    scales: Vec<f32>,
    shifts: Vec<f32>,
}

impl BnAffine {
    fn prepare(bn: &geo_nn::BatchNorm2d, bits: Option<u8>) -> Result<BnAffine, GeoError> {
        let affine = bn.folded_affine();
        let (scales, shifts): (Vec<f32>, Vec<f32>) = affine.into_iter().unzip();
        let (scales, shifts) = match bits {
            Some(b) => {
                let st = geo_nn::quant::fake_quantize(
                    &Tensor::from_vec(vec![scales.len()], scales).map_err(GeoError::Nn)?,
                    b,
                );
                let sh = geo_nn::quant::fake_quantize(
                    &Tensor::from_vec(vec![shifts.len()], shifts).map_err(GeoError::Nn)?,
                    b,
                );
                (st.into_data(), sh.into_data())
            }
            None => (scales, shifts),
        };
        Ok(BnAffine { scales, shifts })
    }

    /// Rejects activations that are not `(N, C, H, W)` with this affine's
    /// channel count.
    fn check(&self, s: &[usize]) -> Result<(), GeoError> {
        if s.len() != 4 || s[1] != self.scales.len() {
            return Err(shape_mismatch(
                format!("(N, {}, H, W)", self.scales.len()),
                s,
            ));
        }
        Ok(())
    }

    fn apply(&self, x: &Tensor) -> Result<Tensor, GeoError> {
        let s = x.shape();
        self.check(s)?;
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let mut out = Tensor::zeros(s);
        for b in 0..n {
            for ci in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        out.set4(
                            b,
                            ci,
                            y,
                            xx,
                            self.scales[ci] * x.at4(b, ci, y, xx) + self.shifts[ci],
                        );
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Shape contract shared by both 2×2 pools — `geo_nn::pool2x2_shape`
/// with the error lifted into [`GeoError`], so the prepared path raises
/// exactly `geo_nn::AvgPool2d::forward`'s error.
fn pool_shape(s: &[usize]) -> Result<(usize, usize, usize, usize), GeoError> {
    geo_nn::pool2x2_shape(s).map_err(GeoError::Nn)
}

/// 2×2 average pool: the single shared `geo_nn::avg_pool2x2` kernel (the
/// fused conv→pool path's oracle), borrowing the input immutably — the
/// prepared path cannot run `&mut` layer forwards.
fn avg_pool_eval(x: &Tensor) -> Result<Tensor, GeoError> {
    geo_nn::avg_pool2x2(x).map_err(GeoError::Nn)
}

/// 2×2 max pool: the shared `geo_nn::max_pool2x2` kernel.
fn max_pool_eval(x: &Tensor) -> Result<Tensor, GeoError> {
    geo_nn::max_pool2x2(x).map_err(GeoError::Nn)
}

/// The `(N, rest)` shape `geo_nn::Flatten::forward` produces, with its
/// error for inputs below 2-d.
fn flatten_shape(s: &[usize]) -> Result<Vec<usize>, GeoError> {
    if s.len() < 2 {
        return Err(shape_mismatch("at least 2-d".into(), s));
    }
    Ok(vec![s[0], s[1..].iter().product()])
}

/// `geo_nn`'s shape error, lifted into [`GeoError`].
fn shape_mismatch(expected: String, actual: &[usize]) -> GeoError {
    GeoError::Nn(geo_nn::NnError::ShapeMismatch {
        expected,
        actual: actual.to_vec(),
    })
}

/// Runs `f`, adding its wall-clock time to `phase` of `tel`.
fn timed<T>(tel: &LayerCounters, phase: Phase, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    tel.add_phase_ns(phase, elapsed_ns(start));
    out
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Scans a fusible `[BatchNorm2d] → [ReLU] → AvgPool2d` run starting at
/// `layers[from]` (each prefix step optional, the average pool required):
/// returns the optional batch-norm layer, the ReLU flag, and the index
/// one past the consumed pool. `None` when the run does not end in an
/// adjacent average pool — max pools and non-adjacent pools stay unfused.
fn fusible_pool_run(
    layers: &[Layer],
    from: usize,
) -> Option<(Option<&geo_nn::BatchNorm2d>, bool, usize)> {
    let mut j = from;
    let mut bn = None;
    if let Some(Layer::BatchNorm2d(b)) = layers.get(j) {
        bn = Some(b);
        j += 1;
    }
    let mut relu = false;
    if let Some(Layer::Relu(_)) = layers.get(j) {
        relu = true;
        j += 1;
    }
    match layers.get(j) {
        Some(Layer::AvgPool2d(_)) => Some((bn, relu, j + 1)),
        _ => None,
    }
}

/// Prepare-time level-chaining pass (DESIGN.md §16): for each SC producer
/// whose downstream steps up to the next SC consumer are all
/// level-transparent — ReLU, because `act_level(clamp(v)) ==
/// act_level(v)`; Flatten, because levels carry their logical shape —
/// switch its [`Emit`] to the consumer's quantized levels, keeping
/// activations resident in the integer domain across the chain.
fn assign_level_chaining(steps: &mut [PreparedStep]) {
    for idx in 0..steps.len() {
        let mut j = idx + 1;
        let target = loop {
            match steps.get(j) {
                Some(PreparedStep::Relu | PreparedStep::Flatten { .. }) => j += 1,
                Some(PreparedStep::Conv { layer, .. } | PreparedStep::ConvPooled { layer, .. }) => {
                    break Some(Emit::Levels {
                        progressive: layer.progressive,
                        width: layer.width,
                    })
                }
                Some(PreparedStep::Linear { layer, .. }) => {
                    break Some(Emit::Levels {
                        progressive: layer.progressive,
                        width: layer.width,
                    })
                }
                _ => break None,
            }
        };
        let Some(levels) = target else { continue };
        match &mut steps[idx] {
            PreparedStep::Conv { emit, .. }
            | PreparedStep::ConvPooled { emit, .. }
            | PreparedStep::Linear { emit, .. } => *emit = levels,
            _ => {}
        }
    }
}

/// One step of a compiled network: either a prepared parametrized layer
/// or a pure near-memory evaluation. Exhaustive over every
/// `geo_nn::Layer` variant, so adding a layer kind fails compilation here
/// rather than silently falling through.
enum PreparedStep {
    Conv {
        layer: PreparedConv,
        param_layer: u32,
        emit: Emit,
    },
    /// A `Conv → [BatchNorm] → [ReLU] → AvgPool2d` chain fused at prepare
    /// time (§III-A computation skipping): the mode kernels produce
    /// full-resolution counts per worker, the absorbed near-memory steps
    /// run per pixel, and each 2×2 window converts once. Absorbed steps
    /// need no `tel_layer` — they attributed to this conv's `param_layer`
    /// unfused too.
    ConvPooled {
        layer: PreparedConv,
        param_layer: u32,
        /// Absorbed batch-norm affine, applied per full-res pixel.
        bn: Option<BnAffine>,
        /// Absorbed ReLU clamp, applied per full-res pixel.
        relu: bool,
        emit: Emit,
    },
    Linear {
        layer: PreparedLinear,
        param_layer: u32,
        emit: Emit,
    },
    BatchNorm {
        affine: BnAffine,
        /// Telemetry layer this near-memory step's time is attributed to.
        tel_layer: usize,
    },
    Relu,
    AvgPool {
        tel_layer: usize,
    },
    MaxPool {
        tel_layer: usize,
    },
    Flatten {
        tel_layer: usize,
    },
}

impl PreparedStep {
    /// The activation shape this step produces from `s` — the
    /// prepare-time shape trace, raising the errors the step's forward
    /// would.
    fn output_shape(&self, s: &[usize]) -> Result<Vec<usize>, GeoError> {
        Ok(match self {
            PreparedStep::Conv { layer, .. } => vec![s[0], layer.cout, layer.oh, layer.ow],
            PreparedStep::ConvPooled { layer, bn, .. } => {
                if let Some(bn) = bn {
                    bn.check(&[s[0], layer.cout, layer.oh, layer.ow])?;
                }
                vec![s[0], layer.cout, layer.oh / 2, layer.ow / 2]
            }
            PreparedStep::Linear { layer, .. } => vec![s[0], layer.outf],
            PreparedStep::BatchNorm { affine, .. } => {
                affine.check(s)?;
                s.to_vec()
            }
            PreparedStep::Relu => s.to_vec(),
            PreparedStep::AvgPool { .. } | PreparedStep::MaxPool { .. } => {
                let (n, c, h, w) = pool_shape(s)?;
                vec![n, c, h / 2, w / 2]
            }
            PreparedStep::Flatten { .. } => flatten_shape(s)?,
        })
    }

    /// Executes this step on one activation flow — the one way the engine
    /// runs an SC layer, whether [`PreparedModel::forward`] folds it over
    /// a whole network or the training loop and
    /// [`ScEngine::forward_single_layer`] run one layer's unfused step.
    /// Pure compute against immutable prepared state: counters and phase
    /// times go to `telemetry`'s blocks (pre-sized at prepare time).
    fn run(&self, flow: Flow, telemetry: &EngineTelemetry) -> Result<Flow, GeoError> {
        let near_mem = |tel_layer: &usize| telemetry.layer_shared(*tel_layer);
        Ok(match self {
            PreparedStep::Conv {
                layer,
                param_layer,
                emit,
            } => {
                let tel = telemetry.layer_shared(*param_layer as usize);
                let batch = timed(tel, Phase::Convert, || layer.accept(flow))?;
                tel.macs.add(batch.macs(&layer.mac_weights));
                timed(tel, Phase::Compute, || layer.compute(&batch, *emit))
            }
            PreparedStep::ConvPooled {
                layer,
                param_layer,
                bn,
                relu,
                emit,
            } => {
                let tel = telemetry.layer_shared(*param_layer as usize);
                let batch = timed(tel, Phase::Convert, || layer.accept(flow))?;
                tel.macs.add(batch.macs(&layer.mac_weights));
                timed(tel, Phase::Compute, || {
                    let (poh, pow2) = (layer.oh / 2, layer.ow / 2);
                    let tmp = layer.compute_pooled(&batch, bn.as_ref(), *relu);
                    // §III-A skipped conversions, counted serially (one add
                    // per pass) so the total is thread-invariant: every
                    // full-res pixel beyond the pooled outputs.
                    let skipped = batch.n * layer.cout * (layer.oh * layer.ow - poh * pow2);
                    tel.conversions_skipped.add(skipped as u64);
                    layer.transpose_stage(&tmp, batch.n, poh, pow2, *emit)
                })
            }
            PreparedStep::Linear {
                layer,
                param_layer,
                emit,
            } => {
                let tel = telemetry.layer_shared(*param_layer as usize);
                let batch = timed(tel, Phase::Convert, || layer.accept(flow))?;
                tel.macs.add(batch.macs(&layer.compact.lane_rows));
                timed(tel, Phase::Compute, || layer.compute(&batch, *emit))
            }
            PreparedStep::BatchNorm { affine, tel_layer } => {
                let x = flow.into_float("batch norm")?;
                Flow::Float(timed(near_mem(tel_layer), Phase::NearMem, || {
                    affine.apply(&x)
                })?)
            }
            // ReLU, then saturate at 1.0: unipolar streams cannot carry
            // more (the straight-through clamp SC training learns around).
            // On a chained level flow this is a no-op: `act_level` already
            // clamps to [0, 1], so `act_level(clamp(v)) == act_level(v)`.
            PreparedStep::Relu => match flow {
                Flow::Float(x) => Flow::Float(x.map(|v| v.clamp(0.0, 1.0))),
                levels => levels,
            },
            PreparedStep::AvgPool { tel_layer } => {
                let x = flow.into_float("average pool")?;
                Flow::Float(timed(near_mem(tel_layer), Phase::NearMem, || {
                    avg_pool_eval(&x)
                })?)
            }
            PreparedStep::MaxPool { tel_layer } => {
                let x = flow.into_float("max pool")?;
                Flow::Float(timed(near_mem(tel_layer), Phase::NearMem, || {
                    max_pool_eval(&x)
                })?)
            }
            PreparedStep::Flatten { tel_layer } => {
                timed(near_mem(tel_layer), Phase::NearMem, || match flow {
                    Flow::Float(x) => {
                        let shape = flatten_shape(x.shape())?;
                        x.reshape(shape).map(Flow::Float).map_err(GeoError::Nn)
                    }
                    // Levels carry their logical shape: flattening is a
                    // metadata reshape, no data pass at all.
                    Flow::Levels(mut lt) => {
                        lt.shape = flatten_shape(&lt.shape)?;
                        Ok(Flow::Levels(lt))
                    }
                })?
            }
        })
    }
}

/// A network compiled once for serving: every input-independent resolve
/// product of every layer, immutable and `Arc`-shareable across threads
/// and requests.
///
/// Built by [`ScEngine::prepare`] (or
/// [`crate::ProgramExecutor::prepare`] for ISA-programmed lengths).
/// [`PreparedModel::forward`] borrows `&self`, so any number of requests
/// may run concurrently; telemetry counters are atomics folded in place
/// ([`crate::telemetry`]), keeping totals exact under concurrency.
///
/// Outputs are bit-identical to [`ScEngine::forward`] on the same engine
/// state: prepare performs the exact table/fault draws of a direct
/// forward, in the same order, and the compute phase never touches shared
/// mutable state. One caveat follows from compiling *once*: TRNG tables
/// and transient fault draws are frozen at prepare time, so every served
/// request sees the one pass drawn here, where repeated direct forwards
/// would redraw per call.
///
/// # Examples
///
/// ```
/// use geo_core::{GeoConfig, ScEngine};
/// use geo_nn::{models, Tensor};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
/// let mut model = models::lenet5(1, 8, 10, 0);
/// model.set_training(false);
/// let prepared = Arc::new(engine.prepare(&model, &[1, 1, 8, 8])?);
/// let logits = prepared.forward(&Tensor::full(&[1, 1, 8, 8], 0.5))?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct PreparedModel {
    config: GeoConfig,
    input_shape: Vec<usize>,
    steps: Vec<PreparedStep>,
    telemetry: EngineTelemetry,
    resilience: ResilienceReport,
}

impl PreparedModel {
    /// The configuration the model was prepared under.
    pub fn config(&self) -> &GeoConfig {
        &self.config
    }

    /// The input shape the model was prepared for. The batch dimension
    /// (`shape[0]`) is free: requests of any `N` with matching trailing
    /// dimensions are accepted.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Fault counts drawn during the prepare pass (frozen thereafter).
    pub fn resilience_report(&self) -> &ResilienceReport {
        &self.resilience
    }

    /// Snapshot of the telemetry accumulated by the prepare pass and
    /// every forward served since.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report("prepared-model")
    }

    /// Number of `Conv → [BatchNorm] → [ReLU] → AvgPool2d` chains the
    /// prepare pass collapsed into fused steps (§III-A pooled-conversion
    /// skipping, DESIGN.md §16). Zero when fusion is disabled or no
    /// avg-pool sits directly behind a conv block — max pools never
    /// fuse. Lets callers assert fusion actually engaged on a workload
    /// instead of inferring it from timing.
    pub fn fused_conv_pool_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PreparedStep::ConvPooled { .. }))
            .count()
    }

    /// Runs one request through the compiled network — pure compute
    /// against immutable prepared state, callable concurrently from any
    /// number of threads (`&self`).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches (including a spatial-geometry check
    /// against the prepared shape) and substrate errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, GeoError> {
        self.telemetry.passes.incr();
        self.steps
            .iter()
            .try_fold(Flow::Float(input.clone()), |flow, step| {
                step.run(flow, &self.telemetry)
            })?
            // The chaining pass only assigns `Levels` when a downstream SC
            // consumer exists, so the network output is always a float
            // tensor.
            .into_float("network output")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_nn::models;
    use geo_sc::{RngKind, SharingLevel};

    fn engine(cfg: GeoConfig) -> ScEngine {
        ScEngine::new(cfg).unwrap()
    }

    /// Prepares one layer at stream length 32 through the per-layer
    /// prepare every SC run uses.
    fn prepare_one(eng: &mut ScEngine, layer: Layer, shape: &[usize]) -> PreparedStep {
        let (mut tel, mut res) = (EngineTelemetry::default(), ResilienceReport::default());
        eng.prepare_layer(&layer, shape, 32, 0, &mut tel, &mut res)
            .unwrap()
    }

    fn prepare_conv_one(eng: &mut ScEngine, conv: &geo_nn::Conv2d, x: &Tensor) -> PreparedConv {
        match prepare_one(eng, Layer::Conv2d(conv.clone()), x.shape()) {
            PreparedStep::Conv { layer, .. } => layer,
            _ => unreachable!("a conv layer prepares to a conv step"),
        }
    }

    /// Resolves one layer at stream length 32 without compacting it: the
    /// uncompacted lane list and table words compaction starts from.
    fn resolve_one(eng: &mut ScEngine, layer: Layer, shape: &[usize]) -> Resolved {
        let (mut tel, mut res) = (EngineTelemetry::default(), ResilienceReport::default());
        eng.resolve_layer(&layer, shape, 32, 0, &mut tel, &mut res)
            .unwrap()
    }

    /// Row `row`'s live halves of one polarity (0 positive, 1 negative) in
    /// resolve order, as `(lane index, group, stream words)`: the entries
    /// compaction must keep in that polarity's list.
    fn live_halves(r: &Resolved, row: usize, polarity: usize) -> Vec<(usize, u32, &[u64])> {
        let per_row = r.act_tables.len();
        let lanes = r.lanes[row * per_row..][..per_row].iter().enumerate();
        let level = |l: &WeightRef| [l.pos, l.neg][polarity];
        let live = lanes.filter(|(_, l)| level(l) > 0);
        live.map(|(i, l)| {
            (
                i,
                l.group as u32,
                r.tables[l.table as usize].words(level(l)),
            )
        })
        .collect()
    }

    /// Asserts that `ck`'s two lists hold exactly `r`'s live halves, per
    /// row and polarity in resolve order, each with gather offset
    /// `lane · act_stride`, its group and its table's words — so zero
    /// lanes appear nowhere — and that they store live halves × `words`
    /// words in all.
    fn assert_lists_match_resolve(ck: &CompactKernel, r: &Resolved, act_stride: usize) {
        let mut live = 0;
        for (polarity, list) in [&ck.pos, &ck.neg].into_iter().enumerate() {
            assert_eq!(list.offsets.len(), r.rows + 1);
            for row in 0..r.rows {
                let want = live_halves(r, row, polarity);
                let view = list.row(row, ck.words);
                assert_eq!(view.aoff.len(), want.len(), "row {row} polarity {polarity}");
                for (i, &(lane, group, words)) in want.iter().enumerate() {
                    assert_eq!(view.aoff[i] as usize, lane * act_stride);
                    assert_eq!(view.group[i], group);
                    assert_eq!(&view.w[i * ck.words..][..ck.words], words);
                }
                live += want.len();
            }
        }
        assert_eq!(live, r.live[0] + r.live[1]);
        assert_eq!(ck.pos.w.len() + ck.neg.w.len(), live * ck.words);
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = GeoConfig::geo(32, 64);
        cfg.stream_len = 99;
        assert!(ScEngine::new(cfg).is_err());
    }

    #[test]
    fn stream_plan_assigns_sp_s_and_output_lengths() {
        let eng = engine(GeoConfig::geo(32, 64));
        let model = models::cnn4(3, 8, 10, 0);
        let plan = eng.stream_plan(&model);
        let lens: Vec<usize> = plan.iter().flatten().copied().collect();
        // conv1 (pooled) = 32, conv2 (pooled) = 32, conv3 = 64, fc = 128.
        assert_eq!(lens, vec![32, 32, 64, 128]);
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let y = eng.forward(&mut model, &x, false).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lfsr_inference_is_deterministic_trng_is_not() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.6);
        let mut eng = engine(GeoConfig::geo(32, 64));
        let a = eng.forward(&mut model, &x, false).unwrap();
        let b = eng.forward(&mut model, &x, false).unwrap();
        assert_eq!(a.data(), b.data(), "LFSR streams are repeatable");

        let mut eng = engine(GeoConfig::geo(32, 64).with_rng(RngKind::Trng));
        let a = eng.forward(&mut model, &x, false).unwrap();
        let b = eng.forward(&mut model, &x, false).unwrap();
        assert_ne!(a.data(), b.data(), "TRNG streams differ every pass");
    }

    #[test]
    fn fxp_accumulation_tracks_float_convolution() {
        // With exact fixed-point accumulation and long streams, the SC conv
        // should approximate the float conv closely.
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::kaiming(&[1, 2, 6, 6], 4, &mut rng).map(|v| v.abs().min(1.0));
        let float_out = conv.forward(&x).unwrap();
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let cfg = GeoConfig {
            accumulation: Accumulation::Fxp,
            progressive: false,
            output_stream_len: 256,
            ..GeoConfig::geo(256, 256)
        };
        let mut eng = engine(cfg);
        let sc_out = eng.forward(&mut model, &x, false).unwrap();
        let mut max_err = 0.0f32;
        for (a, b) in sc_out.data().iter().zip(float_out.data()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 0.25, "max error {max_err}");
    }

    #[test]
    fn or_accumulation_compresses_relative_to_fxp() {
        // OR loses overlapping ones, so its outputs are biased toward zero
        // relative to exact accumulation on an all-positive layer.
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = geo_nn::Conv2d::new(3, 2, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.2); // all positive
        }
        let x = Tensor::full(&[1, 3, 5, 5], 0.5);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mut eng_or = engine(base.with_accumulation(Accumulation::Or));
        let mut eng_fxp = engine(base.with_accumulation(Accumulation::Fxp));
        let or_out = eng_or.forward(&mut model, &x, false).unwrap();
        let fxp_out = eng_fxp.forward(&mut model, &x, false).unwrap();
        let or_mean: f32 = or_out.data().iter().sum::<f32>() / or_out.len() as f32;
        let fxp_mean: f32 = fxp_out.data().iter().sum::<f32>() / fxp_out.len() as f32;
        assert!(
            or_mean < fxp_mean * 0.8,
            "OR should compress: or {or_mean}, fxp {fxp_mean}"
        );
        // And OR outputs are bounded by the stream value range.
        assert!(or_out.data().iter().all(|&v| v <= 1.0 + 1e-6));
    }

    #[test]
    fn pbw_sits_between_or_and_fxp() {
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = geo_nn::Conv2d::new(2, 2, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.15);
        }
        let x = Tensor::full(&[1, 2, 5, 5], 0.6);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mean = |mode: Accumulation, model: &mut Sequential| {
            let mut eng = engine(base.with_accumulation(mode));
            let out = eng.forward(model, &x, false).unwrap();
            out.data().iter().sum::<f32>() / out.len() as f32
        };
        let or_m = mean(Accumulation::Or, &mut model);
        let pbw_m = mean(Accumulation::Pbw, &mut model);
        let pbhw_m = mean(Accumulation::Pbhw, &mut model);
        let fxp_m = mean(Accumulation::Fxp, &mut model);
        assert!(or_m <= pbw_m + 1e-6, "or {or_m} ≤ pbw {pbw_m}");
        assert!(pbw_m <= pbhw_m + 1e-6, "pbw {pbw_m} ≤ pbhw {pbhw_m}");
        assert!(pbhw_m <= fxp_m + 1e-6, "pbhw {pbhw_m} ≤ fxp {fxp_m}");
    }

    #[test]
    fn apc_overcounts_relative_to_fxp() {
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = geo_nn::Conv2d::new(2, 1, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.3);
        }
        let x = Tensor::full(&[1, 2, 4, 4], 0.7);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mut eng_apc = engine(base.with_accumulation(Accumulation::Apc));
        let mut eng_fxp = engine(base.with_accumulation(Accumulation::Fxp));
        let apc_out = eng_apc.forward(&mut model, &x, false).unwrap();
        let fxp_out = eng_fxp.forward(&mut model, &x, false).unwrap();
        for (a, f) in apc_out.data().iter().zip(fxp_out.data()) {
            assert!(*a >= *f - 1e-6, "APC never undercounts: {a} vs {f}");
        }
    }

    #[test]
    fn progressive_mode_changes_little() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut eng_n = engine(GeoConfig::geo(64, 64).with_progressive(false));
        let mut eng_p = engine(GeoConfig::geo(64, 64).with_progressive(true));
        let yn = eng_n.forward(&mut model, &x, false).unwrap();
        let yp = eng_p.forward(&mut model, &x, false).unwrap();
        let mut diff = 0.0f32;
        for (a, b) in yn.data().iter().zip(yp.data()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff < 1.2, "progressive deviation {diff} stays bounded");
    }

    #[test]
    fn extreme_sharing_correlates_outputs() {
        // Under extreme sharing, kernels see heavily correlated streams;
        // the forward pass still runs and stays finite.
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut eng = engine(GeoConfig::geo(32, 64).with_sharing(SharingLevel::Extreme));
        let y = eng.forward(&mut model, &x, false).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_mode_caches_for_backward() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let y = eng.forward(&mut model, &x, true).unwrap();
        // Backward must succeed because float layers cached their inputs.
        let grad = Tensor::full(y.shape(), 1.0);
        model.backward(&grad).unwrap();
        let grads_nonzero = model.params_mut().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(grads_nonzero);
    }

    #[test]
    fn gather_offsets_address_the_hoisted_row_buffer() {
        // A list entry's `aoff` must point at its kernel position's run in
        // the shared per-(b, oy) gather buffer — `lane · ow` for conv,
        // `lane` for linear — and the position metadata must invert the
        // lane index exactly.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::full(&[1, 2, 5, 5], 0.5);
        let mut eng = engine(GeoConfig::geo(32, 32));
        let rc = prepare_conv_one(&mut eng, &conv, &x);
        let k = conv.kernel();
        let resolved = resolve_one(&mut eng, Layer::Conv2d(conv.clone()), x.shape());
        assert_lists_match_resolve(&rc.compact, &resolved, rc.ow);
        for lane in 0..rc.volume {
            assert_eq!(rc.pos_ci[lane] as usize, lane / (k * k));
            assert_eq!(rc.pos_ky[lane] as usize, (lane % (k * k)) / k);
            assert_eq!(rc.pos_kx[lane] as usize, lane % k);
        }
        let lin = geo_nn::Linear::new(12, 4, &mut rng);
        let xl = Tensor::full(&[2, 12], 0.5);
        let PreparedStep::Linear { layer: rl, .. } =
            prepare_one(&mut eng, Layer::Linear(lin.clone()), xl.shape())
        else {
            unreachable!("a linear layer prepares to a linear step")
        };
        assert_eq!(rl.pos_ao.len(), rl.features);
        let resolved = resolve_one(&mut eng, Layer::Linear(lin), xl.shape());
        assert_lists_match_resolve(&rl.compact, &resolved, 1);
    }

    #[test]
    fn apc_gather_preserves_push_order() {
        // The branchless APC product gather must feed `apc_reduce` the
        // products in resolve order with zero-activation and absent-half
        // lanes excluded — the pairing contract `apc_reduce`'s own tests
        // pin on the geo-sc side. Exercised here end to end through a
        // model whose weights include exact zeros.
        let mut model = models::lenet5(1, 8, 10, 3);
        let x = Tensor::full(&[1, 1, 8, 8], 0.43);
        let cfg = GeoConfig::geo(32, 32).with_accumulation(Accumulation::Apc);
        let a = engine(cfg).forward(&mut model, &x, false).unwrap();
        let b = engine(cfg)
            .forward_reference(&mut model, &x, false)
            .unwrap();
        assert_eq!(
            a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn compacted_forward_matches_reference_for_every_mode() {
        // Smoke-level pin of the compaction contract (the proptests in
        // tests/compaction_equivalence.rs sweep the full space).
        let mut model = models::lenet5(1, 8, 10, 3);
        let x = Tensor::full(&[2, 1, 8, 8], 0.37);
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = GeoConfig::geo(32, 32)
                    .with_accumulation(mode)
                    .with_progressive(progressive);
                let a = engine(cfg).forward(&mut model, &x, false).unwrap();
                let b = engine(cfg)
                    .forward_reference(&mut model, &x, false)
                    .unwrap();
                assert_eq!(
                    a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{mode:?} progressive={progressive}"
                );
            }
        }
    }

    /// Every accumulation mode under both generation modes.
    fn all_mode_configs() -> impl Iterator<Item = GeoConfig> {
        Accumulation::ALL.into_iter().flat_map(|mode| {
            [false, true].map(|progressive| {
                GeoConfig::geo(32, 32)
                    .with_accumulation(mode)
                    .with_progressive(progressive)
            })
        })
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn reference_matches_forward_under_faults() {
        // The oracle resolves through the same table builds and fault
        // draws as the prepared path, so outputs and fault counts agree.
        let faults = FaultModel {
            stream_ber: 0.02,
            lfsr_stuck_rate: 0.1,
            seed_corruption_rate: 0.1,
            sram_word_ber: 0.01,
            seed: 31,
        };
        let mut model = models::lenet5(1, 8, 10, 3);
        let x = Tensor::full(&[2, 1, 8, 8], 0.37);
        for cfg in all_mode_configs() {
            let mut a = ScEngine::with_faults(cfg, faults).unwrap();
            let mut b = ScEngine::with_faults(cfg, faults).unwrap();
            let ya = a.forward(&mut model, &x, false).unwrap();
            let yb = b.forward_reference(&mut model, &x, false).unwrap();
            assert_eq!(bits(&ya), bits(&yb), "{cfg:?}");
            assert_eq!(a.resilience_report(), b.resilience_report(), "{cfg:?}");
            assert!(a.resilience_report().total.total() > 0, "{cfg:?}");
        }
    }

    #[test]
    fn reference_matches_forward_in_training_mode() {
        let x = Tensor::full(&[2, 1, 8, 8], 0.37);
        for cfg in all_mode_configs() {
            let mut ma = models::lenet5(1, 8, 10, 3);
            let mut mb = ma.clone();
            let ya = engine(cfg).forward(&mut ma, &x, true).unwrap();
            let yb = engine(cfg).forward_reference(&mut mb, &x, true).unwrap();
            assert_eq!(bits(&ya), bits(&yb), "{cfg:?}");
        }
    }

    #[test]
    fn tile_budgets_split_rows_at_the_pinned_edges() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut eng = engine(GeoConfig::geo(128, 128));
        // A 3×3, pad-1 conv at two words per stream on `(cin, h, w)`.
        let mut prepare = |cin: usize, h: usize, w: usize| {
            let conv = Layer::Conv2d(geo_nn::Conv2d::new(cin, 1, 3, 1, 1, false, &mut rng));
            let (mut tel, mut res) = (EngineTelemetry::default(), ResilienceReport::default());
            match eng.prepare_layer(&conv, &[1, cin, h, w], 128, 0, &mut tel, &mut res) {
                Ok(PreparedStep::Conv { layer, .. }) => layer,
                _ => unreachable!("a conv layer prepares to a conv step"),
            }
        };
        // Tile lengths over `units` task units at `threads` workers, as
        // `par_chunks_mut` cuts them.
        let split = |layer: &PreparedConv, threads: usize, units: usize, unit_rows: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            let tile = pool.unwrap().install(|| layer.tile_units(units, unit_rows));
            let starts = (0..units).step_by(tile);
            starts.map(|r| tile.min(units - r)).collect::<Vec<_>>()
        };
        // `compaction_equivalence`'s tile-edge geometry: 14 columns, so the
        // pixel cap binds at 4 rows (129,024 gathered bytes a row would
        // allow 8). Its 3 images' 42 rows cut into ten tiles of 4 and a
        // short one; the fused step's units are pooled rows of 28 pixels.
        let edges = prepare(64, 14, 14);
        assert_eq!(edges.volume * edges.ow * edges.words * 8, 129_024);
        assert_eq!(split(&edges, 1, 42, 1), [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2]);
        assert_eq!(split(&edges, 8, 42, 1), [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2]);
        assert_eq!(split(&edges, 1, 21, 2), [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1]);
        // 4,608 kernel positions on a 2×2 map gather 147,456 bytes a row,
        // so the 1 MiB budget binds at 7 rows; 8 workers share 16 rows.
        let wide = prepare(512, 2, 2);
        assert_eq!(split(&wide, 1, 16, 1), [7, 7, 2]);
        assert_eq!(split(&wide, 8, 16, 1), [2; 8]);
    }

    #[test]
    fn compact_kernel_drops_only_zero_lanes() {
        // Every live resolved half appears in its polarity's list for its
        // row, in resolve order, and every zero lane is gone.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        for w in conv.weight.value.data_mut().iter_mut().step_by(4) {
            *w = 0.0;
        }
        let x = Tensor::full(&[1, 2, 5, 5], 0.5);
        let mut eng = engine(GeoConfig::geo(32, 32));
        let prepared = prepare_conv_one(&mut eng, &conv, &x);
        // The resolve's lane list and its tables' words are an independent
        // source of truth for the compacted lists.
        let resolved = resolve_one(&mut eng, Layer::Conv2d(conv.clone()), x.shape());
        assert!(resolved.kept < resolved.lanes.len(), "some lanes are zero");
        assert!(resolved.live.iter().all(|&n| n > 0), "both polarities live");
        assert_lists_match_resolve(&prepared.compact, &resolved, prepared.ow);
    }

    #[test]
    fn telemetry_counts_match_between_compacted_and_reference() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut compacted = engine(GeoConfig::geo(32, 32));
        let mut reference = engine(GeoConfig::geo(32, 32));
        compacted.forward(&mut model, &x, false).unwrap();
        reference.forward_reference(&mut model, &x, false).unwrap();
        let rc = compacted.telemetry_report();
        let rr = reference.telemetry_report();
        assert_eq!(rc.passes, 1);
        assert!(rc.total().macs > 0);
        assert_eq!(rc.total().macs, rr.total().macs);
        assert_eq!(rc.total().compacted_lanes, rr.total().compacted_lanes);
        assert_eq!(
            rc.layers.iter().map(|l| l.macs).collect::<Vec<_>>(),
            rr.layers.iter().map(|l| l.macs).collect::<Vec<_>>()
        );
        compacted.reset_telemetry();
        assert!(compacted.telemetry_report().layers.is_empty());
    }

    #[test]
    fn eval_mode_skips_float_caching() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.4);
        let _ = eng.forward(&mut model, &x, false).unwrap();
        // No cached inputs → backward fails.
        assert!(model.backward(&Tensor::full(&[1, 10], 1.0)).is_err());
    }

    #[test]
    fn prepared_model_matches_forward_and_shares_across_threads() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let direct = engine(GeoConfig::geo(32, 64))
            .forward(&mut model, &x, false)
            .unwrap();
        model.set_training(false);
        let prepared = std::sync::Arc::new(
            engine(GeoConfig::geo(32, 64))
                .prepare(&model, x.shape())
                .unwrap(),
        );
        assert_eq!(prepared.input_shape(), x.shape());
        let served = prepared.forward(&x).unwrap();
        assert_eq!(
            direct
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            served
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        // Same prepared state, second request from another thread — the
        // Arc-shared serve pattern — stays bit-identical too.
        let (p2, x2) = (prepared.clone(), x.clone());
        let threaded = std::thread::spawn(move || p2.forward(&x2).unwrap())
            .join()
            .unwrap();
        assert_eq!(
            served
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            threaded
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(prepared.telemetry_report().passes, 2);
        // A batch with the wrong spatial geometry is rejected up front.
        assert!(prepared.forward(&Tensor::full(&[1, 1, 6, 6], 0.4)).is_err());
    }
}
