//! Dataflow analysis: memory-access counting for weight-, output-, and
//! input-stationary schedules (paper §III-C).
//!
//! GEO's compute hierarchy mimics a vertically sliding convolution window,
//! yielding weight-stationary execution where only one activation row is
//! reloaded between passes. When a kernel doesn't fit the array, GEO
//! stores converted partial sums in activation memory via the near-memory
//! read-add-write path instead of degrading to a strict output-stationary
//! schedule.

use crate::network::LayerShape;

/// The schedule family used for a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights resident; activations stream past (GEO with near-memory
    /// partial sums when kernels don't fit).
    WeightStationary,
    /// Outputs resident in converters; weights *and* activations reloaded
    /// between passes (the strict fallback §III-C warns about).
    OutputStationary,
    /// Activations resident; weights stream past.
    InputStationary,
}

/// The MAC-array geometry the schedule maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpec {
    /// Parallel rows (output channels computed simultaneously).
    pub rows: usize,
    /// MAC units per row (kernel elements unrolled).
    pub row_macs: usize,
    /// Output positions computed per pass via the sliding window.
    pub positions_per_pass: usize,
}

impl ArraySpec {
    /// Creates an array geometry.
    pub fn new(rows: usize, row_macs: usize, positions_per_pass: usize) -> Self {
        ArraySpec {
            rows,
            row_macs,
            positions_per_pass,
        }
    }
}

/// Element-granular memory access counts for one layer under one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Weight-memory reads.
    pub weight_reads: u64,
    /// Activation-memory reads.
    pub act_reads: u64,
    /// Partial-sum reads+writes (near-memory accumulate traffic).
    pub psum_accesses: u64,
    /// Final output writes.
    pub output_writes: u64,
}

impl AccessCounts {
    /// Total accesses across all classes.
    pub fn total(&self) -> u64 {
        self.weight_reads + self.act_reads + self.psum_accesses + self.output_writes
    }

    /// Fraction of accesses that are partial-sum traffic.
    pub fn psum_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.psum_accesses as f64 / self.total() as f64
        }
    }
}

/// Number of passes needed to cover a kernel of `volume` on `row_macs`
/// MACs.
pub fn kernel_passes(volume: usize, row_macs: usize) -> u64 {
    (volume.div_ceil(row_macs.max(1))) as u64
}

/// Counts element-granular memory accesses for `layer` under `dataflow`
/// on `array`.
pub fn count_accesses(layer: &LayerShape, dataflow: Dataflow, array: &ArraySpec) -> AccessCounts {
    let v = layer.kernel_volume() as u64;
    let cout = layer.output_channels() as u64;
    let (oh, ow) = layer.output_hw();
    let outputs = (oh * ow) as u64;
    let out_elems = cout * outputs;
    let passes = kernel_passes(layer.kernel_volume(), array.row_macs);
    let kh = match layer {
        LayerShape::Conv { kernel, .. } => *kernel as u64,
        LayerShape::Fc { .. } => 1,
    };
    let p = (array.positions_per_pass as u64).max(1);
    match dataflow {
        Dataflow::WeightStationary => {
            // Weights loaded once; the vertical sliding window reuses each
            // activation across the kernel's height, so activation traffic
            // is the window stream divided by kh; partial sums only when
            // the kernel doesn't fit.
            AccessCounts {
                weight_reads: cout * v,
                act_reads: (outputs * v) / kh.max(1) + v,
                psum_accesses: 2 * out_elems * (passes - 1),
                output_writes: out_elems,
            }
        }
        Dataflow::OutputStationary => {
            // Outputs accumulate in converters; every pass reloads its
            // weight and activation operands, and output tiles of size
            // `p · rows` force `out_elems / (p · rows)` full weight sweeps.
            let out_tiles = out_elems.div_ceil(p * array.rows as u64).max(1);
            AccessCounts {
                weight_reads: cout * v * out_tiles.min(outputs),
                act_reads: outputs * v, // no sliding reuse across passes
                psum_accesses: 0,
                output_writes: out_elems,
            }
        }
        Dataflow::InputStationary => {
            // Activations resident in the SNG buffers (double-buffered
            // window sets); weights restream for every resident tile and
            // partially-accumulated outputs spill between tiles.
            let act_capacity = (2 * array.row_macs) as u64;
            let in_tiles = layer.input_activations().div_ceil(act_capacity).max(1);
            AccessCounts {
                weight_reads: cout * v * in_tiles.min(outputs),
                act_reads: layer.input_activations(),
                psum_accesses: 2 * out_elems * (passes.max(in_tiles) - 1),
                output_writes: out_elems,
            }
        }
    }
}

/// Access totals for a whole network.
pub fn network_accesses(
    layers: &[LayerShape],
    dataflow: Dataflow,
    array: &ArraySpec,
) -> AccessCounts {
    let mut total = AccessCounts::default();
    for l in layers {
        let c = count_accesses(l, dataflow, array);
        total.weight_reads += c.weight_reads;
        total.act_reads += c.act_reads;
        total.psum_accesses += c.psum_accesses;
        total.output_writes += c.output_writes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_layer() -> LayerShape {
        LayerShape::Conv {
            cin: 256,
            cout: 256,
            kernel: 3,
            stride: 1,
            pad: 1,
            in_h: 8,
            in_w: 8,
            pooled: false,
        }
    }

    fn array() -> ArraySpec {
        ArraySpec::new(32, 800, 8)
    }

    #[test]
    fn weight_stationary_wins_on_conv_layers() {
        let l = vgg_layer();
        let ws = count_accesses(&l, Dataflow::WeightStationary, &array());
        let os = count_accesses(&l, Dataflow::OutputStationary, &array());
        let is = count_accesses(&l, Dataflow::InputStationary, &array());
        assert!(ws.total() < os.total());
        assert!(ws.total() < is.total());
    }

    #[test]
    fn strict_output_stationary_penalty_is_large() {
        // §III-C: strict output-stationary can cost up to ~10× vs ideal WS.
        let l = vgg_layer();
        let ws = count_accesses(&l, Dataflow::WeightStationary, &array()).total();
        let os = count_accesses(&l, Dataflow::OutputStationary, &array()).total();
        let ratio = os as f64 / ws as f64;
        assert!(ratio > 3.0, "OS penalty ratio {ratio}");
    }

    #[test]
    fn input_stationary_penalty_is_moderate() {
        // §III-C: WS reduces accesses up to ~3.3× vs input-stationary.
        let l = vgg_layer();
        let ws = count_accesses(&l, Dataflow::WeightStationary, &array()).total();
        let is = count_accesses(&l, Dataflow::InputStationary, &array()).total();
        let ratio = is as f64 / ws as f64;
        assert!(ratio > 1.5, "IS penalty ratio {ratio}");
    }

    #[test]
    fn psum_traffic_appears_only_when_kernel_spills() {
        let small = LayerShape::Conv {
            cin: 16,
            cout: 32,
            kernel: 3,
            stride: 1,
            pad: 1,
            in_h: 16,
            in_w: 16,
            pooled: false,
        }; // volume 144 ≤ 800 MACs
        let ws = count_accesses(&small, Dataflow::WeightStationary, &array());
        assert_eq!(ws.psum_accesses, 0);

        let big = vgg_layer(); // volume 2304 > 800
        let ws = count_accesses(&big, Dataflow::WeightStationary, &array());
        assert!(ws.psum_accesses > 0);
        // §III-C: partial sums are 13–20% of accesses — a minority share.
        let frac = ws.psum_fraction();
        assert!(frac > 0.02 && frac < 0.45, "psum fraction {frac}");
    }

    #[test]
    fn kernel_pass_math() {
        assert_eq!(kernel_passes(2304, 800), 3);
        assert_eq!(kernel_passes(800, 800), 1);
        assert_eq!(kernel_passes(1, 800), 1);
        assert_eq!(kernel_passes(10, 0), 10);
    }

    #[test]
    fn network_totals_sum_layers() {
        let layers = [vgg_layer(), vgg_layer()];
        let single = count_accesses(&layers[0], Dataflow::WeightStationary, &array());
        let total = network_accesses(&layers, Dataflow::WeightStationary, &array());
        assert_eq!(total.total(), 2 * single.total());
    }

    #[test]
    fn fc_layers_are_counted() {
        let fc = LayerShape::Fc {
            inf: 1024,
            outf: 512,
        };
        let ws = count_accesses(&fc, Dataflow::WeightStationary, &array());
        assert_eq!(ws.weight_reads, 512 * 1024);
        assert_eq!(ws.output_writes, 512);
    }
}
