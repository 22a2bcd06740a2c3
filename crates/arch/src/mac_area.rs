//! MAC-unit area model across accumulation modes — regenerates Fig. 5.
//!
//! One SC MAC unit multiplies a `(Cin, H, W)` kernel against a window of
//! activations and accumulates the products. The accumulation mode decides
//! where the OR tree stops and counters begin:
//!
//! * **SC** — AND gates + full OR tree (both split halves).
//! * **PBW** — OR trees over `(Cin, H)` per W column + a W-input counter.
//! * **PBHW** — OR trees over `Cin` per (H, W) position + an `H·W`-input
//!   counter.
//! * **FXP** — every product counted: a `V`-input exact counter.
//! * **APC** — a `V`-input approximate counter.
//!
//! The paper's shape: PBW costs up to 1.4× for small kernels, shrinking to
//! ~4% for large ones; PBHW up to 4.5× shrinking to ~9%; FXP >5× for most
//! kernels; APC >3× PBW for large kernels.

use crate::modules::{
    approximate_parallel_counter, fxp_conversion_fabric, or_tree, parallel_counter, sc_multiplier,
};
use crate::tech::BlockCost;
use geo_sc::Accumulation;
use geo_sc::KernelDims;

/// Kernel sizes the paper sweeps in Fig. 5.
pub fn fig5_kernel_sizes() -> Vec<KernelDims> {
    [
        (1usize, 3usize, 3usize),
        (4, 3, 3),
        (16, 3, 3),
        (64, 3, 3),
        (256, 3, 3),
        (1, 5, 5),
        (4, 5, 5),
        (16, 5, 5),
        (64, 5, 5),
        (256, 5, 5),
    ]
    .iter()
    .map(|&(cin, h, w)| KernelDims::new(1, cin, h, w))
    .collect()
}

/// Area/energy/leakage of one SC MAC unit for `dims` under `mode`.
///
/// Counts both split-unipolar halves. The `Cout` field of `dims` is
/// ignored (one unit per output channel).
pub fn sc_mac_unit(dims: KernelDims, mode: Accumulation) -> BlockCost {
    let v = dims.kernel_volume();
    // AND multipliers: one sc_multiplier per kernel position (covers both
    // halves).
    let multipliers = sc_multiplier().times(v as f64);
    let both_halves = 2.0;
    match mode {
        Accumulation::Or => multipliers.plus(or_tree(v).times(both_halves)),
        Accumulation::Pbw => {
            let group = dims.cin * dims.h; // OR over (Cin, H) per W column
            multipliers
                .plus(or_tree(group).times(both_halves * dims.w as f64))
                .plus(parallel_counter(dims.w).times(both_halves))
        }
        Accumulation::Pbhw => {
            let group = dims.cin; // OR over Cin per (H, W) position
            multipliers
                .plus(or_tree(group).times(both_halves * (dims.h * dims.w) as f64))
                .plus(parallel_counter(dims.h * dims.w).times(both_halves))
        }
        Accumulation::Fxp => multipliers.plus(fxp_conversion_fabric(v).times(both_halves)),
        Accumulation::Apc => multipliers.plus(approximate_parallel_counter(v).times(both_halves)),
    }
}

/// One Fig. 5 row: kernel size and per-mode area, normalized to SC.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Kernel dimensions.
    pub dims: (usize, usize, usize),
    /// Absolute SC-mode area in µm².
    pub sc_area_um2: f64,
    /// Area of each mode relative to SC: `[SC, PBW, PBHW, FXP, APC]`.
    pub relative: [f64; 5],
}

/// Computes the full Fig. 5 sweep.
pub fn fig5_table() -> Vec<Fig5Row> {
    fig5_kernel_sizes()
        .into_iter()
        .map(|dims| {
            let sc = sc_mac_unit(dims, Accumulation::Or).area_um2;
            let rel = |m: Accumulation| sc_mac_unit(dims, m).area_um2 / sc;
            Fig5Row {
                dims: (dims.cin, dims.h, dims.w),
                sc_area_um2: sc,
                relative: [
                    1.0,
                    rel(Accumulation::Pbw),
                    rel(Accumulation::Pbhw),
                    rel(Accumulation::Fxp),
                    rel(Accumulation::Apc),
                ],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(dims: KernelDims, mode: Accumulation) -> f64 {
        sc_mac_unit(dims, mode).area_um2 / sc_mac_unit(dims, Accumulation::Or).area_um2
    }

    #[test]
    fn ordering_matches_fig5() {
        for dims in fig5_kernel_sizes() {
            let pbw = rel(dims, Accumulation::Pbw);
            let pbhw = rel(dims, Accumulation::Pbhw);
            let fxp = rel(dims, Accumulation::Fxp);
            assert!(pbw >= 1.0 && pbw <= pbhw, "{dims:?}: pbw {pbw} pbhw {pbhw}");
            assert!(pbhw <= fxp, "{dims:?}: pbhw {pbhw} fxp {fxp}");
        }
    }

    #[test]
    fn pbw_overhead_shrinks_for_large_kernels() {
        let small = rel(KernelDims::new(1, 1, 3, 3), Accumulation::Pbw);
        let large = rel(KernelDims::new(1, 256, 5, 5), Accumulation::Pbw);
        assert!(small > 1.1, "small-kernel PBW overhead is visible: {small}");
        assert!(large < 1.10, "large-kernel PBW overhead ≤ ~10%: {large}");
        assert!(small > large);
    }

    #[test]
    fn pbhw_overhead_shrinks_for_large_kernels() {
        let small = rel(KernelDims::new(1, 1, 5, 5), Accumulation::Pbhw);
        let large = rel(KernelDims::new(1, 256, 5, 5), Accumulation::Pbhw);
        assert!(small > 1.5, "small-kernel PBHW overhead is large: {small}");
        assert!(large < 1.25, "large-kernel PBHW overhead small: {large}");
    }

    #[test]
    fn fxp_is_several_times_sc_for_most_kernels() {
        let mut count = 0;
        for dims in fig5_kernel_sizes() {
            if rel(dims, Accumulation::Fxp) > 3.0 {
                count += 1;
            }
        }
        assert!(
            count >= 7,
            "FXP should be ≥3× SC for most sizes, got {count}/10"
        );
    }

    #[test]
    fn apc_is_between_pbw_and_fxp_for_large_kernels() {
        let dims = KernelDims::new(1, 256, 5, 5);
        let apc = rel(dims, Accumulation::Apc);
        let pbw = rel(dims, Accumulation::Pbw);
        let fxp = rel(dims, Accumulation::Fxp);
        assert!(
            apc > 2.0 * pbw,
            "APC ≫ PBW for large kernels: {apc} vs {pbw}"
        );
        assert!(apc < fxp, "APC < FXP: {apc} vs {fxp}");
    }

    #[test]
    fn fig5_table_is_complete_and_normalized() {
        let table = fig5_table();
        assert_eq!(table.len(), 10);
        for row in &table {
            assert_eq!(row.relative[0], 1.0);
            assert!(row.sc_area_um2 > 0.0);
        }
    }
}
