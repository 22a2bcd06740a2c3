//! 28 nm technology constants and scaling rules.
//!
//! Stand-in for the commercial 28 nm HVT library the paper synthesizes
//! with (see DESIGN.md §3): per-gate-equivalent area/energy/leakage
//! constants with supply-voltage scaling. Absolute values are calibrated to
//! land near published 28 nm standard-cell figures; every experiment in the
//! paper compares *ratios* under one consistent constant set, which this
//! preserves.

/// One gate equivalent (GE) = the area of a NAND2 cell.
pub const GE_AREA_UM2: f64 = 0.49;
/// Dynamic energy per GE toggle at nominal voltage, in femtojoules.
pub const GE_DYN_FJ: f64 = 0.8;
/// Leakage power per GE (HVT cells), in nanowatts at nominal voltage.
pub const GE_LEAK_NW: f64 = 0.15;

/// Gate-equivalent cost of common cells.
pub mod ge {
    /// 2-input NAND/AND/OR-class gate.
    pub const GATE2: f64 = 1.0;
    /// 2-input XOR.
    pub const XOR2: f64 = 2.0;
    /// D flip-flop.
    pub const DFF: f64 = 4.5;
    /// Full adder.
    pub const FULL_ADDER: f64 = 4.5;
    /// 2:1 multiplexer.
    pub const MUX2: f64 = 2.5;
    /// Per-bit comparator cost (magnitude compare).
    pub const CMP_BIT: f64 = 2.0;
}

/// Operating point: supply voltage and clock frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
}

impl OperatingPoint {
    /// Nominal 28 nm point used by the baselines: 0.9 V, 400 MHz.
    pub fn nominal() -> Self {
        OperatingPoint {
            voltage: 0.9,
            freq_mhz: 400.0,
        }
    }

    /// GEO's DVFS point: the >30% critical-path cut from pipelining
    /// (§III-D) converts into a 0.81 V supply at the same 400 MHz.
    pub fn geo_dvfs() -> Self {
        OperatingPoint {
            voltage: 0.81,
            freq_mhz: 400.0,
        }
    }

    /// Dynamic-energy scale factor vs. nominal: `(V / V_nom)²`.
    pub fn dynamic_scale(&self) -> f64 {
        let r = self.voltage / 0.9;
        r * r
    }

    /// Leakage-power scale factor vs. nominal (≈ linear-plus in V; a
    /// conservative `(V/V_nom)^1.5` model).
    pub fn leakage_scale(&self) -> f64 {
        (self.voltage / 0.9).powf(1.5)
    }

    /// Clock period in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        1e3 / self.freq_mhz
    }

    /// Datapath bit-error rate at this supply voltage.
    ///
    /// Undervolting erodes timing margin, and near-threshold failure rates
    /// grow exponentially with the voltage deficit — the standard
    /// Razor/voltage-speculation observation. We anchor the curve at
    /// 10⁻⁹ errors/bit at the nominal 0.9 V and let it grow one decade per
    /// 30 mV below nominal (clamped to 0.5, a fully random bit):
    ///
    /// * 0.9 V (nominal) → 10⁻⁹
    /// * 0.81 V (GEO's DVFS point) → 10⁻⁶
    /// * 0.72 V (aggressive) → 10⁻³
    ///
    /// Feed the result into
    /// [`geo_sc::fault::FaultModel::stream_ber`] to co-simulate
    /// accuracy-vs-voltage (the `fault_sweep` bench binary does exactly
    /// this). Above-nominal voltages round down to the nominal floor.
    pub fn bit_error_rate(&self) -> f64 {
        const NOMINAL_V: f64 = 0.9;
        const BER_NOMINAL: f64 = 1e-9;
        const VOLTS_PER_DECADE: f64 = 0.03;
        let deficit = (NOMINAL_V - self.voltage).max(0.0);
        (BER_NOMINAL * 10f64.powf(deficit / VOLTS_PER_DECADE)).min(0.5)
    }
}

/// An area/energy/leakage triple for a hardware block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockCost {
    /// Area in µm².
    pub area_um2: f64,
    /// Dynamic energy per active cycle, in femtojoules (at nominal V).
    pub dyn_fj_per_cycle: f64,
    /// Leakage power in nanowatts (at nominal V).
    pub leak_nw: f64,
}

impl BlockCost {
    /// Cost of a block of `ge` gate equivalents with activity factor
    /// `alpha` (fraction of gates toggling per active cycle).
    pub fn from_ge(ge: f64, alpha: f64) -> Self {
        BlockCost {
            area_um2: ge * GE_AREA_UM2,
            dyn_fj_per_cycle: ge * alpha * GE_DYN_FJ,
            leak_nw: ge * GE_LEAK_NW,
        }
    }

    /// Sums two block costs.
    pub fn plus(self, other: BlockCost) -> BlockCost {
        BlockCost {
            area_um2: self.area_um2 + other.area_um2,
            dyn_fj_per_cycle: self.dyn_fj_per_cycle + other.dyn_fj_per_cycle,
            leak_nw: self.leak_nw + other.leak_nw,
        }
    }

    /// Scales the block by an instance count.
    pub fn times(self, n: f64) -> BlockCost {
        BlockCost {
            area_um2: self.area_um2 * n,
            dyn_fj_per_cycle: self.dyn_fj_per_cycle * n,
            leak_nw: self.leak_nw * n,
        }
    }
}

/// Converts µm² to mm².
pub fn um2_to_mm2(um2: f64) -> f64 {
    um2 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_matches_paper() {
        let p = OperatingPoint::nominal();
        assert_eq!(p.voltage, 0.9);
        assert_eq!(p.freq_mhz, 400.0);
        assert!((p.dynamic_scale() - 1.0).abs() < 1e-12);
        assert!((p.leakage_scale() - 1.0).abs() < 1e-12);
        assert!((p.period_ns() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ber_curve_hits_anchor_points() {
        let nominal = OperatingPoint::nominal().bit_error_rate();
        assert!((nominal - 1e-9).abs() < 1e-12);
        let dvfs = OperatingPoint::geo_dvfs().bit_error_rate();
        assert!(
            (dvfs - 1e-6).abs() / 1e-6 < 1e-6,
            "0.81 V → 1e-6, got {dvfs}"
        );
        // Deep undervolting clamps at a fully random bit.
        let deep = OperatingPoint {
            voltage: 0.3,
            freq_mhz: 400.0,
        };
        assert_eq!(deep.bit_error_rate(), 0.5);
        // Overvolting never goes below the nominal floor.
        let over = OperatingPoint {
            voltage: 1.0,
            freq_mhz: 400.0,
        };
        assert_eq!(over.bit_error_rate(), 1e-9);
    }

    #[test]
    fn ber_curve_is_monotone_in_undervoltage() {
        let mut prev = 0.0;
        for step in 0..30 {
            let v = 0.9 - 0.01 * step as f64;
            let ber = OperatingPoint {
                voltage: v,
                freq_mhz: 400.0,
            }
            .bit_error_rate();
            assert!(ber >= prev, "ber({v}) = {ber} < {prev}");
            prev = ber;
        }
    }

    #[test]
    fn dvfs_point_saves_energy() {
        let p = OperatingPoint::geo_dvfs();
        assert_eq!(p.voltage, 0.81);
        // 0.81/0.9 = 0.9 → dynamic scale 0.81.
        assert!((p.dynamic_scale() - 0.81).abs() < 1e-9);
        assert!(p.leakage_scale() < 1.0);
        assert_eq!(p.freq_mhz, 400.0, "DVFS keeps frequency (paper §III-D)");
    }

    #[test]
    fn block_cost_composition() {
        let a = BlockCost::from_ge(100.0, 0.5);
        assert!((a.area_um2 - 49.0).abs() < 1e-9);
        assert!((a.dyn_fj_per_cycle - 40.0).abs() < 1e-9);
        let b = a.plus(a).times(2.0);
        assert!((b.area_um2 - 196.0).abs() < 1e-9);
        assert!((b.leak_nw - 60.0).abs() < 1e-9);
    }

    #[test]
    fn unit_conversion() {
        assert!((um2_to_mm2(1e6) - 1.0).abs() < 1e-12);
    }
}
