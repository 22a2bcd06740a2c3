//! Eyeriss-style fixed-point baseline (Chen et al., ISSCC 2016), scaled to
//! 4-/8-bit precision and 28 nm, sized for iso-area comparison with GEO —
//! the paper's fixed-point comparison points in Tables I–III.
//!
//! Analytic row-stationary model standing in for the TETRIS simulator the
//! paper uses (see DESIGN.md §3): throughput from PE count × utilization,
//! energy from per-MAC cost plus memory-hierarchy traffic.

use crate::memory::{Hbm2, Sram};
use crate::network::NetworkDesc;
use crate::perfsim::SimReport;
use crate::tech::OperatingPoint;

/// An Eyeriss-like fixed-point accelerator design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EyerissConfig {
    /// Configuration name.
    pub name: String,
    /// Number of processing elements.
    pub pes: usize,
    /// Datapath precision in bits (4 or 8).
    pub bits: u8,
    /// On-chip global buffer.
    pub buffer: Sram,
    /// External memory for the scale-out point.
    pub external: Option<Hbm2>,
    /// Operating point (nominal 0.9 V / 400 MHz).
    pub op: OperatingPoint,
    /// Average PE-array utilization (row-stationary mapping efficiency).
    pub utilization: f64,
}

/// Effective per-MAC energy at 28 nm, picojoules, for a `bits`-wide
/// fixed-point datapath. Includes the PE-local register file and NoC
/// energy that dominate Eyeriss-style designs (the MAC itself is roughly a
/// third of this, per the Eyeriss energy breakdowns); multiplier energy
/// scales roughly quadratically with width.
pub fn mac_energy_pj(bits: u8) -> f64 {
    match bits {
        4 => 0.15,
        8 => 0.50,
        16 => 1.90,
        b => 0.50 * (f64::from(b) / 8.0).powi(2),
    }
}

/// PE area in µm² (MAC + local register file + control).
pub fn pe_area_um2(bits: u8) -> f64 {
    match bits {
        4 => 1_600.0,
        8 => 3_400.0,
        b => 3_400.0 * f64::from(b) / 8.0,
    }
}

impl EyerissConfig {
    /// The 4-bit ULP comparison point: ≈0.59 mm², iso-area with GEO-ULP
    /// (Table II: 80 peak GOPS → 100 PEs at 400 MHz).
    pub fn ulp_4bit() -> Self {
        EyerissConfig {
            name: "Eyeriss-4bit".into(),
            pes: 100,
            bits: 4,
            buffer: Sram::new(108 * 1024, 64),
            external: None,
            op: OperatingPoint::nominal(),
            utilization: 0.75,
        }
    }

    /// The 8-bit LP comparison point: ≈9.3 mm² (Table III: 204 peak GOPS
    /// → 255 PEs at 400 MHz).
    pub fn lp_8bit() -> Self {
        EyerissConfig {
            name: "Eyeriss-8bit".into(),
            pes: 255,
            bits: 8,
            buffer: Sram::new(512 * 1024, 128),
            external: Some(Hbm2::default()),
            op: OperatingPoint::nominal(),
            utilization: 0.75,
        }
    }

    /// Total area in mm² (PE array + buffer + ~25% interconnect/control).
    pub fn area_mm2(&self) -> f64 {
        let logic = self.pes as f64 * pe_area_um2(self.bits);
        (logic + self.buffer.area_um2()) * 1.25 * 1e-6
    }

    /// Peak throughput in GOPS (2 ops per MAC per cycle).
    pub fn peak_gops(&self) -> f64 {
        self.pes as f64 * self.op.freq_mhz * 1e6 * 2.0 / 1e9
    }

    /// Simulates one inference of `net`, returning the same report type as
    /// the GEO simulator for direct table comparison.
    pub fn simulate(&self, net: &NetworkDesc) -> SimReport {
        let macs = net.total_macs() as f64;
        let cycles = macs / (self.pes as f64 * self.utilization);
        let seconds = cycles * self.op.period_ns() * 1e-9;

        // Row-stationary reuse: each weight/activation moves through the
        // buffer a small constant number of times; psum traffic stays in
        // the PE-local register files.
        let bytes_per_elem = f64::from(self.bits) / 8.0;
        let buffer_traffic = (net.total_weights() as f64 * 1.2
            + net
                .layers
                .iter()
                .map(|l| l.input_activations() as f64 * 2.0 + l.outputs() as f64)
                .sum::<f64>())
            * bytes_per_elem;
        let dyn_pj = macs * mac_energy_pj(self.bits) + buffer_traffic * self.buffer.pj_per_byte();
        let mut external_pj = 0.0;
        if let Some(hbm) = &self.external {
            // External traffic: weights once, plus activation/psum spills
            // from inter-layer tiling when the model exceeds the global
            // buffer. The factor is calibrated against the TETRIS-based
            // numbers the paper reports for its Eyeriss LP point.
            const DRAM_TRAFFIC_FACTOR: f64 = 3.0;
            external_pj = hbm.energy_pj(
                (net.total_weights() as f64 * bytes_per_elem * DRAM_TRAFFIC_FACTOR) as u64,
            );
        }
        // Leakage: logic + buffer.
        let leak_mw = (self.pes as f64 * pe_area_um2(self.bits) * 0.3 * 1e-6
            + self.buffer.leak_nw() * 1e-6)
            * self.op.leakage_scale();
        let leakage_pj = leak_mw * 1e9 * seconds;
        let energy_j = (dyn_pj + leakage_pj + external_pj) * 1e-12;
        SimReport {
            config: self.name.clone(),
            network: net.name.clone(),
            cycles: cycles as u64,
            seconds,
            energy_j,
            breakdown_pj: Vec::new(),
            leakage_pj,
            external_pj,
            fps: 1.0 / seconds,
            frames_per_joule: 1.0 / energy_j,
            power_mw: energy_j / seconds * 1e3,
            area_mm2: self.area_mm2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_point_is_iso_area_with_geo_ulp() {
        let e = EyerissConfig::ulp_4bit();
        let a = e.area_mm2();
        assert!(a > 0.3 && a < 0.9, "4-bit Eyeriss area {a} mm²");
        assert!((e.peak_gops() - 80.0).abs() < 1.0, "Table II: 80 GOPS");
    }

    #[test]
    fn lp_point_matches_table_iii() {
        let e = EyerissConfig::lp_8bit();
        assert!((e.peak_gops() - 204.0).abs() < 1.0, "Table III: 204 GOPS");
        let a = e.area_mm2();
        assert!(a > 0.8 && a < 12.0, "8-bit Eyeriss area {a} mm²");
    }

    #[test]
    fn mac_energy_grows_with_precision() {
        assert!(mac_energy_pj(4) < mac_energy_pj(8));
        assert!(mac_energy_pj(8) < mac_energy_pj(16));
        assert!(mac_energy_pj(12) > mac_energy_pj(8));
    }

    #[test]
    fn simulation_produces_plausible_numbers() {
        let r = EyerissConfig::ulp_4bit().simulate(&NetworkDesc::cnn4_cifar());
        // Table II: Eyeriss-4bit ≈ 5.2k CIFAR frames/s.
        assert!(r.fps > 500.0 && r.fps < 50_000.0, "fps {}", r.fps);
        assert!(
            r.power_mw > 1.0 && r.power_mw < 500.0,
            "power {}",
            r.power_mw
        );
    }

    #[test]
    fn lenet_is_much_faster_than_cnn4() {
        let e = EyerissConfig::ulp_4bit();
        let cnn = e.simulate(&NetworkDesc::cnn4_cifar());
        let lenet = e.simulate(&NetworkDesc::lenet5_mnist());
        assert!(lenet.fps > 5.0 * cnn.fps);
    }

    #[test]
    fn lp_vgg_pays_external_energy() {
        let r = EyerissConfig::lp_8bit().simulate(&NetworkDesc::vgg16_scaled_cifar());
        assert!(r.external_pj > 0.0);
        assert!(r.fps > 50.0, "VGG fps {}", r.fps);
    }
}
