//! Reported comparison points: accelerators the paper compares against
//! using their published numbers (scaled to 28 nm where the paper did so).
//!
//! SM-SC is not fully programmable, SCOPE is an in-DRAM design with a
//! massive footprint, and Conv-RAM / MDL-CNN are mixed-signal macros — none
//! can be meaningfully re-simulated, so, exactly like the paper, we carry
//! their reported numbers as typed constants (Tables I–III).

/// A published accelerator datapoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedPoint {
    /// Accelerator name.
    pub name: &'static str,
    /// Citation key in the paper.
    pub citation: &'static str,
    /// Supply voltage in volts, if reported.
    pub voltage: Option<f64>,
    /// Area in mm², if reported.
    pub area_mm2: Option<f64>,
    /// Power in milliwatts, if reported.
    pub power_mw: Option<f64>,
    /// Clock in MHz, if reported.
    pub clock_mhz: Option<f64>,
    /// Peak throughput in GOPS, if reported.
    pub peak_gops: Option<f64>,
    /// Peak efficiency in TOPS/W, if reported.
    pub peak_tops_w: Option<f64>,
    /// CIFAR-10 accuracy (CNN-class model), if reported.
    pub cifar10_accuracy: Option<f64>,
    /// MNIST accuracy, if reported.
    pub mnist_accuracy: Option<f64>,
    /// LeNet-class frames per second, if reported.
    pub lenet_fps: Option<f64>,
    /// LeNet-class frames per joule, if reported.
    pub lenet_fpj: Option<f64>,
}

/// SM-SC (Sign-Magnitude SC, Zhakatayev et al., DAC 2018) — Table I & III.
pub fn sm_sc() -> ReportedPoint {
    ReportedPoint {
        name: "SM-SC",
        citation: "[1]",
        voltage: Some(0.9),
        area_mm2: None,
        power_mw: None,
        clock_mhz: Some(1536.0),
        peak_gops: Some(1700.0),
        peak_tops_w: Some(0.92),
        cifar10_accuracy: Some(0.80), // at 128-bit streams
        mnist_accuracy: None,
        lenet_fps: None,
        lenet_fpj: None,
    }
}

/// SCOPE (Li et al., MICRO 2018) — in-DRAM SC engine, Table I & III.
pub fn scope() -> ReportedPoint {
    ReportedPoint {
        name: "SCOPE",
        citation: "[2]",
        voltage: None,
        area_mm2: Some(273.0),
        power_mw: None,
        clock_mhz: Some(200.0),
        peak_gops: Some(7100.0),
        peak_tops_w: None,
        cifar10_accuracy: None,
        mnist_accuracy: Some(0.993), // LeNet-5 at 128-bit streams
        lenet_fps: None,
        lenet_fpj: None,
    }
}

/// Conv-RAM (Biswas & Chandrakasan, ISSCC 2018) — in-SRAM mixed-signal,
/// Table I & II.
pub fn conv_ram() -> ReportedPoint {
    ReportedPoint {
        name: "Conv-RAM",
        citation: "[32]",
        voltage: Some(0.9),
        area_mm2: Some(0.02),
        power_mw: Some(0.016),
        clock_mhz: Some(364.0),
        peak_gops: Some(10.7),
        peak_tops_w: Some(44.2),
        cifar10_accuracy: None,
        mnist_accuracy: Some(0.96), // 7-bit act / 1-bit weight
        lenet_fps: Some(15_000.0),
        lenet_fpj: Some(117e6),
    }
}

/// MDL-CNN (Sayal et al., ISSCC 2019) — time-domain mixed-signal,
/// Table I & II.
pub fn mdl_cnn() -> ReportedPoint {
    ReportedPoint {
        name: "MDL-CNN",
        citation: "[33]",
        voltage: Some(0.537),
        area_mm2: Some(0.06),
        power_mw: Some(0.02),
        clock_mhz: Some(25.0),
        peak_gops: Some(0.365),
        peak_tops_w: Some(18.2),
        cifar10_accuracy: None,
        mnist_accuracy: Some(0.984), // 4-bit act / 1-bit weight
        lenet_fps: Some(1_000.0),
        lenet_fpj: Some(50e6),
    }
}

/// All reported points.
pub fn all() -> Vec<ReportedPoint> {
    vec![sm_sc(), scope(), conv_ram(), mdl_cnn()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_has_a_citation_and_name() {
        for p in all() {
            assert!(!p.name.is_empty());
            assert!(p.citation.starts_with('['));
        }
    }

    #[test]
    fn scope_is_huge_conv_ram_is_tiny() {
        assert!(scope().area_mm2.unwrap() > 100.0);
        assert!(conv_ram().area_mm2.unwrap() < 0.1);
    }

    #[test]
    fn mixed_signal_points_report_mnist_accuracy() {
        assert!(conv_ram().mnist_accuracy.unwrap() < 0.99);
        assert!(mdl_cnn().mnist_accuracy.unwrap() < 0.99);
        // Paper: GEO's 16-32 LeNet accuracy (98.9%) beats both.
        assert!(0.989 > conv_ram().mnist_accuracy.unwrap());
        assert!(0.989 > mdl_cnn().mnist_accuracy.unwrap());
    }

    #[test]
    fn table_values_match_paper() {
        assert_eq!(sm_sc().clock_mhz, Some(1536.0));
        assert_eq!(scope().peak_gops, Some(7100.0));
        assert_eq!(conv_ram().peak_tops_w, Some(44.2));
        assert_eq!(mdl_cnn().voltage, Some(0.537));
    }
}
