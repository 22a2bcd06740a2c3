//! Memory models: on-chip SRAM (CACTI-like analytic fit) and HBM2 external
//! memory (after O'Connor et al., the model the paper cites for its LP
//! variant).

/// An on-chip SRAM macro.
///
/// Analytic stand-in for CACTI 6.5 (see DESIGN.md §3): area linear in
/// capacity, access energy growing with the square root of capacity (wire
/// dominated), leakage linear in capacity. Constants anchored to published
/// 28 nm SRAM macros (≈0.35 µm²/bit including periphery; a 32 KB macro
/// reads 64 bits for ≈6 pJ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sram {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Read/write port width in bits.
    pub width_bits: usize,
}

impl Sram {
    /// Creates an SRAM macro model.
    pub fn new(bytes: usize, width_bits: usize) -> Self {
        Sram { bytes, width_bits }
    }

    /// Macro area in µm².
    pub fn area_um2(&self) -> f64 {
        const UM2_PER_BIT: f64 = 0.35;
        (self.bytes * 8) as f64 * UM2_PER_BIT
    }

    /// Energy of one full-width access, in picojoules.
    pub fn access_pj(&self) -> f64 {
        // E = (a + b·√bits_capacity) scaled by port width.
        let cap_bits = (self.bytes * 8) as f64;
        let per_bit = 0.004 + 0.00018 * cap_bits.sqrt();
        per_bit * self.width_bits as f64
    }

    /// Energy per byte moved, in picojoules.
    pub fn pj_per_byte(&self) -> f64 {
        self.access_pj() * 8.0 / self.width_bits as f64
    }

    /// Leakage power in nanowatts.
    pub fn leak_nw(&self) -> f64 {
        const NW_PER_BIT: f64 = 0.01;
        (self.bytes * 8) as f64 * NW_PER_BIT
    }

    /// Accesses needed to move `bytes` through the port.
    pub fn accesses_for(&self, bytes: usize) -> u64 {
        ((bytes * 8).div_ceil(self.width_bits)) as u64
    }

    /// Check bits per stored word under `scheme`.
    pub fn ecc_check_bits(&self, scheme: EccScheme) -> usize {
        scheme.check_bits(self.width_bits)
    }

    /// Storage overhead factor of `scheme`: protected capacity and port
    /// width grow by `(w + check_bits) / w`. `EccScheme::None` → 1.0.
    pub fn ecc_overhead_factor(&self, scheme: EccScheme) -> f64 {
        (self.width_bits + self.ecc_check_bits(scheme)) as f64 / self.width_bits as f64
    }

    /// Extra macro area in µm² for storing the check bits of `scheme`
    /// (encoder/decoder logic is counted with the datapath, not here).
    pub fn ecc_area_um2(&self, scheme: EccScheme) -> f64 {
        self.area_um2() * (self.ecc_overhead_factor(scheme) - 1.0)
    }

    /// Energy of one full-width access including check bits, in picojoules.
    pub fn ecc_access_pj(&self, scheme: EccScheme) -> f64 {
        self.access_pj() * self.ecc_overhead_factor(scheme)
    }

    /// Leakage power including check-bit storage, in nanowatts.
    pub fn ecc_leak_nw(&self, scheme: EccScheme) -> f64 {
        self.leak_nw() * self.ecc_overhead_factor(scheme)
    }

    /// Probability that one word read escapes the scheme's protection,
    /// given a raw per-bit upset probability `bit_ber` (e.g. from
    /// `OperatingPoint::bit_error_rate`).
    ///
    /// * `None`: any flipped bit corrupts the word — `1 − (1−p)^w`.
    /// * `Parity`: single flips are detected (and the access retried), so
    ///   only even-weight patterns escape; dominated by double flips
    ///   ≈ `C(n,2)·p²` over the `n = w+1` stored bits.
    /// * `Secded`: single flips corrected, doubles detected; triple flips
    ///   escape ≈ `C(n,3)·p³` over the `n = w+c` stored bits.
    pub fn residual_word_error(&self, scheme: EccScheme, bit_ber: f64) -> f64 {
        let p = bit_ber.clamp(0.0, 1.0);
        let n = (self.width_bits + self.ecc_check_bits(scheme)) as f64;
        let raw = match scheme {
            EccScheme::None => 1.0 - (1.0 - p).powf(n),
            EccScheme::Parity => n * (n - 1.0) / 2.0 * p * p,
            EccScheme::Secded => n * (n - 1.0) * (n - 2.0) / 6.0 * p * p * p,
        };
        raw.min(1.0)
    }
}

/// Error-protection scheme for an SRAM macro.
///
/// Modeled as a cost *query* on [`Sram`] rather than a field so existing
/// macro descriptions stay valid: the unprotected figures are the baseline
/// and each scheme reports its overhead on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EccScheme {
    /// No protection: raw bit upsets reach the datapath.
    #[default]
    None,
    /// One parity bit per word: detects (but cannot correct) odd-weight
    /// flips; the access is retried on detection.
    Parity,
    /// Hamming SECDED: corrects single flips, detects doubles.
    Secded,
}

impl EccScheme {
    /// Check bits required per `word_bits`-wide word.
    ///
    /// SECDED needs `⌈log₂(w)⌉ + 2` bits (e.g. 8 for a 64-bit word,
    /// the standard (72, 64) code).
    pub fn check_bits(&self, word_bits: usize) -> usize {
        match self {
            EccScheme::None => 0,
            EccScheme::Parity => 1,
            EccScheme::Secded => {
                let mut c = 0usize;
                while (1usize << c) < word_bits.max(1) {
                    c += 1;
                }
                c + 2
            }
        }
    }
}

/// HBM2 external memory model (O'Connor et al., MICRO 2017): ≈3.9 pJ/bit
/// end-to-end access energy, 256 GB/s per stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hbm2 {
    /// Access energy per bit, picojoules.
    pub pj_per_bit: f64,
    /// Peak bandwidth, gigabytes per second.
    pub bandwidth_gbs: f64,
}

impl Default for Hbm2 {
    fn default() -> Self {
        Hbm2 {
            pj_per_bit: 3.9,
            bandwidth_gbs: 256.0,
        }
    }
}

impl Hbm2 {
    /// Energy to move `bytes`, in picojoules.
    pub fn energy_pj(&self, bytes: u64) -> f64 {
        self.pj_per_bit * (bytes * 8) as f64
    }

    /// Time to move `bytes` at peak bandwidth, in nanoseconds.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_gbs
    }

    /// Cycles to move `bytes` at `freq_mhz`.
    pub fn transfer_cycles(&self, bytes: u64, freq_mhz: f64) -> u64 {
        (self.transfer_ns(bytes) * freq_mhz / 1e3).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_area_is_linear_in_capacity() {
        let a = Sram::new(32 * 1024, 64);
        let b = Sram::new(64 * 1024, 64);
        assert!((b.area_um2() / a.area_um2() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sram_access_energy_grows_sublinearly() {
        let small = Sram::new(8 * 1024, 64);
        let big = Sram::new(128 * 1024, 64);
        let ratio = big.access_pj() / small.access_pj();
        assert!(
            ratio > 1.5 && ratio < 16.0,
            "sublinear in capacity: {ratio}"
        );
    }

    #[test]
    fn sram_32kb_access_is_a_few_pj() {
        let m = Sram::new(32 * 1024, 64);
        let pj = m.access_pj();
        assert!(
            pj > 2.0 && pj < 15.0,
            "28nm-plausible access energy: {pj} pJ"
        );
    }

    #[test]
    fn wider_ports_cost_proportionally_more_per_access() {
        let narrow = Sram::new(32 * 1024, 32);
        let wide = Sram::new(32 * 1024, 128);
        assert!((wide.access_pj() / narrow.access_pj() - 4.0).abs() < 1e-9);
        // But the same per byte.
        assert!((wide.pj_per_byte() - narrow.pj_per_byte()).abs() < 1e-9);
    }

    #[test]
    fn access_counting() {
        let m = Sram::new(1024, 64);
        assert_eq!(m.accesses_for(8), 1);
        assert_eq!(m.accesses_for(9), 2);
        assert_eq!(m.accesses_for(64), 8);
    }

    #[test]
    fn secded_matches_standard_codes() {
        // (72, 64) and (39, 32): the classical Hamming SECDED widths.
        assert_eq!(EccScheme::Secded.check_bits(64), 8);
        assert_eq!(EccScheme::Secded.check_bits(32), 7);
        assert_eq!(EccScheme::Parity.check_bits(64), 1);
        assert_eq!(EccScheme::None.check_bits(64), 0);
    }

    #[test]
    fn ecc_costs_scale_with_check_bits() {
        let m = Sram::new(32 * 1024, 64);
        assert_eq!(m.ecc_area_um2(EccScheme::None), 0.0);
        assert_eq!(m.ecc_access_pj(EccScheme::None), m.access_pj());
        // (72, 64): 12.5% overhead on every figure.
        let f = m.ecc_overhead_factor(EccScheme::Secded);
        assert!((f - 72.0 / 64.0).abs() < 1e-12);
        assert!((m.ecc_access_pj(EccScheme::Secded) / m.access_pj() - f).abs() < 1e-12);
        assert!((m.ecc_leak_nw(EccScheme::Secded) / m.leak_nw() - f).abs() < 1e-12);
        assert!(
            m.ecc_area_um2(EccScheme::Parity) < m.ecc_area_um2(EccScheme::Secded),
            "parity is cheaper than SECDED"
        );
    }

    #[test]
    fn residual_error_orders_by_scheme_strength() {
        let m = Sram::new(32 * 1024, 64);
        let p = 1e-6; // the GEO DVFS point's BER
        let none = m.residual_word_error(EccScheme::None, p);
        let parity = m.residual_word_error(EccScheme::Parity, p);
        let secded = m.residual_word_error(EccScheme::Secded, p);
        assert!(
            none > parity && parity > secded,
            "{none} > {parity} > {secded}"
        );
        // Leading-order magnitudes: w·p, C(65,2)p², C(72,3)p³.
        assert!((none / (64.0 * p) - 1.0).abs() < 1e-3);
        assert!((parity / (65.0 * 64.0 / 2.0 * p * p) - 1.0).abs() < 1e-9);
        // Degenerate inputs stay probabilities.
        assert_eq!(m.residual_word_error(EccScheme::None, 1.0), 1.0);
        assert_eq!(m.residual_word_error(EccScheme::Secded, 0.0), 0.0);
        assert!(m.residual_word_error(EccScheme::Parity, 0.4) <= 1.0);
    }

    #[test]
    fn hbm2_defaults_match_cited_model() {
        let h = Hbm2::default();
        assert_eq!(h.pj_per_bit, 3.9);
        assert_eq!(h.bandwidth_gbs, 256.0);
        // 1 KB transfer: 8192 bits × 3.9 pJ.
        assert!((h.energy_pj(1024) - 31948.8).abs() < 0.1);
        assert!(h.transfer_ns(256) > 0.9 && h.transfer_ns(256) < 1.1);
        assert_eq!(h.transfer_cycles(256_000, 400.0), 400);
    }

    #[test]
    fn external_access_dwarfs_on_chip() {
        // The paper's "modest energy reduction is caused by the high cost
        // of external memory accesses" requires HBM ≫ SRAM per byte.
        let sram = Sram::new(256 * 1024, 128);
        let hbm = Hbm2::default();
        let hbm_per_byte = hbm.energy_pj(1);
        assert!(hbm_per_byte > 3.0 * sram.pj_per_byte());
    }
}
