//! GEO accelerator configurations and the area model (Fig. 4, Fig. 6,
//! Tables II & III).
//!
//! Two design points: **ULP** (25.6K MACs, 150 KB on-chip) and **LP**
//! (294K MACs, 0.5 MB on-chip, HBM2 external memory). Each optimization
//! from the paper can be toggled, producing the Base / GEO-GEN /
//! GEO-GEN-EXEC variants Fig. 6 compares.

use crate::mac_area;
use crate::memory::{Hbm2, Sram};
use crate::modules;
use crate::tech::{um2_to_mm2, BlockCost, OperatingPoint};
use geo_sc::Accumulation;
use geo_sc::KernelDims;

/// The optimization toggles distinguishing Base from GEO variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// Moderate RNG sharing: one LFSR set shared across rows (§II-A).
    pub shared_generation: bool,
    /// Progressive generation + 2-bit shadow buffers (§II-B, §III-D).
    pub progressive_shadow: bool,
    /// Partial binary (PBW) accumulation counters in the MAC rows (§III-B).
    pub partial_binary: bool,
    /// Near-memory accumulate + batch norm units (§III-C).
    pub near_memory: bool,
    /// Compute pipeline stage enabling the 0.81 V DVFS point (§III-D).
    pub pipeline_dvfs: bool,
    /// Pooled-output computation skipping (§III-A): the output
    /// converters' parallel counters add each 2×2 pooling window before
    /// conversion, so pooled layers convert once per window instead of
    /// once per pixel (the engine's conv→pool fusion models the same
    /// transform in software).
    pub pooled_conversion_skip: bool,
    /// LFSR width; the Base variant uses 16-bit LFSRs to emulate TRNG
    /// quality (§IV-B), GEO matches width to stream length (≤8).
    pub lfsr_bits: u8,
}

impl Optimizations {
    /// Everything off: the Base-128,128 point of Fig. 6.
    pub fn baseline() -> Self {
        Optimizations {
            shared_generation: false,
            progressive_shadow: false,
            partial_binary: false,
            near_memory: false,
            pipeline_dvfs: false,
            pooled_conversion_skip: false,
            lfsr_bits: 16,
        }
    }

    /// Generation optimizations only: GEO-GEN (§II).
    pub fn generation_only() -> Self {
        Optimizations {
            shared_generation: true,
            progressive_shadow: true,
            partial_binary: false,
            near_memory: false,
            pipeline_dvfs: false,
            pooled_conversion_skip: false,
            lfsr_bits: 8,
        }
    }

    /// Generation + execution optimizations: GEO-GEN-EXEC (§II + §III).
    pub fn full() -> Self {
        Optimizations {
            shared_generation: true,
            progressive_shadow: true,
            partial_binary: true,
            near_memory: true,
            pipeline_dvfs: true,
            pooled_conversion_skip: true,
            lfsr_bits: 8,
        }
    }
}

/// Area/energy breakdown categories — exactly the legend of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// SC MAC arrays (AND gates, OR trees, partial-binary counters,
    /// pipeline registers).
    ScMacArrays,
    /// Activation stream generators (LFSRs + comparators).
    ActSng,
    /// Activation SNG operand buffers (+ shadow stages).
    ActSngBuffers,
    /// Weight stream generators.
    WgtSng,
    /// Weight SNG operand buffers.
    WgtSngBuffers,
    /// Output converter array (counters, subtractors, pooling adders) and
    /// near-memory compute.
    OutputConv,
    /// Activation memory.
    ActMemory,
    /// Weight memory.
    WgtMemory,
}

impl Category {
    /// All categories in Fig. 6 legend order.
    pub const ALL: [Category; 8] = [
        Category::ScMacArrays,
        Category::ActSng,
        Category::ActSngBuffers,
        Category::WgtSng,
        Category::WgtSngBuffers,
        Category::OutputConv,
        Category::ActMemory,
        Category::WgtMemory,
    ];

    /// Position of this category in [`Category::ALL`] — infallible, so
    /// breakdown tables can index per-category arrays without a linear
    /// scan or an `unwrap`.
    pub const fn index(self) -> usize {
        match self {
            Category::ScMacArrays => 0,
            Category::ActSng => 1,
            Category::ActSngBuffers => 2,
            Category::WgtSng => 3,
            Category::WgtSngBuffers => 4,
            Category::OutputConv => 5,
            Category::ActMemory => 6,
            Category::WgtMemory => 7,
        }
    }

    /// Display label matching the figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            Category::ScMacArrays => "SC MAC Arrays",
            Category::ActSng => "Act. SNG",
            Category::ActSngBuffers => "Act. SNG Buffers",
            Category::WgtSng => "Wgt. SNG",
            Category::WgtSngBuffers => "Wgt. SNG Buffers",
            Category::OutputConv => "Output Conv.",
            Category::ActMemory => "Act. Memory",
            Category::WgtMemory => "Wgt. Memory",
        }
    }
}

/// A GEO accelerator design point.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// Configuration name, e.g. `"GEO-ULP-32,64"`.
    pub name: String,
    /// MAC rows (output channels in parallel).
    pub rows: usize,
    /// MAC units per row.
    pub row_macs: usize,
    /// Output positions per compute pass (sliding-window width).
    pub positions_per_pass: usize,
    /// Activation memory (2 logical ping-pong banks).
    pub act_mem: Sram,
    /// Weight memory (2 logical ping-pong banks).
    pub wgt_mem: Sram,
    /// External memory for scale-out variants (LP).
    pub external: Option<Hbm2>,
    /// Stream length for pooled layers (`sp`).
    pub stream_pooled: usize,
    /// Stream length for other layers (`s`).
    pub stream_other: usize,
    /// Optimization toggles.
    pub opts: Optimizations,
}

impl AccelConfig {
    /// The ULP design point (25.6K MACs, 150 KB on-chip) with full GEO
    /// optimizations at a `{sp, s}` stream pair.
    pub fn ulp_geo(sp: usize, s: usize) -> Self {
        AccelConfig {
            name: format!("GEO-ULP-{sp},{s}"),
            rows: 32,
            row_macs: 800,
            positions_per_pass: 8,
            act_mem: Sram::new(100 * 1024, 128),
            wgt_mem: Sram::new(50 * 1024, 128),
            external: None,
            stream_pooled: sp,
            stream_other: s,
            opts: Optimizations::full(),
        }
    }

    /// The Base-128,128 point of Fig. 6: ULP sizing, no optimizations,
    /// 16-bit LFSRs emulating TRNG.
    pub fn ulp_base() -> Self {
        AccelConfig {
            name: "Base-128,128".into(),
            stream_pooled: 128,
            stream_other: 128,
            opts: Optimizations::baseline(),
            ..Self::ulp_geo(128, 128)
        }
    }

    /// GEO-GEN-128,128: generation optimizations only (Fig. 6 middle bar).
    pub fn ulp_gen() -> Self {
        AccelConfig {
            name: "GEO-GEN-128,128".into(),
            stream_pooled: 128,
            stream_other: 128,
            opts: Optimizations::generation_only(),
            ..Self::ulp_geo(128, 128)
        }
    }

    /// GEO-GEN-EXEC-32,64: all optimizations, reduced streams (Fig. 6
    /// right bar; iso-accuracy with Base-128,128 thanks to §II/§III).
    pub fn ulp_gen_exec() -> Self {
        AccelConfig {
            name: "GEO-GEN-EXEC-32,64".into(),
            ..Self::ulp_geo(32, 64)
        }
    }

    /// ACOUSTIC sized to the same memory/compute as GEO-ULP, running
    /// longer streams for iso-accuracy (Table II's ACOUSTIC-ULP-128).
    pub fn acoustic_ulp(stream: usize) -> Self {
        AccelConfig {
            name: format!("ACOUSTIC-ULP-{stream}"),
            stream_pooled: stream,
            stream_other: stream,
            opts: Optimizations {
                // ACOUSTIC shares generation but has none of GEO's
                // execution optimizations.
                shared_generation: true,
                progressive_shadow: false,
                partial_binary: false,
                near_memory: false,
                pipeline_dvfs: false,
                pooled_conversion_skip: false,
                lfsr_bits: 8,
            },
            ..Self::ulp_geo(stream, stream)
        }
    }

    /// The LP design point (294K MACs, 0.5 MB on-chip, HBM2 external).
    pub fn lp_geo(sp: usize, s: usize) -> Self {
        AccelConfig {
            name: format!("GEO-LP-{sp},{s}"),
            rows: 288,
            row_macs: 1024,
            positions_per_pass: 8,
            act_mem: Sram::new(320 * 1024, 256),
            wgt_mem: Sram::new(192 * 1024, 256),
            external: Some(Hbm2::default()),
            stream_pooled: sp,
            stream_other: s,
            opts: Optimizations::full(),
        }
    }

    /// ACOUSTIC at LP scale.
    pub fn acoustic_lp(stream: usize) -> Self {
        AccelConfig {
            name: format!("ACOUSTIC-LP-{stream}"),
            stream_pooled: stream,
            stream_other: stream,
            opts: Optimizations {
                shared_generation: true,
                progressive_shadow: false,
                partial_binary: false,
                near_memory: false,
                pipeline_dvfs: false,
                pooled_conversion_skip: false,
                lfsr_bits: 8,
            },
            ..Self::lp_geo(stream, stream)
        }
    }

    /// Total MAC count.
    pub fn macs(&self) -> usize {
        self.rows * self.row_macs
    }

    /// Operating point: nominal, or the DVFS point when pipelining is on.
    pub fn operating_point(&self) -> OperatingPoint {
        if self.opts.pipeline_dvfs {
            OperatingPoint::geo_dvfs()
        } else {
            OperatingPoint::nominal()
        }
    }

    /// Weight SNG count: weights are reused across the sliding positions
    /// within a row, so one weight SNG serves `positions_per_pass` MACs.
    pub fn weight_sngs(&self) -> usize {
        self.rows * self.row_macs / self.positions_per_pass
    }

    /// Activation SNG count: activations broadcast across all rows, so one
    /// activation SNG per MAC column.
    pub fn activation_sngs(&self) -> usize {
        self.row_macs
    }

    /// Physical LFSR instance count: one per weight column plus one per
    /// activation lane, shared across rows. Seed *sharing* (§II-A) is a
    /// seed-register policy, not extra hardware — what distinguishes the
    /// Base variant is its 16-bit LFSRs (double the flip-flops), whose
    /// narrowing under GEO balances the shadow-buffer area (Fig. 6's ≈−1%).
    pub fn lfsr_count(&self) -> usize {
        self.row_macs / self.positions_per_pass + self.activation_sngs()
    }

    /// Logic cost of one Fig. 6 category (memories excluded — see
    /// [`AccelConfig::area_breakdown`]).
    pub fn category_cost(&self, cat: Category) -> BlockCost {
        let zero = BlockCost::default();
        match cat {
            Category::ScMacArrays => {
                // Each row is one MAC unit over its row_macs inputs; PBW
                // grouping mirrors a (Cin, 5, 5) kernel arrangement.
                let w = 5usize.min(self.row_macs);
                let h = 5usize.min(self.row_macs / w).max(1);
                let cin = (self.row_macs / (w * h)).max(1);
                let dims = KernelDims::new(1, cin, h, w);
                let mode = if self.opts.partial_binary {
                    Accumulation::Pbw
                } else {
                    Accumulation::Or
                };
                let mut row = mac_area::sc_mac_unit(dims, mode);
                if self.opts.pipeline_dvfs {
                    row = row.plus(modules::pipeline_stage(2 * 8));
                }
                row.times(self.rows as f64)
            }
            Category::ActSng => modules::lfsr(self.opts.lfsr_bits)
                .times(self.activation_sngs() as f64)
                .plus(
                    modules::sng_comparator(self.opts.lfsr_bits.min(8))
                        .times(self.activation_sngs() as f64),
                ),
            Category::ActSngBuffers => modules::sng_buffer(self.opts.progressive_shadow)
                .times(self.activation_sngs() as f64),
            Category::WgtSng => modules::lfsr(self.opts.lfsr_bits)
                .times((self.row_macs / self.positions_per_pass) as f64)
                .plus(
                    modules::sng_comparator(self.opts.lfsr_bits.min(8))
                        .times(self.weight_sngs() as f64),
                ),
            Category::WgtSngBuffers => {
                modules::sng_buffer(self.opts.progressive_shadow).times(self.weight_sngs() as f64)
            }
            Category::OutputConv => {
                let converters = (self.rows * self.positions_per_pass) as f64;
                let counter_bits = if self.opts.partial_binary { 18 } else { 16 };
                let mut cost = modules::output_converter(counter_bits).times(converters);
                if self.opts.near_memory {
                    // Near-memory vector units sized to the act-mem port.
                    let units = (self.act_mem.width_bits / 8) as f64;
                    cost = cost.plus(modules::near_memory_mac().times(units));
                }
                cost
            }
            Category::ActMemory | Category::WgtMemory => zero,
        }
    }

    /// Full area breakdown in mm², Fig. 6 categories.
    pub fn area_breakdown(&self) -> Vec<(Category, f64)> {
        Category::ALL
            .iter()
            .map(|&cat| {
                let mm2 = match cat {
                    Category::ActMemory => um2_to_mm2(self.act_mem.area_um2()),
                    Category::WgtMemory => um2_to_mm2(self.wgt_mem.area_um2()),
                    _ => um2_to_mm2(self.category_cost(cat).area_um2),
                };
                (cat, mm2)
            })
            .collect()
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.area_breakdown().iter().map(|(_, a)| a).sum()
    }

    /// Peak throughput in GOPS at a given stream length: every MAC retires
    /// one 2-op multiply-accumulate per `stream_len` cycles.
    pub fn peak_gops_at(&self, stream_len: usize) -> f64 {
        let op = self.operating_point();
        self.macs() as f64 * op.freq_mhz * 1e6 * 2.0 / stream_len as f64 / 1e9
    }

    /// Peak throughput in GOPS: computation skipping makes the pooled
    /// stream length the peak-rate denominator for pooling-heavy networks
    /// (Table II); Table III's VGG-dominated LP numbers quote
    /// [`AccelConfig::peak_gops_at`] with the non-pooled length.
    pub fn peak_gops(&self) -> f64 {
        self.peak_gops_at(self.stream_pooled)
    }

    /// Total leakage power in milliwatts at the operating point.
    pub fn leakage_mw(&self) -> f64 {
        let logic: f64 = Category::ALL
            .iter()
            .map(|&c| self.category_cost(c).leak_nw)
            .sum();
        let mem = self.act_mem.leak_nw() + self.wgt_mem.leak_nw();
        (logic + mem) * self.operating_point().leakage_scale() * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_and_lp_mac_counts_match_paper() {
        assert_eq!(AccelConfig::ulp_geo(32, 64).macs(), 25_600);
        let lp = AccelConfig::lp_geo(64, 128).macs();
        assert!((294_000i64 - lp as i64).abs() < 1500, "LP macs {lp}");
    }

    #[test]
    fn memory_capacities_match_paper() {
        let ulp = AccelConfig::ulp_geo(32, 64);
        assert_eq!(ulp.act_mem.bytes + ulp.wgt_mem.bytes, 150 * 1024);
        let lp = AccelConfig::lp_geo(64, 128);
        assert_eq!(lp.act_mem.bytes + lp.wgt_mem.bytes, 512 * 1024);
        assert!(lp.external.is_some());
        assert!(ulp.external.is_none());
    }

    #[test]
    fn ulp_area_is_sub_mm2_lp_is_several() {
        let ulp = AccelConfig::ulp_geo(32, 64).total_area_mm2();
        assert!(ulp > 0.2 && ulp < 1.2, "ULP area {ulp} mm²");
        let lp = AccelConfig::lp_geo(64, 128).total_area_mm2();
        assert!(lp > 2.0 && lp < 15.0, "LP area {lp} mm²");
        assert!(lp > 5.0 * ulp);
    }

    #[test]
    fn generation_opts_barely_change_area() {
        // Fig. 6: GEN optimizations change area by ~1% — shadow-buffer
        // growth balanced by the narrower shared LFSRs.
        let base = AccelConfig::ulp_base().total_area_mm2();
        let gen = AccelConfig::ulp_gen().total_area_mm2();
        let ratio = gen / base;
        assert!((ratio - 1.0).abs() < 0.02, "gen/base {ratio}");
    }

    #[test]
    fn exec_opts_cost_little_area() {
        // Fig. 6: GEN-EXEC adds ~2% w.r.t. baseline.
        let base = AccelConfig::ulp_base().total_area_mm2();
        let full = AccelConfig::ulp_gen_exec().total_area_mm2();
        let ratio = full / base;
        assert!(ratio < 1.10, "full/base {ratio}");
        assert!(ratio > 0.85);
    }

    #[test]
    fn dvfs_only_with_pipeline() {
        assert_eq!(
            AccelConfig::ulp_base().operating_point().voltage,
            0.9,
            "baseline at nominal"
        );
        assert_eq!(AccelConfig::ulp_gen_exec().operating_point().voltage, 0.81);
    }

    #[test]
    fn narrower_lfsrs_balance_shadow_buffers() {
        let base = AccelConfig::ulp_base();
        let gen = AccelConfig::ulp_gen();
        assert_eq!(gen.lfsr_count(), base.lfsr_count(), "same physical LFSRs");
        // GEO's 8-bit LFSRs are about half the base's 16-bit ones…
        let base_sng = base.category_cost(Category::ActSng).area_um2;
        let gen_sng = gen.category_cost(Category::ActSng).area_um2;
        assert!(gen_sng < base_sng);
        // …while the shadow stages grow the buffers.
        let base_buf = base.category_cost(Category::ActSngBuffers).area_um2;
        let gen_buf = gen.category_cost(Category::ActSngBuffers).area_um2;
        assert!(gen_buf > base_buf);
    }

    #[test]
    fn peak_gops_matches_paper_formula() {
        // Table II: GEO-ULP-32,64 = 640 GOPS, -16,32 = 1280, ACOUSTIC-128 = 160.
        assert!((AccelConfig::ulp_geo(32, 64).peak_gops() - 640.0).abs() < 1.0);
        assert!((AccelConfig::ulp_geo(16, 32).peak_gops() - 1280.0).abs() < 1.0);
        assert!((AccelConfig::acoustic_ulp(128).peak_gops() - 160.0).abs() < 1.0);
        // Table III quotes LP peaks at the non-pooled (VGG-dominant)
        // stream length: GEO-LP-64,128 ≈ 1.8k GOPS, -32,64 ≈ 3.6k.
        let lp = AccelConfig::lp_geo(64, 128).peak_gops_at(128);
        assert!(lp > 1700.0 && lp < 2000.0, "LP gops {lp}");
        let lp2 = AccelConfig::lp_geo(32, 64).peak_gops_at(64);
        assert!(lp2 > 3400.0 && lp2 < 4000.0, "LP-32,64 gops {lp2}");
    }

    #[test]
    fn breakdown_covers_all_categories() {
        let b = AccelConfig::ulp_geo(32, 64).area_breakdown();
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|(_, a)| *a >= 0.0));
        // Memories are a major share (as in Fig. 6).
        let mem: f64 = b
            .iter()
            .filter(|(c, _)| matches!(c, Category::ActMemory | Category::WgtMemory))
            .map(|(_, a)| a)
            .sum();
        let total: f64 = b.iter().map(|(_, a)| a).sum();
        assert!(mem / total > 0.3, "memory share {}", mem / total);
    }

    #[test]
    fn leakage_is_milliwatt_scale() {
        let l = AccelConfig::ulp_geo(32, 64).leakage_mw();
        assert!(l > 0.01 && l < 20.0, "leakage {l} mW");
    }

    #[test]
    fn category_labels_match_fig6_legend() {
        assert_eq!(Category::ScMacArrays.label(), "SC MAC Arrays");
        assert_eq!(Category::WgtSngBuffers.label(), "Wgt. SNG Buffers");
    }

    #[test]
    fn category_index_matches_all_order() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.label());
        }
    }
}
