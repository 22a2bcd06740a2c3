//! The performance/energy simulator: executes a compiled [`Program`] on an
//! [`AccelConfig`], modeling ping-pong memory overlap, progressive shadow
//! buffering, near-memory operations, DVFS, and per-category energy — the
//! paper's "custom performance simulator" (§IV).

use crate::accel::{AccelConfig, Category};
use crate::isa::{Instr, Program};
use crate::progressive_timing;

/// Result of simulating one inference.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Configuration name.
    pub config: String,
    /// Network name.
    pub network: String,
    /// Total cycles per frame.
    pub cycles: u64,
    /// Latency per frame in seconds.
    pub seconds: f64,
    /// Energy per frame in joules (dynamic + leakage + external).
    pub energy_j: f64,
    /// Dynamic energy per category, in picojoules.
    pub breakdown_pj: Vec<(Category, f64)>,
    /// Leakage energy in picojoules.
    pub leakage_pj: f64,
    /// External-memory energy in picojoules (LP variants).
    pub external_pj: f64,
    /// Frames per second.
    pub fps: f64,
    /// Frames per joule.
    pub frames_per_joule: f64,
    /// Average power in milliwatts.
    pub power_mw: f64,
    /// Total accelerator area in mm².
    pub area_mm2: f64,
}

impl SimReport {
    /// Energy per frame excluding external memory (the paper's "when those
    /// are omitted" comparison in §IV-C).
    pub fn energy_j_no_external(&self) -> f64 {
        self.energy_j - self.external_pj * 1e-12
    }
}

/// Simulates one inference of `program` on `accel`.
pub fn simulate(accel: &AccelConfig, program: &Program) -> SimReport {
    let op = accel.operating_point();
    let dyn_scale = op.dynamic_scale();
    let shadow = accel.opts.progressive_shadow;

    let mut cycles: u64 = 0;
    let mut pending_load: u64 = 0; // overlappable with the next GEN
    let mut ext_cycles: u64 = 0; // external transfers overlap via ping-pong

    let mut dyn_pj = vec![0.0f64; Category::ALL.len()];
    let mut external_pj = 0.0f64;

    let cat_idx = |c: Category| c.index();
    // Per-cycle dynamic energy (fJ) of each logic category while active.
    let cat_dyn: Vec<f64> = Category::ALL
        .iter()
        .map(|&c| accel.category_cost(c).dyn_fj_per_cycle)
        .collect();

    // Near-memory vector width: one fixed-point unit per port byte (the
    // "array of fixed-point MAC units, tightly coupled with activation
    // memory" of §III-C).
    let nm_lanes = (accel.act_mem.width_bits / 8).max(1) as u64;

    for instr in &program.instrs {
        match *instr {
            Instr::LoadWeightsExternal { bytes } => {
                if let Some(hbm) = &accel.external {
                    ext_cycles += hbm.transfer_cycles(bytes, op.freq_mhz);
                    external_pj += hbm.energy_pj(bytes);
                }
            }
            Instr::LoadWeights { bytes } => {
                // Weight memory is banked per MAC row (Fig. 4a: "Weight
                // Memory 0..N"), so rows fill their SNG buffers in
                // parallel; latency divides by the row count, energy does
                // not.
                let accesses = accel.wgt_mem.accesses_for(bytes as usize);
                let lc = accesses.div_ceil(accel.rows as u64);
                if shadow {
                    pending_load += lc;
                } else {
                    cycles += lc;
                }
                dyn_pj[cat_idx(Category::WgtMemory)] +=
                    accesses as f64 * accel.wgt_mem.access_pj() * dyn_scale;
            }
            Instr::LoadActivations { bytes } => {
                let lc = accel.act_mem.accesses_for(bytes as usize);
                if shadow {
                    pending_load += lc;
                } else {
                    cycles += lc;
                }
                dyn_pj[cat_idx(Category::ActMemory)] +=
                    lc as f64 * accel.act_mem.access_pj() * dyn_scale;
            }
            Instr::Generate {
                cycles: c,
                active_macs,
                ..
            } => {
                // Queued work (shadow-buffered loads, time-multiplexed
                // near-memory ops) hides behind compute; only the operand
                // start latency remains exposed. Without shadow buffering,
                // loads were already paid serially above.
                let start = progressive_timing::start_latency(shadow) as u64;
                cycles += c.max(pending_load) + start;
                pending_load = 0;
                let util = active_macs as f64 / accel.macs().max(1) as f64;
                // §III-A computation skipping: pooled layers (identified
                // by their shorter `sp` stream — the compiler emits
                // `2·sp` Generate cycles only for them) convert once per
                // 2×2 pooling window, quartering converter activity.
                let pooled = accel.opts.pooled_conversion_skip
                    && accel.stream_pooled != accel.stream_other
                    && c == 2 * accel.stream_pooled as u64;
                for &cat in &[
                    Category::ScMacArrays,
                    Category::ActSng,
                    Category::ActSngBuffers,
                    Category::WgtSng,
                    Category::WgtSngBuffers,
                    Category::OutputConv,
                ] {
                    // MAC arrays and converters scale with utilization;
                    // generation machinery runs regardless.
                    let scale = match cat {
                        Category::OutputConv if pooled => util * 0.25,
                        Category::ScMacArrays | Category::OutputConv => util,
                        _ => 1.0,
                    };
                    dyn_pj[cat_idx(cat)] +=
                        cat_dyn[cat_idx(cat)] * 1e-3 * c as f64 * scale * dyn_scale;
                }
            }
            Instr::NearMemAccumulate { elements, .. }
            | Instr::NearMemBatchNorm { elements, .. } => {
                // 2-cycle read-add-write vector instruction (§III-C). The
                // near-memory units are time multiplexed with compute, so
                // their cycles hide behind subsequent generation passes.
                let c = 2 * elements.div_ceil(nm_lanes);
                pending_load += c;
                let accesses = 2 * elements.div_ceil(nm_lanes);
                dyn_pj[cat_idx(Category::ActMemory)] +=
                    accesses as f64 * accel.act_mem.access_pj() * dyn_scale;
                dyn_pj[cat_idx(Category::OutputConv)] +=
                    c as f64 * cat_dyn[cat_idx(Category::OutputConv)] * 1e-3 * 0.2 * dyn_scale;
            }
            Instr::WriteActivations { bytes } => {
                // Ping-pong activation banks let writebacks overlap the
                // next layer's loads and compute; they still cost energy.
                let lc = accel.act_mem.accesses_for(bytes as usize);
                pending_load += lc;
                dyn_pj[cat_idx(Category::ActMemory)] +=
                    lc as f64 * accel.act_mem.access_pj() * dyn_scale;
            }
            Instr::Sync => {
                // Layer boundary marker; outstanding memory work carries
                // into the next layer thanks to the ping-pong banks and is
                // drained against its compute.
            }
        }
    }
    cycles += pending_load;
    // External transfers overlap with compute via weight ping-pong banks;
    // they bound latency only when compute is faster.
    cycles = cycles.max(ext_cycles);

    let seconds = cycles as f64 * op.period_ns() * 1e-9;
    let leak_mw = accel.leakage_mw();
    let leakage_pj = leak_mw * 1e9 * seconds; // mW × s = mJ → pJ ×1e9
    let dyn_total_pj: f64 = dyn_pj.iter().sum();
    let energy_j = (dyn_total_pj + leakage_pj + external_pj) * 1e-12;
    let fps = 1.0 / seconds;
    SimReport {
        config: accel.name.clone(),
        network: program.name.clone(),
        cycles,
        seconds,
        energy_j,
        breakdown_pj: Category::ALL.iter().copied().zip(dyn_pj).collect(),
        leakage_pj,
        external_pj,
        fps,
        frames_per_joule: 1.0 / energy_j,
        power_mw: energy_j / seconds * 1e3,
        area_mm2: accel.total_area_mm2(),
    }
}

/// Convenience: compile and simulate a network on an accelerator.
pub fn run(accel: &AccelConfig, net: &crate::network::NetworkDesc) -> SimReport {
    let program = crate::compiler::compile(net, accel);
    simulate(accel, &program)
}

/// Bytes a compiled program moves for one layer, split by memory path.
///
/// The weight, activation-load, and writeback paths all go through the
/// double-buffered (ping-pong) on-chip banks that let transfers overlap
/// compute (Fig. 4); [`LayerTraffic::pingpong_bytes`] is their sum.
/// External (HBM2) transfers are kept separate — they feed the ping-pong
/// weight banks but are billed to the external interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Bytes loaded from external memory (LP variants; 0 on-chip).
    pub external_bytes: u64,
    /// Bytes loaded from weight memory into the weight SNG buffers.
    pub weight_bytes: u64,
    /// Bytes loaded from activation memory into the activation SNG
    /// buffers.
    pub activation_load_bytes: u64,
    /// Bytes written back to the activation banks.
    pub writeback_bytes: u64,
    /// Elements touched by near-memory accumulate/batch-norm ops.
    pub near_mem_elements: u64,
}

impl LayerTraffic {
    /// Total bytes moved through the ping-pong (double-buffered) on-chip
    /// banks: weight loads + activation loads + writebacks.
    #[must_use]
    pub fn pingpong_bytes(&self) -> u64 {
        self.weight_bytes + self.activation_load_bytes + self.writeback_bytes
    }
}

/// Per-layer memory traffic of a compiled program, in layer order.
///
/// The byte counts are static properties of the program, not runtime
/// counters. The program executor in `geo-core` merges these into its
/// telemetry report as `pingpong_bytes`.
#[must_use]
pub fn memory_traffic(program: &Program) -> Vec<LayerTraffic> {
    (0..program.layer_count())
        .map(|li| {
            let mut t = LayerTraffic::default();
            for instr in program.layer_instrs(li).unwrap_or(&[]) {
                match *instr {
                    Instr::LoadWeightsExternal { bytes } => t.external_bytes += bytes,
                    Instr::LoadWeights { bytes } => t.weight_bytes += bytes,
                    Instr::LoadActivations { bytes } => t.activation_load_bytes += bytes,
                    Instr::WriteActivations { bytes } => t.writeback_bytes += bytes,
                    Instr::NearMemAccumulate { elements, .. }
                    | Instr::NearMemBatchNorm { elements, .. } => t.near_mem_elements += elements,
                    Instr::Generate { .. } | Instr::Sync => {}
                }
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkDesc;

    #[test]
    fn cnn4_on_ulp_runs_in_plausible_time() {
        let r = run(&AccelConfig::ulp_geo(32, 64), &NetworkDesc::cnn4_cifar());
        assert!(
            r.cycles > 1_000 && r.cycles < 10_000_000,
            "cycles {}",
            r.cycles
        );
        assert!(r.fps > 1_000.0, "fps {}", r.fps);
        assert!(r.energy_j > 0.0 && r.energy_j < 1e-3);
        assert!(
            r.power_mw > 1.0 && r.power_mw < 2_000.0,
            "power {}",
            r.power_mw
        );
    }

    #[test]
    fn shadow_buffering_speeds_up_inference() {
        // Fig. 6: progressive shadow buffers hide memory latency (≈1.7×
        // with the rest of the GEN bundle).
        let net = NetworkDesc::cnn4_cifar();
        let base = run(&AccelConfig::ulp_base(), &net);
        let gen = run(&AccelConfig::ulp_gen(), &net);
        let speedup = base.seconds / gen.seconds;
        assert!(speedup > 1.1, "GEN speedup {speedup}");
        assert!(speedup < 4.0, "GEN speedup {speedup} stays plausible");
    }

    #[test]
    fn gen_exec_is_much_faster_and_lower_energy_than_base() {
        // Fig. 6: GEO-GEN-EXEC-32,64 ≈ 4.3× faster, 5.2× lower energy.
        let net = NetworkDesc::cnn4_cifar();
        let base = run(&AccelConfig::ulp_base(), &net);
        let full = run(&AccelConfig::ulp_gen_exec(), &net);
        let speedup = base.seconds / full.seconds;
        let energy_ratio = base.energy_j / full.energy_j;
        assert!(speedup > 2.5, "GEN-EXEC speedup {speedup}");
        assert!(energy_ratio > 2.5, "GEN-EXEC energy gain {energy_ratio}");
    }

    #[test]
    fn geo_beats_acoustic_at_iso_accuracy_streams() {
        // Table II: GEO-ULP-32,64 vs ACOUSTIC-ULP-128 ≈ 4.4× faster,
        // 5.3× more energy efficient.
        let net = NetworkDesc::cnn4_cifar();
        let geo = run(&AccelConfig::ulp_geo(32, 64), &net);
        let aco = run(&AccelConfig::acoustic_ulp(128), &net);
        let speedup = aco.seconds / geo.seconds;
        let energy = aco.energy_j / geo.energy_j;
        assert!(speedup > 2.0, "GEO vs ACOUSTIC speedup {speedup}");
        assert!(energy > 2.0, "GEO vs ACOUSTIC energy {energy}");
    }

    #[test]
    fn shorter_streams_scale_throughput() {
        let net = NetworkDesc::cnn4_cifar();
        let s64 = run(&AccelConfig::ulp_geo(32, 64), &net);
        let s32 = run(&AccelConfig::ulp_geo(16, 32), &net);
        let ratio = s32.fps / s64.fps;
        assert!(ratio > 1.4 && ratio < 2.5, "stream halving ratio {ratio}");
    }

    #[test]
    fn lp_vgg_includes_external_energy() {
        let r = run(
            &AccelConfig::lp_geo(64, 128),
            &NetworkDesc::vgg16_scaled_cifar(),
        );
        assert!(r.external_pj > 0.0);
        assert!(r.energy_j_no_external() < r.energy_j);
        assert!(r.fps > 10.0, "VGG fps {}", r.fps);
    }

    #[test]
    fn breakdown_sums_to_dynamic_total() {
        let r = run(&AccelConfig::ulp_geo(32, 64), &NetworkDesc::cnn4_cifar());
        let sum: f64 = r.breakdown_pj.iter().map(|(_, e)| e).sum();
        let reconstructed = (sum + r.leakage_pj + r.external_pj) * 1e-12;
        assert!((reconstructed - r.energy_j).abs() / r.energy_j < 1e-9);
        assert_eq!(r.breakdown_pj.len(), 8);
    }

    #[test]
    fn memory_traffic_matches_program_totals() {
        let net = NetworkDesc::cnn4_cifar();
        let accel = AccelConfig::ulp_geo(32, 64);
        let program = crate::compiler::compile(&net, &accel);
        let per_layer = memory_traffic(&program);
        assert_eq!(per_layer.len(), program.layer_count());
        let (ext, wgt, act, wb) = program.traffic();
        assert_eq!(per_layer.iter().map(|t| t.external_bytes).sum::<u64>(), ext);
        assert_eq!(per_layer.iter().map(|t| t.weight_bytes).sum::<u64>(), wgt);
        assert_eq!(
            per_layer
                .iter()
                .map(|t| t.activation_load_bytes)
                .sum::<u64>(),
            act
        );
        assert_eq!(per_layer.iter().map(|t| t.writeback_bytes).sum::<u64>(), wb);
        assert!(per_layer.iter().any(|t| t.pingpong_bytes() > 0));
        assert!(per_layer.iter().any(|t| t.near_mem_elements > 0));
    }

    #[test]
    fn vgg_pricing_consistent_with_static_traffic_at_both_design_points() {
        // The compiled paper-scale VGG-16 program, priced on the on-chip
        // ULP and the external-memory LP design points: the simulator's
        // energy split must track the static per-layer traffic accounting
        // (external energy iff the program moves external bytes), and the
        // static per-layer totals must reconcile with the program's own
        // aggregate counters.
        let net = NetworkDesc::vgg16_scaled_cifar();
        for accel in [AccelConfig::ulp_geo(32, 64), AccelConfig::lp_geo(64, 128)] {
            let program = crate::compiler::compile(&net, &accel);
            let per_layer = memory_traffic(&program);
            assert_eq!(per_layer.len(), program.layer_count(), "{}", accel.name);
            let (ext, wgt, act, wb) = program.traffic();
            assert_eq!(per_layer.iter().map(|t| t.external_bytes).sum::<u64>(), ext);
            assert_eq!(per_layer.iter().map(|t| t.weight_bytes).sum::<u64>(), wgt);
            assert_eq!(
                per_layer
                    .iter()
                    .map(|t| t.activation_load_bytes)
                    .sum::<u64>(),
                act
            );
            assert_eq!(per_layer.iter().map(|t| t.writeback_bytes).sum::<u64>(), wb);
            let r = simulate(&accel, &program);
            assert_eq!(
                ext > 0,
                r.external_pj > 0.0,
                "{}: external energy must track external traffic",
                accel.name
            );
            assert_eq!(
                accel.external.is_some(),
                ext > 0,
                "{}: only LP design points move external bytes",
                accel.name
            );
            assert!(r.fps > 10.0, "{}: VGG fps {}", accel.name, r.fps);
            assert!(r.energy_j > 0.0 && r.energy_j < 1e-2);
        }
        // Depth sanity: 13 convs move strictly more on-chip bytes than
        // the 4-conv CIFAR network on the same design point.
        let ulp = AccelConfig::ulp_geo(32, 64);
        let pingpong = |net: &NetworkDesc| -> u64 {
            memory_traffic(&crate::compiler::compile(net, &ulp))
                .iter()
                .map(LayerTraffic::pingpong_bytes)
                .sum()
        };
        let (vgg, cnn4) = (pingpong(&net), pingpong(&NetworkDesc::cnn4_cifar()));
        assert!(vgg > cnn4, "vgg {vgg} bytes vs cnn4 {cnn4} bytes");
    }

    #[test]
    fn dvfs_lowers_energy_not_speed() {
        let net = NetworkDesc::cnn4_cifar();
        let mut no_dvfs = AccelConfig::ulp_geo(32, 64);
        no_dvfs.opts.pipeline_dvfs = false;
        no_dvfs.name = "GEO-no-dvfs".into();
        let with = run(&AccelConfig::ulp_geo(32, 64), &net);
        let without = run(&no_dvfs, &net);
        assert!(with.energy_j < without.energy_j);
        // Same frequency → comparable cycle counts.
        assert!((with.cycles as f64 / without.cycles as f64 - 1.0).abs() < 0.05);
    }

    #[test]
    fn pooled_conversion_skip_lowers_only_converter_energy() {
        // §III-A: skipping conversion on pooled layers quarters the
        // output converters' activity there and touches nothing else —
        // cycles and every other category are identical with the flag
        // off.
        let net = NetworkDesc::cnn4_cifar();
        let mut no_skip = AccelConfig::ulp_geo(32, 64);
        no_skip.opts.pooled_conversion_skip = false;
        no_skip.name = "GEO-no-skip".into();
        let with = run(&AccelConfig::ulp_geo(32, 64), &net);
        let without = run(&no_skip, &net);
        assert_eq!(with.cycles, without.cycles);
        for ((cat, w), (_, wo)) in with.breakdown_pj.iter().zip(&without.breakdown_pj) {
            match cat {
                Category::OutputConv => {
                    assert!(*w < *wo, "converter energy did not drop: {w} vs {wo}")
                }
                _ => assert_eq!(w, wo, "{} changed", cat.label()),
            }
        }
        assert!(with.energy_j < without.energy_j);
    }

    #[test]
    fn equal_streams_defeat_pooled_detection() {
        // With `sp == s` the compiler emits indistinguishable Generate
        // cycles for pooled and unpooled layers, so the simulator cannot
        // (and must not) discount any of them.
        let net = NetworkDesc::cnn4_cifar();
        let mut no_skip = AccelConfig::ulp_geo(64, 64);
        no_skip.opts.pooled_conversion_skip = false;
        no_skip.name = "GEO-equal-no-skip".into();
        let with = run(&AccelConfig::ulp_geo(64, 64), &net);
        let without = run(&no_skip, &net);
        assert_eq!(with.cycles, without.cycles);
        assert_eq!(with.breakdown_pj, without.breakdown_pj);
    }
}
