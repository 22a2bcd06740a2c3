//! Progressive stream generation and shadow buffering (paper §II-B, §III-D).
//!
//! A normal SNG waits until all 8 operand bits are in its buffer before the
//! comparator starts. A *progressive* SNG starts as soon as the 2
//! most-significant bits arrive; the remaining bits stream in 2-bit groups
//! every two cycles, with unloaded low bits read as zero. Because GEO
//! matches LFSR width to stream length, short streams truncate operands
//! anyway, and progressive loading stops at the LFSR width — fewer memory
//! accesses for free.
//!
//! Shadow buffers extend this: while the current phase computes, the *next*
//! operands' first 2-bit group is preloaded, so the next generation phase
//! can start on the cycle after the current one ends.

use crate::bitstream::Bitstream;
use crate::rng::StreamRng;

/// Bits available at generation start (the 2 MSBs).
pub const INITIAL_BITS: u8 = 2;
/// Bits loaded per load group.
pub const BITS_PER_GROUP: u8 = 2;
/// Cycles between load groups.
pub const CYCLES_PER_GROUP: u32 = 2;
/// Full operand precision in memory.
pub const OPERAND_BITS: u8 = 8;

/// The progressive fill schedule: number of operand bits visible to the
/// comparator at `cycle`, for an SNG driven by a `width`-bit LFSR.
///
/// # Examples
///
/// ```
/// use geo_sc::progressive::bits_loaded_at;
///
/// assert_eq!(bits_loaded_at(0, 8), 2);
/// assert_eq!(bits_loaded_at(1, 8), 2);
/// assert_eq!(bits_loaded_at(2, 8), 4);
/// assert_eq!(bits_loaded_at(6, 8), 8);
/// assert_eq!(bits_loaded_at(6, 7), 7); // clamped to the LFSR width
/// ```
pub fn bits_loaded_at(cycle: u32, width: u8) -> u8 {
    let loaded = INITIAL_BITS as u32 + BITS_PER_GROUP as u32 * (cycle / CYCLES_PER_GROUP);
    loaded.min(width as u32) as u8
}

/// First cycle at which the comparator sees the fully loaded (width-bit)
/// value, i.e. generation becomes exact.
///
/// For an 8-bit LFSR this is cycle 6 — "accurate after eight cycles at
/// most" in the paper's counting.
pub fn first_exact_cycle(width: u8) -> u32 {
    let mut c = 0;
    while bits_loaded_at(c, width) < width {
        c += CYCLES_PER_GROUP;
    }
    c
}

/// Reload overhead in bit-groups that must land *before* generation can
/// start: the whole operand for a normal SNG, only the first group for a
/// progressive one — the 4× reload-latency reduction of §II-B.
pub fn reload_groups_before_start(progressive: bool) -> u32 {
    if progressive {
        1
    } else {
        (OPERAND_BITS / BITS_PER_GROUP) as u32
    }
}

/// Truncates an 8-bit operand to the top `width` bits (GEO matches LFSR
/// width to stream length, truncating the fixed-point value).
pub fn truncate_operand(value8: u8, width: u8) -> u32 {
    debug_assert!(width <= OPERAND_BITS);
    u32::from(value8) >> (OPERAND_BITS - width)
}

/// The comparator target at `cycle` under progressive loading: the
/// truncated operand with not-yet-loaded low bits forced to zero.
pub fn effective_level(value8: u8, width: u8, cycle: u32) -> u32 {
    let truncated = truncate_operand(value8, width);
    let loaded = bits_loaded_at(cycle, width);
    let mask = (((1u32 << loaded) - 1) << (width - loaded)) & ((1u32 << width) - 1);
    truncated & mask
}

/// A stochastic number generator with progressive operand loading.
///
/// # Examples
///
/// ```
/// use geo_sc::{progressive::ProgressiveSng, Lfsr, StreamRng};
///
/// # fn main() -> Result<(), geo_sc::ScError> {
/// let mut lfsr = Lfsr::new(7, 1)?;
/// let sng = ProgressiveSng::new(200);
/// let stream = sng.generate(128, &mut lfsr);
/// // Error confined to the first few cycles; the stream value is close.
/// assert!((stream.value() - 200.0 / 256.0).abs() < 0.08);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressiveSng {
    value8: u8,
}

impl ProgressiveSng {
    /// Creates a generator for one 8-bit operand.
    pub fn new(value8: u8) -> Self {
        ProgressiveSng { value8 }
    }

    /// The stored operand.
    pub fn value(&self) -> u8 {
        self.value8
    }

    /// Generates `len` cycles with the progressive fill schedule, resetting
    /// deterministic RNGs first.
    pub fn generate(&self, len: usize, rng: &mut dyn StreamRng) -> Bitstream {
        rng.reset();
        let width = rng.width();
        Bitstream::from_fn(len, |cycle| {
            rng.next_value() < effective_level(self.value8, width, cycle as u32)
        })
    }

    /// Generates with a *normal* (fully pre-loaded) SNG for comparison.
    pub fn generate_normal(&self, len: usize, rng: &mut dyn StreamRng) -> Bitstream {
        rng.reset();
        let level = truncate_operand(self.value8, rng.width());
        Bitstream::from_fn(len, |_| rng.next_value() < level)
    }
}

/// Behavioral model of a progressive SNG buffer with a shadow buffer.
///
/// The active buffer drives the comparator; the shadow buffer accepts the
/// next operand's bit groups during the current phase. `swap` promotes the
/// shadow contents, modeling the zero-gap phase transition of §III-D.
/// A shadow buffer sized for progressive generation holds only
/// [`INITIAL_BITS`] of the next operand — ¼ the area a full-width shadow
/// would need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowBuffer {
    active: u8,
    active_bits: u8,
    shadow: u8,
    shadow_bits: u8,
}

impl ShadowBuffer {
    /// An empty buffer pair.
    pub fn new() -> Self {
        ShadowBuffer {
            active: 0,
            active_bits: 0,
            shadow: 0,
            shadow_bits: 0,
        }
    }

    /// Loads one [`BITS_PER_GROUP`]-bit group (MSB-first) of `next_value`
    /// into the shadow buffer. Returns `false` once the shadow holds
    /// [`INITIAL_BITS`] (its capacity under progressive generation).
    pub fn preload_group(&mut self, next_value: u8) -> bool {
        if self.shadow_bits >= INITIAL_BITS {
            return false;
        }
        let have = self.shadow_bits;
        let take = BITS_PER_GROUP.min(INITIAL_BITS - have);
        let group = (next_value >> (OPERAND_BITS - have - take)) & ((1 << take) - 1);
        self.shadow |= group << (OPERAND_BITS - have - take);
        self.shadow_bits += take;
        true
    }

    /// Loads one group directly into the active buffer (the per-phase
    /// progressive fill).
    pub fn load_group(&mut self, value: u8) {
        if self.active_bits >= OPERAND_BITS {
            return;
        }
        let have = self.active_bits;
        let take = BITS_PER_GROUP.min(OPERAND_BITS - have);
        let group = (value >> (OPERAND_BITS - have - take)) & ((1 << take) - 1);
        self.active |= group << (OPERAND_BITS - have - take);
        self.active_bits += take;
    }

    /// Promotes the shadow contents to active, clearing the shadow. The next
    /// phase can start immediately because the active buffer already holds
    /// [`INITIAL_BITS`].
    pub fn swap(&mut self) {
        self.active = self.shadow;
        self.active_bits = self.shadow_bits;
        self.shadow = 0;
        self.shadow_bits = 0;
    }

    /// Bits currently visible in the active buffer.
    pub fn active_bits(&self) -> u8 {
        self.active_bits
    }

    /// The active buffer contents (unloaded bits zero).
    pub fn active_value(&self) -> u8 {
        self.active
    }

    /// Whether the next phase can start without waiting on memory.
    pub fn next_phase_ready(&self) -> bool {
        self.shadow_bits >= INITIAL_BITS
    }
}

impl Default for ShadowBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::Lfsr;

    #[test]
    fn schedule_matches_paper_description() {
        // 2 MSBs at start, +2 bits every 2 cycles.
        let expect = [
            (0, 2),
            (1, 2),
            (2, 4),
            (3, 4),
            (4, 6),
            (5, 6),
            (6, 8),
            (7, 8),
            (100, 8),
        ];
        for (cycle, bits) in expect {
            assert_eq!(bits_loaded_at(cycle, 8), bits, "cycle {cycle}");
        }
        assert_eq!(first_exact_cycle(8), 6);
        assert_eq!(first_exact_cycle(7), 6);
        assert_eq!(first_exact_cycle(5), 4);
        assert_eq!(first_exact_cycle(3), 2);
    }

    #[test]
    fn reload_overhead_is_reduced_4x() {
        assert_eq!(
            reload_groups_before_start(false) / reload_groups_before_start(true),
            4
        );
    }

    #[test]
    fn effective_level_converges_to_truncated_value() {
        let v = 0b1011_0110u8;
        assert_eq!(effective_level(v, 8, 0), 0b1000_0000);
        assert_eq!(effective_level(v, 8, 2), 0b1011_0000);
        assert_eq!(effective_level(v, 8, 4), 0b1011_0100);
        assert_eq!(effective_level(v, 8, 6), u32::from(v));
        // 7-bit LFSR: truncation first, then progressive masking.
        assert_eq!(effective_level(v, 7, 6), u32::from(v) >> 1);
    }

    #[test]
    fn effective_level_never_exceeds_final() {
        for v in [0u8, 13, 77, 128, 255] {
            for width in [4u8, 7, 8] {
                let final_level = truncate_operand(v, width);
                let mut prev = 0;
                for cycle in 0..12 {
                    let l = effective_level(v, width, cycle);
                    assert!(l <= final_level);
                    assert!(l >= prev, "levels only grow as bits load");
                    prev = l;
                }
                assert_eq!(prev, final_level);
            }
        }
    }

    #[test]
    fn progressive_matches_normal_after_first_exact_cycle() {
        let mut lfsr = Lfsr::new(7, 11).unwrap();
        let sng = ProgressiveSng::new(173);
        let prog = sng.generate(128, &mut lfsr);
        let norm = sng.generate_normal(128, &mut lfsr);
        let exact_from = first_exact_cycle(7) as usize;
        for c in exact_from..128 {
            assert_eq!(prog.get(c), norm.get(c), "cycle {c}");
        }
        // And differs in at most `exact_from` early cycles.
        let diffs = (0..128).filter(|&c| prog.get(c) != norm.get(c)).count();
        assert!(diffs <= exact_from);
    }

    #[test]
    fn shadow_buffer_preloads_two_bits_and_swaps() {
        let mut buf = ShadowBuffer::new();
        assert!(!buf.next_phase_ready());
        assert!(buf.preload_group(0b1100_0000));
        assert!(buf.next_phase_ready());
        assert!(!buf.preload_group(0b1100_0000), "shadow capacity is 2 bits");
        buf.swap();
        assert_eq!(buf.active_bits(), INITIAL_BITS);
        assert_eq!(buf.active_value(), 0b1100_0000);
        assert!(!buf.next_phase_ready());
    }

    #[test]
    fn active_buffer_fills_progressively() {
        let v = 0b1011_0110;
        let mut buf = ShadowBuffer::new();
        for expected_bits in [2u8, 4, 6, 8] {
            buf.load_group(v);
            assert_eq!(buf.active_bits(), expected_bits);
            let mask = !((1u16 << (8 - expected_bits)) - 1) as u8;
            assert_eq!(buf.active_value(), v & mask);
        }
        buf.load_group(v); // saturates
        assert_eq!(buf.active_bits(), 8);
        assert_eq!(buf.active_value(), v);
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(ShadowBuffer::default(), ShadowBuffer::new());
    }
}
