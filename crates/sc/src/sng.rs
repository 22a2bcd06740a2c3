//! Stochastic number generators: comparator of a target value against a
//! per-cycle random number.
//!
//! A stream of length `L` for target level `q` (out of `2^w`) has a one at
//! every cycle where `rng() < q`. With a maximal-length LFSR of width `w`
//! and `L = 2^w`, the ones count is exact to within one bit — the "almost
//! accurate generation" of paper §II-A.
//!
//! A [`StreamTable`] holds one generator's stream for every level. When the
//! generator is deterministic (an LFSR or Sobol sequence, with or without
//! stuck taps), every level compares the same sequence `r_0..r_{L-1}`
//! against a different target, so the whole table is a function of a
//! single draw: level `l` is level `l − 1` plus the cycles where
//! `r_t = l − 1`. The table is built from that one draw, the software form
//! of a parallel bitstream generator that compares one random sequence
//! against many targets at once. A TRNG's `reset` does not rewind, so each
//! of its levels keeps a fresh draw of its own.

use crate::bitstream::Bitstream;
use crate::encode::{quantize_unipolar, SplitStream, SplitValue};
use crate::rng::StreamRng;

/// Generates a stream of `len` cycles for quantized target `level`
/// (`0..=2^rng.width()`), consuming `len` values from `rng`.
///
/// The caller controls whether `rng` is reset beforehand; sharing one
/// running RNG across several calls models hardware RNG sharing.
///
/// # Examples
///
/// ```
/// use geo_sc::{generate_stream, Lfsr, StreamRng};
///
/// # fn main() -> Result<(), geo_sc::ScError> {
/// let mut lfsr = Lfsr::new(7, 1)?;
/// let s = generate_stream(64, 128, &mut lfsr);
/// // target 64 of 128 levels = 0.5, exact to 1 bit over a full period.
/// assert!((s.value() - 0.5).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
pub fn generate_stream(level: u32, len: usize, rng: &mut dyn StreamRng) -> Bitstream {
    Bitstream::from_fn(len, |_| rng.next_value() < level)
}

/// Generates a unipolar stream for `x ∈ [0, 1]`, quantized to the RNG width.
///
/// Resets deterministic RNGs first so the same `(x, rng)` pair always yields
/// the same stream — the repeatability GEO trains for.
pub fn generate_unipolar(x: f32, len: usize, rng: &mut dyn StreamRng) -> Bitstream {
    rng.reset();
    let level = quantize_unipolar(x, rng.width());
    generate_stream(level, len, rng)
}

/// Generates a split-unipolar stream pair for `w ∈ [-1, 1]`.
///
/// Both halves draw from the same RNG sequence (each half resets the RNG),
/// matching hardware where one LFSR feeds both comparators; since one half's
/// target is zero this costs nothing in correlation.
pub fn generate_split(w: f32, len: usize, rng: &mut dyn StreamRng) -> SplitStream {
    let sv = SplitValue::new(w);
    let pos = generate_unipolar(sv.pos, len, rng);
    let neg = generate_unipolar(sv.neg, len, rng);
    SplitStream::new(pos, neg)
}

/// A value-indexed stream lookup table for one RNG lane.
///
/// GEO shares each RNG across all kernels of a layer, so the stream for a
/// given quantized value on a given lane is fixed. Precomputing all
/// `2^w + 1` target levels turns stream generation during simulation into a
/// table lookup, which is what makes SC-in-the-loop training tractable.
#[derive(Debug, Clone)]
pub struct StreamTable {
    len: usize,
    width: u8,
    streams: Vec<Bitstream>,
}

// Tables are built once (serially, inside the engine's resolve phase) and
// then read concurrently by compute workers through `Arc<StreamTable>`;
// this compile-time pin keeps the type shareable-by-construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StreamTable>();
};

impl StreamTable {
    /// Precomputes streams of `len` cycles for every level `0..=2^w` of
    /// `rng`: level `l` holds the stream [`generate_stream`] draws for `l`
    /// right after `rng.reset()`.
    ///
    /// A deterministic `rng` ([`StreamRng::is_deterministic`]) is reset
    /// and drawn once, in O(len + levels·words); any other source is reset
    /// and drawn again for each level.
    pub fn new(len: usize, rng: &mut dyn StreamRng) -> Self {
        let width = rng.width();
        let levels = (1usize << width) + 1;
        let streams = if rng.is_deterministic() {
            levels_from_one_draw(len, levels, rng)
        } else {
            (0..levels as u32)
                .map(|level| {
                    rng.reset();
                    generate_stream(level, len, rng)
                })
                .collect()
        };
        StreamTable {
            len,
            width,
            streams,
        }
    }

    /// Stream length in cycles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether streams have zero cycles.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// RNG width the table was built for.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of table entries, `2^width + 1`.
    pub fn levels(&self) -> u32 {
        self.streams.len() as u32
    }

    /// Mutable access for fault injection (crate-internal so table
    /// invariants stay under this module's control).
    pub(crate) fn stream_mut(&mut self, level: u32) -> &mut Bitstream {
        &mut self.streams[level as usize]
    }

    /// The stream for quantized `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level > 2^width`.
    pub fn stream(&self, level: u32) -> &Bitstream {
        &self.streams[level as usize]
    }

    /// The packed 64-bit words of the stream for quantized `level` —
    /// the direct form hot accumulation loops consume, skipping the
    /// [`Bitstream`] wrapper.
    ///
    /// # Panics
    ///
    /// Panics if `level > 2^width`.
    #[inline]
    pub fn words(&self, level: u32) -> &[u64] {
        self.streams[level as usize].as_words()
    }

    /// The stream for a real value `x ∈ [0, 1]`.
    pub fn stream_for(&self, x: f32) -> &Bitstream {
        self.stream(quantize_unipolar(x, self.width))
    }
}

/// All `levels` streams of a deterministic `rng` from one reset and one
/// draw of `len` values. Each cycle is first marked in the level just
/// above its draw `r_t`, the lowest level whose target exceeds it (a draw
/// at or above the top target is marked nowhere); ORing every level into
/// the next then makes level `l` level `l − 1` plus the cycles where
/// `r_t = l − 1`, a word at a time.
fn levels_from_one_draw(len: usize, levels: usize, rng: &mut dyn StreamRng) -> Vec<Bitstream> {
    rng.reset();
    let mut table = vec![vec![0u64; len.div_ceil(64)]; levels];
    for t in 0..len {
        let first_on = rng.next_value() as usize + 1;
        if let Some(words) = table.get_mut(first_on) {
            words[t / 64] |= 1u64 << (t % 64);
        }
    }
    for level in 1..levels {
        let (below, rest) = table.split_at_mut(level);
        for (word, &under) in rest[0].iter_mut().zip(&below[level - 1]) {
            *word |= under;
        }
    }
    table
        .into_iter()
        .map(|words| Bitstream::from_words(words, len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckAtRng;
    use crate::lfsr::{Lfsr, MAX_WIDTH, MIN_WIDTH};
    use crate::progressive::first_exact_cycle;
    use crate::rng::{SobolRng, TrngRng};

    /// Asserts that `table` holds, at each of `levels`, the stream a reset
    /// of `rng` followed by a per-level draw generates.
    fn assert_per_level(table: &StreamTable, rng: &mut dyn StreamRng, levels: &[u32], what: &str) {
        assert_eq!(table.levels(), (1u32 << rng.width()) + 1, "{what}");
        for &level in levels {
            rng.reset();
            let direct = generate_stream(level, table.len(), rng);
            assert_eq!(table.stream(level), &direct, "{what} level {level}");
        }
    }

    #[test]
    fn one_draw_tables_equal_per_level_generation() {
        // Every deterministic source the engine builds: both LFSR
        // polynomials at several seeds, with and without stuck taps, and
        // the Sobol sequence; lengths off the powers of two, down to
        // fewer cycles than progressive loading takes.
        for width in MIN_WIDTH..=MAX_WIDTH {
            let top = 1u32 << width;
            // Every level up to width 10, a spread of them above.
            let levels: Vec<u32> = if width <= 10 {
                (0..=top).collect()
            } else {
                (0..=32)
                    .map(|i| i * (top / 32))
                    .chain([1, top - 1])
                    .collect()
            };
            let period = (1usize << width).min(1024);
            let short = first_exact_cycle(width) as usize - 1;
            for len in [short, 100, period, period + 37] {
                for poly in 0..2 {
                    for seed in [1u32, 977] {
                        for stuck in [0u32, 0b101 << (width - 3)] {
                            let lfsr = Lfsr::with_polynomial(width, poly, seed).unwrap();
                            let mut rng: Box<dyn StreamRng> = if stuck == 0 {
                                Box::new(lfsr)
                            } else {
                                Box::new(StuckAtRng::new(Box::new(lfsr), stuck))
                            };
                            let table = StreamTable::new(len, rng.as_mut());
                            let what = format!(
                                "w{width} len {len} poly {poly} seed {seed} stuck {stuck:#b}"
                            );
                            assert_per_level(&table, rng.as_mut(), &levels, &what);
                        }
                    }
                }
                let mut sobol = SobolRng::new(width, 5);
                let table = StreamTable::new(len, &mut sobol);
                assert_per_level(
                    &table,
                    &mut sobol,
                    &levels,
                    &format!("sobol w{width} len {len}"),
                );
            }
        }
    }

    #[test]
    fn trng_tables_keep_a_fresh_draw_per_level() {
        // A TRNG's reset does not rewind, so its table is one draw per
        // level: exactly what per-level generation from a fresh TRNG with
        // the same seed yields, and not a single shared draw.
        let table = StreamTable::new(100, &mut TrngRng::new(6, 21));
        let mut fresh = TrngRng::new(6, 21);
        for level in 0..=64u32 {
            fresh.reset();
            assert_eq!(
                table.stream(level),
                &generate_stream(level, 100, &mut fresh)
            );
        }
    }

    #[test]
    fn lfsr_generation_is_near_exact_over_full_period() {
        // Stream length 2^n with an n-bit LFSR: ones count within 1 of target.
        for width in [4u8, 6, 8] {
            let len = 1usize << width;
            let mut lfsr = Lfsr::new(width, 3).unwrap();
            for level in 0..=(1u32 << width) {
                lfsr.reset();
                let s = generate_stream(level, len, &mut lfsr);
                let err = i64::from(s.count_ones()) - i64::from(level);
                assert!(err.abs() <= 1, "width {width} level {level}: err {err}");
            }
        }
    }

    #[test]
    fn generation_is_repeatable_for_lfsr_not_for_trng() {
        let mut lfsr = Lfsr::new(8, 17).unwrap();
        let a = generate_unipolar(0.3, 256, &mut lfsr);
        let b = generate_unipolar(0.3, 256, &mut lfsr);
        assert_eq!(a, b);

        let mut trng = TrngRng::new(8, 17);
        let a = generate_unipolar(0.3, 256, &mut trng);
        let b = generate_unipolar(0.3, 256, &mut trng);
        assert_ne!(a, b);
    }

    #[test]
    fn sobol_generation_is_exact() {
        let mut ld = SobolRng::new(8, 0);
        for level in [0u32, 1, 77, 128, 255, 256] {
            ld.reset();
            let s = generate_stream(level, 256, &mut ld);
            assert_eq!(s.count_ones(), level, "LD sequences are exact per-stream");
        }
    }

    #[test]
    fn split_generation_routes_sign() {
        let mut lfsr = Lfsr::new(7, 5).unwrap();
        let s = generate_split(-0.5, 128, &mut lfsr);
        assert_eq!(s.pos.count_ones(), 0);
        assert!((s.value() + 0.5).abs() < 0.02);
        let s = generate_split(0.5, 128, &mut lfsr);
        assert_eq!(s.neg.count_ones(), 0);
    }

    #[test]
    fn stream_table_matches_direct_generation() {
        let mut lfsr = Lfsr::new(6, 9).unwrap();
        let table = StreamTable::new(64, &mut lfsr);
        for level in [0u32, 5, 32, 64] {
            lfsr.reset();
            let direct = generate_stream(level, 64, &mut lfsr);
            assert_eq!(table.stream(level), &direct);
        }
        assert_eq!(table.width(), 6);
        assert_eq!(table.len(), 64);
        assert!(!table.is_empty());
        assert_eq!(
            table.stream_for(0.5).count_ones(),
            table.stream(32).count_ones()
        );
    }

    #[test]
    fn monotone_levels_give_monotone_counts_for_lfsr() {
        let mut lfsr = Lfsr::new(8, 1).unwrap();
        let table = StreamTable::new(256, &mut lfsr);
        let mut prev = 0u32;
        for level in 0..=256u32 {
            let c = table.stream(level).count_ones();
            assert!(c >= prev, "level {level}");
            prev = c;
        }
    }
}
