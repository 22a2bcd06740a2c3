//! Maximal-length linear feedback shift registers.
//!
//! GEO's stream generators are deterministic: an `n`-bit maximal-length LFSR
//! drives the comparator of every stochastic number generator, so the same
//! input value always produces the same bitstream. That determinism is what
//! lets training absorb the generation bias (paper §II-A). Streams of length
//! `2^n` use an `n`-bit LFSR whose cycle visits all `2^n - 1` nonzero states.
//!
//! Decorrelated generators are obtained by varying the **seed** or the
//! **characteristic polynomial**; [`Lfsr::with_polynomial`] exposes both axes.

use crate::error::ScError;
use crate::rng::StreamRng;

/// Supported LFSR widths (stream lengths 8..=65536).
pub const MIN_WIDTH: u8 = 3;
/// Maximum supported LFSR width.
pub const MAX_WIDTH: u8 = 16;

/// Fibonacci tap positions (1-indexed from the output bit, XAPP052-style) of
/// one primitive polynomial per width. The reciprocal polynomial of each is
/// also primitive and serves as the built-in alternate.
const CANONICAL_TAPS: [&[u8]; 14] = [
    &[3, 2],          // width 3
    &[4, 3],          // 4
    &[5, 3],          // 5
    &[6, 5],          // 6
    &[7, 6],          // 7
    &[8, 6, 5, 4],    // 8
    &[9, 5],          // 9
    &[10, 7],         // 10
    &[11, 9],         // 11
    &[12, 6, 4, 1],   // 12
    &[13, 4, 3, 1],   // 13
    &[14, 5, 3, 1],   // 14
    &[15, 14],        // 15
    &[16, 15, 13, 4], // 16
];

fn taps_to_mask(width: u8, taps: &[u8]) -> u32 {
    let mut mask = 0u32;
    for &t in taps {
        debug_assert!(t >= 1 && t <= width);
        mask |= 1 << (t - 1);
    }
    mask
}

/// The reciprocal polynomial of a primitive polynomial is primitive: tap `k`
/// maps to `n - k` (with the degree-`n` term fixed).
fn reciprocal_mask(width: u8, taps: &[u8]) -> u32 {
    let mut out = vec![width];
    for &t in taps {
        if t != width {
            out.push(width - t);
        }
    }
    taps_to_mask(width, &out)
}

/// Number of built-in primitive polynomials for `width`.
///
/// Currently two per width: the canonical polynomial and its reciprocal.
/// Combined with `2^n - 1` distinct seeds this gives `2 * (2^n - 1)` unique
/// generators per width — the "availability of unique RNG seeds" limit that
/// bounds moderate sharing (paper §II-A).
pub fn polynomial_count(width: u8) -> usize {
    if (MIN_WIDTH..=MAX_WIDTH).contains(&width) {
        2
    } else {
        0
    }
}

/// A maximal-length Fibonacci LFSR used as the RNG of a stochastic number
/// generator.
///
/// The full register state is exposed as the per-cycle random number, the
/// common arrangement when the LFSR feeds an SNG comparator.
///
/// # Examples
///
/// ```
/// use geo_sc::{Lfsr, StreamRng};
///
/// # fn main() -> Result<(), geo_sc::ScError> {
/// let mut lfsr = Lfsr::new(7, 1)?;
/// assert_eq!(lfsr.period(), 127);
/// let first = lfsr.next_value();
/// for _ in 0..126 {
///     lfsr.next_value();
/// }
/// // Maximal length: the sequence repeats after exactly 2^7 - 1 steps.
/// assert_eq!(lfsr.next_value(), first);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    width: u8,
    tap_mask: u32,
    seed_state: u32,
    state: u32,
}

impl Lfsr {
    /// Creates an LFSR with the canonical primitive polynomial for `width`.
    ///
    /// Any `seed` is accepted and folded onto the nonzero state space, so
    /// callers can hand out consecutive integers as seeds.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidWidth`] if `width` is outside `3..=16`.
    pub fn new(width: u8, seed: u32) -> Result<Self, ScError> {
        Self::with_polynomial(width, 0, seed)
    }

    /// Creates an LFSR with the `poly_index`-th primitive polynomial.
    ///
    /// Index 0 is the canonical polynomial, index 1 its reciprocal.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidWidth`] for unsupported widths and
    /// [`ScError::InvalidPolynomial`] for out-of-range polynomial indices.
    pub fn with_polynomial(width: u8, poly_index: usize, seed: u32) -> Result<Self, ScError> {
        if !(MIN_WIDTH..=MAX_WIDTH).contains(&width) {
            return Err(ScError::InvalidWidth { width });
        }
        let taps = CANONICAL_TAPS[(width - MIN_WIDTH) as usize];
        let tap_mask = match poly_index {
            0 => taps_to_mask(width, taps),
            1 => reciprocal_mask(width, taps),
            _ => {
                return Err(ScError::InvalidPolynomial {
                    width,
                    index: poly_index,
                })
            }
        };
        let period = (1u32 << width) - 1;
        let seed_state = seed % period + 1; // fold onto 1..=2^n-1
        Ok(Lfsr {
            width,
            tap_mask,
            seed_state,
            state: seed_state,
        })
    }

    /// The cycle length, `2^width - 1`.
    pub fn period(&self) -> u32 {
        (1u32 << self.width) - 1
    }

    /// The nonzero state the generator (re)starts from.
    pub fn seed_state(&self) -> u32 {
        self.seed_state
    }

    /// The feedback tap mask (bit `k` set means tap at position `k + 1`).
    pub fn tap_mask(&self) -> u32 {
        self.tap_mask
    }

    #[inline]
    fn step(&mut self) {
        let fb = (self.state & self.tap_mask).count_ones() & 1;
        self.state = ((self.state << 1) | fb) & ((1u32 << self.width) - 1);
    }
}

impl StreamRng for Lfsr {
    fn width(&self) -> u8 {
        self.width
    }

    fn next_value(&mut self) -> u32 {
        let out = self.state;
        self.step();
        out
    }

    fn reset(&mut self) {
        self.state = self.seed_state;
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_width_and_polynomial_is_maximal_length() {
        for width in MIN_WIDTH..=MAX_WIDTH {
            for poly in 0..polynomial_count(width) {
                let mut lfsr = Lfsr::with_polynomial(width, poly, 1).unwrap();
                let period = lfsr.period() as usize;
                let mut seen = HashSet::with_capacity(period);
                for _ in 0..period {
                    assert!(
                        seen.insert(lfsr.next_value()),
                        "state repeated early for width {width} poly {poly}"
                    );
                }
                // All nonzero states visited exactly once.
                assert_eq!(seen.len(), period);
                assert!(!seen.contains(&0));
            }
        }
    }

    #[test]
    fn reset_restores_the_seed_sequence() {
        let mut lfsr = Lfsr::new(8, 42).unwrap();
        let first: Vec<u32> = (0..20).map(|_| lfsr.next_value()).collect();
        lfsr.reset();
        let second: Vec<u32> = (0..20).map(|_| lfsr.next_value()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn seeds_fold_onto_nonzero_states() {
        for seed in [0u32, 1, 254, 255, 256, u32::MAX] {
            let lfsr = Lfsr::new(8, seed).unwrap();
            assert!(lfsr.seed_state() >= 1 && lfsr.seed_state() <= 255);
        }
        // Distinct small seeds give distinct start states.
        let states: HashSet<u32> = (0..255)
            .map(|s| Lfsr::new(8, s).unwrap().seed_state())
            .collect();
        assert_eq!(states.len(), 255);
    }

    #[test]
    fn different_polynomials_differ() {
        let mut a = Lfsr::with_polynomial(8, 0, 1).unwrap();
        let mut b = Lfsr::with_polynomial(8, 1, 1).unwrap();
        let sa: Vec<u32> = (0..32).map(|_| a.next_value()).collect();
        let sb: Vec<u32> = (0..32).map(|_| b.next_value()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn invalid_widths_and_polynomials_are_rejected() {
        assert_eq!(
            Lfsr::new(2, 1).unwrap_err(),
            ScError::InvalidWidth { width: 2 }
        );
        assert_eq!(
            Lfsr::new(17, 1).unwrap_err(),
            ScError::InvalidWidth { width: 17 }
        );
        assert_eq!(
            Lfsr::with_polynomial(8, 2, 1).unwrap_err(),
            ScError::InvalidPolynomial { width: 8, index: 2 }
        );
    }

    #[test]
    fn deterministic_flag_is_set() {
        assert!(Lfsr::new(8, 1).unwrap().is_deterministic());
    }
}
