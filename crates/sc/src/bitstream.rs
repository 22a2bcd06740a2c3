//! Packed stochastic bitstreams and the bitwise operations SC hardware
//! performs on them.
//!
//! A [`Bitstream`] stores one bit per clock cycle, packed 64 cycles per word.
//! In unipolar stochastic computing the *value* carried by a stream is the
//! fraction of ones, so a 128-cycle stream is just two `u64` words and every
//! logic operation (the AND of a multiplier, the OR of an accumulator) is a
//! handful of word operations.

use crate::error::ScError;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A fixed-length stochastic bitstream, packed into 64-bit words.
///
/// Invariant: bits at positions `>= len` in the last word are always zero,
/// so equality, hashing and popcounts never see garbage tail bits.
///
/// # Examples
///
/// ```
/// use geo_sc::Bitstream;
///
/// // 8-cycle stream carrying value 3/8.
/// let s = Bitstream::from_bits([true, false, true, false, true, false, false, false]);
/// assert_eq!(s.count_ones(), 3);
/// assert!((s.value() - 0.375).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

// The GEO engine shares streams (via `Arc`-held tables) across worker
// threads during its parallel compute phase. Pin the auto-trait
// obligation at compile time so an interior-mutability field can never
// sneak in silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bitstream>();
};

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl Bitstream {
    /// Creates an all-zero stream of `len` cycles (the stochastic value 0).
    ///
    /// # Examples
    ///
    /// ```
    /// let s = geo_sc::Bitstream::zeros(128);
    /// assert_eq!(s.len(), 128);
    /// assert_eq!(s.count_ones(), 0);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Bitstream {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Creates an all-one stream of `len` cycles (the stochastic value 1).
    pub fn ones(len: usize) -> Self {
        let mut s = Bitstream {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Builds a stream from per-cycle bits, cycle 0 first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in bits {
            if len.is_multiple_of(64) && len > 0 {
                words.push(cur);
                cur = 0;
            }
            if b {
                cur |= 1u64 << (len % 64);
            }
            len += 1;
        }
        if len > 0 {
            words.push(cur);
        }
        Bitstream { words, len }
    }

    /// Builds a stream by evaluating `f(cycle)` for every cycle.
    ///
    /// This is how comparator-based stream generators are expressed: the
    /// closure compares the target value against the cycle's random number.
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut s = Bitstream::zeros(len);
        for i in 0..len {
            if f(i) {
                s.set(i, true);
            }
        }
        s
    }

    /// Wraps raw packed words as a stream of `len` cycles.
    ///
    /// Tail bits beyond `len` are cleared to maintain the representation
    /// invariant.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert!(
            words.len() * 64 >= len,
            "{} words cannot hold {len} bits",
            words.len()
        );
        words.truncate(words_for(len));
        let mut s = Bitstream { words, len };
        s.mask_tail();
        s
    }

    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }

    /// Number of cycles in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream has zero cycles.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= self.len()`.
    pub fn get(&self, cycle: usize) -> bool {
        assert!(cycle < self.len, "cycle {cycle} out of range {}", self.len);
        (self.words[cycle / 64] >> (cycle % 64)) & 1 == 1
    }

    /// Sets the bit at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= self.len()`.
    pub fn set(&mut self, cycle: usize, bit: bool) {
        assert!(cycle < self.len, "cycle {cycle} out of range {}", self.len);
        let w = &mut self.words[cycle / 64];
        let m = 1u64 << (cycle % 64);
        if bit {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Total number of one bits — the value counter a hardware output
    /// converter accumulates.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The unipolar value carried by the stream: ones / length.
    ///
    /// Returns 0 for an empty stream.
    pub fn value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            f64::from(self.count_ones()) / self.len as f64
        }
    }

    /// Borrow of the packed words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the stream, returning its packed words.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Iterator over per-cycle bits, cycle 0 first.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stream: self,
            cycle: 0,
        }
    }

    /// In-place AND with `rhs` — a stochastic unipolar multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if the stream lengths differ.
    pub fn and_assign(&mut self, rhs: &Bitstream) -> Result<(), ScError> {
        self.check_len(rhs)?;
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a &= *b;
        }
        Ok(())
    }

    /// In-place OR with `rhs` — one level of OR accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if the stream lengths differ.
    pub fn or_assign(&mut self, rhs: &Bitstream) -> Result<(), ScError> {
        self.check_len(rhs)?;
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a |= *b;
        }
        Ok(())
    }

    /// In-place XOR with `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if the stream lengths differ.
    pub fn xor_assign(&mut self, rhs: &Bitstream) -> Result<(), ScError> {
        self.check_len(rhs)?;
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a ^= *b;
        }
        Ok(())
    }

    /// Number of cycles where both streams are one (AND popcount) without
    /// materializing the AND stream.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if the stream lengths differ.
    pub fn overlap(&self, rhs: &Bitstream) -> Result<u32, ScError> {
        self.check_len(rhs)?;
        Ok(self
            .words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum())
    }

    fn check_len(&self, rhs: &Bitstream) -> Result<(), ScError> {
        if self.len != rhs.len {
            Err(ScError::LengthMismatch {
                left: self.len,
                right: rhs.len,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitstream[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ({}/{})",
            self.value(),
            self.count_ones(),
            self.len
        )
    }
}

/// Iterator over the bits of a [`Bitstream`], produced by
/// [`Bitstream::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a Bitstream,
    cycle: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.cycle < self.stream.len {
            let b = self.stream.get(self.cycle);
            self.cycle += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.cycle;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Bitstream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<bool> for Bitstream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitstream::from_bits(iter)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $assign:ident, $doc:literal) => {
        impl $trait<&Bitstream> for &Bitstream {
            type Output = Bitstream;

            #[doc = $doc]
            ///
            /// # Panics
            ///
            /// Panics if the stream lengths differ; use the fallible
            /// `*_assign` methods to handle mismatches gracefully.
            fn $method(self, rhs: &Bitstream) -> Bitstream {
                let mut out = self.clone();
                if out.$assign(rhs).is_err() {
                    panic!("bitstream length mismatch: {} vs {}", self.len(), rhs.len());
                }
                out
            }
        }
    };
}

binop!(
    BitAnd,
    bitand,
    and_assign,
    "Cycle-wise AND — a stochastic unipolar multiplication."
);
binop!(BitOr, bitor, or_assign, "Cycle-wise OR — OR accumulation.");
binop!(BitXor, bitxor, xor_assign, "Cycle-wise XOR.");

impl Not for &Bitstream {
    type Output = Bitstream;

    /// Cycle-wise NOT — the stochastic complement `1 - x`.
    fn not(self) -> Bitstream {
        let mut out = Bitstream {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_counts() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            assert_eq!(Bitstream::zeros(len).count_ones(), 0);
            assert_eq!(Bitstream::ones(len).count_ones(), len as u32);
        }
    }

    #[test]
    fn ones_tail_is_masked() {
        let s = Bitstream::ones(70);
        assert_eq!(s.as_words().len(), 2);
        assert_eq!(s.as_words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn from_bits_round_trips_through_get() {
        let bits = [true, false, false, true, true, false, true, false, true];
        let s = Bitstream::from_bits(bits);
        assert_eq!(s.len(), 9);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(s.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn from_fn_matches_from_bits() {
        let s1 = Bitstream::from_fn(100, |i| i % 3 == 0);
        let s2 = Bitstream::from_bits((0..100).map(|i| i % 3 == 0));
        assert_eq!(s1, s2);
    }

    #[test]
    fn from_words_masks_tail() {
        let s = Bitstream::from_words(vec![u64::MAX], 10);
        assert_eq!(s.count_ones(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn from_words_rejects_short_vectors() {
        let _ = Bitstream::from_words(vec![0], 65);
    }

    #[test]
    fn value_is_ones_fraction() {
        let s = Bitstream::from_bits((0..128).map(|i| i < 32));
        assert!((s.value() - 0.25).abs() < 1e-12);
        assert_eq!(Bitstream::zeros(0).value(), 0.0);
    }

    #[test]
    fn and_is_multiplication_for_uncorrelated_patterns() {
        // Deterministic interleavings: 1/2 AND 1/2 with offset phases.
        let a = Bitstream::from_fn(64, |i| i % 2 == 0);
        let b = Bitstream::from_fn(64, |i| i % 4 < 2);
        let p = &a & &b;
        assert!((p.value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn or_never_loses_ones() {
        let a = Bitstream::from_fn(96, |i| i % 5 == 0);
        let b = Bitstream::from_fn(96, |i| i % 7 == 0);
        let o = &a | &b;
        assert!(o.count_ones() >= a.count_ones().max(b.count_ones()));
        assert!(o.count_ones() <= a.count_ones() + b.count_ones());
    }

    #[test]
    fn not_is_complement() {
        let a = Bitstream::from_fn(100, |i| i % 3 == 0);
        let n = !&a;
        assert_eq!(n.count_ones() + a.count_ones(), 100);
        assert!((n.value() - (1.0 - a.value())).abs() < 1e-12);
    }

    #[test]
    fn xor_matches_bitwise_definition() {
        let a = Bitstream::from_fn(70, |i| i % 2 == 0);
        let b = Bitstream::from_fn(70, |i| i % 3 == 0);
        let x = &a ^ &b;
        for i in 0..70 {
            assert_eq!(x.get(i), a.get(i) ^ b.get(i));
        }
    }

    #[test]
    fn overlap_equals_and_popcount() {
        let a = Bitstream::from_fn(130, |i| i % 2 == 0);
        let b = Bitstream::from_fn(130, |i| i % 5 != 0);
        assert_eq!(a.overlap(&b).unwrap(), (&a & &b).count_ones());
    }

    #[test]
    fn length_mismatch_is_reported() {
        let a = Bitstream::zeros(10);
        let b = Bitstream::zeros(20);
        assert_eq!(
            a.clone().and_assign(&b),
            Err(ScError::LengthMismatch {
                left: 10,
                right: 20
            })
        );
        assert!(a.overlap(&b).is_err());
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut s = Bitstream::zeros(65);
        s.set(64, true);
        assert!(s.get(64));
        s.set(64, false);
        assert!(!s.get(64));
    }

    #[test]
    fn iterator_yields_all_bits_in_order() {
        let s = Bitstream::from_fn(67, |i| i % 2 == 1);
        let collected: Vec<bool> = s.iter().collect();
        assert_eq!(collected.len(), 67);
        assert!(collected[1] && !collected[0]);
        let round: Bitstream = s.iter().collect();
        assert_eq!(round, s);
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let s = Bitstream::zeros(0);
        assert!(!format!("{s:?}").is_empty());
        let long = Bitstream::ones(100);
        assert!(format!("{long:?}").contains('…'));
    }
}
