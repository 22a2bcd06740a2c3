//! Unipolar and split-unipolar value encodings.
//!
//! Unipolar SC encodes `x ∈ [0, 1]` as the ones-density of a stream. Signed
//! values use the **split-unipolar** format (paper §II, after ACOUSTIC): a
//! weight `w ∈ [-1, 1]` is carried by two unipolar streams, one for the
//! positive part and one for the negative part, and the output converter
//! subtracts the two counters. This is why the effective stream length is
//! double the specified value (paper §IV).

use crate::bitstream::Bitstream;

/// Quantizes `x ∈ [0, 1]` to a `bits`-bit comparator target in `0..=2^bits`.
///
/// Values outside `[0, 1]` are clamped. The target `2^bits` encodes an
/// all-ones stream (exact 1.0).
///
/// # Examples
///
/// ```
/// assert_eq!(geo_sc::quantize_unipolar(0.5, 8), 128);
/// assert_eq!(geo_sc::quantize_unipolar(1.0, 8), 256);
/// assert_eq!(geo_sc::quantize_unipolar(-3.0, 8), 0);
/// ```
pub fn quantize_unipolar(x: f32, bits: u8) -> u32 {
    let levels = (1u32 << bits) as f32;
    let q = (x * levels).round();
    q.clamp(0.0, levels) as u32
}

/// Inverse of [`quantize_unipolar`]: the value represented by level `q`.
pub fn dequantize_unipolar(q: u32, bits: u8) -> f32 {
    q as f32 / (1u32 << bits) as f32
}

/// A signed value split into unipolar positive and negative magnitudes.
///
/// Exactly one of `pos`/`neg` is nonzero for any nonzero input, matching how
/// split-unipolar hardware routes a weight to either the positive or the
/// negative stream generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitValue {
    /// Positive magnitude, in `[0, 1]`.
    pub pos: f32,
    /// Negative magnitude, in `[0, 1]`.
    pub neg: f32,
}

impl SplitValue {
    /// Splits `w ∈ [-1, 1]` (clamped) into its unipolar parts.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = geo_sc::SplitValue::new(-0.25);
    /// assert_eq!(s.pos, 0.0);
    /// assert_eq!(s.neg, 0.25);
    /// assert_eq!(s.value(), -0.25);
    /// ```
    pub fn new(w: f32) -> Self {
        let w = w.clamp(-1.0, 1.0);
        SplitValue {
            pos: w.max(0.0),
            neg: (-w).max(0.0),
        }
    }

    /// The signed value, `pos - neg`.
    pub fn value(&self) -> f32 {
        self.pos - self.neg
    }
}

impl From<f32> for SplitValue {
    fn from(w: f32) -> Self {
        SplitValue::new(w)
    }
}

/// A split-unipolar stream pair: the positive- and negative-part bitstreams
/// of one signed operand or accumulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitStream {
    /// Stream carrying the positive magnitude.
    pub pos: Bitstream,
    /// Stream carrying the negative magnitude.
    pub neg: Bitstream,
}

impl SplitStream {
    /// Pairs two equal-length streams.
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths.
    pub fn new(pos: Bitstream, neg: Bitstream) -> Self {
        assert_eq!(pos.len(), neg.len(), "split stream halves must match");
        SplitStream { pos, neg }
    }

    /// An all-zero pair (signed value 0).
    pub fn zeros(len: usize) -> Self {
        SplitStream {
            pos: Bitstream::zeros(len),
            neg: Bitstream::zeros(len),
        }
    }

    /// Stream length in cycles (of each half; the effective hardware stream
    /// is twice this, as both halves are processed).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the pair has zero cycles.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The signed value: ones-density of `pos` minus ones-density of `neg`.
    pub fn value(&self) -> f64 {
        self.pos.value() - self.neg.value()
    }

    /// The signed counter value an output converter's subtractor produces:
    /// `count_ones(pos) - count_ones(neg)`.
    pub fn signed_count(&self) -> i64 {
        i64::from(self.pos.count_ones()) - i64::from(self.neg.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_is_monotonic_and_clamped() {
        let mut prev = 0;
        for i in 0..=100 {
            let q = quantize_unipolar(i as f32 / 100.0, 8);
            assert!(q >= prev);
            prev = q;
        }
        assert_eq!(quantize_unipolar(2.0, 8), 256);
        assert_eq!(quantize_unipolar(-1.0, 8), 0);
    }

    #[test]
    fn quantize_dequantize_round_trip_error_is_half_lsb() {
        for bits in [4u8, 7, 8] {
            let lsb = 1.0 / (1u32 << bits) as f32;
            for i in 0..=200 {
                let x = i as f32 / 200.0;
                let back = dequantize_unipolar(quantize_unipolar(x, bits), bits);
                assert!((back - x).abs() <= lsb / 2.0 + 1e-6, "bits {bits}, x {x}");
            }
        }
    }

    #[test]
    fn split_value_has_one_nonzero_side() {
        for w in [-1.0f32, -0.3, 0.0, 0.7, 1.0] {
            let s = SplitValue::new(w);
            assert!((s.value() - w).abs() < 1e-6);
            assert!(s.pos == 0.0 || s.neg == 0.0);
            assert!(s.pos >= 0.0 && s.neg >= 0.0);
        }
    }

    #[test]
    fn split_value_clamps() {
        assert_eq!(SplitValue::new(3.0).value(), 1.0);
        assert_eq!(SplitValue::new(-3.0).value(), -1.0);
        assert_eq!(SplitValue::from(0.5).pos, 0.5);
    }

    #[test]
    fn split_stream_value_subtracts_halves() {
        let pos = Bitstream::from_fn(32, |i| i < 16); // 0.5
        let neg = Bitstream::from_fn(32, |i| i < 8); // 0.25
        let s = SplitStream::new(pos, neg);
        assert!((s.value() - 0.25).abs() < 1e-12);
        assert_eq!(s.signed_count(), 8);
        assert_eq!(s.len(), 32);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn split_stream_rejects_mismatched_halves() {
        let _ = SplitStream::new(Bitstream::zeros(8), Bitstream::zeros(16));
    }
}
