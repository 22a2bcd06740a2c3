//! GEO engine configuration.

use crate::error::GeoError;
use geo_sc::progressive::OPERAND_BITS;
use geo_sc::{RngKind, SharingLevel, MAX_WIDTH, MIN_WIDTH};

// The accumulation split is substrate-level vocabulary shared with
// `geo-arch`; it lives in `geo-sc` and is re-exported here so
// `geo_core::Accumulation` keeps working.
pub use geo_sc::Accumulation;

/// Full configuration of the GEO stochastic inference engine.
///
/// Stream lengths follow the paper's `{sp-s}` notation: layers feeding a
/// pooling stage run `stream_len_pooled` cycles (computation skipping lets
/// them be shorter), other hidden layers run `stream_len`, and the output
/// layer always runs `output_stream_len` (128 in the paper). The effective
/// hardware stream is twice each value due to split-unipolar operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoConfig {
    /// RNG sharing policy across a layer's kernels.
    pub sharing: SharingLevel,
    /// Random source driving the SNGs.
    pub rng: RngKind,
    /// SC / fixed-point accumulation split.
    pub accumulation: Accumulation,
    /// Stream length for layers **with** pooling (`sp`).
    pub stream_len_pooled: usize,
    /// Stream length for layers **without** pooling (`s`).
    pub stream_len: usize,
    /// Stream length for the output layer (128 in the paper).
    pub output_stream_len: usize,
    /// Progressive stream generation (start after 2 MSBs).
    pub progressive: bool,
    /// Fixed-point bit width of the near-memory batch norm; `None` keeps
    /// batch norm in float (used during training's statistics pass).
    pub bn_bits: Option<u8>,
    /// Base seed for the per-layer seed plans.
    pub base_seed: u32,
    /// Fuse `Conv → [BatchNorm] → [ReLU] → AvgPool2d` chains into a single
    /// prepared step that accumulates pooling windows in the counter domain
    /// and converts once per pooled output (§III-A computation skipping),
    /// and chain SC layers through quantized activation levels instead of
    /// f32 round-trips. Float-identical to the unfused pipeline; disable
    /// only to benchmark the unfused path.
    pub fuse_pooling: bool,
}

impl GeoConfig {
    /// The paper's reference GEO configuration at a given `{sp-s}` pair:
    /// LFSR generation, moderate sharing, PBW accumulation, progressive
    /// generation, 8-bit near-memory BN.
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = geo_core::GeoConfig::geo(32, 64);
    /// assert_eq!(cfg.stream_len_pooled, 32);
    /// assert_eq!(cfg.stream_len, 64);
    /// ```
    pub fn geo(stream_len_pooled: usize, stream_len: usize) -> Self {
        GeoConfig {
            sharing: SharingLevel::Moderate,
            rng: RngKind::Lfsr,
            accumulation: Accumulation::Pbw,
            stream_len_pooled,
            stream_len,
            output_stream_len: 128,
            progressive: true,
            bn_bits: Some(8),
            base_seed: 0x9E37,
            fuse_pooling: true,
        }
    }

    /// ACOUSTIC-style baseline: OR-only accumulation, no partial binary,
    /// no progressive generation, at a single stream length.
    pub fn acoustic(stream_len: usize) -> Self {
        GeoConfig {
            sharing: SharingLevel::Moderate,
            rng: RngKind::Lfsr,
            accumulation: Accumulation::Or,
            stream_len_pooled: stream_len,
            stream_len,
            output_stream_len: 128,
            progressive: false,
            bn_bits: Some(8),
            base_seed: 0x9E37,
            fuse_pooling: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if a stream length is not a
    /// power of two in the supported LFSR range, needs a width above the
    /// 8-bit operand buffer under progressive generation, or BN bits are
    /// out of range.
    pub fn validate(&self) -> Result<(), GeoError> {
        for (name, len) in [
            ("stream_len_pooled", self.stream_len_pooled),
            ("stream_len", self.stream_len),
            ("output_stream_len", self.output_stream_len),
        ] {
            if !len.is_power_of_two() {
                return Err(GeoError::InvalidConfig(format!(
                    "{name} = {len} is not a power of two"
                )));
            }
            let width = len.trailing_zeros() as u8;
            if !(MIN_WIDTH..=MAX_WIDTH).contains(&width) {
                return Err(GeoError::InvalidConfig(format!(
                    "{name} = {len} needs LFSR width {width}, outside {MIN_WIDTH}..={MAX_WIDTH}"
                )));
            }
            if self.progressive && width > OPERAND_BITS {
                return Err(GeoError::InvalidConfig(format!(
                    "{name} = {len} needs LFSR width {width}, above the \
                     {OPERAND_BITS}-bit progressive operand buffer"
                )));
            }
        }
        if let Some(bits) = self.bn_bits {
            if !(2..=16).contains(&bits) {
                return Err(GeoError::InvalidConfig(format!(
                    "bn_bits = {bits} outside 2..=16"
                )));
            }
        }
        Ok(())
    }

    /// LFSR width matched to a stream length (`log2`), per §II-B.
    pub fn width_for(len: usize) -> u8 {
        len.trailing_zeros() as u8
    }

    /// Returns a copy with a different accumulation mode (for ablations).
    pub fn with_accumulation(mut self, accumulation: Accumulation) -> Self {
        self.accumulation = accumulation;
        self
    }

    /// Returns a copy with a different sharing level (for Fig. 1 sweeps).
    pub fn with_sharing(mut self, sharing: SharingLevel) -> Self {
        self.sharing = sharing;
        self
    }

    /// Returns a copy with a different RNG kind (for Fig. 1 sweeps).
    pub fn with_rng(mut self, rng: RngKind) -> Self {
        self.rng = rng;
        self
    }

    /// Returns a copy with progressive generation toggled.
    pub fn with_progressive(mut self, progressive: bool) -> Self {
        self.progressive = progressive;
        self
    }

    /// Returns a copy with conv→pool fusion toggled (fused-vs-unfused
    /// benchmarking and equivalence tests).
    pub fn with_fuse_pooling(mut self, fuse_pooling: bool) -> Self {
        self.fuse_pooling = fuse_pooling;
        self
    }
}

/// Configuration of the batched serving loop ([`crate::serve`]).
///
/// The dispatcher drains up to `max_batch` queued requests per pass and
/// runs them as one forward through the shared
/// [`PreparedModel`](crate::PreparedModel); the submission queue holds at
/// most `queue_depth` requests before
/// [`GeoError::ServeOverflow`](crate::GeoError) pushes back on callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests fused into one batched forward pass.
    pub max_batch: usize,
    /// Bound of the submission queue (requests waiting to be batched).
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_depth: 64,
        }
    }
}

impl ServeConfig {
    /// Validates the serve configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if either bound is zero.
    pub fn validate(&self) -> Result<(), GeoError> {
        if self.max_batch == 0 {
            return Err(GeoError::InvalidConfig(
                "serve max_batch must be at least 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(GeoError::InvalidConfig(
                "serve queue_depth must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Returns a copy with a different batch bound.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Returns a copy with a different queue bound.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_defaults_validate_and_zero_bounds_are_rejected() {
        let s = ServeConfig::default();
        assert_eq!(s.max_batch, 8);
        assert_eq!(s.queue_depth, 64);
        assert!(s.validate().is_ok());
        assert!(ServeConfig::default().with_max_batch(0).validate().is_err());
        assert!(ServeConfig::default()
            .with_queue_depth(0)
            .validate()
            .is_err());
    }

    #[test]
    fn geo_defaults_match_paper() {
        let c = GeoConfig::geo(32, 64);
        assert_eq!(c.sharing, SharingLevel::Moderate);
        assert_eq!(c.rng, RngKind::Lfsr);
        assert_eq!(c.accumulation, Accumulation::Pbw);
        assert_eq!(c.output_stream_len, 128);
        assert!(c.progressive);
        assert_eq!(c.bn_bits, Some(8));
        assert!(c.fuse_pooling);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fuse_pooling_toggles_and_defaults_on() {
        assert!(GeoConfig::geo(32, 64).fuse_pooling);
        assert!(GeoConfig::acoustic(128).fuse_pooling);
        assert!(!GeoConfig::geo(32, 64).with_fuse_pooling(false).fuse_pooling);
    }

    #[test]
    fn acoustic_is_or_only() {
        let c = GeoConfig::acoustic(128);
        assert_eq!(c.accumulation, Accumulation::Or);
        assert!(!c.progressive);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_lengths() {
        let mut c = GeoConfig::geo(32, 64);
        c.stream_len = 100;
        assert!(c.validate().is_err());
        c.stream_len = 4; // width 2 < MIN_WIDTH
        assert!(c.validate().is_err());
        c.stream_len = 1 << 17;
        assert!(c.validate().is_err());
    }

    #[test]
    fn progressive_streams_stop_at_the_operand_buffer() {
        // 256 cycles need width 8, the progressive buffer's limit; 512
        // would read operand bits the buffer does not hold.
        let mut c = GeoConfig::geo(32, 64);
        c.output_stream_len = 256;
        assert!(c.validate().is_ok());
        c.output_stream_len = 512;
        assert!(matches!(c.validate(), Err(GeoError::InvalidConfig(_))));
        assert!(c.with_progressive(false).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_bn_bits() {
        let mut c = GeoConfig::geo(32, 64);
        c.bn_bits = Some(1);
        assert!(c.validate().is_err());
        c.bn_bits = None;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn width_matches_stream_length() {
        assert_eq!(GeoConfig::width_for(128), 7);
        assert_eq!(GeoConfig::width_for(32), 5);
    }

    #[test]
    fn builder_helpers() {
        let c = GeoConfig::geo(32, 64)
            .with_accumulation(Accumulation::Fxp)
            .with_sharing(SharingLevel::None)
            .with_rng(RngKind::Trng)
            .with_progressive(false);
        assert_eq!(c.accumulation, Accumulation::Fxp);
        assert_eq!(c.sharing, SharingLevel::None);
        assert_eq!(c.rng, RngKind::Trng);
        assert!(!c.progressive);
    }
}
