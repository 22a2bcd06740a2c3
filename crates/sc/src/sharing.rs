//! RNG seed-sharing policies (paper §II-A, Fig. 1).
//!
//! GEO deliberately *shares* stream generators to simplify the error profile
//! training must learn:
//!
//! * [`SharingLevel::None`] — every weight SNG gets its own seed.
//! * [`SharingLevel::Moderate`] — all kernels (output channels) of a layer
//!   share one seed set, indexed by position within the kernel. This is the
//!   sweet spot GEO uses: up to 6.1 points more accurate than unshared TRNG
//!   once the network is trained for it.
//! * [`SharingLevel::Extreme`] — all rows of all kernels share one seed set
//!   indexed only by the W position; the resulting stream correlation
//!   collapses accuracy even with training.

use crate::error::ScError;
use crate::lfsr::{polynomial_count, Lfsr};
use crate::rng::{SobolRng, StreamRng, TrngRng};

/// How aggressively weight-stream generators are shared within a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingLevel {
    /// Every SNG has a unique seed.
    None,
    /// One seed set shared across all kernels of the layer (GEO default).
    Moderate,
    /// One seed set shared across all rows of all kernels.
    Extreme,
}

impl SharingLevel {
    /// All levels, in increasing-sharing order (handy for sweeps).
    pub const ALL: [SharingLevel; 3] = [
        SharingLevel::None,
        SharingLevel::Moderate,
        SharingLevel::Extreme,
    ];
}

/// Which random-number source drives the SNG comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngKind {
    /// Deterministic maximal-length LFSR (GEO's choice).
    Lfsr,
    /// Simulated true RNG: fresh entropy every pass.
    Trng,
    /// Low-discrepancy (van der Corput / Sobol) sequence.
    Sobol,
}

impl RngKind {
    /// Instantiates a generator of `width` bits for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidWidth`] / [`ScError::InvalidPolynomial`]
    /// for specs an LFSR cannot satisfy.
    pub fn build(self, width: u8, spec: RngSpec) -> Result<Box<dyn StreamRng>, ScError> {
        Ok(match self {
            RngKind::Lfsr => Box::new(Lfsr::with_polynomial(width, spec.poly, spec.seed)?),
            RngKind::Trng => Box::new(TrngRng::new(
                width,
                u64::from(spec.seed) | (spec.poly as u64) << 32,
            )),
            RngKind::Sobol => Box::new(SobolRng::new(width, spec.seed)),
        })
    }
}

/// A concrete generator identity: seed plus characteristic-polynomial index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RngSpec {
    /// Seed (folded onto the nonzero state space by LFSRs).
    pub seed: u32,
    /// Primitive-polynomial index (see [`polynomial_count`]).
    pub poly: usize,
}

/// Kernel dimensions of a convolution layer, `(Cout, Cin, H, W)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelDims {
    /// Output channels (number of kernels).
    pub cout: usize,
    /// Input channels.
    pub cin: usize,
    /// Kernel height.
    pub h: usize,
    /// Kernel width.
    pub w: usize,
}

impl KernelDims {
    /// Creates kernel dimensions.
    pub fn new(cout: usize, cin: usize, h: usize, w: usize) -> Self {
        KernelDims { cout, cin, h, w }
    }

    /// Weights per kernel, `Cin · H · W`.
    pub fn kernel_volume(&self) -> usize {
        self.cin * self.h * self.w
    }
}

/// Number of distinct generators available at a given width:
/// `polynomials × (2^width - 1)` seeds. Moderate sharing is applied "up to
/// the limit of availability of unique RNG seeds" — beyond this the plan
/// wraps around.
pub fn unique_generators(width: u8) -> usize {
    polynomial_count(width) * ((1usize << width) - 1)
}

/// Deterministic seed assignment for one layer under a sharing policy.
///
/// # Examples
///
/// ```
/// use geo_sc::sharing::{KernelDims, SeedPlan, SharingLevel};
///
/// let dims = KernelDims::new(16, 8, 3, 3);
/// let plan = SeedPlan::new(SharingLevel::Moderate, 7, 0, dims);
/// // Moderate: kernels 0 and 15 share generators at the same position.
/// assert_eq!(plan.weight_spec(0, 2, 1, 1), plan.weight_spec(15, 2, 1, 1));
/// // ...but different positions get different generators.
/// assert_ne!(plan.weight_spec(0, 2, 1, 1), plan.weight_spec(0, 2, 1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    level: SharingLevel,
    width: u8,
    base_seed: u32,
    dims: KernelDims,
}

impl SeedPlan {
    /// Creates a plan for a layer with kernel `dims`, LFSR `width`, and a
    /// layer-unique `base_seed`.
    pub fn new(level: SharingLevel, width: u8, base_seed: u32, dims: KernelDims) -> Self {
        SeedPlan {
            level,
            width,
            base_seed,
            dims,
        }
    }

    /// The sharing level of the plan.
    pub fn level(&self) -> SharingLevel {
        self.level
    }

    /// Seed-space index of a weight position under the plan's sharing level.
    fn weight_index(&self, cout: usize, cin: usize, h: usize, w: usize) -> usize {
        match self.level {
            SharingLevel::None => {
                ((cout * self.dims.cin + cin) * self.dims.h + h) * self.dims.w + w
            }
            SharingLevel::Moderate => (cin * self.dims.h + h) * self.dims.w + w,
            SharingLevel::Extreme => w,
        }
    }

    fn spec_for_index(&self, index: usize) -> RngSpec {
        let period = (1usize << self.width) - 1;
        let polys = polynomial_count(self.width).max(1);
        RngSpec {
            seed: self.base_seed.wrapping_add((index % period) as u32),
            poly: (index / period) % polys,
        }
    }

    /// Generator slot of the weight at `(cout, cin, h, w)`: its seed-space
    /// index modulo the number of distinct generators at the plan's width
    /// ([`unique_generators`]), where the plan wraps. Two weights share a
    /// [`weight_spec`](Self::weight_spec) exactly when they share a slot,
    /// so a layer needs one stream table per distinct slot.
    ///
    /// # Examples
    ///
    /// ```
    /// use geo_sc::sharing::{unique_generators, KernelDims, SeedPlan, SharingLevel};
    ///
    /// // 3-bit width: 14 generators, so position 14 wraps onto slot 0.
    /// let plan = SeedPlan::new(SharingLevel::Moderate, 3, 0, KernelDims::new(2, 1, 1, 16));
    /// assert_eq!(unique_generators(3), 14);
    /// assert_eq!(plan.weight_slot(1, 0, 0, 14), 0);
    /// assert_eq!(plan.weight_spec(1, 0, 0, 14), plan.weight_spec(0, 0, 0, 0));
    /// ```
    pub fn weight_slot(&self, cout: usize, cin: usize, h: usize, w: usize) -> usize {
        let period = (1usize << self.width) - 1;
        let generators = period * polynomial_count(self.width).max(1);
        self.weight_index(cout, cin, h, w) % generators
    }

    /// Generator identity for the weight at `(cout, cin, h, w)`.
    pub fn weight_spec(&self, cout: usize, cin: usize, h: usize, w: usize) -> RngSpec {
        self.spec_for_index(self.weight_slot(cout, cin, h, w))
    }

    /// Generator identity for activation broadcast lane `lane`.
    ///
    /// Activation SNGs are broadcast across MAC rows (kernels), so they are
    /// always "moderately shared" by construction; their seed space is
    /// offset so it never collides with the weight seed space.
    pub fn activation_spec(&self, lane: usize) -> RngSpec {
        let period = (1usize << self.width) - 1;
        let polys = polynomial_count(self.width).max(1);
        // Offset by half the period to separate from weight seeds.
        let offset = period / 2 + 1;
        RngSpec {
            seed: self
                .base_seed
                .wrapping_add(((lane + offset) % period) as u32),
            poly: polys - 1 - (lane / period) % polys,
        }
    }

    /// Number of *distinct* weight generators the plan instantiates.
    pub fn distinct_weight_generators(&self) -> usize {
        let d = &self.dims;
        let raw = match self.level {
            SharingLevel::None => d.cout * d.kernel_volume(),
            SharingLevel::Moderate => d.kernel_volume(),
            SharingLevel::Extreme => d.w,
        };
        raw.min(unique_generators(self.width).max(1))
    }

    /// Builds the actual RNG for a spec.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`RngKind::build`].
    pub fn build_rng(&self, kind: RngKind, spec: RngSpec) -> Result<Box<dyn StreamRng>, ScError> {
        kind.build(self.width, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> KernelDims {
        KernelDims::new(4, 3, 5, 5)
    }

    #[test]
    fn none_gives_unique_specs_per_position() {
        let plan = SeedPlan::new(SharingLevel::None, 8, 0, dims());
        let mut seen = std::collections::HashSet::new();
        for co in 0..4 {
            for ci in 0..3 {
                for h in 0..5 {
                    for w in 0..5 {
                        seen.insert(plan.weight_spec(co, ci, h, w));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 4 * 3 * 5 * 5);
        assert_eq!(plan.distinct_weight_generators(), 300);
    }

    #[test]
    fn moderate_shares_across_kernels_only() {
        let plan = SeedPlan::new(SharingLevel::Moderate, 8, 10, dims());
        for co in 1..4 {
            assert_eq!(plan.weight_spec(0, 1, 2, 3), plan.weight_spec(co, 1, 2, 3));
        }
        assert_ne!(plan.weight_spec(0, 1, 2, 3), plan.weight_spec(0, 1, 2, 4));
        assert_ne!(plan.weight_spec(0, 1, 2, 3), plan.weight_spec(0, 2, 2, 3));
        assert_eq!(plan.distinct_weight_generators(), 75);
    }

    #[test]
    fn extreme_shares_across_rows_and_channels() {
        let plan = SeedPlan::new(SharingLevel::Extreme, 8, 10, dims());
        assert_eq!(plan.weight_spec(0, 0, 0, 2), plan.weight_spec(3, 2, 4, 2));
        assert_ne!(plan.weight_spec(0, 0, 0, 2), plan.weight_spec(0, 0, 0, 3));
        assert_eq!(plan.distinct_weight_generators(), 5);
    }

    #[test]
    fn seed_space_wraps_beyond_unique_generators() {
        // 3-bit width: only 7 seeds × 2 polynomials = 14 generators.
        let big = KernelDims::new(1, 10, 10, 10);
        let plan = SeedPlan::new(SharingLevel::None, 3, 0, big);
        assert_eq!(unique_generators(3), 14);
        assert_eq!(plan.distinct_weight_generators(), 14);
        // Index 0 and index 7 share the seed but differ in polynomial.
        let a = plan.weight_spec(0, 0, 0, 0);
        let b = plan.weight_spec(0, 0, 0, 7);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.poly, b.poly);
        // Index 14 wraps entirely.
        let c = plan.weight_spec(0, 0, 1, 4);
        assert_eq!(a, c);
    }

    #[test]
    fn weight_slots_name_exactly_the_distinct_specs() {
        // Same slot ⇔ same spec, and the plan's distinct-generator count
        // is its number of slots, at every sharing level, including plans
        // that wrap (width 3) and ones that do not (width 8).
        for level in SharingLevel::ALL {
            for width in [3u8, 8] {
                let plan = SeedPlan::new(level, width, 9, dims());
                let mut by_slot = std::collections::HashMap::new();
                let mut specs = std::collections::HashSet::new();
                for co in 0..4 {
                    for ci in 0..3 {
                        for h in 0..5 {
                            for w in 0..5 {
                                let slot = plan.weight_slot(co, ci, h, w);
                                let spec = plan.weight_spec(co, ci, h, w);
                                assert!(slot < unique_generators(width));
                                assert_eq!(*by_slot.entry(slot).or_insert(spec), spec);
                                specs.insert(spec);
                            }
                        }
                    }
                }
                assert_eq!(by_slot.len(), specs.len(), "{level:?} width {width}");
                assert_eq!(by_slot.len(), plan.distinct_weight_generators());
            }
        }
    }

    #[test]
    fn activation_lanes_are_shared_across_rows_by_construction() {
        let plan = SeedPlan::new(SharingLevel::Moderate, 8, 0, dims());
        // Activation specs don't depend on kernel index at all — same call.
        let a0 = plan.activation_spec(0);
        let a1 = plan.activation_spec(1);
        assert_ne!(a0, a1);
        // Offset keeps activation lane 0 away from weight index 0.
        assert_ne!(a0, plan.weight_spec(0, 0, 0, 0));
    }

    #[test]
    fn rng_kinds_build_working_generators() {
        let plan = SeedPlan::new(SharingLevel::Moderate, 8, 5, dims());
        let spec = plan.weight_spec(0, 0, 0, 0);
        for kind in [RngKind::Lfsr, RngKind::Trng, RngKind::Sobol] {
            let mut rng = plan.build_rng(kind, spec).unwrap();
            assert_eq!(rng.width(), 8);
            let v = rng.next_value();
            assert!(v < 256);
        }
    }

    #[test]
    fn lfsr_build_rejects_bad_width() {
        assert!(RngKind::Lfsr
            .build(2, RngSpec { seed: 1, poly: 0 })
            .is_err());
    }
}
