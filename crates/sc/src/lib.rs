//! # geo-sc — stochastic computing substrate
//!
//! The stochastic-computing foundation of the GEO reproduction ("GEO:
//! Generation and Execution Optimized Stochastic Computing Accelerator for
//! Neural Networks", DATE 2021): packed [`Bitstream`]s, deterministic
//! maximal-length [`Lfsr`]s, simulated TRNG and low-discrepancy sources,
//! comparator-based stream generation, progressive generation with shadow
//! buffering, split-unipolar encoding, SC arithmetic (AND multiply, OR
//! accumulate, MUX add, exact and approximate parallel counters), and
//! correlation/error metrics.
//!
//! # Examples
//!
//! A stochastic multiply-accumulate with decorrelated LFSRs:
//!
//! ```
//! use geo_sc::{generate_unipolar, ops, Lfsr};
//!
//! # fn main() -> Result<(), geo_sc::ScError> {
//! let mut ra = Lfsr::new(7, 1)?;
//! let mut rb = Lfsr::with_polynomial(7, 1, 60)?;
//! let a = generate_unipolar(0.5, 128, &mut ra);
//! let b = generate_unipolar(0.4, 128, &mut rb);
//! let product = ops::and_mul(&a, &b)?;
//! assert!((product.value() - 0.2).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod accum;
pub mod apc;
mod bitstream;
mod encode;
mod error;
pub mod fault;
mod lfsr;
pub mod metrics;
pub mod ops;
pub mod progressive;
mod rng;
pub mod sharing;
mod sng;

pub use accum::Accumulation;
pub use bitstream::{Bitstream, Iter};
pub use encode::{dequantize_unipolar, quantize_unipolar, SplitStream, SplitValue};
pub use error::ScError;
pub use fault::{FaultCounters, FaultInjector, FaultModel, StuckAtRng};
pub use lfsr::{polynomial_count, Lfsr, MAX_WIDTH, MIN_WIDTH};
pub use progressive::{ProgressiveSng, ShadowBuffer};
pub use rng::{SobolRng, StreamRng, TrngRng};
pub use sharing::{KernelDims, RngKind, RngSpec, SeedPlan, SharingLevel};
pub use sng::{generate_split, generate_stream, generate_unipolar, StreamTable};
