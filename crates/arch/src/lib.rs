//! # geo-arch — the GEO accelerator model
//!
//! Architecture-level reproduction of the GEO accelerator (paper §III–IV):
//! gate-level area/energy models of every block in Fig. 4, the MAC-unit
//! area sweep of Fig. 5, SRAM/HBM2 memory models, the GEO ISA and a
//! compiler from network descriptors to programs, a performance/energy
//! simulator with ping-pong overlap, progressive shadow buffering,
//! near-memory computation and DVFS (Fig. 6, Tables II & III), dataflow
//! access accounting (§III-C), and the Eyeriss / ACOUSTIC / reported
//! baselines.
//!
//! # Examples
//!
//! Simulate CIFAR-10 CNN-4 inference on the GEO-ULP design point:
//!
//! ```
//! use geo_arch::{AccelConfig, NetworkDesc};
//!
//! let report = geo_arch::perfsim::run(
//!     &AccelConfig::ulp_geo(32, 64),
//!     &NetworkDesc::cnn4_cifar(),
//! );
//! assert!(report.fps > 1000.0);
//! assert!(report.area_mm2 < 1.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod accel;
pub mod artifact;
pub mod asm;
pub mod baselines;
pub mod compiler;
pub mod dataflow;
pub mod encoding;
pub mod isa;
pub mod mac_area;
pub mod memory;
pub mod modules;
mod network;
pub mod perfsim;
pub mod progressive_timing;
pub mod tech;

pub use accel::{AccelConfig, Category, Optimizations};
pub use artifact::{ArtifactError, ProgramArtifact};
pub use asm::{assemble, disassemble, AsmError, AsmErrorKind};
pub use isa::{Instr, Program, Tile};
pub use network::{LayerShape, NetworkDesc};
pub use perfsim::SimReport;
