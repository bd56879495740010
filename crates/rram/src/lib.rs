//! Behavioral simulator for metal-oxide RRAM cells and crossbar arrays.
//!
//! This crate is the hardware substrate of the `rram-ftt` workspace, a
//! reproduction of *"Fault-Tolerant Training with On-Line Fault Detection for
//! RRAM-Based Neural Computing Systems"* (Xia et al., DAC 2017). It models
//! everything the paper's evaluation needs from the device level:
//!
//! * **Multi-level cells** ([`cell::RramCell`]) — conductance is programmed
//!   in a small number of discrete levels (8 by default, following Xu et al.,
//!   DAC'13) with bounded analog write variation.
//! * **Hard faults** ([`fault`]) — stuck-at-0 (SA0, conductance pinned at the
//!   minimum) and stuck-at-1 (SA1, pinned at the maximum), from fabrication
//!   defects or endurance wear-out.
//! * **Endurance** ([`endurance::EnduranceModel`]) — every cell draws a write
//!   budget from a Gaussian distribution (mean 5×10⁶ for low-endurance
//!   technology, 10⁸ for high-endurance, per the paper's §6.2.1); exhausting
//!   it turns the cell into a stuck-at fault.
//! * **Spatial fault distributions** ([`spatial`]) — uniform and
//!   Gaussian-cluster injection of fabrication faults.
//! * **Crossbar arrays** ([`crossbar::Crossbar`]) — analog matrix–vector
//!   multiplication in both directions, per-cell wear tracking, and the
//!   quiescent read/write primitives the on-line test method drives.
//! * **Peripheral models** ([`adc`]) — level-granularity ADC with the
//!   mod-2ⁿ truncation used by the paper's comparison circuitry.
//!
//! # Example
//!
//! Build a 64×64 crossbar with 10 % uniformly distributed fabrication faults
//! and low-endurance cells, then run an analog matrix–vector product:
//!
//! ```
//! use rram::crossbar::CrossbarBuilder;
//! use rram::endurance::EnduranceModel;
//! use rram::spatial::SpatialDistribution;
//!
//! # fn main() -> Result<(), rram::RramError> {
//! let mut xbar = CrossbarBuilder::new(64, 64)
//!     .endurance(EnduranceModel::low_endurance().scaled(1e-3))
//!     .initial_faults(SpatialDistribution::Uniform, 0.10)
//!     .seed(42)
//!     .build()?;
//!
//! let input = vec![1.0; 64];
//! let output = xbar.mvm(&input)?;
//! assert_eq!(output.len(), 64);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod cell;
pub mod crossbar;
pub mod endurance;
pub mod energy;
pub mod error;
pub mod fault;
pub mod rng;
pub mod spatial;
pub mod stats;
pub mod variation;

pub use crossbar::{Crossbar, CrossbarBuilder};
pub use error::RramError;
pub use fault::{FaultKind, FaultMap, FaultState};
