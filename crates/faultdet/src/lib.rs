//! On-line fault detection for RRAM crossbars by quiescent-voltage
//! comparison — §4 of Xia et al., DAC 2017.
//!
//! The method detects stuck-at faults *during training*, fast enough to run
//! periodically, by exploiting the crossbar's parallel read-out:
//!
//! 1. **Read & store off-chip** — snapshot all cell levels
//!    ([`reference::OffChipStore`]). The store persists between campaigns,
//!    so a later campaign re-reads and retests only the cells written since
//!    the last one.
//! 2. **Write `+δw`** to the cells under test. A healthy cell moves up one
//!    level; an SA0 cell cannot.
//! 3. **Drive groups of `Tr` rows** and read every column's quiescent
//!    voltage concurrently; compare against a reference computed from the
//!    stored values **mod 16** (the ADC truncates to 4 bits, so only 16
//!    reference voltages and a NAND comparator are needed — §4.2).
//! 4. Repeat in the **column direction** (crossbars conduct both ways), and
//!    predict a fault wherever a flagged column and a flagged row intersect
//!    ([`localize`]).
//!
//! `−δw` then restores the training weights and doubles as the SA1 test.
//!
//! **Selected-cell testing** (§4.3, [`selected`]) restricts the SA0 test to
//! high-resistance cells and the SA1 test to low-resistance cells — the only
//! cells where those faults can hide — cutting both test time and false
//! positives.
//!
//! # Accuracy characteristics reproduced from the paper
//!
//! * Recall stays above ~87 % even for the cheapest configurations: a fault
//!   escapes only when the number of failed increments in a tested group
//!   aliases to 0 mod 16 (§4.2), which for large groups happens with
//!   probability ≈ 1/16 per direction.
//! * Precision falls as the test-group size grows (more healthy cells sit
//!   at flagged intersections), producing the Fig. 6 trade-off between test
//!   time and precision.
//!
//! # Example
//!
//! ```
//! use rram::crossbar::CrossbarBuilder;
//! use rram::spatial::SpatialDistribution;
//! use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
//! use faultdet::metrics::DetectionReport;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut xbar = CrossbarBuilder::new(64, 64)
//!     .initial_faults(SpatialDistribution::Uniform, 0.10)
//!     .seed(3)
//!     .build()?;
//! let truth = xbar.fault_map();
//!
//! let detector = OnlineFaultDetector::new(DetectorConfig::new(8)?);
//! let outcome = detector.run(&mut xbar)?;
//! let report = DetectionReport::evaluate(&truth, &outcome.predicted);
//! assert!(report.recall() > 0.8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod detector;
pub mod localize;
pub mod march;
pub mod metrics;
pub mod reference;
pub mod schedule;
pub mod selected;

pub use detector::{DetectionOutcome, DetectorConfig, OnlineFaultDetector};
pub use metrics::DetectionReport;
