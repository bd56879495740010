//! # ftt-serve — deterministic multi-tenant chip service
//!
//! The paper's flow trains one network on one crossbar system. A
//! deployed RRAM accelerator is shared infrastructure: many tenants —
//! long-running fault-tolerant training jobs *and* latency-bound
//! inference traffic — multiplexed over a fleet of tiled chips, with
//! the §4 on-line detection campaigns competing for the same arrays the
//! traffic uses. This crate is that serving layer:
//!
//! - [`service::Service`] — the logical-clock scheduler: per-tick
//!   batched inference (shared MVM passes via
//!   [`ftt_tile::TiledMapping::mvm_batch`]), one training iteration per
//!   training tenant, lull-gated detection, and snapshot-backed tenant
//!   migration when a chip's spare pool exhausts.
//! - [`queue`] — admission control: bounded per-tenant queues with
//!   typed [`queue::Admission`] responses (admitted / busy / shed).
//! - [`tenant`] — tenant specifications and per-tenant quota/placement
//!   inputs.
//! - [`workload`] — seeded open-loop traffic generation (base rate,
//!   lull window, overflow burst).
//! - [`scenario`] — the seeded reference deployment every determinism
//!   gate (demo binary, adversarial tests, unit tests) byte-compares.
//! - [`scrape`] — the render-to-string Prometheus endpoint.
//!
//! ## Determinism
//!
//! No wall time anywhere: the service advances on [`service::Service::tick`]
//! and stamps obs events with the tick. All cross-tenant ordering is
//! fixed or drawn from a seeded RNG, and every parallel code path below
//! the sequential spine is bit-identical at any `RRAM_FTT_THREADS` — so
//! a `(seed, submit sequence)` pair pins the JSONL trace, the Prometheus
//! rendering, and every output fingerprint byte-for-byte.

pub mod config;
pub mod error;
pub mod queue;
pub mod scenario;
pub mod scrape;
pub mod service;
pub mod tenant;
pub mod workload;

pub use config::{ChipNodeConfig, ServiceConfig};
pub use error::ServeError;
pub use queue::{Admission, ShedReason};
pub use scenario::{run_reference_scenario, ScenarioReport};
pub use scrape::{scrape, CONTENT_TYPE};
pub use service::{
    placement_salt, rebuild_trainer_from_snapshot, trainer_params_fingerprint, MigrationTicket,
    Service,
};
pub use tenant::{InferenceSpec, TenantSpec, TrainingSpec};
pub use workload::{WorkloadGen, WorkloadSpec};
