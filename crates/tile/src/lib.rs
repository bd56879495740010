//! # ftt-tile — tiled multi-crossbar chip model
//!
//! The paper's flow (detection §4, remapping §5.2) is phrased against a
//! single crossbar, but a real RRAM computing system shards any
//! non-trivial layer across many bounded-size arrays — and fault
//! handling, wear, and test scheduling are all *per-array* decisions.
//! This crate is the layer between the device model ([`rram`]) and the
//! training flow (`ftt-core`):
//!
//! - [`chip::TiledChip`] owns the pool of fixed-size crossbar tiles plus
//!   configurable cold spares, and is the single authority on tile
//!   identity, retirement, and spare substitution (emitting
//!   [`obs::Event::TileRetired`] / [`obs::Event::SpareAttached`]).
//! - [`geometry::ShardGrid`] is the remainder-aware shard geometry of one
//!   logical matrix on the tile grid.
//! - [`mapping::TiledMapping`] shards a matrix onto chip tiles and runs
//!   the batched tiled MVM executor — bit-identical to the monolithic
//!   [`rram::Crossbar::mvm`] at any `RRAM_FTT_THREADS` (see the module
//!   docs for the accumulation-order argument).
//! - [`schedule::DetectionScheduler`] decides which tiles get this
//!   interval's §4 campaigns (a rotating window, deferred outside traffic
//!   lulls); the chip runs them tile-locally, so comparison groups never
//!   span tile edges.
//! - [`health::TileHealth`] scores tiles from predicted fault density and
//!   accumulated wear; the chip's retirement policy consumes the density.
//!
//! Everything here is deterministic: tile seeds derive from the chip seed
//! via the same stream the monolithic mapper uses, campaigns aggregate in
//! tile-id order regardless of the thread budget, and obs events are only
//! emitted from sequential code paths.

pub mod chip;
pub mod error;
pub mod geometry;
pub mod health;
pub mod mapping;
pub mod schedule;

pub use chip::{
    CampaignStats, ChipConfig, ChipState, DetectionState, SpareOutcome, TileSlot, TileSlotState,
    TiledChip,
};
pub use error::TileError;
pub use geometry::{CellCursor, Shard, ShardGrid};
pub use health::TileHealth;
pub use mapping::TiledMapping;
pub use schedule::{DetectionScheduler, LullConfig};
