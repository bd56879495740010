//! The tiled chip: a pool of bounded-size crossbar tiles plus spares.
//!
//! A real RRAM computing system shards any non-trivial layer across many
//! fixed-size arrays; fault handling, wear, and test scheduling are all
//! per-array decisions. [`TiledChip`] owns every physical tile of the
//! simulated chip — the active shards of mapped layers *and* a pool of
//! cold spares — and is the single authority on tile identity, retirement,
//! and substitution. Mappings (see [`crate::mapping::TiledMapping`]) hold
//! tile *ids*, never the arrays themselves, so a spare swap is one id
//! rewrite plus a reprogram.
//!
//! Determinism: each tile is seeded
//! `seed.wrapping_mul(0x9E37_79B9).wrapping_add(counter)` with a
//! pre-incremented chip-global allocation counter, the exact stream the
//! monolithic mapper uses — so a tiled chip and a monolithic mapping built
//! from the same seed draw identical per-tile RNG streams in allocation
//! order. Detection campaigns fan out across the [`par`] budget but
//! aggregate in tile-id order, and obs events are only emitted from the
//! sequential spine (retire/substitute), keeping seeded traces
//! byte-identical at any `RRAM_FTT_THREADS`.

use faultdet::detector::{DetectionOutcome, OnlineFaultDetector};
use faultdet::reference::{OffChipStore, StoreState};
use rram::crossbar::{Crossbar, CrossbarBuilder, CrossbarState};
use rram::endurance::EnduranceModel;
use rram::fault::{FaultKind, FaultMap};
use rram::spatial::FaultInjection;
use rram::variation::WriteVariation;
use rram::RramError;

use std::collections::BTreeSet;

use crate::error::TileError;
use crate::health::TileHealth;

/// Chip-wide configuration: tile geometry, device models, spare pool, and
/// the retirement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Nominal tile edge (tiles are at most `tile_size × tile_size`).
    pub tile_size: usize,
    /// Conductance levels per cell.
    pub levels: u16,
    /// Endurance model applied to every tile.
    pub endurance: EnduranceModel,
    /// Write-variation model applied to every tile.
    pub variation: WriteVariation,
    /// Manufacturing-fault injection applied to newly built tiles
    /// (spares included — a cold spare is not magically perfect).
    pub injection: Option<FaultInjection>,
    /// Cold spare tiles available for substitution.
    pub spare_tiles: usize,
    /// Retire a tile when its *predicted* fault density crosses this
    /// threshold (`None` disables sparing).
    pub retire_fault_density: Option<f64>,
    /// Chip seed; every tile derives its own stream from it.
    pub seed: u64,
}

impl ChipConfig {
    /// A chip with the given tile edge and seed; unlimited endurance, no
    /// variation, no injected faults, no spares, sparing disabled.
    pub fn new(tile_size: usize, levels: u16, seed: u64) -> Self {
        ChipConfig {
            tile_size,
            levels,
            endurance: EnduranceModel::unlimited(),
            variation: WriteVariation::none(),
            injection: None,
            spare_tiles: 0,
            retire_fault_density: None,
            seed,
        }
    }

    /// Sets the endurance model.
    pub fn with_endurance(mut self, endurance: EnduranceModel) -> Self {
        self.endurance = endurance;
        self
    }

    /// Sets the write-variation model.
    pub fn with_variation(mut self, variation: WriteVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Sets manufacturing-fault injection for newly built tiles.
    pub fn with_injection(mut self, injection: FaultInjection) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Sets the cold-spare pool size.
    pub fn with_spare_tiles(mut self, spares: usize) -> Self {
        self.spare_tiles = spares;
        self
    }

    /// Enables retirement at the given predicted fault density.
    pub fn with_retire_fault_density(mut self, density: f64) -> Self {
        self.retire_fault_density = Some(density);
        self
    }

    fn validate(&self) -> Result<(), TileError> {
        if self.tile_size == 0 {
            return Err(TileError::InvalidConfig("tile_size must be >= 1".into()));
        }
        if self.levels < 2 {
            return Err(TileError::InvalidConfig(format!(
                "need at least 2 conductance levels, got {}",
                self.levels
            )));
        }
        if let Some(d) = self.retire_fault_density {
            if !d.is_finite() || d <= 0.0 || d > 1.0 {
                return Err(TileError::InvalidConfig(format!(
                    "retire_fault_density must be in (0, 1], got {d}"
                )));
            }
        }
        Ok(())
    }
}

/// One physical tile slot of the chip.
#[derive(Debug, Clone)]
pub struct TileSlot {
    /// Chip-global tile id (stable for the chip's lifetime).
    pub id: usize,
    /// The physical array.
    pub xbar: Crossbar,
    /// Whether this tile has been retired from service.
    pub retired: bool,
    /// When this tile is a spare, the id of the tile it replaced.
    pub spare_origin: Option<usize>,
    /// Outcome of the most recent detection campaign on this tile.
    pub last_detection: Option<DetectionOutcome>,
    /// Error of the most recent campaign, when it failed.
    pub last_campaign_error: Option<RramError>,
    /// Persistent off-chip reference store of this tile's campaigns
    /// (`None` until the first campaign attaches one).
    pub store: Option<OffChipStore>,
}

impl TileSlot {
    /// Cells in this tile.
    pub fn cells(&self) -> usize {
        self.xbar.rows() * self.xbar.cols()
    }

    /// Predicted fault density from the last campaign (`None` before the
    /// first successful campaign).
    pub fn predicted_fault_density(&self) -> Option<f64> {
        self.last_detection
            .as_ref()
            .map(|d| d.predicted.count_faulty() as f64 / self.cells() as f64)
    }
}

/// Aggregate results of one chip-level detection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Tiles whose campaign completed.
    pub campaigns_run: u64,
    /// Tiles whose campaign failed outright (error stored on the slot).
    pub failed_tiles: u64,
    /// Total test cycles across tiles (§6.1 per-tile cycles summed).
    pub cycles: u64,
    /// Write pulses the campaigns themselves spent.
    pub write_pulses: u64,
    /// Cells flagged faulty, summed over tested tiles.
    pub flagged_cells: u64,
    /// Group sweeps skipped due to degraded coverage.
    pub untested_groups: u64,
}

/// Result of a substitution request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpareOutcome {
    /// A spare was attached; the caller should reprogram and re-point its
    /// shards at `new_id`.
    Attached {
        /// Chip-global id of the newly attached tile.
        new_id: usize,
    },
    /// The spare pool is empty; the tile was *not* retired (a degraded
    /// tile still computes better than a missing one).
    Exhausted,
}

#[derive(Debug, Clone)]
struct ChipMetrics {
    recorder: obs::Recorder,
    retired: obs::Counter,
    attached: obs::Counter,
    spares_remaining: obs::Gauge,
    campaigns: obs::Counter,
}

/// The chip: a pool of tiles, a spare budget, and the retirement policy.
#[derive(Debug, Clone)]
pub struct TiledChip {
    config: ChipConfig,
    slots: Vec<TileSlot>,
    tile_counter: u64,
    spares_remaining: usize,
    spares_attached: u64,
    metrics: Option<ChipMetrics>,
}

impl TiledChip {
    /// Builds an empty chip from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::InvalidConfig`] for a zero tile size, fewer
    /// than two levels, or an out-of-range retirement density.
    pub fn new(config: ChipConfig) -> Result<Self, TileError> {
        config.validate()?;
        Ok(TiledChip {
            config,
            slots: Vec::new(),
            tile_counter: 0,
            spares_remaining: config.spare_tiles,
            spares_attached: 0,
            metrics: None,
        })
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Instruments the chip (and every current tile) with telemetry:
    /// `tile_retired_total` / `tile_spares_attached_total` counters, the
    /// `tile_spares_remaining` gauge, a `tile_campaigns_total` counter,
    /// and [`obs::Event::TileRetired`] / [`obs::Event::SpareAttached`]
    /// events on retirement and substitution.
    pub fn attach_recorder(&mut self, recorder: &obs::Recorder) {
        let m = ChipMetrics {
            recorder: recorder.clone(),
            retired: recorder.counter("tile_retired_total"),
            attached: recorder.counter("tile_spares_attached_total"),
            spares_remaining: recorder.gauge("tile_spares_remaining"),
            campaigns: recorder.counter("tile_campaigns_total"),
        };
        m.spares_remaining.set(self.spares_remaining as f64);
        for slot in &mut self.slots {
            slot.xbar.attach_recorder(recorder);
        }
        self.metrics = Some(m);
    }

    /// Allocates a fresh tile of the given dimensions (clamped to the
    /// nominal tile size by callers; the chip itself allows any dims up to
    /// `tile_size` per edge) and returns its chip-global id.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::InvalidConfig`] for dimensions exceeding the
    /// nominal tile, and propagates device build errors.
    pub fn allocate(&mut self, rows: usize, cols: usize) -> Result<usize, TileError> {
        if rows == 0 || cols == 0 || rows > self.config.tile_size || cols > self.config.tile_size {
            return Err(TileError::InvalidConfig(format!(
                "tile dims {rows}x{cols} outside 1..={}",
                self.config.tile_size
            )));
        }
        self.tile_counter += 1;
        let mut builder = CrossbarBuilder::new(rows, cols)
            .levels(self.config.levels)
            .endurance(self.config.endurance)
            .variation(self.config.variation)
            .seed(
                self.config
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(self.tile_counter),
            );
        if let Some(injection) = self.config.injection {
            builder = builder.initial_fault_injection(injection);
        }
        let mut xbar = builder.build().map_err(TileError::Rram)?;
        if let Some(m) = &self.metrics {
            xbar.attach_recorder(&m.recorder);
        }
        let id = self.slots.len();
        self.slots.push(TileSlot {
            id,
            xbar,
            retired: false,
            spare_origin: None,
            last_detection: None,
            last_campaign_error: None,
            store: None,
        });
        Ok(id)
    }

    /// Number of tile slots ever allocated (retired slots included).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Ids of tiles currently in service, ascending.
    pub fn active_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|s| !s.retired)
            .map(|s| s.id)
            .collect()
    }

    /// Spares left in the pool.
    pub fn spares_remaining(&self) -> usize {
        self.spares_remaining
    }

    /// Spares attached so far.
    pub fn spares_attached(&self) -> u64 {
        self.spares_attached
    }

    /// Tiles retired so far.
    pub fn tiles_retired(&self) -> u64 {
        self.slots.iter().filter(|s| s.retired).count() as u64
    }

    /// Shared view of a tile slot.
    pub fn slot(&self, id: usize) -> Result<&TileSlot, TileError> {
        self.slots.get(id).ok_or(TileError::UnknownTile { id })
    }

    /// Shared view of a tile's array.
    pub fn tile(&self, id: usize) -> Result<&Crossbar, TileError> {
        self.slot(id).map(|s| &s.xbar)
    }

    /// Exclusive view of a tile's array.
    ///
    /// # Errors
    ///
    /// Unknown ids error; retired tiles are still accessible (their state
    /// is frozen but readable — post-mortems read retired tiles).
    pub fn tile_mut(&mut self, id: usize) -> Result<&mut Crossbar, TileError> {
        let slot = self
            .slots
            .get_mut(id)
            .ok_or(TileError::UnknownTile { id })?;
        Ok(&mut slot.xbar)
    }

    /// Ground-truth fault density of a tile (simulator-only knowledge).
    pub fn fault_density(&self, id: usize) -> Result<f64, TileError> {
        Ok(self.slot(id)?.xbar.fault_map().fraction_faulty())
    }

    /// Predicted fault density of a tile from its last campaign.
    pub fn predicted_fault_density(&self, id: usize) -> Result<Option<f64>, TileError> {
        Ok(self.slot(id)?.predicted_fault_density())
    }

    /// The last campaign outcome of a tile.
    pub fn last_detection(&self, id: usize) -> Result<Option<&DetectionOutcome>, TileError> {
        Ok(self.slot(id)?.last_detection.as_ref())
    }

    /// Runs the §4 quiescent-voltage campaign on each listed tile,
    /// tile-locally: every tile gets its own campaign, so comparison
    /// groups (Tr/Tc) never span tile edges. Each tile keeps a persistent
    /// [`OffChipStore`]: its first campaign attaches the store (a full
    /// snapshot read) and tests every cell; later campaigns re-read and
    /// retest only the cells written since, carrying the tile's last
    /// predicted map forward for untouched cells. Campaigns fan out across
    /// the [`par`] thread budget; results are stored on the slots and
    /// aggregated in ascending id order, so the stats (and any recorder
    /// counters the detector carries) are deterministic at any thread
    /// count. Retired and unknown ids are skipped silently — schedulers
    /// may race retirement.
    pub fn run_campaigns(
        &mut self,
        detector: &OnlineFaultDetector,
        ids: &[usize],
    ) -> CampaignStats {
        let selected: BTreeSet<usize> = ids.iter().copied().collect();
        let campaign_ops = 8 * self.config.tile_size * self.config.tile_size;
        par::for_each_chunk_mut(&mut self.slots, campaign_ops, |_, slots| {
            for slot in slots {
                if slot.retired || !selected.contains(&slot.id) {
                    continue;
                }
                let baseline = slot.last_detection.as_ref().map(|d| &d.predicted);
                match detector.run_on_store(&mut slot.xbar, &mut slot.store, baseline) {
                    Ok(outcome) => {
                        slot.last_detection = Some(outcome);
                        slot.last_campaign_error = None;
                    }
                    Err(e) => {
                        slot.last_campaign_error = Some(e);
                    }
                }
            }
        });
        let mut stats = CampaignStats::default();
        for &id in &selected {
            let Some(slot) = self.slots.get(id) else {
                continue;
            };
            if slot.retired {
                continue;
            }
            if slot.last_campaign_error.is_some() {
                stats.failed_tiles += 1;
                continue;
            }
            let Some(outcome) = &slot.last_detection else {
                continue;
            };
            stats.campaigns_run += 1;
            stats.cycles += outcome.cycles();
            stats.write_pulses += outcome.write_pulses;
            stats.flagged_cells += outcome.predicted.count_faulty() as u64;
            stats.untested_groups += outcome.untested_groups;
        }
        if let Some(m) = &self.metrics {
            m.campaigns.add(stats.campaigns_run);
        }
        stats
    }

    /// Active tiles whose *predicted* fault density is at or above the
    /// threshold, ascending by id. Tiles never tested are never flagged
    /// (retirement is driven by detection, exactly like remapping).
    pub fn tiles_over_density(&self, threshold: f64) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|s| !s.retired)
            .filter(|s| s.predicted_fault_density().is_some_and(|d| d >= threshold))
            .map(|s| s.id)
            .collect()
    }

    /// Retires a tile and attaches a spare of the same dimensions in its
    /// place. On success the caller owns reprogramming the new tile and
    /// re-pointing shards at `new_id`. With an empty spare pool the tile
    /// is left in service and [`SpareOutcome::Exhausted`] is returned.
    ///
    /// Spares are *factory-screened*: the manufacture-time fault injection
    /// models defects in the arrays as shipped, and the held-back spare
    /// pool only keeps tiles that passed screening — so a fresh spare
    /// starts fault-free (it still wears out under writes like any tile).
    ///
    /// Emits [`obs::Event::TileRetired`] and [`obs::Event::SpareAttached`]
    /// (sequential spine only — never called from worker threads).
    ///
    /// # Errors
    ///
    /// Unknown ids and already-retired tiles error; spare allocation
    /// failures propagate from the device layer.
    pub fn substitute(&mut self, id: usize) -> Result<SpareOutcome, TileError> {
        let slot = self.slots.get(id).ok_or(TileError::UnknownTile { id })?;
        if slot.retired {
            return Err(TileError::TileRetired { id });
        }
        if self.spares_remaining == 0 {
            return Ok(SpareOutcome::Exhausted);
        }
        let (rows, cols) = (slot.xbar.rows(), slot.xbar.cols());
        let cells = slot.cells() as u64;
        let faulty = slot
            .last_detection
            .as_ref()
            .map(|d| d.predicted.count_faulty() as u64)
            .unwrap_or(0);
        let density = if cells == 0 {
            0.0
        } else {
            faulty as f64 / cells as f64
        };

        // Screened pool: allocate the spare without manufacture-time
        // injection (restored for any later non-spare allocations).
        let saved_injection = self.config.injection.take();
        let allocated = self.allocate(rows, cols);
        self.config.injection = saved_injection;
        let new_id = allocated?;
        self.spares_remaining -= 1;
        self.spares_attached += 1;
        // In bounds: `id` was validated above and allocate only appends.
        // The retired tile's store describes an array no campaign reads
        // again; the spare attaches its own on its first (verify) campaign.
        self.slots[id].retired = true;
        self.slots[id].store = None;
        self.slots[new_id].spare_origin = Some(id);
        if let Some(m) = &self.metrics {
            m.retired.inc();
            m.attached.inc();
            m.spares_remaining.set(self.spares_remaining as f64);
            m.recorder.emit(obs::Event::TileRetired {
                tile: id as u64,
                faulty_cells: faulty,
                fault_density: density,
            });
            m.recorder.emit(obs::Event::SpareAttached {
                tile: new_id as u64,
                replaced: id as u64,
                spares_remaining: self.spares_remaining as u64,
            });
        }
        Ok(SpareOutcome::Attached { new_id })
    }

    /// Total write pulses over *all* slots, retired included (the chip's
    /// logical write-pulse clock must be monotonic across retirement).
    pub fn total_write_pulses(&self) -> u64 {
        self.slots.iter().map(|s| s.xbar.write_pulses()).sum()
    }

    /// Total endurance wear-out faults over all slots, retired included.
    pub fn wear_faults(&self) -> u64 {
        self.slots.iter().map(|s| s.xbar.wear_faults()).sum()
    }

    /// Per-tile health snapshot, ascending by id (retired slots included,
    /// marked). See [`TileHealth`] for the scoring model.
    pub fn health_report(&self) -> Vec<TileHealth> {
        self.slots.iter().map(TileHealth::from_slot).collect()
    }

    /// Captures the complete serializable state of the chip (checkpoint).
    ///
    /// [`TileHealth`] is a derived view and is not captured; telemetry
    /// handles are not captured either (re-attach with
    /// [`TiledChip::attach_recorder`] after restoring). A pending
    /// `last_campaign_error` is dropped: at a healthy iteration boundary it
    /// is `None` (successful campaigns clear it), and errors are not
    /// actionable across a process restart.
    pub fn export_state(&self) -> ChipState {
        ChipState {
            slots: self
                .slots
                .iter()
                .map(|s| TileSlotState {
                    id: s.id,
                    xbar: s.xbar.export_state(),
                    retired: s.retired,
                    spare_origin: s.spare_origin,
                    last_detection: s.last_detection.as_ref().map(DetectionState::from_outcome),
                    store: s.store.as_ref().map(OffChipStore::export_state),
                })
                .collect(),
            tile_counter: self.tile_counter,
            spares_remaining: self.spares_remaining,
            spares_attached: self.spares_attached,
        }
    }

    /// Rebuilds a chip from a previously captured [`ChipState`].
    ///
    /// `config` is configuration (not state) and comes from the caller,
    /// exactly as at build time — including the device models handed to
    /// each restored tile.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::InvalidConfig`] when the state is incoherent
    /// (slot ids out of order, a spare origin pointing at no slot, stores
    /// or detection maps whose dimensions disagree with their tile), and
    /// propagates device-layer restore errors.
    pub fn restore_state(config: ChipConfig, state: &ChipState) -> Result<Self, TileError> {
        config.validate()?;
        let mut slots = Vec::with_capacity(state.slots.len());
        for (i, s) in state.slots.iter().enumerate() {
            if s.id != i {
                return Err(TileError::InvalidConfig(format!(
                    "snapshot slot {i} carries id {} — slots must be id-ordered",
                    s.id
                )));
            }
            if let Some(origin) = s.spare_origin {
                if origin >= state.slots.len() {
                    return Err(TileError::InvalidConfig(format!(
                        "snapshot slot {i} spare origin {origin} out of range"
                    )));
                }
            }
            let xbar = Crossbar::restore_state(&s.xbar, config.endurance, config.variation)
                .map_err(TileError::Rram)?;
            let last_detection = match &s.last_detection {
                Some(d) => Some(d.to_outcome(xbar.rows(), xbar.cols())?),
                None => None,
            };
            let store = match &s.store {
                Some(st) => {
                    if st.rows != xbar.rows() || st.cols != xbar.cols() {
                        return Err(TileError::InvalidConfig(format!(
                            "snapshot slot {i} store is {}x{} for a {}x{} tile",
                            st.rows,
                            st.cols,
                            xbar.rows(),
                            xbar.cols()
                        )));
                    }
                    Some(OffChipStore::restore_state(st).map_err(TileError::Rram)?)
                }
                None => None,
            };
            slots.push(TileSlot {
                id: s.id,
                xbar,
                retired: s.retired,
                spare_origin: s.spare_origin,
                last_detection,
                last_campaign_error: None,
                store,
            });
        }
        Ok(TiledChip {
            config,
            slots,
            tile_counter: state.tile_counter,
            spares_remaining: state.spares_remaining,
            spares_attached: state.spares_attached,
            metrics: None,
        })
    }
}

/// Serializable form of a [`DetectionOutcome`]; the predicted map is
/// stored as its faulty-cell list and rebuilt against the tile geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionState {
    /// Faulty cells of the predicted map: `(row, col, kind)`.
    pub faults: Vec<(usize, usize, FaultKind)>,
    /// See [`DetectionOutcome::sa0_cycles`].
    pub sa0_cycles: u64,
    /// See [`DetectionOutcome::sa1_cycles`].
    pub sa1_cycles: u64,
    /// See [`DetectionOutcome::write_pulses`].
    pub write_pulses: u64,
    /// See [`DetectionOutcome::sa0_candidates`].
    pub sa0_candidates: usize,
    /// See [`DetectionOutcome::sa1_candidates`].
    pub sa1_candidates: usize,
    /// See [`DetectionOutcome::untested_groups`].
    pub untested_groups: u64,
    /// See [`DetectionOutcome::store_read_cells`].
    pub store_read_cells: u64,
    /// See [`DetectionOutcome::store_read_cycles`].
    pub store_read_cycles: u64,
}

impl DetectionState {
    /// Captures an outcome.
    pub fn from_outcome(o: &DetectionOutcome) -> Self {
        DetectionState {
            faults: o.predicted.iter_faulty().collect(),
            sa0_cycles: o.sa0_cycles,
            sa1_cycles: o.sa1_cycles,
            write_pulses: o.write_pulses,
            sa0_candidates: o.sa0_candidates,
            sa1_candidates: o.sa1_candidates,
            untested_groups: o.untested_groups,
            store_read_cells: o.store_read_cells,
            store_read_cycles: o.store_read_cycles,
        }
    }

    /// Rebuilds the outcome against the tile's geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::InvalidConfig`] for out-of-bounds fault
    /// coordinates.
    pub fn to_outcome(&self, rows: usize, cols: usize) -> Result<DetectionOutcome, TileError> {
        let mut predicted = FaultMap::healthy(rows, cols);
        for &(r, c, kind) in &self.faults {
            if r >= rows || c >= cols {
                return Err(TileError::InvalidConfig(format!(
                    "snapshot detection fault ({r}, {c}) outside {rows}x{cols}"
                )));
            }
            predicted.set(r, c, Some(kind));
        }
        Ok(DetectionOutcome {
            predicted,
            sa0_cycles: self.sa0_cycles,
            sa1_cycles: self.sa1_cycles,
            write_pulses: self.write_pulses,
            sa0_candidates: self.sa0_candidates,
            sa1_candidates: self.sa1_candidates,
            untested_groups: self.untested_groups,
            store_read_cells: self.store_read_cells,
            store_read_cycles: self.store_read_cycles,
        })
    }
}

/// Serializable state of one [`TileSlot`]; see [`TiledChip::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileSlotState {
    /// Chip-global tile id (must equal the slot's position).
    pub id: usize,
    /// The physical array's state.
    pub xbar: CrossbarState,
    /// Whether the tile is retired.
    pub retired: bool,
    /// When a spare, the id of the replaced tile.
    pub spare_origin: Option<usize>,
    /// Last campaign outcome, if any.
    pub last_detection: Option<DetectionState>,
    /// Persistent off-chip reference store, if a campaign attached one.
    pub store: Option<StoreState>,
}

/// Complete serializable state of a [`TiledChip`]; see
/// [`TiledChip::export_state`] / [`TiledChip::restore_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipState {
    /// Every slot ever allocated, in id order (retired included).
    pub slots: Vec<TileSlotState>,
    /// The chip-global allocation counter (drives per-tile seeds).
    pub tile_counter: u64,
    /// Spares left in the pool.
    pub spares_remaining: usize,
    /// Spares attached so far.
    pub spares_attached: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultdet::detector::DetectorConfig;
    use rram::spatial::SpatialDistribution;

    fn chip(spares: usize) -> TiledChip {
        TiledChip::new(ChipConfig::new(8, 8, 42).with_spare_tiles(spares)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TiledChip::new(ChipConfig::new(0, 8, 1)).is_err());
        assert!(TiledChip::new(ChipConfig::new(8, 1, 1)).is_err());
        assert!(TiledChip::new(ChipConfig::new(8, 8, 1).with_retire_fault_density(0.0)).is_err());
        assert!(TiledChip::new(ChipConfig::new(8, 8, 1).with_retire_fault_density(1.5)).is_err());
        assert!(TiledChip::new(ChipConfig::new(8, 8, 1).with_retire_fault_density(1.0)).is_ok());
    }

    #[test]
    fn allocation_bounds_and_ids() {
        let mut c = chip(0);
        assert!(c.allocate(9, 4).is_err());
        assert!(c.allocate(0, 4).is_err());
        let a = c.allocate(8, 8).unwrap();
        let b = c.allocate(3, 5).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(c.slot_count(), 2);
        assert_eq!(c.active_ids(), vec![0, 1]);
        assert_eq!(c.tile(b).unwrap().rows(), 3);
        assert!(c.tile(7).is_err());
    }

    #[test]
    fn seed_stream_matches_monolithic_formula() {
        // Two chips with the same seed allocate identical tiles.
        let mut a = chip(0);
        let mut b = chip(0);
        let ia = a.allocate(8, 8).unwrap();
        let ib = b.allocate(8, 8).unwrap();
        a.tile_mut(ia).unwrap().write_analog(0, 0, 0.5).unwrap();
        b.tile_mut(ib).unwrap().write_analog(0, 0, 0.5).unwrap();
        assert_eq!(
            a.tile(ia).unwrap().conductance(0, 0).unwrap().to_bits(),
            b.tile(ib).unwrap().conductance(0, 0).unwrap().to_bits()
        );
    }

    #[test]
    fn substitution_retires_and_attaches() {
        let mut c = chip(2);
        let id = c.allocate(4, 4).unwrap();
        match c.substitute(id).unwrap() {
            SpareOutcome::Attached { new_id } => {
                assert_eq!(new_id, 1);
                assert!(c.slot(id).unwrap().retired);
                assert_eq!(c.slot(new_id).unwrap().spare_origin, Some(id));
                assert_eq!(c.spares_remaining(), 1);
                assert_eq!(c.tiles_retired(), 1);
                assert_eq!(c.active_ids(), vec![new_id]);
            }
            SpareOutcome::Exhausted => panic!("spares available"),
        }
        // Retired tiles refuse a second retirement.
        assert!(matches!(
            c.substitute(id),
            Err(TileError::TileRetired { .. })
        ));
    }

    #[test]
    fn exhausted_pool_degrades() {
        let mut c = chip(0);
        let id = c.allocate(4, 4).unwrap();
        assert_eq!(c.substitute(id).unwrap(), SpareOutcome::Exhausted);
        assert!(!c.slot(id).unwrap().retired, "tile stays in service");
    }

    #[test]
    fn campaigns_store_outcomes_and_skip_retired() {
        let injection = FaultInjection::new(SpatialDistribution::Uniform, 0.2).unwrap();
        let mut c = TiledChip::new(
            ChipConfig::new(8, 8, 7)
                .with_injection(injection)
                .with_spare_tiles(1),
        )
        .unwrap();
        let a = c.allocate(8, 8).unwrap();
        let b = c.allocate(8, 6).unwrap();
        let det = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let stats = c.run_campaigns(&det, &[a, b, 99]);
        assert_eq!(stats.campaigns_run, 2);
        assert_eq!(stats.failed_tiles, 0);
        assert!(stats.cycles > 0);
        // test_size=1 detection is exact: predicted density == ground truth.
        for id in [a, b] {
            let predicted = c.predicted_fault_density(id).unwrap().unwrap();
            assert!((predicted - c.fault_density(id).unwrap()).abs() < 1e-12);
        }
        // Retire `a`; a rerun skips it.
        c.substitute(a).unwrap();
        let stats = c.run_campaigns(&det, &[a, b]);
        assert_eq!(stats.campaigns_run, 1);
        // Over-density query sees only active, tested tiles.
        let over = c.tiles_over_density(0.0);
        assert_eq!(over, vec![b]);
    }

    #[test]
    fn first_campaign_matches_run_then_warm_ones_get_cheaper() {
        let injection = FaultInjection::new(SpatialDistribution::Uniform, 0.1).unwrap();
        let mut chip = TiledChip::new(ChipConfig::new(8, 8, 13).with_injection(injection)).unwrap();
        let a = chip.allocate(8, 8).unwrap();
        let det = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());

        // A fresh tile's campaign attaches the store and is a standalone
        // `run`, snapshot read included.
        let one_shot = det.run(&mut chip.tile(a).unwrap().clone()).unwrap();
        let first = chip.run_campaigns(&det, &[a]);
        assert_eq!(chip.last_detection(a).unwrap(), Some(&one_shot));
        assert_eq!(first.cycles, one_shot.cycles());
        assert_eq!(first.write_pulses, one_shot.write_pulses);
        assert_eq!(
            first.flagged_cells,
            one_shot.predicted.count_faulty() as u64
        );

        // With no writes since, nothing is pending: the rerun is free and
        // the previous verdicts carry over.
        let second = chip.run_campaigns(&det, &[a]);
        assert_eq!(second.cycles, 0);
        assert_eq!(second.write_pulses, 0);
        assert_eq!(second.flagged_cells, first.flagged_cells);

        // A sparse write makes its cell pending again.
        chip.tile_mut(a).unwrap().write_level(0, 0, 5).unwrap();
        let third = chip.run_campaigns(&det, &[a]);
        assert!(third.cycles > 0);
        assert!(third.cycles < first.cycles);
    }

    #[test]
    fn aggregates_cover_retired_slots() {
        let mut c = chip(1);
        let id = c.allocate(4, 4).unwrap();
        c.tile_mut(id).unwrap().write_analog(0, 0, 0.7).unwrap();
        let before = c.total_write_pulses();
        assert!(before > 0);
        c.substitute(id).unwrap();
        assert!(
            c.total_write_pulses() >= before,
            "retired pulses stay counted"
        );
    }

    #[test]
    fn chip_state_roundtrip_is_lossless() {
        let injection = FaultInjection::new(SpatialDistribution::Uniform, 0.15).unwrap();
        let cfg = ChipConfig::new(8, 8, 21)
            .with_injection(injection)
            .with_spare_tiles(2)
            .with_retire_fault_density(0.5);
        let mut c = TiledChip::new(cfg).unwrap();
        let a = c.allocate(8, 8).unwrap();
        let b = c.allocate(6, 8).unwrap();
        let det = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        c.run_campaigns(&det, &[a, b]);
        c.tile_mut(a).unwrap().write_level(0, 0, 5).unwrap();
        c.substitute(b).unwrap();

        let st = c.export_state();
        let mut back = TiledChip::restore_state(cfg, &st).unwrap();
        assert_eq!(back.slot_count(), c.slot_count());
        assert_eq!(back.active_ids(), c.active_ids());
        assert_eq!(back.spares_remaining(), c.spares_remaining());
        assert_eq!(back.spares_attached(), c.spares_attached());
        assert_eq!(back.total_write_pulses(), c.total_write_pulses());
        assert_eq!(back.export_state(), st, "double roundtrip is lossless");

        // Identical future behavior: the same warm campaign on both chips
        // produces identical stats and predictions.
        c.tile_mut(a).unwrap().write_level(1, 1, 3).unwrap();
        back.tile_mut(a).unwrap().write_level(1, 1, 3).unwrap();
        let s1 = c.run_campaigns(&det, &[a]);
        let s2 = back.run_campaigns(&det, &[a]);
        assert_eq!(s1, s2);
        assert_eq!(
            c.slot(a)
                .unwrap()
                .last_detection
                .as_ref()
                .map(|d| &d.predicted),
            back.slot(a)
                .unwrap()
                .last_detection
                .as_ref()
                .map(|d| &d.predicted)
        );
    }

    #[test]
    fn restore_state_rejects_incoherent_chips() {
        let cfg = ChipConfig::new(8, 8, 3);
        let mut c = TiledChip::new(cfg).unwrap();
        c.allocate(4, 4).unwrap();
        let good = c.export_state();
        assert!(TiledChip::restore_state(cfg, &good).is_ok());

        let mut bad = good.clone();
        bad.slots[0].id = 7;
        assert!(TiledChip::restore_state(cfg, &bad).is_err());

        let mut bad = good.clone();
        bad.slots[0].spare_origin = Some(9);
        assert!(TiledChip::restore_state(cfg, &bad).is_err());

        let mut bad = good;
        bad.slots[0].last_detection = Some(DetectionState {
            faults: vec![(99, 0, rram::fault::FaultKind::StuckAt0)],
            sa0_cycles: 0,
            sa1_cycles: 0,
            write_pulses: 0,
            sa0_candidates: 0,
            sa1_candidates: 0,
            untested_groups: 0,
            store_read_cells: 0,
            store_read_cycles: 0,
        });
        assert!(TiledChip::restore_state(cfg, &bad).is_err());
    }

    #[test]
    fn substitute_drops_the_retired_store_and_verify_warms_the_spare() {
        let injection = FaultInjection::new(SpatialDistribution::Uniform, 0.3).unwrap();
        let mut c = TiledChip::new(
            ChipConfig::new(8, 8, 5)
                .with_injection(injection)
                .with_spare_tiles(1),
        )
        .unwrap();
        let id = c.allocate(8, 8).unwrap();
        let det = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        c.run_campaigns(&det, &[id]);
        assert!(c.slot(id).unwrap().store.is_some());

        let SpareOutcome::Attached { new_id } = c.substitute(id).unwrap() else {
            panic!("spare available");
        };
        assert!(c.slot(id).unwrap().store.is_none(), "stale store dropped");
        assert!(c.slot(new_id).unwrap().store.is_none());
        // Verifying the screened spare (as apply_sparing does) attaches its
        // store and leaves nothing pending: the next campaign starts warm.
        let verify = c.run_campaigns(&det, &[new_id]);
        assert_eq!(
            c.last_detection(new_id).unwrap().unwrap().store_read_cells,
            64,
            "the verify campaign pays the attach read"
        );
        assert!(verify.cycles > 0);
        let spare_store = c.slot(new_id).unwrap().store.as_ref().unwrap();
        assert_eq!(spare_store.pending_count(), 0, "verified baseline is warm");
    }

    #[test]
    fn recorder_events_and_counters() {
        let rec = obs::Recorder::deterministic();
        let mut c = chip(1);
        c.attach_recorder(&rec);
        let id = c.allocate(4, 4).unwrap();
        c.substitute(id).unwrap();
        assert_eq!(rec.events_of_kind(obs::EventKind::TileRetired), 1);
        assert_eq!(rec.events_of_kind(obs::EventKind::SpareAttached), 1);
    }
}
