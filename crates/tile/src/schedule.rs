//! Per-tile detection scheduling.
//!
//! On a tiled chip, test time is a per-array budget: running the §4
//! quiescent-voltage campaign on every tile every interval wastes cycles
//! on healthy tiles while a wearing tile waits its turn. The scheduler
//! decides *which* tiles get this interval's campaigns: a fixed-size
//! window rotates over the active tiles, so every tile is tested once per
//! full rotation; the chip runs the campaigns tile-locally (comparison
//! groups never span tile edges). The selection is a deterministic
//! function of the chip's active set and the scheduler's own state — no
//! randomness, no wall time.
//!
//! # Traffic lulls
//!
//! A chip that also serves live traffic cannot test a tile while requests
//! are flowing through it: a campaign overwrites cells with test patterns
//! and restores them, so it must run in a *lull*. The scheduler accepts an
//! idle-pressure input ([`DetectionScheduler::note_traffic`]): callers
//! report, per logical tick, whether each tile carried traffic.
//! [`DetectionScheduler::select`] keeps a windowed tile only once it has
//! been idle for [`LullConfig`]'s `idle_threshold` consecutive ticks —
//! **or** once the lull filter has deferred it `max_defer` times, the
//! anti-starvation escape hatch that guarantees a saturated tile still
//! gets tested at a bounded (if reduced) cadence. Tiles never reported on
//! are treated as idle, so a scheduler without traffic input selects the
//! plain rotating window.

use std::collections::BTreeMap;

use crate::chip::TiledChip;
use crate::error::TileError;

/// Lull-scheduling thresholds (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LullConfig {
    /// Consecutive idle ticks before a tile counts as in a lull.
    pub idle_threshold: u32,
    /// Deferred selections after which a busy tile is tested anyway
    /// (anti-starvation bound; `0` disables the lull filter entirely).
    pub max_defer: u32,
}

/// Per-tile idle-pressure state the lull filter accumulates.
#[derive(Debug, Clone, Copy, Default)]
struct TilePressure {
    /// Consecutive ticks without reported traffic.
    idle_ticks: u32,
    /// Window selections the lull filter has vetoed since the tile's
    /// last campaign.
    deferred: u32,
}

/// Stateful per-tile campaign scheduler: a rotating window gated by the
/// lull filter.
#[derive(Debug, Clone)]
pub struct DetectionScheduler {
    /// Tiles in the window each selection (≥ 1).
    tiles_per_campaign: usize,
    cursor: usize,
    lull: LullConfig,
    /// Idle pressure per tile id (`BTreeMap`: deterministic iteration).
    pressure: BTreeMap<usize, TilePressure>,
}

impl DetectionScheduler {
    /// Builds a scheduler whose window covers `tiles_per_campaign` active
    /// tiles per selection, gated by the `lull` filter.
    ///
    /// # Errors
    ///
    /// Rejects a zero `tiles_per_campaign` (a schedule that never tests
    /// anything is a misconfiguration, not a policy).
    pub fn new(tiles_per_campaign: usize, lull: LullConfig) -> Result<Self, TileError> {
        if tiles_per_campaign == 0 {
            return Err(TileError::InvalidConfig(
                "tiles_per_campaign must be >= 1".into(),
            ));
        }
        Ok(DetectionScheduler {
            tiles_per_campaign,
            cursor: 0,
            lull,
            pressure: BTreeMap::new(),
        })
    }

    /// Reports one logical tick of traffic state for `tile`: `busy`
    /// resets its idle streak, idle extends it. Call once per tile per
    /// tick; tiles never reported on are treated as always idle.
    pub fn note_traffic(&mut self, tile: usize, busy: bool) {
        let p = self.pressure.entry(tile).or_default();
        if busy {
            p.idle_ticks = 0;
        } else {
            p.idle_ticks = p.idle_ticks.saturating_add(1);
        }
    }

    /// Whether the lull filter keeps `tile` this selection. Mutates the
    /// tile's deferred counter: a veto increments it, a pass resets both
    /// counters (the campaign occupies the tile, ending its lull).
    fn lull_keeps(&mut self, tile: usize) -> bool {
        let lull = self.lull;
        if lull.max_defer == 0 {
            return true;
        }
        // A tile with no traffic reports has no known load: eligible, so
        // a scheduler without traffic input selects the plain window.
        let Some(p) = self.pressure.get_mut(&tile) else {
            return true;
        };
        if p.idle_ticks >= lull.idle_threshold || p.deferred >= lull.max_defer {
            p.idle_ticks = 0;
            p.deferred = 0;
            true
        } else {
            p.deferred = p.deferred.saturating_add(1);
            false
        }
    }

    /// Picks this interval's tiles from the chip's active set: the next
    /// window of the rotation, minus the tiles the lull filter defers.
    /// Pure with respect to the chip; advances only the scheduler's own
    /// cursor and idle-pressure state.
    pub fn select(&mut self, chip: &TiledChip) -> Vec<usize> {
        let active = chip.active_ids();
        if active.is_empty() {
            return Vec::new();
        }
        let take = self.tiles_per_campaign.min(active.len());
        let start = self.cursor % active.len();
        self.cursor = (start + take) % active.len();
        (0..take)
            .map(|i| active[(start + i) % active.len()])
            .filter(|&id| self.lull_keeps(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;

    fn chip_with(n: usize) -> TiledChip {
        let mut c = TiledChip::new(ChipConfig::new(8, 8, 11).with_spare_tiles(1)).unwrap();
        for _ in 0..n {
            c.allocate(8, 8).unwrap();
        }
        c
    }

    /// A scheduler whose lull filter never vetoes (`max_defer == 0`).
    fn unfiltered(window: usize) -> DetectionScheduler {
        let lull = LullConfig {
            idle_threshold: 0,
            max_defer: 0,
        };
        DetectionScheduler::new(window, lull).unwrap()
    }

    /// A scheduler whose window covers every tile of a small chip, so each
    /// selection is decided by the lull filter alone.
    fn lull_only(idle_threshold: u32, max_defer: u32) -> DetectionScheduler {
        let lull = LullConfig {
            idle_threshold,
            max_defer,
        };
        DetectionScheduler::new(usize::MAX, lull).unwrap()
    }

    #[test]
    fn zero_window_rejected() {
        let lull = LullConfig {
            idle_threshold: 1,
            max_defer: 1,
        };
        assert!(DetectionScheduler::new(0, lull).is_err());
        assert!(DetectionScheduler::new(1, lull).is_ok());
    }

    #[test]
    fn window_rotates_and_wraps() {
        let c = chip_with(5);
        let mut s = unfiltered(2);
        assert_eq!(s.select(&c), vec![0, 1]);
        assert_eq!(s.select(&c), vec![2, 3]);
        assert_eq!(s.select(&c), vec![4, 0]);
        assert_eq!(s.select(&c), vec![1, 2]);
    }

    #[test]
    fn window_follows_the_active_set() {
        let mut c = chip_with(3);
        let mut s = unfiltered(8);
        assert_eq!(s.select(&c), vec![0, 1, 2]);
        c.substitute(1).unwrap();
        assert_eq!(s.select(&c), vec![0, 2, 3]);
    }

    #[test]
    fn lull_gates_on_idle_streaks() {
        let c = chip_with(2);
        let mut s = lull_only(2, 10);
        // One idle tick is not a lull yet; two are.
        s.note_traffic(0, false);
        s.note_traffic(1, false);
        assert_eq!(s.select(&c), Vec::<usize>::new());
        s.note_traffic(0, false);
        s.note_traffic(1, true); // tile 1's streak resets
        assert_eq!(s.select(&c), vec![0]);
        // A selection consumes the lull: tile 0 must idle again.
        s.note_traffic(0, false);
        assert_eq!(s.select(&c), Vec::<usize>::new());
    }

    #[test]
    fn lull_filters_the_rotating_window() {
        // A deferred tile leaves the window like any other: the cursor
        // moves on, and the tile waits for its next turn.
        let c = chip_with(4);
        let lull = LullConfig {
            idle_threshold: 1,
            max_defer: 5,
        };
        let mut s = DetectionScheduler::new(2, lull).unwrap();
        for tile in 0..4 {
            s.note_traffic(tile, tile == 1);
        }
        assert_eq!(s.select(&c), vec![0]);
        assert_eq!(s.select(&c), vec![2, 3]);
    }

    #[test]
    fn unreported_tiles_stay_eligible() {
        let c = chip_with(2);
        let mut s = lull_only(5, 3);
        // No note_traffic calls at all: the lull filter is a no-op and
        // the window alone decides.
        assert_eq!(s.select(&c), vec![0, 1]);
        assert_eq!(s.select(&c), vec![0, 1]);
    }

    #[test]
    fn saturated_tile_defers_but_never_starves() {
        // The regression this feature exists for: a tile under constant
        // traffic must be deferred (campaigns need a lull) but still be
        // tested after a bounded number of vetoes.
        let c = chip_with(2);
        let mut s = lull_only(2, 3);
        let mut tile0_selected = Vec::new();
        for round in 0..8 {
            // Tile 0 is saturated every tick; tile 1 is always idle.
            s.note_traffic(0, true);
            s.note_traffic(1, false);
            s.note_traffic(0, true);
            s.note_traffic(1, false);
            let picked = s.select(&c);
            assert!(picked.contains(&1), "idle tile tested every round");
            if picked.contains(&0) {
                tile0_selected.push(round);
            }
        }
        // Deferred exactly `max_defer` times, then forced in — and the
        // cycle repeats, so the saturated tile runs at 1-in-(max_defer+1)
        // cadence instead of never.
        assert_eq!(tile0_selected, vec![3, 7]);
    }

    #[test]
    fn zero_max_defer_disables_the_filter() {
        let c = chip_with(1);
        let mut s = lull_only(9, 0);
        s.note_traffic(0, true);
        assert_eq!(s.select(&c), vec![0]);
    }
}
