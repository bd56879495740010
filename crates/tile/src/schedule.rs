//! Per-tile detection scheduling.
//!
//! On a tiled chip, test time is a per-array budget: running the §4
//! quiescent-voltage campaign on every tile every interval wastes cycles
//! on healthy tiles while a wearing tile waits its turn. The scheduler
//! decides *which* tiles get this interval's campaigns; the chip runs
//! them tile-locally (comparison groups never span tile edges). All
//! policies are deterministic functions of the chip state and the
//! scheduler's own cursor — no randomness, no wall time.
//!
//! # Traffic lulls
//!
//! A chip that also serves live traffic cannot test a tile while requests
//! are flowing through it: a campaign overwrites cells with test patterns
//! and restores them, so it must run in a *lull*. The scheduler accepts an
//! idle-pressure input ([`DetectionScheduler::note_traffic`]): callers
//! report, per logical tick, whether each tile carried traffic. With a
//! [`LullConfig`] installed, [`DetectionScheduler::select`] keeps a tile
//! only once it has been idle for `idle_threshold` consecutive ticks —
//! **or** once the lull filter has deferred it `max_defer` times, the
//! anti-starvation escape hatch that guarantees a saturated tile still
//! gets tested at a bounded (if reduced) cadence. Tiles never reported on
//! are treated as idle, so a scheduler without traffic input behaves
//! exactly as before.

use std::collections::BTreeMap;

use faultdet::detector::OnlineFaultDetector;

use crate::chip::{CampaignStats, TiledChip};
use crate::error::TileError;

/// Which tiles to test each interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Test every active tile every interval (the monolithic behaviour,
    /// sharded).
    Exhaustive,
    /// Rotate a fixed-size window over the active tiles so every tile is
    /// tested once per full rotation.
    RoundRobin {
        /// Tiles tested per campaign interval (≥ 1).
        tiles_per_campaign: usize,
    },
    /// Spend the budget on the tiles most likely to have developed new
    /// faults: rank by endurance wear-outs, then write pressure, then id.
    WearRanked {
        /// Tiles tested per campaign interval (≥ 1).
        tiles_per_campaign: usize,
    },
}

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
    /// Policy selections the lull filter has vetoed since the tile's
    /// last campaign.
    deferred: u32,
}

/// Stateful per-tile campaign scheduler.
#[derive(Debug, Clone)]
pub struct DetectionScheduler {
    policy: SchedulePolicy,
    cursor: usize,
    lull: Option<LullConfig>,
    /// Idle pressure per tile id (`BTreeMap`: deterministic iteration).
    pressure: BTreeMap<usize, TilePressure>,
}

impl DetectionScheduler {
    /// Builds a scheduler.
    ///
    /// # Errors
    ///
    /// Rejects a zero `tiles_per_campaign` (a schedule that never tests
    /// anything is a misconfiguration, not a policy).
    pub fn new(policy: SchedulePolicy) -> Result<Self, TileError> {
        match policy {
            SchedulePolicy::RoundRobin { tiles_per_campaign }
            | SchedulePolicy::WearRanked { tiles_per_campaign }
                if tiles_per_campaign == 0 =>
            {
                Err(TileError::InvalidConfig(
                    "tiles_per_campaign must be >= 1".into(),
                ))
            }
            _ => Ok(DetectionScheduler {
                policy,
                cursor: 0,
                lull: None,
                pressure: BTreeMap::new(),
            }),
        }
    }

    /// Installs the lull filter: policy selections are additionally gated
    /// on per-tile idle pressure reported through
    /// [`DetectionScheduler::note_traffic`].
    pub fn with_lull(mut self, lull: LullConfig) -> Self {
        self.lull = Some(lull);
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The installed lull filter, if any.
    pub fn lull(&self) -> Option<LullConfig> {
        self.lull
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
        let Some(lull) = self.lull else {
            return true;
        };
        if lull.max_defer == 0 {
            return true;
        }
        // A tile with no traffic reports has no known load: eligible (the
        // pre-lull behaviour, so schedulers without traffic input are
        // unchanged).
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

    /// Picks this interval's tiles from the chip's active set, applying
    /// the lull filter when one is installed. Pure with respect to the
    /// chip; advances only the scheduler's own cursor and idle-pressure
    /// state.
    pub fn select(&mut self, chip: &TiledChip) -> Vec<usize> {
        let picked = self.select_by_policy(chip);
        if self.lull.is_none() {
            return picked;
        }
        picked.into_iter().filter(|&id| self.lull_keeps(id)).collect()
    }

    /// The raw policy selection, before the lull filter.
    fn select_by_policy(&mut self, chip: &TiledChip) -> Vec<usize> {
        let active = chip.active_ids();
        if active.is_empty() {
            return Vec::new();
        }
        match self.policy {
            SchedulePolicy::Exhaustive => active,
            SchedulePolicy::RoundRobin { tiles_per_campaign } => {
                let take = tiles_per_campaign.min(active.len());
                let start = self.cursor % active.len();
                self.cursor = (start + take) % active.len().max(1);
                (0..take)
                    .map(|i| active[(start + i) % active.len()])
                    .collect()
            }
            SchedulePolicy::WearRanked { tiles_per_campaign } => {
                let mut ranked: Vec<(u64, u64, usize)> = active
                    .iter()
                    .map(|&id| {
                        #[expect(
                            clippy::expect_used,
                            reason = "ids come from active_ids on this chip"
                        )]
                        let x = chip.tile(id).expect("active id exists");
                        (x.wear_faults(), x.write_pulses(), id)
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
                ranked
                    .into_iter()
                    .take(tiles_per_campaign)
                    .map(|(_, _, id)| id)
                    .collect()
            }
        }
    }

    /// Selects tiles and runs their campaigns on the chip.
    pub fn run(&mut self, chip: &mut TiledChip, detector: &OnlineFaultDetector) -> CampaignStats {
        let ids = self.select(chip);
        chip.run_campaigns(detector, &ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use faultdet::detector::DetectorConfig;

    fn chip_with(n: usize) -> TiledChip {
        let mut c = TiledChip::new(ChipConfig::new(8, 8, 11).with_spare_tiles(1)).unwrap();
        for _ in 0..n {
            c.allocate(8, 8).unwrap();
        }
        c
    }

    #[test]
    fn zero_window_rejected() {
        assert!(DetectionScheduler::new(SchedulePolicy::RoundRobin {
            tiles_per_campaign: 0
        })
        .is_err());
        assert!(DetectionScheduler::new(SchedulePolicy::WearRanked {
            tiles_per_campaign: 0
        })
        .is_err());
        assert!(DetectionScheduler::new(SchedulePolicy::Exhaustive).is_ok());
    }

    #[test]
    fn exhaustive_selects_all_active() {
        let mut c = chip_with(3);
        let mut s = DetectionScheduler::new(SchedulePolicy::Exhaustive).unwrap();
        assert_eq!(s.select(&c), vec![0, 1, 2]);
        c.substitute(1).unwrap();
        assert_eq!(s.select(&c), vec![0, 2, 3]);
    }

    #[test]
    fn round_robin_rotates_and_wraps() {
        let c = chip_with(5);
        let mut s = DetectionScheduler::new(SchedulePolicy::RoundRobin {
            tiles_per_campaign: 2,
        })
        .unwrap();
        assert_eq!(s.select(&c), vec![0, 1]);
        assert_eq!(s.select(&c), vec![2, 3]);
        assert_eq!(s.select(&c), vec![4, 0]);
        assert_eq!(s.select(&c), vec![1, 2]);
    }

    #[test]
    fn wear_ranked_prefers_worn_then_busy_tiles() {
        let mut c = chip_with(3);
        // Give tile 2 write pressure (no wear-outs: unlimited endurance).
        for _ in 0..4 {
            c.tile_mut(2).unwrap().write_analog(0, 0, 0.5).unwrap();
        }
        let mut s = DetectionScheduler::new(SchedulePolicy::WearRanked {
            tiles_per_campaign: 2,
        })
        .unwrap();
        assert_eq!(s.select(&c), vec![2, 0]);
    }

    #[test]
    fn lull_gates_on_idle_streaks() {
        let c = chip_with(2);
        let mut s = DetectionScheduler::new(SchedulePolicy::Exhaustive)
            .unwrap()
            .with_lull(LullConfig {
                idle_threshold: 2,
                max_defer: 10,
            });
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
    fn unreported_tiles_stay_eligible() {
        let c = chip_with(2);
        let mut s = DetectionScheduler::new(SchedulePolicy::Exhaustive)
            .unwrap()
            .with_lull(LullConfig {
                idle_threshold: 5,
                max_defer: 3,
            });
        // No note_traffic calls at all: lull filter is a no-op, matching
        // the pre-lull scheduler exactly.
        assert_eq!(s.select(&c), vec![0, 1]);
        assert_eq!(s.select(&c), vec![0, 1]);
    }

    #[test]
    fn saturated_tile_defers_but_never_starves() {
        // The regression this feature exists for: a tile under constant
        // traffic must be deferred (campaigns need a lull) but still be
        // tested after a bounded number of vetoes.
        let c = chip_with(2);
        let max_defer = 3u32;
        let mut s = DetectionScheduler::new(SchedulePolicy::Exhaustive)
            .unwrap()
            .with_lull(LullConfig {
                idle_threshold: 2,
                max_defer,
            });
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
        let mut s = DetectionScheduler::new(SchedulePolicy::Exhaustive)
            .unwrap()
            .with_lull(LullConfig {
                idle_threshold: 9,
                max_defer: 0,
            });
        s.note_traffic(0, true);
        assert_eq!(s.select(&c), vec![0]);
    }

    #[test]
    fn run_feeds_selection_into_campaigns() {
        let mut c = chip_with(4);
        let det = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        let mut s = DetectionScheduler::new(SchedulePolicy::RoundRobin {
            tiles_per_campaign: 3,
        })
        .unwrap();
        let stats = s.run(&mut c, &det);
        assert_eq!(stats.campaigns_run, 3);
    }
}
