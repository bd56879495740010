//! The typed event model of the closed-loop flow.
//!
//! Every event is stamped with a [`LogicalTime`] — a logical clock keyed to
//! the *training iteration* and the *cumulative hardware write-pulse count*
//! plus a per-recorder sequence number. No wall time enters the stream, so
//! a seeded run emits a byte-identical JSONL trace at any
//! `RRAM_FTT_THREADS` (events are only ever emitted from the sequential
//! spine of the flow; worker threads touch commutative metrics instead).

use crate::json::JsonObject;

/// Where an event sits on the run's logical timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogicalTime {
    /// Training iteration (mini-batch count) at emission.
    pub iteration: u64,
    /// Cumulative hardware write pulses at emission.
    pub write_pulses: u64,
    /// Per-recorder monotonic sequence number (total order of events).
    pub seq: u64,
}

/// Confusion-matrix counts of one detection campaign against simulator
/// ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Faulty cells correctly flagged.
    pub true_pos: u64,
    /// Fault-free cells erroneously flagged.
    pub false_pos: u64,
    /// Faulty cells missed.
    pub false_neg: u64,
    /// Fault-free cells correctly passed.
    pub true_neg: u64,
}

impl Confusion {
    /// Detection precision (`tp / (tp + fp)`; 1 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        let flagged = self.true_pos + self.false_pos;
        if flagged == 0 {
            1.0
        } else {
            self.true_pos as f64 / flagged as f64
        }
    }

    /// Detection recall (`tp / (tp + fn)`; 1 when nothing was faulty).
    pub fn recall(&self) -> f64 {
        let faulty = self.true_pos + self.false_neg;
        if faulty == 0 {
            1.0
        } else {
            self.true_pos as f64 / faulty as f64
        }
    }
}

/// Which phase of the flow issued a batch of write pulses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePhase {
    /// Threshold-training weight updates.
    Training,
    /// Detection-campaign test and restore writes.
    Detection,
    /// Post-remap array reprogramming.
    Reprogram,
}

impl WritePhase {
    /// Stable lowercase name used in serialized traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            WritePhase::Training => "training",
            WritePhase::Detection => "detection",
            WritePhase::Reprogram => "reprogram",
        }
    }
}

/// The event kinds, for counting and filtering without matching payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EventKind {
    /// One threshold-training iteration completed.
    TrainingIteration = 0,
    /// A maximal run of all-skip iterations ended.
    ThresholdSkipBurst = 1,
    /// A detection campaign is starting.
    DetectionCampaignStart = 2,
    /// A detection campaign finished.
    DetectionCampaignEnd = 3,
    /// A re-mapping plan was applied to the array.
    RemapApplied = 4,
    /// Cells wore out (new endurance faults) since the last check.
    WearFault = 5,
    /// A phase issued a batch of hardware write pulses.
    WritePulseBatch = 6,
    /// A crossbar tile crossed its fault-density threshold and was retired.
    TileRetired = 7,
    /// A spare tile was attached in place of a retired one.
    SpareAttached = 8,
    /// The service refused a tenant request (backpressure or shed).
    ServeShed = 9,
    /// The service ran one batched inference pass for a tenant.
    ServeBatchExecuted = 10,
    /// The service scheduled a detection campaign into a traffic lull.
    ServeLullCampaign = 11,
    /// A tenant checkpoint left its home chip (migration, phase one).
    ServeMigrationStart = 12,
    /// A tenant checkpoint was restored on its destination chip.
    ServeMigrationEnd = 13,
    /// A fault-tolerance strategy was bound to a run (arena contender
    /// registration).
    StrategySelected = 14,
    /// One arena contender finished its seeded run.
    ArenaRun = 15,
}

impl EventKind {
    /// All kinds, in discriminant order (indexing for per-kind counters).
    pub const ALL: [EventKind; 16] = [
        EventKind::TrainingIteration,
        EventKind::ThresholdSkipBurst,
        EventKind::DetectionCampaignStart,
        EventKind::DetectionCampaignEnd,
        EventKind::RemapApplied,
        EventKind::WearFault,
        EventKind::WritePulseBatch,
        EventKind::TileRetired,
        EventKind::SpareAttached,
        EventKind::ServeShed,
        EventKind::ServeBatchExecuted,
        EventKind::ServeLullCampaign,
        EventKind::ServeMigrationStart,
        EventKind::ServeMigrationEnd,
        EventKind::StrategySelected,
        EventKind::ArenaRun,
    ];

    /// Stable snake_case name used in serialized traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::TrainingIteration => "training_iteration",
            EventKind::ThresholdSkipBurst => "threshold_skip_burst",
            EventKind::DetectionCampaignStart => "detection_campaign_start",
            EventKind::DetectionCampaignEnd => "detection_campaign_end",
            EventKind::RemapApplied => "remap_applied",
            EventKind::WearFault => "wear_fault",
            EventKind::WritePulseBatch => "write_pulse_batch",
            EventKind::TileRetired => "tile_retired",
            EventKind::SpareAttached => "spare_attached",
            EventKind::ServeShed => "serve_shed",
            EventKind::ServeBatchExecuted => "serve_batch_executed",
            EventKind::ServeLullCampaign => "serve_lull_campaign",
            EventKind::ServeMigrationStart => "serve_migration_start",
            EventKind::ServeMigrationEnd => "serve_migration_end",
            EventKind::StrategySelected => "strategy_selected",
            EventKind::ArenaRun => "arena_run",
        }
    }
}

/// One structured event of the closed-loop flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One threshold-training iteration: what Algorithm 1 did to the array.
    TrainingIteration {
        /// Hardware writes issued this iteration.
        writes_issued: u64,
        /// Updates suppressed by the threshold this iteration.
        writes_skipped: u64,
        /// NaN/∞ gradient updates skipped this iteration.
        nan_updates_skipped: u64,
        /// Cells that wore out during this iteration's writes.
        new_wear_faults: u64,
        /// The iteration's `max|δw|` over the mapped layers.
        max_abs_dw: f64,
    },
    /// A maximal run of consecutive iterations whose *every* candidate
    /// update fell below the threshold (zero writes issued) just ended.
    ThresholdSkipBurst {
        /// First all-skip iteration of the burst.
        start_iteration: u64,
        /// Last all-skip iteration of the burst.
        end_iteration: u64,
        /// Total updates suppressed across the burst.
        writes_skipped: u64,
    },
    /// A periodic quiescent-voltage detection campaign is starting.
    DetectionCampaignStart {
        /// 1-based campaign index within the run.
        campaign: u64,
    },
    /// A detection campaign finished.
    DetectionCampaignEnd {
        /// 1-based campaign index within the run.
        campaign: u64,
        /// Cells flagged faulty across all mapped layers.
        flagged_cells: u64,
        /// Total test cycles spent.
        cycles: u64,
        /// Write pulses the campaign itself spent.
        write_pulses: u64,
        /// Group sweeps that could not be tested (degraded coverage).
        untested_groups: u64,
        /// Confusion matrix against ground truth, when available (the
        /// simulator always has it; real hardware would not).
        confusion: Option<Confusion>,
    },
    /// A neuron re-ordering was applied to the array.
    RemapApplied {
        /// `Dist(P, F)` before the search.
        initial_cost: u64,
        /// `Dist(P, F)` after the search (the applied plan's cost).
        final_cost: u64,
    },
    /// Endurance wear-out observed since the previous sequential check.
    WearFault {
        /// Newly worn-out cells.
        new_faults: u64,
        /// Cumulative worn-out cells over the run.
        total_faults: u64,
    },
    /// A phase issued hardware write pulses.
    WritePulseBatch {
        /// Pulses in this batch.
        pulses: u64,
        /// Which phase issued them.
        phase: WritePhase,
    },
    /// A crossbar tile crossed its fault-density threshold and was
    /// retired from service.
    TileRetired {
        /// Chip-global id of the retired tile.
        tile: u64,
        /// Predicted faulty cells at retirement time.
        faulty_cells: u64,
        /// Predicted fault density (`faulty_cells / cells`) at retirement.
        fault_density: f64,
    },
    /// A spare tile was attached in place of a retired one.
    SpareAttached {
        /// Chip-global id of the newly attached spare.
        tile: u64,
        /// Chip-global id of the retired tile it replaces.
        replaced: u64,
        /// Spares left in the pool after this attachment.
        spares_remaining: u64,
    },
    /// The service refused a tenant request: either soft backpressure
    /// (queue above its high-water mark, retry later) or a hard shed.
    ServeShed {
        /// Tenant the request addressed.
        tenant: String,
        /// Stable lowercase reason slug (`busy`, `queue_full`,
        /// `unknown_tenant`, `not_inference`, `quota_exceeded`).
        reason: String,
        /// Tenant queue depth at refusal time.
        queue_depth: u64,
    },
    /// One batched inference pass (a shared MVM over compatible queued
    /// requests) completed on a fleet chip.
    ServeBatchExecuted {
        /// Fleet chip node the pass ran on.
        chip: u64,
        /// Tenant whose requests were batched.
        tenant: String,
        /// Requests served by the pass.
        requests: u64,
        /// `requests / max_batch` fill fraction of the pass.
        occupancy: f64,
    },
    /// A detection campaign was scheduled into a per-tile traffic lull.
    ServeLullCampaign {
        /// Fleet chip node the campaign ran on.
        chip: u64,
        /// Tiles tested this campaign.
        tiles: u64,
        /// Test cycles the campaign spent.
        cycles: u64,
    },
    /// A training tenant's checkpoint was encoded off its home chip
    /// because the chip's spare pool exhausted (migration, phase one).
    ServeMigrationStart {
        /// Migrating tenant.
        tenant: String,
        /// Home chip node being evacuated.
        from_chip: u64,
        /// Destination chip node.
        to_chip: u64,
        /// Encoded snapshot size in bytes.
        snapshot_bytes: u64,
    },
    /// A migrating tenant's checkpoint was decoded and its session
    /// rebuilt on the destination chip (migration, phase two).
    ServeMigrationEnd {
        /// Migrated tenant.
        tenant: String,
        /// Chip node the tenant now runs on.
        to_chip: u64,
    },
    /// A fault-tolerance strategy was bound to a run (emitted by the
    /// arena when a contender is registered, never by the trainer itself —
    /// the closed-loop trace stays strategy-agnostic).
    StrategySelected {
        /// Stable strategy id (`detect_remap`, `noop`, ...).
        strategy: String,
        /// Fault density the contender runs under.
        fault_density: f64,
    },
    /// One arena contender finished its seeded run.
    ArenaRun {
        /// Stable strategy id of the contender.
        strategy: String,
        /// Fault density the contender ran under.
        fault_density: f64,
        /// Final test accuracy, in parts per million (integer so the event
        /// carries no derived float rounding).
        accuracy_ppm: u64,
        /// Total hardware write pulses the run spent.
        write_pulses: u64,
    },
}

impl Event {
    /// The event's kind tag.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::TrainingIteration { .. } => EventKind::TrainingIteration,
            Event::ThresholdSkipBurst { .. } => EventKind::ThresholdSkipBurst,
            Event::DetectionCampaignStart { .. } => EventKind::DetectionCampaignStart,
            Event::DetectionCampaignEnd { .. } => EventKind::DetectionCampaignEnd,
            Event::RemapApplied { .. } => EventKind::RemapApplied,
            Event::WearFault { .. } => EventKind::WearFault,
            Event::WritePulseBatch { .. } => EventKind::WritePulseBatch,
            Event::TileRetired { .. } => EventKind::TileRetired,
            Event::SpareAttached { .. } => EventKind::SpareAttached,
            Event::ServeShed { .. } => EventKind::ServeShed,
            Event::ServeBatchExecuted { .. } => EventKind::ServeBatchExecuted,
            Event::ServeLullCampaign { .. } => EventKind::ServeLullCampaign,
            Event::ServeMigrationStart { .. } => EventKind::ServeMigrationStart,
            Event::ServeMigrationEnd { .. } => EventKind::ServeMigrationEnd,
            Event::StrategySelected { .. } => EventKind::StrategySelected,
            Event::ArenaRun { .. } => EventKind::ArenaRun,
        }
    }
}

/// An event stamped with its logical time — the unit sinks receive.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When (on the logical timeline) the event was emitted.
    pub at: LogicalTime,
    /// The event payload.
    pub event: Event,
}

impl TimedEvent {
    /// Serializes the event as one flat JSON object (one JSONL line,
    /// without the trailing newline). Field order is fixed, floats are
    /// shortest-round-trip, and no wall time is included — a seeded run's
    /// trace is byte-identical at any thread count.
    pub fn to_json(&self) -> String {
        let obj = JsonObject::new()
            .field_u64("iter", self.at.iteration)
            .field_u64("pulses", self.at.write_pulses)
            .field_u64("seq", self.at.seq)
            .field_str("kind", self.event.kind().as_str());
        match &self.event {
            Event::TrainingIteration {
                writes_issued,
                writes_skipped,
                nan_updates_skipped,
                new_wear_faults,
                max_abs_dw,
            } => obj
                .field_u64("writes_issued", *writes_issued)
                .field_u64("writes_skipped", *writes_skipped)
                .field_u64("nan_updates_skipped", *nan_updates_skipped)
                .field_u64("new_wear_faults", *new_wear_faults)
                .field_f64("max_abs_dw", *max_abs_dw),
            Event::ThresholdSkipBurst {
                start_iteration,
                end_iteration,
                writes_skipped,
            } => obj
                .field_u64("start_iteration", *start_iteration)
                .field_u64("end_iteration", *end_iteration)
                .field_u64("writes_skipped", *writes_skipped),
            Event::DetectionCampaignStart { campaign } => obj.field_u64("campaign", *campaign),
            Event::DetectionCampaignEnd {
                campaign,
                flagged_cells,
                cycles,
                write_pulses,
                untested_groups,
                confusion,
            } => {
                let obj = obj
                    .field_u64("campaign", *campaign)
                    .field_u64("flagged_cells", *flagged_cells)
                    .field_u64("cycles", *cycles)
                    .field_u64("write_pulses", *write_pulses)
                    .field_u64("untested_groups", *untested_groups);
                match confusion {
                    Some(c) => obj
                        .field_u64("true_pos", c.true_pos)
                        .field_u64("false_pos", c.false_pos)
                        .field_u64("false_neg", c.false_neg)
                        .field_u64("true_neg", c.true_neg),
                    None => obj,
                }
            }
            Event::RemapApplied {
                initial_cost,
                final_cost,
            } => obj
                .field_u64("initial_cost", *initial_cost)
                .field_u64("final_cost", *final_cost),
            Event::WearFault {
                new_faults,
                total_faults,
            } => obj
                .field_u64("new_faults", *new_faults)
                .field_u64("total_faults", *total_faults),
            // `pulses` is the logical-clock stamp above, so the batch
            // size takes its own key.
            Event::WritePulseBatch { pulses, phase } => obj
                .field_u64("batch_pulses", *pulses)
                .field_str("phase", phase.as_str()),
            Event::TileRetired {
                tile,
                faulty_cells,
                fault_density,
            } => obj
                .field_u64("tile", *tile)
                .field_u64("faulty_cells", *faulty_cells)
                .field_f64("fault_density", *fault_density),
            Event::SpareAttached {
                tile,
                replaced,
                spares_remaining,
            } => obj
                .field_u64("tile", *tile)
                .field_u64("replaced", *replaced)
                .field_u64("spares_remaining", *spares_remaining),
            Event::ServeShed {
                tenant,
                reason,
                queue_depth,
            } => obj
                .field_str("tenant", tenant)
                .field_str("reason", reason)
                .field_u64("queue_depth", *queue_depth),
            Event::ServeBatchExecuted {
                chip,
                tenant,
                requests,
                occupancy,
            } => obj
                .field_u64("chip", *chip)
                .field_str("tenant", tenant)
                .field_u64("requests", *requests)
                .field_f64("occupancy", *occupancy),
            Event::ServeLullCampaign {
                chip,
                tiles,
                cycles,
            } => obj
                .field_u64("chip", *chip)
                .field_u64("tiles", *tiles)
                .field_u64("cycles", *cycles),
            Event::ServeMigrationStart {
                tenant,
                from_chip,
                to_chip,
                snapshot_bytes,
            } => obj
                .field_str("tenant", tenant)
                .field_u64("from_chip", *from_chip)
                .field_u64("to_chip", *to_chip)
                .field_u64("snapshot_bytes", *snapshot_bytes),
            Event::ServeMigrationEnd { tenant, to_chip } => obj
                .field_str("tenant", tenant)
                .field_u64("to_chip", *to_chip),
            Event::StrategySelected {
                strategy,
                fault_density,
            } => obj
                .field_str("strategy", strategy)
                .field_f64("fault_density", *fault_density),
            Event::ArenaRun {
                strategy,
                fault_density,
                accuracy_ppm,
                write_pulses,
            } => obj
                .field_str("strategy", strategy)
                .field_f64("fault_density", *fault_density)
                .field_u64("accuracy_ppm", *accuracy_ppm)
                .field_u64("write_pulses", *write_pulses),
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn at(seq: u64) -> LogicalTime {
        LogicalTime {
            iteration: 12,
            write_pulses: 345,
            seq,
        }
    }

    /// One event of every kind, in [`EventKind::ALL`] order.
    fn one_of_each_kind() -> Vec<Event> {
        vec![
            Event::TrainingIteration {
                writes_issued: 1,
                writes_skipped: 2,
                nan_updates_skipped: 0,
                new_wear_faults: 0,
                max_abs_dw: 0.25,
            },
            Event::ThresholdSkipBurst {
                start_iteration: 3,
                end_iteration: 5,
                writes_skipped: 96,
            },
            Event::DetectionCampaignStart { campaign: 1 },
            Event::DetectionCampaignEnd {
                campaign: 1,
                flagged_cells: 7,
                cycles: 32,
                write_pulses: 64,
                untested_groups: 0,
                confusion: Some(Confusion {
                    true_pos: 6,
                    false_pos: 1,
                    false_neg: 2,
                    true_neg: 100,
                }),
            },
            Event::RemapApplied {
                initial_cost: 40,
                final_cost: 11,
            },
            Event::WearFault {
                new_faults: 2,
                total_faults: 9,
            },
            Event::WritePulseBatch {
                pulses: 123,
                phase: WritePhase::Detection,
            },
            Event::TileRetired {
                tile: 4,
                faulty_cells: 900,
                fault_density: 0.055,
            },
            Event::SpareAttached {
                tile: 17,
                replaced: 4,
                spares_remaining: 1,
            },
            Event::ServeShed {
                tenant: "infer-c".into(),
                reason: "queue_full".into(),
                queue_depth: 8,
            },
            Event::ServeBatchExecuted {
                chip: 1,
                tenant: "infer-c".into(),
                requests: 6,
                occupancy: 0.75,
            },
            Event::ServeLullCampaign {
                chip: 0,
                tiles: 3,
                cycles: 96,
            },
            Event::ServeMigrationStart {
                tenant: "train-a".into(),
                from_chip: 0,
                to_chip: 1,
                snapshot_bytes: 4096,
            },
            Event::ServeMigrationEnd {
                tenant: "train-a".into(),
                to_chip: 1,
            },
            Event::StrategySelected {
                strategy: "drop_connect".into(),
                fault_density: 0.1,
            },
            Event::ArenaRun {
                strategy: "drop_connect".into(),
                fault_density: 0.1,
                accuracy_ppm: 912_000,
                write_pulses: 40_000,
            },
        ]
    }

    #[test]
    fn every_kind_serializes_with_unique_keys() {
        let events = one_of_each_kind();
        let kinds: Vec<EventKind> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds, EventKind::ALL, "one event per kind, in order");
        for event in events {
            let line = TimedEvent { at: at(0), event }.to_json();
            // No string value above contains `,"`, so it splits fields.
            let keys: Vec<&str> = line[2..line.len() - 1]
                .split(",\"")
                .map(|field| field.split_once("\":").map_or(field, |(key, _)| key))
                .collect();
            assert_eq!(keys[..4], ["iter", "pulses", "seq", "kind"], "{line}");
            for (i, key) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(key), "key {key:?} repeats in {line}");
            }
        }
    }

    #[test]
    fn every_kind_serializes_with_its_tag() {
        for (i, event) in one_of_each_kind().into_iter().enumerate() {
            let kind = event.kind();
            let line = TimedEvent {
                at: at(i as u64),
                event,
            }
            .to_json();
            assert_eq!(
                json::extract_str(&line, "kind").as_deref(),
                Some(kind.as_str())
            );
            assert_eq!(json::extract_u64(&line, "iter"), Some(12));
            assert_eq!(json::extract_u64(&line, "seq"), Some(i as u64));
        }
    }

    #[test]
    fn confusion_fields_present_only_with_ground_truth() {
        let with = TimedEvent {
            at: at(0),
            event: Event::DetectionCampaignEnd {
                campaign: 2,
                flagged_cells: 0,
                cycles: 1,
                write_pulses: 0,
                untested_groups: 0,
                confusion: Some(Confusion::default()),
            },
        }
        .to_json();
        assert!(with.contains("\"true_pos\""));
        let without = TimedEvent {
            at: at(0),
            event: Event::DetectionCampaignEnd {
                campaign: 2,
                flagged_cells: 0,
                cycles: 1,
                write_pulses: 0,
                untested_groups: 0,
                confusion: None,
            },
        }
        .to_json();
        assert!(!without.contains("true_pos"));
    }

    #[test]
    fn confusion_scores() {
        let c = Confusion {
            true_pos: 8,
            false_pos: 2,
            false_neg: 2,
            true_neg: 88,
        };
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.recall() - 0.8).abs() < 1e-12);
        assert_eq!(Confusion::default().precision(), 1.0);
        assert_eq!(Confusion::default().recall(), 1.0);
    }

    #[test]
    fn kind_table_is_consistent() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.as_str().is_empty());
        }
    }
}
