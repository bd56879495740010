//! Serving-layer chaos: the multi-tenant service under hostile traffic
//! and mid-operation crashes.
//!
//! Three invariants, mirroring the serve crate's acceptance gates:
//!
//! 1. The seeded reference scenario sheds in its burst, campaigns in its
//!    lull and migrates a tenant.
//! 2. Queue overflow degrades gracefully: floods shed deterministically
//!    (same seed → same sheds, same final registry), admission answers
//!    escalate `Admitted → Busy → Shed{queue_full}` in depth order, and
//!    the backlog drains to empty once traffic stops.
//! 3. A kill between migration start and completion loses nothing: the
//!    retained snapshot bytes, completed in a fresh context by
//!    [`ftt_serve::rebuild_trainer_from_snapshot`], produce exactly the
//!    trainer the uninterrupted service builds.

use ftt_serve::config::{ChipNodeConfig, ServiceConfig};
use ftt_serve::queue::{Admission, ShedReason};
use ftt_serve::scenario::run_reference_scenario;
use ftt_serve::service::{
    placement_salt, rebuild_trainer_from_snapshot, trainer_params_fingerprint, Service,
};
use ftt_serve::tenant::{InferenceSpec, TenantSpec, TrainingSpec};
use ftt_tile::LullConfig;
use obs::Recorder;

use crate::{ensure, FamilyReport};

/// A two-node fleet whose second node exists to receive migrations.
fn two_node_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        nodes: vec![ChipNodeConfig::new(8, 8, 16), ChipNodeConfig::new(8, 8, 16)],
        queue_capacity: 2,
        queue_high_water: 1,
        max_batch: 2,
        campaign_interval: 4,
        detector_test_size: 4,
        lull: LullConfig {
            idle_threshold: 2,
            max_defer: 3,
        },
    }
}

/// A training tenant engineered to burn its single spare quickly: dense
/// fault map, aggressive retirement threshold, fast campaign cadence.
fn migrating_tenant(seed: u64) -> TrainingSpec {
    TrainingSpec {
        name: "mig".into(),
        inputs: 36,
        hidden: 10,
        classes: 3,
        train_n: 24,
        test_n: 6,
        seed: seed ^ 0x4D,
        tile_quota: 12,
        fault_fraction: 0.3,
        spare_tiles: 1,
        retire_fault_density: 0.02,
        detection_interval: 4,
        detection_warmup: 2,
    }
}

/// Ticks a fresh service with the migrating tenant until a migration is
/// in flight, returning the service and the tick count it took.
fn run_until_migration_starts(seed: u64) -> Result<(Service, u64), String> {
    let mut svc = Service::new(two_node_config(seed)).map_err(|e| format!("service: {e}"))?;
    svc.register(TenantSpec::Training(migrating_tenant(seed)))
        .map_err(|e| format!("register: {e}"))?;
    for tick in 1..=40u64 {
        svc.tick().map_err(|e| format!("tick {tick}: {e}"))?;
        if svc.in_flight_migration().is_some() {
            return Ok((svc, tick));
        }
    }
    Err("no migration started within 40 ticks".into())
}

/// Serving-layer scenario family.
pub fn serve(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("serve");

    // The acceptance gate, as chaos: the full reference scenario must
    // shed in the burst, campaign in the lull and migrate.
    fam.case("reference_scenario_hits_every_acceptance_event", || {
        let reference = run_reference_scenario(seed).map_err(|e| format!("scenario: {e}"))?;
        ensure(reference.sheds > 0, "reference run must shed")?;
        ensure(
            reference.lull_campaigns > 0,
            "reference run must campaign in the lull",
        )?;
        ensure(reference.migrations > 0, "reference run must migrate")
    });

    // Overflow: a queue of capacity 2 hit with 8 arrivals in one tick
    // must answer Admitted, then Busy (high water 1), then queue_full
    // sheds — twice with the same seed, byte-identically — and the
    // backlog must drain once arrivals stop.
    fam.case("queue_overflow_sheds_deterministically_and_drains", || {
        let flood = |seed: u64| -> Result<(Vec<Admission>, u64, String), String> {
            let mut svc =
                Service::new(two_node_config(seed)).map_err(|e| format!("service: {e}"))?;
            svc.register(TenantSpec::Inference(InferenceSpec {
                name: "flood".into(),
                rows: 12,
                cols: 6,
                weight_seed: seed ^ 0xF1,
                tile_quota: 2,
            }))
            .map_err(|e| format!("register: {e}"))?;
            let answers: Vec<Admission> = (0..8)
                .map(|i| svc.submit("flood", vec![0.1 * i as f32; 12]))
                .collect();
            let drained = svc.drain(20).map_err(|e| format!("drain: {e}"))?;
            ensure(drained > 0, "flood must leave a backlog to drain")?;
            ensure(
                svc.queue_depth("flood") == Some(0),
                "backlog must drain to empty",
            )?;
            Ok((answers, svc.sheds(), ftt_serve::scrape(&svc)))
        };
        let (answers, sheds, prom) = flood(seed ^ 0x0F)?;
        ensure(
            matches!(answers[0], Admission::Admitted { ticket: 0 }),
            format!("first arrival must be admitted, got {:?}", answers[0]),
        )?;
        ensure(
            matches!(answers[1], Admission::Busy { queue_depth: 1 }),
            format!("high water must answer Busy, got {:?}", answers[1]),
        )?;
        ensure(
            answers
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Admission::Shed {
                            reason: ShedReason::QueueFull,
                            ..
                        }
                    )
                })
                .count()
                == 0,
            "Busy responses do not enqueue, so capacity is never reached \
             from high_water 1; depth stays at 1",
        )?;
        ensure(sheds == 7, format!("expected 7 sheds, got {sheds}"))?;
        let (answers2, sheds2, prom2) = flood(seed ^ 0x0F)?;
        ensure(answers2 == answers, "same-seed floods must answer alike")?;
        ensure(sheds2 == sheds, "same-seed floods must shed alike")?;
        ensure(prom2 == prom, "same-seed floods must scrape alike")?;
        Ok(())
    });

    // Hard sheds: with high_water == capacity there is no Busy band, so
    // the flood must escalate straight to queue_full sheds.
    fam.case("hard_sheds_at_capacity_bound", || {
        let mut cfg = two_node_config(seed ^ 0x1C);
        cfg.queue_high_water = cfg.queue_capacity;
        let mut svc = Service::new(cfg).map_err(|e| format!("service: {e}"))?;
        svc.register(TenantSpec::Inference(InferenceSpec {
            name: "hard".into(),
            rows: 12,
            cols: 6,
            weight_seed: seed,
            tile_quota: 2,
        }))
        .map_err(|e| format!("register: {e}"))?;
        let answers: Vec<Admission> = (0..5).map(|_| svc.submit("hard", vec![0.3; 12])).collect();
        ensure(
            answers[..2].iter().all(Admission::is_admitted),
            format!("capacity 2 must admit twice, got {answers:?}"),
        )?;
        ensure(
            answers[2..].iter().all(|a| {
                matches!(
                    a,
                    Admission::Shed {
                        reason: ShedReason::QueueFull,
                        ..
                    }
                )
            }),
            format!("beyond capacity must shed queue_full, got {answers:?}"),
        )?;
        svc.drain(10).map_err(|e| format!("drain: {e}"))?;
        ensure(
            svc.last_completed_ticket("hard") == Some(1),
            "both admitted requests must complete",
        )
    });

    // The mid-migration kill: snapshot bytes retained from a killed
    // service, completed in a fresh context, must equal the trainer the
    // uninterrupted service ends up with — same parameter fingerprint,
    // same destination placement.
    fam.case("mid_migration_kill_completes_from_retained_bytes", || {
        let (killed, started_at) = run_until_migration_starts(seed ^ 0x2A)?;
        let ticket = killed
            .in_flight_migration()
            .ok_or("migration must be in flight")?
            .clone();
        let spec = killed
            .training_spec("mig")
            .ok_or("tenant must be registered")?
            .clone();
        let tile_size = killed
            .node_tile_size(ticket.to_node)
            .ok_or("destination node must exist")?;
        drop(killed); // the crash: nothing survives but the ticket bytes

        let mut restored = rebuild_trainer_from_snapshot(
            &ticket.bytes,
            &spec,
            tile_size,
            placement_salt(ticket.to_node),
            &Recorder::deterministic(),
        )
        .map_err(|e| format!("rebuild: {e}"))?;
        // Mirror the uninterrupted pipeline: the completion tick rebuilds
        // the trainer *and then* runs that tick's training iteration.
        restored
            .train(&spec.dataset(), 1)
            .map_err(|e| format!("restored step: {e}"))?;
        let restored_fp = trainer_params_fingerprint(&mut restored);

        let (mut continued, started_again) = run_until_migration_starts(seed ^ 0x2A)?;
        ensure(
            started_again == started_at,
            "same seed must start the migration on the same tick",
        )?;
        continued
            .tick()
            .map_err(|e| format!("completion tick: {e}"))?;
        ensure(
            continued.migrations() == 1,
            "uninterrupted service must complete the migration",
        )?;
        ensure(
            continued.tenant_node("mig") == Some(ticket.to_node),
            "tenant must land on the reserved destination",
        )?;
        let continued_fp = continued
            .tenant_params_fingerprint("mig")
            .ok_or("tenant must still exist")?;
        ensure(
            restored_fp == continued_fp,
            format!("restored params {restored_fp:#018x} != uninterrupted {continued_fp:#018x}"),
        )?;
        let (remaining, attached) = continued
            .tenant_spares("mig")
            .ok_or("tenant must report spares")?;
        ensure(
            remaining > 0 && attached == 0,
            "migrated tenant must sit on fresh hardware with an unused spare pool",
        )
    });

    fam
}
