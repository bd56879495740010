//! The multi-tenant service (DESIGN.md §13) under hostile traffic and
//! mid-operation crashes:
//!
//! 1. Queue overflow degrades gracefully: floods shed deterministically
//!    (same seed → same sheds, same final registry), admission answers
//!    escalate `Admitted → Busy → Shed{queue_full}` in depth order, and
//!    the backlog drains to empty once traffic stops.
//! 2. A kill between migration start and completion loses nothing: the
//!    retained snapshot bytes, completed in a fresh context by
//!    [`rebuild_trainer_from_snapshot`], produce exactly the trainer the
//!    uninterrupted service builds.

use ftt_serve::config::{ChipNodeConfig, ServiceConfig};
use ftt_serve::queue::{Admission, ShedReason};
use ftt_serve::service::{
    placement_salt, rebuild_trainer_from_snapshot, trainer_params_fingerprint, Service,
};
use ftt_serve::tenant::{InferenceSpec, TenantSpec, TrainingSpec};
use ftt_tile::LullConfig;
use obs::Recorder;

const SEED: u64 = 0xC0FFEE ^ 0x0e;

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
fn run_until_migration_starts(seed: u64) -> (Service, u64) {
    let mut svc = Service::new(two_node_config(seed)).unwrap();
    svc.register(TenantSpec::Training(migrating_tenant(seed)))
        .unwrap();
    for tick in 1..=40u64 {
        svc.tick().unwrap();
        if svc.in_flight_migration().is_some() {
            return (svc, tick);
        }
    }
    panic!("no migration started within 40 ticks");
}

fn is_queue_full(a: &Admission) -> bool {
    matches!(
        a,
        Admission::Shed {
            reason: ShedReason::QueueFull,
            ..
        }
    )
}

/// A queue of capacity 2 hit with 8 arrivals in one tick answers
/// Admitted, then Busy (high water 1) for the rest — twice with the same
/// seed, byte-identically — and the backlog drains once arrivals stop.
#[test]
fn queue_overflow_sheds_deterministically_and_drains() {
    let flood = |seed: u64| {
        let mut svc = Service::new(two_node_config(seed)).unwrap();
        svc.register(TenantSpec::Inference(InferenceSpec {
            name: "flood".into(),
            rows: 12,
            cols: 6,
            weight_seed: seed ^ 0xF1,
            tile_quota: 2,
        }))
        .unwrap();
        let answers: Vec<Admission> = (0..8)
            .map(|i| svc.submit("flood", vec![0.1 * i as f32; 12]))
            .collect();
        let drained = svc.drain(20).unwrap();
        assert!(drained > 0, "flood must leave a backlog to drain");
        assert_eq!(svc.queue_depth("flood"), Some(0), "backlog must drain");
        (answers, svc.sheds(), ftt_serve::scrape(&svc))
    };
    let (answers, sheds, prom) = flood(SEED ^ 0x0F);
    assert!(
        matches!(answers[0], Admission::Admitted { ticket: 0 }),
        "first arrival must be admitted, got {:?}",
        answers[0]
    );
    assert!(
        matches!(answers[1], Admission::Busy { queue_depth: 1 }),
        "high water must answer Busy, got {:?}",
        answers[1]
    );
    // Busy responses do not enqueue, so from high water 1 the depth stays
    // at 1 and capacity is never reached.
    assert_eq!(answers.iter().filter(|a| is_queue_full(a)).count(), 0);
    assert_eq!(sheds, 7);
    let (answers2, sheds2, prom2) = flood(SEED ^ 0x0F);
    assert_eq!(answers2, answers, "same-seed floods must answer alike");
    assert_eq!(sheds2, sheds, "same-seed floods must shed alike");
    assert_eq!(prom2, prom, "same-seed floods must scrape alike");
}

/// With high_water == capacity there is no Busy band, so the flood must
/// escalate straight to queue_full sheds.
#[test]
fn hard_sheds_at_capacity_bound() {
    let mut cfg = two_node_config(SEED ^ 0x1C);
    cfg.queue_high_water = cfg.queue_capacity;
    let mut svc = Service::new(cfg).unwrap();
    svc.register(TenantSpec::Inference(InferenceSpec {
        name: "hard".into(),
        rows: 12,
        cols: 6,
        weight_seed: SEED,
        tile_quota: 2,
    }))
    .unwrap();
    let answers: Vec<Admission> = (0..5).map(|_| svc.submit("hard", vec![0.3; 12])).collect();
    assert!(
        answers[..2].iter().all(Admission::is_admitted),
        "capacity 2 must admit twice, got {answers:?}"
    );
    assert!(
        answers[2..].iter().all(is_queue_full),
        "beyond capacity must shed queue_full, got {answers:?}"
    );
    svc.drain(10).unwrap();
    assert_eq!(
        svc.last_completed_ticket("hard"),
        Some(1),
        "both admitted requests must complete"
    );
}

/// Snapshot bytes retained from a service killed mid-migration, completed
/// in a fresh context, must equal the trainer the uninterrupted service
/// ends up with — same parameter fingerprint, same destination placement.
#[test]
fn mid_migration_kill_completes_from_retained_bytes() {
    let (killed, started_at) = run_until_migration_starts(SEED ^ 0x2A);
    let ticket = killed.in_flight_migration().unwrap().clone();
    let spec = killed.training_spec("mig").unwrap().clone();
    let tile_size = killed.node_tile_size(ticket.to_node).unwrap();
    drop(killed); // the crash: nothing survives but the ticket bytes

    let mut restored = rebuild_trainer_from_snapshot(
        &ticket.bytes,
        &spec,
        tile_size,
        placement_salt(ticket.to_node),
        &Recorder::deterministic(),
    )
    .unwrap();
    // Mirror the uninterrupted pipeline: the completion tick rebuilds the
    // trainer *and then* runs that tick's training iteration.
    restored.train(&spec.dataset(), 1).unwrap();
    let restored_fp = trainer_params_fingerprint(&mut restored);

    let (mut continued, started_again) = run_until_migration_starts(SEED ^ 0x2A);
    assert_eq!(
        started_again, started_at,
        "same seed must start the migration on the same tick"
    );
    continued.tick().unwrap();
    assert_eq!(
        continued.migrations(),
        1,
        "uninterrupted service must complete the migration"
    );
    assert_eq!(
        continued.tenant_node("mig"),
        Some(ticket.to_node),
        "tenant must land on the reserved destination"
    );
    let continued_fp = continued.tenant_params_fingerprint("mig").unwrap();
    assert_eq!(
        restored_fp, continued_fp,
        "restored params {restored_fp:#018x} != uninterrupted {continued_fp:#018x}"
    );
    let (remaining, attached) = continued.tenant_spares("mig").unwrap();
    assert!(
        remaining > 0 && attached == 0,
        "migrated tenant must sit on fresh hardware with an unused spare pool"
    );
}
