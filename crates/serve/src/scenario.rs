//! The seeded reference scenario.
//!
//! One function, [`run_reference_scenario`], builds the acceptance
//! deployment — two chip nodes, two training tenants, one inference
//! tenant — and drives it through a scripted day of traffic: steady
//! load, one overflow burst (sheds), one quiet window (lull campaigns),
//! and one spare-pool exhaustion (migration). It returns everything the
//! determinism gates byte-compare: the JSONL event trace, the Prometheus
//! rendering, and the output/parameter fingerprints.
//!
//! The demo binary and the unit tests both run *this* function, so "the
//! demo is deterministic" and "the tests pass" are the same statement.

use obs::JsonlSink;

use crate::config::{ChipNodeConfig, ServiceConfig};
use crate::error::ServeError;
use crate::queue::Admission;
use crate::service::Service;
use crate::tenant::{InferenceSpec, TenantSpec, TrainingSpec};
use crate::workload::{WorkloadGen, WorkloadSpec};
use ftt_tile::LullConfig;

/// Ticks of scripted traffic (drain ticks come on top).
const SCRIPT_TICKS: u64 = 28;
/// Bound on extra drain ticks after the script ends.
const DRAIN_TICKS: u64 = 50;

/// Everything a determinism gate needs to byte-compare two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// JSONL event trace (one object per line).
    pub trace: String,
    /// Prometheus text rendering of the final registry.
    pub prometheus: String,
    /// Running FNV-1a fingerprint of the inference tenant's outputs.
    pub output_fingerprint: u64,
    /// `(tenant, fingerprint)` of each training tenant's parameters.
    pub param_fingerprints: Vec<(String, u64)>,
    /// Requests shed (hard + soft backpressure).
    pub sheds: u64,
    /// Lull-gated campaign passes run on the fleet.
    pub lull_campaigns: u64,
    /// Tenant migrations completed.
    pub migrations: u64,
    /// Total ticks run (script + drain).
    pub ticks: u64,
}

/// The scenario's service configuration.
pub fn reference_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        nodes: vec![
            ChipNodeConfig::new(8, 8, 48).with_spare_tiles(2),
            ChipNodeConfig::new(8, 8, 48).with_spare_tiles(2),
        ],
        queue_capacity: 6,
        queue_high_water: 4,
        max_batch: 4,
        campaign_interval: 4,
        detector_test_size: 4,
        lull: LullConfig {
            idle_threshold: 2,
            max_defer: 3,
        },
    }
}

/// The migrating training tenant: one spare, a dense fault map, and an
/// aggressive retirement threshold, so the first detection campaigns
/// burn the spare pool and trigger a snapshot-backed migration.
fn train_a(seed: u64) -> TrainingSpec {
    TrainingSpec {
        name: "train-a".into(),
        inputs: 36,
        hidden: 10,
        classes: 3,
        train_n: 48,
        test_n: 12,
        seed: seed ^ 0xA1,
        tile_quota: 12,
        fault_fraction: 0.3,
        spare_tiles: 1,
        retire_fault_density: 0.02,
        detection_interval: 4,
        detection_warmup: 2,
    }
}

/// The benign training tenant: few faults, a tolerant retirement
/// threshold, and a slow campaign cadence — it should finish the run on
/// the chip it started on.
fn train_b(seed: u64) -> TrainingSpec {
    TrainingSpec {
        name: "train-b".into(),
        inputs: 36,
        hidden: 8,
        classes: 3,
        train_n: 48,
        test_n: 12,
        seed: seed ^ 0xB2,
        tile_quota: 10,
        fault_fraction: 0.05,
        spare_tiles: 1,
        retire_fault_density: 0.5,
        detection_interval: 8,
        detection_warmup: 4,
    }
}

/// The inference tenant sharing the fleet.
fn infer_c(seed: u64) -> InferenceSpec {
    InferenceSpec {
        name: "infer-c".into(),
        rows: 48,
        cols: 12,
        weight_seed: seed ^ 0xC3,
        tile_quota: 12,
    }
}

/// The scripted arrival process for `infer-c`.
fn reference_workload() -> WorkloadSpec {
    WorkloadSpec {
        base_rate: 3,
        lull_start: 10,
        lull_end: 14,
        burst_tick: Some(5),
        burst_size: 12,
    }
}

/// Build the reference deployment, run the scripted traffic, drain, and
/// report. Pure function of `seed` (plus the thread budget, which must
/// not matter — that is the invariant the gates check).
pub fn run_reference_scenario(seed: u64) -> Result<ScenarioReport, ServeError> {
    let mut service = Service::new(reference_config(seed))?;
    let trace_sink = JsonlSink::new();
    let trace_view = trace_sink.view();
    service.recorder().add_sink(Box::new(trace_sink));

    service.register(TenantSpec::Training(train_a(seed)))?;
    service.register(TenantSpec::Training(train_b(seed)))?;
    service.register(TenantSpec::Inference(infer_c(seed)))?;

    let infer_name = infer_c(seed).name;
    let rows = infer_c(seed).rows;
    let mut workload = WorkloadGen::new(seed ^ 0x77, reference_workload());
    for tick in 0..SCRIPT_TICKS {
        for input in workload.requests_for_tick(tick, rows) {
            // Sheds and backpressure are expected scenario traffic, not
            // errors; the service records them.
            let _admission: Admission = service.submit(&infer_name, input);
        }
        service.tick()?;
    }
    let drained = service.drain(DRAIN_TICKS)?;

    let mut param_fingerprints = Vec::new();
    for name in ["train-a", "train-b"] {
        if let Some(fp) = service.tenant_params_fingerprint(name) {
            param_fingerprints.push((name.to_string(), fp));
        }
    }
    service.recorder().flush();
    Ok(ScenarioReport {
        trace: trace_view.contents(),
        prometheus: service.recorder().render_prometheus(),
        output_fingerprint: service.output_fingerprint(&infer_name).unwrap_or(0),
        param_fingerprints,
        sheds: service.sheds(),
        lull_campaigns: service.lull_campaigns(),
        migrations: service.migrations(),
        ticks: SCRIPT_TICKS + drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scenario_hits_every_acceptance_event() {
        let report = run_reference_scenario(42).expect("scenario");
        assert!(report.sheds > 0, "burst should shed: {report:?}");
        assert!(
            report.lull_campaigns > 0,
            "quiet window should run campaigns"
        );
        assert!(report.migrations >= 1, "train-a should migrate");
        assert_eq!(report.param_fingerprints.len(), 2);
        assert!(report.trace.contains("\"serve_shed\""));
        assert!(report.trace.contains("\"serve_batch_executed\""));
        assert!(report.trace.contains("\"serve_lull_campaign\""));
        assert!(report.trace.contains("\"serve_migration_start\""));
        assert!(report.trace.contains("\"serve_migration_end\""));
        assert!(report.prometheus.contains("serve_requests_admitted_total"));
        assert!(report.prometheus.contains("tenant=\"infer-c\""));
    }

    #[test]
    fn same_seed_is_byte_identical_across_runs() {
        let a = run_reference_scenario(7).expect("scenario");
        let b = run_reference_scenario(7).expect("scenario");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_reference_scenario(1).expect("scenario");
        let b = run_reference_scenario(2).expect("scenario");
        assert_ne!(a.output_fingerprint, b.output_fingerprint);
    }
}
