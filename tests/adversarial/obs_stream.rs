//! The telemetry event stream is part of the determinism contract: a
//! seeded run's JSONL trace is byte-identical at any worker budget, and
//! the registry-derived [`FlowStats`] view agrees with the stream itself.

use faultdet::detector::DetectorConfig;
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::json::{extract_str, extract_u64};
use obs::{EventKind, JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

use crate::at_budget;

const SEED: u64 = 0xC0FFEE ^ 0x0a;

/// Runs a small seeded closed-loop flow with a JSONL sink attached and
/// returns the trace text plus the registry-derived stats snapshot.
fn traced_flow(seed: u64, iterations: u64) -> (String, FlowStats) {
    let data = SyntheticDataset::mnist_like(40, 10, seed);
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 12, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(12, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.15)
        .with_endurance(EnduranceModel::new(40.0, 10.0))
        .with_seed(seed);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5);
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder).unwrap();
    trainer.train(&data, iterations).unwrap();
    (view.contents(), trainer.stats())
}

/// The closed loop of the telemetry walkthrough: 120 iterations of a
/// 784×24×10 MLP at fault fraction 0.15 and endurance N(60, 15²), with a
/// Tr = 2 campaign and an evaluation every 30 iterations. The fine test
/// size keeps predictions near cell level, so the re-mapping search finds
/// permutations that win. Returns the trace and the stats view.
fn remapping_flow() -> (String, FlowStats) {
    const SEED: u64 = 7;
    let data = SyntheticDataset::mnist_like(240, 60, SEED);
    let mut rng = init_rng(SEED);
    let mut net = Network::new();
    net.push(nn::layers::Dense::new(784, 24, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(24, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.15)
        .with_endurance(EnduranceModel::new(60.0, 15.0))
        .with_seed(SEED);
    let mut flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(30)
        .with_detection_warmup(0)
        .with_eval_interval(30);
    flow.detector = DetectorConfig::new(2).unwrap();
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder).unwrap();
    trainer.train(&data, 120).unwrap();
    (view.contents(), trainer.stats())
}

#[test]
fn trace_byte_identical_across_thread_counts() {
    let (ref_trace, ref_stats) = at_budget(1, || traced_flow(SEED, 15));
    assert!(!ref_trace.is_empty(), "the trace must not be empty");
    for budget in [4usize, 64, par::MAX_THREADS] {
        let (trace, stats) = at_budget(budget, || traced_flow(SEED, 15));
        assert!(
            trace == ref_trace,
            "JSONL trace diverged between 1 and {budget} threads"
        );
        assert_eq!(
            stats, ref_stats,
            "stats view diverged between 1 and {budget} threads"
        );
    }
}

#[test]
fn trace_contains_core_event_kinds() {
    let (trace, _) = traced_flow(SEED, 15);
    for kind in [
        EventKind::TrainingIteration,
        EventKind::DetectionCampaignStart,
        EventKind::DetectionCampaignEnd,
        EventKind::WearFault,
        EventKind::WritePulseBatch,
    ] {
        let needle = format!("\"kind\":\"{}\"", kind.as_str());
        assert!(
            trace.contains(&needle),
            "trace must contain at least one {} event",
            kind.as_str()
        );
    }
}

#[test]
fn trace_is_flat_jsonl_with_monotonic_seq() {
    let (trace, _) = traced_flow(SEED, 10);
    let mut last_seq: Option<u64> = None;
    for (i, line) in trace.lines().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i} is not a flat JSON object: {line}"
        );
        let seq = extract_u64(line, "seq").unwrap();
        assert!(extract_u64(line, "iter").is_some(), "line {i} has no iter");
        assert!(
            extract_u64(line, "pulses").is_some(),
            "line {i} has no pulses"
        );
        assert!(extract_str(line, "kind").is_some(), "line {i} has no kind");
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq must strictly increase: {prev} then {seq}");
        }
        last_seq = Some(seq);
    }
    assert!(last_seq.is_some(), "the trace must contain events");
}

#[test]
fn stats_view_agrees_with_event_stream() {
    let (trace, stats) = traced_flow(SEED, 15);
    // Sum writes_issued over the TrainingIteration events; the registry
    // view must report the identical total.
    let mut issued = 0u64;
    let mut campaigns = 0u64;
    for line in trace.lines() {
        match extract_str(line, "kind").as_deref() {
            Some("training_iteration") => issued += extract_u64(line, "writes_issued").unwrap(),
            Some("detection_campaign_end") => campaigns += 1,
            _ => {}
        }
    }
    assert_eq!(issued, stats.writes_issued);
    assert_eq!(campaigns, stats.detection_campaigns);
}

/// The closed loop must apply remaps, not only search for them: one
/// `remap_applied` line per applied plan, each lowering Dist(P, F).
#[test]
fn remap_applied_lowers_dist() {
    let (trace, stats) = remapping_flow();
    assert!(
        stats.remaps_applied > 0,
        "the flow must apply at least one remap"
    );
    let mut applied = 0u64;
    for line in trace.lines() {
        if extract_str(line, "kind").as_deref() != Some("remap_applied") {
            continue;
        }
        applied += 1;
        let initial = extract_u64(line, "initial_cost").unwrap();
        let final_cost = extract_u64(line, "final_cost").unwrap();
        assert!(
            final_cost < initial,
            "applied remap must lower Dist(P, F): {initial} -> {final_cost}"
        );
    }
    assert_eq!(applied, stats.remaps_applied);
}
