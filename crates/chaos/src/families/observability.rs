//! Observability chaos: the telemetry event stream must be part of the
//! determinism contract, not an exception to it.
//!
//! The `obs` recorder stamps events on a logical clock (iteration /
//! write-pulse counts / sequence number) and only the sequential flow
//! spine emits events, so a seeded run's JSONL trace must be *byte*-
//! identical whichever `RRAM_FTT_THREADS` budget is in force — including
//! hostile ones. This family also cross-checks the registry-derived
//! [`FlowStats`] view against the event stream itself.

use faultdet::detector::DetectorConfig;
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{EventKind, JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

use crate::{ensure, FamilyReport};

/// Runs a small seeded closed-loop flow with a JSONL sink attached and
/// returns the trace text plus the registry-derived stats snapshot.
fn traced_flow(seed: u64, iterations: u64) -> Result<(String, FlowStats), String> {
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
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder)
        .map_err(|e| format!("new: {e}"))?;
    trainer
        .train(&data, iterations)
        .map_err(|e| format!("train: {e}"))?;
    Ok((view.contents(), trainer.stats()))
}

/// The closed loop of the telemetry walkthrough: 120 iterations of a
/// 784×24×10 MLP at fault fraction 0.15 and endurance N(60, 15²), with a
/// Tr = 2 campaign and an evaluation every 30 iterations. The fine test
/// size keeps predictions near cell level, so the re-mapping search finds
/// permutations that win. Returns the trace and the stats view.
fn remapping_flow() -> Result<(String, FlowStats), String> {
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
    flow.detector = DetectorConfig::new(2).map_err(|e| format!("detector: {e}"))?;
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder)
        .map_err(|e| format!("new: {e}"))?;
    trainer
        .train(&data, 120)
        .map_err(|e| format!("train: {e}"))?;
    Ok((view.contents(), trainer.stats()))
}

/// Event-stream determinism and stream/stats coherence.
pub fn obs_stream(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("obs_stream");

    fam.case("trace_byte_identical_across_thread_counts", || {
        let budgets = [1usize, 4, 64, par::MAX_THREADS];
        let mut reference: Option<(String, FlowStats)> = None;
        for &budget in &budgets {
            par::set_thread_count(budget);
            let result = traced_flow(seed, 15);
            par::set_thread_count(0); // restore env/auto behaviour
            let (trace, stats) = result?;
            ensure(!trace.is_empty(), "the trace must not be empty")?;
            match &reference {
                None => reference = Some((trace, stats)),
                Some((ref_trace, ref_stats)) => {
                    ensure(
                        &trace == ref_trace,
                        format!("JSONL trace diverged between 1 and {budget} threads"),
                    )?;
                    ensure(
                        &stats == ref_stats,
                        format!("stats view diverged between 1 and {budget} threads"),
                    )?;
                }
            }
        }
        Ok(())
    });

    fam.case("trace_contains_core_event_kinds", || {
        let (trace, _) = traced_flow(seed, 15)?;
        for kind in [
            EventKind::TrainingIteration,
            EventKind::DetectionCampaignStart,
            EventKind::DetectionCampaignEnd,
            EventKind::WearFault,
            EventKind::WritePulseBatch,
        ] {
            let needle = format!("\"kind\":\"{}\"", kind.as_str());
            ensure(
                trace.contains(&needle),
                format!("trace must contain at least one {} event", kind.as_str()),
            )?;
        }
        Ok(())
    });

    fam.case("trace_is_flat_jsonl_with_monotonic_seq", || {
        let (trace, _) = traced_flow(seed, 10)?;
        let mut last_seq: Option<u64> = None;
        for (i, line) in trace.lines().enumerate() {
            ensure(
                line.starts_with('{') && line.ends_with('}'),
                format!("line {i} is not a flat JSON object: {line}"),
            )?;
            let seq = obs::json::extract_u64(line, "seq")
                .ok_or_else(|| format!("line {i} has no seq field: {line}"))?;
            obs::json::extract_u64(line, "iter")
                .ok_or_else(|| format!("line {i} has no iter field"))?;
            obs::json::extract_u64(line, "pulses")
                .ok_or_else(|| format!("line {i} has no pulses field"))?;
            obs::json::extract_str(line, "kind")
                .ok_or_else(|| format!("line {i} has no kind field"))?;
            if let Some(prev) = last_seq {
                ensure(
                    seq > prev,
                    format!("seq must be strictly increasing: {prev} then {seq}"),
                )?;
            }
            last_seq = Some(seq);
        }
        ensure(last_seq.is_some(), "the trace must contain events")
    });

    fam.case("stats_view_agrees_with_event_stream", || {
        let (trace, stats) = traced_flow(seed, 15)?;
        // Sum writes_issued over the TrainingIteration events; the
        // registry view must report the identical total.
        let mut issued = 0u64;
        let mut campaigns = 0u64;
        for line in trace.lines() {
            match obs::json::extract_str(line, "kind").as_deref() {
                Some("training_iteration") => {
                    issued += obs::json::extract_u64(line, "writes_issued")
                        .ok_or("training_iteration without writes_issued")?;
                }
                Some("detection_campaign_end") => campaigns += 1,
                _ => {}
            }
        }
        ensure(
            issued == stats.writes_issued,
            format!(
                "event stream says {issued} writes issued, stats view says {}",
                stats.writes_issued
            ),
        )?;
        ensure(
            campaigns == stats.detection_campaigns,
            format!(
                "event stream says {campaigns} campaigns, stats view says {}",
                stats.detection_campaigns
            ),
        )
    });

    // The closed loop must apply remaps, not only search for them: one
    // `remap_applied` line per applied plan, each lowering Dist(P, F).
    fam.case("remap_applied_lowers_dist", || {
        let (trace, stats) = remapping_flow()?;
        ensure(
            stats.remaps_applied > 0,
            "the flow must apply at least one remap",
        )?;
        let mut applied = 0u64;
        for line in trace.lines() {
            if obs::json::extract_str(line, "kind").as_deref() != Some("remap_applied") {
                continue;
            }
            applied += 1;
            let initial = obs::json::extract_u64(line, "initial_cost")
                .ok_or("remap_applied without initial_cost")?;
            let final_cost = obs::json::extract_u64(line, "final_cost")
                .ok_or("remap_applied without final_cost")?;
            ensure(
                final_cost < initial,
                format!("applied remap must lower Dist(P, F): {initial} -> {final_cost}"),
            )?;
        }
        ensure(
            applied == stats.remaps_applied,
            format!(
                "event stream says {applied} applied remaps, stats view says {}",
                stats.remaps_applied
            ),
        )
    });
    fam
}
