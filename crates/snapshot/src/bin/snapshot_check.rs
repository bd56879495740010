//! End-to-end snapshot/resume invariant check, wired into CI as
//! `just snapshot-check`.
//!
//! This runs a seeded training flow twice — once uninterrupted, once killed
//! at an iteration boundary, serialized, and resumed in a fresh recorder —
//! and requires the stitched event trace to be byte-identical to the
//! uninterrupted one and the final [`FlowStats`] to match field-for-field.
//! The kill lands between campaigns, so the snapshot carries every tile's
//! warm off-chip store.
//!
//! Exits 0 with a `PASS` line, or 1 with a description of the first
//! divergence. Never panics.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, JsonlView, Recorder};
use rram::endurance::EnduranceModel;

const SEED: u64 = 11;
const TOTAL_ITERS: u64 = 24;
const KILL_AT: u64 = 9;

fn net() -> Network {
    let mut rng = init_rng(SEED);
    let mut n = Network::new();
    n.push(nn::layers::Dense::new(784, 12, &mut rng));
    n.push(nn::layers::Relu::new());
    n.push(nn::layers::Dense::new(12, 10, &mut rng));
    n
}

fn mapping() -> MappingConfig {
    MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.15)
        .with_endurance(EnduranceModel::new(40.0, 10.0))
        .with_seed(SEED)
        .with_spare_tiles(4)
        .with_retire_fault_density(0.3)
}

fn flow() -> FlowConfig {
    FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5)
}

fn traced() -> Result<(FaultTolerantTrainer, JsonlView), String> {
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let trainer = FaultTolerantTrainer::with_recorder(net(), mapping(), flow(), recorder)
        .map_err(|e| format!("building trainer: {e}"))?;
    Ok((trainer, view))
}

fn check() -> Result<(), String> {
    let data = SyntheticDataset::mnist_like(40, 10, SEED);

    let (mut full, full_view) = traced()?;
    full.train(&data, TOTAL_ITERS)
        .map_err(|e| format!("uninterrupted run: {e}"))?;

    let (mut head, head_view) = traced()?;
    head.train(&data, KILL_AT)
        .map_err(|e| format!("head run: {e}"))?;
    let bytes = ftt_snapshot::snapshot(&mut head);
    drop(head); // the original "process" dies here; only `bytes` survives

    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let tail_view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut resumed = ftt_snapshot::resume(&bytes, net(), mapping(), flow(), recorder)
        .map_err(|e| format!("resume: {e}"))?;
    resumed
        .train(&data, TOTAL_ITERS - KILL_AT)
        .map_err(|e| format!("resumed run: {e}"))?;

    let stitched = format!("{}{}", head_view.contents(), tail_view.contents());
    let uninterrupted = full_view.contents();
    if stitched != uninterrupted {
        let at = stitched
            .bytes()
            .zip(uninterrupted.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| stitched.len().min(uninterrupted.len()));
        return Err(format!(
            "stitched trace diverges from uninterrupted trace at byte {at} \
             (stitched {} bytes, uninterrupted {} bytes)",
            stitched.len(),
            uninterrupted.len()
        ));
    }

    let (a, b) = (resumed.stats(), full.stats());
    if a != b {
        return Err(format!(
            "final stats diverge: resumed {a:?} vs uninterrupted {b:?}"
        ));
    }

    // The resumed trainer's own snapshot must be byte-stable through a
    // decode/encode roundtrip.
    let again = ftt_snapshot::snapshot(&mut resumed);
    let roundtrip = ftt_snapshot::decode(&again)
        .map_err(|e| format!("re-decoding resumed snapshot: {e}"))?;
    if ftt_snapshot::encode(&roundtrip) != again {
        return Err("snapshot bytes not stable through roundtrip".into());
    }

    println!(
        "PASS {TOTAL_ITERS} iters == {KILL_AT} + snapshot({} bytes) + {}",
        bytes.len(),
        TOTAL_ITERS - KILL_AT
    );
    Ok(())
}

fn main() {
    if let Err(msg) = check() {
        eprintln!("FAIL {msg}");
        std::process::exit(1);
    }
    println!("snapshot-check: bit-identical across kill/restore");
}
