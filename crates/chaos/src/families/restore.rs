//! Kill/restore chaos (DESIGN.md §12): snapshot the full run state at
//! adversarial iteration boundaries, "crash" (drop the trainer), resume
//! from bytes in a fresh recorder, and require the continuation to be
//! indistinguishable from never having crashed — byte-identical stitched
//! JSONL traces and field-identical `FlowStats`.
//!
//! The adversarial boundaries target the state most likely to desynchronize
//! on restore: right after a detection + sparing + remap iteration (warm
//! `OffChipStore`s, verified spare stores, re-pointed shards), between
//! campaigns (open skip bursts, dirty journals mid-fill), and the first
//! boundary after warmup (ledgers barely populated).

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::data::Dataset;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, JsonlView, Recorder};

use crate::{ensure, FamilyReport};

fn net(seed: u64) -> Network {
    let mut rng = init_rng(seed);
    let mut n = Network::new();
    n.push(nn::layers::Dense::new(784, 12, &mut rng));
    n.push(nn::layers::Relu::new());
    n.push(nn::layers::Dense::new(12, 10, &mut rng));
    n
}

/// A mapping dense enough in faults and endurance wear that the 12-
/// iteration window crosses detection campaigns, wear faults, sparing,
/// and remaps — the state a snapshot must carry faithfully.
fn mapping(seed: u64) -> MappingConfig {
    let mut m = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.2)
        .with_endurance(rram::endurance::EnduranceModel::new(40.0, 10.0))
        .with_seed(seed)
        .with_spare_tiles(4)
        .with_retire_fault_density(0.1);
    m.tile_size = 64;
    m
}

fn flow() -> FlowConfig {
    FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5)
}

fn traced(seed: u64) -> Result<(FaultTolerantTrainer, JsonlView), String> {
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let trainer = FaultTolerantTrainer::with_recorder(net(seed), mapping(seed), flow(), recorder)
        .map_err(|e| format!("new trainer: {e}"))?;
    Ok((trainer, view))
}

/// Runs `total` iterations uninterrupted, then again killed at `kill_at`
/// and resumed from serialized bytes, and compares traces and stats.
/// Returns whether the snapshot carried warm stores: one on every
/// in-service tile and none on a retired one.
fn kill_restore_case(seed: u64, data: &Dataset, total: u64, kill_at: u64) -> Result<bool, String> {
    let (mut full, full_view) = traced(seed)?;
    full.train(data, total)
        .map_err(|e| format!("uninterrupted: {e}"))?;

    let (mut head, head_view) = traced(seed)?;
    head.train(data, kill_at)
        .map_err(|e| format!("head: {e}"))?;
    let bytes = ftt_snapshot::snapshot(&mut head);
    drop(head); // the crash: nothing survives but the bytes
    let slots = ftt_snapshot::decode(&bytes)
        .map_err(|e| format!("decode @{kill_at}: {e}"))?
        .mapped
        .chip
        .slots;
    let warm_stores = slots.iter().all(|s| s.store.is_some() != s.retired);

    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let tail_view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut resumed = ftt_snapshot::resume(&bytes, net(seed), mapping(seed), flow(), recorder)
        .map_err(|e| format!("resume @{kill_at}: {e}"))?;
    resumed
        .train(data, total - kill_at)
        .map_err(|e| format!("tail: {e}"))?;

    let stitched = format!("{}{}", head_view.contents(), tail_view.contents());
    ensure(
        stitched == full_view.contents(),
        format!("kill@{kill_at}/{total}: stitched trace diverges from uninterrupted run"),
    )?;
    ensure(
        resumed.stats() == full.stats(),
        format!(
            "kill@{kill_at}/{total}: stats diverge: {:?} vs {:?}",
            resumed.stats(),
            full.stats()
        ),
    )?;
    Ok(warm_stores)
}

/// Kill/restore scenario family.
pub fn restore(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("restore");
    let data = SyntheticDataset::mnist_like(40, 10, seed);

    // The adversarial boundaries: after the first post-warmup boundary
    // (1), right after a detection + sparing + remap iteration (5), and
    // between campaigns with open bursts/journals (8). From the first
    // campaign on, snapshots carry warm `OffChipStore`s (stored planes,
    // pending masks, counts) on every in-service tile, verified spares
    // included, and none on retired tiles.
    fam.case("kill_at_adversarial_boundaries", || {
        for kill_at in [1u64, 5, 8] {
            let warm_stores = kill_restore_case(seed, &data, 12, kill_at)?;
            ensure(
                warm_stores == (kill_at >= 5),
                format!(
                    "kill@{kill_at}: warm stores {warm_stores} before/after the first campaign"
                ),
            )?;
        }
        Ok(())
    });

    // A second seed and run length through the same comparison, killed
    // right after a detection + sparing + remap iteration.
    fam.case("kill_restore_identical_on_a_second_seed", || {
        kill_restore_case(seed ^ 0x31, &data, 10, 5).map(|_| ())
    });

    // Snapshot bytes are canonical: decode∘encode is the identity on the
    // wire, and a second snapshot of the resumed trainer equals a second
    // snapshot of the uninterrupted one (deep state equality, not just
    // observable equality).
    fam.case("snapshot_bytes_are_canonical_and_deep_equal", || {
        let (mut full, _fv) = traced(seed ^ 0x47)?;
        full.train(&data, 9).map_err(|e| e.to_string())?;
        let bytes = ftt_snapshot::snapshot(&mut full);
        let state = ftt_snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        ensure(
            ftt_snapshot::encode(&state) == bytes,
            "decode∘encode must be the identity on snapshot bytes",
        )?;
        let recorder = Recorder::deterministic();
        let mut resumed = ftt_snapshot::resume(
            &bytes,
            net(seed ^ 0x47),
            mapping(seed ^ 0x47),
            flow(),
            recorder,
        )
        .map_err(|e| e.to_string())?;
        ensure(
            ftt_snapshot::snapshot(&mut resumed) == bytes,
            "snapshot(resume(bytes)) must reproduce the exact bytes",
        )
    });

    // Corruption is rejected with typed errors, never a panic and never a
    // silently-wrong trainer: bit flips trip the digest, truncations trip
    // the reader, and structurally-valid-but-incoherent states trip the
    // domain validators.
    fam.case("corrupt_snapshots_rejected_never_panic", || {
        use ftt_snapshot::SnapshotError;
        let (mut t, _v) = traced(seed ^ 0x53)?;
        t.train(&data, 6).map_err(|e| e.to_string())?;
        let good = ftt_snapshot::snapshot(&mut t);

        ensure(
            matches!(
                ftt_snapshot::decode(&[]),
                Err(SnapshotError::Truncated { .. })
            ),
            "empty input must be Truncated",
        )?;
        // Flip every 997th byte (header and payload alike): each single
        // flip must yield a typed error, not a panic or a success.
        let mut pos = 0usize;
        while pos < good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            ensure(
                ftt_snapshot::decode(&bad).is_err(),
                format!("bit flip at byte {pos} must not decode"),
            )?;
            pos += 997;
        }
        for cut in [10, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad.truncate(cut);
            ensure(
                ftt_snapshot::decode(&bad).is_err(),
                format!("truncation to {cut} bytes must not decode"),
            )?;
        }
        // Incoherent pending count survives structural decode and is
        // caught by domain validation on resume.
        let mut state = ftt_snapshot::decode(&good).map_err(|e| e.to_string())?;
        let mut tampered = false;
        for slot in &mut state.mapped.chip.slots {
            if let Some(store) = &mut slot.store {
                store.pending_count = store.pending_count.wrapping_add(1);
                tampered = true;
                break;
            }
        }
        ensure(
            tampered,
            "a run past its first campaign must have a warm store",
        )?;
        let bytes = ftt_snapshot::encode(&state);
        ensure(
            matches!(
                ftt_snapshot::resume(
                    &bytes,
                    net(seed ^ 0x53),
                    mapping(seed ^ 0x53),
                    flow(),
                    Recorder::deterministic(),
                ),
                Err(SnapshotError::Invalid(_))
            ),
            "incoherent pending count must be rejected by domain validation",
        )?;
        // Swapped shard ids decode fine too: layer 0's first shard is
        // 64x12 and its last the 16x12 remainder, so each id now names a
        // tile of the wrong size for its shard.
        let mut state = ftt_snapshot::decode(&good).map_err(|e| e.to_string())?;
        let shards = &mut state
            .mapped
            .layers
            .first_mut()
            .ok_or("the snapshot maps no layer")?
            .tiles;
        let last = shards.len() - 1;
        let (first_id, last_id) = (shards[0].2, shards[last].2);
        shards[0].2 = last_id;
        shards[last].2 = first_id;
        let bytes = ftt_snapshot::encode(&state);
        ensure(
            matches!(
                ftt_snapshot::resume(
                    &bytes,
                    net(seed ^ 0x53),
                    mapping(seed ^ 0x53),
                    flow(),
                    Recorder::deterministic(),
                ),
                Err(SnapshotError::Invalid(_))
            ),
            "swapped shard tile ids must be rejected by domain validation",
        )
    });

    fam
}
