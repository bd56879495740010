//! Kill/restore (DESIGN.md §12): snapshot the full run state at
//! adversarial iteration boundaries, "crash" (drop the trainer), resume
//! from bytes in a fresh recorder, and require the continuation to be
//! indistinguishable from never having crashed — byte-identical stitched
//! JSONL traces and field-identical `FlowStats`.
//!
//! The boundaries target the state most likely to desynchronize on
//! restore: right after a detection + sparing + remap iteration (warm
//! `OffChipStore`s, verified spare stores, re-pointed shards), between
//! campaigns (open skip bursts, dirty journals mid-fill), and the first
//! boundary after warmup (ledgers barely populated).

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_snapshot::SnapshotError;
use nn::data::Dataset;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{JsonlSink, JsonlView, Recorder};

const SEED: u64 = 0xC0FFEE ^ 0x0d;

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

fn traced(seed: u64) -> (FaultTolerantTrainer, JsonlView) {
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let trainer =
        FaultTolerantTrainer::with_recorder(net(seed), mapping(seed), flow(), recorder).unwrap();
    (trainer, view)
}

fn data() -> Dataset {
    SyntheticDataset::mnist_like(40, 10, SEED)
}

/// Runs `total` iterations uninterrupted, then again killed at `kill_at`
/// and resumed from serialized bytes, and compares traces and stats.
/// Returns whether the snapshot carried warm stores: one on every
/// in-service tile and none on a retired one.
fn kill_restore_case(seed: u64, data: &Dataset, total: u64, kill_at: u64) -> bool {
    let (mut full, full_view) = traced(seed);
    full.train(data, total).unwrap();

    let (mut head, head_view) = traced(seed);
    head.train(data, kill_at).unwrap();
    let bytes = ftt_snapshot::snapshot(&mut head);
    drop(head); // the crash: nothing survives but the bytes
    let slots = ftt_snapshot::decode(&bytes).unwrap().mapped.chip.slots;
    let warm_stores = slots.iter().all(|s| s.store.is_some() != s.retired);

    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let tail_view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut resumed =
        ftt_snapshot::resume(&bytes, net(seed), mapping(seed), flow(), recorder).unwrap();
    resumed.train(data, total - kill_at).unwrap();

    let stitched = format!("{}{}", head_view.contents(), tail_view.contents());
    assert!(
        stitched == full_view.contents(),
        "kill@{kill_at}/{total}: stitched trace diverges from uninterrupted run"
    );
    assert_eq!(
        resumed.stats(),
        full.stats(),
        "kill@{kill_at}/{total}: stats diverge"
    );
    warm_stores
}

/// After the first post-warmup boundary (1), right after a detection +
/// sparing + remap iteration (5), and between campaigns with open
/// bursts/journals (8). From the first campaign on, snapshots carry warm
/// `OffChipStore`s (stored planes, pending masks, counts) on every
/// in-service tile, verified spares included, and none on retired tiles.
#[test]
fn kill_at_adversarial_boundaries() {
    let data = data();
    for kill_at in [1u64, 5, 8] {
        let warm_stores = kill_restore_case(SEED, &data, 12, kill_at);
        assert_eq!(
            warm_stores,
            kill_at >= 5,
            "kill@{kill_at}: warm stores before/after the first campaign"
        );
    }
}

/// A second seed and run length through the same comparison, killed
/// right after a detection + sparing + remap iteration.
#[test]
fn kill_restore_identical_on_a_second_seed() {
    kill_restore_case(SEED ^ 0x31, &data(), 10, 5);
}

/// Snapshot bytes are canonical: decode∘encode is the identity on the
/// wire, and a second snapshot of the resumed trainer equals the bytes it
/// was resumed from (deep state equality, not just observable equality).
#[test]
fn snapshot_bytes_are_canonical_and_deep_equal() {
    let seed = SEED ^ 0x47;
    let (mut full, _view) = traced(seed);
    full.train(&data(), 9).unwrap();
    let bytes = ftt_snapshot::snapshot(&mut full);
    let state = ftt_snapshot::decode(&bytes).unwrap();
    assert!(
        ftt_snapshot::encode(&state) == bytes,
        "decode∘encode must be the identity on snapshot bytes"
    );
    let mut resumed = ftt_snapshot::resume(
        &bytes,
        net(seed),
        mapping(seed),
        flow(),
        Recorder::deterministic(),
    )
    .unwrap();
    assert!(
        ftt_snapshot::snapshot(&mut resumed) == bytes,
        "snapshot(resume(bytes)) must reproduce the exact bytes"
    );
}

/// Corruption is rejected with typed errors, never a panic and never a
/// silently-wrong trainer: bit flips trip the digest, truncations trip
/// the reader, and structurally-valid-but-incoherent states trip the
/// domain validators.
#[test]
fn corrupt_snapshots_rejected_never_panic() {
    let seed = SEED ^ 0x53;
    let (mut t, _view) = traced(seed);
    t.train(&data(), 6).unwrap();
    let good = ftt_snapshot::snapshot(&mut t);
    let resume = |bytes: &[u8]| {
        ftt_snapshot::resume(
            bytes,
            net(seed),
            mapping(seed),
            flow(),
            Recorder::deterministic(),
        )
    };

    assert!(matches!(
        ftt_snapshot::decode(&[]),
        Err(SnapshotError::Truncated { .. })
    ));
    // Flip every 997th byte (header and payload alike): each single flip
    // must yield a typed error, not a panic or a success.
    for pos in (0..good.len()).step_by(997) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        assert!(
            ftt_snapshot::decode(&bad).is_err(),
            "bit flip at byte {pos} must not decode"
        );
    }
    for cut in [10, good.len() / 2, good.len() - 1] {
        assert!(
            ftt_snapshot::decode(&good[..cut]).is_err(),
            "truncation to {cut} bytes must not decode"
        );
    }
    // An incoherent pending count survives structural decode and is
    // caught by domain validation on resume.
    let mut state = ftt_snapshot::decode(&good).unwrap();
    let store = state
        .mapped
        .chip
        .slots
        .iter_mut()
        .find_map(|slot| slot.store.as_mut())
        .expect("a run past its first campaign must have a warm store");
    store.pending_count = store.pending_count.wrapping_add(1);
    assert!(
        matches!(
            resume(&ftt_snapshot::encode(&state)),
            Err(SnapshotError::Invalid(_))
        ),
        "incoherent pending count must be rejected by domain validation"
    );
    // Swapped shard ids decode fine too: layer 0's first shard is 64x12
    // and its last the 16x12 remainder, so each id now names a tile of
    // the wrong size for its shard.
    let mut state = ftt_snapshot::decode(&good).unwrap();
    let shards = &mut state.mapped.layers[0].tiles;
    let last = shards.len() - 1;
    let (first_id, last_id) = (shards[0].2, shards[last].2);
    shards[0].2 = last_id;
    shards[last].2 = first_id;
    assert!(
        matches!(
            resume(&ftt_snapshot::encode(&state)),
            Err(SnapshotError::Invalid(_))
        ),
        "swapped shard tile ids must be rejected by domain validation"
    );
}
