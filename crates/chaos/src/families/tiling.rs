//! Tiled-chip chaos (DESIGN.md §11): remainder geometry, spare-pool
//! exhaustion, tile-count-1 equivalence, and the closed loop with sparing
//! in it.
//!
//! The tiled MVM executor's contract is the strongest invariant in the
//! crate: its output must be **bit-identical** to the monolithic
//! [`Crossbar::mvm`] kernel — same accumulation order, same sparsity
//! gate — including remainder shard grids where edge tiles are clipped.

use ftt_tile::{ChipConfig, SpareOutcome, TiledChip, TiledMapping};
use rram::crossbar::Crossbar;
use rram::fault::{FaultKind, FaultMap};

use super::uniform_crossbar;
use crate::{ensure, FamilyReport};

/// Deterministic pseudo-levels for programming a plane (splitmix-style).
fn level_at(seed: u64, i: u64) -> u16 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z >> 33) as u16 % 8
}

/// Builds a monolithic crossbar and an identically programmed tiled chip
/// (tile size `ts`) over the same `rows × cols` plane, with a clustered
/// fault map applied to both sides.
fn twin_arrays(
    rows: usize,
    cols: usize,
    ts: usize,
    seed: u64,
) -> Result<(Crossbar, TiledChip, TiledMapping), String> {
    let mut mono = uniform_crossbar(rows, cols, 0)?;
    for r in 0..rows {
        for c in 0..cols {
            let lvl = level_at(seed, (r * cols + c) as u64);
            mono.write_level(r, c, lvl)
                .map_err(|e| format!("write_level: {e}"))?;
        }
    }
    // A deterministic fault sprinkle; SA1 cells pin full conductance so
    // they contribute to (and must not corrupt) the accumulation order.
    let mut faults = FaultMap::healthy(rows, cols);
    for i in 0..(rows * cols / 23).max(1) {
        let cell = (level_at(seed ^ 0x5a, i as u64) as usize)
            .wrapping_mul(2_654_435_761)
            .wrapping_add(i * 97)
            % (rows * cols);
        let kind = if i % 3 == 0 {
            FaultKind::StuckAt0
        } else {
            FaultKind::StuckAt1
        };
        faults.set(cell / cols, cell % cols, Some(kind));
    }
    mono.apply_fault_map(&faults);

    let mut chip =
        TiledChip::new(ChipConfig::new(ts, 8, seed)).map_err(|e| format!("chip: {e}"))?;
    let tiled =
        TiledMapping::allocate(&mut chip, rows, cols).map_err(|e| format!("allocate: {e}"))?;
    tiled
        .program(&mut chip, mono.conductance_plane_f64())
        .map_err(|e| format!("program: {e}"))?;
    tiled
        .apply_fault_map(&mut chip, &faults)
        .map_err(|e| format!("faults: {e}"))?;
    // Faulty tiled cells pin to 0/1 exactly like the monolithic ones, and
    // programming happened before the fault application on both sides, so
    // both planes are equal bit-for-bit.
    Ok((mono, chip, tiled))
}

/// Tiled-chip scenario family.
pub fn tiling(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("tiling");

    // A remainder grid: 136×264 on 32² tiles is four full row bands and
    // an 8-row one, eight full column shards and an 8-wide one. The tiled
    // MVM must equal the monolithic kernel, and every row of the batched
    // MVM the single-sample one.
    fam.case("remainder_grid_mvm_bit_identical", || {
        let (rows, cols) = (136, 264);
        let (mono, chip, tiled) = twin_arrays(rows, cols, 32, seed)?;
        let dense: Vec<f32> = (0..rows).map(|i| ((i as f32) * 0.37).sin()).collect();
        let sparse: Vec<f32> = (0..rows)
            .map(|i| if i % 5 == 0 { (i as f32) * 0.01 } else { 0.0 })
            .collect();
        let mut singles = Vec::new();
        for input in [&dense, &sparse] {
            let want = mono.mvm(input).map_err(|e| format!("mono mvm: {e}"))?;
            let got = tiled
                .mvm(&chip, input)
                .map_err(|e| format!("tiled mvm: {e}"))?;
            ensure(got.len() == want.len(), "mvm output length")?;
            for (c, (a, b)) in want.iter().zip(&got).enumerate() {
                ensure(
                    a.to_bits() == b.to_bits(),
                    format!("mvm col {c} diverged from the monolithic kernel: {a} vs {b}"),
                )?;
            }
            singles.extend(got);
        }
        let batch: Vec<f32> = dense.iter().chain(&sparse).copied().collect();
        let batched = tiled
            .mvm_batch(&chip, &batch, 2)
            .map_err(|e| format!("tiled mvm_batch: {e}"))?;
        ensure(batched.len() == singles.len(), "mvm_batch output length")?;
        for (c, (a, b)) in singles.iter().zip(&batched).enumerate() {
            ensure(
                a.to_bits() == b.to_bits(),
                format!("mvm_batch col {c} diverged from single mvm: {a} vs {b}"),
            )?;
        }
        Ok(())
    });

    // One tile covering the whole matrix: the executor must degenerate to
    // exactly the monolithic kernel (same plane, same gates).
    fam.case("single_tile_equals_monolithic", || {
        let (mono, chip, tiled) = twin_arrays(96, 60, 128, seed ^ 0x11)?;
        ensure(tiled.tile_ids().len() == 1, "one shard expected")?;
        let input: Vec<f32> = (0..96).map(|i| ((i as f32) * 0.73).cos()).collect();
        let reference = mono.mvm(&input).map_err(|e| format!("mono: {e}"))?;
        let got = tiled
            .mvm(&chip, &input)
            .map_err(|e| format!("tiled: {e}"))?;
        ensure(
            reference
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "single-tile MVM must equal the monolithic kernel bit-for-bit",
        )?;
        // The composed logical fault map equals the monolithic one.
        let map = tiled.fault_map(&chip).map_err(|e| e.to_string())?;
        ensure(map == mono.fault_map().clone(), "fault map composition")
    });

    // Exhausting the spare pool must degrade, not fail: the over-threshold
    // tile stays in service and later campaigns still run over it.
    fam.case("spares_exhausted_degrades_gracefully", || {
        use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
        let cfg = ChipConfig::new(8, 8, seed ^ 0x22)
            .with_spare_tiles(1)
            .with_retire_fault_density(0.05);
        let mut chip = TiledChip::new(cfg).map_err(|e| e.to_string())?;
        let a = chip.allocate(8, 8).map_err(|e| e.to_string())?;
        let b = chip.allocate(8, 5).map_err(|e| e.to_string())?;
        // Make both tiles dense with faults.
        for &(id, cols) in &[(a, 8usize), (b, 5)] {
            let mut map = FaultMap::healthy(8, cols);
            for r in 0..8 {
                map.set(r, r % cols, Some(FaultKind::StuckAt0));
            }
            chip.tile_mut(id)
                .map_err(|e| e.to_string())?
                .apply_fault_map(&map);
        }
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).map_err(|e| e.to_string())?);
        let stats = chip.run_campaigns(&detector, &[a, b]);
        ensure(stats.campaigns_run == 2, "both tiles campaign")?;
        ensure(chip.tiles_over_density(0.05) == vec![a, b], "both flagged")?;
        let first = chip.substitute(a).map_err(|e| e.to_string())?;
        ensure(
            matches!(first, SpareOutcome::Attached { .. }),
            "the only spare attaches",
        )?;
        let second = chip.substitute(b).map_err(|e| e.to_string())?;
        ensure(
            second == SpareOutcome::Exhausted,
            format!("pool is empty: {second:?}"),
        )?;
        // `b` stays active and testable.
        ensure(
            chip.active_ids().contains(&b),
            "exhausted tile stays in service",
        )?;
        let stats = chip.run_campaigns(&detector, &[b]);
        ensure(stats.campaigns_run == 1, "campaigns still run over it")?;
        ensure(stats.flagged_cells == 8, "its faults stay flagged")?;
        // Retiring an already-retired tile is a typed error, not a panic.
        ensure(chip.substitute(a).is_err(), "double retirement errors")
    });

    // The closed loop with sparing active: detection must retire tiles
    // and attach spares, and the stats view must count the retirements.
    fam.case("sparing_flow_retires_and_attaches_spares", || {
        use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
        use ftt_core::flow::FaultTolerantTrainer;
        use nn::init::init_rng;
        use nn::network::Network;
        use nn::optimizer::LrSchedule;
        use nn::synth::SyntheticDataset;
        use obs::{JsonlSink, Recorder};

        let data = SyntheticDataset::mnist_like(40, 10, seed);
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(nn::layers::Dense::new(784, 12, &mut rng));
        net.push(nn::layers::Relu::new());
        net.push(nn::layers::Dense::new(12, 10, &mut rng));
        let mut mapping = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.2)
            .with_seed(seed)
            .with_spare_tiles(4)
            .with_retire_fault_density(0.1);
        mapping.tile_size = 64;
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
            .train(&data, 12)
            .map_err(|e| format!("train: {e}"))?;
        let trace = view.contents();
        ensure(
            trace.contains("\"kind\":\"tile_retired\"")
                && trace.contains("\"kind\":\"spare_attached\""),
            "sparing must actually fire",
        )?;
        ensure(
            trainer.stats().tiles_retired > 0,
            "stats must count retirements",
        )
    });

    fam
}
