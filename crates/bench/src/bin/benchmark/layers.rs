//! Standalone per-layer probes and the kernel oracles, timed from outside
//! through public APIs at a workload's own shapes.

use std::hint::black_box;
use std::time::Instant;

use ftt_core::mapping::MappedNetwork;
use ftt_tile::{ChipConfig, TiledChip, TiledMapping};
use nn::data::Dataset;
use nn::loss::softmax_cross_entropy;
use nn::network::Network;
use rand::Rng;
use rram::crossbar::CrossbarBuilder;
use rram::spatial::SpatialDistribution;

use crate::median;

/// Samples per batched-MVM probe (the serve fleet's `max_batch`).
const BATCH: usize = 8;

/// Median microseconds of `reps` calls of `f`; the first error ends the
/// probe.
fn median_us<E: std::fmt::Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f().map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut us))
}

/// `(forward_train µs, backward µs)` at batch 1 and the test-split
/// evaluation forward in ms, on `net`.
pub fn nn_probe(net: &mut Network, data: &Dataset, reps: usize) -> Result<(f64, f64, f64), String> {
    let (x, y) = data
        .try_train_batches(1)
        .map_err(|e| format!("nn probe batch: {e}"))?
        .next()
        .ok_or("nn probe: empty training split")?;
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let logits = net.forward_train(black_box(&x));
        fwd.push(t.elapsed().as_secs_f64() * 1e6);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        let t = Instant::now();
        black_box(net.backward(&grad));
        bwd.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (tx, _) = data.test_set();
    let eval_us = median_us(reps.div_ceil(10).max(3), || {
        black_box(net.forward(black_box(&tx)));
        Ok::<(), String>(())
    })?;
    Ok((median(&mut fwd), median(&mut bwd), eval_us / 1e3))
}

/// Median µs of copying the hardware's effective weights into `net`.
pub fn load_weights_probe(
    mapped: &MappedNetwork,
    net: &mut Network,
    reps: usize,
) -> Result<f64, String> {
    median_us(reps, || mapped.load_effective_weights(net))
        .map_err(|e| format!("load_effective_weights: {e}"))
}

/// A `rows × cols` plane programmed onto a fresh chip of `tile`² tiles,
/// and `BATCH` input samples.
fn programmed_plane(
    rows: usize,
    cols: usize,
    tile: usize,
    seed: u64,
) -> Result<(TiledChip, TiledMapping, Vec<f32>), String> {
    let err = |e: ftt_tile::TileError| format!("tile probe: {e}");
    let mut chip = TiledChip::new(ChipConfig::new(tile, 8, seed)).map_err(err)?;
    let mapping = TiledMapping::allocate(&mut chip, rows, cols).map_err(err)?;
    let mut rng = rram::rng::sim_rng(seed);
    let targets: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(0.0..1.0)).collect();
    mapping.program(&mut chip, &targets).map_err(err)?;
    let inputs = (0..BATCH * rows)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Ok((chip, mapping, inputs))
}

/// `(mvm_batch of 8 µs, 8 single mvm calls µs)` on the plane.
pub fn tile_probe(
    (rows, cols, tile): (usize, usize, usize),
    seed: u64,
    reps: usize,
) -> Result<(f64, f64), String> {
    let (chip, mapping, inputs) = programmed_plane(rows, cols, tile, seed)?;
    let batched = median_us(reps, || {
        black_box(mapping.mvm_batch(&chip, black_box(&inputs), BATCH)).map(drop)
    })?;
    let single = median_us(reps, || {
        inputs
            .chunks(rows)
            .try_for_each(|sample| black_box(mapping.mvm(&chip, black_box(sample))).map(drop))
    })?;
    Ok((batched, single))
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The kernel oracles at the plane's shape: `Crossbar::mvm` equals
/// `mvm_reference` on a faulty array, and the tiled `mvm_batch` equals
/// per-sample `mvm`. `Err` names the first mismatch or failure.
pub fn kernel_oracles((rows, cols, tile): (usize, usize, usize), seed: u64) -> Result<(), String> {
    let mut xbar = CrossbarBuilder::new(rows, cols)
        .initial_faults(SpatialDistribution::Uniform, 0.1)
        .seed(seed)
        .build()
        .map_err(|e| format!("oracle crossbar: {e}"))?;
    let mut rng = rram::rng::sim_rng(seed ^ 1);
    for r in 0..rows {
        for c in 0..cols {
            xbar.write_level(r, c, rng.gen_range(0..8))
                .map_err(|e| format!("oracle crossbar write: {e}"))?;
        }
    }
    let input: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let fast = xbar.mvm(&input).map_err(|e| e.to_string())?;
    let reference = xbar.mvm_reference(&input).map_err(|e| e.to_string())?;
    if !same_bits(&fast, &reference) {
        return Err(format!(
            "Crossbar::mvm differs from mvm_reference at {rows}x{cols}"
        ));
    }
    let (chip, mapping, inputs) = programmed_plane(rows, cols, tile, seed)?;
    let batched = mapping
        .mvm_batch(&chip, &inputs, BATCH)
        .map_err(|e| e.to_string())?;
    for (i, sample) in inputs.chunks(rows).enumerate() {
        let single = mapping.mvm(&chip, sample).map_err(|e| e.to_string())?;
        if !same_bits(&batched[i * cols..(i + 1) * cols], &single) {
            return Err(format!(
                "TiledMapping::mvm_batch differs from mvm at {rows}x{cols}, sample {i}"
            ));
        }
    }
    Ok(())
}
