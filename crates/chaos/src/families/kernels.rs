//! Kernel-speed chaos: the vectorized lane kernels and the persistent
//! reference store promise *bit-identity* with their scalar and one-shot
//! oracles. This family attacks those promises with lane-tail remainder
//! shapes and interleaved detection traffic.

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use rand::Rng;
use rram::crossbar::{Crossbar, CrossbarBuilder};
use rram::rng::sim_rng;
use rram::spatial::SpatialDistribution;
use rram::variation::WriteVariation;

use crate::{ensure, FamilyReport};

/// A programmed crossbar with faults and write variation — every kernel's
/// least-convenient substrate.
fn programmed(n: usize, fraction: f64, seed: u64) -> Result<Crossbar, String> {
    let mut xbar = CrossbarBuilder::new(n, n)
        .initial_faults(SpatialDistribution::Uniform, fraction)
        .variation(WriteVariation::new(0.05))
        .seed(seed)
        .build()
        .map_err(|e| format!("build {n}x{n}: {e}"))?;
    let mut rng = sim_rng(seed ^ 0xC0DE);
    for r in 0..n {
        for c in 0..n {
            let level = rng.gen_range(0..xbar.levels());
            let _ = xbar
                .write_level(r, c, level)
                .map_err(|e| format!("write_level({r},{c}): {e}"))?;
        }
    }
    Ok(xbar)
}

/// Lane-tail remainders: every size ±1 around the f32/f64 lane widths (and
/// one multi-chunk size) must keep `mvm` and the batched group sums
/// bit-identical to the scalar references.
pub fn kernels(seed: u64) -> FamilyReport {
    let mut fam = FamilyReport::new("kernels");

    fam.case("lane_tail_remainders", || {
        let f32_l = par::F32_LANES;
        let f64_l = par::F64_LANES;
        let mut sizes = vec![
            f64_l - 1,
            f64_l,
            f64_l + 1,
            f32_l - 1,
            f32_l,
            f32_l + 1,
            2 * f32_l + 1,
        ];
        sizes.dedup();
        lane_tail_case(&sizes, seed)
    });

    fam.case("fresh_then_warm_detection_byte_identity", || {
        fresh_then_warm_case(seed)
    });

    fam
}

fn lane_tail_case(sizes: &[usize], seed: u64) -> Result<(), String> {
    for &n in sizes {
        let xbar = programmed(n, 0.1, seed ^ n as u64)?;
        let mut rng = sim_rng(seed ^ 0xFACE ^ n as u64);
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let fast = xbar.mvm(&input).map_err(|e| format!("mvm {n}: {e}"))?;
        let reference = xbar
            .mvm_reference(&input)
            .map_err(|e| format!("mvm_reference {n}: {e}"))?;
        for (c, (f, r)) in fast.iter().zip(&reference).enumerate() {
            ensure(
                f.to_bits() == r.to_bits(),
                format!("mvm size {n} col {c}: fast {f} vs reference {r}"),
            )?;
        }
        // Batched column sums vs a plain scalar fold over the f64 plane.
        let plane = xbar.conductance_plane_f64().to_vec();
        let sums = xbar
            .column_group_sums(0..n)
            .map_err(|e| format!("column_group_sums {n}: {e}"))?;
        for c in 0..n {
            let mut scalar = 0.0f64;
            for r in 0..n {
                scalar += plane[r * n + c];
            }
            ensure(
                sums[c].to_bits() == scalar.to_bits(),
                format!(
                    "column sum size {n} col {c}: {} vs scalar {scalar}",
                    sums[c]
                ),
            )?;
        }
        // Batched row sums vs the single-row kernel (shared lane tree).
        let rows = xbar
            .row_group_sums(0..n)
            .map_err(|e| format!("row_group_sums {n}: {e}"))?;
        for (r, batched) in rows.iter().enumerate() {
            let single = xbar
                .row_group_sum(r, 0..n)
                .map_err(|e| format!("row_group_sum {n},{r}: {e}"))?;
            ensure(
                batched.to_bits() == single.to_bits(),
                format!("row sum size {n} row {r}: {batched} vs single {single}"),
            )?;
        }
    }
    Ok(())
}

/// Drives a store-attaching campaign and a one-shot `run` over twin
/// crossbars, then a second round after sparse traffic. The fresh round
/// must equal the one-shot campaign byte-for-byte, snapshot read included;
/// the warm round must restore the array exactly as a one-shot campaign
/// on the twin does while re-reading no more than the written cells.
fn fresh_then_warm_case(seed: u64) -> Result<(), String> {
    let detector =
        OnlineFaultDetector::new(DetectorConfig::new(4).map_err(|e| format!("config: {e}"))?);
    let mut twin = programmed(17, 0.08, seed)?;
    let mut xbar = programmed(17, 0.08, seed)?;

    let one_shot = detector
        .run(&mut twin)
        .map_err(|e| format!("one-shot run: {e}"))?;
    let mut store = None;
    let fresh = detector
        .run_on_store(&mut xbar, &mut store, None)
        .map_err(|e| format!("fresh campaign: {e}"))?;
    ensure(
        fresh == one_shot,
        format!("fresh-store campaign diverged from run: {fresh:?} vs {one_shot:?}"),
    )?;
    ensure(
        twin.read_all_levels() == xbar.read_all_levels(),
        "restored arrays diverged after the first campaign",
    )?;

    // Sparse identical traffic on both twins, then round two: the warm
    // store must restore the array like a one-shot campaign on a fraction
    // of the store reads.
    let mut rng = sim_rng(seed ^ 0xD1FF);
    for _ in 0..6 {
        let (r, c) = (rng.gen_range(0..17), rng.gen_range(0..17));
        let level = rng.gen_range(0..twin.levels());
        let _ = twin
            .write_level(r, c, level)
            .map_err(|e| format!("traffic write: {e}"))?;
        let _ = xbar
            .write_level(r, c, level)
            .map_err(|e| format!("traffic write: {e}"))?;
    }
    let one_shot2 = detector
        .run(&mut twin)
        .map_err(|e| format!("one-shot run 2: {e}"))?;
    let warm = detector
        .run_on_store(&mut xbar, &mut store, Some(&fresh.predicted))
        .map_err(|e| format!("warm campaign: {e}"))?;
    // Both campaigns restore every cell they touched to its stored level,
    // so the twins' level planes stay byte-identical even though the warm
    // sweep drove far fewer cells.
    ensure(
        twin.read_all_levels() == xbar.read_all_levels(),
        "restored arrays diverged after the second campaign",
    )?;
    ensure(
        warm.store_read_cells <= 6,
        format!(
            "warm store re-read {} cells for 6 writes",
            warm.store_read_cells
        ),
    )?;
    ensure(
        warm.cycles() < one_shot2.cycles(),
        format!(
            "warm store not cheaper: {} vs {}",
            warm.cycles(),
            one_shot2.cycles()
        ),
    )
}
