//! Kernel-speed chaos: the vectorized lane kernels, the persistent
//! reference store, and the genetic search all promise *bit-identity* with
//! their scalar/one-shot/sequential oracles. This family attacks those
//! promises with lane-tail remainder shapes, interleaved detection traffic,
//! and hostile thread budgets.

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use ftt_core::config::{MappingConfig, MappingScope, RemapConfig};
use ftt_core::mapping::MappedNetwork;
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use nn::init::init_rng;
use nn::network::Network;
use nn::pruning::magnitude_prune;
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

/// The thread budgets every determinism case sweeps: sequential, a small
/// fan-out, and the hard cap.
const BUDGETS: [usize; 3] = [1, 4, par::MAX_THREADS];

/// Lane-tail remainders: every size ±1 around the f32/f64 lane widths (and
/// one multi-chunk size) must keep `mvm` and the batched group sums
/// bit-identical to the scalar references, under every thread budget.
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
        for &budget in &BUDGETS {
            par::set_thread_count(budget);
            let result = lane_tail_case(&sizes, seed);
            par::set_thread_count(0);
            result.map_err(|e| format!("threads {budget}: {e}"))?;
        }
        Ok(())
    });

    fam.case("fresh_then_warm_detection_byte_identity", || {
        let mut reference: Option<Fingerprint> = None;
        for &budget in &BUDGETS {
            par::set_thread_count(budget);
            let result = fresh_then_warm_case(seed);
            par::set_thread_count(0);
            let fp = result.map_err(|e| format!("threads {budget}: {e}"))?;
            match &reference {
                None => reference = Some(fp),
                Some(want) => ensure(
                    &fp == want,
                    format!("fresh/warm campaign trace diverged at {budget} threads"),
                )?,
            }
        }
        Ok(())
    });

    fam.case("genetic_plan_identity_across_thread_budgets", || {
        let mut rng = init_rng(seed);
        let mut net = Network::new();
        net.push(nn::layers::Dense::new(6, 10, &mut rng));
        net.push(nn::layers::Relu::new());
        net.push(nn::layers::Dense::new(10, 4, &mut rng));
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.2)
                .with_seed(seed),
        )
        .map_err(|e| format!("map: {e}"))?;
        let mask = magnitude_prune(&mut net, 0.5);
        let problem = RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist)
            .map_err(|e| format!("problem: {e}"))?;
        let config = RemapConfig {
            algorithm: RemapAlgorithm::Genetic { population: 6 },
            iterations: 1200,
            seed,
            ..RemapConfig::default()
        };
        let mut reference: Option<(u64, u64, Vec<_>)> = None;
        for &budget in &BUDGETS {
            par::set_thread_count(budget);
            let plan = problem.solve(&mapped, &config);
            par::set_thread_count(0);
            let got = (plan.initial_cost, plan.final_cost, plan.perms().to_vec());
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    ensure(
                        &got == want,
                        format!(
                            "genetic plan diverged at {budget} threads: cost {} vs {}",
                            got.1, want.1
                        ),
                    )?;
                }
            }
        }
        Ok(())
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

/// Everything a detection round observed, for exact cross-thread-budget
/// comparison: both campaigns' outcomes and the restored array bytes.
type Fingerprint = (
    faultdet::detector::DetectionOutcome,
    faultdet::detector::DetectionOutcome,
    Vec<u16>,
);

/// Drives a store-attaching campaign and a one-shot `run` over twin
/// crossbars, then a second round after sparse traffic. The fresh round
/// must equal the one-shot campaign byte-for-byte, snapshot read included;
/// the warm round must restore the array exactly as a one-shot campaign
/// on the twin does while re-reading no more than the written cells.
/// Returns a trace fingerprint so the caller can assert the whole thing is
/// thread-budget invariant.
fn fresh_then_warm_case(seed: u64) -> Result<Fingerprint, String> {
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
    )?;
    Ok((fresh, warm, xbar.read_all_levels()))
}
