//! Property-based tests for the RRAM substrate invariants.

use proptest::prelude::*;
use rram::adc::Adc;
use rram::cell::{RramCell, WriteOutcome};
use rram::crossbar::CrossbarBuilder;
use rram::endurance::EnduranceModel;
use rram::fault::FaultKind;
use rram::rng::sim_rng;
use rram::spatial::{FaultInjection, SpatialDistribution};
use rram::variation::WriteVariation;

proptest! {
    /// A healthy cell's conductance always stays in [0, 1], for any write
    /// sequence and any variation noise.
    #[test]
    fn cell_conductance_stays_normalized(
        writes in proptest::collection::vec((0u16..8, -0.2f64..0.2), 1..50)
    ) {
        let mut cell = RramCell::new(8, u64::MAX);
        for (target, noise) in writes {
            let _ = cell.write_level(target, noise);
            prop_assert!((0.0..=1.0).contains(&cell.conductance()));
            prop_assert_eq!(cell.level(), target.min(7));
        }
    }

    /// Wear accounting: the number of effective writes never exceeds the
    /// initial endurance budget before the cell becomes stuck.
    #[test]
    fn cell_never_overspends_endurance(
        budget in 1u64..20,
        deltas in proptest::collection::vec(-3i32..=3, 1..100)
    ) {
        let mut cell = RramCell::new(8, budget);
        for d in deltas {
            let out = cell.nudge(d, 0.0);
            if matches!(out, WriteOutcome::Stuck(_)) {
                break;
            }
        }
        prop_assert!(cell.writes() <= budget);
        if cell.writes() == budget {
            prop_assert!(cell.is_worn_out());
        }
    }

    /// Stuck cells are immutable: no write sequence changes what they read.
    #[test]
    fn stuck_cells_are_immutable(
        kind in prop_oneof![Just(FaultKind::StuckAt0), Just(FaultKind::StuckAt1)],
        writes in proptest::collection::vec(0u16..8, 1..30)
    ) {
        let mut cell = RramCell::new(8, u64::MAX);
        cell.force_fault(kind);
        let level_before = cell.level();
        let g_before = cell.conductance();
        for target in writes {
            prop_assert_eq!(cell.write_level(target, 0.0), WriteOutcome::Stuck(kind));
        }
        prop_assert_eq!(cell.level(), level_before);
        prop_assert_eq!(cell.conductance(), g_before);
    }

    /// MVM is linear: mvm(a·x + b·y) == a·mvm(x) + b·mvm(y).
    #[test]
    fn mvm_is_linear(
        seed in 0u64..1000,
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let mut xbar = CrossbarBuilder::new(8, 8).seed(seed).build().unwrap();
        let mut rng = sim_rng(seed);
        for r in 0..8 {
            for c in 0..8 {
                use rand::Rng;
                xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 3.0).collect();
        let y: Vec<f32> = (0..8).map(|i| ((i * 3 % 7) as f32) / 7.0).collect();
        let combined: Vec<f32> =
            x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let lhs = xbar.mvm(&combined).unwrap();
        let mx = xbar.mvm(&x).unwrap();
        let my = xbar.mvm(&y).unwrap();
        for k in 0..8 {
            let rhs = a * mx[k] + b * my[k];
            prop_assert!((lhs[k] - rhs).abs() < 1e-4, "col {}: {} vs {}", k, lhs[k], rhs);
        }
    }

    /// Fault injection produces exactly the requested number of faults for
    /// both spatial distributions, and only within bounds.
    #[test]
    fn injection_count_is_exact(
        seed in 0u64..500,
        rows in 4usize..64,
        cols in 4usize..64,
        fraction in 0.0f64..0.5,
        clustered in any::<bool>(),
    ) {
        let dist = if clustered {
            SpatialDistribution::GaussianClusters { centers: 3, sigma_frac: 0.15 }
        } else {
            SpatialDistribution::Uniform
        };
        let inj = FaultInjection::new(dist, fraction).unwrap();
        let mut rng = sim_rng(seed);
        let map = inj.generate(rows, cols, &mut rng);
        let expected = (fraction * (rows * cols) as f64).round() as usize;
        prop_assert_eq!(map.count_faulty(), expected.min(rows * cols));
        for (r, c, _) in map.iter_faulty() {
            prop_assert!(r < rows && c < cols);
        }
    }

    /// The ADC's modulo reduction agrees with integer modulo for all
    /// power-of-two divisors.
    #[test]
    fn adc_reduce_matches_modulo(sum in 0u64..100_000, pow in 1u32..7) {
        let divisor = 2u32.pow(pow);
        let adc = Adc::new(8, divisor).unwrap();
        prop_assert_eq!(adc.reduce(sum), sum % u64::from(divisor));
    }

    /// Endurance samples are always at least one write.
    #[test]
    fn endurance_samples_positive(seed in 0u64..200, mean in 1.0f64..100.0, std in 0.0f64..500.0) {
        let model = EnduranceModel::new(mean, std);
        let mut rng = sim_rng(seed);
        for _ in 0..20 {
            prop_assert!(model.sample(&mut rng) >= 1);
        }
    }

    /// Cached-plane coherence: after *any* interleaving of level writes,
    /// analog writes, training pulses, nudges, fault forcing, and
    /// endurance-driven wear-out transitions, both cached conductance
    /// planes read exactly what the cells read.
    #[test]
    fn conductance_planes_stay_coherent(
        seed in 0u64..300,
        fraction in 0.0f64..0.2,
        ops in proptest::collection::vec(
            (0u8..5, 0usize..8, 0usize..8, 0u16..8, -3i32..=3, 0.0f64..1.0),
            1..50,
        ),
    ) {
        // Tiny endurance budget so wear-out (the subtlest write path: a
        // write that lands *and* kills the cell) occurs within the run.
        let mut xbar = CrossbarBuilder::new(8, 8)
            .endurance(EnduranceModel::new(12.0, 4.0))
            .variation(WriteVariation::new(0.02))
            .initial_faults(SpatialDistribution::Uniform, fraction)
            .seed(seed)
            .build()
            .unwrap();
        let coherent = |xbar: &rram::crossbar::Crossbar| {
            let p64 = xbar.conductance_plane_f64();
            let p32 = xbar.conductance_plane();
            for r in 0..8 {
                for c in 0..8 {
                    let g = xbar.conductance(r, c).unwrap();
                    assert_eq!(p64[r * 8 + c], g, "plane64 at ({r}, {c})");
                    assert_eq!(p32[r * 8 + c], g as f32, "plane32 at ({r}, {c})");
                }
            }
        };
        coherent(&xbar);
        for (op, r, c, lvl, delta, g) in ops {
            match op {
                0 => { let _ = xbar.write_level(r, c, lvl).unwrap(); }
                1 => { let _ = xbar.write_analog(r, c, g).unwrap(); }
                2 => { let _ = xbar.pulse_analog(r, c, g).unwrap(); }
                3 => { let _ = xbar.nudge(r, c, delta).unwrap(); }
                _ => {
                    let mut map = xbar.fault_map();
                    let kind = if lvl % 2 == 0 {
                        FaultKind::StuckAt0
                    } else {
                        FaultKind::StuckAt1
                    };
                    map.set(r, c, Some(kind));
                    xbar.apply_fault_map(&map);
                }
            }
            coherent(&xbar);
        }
    }

    /// The plane-backed MVM is bit-identical to the scalar cell-walking
    /// reference kernel, dense or sparse, with faults present.
    #[test]
    fn mvm_is_bit_identical_to_reference(
        seed in 0u64..300,
        rows in 1usize..24,
        cols in 1usize..24,
        keep_every in 1usize..5,
    ) {
        let mut xbar = CrossbarBuilder::new(rows, cols)
            .initial_faults(SpatialDistribution::Uniform, 0.1)
            .variation(WriteVariation::new(0.05))
            .seed(seed)
            .build()
            .unwrap();
        use rand::Rng;
        let mut rng = sim_rng(seed ^ 0xABCD);
        for r in 0..rows {
            for c in 0..cols {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        // keep_every > 1 zeroes most inputs, driving the sparsity-gated
        // zero-skip branch; the ±0.0·g IEEE argument makes it exact.
        let input: Vec<f32> = (0..rows)
            .map(|i| {
                if i % keep_every == 0 {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let fast = xbar.mvm(&input).unwrap();
        let reference = xbar.mvm_reference(&input).unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Group-sum duality: the single-column/-row quiescent reads are
    /// bit-identical to the corresponding entries of the batched sweeps,
    /// for arbitrary sub-ranges (remainder tails included). Both routes
    /// must run the same lane kernel, so equality is exact, not approximate.
    #[test]
    fn single_group_sums_equal_batched_entries(
        seed in 0u64..300,
        rows in 1usize..20,
        cols in 1usize..20,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let mut xbar = CrossbarBuilder::new(rows, cols)
            .initial_faults(SpatialDistribution::Uniform, 0.1)
            .variation(WriteVariation::new(0.05))
            .seed(seed)
            .build()
            .unwrap();
        use rand::Rng;
        let mut rng = sim_rng(seed ^ 0x5151);
        for r in 0..rows {
            for c in 0..cols {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        let lo_r = ((lo_frac * rows as f64) as usize).min(rows);
        let hi_r = lo_r + (((hi_frac * (rows - lo_r) as f64) as usize).min(rows - lo_r));
        let col_sums = xbar.column_group_sums(lo_r..hi_r).unwrap();
        for (c, sum) in col_sums.iter().enumerate() {
            prop_assert_eq!(
                xbar.column_group_sum(lo_r..hi_r, c).unwrap().to_bits(),
                sum.to_bits(),
            );
        }
        let lo_c = ((lo_frac * cols as f64) as usize).min(cols);
        let hi_c = lo_c + (((hi_frac * (cols - lo_c) as f64) as usize).min(cols - lo_c));
        let row_sums = xbar.row_group_sums(lo_c..hi_c).unwrap();
        for (r, sum) in row_sums.iter().enumerate() {
            prop_assert_eq!(
                xbar.row_group_sum(r, lo_c..hi_c).unwrap().to_bits(),
                sum.to_bits(),
            );
        }
    }

    /// Write variation never pushes a conductance outside [0, 1].
    #[test]
    fn variation_stays_in_unit_interval(
        sigma in 0.0f64..1.0,
        target in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let v = WriteVariation::new(sigma);
        let mut rng = sim_rng(seed);
        for _ in 0..10 {
            let g = v.perturb(target, &mut rng);
            prop_assert!((0.0..=1.0).contains(&g));
        }
    }
}

/// Lane-tail sweep: the vectorized kernels must survive every remainder
/// shape around the lane widths (`par::F32_LANES` = 8, `par::F64_LANES`
/// = 4), so sizes ±1 around multiples of both are pinned explicitly and
/// checked bit-for-bit against the scalar references.
#[test]
fn lane_tail_sizes_are_bit_identical() {
    use rand::Rng;
    for &n in &[
        1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33,
    ] {
        let mut xbar = CrossbarBuilder::new(n, n)
            .variation(WriteVariation::new(0.05))
            .seed(n as u64)
            .build()
            .unwrap();
        let mut rng = sim_rng(n as u64 ^ 0xFEED);
        for r in 0..n {
            for c in 0..n {
                let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
            }
        }
        let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        assert_eq!(
            xbar.mvm(&input).unwrap(),
            xbar.mvm_reference(&input).unwrap(),
            "mvm size {n}"
        );
        // Column sums vs a plain scalar fold over the f64 plane (the
        // output-axis kernel preserves the scalar accumulation order).
        let plane = xbar.conductance_plane_f64();
        let sums = xbar.column_group_sums(0..n).unwrap();
        for c in 0..n {
            let mut scalar = 0.0f64;
            for r in 0..n {
                scalar += plane[r * n + c];
            }
            assert_eq!(sums[c].to_bits(), scalar.to_bits(), "col {c} size {n}");
        }
        // Row sums agree with the single-row kernel on every row.
        let rows = xbar.row_group_sums(0..n).unwrap();
        for (r, sum) in rows.iter().enumerate() {
            assert_eq!(
                sum.to_bits(),
                xbar.row_group_sum(r, 0..n).unwrap().to_bits(),
                "row {r} size {n}"
            );
        }
    }
}
