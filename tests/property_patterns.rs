//! Property-based tests of the core invariants, spanning the `approx-dropout`
//! and `tensor` crates.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small in-house harness: every property is checked over many
//! deterministically seeded random cases, and a failure message reports the
//! case seed so the exact inputs can be reproduced.

use approx_random_dropout::approx_dropout::{
    search, DropoutPlan, DropoutRate, LayerShape, PatternDistribution, PatternKind, PatternSampler,
    RowPattern, SearchConfig, TileGrid, TilePattern,
};
use approx_random_dropout::tensor::{gemm, init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases each property is checked over.
const CASES: u64 = 64;

/// Runs `body` over `CASES` deterministically seeded RNGs.
fn for_each_case(salt: u64, mut body: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = salt.wrapping_mul(0x9E37_79B9) ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        body(seed, &mut rng);
    }
}

/// A row pattern keeps exactly the residue class of its bias.
#[test]
fn row_pattern_keeps_one_residue_class() {
    for_each_case(1, |seed, rng| {
        let dp = rng.gen_range(1usize..32);
        let bias = rng.gen_range(0usize..32) % dp;
        let n = rng.gen_range(1usize..512);
        let pattern = RowPattern::new(dp, bias).unwrap();
        let kept = pattern.kept_rows(n);
        let expected: Vec<usize> = (0..n).filter(|i| i % dp == bias).collect();
        assert_eq!(kept, expected, "case seed {seed}");
        let dropped = pattern.dropped_rows(n);
        assert_eq!(kept.len() + dropped.len(), n, "case seed {seed}");
    });
}

/// The realised dropout fraction of a sampled pattern never exceeds the
/// nominal (dp−1)/dp rate by more than one unit's worth.
#[test]
fn sampled_pattern_fraction_close_to_nominal() {
    for_each_case(2, |seed, rng| {
        let dp = rng.gen_range(1usize..16);
        let n = rng.gen_range(16usize..256);
        let pattern = RowPattern::new(dp, 0).unwrap();
        let plan = DropoutPlan::row(LayerShape::vector(n), pattern);
        let nominal = (dp - 1) as f64 / dp as f64;
        assert!(
            (plan.realized_drop_fraction() - nominal).abs() <= dp as f64 / n as f64,
            "case seed {seed}"
        );
    });
}

/// A tile pattern's kept tiles and dropped tiles partition the grid.
#[test]
fn tile_pattern_partitions_grid() {
    for_each_case(3, |seed, rng| {
        let dp = rng.gen_range(1usize..16);
        let rows = rng.gen_range(1usize..200);
        let cols = rng.gen_range(1usize..200);
        let tile = rng.gen_range(1usize..64);
        let grid = TileGrid::new(rows, cols, tile).unwrap();
        let pattern = TilePattern::new(dp, dp - 1, tile).unwrap();
        let kept = pattern.kept_tiles(&grid);
        let dropped = pattern.dropped_tiles(&grid);
        assert_eq!(
            kept.len() + dropped.len(),
            grid.total_tiles(),
            "case seed {seed}"
        );
        for &t in &kept {
            assert!(t < grid.total_tiles(), "case seed {seed}");
        }
    });
}

/// Row-compacted GEMM equals the dense GEMM with dropped columns zeroed,
/// for arbitrary shapes and kept sets.
#[test]
fn row_compact_gemm_matches_masked_dense() {
    for_each_case(4, |seed, rng| {
        let m = rng.gen_range(1usize..12);
        let k = rng.gen_range(1usize..12);
        let n = rng.gen_range(1usize..12);
        let dp = rng.gen_range(1usize..6);
        let a = init::uniform(rng, m, k, -1.0, 1.0);
        let w = init::uniform(rng, k, n, -1.0, 1.0);
        let pattern = RowPattern::new(dp, 0).unwrap();
        let kept = pattern.kept_rows(n);
        let compact = gemm::row_compact_gemm(&a, &w, &kept).unwrap();
        let mut masked = w.clone();
        for j in 0..n {
            if !kept.contains(&j) {
                for p in 0..k {
                    masked[(p, j)] = 0.0;
                }
            }
        }
        let reference = gemm::naive_gemm(&a, &masked).unwrap();
        assert!(
            approx_random_dropout::tensor::approx_eq_slice(
                compact.as_slice(),
                reference.as_slice(),
                1e-3
            ),
            "case seed {seed}"
        );
    });
}

/// The gather core's tile classes reproduce the explicitly masked dense
/// reference for every period and bias.
#[test]
fn tile_compact_gemm_matches_masked_dense() {
    for_each_case(5, |seed, rng| {
        let m = rng.gen_range(1usize..10);
        let k = rng.gen_range(2usize..14);
        let n = rng.gen_range(2usize..14);
        let tile = rng.gen_range(1usize..6);
        let dp = rng.gen_range(1usize..5);
        let bias = rng.gen_range(0..dp);
        let a = init::uniform(rng, m, k, -1.0, 1.0);
        let w = init::uniform(rng, k, n, -1.0, 1.0);
        let grid = TileGrid::new(k, n, tile).unwrap();
        let pattern = TilePattern::new(dp, bias, tile).unwrap();
        let kept = pattern.kept_tiles(&grid);
        let mut scratch = gemm::GatherScratch::default();
        scratch.resolve_tiles(&kept, tile, k, n).unwrap();
        let mut compact = Matrix::default();
        gemm::gather_gemm_into(&a, &w, &mut scratch, &mut compact).unwrap();
        let reference = gemm::tile_masked_gemm_reference(&a, &w, &kept, tile).unwrap();
        assert!(
            approx_random_dropout::tensor::approx_eq_slice(
                compact.as_slice(),
                reference.as_slice(),
                1e-3
            ),
            "case seed {seed}"
        );
    });
}

/// Any normalised distribution has an expected global rate within [0, 1)
/// and an entropy no larger than ln(N).
#[test]
fn distribution_invariants() {
    for_each_case(6, |seed, rng| {
        let n = rng.gen_range(1usize..24);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..10.0)).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            return;
        }
        let dist = PatternDistribution::new(weights).unwrap();
        let rate = dist.expected_global_rate();
        assert!((0.0..1.0).contains(&rate), "case seed {seed}");
        assert!(dist.entropy() <= (n as f64).ln() + 1e-9, "case seed {seed}");
        let total: f64 = dist.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "case seed {seed}");
    });
}

/// Algorithm 1 hits arbitrary target rates within tolerance.
#[test]
fn search_matches_arbitrary_targets() {
    for_each_case(7, |seed, rng| {
        let target = rng.gen_range(0.05f64..0.85);
        let max_dp = rng.gen_range(8usize..24);
        let dist = search::sgd_search(
            DropoutRate::new(target).unwrap(),
            max_dp,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(
            (dist.expected_global_rate() - target).abs() < 0.03,
            "case seed {seed}: target {target}, achieved {}",
            dist.expected_global_rate()
        );
    });
}

/// The sampler only ever emits periods the distribution supports and
/// biases below the period.
#[test]
fn sampler_emits_valid_patterns() {
    for_each_case(8, |seed, rng| {
        let n_units = rng.gen_range(1usize..200);
        let dist = PatternDistribution::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let sampler = PatternSampler::new(dist, PatternKind::Row);
        let (dp, bias) = sampler.sample_params(rng, n_units);
        assert!(dp >= 1 && dp <= 4.min(n_units.max(1)), "case seed {seed}");
        assert!(bias < dp, "case seed {seed}");
        let plan = DropoutPlan::row(
            LayerShape::vector(n_units),
            RowPattern::new(dp, bias).unwrap(),
        );
        for &k in plan.compact_rows().unwrap() {
            assert!(k < n_units, "case seed {seed}");
        }
    });
}

/// Matrix transpose is an involution and preserves the Frobenius norm.
#[test]
fn transpose_involution() {
    for_each_case(9, |seed, rng| {
        let rows = rng.gen_range(1usize..20);
        let cols = rng.gen_range(1usize..20);
        let m = init::uniform(rng, rows, cols, -5.0, 5.0);
        let tt = m.transpose().transpose();
        assert_eq!(tt, m, "case seed {seed}");
        assert!(
            (m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-3,
            "case seed {seed}"
        );
    });
}

/// Blocked GEMM agrees with the naive reference on arbitrary shapes.
#[test]
fn blocked_gemm_matches_naive() {
    for_each_case(10, |seed, rng| {
        let m = rng.gen_range(1usize..20);
        let k = rng.gen_range(1usize..20);
        let n = rng.gen_range(1usize..20);
        let a = init::uniform(rng, m, k, -1.0, 1.0);
        let b = init::uniform(rng, k, n, -1.0, 1.0);
        let naive = gemm::naive_gemm(&a, &b).unwrap();
        let blocked = gemm::blocked_gemm(&a, &b).unwrap();
        assert!(
            approx_random_dropout::tensor::approx_eq_slice(
                naive.as_slice(),
                blocked.as_slice(),
                1e-3
            ),
            "case seed {seed}"
        );
    });
}

/// Scatter of selected rows restores the original rows in place.
#[test]
fn select_then_scatter_restores_rows() {
    for_each_case(11, |seed, rng| {
        let rows = rng.gen_range(1usize..16);
        let cols = rng.gen_range(1usize..16);
        let stride = rng.gen_range(1usize..4);
        let m = init::uniform(rng, rows, cols, -1.0, 1.0);
        let indices: Vec<usize> = (0..rows).step_by(stride).collect();
        let compact = m.select_rows(&indices);
        let scattered = m.scatter_rows_of(&compact, &indices);
        for (pos, &r) in indices.iter().enumerate() {
            assert_eq!(scattered.row(r), compact.row(pos), "case seed {seed}");
        }
    });
}

#[test]
fn bernoulli_and_pattern_long_run_rates_agree() {
    // Statistical check: over many iterations the pattern sampler and a
    // Bernoulli mask drop units at the same long-run rate.
    use approx_random_dropout::approx_dropout::equivalence::measure_equivalence;
    let dist =
        search::sgd_search(DropoutRate::new(0.6).unwrap(), 16, &SearchConfig::default()).unwrap();
    let sampler = PatternSampler::new(dist, PatternKind::Row);
    let mut rng = StdRng::seed_from_u64(77);
    let report = measure_equivalence(&sampler, &mut rng, 128, 6_000);
    assert!((report.empirical_mean - 0.6).abs() < 0.03, "{report:?}");
}

#[test]
fn compacted_training_matrix_zero_fraction_matches_pattern() {
    // The realised sparsity of a masked weight matrix equals the pattern's
    // global dropout rate (up to edge effects).
    let grid = TileGrid::new(128, 128, 32).unwrap();
    let pattern = TilePattern::new(4, 1, 32).unwrap();
    let mask = pattern.weight_mask(&grid);
    let zero_fraction = mask.zero_fraction() as f64;
    assert!(
        (zero_fraction - 0.75).abs() < 1e-6,
        "zero fraction {zero_fraction}"
    );
    let _ = Matrix::zeros(1, 1);
}
