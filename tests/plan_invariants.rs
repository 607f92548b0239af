//! Property tests of the plan–execute API invariants, across every
//! [`DropoutScheme`] implementation: realised keep-fractions track the target
//! rate, `column_multiplier` is consistent with the kept units, and the
//! compacted-GEMM execution of a plan is numerically equivalent to the
//! masked-dense formulation the paper starts from. Every scheme's plans are
//! also pinned bit for bit, so a refactor of the plan or the sampling code
//! cannot move a single draw unnoticed.

use approx_random_dropout::approx_dropout::{
    scheme, ApproxDropoutBuilder, ApproxDropoutLayer, CrsSampling, DropoutPlan, DropoutRate,
    DropoutScheme, KernelSchedule, LayerShape, PatternKind, RowPattern, SchemeSpec, TilePattern,
};
use approx_random_dropout::nn::Linear;
use approx_random_dropout::tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every scheme implementation under test, with its target dropout rate.
fn all_schemes() -> Vec<(Box<dyn DropoutScheme>, f64)> {
    let rate = |p: f64| DropoutRate::new(p).unwrap();
    vec![
        (scheme::none(), 0.0),
        (scheme::bernoulli(rate(0.5)), 0.5),
        (scheme::divergent_bernoulli(rate(0.3)), 0.3),
        (scheme::row(rate(0.5), 16).unwrap(), 0.5),
        (scheme::tile(rate(0.7), 16, 8).unwrap(), 0.7),
        (Box::new(RowPattern::new(4, 1).unwrap()), 0.75),
        (Box::new(TilePattern::new(2, 0, 8).unwrap()), 0.5),
        (scheme::nm(2, 4).unwrap(), 0.5),
        (scheme::nm(1, 4).unwrap(), 0.75),
        (scheme::block_unit(rate(0.5), 8).unwrap(), 0.5),
    ]
}

/// Over many iterations every scheme's realised drop fraction converges to
/// its nominal rate (the statistical-equivalence claim, Eq. 2/3, extended to
/// the whole scheme family).
#[test]
fn realized_drop_fraction_tracks_nominal_rate() {
    let shape = LayerShape::new(256, 256);
    for (mut s, target) in all_schemes() {
        let mut rng = StdRng::seed_from_u64(42);
        let iters = 2_000;
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += s.plan(&mut rng, shape).realized_drop_fraction();
        }
        let mean = acc / iters as f64;
        assert!(
            (mean - target).abs() < 0.05,
            "scheme {} realised {mean}, target {target}",
            s.label()
        );
        assert!(
            (s.nominal_rate() - target).abs() < 1e-9,
            "scheme {} nominal rate",
            s.label()
        );
    }
}

/// `column_multiplier` is consistent with the plan's kept units: kept
/// columns carry exactly `scale()`, dropped columns exactly 0, and columns
/// past the dropout site exactly 1.
#[test]
fn column_multiplier_is_consistent_with_kept_indices() {
    let shape = LayerShape::new(64, 64);
    for (mut s, _) in all_schemes() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let plan = s.plan(&mut rng, shape);
            let mult = plan.column_multiplier(shape.out_features);
            if let Some(kept) = plan.compact_rows() {
                for (j, &m) in mult.iter().enumerate() {
                    let expected = if kept.contains(&j) { plan.scale() } else { 0.0 };
                    assert_eq!(m, expected, "scheme {} column {j}", s.label());
                }
            } else if let Some(mask) = plan.bernoulli_mask() {
                for (j, &m) in mult.iter().enumerate() {
                    assert_eq!(m, mask[j] * plan.scale(), "scheme {} column {j}", s.label());
                }
            } else if let Some((kept, grid)) = plan.kept_tiles() {
                let mut covered = vec![false; shape.out_features];
                for &t in kept {
                    let (_, cols) = grid.tile_bounds(t);
                    for c in cols {
                        if c < covered.len() {
                            covered[c] = true;
                        }
                    }
                }
                for (j, &m) in mult.iter().enumerate() {
                    let expected = if covered[j] { plan.scale() } else { 0.0 };
                    assert_eq!(m, expected, "scheme {} column {j}", s.label());
                }
            } else if let Some((kept, _, _)) = plan.nm_lanes() {
                for (j, &m) in mult.iter().enumerate() {
                    let expected = if kept.contains(&j) { plan.scale() } else { 0.0 };
                    assert_eq!(m, expected, "scheme {} column {j}", s.label());
                }
            } else if let Some((kept_blocks, block, _)) = plan.kept_unit_blocks() {
                for (j, &m) in mult.iter().enumerate() {
                    let expected = if kept_blocks.contains(&(j / block)) {
                        plan.scale()
                    } else {
                        0.0
                    };
                    assert_eq!(m, expected, "scheme {} column {j}", s.label());
                }
            } else {
                assert!(mult.iter().all(|&m| m == 1.0), "identity scheme multiplier");
            }
            // Columns beyond the resolved dropout site always pass through
            // untouched (regression test for the seed's out-of-range
            // rescaling bug).
            let wide = plan.column_multiplier(shape.out_features + 5);
            for &m in &wide[shape.out_features..] {
                assert_eq!(m, 1.0, "scheme {} out-of-site column", s.label());
            }
        }
    }
}

/// The plan's `active_output_fraction` matches its kept-neuron count for
/// every family that drops whole neurons (row, N:M, block), and is exactly
/// 1 for every other plan.
#[test]
fn active_output_fraction_matches_kept_neurons() {
    let shape = LayerShape::new(48, 48);
    for (mut s, _) in all_schemes() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let plan = s.plan(&mut rng, shape);
            let expected = if let Some(kept) = plan.compact_rows() {
                kept.len() as f64 / shape.out_features as f64
            } else if let Some((kept, _, _)) = plan.nm_lanes() {
                kept.len() as f64 / shape.out_features as f64
            } else if let Some((kept_blocks, block, _)) = plan.kept_unit_blocks() {
                let neurons: usize = kept_blocks
                    .iter()
                    .map(|&b| ((b + 1) * block).min(shape.out_features) - b * block)
                    .sum();
                neurons as f64 / shape.out_features as f64
            } else {
                1.0
            };
            assert!(
                (plan.active_output_fraction() - expected).abs() < 1e-12,
                "scheme {}",
                s.label()
            );
        }
    }
}

/// Executing a plan through the compacted GEMM paths of `Linear` equals the
/// masked-dense reference built from the same plan, for every scheme and
/// many random layers — the numeric core of the paper's "compact the GEMM
/// instead of masking" claim.
#[test]
fn compacted_execution_matches_masked_dense_reference() {
    let mut case_rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..40u64 {
        let in_features = case_rng.gen_range(4usize..24);
        let out_features = case_rng.gen_range(4usize..24);
        let batch = case_rng.gen_range(1usize..5);
        let shape = LayerShape::new(in_features, out_features);
        for (mut s, _) in all_schemes() {
            let mut rng = StdRng::seed_from_u64(1000 + case);
            let plan = s.plan(&mut rng, shape);
            let layer = Linear::new(&mut rng, in_features, out_features);
            let x = init::uniform(&mut rng, batch, in_features, -1.0, 1.0);
            let executed = layer.clone().forward(&x, &plan);
            let reference = masked_dense_reference(&layer, &x, &plan);
            for i in 0..batch {
                for j in 0..out_features {
                    assert!(
                        (executed[(i, j)] - reference[(i, j)]).abs() < 1e-3,
                        "scheme {} case {case} at ({i},{j}): {} vs {}",
                        s.label(),
                        executed[(i, j)],
                        reference[(i, j)]
                    );
                }
            }
        }
    }
}

/// `kernel_schedule()` reports exactly what the plan's accessors hold, for
/// every scheme family (CRS and the composed row × CRS included) and on
/// degenerate shapes: the schedule is a view of the sampled decision, never
/// a second record that could disagree with it.
#[test]
fn kernel_schedule_agrees_with_the_kept_sets() {
    let rate = DropoutRate::new(0.5).unwrap();
    let mut schemes: Vec<Box<dyn DropoutScheme>> =
        all_schemes().into_iter().map(|(s, _)| s).collect();
    schemes.push(scheme::crs(0.5).unwrap());
    schemes.push(scheme::row_crs(rate, 8, 0.5).unwrap());
    schemes.push(Box::new(
        CrsSampling::composed(0.5, Box::new(RowPattern::new(3, 1).unwrap())).unwrap(),
    ));
    for (in_features, out_features) in [(64, 96), (1, 1), (1, 3), (3, 1), (0, 5), (5, 0)] {
        let shape = LayerShape::new(in_features, out_features);
        for s in &mut schemes {
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..10 {
                let plan = s.plan(&mut rng, shape);
                let crs = plan
                    .crs_selection()
                    .map(|sel| (sel.kept_indices().len(), sel.total()));
                let expected = if let Some(rows) = plan.compact_rows() {
                    match crs {
                        Some((kept_k, total_k)) => KernelSchedule::RowCrsCompact {
                            kept_n: rows.len(),
                            total_n: out_features,
                            kept_k,
                            total_k,
                        },
                        None => KernelSchedule::RowCompact {
                            kept: rows.len(),
                            total: out_features,
                        },
                    }
                } else if let Some((kept, grid)) = plan.kept_tiles() {
                    KernelSchedule::TileCompact {
                        kept: kept.len(),
                        total: grid.total_tiles(),
                    }
                } else if let Some((_, n, m)) = plan.nm_lanes() {
                    KernelSchedule::NmCompact { n, m }
                } else if let Some((kept, block, total)) = plan.kept_unit_blocks() {
                    KernelSchedule::BlockCompact {
                        kept: kept.len(),
                        total,
                        block,
                    }
                } else if let Some((kept_k, total_k)) = crs {
                    KernelSchedule::CrsCompact { kept_k, total_k }
                } else if plan.bernoulli_mask().is_some() {
                    if s.label() == "divergent" {
                        KernelSchedule::DenseDivergent {
                            rate: plan.nominal_rate(),
                        }
                    } else {
                        KernelSchedule::DenseWithMask
                    }
                } else {
                    assert!(plan.is_identity(), "scheme {}", s.label());
                    KernelSchedule::Dense
                };
                assert_eq!(
                    plan.kernel_schedule(),
                    expected,
                    "scheme {} at {shape:?}",
                    s.label()
                );
            }
        }
    }
}

/// The attention-head invariant behind the transformer family: a whole-head
/// block-unit plan never drops every head, no matter how aggressive the
/// rate or how small the head count — the `SchemeSpec::Transformer` arm and
/// the raw `scheme::block_unit` constructor both inherit the guard, so the
/// attention output is never all-zero and the inverted-dropout scale stays
/// finite.
#[test]
fn whole_head_plans_never_drop_every_head() {
    let rate = DropoutRate::new(0.9).unwrap();
    for (heads, head_dim) in [(2usize, 4usize), (4, 8), (8, 64)] {
        let model_dim = heads * head_dim;
        let shape = LayerShape::new(model_dim, model_dim);
        let mut from_scheme = scheme::block_unit(rate, head_dim).unwrap();
        let mut from_spec = SchemeSpec::Transformer {
            rate: 0.9,
            head_dim,
        }
        .build()
        .unwrap();
        for s in [&mut from_scheme, &mut from_spec] {
            let mut rng = StdRng::seed_from_u64(0xD00D);
            for iteration in 0..2_000 {
                let plan = s.plan(&mut rng, shape);
                let (kept, block, total) = plan
                    .kept_unit_blocks()
                    .expect("whole-head plan must be a block-unit plan");
                assert_eq!(block, head_dim);
                assert_eq!(total, heads);
                assert!(
                    !kept.is_empty(),
                    "{} dropped every one of {heads} heads at iteration {iteration}",
                    s.label()
                );
                assert!(
                    plan.scale().is_finite() && plan.scale() > 0.0,
                    "scale must stay finite with at least one kept head"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bitwise plan pins
// ---------------------------------------------------------------------------

/// One pinned scheme: a boxed scheme, or an [`ApproxDropoutLayer`] kept
/// concrete so its running statistics can be folded too.
enum Pinned {
    Boxed(Box<dyn DropoutScheme>),
    Layer(ApproxDropoutLayer),
}

impl Pinned {
    fn scheme(&mut self) -> &mut dyn DropoutScheme {
        match self {
            Pinned::Boxed(s) => s.as_mut(),
            Pinned::Layer(layer) => layer,
        }
    }
}

/// The schemes of `tests/plan_allocations.rs` plus a row and a tile
/// [`ApproxDropoutLayer`] built directly, each with a stable name.
fn pinned_schemes() -> Vec<(&'static str, Pinned)> {
    let rate = DropoutRate::new(0.5).unwrap();
    let layer = |kind| {
        ApproxDropoutBuilder::new(rate, kind)
            .max_dp(8)
            .tile_size(8)
            .build()
            .unwrap()
    };
    let boxed: Vec<(&'static str, Box<dyn DropoutScheme>)> = vec![
        ("none", scheme::none()),
        ("bernoulli", scheme::bernoulli(rate)),
        ("divergent", scheme::divergent_bernoulli(rate)),
        ("row", scheme::row(rate, 16).unwrap()),
        ("tile", scheme::tile(rate, 16, 8).unwrap()),
        ("row_fixed", Box::new(RowPattern::new(4, 1).unwrap())),
        ("tile_fixed", Box::new(TilePattern::new(2, 0, 8).unwrap())),
        ("nm_2_4", scheme::nm(2, 4).unwrap()),
        ("nm_1_4", scheme::nm(1, 4).unwrap()),
        ("block", scheme::block_unit(rate, 8).unwrap()),
        ("crs", scheme::crs(0.5).unwrap()),
        ("row_crs", scheme::row_crs(rate, 16, 0.5).unwrap()),
        (
            "row_fixed_crs",
            Box::new(CrsSampling::composed(0.5, Box::new(RowPattern::new(4, 1).unwrap())).unwrap()),
        ),
    ];
    let mut pinned: Vec<_> = boxed
        .into_iter()
        .map(|(name, s)| (name, Pinned::Boxed(s)))
        .collect();
    pinned.push(("layer_row", Pinned::Layer(layer(PatternKind::Row))));
    pinned.push(("layer_tile", Pinned::Layer(layer(PatternKind::Tile))));
    pinned
}

fn fold_word(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn fold_indices(hash: u64, indices: Option<&[usize]>) -> u64 {
    match indices {
        None => fold_word(hash, u64::MAX),
        Some(kept) => kept
            .iter()
            .fold(fold_word(hash, kept.len() as u64), |h, &i| {
                fold_word(h, i as u64)
            }),
    }
}

fn fold_f32s(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .fold(fold_word(hash, values.len() as u64), |h, v| {
            fold_word(h, v.to_bits() as u64)
        })
}

/// Folds every view of `plan` into `hash`, floats as bits.
fn fold_plan(mut hash: u64, plan: &DropoutPlan) -> u64 {
    hash = format!("{:?}", plan.kernel_schedule())
        .bytes()
        .fold(hash, |h, b| fold_word(h, b as u64));
    hash = fold_indices(hash, plan.compact_rows());
    hash = match plan.kept_tiles() {
        None => fold_word(hash, u64::MAX),
        Some((kept, grid)) => {
            let (rows, cols) = grid.weight_shape();
            [rows, cols, grid.tile(), grid.total_tiles()]
                .into_iter()
                .fold(fold_indices(hash, Some(kept)), |h, w| {
                    fold_word(h, w as u64)
                })
        }
    };
    hash = match plan.nm_lanes() {
        None => fold_word(hash, u64::MAX),
        Some((kept, n, m)) => fold_word(
            fold_word(fold_indices(hash, Some(kept)), n as u64),
            m as u64,
        ),
    };
    hash = match plan.kept_unit_blocks() {
        None => fold_word(hash, u64::MAX),
        Some((kept, block, total)) => fold_word(
            fold_word(fold_indices(hash, Some(kept)), block as u64),
            total as u64,
        ),
    };
    hash = fold_indices(hash, plan.kept_heads(8, 12));
    hash = match plan.bernoulli_mask() {
        None => fold_word(hash, u64::MAX),
        Some(mask) => fold_f32s(hash, mask),
    };
    hash = match plan.crs_selection() {
        None => fold_word(hash, u64::MAX),
        Some(sel) => fold_word(
            fold_word(
                fold_indices(hash, Some(sel.kept_indices())),
                sel.total() as u64,
            ),
            sel.scale().to_bits() as u64,
        ),
    };
    hash = fold_word(hash, plan.scale().to_bits() as u64);
    hash = fold_word(hash, plan.nominal_rate().to_bits());
    hash = fold_word(hash, plan.active_output_fraction().to_bits());
    hash = fold_word(hash, plan.realized_drop_fraction().to_bits());
    fold_f32s(hash, &plan.column_multiplier(plan.shape().out_features + 3))
}

/// One hash per [`pinned_schemes`] entry: 40 draws on each pinned shape
/// from one seed, into one plan buffer recycled across every scheme and
/// shape (so a reset from any other family is exercised too).
fn plan_pins() -> Vec<(&'static str, u64)> {
    let shapes = [
        LayerShape::new(64, 96),
        LayerShape::vector(96),
        LayerShape::new(1, 1),
        LayerShape::new(1, 3),
        LayerShape::new(3, 1),
        LayerShape::new(0, 5),
        LayerShape::new(5, 0),
    ];
    let mut plan = DropoutPlan::default();
    pinned_schemes()
        .into_iter()
        .map(|(name, mut pinned)| {
            let mut rng = StdRng::seed_from_u64(0x0051_7A7E);
            let mut hash = 0;
            for shape in shapes {
                for _ in 0..40 {
                    pinned.scheme().plan_into(&mut rng, shape, &mut plan);
                    hash = fold_plan(hash, &plan);
                    if let Pinned::Layer(layer) = &pinned {
                        hash = fold_word(hash, layer.iterations());
                        hash = fold_word(hash, layer.mean_realized_rate().to_bits());
                    }
                }
            }
            (name, hash)
        })
        .collect()
}

/// Bitwise planning of every [`pinned_schemes`] entry. A change that claims
/// plans are unchanged never regenerates these; one that changes sampling
/// on purpose regenerates the moved entries with the ignored
/// `print_plan_pins` test and says why in its commit.
const PLAN_PINS: &[(&str, u64)] = &[
    ("none", 0x54e9407c08157523),
    ("bernoulli", 0xb3f6c3587e9ffc4f),
    ("divergent", 0x09b00229d04a2c48),
    ("row", 0x251fc73b093fe233),
    ("tile", 0x460c6046d2c02205),
    ("row_fixed", 0xd6f70443fd67fe97),
    ("tile_fixed", 0x456a4c94a35ee57f),
    ("nm_2_4", 0x4eb0637625eaf903),
    ("nm_1_4", 0x39a1df9d626588ff),
    ("block", 0x560d2ad6f868c463),
    ("crs", 0xb3de7faf6f28ee6f),
    ("row_crs", 0x917caf6b56c8260e),
    ("row_fixed_crs", 0xed4337abed9de989),
    ("layer_row", 0x1319ecca763f7d57),
    ("layer_tile", 0x8736a782f7ea8a7a),
];

#[test]
#[ignore = "regeneration helper: prints the plan pins for copy-paste"]
fn print_plan_pins() {
    println!("const PLAN_PINS: &[(&str, u64)] = &[");
    for (name, hash) in plan_pins() {
        println!("    ({name:?}, {hash:#018x}),");
    }
    println!("];");
}

#[test]
fn every_scheme_plans_bit_for_bit_as_pinned() {
    let actual = plan_pins();
    assert_eq!(actual.len(), PLAN_PINS.len(), "scheme count changed");
    for ((name, hash), (pinned_name, pinned)) in actual.iter().zip(PLAN_PINS) {
        assert_eq!(name, pinned_name, "scheme order changed");
        assert_eq!(
            hash, pinned,
            "{name}: planning moved ({hash:#018x} vs pinned {pinned:#018x})"
        );
    }
}

/// Dense formulation of a plan: mask weights for tile plans, mask + scale
/// the biased dense output for row/Bernoulli plans.
fn masked_dense_reference(layer: &Linear, x: &Matrix, plan: &DropoutPlan) -> Matrix {
    if let Some((kept, grid)) = plan.kept_tiles() {
        // W ⊙ M, dense multiply, scale, add bias (bias is not scaled).
        let (rows, cols) = grid.weight_shape();
        let mut mask = Matrix::zeros(rows, cols);
        for &t in kept {
            let (rr, cc) = grid.tile_bounds(t);
            for r in rr.clone() {
                for c in cc.clone() {
                    mask[(r, c)] = 1.0;
                }
            }
        }
        let masked_w = layer.weight().hadamard(&mask).unwrap();
        return x
            .matmul(&masked_w)
            .scale(plan.scale())
            .add_row_broadcast(layer.bias())
            .unwrap();
    }
    // Row and Bernoulli plans are per-output-column multipliers on the dense
    // biased output; the identity plan is the all-ones multiplier.
    let dense = x
        .matmul(layer.weight())
        .add_row_broadcast(layer.bias())
        .unwrap();
    let mult = plan.column_multiplier(layer.out_features());
    Matrix::from_fn(dense.rows(), dense.cols(), |i, j| dense[(i, j)] * mult[j])
}
