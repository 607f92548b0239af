//! SIMD-vs-scalar parity for the runtime-dispatched vector micro-kernels.
//!
//! The `tensor::simd` contract is that switching the dispatch level never
//! changes a result by a single bit: every vector kernel replicates the
//! scalar operation order exactly (one `fma` per product term, the 8-lane
//! `dot` reduction preserved, the polynomial `exp`/sigmoid/tanh replayed
//! lane for lane). These tests pin that contract through the public API — raw
//! micro-kernels, the three transcendental slices, the register-blocked
//! dense/transposed GEMMs, every compacted kernel family via
//! `Linear::forward_act_into` at serial and parallel pool widths, and
//! whole LSTM and transformer training trajectories — and bound the
//! documented polynomial tolerance of the transcendentals against libm.
//! Each test compares the Scalar level with *every* vector level the host
//! supports, not only the detected one, so an AVX-512 host still runs the
//! AVX2 instances. A dispatch test asserts the detected ISA is actually
//! what gets selected.
//!
//! The SIMD level is process-global state, so every test here serialises
//! on one mutex and restores the entry level before returning.

use approx_dropout::{scheme, Activation, DropoutRate, DropoutScheme};
use nn::lstm::{LstmLm, LstmLmConfig};
use nn::{
    softmax_cross_entropy_into, CrossEntropyScratch, DropoutPlan, LayerShape, Linear,
    TransformerLm, TransformerLmConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use tensor::{blocked_gemm, gemm_a_bt, gemm_at_b, init, pool, simd, Matrix, SimdLevel};

/// Serialises tests that rebind the process-global SIMD level.
fn level_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One plan per schedule family (dense, bernoulli-masked, gather, row,
/// tile, N:M, block, CRS, row×CRS), resolved against a `(in, out)` layer.
/// Odd widths exercise the ragged vector tails of every kernel.
fn family_plans(in_features: usize, out_features: usize) -> Vec<(&'static str, DropoutPlan)> {
    let shape = LayerShape::new(in_features, out_features);
    let mut plans = Vec::new();
    plans.push(("none", DropoutPlan::none(shape)));
    let mut bernoulli = scheme::bernoulli(DropoutRate::new(0.5).unwrap());
    plans.push((
        "bernoulli",
        bernoulli.plan(&mut StdRng::seed_from_u64(5), shape),
    ));
    let mut divergent = scheme::divergent_bernoulli(DropoutRate::new(0.5).unwrap());
    plans.push((
        "divergent",
        divergent.plan(&mut StdRng::seed_from_u64(6), shape),
    ));
    let mut row = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
    plans.push(("row", row.plan(&mut StdRng::seed_from_u64(7), shape)));
    let mut tile = scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap();
    plans.push(("tile", tile.plan(&mut StdRng::seed_from_u64(8), shape)));
    let mut nm = scheme::nm(2, 4).unwrap();
    plans.push(("nm", nm.plan(&mut StdRng::seed_from_u64(9), shape)));
    let mut block = scheme::block_unit(DropoutRate::new(0.5).unwrap(), 16).unwrap();
    plans.push(("block", block.plan(&mut StdRng::seed_from_u64(10), shape)));
    let mut crs = scheme::crs(0.5).unwrap();
    plans.push(("crs", crs.plan(&mut StdRng::seed_from_u64(11), shape)));
    let mut row_crs = scheme::row_crs(DropoutRate::new(0.5).unwrap(), 8, 0.5).unwrap();
    plans.push((
        "row_crs",
        row_crs.plan(&mut StdRng::seed_from_u64(12), shape),
    ));
    plans
}

/// Every vector level this host supports, up to the detected one: each is
/// compared with the scalar reference.
fn vector_levels() -> Vec<SimdLevel> {
    [SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&level| simd::clamp_to_detected(level) == level)
        .collect()
}

fn workload(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    init::uniform(rng, rows, cols, -1.0, 1.0)
}

#[test]
fn runtime_dispatch_selects_the_detected_isa() {
    let _g = level_guard();
    let entry = simd::level();
    let detected = simd::detected_level();
    // On x86-64 the detector must report what the CPU actually has; a CPU
    // with AVX2 silently landing on the scalar path would be the exact
    // regression this test exists to catch.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_ne!(
            detected,
            SimdLevel::Scalar,
            "AVX2 is available but detection chose the scalar path"
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(detected, SimdLevel::Scalar, "only x86-64 has vector levels");
    // Selecting the detected level (and every supported one below it) is
    // honoured verbatim…
    assert_eq!(
        vector_levels().last().copied(),
        Some(detected).filter(|&l| l != SimdLevel::Scalar)
    );
    for level in vector_levels() {
        assert_eq!(simd::set_level(level), level);
        assert_eq!(simd::level(), level);
    }
    assert_eq!(simd::set_level(detected), detected);
    assert_eq!(simd::level(), detected);
    // …and the mandatory scalar fallback is always selectable.
    assert_eq!(simd::set_level(SimdLevel::Scalar), SimdLevel::Scalar);
    assert_eq!(simd::level(), SimdLevel::Scalar);
    simd::set_level(entry);
}

#[test]
fn micro_kernels_match_scalar_bitwise_at_ragged_lengths() {
    let _g = level_guard();
    let entry = simd::level();
    let mut rng = StdRng::seed_from_u64(0x51D0);
    // 31 floats: three 8-lane blocks (one 16-lane + rags on AVX-512) plus
    // a 7-element scalar tail.
    let x: Vec<f32> = workload(&mut rng, 1, 31).as_slice().to_vec();
    let y: Vec<f32> = workload(&mut rng, 1, 31).as_slice().to_vec();
    let quads: Vec<Vec<f32>> = (0..4)
        .map(|_| workload(&mut rng, 1, 31).as_slice().to_vec())
        .collect();

    simd::set_level(SimdLevel::Scalar);
    let mut axpy_scalar = x.clone();
    simd::axpy(&mut axpy_scalar, 0.37, &y);
    let mut axpy4_scalar = x.clone();
    simd::axpy4(
        &mut axpy4_scalar,
        [0.1, -0.2, 0.3, -0.4],
        &quads[0],
        &quads[1],
        &quads[2],
        &quads[3],
    );
    let dot_scalar = simd::dot(&x, &y);

    for level in vector_levels() {
        simd::set_level(level);
        let mut axpy_vec = x.clone();
        simd::axpy(&mut axpy_vec, 0.37, &y);
        let mut axpy4_vec = x.clone();
        simd::axpy4(
            &mut axpy4_vec,
            [0.1, -0.2, 0.3, -0.4],
            &quads[0],
            &quads[1],
            &quads[2],
            &quads[3],
        );
        let dot_vec = simd::dot(&x, &y);
        simd::set_level(entry);

        assert_eq!(
            axpy_scalar, axpy_vec,
            "axpy must be bitwise level-invariant ({level:?})"
        );
        assert_eq!(
            axpy4_scalar, axpy4_vec,
            "axpy4 must be bitwise level-invariant ({level:?})"
        );
        assert_eq!(
            dot_scalar.to_bits(),
            dot_vec.to_bits(),
            "dot must reproduce the 8-lane reduction order bitwise ({level:?})"
        );
    }
}

#[test]
fn dense_and_transposed_gemms_match_scalar_bitwise() {
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x51D1);
    // Odd shapes: ragged in every vector width; 70×131×97 also has full
    // 4 × 32 and 4 × 16 blocks and 8 × 8 transpose blocks with fringes on
    // every axis.
    for (m, k, n) in [(13, 37, 29), (70, 131, 97)] {
        let a = workload(&mut rng, m, k);
        let b = workload(&mut rng, k, n);
        let a_t = a.transpose();
        let b_t = b.transpose();

        simd::set_level(SimdLevel::Scalar);
        let dense_scalar = blocked_gemm(&a, &b).unwrap();
        let at_b_scalar = gemm_at_b(&a_t, &b).unwrap();
        let a_bt_scalar = gemm_a_bt(&a, &b_t).unwrap();

        for level in vector_levels() {
            simd::set_level(level);
            let dense_vec = blocked_gemm(&a, &b).unwrap();
            let at_b_vec = gemm_at_b(&a_t, &b).unwrap();
            let a_bt_vec = gemm_a_bt(&a, &b_t).unwrap();
            simd::set_level(entry);

            let what = format!("{m}×{k}×{n} at {level:?}");
            assert_eq!(dense_scalar, dense_vec, "dense GEMM (axpy4 form), {what}");
            assert_eq!(at_b_scalar, at_b_vec, "AᵀB GEMM (axpy4 form), {what}");
            assert_eq!(a_bt_scalar, a_bt_vec, "ABᵀ GEMM (packed Bᵀ), {what}");
        }
    }
    simd::set_level(entry);
}

#[test]
fn all_kernel_families_match_scalar_bitwise_at_one_and_four_threads() {
    let _g = level_guard();
    let entry = simd::level();
    let mut rng = StdRng::seed_from_u64(0x51D2);
    // Batch above the pool's serial-fallback threshold so the 4-thread
    // pass really runs parallel.
    let x = workload(&mut rng, 40, 29);
    let mut layer = Linear::new(&mut rng, 29, 48);
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        for (label, plan) in family_plans(29, 48) {
            for act in [Activation::Identity, Activation::Relu] {
                simd::set_level(SimdLevel::Scalar);
                let mut scalar = Matrix::default();
                layer.forward_act_into(&x, &plan, act, &mut scalar);
                for level in vector_levels() {
                    simd::set_level(level);
                    let mut vector = Matrix::default();
                    layer.forward_act_into(&x, &plan, act, &mut vector);
                    assert_eq!(
                        scalar, vector,
                        "{label}/{act:?} at {threads} thread(s) must be bitwise \
                         identical between scalar and {level:?}"
                    );
                }
            }
        }
    }
    pool::set_threads(1);
    simd::set_level(entry);
}

/// Same-seed transformer training losses with an evaluation on a smaller
/// batch midway, plus a final eval loss, as bit patterns.
fn transformer_trajectory(attn: &dyn DropoutScheme, ffn: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x51D5);
    let config = TransformerLmConfig {
        vocab: 40,
        model_dim: 16,
        heads: 4,
        ff_dim: 32,
        layers: 2,
        attn_dropout: attn.clone_box(),
        ffn_dropout: ffn.clone_box(),
        learning_rate: 0.05,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let mut lm = TransformerLm::new(&config, &mut rng);
    let batch: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..9).map(|t| (s * 5 + t * 11) % 40).collect())
        .collect();
    let mut bits = Vec::new();
    for step in 0..5 {
        bits.push(lm.train_batch(&batch, &mut rng).loss.to_bits());
        if step == 2 {
            bits.push(lm.evaluate(&batch[..5]).loss.to_bits());
        }
    }
    bits.push(lm.evaluate(&batch).loss.to_bits());
    bits
}

#[test]
fn transformer_attention_matches_scalar_bitwise_for_every_structured_path() {
    // The attention forward/backward pipeline is built entirely from the
    // level-invariant kernels (GEMMs, block-compacted GEMMs, gathers) and
    // the softmaxes' vectorised `exp`, so whole training trajectories —
    // head drop, 2:4 projections, FFN row dropout — must not move by a bit
    // when the dispatch level changes.
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let rate = DropoutRate::new(0.5).unwrap();
    #[allow(clippy::type_complexity)]
    let variants: Vec<(&str, Box<dyn DropoutScheme>, Box<dyn DropoutScheme>)> = vec![
        (
            "head_drop",
            scheme::block_unit(rate, 4).unwrap(),
            scheme::none(),
        ),
        ("nm_proj", scheme::nm(2, 4).unwrap(), scheme::none()),
        ("ffn_row", scheme::none(), scheme::row(rate, 8).unwrap()),
    ];
    for (label, attn, ffn) in &variants {
        simd::set_level(SimdLevel::Scalar);
        let scalar = transformer_trajectory(&**attn, &**ffn);
        for level in vector_levels() {
            simd::set_level(level);
            let vector = transformer_trajectory(&**attn, &**ffn);
            assert_eq!(
                scalar, vector,
                "transformer {label} must be bitwise identical between scalar and {level:?}"
            );
        }
    }
    simd::set_level(entry);
}

/// Same-seed LSTM LM training losses with an evaluation on a smaller batch
/// midway, plus a final eval loss, as bit patterns.
fn lstm_trajectory(dropout: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x51D6);
    let config = LstmLmConfig {
        vocab: 40,
        embed_dim: 24,
        hidden: 32,
        layers: 2,
        dropout: dropout.clone_box(),
        learning_rate: 0.5,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let mut lm = LstmLm::new(&config, &mut rng);
    let batch: Vec<Vec<usize>> = (0..32)
        .map(|s| (0..9).map(|t| (s * 5 + t * 11) % 40).collect())
        .collect();
    let mut bits = Vec::new();
    for step in 0..6 {
        bits.push(lm.train_batch(&batch, &mut rng).loss.to_bits());
        if step == 2 {
            bits.push(lm.evaluate(&batch[..24]).loss.to_bits());
        }
    }
    bits.push(lm.evaluate(&batch).loss.to_bits());
    bits
}

#[test]
fn lstm_matches_scalar_bitwise_for_every_dropout_family() {
    // The LSTM runs on the level-invariant GEMMs, the vectorised sigmoid
    // and tanh gate activations and the cross-entropy's vectorised `exp`,
    // so whole training trajectories under row, tile and Bernoulli
    // inter-layer dropout must not move by a bit when the dispatch level
    // changes.
    let _g = level_guard();
    let entry = simd::level();
    pool::set_threads(1);
    let rate = DropoutRate::new(0.5).unwrap();
    let variants: Vec<(&str, Box<dyn DropoutScheme>)> = vec![
        ("row", scheme::row(rate, 8).unwrap()),
        ("tile", scheme::tile(rate, 8, 8).unwrap()),
        ("bernoulli", scheme::bernoulli(rate)),
    ];
    for (label, dropout) in &variants {
        simd::set_level(SimdLevel::Scalar);
        let scalar = lstm_trajectory(&**dropout);
        for level in vector_levels() {
            simd::set_level(level);
            let vector = lstm_trajectory(&**dropout);
            assert_eq!(
                scalar, vector,
                "lstm {label} must be bitwise identical between scalar and {level:?}"
            );
        }
    }
    simd::set_level(entry);
}

/// ULP distance between two finite floats (sign-aware, 0 for ±0.0 pairs).
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn ordered(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        let mapped = if bits < 0 { i32::MIN - bits } else { bits };
        i64::from(mapped)
    }
    ordered(a).abs_diff(ordered(b))
}

/// The three transcendental slices with their libm formulas and ULP
/// bounds (see the `simd` module docs).
type Transcendental = (&'static str, fn(&mut [f32]), fn(f32) -> f32, u64);

fn transcendentals() -> [Transcendental; 3] {
    [
        ("exp", simd::exp_slice, f32::exp, 2),
        (
            "sigmoid",
            simd::sigmoid_slice,
            |x| 1.0 / (1.0 + (-x).exp()),
            16,
        ),
        ("tanh", simd::tanh_slice, f32::tanh, 32),
    ]
}

/// Inputs spanning the softmax domain `[−88, 0]` and both clamps of each
/// kernel (exp at ±88.38, tanh at ±7.9), `len` of them.
fn transcendental_inputs(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 3 {
            0 => -88.0 * (i as f32 / len as f32),
            1 => 200.0 * (i as f32 / len as f32) - 100.0,
            _ => 20.0 * (i as f32 / len as f32) - 10.0,
        })
        .collect()
}

#[test]
fn transcendental_slices_match_scalar_bitwise_at_every_length() {
    let _g = level_guard();
    let entry = simd::level();
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 801] {
        let x = transcendental_inputs(len);
        for (name, slice, _, _) in transcendentals() {
            simd::set_level(SimdLevel::Scalar);
            let mut scalar = x.clone();
            slice(&mut scalar);
            for level in vector_levels() {
                simd::set_level(level);
                let mut vector = x.clone();
                slice(&mut vector);
                let bits = |v: &[f32]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&scalar),
                    bits(&vector),
                    "{name} at length {len} must be bitwise identical between scalar and {level:?}"
                );
            }
        }
    }
    simd::set_level(entry);
}

#[test]
fn transcendental_slices_stay_within_documented_ulp_of_libm() {
    let _g = level_guard();
    let entry = simd::level();
    let sigmoid_tanh: Vec<f32> = (-2000..=2000).map(|i| i as f32 * 0.005).collect();
    let softmax: Vec<f32> = (0..=88_000).map(|i| i as f32 * -0.001).collect();
    for level in [SimdLevel::Scalar].into_iter().chain(vector_levels()) {
        simd::set_level(level);
        for (name, slice, libm, bound) in transcendentals() {
            // exp over the softmax's shifted logits; sigmoid and tanh over
            // [−10, 10], across both tanh clamps.
            let x = if name == "exp" {
                &softmax
            } else {
                &sigmoid_tanh
            };
            let mut y = x.clone();
            slice(&mut y);
            for (&x, &y) in x.iter().zip(&y) {
                let reference = libm(x);
                let ulp = ulp_distance(y, reference);
                let close = if name == "exp" {
                    // Below the smallest normal float the kernel flushes
                    // toward 0: bound the absolute error there.
                    ulp <= bound
                        || (reference < f32::MIN_POSITIVE && (y - reference).abs() <= 1e-38)
                } else {
                    ulp <= bound || (y - reference).abs() <= 1e-6
                };
                assert!(
                    close,
                    "{name}({x}) = {y} at {level:?} is {ulp} ULP from libm's {reference} \
                     (bound {bound})"
                );
            }
        }
    }
    simd::set_level(entry);
}

/// A NaN logit outside the label makes the loss NaN at every level,
/// whether it lands in a vector lane or in the scalar tail of the `exp`
/// kernel.
#[test]
fn nan_logit_gives_nan_loss_at_every_level() {
    let _g = level_guard();
    let entry = simd::level();
    for level in [SimdLevel::Scalar].into_iter().chain(vector_levels()) {
        simd::set_level(level);
        for nan_at in [3, 35] {
            let mut logits = Matrix::from_fn(3, 37, |i, j| ((i * 37 + j) % 11) as f32 * 0.3);
            logits[(1, nan_at)] = f32::NAN;
            let mut scratch = CrossEntropyScratch::default();
            let loss = softmax_cross_entropy_into(&logits, &[0, 0, 0], &mut scratch);
            assert!(
                loss.is_nan(),
                "NaN logit {nan_at} at {level:?}: loss {loss}"
            );
        }
    }
    simd::set_level(entry);
}
