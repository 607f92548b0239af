//! Integration tests for the fused whole-layer kernels
//! (GEMM + bias + activation in one launch) across the plan–execute–price
//! pipeline: bitwise equivalence of the fused and unfused executors for
//! every activation × every dropout schedule family, at serial and parallel
//! pool settings; buffer recycling of the fused output path; and the
//! timing-model identity that a fused launch never prices above the chain
//! of parts it replaces.

use approx_dropout::{scheme, Activation, DropoutRate, DropoutScheme, KernelSchedule, RowPattern};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{DropoutPlan, LayerShape, Linear};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, pool, Matrix};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// One plan per schedule family, resolved against a `(in, out)` layer. The
/// odd width exercises ragged tails of every compacted kernel.
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

/// Unfused reference: `Linear::forward` followed by the stand-alone
/// elementwise activation — the chain the fused kernel replaces.
fn unfused_reference(
    layer: &mut Linear,
    x: &Matrix,
    plan: &DropoutPlan,
    act: Activation,
) -> Matrix {
    let mut z = layer.forward(x, plan);
    z.map_inplace(|v| act.apply(v));
    z
}

/// All global-pool mutation lives in this single test: the pool is
/// process-wide state and the tests of one binary run concurrently.
#[test]
fn fused_forward_is_bitwise_identical_to_unfused_for_all_families() {
    let mut rng = StdRng::seed_from_u64(1);
    // Batch above PAR_MIN_ROWS so the 4-thread pass really runs parallel.
    let x = init::uniform(&mut rng, 40, 29, -1.0, 1.0);
    let mut layer = Linear::new(&mut rng, 29, 48);
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        assert_eq!(pool::threads(), threads);
        for (label, plan) in family_plans(29, 48) {
            for act in ACTIVATIONS {
                let reference = unfused_reference(&mut layer, &x, &plan, act);
                let mut fused = Matrix::default();
                layer.forward_act_into(&x, &plan, act, &mut fused);
                assert_eq!(
                    fused, reference,
                    "{label}/{act:?} at {threads} thread(s) must be bitwise identical"
                );
            }
        }
    }
    // Parallel-vs-serial invariance of the fused kernels themselves.
    let plan = family_plans(29, 48).swap_remove(3).1; // row plan
    pool::set_threads(1);
    let mut serial = Matrix::default();
    layer.forward_act_into(&x, &plan, Activation::Relu, &mut serial);
    pool::set_threads(4);
    let mut parallel = Matrix::default();
    layer.forward_act_into(&x, &plan, Activation::Relu, &mut parallel);
    assert_eq!(serial, parallel, "fused kernel must be thread-invariant");
    pool::set_threads(1);
}

#[test]
fn fused_backward_matches_unfused_backward_exactly() {
    // The fused forward caches exactly what the unfused forward caches, so
    // the backward pass behind either must produce identical gradients.
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(&mut rng, 6, 21, -1.0, 1.0);
    let dy = init::uniform(&mut rng, 6, 32, -1.0, 1.0);
    for (label, plan) in family_plans(21, 32) {
        let mut rng_l = StdRng::seed_from_u64(3);
        let mut fused_layer = Linear::new(&mut rng_l, 21, 32);
        let mut unfused_layer = fused_layer.clone();
        let mut out = Matrix::default();
        fused_layer.forward_act_into(&x, &plan, Activation::Relu, &mut out);
        let _ = unfused_layer.forward(&x, &plan);
        let dx_fused = fused_layer.backward(&dy);
        let dx_unfused = unfused_layer.backward(&dy);
        assert_eq!(dx_fused, dx_unfused, "{label}: dX must match");
        assert_eq!(
            fused_layer.weight_grad(),
            unfused_layer.weight_grad(),
            "{label}: dW must match"
        );
    }
}

#[test]
fn fused_output_buffer_is_recycled_across_iterations() {
    let mut rng = StdRng::seed_from_u64(12);
    let x = init::uniform(&mut rng, 8, 10, -1.0, 1.0);
    let mut layer = Linear::new(&mut rng, 10, 16);
    let mut scheme = RowPattern::new(2, 0).unwrap();
    let shape = LayerShape::new(10, 16);
    let mut plan = scheme.plan(&mut StdRng::seed_from_u64(1), shape);
    let mut out = Matrix::default();
    layer.forward_act_into(&x, &plan, Activation::Relu, &mut out);
    let ptr = out.as_slice().as_ptr();
    // Different kept set, same shapes: no reallocation anywhere.
    let mut scheme2 = RowPattern::new(2, 1).unwrap();
    scheme2.plan_into(&mut StdRng::seed_from_u64(2), shape, &mut plan);
    layer.forward_act_into(&x, &plan, Activation::Relu, &mut out);
    assert_eq!(
        ptr,
        out.as_slice().as_ptr(),
        "fused output buffer must be reused"
    );
}

#[test]
fn fused_model_prices_at_or_below_the_unfused_chain_on_both_presets() {
    // Network-level restatement of the pricing identity
    // `fused_cost <= sum(parts)` through the public API, plus monotonicity
    // of the fused pricing in the kept fraction.
    for gpu in [GpuConfig::gtx_1080ti(), GpuConfig::server_hbm()] {
        let unfused = NetworkTimingModel::mlp(gpu.clone(), MlpSpec::paper_mlp());
        let fused = unfused.clone().with_fusion(true);
        for s in [
            scheme::none(),
            scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
            scheme::row(DropoutRate::new(0.5).unwrap(), 16).unwrap(),
            scheme::tile(DropoutRate::new(0.5).unwrap(), 16, 32).unwrap(),
            scheme::nm(2, 4).unwrap(),
            scheme::block_unit(DropoutRate::new(0.5).unwrap(), 32).unwrap(),
            scheme::crs(0.5).unwrap(),
            scheme::row_crs(DropoutRate::new(0.5).unwrap(), 16, 0.5).unwrap(),
        ] {
            let t_unfused = unfused.expected_iteration_time(&*s, 32, 77).total_us();
            let t_fused = fused.expected_iteration_time(&*s, 32, 77).total_us();
            assert!(
                t_fused <= t_unfused,
                "{}: fused {t_fused} > unfused {t_unfused} for {}",
                gpu.name,
                s.label()
            );
        }
        // Monotonicity in kept fraction under fusion: dropping more neurons
        // never prices slower.
        let series: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&dp| {
                let plans: Vec<DropoutPlan> = fused
                    .layer_shapes()
                    .into_iter()
                    .map(|shape| {
                        RowPattern::new(dp, 0)
                            .unwrap()
                            .plan(&mut StdRng::seed_from_u64(1), shape)
                    })
                    .collect();
                fused.iteration_time_from_plans(&plans).total_us()
            })
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{}: fused pricing not monotonic: {series:?}",
                gpu.name
            );
        }
    }
}

#[test]
fn fused_schedule_survives_the_plan_pipeline() {
    // A plan's schedule wrapped by the executor keeps its compaction
    // semantics: kept_fraction, is_compacted and the round trip through
    // `unfused` are loss-free.
    let mut s = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
    let plan = s.plan(&mut StdRng::seed_from_u64(4), LayerShape::new(64, 64));
    let schedule = *plan.kernel_schedule();
    let fused = schedule.fused(Activation::Relu);
    assert!(matches!(fused, KernelSchedule::Fused { .. }));
    assert_eq!(fused.unfused(), schedule);
    assert_eq!(fused.kept_fraction(), schedule.kept_fraction());
    assert_eq!(fused.is_compacted(), schedule.is_compacted());
}
