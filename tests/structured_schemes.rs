//! End-to-end coverage of the structured-sparsity scheme family: N:M and
//! block-unit plans executing through `Mlp` / `LstmLm` training and being
//! priced by `NetworkTimingModel` from the *same* sampled `KernelSchedule`
//! — the acceptance path of the plan–execute–price contract.

use approx_dropout::{scheme, DropoutRate, KernelSchedule, LayerShape};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::builder::{LstmBuilder, NetworkBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, Matrix};

fn rate(p: f64) -> DropoutRate {
    DropoutRate::new(p).unwrap()
}

/// A tiny two-cluster classification task.
fn toy_problem(rng: &mut StdRng, n: usize) -> (Matrix, Vec<usize>) {
    let mut data = Matrix::zeros(n, 8);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        labels.push(class);
        for j in 0..8 {
            let center = if class == 0 { 1.0 } else { -1.0 };
            data[(i, j)] = center + 0.3 * init::standard_normal(rng);
        }
    }
    (data, labels)
}

#[test]
fn mlp_learns_with_structured_schemes() {
    for (label, dropout) in [
        ("nm 2:4", scheme::nm(2, 4).unwrap()),
        ("block 8", scheme::block_unit(rate(0.5), 8).unwrap()),
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = toy_problem(&mut rng, 64);
        let mut mlp = NetworkBuilder::new(8, 2)
            .hidden_layers(&[64, 64])
            .dropout(dropout)
            .learning_rate(0.01)
            .momentum(0.5)
            .build(&mut rng);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            last_loss = mlp.train_batch(&x, &y, &mut rng).loss;
        }
        assert!(last_loss.is_finite(), "{label}: training diverged");
        let (_, acc) = mlp.evaluate(&x, &y);
        assert!(acc > 0.9, "{label}: accuracy {acc}");
    }
}

#[test]
fn lstm_trains_with_structured_inter_layer_dropout() {
    for dropout in [
        scheme::nm(2, 4).unwrap(),
        scheme::block_unit(rate(0.3), 4).unwrap(),
    ] {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lm = LstmBuilder::new(12, 16)
            .layers(2)
            .dropout(dropout)
            .learning_rate(0.5)
            .grad_clip(5.0)
            .build(&mut rng);
        let batch: Vec<Vec<usize>> = (0..6)
            .map(|b| (0..=8).map(|t| (b + t) % 12).collect())
            .collect();
        for _ in 0..20 {
            let stats = lm.train_batch(&batch, &mut rng);
            assert!(stats.loss.is_finite());
        }
        let eval = lm.evaluate(&batch);
        assert!(eval.loss.is_finite());
    }
}

/// The exact plan the training side would execute is the one the timing
/// model prices: same scheme, same RNG draw, same `KernelSchedule`.
#[test]
fn structured_plans_price_through_their_own_schedule() {
    let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());

    let mut nm = scheme::nm(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let plans = model.plan_iteration(&mut [nm.clone_box(), nm.clone_box()], &mut rng);
    for plan in &plans {
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::NmCompact { n: 2, m: 4 }
        );
        assert!((plan.kernel_schedule().kept_fraction() - 0.5).abs() < 1e-12);
    }
    let nm_time = model.iteration_time_from_plans(&plans).total_us();

    let mut block = scheme::block_unit(rate(0.5), 32).unwrap();
    let block_plans = model.plan_iteration(&mut [block.clone_box(), block.clone_box()], &mut rng);
    for plan in &block_plans {
        assert!(matches!(
            plan.kernel_schedule(),
            KernelSchedule::BlockCompact { block: 32, .. }
        ));
    }
    let block_time = model.iteration_time_from_plans(&block_plans).total_us();

    let dense_plans: Vec<_> = model
        .layer_shapes()
        .into_iter()
        .map(approx_dropout::DropoutPlan::none)
        .collect();
    let dense_time = model.iteration_time_from_plans(&dense_plans).total_us();
    assert!(nm_time < dense_time, "nm {nm_time} vs dense {dense_time}");
    assert!(
        block_time < dense_time,
        "block {block_time} vs dense {dense_time}"
    );

    // The planning side and the pricing side saw the same sampled decision:
    // re-planning with the same seed reproduces the schedule exactly.
    let mut rng_again = StdRng::seed_from_u64(3);
    let plans_again = model.plan_iteration(&mut [nm.clone_box(), nm.clone_box()], &mut rng_again);
    assert_eq!(plans, plans_again);
    let _ = (&mut nm, &mut block);
}

/// `plan_into` and `plan` are draw-for-draw identical for the structured
/// schemes at LSTM-style vector shapes too (the MLP-shape parity is covered
/// by `tests/hotpath_parallel.rs`).
#[test]
fn structured_plan_into_parity_on_vector_shapes() {
    let shape = LayerShape::vector(96);
    for reference in [
        scheme::nm(1, 4).unwrap(),
        scheme::block_unit(rate(0.5), 8).unwrap(),
    ] {
        let mut planner = reference.clone();
        let mut recycler = reference.clone();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut buf = approx_dropout::DropoutPlan::default();
        for it in 0..8 {
            let fresh = planner.plan(&mut rng_a, shape);
            recycler.plan_into(&mut rng_b, shape, &mut buf);
            assert_eq!(
                fresh,
                buf,
                "{} diverged at iteration {it}",
                reference.label()
            );
        }
    }
}
