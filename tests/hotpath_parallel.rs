//! Integration tests for the allocation-free, multi-threaded training hot
//! path: parallel-vs-serial kernel equivalence, `plan_into` draw-for-draw
//! fidelity and buffer recycling, and proof that the per-layer scratch
//! workspaces are numerically inert.

use approx_dropout::{
    scheme, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, PlanCache, PlanKey, RowPattern,
    TilePattern,
};
use nn::lstm::{LstmLm, LstmLmConfig};
use nn::{Linear, Mlp, MlpConfig, Sgd, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{
    blocked_gemm, gather_backward_into, gather_gemm_bias_act_into, gather_gemm_into, gemm_a_bt,
    gemm_at_b, init, pool, row_compact_gemm, Activation, GatherEpilogue, GatherScratch, Matrix,
};

/// All global-pool mutation lives in this single test: the pool is
/// process-wide state and the tests of one binary run concurrently.
#[test]
fn parallel_execution_is_bitwise_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(1);
    // Odd, non-panel-aligned shapes on purpose: they exercise every scalar
    // tail of the unrolled kernels and the ragged last row chunk.
    let a = init::uniform(&mut rng, 67, 53, -1.0, 1.0);
    let b = init::uniform(&mut rng, 53, 41, -1.0, 1.0);
    let g = init::uniform(&mut rng, 67, 41, -1.0, 1.0); // shares a's batch dim
    let w2 = init::uniform(&mut rng, 41, 53, -1.0, 1.0);
    let kept_cols: Vec<usize> = (1..53).step_by(3).collect();
    let kept_k: Vec<usize> = (0..53).step_by(2).collect(); // K-gather over a·b's inner dim
    let bias = init::uniform(&mut rng, 1, 41, -0.5, 0.5);
    let crs_scale = 53.0 / kept_k.len() as f32;
    let run_kernels = || {
        let mut crs_scratch = GatherScratch::default();
        crs_scratch.resolve_k(&kept_k);
        let epilogue = GatherEpilogue::Synapses { pre: crs_scale };
        let mut crs_fwd = Matrix::zeros(0, 0);
        gather_gemm_bias_act_into(
            &a,
            &b,
            &bias,
            epilogue,
            Activation::Relu,
            &mut crs_scratch,
            &mut crs_fwd,
        )
        .unwrap();
        let mut crs_dw = Matrix::zeros(0, 0);
        let mut crs_dx = Matrix::zeros(0, 0);
        gather_backward_into(
            &a,
            &g,
            &b,
            crs_scale,
            &mut crs_scratch,
            &mut crs_dw,
            Some(&mut crs_dx),
        )
        .unwrap();
        (
            blocked_gemm(&a, &b).unwrap(),
            gemm_at_b(&a, &g).unwrap(),
            gemm_a_bt(&a, &w2).unwrap(),
            row_compact_gemm(&b, &w2, &kept_cols).unwrap(),
            crs_fwd,
            crs_dw,
            crs_dx,
            gather_layer_outputs(),
        )
    };
    pool::set_threads(1);
    assert_eq!(pool::threads(), 1);
    let serial = run_kernels();
    pool::set_threads(4);
    assert_eq!(pool::threads(), 4);
    let parallel = run_kernels();
    assert_eq!(serial.0, parallel.0, "dense GEMM must be thread-invariant");
    assert_eq!(serial.1, parallel.1, "AᵀB must be thread-invariant");
    assert_eq!(serial.2, parallel.2, "ABᵀ must be thread-invariant");
    assert_eq!(serial.3, parallel.3, "row-compact must be thread-invariant");
    assert_eq!(
        serial.4, parallel.4,
        "fused K-gather GEMM must be thread-invariant"
    );
    assert_eq!(serial.5, parallel.5, "K-gather dW must be thread-invariant");
    assert_eq!(serial.6, parallel.6, "K-gather dX must be thread-invariant");
    assert_eq!(
        serial.7, parallel.7,
        "block and tile layers must be thread-invariant"
    );

    // Whole-model check: a same-seed training trajectory (batch wide enough
    // to engage the pool) is identical at 1 and 4 threads.
    let losses_serial = {
        pool::set_threads(1);
        train_losses()
    };
    let losses_parallel = {
        pool::set_threads(4);
        train_losses()
    };
    assert_eq!(
        losses_serial, losses_parallel,
        "training must be bitwise thread-invariant"
    );

    // Transformer attention forward + backward: every structured-attention
    // execution path (whole-head block drop, 2:4 projections, FFN row
    // dropout) must produce bitwise-identical training trajectories and
    // eval losses at 1 and 4 threads.
    for (label, attn, ffn) in transformer_variants() {
        pool::set_threads(1);
        let serial = transformer_trajectory(&*attn, &*ffn);
        pool::set_threads(4);
        let parallel = transformer_trajectory(&*attn, &*ffn);
        assert_eq!(
            serial, parallel,
            "transformer {label} training must be bitwise thread-invariant"
        );
    }

    // LSTM language model: the stacked input projection, the per-step
    // recurrent GEMMs and the vocabulary projection under every
    // inter-layer dropout family.
    for (label, dropout) in lstm_variants() {
        pool::set_threads(1);
        let serial = lstm_trajectory(&*dropout);
        pool::set_threads(4);
        let parallel = lstm_trajectory(&*dropout);
        assert_eq!(
            serial, parallel,
            "lstm {label} training must be bitwise thread-invariant"
        );
    }
    pool::set_threads(1);
}

/// Block and tile plans through `Linear` at a pool-engaging batch: the
/// forward output, `dX`, `dW` and bias gradient of the gather core, then the
/// same after an SGD step (fresh weight panels). The tile plans group their
/// rows into two and five classes of the 7x6 grid at tile 8.
fn gather_layer_outputs() -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(5);
    let x = init::uniform(&mut rng, 67, 53, -1.0, 1.0);
    let dy = init::uniform(&mut rng, 67, 41, -1.0, 1.0);
    let shape = LayerShape::new(53, 41);
    let mut block = scheme::block_unit(DropoutRate::new(0.5).unwrap(), 16).unwrap();
    let plans = [
        block.plan(&mut rng, shape),
        TilePattern::new(4, 1, 8).unwrap().plan(&mut rng, shape),
        TilePattern::new(5, 2, 8).unwrap().plan(&mut rng, shape),
    ];
    let mut outputs = Vec::new();
    for plan in &plans {
        let mut layer = Linear::new(&mut StdRng::seed_from_u64(6), 53, 41);
        for _ in 0..2 {
            let mut y = Matrix::default();
            layer.forward_act_into(&x, plan, Activation::Relu, &mut y);
            let dx = layer.backward(&dy);
            outputs.extend([
                y,
                dx,
                layer.weight_grad().clone(),
                layer.bias_grad().clone(),
            ]);
            layer.step(&Sgd::new(0.1, 0.9));
        }
    }
    outputs
}

/// The structured-attention variants whose kernels the transformer
/// thread-invariance matrix covers: whole-head drop, N:M projections, FFN
/// row dropout.
#[allow(clippy::type_complexity)]
fn transformer_variants() -> Vec<(&'static str, Box<dyn DropoutScheme>, Box<dyn DropoutScheme>)> {
    let rate = DropoutRate::new(0.5).unwrap();
    vec![
        (
            "head_drop",
            scheme::block_unit(rate, 4).unwrap(),
            scheme::none(),
        ),
        ("nm_proj", scheme::nm(2, 4).unwrap(), scheme::none()),
        ("ffn_row", scheme::none(), scheme::row(rate, 8).unwrap()),
    ]
}

/// Same-seed training losses with an evaluation on a smaller batch midway,
/// plus a final eval loss — the bits the thread-invariance assertions
/// compare.
fn transformer_trajectory(attn: &dyn DropoutScheme, ffn: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(77);
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
    // Batch of 8 sequences × 8 steps = 64 rows: wide enough to engage the
    // pool on the attention and FFN GEMMs.
    let batch: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..9).map(|t| (s * 3 + t * 7) % 40).collect())
        .collect();
    let mut bits = Vec::new();
    for step in 0..6 {
        bits.push(lm.train_batch(&batch, &mut rng).loss.to_bits());
        if step == 2 {
            bits.push(lm.evaluate(&batch[..5]).loss.to_bits());
        }
    }
    bits.push(lm.evaluate(&batch).loss.to_bits());
    bits
}

/// The inter-layer dropout families the LSTM invariance checks cover.
fn lstm_variants() -> Vec<(&'static str, Box<dyn DropoutScheme>)> {
    let rate = DropoutRate::new(0.5).unwrap();
    vec![
        ("row", scheme::row(rate, 8).unwrap()),
        ("tile", scheme::tile(rate, 8, 8).unwrap()),
        ("bernoulli", scheme::bernoulli(rate)),
    ]
}

/// Same-seed LSTM LM training losses with an evaluation on a smaller batch
/// midway, plus a final eval loss, as bit patterns.
fn lstm_trajectory(dropout: &dyn DropoutScheme) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(78);
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
    // 32 sequences: every per-timestep GEMM (batch rows) engages the pool,
    // not only the stacked ones.
    let batch: Vec<Vec<usize>> = (0..32)
        .map(|s| (0..9).map(|t| (s * 3 + t * 7) % 40).collect())
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

/// Same-seed MLP training losses with an evaluation on a smaller batch
/// midway.
fn train_losses() -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(42);
    let config = MlpConfig {
        input_dim: 24,
        hidden: vec![48, 48],
        output_dim: 4,
        dropout: scheme::row(DropoutRate::new(0.5).unwrap(), 4).unwrap(),
        learning_rate: 0.02,
        momentum: 0.9,
    };
    let mut mlp = Mlp::new(&config, &mut rng);
    let inputs = init::uniform(&mut rng, 64, 24, -1.0, 1.0);
    let labels: Vec<usize> = (0..64).map(|i| i % 4).collect();
    let eval_inputs = init::uniform(&mut rng, 40, 24, -1.0, 1.0);
    let mut losses = Vec::new();
    for step in 0..10 {
        losses.push(mlp.train_batch(&inputs, &labels, &mut rng).loss);
        if step == 4 {
            losses.push(mlp.evaluate(&eval_inputs, &labels[..40]).0);
        }
    }
    losses
}

fn all_schemes() -> Vec<Box<dyn DropoutScheme>> {
    vec![
        scheme::none(),
        scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
        scheme::divergent_bernoulli(DropoutRate::new(0.3).unwrap()),
        Box::new(RowPattern::new(3, 1).unwrap()),
        Box::new(TilePattern::new(2, 0, 8).unwrap()),
        scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
        scheme::tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap(),
        scheme::nm(2, 4).unwrap(),
        scheme::block_unit(DropoutRate::new(0.5).unwrap(), 8).unwrap(),
        scheme::crs(0.5).unwrap(),
        scheme::row_crs(DropoutRate::new(0.5).unwrap(), 8, 0.5).unwrap(),
    ]
}

#[test]
fn plan_into_equals_fresh_plan_for_every_scheme() {
    let shape = LayerShape::new(64, 96);
    for reference in all_schemes() {
        let mut planner = reference.clone();
        let mut recycler = reference.clone();
        let mut rng_plan = StdRng::seed_from_u64(99);
        let mut rng_into = StdRng::seed_from_u64(99);
        // Start from a deliberately dirty buffer of a *different* shape and
        // family so stale state would be detected.
        let mut buf = DropoutPlan::none(LayerShape::new(3, 7));
        let mut tile_scheme = TilePattern::new(3, 2, 4).unwrap();
        tile_scheme.plan_into(
            &mut StdRng::seed_from_u64(0),
            LayerShape::new(8, 8),
            &mut buf,
        );
        for iteration in 0..6 {
            let fresh = planner.plan(&mut rng_plan, shape);
            recycler.plan_into(&mut rng_into, shape, &mut buf);
            assert_eq!(
                fresh,
                buf,
                "scheme {} diverged at iteration {iteration}",
                reference.label()
            );
        }
    }
}

#[test]
fn plan_into_recycles_kept_index_and_mask_buffers() {
    // Fixed row pattern: the kept count is constant, so after the first
    // resolve the buffer capacity is settled and the pointer must not move.
    let mut row = RowPattern::new(3, 0).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let shape = LayerShape::vector(120);
    let mut buf = DropoutPlan::default();
    row.plan_into(&mut rng, shape, &mut buf);
    let kept_ptr = buf.compact_rows().unwrap().as_ptr();
    for _ in 0..5 {
        row.plan_into(&mut rng, shape, &mut buf);
        assert_eq!(
            kept_ptr,
            buf.compact_rows().unwrap().as_ptr(),
            "kept-index buffer must be reused, not reallocated"
        );
    }

    // Bernoulli: the mask length equals out_features every iteration.
    let mut bern = scheme::bernoulli(DropoutRate::new(0.4).unwrap());
    let mut buf = DropoutPlan::default();
    bern.plan_into(&mut rng, shape, &mut buf);
    let mask_ptr = buf.bernoulli_mask().unwrap().as_ptr();
    for _ in 0..5 {
        bern.plan_into(&mut rng, shape, &mut buf);
        assert_eq!(
            mask_ptr,
            buf.bernoulli_mask().unwrap().as_ptr(),
            "mask buffer must be reused, not reallocated"
        );
    }

    // Matrix cache reuse (the Linear workspace primitive): same-shape
    // clone_from must keep the allocation.
    let src = Matrix::ones(13, 17);
    let mut dst = Matrix::zeros(13, 17);
    let ptr = dst.as_slice().as_ptr();
    dst.clone_from(&src);
    assert_eq!(ptr, dst.as_slice().as_ptr());
    assert_eq!(dst, src);
}

/// The serving-layer plan cache rides the same recycling contract: once a
/// destination buffer is warmed to a key's plan family, repeated cache
/// hits `clone_from` into it without moving the allocation. This is the
/// "cache hits allocate nothing" half of the serve acceptance criteria;
/// bitwise fidelity is covered in `tests/serve_plan_cache.rs`.
#[test]
fn plan_cache_hits_recycle_destination_buffers() {
    let cache = PlanCache::new(2);
    let shape = LayerShape::vector(120);

    // Fixed-dp row plan: the kept count is constant, so the kept-index
    // pointer must be stable from the first hit on.
    let mut row = RowPattern::new(3, 0).unwrap();
    let key = PlanKey::new(1, shape, 0);
    let mut dest = DropoutPlan::default();
    let sample = |scheme: &mut dyn DropoutScheme, key: PlanKey, out: &mut DropoutPlan| {
        let mut rng = StdRng::seed_from_u64(key.seed());
        scheme.plan_into(&mut rng, key.shape, out);
    };
    assert!(!cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
    assert!(cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
    let kept_ptr = dest.compact_rows().unwrap().as_ptr();
    for _ in 0..5 {
        assert!(cache.fetch(key, &mut dest, |out| sample(&mut row, key, out)));
        assert_eq!(
            kept_ptr,
            dest.compact_rows().unwrap().as_ptr(),
            "cache hit must reuse the kept-index buffer, not reallocate"
        );
    }

    // Bernoulli mask: length equals out_features for every epoch of the
    // same shape, so hits across epochs keep the mask allocation too.
    let mut bern = scheme::bernoulli(DropoutRate::new(0.4).unwrap());
    let mut dest = DropoutPlan::default();
    for epoch in 0..4 {
        let key = PlanKey::new(2, shape, epoch);
        assert!(!cache.fetch(key, &mut dest, |out| sample(bern.as_mut(), key, out)));
    }
    let mask_ptr = dest.bernoulli_mask().unwrap().as_ptr();
    for epoch in 0..4 {
        let key = PlanKey::new(2, shape, epoch);
        assert!(cache.fetch(key, &mut dest, |out| sample(bern.as_mut(), key, out)));
        assert_eq!(
            mask_ptr,
            dest.bernoulli_mask().unwrap().as_ptr(),
            "cross-epoch cache hits must reuse the mask buffer"
        );
    }
}

/// The scratch-workspace refactor must be numerically inert: a layer whose
/// workspace is reused across iterations (with the plan *family* changing
/// between iterations, so stale row/tile/mask state would surface) produces
/// exactly the outputs and gradients of a pristine layer run once.
#[test]
fn linear_workspace_reuse_is_numerically_inert() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut reused = Linear::new(&mut rng, 12, 16);
    let pristine = reused.clone();
    let shape = LayerShape::new(12, 16);
    let mut schemes = all_schemes();
    let mut plan_rng = StdRng::seed_from_u64(3);
    let mut data_rng = StdRng::seed_from_u64(4);
    // Vary the batch size too: workspace buffers must resize correctly.
    let batches = [8usize, 3, 16, 8, 33, 5, 8, 12, 6, 9, 14];
    let scheme_count = schemes.len();
    for (iteration, &batch) in batches.iter().enumerate() {
        let scheme = &mut schemes[iteration % scheme_count];
        let plan = scheme.plan(&mut plan_rng, shape);
        let x = init::uniform(&mut data_rng, batch, 12, -1.0, 1.0);
        let dy = init::uniform(&mut data_rng, batch, 16, -1.0, 1.0);

        let mut fresh = pristine.clone();
        let y_fresh = fresh.forward(&x, &plan);
        let dx_fresh = fresh.backward(&dy);

        let y_reused = reused.forward(&x, &plan);
        let dx_reused = reused.backward(&dy);

        assert_eq!(y_fresh, y_reused, "forward diverged at {iteration}");
        assert_eq!(dx_fresh, dx_reused, "input grad diverged at {iteration}");
        assert_eq!(
            fresh.weight_grad(),
            reused.weight_grad(),
            "weight grad diverged at {iteration}"
        );
    }
}

/// The backward counterpart of the buffer-reuse checks above:
/// `Linear::backward_into` must (a) produce exactly the matrix
/// `Linear::backward` allocates, for every plan family, and (b) recycle the
/// caller's `dx` buffer — once the shape is warmed the pointer never moves,
/// no matter which execution path the iteration's plan selects.
#[test]
fn backward_into_matches_backward_and_recycles_dx_buffer() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut reused = Linear::new(&mut rng, 12, 16);
    let pristine = reused.clone();
    let shape = LayerShape::new(12, 16);
    let mut schemes = all_schemes();
    let mut plan_rng = StdRng::seed_from_u64(22);
    let mut data_rng = StdRng::seed_from_u64(23);
    let scheme_count = schemes.len();

    let mut dx = Matrix::default();
    let mut dx_ptr = None;
    for iteration in 0..(2 * scheme_count) {
        let scheme = &mut schemes[iteration % scheme_count];
        let plan = scheme.plan(&mut plan_rng, shape);
        let x = init::uniform(&mut data_rng, 8, 12, -1.0, 1.0);
        let dy = init::uniform(&mut data_rng, 8, 16, -1.0, 1.0);

        let mut fresh = pristine.clone();
        let _ = fresh.forward(&x, &plan);
        let dx_fresh = fresh.backward(&dy);

        let _ = reused.forward(&x, &plan);
        reused.backward_into(&dy, &mut dx);

        assert_eq!(dx_fresh, dx, "dx diverged at iteration {iteration}");
        assert_eq!(
            fresh.weight_grad(),
            reused.weight_grad(),
            "weight grad diverged at iteration {iteration}"
        );
        match dx_ptr {
            None => dx_ptr = Some(dx.as_slice().as_ptr()),
            Some(ptr) => assert_eq!(
                ptr,
                dx.as_slice().as_ptr(),
                "dx buffer must be reused, not reallocated (iteration {iteration}, scheme {})",
                schemes[iteration % scheme_count].label()
            ),
        }
    }
}

/// The gather scratch rides the same recycling contract as the other
/// workspaces: once warmed for a shape, repeated calls with a *different*
/// kept set of the same size move no output allocation.
#[test]
fn gather_k_output_buffers_are_recycled_across_kept_sets() {
    let mut rng = StdRng::seed_from_u64(31);
    let a = init::uniform(&mut rng, 9, 24, -1.0, 1.0);
    let w = init::uniform(&mut rng, 24, 13, -1.0, 1.0);
    let g = init::uniform(&mut rng, 9, 13, -1.0, 1.0);
    let kept_a: Vec<usize> = (0..24).step_by(2).collect();
    let kept_b: Vec<usize> = (1..24).step_by(2).collect();

    let mut scratch = GatherScratch::default();
    let mut out = Matrix::default();
    scratch.resolve_k(&kept_a);
    gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
    let mut dw = Matrix::default();
    let mut dx = Matrix::default();
    gather_backward_into(&a, &g, &w, 2.0, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
    let (out_ptr, dw_ptr, dx_ptr) = (
        out.as_slice().as_ptr(),
        dw.as_slice().as_ptr(),
        dx.as_slice().as_ptr(),
    );

    scratch.resolve_k(&kept_b);
    gather_gemm_into(&a, &w, &mut scratch, &mut out).unwrap();
    gather_backward_into(&a, &g, &w, 2.0, &mut scratch, &mut dw, Some(&mut dx)).unwrap();
    assert_eq!(
        out_ptr,
        out.as_slice().as_ptr(),
        "forward out must be reused"
    );
    assert_eq!(dw_ptr, dw.as_slice().as_ptr(), "dW buffer must be reused");
    assert_eq!(dx_ptr, dx.as_slice().as_ptr(), "dX buffer must be reused");
}

/// Same-seed loss trajectories are exactly reproducible through the
/// `plan_into` + workspace path end to end (MLP train loop).
#[test]
fn same_seed_mlp_trajectories_are_identical() {
    let run = || train_losses();
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.iter().all(|l| l.is_finite()));
}
