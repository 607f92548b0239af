//! The gather core under `Linear`: block and tile plans against masked dense
//! references, and the weight-panel reuse contract.
//!
//! Forward (ReLU), `dW`, `dX` and the bias gradient of every compacted path
//! must match the dense layer run on the explicitly masked weight. The
//! backward `dX` product reuses the weight panel the forward pass packed, so
//! an SGD step in between must invalidate it.

use approx_dropout::{scheme, DropoutPlan, DropoutRate, LayerShape, TileGrid, TilePattern};
use nn::{Linear, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, Activation, Matrix};

/// The gradients and output of one forward/backward pair.
struct Pass {
    y: Matrix,
    dx: Matrix,
    dw: Matrix,
    db: Matrix,
}

fn run(layer: &mut Linear, x: &Matrix, dy: &Matrix, plan: &DropoutPlan) -> Pass {
    let mut y = Matrix::default();
    layer.forward_act_into(x, plan, Activation::Relu, &mut y);
    let dx = layer.backward(dy);
    Pass {
        y,
        dx,
        dw: layer.weight_grad().clone(),
        db: layer.bias_grad().clone(),
    }
}

/// The dense layer on `W ⊙ mask`: `Z = (X·(W ⊙ mask))·pre + b`, then each
/// column scaled by `col[j]`; the backward pass treats `dy` as `∂L/∂Z`.
fn masked_dense(
    layer: &Linear,
    x: &Matrix,
    dy: &Matrix,
    mask: &Matrix,
    pre: f32,
    col: &[f32],
) -> Pass {
    let w = layer.weight().hadamard(mask).unwrap();
    let scale_cols = |m: &Matrix| Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] * col[j]);
    let z = scale_cols(
        &x.matmul(&w)
            .scale(pre)
            .add_row_broadcast(layer.bias())
            .unwrap(),
    );
    // Z's gradient reaches the product through both scales.
    let g = scale_cols(dy).scale(pre);
    Pass {
        y: z.map(|v| v.max(0.0)),
        dx: g.matmul(&w.transpose()),
        dw: x.transpose().matmul(&g).hadamard(mask).unwrap(),
        db: scale_cols(dy).sum_rows(),
    }
}

fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let peak = want.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            (g - w).abs() <= 1e-4 * peak,
            "{what}: element {i} is {g}, reference {w}"
        );
    }
}

fn assert_pass_close(got: &Pass, want: &Pass, what: &str) {
    assert_close(&got.y, &want.y, &format!("{what} forward"));
    assert_close(&got.dx, &want.dx, &format!("{what} dX"));
    assert_close(&got.dw, &want.dw, &format!("{what} dW"));
    assert_close(&got.db, &want.db, &format!("{what} bias gradient"));
}

/// Every TDP period 1..8 and bias on the MLP's ragged 784×256 first layer
/// and a square 256×256 layer, tile 32: one class or several, full K or
/// gathered, dense when every tile is kept.
#[test]
fn tile_plans_match_the_masked_dense_layer_for_every_period_and_bias() {
    let mut rng = StdRng::seed_from_u64(1);
    for (k, n) in [(784, 256), (256, 256)] {
        let layer = Linear::new(&mut rng, k, n);
        let x = init::uniform(&mut rng, 5, k, -1.0, 1.0);
        let dy = init::uniform(&mut rng, 5, n, -1.0, 1.0);
        let grid = TileGrid::new(k, n, 32).unwrap();
        for dp in 1..=8 {
            for bias in 0..dp {
                let pattern = TilePattern::new(dp, bias, 32).unwrap();
                let plan = DropoutPlan::tile(LayerShape::new(k, n), pattern, grid);
                let mask = pattern.weight_mask(&grid);
                let want = masked_dense(&layer, &x, &dy, &mask, dp as f32, &vec![1.0; n]);
                let got = run(&mut layer.clone(), &x, &dy, &plan);
                assert_pass_close(&got, &want, &format!("{k}x{n} tile dp {dp} bias {bias}"));
            }
        }
    }
}

/// Block plans expand to their kept columns: ragged last blocks at 7×10
/// with block 4 and at 784×256 with block 16.
#[test]
fn block_plans_match_the_masked_dense_layer_at_ragged_widths() {
    let mut rng = StdRng::seed_from_u64(2);
    for (k, n, block) in [(7, 10, 4), (784, 256, 16)] {
        let layer = Linear::new(&mut rng, k, n);
        let x = init::uniform(&mut rng, 6, k, -1.0, 1.0);
        let dy = init::uniform(&mut rng, 6, n, -1.0, 1.0);
        let mut scheme = scheme::block_unit(DropoutRate::new(0.5).unwrap(), block).unwrap();
        for seed in 0..6 {
            let plan = scheme.plan(&mut StdRng::seed_from_u64(seed), LayerShape::new(k, n));
            let col = plan.column_multiplier(n);
            let want = masked_dense(&layer, &x, &dy, &Matrix::ones(k, n), 1.0, &col);
            let got = run(&mut layer.clone(), &x, &dy, &plan);
            assert_pass_close(&got, &want, &format!("{k}x{n} block {block} seed {seed}"));
        }
    }
}

/// Forward, then an SGD step, then backward: the `dX` product must use the
/// stepped weights, exactly as a layer that never packed a panel for the
/// old ones — for a single-class gather (rows, blocks) and a multi-class
/// tile plan.
#[test]
fn a_step_between_forward_and_backward_never_leaves_a_stale_panel() {
    let (k, n) = (64, 48);
    let mut rng = StdRng::seed_from_u64(3);
    let shape = LayerShape::new(k, n);
    let rate = DropoutRate::new(0.5).unwrap();
    let grid = TileGrid::new(k, n, 8).unwrap();
    let plans = [
        scheme::row(rate, 4).unwrap().plan(&mut rng, shape),
        scheme::block_unit(rate, 8).unwrap().plan(&mut rng, shape),
        // dp 4 over 6 strips per tile row: two classes of tile rows.
        DropoutPlan::tile(shape, TilePattern::new(4, 1, 8).unwrap(), grid),
    ];
    let sgd = Sgd::new(0.5, 0.0);
    for plan in &plans {
        let mut layer = Linear::new(&mut rng, k, n);
        let x = init::uniform(&mut rng, 9, k, -1.0, 1.0);
        let dy = init::uniform(&mut rng, 9, n, -1.0, 1.0);
        // Give the layer gradients so the next step moves the weights.
        run(&mut layer, &x, &dy, plan);
        layer.step(&sgd);
        let mut y = Matrix::default();
        layer.forward_act_into(&x, plan, Activation::Relu, &mut y);
        let before = layer.weight().clone();
        layer.step(&sgd);
        assert_ne!(&before, layer.weight(), "the step must move the weights");
        let dx = layer.backward(&dy);
        // A layer built from the stepped parameters packs its panel afresh.
        let mut fresh = Linear::from_parameters(layer.weight().clone(), layer.bias().clone());
        let want = run(&mut fresh, &x, &dy, plan);
        assert_eq!(dx, want.dx, "dX must use the stepped weights");
    }
}
