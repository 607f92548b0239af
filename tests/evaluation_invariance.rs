//! Evaluation runs each family's training forward with identity plans on
//! the model's own buffers, so it must never move training. For every
//! family and a spread of scheme families:
//!
//! * a trajectory with evaluations after every `train_batch` equals the
//!   plain trajectory bit for bit;
//! * an in-place `evaluate` equals `evaluate` on a copy of the model (what
//!   evaluation computed when it ran on a clone) and the loss and accuracy
//!   a training step with identity plans reports on a copy, even right
//!   after an evaluation at another batch size has reshaped every buffer.

use approx_dropout::{DropoutPlan, DropoutScheme, LayerShape, SchemeSpec};
use nn::lstm::{LstmLm, LstmLmConfig};
use nn::{Mlp, MlpConfig, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

/// Training steps per trajectory.
const STEPS: usize = 6;

fn build(spec: &str) -> Box<dyn DropoutScheme> {
    spec.parse::<SchemeSpec>().unwrap().build().unwrap()
}

/// Which of a family's two evaluation batches to run: the one whose result
/// is compared, or a smaller one that reshapes the buffers in between.
#[derive(Clone, Copy)]
enum EvalBatch {
    Compared,
    Other,
}

/// Loss and accuracy as bit patterns.
fn bits((loss, accuracy): (f32, f64)) -> (u32, u64) {
    (loss.to_bits(), accuracy.to_bits())
}

fn identity_plans(shapes: Vec<LayerShape>) -> Vec<DropoutPlan> {
    shapes.into_iter().map(DropoutPlan::none).collect()
}

/// Drives one model through the checks of this file. `train` runs one
/// training step and returns its loss; `evaluate` returns loss and
/// accuracy; `identity_step` runs a training step on the compared batch with
/// every plan the identity and returns the loss and accuracy it measured
/// before updating.
fn check<M: Clone>(
    label: &str,
    mut model: M,
    train: impl Fn(&mut M, &mut StdRng) -> f32,
    evaluate: impl Fn(&mut M, EvalBatch) -> (f32, f64),
    identity_step: impl Fn(&mut M) -> (f32, f64),
) {
    let mut plain = model.clone();
    let (mut rng, mut plain_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    for step in 0..STEPS {
        let loss = train(&mut model, &mut rng);
        let expected = train(&mut plain, &mut plain_rng);
        assert_eq!(
            loss.to_bits(),
            expected.to_bits(),
            "{label}: training step {step} moved after evaluations"
        );
        let on_copy = bits(evaluate(&mut model.clone(), EvalBatch::Compared));
        let dense_step = bits(identity_step(&mut model.clone()));
        evaluate(&mut model, EvalBatch::Other);
        let in_place = bits(evaluate(&mut model, EvalBatch::Compared));
        assert_eq!(
            in_place, on_copy,
            "{label}: in-place evaluation after step {step} differs from one on a copy"
        );
        assert_eq!(
            in_place, dense_step,
            "{label}: evaluation after step {step} differs from an identity-plan step"
        );
    }
    assert_eq!(
        bits(evaluate(&mut model, EvalBatch::Compared)),
        bits(evaluate(&mut plain, EvalBatch::Compared)),
        "{label}: the final models differ"
    );
}

/// `batch` random MLP inputs with their labels.
fn labelled(rng: &mut StdRng, batch: usize) -> (Matrix, Vec<usize>) {
    let inputs = tensor::init::uniform(rng, batch, 32, -1.0, 1.0);
    let labels = (0..batch).map(|_| rng.gen_range(0..10)).collect();
    (inputs, labels)
}

/// `batch` deterministic sequences of `seq + 1` tokens below 40.
fn tokens(batch: usize, seq: usize, salt: usize) -> Vec<Vec<usize>> {
    (0..batch)
        .map(|s| (0..=seq).map(|t| (s * 3 + t * 7 + salt) % 40).collect())
        .collect()
}

#[test]
fn mlp_evaluation_never_moves_training() {
    for spec in [
        "none",
        "bernoulli:0.5",
        "divergent:0.5",
        "row:0.5:16",
        "tile:0.5:16:8",
        "nm:2:4",
        "block:0.5:8",
        "crs:0.5",
        "row_crs:0.5:16:0.5",
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let config = MlpConfig {
            input_dim: 32,
            hidden: vec![48, 48],
            output_dim: 10,
            dropout: build(spec),
            learning_rate: 0.05,
            momentum: 0.9,
        };
        let mlp = Mlp::new(&config, &mut rng);
        let train = labelled(&mut rng, 16);
        let compared = labelled(&mut rng, 12);
        let other = labelled(&mut rng, 5);
        check(
            &format!("mlp {spec}"),
            mlp,
            |mlp, rng| mlp.train_batch(&train.0, &train.1, rng).loss,
            |mlp, which| {
                let (inputs, labels) = match which {
                    EvalBatch::Compared => &compared,
                    EvalBatch::Other => &other,
                };
                mlp.evaluate(inputs, labels)
            },
            |mlp| {
                let plans = identity_plans(mlp.layer_shapes());
                let stats = mlp.train_batch_with_plans(&compared.0, &compared.1, &plans);
                (stats.loss, stats.accuracy)
            },
        );
    }
}

#[test]
fn lstm_evaluation_never_moves_training() {
    let (train, compared, other) = (tokens(4, 5, 0), tokens(3, 5, 1), tokens(2, 3, 2));
    for spec in ["none", "bernoulli:0.5", "row:0.5:8", "tile:0.5:8:8"] {
        let config = LstmLmConfig {
            vocab: 40,
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout: build(spec),
            learning_rate: 0.5,
            momentum: 0.0,
            grad_clip: 5.0,
        };
        check(
            &format!("lstm {spec}"),
            LstmLm::new(&config, &mut StdRng::seed_from_u64(2)),
            |lm, rng| lm.train_batch(&train, rng).loss,
            |lm, which| {
                let stats = lm.evaluate(match which {
                    EvalBatch::Compared => &compared,
                    EvalBatch::Other => &other,
                });
                (stats.loss, stats.accuracy)
            },
            |lm| {
                let plans = identity_plans(lm.layer_shapes());
                let stats = lm.train_batch_with_plans(&compared, &plans);
                (stats.loss, stats.accuracy)
            },
        );
    }
}

#[test]
fn transformer_evaluation_never_moves_training() {
    let (train, compared, other) = (tokens(4, 5, 0), tokens(3, 5, 1), tokens(2, 3, 2));
    for (attn, ffn) in [
        ("none", "none"),
        ("transformer:0.5:4", "none"),
        ("nm:2:4", "row:0.5:8"),
        ("bernoulli:0.5", "bernoulli:0.5"),
    ] {
        let config = TransformerLmConfig {
            vocab: 40,
            model_dim: 16,
            heads: 4,
            ff_dim: 32,
            layers: 2,
            attn_dropout: build(attn),
            ffn_dropout: build(ffn),
            learning_rate: 0.05,
            momentum: 0.0,
            grad_clip: 5.0,
        };
        check(
            &format!("transformer {attn} / {ffn}"),
            TransformerLm::new(&config, &mut StdRng::seed_from_u64(3)),
            |lm, rng| lm.train_batch(&train, rng).loss,
            |lm, which| {
                let stats = lm.evaluate(match which {
                    EvalBatch::Compared => &compared,
                    EvalBatch::Other => &other,
                });
                (stats.loss, stats.accuracy)
            },
            |lm| {
                let plans = identity_plans(lm.layer_shapes());
                let stats = lm.train_batch_with_plans(&compared, &plans);
                (stats.loss, stats.accuracy)
            },
        );
    }
}
