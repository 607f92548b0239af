//! Cross-crate integration tests: pattern search (core) → training (nn) on
//! synthetic data (data) → timing model (gpu-sim), exercised through the
//! workspace facade exactly the way the experiment binaries use it.
//!
//! Includes the plan–execute acceptance checks: the compacted plan path
//! reproduces the masked-dense path's loss trajectory from the same RNG
//! seed, and the timing model — driven by the *same* sampled plans — shows a
//! row-pattern speedup over the Bernoulli baseline.

use approx_random_dropout::approx_dropout::{
    scheme, search, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, PatternKind, SearchConfig,
};
use approx_random_dropout::data::{CorpusConfig, MnistConfig, SyntheticCorpus, SyntheticMnist};
use approx_random_dropout::gpu_sim::{
    GpuConfig, MlpSpec, NetworkTimingModel, DEFAULT_TIMING_SAMPLES,
};
use approx_random_dropout::nn::builder::{LstmBuilder, NetworkBuilder};
use approx_random_dropout::nn::Linear;
use approx_random_dropout::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn pattern_scheme(rate: f64, kind: PatternKind) -> Box<dyn DropoutScheme> {
    let rate = DropoutRate::new(rate).unwrap();
    match kind {
        PatternKind::Row => scheme::row(rate, 8).unwrap(),
        PatternKind::Tile => scheme::tile(rate, 8, 16).unwrap(),
    }
}

fn train_mlp_accuracy(dropout: Box<dyn DropoutScheme>, iterations: usize) -> f64 {
    let data = SyntheticMnist::new(MnistConfig::small());
    let mut rng = StdRng::seed_from_u64(123);
    let mut mlp = NetworkBuilder::new(data.dim(), data.classes())
        .hidden_layers(&[96, 96])
        .dropout(dropout)
        .learning_rate(0.05)
        .momentum(0.5)
        .build(&mut rng);
    for it in 0..iterations {
        let (x, y) = data.batch(64, it as u64);
        let _ = mlp.train_batch(&x, &y, &mut rng);
    }
    let (ex, ey) = data.eval_set(200);
    mlp.evaluate(&ex, &ey).1
}

#[test]
fn row_pattern_training_matches_baseline_accuracy_on_synthetic_mnist() {
    let iterations = 120;
    let baseline = train_mlp_accuracy(
        scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
        iterations,
    );
    let row = train_mlp_accuracy(pattern_scheme(0.5, PatternKind::Row), iterations);
    assert!(baseline > 0.8, "baseline accuracy {baseline}");
    assert!(row > 0.8, "row-pattern accuracy {row}");
    // The paper reports < 0.5% accuracy loss at full scale; on the small
    // synthetic task we allow a few points of noise but no collapse.
    assert!(
        (baseline - row).abs() < 0.10,
        "accuracy gap too large: baseline {baseline}, row {row}"
    );
}

#[test]
fn tile_pattern_training_matches_baseline_accuracy_on_synthetic_mnist() {
    let iterations = 120;
    let baseline = train_mlp_accuracy(
        scheme::bernoulli(DropoutRate::new(0.5).unwrap()),
        iterations,
    );
    let tile = train_mlp_accuracy(pattern_scheme(0.5, PatternKind::Tile), iterations);
    assert!(tile > 0.8, "tile-pattern accuracy {tile}");
    assert!(
        (baseline - tile).abs() < 0.10,
        "accuracy gap too large: baseline {baseline}, tile {tile}"
    );
}

#[test]
fn searched_distribution_drives_both_training_and_timing() {
    // Algorithm 1's distribution fuels one scheme object; the same scheme
    // type is what both the trainer and the timing model consume.
    let rate = DropoutRate::new(0.7).unwrap();
    let dist = search::sgd_search(rate, 16, &SearchConfig::default()).unwrap();
    assert!((dist.expected_global_rate() - 0.7).abs() < 0.02);

    let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::with_hidden(4096, 4096));
    let speedup = model.speedup(
        &*scheme::bernoulli(rate),
        &*scheme::row(rate, 16).unwrap(),
        DEFAULT_TIMING_SAMPLES,
        0,
    );
    // Paper Table I: ~2.16x for the 4096x4096 network at rate 0.7.
    assert!(speedup > 1.5, "speedup {speedup}");
    assert!(speedup < 3.5, "speedup {speedup}");

    let small = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::with_hidden(1024, 64));
    let small_speedup = small.speedup(
        &*scheme::bernoulli(rate),
        &*scheme::row(rate, 16).unwrap(),
        DEFAULT_TIMING_SAMPLES,
        0,
    );
    assert!(
        small_speedup < speedup,
        "speedup should grow with network size"
    );
}

#[test]
fn lstm_language_model_trains_with_pattern_dropout_end_to_end() {
    let corpus = SyntheticCorpus::new(CorpusConfig {
        vocab: 80,
        ..CorpusConfig::small()
    });
    let mut rng = StdRng::seed_from_u64(5);
    let mut lm = LstmBuilder::new(corpus.vocab(), 24)
        .embed_dim(24)
        .layers(2)
        .dropout(pattern_scheme(0.3, PatternKind::Row))
        .learning_rate(0.5)
        .momentum(0.0)
        .grad_clip(5.0)
        .build(&mut rng);
    let first = lm.train_batch(&corpus.batch(8, 10, 0), &mut rng);
    for it in 1..80 {
        let _ = lm.train_batch(&corpus.batch(8, 10, it), &mut rng);
    }
    let eval = lm.evaluate(&corpus.batch(8, 10, 9999));
    assert!(eval.loss.is_finite());
    assert!(
        eval.perplexity < first.perplexity,
        "perplexity did not improve: {} -> {}",
        first.perplexity,
        eval.perplexity
    );
    assert!(eval.accuracy > 1.0 / 80.0, "accuracy {}", eval.accuracy);
}

/// Wraps a row scheme and rewrites every plan into the equivalent dense
/// per-column mask plan — the masked-dense formulation the seed repository
/// executed. Numerically both formulations must coincide, so a training run
/// from the same RNG seed must reproduce the same loss trajectory.
#[derive(Debug)]
struct MaskedDenseAdapter(Box<dyn DropoutScheme>);

impl DropoutScheme for MaskedDenseAdapter {
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let plan = self.0.plan(rng, shape);
        *out = match plan.compact_rows() {
            Some(kept) => {
                let mask: Vec<f32> = (0..shape.out_features)
                    .map(|j| if kept.contains(&j) { 1.0 } else { 0.0 })
                    .collect();
                DropoutPlan::bernoulli(shape, mask, plan.scale(), plan.nominal_rate())
            }
            None => plan,
        };
    }

    fn nominal_rate(&self) -> f64 {
        self.0.nominal_rate()
    }

    fn label(&self) -> &'static str {
        "masked-dense"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(MaskedDenseAdapter(self.0.clone()))
    }
}

#[test]
fn plan_path_reproduces_masked_dense_loss_trajectory_from_same_seed() {
    let data = SyntheticMnist::new(MnistConfig::small());
    let rate = DropoutRate::new(0.5).unwrap();

    let build = |dropout: Box<dyn DropoutScheme>| {
        let mut rng = StdRng::seed_from_u64(2024);
        NetworkBuilder::new(data.dim(), data.classes())
            .hidden_layers(&[64, 64])
            .dropout(dropout)
            .learning_rate(0.05)
            .momentum(0.5)
            .build(&mut rng)
    };
    // Identical weight init (same seed) and identical per-iteration RNG
    // draws: the row scheme consumes the same draws inside the adapter.
    let mut compact = build(scheme::row(rate, 8).unwrap());
    let mut dense = build(Box::new(MaskedDenseAdapter(scheme::row(rate, 8).unwrap())));

    let mut rng_compact = StdRng::seed_from_u64(99);
    let mut rng_dense = StdRng::seed_from_u64(99);
    for it in 0..50 {
        let (x, y) = data.batch(32, it);
        let a = compact.train_batch(&x, &y, &mut rng_compact).loss;
        let b = dense.train_batch(&x, &y, &mut rng_dense).loss;
        let tolerance = 1e-3 * (1.0 + a.abs());
        assert!(
            (a - b).abs() < tolerance,
            "iteration {it}: compacted loss {a} vs masked-dense loss {b}"
        );
    }
}

#[test]
fn timing_model_prices_the_training_plans_with_row_speedup() {
    // The acceptance check: both nn and gpu_sim consume plans from the same
    // scheme path, and the row pattern beats the Bernoulli baseline > 1x.
    let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
    let rate = DropoutRate::new(0.5).unwrap();
    let speedup = model.speedup(
        &*scheme::bernoulli(rate),
        &*scheme::row(rate, 16).unwrap(),
        DEFAULT_TIMING_SAMPLES,
        1,
    );
    assert!(
        speedup > 1.0,
        "row speedup over Bernoulli baseline {speedup}"
    );

    // Per-iteration times come from concrete sampled plans: a plan with more
    // kept rows must never be faster than one with fewer.
    let mut sparse = scheme::row(DropoutRate::new(0.7).unwrap(), 16).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let shapes = model.layer_shapes();
    let sparse_plans: Vec<DropoutPlan> = shapes.iter().map(|&s| sparse.plan(&mut rng, s)).collect();
    let dense_plans: Vec<DropoutPlan> = shapes.iter().map(|&s| DropoutPlan::none(s)).collect();
    let t_sparse = model.iteration_time_from_plans(&sparse_plans).total_us();
    let t_dense = model.iteration_time_from_plans(&dense_plans).total_us();
    assert!(
        t_sparse < t_dense,
        "sparse plans {t_sparse} should beat dense plans {t_dense}"
    );
}

#[test]
fn linear_layer_is_reused_by_both_consumers() {
    // Compile-and-run check that the facade exposes the plan API end to end:
    // a plan built by hand drives a Linear exactly like scheme-sampled ones.
    let mut rng = StdRng::seed_from_u64(8);
    let mut layer = Linear::new(&mut rng, 6, 6);
    let plan = DropoutPlan::none(LayerShape::new(6, 6));
    let y = layer.forward(&Matrix::ones(2, 6), &plan);
    assert_eq!(y.shape(), (2, 6));
}

#[test]
fn facade_reexports_every_member_crate() {
    // Compile-time check that the workspace facade exposes the crates the
    // examples rely on.
    let _gpu = approx_random_dropout::gpu_sim::GpuConfig::gtx_1080ti();
    let _rate = approx_random_dropout::approx_dropout::DropoutRate::new(0.3).unwrap();
    let _mnist = approx_random_dropout::data::MnistConfig::small();
    let _matrix = approx_random_dropout::tensor::Matrix::zeros(1, 1);
    let _sgd = approx_random_dropout::nn::Sgd::default();
    let _scheme = approx_random_dropout::nn::schemes::none();
}
