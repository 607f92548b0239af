//! Transformer encoder benchmark: structured attention dropout end-to-end.
//!
//! The third model family's paper-figure run. For every dropout variant the
//! bench records
//!
//! 1. held-out perplexity (and next-token accuracy) of the down-scaled
//!    encoder LM trained on the synthetic PTB-like corpus — the quality
//!    axis of the speedup-vs-perplexity curve, plus the measured CPU
//!    wall-clock of that training run (speedup vs the conventional
//!    Bernoulli run), and
//! 2. the simulated per-iteration speedup of the paper-scale encoder
//!    (512-wide, 8 heads, 4× FFN, 2 blocks, seq 35, PTB vocab) on the
//!    three device presets — GTX 1080Ti, server-class HBM and the
//!    A100-class sparse-tensor-core preset — against a rate-matched
//!    conventional-dropout baseline on the same droppable positions.
//!
//! Variants cover the structured attention family: whole-head drop
//! (`BlockUnit` over the head dimension) at two rates, 2:4 `NmSparsity` on
//! the Q/K/V/O projection weights, row dropout on the FFN expansion, and
//! the conventional Bernoulli point that anchors the curve at 1×.
//!
//! Results land in `BENCH_TRANSFORMER.json` at the repository root. Run
//! `cargo run --release -p bench --bin bench_transformer` for the full
//! shapes, or pass `--smoke` (CI) for tiny shapes that finish in seconds.
//! `BENCH_TRANSFORMER_OUT` redirects the JSON. Pass `--check-baseline` to
//! compare every ratio against the committed `BENCH_TRANSFORMER.json` (see
//! `bench::scorecard`).

use approx_dropout::{scheme, DropoutRate, DropoutScheme};
use bench::scorecard::Scorecard;
use data::{CorpusConfig, SyntheticCorpus};
use gpu_sim::{GpuConfig, NetworkTimingModel, TransformerSpec};
use nn::transformer::{TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::pool;

/// Encoder blocks of both the scaled CPU model and the paper-scale spec.
const LAYERS: usize = 2;

struct Config {
    vocab: usize,
    model_dim: usize,
    heads: usize,
    ff_dim: usize,
    batch: usize,
    seq_len: usize,
    iterations: usize,
    samples: usize,
}

const FULL: Config = Config {
    vocab: 800,
    model_dim: 64,
    heads: 4,
    ff_dim: 128,
    batch: 16,
    seq_len: 12,
    iterations: 600,
    samples: 192,
};

const SMOKE: Config = Config {
    vocab: 120,
    model_dim: 32,
    heads: 4,
    ff_dim: 64,
    batch: 8,
    seq_len: 8,
    iterations: 8,
    samples: 48,
};

/// One benchmarked dropout variant: the `(attention, FFN)` scheme pair at
/// paper scale (drives the timing model), the same pair down-scaled for the
/// CPU convergence run, and the rate-matched conventional baseline pair the
/// simulated speedup is taken against.
struct Variant {
    key: &'static str,
    params: String,
    rate: f64,
    attn_full: Box<dyn DropoutScheme>,
    ffn_full: Box<dyn DropoutScheme>,
    attn_scaled: Box<dyn DropoutScheme>,
    ffn_scaled: Box<dyn DropoutScheme>,
    attn_base: Box<dyn DropoutScheme>,
    ffn_base: Box<dyn DropoutScheme>,
}

fn variants(cfg: &Config) -> Vec<Variant> {
    let rate = |p: f64| DropoutRate::new(p).unwrap();
    let full_hd = TransformerSpec::paper_ptb_transformer().head_dim();
    let scaled_hd = cfg.model_dim / cfg.heads;
    vec![
        Variant {
            key: "bernoulli_0_25",
            params: "conventional, rate 0.25 on both positions".into(),
            rate: 0.25,
            attn_full: scheme::bernoulli(rate(0.25)),
            ffn_full: scheme::bernoulli(rate(0.25)),
            attn_scaled: scheme::bernoulli(rate(0.25)),
            ffn_scaled: scheme::bernoulli(rate(0.25)),
            attn_base: scheme::bernoulli(rate(0.25)),
            ffn_base: scheme::bernoulli(rate(0.25)),
        },
        Variant {
            key: "head_drop_0_25",
            params: format!("whole-head BlockUnit rate 0.25, block {full_hd}"),
            rate: 0.25,
            attn_full: scheme::block_unit(rate(0.25), full_hd).unwrap(),
            ffn_full: scheme::none(),
            attn_scaled: scheme::block_unit(rate(0.25), scaled_hd).unwrap(),
            ffn_scaled: scheme::none(),
            attn_base: scheme::bernoulli(rate(0.25)),
            ffn_base: scheme::none(),
        },
        Variant {
            key: "head_drop_0_5",
            params: format!("whole-head BlockUnit rate 0.5, block {full_hd}"),
            rate: 0.5,
            attn_full: scheme::block_unit(rate(0.5), full_hd).unwrap(),
            ffn_full: scheme::none(),
            attn_scaled: scheme::block_unit(rate(0.5), scaled_hd).unwrap(),
            ffn_scaled: scheme::none(),
            attn_base: scheme::bernoulli(rate(0.5)),
            ffn_base: scheme::none(),
        },
        Variant {
            key: "nm_2_4_proj",
            params: "2:4 lanes on the Q/K/V/O projections".into(),
            rate: 0.5,
            attn_full: scheme::nm(2, 4).unwrap(),
            ffn_full: scheme::none(),
            attn_scaled: scheme::nm(2, 4).unwrap(),
            ffn_scaled: scheme::none(),
            attn_base: scheme::bernoulli(rate(0.5)),
            ffn_base: scheme::none(),
        },
        Variant {
            key: "ffn_row_0_3",
            params: "FFN row dropout rate 0.3, max_dp 8".into(),
            rate: 0.3,
            attn_full: scheme::none(),
            ffn_full: scheme::row(rate(0.3), 8).unwrap(),
            attn_scaled: scheme::none(),
            ffn_scaled: scheme::row(rate(0.3), 8).unwrap(),
            attn_base: scheme::none(),
            ffn_base: scheme::bernoulli(rate(0.3)),
        },
    ]
}

/// Trains the down-scaled encoder LM on the synthetic PTB-like corpus and
/// returns `(train_secs, perplexity, accuracy)` on a held-out batch.
fn train_scaled(
    cfg: &Config,
    attn: Box<dyn DropoutScheme>,
    ffn: Box<dyn DropoutScheme>,
) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let corpus = SyntheticCorpus::new(CorpusConfig {
        vocab: cfg.vocab,
        ..CorpusConfig::ptb_like()
    });
    let config = TransformerLmConfig {
        vocab: cfg.vocab,
        model_dim: cfg.model_dim,
        heads: cfg.heads,
        ff_dim: cfg.ff_dim,
        layers: LAYERS,
        attn_dropout: attn,
        ffn_dropout: ffn,
        learning_rate: 0.05,
        momentum: 0.0,
        grad_clip: 5.0,
    };
    let mut lm = TransformerLm::new(&config, &mut rng);
    let start = Instant::now();
    for it in 0..cfg.iterations {
        let tokens = corpus.batch(cfg.batch, cfg.seq_len, it as u64);
        let _ = lm.train_batch(&tokens, &mut rng);
    }
    let secs = start.elapsed().as_secs_f64();
    let eval = lm.evaluate(&corpus.batch(cfg.batch, cfg.seq_len, u64::MAX / 5));
    (secs, eval.perplexity, eval.accuracy)
}

/// Per-position scheme vector for the paper-scale timing model: one
/// `(attention, FFN)` pair per encoder block.
fn positions(attn: &dyn DropoutScheme, ffn: &dyn DropoutScheme) -> Vec<Box<dyn DropoutScheme>> {
    let mut schemes = Vec::with_capacity(2 * LAYERS);
    for _ in 0..LAYERS {
        schemes.push(attn.clone_box());
        schemes.push(ffn.clone_box());
    }
    schemes
}

fn main() {
    let smoke = bench::smoke_flag();
    let cfg = if smoke { SMOKE } else { FULL };
    bench::init_bench("bench_transformer");

    let spec = TransformerSpec::paper_ptb_transformer();
    let models: Vec<(&str, NetworkTimingModel)> = vec![
        ("gtx_1080ti", GpuConfig::gtx_1080ti()),
        ("server_hbm", GpuConfig::server_hbm()),
        ("sparse_tensor_core", GpuConfig::sparse_tensor_core()),
    ]
    .into_iter()
    .map(|(key, gpu)| (key, NetworkTimingModel::transformer(gpu, spec.clone())))
    .collect();

    // Dense (no dropout) anchor of the perplexity axis.
    let (dense_secs, dense_ppl, dense_acc) = train_scaled(&cfg, scheme::none(), scheme::none());
    eprintln!(
        "dense       train {:>8.3} s  ppl {:>9.4}  acc {:.3} (anchor)",
        dense_secs, dense_ppl, dense_acc
    );

    let mut rows = Vec::new();
    for variant in variants(&cfg) {
        let (cpu_secs, ppl, acc) = train_scaled(
            &cfg,
            variant.attn_scaled.clone_box(),
            variant.ffn_scaled.clone_box(),
        );
        let mut sims = Vec::new();
        for (device_key, model) in &models {
            let mut baseline = positions(&*variant.attn_base, &*variant.ffn_base);
            let mut new = positions(&*variant.attn_full, &*variant.ffn_full);
            let speedup = model.speedup_per_layer(&mut baseline, &mut new, cfg.samples, 0x5EED);
            sims.push((*device_key, speedup));
        }
        eprintln!(
            "{:<15} train {:>8.3} s  ppl {:>9.4}  acc {:.3} (sim {:.2}x / {:.2}x / {:.2}x)",
            variant.key, cpu_secs, ppl, acc, sims[0].1, sims[1].1, sims[2].1
        );
        rows.push((variant, cpu_secs, ppl, acc, sims));
    }

    // The conventional Bernoulli run is the measured-CPU baseline the
    // structured variants are compared against (it pays the mask kernels the
    // structured plans avoid).
    let bernoulli_secs = rows
        .iter()
        .find(|(variant, ..)| variant.key == "bernoulli_0_25")
        .map(|(_, secs, ..)| *secs)
        .expect("the conventional variant is always benchmarked");

    let mut card = Scorecard::new("bench_transformer", smoke);
    card.count("tensor_threads", pool::threads());
    card.text(
        "simulated_network",
        &format!(
            "transformer encoder {}x{}h ff{} x{LAYERS}, batch {}, seq {}, vocab {}",
            spec.model_dim, spec.heads, spec.ff_dim, spec.batch, spec.seq_len, spec.vocab
        ),
    );
    card.section("corpus", |card| {
        card.count("vocab", cfg.vocab);
        card.count("batch", cfg.batch);
        card.count("seq_len", cfg.seq_len);
        card.count("iterations", cfg.iterations);
    });
    card.section("scaled_model", |card| {
        card.count("model_dim", cfg.model_dim);
        card.count("heads", cfg.heads);
        card.count("ff_dim", cfg.ff_dim);
        card.count("layers", LAYERS);
    });
    // Every training run must end at a finite perplexity (the convergence
    // half of the curve), and every structured attention variant —
    // whole-head drop at both rates, 2:4 on the projections, row dropout on
    // the FFN — must keep a simulated speedup over its rate-matched
    // conventional baseline on every device preset.
    card.section("dense", |card| {
        card.secs("cpu_secs", dense_secs);
        card.recorded("perplexity", dense_ppl, 4).finite();
        card.recorded("accuracy", dense_acc, 4);
    });
    card.section("curve", |card| {
        for (variant, cpu_secs, ppl, acc, sims) in &rows {
            card.section(variant.key, |card| {
                card.text("params", &variant.params);
                card.recorded("nominal_rate", variant.rate, 2);
                card.recorded("perplexity", *ppl, 4).finite();
                card.recorded("accuracy", *acc, 4);
                card.secs("cpu_secs", *cpu_secs);
                card.cpu_ratio("cpu_speedup_vs_bernoulli", bernoulli_secs / cpu_secs);
                for (device, speedup) in sims {
                    card.sim_ratio(&format!("sim_speedup_{device}"), *speedup)
                        .above(1.0)
                        .when(variant.key != "bernoulli_0_25");
                }
            });
        }
    });
    card.finish();
}
