//! Structured-sparsity benchmark: N:M and block-unit schemes against the
//! Bernoulli baseline and the paper's RDP/TDP patterns.
//!
//! For every variant the bench records
//!
//! 1. CPU wall-clock of one MLP training epoch executing the scheme's
//!    plans through the compacted kernels (speedup vs the Bernoulli
//!    baseline epoch), and
//! 2. the simulated per-iteration speedup on the paper's MLP at full scale,
//!    on **three** device shapes — the consumer GTX 1080Ti, the
//!    bandwidth-rich server-class HBM preset and the A100-class
//!    sparse-tensor-core preset — each against a Bernoulli baseline at the
//!    variant's own nominal dropout rate, and
//! 3. the `tensor_core_2_4` section: the hardware-2:4 win on the
//!    sparse-tensor-core preset — the same 2:4 plans priced through the
//!    tensor-core roofline vs their SIMT-gather pricing on identical
//!    silicon (tensor cores stripped), and vs the Bernoulli baseline, and
//! 4. the `crs` section: the sampled-GEMM (CRS) approximation axis at
//!    `k/K ∈ {1/4, 1/2, 3/4}` plus the composed row-dropout × CRS scheme.
//!    CRS approximates the *dense* GEMM rather than emulating dropout, so
//!    this section's baseline is the no-dropout epoch/iteration — and the
//!    composed row must beat both of its axes alone against that common
//!    baseline.
//!
//! Results land in `BENCH_STRUCTURED.json` at the repository root,
//! extending the perf trajectory started by `BENCH_HOTPATH.json`. Run
//! `cargo run --release -p bench --bin bench_structured` for the full
//! shapes, or pass `--smoke` (CI) for tiny shapes that finish in seconds.
//! `BENCH_STRUCTURED_OUT` redirects the JSON. Pass `--check-baseline` to
//! compare every ratio of this run against the committed
//! `BENCH_STRUCTURED.json` (see `bench::scorecard`).

use approx_dropout::{scheme, DropoutRate, DropoutScheme};
use bench::scorecard::Scorecard;
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{init, pool};

struct Config {
    input_dim: usize,
    hidden: usize,
    batch: usize,
    batches: usize,
    reps: usize,
    samples: usize,
}

const FULL: Config = Config {
    input_dim: 512,
    hidden: 512,
    batch: 256,
    batches: 4,
    reps: 3,
    samples: 192,
};

const SMOKE: Config = Config {
    input_dim: 64,
    hidden: 64,
    batch: 48,
    batches: 2,
    reps: 1,
    samples: 48,
};

/// One benchmarked scheme variant. `rate` is the nominal dropout rate the
/// Bernoulli baseline is matched at.
struct Variant {
    key: &'static str,
    params: String,
    rate: f64,
    /// Scheme at the paper's full network scale (drives the timing model).
    full: Box<dyn DropoutScheme>,
    /// Scheme for the down-scaled CPU training run.
    scaled: Box<dyn DropoutScheme>,
}

fn variants() -> Vec<Variant> {
    let rate = |p: f64| DropoutRate::new(p).unwrap();
    vec![
        Variant {
            key: "row",
            params: "rate 0.5, max_dp 16".into(),
            rate: 0.5,
            full: scheme::row(rate(0.5), 16).unwrap(),
            scaled: scheme::row(rate(0.5), 8).unwrap(),
        },
        Variant {
            key: "tile",
            params: "rate 0.5, tile 32".into(),
            rate: 0.5,
            full: scheme::tile(rate(0.5), 16, 32).unwrap(),
            scaled: scheme::tile(rate(0.5), 8, 16).unwrap(),
        },
        Variant {
            key: "nm_2_4",
            params: "2:4 lanes".into(),
            rate: 0.5,
            full: scheme::nm(2, 4).unwrap(),
            scaled: scheme::nm(2, 4).unwrap(),
        },
        Variant {
            key: "nm_1_4",
            params: "1:4 lanes".into(),
            rate: 0.75,
            full: scheme::nm(1, 4).unwrap(),
            scaled: scheme::nm(1, 4).unwrap(),
        },
        Variant {
            key: "block_16",
            params: "rate 0.5, block 16".into(),
            rate: 0.5,
            full: scheme::block_unit(rate(0.5), 16).unwrap(),
            scaled: scheme::block_unit(rate(0.5), 16).unwrap(),
        },
        Variant {
            key: "block_32",
            params: "rate 0.5, block 32".into(),
            rate: 0.5,
            full: scheme::block_unit(rate(0.5), 32).unwrap(),
            scaled: scheme::block_unit(rate(0.5), 32).unwrap(),
        },
    ]
}

/// Wall-clock seconds of one MLP training epoch under `dropout`.
fn cpu_epoch_secs(cfg: &Config, dropout: Box<dyn DropoutScheme>) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x57A7);
    let config = MlpConfig {
        input_dim: cfg.input_dim,
        hidden: vec![cfg.hidden, cfg.hidden],
        output_dim: 10,
        dropout,
        learning_rate: 0.01,
        momentum: 0.9,
    };
    let inputs = init::uniform(&mut rng, cfg.batch, cfg.input_dim, -1.0, 1.0);
    let labels: Vec<usize> = (0..cfg.batch).map(|i| i % 10).collect();
    let mut mlp = Mlp::new(&config, &mut rng);
    let mut train_rng = StdRng::seed_from_u64(7);
    bench::best_of(cfg.reps, || {
        for _ in 0..cfg.batches {
            std::hint::black_box(mlp.train_batch(&inputs, &labels, &mut train_rng));
        }
    })
}

fn main() {
    let smoke = bench::smoke_flag();
    let cfg = if smoke { SMOKE } else { FULL };
    // Shared startup: `--threads N` overrides the pool width
    // (TENSOR_THREADS is the fallback, a conflicting pair is a hard
    // error), `--no-simd` forces the scalar kernels, `--tune` reruns the
    // blocking autotuner; the chosen width lands in the JSON as
    // "tensor_threads".
    bench::init_bench("bench_structured");

    let devices: Vec<(&str, GpuConfig)> = vec![
        ("gtx_1080ti", GpuConfig::gtx_1080ti()),
        ("server_hbm", GpuConfig::server_hbm()),
        ("sparse_tensor_core", GpuConfig::sparse_tensor_core()),
    ];
    let models: Vec<(&str, NetworkTimingModel)> = devices
        .into_iter()
        .map(|(key, gpu)| (key, NetworkTimingModel::mlp(gpu, MlpSpec::paper_mlp())))
        .collect();

    // Bernoulli baseline CPU epoch (rate 0.5; the N:M 1:4 variant's CPU
    // speedup is also reported against this epoch, its simulated speedup
    // against a rate-matched baseline).
    let bernoulli_secs = cpu_epoch_secs(&cfg, scheme::bernoulli(DropoutRate::new(0.5).unwrap()));
    eprintln!(
        "bernoulli 0.5 epoch     {:>10.3} ms (baseline)",
        bernoulli_secs * 1e3
    );

    let mut rows = Vec::new();
    for variant in variants() {
        let cpu_secs = cpu_epoch_secs(&cfg, variant.scaled.clone());
        let cpu_speedup = bernoulli_secs / cpu_secs;
        let mut sims = Vec::new();
        for (device_key, model) in &models {
            let baseline = scheme::bernoulli(DropoutRate::new(variant.rate).unwrap());
            let speedup = model.speedup(&*baseline, &*variant.full, cfg.samples, 0x5EED);
            sims.push((*device_key, speedup));
        }
        eprintln!(
            "{:<10} epoch {:>10.3} ms ({:.2}x cpu; sim {:.2}x / {:.2}x / {:.2}x)",
            variant.key,
            cpu_secs * 1e3,
            cpu_speedup,
            sims[0].1,
            sims[1].1,
            sims[2].1
        );
        rows.push((variant, cpu_secs, cpu_speedup, sims));
    }

    // The hardware-2:4 section: on the sparse-tensor-core preset, the same
    // 2:4 plans priced through the tensor-core roofline vs (a) their
    // SIMT-gather pricing on identical silicon (tensor cores stripped) and
    // (b) the rate-matched Bernoulli baseline. Only (a) needs fresh
    // pricing; (b) is exactly the nm_2_4 variant's sparse-preset speedup
    // already computed above (same model, samples, seed and baseline).
    let sparse = GpuConfig::sparse_tensor_core();
    let tc_model = NetworkTimingModel::mlp(sparse.clone(), MlpSpec::paper_mlp());
    let gather_model = NetworkTimingModel::mlp(sparse.without_tensor_cores(), MlpSpec::paper_mlp());
    let nm24 = scheme::nm(2, 4).unwrap();
    let t_tc = tc_model
        .expected_iteration_time(&*nm24, cfg.samples, 0x5EED)
        .total_us();
    let t_gather = gather_model
        .expected_iteration_time(&*nm24, cfg.samples, 0x5EED)
        .total_us();
    let tc_vs_gather = t_gather / t_tc;
    let tc_vs_bernoulli = rows
        .iter()
        .find(|(variant, ..)| variant.key == "nm_2_4")
        .and_then(|(_, _, _, sims)| {
            sims.iter()
                .find(|(device, _)| *device == "sparse_tensor_core")
        })
        .map(|(_, speedup)| *speedup)
        .expect("nm_2_4 is benchmarked on the sparse preset");
    eprintln!(
        "tensor-core 2:4 on {}: {:.3}x vs SIMT-gather pricing, {:.3}x vs bernoulli",
        sparse.name, tc_vs_gather, tc_vs_bernoulli
    );

    // The CRS (sampled-GEMM) section. CRS approximates the dense GEMM, so
    // its baseline — on the CPU and in the simulator — is the no-dropout
    // run, not the Bernoulli one. The row-only entry prices the row scheme
    // against the same dense baseline so the composed row×CRS entry can be
    // compared against either axis alone on equal footing.
    let dense_secs = cpu_epoch_secs(&cfg, scheme::none());
    eprintln!(
        "dense (no dropout) epoch {:>9.3} ms (crs baseline)",
        dense_secs * 1e3
    );
    let rate = |p: f64| DropoutRate::new(p).unwrap();
    let crs_variants: Vec<Variant> = vec![
        Variant {
            key: "crs_0_25",
            params: "keep 0.25".into(),
            rate: 0.0,
            full: scheme::crs(0.25).unwrap(),
            scaled: scheme::crs(0.25).unwrap(),
        },
        Variant {
            key: "crs_0_50",
            params: "keep 0.5".into(),
            rate: 0.0,
            full: scheme::crs(0.5).unwrap(),
            scaled: scheme::crs(0.5).unwrap(),
        },
        Variant {
            key: "crs_0_75",
            params: "keep 0.75".into(),
            rate: 0.0,
            full: scheme::crs(0.75).unwrap(),
            scaled: scheme::crs(0.75).unwrap(),
        },
        Variant {
            key: "row_only",
            params: "rate 0.5, max_dp 16".into(),
            rate: 0.5,
            full: scheme::row(rate(0.5), 16).unwrap(),
            scaled: scheme::row(rate(0.5), 8).unwrap(),
        },
        Variant {
            key: "row_crs",
            params: "rate 0.5, max_dp 16, keep 0.5".into(),
            rate: 0.5,
            full: scheme::row_crs(rate(0.5), 16, 0.5).unwrap(),
            scaled: scheme::row_crs(rate(0.5), 8, 0.5).unwrap(),
        },
    ];
    let mut crs_rows = Vec::new();
    for variant in crs_variants {
        let cpu_secs = cpu_epoch_secs(&cfg, variant.scaled.clone());
        let cpu_speedup = dense_secs / cpu_secs;
        let baseline = scheme::none();
        let sims: Vec<(&str, f64)> = models
            .iter()
            .map(|(device_key, model)| {
                (
                    *device_key,
                    model.speedup(&*baseline, &*variant.full, cfg.samples, 0x5EED),
                )
            })
            .collect();
        eprintln!(
            "{:<10} epoch {:>10.3} ms ({:.2}x cpu vs dense; sim {:.2}x / {:.2}x / {:.2}x)",
            variant.key,
            cpu_secs * 1e3,
            cpu_speedup,
            sims[0].1,
            sims[1].1,
            sims[2].1
        );
        crs_rows.push((variant, cpu_secs, cpu_speedup, sims));
    }

    let mut card = Scorecard::new("bench_structured", smoke);
    card.count("tensor_threads", pool::threads());
    card.section("cpu_epoch", |card| {
        card.count("batch", cfg.batch);
        card.count("batches", cfg.batches);
        card.counts("hidden", &[cfg.hidden, cfg.hidden]);
        card.secs("bernoulli_secs", bernoulli_secs);
        card.secs("dense_secs", dense_secs);
    });
    card.text("simulated_network", "paper MLP 784x2048x2048x10, batch 128");
    // The sparse-tensor-core preset must realise the hardware 2:4 win: the
    // tensor-core pricing beats the same plan's gather pricing. The
    // vs-bernoulli value is the nm_2_4 variant's sparse-preset speedup,
    // floored under "variants".
    card.section("tensor_core_2_4", |card| {
        card.text("device", "sparse_tensor_core");
        card.sim_ratio("sim_speedup_vs_gather_pricing", tc_vs_gather)
            .above(1.0);
        card.sim_ratio("sim_speedup_vs_bernoulli", tc_vs_bernoulli);
    });
    // Every scheme of the structured family (N:M and block-unit) keeps a
    // simulated speedup over the rate-matched Bernoulli baseline on every
    // device shape. The simulated row/tile rows are informational — tile
    // hovers near 1.0x on the compute-rich presets by design. The tile and
    // block rows run through the packed gather core and must also beat
    // the Bernoulli epoch as measured (full runs: smoke shapes are too
    // small to time).
    card.section("variants", |card| {
        for (variant, cpu_secs, cpu_speedup, sims) in &rows {
            let structured = variant.key.starts_with("nm_") || variant.key.starts_with("block_");
            let gathered = matches!(variant.key, "tile" | "block_16" | "block_32");
            card.section(variant.key, |card| {
                card.text("params", &variant.params);
                card.recorded("nominal_rate", variant.rate, 2);
                card.secs("cpu_secs", *cpu_secs);
                card.cpu_ratio("cpu_speedup_vs_bernoulli", *cpu_speedup)
                    .above(1.0)
                    .full_only()
                    .when(gathered);
                for (device, speedup) in sims {
                    card.sim_ratio(&format!("sim_speedup_{device}"), *speedup)
                        .above(1.0)
                        .when(structured);
                }
            });
        }
    });
    // CRS: every sampled-GEMM row (and the composed row×CRS) keeps a
    // simulated win over the dense baseline on every device, and the
    // k/K = 1/2 row shows a measured CPU win over the dense epoch.
    card.section("crs", |card| {
        for (variant, cpu_secs, cpu_speedup, sims) in &crs_rows {
            let sampled = variant.key.starts_with("crs_") || variant.key == "row_crs";
            card.section(variant.key, |card| {
                card.text("params", &variant.params);
                card.secs("cpu_secs", *cpu_secs);
                card.cpu_ratio("cpu_speedup_vs_dense", *cpu_speedup)
                    .above(1.0)
                    .when(variant.key == "crs_0_50");
                for (device, speedup) in sims {
                    card.sim_ratio(&format!("sim_speedup_{device}"), *speedup)
                        .above(1.0)
                        .when(sampled);
                }
            });
        }
    });
    // The composed row×CRS entry must beat both of its axes alone on every
    // device.
    let crs_sims = |key: &str| -> &[(&str, f64)] {
        crs_rows
            .iter()
            .find(|(variant, ..)| variant.key == key)
            .map(|(_, _, _, sims)| sims.as_slice())
            .expect("crs section rows are always benchmarked")
    };
    for ((device, composed), ((_, crs), (_, row))) in crs_sims("row_crs")
        .iter()
        .zip(crs_sims("crs_0_50").iter().zip(crs_sims("row_only")))
    {
        card.require(
            composed > crs && composed > row,
            format!(
                "composed row_crs {composed:.2}x must exceed both axes alone \
                 (crs {crs:.2}x, row {row:.2}x) on {device}"
            ),
        );
    }
    card.finish();
}
