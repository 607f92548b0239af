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
//! Pass `--check-baseline` to additionally compare every speedup ratio of
//! this run against the committed `BENCH_STRUCTURED.json` and fail on a
//! regression beyond the tolerance (`BENCH_TOLERANCE`, default 15%).

use approx_dropout::{scheme, DropoutRate, DropoutScheme};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::{init, pool};

struct Config {
    mode: &'static str,
    input_dim: usize,
    hidden: usize,
    batch: usize,
    batches: usize,
    reps: usize,
    samples: usize,
}

const FULL: Config = Config {
    mode: "full",
    input_dim: 512,
    hidden: 512,
    batch: 256,
    batches: 4,
    reps: 3,
    samples: 192,
};

const SMOKE: Config = Config {
    mode: "smoke",
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

/// Best-of-`reps` wall-clock seconds for one invocation of `f` (after one
/// warm-up call).
fn bench(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
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
    bench(cfg.reps, || {
        for _ in 0..cfg.batches {
            std::hint::black_box(mlp.train_batch(&inputs, &labels, &mut train_rng));
        }
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
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

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let variant_json: Vec<String> = rows
        .iter()
        .map(|(variant, cpu_secs, cpu_speedup, sims)| {
            let sim_fields: Vec<String> = sims
                .iter()
                .map(|(device, speedup)| format!("\"sim_speedup_{device}\": {speedup:.3}"))
                .collect();
            format!(
                "    \"{key}\": {{\n      \"params\": \"{params}\",\n      \"nominal_rate\": {rate:.2},\n      \"cpu_secs\": {cpu_secs:.6},\n      \"cpu_speedup_vs_bernoulli\": {cpu_speedup:.3},\n      {sim}\n    }}",
                key = variant.key,
                params = variant.params,
                rate = variant.rate,
                sim = sim_fields.join(",\n      "),
            )
        })
        .collect();

    let crs_json: Vec<String> = crs_rows
        .iter()
        .map(|(variant, cpu_secs, cpu_speedup, sims)| {
            let sim_fields: Vec<String> = sims
                .iter()
                .map(|(device, speedup)| format!("\"sim_speedup_{device}\": {speedup:.3}"))
                .collect();
            format!(
                "    \"{key}\": {{\n      \"params\": \"{params}\",\n      \"cpu_secs\": {cpu_secs:.6},\n      \"cpu_speedup_vs_dense\": {cpu_speedup:.3},\n      {sim}\n    }}",
                key = variant.key,
                params = variant.params,
                sim = sim_fields.join(",\n      "),
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"available_parallelism\": {cores},\n  \"tensor_threads\": {threads},\n  \"cpu_epoch\": {{\n    \"batch\": {batch},\n    \"batches\": {batches},\n    \"hidden\": [{hid}, {hid}],\n    \"bernoulli_secs\": {bern:.6},\n    \"dense_secs\": {dense:.6}\n  }},\n  \"simulated_network\": \"paper MLP 784x2048x2048x10, batch 128\",\n  \"tensor_core_2_4\": {{\n    \"device\": \"sparse_tensor_core\",\n    \"sim_speedup_vs_gather_pricing\": {tc_vs_gather:.3},\n    \"sim_speedup_vs_bernoulli\": {tc_vs_bernoulli:.3}\n  }},\n  \"variants\": {{\n{variants}\n  }},\n  \"crs\": {{\n{crs}\n  }}\n}}\n",
        mode = cfg.mode,
        threads = pool::threads(),
        batch = cfg.batch,
        batches = cfg.batches,
        hid = cfg.hidden,
        bern = bernoulli_secs,
        dense = dense_secs,
        variants = variant_json.join(",\n"),
        crs = crs_json.join(",\n"),
    );

    let out_path = std::env::var("BENCH_STRUCTURED_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_STRUCTURED.json", env!("CARGO_MANIFEST_DIR")));
    // In --check-baseline mode the committed file is the baseline; read it
    // before the fresh result overwrites it, and write the fresh JSON
    // before enforcing so the CI artifact carries the regressed run too.
    let check_baseline = std::env::args().any(|a| a == "--check-baseline");
    let baseline_path = std::env::var("BENCH_STRUCTURED_BASELINE")
        .unwrap_or_else(|_| format!("{}/../../BENCH_STRUCTURED.json", env!("CARGO_MANIFEST_DIR")));
    let baseline = check_baseline
        .then(|| bench::baseline::read_baseline_or_exit(&baseline_path, "bench_structured"));
    std::fs::write(&out_path, &json).expect("writing BENCH_STRUCTURED.json failed");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if let Some(baseline) = baseline {
        bench::baseline::enforce_baseline(&baseline, &baseline_path, &json, "bench_structured");
    }

    // Regression gates, opt-in via BENCH_ASSERT=1 (CI): every scheme of the
    // structured family (N:M and block-unit) must keep a simulated speedup
    // over the rate-matched Bernoulli baseline on every device shape, and
    // the sparse-tensor-core preset must realise the hardware 2:4 win (the
    // tensor-core pricing beats the same plan's gather pricing). The
    // simulated row/tile rows are informational baselines — tile hovers
    // near 1.0x on the compute-rich presets by design. On full runs the tile
    // and block rows, which run through the packed gather core, must also
    // beat the Bernoulli epoch as measured (smoke shapes are too small to
    // time).
    if std::env::var("BENCH_ASSERT").is_ok_and(|v| v != "0") {
        let mut failures = Vec::new();
        for (variant, _, cpu_speedup, _) in rows.iter().filter(|_| !smoke) {
            if matches!(variant.key, "tile" | "block_16" | "block_32") && *cpu_speedup <= 1.0 {
                failures.push(format!(
                    "{} measured CPU speedup {cpu_speedup:.2}x <= 1.0x vs the Bernoulli epoch",
                    variant.key
                ));
            }
        }
        for (variant, _, _, sims) in &rows {
            if !variant.key.starts_with("nm_") && !variant.key.starts_with("block_") {
                continue;
            }
            for (device, speedup) in sims {
                if *speedup <= 1.0 {
                    failures.push(format!(
                        "{} simulated speedup {speedup:.2}x <= 1.0x on {device}",
                        variant.key
                    ));
                }
            }
        }
        // (The vs-bernoulli leaf is the nm_2_4 variant's sparse-preset
        // speedup, already gated by the loop above.)
        if tc_vs_gather <= 1.0 {
            failures.push(format!(
                "tensor-core 2:4 pricing {tc_vs_gather:.3}x <= 1.0x vs its own gather pricing"
            ));
        }
        // CRS gates: every sampled-GEMM row must keep a simulated win over
        // the dense baseline on every device, the k/K = 1/2 row must show a
        // *measured* CPU win over the dense epoch, and the composed row×CRS
        // entry must beat both of its axes alone on every device.
        for (variant, _, cpu_speedup, sims) in &crs_rows {
            if !variant.key.starts_with("crs_") && variant.key != "row_crs" {
                continue;
            }
            for (device, speedup) in sims {
                if *speedup <= 1.0 {
                    failures.push(format!(
                        "{} simulated speedup {speedup:.2}x <= 1.0x vs dense on {device}",
                        variant.key
                    ));
                }
            }
            if variant.key == "crs_0_50" && *cpu_speedup <= 1.0 {
                failures.push(format!(
                    "crs_0_50 measured CPU speedup {cpu_speedup:.2}x <= 1.0x vs the dense epoch"
                ));
            }
        }
        let crs_sims = |key: &str| -> &[(&str, f64)] {
            crs_rows
                .iter()
                .find(|(variant, ..)| variant.key == key)
                .map(|(_, _, _, sims)| sims.as_slice())
                .expect("crs section rows are always benchmarked")
        };
        for ((d_composed, s_composed), ((_, s_crs), (_, s_row))) in crs_sims("row_crs")
            .iter()
            .zip(crs_sims("crs_0_50").iter().zip(crs_sims("row_only")))
        {
            if s_composed <= s_crs || s_composed <= s_row {
                failures.push(format!(
                    "composed row_crs {s_composed:.2}x must exceed both axes alone \
                     (crs {s_crs:.2}x, row {s_row:.2}x) on {d_composed}"
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("BENCH_ASSERT failures:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        eprintln!("BENCH_ASSERT passed");
    }
}
