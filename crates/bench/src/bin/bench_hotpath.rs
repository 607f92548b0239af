//! Hot-path benchmark: packed GEMM kernels and batch-dimension threading.
//!
//! Times four things and writes `BENCH_HOTPATH.json` at the repository root,
//! seeding the perf trajectory the ROADMAP calls for:
//!
//! 1. the *seed* cache-blocked GEMM (per-element `Index` ops + zero-skip
//!    branch, reproduced verbatim below) versus the packed micro-kernel
//!    pipeline, single-threaded — the kernel-rewrite speedup;
//! 2. the packed dense GEMM at 1/2/4 threads — batch-dimension scaling;
//! 3. the row- and tile-compacted kernels at a dp=2 pattern versus the dense
//!    kernel — the speedup the paper's compaction is supposed to buy once
//!    constant overhead stops drowning it;
//! 4. one MLP training epoch (row-pattern dropout) at 1/2/4 threads;
//! 5. the fused whole-layer forward (one GEMM+bias+ReLU kernel per layer)
//!    versus the separate GEMM → bias → ReLU chain, on the CPU *and* in the
//!    GPU timing model on both device presets.
//!
//! plus the `simd` section: the packed dense / `A·Bᵀ` / fused-ReLU kernels
//! with the runtime dispatch forced to the scalar fallback versus the active
//! vector level (AVX2 / AVX-512 / NEON), single-threaded.
//!
//! Run `cargo run --release -p bench --bin bench_hotpath` for the full
//! shapes, or pass `--smoke` (CI) for tiny shapes that finish in seconds.
//! `--threads N` sets the pool width (`TENSOR_THREADS` is the fallback; a
//! conflicting flag + env pair is a hard error), `--no-simd` forces the
//! scalar kernel path, and `--tune` reruns the blocking autotuner and
//! persists the winners to `TUNE_GEMM.json` (`TENSOR_TUNE_FILE` overrides
//! the path), which is otherwise loaded at startup when it matches this
//! machine. Pass `--check-baseline` to additionally compare every
//! speedup/scaling ratio of this run against the committed
//! `BENCH_HOTPATH.json` and fail on a regression beyond the tolerance
//! (`BENCH_TOLERANCE`, default 15%); `simd.*` ratios are skipped when the
//! baseline was recorded on a different ISA.

use approx_dropout::{scheme, DropoutRate};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::{
    blocked_gemm, gather_gemm_into, gemm_a_bt, gemm_bias_act, init, pool, row_compact_gemm, simd,
    Activation, GatherScratch, Matrix, SimdLevel,
};

/// The seed repository's cache-blocked GEMM, kept verbatim as the baseline
/// the kernel rewrite is measured against: per-element `Index` ops (bounds
/// checks) in the inner loops and a data-dependent `aip == 0.0` branch.
fn seed_blocked_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    const BLOCK: usize = 32;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for ii in (0..m).step_by(BLOCK) {
        let i_end = (ii + BLOCK).min(m);
        for pp in (0..k).step_by(BLOCK) {
            let p_end = (pp + BLOCK).min(k);
            for jj in (0..n).step_by(BLOCK) {
                let j_end = (jj + BLOCK).min(n);
                for i in ii..i_end {
                    for p in pp..p_end {
                        let aip = a[(i, p)];
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = b.row(p);
                        let crow = c.row_mut(i);
                        for j in jj..j_end {
                            crow[j] += aip * brow[j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f` (after one
/// warm-up call), which filters scheduler noise better than a mean.
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

struct Config {
    mode: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    mlp_batch: usize,
    mlp_hidden: usize,
    mlp_batches: usize,
    mlp_reps: usize,
}

const FULL: Config = Config {
    mode: "full",
    m: 256,
    k: 512,
    n: 512,
    reps: 7,
    mlp_batch: 256,
    mlp_hidden: 512,
    mlp_batches: 4,
    mlp_reps: 3,
};

/// Tiny shapes for CI: still wide enough (`m > PAR_MIN_ROWS`) that the
/// thread pool actually engages, so a threading regression fails fast.
const SMOKE: Config = Config {
    mode: "smoke",
    m: 48,
    k: 64,
    n: 64,
    reps: 2,
    mlp_batch: 48,
    mlp_hidden: 64,
    mlp_batches: 2,
    mlp_reps: 1,
};

fn json_threads_map(entries: &[(usize, f64)]) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(t, secs)| format!("\"{t}\": {secs:.6}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0");
    let cfg = if smoke { SMOKE } else { FULL };
    // Shared startup: resolve `--threads`/`TENSOR_THREADS` (loudly on a
    // conflict), apply `--no-simd`, run `--tune` or load the persisted
    // blocking config. Sections 2–4 sweep explicit pool widths regardless;
    // the resolved width drives the fused section and any `--tune` search.
    let setup = bench::init_bench("bench_hotpath");
    let thread_counts = [1usize, 2, 4];

    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let a = init::uniform(&mut rng, cfg.m, cfg.k, -1.0, 1.0);
    let b = init::uniform(&mut rng, cfg.k, cfg.n, -1.0, 1.0);

    // 1. Seed kernel baseline (single-threaded by construction).
    let seed_secs = bench(cfg.reps, || {
        std::hint::black_box(seed_blocked_gemm(&a, &b));
    });
    eprintln!("seed blocked gemm      {:>10.3} ms", seed_secs * 1e3);

    // 1b. SIMD micro-kernel effect, single-threaded: the same packed
    //     kernels with the runtime dispatch forced to the scalar fallback
    //     versus the active level — the pure vectorisation win, no pool.
    //     Under `--no-simd` / `TENSOR_SIMD=0` both sides run the scalar
    //     path and the ratios sit at ~1.0; the BENCH_ASSERT gate only arms
    //     when a vector level is active.
    pool::set_threads(1);
    let bias = init::uniform(&mut rng, 1, cfg.n, -0.5, 0.5);
    let bt = b.transpose();
    let simd_pair = |f: &mut dyn FnMut()| {
        simd::set_level(SimdLevel::Scalar);
        let scalar = bench(cfg.reps, &mut *f);
        simd::set_level(setup.simd_level);
        let vector = bench(cfg.reps, &mut *f);
        (scalar, vector)
    };
    let (dense_scalar, dense_simd) = simd_pair(&mut || {
        std::hint::black_box(blocked_gemm(&a, &b).unwrap());
    });
    let (abt_scalar, abt_simd) = simd_pair(&mut || {
        std::hint::black_box(gemm_a_bt(&a, &bt).unwrap());
    });
    let (fused_relu_scalar, fused_relu_simd) = simd_pair(&mut || {
        std::hint::black_box(gemm_bias_act(&a, &b, &bias, Activation::Relu).unwrap());
    });
    let simd_speedups = [
        ("dense", dense_scalar / dense_simd),
        ("a_bt", abt_scalar / abt_simd),
        ("fused_relu", fused_relu_scalar / fused_relu_simd),
    ];
    for ((key, speedup), (scalar, vector)) in simd_speedups.iter().zip([
        (dense_scalar, dense_simd),
        (abt_scalar, abt_simd),
        (fused_relu_scalar, fused_relu_simd),
    ]) {
        eprintln!(
            "simd {key:<11} 1t     {:>10.3} ms scalar vs {:.3} ms {} ({speedup:.2}x)",
            scalar * 1e3,
            vector * 1e3,
            setup.simd_level.name()
        );
    }

    // 2. Packed kernel at 1/2/4 threads.
    let mut dense_by_threads = Vec::new();
    for &t in &thread_counts {
        pool::set_threads(t);
        let secs = bench(cfg.reps, || {
            std::hint::black_box(blocked_gemm(&a, &b).unwrap());
        });
        eprintln!("packed gemm {t} thread(s) {:>9.3} ms", secs * 1e3);
        dense_by_threads.push((t, secs));
    }
    let dense_1t = dense_by_threads[0].1;
    let single_thread_speedup = seed_secs / dense_1t;
    let scaling_2t = dense_1t / dense_by_threads[1].1;
    let scaling_4t = dense_1t / dense_by_threads[2].1;

    // 3. Compacted kernels at a dp=2 pattern, single-threaded, against the
    //    single-threaded dense kernel (pure kernel effect, no pool).
    pool::set_threads(1);
    let kept_cols: Vec<usize> = (0..cfg.n).step_by(2).collect();
    let row_secs = bench(cfg.reps, || {
        std::hint::black_box(row_compact_gemm(&a, &b, &kept_cols).unwrap());
    });
    let tile = 32.min(cfg.k).min(cfg.n);
    let tiles_per_row = cfg.n.div_ceil(tile);
    let tiles_per_col = cfg.k.div_ceil(tile);
    let kept_tiles: Vec<usize> = (0..tiles_per_row * tiles_per_col).step_by(2).collect();
    let (mut scratch, mut out) = (GatherScratch::default(), Matrix::default());
    let tile_secs = bench(cfg.reps, || {
        scratch
            .resolve_tiles(&kept_tiles, tile, cfg.k, cfg.n)
            .unwrap();
        gather_gemm_into(&a, &b, &mut scratch, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    eprintln!(
        "row-compact dp=2       {:>10.3} ms ({:.2}x dense)",
        row_secs * 1e3,
        dense_1t / row_secs
    );
    eprintln!(
        "tile-compact dp=2      {:>10.3} ms ({:.2}x dense)",
        tile_secs * 1e3,
        dense_1t / tile_secs
    );

    // 4. One MLP training epoch (row-pattern dropout) at 1/2/4 threads.
    let dropout = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
    let config = MlpConfig {
        input_dim: cfg.k,
        hidden: vec![cfg.mlp_hidden, cfg.mlp_hidden],
        output_dim: 10,
        dropout,
        learning_rate: 0.01,
        momentum: 0.9,
    };
    let inputs = init::uniform(&mut rng, cfg.mlp_batch, cfg.k, -1.0, 1.0);
    let labels: Vec<usize> = (0..cfg.mlp_batch).map(|i| i % 10).collect();
    let mut mlp_by_threads = Vec::new();
    for &t in &thread_counts {
        pool::set_threads(t);
        let mut mlp = Mlp::new(&config, &mut rng);
        let mut train_rng = StdRng::seed_from_u64(7);
        let secs = bench(cfg.mlp_reps, || {
            for _ in 0..cfg.mlp_batches {
                std::hint::black_box(mlp.train_batch(&inputs, &labels, &mut train_rng));
            }
        });
        eprintln!("mlp epoch {t} thread(s)  {:>10.3} ms", secs * 1e3);
        mlp_by_threads.push((t, secs));
    }
    let mlp_scaling_2t = mlp_by_threads[0].1 / mlp_by_threads[1].1;

    eprintln!(
        "single-thread speedup vs seed kernel: {single_thread_speedup:.2}x; \
         dense scaling 2t {scaling_2t:.2}x / 4t {scaling_4t:.2}x; \
         mlp scaling 2t {mlp_scaling_2t:.2}x"
    );

    // Thread scaling is bounded by the physical cores of the machine the
    // bench ran on; record it so a flat scaling curve on a 1-core box is
    // interpretable (the pool cannot beat the hardware).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // 5. Fused vs unfused whole-layer MLP forward at the *default* thread
    //    count (TENSOR_THREADS or the machine width): the same network and
    //    the same deterministic dp=8 row plans (rate 0.875, inside the
    //    paper's swept range — the high-dropout regime where the compacted
    //    GEMM shrinks and the per-layer bias/ReLU epilogue kernels dominate,
    //    which is exactly what fusion removes), once as one fused
    //    GEMM+bias+ReLU kernel per layer and once as the separate chain.
    //    The two sides are timed interleaved (best-of per side) so machine
    //    drift cancels; their outputs are bitwise equal (covered by
    //    tests/fused_kernels.rs) — this measures time only.
    let default_threads = setup.threads;
    pool::set_threads(default_threads);
    const FUSED_DP: usize = 8;
    let fused_config = MlpConfig {
        dropout: Box::new(approx_dropout::RowPattern::new(FUSED_DP, 0).unwrap()),
        ..config
    };
    let mut mlp_fused = Mlp::new(&fused_config, &mut rng);
    let mut mlp_unfused = mlp_fused.clone();
    mlp_unfused.set_fused(false);
    let forward_epoch = |mlp: &mut Mlp| {
        let mut fwd_rng = StdRng::seed_from_u64(11);
        for _ in 0..cfg.mlp_batches {
            std::hint::black_box(mlp.forward_train(&inputs, &mut fwd_rng));
        }
    };
    forward_epoch(&mut mlp_fused); // warm both sides
    forward_epoch(&mut mlp_unfused);
    let mut fused_secs = f64::INFINITY;
    let mut unfused_secs = f64::INFINITY;
    for _ in 0..cfg.reps.max(5) {
        let start = Instant::now();
        forward_epoch(&mut mlp_fused);
        fused_secs = fused_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        forward_epoch(&mut mlp_unfused);
        unfused_secs = unfused_secs.min(start.elapsed().as_secs_f64());
    }
    let fused_speedup = unfused_secs / fused_secs;
    eprintln!(
        "mlp forward fused      {:>10.3} ms vs unfused {:.3} ms ({fused_speedup:.2}x, dp={FUSED_DP}, {default_threads} thread(s))",
        fused_secs * 1e3,
        unfused_secs * 1e3
    );

    // Simulated fused-vs-unfused iteration on the paper's MLP, both device
    // presets: the timing model prices the same sampled plans with and
    // without KernelSchedule::Fused (launch overhead once per layer).
    let sim_scheme = scheme::row(DropoutRate::new(0.5).unwrap(), 16).unwrap();
    let mut sim_fused_speedups = Vec::new();
    for (device_key, gpu) in [
        ("gtx_1080ti", GpuConfig::gtx_1080ti()),
        ("server_hbm", GpuConfig::server_hbm()),
    ] {
        let model = NetworkTimingModel::mlp(gpu, MlpSpec::paper_mlp());
        let unfused_us = model
            .expected_iteration_time(&*sim_scheme, 128, 0x5EED)
            .total_us();
        let fused_us = model
            .clone()
            .with_fusion(true)
            .expected_iteration_time(&*sim_scheme, 128, 0x5EED)
            .total_us();
        let speedup = unfused_us / fused_us;
        eprintln!("sim fused iteration    {speedup:>10.3}x on {device_key}");
        sim_fused_speedups.push((device_key, speedup));
    }

    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"available_parallelism\": {cores},\n  \"simd\": {{\n    \"isa\": \"{simd_isa}\",\n    \"dense_scalar_secs\": {dense_scalar:.6},\n    \"dense_simd_secs\": {dense_simd:.6},\n    \"dense_speedup\": {simd_dense_speedup:.3},\n    \"a_bt_scalar_secs\": {abt_scalar:.6},\n    \"a_bt_simd_secs\": {abt_simd:.6},\n    \"a_bt_speedup\": {simd_abt_speedup:.3},\n    \"fused_relu_scalar_secs\": {fused_relu_scalar:.6},\n    \"fused_relu_simd_secs\": {fused_relu_simd:.6},\n    \"fused_relu_speedup\": {simd_fused_speedup:.3}\n  }},\n  \"dense_gemm\": {{\n    \"shape\": [{m}, {k}, {n}],\n    \"seed_blocked_secs\": {seed:.6},\n    \"packed_secs_by_threads\": {dense_map},\n    \"single_thread_speedup_vs_seed\": {speedup:.3},\n    \"scaling_2_threads\": {s2:.3},\n    \"scaling_4_threads\": {s4:.3}\n  }},\n  \"row_compact\": {{\n    \"dp\": 2,\n    \"secs\": {row:.6},\n    \"speedup_vs_dense_1t\": {row_speedup:.3}\n  }},\n  \"tile_compact\": {{\n    \"dp\": 2,\n    \"tile\": {tile},\n    \"secs\": {tile_secs:.6},\n    \"speedup_vs_dense_1t\": {tile_speedup:.3}\n  }},\n  \"mlp_epoch\": {{\n    \"batch\": {mlp_batch},\n    \"batches\": {mlp_batches},\n    \"hidden\": [{hid}, {hid}],\n    \"secs_by_threads\": {mlp_map},\n    \"scaling_2_threads\": {mlp_s2:.3}\n  }},\n  \"fused_forward\": {{\n    \"threads\": {fused_threads},\n    \"row_pattern_dp\": {fused_dp},\n    \"unfused_secs\": {unfused_secs:.6},\n    \"fused_secs\": {fused_secs:.6},\n    \"speedup\": {fused_speedup:.3},\n    \"sim_iteration_speedup_{sim0_key}\": {sim0:.3},\n    \"sim_iteration_speedup_{sim1_key}\": {sim1:.3}\n  }}\n}}\n",
        mode = cfg.mode,
        simd_isa = setup.simd_level.name(),
        dense_scalar = dense_scalar,
        dense_simd = dense_simd,
        simd_dense_speedup = simd_speedups[0].1,
        abt_scalar = abt_scalar,
        abt_simd = abt_simd,
        simd_abt_speedup = simd_speedups[1].1,
        fused_relu_scalar = fused_relu_scalar,
        fused_relu_simd = fused_relu_simd,
        simd_fused_speedup = simd_speedups[2].1,
        m = cfg.m,
        k = cfg.k,
        n = cfg.n,
        seed = seed_secs,
        dense_map = json_threads_map(&dense_by_threads),
        speedup = single_thread_speedup,
        s2 = scaling_2t,
        s4 = scaling_4t,
        row = row_secs,
        row_speedup = dense_1t / row_secs,
        tile = tile,
        tile_secs = tile_secs,
        tile_speedup = dense_1t / tile_secs,
        mlp_batch = cfg.mlp_batch,
        mlp_batches = cfg.mlp_batches,
        hid = cfg.mlp_hidden,
        mlp_map = json_threads_map(&mlp_by_threads),
        mlp_s2 = mlp_scaling_2t,
        fused_threads = default_threads,
        fused_dp = FUSED_DP,
        unfused_secs = unfused_secs,
        fused_secs = fused_secs,
        fused_speedup = fused_speedup,
        sim0_key = sim_fused_speedups[0].0,
        sim0 = sim_fused_speedups[0].1,
        sim1_key = sim_fused_speedups[1].0,
        sim1 = sim_fused_speedups[1].1,
    );

    let out_path = std::env::var("BENCH_HOTPATH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_HOTPATH.json", env!("CARGO_MANIFEST_DIR")));
    // In --check-baseline mode the committed file is the baseline; read it
    // before the fresh result overwrites it, and write the fresh JSON
    // before enforcing so the CI artifact carries the regressed run too.
    let check_baseline = std::env::args().any(|a| a == "--check-baseline");
    let baseline_path = std::env::var("BENCH_HOTPATH_BASELINE")
        .unwrap_or_else(|_| format!("{}/../../BENCH_HOTPATH.json", env!("CARGO_MANIFEST_DIR")));
    let baseline = check_baseline
        .then(|| bench::baseline::read_baseline_or_exit(&baseline_path, "bench_hotpath"));
    std::fs::write(&out_path, &json).expect("writing BENCH_HOTPATH.json failed");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if let Some(baseline) = baseline {
        bench::baseline::enforce_baseline(&baseline, &baseline_path, &json, "bench_hotpath");
    }

    // Regression gates, opt-in via BENCH_ASSERT=1 (CI). The kernel speedup
    // is machine-portable; the scaling gate only arms on hardware that can
    // actually scale (>= 2 cores), so a 1-core container passes honestly
    // while a change that serializes the pool fails fast on CI runners.
    if std::env::var("BENCH_ASSERT").is_ok_and(|v| v != "0") {
        let mut failures = Vec::new();
        // The vector kernels must beat the forced-scalar path whenever a
        // vector level is actually active; under `--no-simd` /
        // `TENSOR_SIMD=0` both sides run the same code and the gate stands
        // down rather than comparing noise against noise.
        if setup.simd_level != SimdLevel::Scalar {
            for (key, speedup) in &simd_speedups {
                if *speedup <= 1.0 {
                    failures.push(format!(
                        "simd {key} kernel speedup {speedup:.3}x <= 1.0x over forced-scalar \
                         at 1 thread ({})",
                        setup.simd_level.name()
                    ));
                }
            }
        }
        if !smoke && single_thread_speedup < 3.0 {
            failures.push(format!(
                "single-thread kernel speedup {single_thread_speedup:.2}x < 3.0x vs seed kernel"
            ));
        }
        if !smoke && cores >= 2 && scaling_2t < 1.25 {
            failures.push(format!(
                "dense 2-thread scaling {scaling_2t:.2}x < 1.25x on a {cores}-core machine"
            ));
        }
        // The fused whole-layer forward must beat the separate chain: it
        // does strictly less work (no extra pass over the activations, no
        // per-iteration output allocation). Smoke shapes are too small to
        // time reliably, so the CPU gate arms on full runs only; the
        // simulated ratios are deterministic and gate everywhere.
        if !smoke && fused_speedup <= 1.0 {
            failures.push(format!(
                "fused MLP forward speedup {fused_speedup:.3}x <= 1.0x at {default_threads} thread(s)"
            ));
        }
        for (device, speedup) in &sim_fused_speedups {
            if *speedup <= 1.0 {
                failures.push(format!(
                    "simulated fused iteration speedup {speedup:.3}x <= 1.0x on {device}"
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
