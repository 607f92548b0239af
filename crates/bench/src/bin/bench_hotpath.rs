//! Hot-path benchmark: packed GEMM kernels and batch-dimension threading.
//!
//! Measures five things and writes `BENCH_HOTPATH.json` at the repository
//! root, seeding the perf trajectory the ROADMAP calls for:
//!
//! 1. the *seed* cache-blocked GEMM (per-element `Index` ops + zero-skip
//!    branch, reproduced verbatim below) versus the packed micro-kernel
//!    pipeline, single-threaded — the kernel-rewrite speedup;
//! 2. the packed dense GEMM at 1/2/4 threads — batch-dimension scaling —
//!    and, recorded in every mode, the smoke layer's 48×64×64 GEMM at 1 and
//!    2 threads, where the pool's dispatch cost is a large share of the
//!    kernel, beside the cost of an empty pool dispatch (a no-op kernel
//!    over `par_min_rows` rows) at 1 and 2 threads;
//! 3. the row- and tile-compacted kernels at a dp=2 pattern versus the dense
//!    kernel — the speedup the paper's compaction is supposed to buy once
//!    constant overhead stops drowning it;
//! 4. one MLP training epoch (row-pattern dropout) at 1/2/4 threads;
//! 5. the fused whole-layer forward (one GEMM+bias+ReLU kernel per layer)
//!    versus the separate GEMM → bias → ReLU chain, priced by the GPU timing
//!    model on both device presets;
//!
//! plus the `simd` section: the dense / `A·Bᵀ` / `Aᵀ·B` / fused-ReLU kernels
//! with the runtime dispatch forced to the scalar fallback versus the active
//! vector level (AVX2 / AVX-512), single-threaded; the recorded
//! `a_bt_vs_a_b` section: `A·Bᵀ` (which packs `Bᵀ` per call) beside `A·B`
//! in GFLOP/s at three backward-pass shapes, single-threaded; and the recorded
//! `tile_size_ablation` section: the dp=2 tile pattern through the gather
//! core at 8/16/32/64 tiles (the paper fixes 32 to match the 32
//! shared-memory banks).
//!
//! Run `cargo run --release -p bench --bin bench_hotpath` for the full
//! shapes, or pass `--smoke` (CI) for tiny shapes that finish in seconds.
//! `--threads N` sets the pool width (`TENSOR_THREADS` is the fallback; a
//! conflicting flag + env pair is a hard error), `--no-simd` forces the
//! scalar kernel path, and `--tune` reruns the pool-threshold search and
//! persists the winner to `TUNE_GEMM.json` (`TENSOR_TUNE_FILE` overrides
//! the path), which is otherwise loaded at startup when it matches this
//! machine. `BENCH_HOTPATH_OUT` redirects the JSON. Pass `--check-baseline`
//! to compare every ratio of this run against the committed
//! `BENCH_HOTPATH.json` (see `bench::scorecard`); `simd.*` ratios are
//! skipped when the baseline was recorded on a different ISA.

use approx_dropout::{scheme, DropoutRate, TileGrid, TilePattern};
use bench::best_of;
use bench::scorecard::Scorecard;
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{
    blocked_gemm, blocked_gemm_into, gather_gemm_into, gemm_a_bt, gemm_a_bt_into, gemm_at_b,
    gemm_bias_act, init, pool, row_compact_gemm, simd, Activation, GatherScratch, Matrix,
    SimdLevel,
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

struct Config {
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
    m: 48,
    k: 64,
    n: 64,
    reps: 2,
    mlp_batch: 48,
    mlp_hidden: 64,
    mlp_batches: 2,
    mlp_reps: 1,
};

fn main() {
    let smoke = bench::smoke_flag();
    let cfg = if smoke { SMOKE } else { FULL };
    // Shared startup: resolve `--threads`/`TENSOR_THREADS` (loudly on a
    // conflict), apply `--no-simd`, run `--tune` or load the persisted
    // pool threshold. Sections 2–4 sweep explicit pool widths regardless;
    // the resolved width drives any `--tune` search.
    let setup = bench::init_bench("bench_hotpath");
    let mut card = Scorecard::new("bench_hotpath", smoke);
    let thread_counts = [1usize, 2, 4];

    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let a = init::uniform(&mut rng, cfg.m, cfg.k, -1.0, 1.0);
    let b = init::uniform(&mut rng, cfg.k, cfg.n, -1.0, 1.0);

    // 1. Seed kernel baseline (single-threaded by construction).
    let seed_secs = best_of(cfg.reps, || {
        std::hint::black_box(seed_blocked_gemm(&a, &b));
    });
    eprintln!("seed blocked gemm      {:>10.3} ms", seed_secs * 1e3);

    // 1b. SIMD micro-kernel effect, single-threaded: the same packed
    //     kernels with the runtime dispatch forced to the scalar fallback
    //     versus the active level — the pure vectorisation win, no pool.
    //     Under `--no-simd` / `TENSOR_SIMD=0` both sides run the scalar
    //     path and the ratios sit at ~1.0, so their floors only arm when a
    //     vector level is active rather than comparing noise against noise.
    pool::set_threads(1);
    let bias = init::uniform(&mut rng, 1, cfg.n, -0.5, 0.5);
    let bt = b.transpose();
    // The weight gradient `dW = Xᵀ·G` of a backward pass: X is `a`, and any
    // `m × n` matrix serves as G.
    let g = blocked_gemm(&a, &b).expect("inner dimensions agree");
    let simd_pair = |f: &mut dyn FnMut()| {
        simd::set_level(SimdLevel::Scalar);
        let scalar = best_of(cfg.reps, &mut *f);
        simd::set_level(setup.simd_level);
        let vector = best_of(cfg.reps, &mut *f);
        (scalar, vector)
    };
    let simd_rows = [
        (
            "dense",
            simd_pair(&mut || {
                std::hint::black_box(blocked_gemm(&a, &b).unwrap());
            }),
        ),
        (
            "a_bt",
            simd_pair(&mut || {
                std::hint::black_box(gemm_a_bt(&a, &bt).unwrap());
            }),
        ),
        (
            "at_b",
            simd_pair(&mut || {
                std::hint::black_box(gemm_at_b(&a, &g).unwrap());
            }),
        ),
        (
            "fused_relu",
            simd_pair(&mut || {
                std::hint::black_box(gemm_bias_act(&a, &b, &bias, Activation::Relu).unwrap());
            }),
        ),
    ];
    let vector_active = setup.simd_level != SimdLevel::Scalar;
    card.section("simd", |card| {
        card.text("isa", setup.simd_level.name());
        for (key, (scalar, vector)) in simd_rows {
            eprintln!(
                "simd {key:<11} 1t     {:>10.3} ms scalar vs {:.3} ms {} ({:.2}x)",
                scalar * 1e3,
                vector * 1e3,
                setup.simd_level.name(),
                scalar / vector
            );
            card.secs(&format!("{key}_scalar_secs"), scalar);
            card.secs(&format!("{key}_simd_secs"), vector);
            card.cpu_ratio(&format!("{key}_speedup"), scalar / vector)
                .above(1.0)
                .when(vector_active);
        }
    });

    // 1c. The input-gradient product `A·Bᵀ` beside `A·B` at the same m, k,
    //     n, single-threaded, in GFLOP/s: `A·Bᵀ` packs `Bᵀ` on every call,
    //     a cost that does not shrink with m. The shapes are the transformer
    //     FFN's `dX`, the MLP output layer's `dX` and a serve-sized Train
    //     batch. Its own RNG leaves the later sections' data unchanged.
    //     Recorded only.
    let product_shapes = [
        ("ffn_dx", [768, 64, 128]),
        ("mlp_out_dx", [128, 10, 256]),
        ("serve_train", [12, 128, 256]),
    ];
    let mut product_rng = StdRng::seed_from_u64(0xAB7);
    card.section("a_bt_vs_a_b", |card| {
        for (key, [m, k, n]) in product_shapes {
            let a = init::uniform(&mut product_rng, m, k, -1.0, 1.0);
            let b = init::uniform(&mut product_rng, k, n, -1.0, 1.0);
            let (b_t, mut out) = (b.transpose(), Matrix::default());
            let gflops = |secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;
            let a_b = gflops(best_of(50, || {
                blocked_gemm_into(&a, &b, &mut out).unwrap();
                std::hint::black_box(&out);
            }));
            let a_bt = gflops(best_of(50, || {
                gemm_a_bt_into(&a, &b_t, &mut out).unwrap();
                std::hint::black_box(&out);
            }));
            eprintln!("{key:<12} {m}x{k}x{n}  A·B {a_b:>6.2} GFLOP/s, A·Bᵀ {a_bt:>6.2} GFLOP/s");
            card.counts(&format!("{key}_shape"), &[m, k, n]);
            card.recorded(&format!("{key}_a_b_gflops"), a_b, 2);
            card.recorded(&format!("{key}_a_bt_gflops"), a_bt, 2);
        }
    });

    // 2. Packed kernel at 1/2/4 threads.
    let mut dense_by_threads = Vec::new();
    for &t in &thread_counts {
        pool::set_threads(t);
        let secs = best_of(cfg.reps, || {
            std::hint::black_box(blocked_gemm(&a, &b).unwrap());
        });
        eprintln!("packed gemm {t} thread(s) {:>9.3} ms", secs * 1e3);
        dense_by_threads.push((t, secs));
    }
    let dense_1t = dense_by_threads[0].1;
    // The kernel speedup is machine-portable; the scaling floor only arms
    // on hardware that can actually scale (>= 2 cores), so a 1-core
    // container passes honestly while a change that serializes the pool
    // fails fast on CI runners.
    let cores = bench::available_cores();
    card.section("dense_gemm", |card| {
        card.counts("shape", &[cfg.m, cfg.k, cfg.n]);
        card.secs("seed_blocked_secs", seed_secs);
        card.map("packed_secs_by_threads", &dense_by_threads, 6);
        card.cpu_ratio("single_thread_speedup_vs_seed", seed_secs / dense_1t)
            .at_least(3.0)
            .full_only();
        card.recorded("scaling_2_threads", dense_1t / dense_by_threads[1].1, 3)
            .at_least(1.25)
            .full_only()
            .when(cores >= 2);
        card.recorded("scaling_4_threads", dense_1t / dense_by_threads[2].1, 3);
    });
    eprintln!(
        "single-thread speedup vs seed kernel: {:.2}x",
        seed_secs / dense_1t
    );

    // 2b. Small-shape dispatch cost: the smoke layer's 48×64×64 GEMM at 1
    //     and 2 threads in every mode, best of many reps because one call
    //     takes tens of microseconds. Its own RNG leaves the later sections'
    //     data unchanged. Recorded only.
    let small_shape = [48, 64, 64];
    let mut small_rng = StdRng::seed_from_u64(0x5A11);
    let small_a = init::uniform(&mut small_rng, small_shape[0], small_shape[1], -1.0, 1.0);
    let small_b = init::uniform(&mut small_rng, small_shape[1], small_shape[2], -1.0, 1.0);
    let mut small_out = Matrix::default();
    let small_by_threads: Vec<(usize, f64)> = [1, 2]
        .into_iter()
        .map(|t| {
            pool::set_threads(t);
            let secs = best_of(200, || {
                blocked_gemm_into(&small_a, &small_b, &mut small_out).unwrap();
                std::hint::black_box(&small_out);
            });
            eprintln!("small gemm {t} thread(s) {:>9.1} us", secs * 1e6);
            (t, secs)
        })
        .collect();
    card.section("small_gemm", |card| {
        card.counts("shape", &small_shape);
        card.map("secs_by_threads", &small_by_threads, 6);
    });

    // 2c. Empty dispatch: `run_row_chunks` with a no-op kernel over the
    //     smallest batch the pool splits, so the seconds are the dispatch
    //     cost alone — the data the `par_min_rows` threshold trades
    //     against. Recorded only.
    let empty_rows = pool::par_min_rows();
    let mut empty_out = vec![0.0f32; empty_rows];
    let empty_by_threads: Vec<(usize, f64)> = [1, 2]
        .into_iter()
        .map(|t| {
            pool::set_threads(t);
            let secs = best_of(2000, || {
                pool::run_row_chunks(empty_rows, 1, &mut empty_out, |rows, chunk| {
                    std::hint::black_box((rows, chunk));
                });
            });
            eprintln!("empty dispatch {t} thread(s) {:>6.2} us", secs * 1e6);
            (t, secs)
        })
        .collect();
    card.section("empty_dispatch", |card| {
        card.count("rows", empty_rows);
        card.map("secs_by_threads", &empty_by_threads, 9);
    });

    // 3. Compacted kernels at a dp=2 pattern, single-threaded, against the
    //    single-threaded dense kernel (pure kernel effect, no pool).
    pool::set_threads(1);
    let kept_cols: Vec<usize> = (0..cfg.n).step_by(2).collect();
    let row_secs = best_of(cfg.reps, || {
        std::hint::black_box(row_compact_gemm(&a, &b, &kept_cols).unwrap());
    });
    let (mut scratch, mut out) = (GatherScratch::default(), Matrix::default());
    let mut tile_secs = |kept_tiles: &[usize], tile: usize| {
        best_of(cfg.reps, || {
            scratch
                .resolve_tiles(kept_tiles, tile, cfg.k, cfg.n)
                .unwrap();
            gather_gemm_into(&a, &b, &mut scratch, &mut out).unwrap();
            std::hint::black_box(&out);
        })
    };
    let tile = 32.min(cfg.k).min(cfg.n);
    let tiles_per_row = cfg.n.div_ceil(tile);
    let tiles_per_col = cfg.k.div_ceil(tile);
    let kept_tiles: Vec<usize> = (0..tiles_per_row * tiles_per_col).step_by(2).collect();
    let tile_compact_secs = tile_secs(&kept_tiles, tile);
    eprintln!(
        "row-compact dp=2       {:>10.3} ms ({:.2}x dense)",
        row_secs * 1e3,
        dense_1t / row_secs
    );
    eprintln!(
        "tile-compact dp=2      {:>10.3} ms ({:.2}x dense)",
        tile_compact_secs * 1e3,
        dense_1t / tile_compact_secs
    );
    card.section("row_compact", |card| {
        card.count("dp", 2);
        card.secs("secs", row_secs);
        card.cpu_ratio("speedup_vs_dense_1t", dense_1t / row_secs);
    });
    card.section("tile_compact", |card| {
        card.count("dp", 2);
        card.count("tile", tile);
        card.secs("secs", tile_compact_secs);
        card.cpu_ratio("speedup_vs_dense_1t", dense_1t / tile_compact_secs);
    });

    // 3b. Tile-size ablation: the paper's dp=2 tile pattern through the
    //     same gather core at 8/16/32/64 tiles (capped at the weight's
    //     smaller side). Recorded only: tile size is a design choice to
    //     inspect, not a win to defend.
    let mut ablation_tiles: Vec<usize> = [8usize, 16, 32, 64]
        .into_iter()
        .map(|t| t.min(cfg.k).min(cfg.n))
        .collect();
    ablation_tiles.dedup();
    let ablation: Vec<(usize, f64)> = ablation_tiles
        .into_iter()
        .map(|tile| {
            let grid = TileGrid::new(cfg.k, cfg.n, tile).expect("tile fits the weight");
            let pattern = TilePattern::new(2, 0, tile).expect("dp 2 is a valid period");
            let secs = tile_secs(&pattern.kept_tiles(&grid), tile);
            eprintln!(
                "tile {tile:>2} dp=2          {:>10.3} ms ({:.2}x dense)",
                secs * 1e3,
                dense_1t / secs
            );
            (tile, secs)
        })
        .collect();
    let ablation_speedups: Vec<(usize, f64)> = ablation
        .iter()
        .map(|&(tile, secs)| (tile, dense_1t / secs))
        .collect();
    card.section("tile_size_ablation", |card| {
        card.count("dp", 2);
        card.map("secs_by_tile", &ablation, 6);
        card.map("speedup_vs_dense_1t_by_tile", &ablation_speedups, 3);
    });

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
        let secs = best_of(cfg.mlp_reps, || {
            for _ in 0..cfg.mlp_batches {
                std::hint::black_box(mlp.train_batch(&inputs, &labels, &mut train_rng));
            }
        });
        eprintln!("mlp epoch {t} thread(s)  {:>10.3} ms", secs * 1e3);
        mlp_by_threads.push((t, secs));
    }
    card.section("mlp_epoch", |card| {
        card.count("batch", cfg.mlp_batch);
        card.count("batches", cfg.mlp_batches);
        card.counts("hidden", &[cfg.mlp_hidden, cfg.mlp_hidden]);
        card.map("secs_by_threads", &mlp_by_threads, 6);
        card.recorded(
            "scaling_2_threads",
            mlp_by_threads[0].1 / mlp_by_threads[1].1,
            3,
        );
    });

    // 5. Simulated fused-vs-unfused iteration on the paper's MLP, both
    //    device presets: the timing model prices the same sampled plans
    //    with each layer's activation as a separate elementwise kernel and,
    //    under with_fusion(true), as the fused epilogue of its GEMM launch
    //    (launch overhead once per layer). Deterministic, so the floors arm
    //    in every mode.
    let sim_scheme = scheme::row(DropoutRate::new(0.5).unwrap(), 16).unwrap();
    card.section("fused_forward", |card| {
        for (device_key, gpu) in [
            ("gtx_1080ti", GpuConfig::gtx_1080ti()),
            ("server_hbm", GpuConfig::server_hbm()),
        ] {
            let model = NetworkTimingModel::mlp(gpu, MlpSpec::paper_mlp());
            let unfused_us = model
                .expected_iteration_time(&*sim_scheme, 128, 0x5EED)
                .total_us();
            let fused_us = model
                .with_fusion(true)
                .expected_iteration_time(&*sim_scheme, 128, 0x5EED)
                .total_us();
            let speedup = unfused_us / fused_us;
            eprintln!("sim fused iteration    {speedup:>10.3}x on {device_key}");
            card.sim_ratio(&format!("sim_iteration_speedup_{device_key}"), speedup)
                .above(1.0);
        }
    });

    card.finish();
}
