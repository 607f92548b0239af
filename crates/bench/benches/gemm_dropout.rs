//! Measured CPU wall-clock of the dense GEMM + mask path (conventional
//! dropout) vs the compacted GEMMs (Fig. 4 / Table I, CPU counterpart).
//!
//! The compacted kernels really do skip the dropped work, so the ratio of
//! the `dense_plus_mask` group to the `row_compact` / `tile_compact` groups
//! is a measured (not modelled) speedup with the same shape as the paper's.
//! Both compacted groups run the gather core; the tile group's classes are
//! resolved once, outside the timed loop.

use approx_dropout::{BernoulliDropout, DropoutRate, RowPattern, TileGrid, TilePattern};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{gemm, init, GatherScratch, Matrix};

const BATCH: usize = 32;
const DIM: usize = 256;

fn operands() -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(99);
    let x = init::uniform(&mut rng, BATCH, DIM, -1.0, 1.0);
    let w = init::uniform(&mut rng, DIM, DIM, -0.1, 0.1);
    (x, w)
}

fn bench_gemm_dropout(c: &mut Criterion) {
    let (x, w) = operands();
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("gemm_dropout");
    group.sample_size(10);

    for &dp in &[2usize, 3, 5] {
        let rate = (dp - 1) as f64 / dp as f64;
        let bernoulli = BernoulliDropout::new(DropoutRate::new(rate).expect("valid rate"));
        let mask = bernoulli.mask(&mut rng, BATCH, DIM);
        group.bench_with_input(BenchmarkId::new("dense_plus_mask", dp), &dp, |b, _| {
            b.iter(|| {
                let z = gemm::blocked_gemm(black_box(&x), black_box(&w)).expect("shapes agree");
                black_box(z.hadamard(&mask).expect("shapes agree"))
            })
        });

        let row = RowPattern::new(dp, 0).expect("valid pattern");
        let kept_rows = row.kept_rows(DIM);
        group.bench_with_input(BenchmarkId::new("row_compact", dp), &dp, |b, _| {
            b.iter(|| {
                black_box(
                    gemm::row_compact_gemm(black_box(&x), black_box(&w), &kept_rows)
                        .expect("indices in bounds"),
                )
            })
        });

        let grid = TileGrid::new(DIM, DIM, 32).expect("valid grid");
        let tile = TilePattern::new(dp, 0, 32).expect("valid pattern");
        let mut scratch = GatherScratch::default();
        scratch
            .resolve_tiles(&tile.kept_tiles(&grid), 32, DIM, DIM)
            .expect("tiles in bounds");
        let mut out = Matrix::default();
        group.bench_with_input(BenchmarkId::new("tile_compact", dp), &dp, |b, _| {
            b.iter(|| {
                gemm::gather_gemm_into(black_box(&x), black_box(&w), &mut scratch, &mut out)
                    .expect("shapes agree");
                black_box(&mut out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_dropout);
criterion_main!(benches);
