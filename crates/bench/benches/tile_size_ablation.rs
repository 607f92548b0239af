//! Ablation of the tile size used by the Tile-based Dropout Pattern.
//!
//! The paper fixes 32×32 to match the 32 shared-memory banks; this bench
//! measures how the CPU compacted GEMM behaves for 8/16/32/64 tiles at the
//! same dropout rate, and the `gpu-sim` model covers the GPU-side argument.

use approx_dropout::{TileGrid, TilePattern};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{gemm, init, GatherScratch, Matrix};

const BATCH: usize = 32;
const DIM: usize = 256;

fn bench_tile_sizes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let x = init::uniform(&mut rng, BATCH, DIM, -1.0, 1.0);
    let w = init::uniform(&mut rng, DIM, DIM, -0.1, 0.1);
    let dp = 2;

    let mut group = c.benchmark_group("tile_size_ablation");
    group.sample_size(10);
    for &tile in &[8usize, 16, 32, 64] {
        let grid = TileGrid::new(DIM, DIM, tile).expect("valid grid");
        let pattern = TilePattern::new(dp, 0, tile).expect("valid pattern");
        let mut scratch = GatherScratch::default();
        scratch
            .resolve_tiles(&pattern.kept_tiles(&grid), tile, DIM, DIM)
            .expect("tiles in bounds");
        let mut out = Matrix::default();
        group.bench_with_input(BenchmarkId::from_parameter(tile), &tile, |b, _| {
            b.iter(|| {
                gemm::gather_gemm_into(black_box(&x), black_box(&w), &mut scratch, &mut out)
                    .expect("shapes agree");
                black_box(&mut out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tile_sizes);
criterion_main!(benches);
