//! Kernel-level cost models.
//!
//! Every model returns a [`KernelStats`] describing how much work the kernel
//! does (FLOPs, global-memory traffic, thread blocks) and how long the
//! roofline assumption says it takes: `time = max(compute, memory) +
//! overheads`. The models follow the execution pictures of the paper's
//! Fig. 3:
//!
//! * [`dense_gemm`] — the tiled GEMM every baseline layer runs.
//! * [`conventional_dropout_layer`] — the mask-generation + elementwise
//!   multiply kernels the baseline additionally pays (Fig. 1(a)).
//! * [`gather_gemm`] — every GEMM that runs only over kept units fixed
//!   before launch: RDP's kept output neurons (Fig. 3(a)), contiguous unit
//!   blocks, N:M lanes and CRS's sampled inner products. A [`GatherIndex`]
//!   says how the kernel finds them.
//! * [`tile_compact_gemm`] — TDP: GEMM over the kept tiles plus the
//!   nonzero-position bookkeeping the paper cites as TDP's small overhead.
//! * [`nm_tensor_core_gemm`] — hardware 2:4 on sparse tensor cores.
//! * [`divergent_gemm`] — the naive `if (kept)` skipping of Fig. 1(b), which
//!   serialises both branch sides inside a warp and therefore does not get
//!   faster at all.
//!
//! # Which kernels may use the matrix engine
//!
//! On a device whose [`crate::config::DeviceCapabilities`] advertise tensor
//! cores, dense tile math prices at [`GpuConfig::gemm_flops_per_cycle`].
//! Only kernels whose inner loop *is* dense tile math get that rate:
//!
//! * **Matrix engine**: [`dense_gemm`], and [`gather_gemm`] under
//!   [`GatherIndex::Rows`] or [`GatherIndex::Blocks`]. The gather packs
//!   whole output columns or contiguous strips into dense operands
//!   *before* the multiply; its index cost is charged as overhead cycles.
//! * **SIMT lanes only**: [`gather_gemm`] under [`GatherIndex::Lanes`] or
//!   [`GatherIndex::Inner`], whose index is decoded inside the inner loop
//!   (per-group lanes, scattered inner products); [`tile_compact_gemm`],
//!   which scales the dense tile grid by the kept fraction; and
//!   [`divergent_gemm`], whose threads branch. Hardware 2:4 escapes the pin
//!   through its own roofline, [`nm_tensor_core_gemm`].
//!
//! Changing this split moves the speedup curves pinned (±2%) by
//! `tests/paper_figures.rs`; regenerate its golden table if you change it
//! on purpose.

use crate::config::GpuConfig;

/// Tile edge used by the modelled GEMM kernels (matches the paper's 32×32).
pub const GEMM_TILE: usize = 32;

/// Bytes per single-precision element.
const F32: f64 = 4.0;

/// Work and time accounting for one modelled kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Floating-point operations executed.
    pub flops: f64,
    /// Bytes read from global memory.
    pub global_read_bytes: f64,
    /// Bytes written to global memory.
    pub global_write_bytes: f64,
    /// Thread blocks launched.
    pub thread_blocks: usize,
    /// Cycles spent in the compute phase (roofline numerator).
    pub compute_cycles: f64,
    /// Cycles spent in the memory phase (roofline numerator).
    pub memory_cycles: f64,
    /// Extra cycles: scheduling waves, divergence penalties, bookkeeping.
    pub overhead_cycles: f64,
    /// Number of kernel launches charged with launch overhead.
    pub launches: usize,
    /// Total modelled execution time in microseconds.
    pub(crate) time_us: f64,
}

impl KernelStats {
    fn finalize(gpu: &GpuConfig, mut stats: KernelStats) -> KernelStats {
        let roofline = stats.compute_cycles.max(stats.memory_cycles) + stats.overhead_cycles;
        stats.time_us =
            gpu.cycles_to_us(roofline) + stats.launches as f64 * gpu.kernel_launch_overhead_us;
        stats
    }

    /// Total modelled execution time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.time_us
    }

    /// Total global-memory traffic (read + write) in bytes.
    pub fn global_bytes(&self) -> f64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// `true` when the memory phase dominates the compute phase.
    pub fn is_memory_bound(&self) -> bool {
        self.memory_cycles > self.compute_cycles
    }

    /// Merges another kernel's stats into this one, summing every component
    /// (used by the layer models to accumulate per-iteration totals).
    pub fn merged_with(&self, other: &KernelStats) -> KernelStats {
        KernelStats {
            flops: self.flops + other.flops,
            global_read_bytes: self.global_read_bytes + other.global_read_bytes,
            global_write_bytes: self.global_write_bytes + other.global_write_bytes,
            thread_blocks: self.thread_blocks + other.thread_blocks,
            compute_cycles: self.compute_cycles + other.compute_cycles,
            memory_cycles: self.memory_cycles + other.memory_cycles,
            overhead_cycles: self.overhead_cycles + other.overhead_cycles,
            launches: self.launches + other.launches,
            time_us: self.time_us + other.time_us,
        }
    }

    /// A zero-cost placeholder (useful as a fold seed).
    pub fn empty() -> KernelStats {
        KernelStats {
            flops: 0.0,
            global_read_bytes: 0.0,
            global_write_bytes: 0.0,
            thread_blocks: 0,
            compute_cycles: 0.0,
            memory_cycles: 0.0,
            overhead_cycles: 0.0,
            launches: 0,
            time_us: 0.0,
        }
    }
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Core tiled-GEMM accounting shared by the dense and compacted variants.
///
/// `m, k, n` are the effective GEMM dimensions actually executed.
fn gemm_core(gpu: &GpuConfig, m: usize, k: usize, n: usize) -> KernelStats {
    let blocks_m = ceil_div(m.max(1), GEMM_TILE);
    let blocks_n = ceil_div(n.max(1), GEMM_TILE);
    let k_steps = ceil_div(k.max(1), GEMM_TILE);
    let blocks = blocks_m * blocks_n;

    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    // Each block streams `k_steps` pairs of 32x32 operand tiles through
    // shared memory and writes one 32x32 output tile.
    let tile_bytes = (GEMM_TILE * GEMM_TILE) as f64 * F32;
    let global_read = blocks as f64 * k_steps as f64 * 2.0 * tile_bytes;
    let global_write = m as f64 * n as f64 * F32;

    // A well-tiled GEMM runs on the device's best matrix engine: the tensor
    // cores when the capability block advertises them, the SIMT FMA lanes
    // otherwise (on the SIMT-only presets the two rates coincide).
    let compute_cycles = flops / gpu.gemm_flops_per_cycle();
    let memory_cycles = (global_read + global_write) / gpu.bytes_per_cycle();
    // One pipeline-fill latency per wave of blocks across the SMs.
    let waves = ceil_div(blocks, gpu.num_sms.max(1));
    let overhead_cycles = waves as f64 * gpu.global_latency_cycles;

    KernelStats::finalize(
        gpu,
        KernelStats {
            flops,
            global_read_bytes: global_read,
            global_write_bytes: global_write,
            thread_blocks: blocks,
            compute_cycles,
            memory_cycles,
            overhead_cycles,
            launches: 1,
            time_us: 0.0,
        },
    )
}

/// Dense tiled GEMM `C[M×N] = A[M×K] · B[K×N]`.
pub fn dense_gemm(gpu: &GpuConfig, m: usize, k: usize, n: usize) -> KernelStats {
    gemm_core(gpu, m, k, n)
}

/// Folds a bias/activation epilogue into an already-priced GEMM launch,
/// producing the cost of the **fused** whole-layer kernel.
///
/// The epilogue touches each of the `m × n` written outputs while it is
/// still in registers, so relative to a separate elementwise kernel it saves
/// the extra launch, the re-read of the activation matrix and its re-write —
/// the only new costs are `flops_per_element` ALU work per output and
/// `vector_reads` broadcast vectors of `n` values (bias, and the dropout
/// mask when one is folded in).
pub fn fuse_epilogue(
    gpu: &GpuConfig,
    mut gemm: KernelStats,
    m: usize,
    n: usize,
    flops_per_element: f64,
    vector_reads: usize,
) -> KernelStats {
    let elems = m as f64 * n as f64;
    let flops = elems * flops_per_element;
    let vec_bytes = n as f64 * vector_reads as f64 * F32;
    gemm.flops += flops;
    gemm.compute_cycles += flops / gpu.flops_per_cycle();
    gemm.global_read_bytes += vec_bytes;
    gemm.memory_cycles += vec_bytes / gpu.bytes_per_cycle();
    KernelStats::finalize(gpu, gemm)
}

/// Generic elementwise kernel over an `M×N` matrix.
///
/// `reads`/`writes` count how many matrices of that shape are read/written,
/// `flops_per_element` how many FLOPs each element costs.
pub fn elementwise(
    gpu: &GpuConfig,
    m: usize,
    n: usize,
    reads: usize,
    writes: usize,
    flops_per_element: f64,
) -> KernelStats {
    let elems = m as f64 * n as f64;
    let flops = elems * flops_per_element;
    let global_read = elems * reads as f64 * F32;
    let global_write = elems * writes as f64 * F32;
    let compute_cycles = flops / gpu.flops_per_cycle();
    let memory_cycles = (global_read + global_write) / gpu.bytes_per_cycle();
    let blocks = ceil_div((m * n).max(1), 1024);
    KernelStats::finalize(
        gpu,
        KernelStats {
            flops,
            global_read_bytes: global_read,
            global_write_bytes: global_write,
            thread_blocks: blocks,
            compute_cycles,
            memory_cycles,
            overhead_cycles: gpu.global_latency_cycles,
            launches: 1,
            time_us: 0.0,
        },
    )
}

/// Conventional dropout layer applied to an `M×N` activation matrix:
/// a mask-generation kernel (counter-based RNG, one write per element) plus
/// the elementwise mask multiply of Fig. 1(a) (two reads, one write).
pub fn conventional_dropout_layer(gpu: &GpuConfig, m: usize, n: usize) -> KernelStats {
    let mask_gen = elementwise(gpu, m, n, 0, 1, 12.0);
    let mask_apply = elementwise(gpu, m, n, 2, 1, 1.0);
    mask_gen.merged_with(&mask_apply)
}

/// How a [`gather_gemm`] finds its kept units: the index it decodes, which
/// fixes the index cost, the read inefficiency and the compute rate.
///
/// | variant | index cost | read inefficiency | compute rate |
/// |---|---|---|---|
/// | `Rows` | `n / warp_size` cycles | none | matrix engine |
/// | `Blocks { total }` | `total.max(1)` × [`BLOCK_POSITION_CYCLES`] | none | matrix engine |
/// | `Lanes { m }` | [`GATHER_METADATA_CYCLES`] per `m`-lane group | [`GATHER_INEFFICIENCY`] | SIMT lanes |
/// | `Inner` | [`GATHER_METADATA_CYCLES`] per warp-wide window of K | [`GATHER_INEFFICIENCY`] | SIMT lanes |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherIndex {
    /// Scattered kept output neurons (the Row-based Dropout Pattern): one
    /// pass over the `n` output indices, then whole kept columns stream
    /// like a dense operand.
    Rows,
    /// Kept contiguous strips of a `total`-block 1-D output grid
    /// (structured unit dropout): prefix offsets over the grid, then each
    /// strip is a dense column panel.
    Blocks {
        /// Blocks in the output grid.
        total: usize,
    },
    /// N:M lanes in `m`-wide groups (software N:M): the per-group lane
    /// decode lives inside the inner loop.
    Lanes {
        /// Group width.
        m: usize,
    },
    /// Sampled inner (K) indices (column-row sampling, CRS): the kept
    /// columns of `A` and rows of `W` sit at arbitrary offsets.
    Inner,
}

/// Relative memory inefficiency of an index decoded inside the inner loop
/// ([`GatherIndex::Lanes`], [`GatherIndex::Inner`]): worse than streaming
/// contiguous columns (1.0) but better than the 2-D tile gather, because
/// the scattered operand feeds still sit within a narrow window.
pub const GATHER_INEFFICIENCY: f64 = 1.08;

/// Cycles charged per lane group ([`GatherIndex::Lanes`]) or warp-wide K
/// window ([`GatherIndex::Inner`]) for decoding which units survive.
pub const GATHER_METADATA_CYCLES: f64 = 2.0;

/// Cycles charged per block of the output grid for computing the kept-block
/// prefix offsets before the multiplication (cheaper than the tile kernel's
/// bookkeeping: the grid is 1-D and the strips are contiguous).
pub const BLOCK_POSITION_CYCLES: f64 = 4.0;

/// GEMM over the kept units a plan fixes before launch: of the `M×K×N`
/// product only `kept_k` inner products and `kept_n` output columns run.
///
/// The kernel runs an `M × kept_k × kept_n` tiled GEMM, zero-fills the
/// `n - kept_n` dropped output columns (the output stays dense, the paper's
/// Fig. 3(a) step 3) and pays the cost of decoding `index` (see
/// [`GatherIndex`]). Under [`GatherIndex::Lanes`] and [`GatherIndex::Inner`]
/// the compute phase is pinned to the SIMT lanes and operand reads pay
/// [`GATHER_INEFFICIENCY`] (see the module docs). The zero-fill and the
/// index cost keep the speedup sub-linear in the kept fraction, as the
/// paper observes. A nonzero dimension keeps at least one unit and an
/// empty one keeps none.
pub fn gather_gemm(
    gpu: &GpuConfig,
    m: usize,
    k: usize,
    n: usize,
    kept_k: usize,
    kept_n: usize,
    index: GatherIndex,
) -> KernelStats {
    let kept_k = kept_k.min(k).max(usize::from(k > 0));
    let kept_n = kept_n.min(n).max(usize::from(n > 0));

    let mut stats = gemm_core(gpu, m, kept_k, kept_n);
    if matches!(index, GatherIndex::Lanes { .. } | GatherIndex::Inner) {
        stats.compute_cycles = stats.flops / gpu.flops_per_cycle();
        let extra_read = stats.global_read_bytes * (GATHER_INEFFICIENCY - 1.0);
        stats.global_read_bytes += extra_read;
        stats.memory_cycles += extra_read / gpu.bytes_per_cycle();
    }
    let dropped_bytes = m as f64 * (n - kept_n) as f64 * F32;
    stats.global_write_bytes += dropped_bytes;
    stats.memory_cycles += dropped_bytes / gpu.bytes_per_cycle();
    stats.overhead_cycles += match index {
        GatherIndex::Rows => n as f64 / gpu.warp_size as f64,
        GatherIndex::Blocks { total } => total.max(1) as f64 * BLOCK_POSITION_CYCLES,
        GatherIndex::Lanes { m: group } => {
            ceil_div(n.max(1), group.max(1)) as f64 * GATHER_METADATA_CYCLES
        }
        GatherIndex::Inner => {
            ceil_div(k.max(1), gpu.warp_size.max(1)) as f64 * GATHER_METADATA_CYCLES
        }
    };
    KernelStats::finalize(gpu, stats)
}

/// Bytes of 2:4 sparsity metadata per kept weight element (2 bits each: the
/// position of the nonzero within its 4-wide group).
const NM_TC_METADATA_BYTES_PER_KEPT: f64 = 0.25;

/// Hardware 2:4 sparse-tensor-core GEMM roofline.
///
/// The weight operand stays in its compressed 2:4 form — half the tiles of
/// the dense operand stream through shared memory, plus a thin metadata
/// sidecar (2 bits per kept element) — and the tensor cores execute the
/// dense-equivalent `M×K×N` product at `sparse_2_4_speedup` times their
/// dense rate. The dropped output lanes are zero-filled exactly like the
/// gather kernel (the output stays dense), and the per-group metadata
/// decode happens in hardware at the capability block's (near-free) rate
/// instead of [`GATHER_METADATA_CYCLES`]. Relative to [`gather_gemm`] under
/// [`GatherIndex::Lanes`] on the same silicon this removes the gather read
/// inefficiency, moves compute from the FMA lanes to the sparse tensor
/// cores, and shrinks the decode overhead — which is the hardware win the
/// 2:4 scheme exists for.
///
/// # Panics
///
/// Panics if the device has no tensor cores —
/// [`crate::training::price_fc_schedule`] prices N:M here only when the
/// device's capabilities accelerate the schedule's shape.
pub fn nm_tensor_core_gemm(gpu: &GpuConfig, m: usize, k: usize, n: usize) -> KernelStats {
    let caps = &gpu.capabilities;
    assert!(
        caps.has_tensor_cores(),
        "tensor-core pricing on a device without tensor cores"
    );
    // Hardware 2:4 keeps exactly half the lanes (same degenerate-width
    // guard as the gather model).
    let kept_n = ((n as f64 * 0.5).round() as usize).clamp(usize::from(n > 0), n.max(1));

    let mut stats = gemm_core(gpu, m, k, kept_n);
    // Compute phase: the dense-equivalent GEMM at the sparse tensor-core
    // rate. With the nominal 2x sparse speedup this equals the compacted
    // GEMM at the dense tensor-core rate; a smaller factor prices the
    // hardware's real, sub-ideal step.
    let dense_equiv_flops = 2.0 * m as f64 * k as f64 * n as f64;
    stats.compute_cycles =
        dense_equiv_flops / (caps.dense_tensor_core_flops_per_cycle * caps.sparse_2_4_speedup);
    // Metadata sidecar streamed alongside the compressed weights.
    let metadata_bytes = k as f64 * kept_n as f64 * NM_TC_METADATA_BYTES_PER_KEPT;
    stats.global_read_bytes += metadata_bytes;
    stats.memory_cycles += metadata_bytes / gpu.bytes_per_cycle();
    // Zero-fill of the dropped output lanes (output stays dense).
    let dropped_bytes = m as f64 * (n - kept_n) as f64 * F32;
    stats.global_write_bytes += dropped_bytes;
    stats.memory_cycles += dropped_bytes / gpu.bytes_per_cycle();
    // Hardware metadata decode over the 4-wide lane groups.
    let groups = ceil_div(n.max(1), 4);
    stats.overhead_cycles += groups as f64 * caps.nm_metadata_decode_cycles;
    KernelStats::finalize(gpu, stats)
}

/// Relative memory inefficiency of the tile-compacted kernel: gathering
/// scattered tiles coalesces slightly worse than streaming contiguous rows.
pub const TILE_GATHER_INEFFICIENCY: f64 = 1.15;

/// Cycles charged per tile of the grid for computing the nonzero output
/// positions before the multiplication (the "little slowdown" of §IV-A).
pub const TILE_POSITION_CYCLES: f64 = 16.0;

/// Tile-compacted GEMM (Tile-based Dropout Pattern).
///
/// `kept_tiles` of the `total_tiles` in the weight-matrix grid survive; the
/// executed work is the kept fraction of the dense GEMM, with a small
/// position-computation overhead and slightly less efficient memory
/// gathering than the row variant — which is why the paper measures TDP a
/// little slower than RDP at equal dropout rate.
pub fn tile_compact_gemm(
    gpu: &GpuConfig,
    m: usize,
    k: usize,
    n: usize,
    kept_tiles: usize,
    total_tiles: usize,
) -> KernelStats {
    let total = total_tiles.max(1);
    let kept = kept_tiles.min(total);
    let fraction = kept as f64 / total as f64;

    let dense = gemm_core(gpu, m, k, n);
    let flops = dense.flops * fraction;
    let global_read = dense.global_read_bytes * fraction * TILE_GATHER_INEFFICIENCY;
    // The full output is written: kept positions with results, the rest with
    // zeros (Fig. 3(b) keeps the output dense).
    let global_write = m as f64 * n as f64 * F32;
    let compute_cycles = flops / gpu.flops_per_cycle();
    let memory_cycles = (global_read + global_write) / gpu.bytes_per_cycle();
    let blocks = ((dense.thread_blocks as f64) * fraction).ceil() as usize;
    let waves = ceil_div(blocks.max(1), gpu.num_sms.max(1));
    let overhead_cycles =
        waves as f64 * gpu.global_latency_cycles + total as f64 * TILE_POSITION_CYCLES;

    KernelStats::finalize(
        gpu,
        KernelStats {
            flops,
            global_read_bytes: global_read,
            global_write_bytes: global_write,
            thread_blocks: blocks,
            compute_cycles,
            memory_cycles,
            overhead_cycles,
            launches: 1,
            time_us: 0.0,
        },
    )
}

/// Dense GEMM where each thread naively checks `if (kept)` around its work
/// (Fig. 1(b)).
///
/// Because threads of one warp take both branch directions, the SIMT
/// front-end serialises the two sides: no compute is saved and a divergence
/// penalty is added per warp and K-step, so this kernel is *slower* than the
/// dense GEMM — the paper's motivation for regular patterns.
pub fn divergent_gemm(
    gpu: &GpuConfig,
    m: usize,
    k: usize,
    n: usize,
    dropout_rate: f64,
) -> KernelStats {
    let mut stats = gemm_core(gpu, m, k, n);
    // A per-thread `if (kept)` kernel runs on the SIMT lanes — branching
    // threads cannot feed a matrix engine, so on a tensor-core device this
    // kernel does not get the tensor-core rate (identical on SIMT-only
    // devices, where gemm_flops_per_cycle == flops_per_cycle).
    stats.compute_cycles = stats.flops / gpu.flops_per_cycle();
    // Warps per block for a 32x32 output tile handled by 1024 threads.
    let warps_per_block = (GEMM_TILE * GEMM_TILE) / gpu.warp_size;
    let k_steps = ceil_div(k.max(1), GEMM_TILE);
    // A warp diverges whenever it contains both kept and dropped lanes, which
    // at rate p happens with probability 1 - p^32 - (1-p)^32 ≈ 1 for the
    // rates of interest.
    let p = dropout_rate.clamp(0.0, 1.0);
    let diverge_prob = 1.0 - p.powi(gpu.warp_size as i32) - (1.0 - p).powi(gpu.warp_size as i32);
    let diverging_warps = stats.thread_blocks as f64 * warps_per_block as f64 * diverge_prob;
    stats.overhead_cycles +=
        diverging_warps * k_steps as f64 * gpu.divergence_penalty_cycles / gpu.num_sms as f64;
    KernelStats::finalize(gpu, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::{Activation, KernelSchedule};

    fn gpu() -> GpuConfig {
        GpuConfig::gtx_1080ti()
    }

    /// Row-compacted GEMM keeping `kept_n` of the `n` outputs.
    fn rows(g: &GpuConfig, m: usize, k: usize, n: usize, kept_n: usize) -> KernelStats {
        gather_gemm(g, m, k, n, k, kept_n, GatherIndex::Rows)
    }

    /// Software N:M GEMM keeping `kept_n` of the `n` outputs in 4-lane groups.
    fn lanes(g: &GpuConfig, m: usize, k: usize, n: usize, kept_n: usize) -> KernelStats {
        gather_gemm(g, m, k, n, k, kept_n, GatherIndex::Lanes { m: 4 })
    }

    /// CRS GEMM keeping `kept_k` inner products and `kept_n` outputs.
    fn inner(
        g: &GpuConfig,
        m: usize,
        k: usize,
        n: usize,
        kept_k: usize,
        kept_n: usize,
    ) -> KernelStats {
        gather_gemm(g, m, k, n, kept_k, kept_n, GatherIndex::Inner)
    }

    /// The forward launch [`crate::price_fc_schedule`] prices for an
    /// `a:b` N:M layer — the N:M dispatch lives there — with a fused
    /// identity epilogue so it is a single kernel.
    fn nm_forward(g: &GpuConfig, m: usize, k: usize, n: usize, a: usize, b: usize) -> KernelStats {
        let schedule = KernelSchedule::NmCompact { n: a, m: b };
        crate::price_fc_schedule(g, &schedule, m, k, n, Some(Activation::Identity)).0
    }

    /// `gemm` with the fused identity epilogue over its `kept_n` outputs.
    fn with_epilogue(g: &GpuConfig, gemm: KernelStats, m: usize, kept_n: usize) -> KernelStats {
        fuse_epilogue(g, gemm, m, kept_n, 1.0, 1)
    }

    #[test]
    fn dense_gemm_flops_are_2mkn() {
        let s = dense_gemm(&gpu(), 128, 256, 512);
        assert!((s.flops - 2.0 * 128.0 * 256.0 * 512.0).abs() < 1.0);
        assert_eq!(s.thread_blocks, 4 * 16);
        assert!(s.time_us() > 0.0);
    }

    #[test]
    fn bigger_gemm_takes_longer() {
        let small = dense_gemm(&gpu(), 128, 1024, 1024);
        let large = dense_gemm(&gpu(), 128, 4096, 4096);
        assert!(large.time_us() > small.time_us());
    }

    #[test]
    fn row_compact_is_faster_than_dense_and_slower_than_ideal() {
        let g = gpu();
        let dense = dense_gemm(&g, 128, 2048, 2048);
        let half = rows(&g, 128, 2048, 2048, 1024);
        let ideal = dense_gemm(&g, 128, 2048, 1024);
        assert!(half.time_us() < dense.time_us());
        assert!(half.time_us() >= ideal.time_us());
    }

    #[test]
    fn row_compact_with_all_kept_is_no_faster_than_dense() {
        let g = gpu();
        let dense = dense_gemm(&g, 64, 512, 512);
        let all = rows(&g, 64, 512, 512, 512);
        assert!(all.time_us() >= dense.time_us() * 0.999);
    }

    #[test]
    fn tile_compact_speedup_scales_with_kept_fraction() {
        let g = gpu();
        let dense = dense_gemm(&g, 128, 2048, 2048);
        let grid = (2048 / 32) * (2048 / 32);
        let quarter = tile_compact_gemm(&g, 128, 2048, 2048, grid / 4, grid);
        let half = tile_compact_gemm(&g, 128, 2048, 2048, grid / 2, grid);
        assert!(quarter.time_us() < half.time_us());
        assert!(half.time_us() < dense.time_us());
    }

    #[test]
    fn tile_compact_is_slower_than_row_compact_at_equal_rate() {
        // Paper §IV-A: TDP's speedup is a bit smaller than RDP's because of
        // the nonzero-position bookkeeping.
        let g = gpu();
        let grid = (2048 / 32) * (2048 / 32);
        let row = rows(&g, 128, 2048, 2048, 2048 / 2);
        let tile = tile_compact_gemm(&g, 128, 2048, 2048, grid / 2, grid);
        assert!(tile.time_us() > row.time_us());
    }

    #[test]
    fn tile_compute_is_simt_pinned() {
        // TDP scales the dense tile grid by the kept fraction rather than
        // packing dense operands, so on the tensor-core preset its compute
        // phase prices at the SIMT FMA rate.
        let sparse = GpuConfig::sparse_tensor_core();
        let grid = (2048 / 32) * (2048 / 32);
        let stats = tile_compact_gemm(&sparse, 128, 2048, 2048, grid / 2, grid);
        assert!((stats.compute_cycles - stats.flops / sparse.flops_per_cycle()).abs() < 1.0);
        assert!(sparse.gemm_flops_per_cycle() > sparse.flops_per_cycle());
    }

    #[test]
    fn nm_compact_is_faster_than_dense_and_slower_than_ideal() {
        let g = gpu();
        let dense = dense_gemm(&g, 128, 2048, 2048);
        let half = lanes(&g, 128, 2048, 2048, 1024);
        let ideal = dense_gemm(&g, 128, 2048, 1024);
        assert!(half.time_us() < dense.time_us());
        assert!(half.time_us() >= ideal.time_us());
    }

    #[test]
    fn nm_prices_between_row_and_tile_at_equal_rate() {
        // Contiguous rows < within-group gather < 2-D tile gather.
        let g = gpu();
        let grid = (2048 / 32) * (2048 / 32);
        let row = rows(&g, 128, 2048, 2048, 1024);
        let nm = lanes(&g, 128, 2048, 2048, 1024);
        let tile = tile_compact_gemm(&g, 128, 2048, 2048, grid / 2, grid);
        assert!(nm.time_us() > row.time_us(), "nm should pay a gather cost");
        assert!(
            nm.time_us() < tile.time_us(),
            "nm should beat the 2-D gather"
        );
    }

    #[test]
    fn block_compact_prices_like_row_compact() {
        let g = gpu();
        let row = rows(&g, 128, 2048, 2048, 1024);
        let block = gather_gemm(
            &g,
            128,
            2048,
            2048,
            2048,
            1024,
            GatherIndex::Blocks { total: 64 },
        );
        let ratio = block.time_us() / row.time_us();
        assert!(
            (0.9..1.1).contains(&ratio),
            "block/row ratio {ratio} should be ~1 (both stream contiguous strips)"
        );
    }

    #[test]
    fn structured_kernels_price_monotonically_in_kept_fraction() {
        // Lower kept fraction must never price slower, for every compacted
        // kernel family.
        let g = gpu();
        let (m, k, n) = (128, 2048, 2048);
        let row: Vec<f64> = [2048, 1024, 512, 256]
            .iter()
            .map(|&kept| rows(&g, m, k, n, kept).time_us())
            .collect();
        let nm: Vec<f64> = [2048, 1536, 1024, 512]
            .iter()
            .map(|&kept| lanes(&g, m, k, n, kept).time_us())
            .collect();
        let blocks: Vec<f64> = [64, 48, 32, 16]
            .iter()
            .map(|&kept| {
                let index = GatherIndex::Blocks { total: 64 };
                gather_gemm(&g, m, k, n, k, kept * 32, index).time_us()
            })
            .collect();
        let grid = (n / 32) * (k / 32);
        let tiles: Vec<f64> = [grid, grid / 2, grid / 4, grid / 8]
            .iter()
            .map(|&kept| tile_compact_gemm(&g, m, k, n, kept, grid).time_us())
            .collect();
        for series in [row, nm, blocks, tiles] {
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "dropping more must not price slower: {series:?}"
                );
            }
        }
    }

    #[test]
    fn crs_compact_is_faster_than_dense_and_slower_than_ideal() {
        let g = gpu();
        let dense = dense_gemm(&g, 128, 2048, 2048);
        let half = inner(&g, 128, 2048, 2048, 1024, 2048);
        let ideal = dense_gemm(&g, 128, 1024, 2048);
        assert!(half.time_us() < dense.time_us());
        assert!(half.time_us() >= ideal.time_us());
    }

    #[test]
    fn crs_compact_prices_monotonically_in_kept_k() {
        let g = gpu();
        let series: Vec<f64> = [2048, 1536, 1024, 512, 256]
            .iter()
            .map(|&kk| inner(&g, 128, 2048, 2048, kk, 2048).time_us())
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "sampling fewer inner products must not price slower: {series:?}"
            );
        }
    }

    #[test]
    fn crs_with_all_inner_products_is_no_faster_than_dense() {
        // Degenerate k == K still pays the gather inefficiency and the
        // kept-index metadata decode, so it can never undercut dense.
        for g in [
            GpuConfig::gtx_1080ti(),
            GpuConfig::server_hbm(),
            GpuConfig::sparse_tensor_core(),
        ] {
            let dense = dense_gemm(&g, 64, 512, 512);
            let all = inner(&g, 64, 512, 512, 512, 512);
            assert!(
                all.time_us() >= dense.time_us() * 0.999,
                "{}: crs all-kept {} vs dense {}",
                g.name,
                all.time_us(),
                dense.time_us()
            );
        }
    }

    #[test]
    fn composed_row_crs_is_faster_than_either_axis_alone() {
        // The composed launch executes kk/K × kn/N of the dense work, so it
        // must price below both the pure CRS call and the pure row-compact
        // call at the same per-axis fractions.
        let g = gpu();
        let crs_only = inner(&g, 128, 2048, 2048, 1024, 2048);
        let row_only = rows(&g, 128, 2048, 2048, 1024);
        let composed = inner(&g, 128, 2048, 2048, 1024, 1024);
        assert!(composed.time_us() < crs_only.time_us());
        assert!(composed.time_us() < row_only.time_us());
    }

    #[test]
    fn crs_zero_fills_dropped_output_lanes_only_when_composed() {
        let g = gpu();
        let pure = inner(&g, 128, 2048, 2048, 1024, 2048);
        let composed = inner(&g, 128, 2048, 2048, 1024, 1024);
        // Pure CRS writes the full dense output; the composed call writes the
        // kept lanes plus a zero-fill of the dropped ones — in both cases the
        // total write volume covers the full output matrix.
        assert!((pure.global_write_bytes - 128.0 * 2048.0 * F32).abs() < 1.0);
        assert!((composed.global_write_bytes - 128.0 * 2048.0 * F32).abs() < 1.0);
    }

    #[test]
    fn crs_compute_is_simt_pinned() {
        // On the tensor-core preset the scattered K-gather cannot feed the
        // matrix engine: the compute phase prices at the SIMT FMA rate.
        let sparse = GpuConfig::sparse_tensor_core();
        let stats = inner(&sparse, 128, 2048, 2048, 1024, 2048);
        assert!((stats.compute_cycles - stats.flops / sparse.flops_per_cycle()).abs() < 1.0);
    }

    #[test]
    fn crs_degenerate_shapes_keep_at_least_one_inner_product() {
        let g = gpu();
        let s = inner(&g, 4, 8, 8, 0, 8);
        assert!(s.flops > 0.0);
        assert!(s.time_us() > 0.0);
    }

    #[test]
    fn nm_dispatch_is_capability_and_shape_gated() {
        // 2:4 on the sparse-tensor-core preset routes to the hardware
        // roofline; every other (device, shape) combination prices as the
        // software gather.
        let sparse = GpuConfig::sparse_tensor_core();
        let (m, k, n) = (128, 2048, 2048);
        assert_eq!(
            nm_forward(&sparse, m, k, n, 2, 4),
            with_epilogue(&sparse, nm_tensor_core_gemm(&sparse, m, k, n), m, 1024),
            "2:4 on the sparse preset must price as tensor-core"
        );
        assert_eq!(
            nm_forward(&sparse, m, k, n, 1, 4),
            with_epilogue(&sparse, lanes(&sparse, m, k, n, 512), m, 512),
            "non-2:4 shapes fall back to the gather model"
        );
        for gpu in [GpuConfig::gtx_1080ti(), GpuConfig::server_hbm()] {
            assert_eq!(
                nm_forward(&gpu, m, k, n, 2, 4),
                with_epilogue(&gpu, lanes(&gpu, m, k, n, 1024), m, 1024),
                "{}: SIMT-only devices always gather",
                gpu.name
            );
        }
    }

    #[test]
    fn tensor_core_2_4_beats_its_own_gather_pricing() {
        // The hardware win: on identical silicon, the 2:4 tensor-core
        // roofline is strictly cheaper than pricing the same plan as a
        // software gather — no gather read inefficiency, hardware metadata
        // decode, and compute on the sparse tensor cores instead of the
        // FMA lanes.
        let sparse = GpuConfig::sparse_tensor_core();
        for (m, k, n) in [(128, 2048, 2048), (32, 784, 2048), (256, 1500, 6000)] {
            let tc = nm_tensor_core_gemm(&sparse, m, k, n);
            let gather = lanes(&sparse, m, k, n, n / 2);
            assert!(
                tc.time_us() < gather.time_us(),
                "({m},{k},{n}): tensor-core {} >= gather {}",
                tc.time_us(),
                gather.time_us()
            );
        }
    }

    #[test]
    fn tensor_core_2_4_beats_dense_on_the_same_device() {
        let sparse = GpuConfig::sparse_tensor_core();
        let dense = dense_gemm(&sparse, 128, 2048, 2048);
        let tc = nm_tensor_core_gemm(&sparse, 128, 2048, 2048);
        assert!(tc.time_us() < dense.time_us());
        // … but never cheaper than the ideal half-width dense GEMM plus its
        // unavoidable zero-fill-free lower bound.
        let ideal = dense_gemm(&sparse, 128, 2048, 1024);
        assert!(tc.time_us() >= ideal.time_us() * 0.999);
    }

    #[test]
    fn gather_pricing_is_identical_with_and_without_tensor_cores_disabled() {
        // The stripped device's N:M dispatch picks the gather model:
        // without_tensor_cores() is a faithful "same silicon, SIMT pricing"
        // baseline.
        let sparse = GpuConfig::sparse_tensor_core();
        let stripped = sparse.without_tensor_cores();
        assert_eq!(
            nm_forward(&stripped, 128, 1024, 1024, 2, 4),
            with_epilogue(&stripped, lanes(&stripped, 128, 1024, 1024, 512), 128, 512),
        );
    }

    #[test]
    fn structured_kernels_price_monotonically_on_the_sparse_preset_too() {
        // The kept-fraction monotonicity of the compacted family must
        // survive the capability-aware dispatch (the 2:4 point switches
        // cost models mid-series).
        let g = GpuConfig::sparse_tensor_core();
        let (m, k, n) = (128, 2048, 2048);
        let nm: Vec<f64> = [(4, 4), (3, 4), (2, 4), (1, 4)]
            .iter()
            .map(|&(a, b)| nm_forward(&g, m, k, n, a, b).time_us())
            .collect();
        for w in nm.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "dropping more must not price slower: {nm:?}"
            );
        }
    }

    #[test]
    fn structured_kernels_handle_zero_width_outputs() {
        // Degenerate 0-wide layers must not underflow the dropped-output
        // accounting (regression: `n - kept_n` with kept_n clamped to 1).
        let g = gpu();
        let nm = lanes(&g, 8, 8, 0, 1);
        let block = gather_gemm(&g, 8, 8, 0, 8, 1, GatherIndex::Blocks { total: 2 });
        assert!(nm.time_us().is_finite());
        assert!(block.time_us().is_finite());
        assert!(nm.global_write_bytes < 1e3, "{}", nm.global_write_bytes);
        assert!(
            block.global_write_bytes < 1e3,
            "{}",
            block.global_write_bytes
        );
    }

    #[test]
    fn divergent_gemm_is_never_faster_than_dense() {
        let g = gpu();
        for &p in &[0.3, 0.5, 0.7] {
            let dense = dense_gemm(&g, 128, 2048, 2048);
            let divergent = divergent_gemm(&g, 128, 2048, 2048, p);
            assert!(
                divergent.time_us() >= dense.time_us(),
                "divergent {p} should not beat dense"
            );
        }
    }

    #[test]
    fn divergent_gemm_never_runs_on_the_tensor_cores() {
        // The naive per-thread `if (kept)` kernel of Fig. 1(b) cannot feed
        // a matrix engine: even on the sparse-tensor-core preset its
        // compute phase is priced at the SIMT FMA rate, like the gather
        // kernel and unlike the well-tiled dense GEMM.
        let g = GpuConfig::sparse_tensor_core();
        let s = divergent_gemm(&g, 128, 2048, 2048, 0.5);
        assert!(
            (s.compute_cycles - s.flops / g.flops_per_cycle()).abs() < 1e-6,
            "divergent compute must use the SIMT rate"
        );
        let dense = dense_gemm(&g, 128, 2048, 2048);
        assert!(s.time_us() >= dense.time_us());
    }

    #[test]
    fn dropout_mask_kernel_is_memory_bound() {
        let s = conventional_dropout_layer(&gpu(), 128, 2048);
        assert!(s.is_memory_bound());
        assert_eq!(s.launches, 2);
    }

    #[test]
    fn elementwise_traffic_counts_reads_and_writes() {
        let s = elementwise(&gpu(), 10, 10, 2, 1, 1.0);
        assert!((s.global_read_bytes - 800.0).abs() < 1e-9);
        assert!((s.global_write_bytes - 400.0).abs() < 1e-9);
    }

    #[test]
    fn merged_stats_add_components() {
        let a = dense_gemm(&gpu(), 32, 32, 32);
        let b = dense_gemm(&gpu(), 32, 32, 32);
        let m = a.merged_with(&b);
        assert!((m.flops - 2.0 * a.flops).abs() < 1.0);
        assert!((m.time_us() - 2.0 * a.time_us()).abs() < 1e-9);
        assert_eq!(m.launches, 2);
    }

    #[test]
    fn empty_stats_are_zero() {
        let e = KernelStats::empty();
        assert_eq!(e.time_us(), 0.0);
        assert_eq!(e.global_bytes(), 0.0);
    }
}
