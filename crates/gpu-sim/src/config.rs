//! GPU device description used by the timing model.

use std::fmt;

/// Execution-unit capabilities beyond the plain SIMT FMA lanes.
///
/// The base [`GpuConfig`] describes a generic SIMT device; this struct adds
/// the capabilities that change *which* cost model a kernel prices under.
/// Today that is tensor cores and their hardware 2:4 structured-sparsity
/// mode: a device with [`DeviceCapabilities::simt_only`] prices every N:M
/// plan as a software lane gather ([`crate::kernels::gather_gemm`] under
/// [`crate::kernels::GatherIndex::Lanes`]), while a sparse-tensor-core
/// device prices hardware-2:4 plans through the
/// [`crate::kernels::nm_tensor_core_gemm`] roofline instead.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCapabilities {
    /// Dense tensor-core throughput in FLOPs per cycle across the whole
    /// device (0.0 = no tensor cores; GEMMs run on the SIMT FMA lanes).
    pub dense_tensor_core_flops_per_cycle: f64,
    /// Throughput multiplier the tensor cores achieve over their *dense*
    /// rate when the weight operand is in the hardware 2:4
    /// structured-sparse format (1.0 = no sparse acceleration).
    pub sparse_2_4_speedup: f64,
    /// Cycles charged per 4-wide lane group for decoding the 2:4 sparsity
    /// metadata in hardware — much cheaper than the software gather path's
    /// [`crate::kernels::GATHER_METADATA_CYCLES`].
    pub nm_metadata_decode_cycles: f64,
}

impl DeviceCapabilities {
    /// A plain SIMT device: no tensor cores, no sparse acceleration. This is
    /// what every pre-Ampere preset (and the embedded preset) carries.
    pub fn simt_only() -> Self {
        Self {
            dense_tensor_core_flops_per_cycle: 0.0,
            sparse_2_4_speedup: 1.0,
            nm_metadata_decode_cycles: 0.0,
        }
    }

    /// Ampere-class sparse tensor cores: ~155 TFLOP/s dense at 1.41 GHz
    /// (110k FLOPs/cycle device-wide), a 2× throughput step for hardware
    /// 2:4 operands, and near-free metadata decode.
    pub fn ampere_sparse_tensor_core() -> Self {
        Self {
            dense_tensor_core_flops_per_cycle: 110_000.0,
            sparse_2_4_speedup: 2.0,
            nm_metadata_decode_cycles: 0.5,
        }
    }

    /// `true` when the device has tensor cores at all.
    pub fn has_tensor_cores(&self) -> bool {
        self.dense_tensor_core_flops_per_cycle > 0.0
    }

    /// `true` when an `n:m` structured-sparsity plan maps onto the hardware
    /// sparse-tensor-core mode. Only the 2:4 shape is accelerated — every
    /// other `(n, m)` falls back to the software gather cost model, exactly
    /// like on a device with no tensor cores.
    pub fn accelerates_nm(&self, n: usize, m: usize) -> bool {
        self.has_tensor_cores() && self.sparse_2_4_speedup > 1.0 && n == 2 && m == 4
    }

    /// Validates that the capability description is physically meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the sparse speedup is below 1.0 or any field is negative —
    /// sparse mode can be absent (factor 1.0) but never a slowdown, and
    /// negative throughput or decode cost is always a programming error.
    pub fn assert_valid(&self) {
        assert!(
            self.dense_tensor_core_flops_per_cycle >= 0.0,
            "tensor-core throughput must be non-negative"
        );
        assert!(
            self.sparse_2_4_speedup >= 1.0,
            "sparse 2:4 speedup must be at least 1.0"
        );
        assert!(
            self.nm_metadata_decode_cycles >= 0.0,
            "metadata decode cost must be non-negative"
        );
    }
}

impl Default for DeviceCapabilities {
    fn default() -> Self {
        Self::simt_only()
    }
}

/// First-order description of a SIMT GPU.
///
/// Only quantities the timing model actually uses are included. Three
/// presets cover the hardware classes the benches compare:
/// [`GpuConfig::gtx_1080ti`] (the consumer card the paper evaluates on),
/// [`GpuConfig::server_hbm`] (a bandwidth-rich server accelerator), and
/// [`GpuConfig::sparse_tensor_core`] (an A100-class part whose tensor cores
/// accelerate hardware 2:4 structured sparsity). The generic constructor
/// lets benches explore other device shapes (e.g. a bandwidth-starved part
/// where the compacted kernels win even more).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (32 for every NVIDIA part).
    pub warp_size: usize,
    /// Shared memory available to one thread block, in bytes (48 KB on the
    /// GTX 1080Ti).
    pub shared_mem_per_block: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Single-precision fused-multiply-add lanes per SM per cycle (each FMA
    /// counts as two FLOPs).
    pub fma_lanes_per_sm: usize,
    /// Global-memory bandwidth in GB/s.
    pub global_bandwidth_gbps: f64,
    /// Latency of a global-memory access in cycles (~100× shared memory, per
    /// the paper's §II-B).
    pub global_latency_cycles: f64,
    /// Latency of a shared-memory access in cycles.
    pub shared_latency_cycles: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub kernel_launch_overhead_us: f64,
    /// Extra cycles a warp pays when a conditional branch diverges and both
    /// sides must be serialised.
    pub divergence_penalty_cycles: f64,
    /// Execution-unit capabilities beyond the SIMT FMA lanes (tensor cores
    /// and their hardware 2:4 sparse mode). [`DeviceCapabilities::simt_only`]
    /// for every pre-Ampere preset.
    pub capabilities: DeviceCapabilities,
}

impl GpuConfig {
    /// The GTX 1080Ti preset used throughout the paper's evaluation:
    /// 28 SMs, 1.58 GHz, 484 GB/s GDDR5X, 48 KB shared memory per block.
    /// No tensor cores — every N:M plan prices as a software gather.
    pub fn gtx_1080ti() -> Self {
        Self {
            name: "NVIDIA GTX 1080Ti".to_string(),
            num_sms: 28,
            warp_size: 32,
            shared_mem_per_block: 48 * 1024,
            clock_ghz: 1.58,
            fma_lanes_per_sm: 128,
            global_bandwidth_gbps: 484.0,
            global_latency_cycles: 400.0,
            shared_latency_cycles: 4.0,
            kernel_launch_overhead_us: 5.0,
            divergence_penalty_cycles: 8.0,
            capabilities: DeviceCapabilities::simt_only(),
        }
    }

    /// A bandwidth-rich server-class preset (HBM2e-era accelerator shape:
    /// ~108 SMs at 1.41 GHz fed by ~1.5 TB/s of stacked memory). Compared
    /// with the consumer GTX 1080Ti the compute:bandwidth ratio shifts
    /// toward compute, so the compacted kernels — whose savings are mostly
    /// FLOPs — keep their advantage; benches use this preset to check that
    /// the structured-vs-dense speedup ordering is not an artefact of one
    /// device shape. Deliberately modelled *without* tensor cores so it
    /// isolates the bandwidth axis from the sparse-tensor-core axis.
    pub fn server_hbm() -> Self {
        Self {
            name: "Server-class HBM GPU".to_string(),
            num_sms: 108,
            warp_size: 32,
            shared_mem_per_block: 96 * 1024,
            clock_ghz: 1.41,
            fma_lanes_per_sm: 64,
            global_bandwidth_gbps: 1555.0,
            global_latency_cycles: 350.0,
            shared_latency_cycles: 4.0,
            kernel_launch_overhead_us: 3.0,
            divergence_penalty_cycles: 8.0,
            capabilities: DeviceCapabilities::simt_only(),
        }
    }

    /// An A100-class sparse-tensor-core preset: the [`Self::server_hbm`]
    /// SM array fed by ~2 TB/s of HBM2e, plus Ampere tensor cores whose
    /// hardware 2:4 mode doubles their dense throughput
    /// ([`DeviceCapabilities::ampere_sparse_tensor_core`]).
    ///
    /// On this device a 2:4 `NmCompact` plan is priced by the
    /// [`crate::kernels::nm_tensor_core_gemm`] roofline — compressed weight
    /// operands, hardware metadata decode, no software gather penalty —
    /// while every non-2:4 N:M shape (and every N:M plan on the other
    /// presets) still pays the SIMT-gather model. This is the device shape
    /// on which the N:M scheme family shows the hardware win that motivates
    /// it (arXiv:2203.05705).
    pub fn sparse_tensor_core() -> Self {
        Self {
            name: "Sparse-tensor-core GPU (A100-class)".to_string(),
            num_sms: 108,
            warp_size: 32,
            shared_mem_per_block: 164 * 1024,
            clock_ghz: 1.41,
            fma_lanes_per_sm: 64,
            global_bandwidth_gbps: 2039.0,
            global_latency_cycles: 320.0,
            shared_latency_cycles: 4.0,
            kernel_launch_overhead_us: 3.0,
            divergence_penalty_cycles: 8.0,
            capabilities: DeviceCapabilities::ampere_sparse_tensor_core(),
        }
    }

    /// A deliberately small "embedded" preset used by tests and ablations to
    /// check that relative conclusions are not an artefact of one device
    /// shape.
    pub fn small_embedded() -> Self {
        Self {
            name: "Small embedded GPU".to_string(),
            num_sms: 4,
            warp_size: 32,
            shared_mem_per_block: 32 * 1024,
            clock_ghz: 1.0,
            fma_lanes_per_sm: 64,
            global_bandwidth_gbps: 60.0,
            global_latency_cycles: 500.0,
            shared_latency_cycles: 4.0,
            kernel_launch_overhead_us: 8.0,
            divergence_penalty_cycles: 8.0,
            capabilities: DeviceCapabilities::simt_only(),
        }
    }

    /// This device with its tensor cores stripped
    /// ([`DeviceCapabilities::simt_only`]): identical silicon — SMs, clock,
    /// bandwidth — but every GEMM priced on the SIMT FMA lanes and every
    /// N:M plan through the software gather model. Benches and tests use
    /// this to isolate the sparse-tensor-core win from the raw device shape
    /// (the "same plan's SIMT-gather pricing" baseline).
    pub fn without_tensor_cores(&self) -> Self {
        let mut gpu = self.clone();
        gpu.capabilities = DeviceCapabilities::simt_only();
        gpu
    }

    /// Peak single-precision throughput of the SIMT FMA lanes in FLOP per
    /// cycle across the device.
    pub fn flops_per_cycle(&self) -> f64 {
        // Each FMA lane retires one multiply-add (2 FLOPs) per cycle.
        (self.num_sms * self.fma_lanes_per_sm) as f64 * 2.0
    }

    /// Throughput a well-tiled dense GEMM achieves, in FLOP per cycle: the
    /// tensor cores when the device has them, the SIMT FMA lanes otherwise.
    /// This is the rate [`crate::kernels`] prices GEMM compute phases at;
    /// elementwise and epilogue work always runs on the SIMT lanes
    /// ([`Self::flops_per_cycle`]).
    pub fn gemm_flops_per_cycle(&self) -> f64 {
        self.flops_per_cycle()
            .max(self.capabilities.dense_tensor_core_flops_per_cycle)
    }

    /// Peak single-precision throughput in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.flops_per_cycle() * self.clock_ghz
    }

    /// Global-memory bytes transferable per core cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.global_bandwidth_gbps / self.clock_ghz
    }

    /// Converts a cycle count into microseconds at the core clock.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }

    /// Validates that the configuration is physically meaningful.
    ///
    /// # Panics
    ///
    /// Panics if any capacity, clock, or bandwidth is zero — a configuration
    /// like that would make every kernel take zero or infinite time and is
    /// always a programming error. Also validates the capability block
    /// ([`DeviceCapabilities::assert_valid`]).
    pub fn assert_valid(&self) {
        assert!(self.num_sms > 0, "GPU must have at least one SM");
        assert!(self.warp_size > 0, "warp size must be positive");
        assert!(
            self.shared_mem_per_block > 0,
            "shared memory must be positive"
        );
        assert!(self.clock_ghz > 0.0, "clock must be positive");
        assert!(self.fma_lanes_per_sm > 0, "FMA lanes must be positive");
        assert!(
            self.global_bandwidth_gbps > 0.0,
            "bandwidth must be positive"
        );
        self.capabilities.assert_valid();
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx_1080ti()
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.2} GHz, {:.0} GB/s, {:.1} TFLOP/s peak",
            self.name,
            self.num_sms,
            self.clock_ghz,
            self.global_bandwidth_gbps,
            self.peak_gflops() / 1e3
        )?;
        if self.capabilities.has_tensor_cores() {
            write!(
                f,
                ", {:.0} TFLOP/s tensor-core dense, {:.1}x sparse 2:4",
                self.capabilities.dense_tensor_core_flops_per_cycle * self.clock_ghz / 1e3,
                self.capabilities.sparse_2_4_speedup
            )?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx_1080ti_preset_matches_paper_facts() {
        let gpu = GpuConfig::gtx_1080ti();
        gpu.assert_valid();
        assert_eq!(gpu.warp_size, 32);
        assert_eq!(gpu.shared_mem_per_block, 48 * 1024);
        // Peak should be in the ~11 TFLOP/s ballpark of the real card.
        let tflops = gpu.peak_gflops() / 1e3;
        assert!((10.0..13.0).contains(&tflops), "peak {tflops} TFLOP/s");
        // Global memory is ~100x slower than shared memory (paper §II-B).
        assert!(gpu.global_latency_cycles / gpu.shared_latency_cycles >= 50.0);
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let gpu = GpuConfig::gtx_1080ti();
        assert!((gpu.peak_gflops() - gpu.flops_per_cycle() * gpu.clock_ghz).abs() < 1e-9);
        assert!(gpu.bytes_per_cycle() > 0.0);
        assert!((gpu.cycles_to_us(gpu.clock_ghz * 1e3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_the_paper_gpu() {
        assert_eq!(GpuConfig::default().name, GpuConfig::gtx_1080ti().name);
    }

    #[test]
    fn embedded_preset_is_slower() {
        assert!(GpuConfig::small_embedded().peak_gflops() < GpuConfig::gtx_1080ti().peak_gflops());
    }

    #[test]
    fn preset_invariants_hold() {
        // The preset family must keep its intended ordering: the server
        // preset out-feeds the consumer card, and the sparse-tensor-core
        // preset out-feeds (or matches) the server part while being the
        // only one with sparse acceleration.
        let gtx = GpuConfig::gtx_1080ti();
        let server = GpuConfig::server_hbm();
        let sparse = GpuConfig::sparse_tensor_core();
        for gpu in [&gtx, &server, &sparse, &GpuConfig::small_embedded()] {
            gpu.assert_valid();
        }
        assert!(
            server.global_bandwidth_gbps > gtx.global_bandwidth_gbps,
            "server_hbm must be the bandwidth-rich preset"
        );
        assert!(
            sparse.global_bandwidth_gbps >= server.global_bandwidth_gbps,
            "sparse_tensor_core is an HBM2e-class part"
        );
        assert!(sparse.capabilities.has_tensor_cores());
        assert!(
            sparse.capabilities.sparse_2_4_speedup > 1.0,
            "the sparse preset must actually accelerate 2:4"
        );
        // Tensor cores beat the same device's SIMT lanes, or they would
        // never be selected by the roofline.
        assert!(
            sparse.capabilities.dense_tensor_core_flops_per_cycle > sparse.flops_per_cycle(),
            "tensor-core rate must exceed the SIMT FMA rate"
        );
        // Every other preset is SIMT-only and prices GEMMs on the FMA lanes.
        for gpu in [&gtx, &server, &GpuConfig::small_embedded()] {
            assert!(!gpu.capabilities.has_tensor_cores(), "{}", gpu.name);
            assert_eq!(gpu.gemm_flops_per_cycle(), gpu.flops_per_cycle());
        }
        assert_eq!(
            sparse.gemm_flops_per_cycle(),
            sparse.capabilities.dense_tensor_core_flops_per_cycle
        );
    }

    #[test]
    fn capabilities_gate_the_hardware_2_4_shape_only() {
        let caps = DeviceCapabilities::ampere_sparse_tensor_core();
        assert!(caps.accelerates_nm(2, 4));
        assert!(!caps.accelerates_nm(1, 4), "1:4 is not a hardware shape");
        assert!(!caps.accelerates_nm(4, 8), "4:8 is not a hardware shape");
        assert!(!caps.accelerates_nm(2, 2));
        let simt = DeviceCapabilities::simt_only();
        assert!(!simt.accelerates_nm(2, 4));
        assert!(!simt.has_tensor_cores());
    }

    #[test]
    fn without_tensor_cores_strips_only_capabilities() {
        let sparse = GpuConfig::sparse_tensor_core();
        let stripped = sparse.without_tensor_cores();
        assert_eq!(stripped.capabilities, DeviceCapabilities::simt_only());
        assert_eq!(stripped.num_sms, sparse.num_sms);
        assert_eq!(stripped.global_bandwidth_gbps, sparse.global_bandwidth_gbps);
        assert_eq!(stripped.clock_ghz, sparse.clock_ghz);
        assert_eq!(stripped.gemm_flops_per_cycle(), stripped.flops_per_cycle());
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn assert_valid_rejects_zero_sms() {
        let mut gpu = GpuConfig::gtx_1080ti();
        gpu.num_sms = 0;
        gpu.assert_valid();
    }

    #[test]
    #[should_panic(expected = "sparse 2:4 speedup must be at least 1.0")]
    fn assert_valid_rejects_sparse_slowdown() {
        let mut gpu = GpuConfig::sparse_tensor_core();
        gpu.capabilities.sparse_2_4_speedup = 0.5;
        gpu.assert_valid();
    }

    #[test]
    fn display_mentions_name_and_sms() {
        let s = GpuConfig::gtx_1080ti().to_string();
        assert!(s.contains("1080Ti"));
        assert!(s.contains("28 SMs"));
        // The sparse preset advertises its tensor cores.
        let s = GpuConfig::sparse_tensor_core().to_string();
        assert!(s.contains("tensor-core"), "{s}");
        assert!(s.contains("sparse 2:4"), "{s}");
    }
}
