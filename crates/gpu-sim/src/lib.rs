//! Analytical SIMT GPU timing model.
//!
//! The paper measures training-time speedups on an NVIDIA GTX 1080Ti. This
//! crate is the reproduction's stand-in for that hardware: a first-order
//! timing model of a SIMT GPU executing the kernels that dominate DNN
//! training — tiled GEMM, the elementwise dropout-mask kernels, and the
//! compacted GEMMs enabled by the regular dropout patterns. Three device
//! presets span the hardware classes the benches compare —
//! [`GpuConfig::gtx_1080ti`], [`GpuConfig::server_hbm`] and the
//! tensor-core-equipped [`GpuConfig::sparse_tensor_core`] — and pricing is
//! **capability-aware**: a [`DeviceCapabilities`] block on the config
//! selects, per kernel, between the SIMT cost models and the hardware
//! 2:4 sparse-tensor-core roofline ([`kernels::nm_tensor_core_gemm`]).
//!
//! The model charges each kernel for
//!
//! * compute: `2·M·K·N` FLOPs executed at the device's peak FMA throughput,
//! * global-memory traffic: operand tiles streamed through the 48 KB shared
//!   memory with the reuse a 32×32 tiling achieves,
//! * a per-kernel launch overhead, and
//! * (for the divergent-branch variant) the SIMT serialisation penalty that
//!   motivates the paper's Fig. 1(b).
//!
//! A kernel's time is the maximum of its compute and memory phases (the
//! usual roofline assumption) plus fixed overheads. Layer- and network-level
//! helpers in [`training`] compose kernel times into per-iteration training
//! time so that every speedup figure of the paper can be regenerated.
//!
//! Timing is **plan-driven**: [`training::NetworkTimingModel`] asks each
//! layer's `approx_dropout::DropoutScheme` for the same per-iteration
//! `DropoutPlan` the training passes execute, and prices the plan's
//! `KernelSchedule` — so speedup figures are derived from exactly the
//! dropout decisions the numerics ran with.
//!
//! Absolute times are *not* calibrated against real silicon; only relative
//! comparisons (speedup ratios, crossover trends) are meaningful, which is
//! what the reproduction reports.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{GpuConfig, kernels};
//!
//! let gpu = GpuConfig::gtx_1080ti();
//! let dense = kernels::dense_gemm(&gpu, 128, 2048, 2048);
//! let rows = kernels::GatherIndex::Rows;
//! let compact = kernels::gather_gemm(&gpu, 128, 2048, 2048, 2048, 1024, rows);
//! assert!(compact.time_us() < dense.time_us());
//! ```

pub mod config;
pub mod kernels;
pub mod queueing;
pub mod training;

pub use config::{DeviceCapabilities, GpuConfig};
pub use kernels::KernelStats;
pub use queueing::{hold_batch, md1_wait_us, merge_win_us};
pub use training::{
    price_fc_schedule, LayerTiming, LstmSpec, MlpSpec, NetworkTimingModel, TrainingTimeBreakdown,
    TransformerSpec, DEFAULT_TIMING_SAMPLES,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_round_trip() {
        let gpu = GpuConfig::gtx_1080ti();
        let stats = kernels::dense_gemm(&gpu, 64, 64, 64);
        assert!(stats.time_us() > 0.0);
    }
}
