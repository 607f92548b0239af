//! Query the GPU timing model directly: per-kernel and per-iteration times
//! for the paper's MLP and LSTM configurations, across dropout rates,
//! network sizes and all three device presets — the consumer GTX 1080Ti,
//! the bandwidth-rich server HBM part, and the A100-class
//! sparse-tensor-core preset where hardware 2:4 N:M pricing kicks in.
//!
//! Run with `cargo run --example gpu_speedup_model`.

use approx_dropout::{scheme, DropoutRate};
use gpu_sim::kernels::{self, GatherIndex};
use gpu_sim::{GpuConfig, LstmSpec, MlpSpec, NetworkTimingModel, DEFAULT_TIMING_SAMPLES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let presets = [
        GpuConfig::gtx_1080ti(),
        GpuConfig::server_hbm(),
        GpuConfig::sparse_tensor_core(),
    ];

    for gpu in &presets {
        println!("device: {gpu}");

        println!("  single GEMM (batch 128, 2048 -> 2048):");
        let dense = kernels::dense_gemm(gpu, 128, 2048, 2048);
        println!("    dense GEMM            {:>8.1} us", dense.time_us());
        for dp in [2usize, 3, 5] {
            let row =
                kernels::gather_gemm(gpu, 128, 2048, 2048, 2048, 2048 / dp, GatherIndex::Rows);
            println!(
                "    row-compact (dp = {dp})   {:>8.1} us  ({:.2}x)",
                row.time_us(),
                dense.time_us() / row.time_us()
            );
        }
        // N:M 2:4 prices by capability, as `price_fc_schedule` does:
        // software gather on the SIMT presets, the sparse-tensor-core
        // roofline on the A100-class preset.
        let lanes = GatherIndex::Lanes { m: 4 };
        let gather = kernels::gather_gemm(gpu, 128, 2048, 2048, 2048, 1024, lanes);
        let accelerated = gpu.capabilities.accelerates_nm(2, 4);
        let (nm, path) = if accelerated {
            (
                kernels::nm_tensor_core_gemm(gpu, 128, 2048, 2048),
                "tensor-core",
            )
        } else {
            (gather.clone(), "SIMT gather")
        };
        println!(
            "    nm 2:4 ({path:<11})  {:>8.1} us  ({:.2}x)",
            nm.time_us(),
            dense.time_us() / nm.time_us()
        );
        if accelerated {
            println!(
                "    nm 2:4 (gather, same silicon) {:>4.1} us  ({:.2}x over gather)",
                gather.time_us(),
                gather.time_us() / nm.time_us()
            );
        }

        // The CRS sampled GEMM compacts the *inner* dimension and leaves the
        // output dense; the composed kernel compacts both axes at once.
        let crs = kernels::gather_gemm(gpu, 128, 2048, 2048, 1024, 2048, GatherIndex::Inner);
        println!(
            "    crs (k/K = 1/2)       {:>8.1} us  ({:.2}x)",
            crs.time_us(),
            dense.time_us() / crs.time_us()
        );
        let row_crs = kernels::gather_gemm(gpu, 128, 2048, 2048, 1024, 1024, GatherIndex::Inner);
        println!(
            "    row x crs (1/2, 1/2)  {:>8.1} us  ({:.2}x)",
            row_crs.time_us(),
            dense.time_us() / row_crs.time_us()
        );

        println!("  end-to-end iteration speedups vs conventional dropout:");
        println!(
            "  {:<28} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "network", "p=0.3", "p=0.5", "p=0.7", "2:4", "crs 1/2"
        );
        let networks: Vec<(String, NetworkTimingModel)> = vec![
            (
                "MLP 2048x2048".to_string(),
                NetworkTimingModel::mlp(gpu.clone(), MlpSpec::paper_mlp()),
            ),
            (
                "MLP 4096x4096".to_string(),
                NetworkTimingModel::mlp(gpu.clone(), MlpSpec::with_hidden(4096, 4096)),
            ),
            (
                "LSTM 2x1500 (dictionary)".to_string(),
                NetworkTimingModel::lstm(gpu.clone(), LstmSpec::paper_dictionary_lstm()),
            ),
            (
                "LSTM 3x1500 (PTB)".to_string(),
                NetworkTimingModel::lstm(gpu.clone(), LstmSpec::paper_ptb_lstm()),
            ),
        ];
        for (name, model) in &networks {
            let mut row = format!("  {name:<28}");
            for &p in &[0.3, 0.5, 0.7] {
                let rate = DropoutRate::new(p)?;
                let speedup = model.speedup(
                    &*scheme::bernoulli(rate),
                    &*scheme::row(rate, 16)?,
                    DEFAULT_TIMING_SAMPLES,
                    11,
                );
                row.push_str(&format!(" {speedup:>7.2}x"));
            }
            let nm_speedup = model.speedup(
                &*scheme::bernoulli(DropoutRate::new(0.5)?),
                &*scheme::nm(2, 4)?,
                DEFAULT_TIMING_SAMPLES,
                11,
            );
            row.push_str(&format!(" {nm_speedup:>7.2}x"));
            // CRS approximates the dense GEMM, so its column is measured
            // against the no-dropout baseline rather than Bernoulli. The
            // LSTM rows print 1.00x: their droppable positions are
            // vector-shaped, so CRS plans degenerate to keeping every
            // inner product and price exactly dense.
            let crs_speedup = model.speedup(
                &*scheme::none(),
                &*scheme::crs(0.5)?,
                DEFAULT_TIMING_SAMPLES,
                11,
            );
            row.push_str(&format!(" {crs_speedup:>7.2}x"));
            println!("{row}");
        }

        // Composed dropout×CRS: row dropout compacts the output dimension
        // while CRS samples the inner one in the same kernel call — vs the
        // dense baseline the composed scheme must beat either axis alone.
        let mlp = NetworkTimingModel::mlp(gpu.clone(), MlpSpec::paper_mlp());
        let rate = DropoutRate::new(0.5)?;
        let s_row = mlp.speedup(
            &*scheme::none(),
            &*scheme::row(rate, 16)?,
            DEFAULT_TIMING_SAMPLES,
            11,
        );
        let s_crs = mlp.speedup(
            &*scheme::none(),
            &*scheme::crs(0.5)?,
            DEFAULT_TIMING_SAMPLES,
            11,
        );
        let s_composed = mlp.speedup(
            &*scheme::none(),
            &*scheme::row_crs(rate, 16, 0.5)?,
            DEFAULT_TIMING_SAMPLES,
            11,
        );
        println!(
            "  composed row(0.5) x crs(1/2) on the paper MLP, vs dense: \
             {s_composed:.2}x (row alone {s_row:.2}x, crs alone {s_crs:.2}x)"
        );
        println!();
    }
    Ok(())
}
