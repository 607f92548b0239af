//! Fig. 1(b) motivation — naive `if (kept)` skipping inside the GEMM does not
//! speed anything up because the SIMT front-end serialises divergent warps,
//! while the regular patterns do.

use approx_dropout::{scheme, DropoutRate, DropoutScheme};
use bench::Report;
use gpu_sim::kernels::{self, GatherIndex};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel, DEFAULT_TIMING_SAMPLES};

fn main() {
    let gpu = GpuConfig::gtx_1080ti();
    let (m, k, n) = (128usize, 2048usize, 2048usize);

    let mut kernel_report = Report::new(
        "Fig. 1(b) — single GEMM (128 x 2048 x 2048), dropout rate 0.5",
        &["kernel", "time (us)", "vs dense"],
    );
    let dense = kernels::dense_gemm(&gpu, m, k, n);
    let divergent = kernels::divergent_gemm(&gpu, m, k, n, 0.5);
    let row = kernels::gather_gemm(&gpu, m, k, n, k, n / 2, GatherIndex::Rows);
    let grid = (k / 32) * (n / 32);
    let tile = kernels::tile_compact_gemm(&gpu, m, k, n, grid / 2, grid);
    for (name, stats) in [
        ("dense GEMM", &dense),
        ("divergent if-else skip", &divergent),
        ("row-compact GEMM", &row),
        ("tile-compact GEMM", &tile),
    ] {
        kernel_report.add_row(&[
            name.to_string(),
            format!("{:.1}", stats.time_us()),
            format!("{:.2}x", dense.time_us() / stats.time_us()),
        ]);
    }
    kernel_report.print();

    let model = NetworkTimingModel::mlp(gpu, MlpSpec::paper_mlp());
    let mut net_report = Report::new(
        "End-to-end MLP iteration (2048x2048, batch 128, dropout 0.5)",
        &["method", "iteration time (ms)", "speedup vs conventional"],
    );
    let rate = DropoutRate::new(0.5).expect("static rate is valid");
    let schemes: Vec<(&str, Box<dyn DropoutScheme>)> = vec![
        ("conventional dropout", scheme::bernoulli(rate)),
        ("divergent if-else skip", scheme::divergent_bernoulli(rate)),
        ("row pattern", scheme::row(rate, 16).expect("valid")),
        ("tile pattern", scheme::tile(rate, 16, 32).expect("valid")),
    ];
    let time_of = |s: &dyn DropoutScheme| {
        model
            .expected_iteration_time(s, DEFAULT_TIMING_SAMPLES, 7)
            .total_us()
    };
    let baseline = time_of(&*scheme::bernoulli(rate));
    for (name, dropout_scheme) in &schemes {
        let t = time_of(&**dropout_scheme);
        net_report.add_row(&[
            name.to_string(),
            format!("{:.3}", t / 1e3),
            format!("{:.2}x", baseline / t),
        ]);
    }
    net_report.print();
}
