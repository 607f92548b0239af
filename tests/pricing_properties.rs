//! Property-style tests over the fully-connected pricing dispatch
//! (`gpu_sim::price_fc_schedule`): cost must be monotonic in every GEMM
//! dimension for **every** `KernelSchedule` arm on **every** device preset,
//! fused and unfused, and the hardware 2:4 path on the sparse-tensor-core
//! preset must strictly beat both its own SIMT-gather pricing and the
//! Bernoulli-masked dense baseline. (The fused-layer identity
//! `fused ≤ sum(parts)` is checked next to the dispatch, in gpu-sim's own
//! tests.)

use approx_dropout::{Activation, DropoutPlan, KernelSchedule, LayerShape};
use gpu_sim::{price_fc_schedule, GpuConfig, NetworkTimingModel, TransformerSpec};

/// Every stand-alone schedule arm, with parameters chosen so each one is a
/// genuine instance of its family (kept fractions strictly inside (0, 1)).
fn all_schedules() -> Vec<KernelSchedule> {
    vec![
        KernelSchedule::Dense,
        KernelSchedule::DenseWithMask,
        KernelSchedule::DenseDivergent { rate: 0.5 },
        KernelSchedule::RowCompact {
            kept: 512,
            total: 1024,
        },
        KernelSchedule::TileCompact {
            kept: 2048,
            total: 4096,
        },
        KernelSchedule::NmCompact { n: 2, m: 4 },
        KernelSchedule::NmCompact { n: 1, m: 4 },
        KernelSchedule::BlockCompact {
            kept: 32,
            total: 64,
            block: 32,
        },
        KernelSchedule::CrsCompact {
            kept_k: 256,
            total_k: 1024,
        },
        KernelSchedule::RowCrsCompact {
            kept_n: 512,
            total_n: 1024,
            kept_k: 512,
            total_k: 1024,
        },
    ]
}

fn all_presets() -> Vec<GpuConfig> {
    vec![
        GpuConfig::gtx_1080ti(),
        GpuConfig::server_hbm(),
        GpuConfig::sparse_tensor_core(),
        GpuConfig::small_embedded(),
    ]
}

/// Whole-layer cost of one schedule: forward + backward + dropout kernels,
/// with the forward epilogue as its own kernel or fused (`epilogue`).
fn layer_cost(
    gpu: &GpuConfig,
    schedule: &KernelSchedule,
    batch: usize,
    k_eff: usize,
    out_features: usize,
    epilogue: Option<Activation>,
) -> f64 {
    let (fwd, bwd, drop) = price_fc_schedule(gpu, schedule, batch, k_eff, out_features, epilogue);
    fwd.time_us() + bwd.time_us() + drop
}

#[test]
fn cost_is_monotonic_in_every_gemm_dimension_for_every_arm_and_preset() {
    // Growing any one dimension (batch, effective input width, output
    // width) while the others stay fixed must never price *cheaper*: the
    // kernel does strictly more arithmetic and moves strictly more bytes.
    // This covers the capability-aware dispatch too — on the
    // sparse-tensor-core preset the 2:4 arm walks the tensor-core roofline
    // while 1:4 walks the gather model, and both must stay monotone.
    type ShapeOf = fn(usize) -> (usize, usize, usize);
    let sweeps: [(&str, ShapeOf); 3] = [
        ("batch", |v| (v, 512, 512)),
        ("k_eff", |v| (64, v, 512)),
        ("out_features", |v| (64, 512, v)),
    ];
    for gpu in all_presets() {
        for schedule in all_schedules() {
            for epilogue in [None, Some(Activation::Relu)] {
                for (dim, shape_of) in sweeps {
                    let series: Vec<f64> = [128usize, 256, 512, 1024, 2048]
                        .iter()
                        .map(|&v| {
                            let (b, k, n) = shape_of(v);
                            layer_cost(&gpu, &schedule, b, k, n, epilogue)
                        })
                        .collect();
                    for w in series.windows(2) {
                        assert!(
                            w[1] >= w[0] - 1e-9,
                            "{}: {schedule:?}/{epilogue:?} cost fell as {dim} grew: {series:?}",
                            gpu.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hardware_2_4_is_strictly_cheaper_than_gather_and_masked_dense() {
    // The tentpole ordering on the sparse-tensor-core preset: a 2:4
    // NmCompact layer must price strictly below (a) the same schedule on
    // identical silicon with the tensor cores stripped — the plan's
    // SIMT-gather pricing — and (b) the conventional Bernoulli-masked dense
    // layer on the same device.
    let sparse = GpuConfig::sparse_tensor_core();
    let stripped = sparse.without_tensor_cores();
    let nm24 = KernelSchedule::NmCompact { n: 2, m: 4 };
    for (batch, k, n) in [(128, 2048, 2048), (64, 784, 2048), (256, 1500, 6000)] {
        let tc = layer_cost(&sparse, &nm24, batch, k, n, None);
        let gather = layer_cost(&stripped, &nm24, batch, k, n, None);
        let masked = layer_cost(&sparse, &KernelSchedule::DenseWithMask, batch, k, n, None);
        assert!(
            tc < gather,
            "({batch},{k},{n}): tensor-core 2:4 {tc} >= gather pricing {gather}"
        );
        assert!(
            tc < masked,
            "({batch},{k},{n}): tensor-core 2:4 {tc} >= masked dense {masked}"
        );
    }
    // On the SIMT-only presets the same schedule prices identically whether
    // or not the device is the stripped twin — the capability block is the
    // only thing that moves N:M between cost models.
    for gpu in [GpuConfig::gtx_1080ti(), GpuConfig::server_hbm()] {
        let a = layer_cost(&gpu, &nm24, 128, 1024, 1024, None);
        let b = layer_cost(&gpu.without_tensor_cores(), &nm24, 128, 1024, 1024, None);
        assert_eq!(a, b, "{}", gpu.name);
    }
}

#[test]
fn non_2_4_shapes_gain_nothing_from_the_sparse_capability() {
    // Only the hardware shape is accelerated: 1:4 must price as the gather
    // model even on the sparse-tensor-core preset (the dense GEMM rate
    // still differs from the stripped twin, so compare against the gather
    // kernel through the same device, not the stripped one).
    let sparse = GpuConfig::sparse_tensor_core();
    let (fwd_a, bwd_a, _) = price_fc_schedule(
        &sparse,
        &KernelSchedule::NmCompact { n: 1, m: 4 },
        128,
        1024,
        1024,
        None,
    );
    let gather_fwd = gpu_sim::kernels::nm_gather_gemm(&sparse, 128, 1024, 1024, 1, 4);
    // The forward stats embed the gather kernel plus the bias/activation
    // elementwise kernel; subtracting the elementwise pass must recover the
    // gather kernel's time exactly.
    let elementwise = gpu_sim::kernels::elementwise(&sparse, 128, 256, 1, 1, 2.0);
    assert!(
        (fwd_a.time_us() - gather_fwd.time_us() - elementwise.time_us()).abs() < 1e-9,
        "1:4 forward must be gather + elementwise: {} vs {} + {}",
        fwd_a.time_us(),
        gather_fwd.time_us(),
        elementwise.time_us()
    );
    assert!(bwd_a.time_us() > 0.0);
}

// ---------------------------------------------------------------------------
// Transformer encoder pricing properties
// ---------------------------------------------------------------------------

fn transformer_presets() -> Vec<GpuConfig> {
    vec![
        GpuConfig::gtx_1080ti(),
        GpuConfig::server_hbm(),
        GpuConfig::sparse_tensor_core(),
    ]
}

/// Per-position plans for one transformer iteration: a whole-head-drop
/// block-unit plan keeping `kept_heads` heads at every attention position,
/// dense everywhere else. `kept_heads == heads` degenerates to all-dense.
fn head_drop_plans(spec: &TransformerSpec, kept_heads: usize) -> Vec<DropoutPlan> {
    let d = spec.model_dim;
    let hd = spec.head_dim();
    let attn_shape = LayerShape::new(d, d);
    let ffn_shape = LayerShape::new(d, spec.ff_dim);
    let mut plans = Vec::with_capacity(spec.dropout_layers());
    for _ in 0..spec.layers {
        if kept_heads == spec.heads {
            plans.push(DropoutPlan::none(attn_shape));
        } else {
            let kept: Vec<usize> = (0..kept_heads).collect();
            let scale = spec.heads as f32 / kept_heads as f32;
            let rate = 1.0 - kept_heads as f64 / spec.heads as f64;
            plans.push(DropoutPlan::block_unit(attn_shape, hd, kept, scale, rate));
        }
        plans.push(DropoutPlan::none(ffn_shape));
    }
    plans
}

fn transformer_iteration_us(gpu: &GpuConfig, spec: &TransformerSpec, kept_heads: usize) -> f64 {
    let model = NetworkTimingModel::transformer(gpu.clone(), spec.clone());
    model
        .iteration_time_from_plans(&head_drop_plans(spec, kept_heads))
        .total_us()
}

#[test]
fn transformer_cost_is_monotonic_in_kept_heads() {
    // Keeping one more head never prices cheaper: the three Q/K/V
    // projections widen, both batched attention GEMMs and the softmax grow
    // a head, and O's input gather widens. Strict at the dense end too —
    // dropping any head must actually buy time on every preset.
    let spec = TransformerSpec::paper_ptb_transformer();
    for gpu in transformer_presets() {
        let series: Vec<f64> = (1..=spec.heads)
            .map(|kept| transformer_iteration_us(&gpu, &spec, kept))
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "{}: iteration time fell as kept heads grew: {series:?}",
                gpu.name
            );
        }
        let dense = *series.last().unwrap();
        for (kept, &t) in series.iter().enumerate().take(spec.heads - 1) {
            assert!(
                t < dense,
                "{}: head drop to {} kept heads must beat dense ({t} >= {dense})",
                gpu.name,
                kept + 1
            );
        }
    }
}

#[test]
fn transformer_cost_is_monotonic_in_seq_len_and_batch() {
    // Growing the sequence (quadratic in the attention GEMMs, linear in the
    // token count) or the batch must never price cheaper, dense or with
    // half the heads dropped.
    let base = TransformerSpec::paper_ptb_transformer();
    for gpu in transformer_presets() {
        for kept in [base.heads / 2, base.heads] {
            let seq_series: Vec<f64> = [16usize, 35, 70, 140]
                .iter()
                .map(|&seq_len| {
                    let spec = TransformerSpec {
                        seq_len,
                        ..base.clone()
                    };
                    transformer_iteration_us(&gpu, &spec, kept)
                })
                .collect();
            for w in seq_series.windows(2) {
                assert!(
                    w[1] > w[0],
                    "{}: cost fell as seq_len grew (kept {kept}): {seq_series:?}",
                    gpu.name
                );
            }
            let batch_series: Vec<f64> = [5usize, 20, 80, 320]
                .iter()
                .map(|&batch| {
                    let spec = TransformerSpec {
                        batch,
                        ..base.clone()
                    };
                    transformer_iteration_us(&gpu, &spec, kept)
                })
                .collect();
            for w in batch_series.windows(2) {
                assert!(
                    w[1] > w[0],
                    "{}: cost fell as batch grew (kept {kept}): {batch_series:?}",
                    gpu.name
                );
            }
        }
    }
}

#[test]
fn transformer_fused_never_prices_above_unfused() {
    // The forward-epilogue fusion toggle can only save cost on the encoder,
    // exactly as on the fc-only networks: the FFN's activation epilogue
    // folds into its GEMM launch.
    let spec = TransformerSpec::paper_ptb_transformer();
    for gpu in transformer_presets() {
        for kept in [1, spec.heads / 2, spec.heads] {
            let plans = head_drop_plans(&spec, kept);
            let unfused = NetworkTimingModel::transformer(gpu.clone(), spec.clone())
                .with_fusion(false)
                .iteration_time_from_plans(&plans)
                .total_us();
            let fused = NetworkTimingModel::transformer(gpu.clone(), spec.clone())
                .with_fusion(true)
                .iteration_time_from_plans(&plans)
                .total_us();
            assert!(
                fused <= unfused,
                "{}: fused {fused} > unfused {unfused} (kept {kept})",
                gpu.name
            );
        }
    }
}
