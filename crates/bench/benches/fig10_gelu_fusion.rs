//! Fig. 10 — kernel fusion for GEMM + add-bias + GELU. Output tensor
//! `(batch·seq) × (4·hidden)`, hidden = 768, scale 4.
//!
//! Paper reading: fusing the element-wise tail into the GEMM epilogue
//! "perfectly hides the memory latency of bias and GELU into GEMM": ~24%
//! average improvement over the unfused (GEMM, then separate bias+GELU
//! kernels) pipeline. The harness prints the unfused stack (GEMM | bias |
//! GELU) exactly like the paper's stacked bars.

use bt_bench::{banner, bench_batch, bench_config, pct_faster, seq_sweep, wall};
use bt_core::weights::LayerWeights;
use bt_device::{Device, TraceReport};
use bt_gemm::{launch_gemm, Epilogue};
use bt_kernels::activation::add_bias_gelu_unfused;
use bt_tensor::Tensor;

fn main() {
    banner(
        "Fig. 10: GEMM + add-bias + GELU fusion",
        "Figure 10",
        "epilogue fusion hides the element-wise tail: ~1.1-1.4x, bigger at short seq",
    );
    let config = bench_config();
    let hidden = config.hidden();
    let inter = config.intermediate();
    let batch = bench_batch();
    let w = LayerWeights::new_random(&config, 5);
    println!("output tensor: (batch·seq) × {inter}, batch = {batch}\n");
    println!(
        "{:>6} {:>12} {:>11} {:>11} {:>11} {:>12} {:>9} {:>12} {:>12}",
        "seq", "unfused_µs", "=gemm", "+bias", "+gelu", "fused_µs", "speedup", "wall_unf_s", "wall_fus_s"
    );

    for seq in seq_sweep() {
        let rows = batch * seq;
        let x = Tensor::randn([rows, hidden], 1).into_vec();

        // Unfused: GEMM kernel, then the separate bias and GELU kernels.
        let dev_u = Device::new();
        let (out_u, w_u) = wall(|| {
            let mut out = launch_gemm(
                &dev_u,
                "gemm2.ffn_up",
                &x,
                rows,
                w.ffn_up_weight.as_slice(),
                hidden,
                inter,
                Epilogue::None,
            );
            add_bias_gelu_unfused(&dev_u, "bias_act", &mut out, rows, inter, &w.ffn_up_bias);
            out
        });
        let report = TraceReport::by_prefix(&dev_u.trace());
        let gemm_part = report.bucket("gemm2").map(|b| b.modeled).unwrap_or(0.0);
        let stack = dev_u.trace();
        let bias_part: f64 = stack
            .iter()
            .filter(|r| r.name.contains("add_bias"))
            .map(|r| r.modeled)
            .sum();
        let gelu_part: f64 = stack
            .iter()
            .filter(|r| r.name.contains(".gelu"))
            .map(|r| r.modeled)
            .sum();

        // Fused: one GEMM with the bias+GELU epilogue.
        let dev_f = Device::new();
        let (out_f, w_f) = wall(|| {
            launch_gemm(
                &dev_f,
                "gemm2.ffn_up_fused",
                &x,
                rows,
                w.ffn_up_weight.as_slice(),
                hidden,
                inter,
                Epilogue::BiasGelu(&w.ffn_up_bias),
            )
        });

        // Sanity: one GELU definition, so the fusion changes no bits.
        assert!(out_u == out_f, "fused/unfused diverged");

        println!(
            "{:>6} {:>12.1} {:>11.1} {:>11.1} {:>11.1} {:>12.1} {:>9} {:>12.2} {:>12.2}",
            seq,
            dev_u.modeled_total() * 1e6,
            gemm_part * 1e6,
            bias_part * 1e6,
            gelu_part * 1e6,
            dev_f.modeled_total() * 1e6,
            pct_faster(dev_u.modeled_total(), dev_f.modeled_total()),
            w_u,
            w_f,
        );
    }
    println!("\npaper: fusing element-wise ops into the GEMM epilogue gives ~24% on average");
}
