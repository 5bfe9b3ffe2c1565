//! GELU activation and the add-bias + activation pipelines (paper §III.C.2,
//! Fig. 10).
//!
//! After the FFN up-projection, BERT adds a bias and applies GELU. The
//! unfused pipeline stores the GEMM output, then launches a kernel that
//! re-reads it, adds bias, applies GELU, and writes again. ByteTransformer
//! fuses the element-wise work into the GEMM epilogue so the result "matrix
//! is held in registers" — `bt_gemm::Epilogue::BiasGelu` is exactly that
//! epilogue, applied to each accumulator tile row before the store.
//!
//! Every GELU here is [`gelu_tanh`], re-exported from `bt-gemm`: the fused
//! epilogue, the kernels below and the test oracles share one definition,
//! so fused and unfused paths agree bitwise.

use bt_device::{Device, KernelSpec};
use rayon::prelude::*;

pub use bt_gemm::gelu_tanh;

/// Exact GELU: `x/2 · (1 + erf(x/√2))`, using a high-accuracy rational
/// erf approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
#[inline]
pub fn gelu_erf(x: f32) -> f32 {
    0.5 * x as f64 as f32 * (1.0 + erf((x as f64) / std::f64::consts::SQRT_2) as f32)
}

/// Error function via Abramowitz & Stegun 7.1.26 (double precision,
/// |ε| ≤ 1.5e-7). `std` ships no `erf`, so the substrate provides one.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Unfused pipeline: **two launches**. Kernel 1 adds the per-column bias and
/// writes the intermediate; kernel 2 re-reads it and applies GELU. This is
/// the right-hand stacked bar of Fig. 10.
///
/// `data` is `rows × cols` row-major; `bias` has length `cols`.
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_gelu_unfused(device: &Device, name: &str, data: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(data.len(), rows * cols, "data shape mismatch");
    assert_eq!(bias.len(), cols, "bias length mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.add_bias"))
            .flops((rows * cols) as u64)
            .reads(nbytes + (cols * 4) as u64)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            });
        },
    );
    device.launch(
        KernelSpec::new(format!("{name}.gelu"))
            .flops((rows * cols * 8) as u64)
            .reads(nbytes)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for v in row {
                    *v = gelu_tanh(*v);
                }
            });
        },
    );
}

/// Fused kernel: **one launch, one pass** — bias-add and GELU applied while
/// each element is loaded once (the standalone-fused middle ground; the full
/// ByteTransformer fuses into the GEMM epilogue via
/// `bt_gemm::Epilogue::BiasGelu`).
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_gelu_fused(device: &Device, name: &str, data: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(data.len(), rows * cols, "data shape mismatch");
    assert_eq!(bias.len(), cols, "bias length mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.fused"))
            .flops((rows * cols * 9) as u64)
            .reads(nbytes + (cols * 4) as u64)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v = gelu_tanh(*v + b);
                }
            });
        },
    );
}

/// Plain add-bias kernel (no activation) — used after the attention output
/// projection where the bias is folded into the fused layernorm instead.
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias(device: &Device, name: &str, data: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(data.len(), rows * cols, "data shape mismatch");
    assert_eq!(bias.len(), cols, "bias length mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.add"))
            .flops((rows * cols) as u64)
            .reads(nbytes + (cols * 4) as u64)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            });
        },
    );
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle-style index loops
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::compare::assert_close;
    use bt_tensor::rng::Xoshiro256StarStar;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    #[test]
    fn erf_known_values() {
        // A&S 7.1.26 has |ε| ≤ 1.5e-7, including at the origin.
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 2e-7);
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_tanh(0.0), 0.0);
        // Exact GELU(1) = 0.5·(1 + erf(1/√2)) = 0.8413447.
        assert!((gelu_erf(1.0) - 0.8413447).abs() < 1e-5);
        assert!((gelu_tanh(1.0) - 0.8413447).abs() < 1e-3);
        // Large |x| limits: identity / zero.
        assert!((gelu_tanh(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_tanh(-10.0).abs() < 1e-4);
    }

    #[test]
    fn tanh_approx_close_to_erf_form() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..1_000 {
            let x = rng.uniform(-6.0, 6.0);
            assert!((gelu_tanh(x) - gelu_erf(x)).abs() < 3e-3, "x={x}");
        }
    }

    #[test]
    fn fused_matches_unfused() {
        let dev = device();
        let rows = 33;
        let cols = 48;
        let bias: Vec<f32> = (0..cols).map(|j| 0.01 * j as f32 - 0.2).collect();
        let mut a = bt_tensor::Tensor::randn([rows, cols], 3).into_vec();
        let mut b = a.clone();
        add_bias_gelu_unfused(&dev, "bias_act", &mut a, rows, cols, &bias);
        add_bias_gelu_fused(&dev, "bias_act", &mut b, rows, cols, &bias);
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn fused_declares_less_traffic_and_fewer_launches() {
        let rows = 64;
        let cols = 768;
        let bias = vec![0.0f32; cols];
        let dev_u = device();
        let mut x = vec![1.0f32; rows * cols];
        add_bias_gelu_unfused(&dev_u, "bias_act", &mut x, rows, cols, &bias);
        let dev_f = device();
        let mut y = vec![1.0f32; rows * cols];
        add_bias_gelu_fused(&dev_f, "bias_act", &mut y, rows, cols, &bias);
        assert_eq!(dev_u.launches(), 2);
        assert_eq!(dev_f.launches(), 1);
        assert!(dev_f.total_bytes() < dev_u.total_bytes());
        // Fused moves exactly half the tensor traffic plus one bias read:
        // unfused = 4 tensor passes + bias, fused = 2 passes + bias.
        let tensor_bytes = (rows * cols * 4) as u64;
        assert_eq!(dev_u.total_bytes(), 4 * tensor_bytes + (cols * 4) as u64);
        assert_eq!(dev_f.total_bytes(), 2 * tensor_bytes + (cols * 4) as u64);
    }

    #[test]
    fn add_bias_only() {
        let dev = device();
        let mut x = vec![1.0f32; 6];
        add_bias(&dev, "bias", &mut x, 2, 3, &[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![2.0, 3.0, 4.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn shape_mismatch_panics() {
        let dev = device();
        let mut x = vec![0.0f32; 6];
        add_bias_gelu_fused(&dev, "bias_act", &mut x, 2, 3, &[0.0; 4]);
    }
}
