//! The closed set of element-wise tails the blocked GEMM can fuse into its
//! store (paper §III.C.2), and the one GELU definition the whole workspace
//! shares.
//!
//! An [`Epilogue`] is matched once per accumulator tile row, so each
//! variant's row loop is a straight-line, branch-free body that LLVM
//! vectorizes. The GELU inside it is the tanh form with a clamped rational
//! tanh built from plain IEEE operations (`mul_add`, `*`, `+`, `/`, compare
//! and select): the vectorized lanes and the scalar remainder of a row
//! round identically, so the fused epilogue is bitwise equal to a plain
//! GEMM followed by [`gelu_tanh`].

use crate::micro::{contract, SCALAR_FUSED_FMA};

/// Element-wise transform applied to every output element while the
/// accumulator tile is still hot, before it is stored to `C`.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store `alpha·acc + beta·C` unchanged.
    None,
    /// Store `gelu_tanh(x + bias[j])` for the element `x` at output column
    /// `j` — the FFN up-projection's add-bias + GELU. `bias` has one entry
    /// per output column.
    BiasGelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// FLOPs the tail adds to an `m×n` output on top of the GEMM's `2mnk`
    /// (declared to the cost model; the tail adds no memory traffic).
    pub fn flops(&self, m: usize, n: usize) -> u64 {
        match self {
            Epilogue::None => 0,
            Epilogue::BiasGelu(_) => 9 * (m * n) as u64,
        }
    }
}

/// √(2/π), the constant of the tanh GELU approximation.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;
/// √(2/π)·0.044715, the cubic term's coefficient folded in.
const SQRT_2_OVER_PI_CUBIC: f32 = 0.797_884_6 * 0.044_715;

/// Inputs to the rational tanh below are clamped to ±this, a magnitude at
/// which it evaluates to exactly ±1 under the build's contraction mode, so
/// GELU saturates to exactly `x` and `0` (and the polynomials stay finite).
const TANH_CLAMP: f32 = if SCALAR_FUSED_FMA { 7.998_811_7 } else { 7.905_311 };

/// GELU, tanh approximation (the form used by BERT and by the paper's
/// reference \[31\]): `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
///
/// `tanh` is the clamped \[13/6\] rational approximation (Eigen's
/// coefficients). Against an f64 evaluation of the same formula the error
/// is at most `3e-7·max(1, |x|)` (asserted over a dense sweep of
/// \[-12, 12\]). NaN in gives NaN out, `+inf` gives `+inf` and `-inf`
/// gives NaN, so non-finite activations stay visible downstream.
#[inline(always)]
pub fn gelu_tanh(x: f32) -> f32 {
    let z = x * contract::<SCALAR_FUSED_FMA>(SQRT_2_OVER_PI_CUBIC, x * x, SQRT_2_OVER_PI);
    let half_x = 0.5 * x;
    contract::<SCALAR_FUSED_FMA>(half_x, tanh_rational(z), half_x)
}

/// Clamped rational `tanh`: odd degree-13 numerator over even degree-6
/// denominator, both in `x²` Horner form, one IEEE division. `f32::clamp`
/// is compare-and-select, so NaN passes through (a `max`/`min` pair would
/// swallow it).
#[inline(always)]
fn tanh_rational(z: f32) -> f32 {
    const ALPHA: [f32; 7] = [
        -2.760_768_5e-16,
        2.000_188e-13,
        -8.604_672e-11,
        5.122_297e-8,
        1.485_722_4e-5,
        6.372_619_3e-4,
        4.893_524_6e-3,
    ];
    const BETA: [f32; 4] = [1.198_258_4e-6, 1.185_347e-4, 2.268_434_6e-3, 4.893_525e-3];
    let x = z.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = ALPHA[0];
    for &a in &ALPHA[1..] {
        p = contract::<SCALAR_FUSED_FMA>(x2, p, a);
    }
    let mut q = BETA[0];
    for &b in &BETA[1..] {
        q = contract::<SCALAR_FUSED_FMA>(x2, q, b);
    }
    x * p / q
}

/// Blends one microkernel accumulator row into a `C` row with the
/// alpha/beta scaling and the epilogue. `col0` is the row's first global
/// column (it indexes the bias). Each arm is one branch-free loop.
#[inline]
pub(crate) fn store_row(c_row: &mut [f32], acc_row: &[f32], col0: usize, alpha: f32, beta: f32, epilogue: Epilogue) {
    match epilogue {
        Epilogue::None if beta == 0.0 => {
            for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                *cv = alpha * av;
            }
        }
        Epilogue::None => {
            for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                *cv = alpha * av + beta * *cv;
            }
        }
        Epilogue::BiasGelu(bias) => {
            let bias = &bias[col0..col0 + c_row.len()];
            if beta == 0.0 {
                for ((cv, &av), &b) in c_row.iter_mut().zip(acc_row).zip(bias) {
                    *cv = gelu_tanh(alpha * av + b);
                }
            } else {
                for ((cv, &av), &b) in c_row.iter_mut().zip(acc_row).zip(bias) {
                    *cv = gelu_tanh(alpha * av + beta * *cv + b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same tanh-form GELU evaluated in f64.
    fn gelu_f64(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
    }

    #[test]
    fn gelu_within_documented_bound_on_dense_sweep() {
        let steps = 2_400_000;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let x = -12.0 + 24.0 * i as f32 / steps as f32;
            let err = (gelu_tanh(x) as f64 - gelu_f64(x as f64)).abs() / (x.abs() as f64).max(1.0);
            worst = worst.max(err);
        }
        assert!(worst <= 3e-7, "worst scaled error {worst:e}");
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_tanh(0.0), 0.0);
        assert_eq!(tanh_rational(TANH_CLAMP), 1.0);
        assert_eq!(tanh_rational(-TANH_CLAMP), -1.0);
        // Saturation is exact: identity above, zero below.
        assert_eq!(gelu_tanh(20.0), 20.0);
        assert_eq!(gelu_tanh(-20.0), 0.0);
        assert_eq!(gelu_tanh(f32::MAX), f32::MAX);
        assert_eq!(gelu_tanh(-1e30), 0.0);
    }

    #[test]
    fn gelu_keeps_non_finite_visible() {
        assert!(gelu_tanh(f32::NAN).is_nan());
        assert!(!gelu_tanh(f32::INFINITY).is_finite());
        assert!(!gelu_tanh(f32::NEG_INFINITY).is_finite());
    }
}
