//! Polynomial approximations of ViT nonlinear functions (paper Section V-D).
//!
//! The Vitis HLS math library implements `exp`/`erf` with deep pipelines that
//! burn hundreds of LUT/FF and several DSPs (paper Table III). HeatViT
//! replaces them with short polynomials — second-order for `erf` (Eq. 11,
//! after I-BERT) and for the softmax exponent (Eq. 14 plus a shift), and a
//! piecewise-linear sigmoid (PLAN) — and *deliberately scales the outputs by
//! regularization factors* `δ₁, δ₂ < 1` so downstream quantization error
//! shrinks (Section V-E).

use crate::qtensor::small_int;
use heatvit_tensor::Tensor;

/// Coefficient `a` of the erf polynomial (Eq. 11).
pub const ERF_A: f32 = -0.2888;
/// Coefficient `b` of the erf polynomial (Eq. 11).
pub const ERF_B: f32 = -1.769;
/// Default regularization factor δ₁ for GELU (paper uses 0.5).
pub const DEFAULT_DELTA1: f32 = 0.5;
/// Default regularization factor δ₂ for Softmax (paper uses 0.5).
pub const DEFAULT_DELTA2: f32 = 0.5;

/// Second-order polynomial approximation of `erf` (paper Eq. 11):
///
/// `L_erf(x) = sign(x) · δ₁ · [a·(clip(|x|, max=−b) + b)² + 1]`
///
/// With `δ₁ = 1` this is the I-BERT approximation; HeatViT sets `δ₁ < 1`
/// to regularize quantization error.
pub fn erf_approx(x: f32, delta1: f32) -> f32 {
    let clipped = x.abs().min(-ERF_B);
    let val = ERF_A * (clipped + ERF_B) * (clipped + ERF_B) + 1.0;
    x.signum() * delta1 * val
}

/// Approximated GELU (paper Eq. 12):
/// `GELU_aprx(x) = x/2 · (1 + L_erf(x/√2))`.
pub fn gelu_approx(x: f32, delta1: f32) -> f32 {
    0.5 * x * (1.0 + erf_approx(x / std::f32::consts::SQRT_2, delta1))
}

/// Derivative of the approximated GELU (used by Fig. 10 and the Eq. 15
/// error argument). Derived analytically from Eqs. 11–12.
pub fn gelu_approx_derivative(x: f32, delta1: f32) -> f32 {
    let s = x / std::f32::consts::SQRT_2;
    let l = erf_approx(s, delta1);
    // d/dx [x/2·(1 + L(x/√2))] = (1 + L)/2 + x/2 · L'(x/√2) / √2
    let lprime = if s.abs() >= -ERF_B {
        0.0
    } else {
        // Inside the clip: L(s) = sign(s)·δ·[a(|s|+b)²+1]
        // dL/ds = δ·a·2(|s|+b)·sign(s)·d|s|/ds = 2δ·a·(|s|+b)
        2.0 * delta1 * ERF_A * (s.abs() + ERF_B)
    };
    0.5 * (1.0 + l) + 0.5 * x * lprime / std::f32::consts::SQRT_2
}

/// Polynomial approximation of `exp(p)` on `p ∈ (−ln2, 0]` (paper Eq. 14).
pub fn exp_poly(p: f32) -> f32 {
    0.3585 * (p + 1.353) * (p + 1.353) + 0.344
}

/// Largest shift count applied by [`exp_shift`]. Beyond 126 bits the true
/// `exp(x̃)` sits below `f32::MIN_POSITIVE` anyway, and `2^z` would overflow
/// to infinity at `z = 128` — so the result is flushed to exactly `0.0`.
pub const EXP_SHIFT_MAX: f32 = 126.0;

/// Inputs this far below the row max are flushed to exactly `0.0` by
/// [`softmax_approx_rows`] without evaluating [`exp_shift`]. The cutoff is
/// `ln(f32::MIN_POSITIVE) ≈ −87.3`: anything below contributes nothing to a
/// row sum that is always ≥ `exp̃(0) ≈ 1`, and masked attention scores
/// (`heatvit-vit`'s `MASK_PENALTY = −1e4`) land far past it.
pub const SOFTMAX_FLUSH: f32 = -87.0;

/// Shift-based approximation of `exp(x̃)` for `x̃ ≤ 0` (paper Section V-D):
/// decompose `x̃ = −ln2·z + p`, compute `exp(p)` with [`exp_poly`] and apply
/// the power of two as a right shift.
///
/// The hardware kernel is only defined on `x̃ ≤ 0` (softmax feeds it
/// `x − x_max`). Out-of-domain inputs are handled instead of producing
/// garbage: positive inputs clamp to the domain edge `exp̃(0)`, and inputs so
/// negative that the shift leaves the `f32` exponent range
/// ([`EXP_SHIFT_MAX`] bits) flush to exactly `0.0`.
///
/// The shift is a multiply by `2^−z`, built straight from its exponent bits:
/// for `z ≤ 126` that is a normal number, so the product rounds exactly like
/// a division by `2^z`. No opaque `powi` call and no branch is left, so the
/// softmax row loop vectorizes; the flush is a select.
#[inline]
pub fn exp_shift(x_tilde: f32) -> f32 {
    let x = x_tilde.min(0.0);
    let z = (-x / std::f32::consts::LN_2).floor();
    let p = x + z * std::f32::consts::LN_2;
    // 2^−z for 0 ≤ z ≤ 126, from its biased exponent 127 − z; the clamp
    // keeps the bit pattern in range when the select below discards the lane.
    let shift = f32::from_bits((small_int(127.0 - z.min(EXP_SHIFT_MAX)) as u32) << 23);
    let y = exp_poly(p) * shift;
    if z > EXP_SHIFT_MAX {
        0.0
    } else {
        y
    }
}

/// Approximated softmax over each row (paper Eq. 13):
/// `Softmax_aprx(xᵢ) = δ₂ · exp̃(xᵢ − x_max) / Σⱼ exp̃(xⱼ − x_max)`.
///
/// Entries more than [`SOFTMAX_FLUSH`] below their row max — in particular
/// attention scores masked with a large negative constant — are flushed to
/// exactly `0.0` before normalization, so masked columns receive zero weight
/// and the row sum stays finite (the max entry always contributes
/// `exp̃(0) ≈ 1`, so no `0/0` is possible).
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_approx_rows(x: &Tensor, delta2: f32) -> Tensor {
    let mut out = x.clone();
    softmax_approx_rows_inplace(&mut out, delta2);
    out
}

/// [`softmax_approx_rows`] overwriting `x` in place — the allocation-free
/// form used by the quantized engine's scratch workspace (values identical
/// to the allocating path).
///
/// Each row takes three passes: a branch-free exponent pass (the flush is a
/// select, so it vectorizes), the row sum in ascending column order, and the
/// normalization.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_approx_rows_inplace(x: &mut Tensor, delta2: f32) {
    assert_eq!(x.rank(), 2, "softmax_approx_rows requires rank 2");
    let cols = x.dim(1);
    for row in x.data_mut().chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            let shifted = *v - max;
            let e = exp_shift(shifted);
            *v = if shifted <= SOFTMAX_FLUSH { 0.0 } else { e };
        }
        let sum = row.iter().fold(0.0f32, |s, &v| s + v);
        for v in row.iter_mut() {
            *v = delta2 * *v / sum;
        }
    }
}

/// Piecewise-linear sigmoid (PLAN, Tsmots et al. — paper reference \[46\]).
pub fn sigmoid_plan(x: f32) -> f32 {
    let a = x.abs();
    let y = if a >= 5.0 {
        1.0
    } else if a >= 2.375 {
        0.03125 * a + 0.84375
    } else if a >= 1.0 {
        0.125 * a + 0.625
    } else {
        0.25 * a + 0.5
    };
    if x >= 0.0 {
        y
    } else {
        1.0 - y
    }
}

/// Applies the approximated GELU elementwise.
pub fn gelu_approx_tensor(x: &Tensor, delta1: f32) -> Tensor {
    x.map(|v| gelu_approx(v, delta1))
}

/// [`gelu_approx_tensor`] overwriting `x` in place — the allocation-free
/// form used by the quantized engine's scratch workspace.
pub fn gelu_approx_inplace(x: &mut Tensor, delta1: f32) {
    x.map_inplace(|v| gelu_approx(v, delta1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_tensor::scalar;

    #[test]
    fn erf_approx_tracks_exact_erf_at_delta_one() {
        // I-BERT reports ~2e-2 max error for this polynomial.
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            let err = (erf_approx(x, 1.0) - scalar::erf(x)).abs();
            assert!(err < 0.11, "x={x}: err={err}");
        }
    }

    #[test]
    fn gelu_approx_tracks_exact_gelu_at_delta_one() {
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            let err = (gelu_approx(x, 1.0) - scalar::gelu(x)).abs();
            assert!(err < 0.06, "x={x}: err={err}");
        }
    }

    #[test]
    fn delta1_shrinks_the_output() {
        for i in 1..=30 {
            let x = i as f32 * 0.1;
            assert!(gelu_approx(x, 0.5) <= gelu_approx(x, 1.0) + 1e-7);
        }
    }

    #[test]
    fn exp_poly_matches_exp_on_segment() {
        // Eq. 14's quoted accuracy on (−ln2, 0].
        let mut p = -std::f32::consts::LN_2 + 1e-3;
        while p <= 0.0 {
            let err = (exp_poly(p) - p.exp()).abs();
            assert!(err < 0.02, "p={p}: err={err}");
            p += 0.01;
        }
    }

    #[test]
    fn exp_shift_matches_exp_for_negative_inputs() {
        let mut x = -20.0f32;
        while x <= 0.0 {
            let approx = exp_shift(x);
            let exact = x.exp();
            let err = (approx - exact).abs();
            // Relative-ish bound: the poly error is scaled down by the shift.
            assert!(err < 0.02 * exact.max(1e-3), "x={x}: {approx} vs {exact}");
            x += 0.173;
        }
    }

    /// The shift kernel as first written: `exp_poly(p) / 2^z` through
    /// `powi`, kept as the reference the bit-built shift must reproduce.
    fn exp_shift_powi_reference(x_tilde: f32) -> f32 {
        let x = x_tilde.min(0.0);
        let z = (-x / std::f32::consts::LN_2).floor();
        if z > EXP_SHIFT_MAX {
            return 0.0;
        }
        let p = x + z * std::f32::consts::LN_2;
        exp_poly(p) / (2.0f32).powi(z as i32)
    }

    #[test]
    fn exp_shift_is_bitwise_equal_to_the_powi_formula() {
        let check = |x: f32| {
            let (got, want) = (exp_shift(x), exp_shift_powi_reference(x));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "x={x:e}: {got:e} vs {want:e}"
            );
        };
        // A dense bit-pattern grid over [−130, −0]: every 509th f32, so all
        // exponents and a spread of mantissas, subnormal shifts included.
        let (lo, hi) = ((-0.0f32).to_bits(), (-130.0f32).to_bits());
        for bits in (lo..=hi).step_by(509) {
            check(f32::from_bits(bits));
        }
        check(-130.0);
        // Around the z = 125/126/127 boundaries, where the shift leaves the
        // normal range and the flush takes over.
        for z in [125.0f32, 126.0, 127.0] {
            let edge = (-z * std::f32::consts::LN_2).to_bits();
            for bits in edge - 8..=edge + 8 {
                check(f32::from_bits(bits));
            }
        }
        for x in [-0.0f32, 0.0, f32::MIN, f32::NEG_INFINITY, f32::NAN] {
            check(x);
        }
        for x in [
            f32::MIN_POSITIVE,
            1e-6,
            0.5,
            3.0,
            1e4,
            f32::MAX,
            f32::INFINITY,
        ] {
            check(x);
        }
    }

    #[test]
    fn softmax_matches_the_powi_formula_row_by_row() {
        // The vectorizable three-pass row loop against the original fused
        // loop over the reference kernel, on rows that mix ordinary scores,
        // flushed entries and masked columns.
        let row = [0.4f32, -3.0, -86.9, -87.0, -87.1, 2.5, -1e4, 1.0, -40.0];
        let x = Tensor::from_vec(
            row.iter().chain(row.iter().rev()).copied().collect(),
            &[2, 9],
        );
        for delta2 in [1.0f32, 0.5] {
            let got = softmax_approx_rows(&x, delta2);
            for r in 0..2 {
                let src = x.row(r);
                let max = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut e = Vec::new();
                let mut sum = 0.0f32;
                for &v in src {
                    let shifted = v - max;
                    let y = if shifted <= SOFTMAX_FLUSH {
                        0.0
                    } else {
                        exp_shift_powi_reference(shifted)
                    };
                    sum += y;
                    e.push(y);
                }
                for (c, &y) in e.iter().enumerate() {
                    assert_eq!(got.at(&[r, c]).to_bits(), (delta2 * y / sum).to_bits());
                }
            }
        }
    }

    #[test]
    fn exp_shift_clamps_positive_inputs_to_domain_edge() {
        // Regression: outside the debug-asserted domain the old kernel
        // evaluated exp_poly off its segment and *amplified* by 2^|z| in
        // release builds. Positive inputs now clamp to exp̃(0).
        let edge = exp_shift(0.0);
        assert!((edge - 1.0).abs() < 0.01, "exp̃(0) = {edge}");
        for x in [1e-6f32, 0.3, 5.0, 1e4, f32::MAX] {
            assert_eq!(exp_shift(x), edge, "x={x} must clamp to exp̃(0)");
        }
    }

    #[test]
    fn exp_shift_flushes_deeply_negative_inputs_to_zero() {
        // Regression: a deeply negative input used to push 2^z through powi
        // overflow. Beyond the f32 shift range the result is exactly 0.0.
        // The flush begins once z = ⌊−x/ln2⌋ exceeds 126, i.e. x < −127·ln2.
        for x in [-89.0f32, -200.0, -1e4, -1e10, f32::MIN] {
            let y = exp_shift(x);
            assert_eq!(y, 0.0, "x={x} gave {y}");
        }
        // Just inside the range the value is still a positive subnormal-ish
        // number, and the kernel stays monotone across the cutoff.
        let inside = exp_shift(-80.0);
        assert!(inside > 0.0 && inside < 1e-30, "exp̃(-80) = {inside}");
        assert!(exp_shift(-88.0) >= exp_shift(-89.0));
    }

    #[test]
    fn softmax_approx_rows_sum_to_delta2() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = softmax_approx_rows(&x, 0.5);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 0.5).abs() < 1e-3, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_approx_preserves_ranking() {
        let x = Tensor::from_vec(vec![0.2, 2.0, -1.0, 0.9], &[1, 4]);
        let exact = x.softmax_rows();
        let approx = softmax_approx_rows(&x, 1.0);
        let rank = |t: &Tensor| {
            let mut idx: Vec<usize> = (0..4).collect();
            idx.sort_by(|&a, &b| t.at(&[0, a]).total_cmp(&t.at(&[0, b])));
            idx
        };
        assert_eq!(rank(&exact), rank(&approx));
    }

    #[test]
    fn softmax_flushes_masked_entries_to_exact_zero() {
        // Regression: attention masks scores additively with −1e4
        // (heatvit-vit's MASK_PENALTY); that used to drive exp_shift through
        // powi overflow and could NaN the row. Masked entries must come out
        // exactly 0.0 and the row must still normalize to δ₂.
        const MASK_PENALTY: f32 = -1e4; // mirrors crates/vit/src/attention.rs
        let x = Tensor::from_vec(
            vec![0.4, 1.0 + MASK_PENALTY, -0.2, 0.1 + MASK_PENALTY],
            &[1, 4],
        );
        for delta2 in [1.0f32, 0.5] {
            let s = softmax_approx_rows(&x, delta2);
            assert_eq!(s.at(&[0, 1]), 0.0);
            assert_eq!(s.at(&[0, 3]), 0.0);
            assert!(s.data().iter().all(|v| v.is_finite()));
            let sum: f32 = s.row(0).iter().sum();
            assert!((sum - delta2).abs() < 1e-3, "row sums to {sum}");
            assert!(s.at(&[0, 0]) > s.at(&[0, 2]), "ranking preserved");
        }
        // A fully-masked row (every score = MASK_PENALTY) degrades to
        // uniform rather than NaN: max subtraction brings it back to 0.
        let all_masked = Tensor::full(&[1, 3], MASK_PENALTY);
        let s = softmax_approx_rows(&all_masked, 1.0);
        for v in s.row(0) {
            assert!((v - 1.0 / 3.0).abs() < 1e-3, "got {v}");
        }
    }

    #[test]
    fn softmax_inplace_and_gelu_inplace_match_allocating_paths() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0, -0.4, 1.1], &[2, 3]);
        let mut s = x.clone();
        softmax_approx_rows_inplace(&mut s, 0.5);
        assert!(s.allclose(&softmax_approx_rows(&x, 0.5), 0.0));
        let mut g = x.clone();
        gelu_approx_inplace(&mut g, 0.5);
        assert!(g.allclose(&gelu_approx_tensor(&x, 0.5), 0.0));
    }

    #[test]
    fn sigmoid_plan_tracks_sigmoid() {
        // PLAN's published max error is ~0.0189.
        for i in -80..=80 {
            let x = i as f32 * 0.1;
            let err = (sigmoid_plan(x) - scalar::sigmoid(x)).abs();
            assert!(err < 0.02, "x={x}: err={err}");
        }
    }

    #[test]
    fn sigmoid_plan_is_monotone_and_bounded() {
        let mut last = -1.0f32;
        for i in -100..=100 {
            let y = sigmoid_plan(i as f32 * 0.07);
            assert!(y >= last - 1e-6, "non-monotone at {i}");
            assert!((0.0..=1.0).contains(&y));
            last = y;
        }
    }

    #[test]
    fn gelu_approx_derivative_matches_numeric() {
        for delta in [0.5f32, 1.0] {
            for i in -35..=35 {
                // Offset to dodge x = 0, where L_erf's sign(x) factor makes
                // the approximation non-differentiable (cf. the hardswish
                // test in heatvit-tensor, which avoids its kinks the same
                // way).
                let x = i as f32 * 0.11 + 0.005;
                let h = 1e-3;
                let numeric = (gelu_approx(x + h, delta) - gelu_approx(x - h, delta)) / (2.0 * h);
                let analytic = gelu_approx_derivative(x, delta);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "x={x} δ={delta}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn regularized_gelu_derivative_is_below_one() {
        // The Fig. 10 / Eq. 15 claim: with δ₁ = 0.5 the approximated GELU's
        // derivative magnitude stays below 1, so quantization error shrinks.
        for i in -400..=400 {
            let x = i as f32 * 0.01;
            let d = gelu_approx_derivative(x, DEFAULT_DELTA1).abs();
            assert!(d < 1.0, "x={x}: |dA/dx| = {d}");
        }
    }
}
