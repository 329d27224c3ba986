//! Quantized tensors and quantization parameters.

use heatvit_tensor::Tensor;

/// Quantization parameters mapping `f32 ↔ int8`.
///
/// HeatViT uses symmetric 8-bit fixed-point quantization for weights and
/// activations (paper Section V), so the zero point is 0 and the mapping is
/// `q = clamp(round(x / scale), -127, 127)`.
///
/// # Examples
///
/// ```
/// use heatvit_quant::QuantParams;
///
/// let qp = QuantParams::from_abs_max(2.54);
/// assert!((qp.scale - 0.02).abs() < 1e-6);
/// assert_eq!(qp.quantize(1.0), 50);
/// assert!((qp.dequantize(50) - 1.0).abs() < qp.scale);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// The symmetric int8 quantization range limit.
    pub const QMAX: i32 = 127;

    /// Parameters covering the range `[-abs_max, abs_max]`.
    ///
    /// A degenerate `abs_max` of zero maps to a tiny positive scale so the
    /// quantizer stays well-defined for all-zero tensors.
    pub fn from_abs_max(abs_max: f32) -> Self {
        let abs_max = abs_max.abs().max(1e-8);
        Self {
            scale: abs_max / Self::QMAX as f32,
        }
    }

    /// Parameters calibrated from a tensor's max-abs value.
    pub fn observe(t: &Tensor) -> Self {
        let abs_max = t.data().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        Self::from_abs_max(abs_max)
    }

    /// Quantizes one value.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale)
            .round()
            .clamp(-(Self::QMAX as f32), Self::QMAX as f32);
        // `q` is an integer in ±127 or NaN; NaN maps to 0, as a saturating
        // `as` cast would map it.
        if q.is_nan() {
            0
        } else {
            small_int(q) as i8
        }
    }

    /// Dequantizes one value.
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// `v` as an `i32`, for `v` an integer of magnitude below 2²²: adding
/// 1.5·2²³ lands it, exactly, in the low bits of the sum's mantissa. Unlike
/// a saturating `as` cast, which compiles to a scalar loop, this vectorizes.
#[inline]
pub(crate) fn small_int(v: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0;
    (v + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i32
}

/// An int8 tensor with its quantization parameters.
#[derive(Debug, Clone)]
pub struct QTensor {
    data: Vec<i8>,
    dims: Vec<usize>,
    params: QuantParams,
}

impl Default for QTensor {
    /// An empty staging buffer (shape `[0]`, unit scale) for use with
    /// [`QTensor::quantize_with_into`].
    fn default() -> Self {
        Self {
            data: Vec::new(),
            dims: vec![0],
            params: QuantParams { scale: 1.0 },
        }
    }
}

impl QTensor {
    /// Quantizes a float tensor with max-abs calibration.
    pub fn quantize(t: &Tensor) -> Self {
        Self::quantize_with(t, QuantParams::observe(t))
    }

    /// Quantizes a float tensor with the given parameters.
    pub fn quantize_with(t: &Tensor, params: QuantParams) -> Self {
        Self {
            data: t.data().iter().map(|&v| params.quantize(v)).collect(),
            dims: t.dims().to_vec(),
            params,
        }
    }

    /// [`QTensor::quantize_with`] writing into a caller-provided buffer.
    ///
    /// `out`'s integer storage is reused (no allocation once warm) and its
    /// shape/parameters are overwritten — the int8 analogue of the float
    /// `_into` ops backing the engine's allocation-free hot path. Values are
    /// identical to the allocating path.
    pub fn quantize_with_into(t: &Tensor, params: QuantParams, out: &mut QTensor) {
        out.data.clear();
        out.data
            .extend(t.data().iter().map(|&v| params.quantize(v)));
        out.dims.clear();
        out.dims.extend_from_slice(t.dims());
        out.params = params;
    }

    /// Begins an incremental refill: installs `dims` and `params`, clears
    /// the integer storage (keeping its allocation), and hands the caller
    /// the backing buffer to push quantized values into — the entry point of
    /// the fused layer-norm + quantize path, which appends one normalized
    /// tile at a time instead of quantizing a materialized float tensor.
    ///
    /// The caller must push exactly `dims.iter().product()` values (each
    /// computed with `params.quantize`) before using the tensor; the kernels
    /// debug-assert the length.
    pub fn start_fill(&mut self, dims: &[usize], params: QuantParams) -> &mut Vec<i8> {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.params = params;
        self.data.clear();
        &mut self.data
    }

    /// The integer data (row-major).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Reconstructs the float tensor (with quantization error).
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
            &self.dims,
        )
    }

    /// Worst-case elementwise reconstruction error of this tensor.
    pub fn max_quant_error(&self, original: &Tensor) -> f32 {
        self.dequantize().max_abs_diff(original)
    }
}

/// Round-trips a tensor through int8 ("fake quantization") — the standard
/// way to measure accuracy impact without integer kernels.
pub fn fake_quantize(t: &Tensor) -> Tensor {
    QTensor::quantize(t).dequantize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantize_matches_the_saturating_cast_formula() {
        // The magic-number conversion against the original
        // `round → clamp → as i8`, bit pattern by bit pattern: every 4099th
        // f32 (both signs, subnormals, ±inf and NaNs included), plus the
        // half-step ties, under a spread of scales.
        let reference = |p: QuantParams, x: f32| {
            let q = (x / p.scale).round();
            q.clamp(-(QuantParams::QMAX as f32), QuantParams::QMAX as f32) as i8
        };
        for scale in [1.0f32, 0.013, 3.7e-3, 1e-8 / 127.0, 250.0] {
            let p = QuantParams { scale };
            for bits in (0..=u32::MAX).step_by(4099) {
                let x = f32::from_bits(bits);
                assert_eq!(p.quantize(x), reference(p, x), "x={x:e} scale={scale}");
            }
            for k in -130..=130 {
                for x in [(k as f32 + 0.5) * scale, (k as f32 - 0.5) * scale] {
                    assert_eq!(p.quantize(x), reference(p, x), "x={x:e} scale={scale}");
                }
            }
        }
        assert_eq!(QuantParams { scale: 1.0 }.quantize(f32::NAN), 0);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::rand_normal(&[32, 32], 0.0, 1.0, &mut rng);
        let q = QTensor::quantize(&t);
        // Everything inside the calibrated range errs by ≤ scale/2.
        assert!(q.max_quant_error(&t) <= q.params().scale * 0.5 + 1e-7);
    }

    #[test]
    fn quantize_saturates_outliers() {
        let qp = QuantParams::from_abs_max(1.0);
        assert_eq!(qp.quantize(5.0), 127);
        assert_eq!(qp.quantize(-5.0), -127);
    }

    #[test]
    fn zero_tensor_is_stable() {
        let t = Tensor::zeros(&[4, 4]);
        let q = QTensor::quantize(&t);
        assert!(q.dequantize().allclose(&t, 0.0));
    }

    #[test]
    fn symmetric_range_is_symmetric() {
        let qp = QuantParams::from_abs_max(2.0);
        assert_eq!(qp.quantize(2.0), -qp.quantize(-2.0));
    }

    #[test]
    fn fake_quantize_preserves_shape_and_signal() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_normal(&[8, 8], 0.0, 2.0, &mut rng);
        let f = fake_quantize(&t);
        assert_eq!(f.dims(), t.dims());
        // SQNR should be high: int8 on a well-scaled signal ≈ 30+ dB.
        let noise = f.sub(&t).norm();
        let signal = t.norm();
        assert!(signal / noise.max(1e-9) > 30.0, "sqnr too low");
    }

    #[test]
    fn quantize_with_into_reuses_buffer_and_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::rand_normal(&[6, 6], 0.0, 1.0, &mut rng);
        let params = QuantParams::observe(&t);
        let mut buf = QTensor::default();
        QTensor::quantize_with_into(&t, params, &mut buf);
        let fresh = QTensor::quantize_with(&t, params);
        assert_eq!(buf.data(), fresh.data());
        assert_eq!(buf.dims(), fresh.dims());
        // Refilling with a smaller tensor reshapes without reallocating.
        let cap = buf.data.capacity();
        let small = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng);
        QTensor::quantize_with_into(&small, params, &mut buf);
        assert_eq!(buf.dims(), &[2, 3]);
        assert_eq!(buf.data.capacity(), cap);
    }

    #[test]
    fn start_fill_tiled_quantize_matches_whole_tensor() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::rand_normal(&[9, 5], 0.0, 1.0, &mut rng);
        let params = QuantParams::observe(&t);
        let whole = QTensor::quantize_with(&t, params);
        let mut buf = QTensor::default();
        let fill = buf.start_fill(t.dims(), params);
        for chunk in t.data().chunks(2 * 5) {
            fill.extend(chunk.iter().map(|&v| params.quantize(v)));
        }
        assert_eq!(buf.data(), whole.data());
        assert_eq!(buf.dims(), whole.dims());
        assert_eq!(buf.params(), whole.params());
    }

    #[test]
    fn observe_matches_from_abs_max() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        let a = QuantParams::observe(&t);
        let b = QuantParams::from_abs_max(3.0);
        assert_eq!(a, b);
    }
}
