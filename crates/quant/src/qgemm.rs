//! Integer GEMM: the arithmetic the FPGA's 8-bit GEMM engine performs.
//!
//! Products are `i8 × i8` accumulated in `i32` (DSP-friendly), then rescaled
//! back to float by the product of the operand scales. The paper's claimed
//! ~1.9× speedup from 8-bit quantization comes precisely from packing two
//! such MACs per DSP slice; the cycle model in `heatvit-fpga` charges it
//! that way.
//!
//! On the host the kernel is built around AVX-512 VNNI's `vpdpbusd`, which
//! multiplies four unsigned bytes by four signed bytes and adds the four
//! products into one `i32` lane. The operands are laid out for it:
//!
//! * **`B` in quad panels.** `B` is cut into [`QNR`]-column panels. One
//!   panel row holds a *k-quad* — four consecutive `k` — of all 16 columns,
//!   64 bytes (one 512-bit register), column `c`'s quad at bytes `4c..4c+4`.
//!   `k` is zero-padded to a multiple of four, and each panel's 16 column
//!   sums (`i32`, little endian, one more 64-byte row) follow its last quad.
//! * **Biased `A` rows.** Rows of `A` are staged as `a ^ 0x80`, which is
//!   `a + 128` read as `u8` — the unsigned operand — with the row stride
//!   padded to whole quads.
//! * **Bias correction.** Once per tile the kernel subtracts `128·Σₖ b`:
//!   `Σ (a+128)·b − 128·Σ b = Σ a·b`. Every intermediate stays far inside
//!   `i32` (at most 255·127·k ≈ 2.5·10⁷ at k = 768), so the result is exact.
//!
//! A [`QMR`]`×`[`QNR`] tile keeps eight independent accumulator chains in
//! registers. [`QLinear`] packs its weight once, at construction; the
//! attention products pack their activation operand per call into the
//! caller's `pack` buffer, which also holds the staged `A` rows. Hosts
//! without VNNI run a scalar kernel over the same layout. Integer
//! accumulation is exact and associative, so both kernels, any blocking
//! order and a naive triple loop agree bit for bit — the int8 path keeps
//! every historical equality guarantee.

use crate::qtensor::QTensor;
use heatvit_tensor::Tensor;

/// Rows per microkernel tile: eight independent accumulator chains.
pub(crate) const QMR: usize = 8;

/// Columns per packed panel: sixteen `i32` lanes, one 512-bit register,
/// mirroring the accelerator's fixed-size output BRAM tile (paper Fig. 8a).
pub(crate) const QNR: usize = 16;

/// `k` steps one `vpdpbusd` lane folds together (one k-quad).
const KQ: usize = 4;

/// Bytes per packed panel row: [`QNR`] columns × one k-quad.
const PANEL_ROW: usize = QNR * KQ;

/// `k` rounded up to whole quads: the row stride of staged `A` rows.
fn padded_k(k: usize) -> usize {
    k.div_ceil(KQ) * KQ
}

/// Bytes of one packed panel: its quad rows, then its column-sum row.
fn panel_len(k: usize) -> usize {
    (k.div_ceil(KQ) + 1) * PANEL_ROW
}

/// Number of `i8` slots [`qpack_b`] needs for a `k×n` operand.
pub(crate) fn qpacked_len(k: usize, n: usize) -> usize {
    n.div_ceil(QNR) * panel_len(k)
}

/// Packs a row-major `k×n` int8 matrix into quad panels. `pack` must hold
/// [`qpacked_len`]`(k, n)` zeroed bytes.
pub(crate) fn qpack_b(b: &[i8], k: usize, n: usize, pack: &mut [i8]) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(pack.len(), qpacked_len(k, n));
    for (pi, panel) in pack.chunks_exact_mut(panel_len(k)).enumerate() {
        let j0 = pi * QNR;
        let jn = QNR.min(n - j0);
        for (dst, quad) in panel.chunks_exact_mut(PANEL_ROW).zip(b.chunks(KQ * n)) {
            if jn == QNR && quad.len() == KQ * n {
                // A full quad row: a fixed-size 4 × 16 byte interleave.
                let src: [&[i8]; KQ] = std::array::from_fn(|t| &quad[t * n + j0..][..QNR]);
                for (c, d) in dst.chunks_exact_mut(KQ).enumerate() {
                    for (t, d) in d.iter_mut().enumerate() {
                        *d = src[t][c];
                    }
                }
            } else {
                for (t, row) in quad.chunks_exact(n).enumerate() {
                    for (c, &v) in row[j0..j0 + jn].iter().enumerate() {
                        dst[c * KQ + t] = v;
                    }
                }
            }
        }
        store_col_sums(panel, k);
    }
}

/// Packs the transpose of a row-major `n×k` int8 matrix (`bt` stores `Bᵀ`)
/// into the same quad panels as [`qpack_b`]: each column's quads are
/// contiguous in `bt`, so they copy four bytes at a time.
pub(crate) fn qpack_b_t(bt: &[i8], n: usize, k: usize, pack: &mut [i8]) {
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(pack.len(), qpacked_len(k, n));
    if k == 0 {
        return; // Only the column sums, all zero.
    }
    for (pi, panel) in pack.chunks_exact_mut(panel_len(k)).enumerate() {
        let j0 = pi * QNR;
        let jn = QNR.min(n - j0);
        for (c, src) in bt[j0 * k..(j0 + jn) * k].chunks_exact(k).enumerate() {
            let (quads, tail) = src.split_at(k / KQ * KQ);
            for (dst, quad) in panel
                .chunks_exact_mut(PANEL_ROW)
                .zip(quads.chunks_exact(KQ))
            {
                dst[c * KQ..][..KQ].copy_from_slice(quad);
            }
            for (t, &v) in tail.iter().enumerate() {
                panel[k / KQ * PANEL_ROW + c * KQ + t] = v;
            }
        }
        store_col_sums(panel, k);
    }
}

/// Writes a packed panel's 16 column sums after its quad rows.
fn store_col_sums(panel: &mut [i8], k: usize) {
    let (quads, sums) = panel.split_at_mut(k.div_ceil(KQ) * PANEL_ROW);
    for (c, dst) in sums.chunks_exact_mut(KQ).enumerate() {
        let sum: i32 = quads
            .chunks_exact(PANEL_ROW)
            .flat_map(|row| &row[c * KQ..(c + 1) * KQ])
            .map(|&v| v as i32)
            .sum();
        for (d, byte) in dst.iter_mut().zip(sum.to_le_bytes()) {
            *d = byte as i8;
        }
    }
}

/// Stages row-major `m×k` int8 rows as the unsigned kernel operand: each
/// byte becomes `a ^ 0x80` (`a + 128` as `u8`), rows padded to
/// [`padded_k`]. Pad bytes meet zero rows of `B` and contribute nothing.
fn stage_rows(a: &[i8], k: usize, dst: &mut [i8]) {
    if k == 0 {
        return;
    }
    for (src, row) in a.chunks_exact(k).zip(dst.chunks_exact_mut(padded_k(k))) {
        for (d, &v) in row.iter_mut().zip(src) {
            *d = v ^ i8::MIN;
        }
    }
}

/// Clears `pack` to `b_len` zeroed bytes for `B`'s panels (zero when they
/// are prepacked elsewhere) followed by `a`'s staged rows, and returns the
/// two regions.
fn stage<'p>(pack: &'p mut Vec<i8>, b_len: usize, a: &QTensor) -> (&'p mut [i8], &'p [i8]) {
    let (m, k) = (a.dim(0), a.dim(1));
    pack.clear();
    pack.resize(b_len + m * padded_k(k), 0);
    let (panels, rows) = pack.split_at_mut(b_len);
    stage_rows(a.data(), k, rows);
    (panels, rows)
}

/// Int8 GEMM over staged `A` rows and packed `B` panels: writes
/// `c = (A·B)·rescale`, overwriting every element. Runs the VNNI kernel when
/// the CPU has it, the scalar kernel otherwise; both are exact.
fn qgemm_packed(
    a: &[i8],
    m: usize,
    k: usize,
    panels: &[i8],
    n: usize,
    rescale: f32,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * padded_k(k));
    debug_assert_eq!(panels.len(), qpacked_len(k, n));
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni") {
        // SAFETY: both target features `qgemm_vnni` enables were detected on
        // the running CPU.
        unsafe { qgemm_vnni(a, m, k, panels, n, rescale, c) };
        return;
    }
    qgemm_scalar(a, m, k, panels, n, rescale, c);
}

/// Portable kernel over the same layout as [`qgemm_vnni`]: the same biased
/// products, the same wrapping `i32` sums, the same correction and rescale.
fn qgemm_scalar(
    a: &[i8],
    m: usize,
    k: usize,
    panels: &[i8],
    n: usize,
    rescale: f32,
    c: &mut [f32],
) {
    let kp = padded_k(k);
    for (pi, panel) in panels.chunks_exact(panel_len(k)).enumerate() {
        let j0 = pi * QNR;
        let jn = QNR.min(n - j0);
        let (quads, sums) = panel.split_at(kp / KQ * PANEL_ROW);
        for (arow, crow) in a.chunks_exact(kp).zip(c.chunks_exact_mut(n)).take(m) {
            let mut acc = [0i32; QNR];
            for (aq, brow) in arow.chunks_exact(KQ).zip(quads.chunks_exact(PANEL_ROW)) {
                for (acc, bq) in acc.iter_mut().zip(brow.chunks_exact(KQ)) {
                    for (&av, &bv) in aq.iter().zip(bq) {
                        *acc = acc.wrapping_add(av as u8 as i32 * bv as i32);
                    }
                }
            }
            for ((o, &v), s) in crow[j0..j0 + jn]
                .iter_mut()
                .zip(&acc)
                .zip(sums.chunks_exact(KQ))
            {
                let sum = i32::from_le_bytes([s[0] as u8, s[1] as u8, s[2] as u8, s[3] as u8]);
                *o = v.wrapping_sub(sum << 7) as f32 * rescale;
            }
        }
    }
}

/// The AVX-512 VNNI kernel: a [`QMR`]`×`[`QNR`] tile of `i32` accumulators,
/// one `vpdpbusd` per row and k-quad against one panel row.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512vnni`. The operand lengths are
/// asserted, so no slice can send a load or store out of bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn qgemm_vnni(a: &[i8], m: usize, k: usize, panels: &[i8], n: usize, rescale: f32, c: &mut [f32]) {
    use std::arch::x86_64::*;
    let kp = padded_k(k);
    let quads = kp / KQ;
    let plen = panel_len(k);
    assert!(a.len() == m * kp && panels.len() == n.div_ceil(QNR) * plen && c.len() == m * n);
    let scale = _mm512_set1_ps(rescale);
    for i0 in (0..m).step_by(QMR) {
        let mr = QMR.min(m - i0);
        // Rows past `m` in the last tile re-read row m − 1; their results are
        // never stored.
        let rows: [*const i8; QMR] =
            std::array::from_fn(|r| a[(i0 + r.min(mr - 1)) * kp..].as_ptr());
        for (pi, panel) in panels.chunks_exact(plen).enumerate() {
            let (j0, bp) = (pi * QNR, panel.as_ptr());
            let mut acc = [_mm512_setzero_si512(); QMR];
            for q in 0..quads {
                // SAFETY: quad row `q < quads` spans bytes
                // `q·64..q·64 + 64` of the panel, which is `plen` bytes.
                let b = unsafe { _mm512_loadu_si512(bp.add(q * PANEL_ROW).cast()) };
                for (acc, &row) in acc.iter_mut().zip(&rows) {
                    // SAFETY: each row pointer starts a staged row of `kp`
                    // bytes inside `a` (asserted above); quad `q` is its
                    // bytes `4q..4q + 4`.
                    let quad = unsafe { row.add(q * KQ).cast::<i32>().read_unaligned() };
                    *acc = _mm512_dpbusd_epi32(*acc, _mm512_set1_epi32(quad), b);
                }
            }
            // SAFETY: the column-sum row is the panel's last 64 bytes.
            let sums = unsafe { _mm512_loadu_si512(bp.add(quads * PANEL_ROW).cast()) };
            let corr = _mm512_slli_epi32::<7>(sums);
            let jn = QNR.min(n - j0);
            let mask = (u32::MAX >> (32 - jn)) as __mmask16;
            for (r, &acc) in acc.iter().enumerate().take(mr) {
                let out = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc, corr)), scale);
                // SAFETY: the enabled lanes are `c[(i0 + r)·n + j0..][..jn]`,
                // inside `c` since `i0 + r < m` and, with exactly ⌈n/16⌉
                // panels (asserted above), `j0 + jn ≤ n`; masked-off lanes
                // are neither written nor faulted.
                unsafe { _mm512_mask_storeu_ps(c.as_mut_ptr().add((i0 + r) * n + j0), mask, out) };
            }
        }
    }
}

/// Integer matrix product `a · b` with float rescaling.
///
/// `a` is `[M, K]`, `b` is `[K, N]`; the result is the dequantized `[M, N]`
/// float matrix `(Σ qa·qb) · scale_a · scale_b`.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or inner dimensions differ.
pub fn qmatmul(a: &QTensor, b: &QTensor) -> Tensor {
    let mut out = Tensor::default();
    qmatmul_into(a, b, &mut out);
    out
}

/// [`qmatmul`] writing into a caller-provided output tensor (reshaped in
/// place, values bit-identical to the allocating path).
///
/// # Panics
///
/// Panics if the operands are not rank 2 or inner dimensions differ.
pub fn qmatmul_into(a: &QTensor, b: &QTensor, out: &mut Tensor) {
    qmatmul_with(a, b, &mut Vec::new(), out);
}

/// [`qmatmul_into`] staging both packed operands in a caller-owned buffer,
/// so repeated products perform no heap allocation once the workspace is
/// warm.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or inner dimensions differ.
pub fn qmatmul_with(a: &QTensor, b: &QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "qmatmul lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "qmatmul rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "qmatmul inner dimensions must agree");
    let rescale = a.params().scale * b.params().scale;
    out.reset_unspecified(&[m, n]);
    let (panels, rows) = stage(pack, qpacked_len(k, n), a);
    qpack_b(b.data(), k, n, panels);
    qgemm_packed(rows, m, k, panels, n, rescale, out.data_mut());
}

/// Integer matrix product `a · bᵀ` with float rescaling.
///
/// `a` is `[M, K]`, `b` is `[N, K]`; the result is the dequantized `[M, N]`
/// matrix. This is the attention-score shape `Q·Kᵀ`: the transposed operand
/// is packed straight from its row-major layout, after which the blocked
/// microkernel is identical to the plain product — exactly how the FPGA GEMM
/// engine consumes the transposed key tile.
///
/// # Panics
///
/// Panics if the operands are not rank 2 or their row widths differ.
pub fn qmatmul_transb(a: &QTensor, b: &QTensor) -> Tensor {
    let mut out = Tensor::default();
    qmatmul_transb_into(a, b, &mut out);
    out
}

/// [`qmatmul_transb`] writing into a caller-provided output tensor
/// (reshaped in place, values bit-identical to the allocating path).
///
/// # Panics
///
/// Panics if the operands are not rank 2 or their row widths differ.
pub fn qmatmul_transb_into(a: &QTensor, b: &QTensor, out: &mut Tensor) {
    qmatmul_transb_with(a, b, &mut Vec::new(), out);
}

/// [`qmatmul_transb_into`] staging both packed operands in a caller-owned
/// buffer (no allocation once warm).
///
/// # Panics
///
/// Panics if the operands are not rank 2 or their row widths differ.
pub fn qmatmul_transb_with(a: &QTensor, b: &QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
    assert_eq!(a.dims().len(), 2, "qmatmul_transb lhs must be rank 2");
    assert_eq!(b.dims().len(), 2, "qmatmul_transb rhs must be rank 2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "qmatmul_transb inner dimensions must agree");
    let rescale = a.params().scale * b.params().scale;
    out.reset_unspecified(&[m, n]);
    let (panels, rows) = stage(pack, qpacked_len(k, n), a);
    qpack_b_t(b.data(), n, k, panels);
    qgemm_packed(rows, m, k, panels, n, rescale, out.data_mut());
}

/// Quantized linear layer: int8 weight, float bias, dynamic or static
/// activation quantization.
///
/// The weight is quantized and packed into the kernel's quad panels once, at
/// construction; only the packed form is kept.
#[derive(Debug, Clone)]
pub struct QLinear {
    /// The `[in, out]` int8 weight in quad panels.
    panels: Vec<i8>,
    in_features: usize,
    out_features: usize,
    /// Scale of the quantized weight.
    weight_scale: f32,
    bias: Option<Vec<f32>>,
    /// Pre-calibrated activation scale; `None` = dynamic (per-call max-abs).
    activation: Option<crate::QuantParams>,
}

impl QLinear {
    /// Quantizes a float linear layer's weight (max-abs, symmetric).
    pub fn from_linear(layer: &heatvit_nn::layers::Linear) -> Self {
        let weight = QTensor::quantize(layer.weight().value());
        let (k, n) = (weight.dim(0), weight.dim(1));
        let mut panels = vec![0; qpacked_len(k, n)];
        qpack_b(weight.data(), k, n, &mut panels);
        Self {
            panels,
            in_features: k,
            out_features: n,
            weight_scale: weight.params().scale,
            bias: layer.bias().map(|b| b.value().data().to_vec()),
            activation: None,
        }
    }

    /// Sets a static activation scale recorded during calibration.
    pub fn set_activation_params(&mut self, params: crate::QuantParams) {
        self.activation = Some(params);
    }

    /// Drops the static activation scale, returning to dynamic max-abs.
    pub fn clear_activation_params(&mut self) {
        self.activation = None;
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The static activation parameters, if calibrated.
    pub fn activation_params(&self) -> Option<crate::QuantParams> {
        self.activation
    }

    /// Validates the input shape with a clear message *before* the integer
    /// pipeline runs. Shared by [`QLinear::infer`] and
    /// [`QLinear::infer_into`]: without the rank check a rank-3 input used
    /// to die with a confusing index panic deep inside `qmatmul`.
    fn check_input(&self, x: &Tensor) {
        assert_eq!(
            x.rank(),
            2,
            "QLinear input must be rank 2 [N, in_features], got rank {}",
            x.rank()
        );
        assert_eq!(x.dim(1), self.in_features, "input width mismatch");
    }

    /// Resolves the activation quantization parameters for one input:
    /// the calibrated static scale if set, dynamic max-abs otherwise.
    fn input_params(&self, x: &Tensor) -> crate::QuantParams {
        self.activation
            .unwrap_or_else(|| crate::QuantParams::observe(x))
    }

    /// Runs `x·W + b` through the integer pipeline: quantize activations,
    /// int8 GEMM, rescale, add float bias.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 `[N, in_features]`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(x, &mut QTensor::default(), &mut out);
        out
    }

    /// [`QLinear::infer`] staging the quantized activations in `qbuf` and
    /// writing the result into `out` (both reused across calls; values
    /// bit-identical to the allocating path). This is the int8 counterpart
    /// of the float layers' `infer_into` discipline: once the buffers are
    /// warm the integer pipeline performs no per-call heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 `[N, in_features]`.
    pub fn infer_into(&self, x: &Tensor, qbuf: &mut QTensor, out: &mut Tensor) {
        self.infer_with(x, qbuf, &mut Vec::new(), out);
    }

    /// [`QLinear::infer_into`] additionally staging the kernel's activation
    /// rows in a caller-owned buffer — the fully allocation-free entry point
    /// used by the quantized blocks.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 `[N, in_features]`.
    pub fn infer_with(&self, x: &Tensor, qbuf: &mut QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
        self.check_input(x);
        QTensor::quantize_with_into(x, self.input_params(x), qbuf);
        self.infer_quantized_into(qbuf, pack, out);
    }

    /// Runs the integer GEMM on activations the caller has already
    /// quantized (e.g. by the fused layer-norm + quantize path, or a single
    /// quantization pass shared by the Q/K/V projections).
    ///
    /// The caller is responsible for having quantized `qx` with this
    /// layer's activation parameters; the kernel simply trusts `qx.params()`.
    ///
    /// # Panics
    ///
    /// Panics if `qx` is not rank-2 `[N, in_features]`.
    pub fn infer_quantized_into(&self, qx: &QTensor, pack: &mut Vec<i8>, out: &mut Tensor) {
        assert_eq!(qx.dims().len(), 2, "QLinear input must be rank 2");
        let (m, k) = (qx.dim(0), qx.dim(1));
        assert_eq!(k, self.in_features, "qmatmul inner dimensions must agree");
        let rescale = qx.params().scale * self.weight_scale;
        out.reset_unspecified(&[m, self.out_features]);
        let (_, rows) = stage(pack, 0, qx);
        qgemm_packed(
            rows,
            m,
            k,
            &self.panels,
            self.out_features,
            rescale,
            out.data_mut(),
        );
        self.add_bias(out);
    }

    fn add_bias(&self, out: &mut Tensor) {
        if let Some(bias) = &self.bias {
            let n = out.dim(1);
            for row in out.data_mut().chunks_mut(n) {
                for (o, &b) in row.iter_mut().zip(bias.iter()) {
                    *o += b;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_nn::layers::Linear;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn qmatmul_tracks_float_gemm() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::rand_normal(&[8, 16], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[16, 8], 0.0, 1.0, &mut rng);
        let exact = a.matmul(&b);
        let quant = qmatmul(&QTensor::quantize(&a), &QTensor::quantize(&b));
        // Relative Frobenius error of an int8 GEMM on unit-scale data.
        let rel = quant.sub(&exact).norm() / exact.norm();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn qmatmul_is_exact_for_representable_values() {
        // Integers within ±127 at scale 1 are exactly representable.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let qa = QTensor::quantize_with(&a, crate::QuantParams { scale: 1.0 });
        let qb = QTensor::quantize_with(&b, crate::QuantParams { scale: 1.0 });
        assert!(qmatmul(&qa, &qb).allclose(&a.matmul(&b), 0.0));
    }

    #[test]
    fn qmatmul_matches_integer_reference_on_edge_geometry() {
        // Remainder tiles (m/k/n off the QMR/QNR grid), single rows/columns
        // and empty shapes must all agree exactly with a naive i32 triple
        // loop — integer accumulation leaves no tolerance to hide behind.
        let mut rng = StdRng::seed_from_u64(20);
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 5, QNR + 1),
            (QMR + 1, QNR - 1, 1),
            (2 * QMR + 3, 33, 2 * QNR + 5),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
            let out = qmatmul(&qa, &qb);
            let rescale = qa.params().scale * qb.params().scale;
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for p in 0..k {
                        acc += qa.data()[i * k + p] as i32 * qb.data()[p * n + j] as i32;
                    }
                    let expect = acc as f32 * rescale;
                    assert_eq!(
                        out.at(&[i, j]),
                        expect,
                        "mismatch at ({i},{j}) of {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    /// Naive `i32` triple loop over row-major `a` (`m×k`) and `b` (`k×n`).
    fn naive_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
            }
        }
        c
    }

    /// Packs `b` both ways, stages `a`, and checks the scalar kernel (called
    /// directly) and the dispatched kernel (VNNI where the CPU has it)
    /// against the naive loop, bit for bit.
    fn check_kernels(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
        let rescale = 0.37f32;
        let want: Vec<u32> = naive_i32(a, b, m, k, n)
            .iter()
            .map(|&v| (v as f32 * rescale).to_bits())
            .collect();
        let mut panels = vec![0; qpacked_len(k, n)];
        qpack_b(b, k, n, &mut panels);
        let bt: Vec<i8> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let mut panels_t = vec![0; qpacked_len(k, n)];
        qpack_b_t(&bt, n, k, &mut panels_t);
        assert_eq!(
            panels, panels_t,
            "transposed packing differs at {m}x{k}x{n}"
        );
        let mut rows = vec![0; m * padded_k(k)];
        stage_rows(a, k, &mut rows);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut c = vec![f32::NAN; m * n];
        qgemm_packed(&rows, m, k, &panels, n, rescale, &mut c);
        assert_eq!(bits(&c), want, "dispatched kernel at {m}x{k}x{n}");
        if m > 0 && n > 0 && k > 0 {
            c.fill(f32::NAN);
            qgemm_scalar(&rows, m, k, &panels, n, rescale, &mut c);
            assert_eq!(bits(&c), want, "scalar kernel at {m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_and_scalar_kernels_match_the_naive_loop() {
        // k covers one partial quad (1, 2, 3), a quad and a bit (5), and the
        // DeiT-T widths; m and n sit off the QMR × QNR tile grid.
        let mut rng = StdRng::seed_from_u64(22);
        let mut draw =
            |len: usize| -> Vec<i8> { (0..len).map(|_| rng.gen_range(-127i8..=127)).collect() };
        for k in [1, 2, 3, 5, 64, 197, 768] {
            for (m, n) in [
                (1, 1),
                (QMR - 1, QNR + 1),
                (QMR + 1, 2 * QNR - 1),
                (2 * QMR + 3, 3 * QNR + 5),
            ] {
                let (a, b) = (draw(m * k), draw(k * n));
                check_kernels(&a, &b, m, k, n);
            }
        }
        for (m, k, n) in [(0, 5, 3), (3, 0, 5), (5, 3, 0), (0, 0, 0)] {
            let (a, b) = (draw(m * k), draw(k * n));
            check_kernels(&a, &b, m, k, n);
        }
    }

    #[test]
    fn biased_products_keep_i32_headroom_at_full_scale() {
        // All-±127 operands at k = 768: the biased sum reaches
        // 255·127·768 ≈ 2.5·10⁷ before the 128·Σb correction.
        let (m, k, n) = (QMR + 1, 768, QNR + 1);
        for (av, bv) in [(127i8, 127i8), (127, -127), (-127, 127), (-127, -127)] {
            check_kernels(&vec![av; m * k], &vec![bv; k * n], m, k, n);
        }
        let alternating: Vec<i8> = (0..m * k)
            .map(|i| if i % 2 == 0 { 127 } else { -127 })
            .collect();
        check_kernels(&alternating, &vec![127; k * n], m, k, n);
    }

    #[test]
    fn qlinear_prepacked_weight_matches_per_call_packing() {
        // The weight packed once at construction gives the same bits as
        // packing the quantized weight on every call.
        let mut rng = StdRng::seed_from_u64(23);
        let layer = Linear::new(37, 21, true, &mut rng);
        let qlayer = QLinear::from_linear(&layer);
        let x = Tensor::rand_normal(&[11, 37], 0.0, 1.0, &mut rng);
        let qx = QTensor::quantize(&x);
        let mut want = qmatmul(&qx, &QTensor::quantize(layer.weight().value()));
        let bias = layer.bias().expect("bias").value().data().to_vec();
        for row in want.data_mut().chunks_mut(21) {
            for (o, &b) in row.iter_mut().zip(&bias) {
                *o += b;
            }
        }
        assert_eq!(qlayer.in_features(), 37);
        assert_eq!(qlayer.out_features(), 21);
        assert_eq!(qlayer.infer(&x).data(), want.data());
    }

    #[test]
    fn qmatmul_repeated_runs_are_bitwise_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::rand_normal(&[19, 37], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[37, 23], 0.0, 1.0, &mut rng);
        let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
        let first = qmatmul(&qa, &qb);
        let mut pack = Vec::new();
        for _ in 0..5 {
            let mut out = Tensor::default();
            qmatmul_with(&qa, &qb, &mut pack, &mut out);
            assert_eq!(out.data(), first.data());
        }
    }

    #[test]
    fn qlinear_matches_float_layer_closely() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(24, 12, true, &mut rng);
        let qlayer = QLinear::from_linear(&layer);
        let x = Tensor::rand_normal(&[5, 24], 0.0, 1.0, &mut rng);
        let exact = layer.infer(&x);
        let quant = qlayer.infer(&x);
        let rel = quant.sub(&exact).norm() / exact.norm();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn static_activation_scale_is_used() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(4, 4, false, &mut rng);
        let mut qlayer = QLinear::from_linear(&layer);
        // A deliberately coarse activation scale must visibly degrade.
        qlayer.set_activation_params(crate::QuantParams::from_abs_max(100.0));
        let x = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let coarse = qlayer.infer(&x);
        let mut fine = QLinear::from_linear(&layer);
        fine.set_activation_params(crate::QuantParams::from_abs_max(3.0));
        let fine_out = fine.infer(&x);
        let exact = layer.infer(&x);
        assert!(
            coarse.sub(&exact).norm() > fine_out.sub(&exact).norm(),
            "coarse calibration should hurt more"
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn qmatmul_checks_shapes() {
        let a = QTensor::quantize(&Tensor::zeros(&[2, 3]));
        let b = QTensor::quantize(&Tensor::zeros(&[4, 2]));
        qmatmul(&a, &b);
    }

    #[test]
    fn qmatmul_transb_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        // Width past several packed panels to exercise the tiled path.
        let a = Tensor::rand_normal(&[5, 80], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[7, 80], 0.0, 1.0, &mut rng);
        let qa = QTensor::quantize(&a);
        let qb = QTensor::quantize(&b);
        let qbt = QTensor::quantize_with(&b.transpose2(), qb.params());
        let direct = qmatmul_transb(&qa, &qb);
        let via_transpose = qmatmul(&qa, &qbt);
        assert!(direct.allclose(&via_transpose, 0.0));
        assert_eq!(direct.dims(), &[5, 7]);
    }

    #[test]
    fn qmatmul_into_variants_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::rand_normal(&[9, 100], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[100, 70], 0.0, 1.0, &mut rng);
        let (qa, qb) = (QTensor::quantize(&a), QTensor::quantize(&b));
        // Stale differently-shaped buffers must be reshaped and overwritten.
        let mut out = Tensor::full(&[2, 2], 9.0);
        qmatmul_into(&qa, &qb, &mut out);
        assert!(out.allclose(&qmatmul(&qa, &qb), 0.0));
        let c = Tensor::rand_normal(&[11, 100], 0.0, 1.0, &mut rng);
        let qc = QTensor::quantize(&c);
        qmatmul_transb_into(&qa, &qc, &mut out);
        assert!(out.allclose(&qmatmul_transb(&qa, &qc), 0.0));
    }

    #[test]
    fn qlinear_infer_into_matches_infer() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(16, 8, true, &mut rng);
        let qlayer = QLinear::from_linear(&layer);
        let x = Tensor::rand_normal(&[6, 16], 0.0, 1.0, &mut rng);
        let mut qbuf = QTensor::default();
        let mut out = Tensor::default();
        qlayer.infer_into(&x, &mut qbuf, &mut out);
        assert!(out.allclose(&qlayer.infer(&x), 0.0));
        // The fully scratch-threaded path and the pre-quantized entry point
        // agree bitwise as well.
        let mut pack = Vec::new();
        let mut out2 = Tensor::default();
        qlayer.infer_with(&x, &mut qbuf, &mut pack, &mut out2);
        assert!(out2.allclose(&out, 0.0));
        qlayer.infer_quantized_into(&qbuf, &mut pack, &mut out2);
        assert!(out2.allclose(&out, 0.0));
    }

    #[test]
    #[should_panic(expected = "rank 2")]
    fn qlinear_infer_rejects_rank3_input_up_front() {
        // Regression: a rank-3 input used to reach qmatmul and die with a
        // confusing index panic; the rank is now asserted at the boundary.
        let mut rng = StdRng::seed_from_u64(6);
        let qlayer = QLinear::from_linear(&Linear::new(4, 4, true, &mut rng));
        qlayer.infer(&Tensor::zeros(&[2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "rank 2")]
    fn qlinear_infer_into_shares_the_rank_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let qlayer = QLinear::from_linear(&Linear::new(4, 4, true, &mut rng));
        qlayer.infer_into(
            &Tensor::zeros(&[2, 3, 4]),
            &mut QTensor::default(),
            &mut Tensor::default(),
        );
    }
}
