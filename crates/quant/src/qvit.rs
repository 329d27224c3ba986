//! The int8 Vision Transformer: every projection through [`QLinear`], every
//! attention product through the integer GEMM, every nonlinearity through
//! the paper's polynomial approximations (Section V, Eqs. 11–14).
//!
//! [`QuantizedViT`] is built *from* a float [`VisionTransformer`] — weights
//! are max-abs quantized once at construction — and mirrors the I-BERT-style
//! integer pipeline HeatViT inherits: `i8×i8→i32` GEMMs rescaled to float,
//! float layer norms and residuals (the components HeatViT leaves on the ARM
//! CPU), [`gelu_approx`](crate::approx::gelu_approx) in the MLP and
//! [`softmax_approx_rows`](crate::approx::softmax_approx_rows) in attention.
//!
//! Activation quantization is **dynamic** (per-tensor max-abs) out of the
//! box and **static** after [`QuantizedViT::calibrate`] records per-layer
//! ranges from a held-out batch — the deployment mode, where no float
//! reduction runs on the accelerator's datapath.
//!
//! MAC accounting is int8-aware: alongside the raw MAC count the model
//! reports *packed-DSP-equivalent* MACs, raw divided by
//! [`DSP_PACKING_FACTOR`] (~1.9×), because the FPGA packs two int8 MACs
//! into one DSP slice (paper Section V-C) — the number the `heatvit-fpga`
//! cycle model charges.

use crate::approx::{gelu_approx_inplace, softmax_approx_rows_inplace};
use crate::qgemm::{qmatmul_transb_with, qmatmul_with, QLinear};
use crate::qtensor::{QTensor, QuantParams};
use crate::scratch::QuantScratch;
use heatvit_nn::layers::LayerNorm;
use heatvit_tensor::Tensor;
use heatvit_vit::flops::BlockComplexity;
use heatvit_vit::{image_to_patches, EncoderBlock, ViTConfig, VisionTransformer};

/// Effective int8 speedup from DSP packing: the accelerator fits two int8
/// MACs per DSP slice, for a measured ~1.9× throughput gain over fp16/fp32
/// MACs (paper Section V-C). The `heatvit-fpga` cycle model consumes the
/// same factor.
pub const DSP_PACKING_FACTOR: f64 = 1.9;

/// Converts a raw MAC count into packed-DSP-equivalent MACs — the cost an
/// int8 datapath is actually charged.
pub fn packed_macs(raw: u64) -> u64 {
    (raw as f64 / DSP_PACKING_FACTOR).round() as u64
}

/// One adaptive pruning stage of the quantized model.
///
/// In front of `block`, patch tokens whose mean class-token attention (from
/// the previous block's *approximated* softmax) falls below
/// `attn_frac × (row mean)` are pruned and consolidated into a package
/// token. The keep count is input-dependent — the quantized counterpart of
/// the selector-driven adaptive pruning, using the attention scores the int8
/// pipeline already produces instead of a float classifier.
#[derive(Debug, Clone, Copy)]
pub struct QuantPruneStage {
    /// Block index the stage precedes (must be ≥ 1: the rule consumes the
    /// previous block's attention maps).
    pub block: usize,
    /// Pruning threshold as a fraction of the mean class-token attention,
    /// in `(0, 1]`. Smaller values prune fewer tokens.
    pub attn_frac: f32,
}

/// Inference result of a [`QuantizedViT`].
#[derive(Debug, Clone)]
pub struct QuantInference {
    /// Classification logits `[1, classes]`.
    pub logits: Tensor,
    /// Token count entering each block (class/package included).
    pub tokens_per_block: Vec<usize>,
    /// Raw MAC count at the actual per-block token counts.
    pub raw_macs: u64,
    /// Packed-DSP-equivalent MACs (`raw_macs / `[`DSP_PACKING_FACTOR`]).
    pub macs: u64,
}

/// Running max-abs observer for one activation-quantization site.
#[derive(Debug, Clone, Copy, Default)]
struct AbsMax(f32);

impl AbsMax {
    fn observe(&mut self, t: &Tensor) {
        for &v in t.data() {
            self.0 = self.0.max(v.abs());
        }
    }

    fn params(self) -> QuantParams {
        QuantParams::from_abs_max(self.0)
    }
}

/// Calibration accumulators for one block's seven activation sites.
#[derive(Debug, Clone, Copy, Default)]
struct BlockCalib {
    qkv_in: AbsMax,
    q: AbsMax,
    k: AbsMax,
    v: AbsMax,
    proj_in: AbsMax,
    fc1_in: AbsMax,
    fc2_in: AbsMax,
}

/// Whole-model calibration accumulators.
#[derive(Debug, Clone)]
struct ModelCalib {
    patch_in: AbsMax,
    head_in: AbsMax,
    blocks: Vec<BlockCalib>,
}

impl ModelCalib {
    fn new(depth: usize) -> Self {
        Self {
            patch_in: AbsMax::default(),
            head_in: AbsMax::default(),
            blocks: vec![BlockCalib::default(); depth],
        }
    }
}

/// `acc += rhs` elementwise, as `acc[i] + rhs[i]` — the operand order of
/// `Tensor::add`, so the sum is bitwise the allocating one.
fn add_assign(acc: &mut Tensor, rhs: &Tensor) {
    assert_eq!(acc.dims(), rhs.dims(), "residual shapes must agree");
    for (a, &r) in acc.data_mut().iter_mut().zip(rhs.data()) {
        *a += r;
    }
}

/// Static activation scales for the per-head attention operands, recorded
/// over the full `[N, D]` projection tensors during calibration.
#[derive(Debug, Clone, Copy)]
struct AttnActParams {
    q: QuantParams,
    k: QuantParams,
    v: QuantParams,
}

/// One encoder block on the integer pipeline.
#[derive(Debug, Clone)]
struct QuantizedBlock {
    ln1: LayerNorm,
    ln2: LayerNorm,
    wq: QLinear,
    wk: QLinear,
    wv: QLinear,
    proj: QLinear,
    fc1: QLinear,
    fc2: QLinear,
    num_heads: usize,
    head_dim: usize,
    attn_acts: Option<AttnActParams>,
}

impl QuantizedBlock {
    fn from_block(block: &EncoderBlock) -> Self {
        let attn = block.attention();
        Self {
            ln1: block.ln1().clone(),
            ln2: block.ln2().clone(),
            wq: QLinear::from_linear(attn.wq()),
            wk: QLinear::from_linear(attn.wk()),
            wv: QLinear::from_linear(attn.wv()),
            proj: QLinear::from_linear(attn.proj()),
            fc1: QLinear::from_linear(block.ffn().fc1()),
            fc2: QLinear::from_linear(block.ffn().fc2()),
            num_heads: attn.num_heads(),
            head_dim: attn.head_dim(),
            attn_acts: None,
        }
    }

    /// One block forward on the integer pipeline. Leaves the block output in
    /// `scratch.ffn_out` and the block's mean class-token attention (per
    /// patch token, averaged over heads) in `scratch.cls_attn` for the
    /// adaptive pruning stages. Both residual sums are added in place, so a
    /// warm scratch makes the block allocation-free.
    fn infer_with(
        &self,
        x: &Tensor,
        delta1: f32,
        delta2: f32,
        scratch: &mut QuantScratch,
        mut calib: Option<&mut BlockCalib>,
    ) {
        let n = x.dim(0);
        let dim = self.num_heads * self.head_dim;
        // With calibrated activation scales (and no observer attached) the
        // layer norm fuses with quantization: normalized tiles are quantized
        // as they are produced, one int8 staging pass serves all three Q/K/V
        // GEMMs, and the normalized float activations never materialize.
        // Bit-identical to the unfused path — the per-element layer-norm and
        // quantize arithmetic is unchanged, only the staging differs.
        let qkv_static = (calib.is_none())
            .then(|| self.wq.activation_params())
            .flatten();
        if let Some(params) = qkv_static {
            debug_assert_eq!(Some(params), self.wk.activation_params());
            debug_assert_eq!(Some(params), self.wv.activation_params());
            let fill = scratch.qa.start_fill(&[n, dim], params);
            self.ln1
                .infer_tiles(x, 8, &mut scratch.ln_tile, |_r0, _nr, t| {
                    fill.extend(t.iter().map(|&v| params.quantize(v)));
                });
            self.wq
                .infer_quantized_into(&scratch.qa, &mut scratch.pack, &mut scratch.q);
            self.wk
                .infer_quantized_into(&scratch.qa, &mut scratch.pack, &mut scratch.k);
            self.wv
                .infer_quantized_into(&scratch.qa, &mut scratch.pack, &mut scratch.v);
        } else {
            self.ln1.infer_into(x, &mut scratch.normed);
            if let Some(c) = calib.as_deref_mut() {
                c.qkv_in.observe(&scratch.normed);
            }
            self.wq.infer_with(
                &scratch.normed,
                &mut scratch.qa,
                &mut scratch.pack,
                &mut scratch.q,
            );
            self.wk.infer_with(
                &scratch.normed,
                &mut scratch.qa,
                &mut scratch.pack,
                &mut scratch.k,
            );
            self.wv.infer_with(
                &scratch.normed,
                &mut scratch.qa,
                &mut scratch.pack,
                &mut scratch.v,
            );
        }
        if let Some(c) = calib.as_deref_mut() {
            c.q.observe(&scratch.q);
            c.k.observe(&scratch.k);
            c.v.observe(&scratch.v);
        }
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // The approximated softmax output lives in [0, δ₂] by construction,
        // so its quantization scale is static even in dynamic mode.
        let attn_params = QuantParams::from_abs_max(delta2);
        scratch.heads.reset_unspecified(&[n, dim]);
        scratch.cls_attn.clear();
        scratch.cls_attn.resize(n.saturating_sub(1), 0.0);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * self.head_dim, (h + 1) * self.head_dim);
            scratch.q.slice_cols_into(lo, hi, &mut scratch.qh);
            scratch.k.slice_cols_into(lo, hi, &mut scratch.kh);
            scratch.v.slice_cols_into(lo, hi, &mut scratch.vh);
            let (qp, kp, vp) = match &self.attn_acts {
                Some(a) => (a.q, a.k, a.v),
                None => (
                    QuantParams::observe(&scratch.qh),
                    QuantParams::observe(&scratch.kh),
                    QuantParams::observe(&scratch.vh),
                ),
            };
            // Scores: int8 Q·Kᵀ, rescaled, approximated softmax in place.
            QTensor::quantize_with_into(&scratch.qh, qp, &mut scratch.qa);
            QTensor::quantize_with_into(&scratch.kh, kp, &mut scratch.qb);
            qmatmul_transb_with(
                &scratch.qa,
                &scratch.qb,
                &mut scratch.pack,
                &mut scratch.scores,
            );
            for s in scratch.scores.data_mut() {
                *s *= scale;
            }
            softmax_approx_rows_inplace(&mut scratch.scores, delta2);
            for (j, a) in scratch.cls_attn.iter_mut().enumerate() {
                *a += scratch.scores.at(&[0, j + 1]);
            }
            // Context: int8 attn·V, written into this head's column band.
            QTensor::quantize_with_into(&scratch.scores, attn_params, &mut scratch.qa);
            QTensor::quantize_with_into(&scratch.vh, vp, &mut scratch.qb);
            qmatmul_with(
                &scratch.qa,
                &scratch.qb,
                &mut scratch.pack,
                &mut scratch.head_out,
            );
            let (head_out, heads) = (&scratch.head_out, &mut scratch.heads);
            let width = self.head_dim;
            for r in 0..n {
                heads.data_mut()[r * dim + lo..r * dim + hi]
                    .copy_from_slice(&head_out.data()[r * width..(r + 1) * width]);
            }
        }
        for a in scratch.cls_attn.iter_mut() {
            *a /= self.num_heads as f32;
        }
        if let Some(c) = calib.as_deref_mut() {
            c.proj_in.observe(&scratch.heads);
        }
        self.proj.infer_with(
            &scratch.heads,
            &mut scratch.qa,
            &mut scratch.pack,
            &mut scratch.attn_out,
        );
        add_assign(&mut scratch.attn_out, x);
        let x1 = &scratch.attn_out;
        // Same fusion for the pre-FFN norm feeding fc1.
        let fc1_static = (calib.is_none())
            .then(|| self.fc1.activation_params())
            .flatten();
        if let Some(params) = fc1_static {
            let fill = scratch.qa.start_fill(&[n, self.fc1.in_features()], params);
            self.ln2
                .infer_tiles(x1, 8, &mut scratch.ln_tile, |_r0, _nr, t| {
                    fill.extend(t.iter().map(|&v| params.quantize(v)));
                });
            self.fc1
                .infer_quantized_into(&scratch.qa, &mut scratch.pack, &mut scratch.ffn_hidden);
        } else {
            self.ln2.infer_into(x1, &mut scratch.normed);
            if let Some(c) = calib.as_deref_mut() {
                c.fc1_in.observe(&scratch.normed);
            }
            self.fc1.infer_with(
                &scratch.normed,
                &mut scratch.qa,
                &mut scratch.pack,
                &mut scratch.ffn_hidden,
            );
        }
        gelu_approx_inplace(&mut scratch.ffn_hidden, delta1);
        if let Some(c) = calib {
            c.fc2_in.observe(&scratch.ffn_hidden);
        }
        self.fc2.infer_with(
            &scratch.ffn_hidden,
            &mut scratch.qa,
            &mut scratch.pack,
            &mut scratch.ffn_out,
        );
        add_assign(&mut scratch.ffn_out, x1);
    }

    fn apply_calibration(&mut self, c: &BlockCalib) {
        self.wq.set_activation_params(c.qkv_in.params());
        self.wk.set_activation_params(c.qkv_in.params());
        self.wv.set_activation_params(c.qkv_in.params());
        self.proj.set_activation_params(c.proj_in.params());
        self.fc1.set_activation_params(c.fc1_in.params());
        self.fc2.set_activation_params(c.fc2_in.params());
        self.attn_acts = Some(AttnActParams {
            q: c.q.params(),
            k: c.k.params(),
            v: c.v.params(),
        });
    }
}

/// The int8 patch embedding: quantized projection, float class token and
/// position embeddings (parameters, added once — no datapath GEMM).
#[derive(Debug, Clone)]
struct QPatchEmbed {
    proj: QLinear,
    cls_token: Tensor,
    pos_embed: Tensor,
    patch_size: usize,
}

/// An int8 implementation of the ViT family: [`QLinear`] projections,
/// integer attention products, approximated GELU/softmax, optional adaptive
/// token pruning, and packed-DSP MAC accounting.
///
/// # Examples
///
/// ```
/// use heatvit_quant::QuantizedViT;
/// use heatvit_tensor::Tensor;
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let float_model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
/// let qmodel = QuantizedViT::from_float(&float_model);
/// let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
/// let out = qmodel.infer(&image);
/// assert_eq!(out.logits.dims(), &[1, 4]);
/// // Packed-DSP accounting charges ~1/1.9 of the raw int8 MACs.
/// assert!(out.macs < out.raw_macs);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedViT {
    config: ViTConfig,
    patch: QPatchEmbed,
    blocks: Vec<QuantizedBlock>,
    norm: LayerNorm,
    head: QLinear,
    delta1: f32,
    delta2: f32,
    stages: Vec<QuantPruneStage>,
    /// Nominal keep ratio per stage (fraction of original patch tokens
    /// expected to survive), for cost prediction only — empty means "treat
    /// every stage as keeping everything" (conservative). Same length as
    /// `stages` once declared.
    nominal_keep: Vec<f32>,
    calibrated: bool,
}

// Serving worker pools own models and move them across threads; a future
// non-`Send`/`Sync` field must fail to build here rather than at the spawn
// site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuantizedViT>();
};

impl QuantizedViT {
    /// Quantizes a float model's weights (max-abs, symmetric int8) into a
    /// dense int8 model with dynamic activation quantization.
    ///
    /// The regularization factors default to `δ₁ = δ₂ = 1`: the paper's
    /// `δ < 1` shrinks quantization error during quantization-aware
    /// fine-tuning, but applied post-hoc to weights that never trained with
    /// it, it would only skew the function away from the float reference.
    /// Use [`QuantizedViT::set_deltas`] to study the regularized kernels.
    pub fn from_float(model: &VisionTransformer) -> Self {
        let embed = model.patch_embed();
        Self {
            config: model.config().clone(),
            patch: QPatchEmbed {
                proj: QLinear::from_linear(embed.projection()),
                cls_token: embed.cls_token().value().clone(),
                pos_embed: embed.pos_embed().value().clone(),
                patch_size: embed.patch_size(),
            },
            blocks: model
                .blocks()
                .iter()
                .map(QuantizedBlock::from_block)
                .collect(),
            norm: model.norm().clone(),
            head: QLinear::from_linear(model.head()),
            delta1: 1.0,
            delta2: 1.0,
            stages: Vec::new(),
            nominal_keep: Vec::new(),
            calibrated: false,
        }
    }

    /// Installs adaptive pruning stages, turning this into the
    /// `int8-adaptive` variant.
    ///
    /// # Panics
    ///
    /// Panics if stages are out of order, start before block 1, exceed the
    /// depth, or have thresholds outside `(0, 1]`.
    pub fn with_prune_stages(mut self, stages: Vec<QuantPruneStage>) -> Self {
        let mut last = 0;
        for s in &stages {
            assert!(s.block >= 1, "stage needs the previous block's attention");
            assert!(s.block < self.config.depth, "stage block out of range");
            assert!(s.block > last || last == 0, "stages must be in block order");
            assert!(
                s.attn_frac > 0.0 && s.attn_frac <= 1.0,
                "attention threshold fraction must be in (0, 1]"
            );
            last = s.block;
        }
        self.stages = stages;
        self.nominal_keep.clear();
        self
    }

    /// The backbone architecture configuration.
    pub fn config(&self) -> &ViTConfig {
        &self.config
    }

    /// [`QuantizedViT::variant_name`] of a model with no pruning stages.
    pub const VARIANT_DENSE: &'static str = "int8-dense";
    /// [`QuantizedViT::variant_name`] of a model with pruning stages.
    pub const VARIANT_ADAPTIVE: &'static str = "int8-adaptive";

    /// [`Self::VARIANT_DENSE`] or [`Self::VARIANT_ADAPTIVE`] depending on
    /// whether pruning stages are installed.
    pub fn variant_name(&self) -> &'static str {
        if self.stages.is_empty() {
            Self::VARIANT_DENSE
        } else {
            Self::VARIANT_ADAPTIVE
        }
    }

    /// The installed pruning stages (empty for the dense variant).
    pub fn prune_stages(&self) -> &[QuantPruneStage] {
        &self.stages
    }

    /// Declares the nominal keep ratio of each pruning stage (fraction of
    /// the *original* patch tokens expected to survive from that stage on),
    /// for cost prediction only. The attention-threshold stages still
    /// decide per image — this records what the thresholds were tuned for.
    ///
    /// # Panics
    ///
    /// Panics if `keeps` is not one ratio per installed stage or any ratio
    /// is outside `(0, 1]`.
    pub fn set_nominal_keep(&mut self, keeps: &[f32]) {
        assert_eq!(
            keeps.len(),
            self.stages.len(),
            "need one nominal keep ratio per pruning stage"
        );
        assert!(
            keeps.iter().all(|&k| k > 0.0 && k <= 1.0),
            "keep ratios must be in (0, 1]"
        );
        self.nominal_keep = keeps.to_vec();
    }

    /// Expected token count entering each block under the declared nominal
    /// stage keep ratios: kept patches + class token + package token once
    /// pruning has begun (the int8 pruning stages always consolidate pruned
    /// tokens into a package). Without a
    /// [`QuantizedViT::set_nominal_keep`] declaration every stage is
    /// treated as keeping all tokens — a conservative over-estimate.
    pub fn expected_tokens_per_block(&self) -> Vec<usize> {
        let n = self.config.num_patches();
        let mut keep = 1.0f32;
        let mut out = Vec::with_capacity(self.config.depth);
        let mut stage_iter = self.stages.iter().zip(
            self.nominal_keep
                .iter()
                .copied()
                .chain(std::iter::repeat(1.0)),
        );
        let mut next = stage_iter.next();
        for bi in 0..self.config.depth {
            if let Some((stage, k)) = next {
                if stage.block == bi {
                    keep = k;
                    next = stage_iter.next();
                }
            }
            let kept = ((keep * n as f32).ceil() as usize).clamp(1, n);
            out.push(kept + 1 + usize::from(keep < 1.0));
        }
        out
    }

    /// Packed-DSP-equivalent MAC count at an arbitrary per-block token
    /// schedule — exactly the accounting [`QuantizedViT::infer`] reports
    /// for an inference whose actual counts equal `tokens_per_block`.
    pub fn packed_macs_for(&self, tokens_per_block: &[usize]) -> u64 {
        packed_macs(self.raw_macs_for(tokens_per_block))
    }

    /// Overrides the regularization factors `δ₁` (GELU) and `δ₂` (softmax).
    pub fn set_deltas(&mut self, delta1: f32, delta2: f32) {
        self.delta1 = delta1;
        self.delta2 = delta2;
    }

    /// `true` once [`QuantizedViT::calibrate`] has recorded static
    /// activation scales.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Records static activation [`QuantParams`] for every quantization site
    /// from a held-out batch: each site's max-abs is accumulated across the
    /// whole batch, then frozen into per-layer scales. Until this runs (or
    /// after [`QuantizedViT::clear_calibration`]) every site falls back to
    /// dynamic per-tensor max-abs.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub fn calibrate(&mut self, images: &[Tensor]) {
        assert!(!images.is_empty(), "calibration needs at least one image");
        let mut calib = ModelCalib::new(self.config.depth);
        let mut scratch = QuantScratch::default();
        for image in images {
            self.forward_internal(image, &mut scratch, Some(&mut calib));
        }
        self.patch
            .proj
            .set_activation_params(calib.patch_in.params());
        self.head.set_activation_params(calib.head_in.params());
        for (block, c) in self.blocks.iter_mut().zip(calib.blocks.iter()) {
            block.apply_calibration(c);
        }
        self.calibrated = true;
    }

    /// Drops all static activation scales, returning to dynamic max-abs.
    pub fn clear_calibration(&mut self) {
        self.patch.proj.clear_activation_params();
        self.head.clear_activation_params();
        for block in &mut self.blocks {
            block.wq.clear_activation_params();
            block.wk.clear_activation_params();
            block.wv.clear_activation_params();
            block.proj.clear_activation_params();
            block.fc1.clear_activation_params();
            block.fc2.clear_activation_params();
            block.attn_acts = None;
        }
        self.calibrated = false;
    }

    /// Classifies one image through the integer pipeline.
    pub fn infer(&self, image: &Tensor) -> QuantInference {
        self.infer_with(image, &mut QuantScratch::default())
    }

    /// [`QuantizedViT::infer`] reusing a caller-provided scratch workspace.
    ///
    /// Bit-identical to the allocating path: activations, int8 staging
    /// buffers, and repacking buffers all live in `scratch`, so a warmed-up
    /// workspace keeps the integer hot path free of per-image allocation for
    /// them — the same discipline as the float engine.
    pub fn infer_with(&self, image: &Tensor, scratch: &mut QuantScratch) -> QuantInference {
        self.forward_internal(image, scratch, None)
    }

    /// Predicted class for one image.
    pub fn predict(&self, image: &Tensor) -> usize {
        self.infer(image).logits.argmax_rows()[0]
    }

    /// Raw MAC count with the full token count in every block — the
    /// float-equivalent dense baseline int8 speedups are measured against
    /// (deliberately *not* packed, so `dense / packed` exposes the ~1.9×
    /// DSP-packing gain).
    pub fn dense_macs(&self) -> u64 {
        self.raw_macs_for(&vec![self.config.num_tokens(); self.config.depth])
    }

    fn raw_macs_for(&self, tokens_per_block: &[usize]) -> u64 {
        let cfg = &self.config;
        let patch = (cfg.num_patches() * cfg.patch_dim() * cfg.embed_dim) as u64;
        let head = (cfg.embed_dim * cfg.num_classes) as u64;
        patch
            + head
            + tokens_per_block
                .iter()
                .map(|&n| BlockComplexity::closed_form(cfg, n))
                .sum::<u64>()
    }

    fn forward_internal(
        &self,
        image: &Tensor,
        scratch: &mut QuantScratch,
        mut calib: Option<&mut ModelCalib>,
    ) -> QuantInference {
        let patches = image_to_patches(image, self.patch.patch_size);
        if let Some(m) = calib.as_deref_mut() {
            m.patch_in.observe(&patches);
        }
        let embedded = self.patch.proj.infer(&patches);
        let mut tokens =
            Tensor::concat_rows(&[&self.patch.cls_token, &embedded]).add(&self.patch.pos_embed);
        let mut tokens_per_block = Vec::with_capacity(self.config.depth);
        let mut stage_iter = self.stages.iter().peekable();
        for (bi, block) in self.blocks.iter().enumerate() {
            if let Some(stage) = stage_iter.peek() {
                if stage.block == bi {
                    self.prune_stage(&mut tokens, stage.attn_frac, scratch);
                    stage_iter.next();
                }
            }
            tokens_per_block.push(tokens.dim(0));
            let block_calib = calib.as_deref_mut().map(|m| &mut m.blocks[bi]);
            block.infer_with(&tokens, self.delta1, self.delta2, scratch, block_calib);
            std::mem::swap(&mut tokens, &mut scratch.ffn_out);
        }
        tokens.slice_rows_into(0, 1, &mut scratch.cls);
        self.norm.infer_into(&scratch.cls, &mut scratch.normed);
        if let Some(m) = calib {
            m.head_in.observe(&scratch.normed);
        }
        let logits = self.head.infer(&scratch.normed);
        let raw_macs = self.raw_macs_for(&tokens_per_block);
        QuantInference {
            logits,
            tokens_per_block,
            raw_macs,
            macs: packed_macs(raw_macs),
        }
    }

    /// Prunes patch tokens whose mean class-token attention (left in
    /// `scratch.cls_attn` by the previous block) falls below
    /// `frac × mean attention`, consolidating them into one
    /// attention-weighted package token (the Eq. 10 flow on int8 attention).
    fn prune_stage(&self, tokens: &mut Tensor, frac: f32, scratch: &mut QuantScratch) {
        let n = tokens.dim(0);
        let n_patches = n - 1;
        debug_assert_eq!(scratch.cls_attn.len(), n_patches);
        let mean = scratch.cls_attn.iter().sum::<f32>() / n_patches.max(1) as f32;
        let thresh = frac * mean;
        scratch.kept.clear();
        scratch.pruned.clear();
        for (i, &a) in scratch.cls_attn.iter().enumerate() {
            if a >= thresh {
                scratch.kept.push(i);
            } else {
                scratch.pruned.push(i);
            }
        }
        if scratch.pruned.is_empty() {
            return;
        }
        if scratch.kept.is_empty() {
            // Never prune everything: keep the single most-attended token.
            let best = scratch
                .pruned
                .iter()
                .copied()
                .max_by(|&a, &b| scratch.cls_attn[a].total_cmp(&scratch.cls_attn[b]))
                .expect("at least one patch token");
            scratch.kept.push(best);
            scratch.pruned.retain(|&i| i != best);
        }
        tokens.slice_rows_into(1, n, &mut scratch.patches);
        tokens.slice_rows_into(0, 1, &mut scratch.cls);
        scratch
            .patches
            .gather_rows_into(&scratch.kept, &mut scratch.kept_rows);
        // Attention-weighted package token over the pruned rows — the same
        // Eq. 10 consolidation as `heatvit_selector::packager::package_tokens`
        // (weights and zero-sum fallback must stay in sync with it); it
        // cannot be called from here because `heatvit-selector` depends on
        // this crate for the engine's shared scratch.
        let d = tokens.dim(1);
        let mut package = vec![0.0f32; d];
        let wsum: f32 = scratch.pruned.iter().map(|&i| scratch.cls_attn[i]).sum();
        for &i in &scratch.pruned {
            let w = if wsum > 1e-12 {
                scratch.cls_attn[i] / wsum
            } else {
                1.0 / scratch.pruned.len() as f32
            };
            for (p, &x) in package.iter_mut().zip(scratch.patches.row(i)) {
                *p += w * x;
            }
        }
        let package = Tensor::from_vec(package, &[1, d]);
        Tensor::concat_rows_into(
            &[&scratch.cls, &scratch.kept_rows, &package],
            &mut scratch.repacked,
        );
        std::mem::swap(tokens, &mut scratch.repacked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn float_and_quant(seed: u64) -> (VisionTransformer, QuantizedViT, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = VisionTransformer::new(ViTConfig::micro(8), &mut rng);
        let qmodel = QuantizedViT::from_float(&model);
        (model, qmodel, rng)
    }

    fn image(rng: &mut StdRng) -> Tensor {
        Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, rng)
    }

    #[test]
    fn dense_int8_tracks_float_logits() {
        let (model, qmodel, mut rng) = float_and_quant(0);
        let img = image(&mut rng);
        let exact = model.infer(&img);
        let quant = qmodel.infer(&img);
        let rel = quant.logits.sub(&exact).norm() / exact.norm().max(1e-9);
        assert!(rel < 0.25, "relative logit error {rel}");
        assert_eq!(quant.tokens_per_block, vec![17; 6]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (_, qmodel, mut rng) = float_and_quant(1);
        let imgs: Vec<Tensor> = (0..3).map(|_| image(&mut rng)).collect();
        let mut scratch = QuantScratch::default();
        for img in &imgs {
            let warm = qmodel.infer_with(img, &mut scratch);
            let fresh = qmodel.infer(img);
            assert_eq!(warm.logits.data(), fresh.logits.data());
        }
    }

    #[test]
    fn calibration_freezes_static_scales() {
        let (_, mut qmodel, mut rng) = float_and_quant(2);
        assert!(!qmodel.is_calibrated());
        let batch: Vec<Tensor> = (0..4).map(|_| image(&mut rng)).collect();
        qmodel.calibrate(&batch);
        assert!(qmodel.is_calibrated());
        // Calibrated inference is deterministic and still classifies.
        let img = image(&mut rng);
        let a = qmodel.infer(&img);
        let b = qmodel.infer(&img);
        assert_eq!(a.logits.data(), b.logits.data());
        qmodel.clear_calibration();
        assert!(!qmodel.is_calibrated());
    }

    #[test]
    fn calibrated_and_dynamic_modes_agree_closely() {
        let (model, mut qmodel, mut rng) = float_and_quant(3);
        let batch: Vec<Tensor> = (0..4).map(|_| image(&mut rng)).collect();
        let img = image(&mut rng);
        let exact = model.infer(&img);
        let dynamic = qmodel.infer(&img);
        qmodel.calibrate(&batch);
        let calibrated = qmodel.infer(&img);
        for out in [&dynamic, &calibrated] {
            let rel = out.logits.sub(&exact).norm() / exact.norm().max(1e-9);
            assert!(rel < 0.3, "relative logit error {rel}");
        }
    }

    #[test]
    fn adaptive_stages_shrink_tokens_and_macs() {
        let (_, qmodel, mut rng) = float_and_quant(4);
        let dense_packed = packed_macs(qmodel.dense_macs());
        let qmodel = qmodel.with_prune_stages(vec![
            QuantPruneStage {
                block: 2,
                attn_frac: 0.9,
            },
            QuantPruneStage {
                block: 4,
                attn_frac: 0.9,
            },
        ]);
        assert_eq!(qmodel.variant_name(), "int8-adaptive");
        let img = image(&mut rng);
        let out = qmodel.infer(&img);
        assert_eq!(out.tokens_per_block.len(), 6);
        assert_eq!(out.tokens_per_block[0], 17);
        // With package token the count after a stage is ≤ 17 + 1; it must
        // never grow across stages.
        assert!(out.tokens_per_block[2] <= 18);
        assert!(out.tokens_per_block[4] <= out.tokens_per_block[2] + 1);
        if out.tokens_per_block[2] < 17 {
            assert!(out.macs < dense_packed);
        }
        assert!(out.logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fused_static_ln_quantize_is_bitwise_identical_to_two_step() {
        let (_, mut qmodel, mut rng) = float_and_quant(9);
        let batch: Vec<Tensor> = (0..2).map(|_| image(&mut rng)).collect();
        qmodel.calibrate(&batch);
        let block = &qmodel.blocks[0];
        let dim = qmodel.config.embed_dim;
        let x = Tensor::rand_normal(&[9, dim], 0.0, 1.0, &mut rng);

        // Unfused reference: materialize LN output, quantize it whole.
        let normed = block.ln1.infer(&x);
        let params = block.wq.activation_params().expect("calibrated");
        let qx = QTensor::quantize_with(&normed, params);
        let mut want = Tensor::default();
        block
            .wq
            .infer_quantized_into(&qx, &mut Vec::new(), &mut want);

        // Fused path: run the block and inspect the staged Q projection
        // (scratch.q is written once, straight off the fused quantize).
        let mut scratch = QuantScratch::default();
        block.infer_with(&x, 1.0, 1.0, &mut scratch, None);
        assert_eq!(scratch.q.data(), want.data());
    }

    #[test]
    fn packed_macs_apply_the_dsp_factor() {
        let (_, qmodel, mut rng) = float_and_quant(5);
        let out = qmodel.infer(&image(&mut rng));
        let expect = (out.raw_macs as f64 / DSP_PACKING_FACTOR).round() as u64;
        assert_eq!(out.macs, expect);
        // Dense int8 raw MACs equal the float dense baseline, so the packed
        // speedup is exactly the DSP factor.
        assert_eq!(out.raw_macs, qmodel.dense_macs());
        let speedup = qmodel.dense_macs() as f64 / out.macs as f64;
        assert!((speedup - DSP_PACKING_FACTOR).abs() < 1e-3);
    }

    #[test]
    fn raw_macs_match_the_float_models_accounting() {
        let (model, qmodel, _) = float_and_quant(6);
        assert_eq!(qmodel.dense_macs(), model.macs());
    }

    #[test]
    #[should_panic(expected = "previous block's attention")]
    fn stage_before_block_one_is_rejected() {
        let (_, qmodel, _) = float_and_quant(7);
        qmodel.with_prune_stages(vec![QuantPruneStage {
            block: 0,
            attn_frac: 0.5,
        }]);
    }

    #[test]
    fn delta_regularizers_shrink_activations() {
        let (_, mut qmodel, mut rng) = float_and_quant(8);
        let img = image(&mut rng);
        let plain = qmodel.infer(&img);
        qmodel.set_deltas(0.5, 0.5);
        let reg = qmodel.infer(&img);
        // δ < 1 is a different function — outputs must change but stay
        // finite (the Section V-E regularization study entry point).
        assert!(plain.logits.max_abs_diff(&reg.logits) > 0.0);
        assert!(reg.logits.data().iter().all(|v| v.is_finite()));
    }
}
