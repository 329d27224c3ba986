//! The float forward pass rebuilt from the layer crates' public calls, with
//! an optional span clock around every call.
//!
//! The replay executes exactly the arithmetic of `VisionTransformer::infer`
//! and `PrunedViT::infer` (the same public functions in the same order), so
//! its logits must equal the engine's bitwise; the traced run checks that
//! before it reports a single layer time.

use heatvit_nn::layers::layer_norm_project_into;
use heatvit_selector::packager::package_tokens;
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_tensor::{GemmScratch, Tensor};
use heatvit_vit::{EncoderBlock, VisionTransformer};
use std::time::Instant;

/// Every span the replay records, one per wrapped public call family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PatchEmbed::infer`.
    PatchEmbed,
    /// `layer_norm_project_into` over W_q, W_k, W_v (LayerNorm fused).
    Qkv,
    /// `Tensor::matmul_transb_with` (Q·Kᵀ per head).
    Qk,
    /// `Tensor::matmul_with` (attention · V per head).
    Av,
    /// `Linear::infer_with` (output projection).
    Proj,
    /// `layer_norm_project_into` over fc1 (LayerNorm fused).
    Fc1,
    /// `Linear::infer_with` (fc2).
    Fc2,
    /// `Tensor::softmax_rows`.
    Softmax,
    /// `Activation::apply_inplace` (exact GELU).
    Gelu,
    /// The two residual `Tensor::add`s.
    Residual,
    /// Final LayerNorm, class-token slice and classifier `Linear::infer`.
    Head,
    /// Per-head column slices, score scaling and head concatenation.
    Glue,
    /// `TokenSelector::infer`.
    SelScore,
    /// Keep/prune partition, row gathers and the repacking concat.
    SelRepack,
    /// `package_tokens`.
    SelPackage,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 15] = [
        Layer::PatchEmbed,
        Layer::Qkv,
        Layer::Qk,
        Layer::Av,
        Layer::Proj,
        Layer::Fc1,
        Layer::Fc2,
        Layer::Softmax,
        Layer::Gelu,
        Layer::Residual,
        Layer::Head,
        Layer::Glue,
        Layer::SelScore,
        Layer::SelRepack,
        Layer::SelPackage,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Layer::PatchEmbed => "vit.patch_embed",
            Layer::Qkv => "vit.qkv",
            Layer::Qk => "vit.qk",
            Layer::Av => "vit.av",
            Layer::Proj => "vit.proj",
            Layer::Fc1 => "vit.fc1",
            Layer::Fc2 => "vit.fc2",
            Layer::Softmax => "vit.softmax",
            Layer::Gelu => "vit.gelu",
            Layer::Residual => "vit.residual",
            Layer::Head => "vit.head",
            Layer::Glue => "vit.glue",
            Layer::SelScore => "selector.score",
            Layer::SelRepack => "selector.repack",
            Layer::SelPackage => "selector.package",
        }
    }

    /// Whether the layer belongs to the token selector.
    pub fn is_selector(self) -> bool {
        matches!(self, Layer::SelScore | Layer::SelRepack | Layer::SelPackage)
    }
}

/// Accumulated self time per layer, in nanoseconds. Spans never nest, so a
/// span's duration is its self time.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Indexed by position in [`Layer::ALL`].
    pub ns: [u64; Layer::ALL.len()],
}

impl Spans {
    /// Self time of `layer` in nanoseconds.
    #[cfg(test)]
    pub fn get(&self, layer: Layer) -> u64 {
        self.ns[Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("listed layer")]
    }

    fn add(&mut self, layer: Layer, ns: u64) {
        let i = Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("listed layer");
        self.ns[i] += ns;
    }
}

/// Reusable buffers of the replay plus its optional span clock.
#[derive(Debug, Default)]
pub struct Replay {
    gs: GemmScratch,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: Tensor,
    hidden: Tensor,
    ffn_out: Tensor,
    patches: Tensor,
    cls: Tensor,
    kept_rows: Tensor,
    pruned_rows: Tensor,
    /// `Some` while tracing: spans of the current image.
    spans: Option<Spans>,
}

/// Result of one replayed image.
#[derive(Debug, Clone)]
pub struct ReplayOutput {
    /// Logits `[1, classes]`.
    pub logits: Tensor,
    /// Token count entering each block.
    pub tokens_per_block: Vec<usize>,
    /// Token matrices entering the requested capture blocks, in order.
    pub captured: Vec<Tensor>,
}

impl Replay {
    /// A replay that records spans.
    pub fn traced() -> Self {
        Self {
            spans: Some(Spans::default()),
            ..Self::default()
        }
    }

    /// Takes the spans recorded since the last call.
    pub fn take_spans(&mut self) -> Spans {
        self.spans.replace(Spans::default()).unwrap_or_default()
    }

    fn start(&self) -> Option<Instant> {
        self.spans.as_ref().map(|_| Instant::now())
    }

    fn stop(&mut self, layer: Layer, start: Option<Instant>) {
        if let (Some(spans), Some(t)) = (self.spans.as_mut(), start) {
            spans.add(layer, t.elapsed().as_nanos() as u64);
        }
    }

    /// Patch embedding: image → `[N+1, D]` tokens.
    pub fn patch_embed(&mut self, model: &VisionTransformer, image: &Tensor) -> Tensor {
        let t = self.start();
        let tokens = model.patch_embed().infer(image);
        self.stop(Layer::PatchEmbed, t);
        tokens
    }

    /// One encoder block, as `EncoderBlock::infer_with` computes it.
    pub fn block(&mut self, block: &EncoderBlock, x: &Tensor) -> Tensor {
        let attn = block.attention();
        let t = self.start();
        layer_norm_project_into(
            block.ln1(),
            &[attn.wq(), attn.wk(), attn.wv()],
            x,
            &mut self.gs,
            &mut [&mut self.q, &mut self.k, &mut self.v],
        );
        self.stop(Layer::Qkv, t);
        let head_dim = attn.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut outs = Vec::with_capacity(attn.num_heads());
        for h in 0..attn.num_heads() {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let t = self.start();
            let qh = self.q.slice_cols(lo, hi);
            let kh = self.k.slice_cols(lo, hi);
            let vh = self.v.slice_cols(lo, hi);
            self.stop(Layer::Glue, t);
            let t = self.start();
            let mut raw = Tensor::default();
            qh.matmul_transb_with(&kh, &mut self.gs, &mut raw);
            self.stop(Layer::Qk, t);
            let t = self.start();
            let scores = raw.scale(scale);
            self.stop(Layer::Glue, t);
            let t = self.start();
            let probs = scores.softmax_rows();
            self.stop(Layer::Softmax, t);
            let t = self.start();
            let mut oh = Tensor::default();
            probs.matmul_with(&vh, &mut self.gs, &mut oh);
            self.stop(Layer::Av, t);
            outs.push(oh);
        }
        let t = self.start();
        let refs: Vec<&Tensor> = outs.iter().collect();
        Tensor::concat_cols_into(&refs, &mut self.heads);
        self.stop(Layer::Glue, t);
        let t = self.start();
        let mut attn_out = Tensor::default();
        attn.proj()
            .infer_with(&self.heads, &mut self.gs, &mut attn_out);
        self.stop(Layer::Proj, t);
        let t = self.start();
        let x = attn_out.add(x);
        self.stop(Layer::Residual, t);
        let ffn = block.ffn();
        let t = self.start();
        layer_norm_project_into(
            block.ln2(),
            &[ffn.fc1()],
            &x,
            &mut self.gs,
            &mut [&mut self.hidden],
        );
        self.stop(Layer::Fc1, t);
        let t = self.start();
        ffn.activation().apply_inplace(&mut self.hidden);
        self.stop(Layer::Gelu, t);
        let t = self.start();
        ffn.fc2()
            .infer_with(&self.hidden, &mut self.gs, &mut self.ffn_out);
        self.stop(Layer::Fc2, t);
        let t = self.start();
        let y = self.ffn_out.add(&x);
        self.stop(Layer::Residual, t);
        y
    }

    /// One selector stage, as `PrunedViT::infer_with` computes it: score the
    /// patch tokens, keep the selected rows densely, fold the pruned rows
    /// into one package token.
    pub fn select(&mut self, selector: &TokenSelector, tokens: &Tensor, package: bool) -> Tensor {
        let n = tokens.dim(0);
        let t = self.start();
        tokens.slice_rows_into(1, n, &mut self.patches);
        self.stop(Layer::SelRepack, t);
        let t = self.start();
        let decision = selector.infer(&self.patches);
        self.stop(Layer::SelScore, t);
        let t = self.start();
        let kept = decision.kept_indices();
        let pruned = decision.pruned_indices();
        tokens.slice_rows_into(0, 1, &mut self.cls);
        self.patches.gather_rows_into(&kept, &mut self.kept_rows);
        let pruned_scores: Vec<f32> = pruned.iter().map(|&i| decision.keep_scores[i]).collect();
        if package {
            self.patches
                .gather_rows_into(&pruned, &mut self.pruned_rows);
        }
        self.stop(Layer::SelRepack, t);
        let mut package_token = None;
        if package {
            let t = self.start();
            package_token = package_tokens(&self.pruned_rows, &pruned_scores);
            self.stop(Layer::SelPackage, t);
        }
        let t = self.start();
        let mut parts: Vec<&Tensor> = vec![&self.cls, &self.kept_rows];
        if let Some(p) = &package_token {
            parts.push(p);
        }
        let mut out = Tensor::default();
        Tensor::concat_rows_into(&parts, &mut out);
        self.stop(Layer::SelRepack, t);
        out
    }

    /// Classification head on the final tokens.
    pub fn head(&mut self, model: &VisionTransformer, tokens: &Tensor) -> Tensor {
        let t = self.start();
        let logits = model.classify_tokens_infer(tokens);
        self.stop(Layer::Head, t);
        logits
    }

    /// Whole forward of a float model: `selectors[b]` (if any) runs in front
    /// of block `b`. The tokens entering each block in `capture` are copied
    /// out (outside any span).
    pub fn infer(
        &mut self,
        backbone: &VisionTransformer,
        selectors: &[Option<TokenSelector>],
        package: bool,
        image: &Tensor,
        capture: &[usize],
    ) -> ReplayOutput {
        let mut tokens = self.patch_embed(backbone, image);
        let mut tokens_per_block = Vec::with_capacity(backbone.blocks().len());
        let mut captured = Vec::with_capacity(capture.len());
        for (b, block) in backbone.blocks().iter().enumerate() {
            if capture.contains(&b) {
                captured.push(tokens.clone());
            }
            if let Some(Some(selector)) = selectors.get(b) {
                tokens = self.select(selector, &tokens, package);
            }
            tokens_per_block.push(tokens.dim(0));
            tokens = self.block(block, &tokens);
        }
        ReplayOutput {
            logits: self.head(backbone, &tokens),
            tokens_per_block,
            captured,
        }
    }

    /// [`Replay::infer`] over a [`PrunedViT`].
    pub fn infer_pruned(&mut self, model: &PrunedViT, image: &Tensor) -> ReplayOutput {
        self.infer(
            model.backbone(),
            model.selectors(),
            model.package_enabled(),
            image,
            &[],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use heatvit::{Engine, InferenceModel};
    use heatvit_vit::ViTConfig;

    #[test]
    fn dense_replay_is_bitwise_identical_to_the_engine() {
        let config = ViTConfig::test_tiny(4);
        let model = models::backbone(&config);
        let images = models::images(&config, 3, 5);
        let engine = Engine::builder(model.clone()).threads(2).build();
        let batch = engine.infer_batch(&images);
        let mut replay = Replay::traced();
        for (i, image) in images.iter().enumerate() {
            let out = replay.infer(&model, &[], true, image, &[]);
            assert_eq!(out.logits.data(), batch.logits.row(i));
            assert_eq!(out.tokens_per_block, batch.tokens_per_block[i]);
        }
        let spans = replay.take_spans();
        assert!(spans.get(Layer::Fc1) > 0);
        assert_eq!(spans.get(Layer::SelScore), 0);
    }

    #[test]
    fn pruned_replay_is_bitwise_identical_to_the_engine() {
        let config = ViTConfig::test_tiny(4);
        let calibration = models::images(&config, 4, models::CALIBRATION_SEED);
        let (model, _) =
            models::calibrated_pruned(models::backbone(&config), &[1], &[3.0], &calibration);
        let images = models::images(&config, 6, 9);
        let engine = Engine::builder(model.clone()).threads(2).build();
        let batch = engine.infer_batch(&images);
        let mut replay = Replay::traced();
        let mut pruned_any = false;
        for (i, image) in images.iter().enumerate() {
            let out = replay.infer_pruned(&model, image);
            assert_eq!(out.logits.data(), batch.logits.row(i));
            assert_eq!(out.tokens_per_block, batch.tokens_per_block[i]);
            assert_eq!(
                out.logits.data(),
                engine
                    .model()
                    .infer_one(image, &mut Default::default())
                    .logits
                    .data()
            );
            pruned_any |= out.tokens_per_block[1] < config.num_tokens();
        }
        assert!(pruned_any, "the selector must prune on some image");
        assert!(replay.take_spans().get(Layer::SelScore) > 0);
    }

    #[test]
    fn back_to_back_traced_runs_repeat_counts_and_predictions() {
        let config = ViTConfig::test_tiny(4);
        let calibration = models::images(&config, 4, models::CALIBRATION_SEED);
        let run = || {
            let (model, _) =
                models::calibrated_pruned(models::backbone(&config), &[1], &[3.0], &calibration);
            let mut replay = Replay::traced();
            models::images(&config, 6, 21)
                .iter()
                .map(|image| {
                    let out = replay.infer_pruned(&model, image);
                    (out.tokens_per_block, out.logits.argmax_rows()[0])
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
