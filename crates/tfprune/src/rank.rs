//! The rank-and-keep model: one backbone, one stage schedule, one policy.

use crate::scratch::RankScratch;
use crate::{cls_attn, merge, static_prune, topk, TfStage, TopKStage};
use heatvit_tensor::Tensor;
use heatvit_vit::{AttentionMaps, EncoderBlock, InferScratch, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a [`RankPrunedViT`] scores and reduces tokens at each stage — the
/// closed set of configurations the workspace benchmarks. Each policy is
/// built by its own [`RankPrunedViT`] constructor, which also fixes how the
/// stages state their keep (a ratio, or a literal count for top-k).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPolicy {
    /// CLS attention from the upcoming block's own `W_q`/`W_k`; the
    /// low-scored tokens are dropped (the Adaptive Sparse ViT recipe).
    ClsAttnDrop,
    /// CLS attention; each low-scored token is folded into its most
    /// similar kept token (Multi-Scale Token Mergence).
    ClsAttnMerge,
    /// CLS attention plus value-norm share; a literal count survives.
    ClsAttnValueTopK,
    /// Static: mean CLS attention of the previous block (EViT/ATS).
    StaticCliffAttention,
    /// Static: embedding L2 norm.
    StaticTokenNorm,
    /// Static: a random keep, seeded per image with the given seed.
    StaticRandom(u64),
}

impl RankPolicy {
    /// Canonical variant label a model with this policy registers in engine
    /// and serving report tables (the static rules share one label).
    pub fn label(self) -> &'static str {
        match self {
            RankPolicy::ClsAttnDrop => "cls-attn",
            RankPolicy::ClsAttnMerge => "token-merge",
            RankPolicy::ClsAttnValueTopK => "topk-attn",
            RankPolicy::StaticCliffAttention
            | RankPolicy::StaticTokenNorm
            | RankPolicy::StaticRandom(_) => "static-pruned",
        }
    }
}

/// A stage's keep rule: a fraction of the current patch tokens, or a
/// literal count.
#[derive(Debug, Clone, Copy)]
enum Keep {
    Ratio(f32),
    Count(usize),
}

#[derive(Debug, Clone, Copy)]
struct Stage {
    block: usize,
    keep: Keep,
}

impl Stage {
    /// Patch tokens surviving this stage out of `n_patches` — at least one,
    /// never more than are present.
    fn kept(&self, n_patches: usize) -> usize {
        match self.keep {
            Keep::Ratio(r) => ((r * n_patches as f32).ceil() as usize).clamp(1, n_patches),
            Keep::Count(k) => k.min(n_patches),
        }
    }
}

/// Inference result of a [`RankPrunedViT`].
#[derive(Debug, Clone)]
pub struct RankInference {
    /// Classification logits `[1, classes]`.
    pub logits: Tensor,
    /// Token count entering each block (class token included).
    pub tokens_per_block: Vec<usize>,
}

/// A backbone with rank-and-keep token pruning: in front of each stage's
/// block, the [`RankPolicy`] scores the patch tokens, a fixed number
/// survives, and the token matrix is repacked densely (the class token is
/// never counted and never pruned).
///
/// No parameters beyond the backbone's own, so any pretrained dense
/// checkpoint becomes a pruned variant for free. Every policy is
/// input-agnostic in its *token counts* (which tokens survive varies per
/// image, how many never does), so [`RankPrunedViT::planned_tokens_per_block`]
/// is exact and a latency model over it predicts real work.
///
/// Each policy has its own constructor, so only the six benchmarked
/// configurations can be built. Every constructor panics if a stage is out
/// of range, not strictly after the previous stage's block (the forward
/// loop applies at most one stage per block, so a repeat would silently
/// disable every later stage), or keeps nothing or a ratio outside
/// `(0, 1]`.
///
/// `Clone` so a serving deployment can stamp out per-server replicas,
/// matching the other backend types.
#[derive(Debug, Clone)]
pub struct RankPrunedViT {
    backbone: VisionTransformer,
    stages: Vec<Stage>,
    policy: RankPolicy,
}

/// The CLS-attention + mergence configuration of [`RankPrunedViT`] — the
/// serving ladder's token-merge rung, built by [`RankPrunedViT::new`].
pub type TokenMergeViT = RankPrunedViT;

// Serving worker pools own models and move them across threads; a future
// non-`Send`/`Sync` field must fail to build here rather than at the spawn
// site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RankPrunedViT>();
};

fn ratio_stages(stages: Vec<TfStage>) -> Vec<Stage> {
    stages
        .into_iter()
        .map(|s| Stage {
            block: s.block,
            keep: Keep::Ratio(s.keep_ratio),
        })
        .collect()
}

impl RankPrunedViT {
    /// CLS-attention ranking with token mergence at the given ratio stages:
    /// instead of being discarded, each pruned token is folded into its
    /// most cosine-similar kept token by a score-weighted average, so the
    /// downstream blocks see the hard drop's token counts while the kept
    /// rows still carry a trace of what was removed.
    pub fn new(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        Self::build(backbone, ratio_stages(stages), RankPolicy::ClsAttnMerge)
    }

    /// CLS-attention ranking with a hard drop at the given ratio stages.
    pub fn cls_attn(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        Self::build(backbone, ratio_stages(stages), RankPolicy::ClsAttnDrop)
    }

    /// Fixed-layer top-k: CLS attention plus value-norm share, keeping a
    /// literal count of patch tokens at each stage.
    pub fn top_k(backbone: VisionTransformer, stages: Vec<TopKStage>) -> Self {
        let stages = stages
            .into_iter()
            .map(|s| Stage {
                block: s.block,
                keep: Keep::Count(s.keep),
            })
            .collect();
        Self::build(backbone, stages, RankPolicy::ClsAttnValueTopK)
    }

    /// Static pruning ranked by the previous block's mean CLS attention
    /// (token norms in front of block 0).
    pub fn cliff_attention(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        Self::build(
            backbone,
            ratio_stages(stages),
            RankPolicy::StaticCliffAttention,
        )
    }

    /// Static pruning ranked by token embedding norm.
    pub fn token_norm(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        Self::build(backbone, ratio_stages(stages), RankPolicy::StaticTokenNorm)
    }

    /// Static pruning with a uniformly random keep, reseeded with `seed`
    /// for every image.
    pub fn random(backbone: VisionTransformer, stages: Vec<TfStage>, seed: u64) -> Self {
        Self::build(
            backbone,
            ratio_stages(stages),
            RankPolicy::StaticRandom(seed),
        )
    }

    /// The one stage validator (see the type-level panics).
    fn build(backbone: VisionTransformer, stages: Vec<Stage>, policy: RankPolicy) -> Self {
        let depth = backbone.config().depth;
        for (i, s) in stages.iter().enumerate() {
            assert!(s.block < depth, "stage block out of range");
            assert!(
                i == 0 || s.block > stages[i - 1].block,
                "stages must be in strictly increasing block order"
            );
            match s.keep {
                Keep::Ratio(r) => assert!(r > 0.0 && r <= 1.0, "keep ratio must be in (0, 1]"),
                Keep::Count(k) => assert!(k > 0, "keep count must be positive"),
            }
        }
        Self {
            backbone,
            stages,
            policy,
        }
    }

    /// Canonical variant label this model registers in engine and serving
    /// report tables ([`RankPolicy::label`]).
    pub fn variant(&self) -> &'static str {
        self.policy.label()
    }

    /// The scoring and reduction policy.
    pub fn policy(&self) -> RankPolicy {
        self.policy
    }

    /// The wrapped backbone.
    pub fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    fn stage_at(&self, block: usize) -> Option<&Stage> {
        self.stages.iter().find(|s| s.block == block)
    }

    /// The token count entering each block, computed without running
    /// inference — *exact*: the keep arithmetic is input-agnostic, so every
    /// image sees these counts.
    pub fn planned_tokens_per_block(&self) -> Vec<usize> {
        let mut n = self.backbone.config().num_patches();
        (0..self.backbone.config().depth)
            .map(|bi| {
                if let Some(stage) = self.stage_at(bi) {
                    n = stage.kept(n);
                }
                n + 1 // + class token
            })
            .collect()
    }

    /// Inference with rank-and-keep pruning and dense repacking.
    pub fn infer(&self, image: &Tensor) -> RankInference {
        self.infer_with(
            image,
            &mut InferScratch::default(),
            &mut RankScratch::default(),
        )
    }

    /// [`RankPrunedViT::infer`] reusing caller-provided workspaces: `vit`
    /// for the backbone blocks, `scratch` for the stages (bit-identical
    /// results).
    pub fn infer_with(
        &self,
        image: &Tensor,
        vit: &mut InferScratch,
        scratch: &mut RankScratch,
    ) -> RankInference {
        let seed = match self.policy {
            RankPolicy::StaticRandom(seed) => seed,
            _ => 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (logits, tokens_per_block) =
            self.backbone
                .infer_staged(image, vit, |bi, block, tokens, maps| {
                    if let Some(stage) = self.stage_at(bi) {
                        self.apply(stage, block, tokens, maps, scratch, &mut rng);
                    }
                });
        RankInference {
            logits,
            tokens_per_block,
        }
    }

    /// One stage: score the current tokens, keep the top patches, repack.
    fn apply(
        &self,
        stage: &Stage,
        block: &EncoderBlock,
        tokens: &mut Tensor,
        maps: Option<&AttentionMaps>,
        s: &mut RankScratch,
        rng: &mut StdRng,
    ) {
        let n_patches = tokens.dim(0) - 1;
        match self.policy {
            RankPolicy::ClsAttnDrop | RankPolicy::ClsAttnMerge => {
                cls_attn::cls_attention_scores(block, tokens, s)
            }
            RankPolicy::ClsAttnValueTopK => {
                cls_attn::cls_attention_scores(block, tokens, s);
                topk::add_value_norm_scores(block, s);
            }
            RankPolicy::StaticCliffAttention => static_prune::cliff_scores(tokens, maps, s),
            RankPolicy::StaticTokenNorm => static_prune::norm_scores(tokens, s),
            RankPolicy::StaticRandom(_) => static_prune::random_scores(n_patches, rng, s),
        }
        select_top_patches(stage.kept(n_patches), s);
        s.repack.split(tokens);
        s.repack.gather(&s.kept);
        if self.policy == RankPolicy::ClsAttnMerge {
            merge::fold_pruned(s);
        }
        s.repack.finish(tokens, None);
    }

    /// Runs a batch of images through shared workspaces. Equivalent to
    /// mapping [`RankPrunedViT::infer`] over `images`.
    pub fn infer_batch(&self, images: &[Tensor]) -> Vec<RankInference> {
        let (mut vit, mut scratch) = (InferScratch::default(), RankScratch::default());
        images
            .iter()
            .map(|image| self.infer_with(image, &mut vit, &mut scratch))
            .collect()
    }

    /// Multiply–accumulate count of one inference at the given per-block
    /// token schedule — an executed [`RankInference::tokens_per_block`], or
    /// [`RankPrunedViT::planned_tokens_per_block`] for cost prediction (the
    /// two are equal). Scoring runs on the *pre-prune* token count of each
    /// stage and is charged on top of the backbone's own work: the query
    /// row, key projection and dots of CLS attention, plus the value
    /// projection and norms for top-k, plus the pruned-to-kept similarity
    /// products for mergence. The static rules reuse attention maps or
    /// norms the blocks already produce and are charged nothing.
    pub fn macs_for_tokens(&self, tokens_per_block: &[usize]) -> u64 {
        let cfg = self.backbone.config();
        let mut total = self.backbone.macs_for_tokens(tokens_per_block);
        for stage in &self.stages {
            let pre = match stage.block {
                0 => cfg.num_tokens(),
                b => tokens_per_block[b - 1],
            };
            let block = &self.backbone.blocks()[stage.block];
            total += match self.policy {
                RankPolicy::ClsAttnDrop => cls_attn::scoring_macs(block, pre, false),
                RankPolicy::ClsAttnMerge => {
                    let kept = tokens_per_block[stage.block] - 1;
                    cls_attn::scoring_macs(block, pre, false)
                        + merge::merge_macs(pre, kept, cfg.embed_dim)
                }
                RankPolicy::ClsAttnValueTopK => cls_attn::scoring_macs(block, pre, true),
                _ => 0,
            };
        }
        total
    }
}

/// Ranks the patch entries of `s.scores` (descending into `s.order`) and
/// selects the top `k` into `s.kept`, restored to block order. Ties break
/// toward the earlier patch, so selection is deterministic.
fn select_top_patches(k: usize, s: &mut RankScratch) {
    let n_patches = s.scores.len() - 1;
    s.order.clear();
    s.order.extend(0..n_patches);
    let scores = &s.scores;
    s.order
        .sort_by(|&a, &b| scores[b + 1].total_cmp(&scores[a + 1]).then(a.cmp(&b)));
    s.kept.clear();
    s.kept.extend_from_slice(&s.order[..k]);
    s.kept.sort_unstable();
}

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

pub(crate) fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_vit::ViTConfig;

    fn backbone() -> VisionTransformer {
        VisionTransformer::new(ViTConfig::micro(4), &mut StdRng::seed_from_u64(0))
    }

    fn repeated() -> Vec<TfStage> {
        [(1, 0.7), (1, 0.7), (3, 0.5)]
            .map(|(block, keep_ratio)| TfStage { block, keep_ratio })
            .to_vec()
    }

    // The loop applies at most one stage per block, so a repeated block
    // would leave every later stage unreachable while `macs_for_tokens`
    // still charged all of them.
    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repeated_ratio_stage_block_is_rejected() {
        RankPrunedViT::cls_attn(backbone(), repeated());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repeated_static_stage_block_is_rejected() {
        RankPrunedViT::cliff_attention(backbone(), repeated());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn repeated_topk_stage_block_is_rejected() {
        let stages = [(2, 10), (2, 8)].map(|(block, keep)| TopKStage { block, keep });
        RankPrunedViT::top_k(backbone(), stages.to_vec());
    }

    #[test]
    fn variant_labels_follow_the_policy() {
        let b = backbone;
        let s = || {
            vec![TfStage {
                block: 2,
                keep_ratio: 0.5,
            }]
        };
        assert_eq!(RankPrunedViT::new(b(), s()).variant(), "token-merge");
        assert_eq!(RankPrunedViT::cls_attn(b(), s()).variant(), "cls-attn");
        assert_eq!(RankPrunedViT::top_k(b(), vec![]).variant(), "topk-attn");
        assert_eq!(
            RankPrunedViT::random(b(), s(), 1).variant(),
            "static-pruned"
        );
    }
}
