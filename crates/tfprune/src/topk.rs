//! Fixed-layer top-k: static keep *counts* at fixed depths, ranked by CLS
//! attention plus value-vector norm.
//!
//! The two summands are complementary: attention says where the class
//! token looks, the value norm (`‖W_v·x‖`, normalized across tokens) says
//! how much a token injects into the mix when looked at.

use crate::rank::norm;
use crate::scratch::RankScratch;
use heatvit_vit::EncoderBlock;

/// One top-k stage: in front of `block`, keep the `keep` highest-scored
/// patch tokens (the class token is never counted and never pruned).
#[derive(Debug, Clone, Copy)]
pub struct TopKStage {
    /// Block index the stage precedes.
    pub block: usize,
    /// Number of patch tokens to keep (clamped to the tokens present).
    pub keep: usize,
}

/// Adds each token's value-norm share to `scratch.scores` (the top-k
/// criterion: CLS attention says where the class token looks, the value
/// norm says how much a token injects when looked at). Norm shares are
/// normalized to sum 1 across tokens so both summands live on the same
/// scale. Requires `cls_attention_scores` to have run (reads
/// `scratch.normed`).
pub(crate) fn add_value_norm_scores(block: &EncoderBlock, s: &mut RankScratch) {
    let attn = block.attention();
    attn.wv().infer_with(&s.normed, &mut s.gs, &mut s.v_proj);
    let n = s.v_proj.dim(0);
    s.head_row.clear();
    for j in 0..n {
        s.head_row.push(norm(s.v_proj.row(j)));
    }
    let total: f32 = s.head_row.iter().sum();
    if total > 0.0 {
        for (acc, &v) in s.scores.iter_mut().zip(&s.head_row) {
            *acc += v / total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankPrunedViT;
    use heatvit_tensor::Tensor;
    use heatvit_vit::{ViTConfig, VisionTransformer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backbone(seed: u64) -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        (b, rng)
    }

    fn stages() -> Vec<TopKStage> {
        vec![
            TopKStage { block: 2, keep: 10 },
            TopKStage { block: 4, keep: 5 },
        ]
    }

    #[test]
    fn keeps_literal_counts() {
        let (b, mut rng) = backbone(0);
        let model = RankPrunedViT::top_k(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block, vec![17, 17, 11, 11, 6, 6]);
    }

    #[test]
    fn oversized_keep_is_clamped_to_the_tokens_present() {
        let (b, mut rng) = backbone(1);
        let model = RankPrunedViT::top_k(
            b,
            vec![
                TopKStage { block: 1, keep: 4 },
                TopKStage {
                    block: 3,
                    keep: 100,
                },
            ],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block, vec![17, 5, 5, 5, 5, 5]);
        assert_eq!(out.tokens_per_block, model.planned_tokens_per_block());
    }

    #[test]
    fn planned_tokens_and_macs_match_inference() {
        let (b, mut rng) = backbone(2);
        let model = RankPrunedViT::top_k(b, stages());
        let planned = model.planned_tokens_per_block();
        for _ in 0..3 {
            let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            let out = model.infer(&image);
            assert_eq!(out.tokens_per_block, planned);
            assert_eq!(
                model.macs_for_tokens(&out.tokens_per_block),
                model.macs_for_tokens(&planned)
            );
        }
    }

    #[test]
    fn value_norms_change_the_ranking() {
        // The top-k criterion must actually differ from pure CLS attention
        // for at least some input, otherwise the value-norm term is dead
        // code. Checked on the scoring level: score vectors diverge.
        let (b, mut rng) = backbone(3);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let tokens = b.patch_embed().infer(&image);
        let mut s = RankScratch::default();
        crate::cls_attn::cls_attention_scores(&b.blocks()[0], &tokens, &mut s);
        let attn_only = s.scores.clone();
        add_value_norm_scores(&b.blocks()[0], &mut s);
        assert_ne!(attn_only, s.scores);
        // Both summands are probability-mass-like: each sums to ~1.
        let sum: f32 = s.scores.iter().sum();
        assert!((sum - 2.0).abs() < 1e-4, "score mass {sum}");
    }

    #[test]
    #[should_panic(expected = "keep count must be positive")]
    fn zero_keep_rejected() {
        let (b, _) = backbone(4);
        RankPrunedViT::top_k(b, vec![TopKStage { block: 1, keep: 0 }]);
    }
}
