//! Token mergence: prune by folding, not dropping (Multi-Scale Token
//! Mergence).
//!
//! Same stages and CLS-attention ranking as the hard drop, but instead of
//! discarding the low-scored tokens, each one is folded into its most
//! cosine-similar kept token by a score-weighted average. Downstream blocks
//! see exactly the hard drop's token counts — the same MAC budget — but the
//! kept rows still carry a weighted trace of what was removed, which is
//! what preserves the accuracy hard dropping loses.

use crate::rank::{dot, norm};
use crate::scratch::RankScratch;

/// Folds every pruned patch into its most cosine-similar kept patch, in
/// place on the gathered kept rows of `s.repack`: each kept row becomes the
/// score-weighted average of itself and the pruned rows assigned to it
/// (weights are the CLS-attention probabilities, so a near-discarded token
/// nudges its host only slightly). The class token passes through
/// untouched, and token counts match the hard drop exactly.
pub(crate) fn fold_pruned(s: &mut RankScratch) {
    let r = &mut s.repack;
    let k = s.kept.len();

    // Seed each kept row's score weight; the row itself is premultiplied
    // *lazily* on first fold, so a kept token that absorbs nothing passes
    // through bit-identical to the hard drop.
    s.merge_weight.clear();
    s.merged.clear();
    for &i in &s.kept {
        s.merge_weight.push(weight(s.scores[i + 1]));
        s.merged.push(false);
    }
    // Fold every pruned patch into its nearest kept patch.
    for &p in &s.order[k..] {
        let pruned = r.patches.row(p);
        let pruned_norm = norm(pruned).max(1e-12);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (j, &i) in s.kept.iter().enumerate() {
            let kept = r.patches.row(i);
            let sim = dot(pruned, kept) / (pruned_norm * norm(kept).max(1e-12));
            if sim > best_sim {
                best_sim = sim;
                best = j;
            }
        }
        if !s.merged[best] {
            s.merged[best] = true;
            let w = s.merge_weight[best];
            for v in r.kept_rows.row_mut(best) {
                *v *= w;
            }
        }
        let w = weight(s.scores[p + 1]);
        for (acc, &v) in r.kept_rows.row_mut(best).iter_mut().zip(pruned) {
            *acc += w * v;
        }
        s.merge_weight[best] += w;
    }
    // Normalize the folded rows back to a weighted average.
    for j in 0..k {
        if s.merged[j] {
            let w = s.merge_weight[j];
            for v in r.kept_rows.row_mut(j) {
                *v /= w;
            }
        }
    }
}

/// The similarity products one merge charges on top of its scoring pass:
/// every pruned patch is compared with every kept patch (`D` MACs each).
/// The remaining merge arithmetic is `O((pruned + kept) · D)` element-wise
/// work, in the same class as the residual adds the MAC model already
/// leaves to the vector units.
pub(crate) fn merge_macs(pre: usize, kept: usize, dim: usize) -> u64 {
    let pruned = (pre - 1) - kept;
    (pruned * kept * dim) as u64
}

/// A merge weight is never allowed to vanish: a zero-attention token still
/// averages in with a floor weight instead of dividing by zero.
fn weight(score: f32) -> f32 {
    score.max(1e-8)
}

#[cfg(test)]
mod tests {
    use crate::{RankPrunedViT, TfStage, TokenMergeViT};
    use heatvit_tensor::Tensor;
    use heatvit_vit::{ViTConfig, VisionTransformer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backbone(seed: u64) -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        (b, rng)
    }

    fn stages() -> Vec<TfStage> {
        vec![
            TfStage {
                block: 1,
                keep_ratio: 0.7,
            },
            TfStage {
                block: 3,
                keep_ratio: 0.5,
            },
        ]
    }

    #[test]
    fn token_counts_match_the_hard_drop_exactly() {
        let (b, mut rng) = backbone(0);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = RankPrunedViT::cls_attn(b, stages());
        assert_eq!(
            merge.planned_tokens_per_block(),
            drop.planned_tokens_per_block()
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(
            merge.infer(&image).tokens_per_block,
            drop.infer(&image).tokens_per_block
        );
    }

    #[test]
    fn merged_logits_differ_from_hard_dropped_logits() {
        // If they didn't, the fold was a no-op and nothing was preserved.
        let (b, mut rng) = backbone(1);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = RankPrunedViT::cls_attn(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_ne!(
            merge.infer(&image).logits.data(),
            drop.infer(&image).logits.data()
        );
    }

    #[test]
    fn full_keep_stage_is_a_numerical_no_op() {
        // With nothing pruned there is nothing to fold: mergence at ratio 1
        // must reproduce the dense backbone bitwise (the merge normalizes
        // each kept row by its own weight, w·x/w = x exactly in floats
        // only when untouched — this pins the kept-row passthrough).
        let (b, mut rng) = backbone(2);
        let merge = TokenMergeViT::new(
            b.clone(),
            vec![TfStage {
                block: 2,
                keep_ratio: 1.0,
            }],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(merge.infer(&image).logits.data(), b.infer(&image).data());
    }

    #[test]
    fn planned_tokens_and_macs_are_consistent() {
        let (b, mut rng) = backbone(3);
        let model = TokenMergeViT::new(b, stages());
        let planned = model.planned_tokens_per_block();
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block, planned);
        assert_eq!(
            model.macs_for_tokens(&out.tokens_per_block),
            model.macs_for_tokens(&planned)
        );
    }

    #[test]
    fn mergence_charges_more_macs_than_the_hard_drop() {
        let (b, _) = backbone(4);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = RankPrunedViT::cls_attn(b, stages());
        assert!(
            merge.macs_for_tokens(&merge.planned_tokens_per_block())
                > drop.macs_for_tokens(&drop.planned_tokens_per_block()),
            "the similarity products must be charged"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_depth_is_validated() {
        let (b, _) = backbone(5);
        TokenMergeViT::new(
            b,
            vec![TfStage {
                block: 9,
                keep_ratio: 0.5,
            }],
        );
    }
}
