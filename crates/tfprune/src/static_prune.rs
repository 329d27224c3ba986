//! Static token-pruning baselines (paper Section II-D).
//!
//! Static pruning removes a *fixed* fraction of tokens for every image,
//! ignoring per-image information content. Three rankings are provided:
//!
//! * cliff attention — mean class-token attention from the previous block
//!   (the EViT/ATS family of criteria);
//! * token norm — embedding L2 norm;
//! * seeded random — a uniformly random keep (lower bound).
//!
//! They reuse attention maps or norms the blocks already produce, so no
//! ranking overhead is charged. Sharing the backbone and the dense repack
//! with the adaptive model, the Fig. 2/Fig. 4 comparisons isolate exactly
//! the decision policy.

use crate::rank::norm;
use crate::scratch::RankScratch;
use heatvit_tensor::Tensor;
use heatvit_vit::AttentionMaps;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Fills `s.scores` with each patch token's class-token attention in the
/// previous block, averaged over heads; in front of block 0 there is no
/// incoming attention, so it falls back to [`norm_scores`].
pub(crate) fn cliff_scores(tokens: &Tensor, maps: Option<&AttentionMaps>, s: &mut RankScratch) {
    let Some(maps) = maps else {
        return norm_scores(tokens, s);
    };
    s.scores.clear();
    s.scores.resize(tokens.dim(0), 0.0);
    for map in maps {
        for (a, &p) in s.scores.iter_mut().zip(map.row(0)).skip(1) {
            *a += p;
        }
    }
    for a in &mut s.scores[1..] {
        *a /= maps.len() as f32;
    }
}

/// Fills `s.scores` with each patch token's embedding L2 norm.
pub(crate) fn norm_scores(tokens: &Tensor, s: &mut RankScratch) {
    s.scores.clear();
    s.scores.push(0.0);
    s.scores
        .extend((1..tokens.dim(0)).map(|r| norm(tokens.row(r))));
}

/// Fills `s.scores` with a seeded random rank per patch token.
pub(crate) fn random_scores(n_patches: usize, rng: &mut StdRng, s: &mut RankScratch) {
    s.order.clear();
    s.order.extend(0..n_patches);
    s.order.shuffle(rng);
    s.scores.clear();
    s.scores.resize(n_patches + 1, 0.0);
    for (rank, &i) in s.order.iter().enumerate() {
        s.scores[i + 1] = rank as f32;
    }
}

#[cfg(test)]
mod tests {
    use crate::{RankPrunedViT, TfStage};
    use heatvit_tensor::Tensor;
    use heatvit_vit::{ViTConfig, VisionTransformer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backbone(seed: u64) -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        (b, rng)
    }

    #[test]
    fn keeps_exactly_the_requested_count() {
        let (b, mut rng) = backbone(0);
        let model = RankPrunedViT::token_norm(
            b,
            vec![TfStage {
                block: 2,
                keep_ratio: 0.5,
            }],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block[0], 17);
        assert_eq!(out.tokens_per_block[2], 9); // ceil(0.5·16) + cls
    }

    #[test]
    fn same_count_for_every_image() {
        // The defining property of static pruning (paper Fig. 4 left).
        let (b, mut rng) = backbone(1);
        let model = RankPrunedViT::cliff_attention(
            b,
            vec![TfStage {
                block: 1,
                keep_ratio: 0.6,
            }],
        );
        let mut counts = Vec::new();
        for _ in 0..4 {
            let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            counts.push(model.infer(&image).tokens_per_block[1]);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn attention_rule_uses_previous_block_maps() {
        let (b, mut rng) = backbone(2);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        // Stage after block 0 → attention data available.
        let model = RankPrunedViT::cliff_attention(
            b,
            vec![TfStage {
                block: 1,
                keep_ratio: 0.4,
            }],
        );
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block[1], 8); // ceil(0.4·16)=7 +1 cls
    }

    #[test]
    fn random_rule_is_seed_deterministic() {
        let (b1, mut rng) = backbone(3);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let (b2, _) = backbone(3);
        let stage = vec![TfStage {
            block: 2,
            keep_ratio: 0.5,
        }];
        let m1 = RankPrunedViT::random(b1, stage.clone(), 7);
        let m2 = RankPrunedViT::random(b2, stage, 7);
        assert!(m1
            .infer(&image)
            .logits
            .allclose(&m2.infer(&image).logits, 0.0));
    }

    #[test]
    fn planned_tokens_match_inference_exactly() {
        // The whole point of the static baseline as a serving backend: its
        // cost is known before any image arrives.
        let (b, mut rng) = backbone(5);
        let model = RankPrunedViT::cliff_attention(
            b,
            vec![
                TfStage {
                    block: 1,
                    keep_ratio: 0.7,
                },
                TfStage {
                    block: 3,
                    keep_ratio: 0.5,
                },
            ],
        );
        let planned = model.planned_tokens_per_block();
        for _ in 0..3 {
            let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            let out = model.infer(&image);
            assert_eq!(out.tokens_per_block, planned);
            assert_eq!(
                model.macs_for_tokens(&planned),
                model.macs_for_tokens(&out.tokens_per_block)
            );
        }
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn stages_must_be_ordered() {
        let (b, _) = backbone(4);
        RankPrunedViT::token_norm(
            b,
            vec![
                TfStage {
                    block: 4,
                    keep_ratio: 0.5,
                },
                TfStage {
                    block: 2,
                    keep_ratio: 0.5,
                },
            ],
        );
    }
}
