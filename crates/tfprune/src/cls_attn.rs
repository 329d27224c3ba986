//! The CLS-attention scorer (the Adaptive Sparse ViT criterion).
//!
//! The scorer runs *in front of* a block: it evaluates only the block's
//! `ln1 → W_q` row for the class token and `ln1 → W_k` for every token,
//! then averages `softmax(q_cls · Kᵀ / √d)` over heads — the first row of
//! the attention matrix the block is about to compute, at `≈ N·D²` MACs
//! instead of the block's full `4N·D² + 2N²·D`. The block then runs on the
//! repacked survivors, so the expensive quadratic work is only ever done on
//! kept tokens. Tokens the class token barely attends to are the ones the
//! classification head will barely read.

use crate::rank::dot;
use crate::scratch::RankScratch;
use heatvit_tensor::Tensor;
use heatvit_vit::EncoderBlock;

/// Fills `scratch.scores` with the mean-over-heads CLS-attention
/// probability of every current token (index 0 is the class token's
/// self-attention mass; indices `1..N` are the patch tokens). Also leaves
/// the layer-normed tokens in `scratch.normed` for follow-up projections.
pub(crate) fn cls_attention_scores(block: &EncoderBlock, tokens: &Tensor, s: &mut RankScratch) {
    let attn = block.attention();
    let n = tokens.dim(0);
    let heads = attn.num_heads();
    let hd = attn.head_dim();
    let scale = 1.0 / (hd as f32).sqrt();
    block.ln1().infer_into(tokens, &mut s.normed);
    s.normed.slice_rows_into(0, 1, &mut s.cls_normed);
    attn.wq().infer_with(&s.cls_normed, &mut s.gs, &mut s.q_cls);
    attn.wk().infer_with(&s.normed, &mut s.gs, &mut s.k_proj);
    s.scores.clear();
    s.scores.resize(n, 0.0);
    for h in 0..heads {
        let base = h * hd;
        let q = &s.q_cls.row(0)[base..base + hd];
        s.head_row.clear();
        for j in 0..n {
            let k = &s.k_proj.row(j)[base..base + hd];
            s.head_row.push(dot(q, k) * scale);
        }
        softmax_in_place(&mut s.head_row);
        for (acc, &p) in s.scores.iter_mut().zip(&s.head_row) {
            *acc += p;
        }
    }
    for v in &mut s.scores {
        *v /= heads as f32;
    }
}

/// Multiply–accumulate cost of one scoring pass over `n` tokens: the class
/// token's query row (`D²`), the key projection (`n·D²`), and the
/// per-head attention dots (`n·D`); `with_values` adds the value
/// projection (`n·D²`) and the value norms (`n·D`) of the top-k criterion.
pub(crate) fn scoring_macs(block: &EncoderBlock, n: usize, with_values: bool) -> u64 {
    let attn = block.attention();
    let d = (attn.num_heads() * attn.head_dim()) as u64;
    let mut macs = attn.wq().macs(1) + attn.wk().macs(n) + n as u64 * d;
    if with_values {
        macs += attn.wv().macs(n) + n as u64 * d;
    }
    macs
}

fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use crate::{RankPrunedViT, RankScratch, TfStage};
    use heatvit_tensor::Tensor;
    use heatvit_vit::{InferScratch, ViTConfig, VisionTransformer};
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
    fn keeps_exactly_the_requested_counts() {
        let (b, mut rng) = backbone(0);
        let model = RankPrunedViT::cls_attn(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        // ceil(0.7·16)=12 then ceil(0.5·12)=6, plus the class token.
        assert_eq!(out.tokens_per_block, vec![17, 13, 13, 7, 7, 7]);
    }

    #[test]
    fn stage_in_front_of_block_zero_is_well_defined() {
        // Unlike the attention-reuse baselines, the scorer uses the
        // *upcoming* block's projections, so no fallback rule is needed.
        let (b, mut rng) = backbone(1);
        let model = RankPrunedViT::cls_attn(
            b,
            vec![TfStage {
                block: 0,
                keep_ratio: 0.5,
            }],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(model.infer(&image).tokens_per_block[0], 9);
    }

    #[test]
    fn planned_tokens_match_inference_exactly() {
        let (b, mut rng) = backbone(2);
        let model = RankPrunedViT::cls_attn(b, stages());
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
    fn scratch_and_fresh_paths_are_bit_identical() {
        let (b, mut rng) = backbone(3);
        let model = RankPrunedViT::cls_attn(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let fresh = model.infer(&image);
        let (mut vit, mut scratch) = (InferScratch::default(), RankScratch::default());
        // A warm scratch (second use) must not change a single bit.
        model.infer_with(&image, &mut vit, &mut scratch);
        let warm = model.infer_with(&image, &mut vit, &mut scratch);
        assert_eq!(fresh.logits.data(), warm.logits.data());
    }

    #[test]
    fn scoring_overhead_is_charged() {
        let (b, _) = backbone(4);
        let dense_macs = b.macs();
        let unpruned = RankPrunedViT::cls_attn(
            b,
            vec![TfStage {
                block: 2,
                keep_ratio: 1.0,
            }],
        );
        // Keeping everything still pays for the stage's scoring pass.
        let planned = unpruned.planned_tokens_per_block();
        assert!(unpruned.macs_for_tokens(&planned) > dense_macs);
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn stages_must_be_ordered() {
        let (b, _) = backbone(5);
        RankPrunedViT::cls_attn(
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

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn ratio_must_be_valid() {
        let (b, _) = backbone(6);
        RankPrunedViT::cls_attn(
            b,
            vec![TfStage {
                block: 1,
                keep_ratio: 0.0,
            }],
        );
    }
}
