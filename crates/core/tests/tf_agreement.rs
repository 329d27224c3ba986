//! Training-free ↔ dense agreement: each training-free pruned backend must
//! keep its top-1 predictions close to the dense float reference on a
//! seeded synthetic batch, and token *mergence* must agree at least as
//! often as the CLS-attention *hard drop* at the identical keep rate —
//! folding pruned tokens into their hosts preserves information that
//! discarding destroys, at the same downstream MAC budget.

use heatvit::{Engine, InferenceModel};
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{RankPrunedViT, TfStage, TopKStage};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EVAL_IMAGES: usize = 40;
/// Minimum top-1 agreement with the dense reference for the ratio-stage
/// variants (keep 0.7 then 0.6 — the demo schedule); both measure 1.000 on
/// this fixture.
const RATIO_AGREEMENT_FLOOR: f64 = 0.90;
/// Minimum top-1 agreement for the fixed-layer top-k variant (keeps 12
/// then 7 of 16 patch tokens); measures 0.950 on this fixture.
const TOPK_AGREEMENT_FLOOR: f64 = 0.85;

fn float_model() -> VisionTransformer {
    let mut rng = StdRng::seed_from_u64(7);
    VisionTransformer::new(ViTConfig::micro(8), &mut rng)
}

fn batch(count: usize, seed: u64) -> Vec<Tensor> {
    SyntheticDataset::generate(SyntheticConfig::micro(), count, seed)
        .iter()
        .map(|s| s.image.clone())
        .collect()
}

/// The demo ratio schedule every ratio variant shares (equal keep rates:
/// the mergence-vs-hard-drop comparison is only meaningful when both see
/// the same token budget).
fn stages() -> Vec<TfStage> {
    vec![
        TfStage {
            block: 1,
            keep_ratio: 0.7,
        },
        TfStage {
            block: 3,
            keep_ratio: 0.6,
        },
    ]
}

fn predictions<M: InferenceModel>(model: M, images: &[Tensor]) -> Vec<usize> {
    Engine::builder(model)
        .build()
        .infer_batch(images)
        .predictions()
}

fn agreement(preds: &[usize], reference: &[usize]) -> f64 {
    let agree = preds.iter().zip(reference).filter(|(a, b)| a == b).count();
    agree as f64 / reference.len() as f64
}

#[test]
fn training_free_backends_agree_with_dense() {
    let dense = float_model();
    let images = batch(EVAL_IMAGES, 11);
    let reference = predictions(dense.clone(), &images);

    let cls = agreement(
        &predictions(RankPrunedViT::cls_attn(dense.clone(), stages()), &images),
        &reference,
    );
    let merge = agreement(
        &predictions(RankPrunedViT::new(dense.clone(), stages()), &images),
        &reference,
    );
    let topk = agreement(
        &predictions(
            RankPrunedViT::top_k(
                dense,
                vec![
                    TopKStage { block: 2, keep: 12 },
                    TopKStage { block: 4, keep: 7 },
                ],
            ),
            &images,
        ),
        &reference,
    );

    println!("agreement vs dense: cls-attn {cls:.3}, token-merge {merge:.3}, topk-attn {topk:.3}");
    assert!(
        cls >= RATIO_AGREEMENT_FLOOR,
        "cls-attn agreement {cls:.3} < {RATIO_AGREEMENT_FLOOR}"
    );
    assert!(
        merge >= RATIO_AGREEMENT_FLOOR,
        "token-merge agreement {merge:.3} < {RATIO_AGREEMENT_FLOOR}"
    );
    assert!(
        topk >= TOPK_AGREEMENT_FLOOR,
        "topk-attn agreement {topk:.3} < {TOPK_AGREEMENT_FLOOR}"
    );
    // The paper's mergence claim at equal keep rates: folding ≥ dropping.
    assert!(
        merge >= cls,
        "token mergence ({merge:.3}) must agree with dense at least as often \
         as the hard drop ({cls:.3}) at the same keep rate"
    );
}
