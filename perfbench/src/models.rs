//! Seeded DeiT-T models, synthetic inputs, and the benchmark-side keep-rate
//! calibration of random token selectors.

use crate::replay::Replay;
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_nn::Module;
use heatvit_quant::QuantizedViT;
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{TfStage, TokenMergeViT};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of every backbone's random weights (fixed: the workload seed only
/// chooses inputs).
pub const MODEL_SEED: u64 = 0xDE17_0001;
/// Seed of the random token selectors.
pub const SELECTOR_SEED: u64 = 0x005E_1EC7;
/// Seed of the held-out images the selector keep rates and the int8 scales
/// are calibrated on. Workload images never use it.
pub const CALIBRATION_SEED: u64 = 0x00CA_11B0;
/// Seed of the fixed top-1 evaluation images.
pub const EVAL_SEED: u64 = 0xE7A1;
/// Calibration images for the selector keep rates.
pub const SELECTOR_CALIBRATION_IMAGES: usize = 16;
/// Calibration images for the int8 activation scales.
pub const INT8_CALIBRATION_IMAGES: usize = 4;

/// Blocks the selectors sit in front of (paper: DeiT-T stages 3/6/9).
pub const SELECTOR_BLOCKS: [usize; 3] = [3, 6, 9];
/// Cumulative keep ratios of the paper's DeiT-T schedule (Table VI),
/// as a fraction of the 196 patch tokens.
pub const CUMULATIVE_KEEP: [f32; 3] = [0.70, 0.39, 0.21];

/// Image shape shared by every workload.
fn synthetic_config(image_size: usize) -> SyntheticConfig {
    SyntheticConfig {
        image_size,
        ..SyntheticConfig::micro()
    }
}

/// `count` synthetic images drawn from `seed` alone.
pub fn images(config: &ViTConfig, count: usize, seed: u64) -> Vec<Tensor> {
    SyntheticDataset::generate(synthetic_config(config.image_size), count, seed)
        .iter()
        .map(|s| s.image.clone())
        .collect()
}

/// The seeded backbone.
pub fn backbone(config: &ViTConfig) -> VisionTransformer {
    VisionTransformer::new(config.clone(), &mut StdRng::seed_from_u64(MODEL_SEED))
}

/// Mean token count entering each selector's block, class and package
/// tokens included: the schedule the keep-rate calibration aims at.
pub fn target_tokens(config: &ViTConfig) -> Vec<f64> {
    let patches = config.num_patches() as f64;
    CUMULATIVE_KEEP
        .iter()
        .map(|&k| (f64::from(k) * patches).round() + 2.0)
        .collect()
}

/// Name of a selector's per-head keep/prune scorer bias (the last Linear of
/// each head's scorer MLP, `d/2 → 2`).
fn keep_bias_name(selector: &TokenSelector) -> String {
    let half = (selector.classifier().head_dim() / 2).max(1);
    format!("linear[{half}x2].bias")
}

/// Sets the keep logit of every head's scorer to `base + delta`.
fn set_keep_shift(selector: &mut TokenSelector, base: &[f32], delta: f32) {
    let name = keep_bias_name(selector);
    let biases = selector
        .params_mut()
        .into_iter()
        .filter(|p| p.name() == name);
    for (param, &b) in biases.zip(base) {
        param.value_mut().data_mut()[0] = b + delta;
    }
}

fn keep_bias_base(selector: &TokenSelector) -> Vec<f32> {
    let name = keep_bias_name(selector);
    let base: Vec<f32> = selector
        .params()
        .into_iter()
        .filter(|p| p.name() == name)
        .map(|p| p.value().data()[0])
        .collect();
    assert_eq!(
        base.len(),
        selector.classifier().num_heads(),
        "one keep bias per classifier head"
    );
    base
}

/// Token count after a selector stage: class token, kept patches, and the
/// package token when anything was pruned.
fn tokens_after(selector: &TokenSelector, patches: &Tensor) -> usize {
    let kept = selector.infer(patches).keep.iter().filter(|&&k| k).count();
    1 + kept + usize::from(kept < patches.dim(0))
}

/// A [`PrunedViT`] with random selectors in front of `blocks`, each selector's
/// keep-logit bias shifted (by bisection, stage by stage, on the held-out
/// calibration images) so the mean token count entering its block lands on
/// `targets`. Returns the model and the calibrated per-stage means.
pub fn calibrated_pruned(
    backbone: VisionTransformer,
    blocks: &[usize],
    targets: &[f64],
    calibration: &[Tensor],
) -> (PrunedViT, Vec<f64>) {
    let config = backbone.config().clone();
    let mut rng = StdRng::seed_from_u64(SELECTOR_SEED);
    let mut replay = Replay::default();
    let mut states: Vec<Tensor> = calibration
        .iter()
        .map(|image| replay.patch_embed(&backbone, image))
        .collect();
    let mut next_block = 0;
    let mut selectors = Vec::with_capacity(blocks.len());
    let mut achieved = Vec::with_capacity(blocks.len());
    for (&block, &target) in blocks.iter().zip(targets) {
        for state in states.iter_mut() {
            for b in &backbone.blocks()[next_block..block] {
                *state = replay.block(b, state);
            }
        }
        next_block = block;
        let mut selector = TokenSelector::new(config.embed_dim, config.num_heads, &mut rng);
        let base = keep_bias_base(&selector);
        let patches: Vec<Tensor> = states.iter().map(|s| s.slice_rows(1, s.dim(0))).collect();
        let mean_at = |selector: &mut TokenSelector, delta: f32| {
            set_keep_shift(selector, &base, delta);
            let total: usize = patches.iter().map(|p| tokens_after(selector, p)).sum();
            total as f64 / patches.len() as f64
        };
        let (mut lo, mut hi) = (-16.0f32, 16.0f32);
        let mut best = (f64::INFINITY, 0.0f32, 0.0f64);
        for _ in 0..14 {
            let mid = 0.5 * (lo + hi);
            let mean = mean_at(&mut selector, mid);
            let err = (mean - target).abs();
            if err < best.0 {
                best = (err, mid, mean);
            }
            if mean < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        set_keep_shift(&mut selector, &base, best.1);
        achieved.push(best.2);
        for state in states.iter_mut() {
            *state = replay.select(&selector, state, true);
        }
        selectors.push(selector);
    }
    let mut model = PrunedViT::new(backbone);
    let patches = config.num_patches() as f64;
    for ((&block, selector), &target) in blocks.iter().zip(selectors).zip(targets) {
        model.insert_selector(block, selector);
        let keep = (((target - 2.0) / patches) as f32).clamp(1e-3, 1.0);
        model.set_nominal_keep(block, keep);
    }
    (model, achieved)
}

/// The HeatViT workload model at the paper's DeiT-T schedule.
pub fn heatvit(config: &ViTConfig) -> (PrunedViT, Vec<f64>) {
    let calibration = images(config, SELECTOR_CALIBRATION_IMAGES, CALIBRATION_SEED);
    calibrated_pruned(
        backbone(config),
        &SELECTOR_BLOCKS,
        &target_tokens(config),
        &calibration,
    )
}

/// The int8 workload model: dense, scales calibrated on held-out images.
pub fn int8(backbone: &VisionTransformer) -> QuantizedViT {
    let mut model = QuantizedViT::from_float(backbone);
    model.calibrate(&images(
        backbone.config(),
        INT8_CALIBRATION_IMAGES,
        CALIBRATION_SEED,
    ));
    model
}

/// Token-merge ladder level at the same cumulative schedule as HeatViT
/// (per-stage ratios relative to the tokens entering each stage).
pub fn token_merge(backbone: VisionTransformer) -> TokenMergeViT {
    let mut previous = 1.0f32;
    let stages = SELECTOR_BLOCKS
        .iter()
        .zip(CUMULATIVE_KEEP)
        .map(|(&block, keep)| {
            let stage = TfStage {
                block,
                keep_ratio: keep / previous,
            };
            previous = keep;
            stage
        })
        .collect();
    TokenMergeViT::new(backbone, stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_images() {
        let config = ViTConfig::test_tiny(4);
        let a = images(&config, 3, 11);
        let b = images(&config, 3, 11);
        let c = images(&config, 3, 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
        assert_ne!(a[0].data(), c[0].data());
    }

    #[test]
    fn keep_shift_moves_the_token_count_monotonically() {
        let config = ViTConfig::test_tiny(4);
        let calibration = images(&config, 4, CALIBRATION_SEED);
        let low = calibrated_pruned(backbone(&config), &[1], &[2.0], &calibration).1[0];
        let high = calibrated_pruned(backbone(&config), &[1], &[5.0], &calibration).1[0];
        assert!(low < high, "{low} vs {high}");
        assert!((high - 5.0).abs() <= 1.0, "calibrated mean {high}");
    }

    #[test]
    fn deit_tiny_targets_follow_the_paper_schedule() {
        assert_eq!(
            target_tokens(&ViTConfig::deit_tiny()),
            vec![139.0, 78.0, 43.0]
        );
    }
}
