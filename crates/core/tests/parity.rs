//! Batched-vs-single-image parity: `Engine::infer_batch` must be
//! bit-identical to the per-image `infer` paths for every model variant,
//! the thread-sharded engine must be bit-identical to the sequential one at
//! every worker count, and pruning must be monotone across selector stages.

use heatvit::{Engine, InferenceModel};
use heatvit_data::{Loader, SyntheticConfig, SyntheticDataset};
use heatvit_quant::{QuantPruneStage, QuantizedViT};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{RankPrunedViT, TfStage, TopKStage};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn backbone(rng: &mut StdRng) -> VisionTransformer {
    VisionTransformer::new(ViTConfig::micro(4), rng)
}

fn pruned(rng: &mut StdRng) -> PrunedViT {
    let backbone = backbone(rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut model = PrunedViT::new(backbone);
    model.insert_selector(1, TokenSelector::new(dim, heads, rng));
    model.insert_selector(3, TokenSelector::new(dim, heads, rng));
    model
}

fn static_pruned(rng: &mut StdRng) -> RankPrunedViT {
    RankPrunedViT::cliff_attention(
        backbone(rng),
        vec![
            TfStage {
                block: 1,
                keep_ratio: 0.7,
            },
            TfStage {
                block: 3,
                keep_ratio: 0.6,
            },
        ],
    )
}

fn tf_stages() -> Vec<TfStage> {
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

fn cls_attn(rng: &mut StdRng) -> RankPrunedViT {
    RankPrunedViT::cls_attn(backbone(rng), tf_stages())
}

fn token_merge(rng: &mut StdRng) -> RankPrunedViT {
    RankPrunedViT::new(backbone(rng), tf_stages())
}

fn topk(rng: &mut StdRng) -> RankPrunedViT {
    RankPrunedViT::top_k(
        backbone(rng),
        vec![
            TopKStage { block: 2, keep: 10 },
            TopKStage { block: 4, keep: 6 },
        ],
    )
}

fn quantized(rng: &mut StdRng) -> QuantizedViT {
    QuantizedViT::from_float(&backbone(rng)).with_prune_stages(vec![
        QuantPruneStage {
            block: 2,
            attn_frac: 0.9,
        },
        QuantPruneStage {
            block: 4,
            attn_frac: 0.9,
        },
    ])
}

fn images(rng: &mut StdRng, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, rng))
        .collect()
}

/// Asserts that every batched logit row equals the per-image path bitwise.
fn assert_batch_matches_single<M: InferenceModel>(
    model: M,
    single_logits: &[Tensor],
    images: &[Tensor],
) {
    let engine = Engine::builder(model).build();
    let out = engine.infer_batch(images);
    assert_eq!(out.logits.dims(), &[images.len(), 4]);
    for (i, single) in single_logits.iter().enumerate() {
        assert_eq!(
            out.logits.row(i),
            single.data(),
            "batched row {i} diverges from per-image inference for {}",
            engine.model().variant()
        );
    }
    // The same batch re-run through the warm scratch must also be stable.
    let again = engine.infer_batch(images);
    assert_eq!(again.logits.data(), out.logits.data());
}

#[test]
fn dense_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = backbone(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im)).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

#[test]
fn adaptive_pruned_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(8);
    let model = pruned(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im).logits).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

#[test]
fn static_pruned_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = static_pruned(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im).logits).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

#[test]
fn cls_attn_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(30);
    let model = cls_attn(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im).logits).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

#[test]
fn token_merge_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(31);
    let model = token_merge(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im).logits).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

#[test]
fn topk_batch_is_bitwise_identical_to_single() {
    let mut rng = StdRng::seed_from_u64(32);
    let model = topk(&mut rng);
    let imgs = images(&mut rng, 5);
    let single: Vec<Tensor> = imgs.iter().map(|im| model.infer(im).logits).collect();
    assert_batch_matches_single(model, &single, &imgs);
}

/// Asserts that the thread-sharded engine reproduces the sequential
/// engine's `logits`, `tokens_per_block`, and `macs` bitwise at every
/// tested worker count — including more workers than images.
///
/// `build` must be deterministic (each call returns an identical model) so
/// every engine runs the same weights.
fn assert_parallel_matches_sequential<M: InferenceModel>(build: impl Fn() -> M, images: &[Tensor]) {
    let sequential = Engine::builder(build()).build().infer_batch(images);
    for threads in [1, 2, 3] {
        let engine = Engine::builder(build()).threads(threads).build();
        let parallel = engine.infer_batch(images);
        let variant = engine.model().variant();
        assert_eq!(parallel.logits.dims(), sequential.logits.dims());
        assert_eq!(
            parallel.logits.data(),
            sequential.logits.data(),
            "{variant}: sharded logits diverge at {threads} threads"
        );
        assert_eq!(
            parallel.tokens_per_block, sequential.tokens_per_block,
            "{variant}: sharded token counts diverge at {threads} threads"
        );
        assert_eq!(
            parallel.macs, sequential.macs,
            "{variant}: sharded MACs diverge at {threads} threads"
        );
        // A warm re-run through the same worker pool must also be stable.
        let again = engine.infer_batch(images);
        assert_eq!(again.logits.data(), sequential.logits.data());
    }
}

#[test]
fn parallel_dense_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(20);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| backbone(&mut StdRng::seed_from_u64(7)), &imgs);
}

#[test]
fn parallel_adaptive_pruned_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(21);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| pruned(&mut StdRng::seed_from_u64(8)), &imgs);
}

#[test]
fn parallel_static_pruned_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(22);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| static_pruned(&mut StdRng::seed_from_u64(9)), &imgs);
}

#[test]
fn parallel_cls_attn_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(33);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| cls_attn(&mut StdRng::seed_from_u64(30)), &imgs);
}

#[test]
fn parallel_token_merge_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(34);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| token_merge(&mut StdRng::seed_from_u64(31)), &imgs);
}

#[test]
fn parallel_topk_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(35);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| topk(&mut StdRng::seed_from_u64(32)), &imgs);
}

#[test]
fn parallel_int8_matches_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(23);
    let imgs = images(&mut rng, 5);
    assert_parallel_matches_sequential(|| quantized(&mut StdRng::seed_from_u64(13)), &imgs);
}

#[test]
fn parallel_handles_batches_smaller_than_the_pool() {
    let mut rng = StdRng::seed_from_u64(24);
    // 2 images across 3 workers: one worker idles, outputs still bitwise.
    let imgs = images(&mut rng, 2);
    assert_parallel_matches_sequential(|| pruned(&mut StdRng::seed_from_u64(8)), &imgs);
}

#[test]
fn parallel_handles_an_empty_batch() {
    let mut rng = StdRng::seed_from_u64(25);
    let engine = Engine::builder(backbone(&mut rng)).threads(3).build();
    let out = engine.infer_batch(&[]);
    assert!(out.is_empty());
    assert_eq!(out.logits.dims(), &[0, 4]);
    assert!(out.tokens_per_block.is_empty());
    assert!(out.macs.is_empty());
    assert!(out.mean_tokens_per_block().is_empty());
    assert_eq!(out.throughput(), 0.0);
}

#[test]
fn parallel_run_epoch_matches_sequential_statistics() {
    let dataset = SyntheticDataset::generate(SyntheticConfig::micro(), 10, 1);
    let loader = Loader::new(&dataset, 4, false, 0);
    let seq = Engine::builder(pruned(&mut StdRng::seed_from_u64(8)))
        .build()
        .run_epoch(&loader, 0);
    let par = Engine::builder(pruned(&mut StdRng::seed_from_u64(8)))
        .threads(3)
        .build()
        .run_epoch(&loader, 0);
    assert_eq!(par.images, seq.images);
    assert_eq!(par.batches, seq.batches);
    assert_eq!(par.accuracy, seq.accuracy);
    assert_eq!(par.mean_macs, seq.mean_macs);
    assert_eq!(par.mean_final_tokens, seq.mean_final_tokens);
}

#[test]
fn boxed_models_run_under_the_engine() {
    let model: Box<dyn InferenceModel> = Box::new(pruned(&mut StdRng::seed_from_u64(8)));
    let imgs = images(&mut StdRng::seed_from_u64(26), 4);
    let boxed = Engine::builder(model).threads(2).build().infer_batch(&imgs);
    let direct = Engine::builder(pruned(&mut StdRng::seed_from_u64(8)))
        .build()
        .infer_batch(&imgs);
    assert_eq!(boxed.logits.data(), direct.logits.data());
    assert_eq!(boxed.macs, direct.macs);
}

#[test]
fn pruned_token_counts_are_monotone_across_stages() {
    let mut rng = StdRng::seed_from_u64(10);
    let model = pruned(&mut rng);
    let selector_blocks = model.selector_blocks();
    let engine = Engine::builder(model).build();
    for image in images(&mut rng, 8) {
        let out = engine.infer_one(&image);
        // Patch-token counts entering each selector stage may only shrink
        // (the package token is excluded: at most one non-patch extra).
        let mut last = usize::MAX;
        for &b in &selector_blocks {
            let n = out.tokens_per_block[b];
            assert!(
                n <= last,
                "token count grew entering selector block {b}: {n} > {last}"
            );
            last = n;
        }
        // And no block may ever exceed the dense count plus a package token.
        let dense = engine.model().config().num_tokens();
        for &n in &out.tokens_per_block {
            assert!(n <= dense + 1);
        }
    }
}

#[test]
fn static_batch_entry_points_agree() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = static_pruned(&mut rng);
    let imgs = images(&mut rng, 3);
    let batched = model.infer_batch(&imgs);
    for (inference, image) in batched.iter().zip(imgs.iter()) {
        assert_eq!(inference.logits.data(), model.infer(image).logits.data());
    }
}

#[test]
fn engine_runs_a_loader_epoch() {
    let mut rng = StdRng::seed_from_u64(12);
    let model = pruned(&mut rng);
    let dataset = SyntheticDataset::generate(SyntheticConfig::micro(), 12, 0);
    let loader = Loader::new(&dataset, 4, false, 0);
    let engine = Engine::builder(model).build();
    let report = engine.run_epoch(&loader, 0);
    assert_eq!(report.images, 12);
    assert_eq!(report.batches, 3);
    assert!((0.0..=1.0).contains(&report.accuracy));
    assert!(report.images_per_sec > 0.0);
    assert!(report.mean_macs > 0.0);
    assert!(report.mean_final_tokens > 0.0);
}
