//! The [`InferenceModel`] trait: one interface over the dense, adaptively
//! pruned, rank-and-keep pruned, and int8-quantized ViT variants.

use crate::latency::CostProfile;
use heatvit_quant::QuantizedViT;
use heatvit_selector::{PruneScratch, PrunedViT};
use heatvit_tensor::Tensor;
use heatvit_tfprune::RankPrunedViT;
use heatvit_vit::{ViTConfig, VisionTransformer};

/// Result of one image's inference through any model variant.
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Classification logits `[1, num_classes]`.
    pub logits: Tensor,
    /// Token count entering each encoder block (class/package included).
    pub tokens_per_block: Vec<usize>,
    /// Multiply–accumulate estimate for this inference at its actual
    /// per-block token counts.
    pub macs: u64,
}

/// A model that can classify one image and account for its own cost.
///
/// Implemented by [`VisionTransformer`] (dense baseline), [`PrunedViT`]
/// (adaptive HeatViT pruning), [`RankPrunedViT`] (the rank-and-keep
/// family: CLS-attention drop, mergence and top-k, and the static
/// baselines — one model, one policy each, no learned selector), and
/// [`QuantizedViT`] (the int8 integer pipeline, dense or adaptively
/// pruned), so the [`crate::Engine`] can benchmark all of them under a
/// single harness — the comparison setup of paper Figs. 2 and 4 extended
/// with the Section V quantized backend and the training-free baselines.
/// The float models all run the backbone's one forward loop
/// ([`VisionTransformer::infer_staged`]) on the worker's one
/// [`InferScratch`](heatvit_vit::InferScratch) (`PruneScratch::vit`).
///
/// `Send + Sync` are supertraits: [`infer_one`](InferenceModel::infer_one)
/// takes `&self`, the sharded engine shares that reference across scoped
/// worker threads (all mutable state lives in the per-worker
/// [`PruneScratch`]), and a serving worker pool (`heatvit-serve`) *owns*
/// the model on a spawned batcher thread, which requires `Send`. Every
/// workspace model is plain owned data, so the bounds cost implementors
/// nothing — each model crate carries a compile-time assertion.
///
/// The trait is object safe: heterogeneous model fleets can be held as
/// `Box<dyn InferenceModel>`, which implements the trait itself and can be
/// driven by an [`crate::Engine`] directly. For the workspace's own
/// variants, prefer the allocation-free [`crate::Backend`] enum.
pub trait InferenceModel: Send + Sync {
    /// Short human-readable variant name for report tables.
    fn variant(&self) -> &str;

    /// The backbone architecture configuration.
    fn config(&self) -> &ViTConfig;

    /// Classifies one image, reusing `scratch` for every intermediate
    /// buffer. Must be bit-identical to the variant's single-image `infer`
    /// path.
    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput;

    /// Multiply–accumulate count with the full token count in every block —
    /// the dense-cost baseline pruning is measured against.
    fn dense_macs(&self) -> u64;

    /// What one inference through this model is *expected* to compute,
    /// without running inference: the [`CostProfile`] a
    /// [`crate::LatencyModel`] turns into a predicted service time.
    ///
    /// The default is the dense profile (full tokens everywhere, float
    /// arithmetic) — correct for the dense baseline and a conservative
    /// over-estimate for anything else. Pruned and quantized variants
    /// override it with their planned/nominal token schedules and
    /// arithmetic family.
    fn cost_profile(&self) -> CostProfile {
        CostProfile::dense(self.variant(), self.config(), self.dense_macs())
    }
}

/// Borrowed models are models too (`M: Sync` comes with the supertraits),
/// so an [`crate::Engine`] can drive a model it does not own — e.g. a
/// training loop evaluating throughput on the model it is still updating
/// between epochs.
impl<M: InferenceModel + ?Sized> InferenceModel for &M {
    fn variant(&self) -> &str {
        (**self).variant()
    }

    fn config(&self) -> &ViTConfig {
        (**self).config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        (**self).infer_one(image, scratch)
    }

    fn dense_macs(&self) -> u64 {
        (**self).dense_macs()
    }

    fn cost_profile(&self) -> CostProfile {
        (**self).cost_profile()
    }
}

/// Boxed (and boxed-trait-object) models are models too, so an
/// `Engine<Box<dyn InferenceModel>>` can drive a fleet whose concrete
/// variant is chosen at runtime.
impl<M: InferenceModel + ?Sized> InferenceModel for Box<M> {
    fn variant(&self) -> &str {
        (**self).variant()
    }

    fn config(&self) -> &ViTConfig {
        (**self).config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        (**self).infer_one(image, scratch)
    }

    fn dense_macs(&self) -> u64 {
        (**self).dense_macs()
    }

    fn cost_profile(&self) -> CostProfile {
        (**self).cost_profile()
    }
}

impl InferenceModel for VisionTransformer {
    fn variant(&self) -> &str {
        Self::VARIANT
    }

    fn config(&self) -> &ViTConfig {
        self.config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        let logits = self.infer_with(image, &mut scratch.vit);
        ModelOutput {
            logits,
            tokens_per_block: vec![self.config().num_tokens(); self.config().depth],
            macs: self.macs(),
        }
    }

    fn dense_macs(&self) -> u64 {
        self.macs()
    }
}

impl InferenceModel for PrunedViT {
    fn variant(&self) -> &str {
        Self::VARIANT
    }

    fn config(&self) -> &ViTConfig {
        self.backbone().config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        let inference = self.infer_with(image, scratch);
        let macs = self.macs(&inference);
        ModelOutput {
            logits: inference.logits,
            tokens_per_block: inference.tokens_per_block,
            macs,
        }
    }

    fn dense_macs(&self) -> u64 {
        self.backbone().macs()
    }

    /// Nominal-keep expectation: per-image counts vary with input content
    /// (`exact == false` whenever a selector is installed), but the
    /// declared keep schedule is what the selectors were trained toward.
    fn cost_profile(&self) -> CostProfile {
        let tokens = self.expected_tokens_per_block();
        let macs = self.macs_for_tokens(&tokens);
        CostProfile {
            variant: self.variant().to_string(),
            config: InferenceModel::config(self).clone(),
            exact: self.selector_blocks().is_empty(),
            quantized: false,
            macs,
            tokens_per_block: tokens,
        }
    }
}

impl InferenceModel for QuantizedViT {
    /// `"int8-dense"` or `"int8-adaptive"` depending on pruning stages.
    fn variant(&self) -> &str {
        self.variant_name()
    }

    fn config(&self) -> &ViTConfig {
        self.config()
    }

    /// Runs the integer pipeline through the engine's shared scratch: the
    /// quantized model uses the `quant` compartment of [`PruneScratch`]
    /// (int8 staging + float activation buffers), leaving the float
    /// compartments untouched. Reported `macs` are packed-DSP-equivalent
    /// (raw int8 MACs ÷ `heatvit_quant::DSP_PACKING_FACTOR`).
    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        let inference = self.infer_with(image, &mut scratch.quant);
        ModelOutput {
            logits: inference.logits,
            tokens_per_block: inference.tokens_per_block,
            macs: inference.macs,
        }
    }

    /// The *float-equivalent* dense baseline (unpacked raw MACs), so the
    /// engine's MAC-speedup column exposes both the DSP-packing gain and any
    /// token-pruning gain.
    fn dense_macs(&self) -> u64 {
        self.dense_macs()
    }

    /// Quantized profile (`quantized == true`, packed-DSP-equivalent MACs);
    /// exact for the dense int8 variant, a nominal-keep expectation when
    /// attention-threshold pruning stages are installed.
    fn cost_profile(&self) -> CostProfile {
        let tokens = self.expected_tokens_per_block();
        let macs = self.packed_macs_for(&tokens);
        CostProfile {
            variant: self.variant().to_string(),
            config: self.config().clone(),
            exact: self.prune_stages().is_empty(),
            quantized: true,
            macs,
            tokens_per_block: tokens,
        }
    }
}

impl InferenceModel for RankPrunedViT {
    fn variant(&self) -> &str {
        self.variant()
    }

    fn config(&self) -> &ViTConfig {
        self.backbone().config()
    }

    /// Runs the blocks on the engine's shared backbone scratch and the
    /// stages on its `rank` compartment.
    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        let inference = self.infer_with(image, &mut scratch.vit, &mut scratch.rank);
        ModelOutput {
            macs: self.macs_for_tokens(&inference.tokens_per_block),
            logits: inference.logits,
            tokens_per_block: inference.tokens_per_block,
        }
    }

    fn dense_macs(&self) -> u64 {
        self.backbone().macs()
    }

    /// Exact profile: *which* tokens survive varies per image, *how many*
    /// never does, and every policy's stage overhead is charged into
    /// `macs`.
    fn cost_profile(&self) -> CostProfile {
        let tokens = self.planned_tokens_per_block();
        let macs = self.macs_for_tokens(&tokens);
        CostProfile {
            variant: self.variant().to_string(),
            config: InferenceModel::config(self).clone(),
            exact: true,
            quantized: false,
            macs,
            tokens_per_block: tokens,
        }
    }
}
