//! Type-erased model handles: [`Backend`] and the [`BackendKind`] selector.
//!
//! `Engine<M>` is generic so specialized deployments monomorphize away the
//! dispatch, but a serving front-end (and any table-driven harness like
//! `run_all`) wants *one* engine type whose concrete model is chosen at
//! runtime. [`Backend`] is that handle: an enum over the workspace's four
//! model types, dispatching [`InferenceModel`] by `match` — no heap
//! allocation, no vtable, and `Engine<Backend>` is a single nameable type.
//! [`BackendKind`] is the matching value-level selector: a closed set of
//! well-known configurations that benchmarks and servers can iterate
//! ([`BackendKind::ALL`]) instead of hand-writing one block per variant.

use crate::model::{InferenceModel, ModelOutput};
use heatvit_quant::QuantizedViT;
use heatvit_selector::{PruneScratch, PrunedViT};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{RankPolicy, RankPrunedViT};
use heatvit_vit::{ViTConfig, VisionTransformer};

/// A type-erased inference backend: one of the four workspace model types
/// behind a single concrete type.
///
/// Every variant's [`InferenceModel`] implementation is forwarded
/// unchanged, so a `Backend` is bit-identical to the concrete model it
/// wraps — parity tests can compare the two directly.
///
/// # Examples
///
/// ```
/// use heatvit::{Backend, BackendKind, Engine, InferenceModel};
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
/// let backend = Backend::from(model);
/// assert_eq!(backend.kind(), BackendKind::Dense);
/// let engine = Engine::builder(backend).build(); // Engine<Backend>: one type
/// assert_eq!(engine.model().variant(), BackendKind::Dense.label());
/// ```
#[derive(Debug, Clone)]
pub enum Backend {
    /// The dense float baseline.
    Dense(VisionTransformer),
    /// Adaptive HeatViT token pruning (float).
    AdaptivePruned(PrunedViT),
    /// Rank-and-keep pruning (float, no learned selector): CLS-attention
    /// drop, mergence or top-k, or a static baseline, per its policy.
    RankPruned(RankPrunedViT),
    /// The int8 integer pipeline, dense or adaptively pruned depending on
    /// its installed stages.
    Quantized(QuantizedViT),
}

impl Backend {
    /// The value-level kind of this backend (for the quantized variant,
    /// distinguished by whether pruning stages are installed).
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Dense(_) => BackendKind::Dense,
            Backend::AdaptivePruned(_) => BackendKind::AdaptivePruned,
            Backend::RankPruned(m) => match m.policy() {
                RankPolicy::ClsAttnDrop => BackendKind::ClsAttn,
                RankPolicy::ClsAttnMerge => BackendKind::TokenMerge,
                RankPolicy::ClsAttnValueTopK => BackendKind::TopK,
                RankPolicy::StaticCliffAttention
                | RankPolicy::StaticTokenNorm
                | RankPolicy::StaticRandom(_) => BackendKind::StaticPruned,
            },
            Backend::Quantized(q) => {
                if q.prune_stages().is_empty() {
                    BackendKind::Int8Dense
                } else {
                    BackendKind::Int8Adaptive
                }
            }
        }
    }
}

impl From<VisionTransformer> for Backend {
    fn from(model: VisionTransformer) -> Self {
        Backend::Dense(model)
    }
}

impl From<PrunedViT> for Backend {
    fn from(model: PrunedViT) -> Self {
        Backend::AdaptivePruned(model)
    }
}

impl From<RankPrunedViT> for Backend {
    fn from(model: RankPrunedViT) -> Self {
        Backend::RankPruned(model)
    }
}

impl From<QuantizedViT> for Backend {
    fn from(model: QuantizedViT) -> Self {
        Backend::Quantized(model)
    }
}

impl InferenceModel for Backend {
    fn variant(&self) -> &str {
        match self {
            Backend::Dense(m) => m.variant(),
            Backend::AdaptivePruned(m) => m.variant(),
            Backend::RankPruned(m) => m.variant(),
            Backend::Quantized(m) => m.variant(),
        }
    }

    fn config(&self) -> &ViTConfig {
        match self {
            Backend::Dense(m) => InferenceModel::config(m),
            Backend::AdaptivePruned(m) => InferenceModel::config(m),
            Backend::RankPruned(m) => InferenceModel::config(m),
            Backend::Quantized(m) => InferenceModel::config(m),
        }
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        match self {
            Backend::Dense(m) => m.infer_one(image, scratch),
            Backend::AdaptivePruned(m) => m.infer_one(image, scratch),
            Backend::RankPruned(m) => m.infer_one(image, scratch),
            Backend::Quantized(m) => m.infer_one(image, scratch),
        }
    }

    fn dense_macs(&self) -> u64 {
        match self {
            Backend::Dense(m) => InferenceModel::dense_macs(m),
            Backend::AdaptivePruned(m) => InferenceModel::dense_macs(m),
            Backend::RankPruned(m) => InferenceModel::dense_macs(m),
            Backend::Quantized(m) => InferenceModel::dense_macs(m),
        }
    }

    fn cost_profile(&self) -> crate::latency::CostProfile {
        match self {
            Backend::Dense(m) => m.cost_profile(),
            Backend::AdaptivePruned(m) => m.cost_profile(),
            Backend::RankPruned(m) => m.cost_profile(),
            Backend::Quantized(m) => m.cost_profile(),
        }
    }
}

/// The closed set of well-known backend configurations.
///
/// The quantized model contributes two kinds — dense and adaptively pruned
/// — because they are distinct rows in every comparison the paper makes;
/// they share the [`Backend::Quantized`] representation. Likewise the four
/// rank-and-keep kinds share [`Backend::RankPruned`], told apart by policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense float baseline ([`VisionTransformer`]).
    Dense,
    /// Adaptive HeatViT pruning ([`PrunedViT`]).
    AdaptivePruned,
    /// Static pruning baseline ([`RankPrunedViT::cliff_attention`]).
    StaticPruned,
    /// Training-free CLS-attention hard drop ([`RankPrunedViT::cls_attn`]).
    ClsAttn,
    /// Training-free token mergence ([`RankPrunedViT::new`]).
    TokenMerge,
    /// Training-free fixed-layer top-k ([`RankPrunedViT::top_k`]).
    TopK,
    /// Int8 pipeline without pruning stages ([`QuantizedViT`]).
    Int8Dense,
    /// Int8 pipeline with attention-driven pruning stages.
    Int8Adaptive,
}

impl BackendKind {
    /// Every kind, in canonical report-table order (dense baseline first —
    /// harnesses use it as the accuracy/agreement reference row — then the
    /// learned schedules, the training-free family, and the int8 pipeline).
    pub const ALL: [BackendKind; 8] = [
        BackendKind::Dense,
        BackendKind::AdaptivePruned,
        BackendKind::StaticPruned,
        BackendKind::ClsAttn,
        BackendKind::TokenMerge,
        BackendKind::TopK,
        BackendKind::Int8Dense,
        BackendKind::Int8Adaptive,
    ];

    /// The canonical variant label, delegated to the label each model
    /// crate registers (`VisionTransformer::VARIANT`, [`RankPolicy::label`]
    /// etc.), so a [`Backend`] built for this kind reports exactly this
    /// string from [`InferenceModel::variant`].
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Dense => VisionTransformer::VARIANT,
            BackendKind::AdaptivePruned => PrunedViT::VARIANT,
            BackendKind::StaticPruned => RankPolicy::StaticCliffAttention.label(),
            BackendKind::ClsAttn => RankPolicy::ClsAttnDrop.label(),
            BackendKind::TokenMerge => RankPolicy::ClsAttnMerge.label(),
            BackendKind::TopK => RankPolicy::ClsAttnValueTopK.label(),
            BackendKind::Int8Dense => QuantizedViT::VARIANT_DENSE,
            BackendKind::Int8Adaptive => QuantizedViT::VARIANT_ADAPTIVE,
        }
    }

    /// `true` for the int8 kinds (which report packed-DSP-equivalent MACs
    /// and are held to the top-1 agreement gate against the float dense
    /// reference).
    pub fn is_quantized(self) -> bool {
        matches!(self, BackendKind::Int8Dense | BackendKind::Int8Adaptive)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_distinct_labels() {
        for (i, a) in BackendKind::ALL.iter().enumerate() {
            for b in &BackendKind::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert_eq!(BackendKind::ALL[0], BackendKind::Dense);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(BackendKind::Int8Adaptive.to_string(), "int8-adaptive");
        assert_eq!(BackendKind::AdaptivePruned.to_string(), "adaptive-pruned");
        assert_eq!(BackendKind::ClsAttn.to_string(), "cls-attn");
        assert_eq!(BackendKind::TokenMerge.to_string(), "token-merge");
        assert_eq!(BackendKind::TopK.to_string(), "topk-attn");
    }
}
