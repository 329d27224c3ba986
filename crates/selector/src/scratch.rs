//! The per-worker workspace of every inference path.
//!
//! A batched engine checks out one [`PruneScratch`] per worker and hands it
//! to whichever model it drives: the backbone's [`InferScratch`] serves the
//! blocks of every float model, and each model family adds the buffers its
//! stages need — the learned selectors' repack and package buffers here,
//! the rank-and-keep policies' [`RankScratch`], the int8 pipeline's
//! [`QuantScratch`]. Everything is allocated once per worker instead of
//! once per image.

use heatvit_quant::QuantScratch;
use heatvit_tensor::Tensor;
use heatvit_tfprune::{RankScratch, Repack};
use heatvit_vit::InferScratch;

/// Workspace for dense token repacking plus backbone inference.
///
/// Cheap to construct; the single-image convenience paths build a fresh one,
/// which makes the scratch and non-scratch paths execute identical
/// arithmetic (bit-identical results).
#[derive(Debug, Clone, Default)]
pub struct PruneScratch {
    /// Backbone (per-block) activation buffers, shared by every float
    /// model.
    pub vit: InferScratch,
    /// Integer-pipeline buffers (used by the `heatvit-quant` backend when it
    /// runs under the same batched engine; unused by the float variants).
    pub quant: QuantScratch,
    /// Stage buffers of the `heatvit-tfprune` rank-and-keep policies.
    pub rank: RankScratch,
    /// The learned selectors' dense repack.
    pub(crate) repack: Repack,
    /// Gathered pruned rows `[N-1-K, D]` (package input).
    pub(crate) pruned_rows: Tensor,
    /// Indices of kept patch tokens.
    pub(crate) kept: Vec<usize>,
    /// Indices of pruned patch tokens.
    pub(crate) pruned: Vec<usize>,
    /// Keep scores of the pruned tokens (packager weights).
    pub(crate) pruned_scores: Vec<f32>,
    /// Original patch-grid index of each current row (`None` = class or
    /// package token).
    pub(crate) origin: Vec<Option<usize>>,
    /// Staging buffer for the post-repack `origin` mapping.
    pub(crate) new_origin: Vec<Option<usize>>,
}

// Each engine worker thread owns one scratch; a future non-`Send` field must
// fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PruneScratch>();
};
