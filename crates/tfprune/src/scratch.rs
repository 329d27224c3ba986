//! The reusable workspaces of the pruned inference paths.

use heatvit_tensor::{GemmScratch, Tensor};

/// The dense token repack every pruning stage ends with: slice off the
/// class token, gather the surviving patch rows, and concatenate the parts
/// back into one dense token matrix, so every downstream GEMM stays dense
/// (the hardware token-selection flow of paper Fig. 9).
///
/// Shared by the rank-and-keep policies and the learned selectors of
/// `heatvit-selector`; the buffers grow on first use and are reused after.
#[derive(Debug, Clone, Default)]
pub struct Repack {
    /// Patch-token rows (class token excluded) `[N-1, D]`.
    pub(crate) patches: Tensor,
    /// The class-token row `[1, D]`.
    pub(crate) cls: Tensor,
    /// Gathered (and, for mergence, merged-into) kept rows `[K, D]`.
    pub(crate) kept_rows: Tensor,
    /// The repacked token matrix handed to the next block.
    pub(crate) repacked: Tensor,
}

impl Repack {
    /// Splits `tokens` into the class row and the patch rows, returning the
    /// patch rows.
    pub fn split(&mut self, tokens: &Tensor) -> &Tensor {
        tokens.slice_rows_into(0, 1, &mut self.cls);
        tokens.slice_rows_into(1, tokens.dim(0), &mut self.patches);
        &self.patches
    }

    /// The patch rows of the last [`Repack::split`].
    pub fn patches(&self) -> &Tensor {
        &self.patches
    }

    /// Gathers the `kept` patch rows (indices into the split patches).
    pub fn gather(&mut self, kept: &[usize]) {
        self.patches.gather_rows_into(kept, &mut self.kept_rows);
    }

    /// Replaces `tokens` with the class row, the gathered kept rows, and
    /// `extra` (a summary token, if any), recycling the old token storage as
    /// the next stage's repack buffer.
    pub fn finish(&mut self, tokens: &mut Tensor, extra: Option<&Tensor>) {
        match extra {
            Some(extra) => {
                Tensor::concat_rows_into(&[&self.cls, &self.kept_rows, extra], &mut self.repacked)
            }
            None => Tensor::concat_rows_into(&[&self.cls, &self.kept_rows], &mut self.repacked),
        }
        std::mem::swap(tokens, &mut self.repacked);
    }
}

/// Workspace of [`crate::RankPrunedViT`]'s stages: scoring projections,
/// rankings, the merge bookkeeping, and the dense repack. The backbone's
/// own activation buffers live in the caller's `heatvit_vit::InferScratch`,
/// so an engine worker owns exactly one of those.
///
/// Cheap to construct; the single-image convenience paths build a fresh
/// one, which keeps the scratch and non-scratch paths executing identical
/// arithmetic (bit-identical results).
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    /// Packed-panel staging for the scoring projections.
    pub(crate) gs: GemmScratch,
    /// Layer-normed tokens the scoring projections read `[N, D]`.
    pub(crate) normed: Tensor,
    /// The normed class-token row `[1, D]` (query input).
    pub(crate) cls_normed: Tensor,
    /// The class token's query `[1, D]`.
    pub(crate) q_cls: Tensor,
    /// Key projection of every token `[N, D]`.
    pub(crate) k_proj: Tensor,
    /// Value projection of every token `[N, D]` (top-k scoring only).
    pub(crate) v_proj: Tensor,
    /// The stage's dense repack buffers.
    pub(crate) repack: Repack,
    /// Score per current token; index 0 is the class token's slot, indices
    /// `1..N` the patch tokens.
    pub(crate) scores: Vec<f32>,
    /// One head's attention logits/probabilities, or the value norms.
    pub(crate) head_row: Vec<f32>,
    /// Patch indices in descending score order (`[..k]` kept, `[k..]`
    /// pruned).
    pub(crate) order: Vec<usize>,
    /// Kept patch indices, restored to block order.
    pub(crate) kept: Vec<usize>,
    /// Accumulated merge weight per kept row (mergence only).
    pub(crate) merge_weight: Vec<f32>,
    /// Whether a kept row has absorbed at least one pruned token (mergence
    /// only; untouched rows pass through bit-identical to the hard drop).
    pub(crate) merged: Vec<bool>,
}

// Each engine worker thread owns one scratch; a future non-`Send` field
// must fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RankScratch>();
};
