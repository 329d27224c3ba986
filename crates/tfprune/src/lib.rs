//! # heatvit-tfprune
//!
//! Rank-and-keep token pruning over the shared ViT backbone: one model,
//! [`RankPrunedViT`], whose [`RankPolicy`] scores the patch tokens in
//! front of each configured block, keeps a fixed number of them, and
//! repacks the token matrix densely. None of the policies needs selector
//! training, so they are the in-repo baselines the learned HeatViT
//! schedule (`heatvit-selector`) has to beat.
//!
//! The policies are the workspace's six benchmarked configurations:
//!
//! * **CLS-attention drop** ([`RankPrunedViT::cls_attn`]) — rank by the
//!   class token's attention distribution, computed from the upcoming
//!   block's own `W_q`/`W_k` *before* the block runs (`≈ N·D²` MACs of the
//!   block's `2N²·D + 4N·D²`), and drop the low-scored tokens (the Adaptive
//!   Sparse ViT recipe).
//! * **CLS-attention merge** ([`RankPrunedViT::new`], alias
//!   [`TokenMergeViT`]) — same ranking, but each pruned token is folded into
//!   its most similar kept token (Multi-Scale Token Mergence), preserving
//!   information at the hard drop's downstream MAC budget.
//! * **CLS-attention + value-norm top-k** ([`RankPrunedViT::top_k`]) —
//!   literal keep *counts* at fixed depths.
//! * **Static cliff attention, token norm, seeded random**
//!   ([`RankPrunedViT::cliff_attention`], [`RankPrunedViT::token_norm`],
//!   [`RankPrunedViT::random`]) — the static baselines of paper Section
//!   II-D.
//!
//! Every policy is input-agnostic in its *token counts* (which tokens
//! survive varies per image, how many never does), so cost profiles are
//! exact: the planned per-block schedule is the schedule every image
//! executes. [`Repack`], the slice/gather/concat step every stage ends
//! with, is shared with the learned selectors.

#![warn(missing_docs)]

mod cls_attn;
mod merge;
mod rank;
mod scratch;
mod static_prune;
mod topk;

pub use rank::{RankInference, RankPolicy, RankPrunedViT, TokenMergeViT};
pub use scratch::{RankScratch, Repack};
pub use topk::TopKStage;

/// One ratio stage: in front of `block`, keep `ceil(keep_ratio · N)` of
/// the `N` current patch tokens (the class token is never counted and
/// never pruned).
#[derive(Debug, Clone, Copy)]
pub struct TfStage {
    /// Block index the stage precedes (the CLS-attention scores come from
    /// this block's own `W_q`/`W_k`, so a stage in front of block 0 is
    /// well-defined).
    pub block: usize,
    /// Fraction of current patch tokens to keep, in `(0, 1]`.
    pub keep_ratio: f32,
}
