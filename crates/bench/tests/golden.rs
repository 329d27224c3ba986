//! Cross-commit oracle: the exact outputs of every [`BackendKind`] fixture.
//!
//! The parity suites compare each model with itself (batched against
//! single, sharded against sequential), so they cannot notice a change that
//! moves arithmetic identically on both sides. This test pins what each
//! `build_backend` fixture computes on four seeded images — the logits' f32
//! bit patterns, the executed token schedule and MACs — plus the cost
//! profile admission predicts from. A refactor that claims to move no
//! arithmetic must pass it unchanged.

use heatvit::{BackendKind, Engine, InferenceModel};
use heatvit_bench::{build_backend, synthetic_batch};

/// Seed of the pinned image batch.
const IMAGE_SEED: u64 = 0x601D;

/// What one kind computes on the pinned batch.
#[derive(Debug, PartialEq)]
struct Golden {
    kind: BackendKind,
    /// FNV-1a over the f32 bit patterns of all four logits rows.
    logits_hash: u64,
    /// Executed token count entering each block, per image.
    tokens: Vec<Vec<usize>>,
    /// Executed MACs, per image.
    macs: Vec<u64>,
    /// `cost_profile()`: planned tokens, predicted MACs, exactness.
    profile_tokens: Vec<usize>,
    profile_macs: u64,
    profile_exact: bool,
}

fn fnv1a(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn observe(kind: BackendKind) -> Golden {
    let images = synthetic_batch(4, IMAGE_SEED);
    let engine = Engine::builder(build_backend(kind)).build();
    let out = engine.infer_batch(&images);
    let profile = engine.model().cost_profile();
    Golden {
        kind,
        logits_hash: fnv1a(out.logits.data().iter().map(|v| v.to_bits())),
        tokens: out.tokens_per_block,
        macs: out.macs,
        profile_tokens: profile.tokens_per_block,
        profile_macs: profile.macs,
        profile_exact: profile.exact,
    }
}

fn golden(
    kind: BackendKind,
    logits_hash: u64,
    tokens: [&[usize]; 4],
    macs: &[u64],
    profile: (&[usize], u64, bool),
) -> Golden {
    Golden {
        kind,
        logits_hash,
        tokens: tokens.iter().map(|t| t.to_vec()).collect(),
        macs: macs.to_vec(),
        profile_tokens: profile.0.to_vec(),
        profile_macs: profile.1,
        profile_exact: profile.2,
    }
}

fn expected() -> Vec<Golden> {
    vec![
        golden(
            BackendKind::Dense,
            0xc1aaf7cfb7d30dda,
            [
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
            ],
            &[2194368, 2194368, 2194368, 2194368],
            (&[17, 17, 17, 17, 17, 17], 2194368, true),
        ),
        golden(
            BackendKind::AdaptivePruned,
            0x5aaae99440ef3d01,
            [
                &[17, 3, 3, 3, 3, 3],
                &[17, 3, 3, 3, 3, 3],
                &[17, 3, 3, 3, 3, 3],
                &[17, 3, 3, 3, 3, 3],
            ],
            &[776208, 776208, 776208, 776208],
            (&[17, 14, 14, 12, 12, 12], 1786560, false),
        ),
        golden(
            BackendKind::StaticPruned,
            0x95b9aa739d4c6d6e,
            [
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
            ],
            &[1521600, 1521600, 1521600, 1521600],
            (&[17, 13, 13, 9, 9, 9], 1521600, true),
        ),
        golden(
            BackendKind::ClsAttn,
            0x34c28959adac4c0,
            [
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
            ],
            &[1596768, 1596768, 1596768, 1596768],
            (&[17, 13, 13, 9, 9, 9], 1596768, true),
        ),
        golden(
            BackendKind::TokenMerge,
            0xb51292033390444e,
            [
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
                &[17, 13, 13, 9, 9, 9],
            ],
            &[1600608, 1600608, 1600608, 1600608],
            (&[17, 13, 13, 9, 9, 9], 1600608, true),
        ),
        golden(
            BackendKind::TopK,
            0x2539b383e06a1a34,
            [
                &[17, 17, 13, 13, 8, 8],
                &[17, 17, 13, 13, 8, 8],
                &[17, 17, 13, 13, 8, 8],
                &[17, 17, 13, 13, 8, 8],
            ],
            &[1794624, 1794624, 1794624, 1794624],
            (&[17, 17, 13, 13, 8, 8], 1794624, true),
        ),
        golden(
            BackendKind::Int8Dense,
            0xbd448312b512611,
            [
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
                &[17, 17, 17, 17, 17, 17],
            ],
            &[1154931, 1154931, 1154931, 1154931],
            (&[17, 17, 17, 17, 17, 17], 1154931, true),
        ),
        golden(
            BackendKind::Int8Adaptive,
            0x410db81b19739a36,
            [
                &[17, 17, 12, 12, 12, 12],
                &[17, 17, 12, 12, 11, 11],
                &[17, 17, 15, 15, 15, 15],
                &[17, 17, 15, 15, 13, 13],
            ],
            &[931604, 909878, 1064387, 1019924],
            (&[17, 17, 14, 14, 12, 12], 975663, false),
        ),
    ]
}

#[test]
fn every_backend_kind_reproduces_its_pinned_outputs() {
    let expected = expected();
    for kind in BackendKind::ALL {
        let got = observe(kind);
        let want = expected.iter().find(|g| g.kind == kind);
        assert_eq!(Some(&got), want, "{kind} moved");
    }
}

/// Serve admission predicts service time from `cost_profile()`; for an
/// exact profile that prediction must describe the work inference really
/// does. Only the input-dependent schedules may be inexact.
#[test]
fn exact_cost_profiles_equal_executed_work() {
    let images = synthetic_batch(4, IMAGE_SEED);
    for kind in BackendKind::ALL {
        let engine = Engine::builder(build_backend(kind)).build();
        let profile = engine.model().cost_profile();
        let input_dependent = matches!(
            kind,
            BackendKind::AdaptivePruned | BackendKind::Int8Adaptive
        );
        assert_eq!(profile.exact, !input_dependent, "{kind} exactness");
        if !profile.exact {
            continue;
        }
        let out = engine.infer_batch(&images);
        for (tokens, &macs) in out.tokens_per_block.iter().zip(&out.macs) {
            assert_eq!(tokens, &profile.tokens_per_block, "{kind} tokens");
            assert_eq!(macs, profile.macs, "{kind} macs");
        }
    }
}
