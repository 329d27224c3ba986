//! Per-layer timing of the int8 pipeline at one block's shapes, on
//! `QLinear::from_linear` weights of the backbone's first block.

use heatvit_quant::approx::{
    gelu_approx_inplace, softmax_approx_rows_inplace, DEFAULT_DELTA1, DEFAULT_DELTA2,
};
use heatvit_quant::{qmatmul_transb_with, qmatmul_with, QLinear, QTensor, QuantParams};
use heatvit_tensor::Tensor;
use heatvit_vit::flops::BlockLayer;
use heatvit_vit::VisionTransformer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Int8 ledger rows, in report order.
pub const ROWS: [&str; 9] = [
    "qkv",
    "qk",
    "av",
    "proj",
    "fc1",
    "fc2",
    "softmax_approx",
    "gelu_approx",
    "quantize",
];

/// Per-image int8 layer times (one block's time × depth) and MACs.
#[derive(Debug, Clone)]
pub struct QuantLedger {
    /// Microseconds per image, indexed like [`ROWS`].
    pub us: [f64; ROWS.len()],
    /// MACs per image of the six GEMM rows (zero for the others).
    pub macs: [u64; ROWS.len()],
}

/// Times the int8 block pipeline at `tokens` tokens for at least `budget`
/// (and at least three repetitions), reporting the median repetition.
pub fn measure(backbone: &VisionTransformer, tokens: usize, budget: Duration) -> QuantLedger {
    let config = backbone.config();
    let block = &backbone.blocks()[0];
    let attn = block.attention();
    let ffn = block.ffn();
    let wq = QLinear::from_linear(attn.wq());
    let wk = QLinear::from_linear(attn.wk());
    let wv = QLinear::from_linear(attn.wv());
    let proj = QLinear::from_linear(attn.proj());
    let fc1 = QLinear::from_linear(ffn.fc1());
    let fc2 = QLinear::from_linear(ffn.fc2());
    let (heads, head_dim) = (attn.num_heads(), attn.head_dim());
    let mut rng = StdRng::seed_from_u64(0x0917);
    let x = Tensor::rand_normal(&[tokens, config.embed_dim], 0.0, 1.0, &mut rng);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let attn_params = QuantParams::from_abs_max(DEFAULT_DELTA2);

    let (mut qbuf, mut qa, mut qb) = (QTensor::default(), QTensor::default(), QTensor::default());
    let mut pack = Vec::new();
    let (mut q, mut k, mut v) = (Tensor::default(), Tensor::default(), Tensor::default());
    let (mut scores, mut head_out, mut out) =
        (Tensor::default(), Tensor::default(), Tensor::default());
    let mut hidden = Tensor::default();
    let mut heads_cat = Tensor::zeros(&[tokens, config.embed_dim]);

    let mut samples: Vec<[f64; ROWS.len()]> = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < budget {
        let mut t = [0.0f64; ROWS.len()];
        let mut time = |row: usize, f: &mut dyn FnMut()| {
            let s = Instant::now();
            f();
            t[row] += s.elapsed().as_secs_f64() * 1e6;
        };
        time(0, &mut || {
            wq.infer_with(&x, &mut qbuf, &mut pack, &mut q);
            wk.infer_with(&x, &mut qbuf, &mut pack, &mut k);
            wv.infer_with(&x, &mut qbuf, &mut pack, &mut v);
        });
        for h in 0..heads {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let (qh, kh, vh) = (
                q.slice_cols(lo, hi),
                k.slice_cols(lo, hi),
                v.slice_cols(lo, hi),
            );
            time(8, &mut || {
                QTensor::quantize_with_into(&qh, QuantParams::observe(&qh), &mut qa);
                QTensor::quantize_with_into(&kh, QuantParams::observe(&kh), &mut qb);
            });
            time(1, &mut || {
                qmatmul_transb_with(&qa, &qb, &mut pack, &mut scores);
            });
            for s in scores.data_mut() {
                *s *= scale;
            }
            time(6, &mut || {
                softmax_approx_rows_inplace(&mut scores, DEFAULT_DELTA2)
            });
            time(8, &mut || {
                QTensor::quantize_with_into(&scores, attn_params, &mut qa);
                QTensor::quantize_with_into(&vh, QuantParams::observe(&vh), &mut qb);
            });
            time(2, &mut || qmatmul_with(&qa, &qb, &mut pack, &mut head_out));
            for r in 0..tokens {
                heads_cat.row_mut(r)[lo..hi].copy_from_slice(head_out.row(r));
            }
        }
        time(3, &mut || {
            proj.infer_with(&heads_cat, &mut qbuf, &mut pack, &mut out)
        });
        time(4, &mut || {
            fc1.infer_with(&x, &mut qbuf, &mut pack, &mut hidden)
        });
        time(7, &mut || gelu_approx_inplace(&mut hidden, DEFAULT_DELTA1));
        time(5, &mut || {
            fc2.infer_with(&hidden, &mut qbuf, &mut pack, &mut out)
        });
        assert!(
            !out.has_non_finite(),
            "int8 ledger produced non-finite values"
        );
        samples.push(t);
    }
    let depth = config.depth as f64;
    let mut us = [0.0f64; ROWS.len()];
    for (row, slot) in us.iter_mut().enumerate() {
        let column: Vec<f64> = samples.iter().map(|s| s[row]).collect();
        *slot = crate::stats::median(&column) * depth;
    }
    let mut macs = [0u64; ROWS.len()];
    for (row, layer) in BlockLayer::ALL.iter().enumerate() {
        macs[row] = layer.gemm_shape(config, tokens).macs() * config.depth as u64;
    }
    QuantLedger { us, macs }
}
