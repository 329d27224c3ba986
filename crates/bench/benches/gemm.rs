//! Dense GEMM vs. pruned-repacked GEMM.
//!
//! The core hardware argument of HeatViT: after token pruning, gathering the
//! surviving rows into a smaller dense matrix keeps the GEMM engine fully
//! utilized (paper Fig. 9). This bench measures the DeiT-T-shaped QKV
//! projection GEMM at the full 197-token count, at a 60%-kept repacked
//! count, and the repack (gather) cost itself — plus the other hot ViT
//! shapes the packed microkernels target: the MLP fc1 expansion
//! (197×192 · 192×576), the per-head attention-score product Q·Kᵀ, and the
//! int8 counterparts of all three, plus two int8-only shapes: fc1 at the
//! DeiT-T width (197×192 · 192×768) and the attention-context product
//! attn·V (197×197 · 197×64, whose k is not a multiple of the VNNI kernel's
//! quad of 4). The README's "Kernel performance" table is produced from
//! these entries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heatvit_bench::token_matrix;
use heatvit_quant::{qmatmul_transb_with, qmatmul_with, QTensor};
use heatvit_tensor::Tensor;

const TOKENS: usize = 197;
const DIM: usize = 192;
/// MLP hidden width of the DeiT-T block (4× expansion).
const HIDDEN: usize = 4 * DIM;
/// The narrower 3× expansion the `192x576` entries are named after.
const HIDDEN_3X: usize = 3 * DIM;
/// Per-head width of the attention-score product (192 / 3 heads).
const HEAD_DIM: usize = 64;

fn kept_indices(frac: f64) -> Vec<usize> {
    let kept = (TOKENS as f64 * frac) as usize;
    (0..kept).map(|i| i * TOKENS / kept).collect()
}

fn bench_dense_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 0);
    let w = token_matrix(DIM, DIM, 1);
    c.bench_function("gemm/dense 197x192 . 192x192", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
}

fn bench_repacked_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 0);
    let w = token_matrix(DIM, DIM, 1);
    let keep = kept_indices(0.6);
    let repacked = x.gather_rows(&keep);
    c.bench_function("gemm/repacked 118x192 . 192x192", |b| {
        b.iter(|| black_box(&repacked).matmul(black_box(&w)))
    });
    c.bench_function("gemm/repack gather 197->118 rows", |b| {
        let mut out = Tensor::default();
        b.iter(|| {
            black_box(&x).gather_rows_into(black_box(&keep), &mut out);
        })
    });
}

fn bench_attention_scores(c: &mut Criterion) {
    let q = token_matrix(TOKENS, HEAD_DIM, 2);
    let k = token_matrix(TOKENS, HEAD_DIM, 3);
    c.bench_function("gemm/attention scores Q.K^T 197x64", |b| {
        b.iter(|| black_box(&q).matmul_transb(black_box(&k)))
    });
}

fn bench_mlp_fc1_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 4);
    let w = token_matrix(DIM, HIDDEN_3X, 5);
    c.bench_function("gemm/mlp fc1 197x192 . 192x576", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
}

fn bench_int8_gemm(c: &mut Criterion) {
    let x = QTensor::quantize(&token_matrix(TOKENS, DIM, 6));
    let w = QTensor::quantize(&token_matrix(DIM, DIM, 7));
    let w_fc1 = QTensor::quantize(&token_matrix(DIM, HIDDEN_3X, 8));
    let q = QTensor::quantize(&token_matrix(TOKENS, HEAD_DIM, 9));
    let k = QTensor::quantize(&token_matrix(TOKENS, HEAD_DIM, 10));
    let w_fc1_deit = QTensor::quantize(&token_matrix(DIM, HIDDEN, 11));
    let attn = QTensor::quantize(&token_matrix(TOKENS, TOKENS, 12));
    let v = QTensor::quantize(&token_matrix(TOKENS, HEAD_DIM, 13));
    let mut pack = Vec::new();
    let mut out = Tensor::default();
    c.bench_function("gemm/int8 dense 197x192 . 192x192", |b| {
        b.iter(|| qmatmul_with(black_box(&x), black_box(&w), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 mlp fc1 197x192 . 192x576", |b| {
        b.iter(|| qmatmul_with(black_box(&x), black_box(&w_fc1), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 attn scores Q.K^T 197x64", |b| {
        b.iter(|| qmatmul_transb_with(black_box(&q), black_box(&k), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 mlp fc1 197x192 . 192x768", |b| {
        b.iter(|| qmatmul_with(black_box(&x), black_box(&w_fc1_deit), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 attn.V 197x197 . 197x64", |b| {
        b.iter(|| qmatmul_with(black_box(&attn), black_box(&v), &mut pack, &mut out))
    });
}

criterion_group!(
    benches,
    bench_dense_gemm,
    bench_repacked_gemm,
    bench_attention_scores,
    bench_mlp_fc1_gemm,
    bench_int8_gemm,
);
criterion_main!(benches);
