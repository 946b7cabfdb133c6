//! Kernel microbenchmarks: GEMM, the projection GEMM at the live model's
//! shapes, quantized GEMV, softmax, top-k routing.

use moe_bench::timing::Runner;
use moe_tensor::ops::softmax_inplace;
use moe_tensor::topk::top_k_softmax;
use moe_tensor::{Matrix, Precision, QuantizedMatrix};
use std::hint::black_box;

fn main() {
    let r = Runner::from_args();

    for &n in &[64usize, 128, 256] {
        let a = Matrix::random(n, n, 1, 1.0);
        let b = Matrix::random(n, n, 2, 1.0);
        r.bench(&format!("matmul/{n}"), || black_box(a.matmul(&b)));
    }

    // `X · Wᵀ` at the shapes `tiny_test_model` runs: rows are a decode
    // batch or prompt, n and k span the attention, expert (96-wide) and
    // lm-head (256-wide) projections.
    for &rows in &[1usize, 4, 16, 64] {
        for &n in &[32usize, 64, 96, 256] {
            for &k in &[64usize, 96] {
                let x = Matrix::random(rows, k, 12, 1.0);
                let w = Matrix::random(n, k, 13, 1.0);
                r.bench(&format!("matmul_transposed/{rows}x{k}x{n}"), || {
                    black_box(x.matmul_transposed(&w, 0.0))
                });
            }
        }
    }

    let w = Matrix::random(1024, 1024, 3, 1.0);
    let x: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
    let x_row = Matrix::from_vec(1, 1024, x.clone());
    r.bench("gemv_precision/f32", || {
        black_box(x_row.matmul_transposed(&w, -0.0))
    });
    for p in [
        Precision::F16,
        Precision::Fp8E4M3,
        Precision::Int8,
        Precision::Int4,
    ] {
        let q = QuantizedMatrix::quantize(&w, p);
        r.bench(&format!("gemv_precision/{}", p.label()), || {
            black_box(q.gemv(&x))
        });
    }

    for &n in &[64usize, 4096] {
        let row: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        r.bench(&format!("softmax/{n}"), || {
            let mut v = row.clone();
            softmax_inplace(&mut v);
            black_box(v)
        });
    }

    for &(e, k) in &[(8usize, 2usize), (64, 8), (128, 8)] {
        let logits: Vec<f32> = (0..e).map(|i| (i as f32 * 0.7).sin()).collect();
        r.bench(&format!("router_topk/{e}experts_top{k}"), || {
            black_box(top_k_softmax(&logits, k))
        });
    }
}
