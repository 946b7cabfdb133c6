//! # moe-tensor
//!
//! Dense and quantized tensor kernels underpinning the MoE-Inference-Bench
//! functional executor (`moe-engine`).
//!
//! This crate deliberately implements a *small* surface: row-major 2-D
//! matrices over `f32`, the handful of kernels a decoder-only transformer
//! needs (GEMM, softmax, RMSNorm, SiLU/GeLU, RoPE, top-k selection),
//! and the reduced-precision weight formats the paper's quantization study
//! exercises (FP16, BF16, FP8-E4M3, block-wise INT8/INT4).
//!
//! Design points:
//!
//! * **Determinism** — every random initializer takes an explicit seed and
//!   uses a counter-based ChaCha stream ([`rng`]), so functional experiments
//!   are bit-reproducible across thread counts.
//! * **Bit-exact kernels** — the GEMMs vectorize across independent
//!   outputs and keep each output's ascending-`k` accumulation order, so
//!   any blocking gives the same bits as the naive loop (see [`matrix`]).
//!   They run on the calling thread: the matrices the down-scaled models
//!   multiply are too small to repay a fork.
//! * **No `unsafe`** — the kernels stay within safe Rust; performance on the
//!   down-scaled models is more than sufficient and data-race freedom is
//!   guaranteed by construction.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod topk;

pub use matrix::Matrix;
pub use quant::{Precision, QuantizedMatrix};
pub use topk::{top_k, top_k_softmax, TopK};
