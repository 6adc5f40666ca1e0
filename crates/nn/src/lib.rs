//! # zeus-nn
//!
//! A minimal, dependency-light neural-network substrate for the Zeus
//! reproduction. The Zeus paper (SIGMOD 2022) builds on PyTorch for two
//! models: the R3D action-recognition network that backs the Adaptive Proxy
//! Feature Generator (APFG, §3/§5) and the 3-layer MLP Q-network of the DQN
//! agent (§4.3/§5). Here the APFG is a calibrated simulation (`zeus-apfg`),
//! so this crate provides what the Q-network needs, implemented from
//! scratch:
//!
//! * [`tensor::Tensor`] — row-major `f32` n-dimensional arrays with the
//!   small set of ops the models use (matmul, elementwise, reductions).
//!   Every dense product runs through one tiled GEMM kernel with runtime
//!   AVX-512F / AVX2 dispatch (see [`tensor`]).
//! * [`linear::Linear`], [`activation::Activation`], [`mlp::Mlp`] — dense
//!   layers with manual backprop, composed into the Q-network. Layers read
//!   their weights in place, activations run in place, and the buffers a
//!   training step caches are reused from call to call.
//! * [`loss`] — Huber (the DQN loss of Algorithm 1) and MSE.
//! * [`optim`] — SGD with momentum and Adam.
//! * [`init`] — He initialisation with explicit, seedable RNGs.
//! * [`serialize`] — flat weight checkpointing.
//!
//! Determinism is a design requirement: every random operation takes an
//! explicit RNG so the benchmark harness can regenerate the paper's tables
//! bit-for-bit. The GEMM kernel keeps the summation order of the plain
//! triple loop and never fuses a multiply with an add, so a trained policy
//! has the same bits with AVX-512F, with AVX2 or with neither. Each output
//! row depends only on its input row, so a row computed in one batch has
//! the bits it would have in any other.

#![warn(missing_docs)]
pub mod activation;
pub mod init;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod tensor;

pub use activation::Activation;
pub use linear::Linear;
pub use mlp::{Mlp, RowScratch};
pub use param::Param;
pub use tensor::Tensor;
