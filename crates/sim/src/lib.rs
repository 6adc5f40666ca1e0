//! # zeus-sim
//!
//! Simulated device clocks and cost models for the Zeus reproduction.
//!
//! The paper evaluates on an NVIDIA GeForce RTX 2080 Ti with 16 CPU cores
//! (§6.1). We do not have that testbed (or any GPU), so every throughput
//! number in this repository is produced by a *simulated clock* driven by a
//! latency model **calibrated to the paper's own published measurements**:
//!
//! * Table 2 lists four (configuration → throughput) pairs for the R3D
//!   APFG. Fitting `t_inv(l, r) = A + K · l · r²` to those four points by
//!   least squares gives `A = 19.37 ms` and `K = 60.68 ns/(frame·px)`;
//!   the fit reproduces all four paper throughputs within 0.5%
//!   (see `tests` in [`cost`]). The affine form matches the physics:
//!   a fixed kernel-launch/readout overhead plus compute proportional to
//!   voxels processed.
//! * §6.2 states each Frame-PP (2D CNN) invocation is 5.9× faster than an
//!   R3D invocation.
//!
//! Because all methods share one latency model, every *ratio* the paper
//! reports (speedups, crossovers) is preserved even if one disagrees with
//! the absolute constants.

#![warn(missing_docs)]
pub mod clock;
pub mod cost;

pub use clock::{SimClock, SimDuration};
pub use cost::CostModel;
