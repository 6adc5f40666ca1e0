//! # zeus-apfg
//!
//! The Adaptive Proxy Feature Generator (APFG) and the proxy models of the
//! baselines.
//!
//! In the paper (§3), the APFG is an R3D-18 network fine-tuned from
//! Kinetics-400 weights that, for a segment extracted under a
//! `(resolution, segment length, sampling rate)` configuration, produces
//! (a) a **ProxyFeature** — the penultimate-layer embedding — and (b) a
//! binary ACTION / NO-ACTION prediction. The RL agent consumes the feature;
//! the classifier head consumes it too.
//!
//! Training a full R3D-18 is GPU-gated and needs the real corpora, so this
//! crate provides the APFG as [`simulated::SimulatedApfg`], a calibrated
//! behavioural model behind the [`feature::FeatureGenerator`] interface.
//! Its detection process is mechanistic, not a lookup table: a segment is
//! detected only if the sampling pattern actually hits action frames
//! (coarse sampling can *skip* short actions entirely), per-sampled-frame
//! discriminability falls with resolution and with motion aliasing at
//! coarse sampling (scaled by the class's temporal dependence), and false
//! positives rise at low resolution. Per-configuration accuracies (the
//! paper's Tables 2 and 4) then *emerge* from profiling, exactly as the
//! paper computes them ("in a one-time pre-processing step ... on a
//! held-out validation dataset", §4.2).
//!
//! The baselines' proxy models live here too: [`frame_pp::FramePpModel`]
//! (per-frame 2D CNN) and [`segment_pp::SegmentPpFilter`] (lightweight 3D
//! filter cascade), with their characteristic failure modes — frame models
//! cannot see motion direction (temporal dependence), light filters cannot
//! capture scene complexity (§6.2).

#![warn(missing_docs)]
pub mod config;
pub mod feature;
pub mod frame_pp;
pub mod segment_pp;
pub mod simulated;
pub mod traits;

pub use config::Configuration;
pub use feature::{ApfgOutput, FeatureGenerator, FEATURE_DIM};
pub use simulated::{SimParams, SimulatedApfg};
pub use traits::QueryTraits;
