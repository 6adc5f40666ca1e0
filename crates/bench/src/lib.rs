//! # zeus-bench
//!
//! The reproduction harness: shared experiment drivers used by the
//! `reproduce` binary, which regenerates every table and figure of the
//! paper.

#![warn(missing_docs)]
pub mod experiments;
pub mod harness;
pub mod tables;

pub use harness::{ExperimentContext, MethodOutcome};
