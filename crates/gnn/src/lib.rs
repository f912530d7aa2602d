#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-gnn
//!
//! The graph neural network of §5.1: per-node embeddings via two-level
//! non-linear message passing (Eq. 1), per-job summaries, and a global
//! summary — plus feature extraction from simulator observations (§6.1)
//! and the Appendix E critical-path expressiveness harness.

#![warn(missing_docs)]

pub mod critical_path;
pub mod encoder;
pub mod features;
pub mod graph;
pub mod infer;

pub use critical_path::{random_cp_example, CpExample, CpHarness};
pub use encoder::{Embeddings, GnnConfig, GnnEncoder};
pub use features::{
    FeatureConfig, GraphCache, DUR_SCALE, FEAT_DIM, GRAPH_CACHE_CAP, TASK_SCALE, WORK_SCALE,
};
pub use graph::{GraphInput, GraphStructure, JobGraph, LevelPlan};
pub use infer::InferEncoder;
