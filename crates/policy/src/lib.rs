#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-policy
//!
//! Decima's scheduling policy (§5.2): the GNN-backed policy network with
//! its node-scoring, parallelism-limit, and executor-class heads, and the
//! [`DecimaAgent`] that drives the simulator, greedy or sampling, and the
//! [`GradientPass`] that re-scores its recorded decisions (§5.3). All of
//! the paper's architecture ablations (Figures 14 and 15a) are
//! construction-time switches.

#![warn(missing_docs)]

pub mod agent;
pub mod infer;
pub mod policy;
pub mod replay;

pub use agent::{ActionChoice, DecimaAgent, GradientPass};
pub use infer::{FastDecision, InferSession};
pub use policy::{
    Candidate, ClassForward, DecimaPolicy, LimitForward, ParallelismMode, PolicyConfig,
    PolicyForward,
};
pub use replay::{ReplayJob, ReplayNode, ReplayObs};
