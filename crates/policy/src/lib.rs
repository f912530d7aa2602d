#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-policy
//!
//! Decima's scheduling policy (§5.2): the GNN-backed policy network with
//! its node-scoring, parallelism-limit, and executor-class heads, and the
//! [`DecimaAgent`] that drives the simulator in sampling, greedy, and
//! gradient-replay modes. All of the paper's architecture ablations
//! (Figures 14 and 15a) are construction-time switches.

#![warn(missing_docs)]

pub mod agent;
pub mod infer;
pub mod policy;
pub mod replay;

pub use agent::{ActionChoice, DecimaAgent};
pub use infer::{FastDecision, InferSession};
pub use policy::{
    argmax_logp, sample_from_logp, Candidate, ClassForward, DecimaPolicy, LimitForward,
    ParallelismMode, PolicyConfig, PolicyForward,
};
pub use replay::{ReplayJob, ReplayNode, ReplayObs};
