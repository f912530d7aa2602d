#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-rl
//!
//! Reinforcement-learning infrastructure for Decima (§5.3, Appendices B
//! and C), organized as a trajectory-based actor/learner architecture
//! (parallel batches run on `decima_core::par::ordered_map`):
//!
//! * [`trajectory`] — the self-contained per-rollout record
//!   (per-decision observations, action choices, rewards, entropy);
//! * [`learner`] — differential rewards, input-dependent time-aligned
//!   baselines, and gradient accumulation **directly from stored
//!   trajectories** (no second simulation per rollout);
//! * [`trainer`] — the REINFORCE coordinator: curriculum via memoryless
//!   episode termination, entropy regularization, Adam;
//! * [`checkpoint`] — versioned serialization of the full training
//!   state (parameters, Adam moments, RNG, curriculum, history), so
//!   training resumes bit-exactly and trained policies persist as
//!   reusable artifacts.

#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod env;
pub mod learner;
#[doc(hidden)]
pub mod test_support;
pub mod trainer;
pub mod trajectory;

pub use baseline::{returns_to_go, time_aligned_baselines, MovingAvg, ReturnSeries};
pub use checkpoint::{iter_stats_record, WorkloadEcho, CHECKPOINT_HEADER, CHECKPOINT_VERSION};
pub use env::{EnvFactory, SpecEnv, SIM_SEED_SALT};
pub use trainer::{Curriculum, IterStats, TrainConfig, Trainer};
pub use trajectory::Trajectory;
