#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-sim
//!
//! Discrete-event simulator of a Spark-like cluster, reproducing the
//! training/evaluation environment of *Learning Scheduling Algorithms for
//! Data Processing Clusters* (Mao et al., SIGCOMM 2019, §6.2).
//!
//! The simulator captures the first-order effects the paper identifies as
//! necessary for fidelity (Appendix D):
//!
//! 1. **First-wave slowdown** — the first task an executor runs on a stage
//!    is slower (pipelined execution, JIT, connection warm-up).
//! 2. **Executor-motion delay** — moving an executor between jobs costs a
//!    JVM teardown/launch (~2.5 s by default).
//! 3. **Parallelism-dependent work inflation** — per-task durations grow
//!    with a job's degree of parallelism.
//!
//! All three are switchable; disabling them yields the simplified
//! environment of Appendix H. The multi-resource setting of §7.3 is
//! modeled with discrete executor classes (memory capacities) and
//! per-stage memory demands.
//!
//! Beyond the paper's fault-free setting, the [`dynamics`] module adds a
//! deterministic, seeded cluster-dynamics model — executor churn,
//! bounded-retry task failures, straggler slowdowns — that is bit-exactly
//! zero-cost when disabled (the default).
//!
//! This crate is CPU-bound, synchronous, and deterministic under a fixed
//! seed — following the networking-guide guidance, parallelism (for RL
//! rollouts) is layered on top with plain threads in `decima-rl`, not an
//! async runtime.

#![warn(missing_docs)]

pub mod config;
pub mod drift;
pub mod dynamics;
pub mod engine;
pub mod result;
pub mod sched;

pub use config::{Objective, SimConfig};
pub use drift::DriftCounters;
pub use dynamics::{DynamicsCounters, DynamicsSpec, Knob};
pub use engine::{obs_equal, Pending, Simulator};
pub use result::{DecisionTally, EpisodeOutcome, EpisodeResult, JobOutcome, MemCounters};
pub use sched::{
    Action, JobObs, JobProfile, LimitScope, NodeObs, Observation, SchedulableGroups, Scheduler,
};
