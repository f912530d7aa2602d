#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-core
//!
//! Core data model for the Rust reproduction of *Learning Scheduling
//! Algorithms for Data Processing Clusters* (Mao et al., SIGCOMM 2019):
//! strongly-typed identifiers, simulation time, validated DAG topologies,
//! job/stage specifications, cluster (executor-class) specifications,
//! Gantt-chart recording, summary statistics, and the workspace's one
//! thread-starting primitive ([`par::ordered_map`]).
//!
//! This crate is dependency-light and deterministic; all stochastic
//! behaviour lives in `decima-workload` (generation) and `decima-sim`
//! (execution noise).

#![warn(missing_docs)]

pub mod cluster;
pub mod dag;
pub mod gantt;
pub mod ids;
pub mod job;
pub mod metrics;
pub mod par;
pub mod time;

pub use cluster::{ClusterSpec, ExecutorClass};
pub use dag::{DagError, DagTopology};
pub use gantt::{Gantt, Segment};
pub use ids::{ClassId, ExecutorId, JobId, NodeRef, StageId};
pub use job::{InflationCurve, JobBuilder, JobSpec, JobSpecError, StageSpec};
pub use metrics::{percentile, percentile_sorted, Summary};
pub use time::SimTime;
