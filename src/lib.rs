#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima
//!
//! Facade for the Rust reproduction of *Learning Scheduling Algorithms
//! for Data Processing Clusters* (Mao et al., SIGCOMM 2019): one
//! `use decima::...` path to the entire system, with each subsystem
//! re-exported under a short module name. This package also owns the
//! repository's cross-crate `tests/` and runnable `examples/`.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `decima-core` | ids, time, DAGs, jobs, clusters, metrics |
//! | [`sim`] | `decima-sim` | discrete-event Spark-like cluster simulator |
//! | [`workload`] | `decima-workload` | TPC-H-like / Alibaba-like job generators |
//! | [`gnn`] | `decima-gnn` | graph neural network encoder + features (§5.1) |
//! | [`nn`] | `decima-nn` | tensors, tape autodiff, MLPs, Adam |
//! | [`policy`] | `decima-policy` | policy network + scheduling agent (§5.2) |
//! | [`rl`] | `decima-rl` | REINFORCE trainer with variance reduction (§5.3) |
//! | [`baselines`] | `decima-baselines` | heuristic schedulers of §7.1 |
//!
//! See the repository's `README.md` for a quickstart and
//! `docs/ARCHITECTURE.md` for the end-to-end dataflow.

#![warn(missing_docs)]

pub use decima_baselines as baselines;
pub use decima_core as core;
pub use decima_gnn as gnn;
pub use decima_nn as nn;
pub use decima_policy as policy;
pub use decima_rl as rl;
pub use decima_sim as sim;
pub use decima_workload as workload;

#[cfg(contract_canary)]
pub mod contract_canary;
