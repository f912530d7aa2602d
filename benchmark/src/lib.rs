#![forbid(unsafe_code)]
//! # decima-benchmark
//!
//! The repo benchmark: seven named workloads over the Decima
//! reproduction, end-to-end metrics measured with tracing off, and
//! per-layer metrics from a traced run. `README.md` says what each
//! workload and metric is for; `../BENCHMARK.json` is the contract the
//! driver reads, and gates on five of the seven.
//!
//! Everything here reaches the program through its public API only: no
//! crate under `../crates` changes for the benchmark to exist.

#![warn(missing_docs)]

pub mod host;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
