#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Support library for the workspace's integration tests and examples.
//!
//! The real code lives in the `decima-*` crates under `crates/`; this
//! package exists to own the top-level `tests/` and `examples/`
//! directories and hosts small shared helpers for them.

pub use decima;

#[cfg(contract_canary)]
pub mod contract_canary;

/// Scales every stage's task count down by `factor` (minimum one task),
/// so integration tests and smoke tests run in milliseconds while
/// keeping each job's DAG shape.
pub fn shrink_jobs(jobs: Vec<decima::core::JobSpec>, factor: u32) -> Vec<decima::core::JobSpec> {
    jobs.into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / factor).max(1);
            }
            j
        })
        .collect()
}
