#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-bench
//!
//! The experiment layer of the reproduction, built around a declarative
//! scenario API:
//!
//! * [`scenario`] — [`ScenarioSpec`](scenario::ScenarioSpec): a
//!   serializable description of one experiment (workload, simulator
//!   knobs, seed plan, scheduler lineup, training recipes), built with
//!   the fluent [`ScenarioBuilder`](scenario::ScenarioBuilder).
//! * [`factory`] — string name / spec → boxed scheduler, covering all
//!   seven baselines plus trained/untrained Decima.
//! * [`model`] — how a policy comes to exist: the one training driver
//!   and the one lineup resolver (train, load, fine-tune, save) behind
//!   every scenario, and the `train` scenario itself.
//! * [`registry`] — every paper artifact (`fig02` … `table3`) registers
//!   its spec in the [`ScenarioRegistry`].
//! * [`runner`] — one unified runner that lists, runs, and sweeps any
//!   registered scenario: the one seed-parallel episode loop, the one
//!   lineup resolver-and-tuner, and the only code that writes `out/`.
//! * [`report`] / [`json`] — series, CSV tables and the structured
//!   `out/<scenario>.json` result document, as data.
//!
//! The `decima-exp` binary is the front door
//! (`cargo run -p decima-bench --bin decima-exp -- --list`): every paper
//! artifact runs as `decima-exp --scenario <name>`. Throughput and
//! memory are measured by the separate `benchmark/` package.

pub mod cli;
pub mod factory;
pub mod fleet;
pub mod json;
pub mod model;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenarios;

pub use cli::exp_main;
pub use factory::{build_trainer, make_scheduler, scheduler_spec_by_name, TrainedPolicy};
pub use registry::ScenarioRegistry;
pub use runner::{par_map, run_scenario, try_run_scenario, RunOptions, Scenario};

use decima_core::{ClusterSpec, JobSpec};
use decima_sim::{EpisodeResult, Scheduler, SimConfig, Simulator};

/// Runs one scheduler over one episode.
pub fn run_episode(
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    cfg: &SimConfig,
    sched: impl Scheduler,
) -> EpisodeResult {
    Simulator::new(cluster.clone(), jobs.to_vec(), cfg.clone()).run(sched)
}

/// Minimal `--flag value` argument parser: `Args::new().value("scenario")`.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn new() -> Self {
        Args::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit argument vector (tests, embedding).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The raw string value after `--name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// True when `--name` is present (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }

    /// All `--set key=value` overrides, in order of appearance.
    pub fn sets(&self) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.raw.len() {
            if self.raw[i] == "--set" {
                let kv = self
                    .raw
                    .get(i + 1)
                    .ok_or_else(|| "--set needs a key=value argument".to_string())?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set '{kv}' is not of the form key=value"))?;
                out.push((k.to_string(), v.to_string()));
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(out)
    }

    /// The first argument that is neither one of the `valued` flags
    /// (with the value that follows it) nor one of the `bare` flags.
    pub fn first_unknown(&self, valued: &[&str], bare: &[&str]) -> Option<&str> {
        let mut i = 0;
        while let Some(arg) = self.raw.get(i) {
            match arg.strip_prefix("--") {
                Some(key) if valued.contains(&key) => i += 2,
                Some(key) if bare.contains(&key) => i += 1,
                _ => return Some(arg),
            }
        }
        None
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SeriesReport;
    use decima_baselines::FifoScheduler;
    use decima_workload::tpch_batch;

    #[test]
    fn run_episode_and_series() {
        let jobs: Vec<JobSpec> = tpch_batch(3, 1)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect();
        let cluster = ClusterSpec::homogeneous(5).with_move_delay(1.0);
        let r = run_episode(&cluster, &jobs, &SimConfig::default(), FifoScheduler);
        assert_eq!(r.completed(), 3);
        let s = SeriesReport::of("fifo", "fifo", std::slice::from_ref(&r));
        assert_eq!(s.avg_jcts, [r.avg_jct().unwrap()]);
        assert!(s.summary().mean > 0.0);
    }
}
