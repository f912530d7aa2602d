//! FIFO and SJF-CP baselines (§7.1 items 1–2), plus a uniformly-random
//! scheduler used as a training sanity floor.

use crate::common::with_best_fit;
use decima_sim::{Action, Observation, Scheduler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Spark's default FIFO scheduling: runs jobs in arrival order and grants
/// each job as many executors as it asks for (we model the request as
/// "all of them", matching a user who doesn't tune `--num-executors`).
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        // Jobs are id-ordered by arrival in our workloads; pick the oldest
        // job that still has a schedulable stage, then its first stage in
        // DAG order (Spark enqueues stages as they become available).
        let (job_idx, stage) = obs
            .schedulable
            .iter()
            .min_by_key(|&&(j, s)| (obs.jobs[j].id, s))
            .copied()?;
        let action = Action::new(obs.jobs[job_idx].id, stage, obs.total_executors);
        Some(with_best_fit(obs, job_idx, stage, action))
    }

    fn name(&self) -> &str {
        "fifo"
    }
}

/// Shortest-job-first critical-path scheduling: strictly prioritizes the
/// job with the least total work and runs the stage on its critical path
/// (§7.1 item 2).
#[derive(Debug, Default, Clone)]
pub struct SjfCpScheduler;

impl Scheduler for SjfCpScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        // One pass over the per-job groups of `schedulable`: the first
        // job of least total work among those with something to run
        // (`min_by`'s tie rule) and, within it, the last stage of
        // greatest critical path (`max_by`'s). One loop with the
        // comparisons spelled out, because a nested scan per group
        // measured an eighth slower (docs/PERF.md "The heuristic lane").
        let &(mut job_idx, mut stage) = obs.schedulable.first()?;
        let mut least = obs.jobs[job_idx].profile.total_work;
        let mut longest = f64::NEG_INFINITY;
        for &(j, s) in &obs.schedulable {
            let profile = &obs.jobs[j].profile;
            let path = profile.critical_path[s.index()];
            if j == job_idx {
                if path.total_cmp(&longest).is_ge() {
                    (stage, longest) = (s, path);
                }
            } else if profile.total_work.total_cmp(&least).is_lt() {
                (job_idx, least, stage, longest) = (j, profile.total_work, s, path);
            }
        }
        let action = Action::new(obs.jobs[job_idx].id, stage, obs.total_executors);
        Some(with_best_fit(obs, job_idx, stage, action))
    }

    fn name(&self) -> &str {
        "sjf-cp"
    }
}

/// Picks uniformly among schedulable stages with a random parallelism
/// limit: the floor any learned policy must clear.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// Seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let &(job_idx, stage) = obs
            .schedulable
            .get(self.rng.gen_range(0..obs.schedulable.len()))?;
        let limit = self.rng.gen_range(
            obs.jobs[job_idx].alloc.min(obs.total_executors - 1) + 1..=obs.total_executors,
        );
        let action = Action::new(obs.jobs[job_idx].id, stage, limit);
        Some(with_best_fit(obs, job_idx, stage, action))
    }

    fn name(&self) -> &str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::ClusterSpec;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;

    fn small_jobs(n: usize) -> Vec<decima_core::JobSpec> {
        tpch_batch(n, 3)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect()
    }

    fn run(sched: impl Scheduler, n: usize) -> decima_sim::EpisodeResult {
        let sim = Simulator::new(
            ClusterSpec::homogeneous(10).with_move_delay(1.0),
            small_jobs(n),
            SimConfig::default().with_seed(1),
        );
        sim.run(sched)
    }

    #[test]
    fn fifo_completes_all_jobs() {
        let r = run(FifoScheduler, 5);
        assert_eq!(r.completed(), 5);
        assert_eq!(r.wasted_actions, 0);
    }

    #[test]
    fn sjf_completes_all_jobs() {
        let r = run(SjfCpScheduler, 5);
        assert_eq!(r.completed(), 5);
    }

    #[test]
    fn random_completes_all_jobs() {
        let r = run(RandomScheduler::new(0), 5);
        assert_eq!(r.completed(), 5);
    }

    #[test]
    fn sjf_beats_fifo_on_heavy_tailed_batch() {
        // With heavy-tailed job sizes, strictly prioritizing short jobs
        // must improve average JCT over arrival order (the paper's §2.3
        // illustration shows 1.6×).
        let fifo = run(FifoScheduler, 10).avg_jct().unwrap();
        let sjf = run(SjfCpScheduler, 10).avg_jct().unwrap();
        assert!(
            sjf < fifo,
            "SJF-CP ({sjf:.1}s) should beat FIFO ({fifo:.1}s)"
        );
    }
}
