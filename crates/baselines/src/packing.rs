//! Multi-resource packing baselines: Tetris (§7.1 item 6) and Graphene*
//! (§7.1 item 7, Appendix F).

use crate::common::{schedulable_jobs, schedulable_stages, widest_stage, with_best_fit};
use crate::fair::FairShares;
use decima_core::StageId;
use decima_sim::{Action, Observation, Scheduler};

/// Tetris-style packing (Grandl et al., SIGCOMM 2014): greedily schedule
/// the stage maximizing the dot product of its requested resource vector
/// `⟨cpu=1, mem⟩` with the available resource vector, then grant as much
/// parallelism as the stage's tasks need (App. F).
#[derive(Debug, Default, Clone)]
pub struct TetrisScheduler;

impl Scheduler for TetrisScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let avail_cpu = obs.free_total as f64;
        let avail_mem: f64 = (0..obs.num_classes)
            .map(|c| obs.free_by_class[c] as f64 * obs.class_memory[c])
            .sum();
        let &(job_idx, stage) = obs.schedulable.iter().max_by(|&&(ja, sa), &&(jb, sb)| {
            let score = |j: usize, s: StageId| {
                let n = &obs.jobs[j].nodes[s.index()];
                avail_cpu + avail_mem * n.mem_demand
            };
            score(ja, sa)
                .total_cmp(&score(jb, sb))
                // Deterministic tie-break.
                .then(obs.jobs[jb].id.cmp(&obs.jobs[ja].id))
        })?;
        // Greedy parallelism: enough executors for every waiting task.
        let want =
            obs.jobs[job_idx].alloc + obs.jobs[job_idx].nodes[stage.index()].waiting as usize;
        let action = Action::new(obs.jobs[job_idx].id, stage, want.min(obs.total_executors));
        Some(with_best_fit(obs, job_idx, stage, action))
    }

    fn name(&self) -> &str {
        "tetris"
    }
}

/// Graphene* (Appendix F): detects each job's "troublesome" stages —
/// those with outsized work or memory demand — and suppresses their
/// priority until the whole troublesome group is simultaneously runnable,
/// so they can be co-scheduled; executor shares follow the tuned
/// weighted-fair partition, and packing prefers best-fitting classes.
#[derive(Debug, Clone)]
pub struct GrapheneScheduler {
    /// Stages whose work exceeds this fraction of their job's total work
    /// are troublesome (grid-searched; paper's §4.1 notion of "long work").
    pub work_frac_threshold: f64,
    /// Stages whose memory demand exceeds this are troublesome.
    pub mem_threshold: f64,
    /// Weighted-fair share exponent for parallelism control.
    pub alpha: f64,
}

impl Default for GrapheneScheduler {
    fn default() -> Self {
        GrapheneScheduler {
            work_frac_threshold: 0.3,
            mem_threshold: 0.75,
            alpha: -1.0,
        }
    }
}

impl GrapheneScheduler {
    fn is_troublesome(&self, obs: &Observation, job_idx: usize, stage: usize) -> bool {
        let job = &obs.jobs[job_idx];
        let spec = &job.spec;
        let total = job.profile.total_work.max(1e-9);
        let frac = spec.stages[stage].work() / total;
        frac > self.work_frac_threshold || spec.stages[stage].mem_demand > self.mem_threshold
    }

    /// A troublesome stage may run only once every troublesome stage of
    /// its job is either runnable or already done (group co-scheduling).
    fn group_ready(&self, obs: &Observation, job_idx: usize) -> bool {
        let job = &obs.jobs[job_idx];
        (0..job.nodes.len())
            .filter(|&v| self.is_troublesome(obs, job_idx, v))
            .all(|v| job.nodes[v].runnable || job.nodes[v].completed)
    }
}

impl Scheduler for GrapheneScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let mut shares = FairShares::default();
        let targets = shares.targets(obs, self.alpha);
        // Prefer jobs under their share; fall back to spill-over.
        let job_order: Vec<usize> = {
            let mut under: Vec<usize> = schedulable_jobs(obs)
                .filter(|&j| obs.jobs[j].alloc < targets[j])
                .collect();
            under.sort_by_key(|&j| obs.jobs[j].alloc as i64 - targets[j] as i64);
            if under.is_empty() {
                let mut all: Vec<usize> = schedulable_jobs(obs).collect();
                all.sort_by_key(|&j| obs.jobs[j].alloc);
                all
            } else {
                under
            }
        };
        // First pass honors troublesome-group suppression; the second
        // drops it — grouping is a scheduling *preference* in Graphene,
        // never a reason to leave the cluster idle.
        for suppress in [true, false] {
            for &job_idx in &job_order {
                let group_ready = self.group_ready(obs, job_idx);
                let pick = schedulable_stages(obs, job_idx)
                    .filter(|s| !self.is_troublesome(obs, job_idx, s.index()))
                    .max_by_key(|s| obs.jobs[job_idx].nodes[s.index()].waiting)
                    .or_else(|| {
                        (group_ready || !suppress)
                            .then(|| widest_stage(obs, job_idx))
                            .flatten()
                    });
                if let Some(stage) = pick {
                    let limit = if obs.jobs[job_idx].alloc < targets[job_idx] {
                        targets[job_idx]
                    } else {
                        obs.jobs[job_idx].alloc + obs.free_total
                    };
                    let action = Action::new(obs.jobs[job_idx].id, stage, limit);
                    return Some(with_best_fit(obs, job_idx, stage, action));
                }
            }
        }
        None
    }

    fn name(&self) -> &str {
        "graphene*"
    }
}

/// Grid-searches Graphene*'s hyperparameters (App. F) with the supplied
/// evaluation closure; returns the best configuration and its score.
pub fn tune_graphene(mut eval: impl FnMut(&GrapheneScheduler) -> f64) -> (GrapheneScheduler, f64) {
    let mut best = (GrapheneScheduler::default(), f64::INFINITY);
    for &wf in &[0.2, 0.3, 0.4, 0.5] {
        for &mt in &[0.5, 0.75, 0.9] {
            for &a in &[-1.5, -1.0, -0.5, 0.0] {
                let cand = GrapheneScheduler {
                    work_frac_threshold: wf,
                    mem_threshold: mt,
                    alpha: a,
                };
                let v = eval(&cand);
                if v < best.1 {
                    best = (cand, v);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::ClusterSpec;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::{tpch_batch, with_random_memory};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mem_jobs(n: usize) -> Vec<decima_core::JobSpec> {
        let mut rng = SmallRng::seed_from_u64(5);
        tpch_batch(n, 3)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                with_random_memory(j, &mut rng)
            })
            .collect()
    }

    fn run_multi(sched: impl Scheduler, n: usize) -> decima_sim::EpisodeResult {
        let sim = Simulator::new(
            ClusterSpec::four_class(12).with_move_delay(1.0),
            mem_jobs(n),
            SimConfig::default().with_seed(1),
        );
        sim.run(sched)
    }

    #[test]
    fn tetris_completes_multi_resource_batch() {
        let r = run_multi(TetrisScheduler, 6);
        assert_eq!(r.completed(), 6);
    }

    #[test]
    fn graphene_completes_multi_resource_batch() {
        let r = run_multi(GrapheneScheduler::default(), 6);
        assert_eq!(r.completed(), 6);
    }

    #[test]
    fn graphene_detects_troublesome_stages() {
        let g = GrapheneScheduler::default();
        // Construct an observation via a capture scheduler.
        struct Capture(Option<Observation>, GrapheneScheduler);
        impl decima_sim::Scheduler for Capture {
            fn decide(&mut self, obs: &Observation) -> Option<Action> {
                if self.0.is_none() {
                    self.0 = Some(obs.clone());
                }
                self.1.decide(obs)
            }
        }
        let mut cap = Capture(None, g.clone());
        let _ = Simulator::new(
            ClusterSpec::four_class(12).with_move_delay(1.0),
            mem_jobs(4),
            SimConfig::default().with_seed(1),
        )
        .run(&mut cap);
        let obs = cap.0.unwrap();
        // At least one job must have at least one troublesome stage under
        // the default thresholds (memory demands are uniform on (0,1]).
        let any = (0..obs.jobs.len())
            .any(|j| (0..obs.jobs[j].nodes.len()).any(|v| g.is_troublesome(&obs, j, v)));
        assert!(any);
    }

    #[test]
    fn tune_graphene_explores_grid() {
        let mut calls = 0;
        let (_, best) = tune_graphene(|g| {
            calls += 1;
            // Prefer wf=0.4, mt=0.75, alpha=-0.5 arbitrarily.
            (g.work_frac_threshold - 0.4).abs()
                + (g.mem_threshold - 0.75).abs()
                + (g.alpha + 0.5).abs()
        });
        assert_eq!(calls, 4 * 3 * 4);
        assert!(best < 1e-9);
    }
}
