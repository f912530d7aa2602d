//! Appendix H: exhaustive search over job orderings.
//!
//! In the simplified environment (no waves, no inflation, free executor
//! motion) job ordering dominates average JCT, so searching all `n!`
//! orderings — each executed with critical-path stage order — yields a
//! near-optimal reference schedule. [`OrderScheduler`] follows one fixed
//! ordering; [`exhaustive_search`] enumerates (or samples, above the
//! factorial budget) orderings and returns the best.

use crate::common::{critical_path_stage, has_schedulable};
use decima_core::{ClusterSpec, JobId, JobSpec};
use decima_sim::{Action, EpisodeResult, JobProfile, Observation, Scheduler, SimConfig, Simulator};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Follows a fixed job priority order: all executors go to the earliest
/// unfinished job in `order` that can use them, scheduling its
/// critical-path stage first.
#[derive(Debug, Clone)]
pub struct OrderScheduler {
    order: Vec<JobId>,
}

impl OrderScheduler {
    /// Builds a scheduler following the given order.
    pub fn new(order: Vec<JobId>) -> Self {
        OrderScheduler { order }
    }
}

impl Scheduler for OrderScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        for &id in &self.order {
            if let Some(job_idx) = obs.jobs.iter().position(|j| j.id == id) {
                if has_schedulable(obs, job_idx) {
                    let stage = critical_path_stage(obs, job_idx)?;
                    return Some(Action::new(id, stage, obs.total_executors));
                }
            }
        }
        None
    }

    fn name(&self) -> &str {
        "order"
    }
}

/// Result of the exhaustive ordering search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best ordering found.
    pub order: Vec<JobId>,
    /// Its average JCT.
    pub avg_jct: f64,
    /// Orderings evaluated.
    pub evaluated: usize,
    /// Whether the search was exhaustive (vs. sampled).
    pub exhaustive: bool,
}

/// Heap's algorithm: all permutations of `items`, visiting each exactly
/// once via the callback. Returns early when the callback returns `false`.
fn permutations<T: Clone>(items: &mut [T], visit: &mut impl FnMut(&[T]) -> bool) -> bool {
    fn heap<T: Clone>(k: usize, items: &mut [T], visit: &mut impl FnMut(&[T]) -> bool) -> bool {
        if k <= 1 {
            return visit(items);
        }
        for i in 0..k {
            if !heap(k - 1, items, visit) {
                return false;
            }
            if k % 2 == 0 {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
        true
    }
    heap(items.len(), items, visit)
}

/// Searches job orderings for the lowest average JCT, running each
/// ordering through the simulator. Orderings beyond `max_orderings` are
/// randomly sampled instead of enumerated (the paper evaluates 10 jobs =
/// 3.6 M orderings on a cluster; we default benches to a sampled budget
/// and record the setting in EXPERIMENTS.md).
pub fn exhaustive_search(
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    cfg: &SimConfig,
    max_orderings: usize,
) -> SearchResult {
    let ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
    let n = ids.len();
    let factorial: Option<usize> = (1..=n).try_fold(1usize, |a, b| a.checked_mul(b));
    let run_order = |order: &[JobId]| -> f64 {
        let sim = Simulator::new(cluster.clone(), jobs.to_vec(), cfg.clone());
        let r: EpisodeResult = sim.run(OrderScheduler::new(order.to_vec()));
        r.avg_jct().unwrap_or(f64::INFINITY)
    };

    let mut best_order = ids.clone();
    let mut best_jct = f64::INFINITY;
    let mut evaluated = 0usize;

    let exhaustive = matches!(factorial, Some(f) if f <= max_orderings);
    if exhaustive {
        let mut perm = ids.clone();
        permutations(&mut perm, &mut |order: &[JobId]| {
            let jct = run_order(order);
            evaluated += 1;
            if jct < best_jct {
                best_jct = jct;
                best_order = order.to_vec();
            }
            true
        });
    } else {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5ee0);
        // Seed the sample with informed orderings: by total work (SJF-ish)
        // and by critical path, then random shuffles.
        let profiles: Vec<JobProfile> = jobs.iter().map(JobProfile::of).collect();
        let mut by_work = ids.clone();
        by_work.sort_by(|a, b| {
            profiles[a.index()]
                .total_work
                .total_cmp(&profiles[b.index()].total_work)
        });
        let mut by_cp = ids.clone();
        by_cp.sort_by(|a, b| {
            profiles[a.index()]
                .critical_path_len()
                .total_cmp(&profiles[b.index()].critical_path_len())
        });
        let mut candidates = vec![ids.clone(), by_work, by_cp];
        while candidates.len() < max_orderings {
            let mut o = ids.clone();
            o.shuffle(&mut rng);
            candidates.push(o);
        }
        for order in candidates {
            let jct = run_order(&order);
            evaluated += 1;
            if jct < best_jct {
                best_jct = jct;
                best_order = order;
            }
        }
    }

    SearchResult {
        order: best_order,
        avg_jct: best_jct,
        evaluated,
        exhaustive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::{JobBuilder, SimTime, StageSpec};

    fn job(id: u32, tasks: u32, dur: f64) -> JobSpec {
        let mut b = JobBuilder::new(JobId(id));
        b.stage(StageSpec::simple(tasks, dur));
        b.arrival(SimTime::ZERO).build().unwrap()
    }

    #[test]
    fn permutations_visits_factorial() {
        let mut count = 0;
        let mut v = vec![1, 2, 3, 4];
        permutations(&mut v, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 24);
    }

    #[test]
    fn search_finds_sjf_on_simple_instance() {
        // Three single-stage jobs of very different sizes on 2 executors:
        // the optimal order is smallest-first.
        let jobs = vec![job(0, 16, 1.0), job(1, 2, 1.0), job(2, 6, 1.0)];
        let cluster = ClusterSpec::homogeneous(2).with_move_delay(0.0);
        let cfg = SimConfig::simplified();
        let res = exhaustive_search(&cluster, &jobs, &cfg, 1000);
        assert!(res.exhaustive);
        assert_eq!(res.evaluated, 6);
        assert_eq!(res.order, vec![JobId(1), JobId(2), JobId(0)]);
        // JCTs: job1 1s, job2 1+3=4s, job0 4+8=12s → avg 17/3.
        assert!((res.avg_jct - 17.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_search_when_over_budget() {
        let jobs: Vec<JobSpec> = (0..7).map(|i| job(i, (i + 1) * 2, 1.0)).collect();
        let cluster = ClusterSpec::homogeneous(2).with_move_delay(0.0);
        let cfg = SimConfig::simplified();
        let res = exhaustive_search(&cluster, &jobs, &cfg, 50);
        assert!(!res.exhaustive);
        assert_eq!(res.evaluated, 50);
        // The informed SJF seed should already be optimal here, so the
        // sampled search must match exhaustive's winner.
        let full = exhaustive_search(&cluster, &jobs, &cfg, 10_000);
        assert!(full.exhaustive);
        assert!((res.avg_jct - full.avg_jct).abs() < 1e-9);
    }

    #[test]
    fn order_scheduler_respects_order() {
        let jobs = vec![job(0, 4, 1.0), job(1, 4, 1.0)];
        let cluster = ClusterSpec::homogeneous(2).with_move_delay(0.0);
        let run = |order: Vec<JobId>| {
            Simulator::new(cluster.clone(), jobs.clone(), SimConfig::simplified())
                .run(OrderScheduler::new(order))
                .jcts()
        };
        assert_eq!(run(vec![JobId(0), JobId(1)]), vec![2.0, 4.0]);
        assert_eq!(run(vec![JobId(1), JobId(0)]), vec![4.0, 2.0]);
    }
}
