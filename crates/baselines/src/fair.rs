//! Fair-sharing baselines (§7.1 items 3–5): simple fair, naive weighted
//! fair, and the tuned weighted fair family `T_i^α / Σ T_j^α`.

use crate::common::{schedulable_jobs, widest_stage, with_best_fit};
use decima_sim::{Action, Observation, Scheduler};

/// Weighted fair scheduling with share exponent `alpha` (§7.1 item 5):
/// job `i` receives `T_i^α / Σ_j T_j^α` of the executors, where `T_i` is
/// its total work.
///
/// * `alpha = 0` — simple fair scheduling (equal shares, item 3).
/// * `alpha = 1` — naive weighted fair (shares ∝ total work, item 4).
/// * swept `alpha` — the paper's strongest heuristic ("opt. weighted
///   fair"); the optimum usually lands near `alpha = -1`, i.e. shares
///   *inversely* proportional to job size (§7.2).
///
/// The scheduler is work-conserving: once every job holds its share, any
/// remaining free executors go to jobs that can still use them.
#[derive(Debug, Clone)]
pub struct WeightedFairScheduler {
    /// Share exponent α.
    pub alpha: f64,
    name: String,
    shares: FairShares,
}

impl WeightedFairScheduler {
    /// Creates the scheduler with the given exponent.
    pub fn new(alpha: f64) -> Self {
        let name = if alpha == 0.0 {
            "fair".to_string()
        } else if alpha == 1.0 {
            "naive-weighted-fair".to_string()
        } else {
            format!("weighted-fair(α={alpha})")
        };
        WeightedFairScheduler {
            alpha,
            name,
            shares: FairShares::default(),
        }
    }

    /// Simple fair scheduling (equal shares).
    pub fn fair() -> Self {
        Self::new(0.0)
    }

    /// Naive weighted fair (shares proportional to total work).
    pub fn naive() -> Self {
        Self::new(1.0)
    }
}

/// The weighted-fair partition in kept buffers: job `i`'s executor
/// target is `⌊m · T_i^α / Σ_j T_j^α⌋`, at least one, with the weights
/// summed in `obs.jobs` order. Weighted fair and Graphene* both share
/// executors this way.
#[derive(Debug, Clone, Default)]
pub(crate) struct FairShares {
    weights: Vec<f64>,
    targets: Vec<usize>,
}

impl FairShares {
    /// The per-job targets under `obs`, indexed like `obs.jobs`; a call
    /// at a job count already seen allocates nothing.
    pub(crate) fn targets(&mut self, obs: &Observation, alpha: f64) -> &[usize] {
        let m = obs.total_executors as f64;
        self.weights.clear();
        self.weights.extend(
            obs.jobs
                .iter()
                .map(|j| j.profile.total_work.max(1e-9).powf(alpha)),
        );
        let total_w: f64 = self.weights.iter().sum();
        self.targets.clear();
        self.targets.extend(
            self.weights
                .iter()
                .map(|w| ((m * w / total_w).floor() as usize).max(1)),
        );
        &self.targets
    }
}

impl Scheduler for WeightedFairScheduler {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let targets = self.shares.targets(obs, self.alpha);
        // Largest-deficit-first among jobs below target with work to do.
        let candidate = schedulable_jobs(obs)
            .filter(|&j| obs.jobs[j].alloc < targets[j])
            .max_by_key(|&j| targets[j] - obs.jobs[j].alloc);
        let (job_idx, limit) = match candidate {
            Some(j) => (j, targets[j]),
            None => {
                // Work-conserving spill-over: any job that can still use
                // executors gets them, smallest allocation first.
                let j = schedulable_jobs(obs).min_by_key(|&j| obs.jobs[j].alloc)?;
                (j, obs.jobs[j].alloc + obs.free_total)
            }
        };
        let stage = widest_stage(obs, job_idx)?;
        let action = Action::new(obs.jobs[job_idx].id, stage, limit);
        Some(with_best_fit(obs, job_idx, stage, action))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Sweeps `alpha` over the paper's grid `{-2, -1.9, …, 2}` and returns
/// `(best_alpha, best_avg_jct)` according to `eval`, a closure that runs
/// a full experiment for one alpha (§7.1 item 5).
pub fn tune_alpha(mut eval: impl FnMut(f64) -> f64) -> (f64, f64) {
    let mut best = (0.0, f64::INFINITY);
    for i in -20..=20 {
        let alpha = i as f64 / 10.0;
        let jct = eval(alpha);
        if jct < best.1 {
            best = (alpha, jct);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::ClusterSpec;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;

    fn small_jobs(n: usize, seed: u64) -> Vec<decima_core::JobSpec> {
        tpch_batch(n, seed)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect()
    }

    fn run(sched: impl Scheduler, n: usize, seed: u64) -> decima_sim::EpisodeResult {
        let sim = Simulator::new(
            ClusterSpec::homogeneous(10).with_move_delay(1.0),
            small_jobs(n, seed),
            SimConfig::default().with_seed(1),
        );
        sim.run(sched)
    }

    #[test]
    fn fair_completes_and_shares() {
        let r = run(WeightedFairScheduler::fair(), 6, 3);
        assert_eq!(r.completed(), 6);
        assert_eq!(r.wasted_actions, 0);
    }

    #[test]
    fn naive_weighted_fair_completes() {
        let r = run(WeightedFairScheduler::naive(), 6, 3);
        assert_eq!(r.completed(), 6);
    }

    #[test]
    fn fair_beats_fifo_like_the_paper() {
        use crate::simple::FifoScheduler;
        let fair = run(WeightedFairScheduler::fair(), 10, 3).avg_jct().unwrap();
        let fifo = run(FifoScheduler, 10, 3).avg_jct().unwrap();
        assert!(
            fair < fifo,
            "fair ({fair:.1}s) should beat FIFO ({fifo:.1}s) on batch arrivals"
        );
    }

    #[test]
    fn negative_alpha_prioritizes_small_jobs() {
        // The paper finds the optimum near α = -1 (§7.2): inverse-size
        // weighting should beat proportional weighting on a heavy-tailed
        // batch.
        let inv = run(WeightedFairScheduler::new(-1.0), 10, 3)
            .avg_jct()
            .unwrap();
        let naive = run(WeightedFairScheduler::naive(), 10, 3)
            .avg_jct()
            .unwrap();
        assert!(
            inv < naive,
            "α=-1 ({inv:.1}s) should beat α=1 ({naive:.1}s)"
        );
    }

    #[test]
    fn tune_alpha_finds_minimum() {
        // A synthetic convex response with minimum at α = -0.6.
        let (best, val) = tune_alpha(|a| (a + 0.6) * (a + 0.6) + 1.0);
        assert!((best + 0.6).abs() < 0.11);
        assert!(val < 1.02);
    }
}
