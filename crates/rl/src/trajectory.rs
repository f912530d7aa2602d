//! The self-contained record of one rollout (§5.3's "trajectory" that
//! workers ship to the learner in Algorithm 1).
//!
//! A [`Trajectory`] carries everything the gradient pass needs — the
//! per-decision observations, the sampled action indices, the episode
//! outcome, and the summed policy entropy — so the learner can
//! recompute forwards directly from stored data instead of
//! re-simulating the episode, which halves the per-iteration
//! simulation work a second simulation would cost.
//!
//! The rewards live here too: each stored observation keeps the time
//! and the objective integral of its decision, so the reward stream is
//! derived from consecutive observations, and the simulator keeps no
//! per-decision record.

use decima_policy::{ActionChoice, ReplayObs};
use decima_sim::EpisodeResult;

/// One rollout's complete raw material for the gradient pass.
#[derive(Debug)]
pub struct Trajectory {
    /// The arrival-sequence seed the episode was built from.
    pub seq_seed: u64,
    /// The compact observation at each decision, in decision order.
    /// Carries exactly the fields the policy forward reads (bit-for-bit
    /// what the sampler saw), so re-scoring them reproduces the
    /// rollout's log-probabilities exactly at a fraction of the memory
    /// of full observation clones; and each decision's time and
    /// objective integral, which the rewards are derived from.
    pub observations: Vec<ReplayObs>,
    /// The sampled action indices, aligned with `observations`.
    pub choices: Vec<ActionChoice>,
    /// Sum of node-softmax entropies over the episode (nats).
    pub entropy_sum: f64,
    /// The episode outcome (tail penalty, end time, job completions).
    pub result: EpisodeResult,
}

impl Trajectory {
    /// Number of decisions in the trajectory.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when the episode made no decisions.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Simulated time of each action (seconds).
    pub fn action_times(&self) -> Vec<f64> {
        self.observations.iter().map(|o| o.time.as_secs()).collect()
    }

    /// The raw (unscaled) per-step rewards of the episode: the negated
    /// cost accrued *after* each action, so the reward of action `k`
    /// covers `(t_k, t_{k+1}]`, `r_k = −(c_{k+1} − c_k)` for the
    /// objective integrals `c` of consecutive decisions, and the last
    /// action is charged the episode's tail penalty.
    pub fn raw_rewards(&self) -> Vec<f64> {
        let tail = self.observations.last().map(|_| -self.result.tail_penalty);
        self.observations
            .windows(2)
            .map(|w| -(w[1].cost - w[0].cost))
            .chain(tail)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::{ClusterSpec, SimTime};
    use decima_nn::ParamStore;
    use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn trajectory_captures_a_full_rollout() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
        let jobs: Vec<_> = tpch_batch(2, 3)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect();
        let mut agent = DecimaAgent::recorder(policy, store, 9);
        let result = Simulator::new(
            ClusterSpec::homogeneous(5).with_move_delay(0.5),
            jobs,
            SimConfig::default().with_seed(1),
        )
        .run(&mut agent);
        let traj = Trajectory {
            seq_seed: 1,
            observations: agent.observations,
            choices: agent.records,
            entropy_sum: agent.entropy_sum,
            result,
        };
        assert!(!traj.is_empty());
        assert_eq!(traj.observations.len(), traj.len());
        assert_eq!(traj.result.actions.len(), traj.len());
        assert_eq!(traj.action_times().len(), traj.len());
        assert_eq!(traj.raw_rewards().len(), traj.len());
        let times = traj.action_times();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times ascend");
        // The rewards and the tally account for the same integral.
        let sum: f64 = traj.raw_rewards().iter().sum();
        let first = traj.observations[0].cost;
        assert!((sum + traj.result.total_penalty() - first).abs() < 1e-9);
    }

    #[test]
    fn rewards_shift_and_tail() {
        let at = |time: f64, cost: f64| ReplayObs {
            time: SimTime::from_secs(time),
            cost,
            ..ReplayObs::default()
        };
        let traj = Trajectory {
            seq_seed: 0,
            observations: vec![at(0.0, 0.0), at(1.0, 3.0)],
            choices: Vec::new(),
            entropy_sum: 0.0,
            result: EpisodeResult {
                tail_penalty: 4.0,
                ..EpisodeResult::default()
            },
        };
        assert_eq!(traj.raw_rewards(), vec![-3.0, -4.0]);
        assert_eq!(traj.action_times(), vec![0.0, 1.0]);

        let none = Trajectory {
            observations: Vec::new(),
            ..traj
        };
        assert!(none.raw_rewards().is_empty());
    }
}
