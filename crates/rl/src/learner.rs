//! The learner side of the actor/learner split (§5.3, Algorithm 1):
//! reward shaping, advantage estimation, and gradient accumulation from
//! stored trajectories.
//!
//! The gradient pass consumes [`Trajectory`] records directly — the
//! stored observations are re-scored by the policy with no simulator in
//! the loop. Its equivalence to the same pass over the live
//! observations is proved per rollout in `crates/rl/tests/equivalence.rs`.

use crate::baseline::{returns_to_go, time_aligned_baselines, MovingAvg, ReturnSeries};
use crate::trainer::TrainConfig;
use crate::trajectory::Trajectory;

/// Scales raw episode rewards and, under the differential (average
/// reward, Appendix B) formulation, subtracts the moving-average reward
/// rate times each step's duration. Processes rollouts in slot order so
/// the moving average advances exactly as in a sequential pass.
pub fn scaled_rewards(
    trajs: &[Trajectory],
    cfg: &TrainConfig,
    rate_avg: &mut MovingAvg,
) -> Vec<Vec<f64>> {
    let mut all_rewards: Vec<Vec<f64>> = Vec::with_capacity(trajs.len());
    for t in trajs {
        let mut rw: Vec<f64> = t
            .raw_rewards()
            .iter()
            .map(|x| x * cfg.reward_scale)
            .collect();
        if cfg.differential_reward && !rw.is_empty() {
            let duration = t.result.end_time.as_secs().max(1e-9);
            let rate = rw.iter().sum::<f64>() / duration;
            rate_avg.push(rate);
            let rhat = rate_avg.mean();
            let times = t.action_times();
            for k in 0..rw.len() {
                let dt = if k + 1 < times.len() {
                    times[k + 1] - times[k]
                } else {
                    duration - times[k]
                };
                rw[k] -= rhat * dt;
            }
        }
        all_rewards.push(rw);
    }
    all_rewards
}

/// Per-step advantages: returns-to-go minus the input-dependent
/// time-aligned baseline (§5.3 challenge #2), optionally normalized by
/// the batch standard deviation.
pub fn advantages(
    trajs: &[Trajectory],
    all_rewards: &[Vec<f64>],
    normalize: bool,
) -> Vec<Vec<f64>> {
    let series: Vec<ReturnSeries> = trajs
        .iter()
        .zip(all_rewards)
        .map(|(t, rw)| ReturnSeries::new(t.action_times(), returns_to_go(rw)))
        .collect();
    let baselines = time_aligned_baselines(&series);
    let mut advantages: Vec<Vec<f64>> = all_rewards
        .iter()
        .zip(&baselines)
        .map(|(rw, bl)| {
            returns_to_go(rw)
                .iter()
                .zip(bl)
                .map(|(r, b)| r - b)
                .collect()
        })
        .collect();
    if normalize {
        let flat: Vec<f64> = advantages.iter().flatten().copied().collect();
        if flat.len() > 1 {
            let mean = flat.iter().sum::<f64>() / flat.len() as f64;
            let var = flat.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / flat.len() as f64;
            let std = var.sqrt().max(1e-8);
            for adv in &mut advantages {
                for a in adv {
                    *a /= std;
                }
            }
        }
    }
    advantages
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic trajectory whose `raw_rewards()` equals `rewards` at
    /// the given action times (reward k is the drop in objective
    /// integral to the *next* observation, the tail is `tail_penalty`).
    fn traj_with(times: Vec<f64>, rewards: Vec<f64>, end: f64) -> Trajectory {
        use decima_core::SimTime;
        use decima_policy::ReplayObs;
        use decima_sim::EpisodeResult;
        let mut cost = 0.0;
        let observations = times
            .iter()
            .zip(&rewards)
            .map(|(&t, &r)| {
                let obs = ReplayObs {
                    time: SimTime::from_secs(t),
                    cost,
                    ..ReplayObs::default()
                };
                cost -= r;
                obs
            })
            .collect();
        Trajectory {
            seq_seed: 0,
            observations,
            choices: Vec::new(),
            entropy_sum: 0.0,
            result: EpisodeResult {
                tail_penalty: rewards.last().map_or(0.0, |r| -r),
                end_time: SimTime::from_secs(end),
                ..EpisodeResult::default()
            },
        }
    }

    #[test]
    fn scaling_applies_reward_scale() {
        let cfg = TrainConfig {
            reward_scale: 0.5,
            ..TrainConfig::default()
        };
        let mut avg = MovingAvg::new(4);
        let t = traj_with(vec![0.0, 1.0], vec![-2.0, -4.0], 2.0);
        let rw = scaled_rewards(std::slice::from_ref(&t), &cfg, &mut avg);
        assert_eq!(rw[0], vec![-1.0, -2.0]);
    }

    #[test]
    fn differential_rewards_subtract_rate() {
        let cfg = TrainConfig {
            reward_scale: 1.0,
            differential_reward: true,
            ..TrainConfig::default()
        };
        let mut avg = MovingAvg::new(4);
        let t = traj_with(vec![0.0, 1.0], vec![-1.0, -1.0], 2.0);
        let rw = scaled_rewards(std::slice::from_ref(&t), &cfg, &mut avg);
        // Rate = -2/2 = -1; r̂ = -1. Step dts are 1 and 1, so each step
        // gains +1: [-1 - (-1)] = 0.
        assert_eq!(rw[0], vec![0.0, 0.0]);
        assert!((avg.mean() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_trajectories_have_zero_advantage() {
        let ts: Vec<Trajectory> = (0..3)
            .map(|_| traj_with(vec![0.0, 1.0, 2.0], vec![-1.0, -2.0, -3.0], 3.0))
            .collect();
        let rewards: Vec<Vec<f64>> = ts.iter().map(|t| t.raw_rewards()).collect();
        let adv = advantages(&ts, &rewards, false);
        for a in adv.iter().flatten() {
            assert!(a.abs() < 1e-12, "advantage {a} should be zero");
        }
    }

    #[test]
    fn normalization_unit_scales_the_batch() {
        let a = traj_with(vec![0.0, 1.0], vec![-4.0, 0.0], 2.0);
        let b = traj_with(vec![0.0, 1.0], vec![0.0, -4.0], 2.0);
        let rewards: Vec<Vec<f64>> = [&a, &b].iter().map(|t| t.raw_rewards()).collect();
        let adv = advantages(&[a, b], &rewards, true);
        let flat: Vec<f64> = adv.into_iter().flatten().collect();
        let mean = flat.iter().sum::<f64>() / flat.len() as f64;
        let var = flat.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / flat.len() as f64;
        assert!((var.sqrt() - 1.0).abs() < 1e-9, "std {}", var.sqrt());
    }
}
