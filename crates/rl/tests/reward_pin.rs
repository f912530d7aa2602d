//! The reward stream of a recorded rollout, frozen to the bit: the
//! number of decisions and an FNV-1a hash over every reward's and every
//! action time's bits, as `Trajectory::{raw_rewards, action_times}`
//! hand them to the learner. One rollout drains its batch; the other is
//! cut by a horizon, so its last reward is the tail up to the horizon.
//! The trainer's goldens pin the same stream only through what it does
//! to the parameters; this pins it where it is read.

use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima_rl::{EnvFactory, SpecEnv, Trajectory};
use decima_sim::{EpisodeOutcome, Simulator};
use decima_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over a sequence of `f64` bit patterns.
fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One recorder rollout of six TPC-H jobs on eight executors, cut at
/// `horizon` seconds if given: the trajectory and why the episode ended.
fn rollout(horizon: Option<f64>) -> (Trajectory, EpisodeOutcome) {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(3);
    let policy = DecimaPolicy::new(PolicyConfig::small(8), &mut store, &mut rng);
    let (cluster, jobs, mut cfg) = SpecEnv::new(WorkloadSpec::tpch_batch(6, 8)).build(17);
    cfg.time_limit = horizon;
    let mut agent = DecimaAgent::recorder(policy, store, 29);
    let result = Simulator::new(cluster, jobs, cfg).run(&mut agent);
    let outcome = result.outcome;
    let traj = Trajectory {
        seq_seed: 17,
        observations: agent.observations,
        choices: agent.records,
        entropy_sum: agent.entropy_sum,
        result,
    };
    (traj, outcome)
}

/// Decisions, then the reward and action-time hashes in hex.
fn reward_pin(traj: &Trajectory) -> (usize, String, String) {
    let rewards = traj.raw_rewards();
    let times = traj.action_times();
    assert_eq!(rewards.len(), traj.len(), "one reward per decision");
    assert_eq!(times.len(), traj.len(), "one time per decision");
    (
        traj.len(),
        format!("{:016x}", fnv(rewards.into_iter())),
        format!("{:016x}", fnv(times.into_iter())),
    )
}

#[test]
fn recorded_rewards_and_action_times_keep_their_bits() {
    let (drained, outcome) = rollout(None);
    assert_eq!(outcome, EpisodeOutcome::Drained);
    assert_eq!(
        reward_pin(&drained),
        (94, "fe5e31fdd78f0861".into(), "585160325fb828ea".into()),
        "drained rollout"
    );

    let (cut, outcome) = rollout(Some(40.0));
    assert_eq!(outcome, EpisodeOutcome::Horizon);
    assert_eq!(
        reward_pin(&cut),
        (14, "5d30e0736207e689".into(), "6b6ffcf24393333e".into()),
        "rollout cut at the horizon"
    );
}
