//! Equivalence of the trajectory-driven gradient pass with a
//! replay-by-resimulation reference, over randomized tiny workloads:
//! the gradient accumulated from a trajectory's stored observations
//! equals the gradient from replaying the episode through a second
//! simulation ([`DecimaAgent::replayer`]), bit for bit, for every
//! parameter tensor.
//!
//! Whole iterations are pinned by the frozen golden in
//! `trainer::tests::two_iterations_match_the_frozen_golden`.

use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima_rl::{EnvFactory, SpecEnv, Trajectory};
use decima_sim::Simulator;
use decima_workload::WorkloadSpec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tiny_policy(execs: usize, init_seed: u64) -> (DecimaPolicy, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(init_seed);
    let policy = DecimaPolicy::new(PolicyConfig::small(execs), &mut store, &mut rng);
    (policy, store)
}

/// Rolls out one recording episode of `env` without the trainer.
fn rollout(
    env: &SpecEnv,
    policy: &DecimaPolicy,
    store: &ParamStore,
    seq_seed: u64,
    act_seed: u64,
) -> Trajectory {
    let (cluster, jobs, cfg) = env.build(seq_seed);
    let mut agent = DecimaAgent::recorder(policy.clone(), store.clone(), act_seed);
    let result = Simulator::new(cluster, jobs, cfg).run(&mut agent);
    Trajectory {
        seq_seed,
        observations: agent.observations,
        choices: agent.records,
        entropy_sum: agent.entropy_sum,
        result,
    }
}

fn assert_grads_bit_equal(a: &ParamStore, b: &ParamStore, what: &str) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        let (ga, gb) = (a.grad(i).data(), b.grad(i).data());
        assert_eq!(ga.len(), gb.len(), "{what}: param {i} shape");
        for (k, (x, y)) in ga.iter().zip(gb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: grad of param {i}[{k}] differs: {x} vs {y}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stored-observation gradients equal replay-by-resimulation
    /// gradients field-for-field on random tiny workloads.
    #[test]
    fn trajectory_gradient_equals_replay_gradient(
        seq_seed in 0u64..10_000,
        act_seed in 0u64..10_000,
        init_seed in 0u64..50,
        n_jobs in 2usize..5,
        execs in 4usize..8,
        beta in 0.0f64..0.3,
    ) {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(n_jobs, execs));
        let (policy, store) = tiny_policy(execs, init_seed);
        let traj = rollout(&env, &policy, &store, seq_seed, act_seed);
        prop_assert!(!traj.is_empty());
        let advantages: Vec<f64> = (0..traj.len())
            .map(|k| ((k as f64) * 0.61 + seq_seed as f64 * 0.13).sin())
            .collect();

        let from_obs = DecimaAgent::accumulate_from_observations(
            policy.clone(),
            store.clone(),
            &traj.observations,
            traj.choices.clone(),
            advantages.clone(),
            beta,
        );
        // The reference: re-simulate the episode with an agent that
        // feeds back the recorded choices while the tape accumulates.
        let (cluster, jobs, cfg) = env.build(seq_seed);
        let mut replay =
            DecimaAgent::replayer(policy.clone(), store.clone(), traj.choices, advantages, beta);
        let _ = Simulator::new(cluster, jobs, cfg).run(&mut replay);
        prop_assert!(from_obs.grad_norm() > 0.0, "gradient must be nonzero");
        assert_grads_bit_equal(&replay.store, &from_obs, "rollout");
    }
}
