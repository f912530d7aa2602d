//! Equivalence of the gradient pass over a trajectory's stored
//! observations with the pass over the live observations they were
//! taken from, over randomized tiny workloads: the recorder's own
//! episode is stepped by hand, each observation it decides on is cloned
//! live, and the gradient from those clones must equal
//! [`DecimaAgent::accumulate_from_observations`] on the stored
//! [`decima_policy::ReplayObs`], bit for bit, for every parameter
//! tensor. Any policy-visible field `ReplayObs::write_into` failed to
//! restore would show here.
//!
//! Whole iterations are pinned by the frozen golden in
//! `trainer::tests::two_iterations_match_the_frozen_golden`.

use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, GradientPass, PolicyConfig};
use decima_rl::{EnvFactory, SpecEnv, Trajectory};
use decima_sim::{Observation, Scheduler, Simulator};
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

/// Rolls out one recording episode of `env` without the trainer,
/// stepping it by hand to keep a live clone of every observation.
fn rollout(
    env: &SpecEnv,
    policy: &DecimaPolicy,
    store: &ParamStore,
    seq_seed: u64,
    act_seed: u64,
) -> (Trajectory, Vec<Observation>) {
    let (cluster, jobs, cfg) = env.build(seq_seed);
    let mut agent = DecimaAgent::recorder(policy.clone(), store.clone(), act_seed);
    let mut sim = Simulator::new(cluster, jobs, cfg);
    let mut live = Vec::new();
    agent.on_episode_start();
    while let Some(pending) = sim.step() {
        live.push(pending.observation().clone());
        let action = agent.decide(pending.observation());
        pending.resume(action);
    }
    let traj = Trajectory {
        seq_seed,
        observations: agent.observations,
        choices: agent.records,
        entropy_sum: agent.entropy_sum,
        result: sim.finish(),
    };
    (traj, live)
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

    /// Stored-observation gradients equal live-observation gradients
    /// field-for-field on random tiny workloads.
    #[test]
    fn stored_gradient_equals_live_gradient(
        seq_seed in 0u64..10_000,
        act_seed in 0u64..10_000,
        init_seed in 0u64..50,
        n_jobs in 2usize..5,
        execs in 4usize..8,
        beta in 0.0f64..0.3,
    ) {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(n_jobs, execs));
        let (policy, store) = tiny_policy(execs, init_seed);
        let (traj, live) = rollout(&env, &policy, &store, seq_seed, act_seed);
        prop_assert!(!traj.is_empty());
        prop_assert_eq!(live.len(), traj.len());
        let advantages: Vec<f64> = (0..traj.len())
            .map(|k| ((k as f64) * 0.61 + seq_seed as f64 * 0.13).sin())
            .collect();

        let from_stored = DecimaAgent::accumulate_from_observations(
            policy.clone(),
            store.clone(),
            &traj.observations,
            traj.choices.clone(),
            advantages.clone(),
            beta,
        );
        // The reference: the same pass fed the live observations.
        let mut pass = GradientPass::new(policy, store, beta);
        for ((obs, &choice), &adv) in live.iter().zip(&traj.choices).zip(&advantages) {
            pass.add(obs, choice, adv);
        }
        let from_live = pass.finish();
        prop_assert!(from_stored.grad_norm() > 0.0, "gradient must be nonzero");
        assert_grads_bit_equal(&from_live, &from_stored, "rollout");
    }
}
