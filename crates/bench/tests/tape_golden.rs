//! Bit-level goldens of the f64 tape lane, frozen by the last commit
//! whose tape allocated per decision: every gradient bit one recorded
//! trajectory produces, and every parameter bit after the repo
//! benchmark's warm-up. The tape's summation order is part of the
//! contract (docs/DETERMINISM.md), so these hashes hold across any
//! change to *how* the tape executes.

use decima_bench::build_trainer;
use decima_bench::scenario::TrainSpec;
use decima_core::{ClusterSpec, JobSpec};
use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, ParallelismMode, PolicyConfig};
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{SimConfig, Simulator};
use decima_workload::tpch::with_random_memory;
use decima_workload::{tpch_batch, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The seed of every trainer the repo benchmark builds.
const POLICY_SEED: u64 = 11;

/// FNV-1a over a sequence of `f64` bit patterns.
fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn param_fnv(store: &ParamStore) -> u64 {
    fnv((0..store.len()).flat_map(|i| store.value(i).data().iter().copied()))
}

fn grad_fnv(store: &ParamStore) -> u64 {
    fnv((0..store.len()).flat_map(|i| store.grad(i).data().iter().copied()))
}

/// Records one sampled episode and re-scores it, returning the number
/// of decisions and the FNV of every gradient bit (in hex).
fn recorded_gradient_fnv(
    policy: &DecimaPolicy,
    store: &ParamStore,
    cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
    sim_cfg: SimConfig,
) -> (usize, String) {
    let mut recorder = DecimaAgent::recorder(policy.clone(), store.clone(), 42);
    let _ = Simulator::new(cluster, jobs, sim_cfg).run(&mut recorder);
    let steps = recorder.records.len();
    let advantages: Vec<f64> = (0..steps).map(|k| (k as f64 * 0.37).sin()).collect();
    let grads = DecimaAgent::accumulate_from_observations(
        policy.clone(),
        store.clone(),
        &recorder.observations,
        recorder.records,
        advantages,
        0.03,
    );
    (steps, format!("{:016x}", grad_fnv(&grads)))
}

/// Jobs shrunk eightfold so a debug-build episode stays short.
fn shrunk(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / 8).max(1);
            }
            j
        })
        .collect()
}

fn initial_policy(cfg: PolicyConfig) -> (DecimaPolicy, ParamStore) {
    let mut store = ParamStore::new();
    let policy = DecimaPolicy::new(cfg, &mut store, &mut SmallRng::seed_from_u64(0));
    (policy, store)
}

/// The benchmark's warm-up (`warmed_up_policy`): three iterations of
/// the standard recipe on a ten-job batch. 15 executors is
/// `serve_f32_steady` and `fleet_f32`, 50 is `serve_f32_backlog`.
#[test]
fn warm_up_parameters_match_the_frozen_bits() {
    for (executors, want) in [(15, "63a9cf6aa85949a1"), (50, "c481885901232304")] {
        let mut trainer = build_trainer(&TrainSpec::standard(3, POLICY_SEED), executors);
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(10, executors));
        for _ in 0..3 {
            trainer.train_iteration(&env);
        }
        let got = format!("{:016x}", param_fnv(&trainer.store));
        assert_eq!(got, want, "{executors} executors");
    }
}

/// One full-size `tpch_batch(10, 15)` trajectory re-scored under the
/// policy one standard iteration leaves.
#[test]
fn recorded_trajectory_gradient_matches_the_frozen_bits() {
    let mut trainer = build_trainer(&TrainSpec::standard(1, POLICY_SEED), 15);
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(10, 15));
    trainer.train_iteration(&env);
    let (cluster, jobs, sim_cfg) = env.build(5);
    let got = recorded_gradient_fnv(&trainer.policy, &trainer.store, cluster, jobs, sim_cfg);
    assert_eq!(got, (164, "6fc6b1508e74b6c5".to_string()));
}

/// The class head (`forward_classes`) on a four-class cluster.
#[test]
fn four_class_gradient_matches_the_frozen_bits() {
    let (policy, store) = initial_policy(PolicyConfig {
        num_classes: 4,
        ..PolicyConfig::small(8)
    });
    let mut rng = SmallRng::seed_from_u64(5);
    let jobs = shrunk(tpch_batch(4, 11))
        .into_iter()
        .map(|j| with_random_memory(j, &mut rng))
        .collect();
    let got = recorded_gradient_fnv(
        &policy,
        &store,
        ClusterSpec::four_class(8).with_move_delay(0.5),
        jobs,
        SimConfig::default().with_seed(1),
    );
    assert_eq!(got, (28, "965247f6aa5d4160".to_string()));
}

/// The one-hot limit head (one `[y_i | z]` row scored, unit `v − 1`
/// picked per limit `v`), frozen when it was a `matmul` against a
/// constant 0/1 selector.
#[test]
fn one_hot_gradient_matches_the_frozen_bits() {
    let (policy, store) = initial_policy(PolicyConfig {
        parallelism: ParallelismMode::OneHot,
        ..PolicyConfig::small(10)
    });
    let got = recorded_gradient_fnv(
        &policy,
        &store,
        ClusterSpec::homogeneous(10).with_move_delay(0.5),
        shrunk(tpch_batch(4, 11)),
        SimConfig::default().with_seed(2),
    );
    assert_eq!(got, (23, "048e39e62cad2b9a".to_string()));
}

/// One sampled `tpch_batch(4, 11)` episode on ten executors under the
/// initial small policy in `cfg`, re-scored.
fn small_arm_gradient_fnv(cfg: PolicyConfig) -> (usize, String) {
    let (policy, store) = initial_policy(cfg);
    recorded_gradient_fnv(
        &policy,
        &store,
        ClusterSpec::homogeneous(10).with_move_delay(0.5),
        shrunk(tpch_batch(4, 11)),
        SimConfig::default().with_seed(2),
    )
}

/// The no-GNN ablation: raw features and their per-job and global sums
/// stand in for the embeddings.
#[test]
fn no_gnn_gradient_matches_the_frozen_bits() {
    let got = small_arm_gradient_fnv(PolicyConfig {
        gnn: None,
        ..PolicyConfig::small(10)
    });
    assert_eq!(got, (31, "fb03cd7dc5efefa5".to_string()));
}

/// Stage-level limits: the limit floor comes from the stage's executors
/// and every action is stage-scoped.
#[test]
fn stage_level_gradient_matches_the_frozen_bits() {
    let got = small_arm_gradient_fnv(PolicyConfig {
        parallelism: ParallelismMode::StageLevel,
        ..PolicyConfig::small(10)
    });
    assert_eq!(got, (31, "1c320e6d0b304330".to_string()));
}

/// No parallelism control: the limit head is skipped, so the loss has
/// the node term alone.
#[test]
fn disabled_limits_gradient_matches_the_frozen_bits() {
    let got = small_arm_gradient_fnv(PolicyConfig {
        parallelism: ParallelismMode::Disabled,
        ..PolicyConfig::small(10)
    });
    assert_eq!(got, (26, "161649b2834bd00c".to_string()));
}

/// The paper's widths (16-wide embeddings, 32/16 hidden layers), so the
/// 16- and 32-wide kernels are pinned at the policy level too.
#[test]
fn paper_width_gradient_matches_the_frozen_bits() {
    let (policy, store) = initial_policy(PolicyConfig::paper(10));
    let got = recorded_gradient_fnv(
        &policy,
        &store,
        ClusterSpec::homogeneous(10).with_move_delay(0.5),
        shrunk(tpch_batch(4, 11)),
        SimConfig::default().with_seed(2),
    );
    assert_eq!(got, (31, "cfbf9f137a02fdf2".to_string()));
}
