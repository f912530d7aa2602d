//! Determinism and differential coverage of the cluster-dynamics
//! subsystem at the experiment layer:
//!
//! * same seed + same `DynamicsSpec` ⇒ **identical `SimResult`
//!   counters** whether the seed plan is evaluated on 1 thread or 4
//!   (episodes are single-threaded; parallelism is across seeds only);
//! * every perturbed decision path checks the incremental observation
//!   against the rebuilt reference (`run_checked` panics on the first
//!   divergent field);
//! * dynamics off is zero-cost: counters all zero, `Observation.offline`
//!   always zero.

use decima_bench::runner::{par_map, spec_env};
use decima_bench::scenario::{SchedulerSpec, TrainSpec};
use decima_bench::{build_trainer, make_scheduler, run_episode, ScenarioRegistry, TrainedPolicy};
use decima_rl::{EnvFactory as _, SpecEnv};
use decima_sim::{DynamicsCounters, DynamicsSpec, EpisodeResult, Scheduler, Simulator};
use decima_workload::WorkloadSpec;

#[path = "../../../tests/support/checked.rs"]
mod checked;
use checked::run_checked;

fn robust_env(level: DynamicsSpec) -> SpecEnv {
    let reg = ScenarioRegistry::standard();
    let mut spec = reg.get("robust").expect("robust registered").spec.clone();
    spec.set("jobs", "5").unwrap();
    spec.set("execs", "8").unwrap();
    let mut env = spec_env(&spec);
    env.sim.dynamics = level;
    env
}

fn run_seeds(env: &SpecEnv, seeds: &[u64], threads: usize) -> Vec<EpisodeResult> {
    par_map(seeds, threads, |&seed| {
        let (cluster, jobs, cfg) = env.build(seed);
        run_episode(
            &cluster,
            &jobs,
            &cfg,
            make_scheduler(&SchedulerSpec::SjfCp, 8, None),
        )
    })
}

/// Bitwise comparison of everything a robust run reports per episode.
fn assert_results_identical(a: &[EpisodeResult], b: &[EpisodeResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.avg_jct().map(f64::to_bits), y.avg_jct().map(f64::to_bits));
        assert_eq!(x.num_events, y.num_events);
        assert_eq!(x.task_failures, y.task_failures);
        assert_eq!(x.dynamics.retries, y.dynamics.retries);
        assert_eq!(x.dynamics.interrupted, y.dynamics.interrupted);
        assert_eq!(x.dynamics.straggled, y.dynamics.straggled);
        assert_eq!(x.dynamics.failed_jobs, y.dynamics.failed_jobs);
        assert_eq!(x.dynamics.churn_events, y.dynamics.churn_events);
        assert_eq!(
            x.dynamics.lost_exec_seconds.to_bits(),
            y.dynamics.lost_exec_seconds.to_bits()
        );
        assert_eq!(x.total_penalty().to_bits(), y.total_penalty().to_bits());
        let fx: Vec<bool> = x.jobs.iter().map(|j| j.failed).collect();
        let fy: Vec<bool> = y.jobs.iter().map(|j| j.failed).collect();
        assert_eq!(fx, fy);
    }
}

/// Same seed + same `DynamicsSpec` ⇒ identical `SimResult` counters
/// across `--threads 1` and `--threads 4` (the satellite's determinism
/// contract).
#[test]
fn dynamics_counters_identical_across_thread_counts() {
    let env = robust_env(DynamicsSpec::med());
    let seeds: Vec<u64> = (11000..11006).collect();
    let one = run_seeds(&env, &seeds, 1);
    let four = run_seeds(&env, &seeds, 4);
    assert_results_identical(&one, &four);
    // The perturbation actually fired somewhere, or this test pins noise.
    let total: u64 = one
        .iter()
        .map(|r| r.dynamics.retries + r.dynamics.straggled + r.dynamics.churn_events)
        .sum();
    assert!(total > 0, "med level produced no perturbation events");
    // And re-running the same plan is bit-stable too.
    assert_results_identical(&one, &run_seeds(&env, &seeds, 4));
}

/// The incremental observation path stays field-identical to the
/// rebuilt reference under every perturbation level (`run_checked`
/// panics on the first mismatch).
#[test]
fn perturbed_episodes_validate_incremental_observations() {
    for level in [
        DynamicsSpec::low(),
        DynamicsSpec::med(),
        DynamicsSpec::high(),
    ] {
        let env = robust_env(level);
        for seed in [11000u64, 11001] {
            for sched in [SchedulerSpec::SjfCp, SchedulerSpec::Fair] {
                let (cluster, jobs, mut cfg) = env.build(seed);
                cfg.max_events = 500_000;
                let sim = Simulator::new(cluster, jobs, cfg);
                let r = run_checked(sim, make_scheduler(&sched, 8, None));
                assert!(!r.actions.is_empty());
            }
        }
    }
}

/// Deterministic 2-iteration trained snapshot on the robust cluster
/// size (the same warm-up recipe as `tests/golden.rs`).
fn warmed_snapshot() -> TrainedPolicy {
    let mut trainer = build_trainer(&TrainSpec::standard(2, 11), 8);
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 8));
    for _ in 0..2 {
        trainer.train_iteration(&env);
    }
    TrainedPolicy::of(&trainer)
}

fn run_trained_seeds(
    snapshot: &TrainedPolicy,
    env: &SpecEnv,
    seeds: &[u64],
    threads: usize,
    fast: bool,
) -> Vec<EpisodeResult> {
    par_map(seeds, threads, |&seed| {
        let (cluster, jobs, cfg) = env.build(seed);
        let agent = if fast {
            snapshot.greedy_agent_fast()
        } else {
            snapshot.greedy_agent_tape()
        };
        run_episode(&cluster, &jobs, &cfg, Box::new(agent))
    })
}

/// The f32 fast path and the f64 tape path schedule identically under
/// active cluster dynamics: at `med` level (churn + failures +
/// stragglers all firing), every `DynamicsCounters` field — and the
/// JCTs and penalties around them — is bitwise identical across paths.
#[test]
fn fast_and_tape_paths_identical_under_med_dynamics() {
    let snapshot = warmed_snapshot();
    let env = robust_env(DynamicsSpec::med());
    let seeds: Vec<u64> = (11000..11004).collect();
    let fast = run_trained_seeds(&snapshot, &env, &seeds, 2, true);
    let tape = run_trained_seeds(&snapshot, &env, &seeds, 2, false);
    assert_results_identical(&fast, &tape);
    let total: u64 = fast
        .iter()
        .map(|r| r.dynamics.retries + r.dynamics.straggled + r.dynamics.churn_events)
        .sum();
    assert!(total > 0, "med level produced no perturbation events");
}

/// The trained-policy row of the thread-determinism contract: the same
/// seed plan evaluated with a shared trained snapshot (fast path, as
/// the runner wires it by default) is bitwise identical on 1 and 4
/// threads.
#[test]
fn trained_policy_dynamics_deterministic_across_threads() {
    let snapshot = warmed_snapshot();
    let env = robust_env(DynamicsSpec::med());
    let seeds: Vec<u64> = (11000..11004).collect();
    let one = run_trained_seeds(&snapshot, &env, &seeds, 1, true);
    let four = run_trained_seeds(&snapshot, &env, &seeds, 4, true);
    assert_results_identical(&one, &four);
}

/// Dynamics off is zero-cost: no perturbation events, no offline
/// executors, counters defaulted — the same episodes the pre-dynamics
/// engine produced (bit-exactness itself is pinned by the fig09a
/// golden snapshot and the registry differential suite).
#[test]
fn dynamics_off_counts_nothing() {
    let env = robust_env(DynamicsSpec::off());
    for r in run_seeds(&env, &[11000, 11001], 2) {
        assert_eq!(r.dynamics, DynamicsCounters::default());
        assert!(r.jobs.iter().all(|j| !j.failed));
    }
    let (cluster, jobs, cfg) = env.build(11000);
    let mut sim = Simulator::new(cluster, jobs, cfg);
    let mut sched = make_scheduler(&SchedulerSpec::SjfCp, 8, None);
    // Stopped at its tenth decision, the episode has nothing offline.
    for _ in 0..9 {
        let p = sim.step().expect("episode alive");
        let action = sched.decide(p.observation());
        p.resume(action);
    }
    assert_eq!(
        sim.step().expect("a tenth decision").observation().offline,
        0
    );
}
