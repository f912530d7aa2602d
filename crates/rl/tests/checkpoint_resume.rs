//! Checkpoint/resume correctness: a run interrupted at iteration `k` and
//! resumed from its checkpoint must be indistinguishable — bit for bit —
//! from an uninterrupted run: same `IterStats` history, same parameters,
//! same greedy evaluations.

use decima_nn::ParamStore;
use decima_policy::{DecimaPolicy, PolicyConfig};
use decima_rl::test_support::greedy_eval;
use decima_rl::{Curriculum, IterStats, SpecEnv, TrainConfig, Trainer, WorkloadEcho};
use decima_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fresh(cfg: &TrainConfig) -> Trainer {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
    Trainer::new(policy, store, cfg.clone())
}

/// Bitwise equality that treats NaN == NaN (a curricular iteration with
/// no completed jobs reports a NaN mean JCT).
fn stats_eq(a: &IterStats, b: &IterStats) -> bool {
    a.iter == b.iter
        && a.mean_reward.to_bits() == b.mean_reward.to_bits()
        && a.mean_avg_jct.to_bits() == b.mean_avg_jct.to_bits()
        && a.mean_completed.to_bits() == b.mean_completed.to_bits()
        && a.mean_actions.to_bits() == b.mean_actions.to_bits()
        && a.mean_entropy.to_bits() == b.mean_entropy.to_bits()
        && a.grad_norm.to_bits() == b.grad_norm.to_bits()
        && a.tau.map(f64::to_bits) == b.tau.map(f64::to_bits)
        && a.beta.to_bits() == b.beta.to_bits()
}

fn assert_same_params(a: &Trainer, b: &Trainer) {
    for i in 0..a.store.len() {
        let (va, vb) = (a.store.value(i).data(), b.store.value(i).data());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "param {i} diverged");
        }
    }
}

fn run_resume_case(cfg: TrainConfig, env: &SpecEnv, total: usize, split: usize) {
    // Uninterrupted reference.
    let mut full = fresh(&cfg);
    for _ in 0..total {
        full.train_iteration(env);
    }

    // Interrupted at `split`, serialized, restored, finished.
    let mut first = fresh(&cfg);
    for _ in 0..split {
        first.train_iteration(env);
    }
    let text = first.to_checkpoint();
    drop(first);
    let mut resumed = Trainer::from_checkpoint(&text).expect("checkpoint loads");
    assert_eq!(resumed.iter(), split);
    for _ in split..total {
        resumed.train_iteration(env);
    }

    assert_eq!(full.history.len(), resumed.history.len());
    for (a, b) in full.history.iter().zip(&resumed.history) {
        assert!(stats_eq(a, b), "IterStats diverged:\n  {a:?}\n  {b:?}");
    }
    assert_same_params(&full, &resumed);

    // The two policies must also act identically.
    let ea = greedy_eval(&full, env, &[500, 501]);
    let eb = greedy_eval(&resumed, env, &[500, 501]);
    for (ra, rb) in ea.iter().zip(&eb) {
        assert_eq!(ra.avg_jct(), rb.avg_jct());
        assert_eq!(ra.actions.len(), rb.actions.len());
    }
}

#[test]
fn resume_is_bit_exact_on_batched_training() {
    let cfg = TrainConfig {
        num_rollouts: 3,
        seed: 11,
        ..TrainConfig::default()
    };
    run_resume_case(cfg, &SpecEnv::new(WorkloadSpec::tpch_batch(3, 5)), 4, 2);
}

#[test]
fn resume_is_bit_exact_with_curriculum_and_differential_rewards() {
    // Exercises every piece of serialized state: the horizon RNG draw,
    // tau_mean growth, and the differential-reward moving average.
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 3,
        differential_reward: true,
        curriculum: Some(Curriculum {
            tau_init: 50.0,
            tau_step: 25.0,
            tau_max: 200.0,
        }),
        ..TrainConfig::default()
    };
    run_resume_case(
        cfg,
        &SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0)),
        4,
        1,
    );
}

#[test]
fn resume_at_every_split_point_matches() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 21,
        ..TrainConfig::default()
    };
    for split in 1..3 {
        run_resume_case(
            cfg.clone(),
            &SpecEnv::new(WorkloadSpec::tpch_batch(2, 5)),
            3,
            split,
        );
    }
}

/// The checkpoint embeds the workload shape the run trained on
/// (jobs/execs/iat): it round-trips through the `decima-checkpoint v1`
/// text, a matching shape is accepted on resume, and any drift is a
/// hard error naming both shapes.
#[test]
fn workload_echo_round_trips_and_gates_resume() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 11,
        ..TrainConfig::default()
    };
    let mut t = fresh(&cfg);
    let echo = WorkloadEcho::of(&WorkloadSpec::tpch_batch(3, 5));
    assert_eq!(echo.jobs, 3);
    assert_eq!(echo.execs, 5);
    assert_eq!(echo.iat, None);
    assert!(!echo.dynamics.enabled(), "dynamics defaults to off");
    t.workload_echo = Some(echo);
    t.train_iteration(&SpecEnv::new(WorkloadSpec::tpch_batch(3, 5)));
    let text = t.to_checkpoint();
    assert!(text.contains("echo.jobs 3"), "echo serialized");
    assert!(text.contains("echo.execs 5"));
    assert!(text.contains("echo.iat none"));
    assert!(text.contains("echo.dynamics "));
    let r = Trainer::from_checkpoint(&text).expect("echoed checkpoint loads");
    assert_eq!(r.workload_echo, Some(echo));
    // Serialization stays stable with the echo present.
    assert_eq!(r.to_checkpoint(), text);

    // Accept path: the identical workload shape resumes.
    echo.ensure_matches(&WorkloadEcho::of(&WorkloadSpec::tpch_batch(3, 5)))
        .expect("matching workload must be accepted");

    // Reject paths: jobs, execs, or arrival drift are all hard errors
    // whose message names both shapes.
    let err = echo
        .ensure_matches(&WorkloadEcho::of(&WorkloadSpec::tpch_batch(3, 8)))
        .expect_err("executor drift must be rejected");
    assert!(err.contains("3 jobs / 5 executors"), "{err}");
    assert!(err.contains("8 executors"), "{err}");
    let err = echo
        .ensure_matches(&WorkloadEcho::of(&WorkloadSpec::tpch_stream(3, 5, 25.0)))
        .expect_err("batch → stream drift must be rejected");
    assert!(err.contains("poisson arrivals (mean IAT 25 s)"), "{err}");
    assert!(
        WorkloadEcho::of(&WorkloadSpec::tpch_stream(3, 5, 25.0)).iat == Some(25.0),
        "stream workloads echo their IAT"
    );

    // Dynamics drift: a perturbation-trained checkpoint refuses a
    // resume that silently drops the dynamics flags (and vice versa).
    let perturbed = echo.with_dynamics(decima_sim::DynamicsSpec::med());
    let err = perturbed
        .ensure_matches(&echo)
        .expect_err("dropping the dynamics flags must be rejected");
    assert!(err.contains("dynamics(churn=240"), "{err}");
    perturbed
        .ensure_matches(&echo.with_dynamics(decima_sim::DynamicsSpec::med()))
        .expect("matching dynamics resumes");
}

/// A perturbation-trained echo round-trips its dynamics through the
/// checkpoint text.
#[test]
fn perturbed_workload_echo_round_trips() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 6,
        ..TrainConfig::default()
    };
    let mut t = fresh(&cfg);
    let echo = WorkloadEcho::of(&WorkloadSpec::tpch_batch(2, 5))
        .with_dynamics(decima_sim::DynamicsSpec::high());
    t.workload_echo = Some(echo);
    t.train_iteration(&SpecEnv::new(WorkloadSpec::tpch_batch(2, 5)));
    let text = t.to_checkpoint();
    let r = Trainer::from_checkpoint(&text).expect("loads");
    assert_eq!(r.workload_echo, Some(echo));
    assert_eq!(r.to_checkpoint(), text, "serialization stays stable");
}

/// The fine-tuning lineage contract: `fine_tune_window`'s rolling
/// window is local to each call, so a checkpoint written at any **call
/// boundary** resumes bit-exactly — `[ft(a); save; load; ft(b)]` is
/// indistinguishable from `[ft(a); ft(b)]` in one process: same
/// parameters, same `IterStats` history, same greedy evaluations.
#[test]
fn fine_tune_lineage_is_bit_exact_at_call_boundaries() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 17,
        ..TrainConfig::default()
    };
    let env = SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0));
    let mut base = fresh(&cfg);
    for _ in 0..2 {
        base.train_iteration(&env);
    }
    let base_text = base.to_checkpoint();

    let total = 3;
    for split in 1..=total {
        let mut inproc = Trainer::from_checkpoint(&base_text).expect("base loads");
        inproc.fine_tune_window(&env, split, 4);
        inproc.fine_tune_window(&env, total - split, 4);

        let mut first = Trainer::from_checkpoint(&base_text).expect("base loads");
        first.fine_tune_window(&env, split, 4);
        let mid_text = first.to_checkpoint();
        drop(first);
        let mut resumed = Trainer::from_checkpoint(&mid_text).expect("mid checkpoint loads");
        assert_eq!(resumed.iter(), 2 + split);
        resumed.fine_tune_window(&env, total - split, 4);

        assert_eq!(inproc.history.len(), resumed.history.len());
        for (a, b) in inproc.history.iter().zip(&resumed.history) {
            assert!(
                stats_eq(a, b),
                "IterStats diverged at split {split}:\n  {a:?}\n  {b:?}"
            );
        }
        assert_same_params(&inproc, &resumed);

        let ea = greedy_eval(&inproc, &env, &[700, 701]);
        let eb = greedy_eval(&resumed, &env, &[700, 701]);
        for (ra, rb) in ea.iter().zip(&eb) {
            assert_eq!(ra.avg_jct(), rb.avg_jct());
            assert_eq!(ra.actions.len(), rb.actions.len());
        }
    }
}

/// A zero-budget fine-tune (`iters == 0` or `window == 0`) is an exact
/// no-op: the trainer stays bit-identical to the frozen checkpoint —
/// parameters, history, RNG lineage, and the serialized text itself.
#[test]
fn zero_budget_fine_tune_is_the_frozen_checkpoint() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 29,
        ..TrainConfig::default()
    };
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
    let mut t = fresh(&cfg);
    for _ in 0..2 {
        t.train_iteration(&env);
    }
    let frozen_text = t.to_checkpoint();

    for (iters, window) in [(0usize, 8usize), (3, 0), (0, 0)] {
        let mut ft = Trainer::from_checkpoint(&frozen_text).expect("frozen loads");
        let stats = ft.fine_tune_window(&env, iters, window);
        assert!(stats.is_empty(), "zero budget must run no iterations");
        assert_eq!(
            ft.to_checkpoint(),
            frozen_text,
            "ft({iters}, {window}) must be byte-identical to the frozen checkpoint"
        );
    }

    // And a real budget is not a no-op — the adaptation arm actually
    // moves the parameters.
    let mut ft = Trainer::from_checkpoint(&frozen_text).expect("frozen loads");
    let stats = ft.fine_tune_window(&env, 1, 4);
    assert_eq!(stats.len(), 1);
    assert_ne!(
        ft.to_checkpoint(),
        frozen_text,
        "a non-zero fine-tune must update the model"
    );
}

/// Checkpoints written before the echo existed (no `echo.*` lines) load
/// with `workload_echo = None` — the guard is opt-in, not a format break.
#[test]
fn checkpoints_without_echo_still_load() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 4,
        ..TrainConfig::default()
    };
    let mut t = fresh(&cfg);
    t.train_iteration(&SpecEnv::new(WorkloadSpec::tpch_batch(2, 5)));
    assert!(t.workload_echo.is_none());
    let text = t.to_checkpoint();
    assert!(!text.contains("echo."), "no echo lines without a stamp");
    let r = Trainer::from_checkpoint(&text).expect("legacy layout loads");
    assert!(r.workload_echo.is_none());
}

/// Checkpoints written while the trainer still had a second,
/// re-simulating gradient pass carry one more `cfg.` line, holding the
/// flag that selected it. The head is a key → value map, so the key is
/// ignored: either value loads to the same trainer state and resumes
/// bit-identically to a checkpoint written today.
#[test]
fn checkpoints_with_the_removed_replay_flag_line_resume_identically() {
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 4,
        ..TrainConfig::default()
    };
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(2, 5));
    let mut t = fresh(&cfg);
    t.train_iteration(&env);
    let text = t.to_checkpoint();
    // Spelled in two halves so a grep for the removed name stays empty.
    let key = concat!("cfg.legacy", "_replay");
    assert!(!text.contains(key), "the writer no longer emits the line");
    let mut today = Trainer::from_checkpoint(&text).expect("checkpoint loads");
    today.train_iteration(&env);

    // The old writer put the line right after `cfg.seed`.
    let seed_line = format!("cfg.seed {}\n", cfg.seed);
    for flag in [0, 1] {
        let old_text = text.replacen(&seed_line, &format!("{seed_line}{key} {flag}\n"), 1);
        assert_ne!(old_text, text, "the line went in");
        let mut old = Trainer::from_checkpoint(&old_text).expect("old layout loads");
        assert_eq!(old.to_checkpoint(), text, "same trainer state");
        old.train_iteration(&env);
        assert_eq!(
            old.to_checkpoint(),
            today.to_checkpoint(),
            "same history, parameters, optimizer and RNG one iteration on"
        );
    }
}
