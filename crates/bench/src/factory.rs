//! The scheduler factory: string names / [`SchedulerSpec`]s → boxed
//! [`Scheduler`]s, plus trainer construction from a [`TrainSpec`].
//!
//! Every scheduler the paper compares — the seven §7.1 baselines, the
//! random policy, and trained/untrained Decima with arbitrary
//! `PolicyConfig` overrides — is constructible here, so experiments
//! never hand-roll scheduler setup. The factory never touches the
//! disk and never trains: an entry that stands for a model (`decima`,
//! `decima-ckpt:PATH`, `fine-tuned:PATH`) is turned into a
//! [`TrainedPolicy`] by [`crate::model::resolve`] first, and
//! [`make_scheduler`] is handed the result.

use crate::fleet::{LeastLoaded, RoundRobin, Router, ShortestQueue};
use crate::scenario::{PolicySpec, SchedulerSpec, TrainSpec};
use decima_baselines::{
    FifoScheduler, GrapheneScheduler, RandomScheduler, SjfCpScheduler, TetrisScheduler,
    WeightedFairScheduler,
};
use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima_rl::Trainer;
use decima_sim::Scheduler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A trained policy snapshot: what a `Decima` lineup entry evaluates.
#[derive(Clone)]
pub struct TrainedPolicy {
    /// Policy architecture.
    pub policy: DecimaPolicy,
    /// Parameter values.
    pub store: ParamStore,
}

impl TrainedPolicy {
    /// Snapshots a trainer's current policy.
    pub fn of(trainer: &Trainer) -> Self {
        TrainedPolicy {
            policy: trainer.policy.clone(),
            store: trainer.store.clone(),
        }
    }

    /// Loads a snapshot from a checkpoint file written by
    /// [`Trainer::save_checkpoint`] — the trained model as a reusable
    /// artifact, no retraining involved, and no check against a cluster
    /// (scenarios go through [`crate::model::resolve`], which checks).
    pub fn from_checkpoint(path: &str) -> Result<Self, String> {
        let trainer = Trainer::load_checkpoint(std::path::Path::new(path))?;
        Ok(TrainedPolicy::of(&trainer))
    }

    /// A fresh greedy evaluation agent over this snapshot, on the
    /// tape-free `f32` lane wherever `InferSession::try_new` covers the
    /// policy configuration (no GNN, a one-hot limit head and
    /// multi-class clusters stay on the exact `f64` tape).
    pub fn greedy_agent(&self) -> DecimaAgent {
        DecimaAgent::greedy_fast(self.policy.clone(), self.store.clone())
    }

    /// [`Self::greedy_agent`] under the name the repo benchmark and the
    /// differential suites pair with [`Self::greedy_agent_tape`].
    pub fn greedy_agent_fast(&self) -> DecimaAgent {
        self.greedy_agent()
    }

    /// A greedy agent pinned to the exact `f64` tape lane: the training
    /// path, kept as the reference the differential suites compare the
    /// `f32` lane against.
    pub fn greedy_agent_tape(&self) -> DecimaAgent {
        DecimaAgent::greedy(self.policy.clone(), self.store.clone())
    }
}

/// Names the factory accepts, in lineup-conventional order.
pub const SCHEDULER_NAMES: &[&str] = &[
    "fifo",
    "sjf-cp",
    "fair",
    "naive-weighted-fair",
    "weighted-fair",
    "opt-weighted-fair",
    "tetris",
    "graphene",
    "random",
    "decima",
    "decima-untrained",
];

/// Resolves a factory name (optionally with a `:arg` suffix, e.g.
/// `weighted-fair:-0.5` or `random:7`) to a scheduler spec. A name the
/// factory does not know, an argument that is not what the name takes
/// (a finite α, a whole non-negative seed, a path) and an argument to a
/// name that takes none are errors naming both.
pub fn scheduler_spec_by_name(name: &str) -> Result<SchedulerSpec, String> {
    let (base, arg) = match name.split_once(':') {
        Some((b, a)) => (b, Some(a)),
        None => (name, None),
    };
    let bad = |takes: &str| format!("scheduler '{base}' takes {takes}, got '{name}'");
    let plain = |spec| match arg {
        None => Ok(spec),
        Some(_) => Err(bad("no argument")),
    };
    let path = || {
        arg.map(str::to_string)
            .ok_or_else(|| bad("a checkpoint path after ':'"))
    };
    match base {
        "fifo" => plain(SchedulerSpec::Fifo),
        "sjf-cp" => plain(SchedulerSpec::SjfCp),
        "fair" => plain(SchedulerSpec::Fair),
        "naive-weighted-fair" => plain(SchedulerSpec::NaiveWeightedFair),
        "weighted-fair" | "opt-weighted-fair" => {
            let alpha = arg.map_or(Some(-1.0), |a| {
                a.parse().ok().filter(|v: &f64| v.is_finite())
            });
            let alpha = alpha.ok_or_else(|| bad("a finite exponent after ':'"))?;
            Ok(SchedulerSpec::WeightedFair { alpha })
        }
        "tetris" => plain(SchedulerSpec::Tetris),
        "graphene" => plain(SchedulerSpec::Graphene),
        "random" => {
            let seed = arg.map_or(Some(0), |a| a.parse().ok());
            let seed = seed.ok_or_else(|| bad("a whole non-negative seed after ':'"))?;
            Ok(SchedulerSpec::Random { seed })
        }
        "decima" => plain(SchedulerSpec::Decima {
            train: TrainSpec::standard(80, 11),
        }),
        "decima-untrained" => plain(SchedulerSpec::DecimaUntrained {
            policy: PolicySpec::default(),
            sample_seed: None,
        }),
        "decima-ckpt" => Ok(SchedulerSpec::DecimaCheckpoint { path: path()? }),
        // Online adaptation: load the checkpoint, then fine-tune on the
        // evaluation environment (drift scenario defaults: 4 iterations,
        // 16-trajectory rolling window; see docs/DRIFT.md).
        "fine_tuned" | "fine-tuned" => Ok(SchedulerSpec::FineTuned {
            path: path()?,
            iters: 4,
            window: 16,
        }),
        _ => {
            let valid = SCHEDULER_NAMES.join(", ");
            Err(format!(
                "unknown scheduler '{name}' (valid: {valid}, decima-ckpt:PATH, fine-tuned:PATH)"
            ))
        }
    }
}

/// Router names the fleet factory accepts (canonical forms; see
/// [`make_router`] for accepted aliases).
pub const ROUTER_NAMES: &[&str] = &["rr", "jsq", "least-loaded"];

/// Resolves a router name to a fresh routing policy for the fleet
/// front-end — the router-side counterpart of [`make_scheduler`].
pub fn make_router(name: &str) -> Result<Box<dyn Router>, String> {
    match name {
        "rr" | "round-robin" => Ok(Box::new(RoundRobin::default())),
        "jsq" | "shortest-queue" => Ok(Box::new(ShortestQueue)),
        "least-loaded" | "ll" => Ok(Box::new(LeastLoaded)),
        other => Err(format!(
            "unknown router '{other}' (valid: {})",
            ROUTER_NAMES.join(", ")
        )),
    }
}

impl PolicySpec {
    /// Materializes the policy configuration for a cluster size.
    pub fn to_config(&self, executors: usize) -> PolicyConfig {
        let mut cfg = PolicyConfig::small(executors);
        if !self.gnn {
            cfg.gnn = None;
        }
        cfg.parallelism = self.parallelism;
        cfg.num_classes = self.num_classes;
        cfg.feat.include_duration = self.include_duration;
        cfg.feat.iat_hint = self.iat_hint;
        cfg
    }
}

/// Builds a trainer from a recipe (policy initialized from the recipe's
/// seed — bit-identical to the historical per-binary constructions).
pub fn build_trainer(train: &TrainSpec, executors: usize) -> Trainer {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(train.cfg.seed);
    let policy = DecimaPolicy::new(train.policy.to_config(executors), &mut store, &mut rng);
    Trainer::new(policy, store, train.cfg.clone())
}

/// Constructs a boxed scheduler from its spec.
///
/// * `executors` sizes untrained Decima policies.
/// * `trained` is the model of a `Decima`, `DecimaCheckpoint` or
///   `FineTuned` entry, as [`crate::model::resolve`] returned it — the
///   factory opens no file and trains nothing, so calling it with such
///   an entry and no model is a bug in the caller, and panics.
/// * `TunedWeightedFair` must be resolved to a concrete `WeightedFair`
///   by the runner first; unresolved it falls back to α = −1 (the
///   paper's near-optimal exponent).
pub fn make_scheduler(
    spec: &SchedulerSpec,
    executors: usize,
    trained: Option<&TrainedPolicy>,
) -> Box<dyn Scheduler + Send> {
    match spec {
        SchedulerSpec::Fifo => Box::new(FifoScheduler),
        SchedulerSpec::SjfCp => Box::new(SjfCpScheduler),
        SchedulerSpec::Fair => Box::new(WeightedFairScheduler::fair()),
        SchedulerSpec::NaiveWeightedFair => Box::new(WeightedFairScheduler::naive()),
        SchedulerSpec::WeightedFair { alpha } => Box::new(WeightedFairScheduler::new(*alpha)),
        SchedulerSpec::TunedWeightedFair { .. } => Box::new(WeightedFairScheduler::new(-1.0)),
        SchedulerSpec::Tetris => Box::new(TetrisScheduler),
        SchedulerSpec::Graphene => Box::new(GrapheneScheduler::default()),
        SchedulerSpec::Random { seed } => Box::new(RandomScheduler::new(*seed)),
        SchedulerSpec::DecimaUntrained {
            policy,
            sample_seed,
        } => Box::new(untrained_agent(policy, executors, *sample_seed)),
        SchedulerSpec::Decima { .. }
        | SchedulerSpec::DecimaCheckpoint { .. }
        | SchedulerSpec::FineTuned { .. } => match trained {
            Some(t) => Box::new(t.greedy_agent()),
            None => panic!("'{}' stands for a model: resolve it first", spec.label()),
        },
    }
}

/// A freshly-initialized (untrained) Decima agent: greedy by default,
/// sampling when `sample_seed` is given. Parameters are drawn with RNG
/// seed 0, matching the historical untrained-policy experiments.
pub fn untrained_agent(
    policy: &PolicySpec,
    executors: usize,
    sample_seed: Option<u64>,
) -> DecimaAgent {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let p = DecimaPolicy::new(policy.to_config(executors), &mut store, &mut rng);
    match sample_seed {
        Some(seed) => DecimaAgent::sampler(p, store, seed),
        None => DecimaAgent::greedy(p, store),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::ClusterSpec;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;

    #[test]
    fn every_name_resolves_and_constructs() {
        // What an entry that stands for a model is handed by its caller.
        let model = TrainedPolicy::of(&build_trainer(&TrainSpec::standard(0, 11), 5));
        for name in SCHEDULER_NAMES {
            let spec = scheduler_spec_by_name(name).unwrap();
            let trained = matches!(spec, SchedulerSpec::Decima { .. }).then_some(&model);
            let _sched = make_scheduler(&spec, 5, trained);
        }
        let err = scheduler_spec_by_name("not-a-scheduler").unwrap_err();
        assert!(err.starts_with("unknown scheduler 'not-a-scheduler' (valid: fifo, "));
    }

    /// The factory opens no file and substitutes no untrained policy.
    #[test]
    #[should_panic(expected = "stands for a model")]
    fn a_model_entry_without_its_model_is_a_caller_bug() {
        let spec = scheduler_spec_by_name("decima-ckpt:/nonexistent").unwrap();
        make_scheduler(&spec, 5, None);
    }

    #[test]
    fn name_args_parse() {
        match scheduler_spec_by_name("weighted-fair:-0.5") {
            Ok(SchedulerSpec::WeightedFair { alpha }) => assert_eq!(alpha, -0.5),
            other => panic!("{other:?}"),
        }
        match scheduler_spec_by_name("random:7") {
            Ok(SchedulerSpec::Random { seed }) => assert_eq!(seed, 7),
            other => panic!("{other:?}"),
        }
        // An argument the name cannot use is refused, not replaced by
        // the default (each of these used to run: α = −1, seed 0, α = NaN).
        let cases = [
            ("weighted-fair:abc", "a finite exponent after ':'"),
            ("weighted-fair:nan", "a finite exponent after ':'"),
            ("opt-weighted-fair:inf", "a finite exponent after ':'"),
            ("random:-3", "a whole non-negative seed after ':'"),
            ("random:2.5", "a whole non-negative seed after ':'"),
            ("fifo:junk", "no argument"),
            ("decima-untrained:1", "no argument"),
            ("decima-ckpt", "a checkpoint path after ':'"),
            ("fine-tuned", "a checkpoint path after ':'"),
        ];
        for (name, takes) in cases {
            let base = name.split(':').next().unwrap();
            let want = format!("scheduler '{base}' takes {takes}, got '{name}'");
            assert_eq!(scheduler_spec_by_name(name), Err(want));
        }
    }

    #[test]
    fn factory_schedulers_complete_an_episode() {
        let jobs: Vec<_> = tpch_batch(2, 1)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect();
        let cluster = ClusterSpec::homogeneous(4).with_move_delay(1.0);
        for name in ["fifo", "sjf-cp", "fair", "tetris", "graphene"] {
            let spec = scheduler_spec_by_name(name).unwrap();
            let sched = make_scheduler(&spec, 4, None);
            let r = Simulator::new(cluster.clone(), jobs.clone(), SimConfig::default()).run(sched);
            assert_eq!(r.completed(), 2, "{name} left jobs unfinished");
        }
    }

    /// A checkpoint trained **under perturbation** is a first-class
    /// model artifact: `decima-ckpt:<path>` resolves through the
    /// factory and the resolver, and drives the robust scenario's
    /// perturbed environment.
    #[test]
    fn perturbation_trained_checkpoint_loads_into_robust_scenario() {
        use decima_rl::{EnvFactory as _, SpecEnv};
        use decima_sim::DynamicsSpec;

        // Train briefly with churn/failures/stragglers active.
        let mut trainer = build_trainer(&TrainSpec::standard(1, 11), 10);
        let mut env = SpecEnv::new(decima_workload::WorkloadSpec::tpch_batch(2, 10));
        env.sim.dynamics = DynamicsSpec::med();
        trainer.train_iteration(&env);
        let dir = std::env::temp_dir().join(format!("decima_robust_ckpt_{}", std::process::id()));
        let path = dir.join("perturbed.ckpt");
        trainer.save_checkpoint(&path).unwrap();

        // The factory name resolves to a checkpoint entry…
        let name = format!("decima-ckpt:{}", path.display());
        let spec = scheduler_spec_by_name(&name).expect("decima-ckpt name resolves");
        assert!(matches!(spec, SchedulerSpec::DecimaCheckpoint { .. }));

        // …and the loaded model schedules a perturbed robust episode.
        let reg = crate::registry::ScenarioRegistry::standard();
        let mut robust = reg.get("robust").expect("robust registered").spec.clone();
        robust.set("jobs", "2").unwrap();
        robust.set("level", "med").unwrap();
        assert_eq!(robust.sim.dynamics, DynamicsSpec::med());
        let renv = crate::runner::spec_env(&robust);
        let (cluster, jobs, cfg) = renv.build(1);
        assert!(cfg.dynamics.enabled());
        let site = crate::model::Site::Env(&renv);
        let model = crate::model::resolve("saved", &spec, site).unwrap();
        let sched = make_scheduler(&spec, robust.executors(), model.as_ref());
        let r = Simulator::new(cluster, jobs, cfg).run(sched);
        assert!(!r.actions.is_empty(), "the loaded policy must act");

        // On a cluster of another size the same entry is an error.
        robust.set("execs", "12").unwrap();
        let other = crate::runner::spec_env(&robust);
        let err = crate::model::resolve("saved", &spec, crate::model::Site::Env(&other));
        let err = err.err().expect("a 10-executor model on 12 executors");
        assert!(err.contains("was trained for 10 executors"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trainer_matches_standard_recipe() {
        let t = build_trainer(&TrainSpec::standard(10, 11), 6);
        assert_eq!(t.cfg.num_rollouts, 8);
        assert_eq!(t.cfg.lr, 2e-3);
        assert_eq!(t.cfg.entropy_start, 0.08);
        assert!(t.cfg.curriculum.is_none());
        let t2 = build_trainer(&TrainSpec::tuned(10, 81), 6);
        assert!(t2.cfg.differential_reward);
        assert!(t2.cfg.curriculum.is_some());
    }
}
