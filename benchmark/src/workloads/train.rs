//! `train_iter`: the f64 tape lane end to end — sampling rollouts,
//! baselines, gradient re-scoring, merge and Adam — through
//! `Trainer::train_iteration` on the program's own eight-worker
//! `ActorPool`. A round is one iteration; a pass is the first
//! iterations of a trainer built afresh from the pinned recipe, so that
//! iteration `i` of every pass is the same work on the same policy.
//!
//! `train_iteration` is opaque from outside, so the traced run also
//! **rebuilds** one iteration in five from the same public pieces, run
//! one after the other on this thread
//! (`Simulator::run(DecimaAgent::recorder)`, `learner::scaled_rewards`
//! and `advantages`, `DecimaAgent::accumulate_from_observations`,
//! `ParamStore::merge_grads`, `Adam::step`), on a copy of the
//! parameters. A rebuilt iteration runs between rounds, outside every
//! round's clock.

use super::{caught, Round, Workload, POLICY_SEED, SAMPLE_EVERY};
use crate::layers;
use crate::metrics::Values;
use crate::timed::Timed;
use crate::trace::Tracer;
use decima_bench::factory::{build_trainer, TrainedPolicy};
use decima_bench::scenario::TrainSpec;
use decima_core::{ClusterSpec, JobSpec};
use decima_nn::{Adam, ParamStore};
use decima_policy::{DecimaAgent, ReplayObs};
use decima_rl::{learner, EnvFactory, MovingAvg, SpecEnv, Trainer, Trajectory};
use decima_sim::{SimConfig, Simulator};
use decima_workload::WorkloadSpec;
use std::time::Instant;

/// A rebuilt iteration follows every this many real ones.
const REBUILD_EVERY: u64 = 5;

/// Shape and size of the training workload.
#[derive(Clone, Debug)]
pub struct TrainIterSpec {
    /// Training environment.
    pub workload: WorkloadSpec,
    /// `TrainSpec::standard`'s iteration horizon (sets the entropy
    /// schedule, not how many iterations run).
    pub horizon: usize,
    /// Iterations in a pass (see `Workload::count_rounds`).
    pub count_rounds: usize,
}

impl TrainIterSpec {
    /// The standard recipe on ten-job batches over 15 executors.
    pub fn train_iter() -> Self {
        TrainIterSpec {
            workload: WorkloadSpec::tpch_batch(10, 15),
            horizon: 30,
            count_rounds: 12,
        }
    }
}

/// The training environment with the run's seed folded into every
/// sequence seed the trainer draws: the trainer itself is seeded with
/// [`POLICY_SEED`], the jobs it trains on come from `--seed`.
struct SeededEnv {
    env: SpecEnv,
    salt: u64,
}

impl EnvFactory for SeededEnv {
    fn build(&self, seq_seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig) {
        self.env.build(seq_seed ^ self.salt)
    }
}

/// The training workload after set-up.
pub struct TrainIter {
    spec: TrainIterSpec,
    trainer: Trainer,
    env: SeededEnv,
    /// The iteration of a pass the trainer runs next.
    at: u64,
    /// Iterations run in all.
    iters: u64,
    kept: Vec<ReplayObs>,
}

impl TrainIter {
    /// The trainer every pass starts from: built from the pinned recipe
    /// and taken through one warm-up iteration on the unsalted
    /// environment, which spawns the actor pool.
    fn fresh_trainer(spec: &TrainIterSpec, tr: &mut Tracer) -> Trainer {
        let executors = spec.workload.executors;
        let mut trainer = tr.span("rl.build_trainer", 0, |_| {
            build_trainer(&TrainSpec::standard(spec.horizon, POLICY_SEED), executors)
        });
        let env = SpecEnv::new(spec.workload.clone());
        tr.span("rl.warmup_train", 0, |_| trainer.train_iteration(&env));
        trainer
    }

    /// Builds the first pass's trainer.
    pub fn setup(spec: TrainIterSpec, seed: u64, tr: &mut Tracer, vals: &mut Values) -> Self {
        let trainer = Self::fresh_trainer(&spec, tr);
        vals.set(
            "workload.jobs",
            (spec.workload.num_jobs() * trainer.cfg.num_rollouts) as f64,
        );
        TrainIter {
            trainer,
            env: SeededEnv {
                env: SpecEnv::new(spec.workload.clone()),
                salt: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            spec,
            at: 0,
            iters: 0,
            kept: Vec::new(),
        }
    }

    /// One iteration from public pieces, serially, on copies.
    fn rebuilt_iteration(&mut self, tr: &mut Tracer, vals: &mut Values) {
        let n = self.trainer.cfg.num_rollouts;
        let policy = self.trainer.policy.clone();
        let store = self.trainer.store.clone();
        let cfg = self.trainer.cfg.clone();
        let beta = self.trainer.beta();
        let base = 0x5eed_0000 + self.iters * 64;
        let keep = self.kept.is_empty();
        tr.span("bench.rebuilt_iter", self.iters, |tr| {
            let op = self.iters;
            let mut trajs: Vec<Trajectory> = Vec::with_capacity(n);
            let t0 = Instant::now();
            for w in 0..n as u64 {
                let seq_seed = base
                    + if cfg.input_dependent_baseline {
                        0
                    } else {
                        w + 1
                    };
                let (cluster, jobs, sim_cfg) = self.env.build(seq_seed);
                let agent = DecimaAgent::recorder(policy.clone(), store.clone(), base + 32 + w);
                let mut timed = Timed::sampling(agent, SAMPLE_EVERY, false);
                let result = tr.span("sim.run", op, |tr| {
                    let r = Simulator::new(cluster, jobs, sim_cfg).run(&mut timed);
                    tr.folded("policy.decide", op, timed.hist.sum_ns(), timed.hist.len());
                    r
                });
                vals.add("_rollout_decide_ns", timed.hist.sum_ns() as f64);
                let agent = timed.into_inner();
                if keep {
                    self.kept.extend(
                        agent
                            .observations
                            .iter()
                            .step_by(SAMPLE_EVERY as usize)
                            .cloned(),
                    );
                }
                trajs.push(Trajectory {
                    seq_seed,
                    observations: agent.observations,
                    choices: agent.records,
                    entropy_sum: agent.entropy_sum,
                    result,
                });
            }
            vals.add("rl.rollout_s", t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            let advantages = tr.span("rl.learner", op, |_| {
                let rewards = learner::scaled_rewards(&trajs, &cfg, &mut MovingAvg::new(64));
                learner::advantages(&trajs, &rewards, cfg.normalize_advantages)
            });
            vals.add("rl.baseline_s", t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            let grads: Vec<ParamStore> = trajs
                .into_iter()
                .zip(advantages)
                .map(|(t, adv)| {
                    tr.span("policy.gradient", op, |_| {
                        DecimaAgent::accumulate_from_observations(
                            policy.clone(),
                            store.clone(),
                            &t.observations,
                            t.choices,
                            adv,
                            beta,
                        )
                    })
                })
                .collect();
            vals.add("rl.gradient_s", t0.elapsed().as_secs_f64());

            let mut merged = store.clone();
            let mut opt = Adam::new(&merged, cfg.lr);
            let t0 = Instant::now();
            tr.span("nn.merge_grads", op, |_| {
                for g in &grads {
                    merged.merge_grads(g);
                }
                merged.scale_grads(1.0 / n as f64);
            });
            vals.add("nn.merge_grads_s", t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            tr.span("nn.adam_step", op, |_| opt.step(&mut merged));
            vals.add("nn.adam_step_s", t0.elapsed().as_secs_f64());
            vals.add("_rebuilt", 1.0);
        });
    }
}

impl Workload for TrainIter {
    fn count_rounds(&self) -> usize {
        self.spec.count_rounds
    }

    fn round(&mut self, idx: u64, tr: &mut Tracer, vals: &mut Values) -> Round {
        // A new pass starts from a new trainer (never timed as part of
        // a round).
        if idx != self.at {
            assert_eq!(idx, 0, "iterations run in order within a pass");
            self.trainer = Self::fresh_trainer(&self.spec, tr);
        }
        self.at = idx + 1;
        let n = self.trainer.cfg.num_rollouts as f64;
        let op = self.iters;
        let t0 = Instant::now();
        let stats = tr.span("rl.train_iteration", op, |_| {
            caught(|| self.trainer.train_iteration(&self.env))
        });
        let mut round = Round {
            calls: vec![t0.elapsed().as_secs_f64()],
            attempted: 1,
            ..Round::default()
        };
        self.iters += 1;
        match stats {
            Some(s)
                if s.mean_avg_jct.is_finite()
                    && s.grad_norm.is_finite()
                    && s.mean_completed == self.spec.workload.num_jobs() as f64 =>
            {
                round.decisions = (s.mean_actions * n).round() as u64;
                round.jobs_completed = (s.mean_completed * n).round() as u64;
                round.jct_sum = s.mean_avg_jct;
                round.jct_n = 1;
                round.seal(&format!("{:x}", s.grad_norm.to_bits()));
            }
            _ => round.failed = 1,
        }
        // Outside the round's clock; only the traced run pays for it.
        if tr.enabled() && self.iters % REBUILD_EVERY == 0 {
            self.rebuilt_iteration(tr, vals);
        }
        round
    }

    fn layers(&mut self, tr: &mut Tracer, vals: &mut Values) {
        let snapshot = TrainedPolicy::of(&self.trainer);
        layers::rescore_tape(&snapshot, &self.kept, tr, vals);
    }
}
