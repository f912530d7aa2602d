//! The REINFORCE trainer (§5.3, Algorithm 1) — the coordinator of the
//! actor/learner architecture.
//!
//! One iteration ([`Trainer::train_iteration`]; a fine-tuning iteration
//! of [`Trainer::fine_tune_window`] is the same private step over a
//! longer trajectory window — step 4 then re-scores the window instead
//! of the fresh batch alone):
//!
//! 1. sample an episode horizon `τ ~ Exp(τ_mean)` (memoryless termination;
//!    `τ_mean` grows over training — curriculum learning);
//! 2. sample a job-arrival sequence and roll out `N` episodes of it in
//!    parallel with different action-sampling seeds (fixing the sequence
//!    is the input-dependent variance-reduction technique). Each rollout
//!    returns a [`Trajectory`]: per-decision observations, action
//!    records, rewards, and entropy;
//! 3. compute differential rewards (average-reward formulation, App. B),
//!    returns-to-go, and time-aligned per-sequence baselines
//!    ([`crate::learner`]);
//! 4. re-score the stored observations, accumulating `advantage ×
//!    ∇(−log π)` plus a decaying entropy bonus — **no second simulation**
//!    — and apply one Adam step to the shared parameters.
//!
//! Rollout and gradient tasks are CPU-bound pure functions of their
//! inputs, so each batch is one [`ordered_map`] call over scoped
//! threads — one per task, up to the cores the machine has: results
//! come back in slot order, bit-identical to a sequential pass.
//!
//! Trainers checkpoint and resume bit-exactly: see [`crate::checkpoint`].

use crate::baseline::MovingAvg;
use crate::env::EnvFactory;
use crate::learner;
use crate::trajectory::Trajectory;
use decima_core::par::ordered_map;
use decima_nn::{Adam, ParamStore};
use decima_policy::{DecimaAgent, DecimaPolicy};
use decima_sim::Simulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::num::NonZeroUsize;

/// Curriculum over episode horizons (§5.3 challenge #1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Curriculum {
    /// Initial mean horizon (seconds of simulated time).
    pub tau_init: f64,
    /// Additive growth of the mean per iteration.
    pub tau_step: f64,
    /// Cap on the mean horizon.
    pub tau_max: f64,
}

/// Trainer hyperparameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Rollouts per iteration (the paper uses 16 workers).
    pub num_rollouts: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f64,
    /// Entropy-bonus weight at iteration 0.
    pub entropy_start: f64,
    /// Entropy-bonus weight after decay.
    pub entropy_end: f64,
    /// Iterations over which the entropy weight decays linearly.
    pub entropy_decay_iters: usize,
    /// Episode-horizon curriculum; `None` runs episodes to completion
    /// (batched-arrival training).
    pub curriculum: Option<Curriculum>,
    /// Fix one arrival sequence per iteration and baseline within it
    /// (`false` reproduces the "w/o variance reduction" ablation of
    /// Figure 14: every rollout draws its own sequence).
    pub input_dependent_baseline: bool,
    /// Subtract the moving-average reward rate (average-reward
    /// formulation; recommended for continuous arrivals).
    pub differential_reward: bool,
    /// Multiplier applied to raw rewards before gradient computation.
    pub reward_scale: f64,
    /// Divide advantages by their batch standard deviation.
    pub normalize_advantages: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            num_rollouts: 8,
            lr: 1e-3,
            entropy_start: 0.5,
            entropy_end: 1e-3,
            entropy_decay_iters: 200,
            curriculum: None,
            input_dependent_baseline: true,
            differential_reward: false,
            reward_scale: 1e-3,
            normalize_advantages: true,
            seed: 0,
        }
    }
}

/// Per-iteration statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterStats {
    /// Iteration index.
    pub iter: usize,
    /// Mean (scaled) total episode reward across rollouts.
    pub mean_reward: f64,
    /// Mean average JCT over rollouts that completed ≥1 job.
    pub mean_avg_jct: f64,
    /// Mean number of completed jobs per rollout.
    pub mean_completed: f64,
    /// Mean actions per episode.
    pub mean_actions: f64,
    /// Mean node-softmax entropy per decision (nats).
    pub mean_entropy: f64,
    /// Global gradient norm after merging (before clipping).
    pub grad_norm: f64,
    /// The sampled horizon for this iteration, if curricular.
    pub tau: Option<f64>,
    /// Entropy weight used.
    pub beta: f64,
}

/// The REINFORCE trainer.
pub struct Trainer {
    /// The policy being trained.
    pub policy: DecimaPolicy,
    /// The shared parameters.
    pub store: ParamStore,
    /// Optimizer.
    pub opt: Adam,
    /// Hyperparameters.
    pub cfg: TrainConfig,
    pub(crate) rng: SmallRng,
    pub(crate) rate_avg: MovingAvg,
    pub(crate) tau_mean: f64,
    /// Completed iterations.
    pub iter: usize,
    /// History of per-iteration statistics.
    pub history: Vec<IterStats>,
    /// Workload shape echoed into checkpoints by the `train` scenario's
    /// runs (see [`crate::checkpoint::WorkloadEcho`]); `None` unless the
    /// driver stamps it.
    pub workload_echo: Option<crate::checkpoint::WorkloadEcho>,
}

/// What one REINFORCE step re-scores: the most recent `cap`
/// trajectories with their scaled rewards, oldest first.
struct Window {
    cap: usize,
    trajs: Vec<Trajectory>,
    rewards: Vec<Vec<f64>>,
}

impl Window {
    fn of(cap: usize) -> Self {
        Window {
            cap,
            trajs: Vec::new(),
            rewards: Vec::new(),
        }
    }

    /// Appends a fresh batch and drops the oldest trajectories beyond
    /// `cap`.
    fn slide(&mut self, trajs: Vec<Trajectory>, rewards: Vec<Vec<f64>>) {
        self.trajs.extend(trajs);
        self.rewards.extend(rewards);
        let excess = self.trajs.len().saturating_sub(self.cap);
        self.trajs.drain(..excess);
        self.rewards.drain(..excess);
    }
}

impl Trainer {
    /// Builds a trainer around an initialized policy and store.
    pub fn new(policy: DecimaPolicy, store: ParamStore, cfg: TrainConfig) -> Self {
        let opt = Adam::new(&store, cfg.lr);
        let tau_mean = cfg.curriculum.map_or(f64::INFINITY, |c| c.tau_init);
        Trainer {
            policy,
            store,
            opt,
            rng: SmallRng::seed_from_u64(cfg.seed),
            rate_avg: MovingAvg::new(64),
            tau_mean,
            iter: 0,
            history: Vec::new(),
            workload_echo: None,
            cfg,
        }
    }

    /// Current entropy weight.
    pub fn beta(&self) -> f64 {
        let t = (self.iter as f64 / self.cfg.entropy_decay_iters.max(1) as f64).min(1.0);
        self.cfg.entropy_start + t * (self.cfg.entropy_end - self.cfg.entropy_start)
    }

    /// The current mean of the horizon curriculum (`∞` without one).
    pub fn tau_mean(&self) -> f64 {
        self.tau_mean
    }

    /// Threads of a rollout or gradient batch: one per task, but no
    /// more than there are cores. An agent and the tape it keeps are
    /// live per *thread*, so more threads than cores buy resident
    /// memory and cache misses and nothing else; results are placed by
    /// slot, so the count never shows in them.
    fn batch_threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.cfg.num_rollouts.min(cores)
    }

    /// The actor pass: one trajectory-recording rollout per
    /// `(sequence seed, action seed)` pair, in slot order.
    fn rollouts(
        &self,
        env: &dyn EnvFactory,
        tau: Option<f64>,
        seeds: Vec<(u64, u64)>,
    ) -> Vec<Trajectory> {
        ordered_map(self.batch_threads(), seeds, |(seq_seed, act_seed)| {
            let (cluster, jobs, mut sim_cfg) = env.build(seq_seed);
            if let Some(t) = tau {
                sim_cfg.time_limit = Some(sim_cfg.time_limit.map_or(t, |l| l.min(t)));
            }
            let mut agent =
                DecimaAgent::recorder(self.policy.clone(), self.store.clone(), act_seed);
            let result = Simulator::new(cluster, jobs, sim_cfg).run(&mut agent);
            Trajectory {
                seq_seed,
                observations: agent.observations,
                choices: agent.records,
                entropy_sum: agent.entropy_sum,
                result,
            }
        })
    }

    /// The gradient pass: re-scores each trajectory's stored
    /// observations (no simulator), one gradient store per trajectory
    /// in slot order.
    fn gradients(
        &self,
        trajs: &[Trajectory],
        advantages: Vec<Vec<f64>>,
        beta: f64,
    ) -> Vec<ParamStore> {
        let tasks = trajs.iter().zip(advantages).collect();
        ordered_map(self.batch_threads(), tasks, |(t, adv)| {
            DecimaAgent::accumulate_from_observations(
                self.policy.clone(),
                self.store.clone(),
                &t.observations,
                t.choices.clone(),
                adv,
                beta,
            )
        })
    }

    /// One REINFORCE step: a fresh batch of rollouts slides into
    /// `window`, and the gradient re-scores everything the window then
    /// holds. Each fresh trajectory enters the differential-reward
    /// moving average exactly once, when it is rolled out; baselines
    /// are recomputed across the window, so same-seed trajectories from
    /// different iterations still share input-dependent baselines.
    fn step(&mut self, env: &dyn EnvFactory, window: &mut Window) -> IterStats {
        let n = self.cfg.num_rollouts;
        let beta = self.beta();

        // Horizon: memoryless termination with growing mean (§5.3).
        let tau = self.cfg.curriculum.map(|c| {
            // Every draw is clamped to one second, which is also what a
            // mean no exponential has (zero, negative, NaN) gives.
            let t =
                Exp::new(1.0 / self.tau_mean).map_or(1.0, |exp| exp.sample(&mut self.rng).max(1.0));
            self.tau_mean = (self.tau_mean + c.tau_step).min(c.tau_max);
            t
        });

        // Sequence seeds: shared (input-dependent baseline) or per-rollout.
        let master_seq: u64 = self.rng.gen();
        let seq_seeds: Vec<u64> = (0..n)
            .map(|w| {
                if self.cfg.input_dependent_baseline {
                    master_seq
                } else {
                    master_seq.wrapping_add(w as u64 + 1)
                }
            })
            .collect();
        let action_seeds: Vec<u64> = (0..n).map(|_| self.rng.gen()).collect();

        // ---- actor pass: trajectory-recording rollouts ----
        let trajs = self.rollouts(env, tau, seq_seeds.into_iter().zip(action_seeds).collect());

        // ---- learner: rewards of the fresh batch ----
        let rewards = learner::scaled_rewards(&trajs, &self.cfg, &mut self.rate_avg);

        // ---- stats inputs ----
        let mean_reward = rewards.iter().map(|rw| rw.iter().sum::<f64>()).sum::<f64>() / n as f64;
        let jcts: Vec<f64> = trajs.iter().filter_map(|t| t.result.avg_jct()).collect();
        let mean_avg_jct = if jcts.is_empty() {
            f64::NAN
        } else {
            jcts.iter().sum::<f64>() / jcts.len() as f64
        };
        let mean_completed = trajs
            .iter()
            .map(|t| t.result.completed() as f64)
            .sum::<f64>()
            / n as f64;
        let mean_actions = trajs.iter().map(|t| t.len() as f64).sum::<f64>() / n as f64;
        let mean_entropy = {
            let steps: f64 = trajs.iter().map(|t| t.len() as f64).sum();
            let ent: f64 = trajs.iter().map(|t| t.entropy_sum).sum();
            if steps > 0.0 {
                ent / steps
            } else {
                0.0
            }
        };

        // ---- returns and baselines over the window ----
        window.slide(trajs, rewards);
        let advantages = learner::advantages(
            &window.trajs,
            &window.rewards,
            self.cfg.normalize_advantages,
        );

        // ---- gradient pass: re-score stored observations (no sim) ----
        let grads = self.gradients(&window.trajs, advantages, beta);

        for g in &grads {
            self.store.merge_grads(g);
        }
        self.store.scale_grads(1.0 / window.trajs.len() as f64);
        let grad_norm = self.store.grad_norm();
        self.opt.step(&mut self.store);

        let stats = IterStats {
            iter: self.iter,
            mean_reward,
            mean_avg_jct,
            mean_completed,
            mean_actions,
            mean_entropy,
            grad_norm,
            tau,
            beta,
        };
        self.history.push(stats);
        self.iter += 1;
        stats
    }

    /// Runs one training iteration against `env`: the step whose window
    /// is the fresh batch.
    pub fn train_iteration(&mut self, env: &dyn EnvFactory) -> IterStats {
        self.step(env, &mut Window::of(self.cfg.num_rollouts))
    }

    /// Runs `iters` iterations, invoking `on_iter` after each.
    pub fn train(
        &mut self,
        env: &dyn EnvFactory,
        iters: usize,
        mut on_iter: impl FnMut(&IterStats),
    ) {
        for _ in 0..iters {
            let s = self.train_iteration(env);
            on_iter(&s);
        }
    }

    /// Online adaptation under workload drift: `iters` fine-tuning
    /// iterations against `env`, each taking one REINFORCE step from a
    /// **rolling window** of the most recent `window` trajectories
    /// instead of just the current batch. Fresh rollouts still drive the
    /// window forward every iteration, but the gradient re-scores the
    /// whole window, which smooths adaptation when the workload
    /// distribution is moving under the policy (cf. continuous-transfer
    /// fine-tuning for HPC scheduling, arXiv 2509.22701). One iteration
    /// over a window of `num_rollouts` is [`Self::train_iteration`].
    ///
    /// Lineage contract (proved in `crates/rl/tests/checkpoint_resume.rs`):
    ///
    /// * `fine_tune_window(_, 0, w)` and `fine_tune_window(_, i, 0)` are
    ///   exact no-ops — the trainer stays bit-identical to the frozen
    ///   checkpoint it was loaded from.
    /// * Every state the method mutates (RNG, `rate_avg`, `tau_mean`,
    ///   parameters, Adam moments, `iter`, `history`) is captured by the
    ///   checkpoint format, and the window itself is local to one call,
    ///   so fine-tune → save → load → fine-tune is bit-exact with the
    ///   uninterrupted two-call sequence.
    pub fn fine_tune_window(
        &mut self,
        env: &dyn EnvFactory,
        iters: usize,
        window: usize,
    ) -> Vec<IterStats> {
        if window == 0 {
            return Vec::new();
        }
        let mut window = Window::of(window);
        (0..iters).map(|_| self.step(env, &mut window)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SpecEnv;
    use crate::test_support::greedy_eval;
    use decima_policy::PolicyConfig;
    use decima_workload::WorkloadSpec;

    fn tiny_trainer(cfg: TrainConfig) -> Trainer {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
        Trainer::new(policy, store, cfg)
    }

    #[test]
    fn one_iteration_produces_finite_stats() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 4,
            ..TrainConfig::default()
        });
        let s = t.train_iteration(&env);
        assert!(s.mean_reward.is_finite());
        assert!(s.grad_norm.is_finite() && s.grad_norm > 0.0);
        assert!(s.mean_actions > 0.0);
        assert_eq!(t.iter, 1);
        assert_eq!(t.history.len(), 1);
    }

    #[test]
    fn curriculum_grows_horizon() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(2, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 2,
            curriculum: Some(Curriculum {
                tau_init: 10.0,
                tau_step: 5.0,
                tau_max: 30.0,
            }),
            ..TrainConfig::default()
        });
        for _ in 0..6 {
            let s = t.train_iteration(&env);
            assert!(s.tau.is_some());
        }
        assert!((t.tau_mean - 30.0).abs() < 1e-9, "mean capped at tau_max");
    }

    #[test]
    fn entropy_weight_decays() {
        let mut t = tiny_trainer(TrainConfig {
            entropy_start: 1.0,
            entropy_end: 0.0,
            entropy_decay_iters: 10,
            ..TrainConfig::default()
        });
        assert_eq!(t.beta(), 1.0);
        t.iter = 5;
        assert!((t.beta() - 0.5).abs() < 1e-12);
        t.iter = 20;
        assert_eq!(t.beta(), 0.0);
    }

    #[test]
    fn ablation_unfixed_sequences_runs() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(2, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 3,
            input_dependent_baseline: false,
            ..TrainConfig::default()
        });
        let s = t.train_iteration(&env);
        assert!(s.grad_norm.is_finite());
    }

    #[test]
    fn differential_reward_on_stream_runs() {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(4, 5, 20.0));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 2,
            differential_reward: true,
            curriculum: Some(Curriculum {
                tau_init: 60.0,
                tau_step: 0.0,
                tau_max: 60.0,
            }),
            ..TrainConfig::default()
        });
        let s = t.train_iteration(&env);
        assert!(s.mean_reward.is_finite());
    }

    /// Rollouts run under cluster dynamics (churn, failures,
    /// stragglers) so checkpoints can be produced for perturbed
    /// clusters — and stay deterministic at a fixed seed.
    #[test]
    fn training_runs_under_cluster_dynamics() {
        use crate::env::SpecEnv;
        use decima_sim::DynamicsSpec;
        let mut env = SpecEnv::new(decima_workload::WorkloadSpec::tpch_batch(3, 5));
        env.sim.dynamics = DynamicsSpec {
            churn_iat: 20.0,
            fail_prob: 0.05,
            straggler_prob: 0.1,
            ..DynamicsSpec::med()
        };
        let run = || {
            let mut t = tiny_trainer(TrainConfig {
                num_rollouts: 2,
                ..TrainConfig::default()
            });
            let s = t.train_iteration(&env);
            assert!(s.mean_reward.is_finite());
            assert!(s.grad_norm.is_finite() && s.grad_norm > 0.0);
            s
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "perturbed training must stay deterministic");
    }

    /// `train_iteration` is the step whose window is the fresh batch:
    /// from equal fresh trainers it and one `fine_tune_window` iteration
    /// over `num_rollouts` trajectories report the same statistics and
    /// leave the same checkpoint — every parameter, Adam moment, RNG
    /// word and curriculum value, written round-trip exact.
    #[test]
    fn a_one_batch_window_is_a_training_iteration() {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0));
        let cfg = TrainConfig {
            num_rollouts: 3,
            differential_reward: true,
            curriculum: Some(Curriculum {
                tau_init: 200.0,
                tau_step: 50.0,
                tau_max: 1000.0,
            }),
            ..TrainConfig::default()
        };
        let (mut a, mut b) = (tiny_trainer(cfg.clone()), tiny_trainer(cfg));
        for _ in 0..2 {
            let iterated = a.train_iteration(&env);
            let windowed = b.fine_tune_window(&env, 1, 3);
            assert_eq!(format!("{windowed:?}"), format!("{:?}", [iterated]));
            assert_eq!(a.to_checkpoint(), b.to_checkpoint());
        }
        assert!(a.history[1].tau.is_some() && a.history[1].grad_norm > 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
        let t = tiny_trainer(TrainConfig::default());
        let a = greedy_eval(&t, &env, &[1, 2]);
        let b = greedy_eval(&t, &env, &[1, 2]);
        assert_eq!(a[0].avg_jct(), b[0].avg_jct());
        assert_eq!(a[1].avg_jct(), b[1].avg_jct());
    }

    /// The batch runner adds nothing of its own: a one-rollout
    /// iteration reports exactly what the same episode gives when run
    /// inline on this thread with the seeds the iteration draws.
    #[test]
    fn one_rollout_iteration_equals_the_inline_recorder_run() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 1,
            ..TrainConfig::default()
        });
        // The iteration's draws, in order: sequence seed, action seed.
        let mut rng = SmallRng::seed_from_u64(t.cfg.seed);
        let (seq_seed, act_seed): (u64, u64) = (rng.gen(), rng.gen());
        let (cluster, jobs, sim_cfg) = env.build(seq_seed);
        let mut agent = DecimaAgent::recorder(t.policy.clone(), t.store.clone(), act_seed);
        let result = Simulator::new(cluster, jobs, sim_cfg).run(&mut agent);

        let s = t.train_iteration(&env);
        let steps = agent.records.len() as f64;
        assert_eq!(s.mean_actions, steps);
        assert_eq!(Some(s.mean_avg_jct), result.avg_jct());
        assert_eq!(s.mean_entropy, agent.entropy_sum / steps);
    }

    /// Two pinned iterations, frozen at the last commit that still had
    /// the replay-by-resimulation gradient pass: there the pass over
    /// stored observations and the re-simulating pass both produced
    /// exactly these statistics and these parameter bits.
    #[test]
    fn two_iterations_match_the_frozen_golden() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 3,
            ..TrainConfig::default()
        });
        let got = [t.train_iteration(&env), t.train_iteration(&env)];
        let want = [
            IterStats {
                iter: 0,
                mean_reward: -1.076570850120443,
                mean_avg_jct: 358.8569500401475,
                mean_completed: 3.0,
                mean_actions: 66.33333333333333,
                mean_entropy: 0.8138478538034076,
                grad_norm: 729.4063079432349,
                tau: None,
                beta: 0.5,
            },
            IterStats {
                iter: 1,
                mean_reward: -0.788738879736369,
                mean_avg_jct: 262.9129599121228,
                mean_completed: 3.0,
                mean_actions: 47.0,
                mean_entropy: 1.1159640584479167,
                grad_norm: 789.9327522047653,
                tau: None,
                beta: 0.497505,
            },
        ];
        assert_eq!(got, want);
        // FNV-1a over the bit patterns of every parameter, in order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..t.store.len() {
            for v in t.store.value(i).data() {
                h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xe09c_c4f0_8b12_cded, "parameters diverged");
    }

    /// The core claim, miniaturized: a few REINFORCE iterations on a tiny
    /// fixed workload must improve the policy's expected return.
    #[test]
    fn training_improves_return_on_tiny_workload() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(4, 5));
        let mut t = tiny_trainer(TrainConfig {
            num_rollouts: 6,
            lr: 3e-3,
            entropy_start: 0.2,
            entropy_end: 0.0,
            entropy_decay_iters: 15,
            seed: 7,
            ..TrainConfig::default()
        });
        // Fixed eval sequences, measured before and after.
        let eval_seeds = [100, 101, 102];
        let before: f64 = greedy_eval(&t, &env, &eval_seeds)
            .iter()
            .map(|r| r.avg_jct().unwrap())
            .sum();
        for _ in 0..15 {
            t.train_iteration(&env);
        }
        let after: f64 = greedy_eval(&t, &env, &eval_seeds)
            .iter()
            .map(|r| r.avg_jct().unwrap())
            .sum();
        assert!(
            after < before * 1.05,
            "training should not regress: before={before:.1} after={after:.1}"
        );
    }
}
