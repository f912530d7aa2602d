//! The scheduling agent: a [`DecimaPolicy`] driving the simulator.
//!
//! Three modes cover the RL life cycle:
//!
//! * **Sample** — rollout: actions are sampled from the policy and the
//!   chosen indices are recorded.
//! * **Greedy** — evaluation: argmax actions (used for testing snapshots).
//! * **Replay** — gradient pass: the recorded indices are fed back while
//!   the tape accumulates `advantage × ∇(−log π)` (plus an entropy bonus)
//!   into the agent's parameter store. Replaying a deterministic episode
//!   is what lets one-pass REINFORCE work without retaining every tape
//!   (see `decima-rl`).
//!
//! A sampler built with [`DecimaAgent::recorder`] additionally captures
//! every observation it decides on as a compact [`ReplayObs`] — the
//! subset of fields the gradient forward actually reads. The gradient
//! pass can then be driven directly from those stored observations via
//! [`DecimaAgent::accumulate_from_observations`] — no second simulation
//! of the episode is needed, which is how the trajectory-based trainer
//! in `decima-rl` halves its per-iteration simulation work.

use crate::infer::InferSession;
use crate::policy::{argmax_logp, sample_from_logp, DecimaPolicy, ParallelismMode};
use crate::replay::ReplayObs;
use decima_core::{ClassId, StageId};
use decima_nn::{ParamStore, Tape};
use decima_sim::{Action, Observation, Scheduler};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The sampled indices of one decision (into the candidate/limit/class
/// arrays the policy constructed for that step).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionChoice {
    /// Row in the node softmax.
    pub node: usize,
    /// Row in the limit softmax (0 when parallelism control is disabled).
    pub limit: usize,
    /// Row in the class softmax, if the cluster is multi-class.
    pub class: Option<usize>,
}

enum Mode {
    Sample,
    Greedy,
    Replay {
        choices: Vec<ActionChoice>,
        advantages: Vec<f64>,
        entropy_beta: f64,
        step: usize,
    },
}

/// A Decima scheduling agent (policy + parameters + mode).
pub struct DecimaAgent {
    /// The policy architecture (cheap to clone; references `store`).
    pub policy: DecimaPolicy,
    /// Parameter values; in replay mode gradients accumulate into its
    /// grad buffers.
    pub store: ParamStore,
    mode: Mode,
    rng: SmallRng,
    /// Clone each observation into `observations` (trajectory recording).
    record_obs: bool,
    /// Choices recorded during sampling, in decision order.
    pub records: Vec<ActionChoice>,
    /// Compact observations recorded in decision order (only when built
    /// with [`DecimaAgent::recorder`]).
    pub observations: Vec<ReplayObs>,
    /// Decisions taken so far.
    steps: usize,
    /// Sum of node-softmax entropies observed (nats), for the trainer's
    /// logging. A sampling/tape-lane quantity: the greedy `f32` lane
    /// never reads an entropy and leaves this at zero — ask
    /// [`InferSession::node_entropy`] for a fast-lane decision's.
    pub entropy_sum: f64,
    /// Cached static graph structure, reused across an episode's
    /// decisions and cleared at episode start.
    cache: decima_gnn::GraphCache,
    /// The one tape every tape-lane decision of this agent is scored
    /// on: reset per decision, its buffers kept (see `decima_nn::tape`).
    tape: Tape,
    /// Tape-free `f32` fast path; present only on greedy agents built
    /// with [`DecimaAgent::greedy_fast`] for a supported configuration.
    infer: Option<InferSession>,
}

impl DecimaAgent {
    fn with_mode(policy: DecimaPolicy, store: ParamStore, mode: Mode, seed: u64) -> Self {
        let cache_cap = policy.cfg.graph_cache_cap;
        DecimaAgent {
            policy,
            store,
            mode,
            rng: SmallRng::seed_from_u64(seed),
            record_obs: false,
            records: Vec::new(),
            observations: Vec::new(),
            steps: 0,
            entropy_sum: 0.0,
            cache: decima_gnn::GraphCache::with_cap(cache_cap),
            tape: Tape::new(),
            infer: None,
        }
    }

    /// Rollout agent: samples actions with the given seed.
    pub fn sampler(policy: DecimaPolicy, store: ParamStore, seed: u64) -> Self {
        Self::with_mode(policy, store, Mode::Sample, seed)
    }

    /// Trajectory-recording rollout agent: samples exactly like
    /// [`DecimaAgent::sampler`] and additionally clones every observation
    /// it decides on into [`DecimaAgent::observations`], so the gradient
    /// pass can run from the stored trajectory without re-simulating.
    pub fn recorder(policy: DecimaPolicy, store: ParamStore, seed: u64) -> Self {
        let mut agent = Self::with_mode(policy, store, Mode::Sample, seed);
        agent.record_obs = true;
        agent
    }

    /// Evaluation agent: deterministic argmax actions on the exact
    /// `f64` tape path.
    pub fn greedy(policy: DecimaPolicy, store: ParamStore) -> Self {
        Self::with_mode(policy, store, Mode::Greedy, 0)
    }

    /// Evaluation agent on the tape-free `f32` fast path: pre-packs the
    /// weights into an [`InferSession`] and scores each decision's
    /// whole candidate batch without building a tape. Falls back to the
    /// exact tape path (identical to [`DecimaAgent::greedy`]) when the
    /// policy configuration is not covered by the fast path.
    pub fn greedy_fast(policy: DecimaPolicy, store: ParamStore) -> Self {
        let mut agent = Self::greedy(policy, store);
        agent.infer = InferSession::try_new(&agent.policy, &agent.store);
        agent
    }

    /// Whether decisions run through the `f32` fast path.
    pub fn uses_fast_infer(&self) -> bool {
        self.infer.is_some()
    }

    /// Gradient-replay agent: feeds back `choices` while accumulating
    /// `Σ_k advantages[k]·∇(−log π(a_k)) − β·∇H` into `store`'s gradient
    /// buffers.
    pub fn replayer(
        policy: DecimaPolicy,
        store: ParamStore,
        choices: Vec<ActionChoice>,
        advantages: Vec<f64>,
        entropy_beta: f64,
    ) -> Self {
        assert_eq!(choices.len(), advantages.len(), "one advantage per step");
        Self::with_mode(
            policy,
            store,
            Mode::Replay {
                choices,
                advantages,
                entropy_beta,
                step: 0,
            },
            0,
        )
    }

    /// The gradient pass without a simulator: feeds each stored
    /// observation through the same forward/backward computation as a
    /// live replay, accumulating `Σ_k advantages[k]·∇(−log π(a_k)) −
    /// β·∇H` into the returned store's gradient buffers. Because the
    /// stored observations carry every field the policy forward reads,
    /// bit-for-bit, the result is bit-identical to replaying the episode
    /// through the simulator — with zero simulation work. A single
    /// scratch [`Observation`] is reused across the whole trajectory.
    pub fn accumulate_from_observations(
        policy: DecimaPolicy,
        store: ParamStore,
        observations: &[ReplayObs],
        choices: Vec<ActionChoice>,
        advantages: Vec<f64>,
        entropy_beta: f64,
    ) -> ParamStore {
        assert_eq!(
            observations.len(),
            choices.len(),
            "one observation per choice"
        );
        let mut agent = Self::replayer(policy, store, choices, advantages, entropy_beta);
        agent.on_episode_start();
        let mut scratch = Observation::default();
        for obs in observations {
            obs.write_into(&mut scratch);
            let _ = agent.decide(&scratch);
        }
        agent.store
    }

    /// Number of decisions taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    fn scalar_entropy(tape: &Tape, logp: decima_nn::TensorId) -> f64 {
        tape.value(logp).data().iter().map(|&l| -l.exp() * l).sum()
    }
}

impl Scheduler for DecimaAgent {
    fn on_episode_start(&mut self) {
        // A fresh episode allocates fresh job specs: the cached graph
        // structure (keyed on spec identity) must not carry over, and
        // the encoder's per-job memos would only pin the old specs.
        self.cache.clear();
        if let Some(session) = &mut self.infer {
            session.clear_memos();
        }
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        if self.record_obs {
            self.observations.push(ReplayObs::from_observation(obs));
        }
        if let Some(session) = &mut self.infer {
            // The tape-free `f32` lane (greedy mode, supported
            // configuration).
            let fd = session.decide_greedy(&self.policy, obs, &mut self.cache);
            self.steps += 1;
            let mut action = Action::new(
                obs.jobs[fd.cand.job_idx].id,
                StageId(fd.cand.stage),
                fd.limit,
            );
            if self.policy.cfg.parallelism == ParallelismMode::StageLevel {
                action = action.stage_scoped();
            }
            return Some(action);
        }
        self.tape.reset();
        let tape = &mut self.tape;
        let fwd = self
            .policy
            .forward_nodes_cached(tape, &self.store, obs, &mut self.cache);
        self.entropy_sum += Self::scalar_entropy(tape, fwd.node_logp);

        // In replay, the recorded step: its choice, advantage and β.
        let replay = match &mut self.mode {
            Mode::Replay {
                choices,
                advantages,
                entropy_beta,
                step,
            } => {
                if *step >= choices.len() {
                    // Defensive: a diverged replay ends the episode's
                    // scheduling rather than panicking mid-training.
                    debug_assert!(false, "replay ran past its recorded choices");
                    return None;
                }
                *step += 1;
                Some((choices[*step - 1], advantages[*step - 1], *entropy_beta))
            }
            _ => None,
        };
        // One row of a `[n,1]` log-probability column: the recorded one
        // (held to the rows this step has), the argmax, or a sample.
        let greedy = matches!(self.mode, Mode::Greedy);
        let rng = &mut self.rng;
        let mut pick = |tape: &Tape, logp, recorded: Option<usize>| match recorded {
            Some(row) => row.min(tape.value(logp).rows() - 1),
            None if greedy => argmax_logp(tape, logp),
            None => sample_from_logp(tape, logp, rng),
        };

        // Pick the stage.
        let node_idx = pick(tape, fwd.node_logp, replay.map(|(ch, ..)| ch.node));
        let cand = fwd.cands[node_idx];

        // Pick the parallelism limit.
        let skip_limits = self.policy.cfg.parallelism == ParallelismMode::Disabled;
        let (limit, limit_idx, limit_fwd) = if skip_limits {
            (obs.total_executors, 0, None)
        } else {
            let lf = self
                .policy
                .forward_limits(tape, &self.store, obs, &fwd, cand);
            let li = pick(tape, lf.logp, replay.map(|(ch, ..)| ch.limit));
            (lf.values[li], li, Some(lf))
        };

        // Pick the executor class (multi-resource only).
        let class_fwd = self
            .policy
            .forward_classes(tape, &self.store, obs, &fwd, cand);
        let (class, class_idx) = match &class_fwd {
            Some(cf) => {
                let recorded = replay.map(|(ch, ..)| ch.class.unwrap_or(0));
                let ci = pick(tape, cf.logp, recorded);
                (Some(ClassId(cf.classes[ci] as u16)), Some(ci))
            }
            None => (None, None),
        };

        // Gradient accumulation (replay) or record keeping (sample).
        match replay {
            Some((_, adv, beta)) => {
                // loss = −adv·log π(a) − β·H(node softmax)
                let node_term = tape.pick(fwd.node_logp, node_idx, 0);
                let mut logp_terms = [node_term; 3];
                let mut terms = 1;
                if let Some(lf) = &limit_fwd {
                    logp_terms[terms] = tape.pick(lf.logp, limit_idx, 0);
                    terms += 1;
                }
                if let (Some(cf), Some(ci)) = (&class_fwd, class_idx) {
                    logp_terms[terms] = tape.pick(cf.logp, ci, 0);
                    terms += 1;
                }
                let cat = tape.concat_rows(&logp_terms[..terms]);
                let logp = tape.sum_all(cat);
                let mut loss = tape.scale(logp, -adv);
                if beta != 0.0 {
                    let p = tape.exp(fwd.node_logp);
                    let pl = tape.mul(p, fwd.node_logp);
                    let neg_h = tape.sum_all(pl); // = −H
                    let ent_term = tape.scale(neg_h, beta);
                    loss = tape.add(loss, ent_term);
                }
                tape.backward(loss, 1.0, &mut self.store);
            }
            None if !greedy => self.records.push(ActionChoice {
                node: node_idx,
                limit: limit_idx,
                class: class_idx,
            }),
            None => {}
        }

        self.steps += 1;
        let mut action = Action::new(obs.jobs[cand.job_idx].id, StageId(cand.stage), limit);
        if self.policy.cfg.parallelism == ParallelismMode::StageLevel {
            action = action.stage_scoped();
        }
        if let Some(c) = class {
            action = action.with_class(c);
        }
        Some(action)
    }

    fn name(&self) -> &str {
        "decima"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use decima_core::ClusterSpec;
    use decima_nn::ParamStore;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;

    fn make_policy(total: usize, mode: ParallelismMode) -> (DecimaPolicy, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = PolicyConfig {
            parallelism: mode,
            ..PolicyConfig::small(total)
        };
        let policy = DecimaPolicy::new(cfg, &mut store, &mut rng);
        (policy, store)
    }

    fn tiny_batch() -> Vec<decima_core::JobSpec> {
        // Scale task counts down hard so tests stay fast.
        use decima_core::{JobId, SimTime};
        use decima_workload::tpch_job_scaled;
        vec![
            tpch_job_scaled(6, 2.0, JobId(0), SimTime::ZERO, 8.0),
            tpch_job_scaled(13, 2.0, JobId(1), SimTime::ZERO, 8.0),
        ]
    }

    #[test]
    fn sampling_episode_completes_and_records() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mut agent = DecimaAgent::sampler(policy, store, 42);
        let sim = Simulator::new(
            ClusterSpec::homogeneous(5).with_move_delay(0.5),
            tiny_batch(),
            SimConfig::default().with_seed(1),
        );
        let r = sim.run(&mut agent);
        assert_eq!(r.completed(), 2, "all jobs must finish");
        assert!(!agent.records.is_empty());
        assert_eq!(agent.records.len(), r.actions.len());
        assert!(r.wasted_actions == 0, "every action must assign work");
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
            let mut agent = DecimaAgent::sampler(policy, store, seed);
            let sim = Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            );
            let r = sim.run(&mut agent);
            (r.avg_jct().unwrap(), agent.records.len())
        };
        assert_eq!(run(7), run(7));
        // Across a handful of seeds, at least one trajectory must differ
        // (the policy is stochastic).
        let base = run(7);
        assert!(
            (0..6).any(|s| run(s) != base),
            "sampling produced identical trajectories for every seed"
        );
    }

    #[test]
    fn replay_reproduces_the_sampled_episode_and_accumulates_grads() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mut sampler = DecimaAgent::sampler(policy.clone(), store.clone(), 42);
        let mk_sim = || {
            Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            )
        };
        let r1 = mk_sim().run(&mut sampler);

        let advantages = vec![1.0; sampler.records.len()];
        let mut replayer =
            DecimaAgent::replayer(policy, store, sampler.records.clone(), advantages, 0.01);
        let r2 = mk_sim().run(&mut replayer);
        assert_eq!(r1.avg_jct(), r2.avg_jct(), "replay must be bit-faithful");
        assert_eq!(r1.actions.len(), r2.actions.len());
        assert!(
            replayer.store.grad_norm() > 0.0,
            "replay must accumulate gradients"
        );
    }

    #[test]
    fn recorder_matches_sampler_and_stores_observations() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mk_sim = || {
            Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            )
        };
        let mut sampler = DecimaAgent::sampler(policy.clone(), store.clone(), 42);
        let r1 = mk_sim().run(&mut sampler);
        let mut recorder = DecimaAgent::recorder(policy, store, 42);
        let r2 = mk_sim().run(&mut recorder);
        assert_eq!(r1.avg_jct(), r2.avg_jct(), "recording must not perturb");
        assert_eq!(sampler.records, recorder.records);
        assert_eq!(recorder.observations.len(), recorder.records.len());
        assert!(sampler.observations.is_empty());
    }

    /// The tentpole invariant: the gradient computed from stored
    /// observations is bit-identical to the gradient from replaying the
    /// episode through the simulator.
    #[test]
    fn stored_observation_gradient_matches_simulator_replay() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mk_sim = || {
            Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            )
        };
        let mut recorder = DecimaAgent::recorder(policy.clone(), store.clone(), 42);
        let _ = mk_sim().run(&mut recorder);
        let advantages: Vec<f64> = (0..recorder.records.len())
            .map(|k| (k as f64 * 0.37).sin())
            .collect();

        let mut replayer = DecimaAgent::replayer(
            policy.clone(),
            store.clone(),
            recorder.records.clone(),
            advantages.clone(),
            0.03,
        );
        let _ = mk_sim().run(&mut replayer);

        let from_obs = DecimaAgent::accumulate_from_observations(
            policy,
            store,
            &recorder.observations,
            recorder.records.clone(),
            advantages,
            0.03,
        );
        assert!(from_obs.grad_norm() > 0.0);
        for i in 0..from_obs.len() {
            let a = replayer.store.grad(i).data();
            let b = from_obs.grad(i).data();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "param {i} gradient differs");
            }
        }
    }

    /// A scheduler wrapper that records every action it forwards —
    /// `EpisodeResult` only keeps times/penalties, so comparing the
    /// tape and fast paths decision-by-decision needs the actions — and
    /// the node-softmax entropy of every decision.
    struct RecordingScheduler {
        inner: DecimaAgent,
        actions: Vec<Action>,
        entropies: Vec<f64>,
    }

    impl Scheduler for RecordingScheduler {
        fn on_episode_start(&mut self) {
            self.inner.on_episode_start();
        }
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            let before = self.inner.entropy_sum;
            let a = self.inner.decide(obs);
            if let Some(a) = a {
                self.actions.push(a);
            }
            // The tape lane sums entropies as it goes; the fast lane
            // computes one only when asked.
            self.entropies.push(match &self.inner.infer {
                Some(session) => session.node_entropy(),
                None => self.inner.entropy_sum - before,
            });
            a
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    /// Decorrelates the near-uniform initial policy (0.01-scaled heads
    /// would make every comparison a coin-flip over ties) by replacing
    /// all parameters with decisive random values.
    fn randomize_store(store: &mut ParamStore, seed: u64) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..store.len() {
            for v in store.value_mut(i).data_mut() {
                *v = rng.gen_range(-0.5..0.5);
            }
        }
    }

    /// Runs `agent` over `jobs` on five executors, returning the
    /// result, every action taken and every decision's entropy.
    fn run_recorded(
        agent: DecimaAgent,
        jobs: Vec<decima_core::JobSpec>,
        seed: u64,
    ) -> (decima_sim::EpisodeResult, Vec<Action>, Vec<f64>) {
        let mut rec = RecordingScheduler {
            inner: agent,
            actions: Vec::new(),
            entropies: Vec::new(),
        };
        let sim = Simulator::new(
            ClusterSpec::homogeneous(5).with_move_delay(0.5),
            jobs,
            SimConfig::default().with_seed(seed),
        );
        let r = sim.run(&mut rec);
        (r, rec.actions, rec.entropies)
    }

    #[test]
    fn fast_greedy_agent_matches_tape_greedy_episodes() {
        for seed in [1u64, 2, 3] {
            let (policy, mut store) = make_policy(5, ParallelismMode::JobLevel);
            randomize_store(&mut store, 100 + seed);
            let run = |agent| run_recorded(agent, tiny_batch(), seed);
            let tape_agent = DecimaAgent::greedy(policy.clone(), store.clone());
            assert!(!tape_agent.uses_fast_infer());
            let fast_agent = DecimaAgent::greedy_fast(policy.clone(), store.clone());
            assert!(fast_agent.uses_fast_infer(), "small config must pack");

            let (r1, a1, e1) = run(tape_agent);
            let (r2, a2, e2) = run(fast_agent);
            assert_eq!(a1, a2, "seed {seed}: action sequences diverged");
            assert_eq!(r1.avg_jct(), r2.avg_jct());
            assert_eq!(r1.num_events, r2.num_events);
            // Entropies come from different precisions; close, not equal.
            assert_eq!(e1.len(), e2.len());
            for (k, (h1, h2)) in e1.iter().zip(&e2).enumerate() {
                assert!(
                    (h1 - h2).abs() <= 1e-3 * h1.abs().max(1.0),
                    "seed {seed} decision {k}: entropy diverged: {h1} vs {h2}"
                );
            }
        }
    }

    /// A limit head whose first layer is wider than 64 — a shape any
    /// checkpoint can carry — runs on the fast lane (it used to panic in
    /// the shared-prefix kernel at the first decision) and takes the
    /// tape agent's actions.
    #[test]
    fn wide_limit_head_runs_on_the_fast_lane() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = PolicyConfig {
            hidden: vec![128, 16],
            ..PolicyConfig::small(5)
        };
        let policy = DecimaPolicy::new(cfg, &mut store, &mut rng);
        randomize_store(&mut store, 7);
        let one_job = || vec![tiny_batch().remove(0)];

        let fast = DecimaAgent::greedy_fast(policy.clone(), store.clone());
        assert!(
            fast.uses_fast_infer(),
            "a wide head is no reason to fall back"
        );
        let (r_fast, a_fast, _) = run_recorded(fast, one_job(), 1);
        let (r_tape, a_tape, _) = run_recorded(DecimaAgent::greedy(policy, store), one_job(), 1);
        assert_eq!(r_fast.completed(), 1);
        assert_eq!(a_fast, a_tape, "fast and tape lanes diverged");
        assert_eq!(r_fast.avg_jct(), r_tape.avg_jct());
    }

    /// The encoder keeps one memo per live job and nothing else: over an
    /// episode of 16 short jobs arriving every 2 s the memo count never
    /// exceeds the number of jobs in the observation just decided on,
    /// and an episode start drops them all.
    #[test]
    fn encoder_memos_are_bounded_by_the_live_jobs() {
        use decima_core::{JobBuilder, JobId, SimTime, StageSpec};
        struct Probe {
            inner: DecimaAgent,
            peak: usize,
        }
        impl Probe {
            fn memos(&self) -> usize {
                self.inner.infer.as_ref().map_or(0, InferSession::memo_len)
            }
        }
        impl Scheduler for Probe {
            fn on_episode_start(&mut self) {
                self.inner.on_episode_start();
                assert_eq!(self.memos(), 0, "memos survived an episode start");
            }
            fn decide(&mut self, obs: &Observation) -> Option<Action> {
                let action = self.inner.decide(obs);
                assert_eq!(self.memos(), obs.jobs.len(), "one memo per live job");
                self.peak = self.peak.max(self.memos());
                action
            }
        }
        let jobs = || -> Vec<_> {
            (0..16)
                .map(|i| {
                    let mut b = JobBuilder::new(JobId(i));
                    let first = b.stage(StageSpec::simple(2, 1.0));
                    let second = b.stage(StageSpec::simple(1, 1.0));
                    b.edge(first, second);
                    b.arrival(SimTime::from_secs(2.0 * i as f64))
                        .build()
                        .unwrap()
                })
                .collect()
        };
        let (policy, store) = make_policy(2, ParallelismMode::JobLevel);
        let mut probe = Probe {
            inner: DecimaAgent::greedy_fast(policy, store),
            peak: 0,
        };
        assert!(probe.inner.uses_fast_infer());
        for _ in 0..2 {
            let sim = Simulator::new(ClusterSpec::homogeneous(2), jobs(), SimConfig::default());
            let r = sim.run(&mut probe);
            assert_eq!(r.completed(), 16);
            assert!(probe.peak >= 1, "the memo was exercised");
            assert!(
                probe.peak <= r.mem.live_jobs_peak as usize,
                "memo peak {} above the live-job peak {}",
                probe.peak,
                r.mem.live_jobs_peak
            );
        }
    }

    #[test]
    fn fast_greedy_falls_back_on_unsupported_configs() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = PolicyConfig {
            gnn: None,
            ..PolicyConfig::small(5)
        };
        let policy = DecimaPolicy::new(cfg, &mut store, &mut rng);
        let agent = DecimaAgent::greedy_fast(policy, store);
        assert!(!agent.uses_fast_infer(), "no-GNN ablation stays on tape");
    }

    #[test]
    fn greedy_is_deterministic() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let run = || {
            let mut agent = DecimaAgent::greedy(policy.clone(), store.clone());
            let sim = Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            );
            sim.run(&mut agent).avg_jct().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn variants_run_to_completion() {
        for mode in [
            ParallelismMode::StageLevel,
            ParallelismMode::OneHot,
            ParallelismMode::Disabled,
        ] {
            let (policy, store) = make_policy(5, mode);
            let mut agent = DecimaAgent::sampler(policy, store, 3);
            let sim = Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tiny_batch(),
                SimConfig::default().with_seed(1),
            );
            let r = sim.run(&mut agent);
            assert_eq!(r.completed(), 2, "mode {mode:?} failed to finish");
        }
    }

    #[test]
    fn no_gnn_ablation_runs() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = PolicyConfig {
            gnn: None,
            ..PolicyConfig::small(5)
        };
        let policy = DecimaPolicy::new(cfg, &mut store, &mut rng);
        let mut agent = DecimaAgent::sampler(policy, store, 3);
        let sim = Simulator::new(
            ClusterSpec::homogeneous(5).with_move_delay(0.5),
            tiny_batch(),
            SimConfig::default().with_seed(1),
        );
        let r = sim.run(&mut agent);
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn multi_resource_actions_fit_memory() {
        use decima_workload::tpch::with_random_memory;
        let mut rng = SmallRng::seed_from_u64(5);
        let jobs: Vec<_> = tiny_batch()
            .into_iter()
            .map(|j| with_random_memory(j, &mut rng))
            .collect();
        let mut store = ParamStore::new();
        let mut prng = SmallRng::seed_from_u64(0);
        let cfg = PolicyConfig {
            num_classes: 4,
            ..PolicyConfig::small(8)
        };
        let policy = DecimaPolicy::new(cfg, &mut store, &mut prng);
        let mut agent = DecimaAgent::sampler(policy, store, 9);
        let sim = Simulator::new(
            ClusterSpec::four_class(8).with_move_delay(0.5),
            jobs,
            SimConfig::default().with_seed(1),
        );
        let r = sim.run(&mut agent);
        assert_eq!(r.completed(), 2, "multi-resource episode must finish");
    }

    #[test]
    fn batch_of_tpch_jobs_runs_with_sampler() {
        // A slightly larger smoke test on the real generator.
        let jobs = tpch_batch(4, 11)
            .into_iter()
            .map(|mut j| {
                // Shrink for test speed.
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect::<Vec<_>>();
        let (policy, store) = make_policy(10, ParallelismMode::JobLevel);
        let mut agent = DecimaAgent::sampler(policy, store, 1);
        let sim = Simulator::new(
            ClusterSpec::homogeneous(10).with_move_delay(1.0),
            jobs,
            SimConfig::default().with_seed(2),
        );
        let r = sim.run(&mut agent);
        assert_eq!(r.completed(), 4);
    }
}
