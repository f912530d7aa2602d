//! The scheduling agent: a [`DecimaPolicy`] driving the simulator, and
//! the gradient pass over the decisions it recorded.
//!
//! A [`DecimaAgent`] decides greedily (argmax: evaluation) or by
//! sampling from the policy with its own seeded RNG (rollouts). A
//! greedy agent built with [`DecimaAgent::greedy_fast`] decides on the
//! `f32` lane ([`InferSession`]) wherever that lane covers the
//! configuration; every other decision is scored on the agent's kept
//! `f64` tape.
//!
//! A sampler built with [`DecimaAgent::recorder`] also keeps each
//! decision's [`ActionChoice`] and the compact [`ReplayObs`] it decided
//! on: the subset of fields the forward pass reads. [`GradientPass`]
//! re-scores recorded decisions with the same tape scoring routine a
//! decision runs, fed the recorded rows instead of picking its own, and
//! accumulates Algorithm 1's loss gradient (§5.3);
//! [`DecimaAgent::accumulate_from_observations`] runs it over a stored
//! trajectory. Nothing schedules and nothing is simulated again during
//! the gradient pass.

use crate::infer::InferSession;
use crate::policy::{Candidate, DecimaPolicy, ParallelismMode};
use crate::replay::ReplayObs;
use decima_core::{ClassId, StageId};
use decima_gnn::GraphCache;
use decima_nn::{ParamStore, Tape, TensorId};
use decima_sim::{Action, Observation, Scheduler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The sampled indices of one decision (into the candidate/limit/class
/// arrays the policy constructed for that step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionChoice {
    /// Row in the node softmax.
    pub node: usize,
    /// Row in the limit softmax (0 when parallelism control is disabled).
    pub limit: usize,
    /// Row in the class softmax, if the cluster is multi-class.
    pub class: Option<usize>,
}

/// How [`score`] picks each head's row.
enum Pick<'a> {
    /// The highest log-probability; ties go to the last maximum.
    Argmax,
    /// A draw from the head's softmax.
    Sample(&'a mut SmallRng),
    /// The rows a recorded decision took.
    Recorded(ActionChoice),
}

impl Pick<'_> {
    /// The row of the `[n, 1]` log-probability column `logp` to take;
    /// `recorded` reads a recorded decision's row for this head.
    fn row(&mut self, tape: &Tape, logp: TensorId, recorded: fn(&ActionChoice) -> usize) -> usize {
        let t = tape.value(logp);
        match self {
            Pick::Argmax => (0..t.rows())
                .max_by(|&a, &b| t.get(a, 0).total_cmp(&t.get(b, 0)))
                .unwrap_or(0),
            Pick::Sample(rng) => {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                (0..t.rows())
                    .find(|&i| {
                        acc += t.get(i, 0).exp();
                        u < acc
                    })
                    .unwrap_or(t.rows() - 1)
            }
            Pick::Recorded(choice) => recorded(choice),
        }
    }
}

/// One decision scored on the tape: its action, the rows picked, and
/// the log-probability columns they were picked from.
struct Scored {
    action: Action,
    choice: ActionChoice,
    /// `(column, row)` per head that ran, node first; the first `heads`
    /// entries are set (the limit head is skipped when parallelism
    /// control is disabled, the class head on a single-class cluster or
    /// when no class fits).
    picked: [(TensorId, usize); 3],
    heads: usize,
}

/// The tape lane: runs the node, limit and class heads on `tape` (reset
/// first) and picks each head's row by `pick`. A recorded row out of
/// range panics where it indexes its head.
fn score(
    policy: &DecimaPolicy,
    store: &ParamStore,
    tape: &mut Tape,
    cache: &mut GraphCache,
    obs: &Observation,
    mut pick: Pick,
) -> Scored {
    tape.reset();
    let fwd = policy.forward_nodes_cached(tape, store, obs, cache);
    let node = pick.row(tape, fwd.node_logp, |c| c.node);
    let cand = fwd.cands[node];
    let mut picked = [(fwd.node_logp, node); 3];
    let mut heads = 1;

    let (limit, limit_row) = if policy.cfg.parallelism == ParallelismMode::Disabled {
        (obs.total_executors, 0)
    } else {
        let lf = policy.forward_limits(tape, store, obs, &fwd, cand);
        let row = pick.row(tape, lf.logp, |c| c.limit);
        picked[heads] = (lf.logp, row);
        heads += 1;
        (lf.values[row], row)
    };

    let class = policy
        .forward_classes(tape, store, obs, &fwd, cand)
        .map(|cf| {
            // A record without a class row has none in a class column.
            let row = pick.row(tape, cf.logp, |c| c.class.unwrap_or(usize::MAX));
            picked[heads] = (cf.logp, row);
            heads += 1;
            (row, ClassId(cf.classes[row] as u16))
        });
    Scored {
        action: action(policy, obs, cand, limit, class.map(|(_, c)| c)),
        choice: ActionChoice {
            node,
            limit: limit_row,
            class: class.map(|(row, _)| row),
        },
        picked,
        heads,
    }
}

/// The action that schedules `cand` under `limit` (and on `class`).
fn action(
    policy: &DecimaPolicy,
    obs: &Observation,
    cand: Candidate,
    limit: usize,
    class: Option<ClassId>,
) -> Action {
    let mut action = Action::new(obs.jobs[cand.job_idx].id, StageId(cand.stage), limit);
    if policy.cfg.parallelism == ParallelismMode::StageLevel {
        action = action.stage_scoped();
    }
    match class {
        Some(c) => action.with_class(c),
        None => action,
    }
}

/// The entropy (nats) of the softmax whose log-probabilities are `logp`.
fn entropy(tape: &Tape, logp: TensorId) -> f64 {
    tape.value(logp).data().iter().map(|&l| -l.exp() * l).sum()
}

/// A Decima scheduling agent: a policy, its parameters, and how it
/// picks (argmax, or a sample from its RNG).
pub struct DecimaAgent {
    /// The policy architecture (cheap to clone; references `store`).
    pub policy: DecimaPolicy,
    /// Parameter values.
    pub store: ParamStore,
    /// The sampling RNG; a greedy agent has none and takes the argmax.
    rng: Option<SmallRng>,
    /// Keep `records` and `observations` (a recorder).
    record: bool,
    /// The rows each decision picked, in decision order (only when
    /// built with [`DecimaAgent::recorder`]).
    pub records: Vec<ActionChoice>,
    /// Compact observations recorded in decision order (only when built
    /// with [`DecimaAgent::recorder`]).
    pub observations: Vec<ReplayObs>,
    /// Sum of node-softmax entropies observed (nats), for the trainer's
    /// logging. A tape-lane quantity: the greedy `f32` lane never reads
    /// an entropy and leaves this at zero — ask
    /// [`InferSession::node_entropy`] for a fast-lane decision's.
    pub entropy_sum: f64,
    /// Cached static graph structure, reused across an episode's
    /// decisions and cleared at episode start.
    cache: GraphCache,
    /// The one tape every tape-lane decision of this agent is scored
    /// on: reset per decision, its buffers kept (see `decima_nn::tape`).
    tape: Tape,
    /// Tape-free `f32` fast path; present only on greedy agents built
    /// with [`DecimaAgent::greedy_fast`] for a supported configuration.
    infer: Option<InferSession>,
}

impl DecimaAgent {
    fn new(policy: DecimaPolicy, store: ParamStore, rng: Option<SmallRng>, record: bool) -> Self {
        let cache = GraphCache::with_cap(policy.cfg.graph_cache_cap);
        DecimaAgent {
            policy,
            store,
            rng,
            record,
            records: Vec::new(),
            observations: Vec::new(),
            entropy_sum: 0.0,
            cache,
            tape: Tape::new(),
            infer: None,
        }
    }

    /// Rollout agent: samples actions with the given seed and keeps
    /// nothing per decision.
    pub fn sampler(policy: DecimaPolicy, store: ParamStore, seed: u64) -> Self {
        Self::new(policy, store, Some(SmallRng::seed_from_u64(seed)), false)
    }

    /// Trajectory-recording rollout agent: samples exactly like
    /// [`DecimaAgent::sampler`] and also keeps every decision's rows in
    /// [`DecimaAgent::records`] and the observation it decided on in
    /// [`DecimaAgent::observations`], so the gradient pass can run from
    /// the stored trajectory without re-simulating.
    pub fn recorder(policy: DecimaPolicy, store: ParamStore, seed: u64) -> Self {
        Self::new(policy, store, Some(SmallRng::seed_from_u64(seed)), true)
    }

    /// Evaluation agent: deterministic argmax actions on the exact
    /// `f64` tape path.
    pub fn greedy(policy: DecimaPolicy, store: ParamStore) -> Self {
        Self::new(policy, store, None, false)
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

    /// The gradient pass over a stored trajectory: a [`GradientPass`]
    /// fed each stored observation, written back into one reused
    /// scratch [`Observation`], with its recorded choice and advantage.
    /// Because the stored observations carry every field the forward
    /// pass reads, bit for bit, the result is bit-identical to the pass
    /// over the live observations — with zero simulation work.
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
        assert_eq!(choices.len(), advantages.len(), "one advantage per step");
        let mut pass = GradientPass::new(policy, store, entropy_beta);
        let mut scratch = Observation::default();
        for ((obs, choice), advantage) in observations.iter().zip(choices).zip(advantages) {
            obs.write_into(&mut scratch);
            pass.add(&scratch, choice, advantage);
        }
        pass.finish()
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
        if self.record {
            self.observations.push(ReplayObs::from_observation(obs));
        }
        if let Some(session) = &mut self.infer {
            let fd = session.decide_greedy(&self.policy, obs, &mut self.cache);
            return Some(action(&self.policy, obs, fd.cand, fd.limit, None));
        }
        let pick = match &mut self.rng {
            Some(rng) => Pick::Sample(rng),
            None => Pick::Argmax,
        };
        let scored = score(
            &self.policy,
            &self.store,
            &mut self.tape,
            &mut self.cache,
            obs,
            pick,
        );
        self.entropy_sum += entropy(&self.tape, scored.picked[0].0);
        if self.record {
            self.records.push(scored.choice);
        }
        Some(scored.action)
    }

    fn name(&self) -> &str {
        "decima"
    }
}

/// The gradient pass of Algorithm 1 (§5.3): each
/// [`add`](GradientPass::add) re-scores one recorded decision on a kept
/// tape and accumulates `advantage·∇(−log π(a)) − β·∇H` (`H` the node
/// softmax's entropy) into the store's gradient buffers.
pub struct GradientPass {
    policy: DecimaPolicy,
    store: ParamStore,
    entropy_beta: f64,
    cache: GraphCache,
    tape: Tape,
}

impl GradientPass {
    /// A pass accumulating into `store`'s gradient buffers with entropy
    /// weight `entropy_beta`.
    pub fn new(policy: DecimaPolicy, store: ParamStore, entropy_beta: f64) -> Self {
        let cache = GraphCache::with_cap(policy.cfg.graph_cache_cap);
        GradientPass {
            policy,
            store,
            entropy_beta,
            cache,
            tape: Tape::new(),
        }
    }

    /// Re-scores the decision that took the rows `choice` on `obs` and
    /// accumulates its loss gradient, weighted by `advantage`. Panics if
    /// a row of `choice` is out of range on `obs`.
    pub fn add(&mut self, obs: &Observation, choice: ActionChoice, advantage: f64) {
        let s = score(
            &self.policy,
            &self.store,
            &mut self.tape,
            &mut self.cache,
            obs,
            Pick::Recorded(choice),
        );
        let tape = &mut self.tape;
        // loss = −adv·log π(a) − β·H(node softmax)
        let node_logp = s.picked[0].0;
        let mut terms = [node_logp; 3];
        for (term, &(logp, row)) in terms.iter_mut().zip(&s.picked[..s.heads]) {
            *term = tape.pick(logp, row, 0);
        }
        let cat = tape.concat_rows(&terms[..s.heads]);
        let logp = tape.sum_all(cat);
        let mut loss = tape.scale(logp, -advantage);
        if self.entropy_beta != 0.0 {
            let p = tape.exp(node_logp);
            let pl = tape.mul(p, node_logp);
            let neg_h = tape.sum_all(pl); // = −H
            let ent_term = tape.scale(neg_h, self.entropy_beta);
            loss = tape.add(loss, ent_term);
        }
        tape.backward(loss, 1.0, &mut self.store);
    }

    /// The store, its gradient buffers holding the pass's sum.
    pub fn finish(self) -> ParamStore {
        self.store
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

    fn small_sim(seed: u64) -> Simulator {
        Simulator::new(
            ClusterSpec::homogeneous(5).with_move_delay(0.5),
            tiny_batch(),
            SimConfig::default().with_seed(seed),
        )
    }

    #[test]
    fn sampling_episode_completes_and_records() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mut agent = DecimaAgent::recorder(policy, store, 42);
        let r = small_sim(1).run(&mut agent);
        assert_eq!(r.completed(), 2, "all jobs must finish");
        assert!(!agent.records.is_empty());
        assert_eq!(agent.records.len(), r.actions.len());
        assert_eq!(agent.observations.len(), r.actions.len());
        assert!(r.wasted_actions == 0, "every action must assign work");
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
            small_sim(1).run(DecimaAgent::sampler(policy, store, seed))
        };
        let base = run(7);
        base.same_run(&run(7)).expect("same seed, same run");
        // Across a handful of seeds, at least one trajectory must differ
        // (the policy is stochastic).
        assert!(
            (0..6).any(|s| run(s).same_run(&base).is_err()),
            "sampling produced identical trajectories for every seed"
        );
    }

    #[test]
    fn recorder_matches_sampler_and_stores_observations() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let mut sampler = DecimaAgent::sampler(policy.clone(), store.clone(), 42);
        let r1 = small_sim(1).run(&mut sampler);
        let mut recorder = DecimaAgent::recorder(policy, store, 42);
        let r2 = small_sim(1).run(&mut recorder);
        r1.same_run(&r2).expect("recording must not perturb");
        assert_eq!(recorder.records.len(), r2.actions.len());
        assert_eq!(recorder.observations.len(), recorder.records.len());
        assert!(sampler.records.is_empty() && sampler.observations.is_empty());
    }

    /// The recorder's own episode, stepped by hand: every observation
    /// it decided on, cloned live, and the agent.
    fn record_live(agent: DecimaAgent, mut sim: Simulator) -> (DecimaAgent, Vec<Observation>) {
        let mut agent = agent;
        let mut live = Vec::new();
        agent.on_episode_start();
        while let Some(pending) = sim.step() {
            live.push(pending.observation().clone());
            let action = agent.decide(pending.observation());
            pending.resume(action);
        }
        (agent, live)
    }

    /// The gradient computed from stored observations is bit-identical
    /// to the gradient from the live observations they were taken from.
    #[test]
    fn stored_observation_gradient_matches_live_observations() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let recorder = DecimaAgent::recorder(policy.clone(), store.clone(), 42);
        let (recorder, live) = record_live(recorder, small_sim(1));
        let advantages: Vec<f64> = (0..live.len()).map(|k| (k as f64 * 0.37).sin()).collect();

        let mut pass = GradientPass::new(policy.clone(), store.clone(), 0.03);
        for ((obs, &choice), &adv) in live.iter().zip(&recorder.records).zip(&advantages) {
            pass.add(obs, choice, adv);
        }
        let from_live = pass.finish();
        let from_stored = DecimaAgent::accumulate_from_observations(
            policy,
            store,
            &recorder.observations,
            recorder.records.clone(),
            advantages,
            0.03,
        );
        assert!(from_stored.grad_norm() > 0.0);
        for i in 0..from_stored.len() {
            let a = from_live.grad(i).data();
            let b = from_stored.grad(i).data();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "param {i} gradient differs");
            }
        }
    }

    /// A recorded row the observation has no row for is an error in the
    /// record, not a row to clamp to.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_recorded_row_out_of_range_panics() {
        let (policy, store) = make_policy(5, ParallelismMode::JobLevel);
        let (_, live) = record_live(
            DecimaAgent::greedy(policy.clone(), store.clone()),
            small_sim(1),
        );
        let choice = ActionChoice {
            node: live[0].schedulable.len(),
            limit: 0,
            class: None,
        };
        GradientPass::new(policy, store, 0.0).add(&live[0], choice, 1.0);
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
