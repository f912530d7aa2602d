//! The `f32` lane's steady state does not allocate: once an agent has
//! run an episode, a greedy fast-path decision over the same live job
//! set as the decision before it makes no heap allocation at all — the
//! structure is reused, the encoder's memos and every buffer of the
//! sweep and the heads are kept. Decisions where the live set moved
//! (an arrival or a retirement rebases the memos) are not pinned.
//!
//! Counted by the workspace's counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`) around `decide` alone, on the
//! calling thread, in one test.

use decima_core::{ClusterSpec, JobId, JobSpec};
use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima_sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::{tpch_batch, tpch_stream};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Counts the allocations of each `decide` of a greedy fast-path agent
/// whose live job set equals the previous decision's.
struct Counter {
    inner: DecimaAgent,
    /// The previous decision's live job ids (kept outside the counted
    /// window, so it may allocate).
    last: Vec<JobId>,
    /// Steady decisions seen, and those that allocated (decision index
    /// within the episode, allocations).
    steady: usize,
    allocating: Vec<(usize, u64)>,
    decision: usize,
}

impl Scheduler for Counter {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
        self.last.clear();
        self.steady = 0;
        self.allocating.clear();
        self.decision = 0;
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let same = !self.last.is_empty() && self.last.iter().eq(obs.jobs.iter().map(|j| &j.id));
        let before = allocations();
        let action = self.inner.decide(obs);
        let made = allocations() - before;
        if same {
            self.steady += 1;
            if made > 0 {
                self.allocating.push((self.decision, made));
            }
        }
        self.last.clear();
        self.last.extend(obs.jobs.iter().map(|j| j.id));
        self.decision += 1;
        action
    }
}

/// Runs one agent through two identical episodes of `jobs` on
/// `executors`, and returns the second episode's steady decision count
/// and the ones among them that allocated.
fn second_episode(jobs: impl Fn() -> Vec<JobSpec>, executors: usize) -> (usize, Vec<(usize, u64)>) {
    let mut store = ParamStore::new();
    let policy = DecimaPolicy::new(
        PolicyConfig::small(executors),
        &mut store,
        &mut SmallRng::seed_from_u64(0),
    );
    let mut counter = Counter {
        inner: DecimaAgent::greedy_fast(policy, store),
        last: Vec::new(),
        steady: 0,
        allocating: Vec::new(),
        decision: 0,
    };
    assert!(counter.inner.uses_fast_infer());
    for _ in 0..2 {
        let sim = Simulator::new(
            ClusterSpec::homogeneous(executors),
            jobs(),
            SimConfig::default().with_seed(1),
        );
        let r = sim.run(&mut counter);
        assert_eq!(r.completed(), jobs().len());
    }
    (counter.steady, counter.allocating)
}

#[test]
fn a_steady_fast_path_decision_does_not_allocate() {
    for (what, (steady, allocating)) in [
        ("batch", second_episode(|| tpch_batch(40, 3), 50)),
        ("stream", second_episode(|| tpch_stream(300, 45.0, 5), 15)),
    ] {
        println!(
            "{what}: {} of {steady} steady decisions allocated: {allocating:?}",
            allocating.len()
        );
        assert!(steady >= 1000, "{what}: only {steady} steady decisions");
        assert!(
            allocating.is_empty(),
            "{what}: {} of {steady} steady decisions allocated \
             (decision, allocations): {allocating:?}",
            allocating.len()
        );
    }
}
