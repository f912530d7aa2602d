//! The heuristic lane's steady state does not allocate: every `decide`
//! of `fifo`, `sjf-cp` and `tetris` makes zero heap allocations, and
//! `fair` / `weighted-fair` make zero once their per-job buffers have
//! been sized by the first decision of a batch (SJF-CP used to make two
//! per decision — the critical-path vectors — and the fair family two —
//! weights and targets). Counted by the workspace's counting
//! `#[global_allocator]` (`tests/support/counting_alloc.rs`), in one
//! test so nothing else in this process allocates meanwhile.

use decima_baselines::{FifoScheduler, SjfCpScheduler, TetrisScheduler, WeightedFairScheduler};
use decima_core::ClusterSpec;
use decima_sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::{tpch_batch, with_random_memory};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Counts the allocations of each `decide` of the wrapped scheduler.
struct Counted<S> {
    inner: S,
    per_decision: Vec<u64>,
}

impl<S: Scheduler> Scheduler for Counted<S> {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let before = allocations();
        let action = self.inner.decide(obs);
        let made = allocations() - before;
        self.per_decision.push(made);
        action
    }
}

/// Allocations per decision over one episode: a 20-job batch with
/// per-stage memory demands on the four-class cluster, so the
/// class-annotating path runs too.
fn episode(inner: impl Scheduler) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(5);
    let jobs = tpch_batch(20, 3)
        .into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / 8).max(1);
            }
            with_random_memory(j, &mut rng)
        })
        .collect();
    let sim = Simulator::new(
        ClusterSpec::four_class(12).with_move_delay(1.0),
        jobs,
        SimConfig::default().with_seed(1),
    );
    let mut counted = Counted {
        inner,
        per_decision: Vec::with_capacity(4096),
    };
    let r = sim.run(&mut counted);
    assert_eq!(r.completed(), 20);
    assert!(counted.per_decision.len() > 200, "an episode of decisions");
    counted.per_decision
}

#[test]
fn steady_state_heuristic_decisions_do_not_allocate() {
    let total = |counts: &[u64]| counts.iter().sum::<u64>();
    for (name, counts) in [
        ("fifo", episode(FifoScheduler)),
        ("sjf-cp", episode(SjfCpScheduler)),
        ("tetris", episode(TetrisScheduler)),
    ] {
        assert_eq!(
            total(&counts),
            0,
            "{name} allocated in `decide`: {} allocations over {} decisions",
            total(&counts),
            counts.len()
        );
    }
    // All twenty jobs are live at the first decision: it sizes the
    // buffers for the rest of the episode.
    for (name, counts) in [
        ("fair", episode(WeightedFairScheduler::fair())),
        (
            "weighted-fair:-1",
            episode(WeightedFairScheduler::new(-1.0)),
        ),
    ] {
        assert!(counts[0] <= 2, "{name} warm-up made {}", counts[0]);
        assert_eq!(
            total(&counts[1..]),
            0,
            "{name} allocated after its first decision: {} allocations over {} decisions",
            total(&counts[1..]),
            counts.len() - 1
        );
    }
}
