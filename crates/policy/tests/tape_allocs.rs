//! The tape lane's steady state does not allocate: a decision re-scored
//! by a `GradientPass` on its kept tape, and a recorded rollout decision,
//! each stay
//! under a small pinned number of heap allocations (the old
//! tape-per-decision execution made 814 and 315), and a stored decision
//! written back into a warm scratch observation makes none. Counted by the
//! workspace's counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`), on the test's own thread
//! only.

use decima_core::ClusterSpec;
use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, GradientPass, PolicyConfig, ReplayObs};
use decima_sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::tpch_batch;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, bytes};

/// Schedules greedily and keeps the observation of its `keep`-th
/// decision.
struct Capture {
    keep: usize,
    seen: usize,
    kept: Option<Observation>,
}

impl Scheduler for Capture {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        if self.seen == self.keep {
            self.kept = Some(obs.clone());
        }
        self.seen += 1;
        let &(j, s) = obs.schedulable.first()?;
        Some(Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1))
    }
}

/// Allocations of each of `n` calls of `decide`; the bytes they asked
/// for are printed, not pinned.
fn per_decision(what: &str, n: usize, mut decide: impl FnMut()) -> Vec<u64> {
    let (mut counts, mut sizes) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let before = (allocations(), bytes());
        decide();
        counts.push(allocations() - before.0);
        sizes.push(bytes() - before.1);
    }
    println!("{what}: allocations {counts:?}, bytes {sizes:?}");
    counts
}

#[test]
fn steady_state_decisions_stay_under_their_allocation_pins() {
    const DECISIONS: usize = 24;
    const WARM_UP: usize = 4;
    let mut store = ParamStore::new();
    let policy = DecimaPolicy::new(
        PolicyConfig::small(15),
        &mut store,
        &mut SmallRng::seed_from_u64(0),
    );
    // A ten-job observation: the benchmark warm-up's shape.
    let mut capture = Capture {
        keep: 5,
        seen: 0,
        kept: None,
    };
    let sim = Simulator::new(
        ClusterSpec::homogeneous(15),
        tpch_batch(10, 3),
        SimConfig::default().with_seed(1),
    );
    let _ = sim.run(&mut capture);
    let obs = capture
        .kept
        .expect("the episode has more than five decisions");
    assert!(obs.jobs.len() >= 8 && obs.schedulable.len() >= 2);

    // A rollout decision: forward pass, three samples, the stored
    // `ReplayObs` (five `Vec`s whatever the job count: jobs, their
    // nodes, two per-class columns, the schedulable set). 9 a decision,
    // 11 where the recorder's own vectors double.
    let mut recorder = DecimaAgent::recorder(policy.clone(), store.clone(), 7);
    recorder.on_episode_start();
    let rollout = per_decision("rollout", DECISIONS, || {
        recorder.decide(&obs);
    });

    // A gradient decision: forward, loss, backward, on the kept tape.
    let choice = recorder.records[0];
    let mut pass = GradientPass::new(policy, store, 0.03);
    let gradient = per_decision("gradient", DECISIONS, || {
        pass.add(&obs, choice, 0.5);
    });
    assert!(pass.finish().grad_norm() > 0.0);

    // A stored decision written back, as the gradient pass over a
    // trajectory does: the scratch observation's entries are
    // overwritten in place.
    let stored = ReplayObs::from_observation(&obs);
    let mut scratch = Observation::default();
    let replay = per_decision("replay write", DECISIONS, || {
        stored.write_into(&mut scratch);
    });

    let steady = |counts: &[u64]| counts[WARM_UP..].iter().copied().max().unwrap_or(0);
    assert!(
        steady(&gradient) <= 8,
        "a steady-state gradient decision made {} allocations: {gradient:?}",
        steady(&gradient)
    );
    assert!(
        steady(&rollout) <= 11,
        "a steady-state recorder decision made {} allocations: {rollout:?}",
        steady(&rollout)
    );
    assert_eq!(
        steady(&replay),
        0,
        "a warm replay write allocated: {replay:?}"
    );
}
