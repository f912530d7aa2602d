//! The tape lane's steady state does not allocate: a decision re-scored
//! on the agent's kept tape, and a recorded rollout decision, each stay
//! under a small pinned number of heap allocations (the old
//! tape-per-decision execution made 814 and 315). Counted by a
//! `#[global_allocator]` that forwards to the system allocator, in one
//! test so nothing else in this process allocates meanwhile.

use decima_core::ClusterSpec;
use decima_nn::ParamStore;
use decima_policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima_sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::tpch_batch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is the only addition.
// (`realloc` and `alloc_zeroed` default to `alloc`, so they count too.)
// decima-lint: allow(D004) — GlobalAlloc is an unsafe trait; test-only counting allocator
unsafe impl GlobalAlloc for Counting {
    // decima-lint: allow(D004) — signature fixed by GlobalAlloc
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // decima-lint: allow(D004) — signature fixed by GlobalAlloc
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let (mut counts, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let before = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        decide();
        counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before.0);
        bytes.push(BYTES.load(Ordering::Relaxed) - before.1);
    }
    println!("{what}: allocations {counts:?}, bytes {bytes:?}");
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
    // `ReplayObs` (which is what is left: one `Vec` per job and five
    // more).
    let mut recorder = DecimaAgent::recorder(policy.clone(), store.clone(), 7);
    recorder.on_episode_start();
    let rollout = per_decision("rollout", DECISIONS, || {
        recorder.decide(&obs);
    });

    // A gradient decision: forward, loss, backward, on the kept tape.
    let choice = recorder.records[0];
    let mut replayer = DecimaAgent::replayer(
        policy,
        store,
        vec![choice; DECISIONS],
        vec![0.5; DECISIONS],
        0.03,
    );
    replayer.on_episode_start();
    let gradient = per_decision("gradient", DECISIONS, || {
        replayer.decide(&obs);
    });
    assert!(replayer.store.grad_norm() > 0.0);

    let steady = |counts: &[u64]| counts[WARM_UP..].iter().copied().max().unwrap_or(0);
    assert!(
        steady(&gradient) <= 8,
        "a steady-state gradient decision made {} allocations: {gradient:?}",
        steady(&gradient)
    );
    assert!(
        steady(&rollout) <= 24,
        "a steady-state recorder decision made {} allocations: {rollout:?}",
        steady(&rollout)
    );
}
