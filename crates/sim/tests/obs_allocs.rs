//! A steady-state observation write allocates nothing: the pooled
//! observation, the recycled node vectors and the per-job open-stage
//! lists are all reused from one decision to the next, across structure
//! rebuilds too.
//!
//! `write_observation` is private, so the count is taken over the gap it
//! sits in: from the return of one `decide` to the entry of the next —
//! the engine tallies and applies the action, handles events, retires
//! jobs and writes the next observation. The episode is shaped so that
//! the other steps allocate a known amount once half the batch has
//! retired: a retirement folds the job into its outcome (one
//! allocation: the per-class busy time); the decision tally is fixed
//! size; the executor sets are bitsets sized once, for the ten
//! executors; and the event heap holds at most one event per executor
//! (arrivals wait in a vector built with the simulator), so it is
//! full-sized once all ten first run. What is left over is the
//! observation write's, and is pinned at the two it measures — where
//! one allocation per write, per dirty job or per rebuild would be tens
//! to hundreds. Counted by the workspace's
//! counting `#[global_allocator]` (`tests/support/counting_alloc.rs`),
//! on the test's own thread only.

use decima_core::ClusterSpec;
use decima_sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::tpch_batch;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const JOBS: usize = 40;

/// Spreads executors one at a time over the jobs (smallest allocation
/// first), so many jobs are open and dirty at once, and sums what the
/// gaps between its decisions allocated beyond their retirements once
/// half the batch is gone.
struct GapCounter {
    /// Counter value and live jobs when the last `decide` returned.
    last: Option<(u64, usize)>,
    gaps: u64,
    rebuilds: u64,
    unexplained: u64,
}

impl Scheduler for GapCounter {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let now = allocations();
        let live = obs.jobs.len();
        if let Some((then, before)) = self.last.filter(|&(_, before)| before <= JOBS / 2) {
            let retired = (before - live) as u64;
            self.gaps += 1;
            self.rebuilds += u64::from(retired > 0);
            self.unexplained += (now - then).saturating_sub(retired);
        }
        let action = obs
            .schedulable
            .iter()
            .min_by_key(|&&(j, _)| obs.jobs[j].alloc)
            .map(|&(j, s)| Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1));
        self.last = Some((allocations(), live));
        action
    }
}

#[test]
fn a_steady_state_observation_write_does_not_allocate() {
    let jobs = tpch_batch(JOBS, 3)
        .into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / 8).max(1);
            }
            j
        })
        .collect();
    let sim = Simulator::new(
        ClusterSpec::homogeneous(10).with_move_delay(1.0),
        jobs,
        SimConfig::default().with_seed(1),
    );
    let mut sched = GapCounter {
        last: None,
        gaps: 0,
        rebuilds: 0,
        unexplained: 0,
    };
    let r = sim.run(&mut sched);
    assert_eq!(r.completed(), JOBS);
    let GapCounter {
        gaps,
        rebuilds,
        unexplained,
        ..
    } = sched;
    println!("{unexplained} unexplained allocations over {gaps} gaps, {rebuilds} with a rebuild");
    assert!(
        gaps >= 150 && rebuilds >= 15,
        "an episode's second half: {gaps} gaps, {rebuilds} rebuilds"
    );
    assert!(
        unexplained <= 2,
        "{unexplained} allocations over {gaps} gaps ({rebuilds} with a rebuild) are not a \
         retirement's: the observation write is no longer allocation-free"
    );
}
