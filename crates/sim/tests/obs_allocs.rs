//! A steady-state observation write allocates nothing: the pooled
//! observation and the recycled node vectors are reused from one
//! decision to the next, across structure rebuilds too, and each live
//! job's open-stage list lives in its arena slot, which lends it to the
//! slot's next occupant.
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
//!
//! The second pin counts the same gaps in a stream, where a gap holds
//! one admission into a slot an earlier job vacated: what the engine
//! allocates to admit a job once the arena is warm.

use decima_core::{ClusterSpec, JobId, SimTime};
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

/// Jobs that arrive at a warm arena. Spreads executors like
/// [`GapCounter`] and, for every gap in which exactly one job was
/// admitted, none retired and the live count stayed at or below the
/// peak seen at an earlier decision (so the arena had a free slot to
/// recycle), records what the gap allocated.
struct AdmissionCounter {
    /// Counter value when the last `decide` returned.
    last: Option<u64>,
    /// Ids of the jobs in the last observation.
    seen: Vec<u32>,
    peak: usize,
    recycled: Vec<u64>,
}

impl Scheduler for AdmissionCounter {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let now = allocations();
        let has = |id: u32| obs.jobs.iter().any(|j| j.id.0 == id);
        let retired = self.seen.iter().filter(|&&id| !has(id)).count();
        let admitted = obs
            .jobs
            .iter()
            .filter(|j| !self.seen.contains(&j.id.0))
            .count();
        if let Some(then) = self.last {
            if admitted == 1 && retired == 0 && obs.jobs.len() <= self.peak {
                self.recycled.push(now - then);
            }
        }
        self.peak = self.peak.max(obs.jobs.len());
        self.seen.clear();
        self.seen.extend(obs.jobs.iter().map(|j| j.id.0));
        let action = obs
            .schedulable
            .iter()
            .min_by_key(|&&(j, _)| obs.jobs[j].alloc)
            .map(|&(j, s)| Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1));
        self.last = Some(allocations());
        action
    }
}

/// What the engine allocates to admit a job into a recycled slot: the
/// profile's `Arc` and its critical-path vector, with the per-stage
/// work it is computed from. Everything else an admission touches —
/// the slot, its node and busy-time vectors, the active list, the
/// observation's pooled job entry — is reused.
const ADMISSION: u64 = 3;

#[test]
fn an_admission_into_a_recycled_slot_allocates_only_its_profile() {
    const WARM: usize = 6;
    const STREAM: usize = 40;
    // One job shape throughout, so every recycled node vector (the
    // arena's and the observation's) is already large enough.
    let template = tpch_batch(1, 3).remove(0);
    let jobs = (0..WARM + STREAM)
        .map(|i| {
            let mut j = template.clone();
            j.id = JobId(i as u32);
            // Job 0 outlives the stream, so each retirement ends at a
            // decision of its own instead of sharing a gap with the
            // next admission.
            for s in &mut j.stages {
                s.num_tasks = if i == 0 {
                    s.num_tasks * 16
                } else {
                    (s.num_tasks / 8).max(1)
                };
            }
            let t = i.saturating_sub(WARM) as f64 * 10.0;
            j.arrival = SimTime::from_secs(t);
            j
        })
        .collect();
    let sim = Simulator::new(
        ClusterSpec::homogeneous(10).with_move_delay(1.0),
        jobs,
        SimConfig::default().with_seed(1),
    );
    let mut sched = AdmissionCounter {
        last: None,
        seen: Vec::with_capacity(WARM + STREAM),
        peak: 0,
        recycled: Vec::with_capacity(WARM + STREAM),
    };
    let r = sim.run(&mut sched);
    assert_eq!(r.completed(), WARM + STREAM);
    let recycled = sched.recycled;
    println!("allocations per admission into a recycled slot: {recycled:?}");
    assert!(
        recycled.len() >= STREAM / 2,
        "{} admissions into a recycled slot",
        recycled.len()
    );
    assert!(
        recycled.iter().all(|&n| n == ADMISSION),
        "an admission into a recycled slot allocates {ADMISSION}: {recycled:?}"
    );
}
