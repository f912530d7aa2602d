//! Episode results: the decision tally, per-job outcomes, and aggregate
//! metrics.

use crate::drift::DriftCounters;
use crate::dynamics::DynamicsCounters;
use decima_core::{Gantt, JobId, SimTime};

/// The decisions of an episode, folded into a fixed size as they are
/// taken: how many, the penalty they accrued, and a digest of each one.
///
/// A decision's penalty is the objective integral accrued since the
/// previous decision (or the episode start). The per-decision stream
/// itself is not kept: the trainer reads each decision's objective
/// integral from the observation it recorded (`Observation::cost`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionTally {
    count: u64,
    /// The penalties summed in decision order.
    penalty: f64,
    /// FNV-1a over each decision's `(time, penalty)` bits, in order.
    digest: u64,
}

/// FNV-1a offset basis and prime (64-bit).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for DecisionTally {
    fn default() -> Self {
        DecisionTally {
            count: 0,
            // `Iterator::sum`'s neutral element for floats.
            penalty: -0.0,
            digest: FNV_BASIS,
        }
    }
}

impl DecisionTally {
    /// Folds in the next decision, taken at `time` with `penalty`
    /// accrued since the previous one.
    pub fn push(&mut self, time: SimTime, penalty: f64) {
        self.count += 1;
        self.penalty += penalty;
        for word in [time.as_secs().to_bits(), penalty.to_bits()] {
            self.digest = (self.digest ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the episode made no decision.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The decisions' penalties summed in decision order.
    pub fn penalty(&self) -> f64 {
        self.penalty
    }
}

/// Outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// Job identifier.
    pub id: JobId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time, if the job finished within the episode.
    pub completion: Option<SimTime>,
    /// Static total work (task-seconds at later-wave durations).
    pub total_work: f64,
    /// Actually-executed work including waves/inflation/noise
    /// (Figure 10e's "work inflation" measure).
    pub executed_work: f64,
    /// Peak executor allocation observed for the job.
    pub peak_alloc: usize,
    /// Executor-seconds consumed by the job, split per executor class
    /// (Figure 12b). Entry `c` is the busy time on class-`c` executors.
    pub class_busy: Vec<f64>,
    /// The job was killed after exhausting its dynamics retry budget
    /// (`completion` is then `None`; see [`crate::dynamics`]).
    pub failed: bool,
}

impl JobOutcome {
    /// Job completion time (JCT) in seconds, if finished.
    pub fn jct(&self) -> Option<f64> {
        self.completion.map(|c| c - self.arrival)
    }
}

/// Why an episode stopped processing events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EpisodeOutcome {
    /// The event queue drained: every job reached a terminal state (or
    /// nothing left could generate further events).
    #[default]
    Drained,
    /// The configured `time_limit` horizon was reached.
    Horizon,
    /// The `max_events` safety cap was exhausted.
    EventBudget,
    /// No-progress livelock: churn ticks were the only thing keeping
    /// the event queue alive — every remaining job had arrived, no
    /// executor was moving or running, and a full churn cycle passed
    /// without a single task start. The engine stops the episode
    /// instead of grinding churn events until `max_events`.
    Livelock,
}

/// Memory-scaling telemetry for one episode: how much runtime state the
/// streaming job lifecycle actually kept resident. All counters are
/// deterministic functions of (spec, seed) — they are *measurements of
/// the engine's pooling*, not of the host allocator — so they can be
/// asserted in tests and pinned in benchmarks.
///
/// With job retirement on (the default), `slots_hwm` tracks the peak
/// number of *concurrently live* jobs; with
/// [`Simulator::retain_all`](crate::Simulator::retain_all) it grows to
/// the total number of jobs that ever arrived. That difference is the
/// whole point — and it is why [`EpisodeResult::same_run`] excludes
/// this struct from the bit-identity comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Peak number of concurrently live (arrived, unfinished) jobs.
    pub live_jobs_peak: u64,
    /// Jobs folded into their compact [`JobOutcome`] and released.
    pub retired_jobs: u64,
    /// High-water mark of the job-slot arena (live runtime states held
    /// at once; equals total arrivals when retirement is off).
    pub slots_hwm: u64,
    /// High-water mark of the pending events: those in the event heap
    /// plus the arrivals not yet popped. (Arrivals wait in a sorted
    /// vector, not the heap, but still count as pending.)
    pub event_queue_hwm: u64,
    /// High-water mark of the arena's free-slot list: retired slots
    /// whose node-state buffers wait for the next arrival (0 when
    /// retirement is off — nothing is ever returned).
    pub node_pool_hwm: u64,
}

impl MemCounters {
    /// The five counters by name, in the order reports list them: the
    /// live-job peak, the three high-water marks, then the retired count.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("live_jobs_peak", self.live_jobs_peak),
            ("slots_hwm", self.slots_hwm),
            ("event_queue_hwm", self.event_queue_hwm),
            ("node_pool_hwm", self.node_pool_hwm),
            ("retired_jobs", self.retired_jobs),
        ]
    }
}

/// Everything measured during one simulated episode.
#[derive(Clone, Debug, Default)]
pub struct EpisodeResult {
    /// The agent's decisions, tallied in decision order.
    pub actions: DecisionTally,
    /// Objective cost accrued after the last decision until episode end.
    pub tail_penalty: f64,
    /// Per-job outcomes (all jobs, finished or not).
    pub jobs: Vec<JobOutcome>,
    /// Time at which the episode ended.
    pub end_time: SimTime,
    /// Number of simulator events processed.
    pub num_events: u64,
    /// Actions that assigned no executor (scheduler bugs / passes).
    pub wasted_actions: u64,
    /// Injected task failures observed (dynamics-driven; see
    /// [`crate::dynamics`]).
    pub task_failures: u64,
    /// Cluster-dynamics counters (all zero when dynamics is off).
    pub dynamics: DynamicsCounters,
    /// Per-phase drift counters (empty when no phase boundaries were
    /// configured).
    pub drift: DriftCounters,
    /// Why event processing stopped.
    pub outcome: EpisodeOutcome,
    /// Gantt chart, when recording was enabled.
    pub gantt: Option<Gantt>,
    /// Memory-scaling telemetry (pool high-water marks, live-job peak,
    /// retired count).
    pub mem: MemCounters,
}

impl EpisodeResult {
    /// Completed-job completion times.
    pub fn jcts(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(JobOutcome::jct).collect()
    }

    /// Average JCT over completed jobs (`None` if none completed).
    pub fn avg_jct(&self) -> Option<f64> {
        let j = self.jcts();
        if j.is_empty() {
            None
        } else {
            Some(j.iter().sum::<f64>() / j.len() as f64)
        }
    }

    /// Completion time of the last finished job (the makespan for batched
    /// workloads where everything completes).
    pub fn makespan(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter_map(|j| j.completion)
            .max()
            .map(|t| t.as_secs())
    }

    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.completion.is_some()).count()
    }

    /// Number of jobs left unfinished at episode end.
    pub fn unfinished(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// Number of jobs killed by the dynamics retry bound.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failed).count()
    }

    /// Total objective penalty of the episode (the decisions' penalties
    /// summed in decision order, plus the tail).
    pub fn total_penalty(&self) -> f64 {
        self.actions.penalty() + self.tail_penalty
    }

    /// Field-for-field comparison of everything the simulation
    /// *observably* produced; returns `Err` naming the first mismatch.
    ///
    /// This is the differential oracle for the streaming job lifecycle:
    /// retirement-on and keep-everything runs of the same (spec, seed)
    /// must satisfy `a.same_run(&b)`. The decisions compare through
    /// their tally: the count, the summed penalty and the digest of
    /// every decision's time and penalty bits. Two fields are
    /// deliberately excluded: [`EpisodeResult::mem`] (telemetry that
    /// legitimately differs between the two modes — that difference is
    /// the feature) and [`EpisodeResult::gantt`] (no equality; covered
    /// indirectly by the decision and job streams that generate it).
    pub fn same_run(&self, other: &EpisodeResult) -> Result<(), String> {
        if self.actions != other.actions {
            return Err(format!(
                "decisions differ: {:?} vs {:?}",
                self.actions, other.actions
            ));
        }
        if self.tail_penalty.to_bits() != other.tail_penalty.to_bits() {
            return Err(format!(
                "tail_penalty: {} vs {}",
                self.tail_penalty, other.tail_penalty
            ));
        }
        if self.jobs != other.jobs {
            return Err(format!(
                "jobs differ (first mismatch at index {:?})",
                self.jobs.iter().zip(&other.jobs).position(|(a, b)| a != b)
            ));
        }
        if self.end_time != other.end_time {
            return Err(format!(
                "end_time: {:?} vs {:?}",
                self.end_time, other.end_time
            ));
        }
        if self.num_events != other.num_events {
            return Err(format!(
                "num_events: {} vs {}",
                self.num_events, other.num_events
            ));
        }
        if self.wasted_actions != other.wasted_actions {
            return Err(format!(
                "wasted_actions: {} vs {}",
                self.wasted_actions, other.wasted_actions
            ));
        }
        if self.task_failures != other.task_failures {
            return Err(format!(
                "task_failures: {} vs {}",
                self.task_failures, other.task_failures
            ));
        }
        if self.dynamics != other.dynamics {
            return Err(format!(
                "dynamics: {:?} vs {:?}",
                self.dynamics, other.dynamics
            ));
        }
        if self.drift != other.drift {
            return Err(format!("drift: {:?} vs {:?}", self.drift, other.drift));
        }
        if self.outcome != other.outcome {
            return Err(format!(
                "outcome: {:?} vs {:?}",
                self.outcome, other.outcome
            ));
        }
        Ok(())
    }

    /// Concurrency time-series: `(time, jobs in system)` step points,
    /// reconstructed from arrivals/completions (Figure 10a).
    pub fn concurrency_series(&self) -> Vec<(f64, usize)> {
        let mut deltas: Vec<(f64, i32)> = Vec::new();
        for j in &self.jobs {
            deltas.push((j.arrival.as_secs(), 1));
            if let Some(c) = j.completion {
                deltas.push((c.as_secs(), -1));
            }
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut out = Vec::with_capacity(deltas.len());
        let mut cur = 0i32;
        for (t, d) in deltas {
            cur += d;
            out.push((t, cur.max(0) as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, arrival: f64, completion: Option<f64>, work: f64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival),
            completion: completion.map(SimTime::from_secs),
            total_work: work,
            executed_work: work,
            peak_alloc: 1,
            class_busy: vec![work],
            failed: false,
        }
    }

    #[test]
    fn jct_and_makespan() {
        let r = EpisodeResult {
            jobs: vec![
                outcome(0, 0.0, Some(10.0), 5.0),
                outcome(1, 5.0, Some(25.0), 5.0),
                outcome(2, 6.0, None, 5.0),
            ],
            ..Default::default()
        };
        assert_eq!(r.jcts(), vec![10.0, 20.0]);
        assert_eq!(r.avg_jct(), Some(15.0));
        assert_eq!(r.makespan(), Some(25.0));
        assert_eq!(r.completed(), 2);
        assert_eq!(r.unfinished(), 1);
    }

    /// A tally of `(time, penalty)` decisions.
    fn tally(decisions: &[(f64, f64)]) -> DecisionTally {
        let mut t = DecisionTally::default();
        for &(time, penalty) in decisions {
            t.push(SimTime::from_secs(time), penalty);
        }
        t
    }

    #[test]
    fn the_tally_sums_penalties_and_tells_decisions_apart() {
        let decisions = [(0.0, 0.5), (1.0, 3.0), (2.0, 1.5)];
        let r = EpisodeResult {
            actions: tally(&decisions),
            tail_penalty: 4.0,
            ..Default::default()
        };
        assert_eq!(r.actions.len(), 3);
        assert_eq!(r.total_penalty(), 9.0);
        r.same_run(&r.clone()).expect("a run is its own run");

        // One decision's time moved, or two decisions' penalties swapped:
        // the same count and summed penalty, another run.
        for other in [
            [(0.0, 0.5), (1.25, 3.0), (2.0, 1.5)],
            [(0.0, 0.5), (1.0, 1.5), (2.0, 3.0)],
        ] {
            let moved = EpisodeResult {
                actions: tally(&other),
                ..r.clone()
            };
            assert_eq!(moved.actions.len(), 3);
            assert_eq!(moved.total_penalty(), r.total_penalty());
            assert!(moved.same_run(&r).is_err(), "{other:?}");
        }
    }

    #[test]
    fn concurrency_series_steps() {
        let r = EpisodeResult {
            jobs: vec![
                outcome(0, 0.0, Some(10.0), 1.0),
                outcome(1, 2.0, Some(4.0), 1.0),
            ],
            ..Default::default()
        };
        let s = r.concurrency_series();
        assert_eq!(s, vec![(0.0, 1), (2.0, 2), (4.0, 1), (10.0, 0)]);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = EpisodeResult::default();
        assert!(r.avg_jct().is_none());
        assert!(r.makespan().is_none());
        assert!(r.actions.is_empty());
        assert_eq!(r.total_penalty(), 0.0);
        assert_eq!(r.failed(), 0);
        assert_eq!(r.dynamics, DynamicsCounters::default());
    }

    #[test]
    fn failed_jobs_counted_separately_from_unfinished() {
        let mut dead = outcome(1, 0.0, None, 2.0);
        dead.failed = true;
        let r = EpisodeResult {
            jobs: vec![
                outcome(0, 0.0, Some(5.0), 2.0),
                dead,
                outcome(2, 0.0, None, 2.0),
            ],
            ..Default::default()
        };
        assert_eq!(r.completed(), 1);
        assert_eq!(r.unfinished(), 2, "failed jobs are also unfinished");
        assert_eq!(r.failed(), 1);
    }
}
