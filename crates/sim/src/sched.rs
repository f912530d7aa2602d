//! The scheduler interface: observations, actions, and the `Scheduler`
//! trait that both Decima agents and all baseline heuristics implement.
//!
//! The simulator invokes the scheduler at the paper's scheduling events
//! (§5.2): a stage running out of tasks, a stage completing (unlocking
//! children), and a job arrival — plus executor-availability events that
//! reduce to those. On each event the scheduler is invoked *repeatedly*,
//! returning one [`Action`] at a time (a stage plus a parallelism limit,
//! and in the multi-resource setting an executor class), until free
//! executors are exhausted, no runnable stage remains, or the scheduler
//! passes.

use decima_core::{ClassId, JobId, JobSpec, SimTime, StageId};
use std::sync::Arc;

/// Whether an action's parallelism limit constrains the whole job (the
/// paper's design, §5.2) or just the selected stage (the fine-grained
/// variant evaluated in Figure 15a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LimitScope {
    /// Limit applies to the job's total executor allocation.
    #[default]
    Job,
    /// Limit applies to the selected stage's executor count.
    Stage,
}

/// One scheduling decision: run `stage` of `job`, with parallelism limit
/// `limit`, optionally restricted to one executor class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Action {
    /// Target job.
    pub job: JobId,
    /// Target stage within the job.
    pub stage: StageId,
    /// Parallelism limit (upper bound on the job's — or stage's, per
    /// `scope` — executor allocation after this action).
    pub limit: usize,
    /// Executor class to draw from; `None` lets the engine pick best-fit.
    pub class: Option<ClassId>,
    /// Scope of `limit`.
    pub scope: LimitScope,
}

impl Action {
    /// Job-scoped action with engine-chosen executor class.
    pub fn new(job: JobId, stage: StageId, limit: usize) -> Self {
        Action {
            job,
            stage,
            limit,
            class: None,
            scope: LimitScope::Job,
        }
    }

    /// Restricts the action to one executor class.
    pub fn with_class(mut self, class: ClassId) -> Self {
        self.class = Some(class);
        self
    }

    /// Makes the limit stage-scoped.
    pub fn stage_scoped(mut self) -> Self {
        self.scope = LimitScope::Stage;
        self
    }
}

/// Dynamic, per-stage view at a scheduling event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeObs {
    /// Tasks not yet started.
    pub waiting: u32,
    /// Tasks currently running.
    pub running: u32,
    /// Tasks finished.
    pub finished: u32,
    /// Executors currently running tasks of this stage.
    pub executors_on: u32,
    /// Executors in flight (moving) toward this stage.
    pub in_flight: u32,
    /// All parents complete (tasks may or may not remain).
    pub runnable: bool,
    /// All tasks finished.
    pub completed: bool,
    /// Mean task duration estimate (from the job profile). The paper's
    /// feature (ii); Appendix J evaluates hiding it from the policy.
    pub avg_task_duration: f64,
    /// Normalized memory demand of the stage's tasks.
    pub mem_demand: f64,
}

impl NodeObs {
    /// Tasks remaining (waiting + running) — the paper's feature (i).
    #[inline]
    pub fn remaining_tasks(&self) -> u32 {
        self.waiting + self.running
    }

    /// Remaining work estimate in task-seconds.
    #[inline]
    pub fn remaining_work(&self) -> f64 {
        self.remaining_tasks() as f64 * self.avg_task_duration
    }

    /// Runnable with unclaimed waiting tasks: a stage an action can
    /// dispatch to, given a free executor that fits its memory demand.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.runnable && self.waiting > self.in_flight
    }
}

/// The static quantities the heuristics rank jobs and stages by,
/// derived from a job's spec once — by the engine when the job is
/// admitted — and handed to the scheduler on every [`JobObs`]. Each
/// field is the result of the named [`JobSpec`] method, so reading it
/// is the same bits as calling the method, without the per-decision
/// sums, DAG walk and allocations.
#[derive(Clone, Debug, PartialEq)]
pub struct JobProfile {
    /// [`JobSpec::total_work`]: task-seconds over all stages.
    pub total_work: f64,
    /// [`JobSpec::critical_path`]: per stage, the work of the heaviest
    /// path from that stage to a sink, the stage included.
    pub critical_path: Vec<f64>,
}

impl JobProfile {
    /// Derives the profile of `spec` — the one place it is computed.
    pub fn of(spec: &JobSpec) -> Self {
        JobProfile {
            total_work: spec.total_work(),
            critical_path: spec.critical_path(),
        }
    }

    /// [`JobSpec::critical_path_len`]: the longest critical path over
    /// all stages.
    pub fn critical_path_len(&self) -> f64 {
        self.critical_path.iter().copied().fold(0.0_f64, f64::max)
    }
}

/// Dynamic, per-job view at a scheduling event.
#[derive(Clone, Debug)]
pub struct JobObs {
    /// Job identifier.
    pub id: JobId,
    /// Static specification (shared, cheap to clone).
    pub spec: Arc<JobSpec>,
    /// Static quantities derived from `spec` (shared with the engine;
    /// the same `Arc` for as long as the job is live).
    pub profile: Arc<JobProfile>,
    /// Executors bound to the job (idle-local + running + in flight).
    pub alloc: usize,
    /// Executors bound to the job and currently idle.
    pub local_free: usize,
    /// Per-stage dynamic state, indexed like `spec.stages`.
    pub nodes: Vec<NodeObs>,
}

impl JobObs {
    /// Remaining work estimate over all incomplete stages.
    pub fn remaining_work(&self) -> f64 {
        self.nodes.iter().map(NodeObs::remaining_work).sum()
    }
}

/// Snapshot passed to [`Scheduler::decide`].
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Current simulation time.
    pub time: SimTime,
    /// The objective integral accrued from the episode start to `time`
    /// (job-seconds under the average-JCT objective). The reward of a
    /// decision is the negated increase to the next decision's `cost`
    /// (§5.3); the trainer derives it from recorded observations.
    pub cost: f64,
    /// Total executor slots in the cluster.
    pub total_executors: usize,
    /// Number of executor classes (1 in the single-resource setting).
    pub num_classes: usize,
    /// Free executors (unbound or idle-local), in total.
    pub free_total: usize,
    /// Executors currently offline (cluster dynamics churn). Note
    /// `free_total + busy + offline ≤ total_executors`: an executor
    /// still in transit toward a job that finished while it was moving
    /// is bound but belongs to no active job's counts, so deriving
    /// `busy` as the difference overcounts it.
    pub offline: usize,
    /// Free executors per class.
    pub free_by_class: Vec<usize>,
    /// Memory capacity per class.
    pub class_memory: Vec<f64>,
    /// Active jobs (arrived, not finished).
    pub jobs: Vec<JobObs>,
    /// Actionable `(job index into `jobs`, stage)` pairs: runnable stages
    /// with unclaimed waiting tasks that at least one free executor fits.
    ///
    /// **Invariant:** strictly ascending by `(job index, stage)` — one
    /// contiguous group per job, groups in `jobs` order, stages
    /// ascending within a group. Every builder emits it that way
    /// ([`Observation::schedulable_is_grouped`] is checked wherever two
    /// observations are compared), and
    /// [`Observation::schedulable_of`] / [`Observation::schedulable_groups`]
    /// rely on it.
    pub schedulable: Vec<(usize, StageId)>,
}

/// Iterator over the per-job groups of [`Observation::schedulable`].
#[derive(Clone, Debug)]
pub struct SchedulableGroups<'a> {
    rest: &'a [(usize, StageId)],
}

impl<'a> Iterator for SchedulableGroups<'a> {
    type Item = (usize, &'a [(usize, StageId)]);

    fn next(&mut self) -> Option<Self::Item> {
        let &(job, _) = self.rest.first()?;
        let len = self.rest.iter().take_while(|e| e.0 == job).count();
        let (group, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some((job, group))
    }
}

impl Observation {
    /// Number of jobs currently in the system.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Looks up a job observation by id.
    pub fn job(&self, id: JobId) -> Option<&JobObs> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// The schedulable entries of job `job_idx`: its group in
    /// `schedulable` (empty when the job has none), found by binary
    /// search.
    pub fn schedulable_of(&self, job_idx: usize) -> &[(usize, StageId)] {
        let start = self.schedulable.partition_point(|e| e.0 < job_idx);
        let len = self.schedulable[start..]
            .iter()
            .take_while(|e| e.0 == job_idx)
            .count();
        &self.schedulable[start..start + len]
    }

    /// One `(job index, group)` per job that has a schedulable stage,
    /// in ascending job index — a single pass over `schedulable`.
    pub fn schedulable_groups(&self) -> SchedulableGroups<'_> {
        SchedulableGroups {
            rest: &self.schedulable,
        }
    }

    /// Whether `schedulable` meets its ordering invariant.
    pub fn schedulable_is_grouped(&self) -> bool {
        self.schedulable.windows(2).all(|w| w[0] < w[1])
    }
}

/// A scheduling policy. Implemented by all baselines and by Decima.
pub trait Scheduler {
    /// Called once when an episode starts (reset internal state).
    fn on_episode_start(&mut self) {}

    /// Returns the next action, or `None` to leave remaining executors
    /// idle until the next scheduling event.
    ///
    /// The engine guarantees `obs.free_total > 0` and
    /// `!obs.schedulable.is_empty()`; an action that assigns no executor
    /// ends the instant's scheduling pass (and is counted as wasted).
    fn decide(&mut self, obs: &Observation) -> Option<Action>;

    /// A short display name for reports.
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// Blanket impl so `&mut S` can be passed where `impl Scheduler` is wanted.
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn on_episode_start(&mut self) {
        (**self).on_episode_start();
    }
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        (**self).decide(obs)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Boxed schedulers are schedulers (heterogeneous comparison harnesses).
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn on_episode_start(&mut self) {
        (**self).on_episode_start();
    }
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        (**self).decide(obs)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_builders() {
        let a = Action::new(JobId(1), StageId(2), 5)
            .with_class(ClassId(3))
            .stage_scoped();
        assert_eq!(a.job, JobId(1));
        assert_eq!(a.stage, StageId(2));
        assert_eq!(a.limit, 5);
        assert_eq!(a.class, Some(ClassId(3)));
        assert_eq!(a.scope, LimitScope::Stage);
    }

    #[test]
    fn node_obs_derived_quantities() {
        let n = NodeObs {
            waiting: 3,
            running: 2,
            finished: 5,
            executors_on: 2,
            in_flight: 1,
            runnable: true,
            completed: false,
            avg_task_duration: 2.0,
            mem_demand: 0.0,
        };
        assert_eq!(n.remaining_tasks(), 5);
        assert_eq!(n.remaining_work(), 10.0);
    }

    #[test]
    fn profile_fields_are_the_spec_methods_bit_for_bit() {
        use decima_core::{JobBuilder, StageSpec};
        let mut b = JobBuilder::new(JobId(0));
        let a = b.stage(StageSpec::simple(3, 0.7));
        let c = b.stage(StageSpec::simple(5, 1.3));
        let d = b.stage(StageSpec::simple(2, 0.1));
        b.edge(a, c).edge(a, d);
        let spec = b.build().unwrap();
        let p = JobProfile::of(&spec);
        assert_eq!(p.total_work.to_bits(), spec.total_work().to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.critical_path), bits(&spec.critical_path()));
        assert_eq!(
            p.critical_path_len().to_bits(),
            spec.critical_path_len().to_bits()
        );
    }

    #[test]
    fn schedulable_is_read_as_per_job_groups() {
        let s = |j: usize, v: u32| (j, StageId(v));
        let obs = Observation {
            // Jobs 0 and 3 have nothing; job 2 sits between two that do.
            schedulable: vec![s(1, 0), s(1, 4), s(2, 2), s(4, 0), s(4, 1), s(4, 7)],
            ..Observation::default()
        };
        assert!(obs.schedulable_is_grouped());
        let groups: Vec<_> = obs.schedulable_groups().collect();
        assert_eq!(
            groups,
            vec![
                (1, &obs.schedulable[0..2]),
                (2, &obs.schedulable[2..3]),
                (4, &obs.schedulable[3..6]),
            ]
        );
        for (j, want) in [
            (0, 0..0),
            (1, 0..2),
            (2, 2..3),
            (3, 3..3),
            (4, 3..6),
            (9, 6..6),
        ] {
            assert_eq!(obs.schedulable_of(j), &obs.schedulable[want], "job {j}");
        }
        assert_eq!(Observation::default().schedulable_groups().count(), 0);

        // Out of order, or the same entry twice, breaks the invariant.
        for bad in [
            vec![s(1, 4), s(1, 0)],
            vec![s(2, 0), s(1, 0)],
            vec![s(1, 0), s(1, 0)],
        ] {
            let obs = Observation {
                schedulable: bad,
                ..Observation::default()
            };
            assert!(!obs.schedulable_is_grouped());
        }
    }
}
