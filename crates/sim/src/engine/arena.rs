//! The job arena: one record per job in the phase table (its spec, the
//! slot of its live runtime state, or its [`JobOutcome`]), the slot
//! arena of live runtime states, the active list, the dirty list, and
//! the one fold of a job into its outcome. Runtime state is reachable
//! only through [`JobArena::live`]/[`JobArena::live_mut`] (or the
//! must-be-live [`JobArena::job`]/[`JobArena::job_mut`]) and the
//! observation write's two visits — [`JobArena::for_each_active`] after
//! the active set changed, [`JobArena::for_each_dirty`] otherwise —
//! never by slot index. The mutable lookups are the one place a job is
//! marked dirty: an event path that changes a job's state reaches it
//! through them.

use crate::result::{JobOutcome, MemCounters};
use crate::sched::{JobProfile, NodeObs};
use decima_core::{JobId, JobSpec, SimTime, StageId};
use std::sync::Arc;

/// Live per-job runtime state. Exists only between a job's arrival
/// (lazy materialization from its spec) and its retirement into a
/// compact [`JobOutcome`]; before, the job is just an `Arc<JobSpec>` in
/// the phase table, and after, just its outcome. See [`JobPhase`].
#[derive(Clone, Debug)]
pub(super) struct JobRt {
    pub(super) spec: Arc<JobSpec>,
    /// Static quantities of `spec`, derived once at admission and
    /// shared with every observation the job appears in.
    pub(super) profile: Arc<JobProfile>,
    /// Executors bound to the job: idle-local + running + in flight.
    /// Maintained incrementally by `ExecTable::set_exec_state`.
    pub(super) alloc: usize,
    pub(super) peak_alloc: usize,
    /// Executors bound to the job and currently idle (incremental).
    pub(super) local_free: usize,
    /// Reached through a mutable lookup since the pooled observation
    /// was last filled (skips per-node copies and the `open` refresh for
    /// untouched jobs); set only by [`JobArena::live_mut`], which also
    /// lists the job in `JobArena::dirty`, and cleared by the write's
    /// visits.
    dirty: bool,
    /// Dynamics task failures charged to the job so far; exceeding the
    /// spec's `max_retries` kills the job.
    pub(super) failures: u32,
    /// Per-stage state in the observation's own form: the dynamic
    /// counts are maintained by the event paths, the two static
    /// columns are copied from the spec at admission.
    pub(super) nodes: Vec<NodeObs>,
    pub(super) unfinished_nodes: usize,
    pub(super) executed_work: f64,
    pub(super) class_busy: Vec<f64>,
    /// The open stages ([`NodeObs::is_open`]) and their memory demand,
    /// ascending by stage, as of the last observation write, which
    /// refreshes them while the job is dirty; `schedulable` is this list
    /// filtered by the write's memory threshold.
    pub(super) open: Vec<(StageId, f64)>,
}

/// Lifecycle phase of one job, indexed by [`JobId`] — the job's one
/// record. Memory-wise this is the whole streaming story: `Pending`
/// holds the shared spec `Arc`, `Live` the index of the arena slot
/// holding full runtime state, and `Retired` the compact outcome.
#[derive(Clone, Debug)]
enum JobPhase {
    /// Not yet arrived: runtime state does not exist.
    Pending(Arc<JobSpec>),
    /// Arrived and unfinished: runtime state lives in this arena slot.
    Live(u32),
    /// Finished or failed, folded into its outcome; the slot was
    /// recycled (unless `retain_all` keeps it).
    Retired(JobOutcome),
}

#[derive(Default)]
pub(super) struct JobArena {
    /// Per-job lifecycle phase, indexed by job id.
    phase: Vec<JobPhase>,
    /// Arena of live job runtime states; retired slots are recycled
    /// through `free_slots`, so the arena's high-water mark tracks the
    /// peak number of *concurrently live* jobs, not total jobs served.
    /// On the free list a slot's state is its last occupant's, unread:
    /// the next admission takes only its buffers.
    slots: Vec<JobRt>,
    /// Recycled slot indices (LIFO). Pop order is a pure function of
    /// the event stream — itself a pure function of (spec, seed) — and
    /// slot indices never leak into observations or results, so reuse
    /// order cannot perturb determinism either way.
    free_slots: Vec<u32>,
    /// Keep retired jobs' runtime state resident (the pre-streaming
    /// behavior); see `Simulator::retain_all`.
    pub(super) retain_all: bool,
    /// Arrived, unfinished job indices in job-id order.
    active: Vec<usize>,
    /// The live jobs marked dirty since the last observation write, each
    /// once, in marking order. Emptied whenever `epoch` moves: the write
    /// after that visits every active job, so the list is only read
    /// while the active set stands, and never holds more than it.
    dirty: Vec<usize>,
    /// Bumped whenever the active set changes (admit/retire);
    /// invalidates the pooled observation's job structure.
    epoch: u64,
    num_classes: usize,
    /// The job-side memory telemetry (`event_queue_hwm` is the queue's).
    mem: MemCounters,
}

/// The one fold of a job into its outcome; `rt` is `None` for a job
/// that never arrived.
fn fold(
    id: JobId,
    spec: &JobSpec,
    rt: Option<&JobRt>,
    completion: Option<SimTime>,
    failed: bool,
    num_classes: usize,
) -> JobOutcome {
    JobOutcome {
        id,
        arrival: spec.arrival,
        completion,
        total_work: rt.map_or_else(|| spec.total_work(), |rt| rt.profile.total_work),
        executed_work: rt.map_or(0.0, |rt| rt.executed_work),
        peak_alloc: rt.map_or(0, |rt| rt.peak_alloc),
        class_busy: rt.map_or_else(|| vec![0.0; num_classes], |rt| rt.class_busy.clone()),
        failed,
    }
}

impl JobArena {
    pub(super) fn with_capacity(num_jobs: usize, num_classes: usize) -> Self {
        JobArena {
            phase: Vec::with_capacity(num_jobs),
            num_classes,
            ..JobArena::default()
        }
    }

    /// Registers the next job (ids are dense, in push order) as pending:
    /// runtime state is materialized lazily by [`JobArena::admit`].
    pub(super) fn push_pending(&mut self, spec: JobSpec) {
        self.phase.push(JobPhase::Pending(Arc::new(spec)));
    }

    /// Jobs not yet retired (pending or live).
    pub(super) fn remaining(&self) -> usize {
        self.phase.len() - self.mem.retired_jobs as usize
    }

    pub(super) fn num_active(&self) -> usize {
        self.active.len()
    }

    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runtime state of a job if it is live, `None` otherwise — the
    /// lenient lookup for paths that can legitimately race a retirement
    /// (an `ExecReady` landing after its job finished) or be handed any
    /// id at all (`apply_action`).
    #[inline]
    pub(super) fn live(&self, id: JobId) -> Option<&JobRt> {
        match self.phase.get(id.index())? {
            &JobPhase::Live(slot) => Some(&self.slots[slot as usize]),
            _ => None,
        }
    }

    /// Mutable [`JobArena::live`], and the one choke point that marks a
    /// job dirty: the next observation write re-copies what it reaches
    /// through here.
    #[inline]
    pub(super) fn live_mut(&mut self, id: JobId) -> Option<&mut JobRt> {
        let &JobPhase::Live(slot) = self.phase.get(id.index())? else {
            return None;
        };
        let rt = &mut self.slots[slot as usize];
        if !rt.dirty {
            rt.dirty = true;
            self.dirty.push(id.index());
        }
        Some(rt)
    }

    /// Runtime state of a job that must be live (panics otherwise — the
    /// call sites are event paths whose invariants guarantee liveness,
    /// e.g. a `Running` executor always points at a live job).
    #[inline]
    pub(super) fn job(&self, id: JobId) -> &JobRt {
        self.live(id)
            .unwrap_or_else(|| unreachable!("job {id:?} is not live"))
    }

    /// Mutable [`JobArena::job`].
    #[inline]
    pub(super) fn job_mut(&mut self, id: JobId) -> &mut JobRt {
        self.live_mut(id)
            .unwrap_or_else(|| unreachable!("job {id:?} is not live"))
    }

    /// Every live job found by walking the phase table — the rebuilt
    /// observation's view, which must not trust the active list.
    pub(super) fn scan_live(&self) -> impl Iterator<Item = &JobRt> {
        (0..self.phase.len()).filter_map(|ji| self.live(JobId(ji as u32)))
    }

    /// Slot of an active job (every active job is live).
    fn slot_of(&self, ji: usize) -> usize {
        match self.phase[ji] {
            JobPhase::Live(slot) => slot as usize,
            ref other => unreachable!("active job {ji} is not live: {other:?}"),
        }
    }

    /// Hands each active (arrived, unfinished) job, mutably, to `f` in
    /// job-id order, with its position in that order and whether it was
    /// dirty, and clears every mark: the observation write's full visit.
    /// Returns the number of jobs visited.
    pub(super) fn for_each_active(&mut self, mut f: impl FnMut(usize, &mut JobRt, bool)) -> usize {
        for job_index in 0..self.active.len() {
            let slot = self.slot_of(self.active[job_index]);
            let rt = &mut self.slots[slot];
            let dirty = std::mem::take(&mut rt.dirty);
            f(job_index, rt, dirty);
        }
        self.dirty.clear();
        self.active.len()
    }

    /// Active jobs marked dirty, counted from their flags rather than
    /// the dirty list.
    #[cfg(test)]
    pub(super) fn count_marked(&self) -> usize {
        self.active
            .iter()
            .filter(|&&ji| self.slots[self.slot_of(ji)].dirty)
            .count()
    }

    /// Hands each dirty job, mutably, to `f` in marking order, with its
    /// position among the active jobs, and clears their marks: the
    /// observation write's visit while the active set stands, which
    /// costs the dirty jobs, not the active ones. Returns the number of
    /// jobs visited.
    pub(super) fn for_each_dirty(&mut self, mut f: impl FnMut(usize, &mut JobRt)) -> usize {
        for &ji in &self.dirty {
            let job_index = self.active.partition_point(|&a| a < ji);
            let slot = self.slot_of(ji);
            let rt = &mut self.slots[slot];
            rt.dirty = false;
            f(job_index, rt);
        }
        let visited = self.dirty.len();
        self.dirty.clear();
        visited
    }

    /// Builds a job's runtime state from its spec at arrival time,
    /// claiming an arena slot (recycled if one is free) and entering
    /// the job into the active set. A recycled slot lends the new
    /// state its last occupant's three buffers, cleared; every other
    /// field is built fresh, so nothing else can carry over.
    pub(super) fn admit(&mut self, id: JobId) {
        let ji = id.index();
        let spec = match &self.phase[ji] {
            JobPhase::Pending(spec) => Arc::clone(spec),
            other => unreachable!("double arrival for {id:?}: {other:?}"),
        };
        let (mut nodes, mut class_busy, mut open) = match self.free_slots.last() {
            Some(&s) => {
                let last = &mut self.slots[s as usize];
                (
                    std::mem::take(&mut last.nodes),
                    std::mem::take(&mut last.class_busy),
                    std::mem::take(&mut last.open),
                )
            }
            None => Default::default(),
        };
        nodes.clear();
        nodes.extend(spec.stages.iter().enumerate().map(|(v, stage)| NodeObs {
            waiting: stage.num_tasks,
            running: 0,
            finished: 0,
            executors_on: 0,
            in_flight: 0,
            runnable: spec.dag.parents(v).is_empty(),
            completed: false,
            avg_task_duration: stage.task_duration,
            mem_demand: stage.mem_demand,
        }));
        class_busy.clear();
        class_busy.resize(self.num_classes, 0.0);
        open.clear();
        let rt = JobRt {
            profile: Arc::new(JobProfile::of(&spec)),
            unfinished_nodes: nodes.len(),
            spec,
            alloc: 0,
            peak_alloc: 0,
            local_free: 0,
            dirty: true,
            failures: 0,
            nodes,
            executed_work: 0.0,
            class_busy,
            open,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = rt;
                s
            }
            None => {
                self.slots.push(rt);
                (self.slots.len() - 1) as u32
            }
        };
        self.mem.slots_hwm = self.mem.slots_hwm.max(self.slots.len() as u64);
        self.phase[ji] = JobPhase::Live(slot);
        // Keep the active list in job-id order (arrival order is
        // time order, which need not be id order).
        let pos = self.active.partition_point(|&a| a < ji);
        self.active.insert(pos, ji);
        self.mem.live_jobs_peak = self.mem.live_jobs_peak.max(self.active.len() as u64);
        self.epoch += 1;
        self.dirty.clear();
    }

    /// Folds a finished or failed job into its compact [`JobOutcome`],
    /// which replaces its phase entry, drops it from the active set and
    /// (unless `retain_all`) releases its arena slot to the free list.
    /// The phase entry was the one reference to the slot, so nothing can
    /// reach a later occupant through it. The caller has already done
    /// all executor bookkeeping — the runtime state is dead weight at
    /// this point.
    pub(super) fn retire(&mut self, id: JobId, completion: Option<SimTime>, failed: bool) {
        let ji = id.index();
        let rt = self.job(id);
        let outcome = fold(id, &rt.spec, Some(rt), completion, failed, self.num_classes);
        // The spec `Arc` is not kept alive for its pointer: the slot's
        // next occupant drops it, and its address may be reused. No key
        // can alias it: a `GraphCache` entry holds its structure, the
        // f32 encoder holds its own, and a structure holds the spec
        // `Arc`s it was built from, so a spec pointer in either's keys
        // stays allocated for as long as the key lives; `obs_equal`
        // compares live jobs only.
        let was = std::mem::replace(&mut self.phase[ji], JobPhase::Retired(outcome));
        self.mem.retired_jobs += 1;
        let pos = self.active.partition_point(|&a| a < ji);
        debug_assert_eq!(self.active.get(pos), Some(&ji));
        self.active.remove(pos);
        self.epoch += 1;
        self.dirty.clear();
        if let (JobPhase::Live(slot), false) = (was, self.retain_all) {
            self.free_slots.push(slot);
            self.mem.node_pool_hwm = self.mem.node_pool_hwm.max(self.free_slots.len() as u64);
        }
    }

    /// Ends the episode: every job's outcome by job id — retired jobs
    /// were folded at retirement, pending jobs never arrived (zero
    /// outcome), live jobs were cut off by the horizon/event budget and
    /// fold here, unfinished — plus the job-side memory telemetry.
    pub(super) fn into_outcomes(self) -> (Vec<JobOutcome>, MemCounters) {
        let JobArena {
            phase,
            slots,
            num_classes,
            mem,
            ..
        } = self;
        let jobs = phase
            .into_iter()
            .enumerate()
            .map(|(ji, phase)| {
                let id = JobId(ji as u32);
                match phase {
                    JobPhase::Pending(spec) => fold(id, &spec, None, None, false, num_classes),
                    JobPhase::Live(slot) => {
                        let rt = &slots[slot as usize];
                        fold(id, &rt.spec, Some(rt), None, false, num_classes)
                    }
                    JobPhase::Retired(outcome) => outcome,
                }
            })
            .collect();
        (jobs, mem)
    }
}
