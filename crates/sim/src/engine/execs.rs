//! The executor table and the choke point for executor state.
//!
//! [`ExecMeta`]'s `state` field is private to this file and
//! [`ExecTable::set_exec_state`] is its only writer, so every derived
//! count the incremental observation relies on (free/idle sets,
//! per-class availability, the offline count, per-job `alloc` and
//! `local_free`) changes with the state or not at all — the compiler,
//! not a lint, rejects a write anywhere else.

use super::arena::JobArena;
use decima_core::{ClassId, ClusterSpec, ExecutorClass, ExecutorId, JobId, SimTime};

#[derive(Clone, Copy, Debug)]
pub(super) enum ExecState {
    /// Unbound: no JVM running. Binding to any job costs the move delay.
    Free,
    /// Bound to a job, idle. Dispatching within the job is free.
    Idle(JobId),
    /// In transit to `job` to work on `node` (best effort).
    Moving { job: JobId, node: u32 },
    /// Running one task.
    Running {
        job: JobId,
        node: u32,
        started: SimTime,
        duration: f64,
    },
    /// Offline (cluster-dynamics churn): not dispatchable, owned by no
    /// job, invisible to availability counts until the outage ends.
    Offline,
}

impl ExecState {
    /// The job this assignment counts toward (the `alloc` definition:
    /// idle-local + running + in flight).
    pub(super) fn owner(&self) -> Option<JobId> {
        match *self {
            ExecState::Free | ExecState::Offline => None,
            ExecState::Idle(j) => Some(j),
            ExecState::Moving { job, .. } | ExecState::Running { job, .. } => Some(job),
        }
    }

    fn idle_for(&self) -> Option<JobId> {
        match *self {
            ExecState::Idle(j) => Some(j),
            _ => None,
        }
    }
}

#[derive(Debug)]
pub(super) struct ExecMeta {
    state: ExecState,
    pub(super) class: ClassId,
    pub(super) memory: f64,
    /// Last (job, node) this executor ran a task of — used for the
    /// first-wave (cold executor) slowdown.
    pub(super) last_node: Option<(JobId, u32)>,
    /// Bumped when a pending `TaskDone`/`ExecReady` for this executor is
    /// cancelled (churn interrupt, job kill); stale events are dropped.
    pub(super) epoch: u32,
}

impl ExecMeta {
    #[inline]
    pub(super) fn state(&self) -> &ExecState {
        &self.state
    }

    /// Idle and bound to `job`.
    #[inline]
    pub(super) fn idle_on(&self, job: JobId) -> bool {
        matches!(self.state, ExecState::Idle(j) if j == job)
    }
}

/// Every executor plus the counts derived from their states.
pub(super) struct ExecTable {
    execs: Vec<ExecMeta>,
    /// Unbound (`Free`) executors.
    free_set: ExecSet,
    /// Idle-bound (`Idle(_)`) executors.
    idle_set: ExecSet,
    /// `Free` + `Idle` executor count per class.
    avail_by_class: Vec<usize>,
    /// Offline executors (see `ExecState::Offline`).
    offline_count: usize,
}

impl ExecTable {
    /// All executors of `cluster`, class by class, unbound.
    pub(super) fn new(cluster: &ClusterSpec) -> Self {
        let mut execs = Vec::with_capacity(cluster.total_executors());
        for (ci, class) in cluster.classes.iter().enumerate() {
            for _ in 0..class.count {
                execs.push(ExecMeta {
                    state: ExecState::Free,
                    class: ClassId(ci as u16),
                    memory: class.memory,
                    last_node: None,
                    epoch: 0,
                });
            }
        }
        let mut free_set = ExecSet::new(execs.len());
        for i in 0..execs.len() as u32 {
            free_set.insert(i);
        }
        ExecTable {
            free_set,
            idle_set: ExecSet::new(execs.len()),
            avail_by_class: cluster.classes.iter().map(|c| c.count).collect(),
            offline_count: 0,
            execs,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.execs.len()
    }

    #[inline]
    pub(super) fn get(&self, e: ExecutorId) -> &ExecMeta {
        &self.execs[e.index()]
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &ExecMeta> {
        self.execs.iter()
    }

    /// Unbound executors, ascending.
    pub(super) fn free_ids(&self) -> impl Iterator<Item = ExecutorId> + '_ {
        self.free_set.iter().map(ExecutorId)
    }

    /// Idle-bound executors, ascending.
    pub(super) fn idle_ids(&self) -> impl Iterator<Item = ExecutorId> + '_ {
        self.idle_set.iter().map(ExecutorId)
    }

    /// Available executors (unbound or idle-local), in total. O(1).
    #[inline]
    pub(super) fn avail_total(&self) -> usize {
        self.free_set.len() + self.idle_set.len()
    }

    pub(super) fn avail_by_class(&self) -> &[usize] {
        &self.avail_by_class
    }

    pub(super) fn offline_count(&self) -> usize {
        self.offline_count
    }

    /// The largest memory among classes with an available (free or
    /// idle) executor; `-∞` when none is available. A stage fits some
    /// available executor iff its demand is at most this — the
    /// observation computes it once per write and tests every open
    /// stage against it.
    #[inline]
    pub(super) fn avail_max_memory(&self, classes: &[ExecutorClass]) -> f64 {
        classes
            .iter()
            .zip(&self.avail_by_class)
            .filter(|&(_, &n)| n > 0)
            .fold(f64::NEG_INFINITY, |m, (cl, _)| m.max(cl.memory))
    }

    /// True when at least one available (free or idle) executor —
    /// optionally restricted to one class — has memory ≥ `demand`.
    ///
    /// This is the single memory-fit rule shared by the observation's
    /// schedulable set (through [`ExecTable::avail_max_memory`], which
    /// the unrestricted case is defined by) and `apply_action`'s
    /// feasibility check, so the two can never disagree about whether a
    /// stage is actionable.
    #[inline]
    pub(super) fn avail_fits(
        &self,
        classes: &[ExecutorClass],
        demand: f64,
        class: Option<ClassId>,
    ) -> bool {
        match class {
            // An out-of-range class simply fits nothing (the action is
            // then wasted), matching the historical filter behavior.
            Some(c) => classes
                .get(c.index())
                .is_some_and(|cl| self.avail_by_class[c.index()] > 0 && cl.memory >= demand),
            None => demand <= self.avail_max_memory(classes),
        }
    }

    pub(super) fn set_last_node(&mut self, e: ExecutorId, last: Option<(JobId, u32)>) {
        self.execs[e.index()].last_node = last;
    }

    /// Cancels the executor's pending `TaskDone`/`ExecReady`.
    pub(super) fn bump_epoch(&mut self, e: ExecutorId) {
        self.execs[e.index()].epoch += 1;
    }

    /// The single choke point for executor state transitions: swaps the
    /// state and updates every derived count (free/idle sets, per-class
    /// availability, the offline count, per-job `alloc` and
    /// `local_free`).
    pub(super) fn set_exec_state(&mut self, jobs: &mut JobArena, e: ExecutorId, new: ExecState) {
        let i = e.index() as u32;
        let class = self.execs[e.index()].class.index();
        let old = std::mem::replace(&mut self.execs[e.index()].state, new);

        let old_free = matches!(old, ExecState::Free);
        let new_free = matches!(new, ExecState::Free);
        if old_free != new_free {
            if new_free {
                self.free_set.insert(i);
            } else {
                self.free_set.remove(i);
            }
        }
        let (old_idle, new_idle) = (old.idle_for(), new.idle_for());
        if old_idle != new_idle {
            if let Some(j) = old_idle {
                self.idle_set.remove(i);
                if let Some(rt) = jobs.live_mut(j) {
                    rt.local_free -= 1;
                }
            }
            if let Some(j) = new_idle {
                self.idle_set.insert(i);
                if let Some(rt) = jobs.live_mut(j) {
                    rt.local_free += 1;
                }
            }
        }
        let old_avail = old_free || old_idle.is_some();
        let new_avail = new_free || new_idle.is_some();
        if old_avail != new_avail {
            if new_avail {
                self.avail_by_class[class] += 1;
            } else {
                self.avail_by_class[class] -= 1;
            }
        }
        let (old_owner, new_owner) = (old.owner(), new.owner());
        if old_owner != new_owner {
            // Lenient lookups: a `Moving` executor can outlive its
            // target job (the job finishes while it is in transit), so
            // the detach side may see a retired owner — the counters
            // died with the job's runtime state and need no update.
            if let Some(j) = old_owner {
                if let Some(rt) = jobs.live_mut(j) {
                    rt.alloc -= 1;
                }
            }
            if let Some(j) = new_owner {
                if let Some(rt) = jobs.live_mut(j) {
                    rt.alloc += 1;
                }
            }
        }
        let old_offline = matches!(old, ExecState::Offline);
        let new_offline = matches!(new, ExecState::Offline);
        if old_offline != new_offline {
            if new_offline {
                self.offline_count += 1;
            } else {
                self.offline_count -= 1;
            }
        }
    }
}

/// A set of executor indices below a fixed bound: one bit per index plus
/// the member count. Iterates in ascending order, so a dispatch walk
/// visits executors in index order; a walk costs one word per 64
/// indices up to the last member.
pub(super) struct ExecSet {
    words: Vec<u64>,
    len: usize,
}

impl ExecSet {
    /// An empty set that can hold the indices `0..bound`.
    pub(super) fn new(bound: usize) -> Self {
        ExecSet {
            words: vec![0; bound.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    pub(super) fn insert(&mut self, i: u32) {
        let bit = 1u64 << (i % 64);
        let w = &mut self.words[i as usize / 64];
        self.len += usize::from(*w & bit == 0);
        *w |= bit;
    }

    #[inline]
    pub(super) fn remove(&mut self, i: u32) {
        let bit = 1u64 << (i % 64);
        let w = &mut self.words[i as usize / 64];
        self.len -= usize::from(*w & bit != 0);
        *w &= !bit;
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The members, ascending.
    pub(super) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros();
                        rest &= rest - 1;
                        k as u32 * 64 + bit
                    })
                })
            })
            .take(self.len)
    }
}
