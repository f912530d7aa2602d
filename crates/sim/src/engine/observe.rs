//! Observation build: the incremental writer that fills the pooled
//! buffer each [`Pending`](crate::Pending) hands out, the
//! rebuild-from-scratch reference it is checked against, and their comparison.
//!
//! A write costs the jobs that changed: while the active-job set and
//! the memory threshold stand, it visits only the arena's dirty list and
//! splices each dirty job's run of `schedulable` in place; a change to
//! either re-emits every run.

use super::arena::JobRt;
use super::execs::ExecState;
use super::Simulator;
use crate::sched::{JobObs, NodeObs, Observation};
use decima_core::StageId;
use std::fmt::{Debug, Display};
use std::sync::Arc;

/// Pooled state of the incremental observation write that is not part
/// of the observation itself; lives on the [`Simulator`] beside the
/// pooled buffer it describes.
#[derive(Default)]
pub(super) struct ObsScratch {
    /// Node vectors recycled across structure rebuilds (job departures
    /// would otherwise drop them).
    nodes_pool: Vec<Vec<NodeObs>>,
    /// Run boundaries in `schedulable`: active job `i`'s entries are
    /// `runs[i]..runs[i + 1]`, as of the last write.
    runs: Vec<usize>,
    /// Bits of the memory threshold (`ExecTable::avail_max_memory`) the
    /// last write filtered `schedulable` with.
    fits_bits: u64,
    /// What each write did, for the work pin in the engine's tests.
    #[cfg(test)]
    pub(super) log: Vec<WriteWork>,
}

/// One observation write as the engine's tests see it: the state it
/// started from and the runs of `schedulable` it re-emitted.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(super) struct WriteWork {
    /// `jobs.epoch()` at the write.
    pub(super) epoch: u64,
    /// Bits of the memory threshold at the write.
    pub(super) fits_bits: u64,
    /// Active jobs, and those of them marked dirty, counted by walking
    /// the arena's flags.
    pub(super) active: usize,
    pub(super) marked: usize,
    /// Every run was re-emitted, rather than the dirty jobs' spliced.
    pub(super) full: bool,
    /// Runs re-emitted: the jobs the write visited.
    pub(super) runs: usize,
}

impl Simulator {
    /// Updates the pooled observation in place from the
    /// incrementally-maintained counts (no executor rescans). Copies
    /// per-node state and refreshes the open stages (`JobRt::open`)
    /// only for dirty jobs, and then either re-emits `schedulable`
    /// whole — after the active-job set (which also rebuilds the job
    /// structure) or the memory threshold moved — or splices the dirty
    /// jobs' runs into it in place, visiting only the dirty jobs.
    /// Either visit clears the jobs' `dirty` marks.
    pub(super) fn write_observation(&mut self) {
        let Simulator {
            cluster,
            jobs,
            execs,
            obs_scratch: scratch,
            obs_buf_epoch,
            obs_buf: obs,
            now,
            cost_integral,
            ..
        } = self;
        let rebuild = *obs_buf_epoch != jobs.epoch();
        let classes = &cluster.classes;
        obs.time = *now;
        obs.cost = *cost_integral;
        obs.total_executors = execs.len();
        obs.num_classes = classes.len();
        obs.free_total = execs.avail_total();
        obs.offline = execs.offline_count();
        obs.free_by_class.clear();
        obs.free_by_class.extend_from_slice(execs.avail_by_class());
        if rebuild {
            obs.class_memory.clear();
            obs.class_memory.extend(classes.iter().map(|c| c.memory));
            // Recycle the departing entries' node vectors: a streaming
            // episode churns through jobs, and rebuilding the structure
            // must not re-allocate what the last rebuild already had.
            for mut jo in obs.jobs.drain(..) {
                jo.nodes.clear();
                scratch.nodes_pool.push(jo.nodes);
            }
        }
        // The one memory-fit rule (`ExecTable::avail_fits`), evaluated
        // once for this write.
        let fits_up_to = execs.avail_max_memory(classes);
        let full = rebuild || fits_up_to.to_bits() != scratch.fits_bits;
        #[cfg(test)]
        let (marked, active) = (jobs.count_marked(), jobs.num_active());
        let runs = &mut scratch.runs;
        let sched = &mut obs.schedulable;
        let visited = if full {
            sched.clear();
            runs.clear();
            runs.push(0);
            jobs.for_each_active(|job_index, j, dirty| {
                if rebuild {
                    obs.jobs.push(JobObs {
                        id: j.spec.id,
                        spec: Arc::clone(&j.spec),
                        profile: Arc::clone(&j.profile),
                        alloc: j.alloc,
                        local_free: j.local_free,
                        nodes: scratch.nodes_pool.pop().unwrap_or_default(),
                    });
                }
                if dirty {
                    refresh_open(j);
                }
                if rebuild || dirty {
                    copy_job(&mut obs.jobs[job_index], j);
                }
                sched.extend(fitting(j, fits_up_to).map(|stage| (job_index, stage)));
                runs.push(sched.len());
            })
        } else {
            jobs.for_each_dirty(|job_index, j| {
                refresh_open(j);
                copy_job(&mut obs.jobs[job_index], j);
                splice_run(sched, runs, job_index, j, fits_up_to);
            })
        };
        #[cfg(test)]
        scratch.log.push(WriteWork {
            epoch: jobs.epoch(),
            fits_bits: fits_up_to.to_bits(),
            active,
            marked,
            full,
            runs: visited,
        });
        debug_assert!(visited <= jobs.num_active());
        debug_assert_eq!(obs.jobs.len(), jobs.num_active());
        debug_assert_eq!(runs.len(), jobs.num_active() + 1);
        scratch.fits_bits = fits_up_to.to_bits();
        *obs_buf_epoch = jobs.epoch();
    }

    /// The original rebuild-from-scratch observation: rescans the
    /// executor vector for every derived quantity. Kept as the reference
    /// oracle for the incremental path: [`Pending::check`](crate::Pending::check) compares the
    /// two field-for-field, and differential tests call it at every
    /// decision.
    pub fn observation_rebuilt(&self) -> Observation {
        let num_classes = self.cluster.num_classes();
        let available =
            |s: &ExecState| -> bool { matches!(s, ExecState::Free | ExecState::Idle(_)) };
        let mut free_by_class = vec![0usize; num_classes];
        for em in self.execs.iter() {
            if available(em.state()) {
                free_by_class[em.class.index()] += 1;
            }
        }
        let free_total: usize = free_by_class.iter().sum();
        let offline = self
            .execs
            .iter()
            .filter(|em| matches!(em.state(), ExecState::Offline))
            .count();

        let mut jobs = Vec::new();
        let mut schedulable = Vec::new();
        for j in self.jobs.scan_live() {
            let local_free = self.execs.iter().filter(|em| em.idle_on(j.spec.id)).count();
            // Recount the allocation from executor states: the oracle
            // must not trust the engine's incremental `alloc`.
            let alloc = self
                .execs
                .iter()
                .filter(|em| em.state().owner() == Some(j.spec.id))
                .count();
            // Take the static columns from the spec: the oracle must
            // not trust the engine's admission copy.
            let nodes: Vec<NodeObs> = j
                .nodes
                .iter()
                .enumerate()
                .map(|(v, n)| NodeObs {
                    avg_task_duration: j.spec.stages[v].task_duration,
                    mem_demand: j.spec.stages[v].mem_demand,
                    ..*n
                })
                .collect();
            let job_index = jobs.len();
            for (v, n) in nodes.iter().enumerate() {
                // Spelled out rather than `NodeObs::is_open`: the oracle
                // must not share the rule it checks.
                if n.runnable && n.waiting > n.in_flight {
                    // At least one free executor must fit the stage.
                    let fits = self
                        .execs
                        .iter()
                        .any(|em| available(em.state()) && em.memory >= n.mem_demand);
                    if fits {
                        schedulable.push((job_index, StageId(v as u32)));
                    }
                }
            }
            jobs.push(JobObs {
                id: j.spec.id,
                spec: Arc::clone(&j.spec),
                profile: Arc::clone(&j.profile),
                alloc,
                local_free,
                nodes,
            });
        }

        Observation {
            time: self.now,
            cost: self.cost_integral,
            total_executors: self.execs.len(),
            num_classes,
            free_total,
            offline,
            free_by_class,
            class_memory: self.cluster.classes.iter().map(|c| c.memory).collect(),
            jobs,
            schedulable,
        }
    }
}

/// Refreshes a dirty job's open stages from its nodes.
fn refresh_open(j: &mut JobRt) {
    j.open.clear();
    j.open.extend(
        j.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_open())
            .map(|(v, n)| (StageId(v as u32), n.mem_demand)),
    );
}

/// Copies a job's dynamic state into its observation entry.
fn copy_job(jo: &mut JobObs, j: &JobRt) {
    jo.alloc = j.alloc;
    jo.local_free = j.local_free;
    jo.nodes.clear();
    jo.nodes.extend_from_slice(&j.nodes);
}

/// The job's open stages that some available executor fits: its run of
/// `schedulable`.
fn fitting(j: &JobRt, fits_up_to: f64) -> impl Iterator<Item = StageId> + '_ {
    j.open
        .iter()
        .filter(move |&&(_, demand)| demand <= fits_up_to)
        .map(|&(stage, _)| stage)
}

/// Overwrites active job `job_index`'s run of `schedulable` in place
/// with its current one, shifting the tail when the run's length
/// changed, and moves the later run boundaries with it. Touching only
/// later runs, splices compose in any order.
fn splice_run(
    sched: &mut Vec<(usize, StageId)>,
    runs: &mut [usize],
    job_index: usize,
    j: &JobRt,
    fits_up_to: f64,
) {
    let (start, end) = (runs[job_index], runs[job_index + 1]);
    let new_end = start + fitting(j, fits_up_to).count();
    if new_end != end {
        let len = sched.len();
        if new_end > end {
            sched.resize(len + (new_end - end), (job_index, StageId(0)));
            sched.copy_within(end..len, new_end);
        } else {
            sched.copy_within(end..len, new_end);
            sched.truncate(len - (end - new_end));
        }
        for b in &mut runs[job_index + 1..] {
            *b = *b + new_end - end;
        }
    }
    for (slot, stage) in sched[start..new_end].iter_mut().zip(fitting(j, fits_up_to)) {
        *slot = (job_index, stage);
    }
}

/// `Err` naming `what` when the two values differ.
fn same<T: PartialEq + Debug>(what: impl Display, x: &T, y: &T) -> Result<(), String> {
    if x == y {
        Ok(())
    } else {
        Err(format!("{what}: {x:?} vs {y:?}"))
    }
}

/// Field-for-field comparison of two observations; job specs are
/// compared by identity (they are shared `Arc`s of the same episode).
/// Returns `Err` describing the first mismatch — or naming the side
/// whose `schedulable` breaks the grouping invariant, which equal but
/// equally misordered lists would otherwise pass.
pub fn obs_equal(a: &Observation, b: &Observation) -> Result<(), String> {
    for (side, o) in [("left", a), ("right", b)] {
        if !o.schedulable_is_grouped() {
            return Err(format!(
                "{side} schedulable is not strictly ascending by (job index, stage): {:?}",
                o.schedulable
            ));
        }
    }
    same("time", &a.time, &b.time)?;
    same("cost bits", &a.cost.to_bits(), &b.cost.to_bits())?;
    same("total_executors", &a.total_executors, &b.total_executors)?;
    same("num_classes", &a.num_classes, &b.num_classes)?;
    same("free_total", &a.free_total, &b.free_total)?;
    same("offline", &a.offline, &b.offline)?;
    same("free_by_class", &a.free_by_class, &b.free_by_class)?;
    same("class_memory", &a.class_memory, &b.class_memory)?;
    same("job count", &a.jobs.len(), &b.jobs.len())?;
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        same("job id", &x.id, &y.id)?;
        let id = x.id;
        if !Arc::ptr_eq(&x.spec, &y.spec) {
            return Err(format!("job {id:?}: spec identity differs"));
        }
        same(format_args!("job {id:?}: profile"), &x.profile, &y.profile)?;
        same(format_args!("job {id:?}: alloc"), &x.alloc, &y.alloc)?;
        same(
            format_args!("job {id:?}: local_free"),
            &x.local_free,
            &y.local_free,
        )?;
        same(
            format_args!("job {id:?}: node count"),
            &x.nodes.len(),
            &y.nodes.len(),
        )?;
        for (v, (n, m)) in x.nodes.iter().zip(&y.nodes).enumerate() {
            same(format_args!("job {id:?} node {v}"), n, m)?;
        }
    }
    same("schedulable", &a.schedulable, &b.schedulable)
}
