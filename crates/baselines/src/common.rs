//! Shared helpers for the baseline schedulers.

use decima_core::{ClassId, StageId};
use decima_sim::{JobObs, Observation};

/// Jobs (indices into `obs.jobs`) with at least one schedulable stage,
/// ascending: one pass over the per-job groups of `obs.schedulable`.
pub fn schedulable_jobs(obs: &Observation) -> impl Iterator<Item = usize> + '_ {
    obs.schedulable_groups().map(|(job_idx, _)| job_idx)
}

/// Schedulable stages of one job, ascending: the job's group in
/// `obs.schedulable`, found by binary search.
pub fn schedulable_stages(obs: &Observation, job_idx: usize) -> impl Iterator<Item = StageId> + '_ {
    obs.schedulable_of(job_idx).iter().map(|&(_, s)| s)
}

/// True if the job has at least one schedulable stage.
pub fn has_schedulable(obs: &Observation, job_idx: usize) -> bool {
    !obs.schedulable_of(job_idx).is_empty()
}

/// Picks the schedulable stage of `job_idx` lying on the job's critical
/// path: the one with the maximum critical-path value (total downstream
/// work including itself; the last such stage on a tie). Used by the
/// exhaustive-search order scheduler (Appendix H); SJF-CP (§7.1) applies
/// the same rule inside its one pass.
pub fn critical_path_stage(obs: &Observation, job_idx: usize) -> Option<StageId> {
    let cp = &obs.jobs[job_idx].profile.critical_path;
    schedulable_stages(obs, job_idx).max_by(|a, b| cp[a.index()].total_cmp(&cp[b.index()]))
}

/// Picks the schedulable stage with the most waiting tasks (a reasonable
/// round-robin "drain the branches" choice for fair schedulers).
pub fn widest_stage(obs: &Observation, job_idx: usize) -> Option<StageId> {
    let job = &obs.jobs[job_idx];
    schedulable_stages(obs, job_idx).max_by_key(|s| job.nodes[s.index()].waiting)
}

/// Remaining work of a job (unfinished tasks × durations).
pub fn remaining_work(job: &JobObs) -> f64 {
    job.remaining_work()
}

/// The tightest-fitting executor class with a free slot for `demand`, if
/// any (the "exhaust the best-fitting category first" rule of App. F).
pub fn best_fit_free_class(obs: &Observation, demand: f64) -> Option<ClassId> {
    (0..obs.num_classes)
        .filter(|&c| obs.free_by_class[c] > 0 && obs.class_memory[c] >= demand)
        .min_by(|&a, &b| obs.class_memory[a].total_cmp(&obs.class_memory[b]))
        .map(|c| ClassId(c as u16))
}

/// Attaches the best-fitting free class to an action when the cluster is
/// heterogeneous; single-class clusters need no annotation.
pub fn with_best_fit(
    obs: &Observation,
    job_idx: usize,
    stage: StageId,
    mut action: decima_sim::Action,
) -> decima_sim::Action {
    if obs.num_classes > 1 {
        let demand = obs.jobs[job_idx].nodes[stage.index()].mem_demand;
        if let Some(c) = best_fit_free_class(obs, demand) {
            action = action.with_class(c);
        }
    }
    action
}

/// The whole-vector bodies the helpers above had before `schedulable`
/// was read as per-job groups and the per-job quantities came from
/// [`decima_sim::JobProfile`], kept as the reference the differential
/// test compares against: they assume nothing about the order of
/// `obs.schedulable` and derive everything from the spec.
#[cfg(test)]
mod reference {
    use decima_core::StageId;
    use decima_sim::{Action, Observation};

    pub fn schedulable_stages(
        obs: &Observation,
        job_idx: usize,
    ) -> impl Iterator<Item = StageId> + '_ {
        obs.schedulable
            .iter()
            .filter(move |(j, _)| *j == job_idx)
            .map(|&(_, s)| s)
    }

    pub fn has_schedulable(obs: &Observation, job_idx: usize) -> bool {
        schedulable_stages(obs, job_idx).next().is_some()
    }

    pub fn critical_path_stage(obs: &Observation, job_idx: usize) -> Option<StageId> {
        let cp = obs.jobs[job_idx].spec.critical_path();
        schedulable_stages(obs, job_idx).max_by(|a, b| cp[a.index()].total_cmp(&cp[b.index()]))
    }

    /// `SjfCpScheduler::decide` as it was (single-class: no class
    /// annotation).
    pub fn sjf_cp(obs: &Observation) -> Option<Action> {
        let job_idx = (0..obs.jobs.len())
            .filter(|&j| has_schedulable(obs, j))
            .min_by(|&a, &b| {
                obs.jobs[a]
                    .spec
                    .total_work()
                    .total_cmp(&obs.jobs[b].spec.total_work())
            })?;
        let stage = critical_path_stage(obs, job_idx)?;
        Some(Action::new(
            obs.jobs[job_idx].id,
            stage,
            obs.total_executors,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SjfCpScheduler;
    use decima_core::{JobBuilder, JobId, StageSpec};
    use decima_sim::{JobProfile, NodeObs, Scheduler};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One generated stage: `(tasks, duration choice, chained to the
    /// previous stage, open)`. Two task counts and two durations make
    /// equal total work and equal critical-path values common.
    type GenStage = (u32, usize, bool, bool);

    /// One generated job: its stages, and whether any of them may be
    /// schedulable at all (so empty groups occur between full ones, and
    /// at the first and last job).
    type GenJob = (Vec<GenStage>, bool);

    fn gen_jobs() -> impl Strategy<Value = Vec<GenJob>> {
        let coin = |heads_in: u32| (0..heads_in).prop_map(|x| x > 0);
        let stage = (1..3u32, 0..2usize, coin(2), coin(3));
        proptest::collection::vec((proptest::collection::vec(stage, 1..6), coin(3)), 0..7)
    }

    fn observation(jobs: &[GenJob]) -> Observation {
        let mut obs = Observation {
            total_executors: 8,
            num_classes: 1,
            free_total: 8,
            free_by_class: vec![8],
            class_memory: vec![1.0],
            ..Observation::default()
        };
        for (job_idx, (stages, any_open)) in jobs.iter().enumerate() {
            // Ids ascend with the index, as in every engine observation.
            let mut b = JobBuilder::new(JobId(2 * job_idx as u32 + 1));
            for (v, &(tasks, dur, chained, _)) in stages.iter().enumerate() {
                b.stage(StageSpec::simple(tasks, [1.0, 2.0][dur]));
                if chained && v > 0 {
                    b.edge(v as u32 - 1, v as u32);
                }
            }
            let spec = Arc::new(b.build().expect("a chain of stages is a valid DAG"));
            for (v, &(.., open)) in stages.iter().enumerate() {
                if open && *any_open {
                    obs.schedulable.push((job_idx, StageId(v as u32)));
                }
            }
            obs.jobs.push(JobObs {
                id: spec.id,
                profile: Arc::new(JobProfile::of(&spec)),
                alloc: 0,
                local_free: 0,
                nodes: spec
                    .stages
                    .iter()
                    .map(|s| NodeObs {
                        waiting: s.num_tasks,
                        running: 0,
                        finished: 0,
                        executors_on: 0,
                        in_flight: 0,
                        runnable: true,
                        completed: false,
                        avg_task_duration: s.task_duration,
                        mem_demand: s.mem_demand,
                    })
                    .collect(),
                spec,
            });
        }
        obs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn grouped_helpers_agree_with_the_whole_vector_reference(jobs in gen_jobs()) {
            let obs = observation(&jobs);
            prop_assert!(obs.schedulable_is_grouped());
            for j in 0..obs.jobs.len() {
                prop_assert_eq!(
                    schedulable_stages(&obs, j).collect::<Vec<_>>(),
                    reference::schedulable_stages(&obs, j).collect::<Vec<_>>()
                );
                prop_assert_eq!(has_schedulable(&obs, j), reference::has_schedulable(&obs, j));
                prop_assert_eq!(
                    critical_path_stage(&obs, j),
                    reference::critical_path_stage(&obs, j)
                );
            }
            prop_assert_eq!(
                schedulable_jobs(&obs).collect::<Vec<_>>(),
                (0..obs.jobs.len())
                    .filter(|&j| reference::has_schedulable(&obs, j))
                    .collect::<Vec<_>>()
            );
            prop_assert_eq!(SjfCpScheduler.decide(&obs), reference::sjf_cp(&obs));
        }
    }

    #[test]
    fn ties_keep_the_first_job_and_the_last_stage() {
        // Two jobs of equal total work, each with two open stages of
        // equal critical path: `min_by` keeps the first job, `max_by`
        // the last stage.
        let twin = (vec![(1, 0, false, true), (1, 0, false, true)], true);
        let obs = observation(&[twin.clone(), twin]);
        let a = SjfCpScheduler
            .decide(&obs)
            .expect("something is schedulable");
        assert_eq!((a.job, a.stage), (obs.jobs[0].id, StageId(1)));
        assert_eq!(Some(a), reference::sjf_cp(&obs));
    }
}
