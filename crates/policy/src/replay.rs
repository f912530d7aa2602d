//! Compact stored observations for the gradient pass.
//!
//! A recorded rollout used to keep a full [`Observation`] clone per
//! decision. Most of that state is never read when the learner re-scores
//! the decision: the policy forward consumes only the candidate list,
//! the executor-availability summary, and per-node `(remaining tasks,
//! executors on, executors in flight)` — everything else (offline
//! count, per-node finished/running splits, runnable and completed
//! flags, and the spec-static duration/memory columns) is either unread
//! or reconstructible from the job spec.
//!
//! [`ReplayObs`] stores exactly the read set, plus the decision's time
//! and objective integral, from which the trainer derives the rewards
//! (`decima_rl::Trajectory::raw_rewards`). Every job's per-stage state
//! shares one flat buffer, so a stored decision is a fixed handful of
//! allocations whatever its job count. [`ReplayObs::write_into`]
//! rebuilds a full [`Observation`] whose *policy-visible* fields are
//! bit-identical to the original, so the gradient computed from stored
//! trajectories is unchanged (see the bitwise equivalence tests here and
//! in `agent.rs`), while long-horizon trajectories shrink to the fields
//! gradient replay actually reads.

use decima_core::{JobId, JobSpec, SimTime, StageId};
use decima_sim::{JobObs, JobProfile, NodeObs, Observation};
use std::sync::Arc;

/// Per-stage dynamic state the policy forward reads: the paper's feature
/// (i) plus the executor-occupancy counts. Everything else in
/// [`NodeObs`] is spec-static or unread during replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayNode {
    /// Tasks remaining (`waiting + running` in the live observation).
    pub remaining: u32,
    /// Executors currently running tasks of this stage.
    pub executors_on: u32,
    /// Executors in flight (moving) toward this stage.
    pub in_flight: u32,
}

/// One job's replay-relevant state; its stages' state is its run of
/// [`ReplayObs::nodes`].
#[derive(Clone, Debug)]
pub struct ReplayJob {
    /// Job identifier.
    pub id: JobId,
    /// Static specification (shared with the simulator; pointer identity
    /// is what keeps the episode's `GraphCache` keys valid).
    pub spec: Arc<JobSpec>,
    /// The job's static profile: the observation's own `Arc`, stored and
    /// re-emitted as is (a replay derives nothing).
    pub profile: Arc<JobProfile>,
    /// Executors bound to the job.
    pub alloc: usize,
    /// Executors bound to the job and currently idle.
    pub local_free: usize,
}

/// The subset of an [`Observation`] that gradient replay reads, and the
/// decision's place in the reward stream.
#[derive(Clone, Debug, Default)]
pub struct ReplayObs {
    /// Simulation time of the decision.
    pub time: SimTime,
    /// The objective integral at the decision ([`Observation::cost`]).
    pub cost: f64,
    /// Total executor slots in the cluster.
    pub total_executors: usize,
    /// Number of executor classes.
    pub num_classes: usize,
    /// Free executors in total.
    pub free_total: usize,
    /// Free executors per class.
    pub free_by_class: Vec<usize>,
    /// Memory capacity per class.
    pub class_memory: Vec<f64>,
    /// Active jobs at this decision.
    pub jobs: Vec<ReplayJob>,
    /// Every job's per-stage state in one buffer, in job order: job
    /// `i`'s run is as long as its spec's stage list and indexed like it.
    pub nodes: Vec<ReplayNode>,
    /// Actionable `(job index, stage)` pairs.
    pub schedulable: Vec<(usize, StageId)>,
}

impl ReplayObs {
    /// Captures the replay-relevant subset of `obs`.
    pub fn from_observation(obs: &Observation) -> Self {
        let mut nodes = Vec::with_capacity(obs.jobs.iter().map(|j| j.nodes.len()).sum());
        for j in &obs.jobs {
            debug_assert_eq!(j.nodes.len(), j.spec.stages.len(), "one node per stage");
            nodes.extend(j.nodes.iter().map(|n| ReplayNode {
                remaining: n.remaining_tasks(),
                executors_on: n.executors_on,
                in_flight: n.in_flight,
            }));
        }
        ReplayObs {
            time: obs.time,
            cost: obs.cost,
            total_executors: obs.total_executors,
            num_classes: obs.num_classes,
            free_total: obs.free_total,
            free_by_class: obs.free_by_class.clone(),
            class_memory: obs.class_memory.clone(),
            jobs: obs
                .jobs
                .iter()
                .map(|j| ReplayJob {
                    id: j.id,
                    spec: Arc::clone(&j.spec),
                    profile: Arc::clone(&j.profile),
                    alloc: j.alloc,
                    local_free: j.local_free,
                })
                .collect(),
            nodes,
            schedulable: obs.schedulable.clone(),
        }
    }

    /// Number of jobs active at the decision.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Rebuilds a full [`Observation`] whose policy-visible fields are
    /// bit-identical to the one this was captured from, `time` and
    /// `cost` included. Fields the forward pass never reads are zeroed
    /// (`offline`, per-node `running`/`finished` splits and status
    /// flags); spec-static columns are restored from the spec. Reuses
    /// `obs`'s buffers, so a single scratch observation serves a whole
    /// trajectory.
    pub fn write_into(&self, obs: &mut Observation) {
        obs.time = self.time;
        obs.cost = self.cost;
        obs.total_executors = self.total_executors;
        obs.num_classes = self.num_classes;
        obs.free_total = self.free_total;
        obs.offline = 0;
        obs.free_by_class.clear();
        obs.free_by_class.extend_from_slice(&self.free_by_class);
        obs.class_memory.clear();
        obs.class_memory.extend_from_slice(&self.class_memory);

        // Entries are overwritten in place, so a warm scratch
        // observation allocates nothing.
        obs.jobs.truncate(self.jobs.len());
        let mut runs = self.nodes.as_slice();
        for (i, rj) in self.jobs.iter().enumerate() {
            let (run, rest) = runs.split_at(rj.spec.stages.len());
            runs = rest;
            let mut nodes = obs
                .jobs
                .get_mut(i)
                .map(|jo| std::mem::take(&mut jo.nodes))
                .unwrap_or_default();
            nodes.clear();
            nodes.extend(run.iter().zip(&rj.spec.stages).map(|(rn, stage)| NodeObs {
                waiting: rn.remaining,
                running: 0,
                finished: 0,
                executors_on: rn.executors_on,
                in_flight: rn.in_flight,
                runnable: false,
                completed: false,
                avg_task_duration: stage.task_duration,
                mem_demand: stage.mem_demand,
            }));
            let entry = JobObs {
                id: rj.id,
                spec: Arc::clone(&rj.spec),
                profile: Arc::clone(&rj.profile),
                alloc: rj.alloc,
                local_free: rj.local_free,
                nodes,
            };
            match obs.jobs.get_mut(i) {
                Some(jo) => *jo = entry,
                None => obs.jobs.push(entry),
            }
        }
        debug_assert!(runs.is_empty(), "one node per stage");
        obs.schedulable.clear();
        obs.schedulable.extend_from_slice(&self.schedulable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::ClusterSpec;
    use decima_gnn::{FeatureConfig, FEAT_DIM};
    use decima_sim::{Action, Scheduler, SimConfig, Simulator};
    use decima_workload::tpch_batch;

    /// Collects every observation a greedy-ish scheduler decides on.
    struct Collector(Vec<Observation>);
    impl Scheduler for Collector {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            self.0.push(obs.clone());
            let &(j, s) = obs.schedulable.first()?;
            Some(Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1))
        }
    }

    #[test]
    fn round_trip_preserves_every_policy_visible_field() {
        let jobs: Vec<_> = tpch_batch(3, 5)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 8).max(1);
                }
                j
            })
            .collect();
        let sim = Simulator::new(
            ClusterSpec::homogeneous(4).with_move_delay(0.5),
            jobs,
            SimConfig::default().with_seed(7),
        );
        let mut coll = Collector(Vec::new());
        let _ = sim.run(&mut coll);
        assert!(coll.0.len() > 10, "episode produced decisions");

        let fc = FeatureConfig::default();
        let mut scratch = Observation::default();
        for obs in &coll.0 {
            let compact = ReplayObs::from_observation(obs);
            compact.write_into(&mut scratch);

            // The reward stream's place and the forward pass's full
            // read set, bit-for-bit.
            assert_eq!(scratch.time, obs.time);
            assert_eq!(scratch.cost.to_bits(), obs.cost.to_bits());
            assert_eq!(scratch.total_executors, obs.total_executors);
            assert_eq!(scratch.num_classes, obs.num_classes);
            assert_eq!(scratch.free_total, obs.free_total);
            assert_eq!(scratch.free_by_class, obs.free_by_class);
            assert_eq!(scratch.schedulable, obs.schedulable);
            assert!(scratch.schedulable_is_grouped(), "grouping survives replay");
            for (a, b) in scratch.class_memory.iter().zip(&obs.class_memory) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(scratch.jobs.len(), obs.jobs.len());
            for (a, b) in scratch.jobs.iter().zip(&obs.jobs) {
                assert_eq!(a.id, b.id);
                assert!(Arc::ptr_eq(&a.spec, &b.spec), "spec identity kept");
                assert!(Arc::ptr_eq(&a.profile, &b.profile), "profile re-emitted");
                assert_eq!(a.alloc, b.alloc);
                assert_eq!(a.local_free, b.local_free);
                assert_eq!(a.nodes.len(), b.nodes.len());
                for (x, y) in a.nodes.iter().zip(&b.nodes) {
                    assert_eq!(x.remaining_tasks(), y.remaining_tasks());
                    assert_eq!(x.executors_on, y.executors_on);
                    assert_eq!(x.in_flight, y.in_flight);
                    assert_eq!(x.avg_task_duration.to_bits(), y.avg_task_duration.to_bits());
                    assert_eq!(x.mem_demand.to_bits(), y.mem_demand.to_bits());
                }
            }

            // And the derived GNN feature matrix is bit-identical.
            let g_full = fc.graph_input(obs);
            let g_compact = fc.graph_input(&scratch);
            assert_eq!(g_full.num_nodes(), g_compact.num_nodes());
            for r in 0..g_full.num_nodes() {
                for c in 0..FEAT_DIM {
                    assert_eq!(
                        g_full.features.get(r, c).to_bits(),
                        g_compact.features.get(r, c).to_bits(),
                        "feature ({r},{c}) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn compact_form_is_smaller_than_the_full_observation_node() {
        // The point of the exercise: the stored per-node record must be
        // strictly smaller than NodeObs (which carries two f64 columns
        // and the status flags the replay never reads).
        assert!(std::mem::size_of::<ReplayNode>() < std::mem::size_of::<NodeObs>());
    }
}
