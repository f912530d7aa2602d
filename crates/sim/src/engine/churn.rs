//! Cluster-dynamics handlers (see [`crate::dynamics`]): the churn tick,
//! outages, assignment cancellation, and retry-budget job kills.

use super::execs::ExecState;
use super::queue::Ev;
use super::Simulator;
use crate::dynamics::Perturbations;
use crate::result::EpisodeOutcome;
use decima_core::{ExecutorId, JobId};

impl Simulator {
    /// One churn tick: schedule the next tick, then try to take one
    /// uniformly-picked executor offline. The tick is skipped (not
    /// re-targeted) when the pick is already offline or is the last
    /// online executor — keeping at least one executor up guarantees
    /// work-conserving episodes stay live.
    pub(super) fn on_churn_tick(&mut self, d: &mut Perturbations) -> bool {
        // The episode is over once every job finished: stop the churn
        // process so the event queue can drain.
        if self.jobs.remaining() == 0 {
            return false;
        }
        // No-progress livelock: every remaining job has arrived, the
        // whole cluster is online with nothing moving or running (so no
        // TaskDone/ExecReady/ExecOnline can arrive), and the full cycle
        // since the previous tick started zero tasks. Only churn ticks
        // keep the queue alive — a never-scheduling policy would replay
        // them until `max_events`. End the episode with an explicit
        // outcome instead.
        let n = self.execs.len();
        let nothing_in_flight = self.execs.avail_total() == n && self.execs.offline_count() == 0;
        if self.jobs.num_active() == self.jobs.remaining()
            && nothing_in_flight
            && self.tasks_at_last_churn_tick == Some(self.tasks_started)
        {
            self.outcome = Some(EpisodeOutcome::Livelock);
            return false; // no next tick: the episode ends here
        }
        self.tasks_at_last_churn_tick = Some(self.tasks_started);
        let next = d.next_churn_interval();
        // An empty cluster has no victim to pick.
        let pick = (n > 0).then(|| (ExecutorId(d.pick_victim(n) as u32), d.sample_outage()));
        self.queue.push(self.now + next, Ev::ChurnTick);
        let Some((victim, outage)) = pick else {
            return false;
        };
        if self.execs.offline_count() + 1 >= n
            || matches!(self.execs.get(victim).state(), ExecState::Offline)
        {
            return false;
        }
        self.take_offline(victim, outage, d)
    }

    /// Cancels an executor's current assignment, if any: a running task
    /// is killed and re-queued (`waiting += 1`), an in-flight move is
    /// rolled back, and the executor's epoch is bumped so the pending
    /// `TaskDone`/`ExecReady` is dropped when it pops. The partial run
    /// is recorded in the Gantt and `last_node` is cleared (the JVM
    /// dies with the interruption). The executor's *state* is left for
    /// the caller to set — the one cancellation path shared by churn
    /// ([`Simulator::take_offline`]) and job kills
    /// ([`Simulator::fail_job`]). Returns whether a running task was
    /// killed.
    fn cancel_assignment(&mut self, e: ExecutorId) -> bool {
        let killed = match *self.execs.get(e).state() {
            ExecState::Free | ExecState::Idle(_) | ExecState::Offline => false,
            ExecState::Moving { job, node } => {
                self.execs.bump_epoch(e); // cancels the pending ExecReady

                // The move's target job may have finished while the
                // executor was in transit (finish does not interrupt
                // moves): its node counters died with it.
                if let Some(rt) = self.jobs.live_mut(job) {
                    rt.nodes[node as usize].in_flight -= 1;
                }
                false
            }
            ExecState::Running {
                job, node, started, ..
            } => {
                self.execs.bump_epoch(e); // cancels the pending TaskDone
                let rt = self.jobs.job_mut(job); // a running task implies a live job
                let nrt = &mut rt.nodes[node as usize];
                nrt.running -= 1;
                nrt.executors_on -= 1;
                nrt.waiting += 1; // the interrupted task reruns from scratch
                if let Some(g) = &mut self.gantt {
                    g.record(e, started, self.now, Some(job));
                }
                true
            }
        };
        self.execs.set_last_node(e, None);
        killed
    }

    /// Takes one online executor offline for `outage` seconds: its
    /// assignment is cancelled and all availability bookkeeping flows
    /// through `set_exec_state`.
    fn take_offline(&mut self, e: ExecutorId, outage: f64, d: &mut Perturbations) -> bool {
        debug_assert!(
            !matches!(self.execs.get(e).state(), ExecState::Offline),
            "double offline for {e:?}"
        );
        if self.cancel_assignment(e) {
            d.counters.interrupted += 1;
        }
        self.set_exec_state(e, ExecState::Offline);
        d.counters.churn_events += 1;
        d.offline_since[e.index()] = Some(self.now);
        self.queue.push(self.now + outage, Ev::ExecOnline(e));
        true
    }

    /// An outage ends: the executor returns unbound and cold.
    pub(super) fn on_exec_online(&mut self, e: ExecutorId) -> bool {
        debug_assert!(matches!(self.execs.get(e).state(), ExecState::Offline));
        self.set_exec_state(e, ExecState::Free);
        if let Some(d) = &mut self.dynamics {
            if let Some(t) = d.offline_since[e.index()].take() {
                d.counters.lost_exec_seconds += self.now - t;
            }
        }
        true
    }

    /// Kills a job whose dynamics retry budget is exhausted: cancels its
    /// running tasks and in-flight moves, releases every bound executor,
    /// and retires the job unfinished (reported as failed).
    pub(super) fn fail_job(&mut self, job_id: JobId) {
        for i in 0..self.execs.len() {
            let e = ExecutorId(i as u32);
            if self.execs.get(e).state().owner() == Some(job_id) {
                // Job kills are not churn: the re-queued tasks die with
                // the job, so they are not counted as `interrupted`.
                self.cancel_assignment(e);
                self.set_exec_state(e, ExecState::Free);
            }
        }
        if let Some(d) = &mut self.dynamics {
            d.counters.failed_jobs += 1;
        }
        self.jobs.retire(job_id, None, true);
    }
}
