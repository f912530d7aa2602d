//! The decision exchange: [`Simulator::step`] hands out the decisions of
//! an instant's scheduling pass one at a time, until an executor or a
//! schedulable stage runs out, or an answer passes or dispatches nothing.

use super::execs::{ExecMeta, ExecState};
use super::observe::obs_equal;
use super::queue::Ev;
use super::Simulator;
use crate::sched::{Action, LimitScope, Observation};

/// A decision the engine owes, borrowing the simulator until
/// [`Pending::resume`] answers it. Dropped unanswered, it stays owed:
/// the next [`Simulator::step`] offers the same observation again.
pub struct Pending<'a> {
    sim: &'a mut Simulator,
}

impl Pending<'_> {
    /// The observation to decide on: the engine's pooled buffer, with
    /// at least one free executor and one schedulable stage.
    pub fn observation(&self) -> &Observation {
        &self.sim.obs_buf
    }

    /// Compares the observation with the rebuild-from-scratch reference
    /// [`Simulator::observation_rebuilt`]: `Err` names the first field
    /// that differs.
    pub fn check(&self) -> Result<(), String> {
        obs_equal(&self.sim.obs_buf, &self.sim.observation_rebuilt())
    }

    /// Answers the decision: folds it, with the penalty accrued since
    /// the last one, into the episode's tally and applies `action`.
    /// `None`, or an action that dispatches no executor (counted as
    /// wasted), ends the pass.
    pub fn resume(self, action: Option<Action>) {
        let sim = self.sim;
        let Some(action) = action else {
            sim.pass_open = false;
            return;
        };
        sim.actions
            .push(sim.now, sim.cost_integral - sim.cost_at_last_action);
        sim.cost_at_last_action = sim.cost_integral;
        if sim.apply_action(&action) == 0 {
            sim.wasted_actions += 1;
            sim.pass_open = false;
        }
    }
}

impl Simulator {
    /// Runs events until the engine owes a decision and returns it, or
    /// `None` once the episode has ended — and on every call after that.
    pub fn step(&mut self) -> Option<Pending<'_>> {
        loop {
            // Nothing free or nothing schedulable is not worth a decision.
            if self.pass_open && self.execs.avail_total() > 0 {
                self.write_observation();
                if !self.obs_buf.schedulable.is_empty() {
                    return Some(Pending { sim: self });
                }
            }
            self.pass_open = false;
            if self.outcome.is_some() {
                return None;
            }
            self.next_instant();
        }
    }

    /// Applies one action; returns the number of executors dispatched.
    fn apply_action(&mut self, a: &Action) -> usize {
        // Pending and retired jobs are equally un-actionable — the
        // lenient lookup covers out-of-range ids from buggy policies.
        let Some(job) = self.jobs.live(a.job) else {
            return 0;
        };
        let v = a.stage.index();
        let Some(n) = job.nodes.get(v) else {
            return 0;
        };
        if !n.is_open() {
            return 0;
        }
        let demand = job.spec.stages[v].mem_demand;
        // The same feasibility rule the observation's schedulable set
        // uses: some available executor (of the requested class, if any)
        // must fit the stage's memory demand. Checking it here keeps the
        // two paths from ever disagreeing about actionability.
        if !self
            .execs
            .avail_fits(&self.cluster.classes, demand, a.class)
        {
            return 0;
        }
        let job_id = a.job;
        let node = v as u32;

        // Unclaimed tasks bound the total dispatch.
        let unclaimed = (n.waiting - n.in_flight) as usize;

        // Allocation headroom under the limit.
        let cur_scope = match a.scope {
            LimitScope::Job => job.alloc,
            LimitScope::Stage => (n.executors_on + n.in_flight) as usize,
        };

        let class_ok = |em: &ExecMeta| -> bool {
            em.memory >= demand && a.class.map_or(true, |c| em.class == c)
        };

        let mut dispatched = 0usize;

        // Candidate lists use pooled scratch: steady-state dispatch
        // allocates nothing. (Safe to take out of `self`: nothing below
        // recurses back into `apply_action`.)
        let mut cand = std::mem::take(&mut self.scratch_execs);

        // Tier 1: idle executors already bound to this job — free motion,
        // does not change the job's allocation. The idle set iterates in
        // ascending index order, matching the historical full scan.
        cand.clear();
        cand.extend(self.execs.idle_ids().filter(|&e| {
            let em = self.execs.get(e);
            em.idle_on(job_id) && class_ok(em)
        }));
        for &e in &cand {
            if dispatched >= unclaimed {
                break;
            }
            // For stage scope, locals still count against the stage limit.
            if a.scope == LimitScope::Stage && cur_scope + dispatched >= a.limit {
                break;
            }
            self.start_task(e, job_id, node);
            dispatched += 1;
        }

        // Tier 2: unbound executors, then idle executors of other jobs —
        // both incur the move delay and raise this job's allocation. Both
        // sets iterate in ascending index order, like the old full scans.
        cand.clear();
        cand.extend(
            self.execs
                .free_ids()
                .filter(|&e| class_ok(self.execs.get(e))),
        );
        cand.extend(self.execs.idle_ids().filter(|&e| {
            let em = self.execs.get(e);
            !em.idle_on(job_id) && class_ok(em)
        }));
        for &e in &cand {
            if dispatched >= unclaimed {
                break;
            }
            let headroom = match a.scope {
                LimitScope::Job => self.jobs.job(job_id).alloc < a.limit,
                LimitScope::Stage => cur_scope + dispatched < a.limit,
            };
            if !headroom {
                break;
            }
            let delay = self.cluster.move_delay;
            // Cold JVM at the new job. One transition covers the detach
            // from any previous owner and the attach to this job (alloc
            // −1/+1 via the choke point).
            self.execs.set_last_node(e, None);
            self.set_exec_state(e, ExecState::Moving { job: job_id, node });
            let rt = self.jobs.job_mut(job_id);
            rt.nodes[v].in_flight += 1;
            if let Some(g) = &mut self.gantt {
                if delay > 0.0 {
                    g.record(e, self.now, self.now + delay, None);
                }
            }
            self.queue
                .push(self.now + delay, Ev::ExecReady(e, self.execs.get(e).epoch));
            dispatched += 1;
        }
        cand.clear();
        self.scratch_execs = cand;

        // Only a dispatch raises `alloc`, and it has marked the job
        // already; a wasted action must not mark it.
        if dispatched > 0 {
            let job = self.jobs.job_mut(job_id);
            job.peak_alloc = job.peak_alloc.max(job.alloc);
        }
        dispatched
    }
}
