//! The discrete-event simulation engine.
//!
//! Models a Spark-like cluster (§3, §6.2): executors are slots bound to at
//! most one job at a time; moving an executor between jobs costs
//! `ClusterSpec::move_delay` seconds of dead time (JVM teardown/launch);
//! the first task an executor runs on a stage is slowed by the stage's
//! first-wave factor; per-task durations inflate with the job's current
//! parallelism according to its [`InflationCurve`](decima_core::InflationCurve);
//! optional log-normal noise completes the fidelity switches.
//!
//! [`Simulator::step`] runs events up to the paper's next scheduling
//! decision and hands it out as a [`Pending`]; its answer dispatches free
//! executors — idle executors already bound to the target job first (no
//! delay), then unbound or other-job executors (with delay) — up to the
//! action's parallelism limit and the stage's unclaimed task count.
//!
//! When the configured [`crate::dynamics::DynamicsSpec`] is enabled the
//! engine additionally injects executor churn (offline/online
//! transitions through the same `set_exec_state` choke point, so all
//! incremental bookkeeping stays exact), bounded-retry task failures
//! (jobs die after exhausting their budget), and straggler slowdowns —
//! all from a dedicated RNG so the base simulation stream is untouched.
//!
//! The files follow who owns which state — see "Inside
//! `decima-sim::engine`" in docs/ARCHITECTURE.md; this one holds the
//! [`Simulator`], its clock and the task lifecycle.

mod apply;
mod arena;
mod churn;
mod execs;
mod observe;
mod queue;

pub use apply::Pending;
pub use observe::obs_equal;
use observe::ObsScratch;

use crate::config::{Objective, SimConfig};
use crate::drift::DriftCounters;
use crate::dynamics::Perturbations;
use crate::result::{DecisionTally, EpisodeOutcome, EpisodeResult};
use crate::sched::{Observation, Scheduler};
use arena::JobArena;
use decima_core::{ClusterSpec, ExecutorId, Gantt, JobId, JobSpec, SimTime};
use execs::{ExecState, ExecTable};
use queue::{Ev, EventQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The discrete-event cluster simulator.
pub struct Simulator {
    cluster: ClusterSpec,
    cfg: SimConfig,
    /// Job lifecycle, live runtime states and the active list.
    jobs: JobArena,
    /// Executors and every count derived from their states; mutated
    /// only through `ExecTable::set_exec_state`.
    execs: ExecTable,
    queue: EventQueue,
    /// Pooled scratch for `apply_action`'s dispatch candidate lists.
    scratch_execs: Vec<ExecutorId>,
    /// Pooled side state of the observation write: recycled node
    /// vectors.
    obs_scratch: ObsScratch,
    /// `jobs.epoch()` the pooled observation's job structure was last
    /// built at.
    obs_buf_epoch: u64,
    /// Pooled observation reused across decisions: steady-state decisions
    /// update it in place and allocate nothing. The reference
    /// rebuild-from-scratch path survives as `observation_rebuilt`, and
    /// [`Pending::check`] compares the two field-for-field.
    obs_buf: Observation,
    now: SimTime,
    /// Objective integral accumulated so far.
    cost_integral: f64,
    /// Integral value at the previous agent decision.
    cost_at_last_action: f64,
    rng: SmallRng,
    gantt: Option<Gantt>,
    actions: DecisionTally,
    num_events: u64,
    wasted_actions: u64,
    task_failures: u64,
    /// A scheduling pass is under way: `step` offers decisions until an
    /// answer ends it.
    pass_open: bool,
    /// Why event processing stopped; `None` while the episode runs.
    outcome: Option<EpisodeOutcome>,
    /// Tasks started so far — the progress signal the churn-livelock
    /// detector watches.
    tasks_started: u64,
    /// `tasks_started` snapshot at the previous churn tick (`None`
    /// until one full cycle has been observed).
    tasks_at_last_churn_tick: Option<u64>,
    /// Cluster-dynamics runtime state; `None` when the config's
    /// [`crate::dynamics::DynamicsSpec`] is disabled, leaving every hot
    /// path untouched.
    dynamics: Option<Perturbations>,
    /// Per-phase drift counters; empty (and every hook a no-op) when no
    /// phase boundaries are configured.
    drift: DriftCounters,
    /// Phase the clock is currently in (0 until the first boundary).
    cur_phase: usize,
}

impl Simulator {
    /// Builds a simulator over the given cluster and job set.
    ///
    /// Jobs must have dense ids `0..n` in `specs` order and valid specs.
    #[expect(
        clippy::expect_used,
        reason = "documented caller contract: specs come from `JobBuilder::build` or have \
                  passed `validate`; an invalid one is a bug upstream, not a run-time input"
    )]
    pub fn new(cluster: ClusterSpec, specs: Vec<JobSpec>, cfg: SimConfig) -> Self {
        let execs = ExecTable::new(&cluster);
        let mut arrivals = Vec::with_capacity(specs.len());
        let mut jobs = JobArena::with_capacity(specs.len(), cluster.num_classes());
        for (i, spec) in specs.into_iter().enumerate() {
            assert_eq!(spec.id.index(), i, "job ids must be dense 0..n");
            spec.validate()
                .expect("invalid JobSpec handed to Simulator");
            arrivals.push((spec.arrival, spec.id));
            jobs.push_pending(spec);
        }
        // Arrivals count as pushed first, in id order: they win every
        // tie with the events pushed below and during the run.
        let mut queue = EventQueue::with_arrivals(arrivals);
        // Dynamics runtime state only exists when the model is enabled —
        // the disabled default leaves every path (and the event queue)
        // bit-identical to the pre-dynamics engine.
        let mut dynamics = cfg
            .dynamics
            .enabled()
            .then(|| Perturbations::new(cfg.dynamics, cfg.seed, execs.len()));
        if let Some(d) = &mut dynamics {
            if d.spec.churn_iat > 0.0 {
                queue.push(SimTime::from_secs(d.next_churn_interval()), Ev::ChurnTick);
            }
        }
        // Drift phase boundaries are plain pre-scheduled events: with
        // none configured (the default) nothing is pushed and the event
        // stream is bit-identical to the phase-free engine.
        let drift = if cfg.phase_boundaries.is_empty() {
            DriftCounters::default()
        } else {
            for w in cfg.phase_boundaries.windows(2) {
                assert!(w[1] > w[0], "phase boundaries must strictly increase");
            }
            for &b in &cfg.phase_boundaries {
                assert!(b >= 0.0, "phase boundaries must be non-negative");
                queue.push(SimTime::from_secs(b), Ev::PhaseBoundary);
            }
            DriftCounters::with_boundaries(cfg.phase_boundaries.len())
        };
        Simulator {
            cluster,
            rng: SmallRng::seed_from_u64(cfg.seed),
            gantt: cfg.record_gantt.then(|| Gantt::new(execs.len())),
            cfg,
            jobs,
            execs,
            queue,
            scratch_execs: Vec::new(),
            obs_scratch: ObsScratch::default(),
            obs_buf_epoch: u64::MAX,
            obs_buf: Observation::default(),
            now: SimTime::ZERO,
            cost_integral: 0.0,
            cost_at_last_action: 0.0,
            actions: DecisionTally::default(),
            num_events: 0,
            wasted_actions: 0,
            task_failures: 0,
            pass_open: false,
            outcome: None,
            tasks_started: 0,
            tasks_at_last_churn_tick: None,
            dynamics,
            drift,
            cur_phase: 0,
        }
    }

    /// Keeps every retired job's runtime state resident instead of
    /// recycling its arena slot (the pre-streaming behavior). The two
    /// modes are contractually bit-identical in everything but
    /// [`EpisodeResult::mem`] — the differential tests hold the engine
    /// to it — so this exists *only* as the comparison baseline; it is
    /// never the right choice for real runs.
    pub fn retain_all(mut self, on: bool) -> Self {
        self.jobs.retain_all = on;
        self
    }

    /// Every executor transition goes through the table's choke point.
    fn set_exec_state(&mut self, e: ExecutorId, new: ExecState) {
        self.execs.set_exec_state(&mut self.jobs, e, new);
    }

    /// Runs the episode to its end under `sched`, which answers every
    /// decision [`Simulator::step`] owes.
    pub fn run(mut self, mut sched: impl Scheduler) -> EpisodeResult {
        sched.on_episode_start();
        while let Some(pending) = self.step() {
            let action = sched.decide(pending.observation());
            pending.resume(action);
        }
        self.finish()
    }

    /// Handles every event of the next instant, so that the pass they
    /// owe sees the whole state at that instant; or stamps why the
    /// episode ends instead: the queue drained, the next event lies past
    /// the horizon, it would exceed the event budget, or it revealed a
    /// livelock.
    fn next_instant(&mut self) {
        let mut owed = false;
        loop {
            let Some((time, ev)) = self.queue.pop() else {
                self.outcome = Some(EpisodeOutcome::Drained);
                return;
            };
            if let Some(limit) = self.cfg.time_limit {
                if time.as_secs() > limit {
                    // Account cost up to the horizon, then stop.
                    self.advance_clock(SimTime::from_secs(limit));
                    self.outcome = Some(EpisodeOutcome::Horizon);
                    return;
                }
            }
            self.num_events += 1;
            if self.num_events > self.cfg.max_events {
                self.outcome = Some(EpisodeOutcome::EventBudget);
                return;
            }
            self.advance_clock(time);
            owed |= self.handle_event(ev);
            if self.outcome.is_some() {
                return;
            }
            if self.queue.next_time() != Some(self.now) {
                self.pass_open = owed;
                return;
            }
        }
    }

    /// Closes the episode and returns its result: the whole episode once
    /// [`Simulator::step`] has returned `None`; called before that, the
    /// episode so far, reported as [`EpisodeOutcome::Drained`].
    pub fn finish(mut self) -> EpisodeResult {
        let tail_penalty = self.cost_integral - self.cost_at_last_action;
        // Close out open outages so lost capacity is fully accounted.
        let now = self.now;
        let dynamics = self
            .dynamics
            .take()
            .map(|mut d| {
                for since in d.offline_since.iter_mut() {
                    if let Some(t) = since.take() {
                        d.counters.lost_exec_seconds += now - t;
                    }
                }
                d.counters
            })
            .unwrap_or_default();
        let (jobs, mut mem) = self.jobs.into_outcomes();
        mem.event_queue_hwm = self.queue.hwm();
        EpisodeResult {
            actions: self.actions,
            tail_penalty,
            jobs,
            end_time: self.now,
            num_events: self.num_events,
            wasted_actions: self.wasted_actions,
            task_failures: self.task_failures,
            dynamics,
            drift: self.drift,
            outcome: self.outcome.unwrap_or_default(),
            gantt: self.gantt,
            mem,
        }
    }

    #[inline]
    fn advance_clock(&mut self, to: SimTime) {
        debug_assert!(to >= self.now, "time must be monotone");
        let dt = to - self.now;
        if dt > 0.0 {
            let rate = match self.cfg.objective {
                Objective::AvgJct => self.jobs.num_active() as f64,
                Objective::Makespan => {
                    if self.jobs.remaining() > 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            self.cost_integral += rate * dt;
            if let Some(c) = self.drift.cost_by_phase.get_mut(self.cur_phase) {
                *c += rate * dt;
            }
        }
        self.now = to;
    }

    /// Handles one event; returns whether a scheduling pass is needed.
    fn handle_event(&mut self, ev: Ev) -> bool {
        match ev {
            Ev::Arrival(j) => {
                self.jobs.admit(j);
                if let Some(a) = self.drift.arrivals_by_phase.get_mut(self.cur_phase) {
                    *a += 1;
                }
                true
            }
            // Stale executor events (the assignment was interrupted by
            // churn or a job kill after the event was queued) are
            // recognized by their epoch and dropped; the interruption
            // already did the bookkeeping and requested its own pass.
            Ev::TaskDone(e, ep) => ep == self.execs.get(e).epoch && self.on_task_done(e),
            Ev::ExecReady(e, ep) => ep == self.execs.get(e).epoch && self.on_exec_ready(e),
            // Only `new` and the tick itself queue a tick, both under a
            // `Some` dynamics: the handlers borrow it from this arm.
            Ev::ChurnTick => match self.dynamics.take() {
                Some(mut d) => {
                    let pass = self.on_churn_tick(&mut d);
                    self.dynamics = Some(d);
                    pass
                }
                None => false,
            },
            Ev::ExecOnline(e) => self.on_exec_online(e),
            Ev::PhaseBoundary => {
                // Pure accounting transition: no state a scheduler can
                // observe changes, so no scheduling pass is owed.
                self.cur_phase =
                    (self.cur_phase + 1).min(self.drift.phases.saturating_sub(1) as usize);
                false
            }
        }
    }

    fn on_task_done(&mut self, e: ExecutorId) -> bool {
        let em = self.execs.get(e);
        let (job_id, node, started, duration) = match *em.state() {
            ExecState::Running {
                job,
                node,
                started,
                duration,
            } => (job, node, started, duration),
            ref other => unreachable!("TaskDone on non-running executor: {other:?}"),
        };
        let class = em.class;
        if let Some(g) = &mut self.gantt {
            g.record(e, started, self.now, Some(job_id));
        }
        // Failure injection draws from the dynamics RNG, so enabling it
        // never shifts the engine's noise stream. A failure charges the
        // job's retry budget, returned here.
        let retry_budget = self.dynamics.as_mut().and_then(|d| {
            d.task_fails().then(|| {
                d.counters.retries += 1;
                d.spec.max_retries
            })
        });

        let v = node as usize;
        let rt = self.jobs.job_mut(job_id); // a running task implies a live job
        rt.executed_work += duration;
        rt.class_busy[class.index()] += duration;
        let n = &mut rt.nodes[v];
        n.running -= 1;
        n.executors_on -= 1;
        if let Some(budget) = retry_budget {
            n.waiting += 1; // re-queue the task
            self.task_failures += 1;
            rt.failures += 1;
            if rt.failures > budget {
                // Retry budget exhausted: the job dies. Park the
                // executor idle-local first so the kill path releases it
                // like every other bound executor.
                self.set_exec_state(e, ExecState::Idle(job_id));
                self.fail_job(job_id);
                return true;
            }
        } else {
            n.finished += 1;
        }

        // Same-node continuation: Spark's task-level scheduler keeps the
        // executor on its stage while unclaimed tasks remain.
        if n.waiting > 0 {
            self.start_task(e, job_id, node);
            return false;
        }

        // Stage has no waiting tasks: the executor goes idle-local and a
        // scheduling event fires ("stage runs out of tasks").
        let node_done = n.running == 0 && n.waiting == 0 && !n.completed;
        self.set_exec_state(e, ExecState::Idle(job_id));
        if node_done {
            self.complete_node(job_id, v);
        }
        true
    }

    /// Marks a node complete, unlocking children and possibly finishing
    /// the job.
    fn complete_node(&mut self, job_id: JobId, v: usize) {
        let rt = self.jobs.job_mut(job_id);
        rt.nodes[v].completed = true;
        rt.unfinished_nodes -= 1;
        let spec = Arc::clone(&rt.spec);
        for &c in spec.dag.children(v) {
            let all_done = spec
                .dag
                .parents(c as usize)
                .iter()
                .all(|&p| rt.nodes[p as usize].completed);
            if all_done {
                rt.nodes[c as usize].runnable = true;
            }
        }
        if rt.unfinished_nodes == 0 {
            self.finish_job(job_id);
        }
    }

    fn finish_job(&mut self, job_id: JobId) {
        if let Some(c) = self.drift.completions_by_phase.get_mut(self.cur_phase) {
            *c += 1;
        }
        if let Some(g) = &mut self.gantt {
            g.record_completion(job_id, self.now);
        }
        // Release bound idle executors: their JVM exits with the job.
        // Pooled scratch — the steady-state finish allocates nothing.
        let mut released = std::mem::take(&mut self.scratch_execs);
        released.clear();
        released.extend(
            self.execs
                .idle_ids()
                .filter(|&e| self.execs.get(e).idle_on(job_id)),
        );
        for &e in &released {
            self.set_exec_state(e, ExecState::Free);
        }
        released.clear();
        self.scratch_execs = released;
        self.jobs.retire(job_id, Some(self.now), false);
    }

    fn on_exec_ready(&mut self, e: ExecutorId) -> bool {
        let em = self.execs.get(e);
        let (job_id, node) = match *em.state() {
            ExecState::Moving { job, node } => (job, node),
            ref other => unreachable!("ExecReady on non-moving executor: {other:?}"),
        };
        let mem = em.memory;
        let Some(job) = self.jobs.live_mut(job_id) else {
            // Job ended while the executor was in transit: its node
            // counters retired with it, nothing left to decrement.
            self.set_exec_state(e, ExecState::Free);
            return true;
        };
        job.nodes[node as usize].in_flight -= 1;
        // Try the original target, else any runnable stage of the job the
        // executor fits; otherwise go idle-local and let the agent decide.
        let fits = |w: usize| {
            let n = &job.nodes[w];
            n.runnable && n.waiting > 0 && mem >= job.spec.stages[w].mem_demand
        };
        let target = if fits(node as usize) {
            Some(node)
        } else {
            (0..job.nodes.len()).find(|&w| fits(w)).map(|w| w as u32)
        };
        match target {
            Some(v) => {
                self.start_task(e, job_id, v);
                false
            }
            None => {
                self.set_exec_state(e, ExecState::Idle(job_id));
                true
            }
        }
    }

    /// Starts one task of `(job, node)` on executor `e` right now.
    fn start_task(&mut self, e: ExecutorId, job_id: JobId, node: u32) {
        self.tasks_started += 1;
        let v = node as usize;
        let em = self.execs.get(e);
        debug_assert!(
            !matches!(em.state(), ExecState::Offline),
            "dispatched a task to offline executor {e:?}"
        );
        let cold = em.last_node != Some((job_id, node));
        // Spec-derived duration factors first, then the RNG draws — the
        // exact computation order of the pre-streaming engine, so the
        // noise stream is unchanged.
        let rt = self.jobs.job_mut(job_id); // dispatch targets are live
        debug_assert!(rt.nodes[v].waiting > 0);
        debug_assert!(rt.nodes[v].runnable);
        let stage = &rt.spec.stages[v];
        let mut dur = stage.task_duration;
        if self.cfg.first_wave && cold {
            dur *= stage.first_wave_factor;
        }
        if self.cfg.inflation {
            dur *= rt.spec.inflation.factor(rt.alloc.max(1));
        }
        if self.cfg.noise > 0.0 {
            // Log-normal with unit mean: exp(N(-s²/2, s²)).
            let s = self.cfg.noise;
            let z: f64 = {
                // Box-Muller from two uniforms (avoids a rand_distr dep here).
                let u1: f64 = self.rng.gen::<f64>().max(1e-12);
                let u2: f64 = self.rng.gen();
                (-2.0_f64 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            dur *= (s * z - s * s / 2.0).exp();
        }
        if let Some(d) = &mut self.dynamics {
            let f = d.straggle_factor();
            if f > 1.0 {
                d.counters.straggled += 1;
                dur *= f;
            }
        }
        dur = dur.max(1e-6);

        let n = &mut rt.nodes[v];
        n.waiting -= 1;
        n.running += 1;
        n.executors_on += 1;
        self.execs.set_last_node(e, Some((job_id, node)));
        self.set_exec_state(
            e,
            ExecState::Running {
                job: job_id,
                node,
                started: self.now,
                duration: dur,
            },
        );
        self.queue
            .push(self.now + dur, Ev::TaskDone(e, self.execs.get(e).epoch));
    }
}

#[cfg(test)]
mod tests;
