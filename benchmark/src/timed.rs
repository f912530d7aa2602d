//! The client's stopwatch: a pass-through [`Scheduler`] that times every
//! `decide` call of the scheduler it wraps.
//!
//! It is the benchmark's only probe at the engine/scheduler boundary:
//! `Simulator::run` wall minus the summed `decide` time is the engine's
//! self time. The wrapper never alters an observation or an action, so
//! an episode run through it is the same run (`EpisodeResult::same_run`).
//!
//! With `sample_every > 0` it also accumulates the sizes of every n-th
//! observation and, when asked, keeps that observation as a compact
//! [`ReplayObs`], which the traced run re-scores afterwards to split a
//! policy decision into its layers.
//!
//! [`Segmented`] is the other pass-through: it cuts an episode's wall
//! into stretches of a fixed number of decisions, so that a replay of
//! the episode can be compared with it stretch by stretch.

use crate::stats::LatencyHist;
use decima_policy::ReplayObs;
use decima_sim::{Action, Observation, Scheduler};
use std::time::Instant;

/// Sizes of the sampled observations, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsSizes {
    /// Observations sampled.
    pub samples: u64,
    /// Active jobs, summed over samples.
    pub jobs: u64,
    /// DAG nodes over all active jobs, summed over samples.
    pub nodes: u64,
    /// Schedulable `(job, stage)` pairs, summed over samples.
    pub schedulable: u64,
}

impl ObsSizes {
    /// Adds another accumulator into this one.
    pub fn merge(&mut self, o: &ObsSizes) {
        self.samples += o.samples;
        self.jobs += o.jobs;
        self.nodes += o.nodes;
        self.schedulable += o.schedulable;
    }
}

/// A scheduler that notes the time at every `every`-th `decide` call.
///
/// The stretches between notes (engine and scheduler time alike) are the
/// episode's timed calls: a replay takes the same decisions, so stretch
/// `i` of one is the same work as stretch `i` of the other, and a few
/// milliseconds of work fit into a quiet moment of the machine far more
/// often than a whole episode does. One counter and one compare per
/// decision; a clock read per stretch.
pub struct Segmented<S> {
    inner: S,
    every: u64,
    until_mark: u64,
    mark: Instant,
    stretches: Vec<f64>,
}

impl<S: Scheduler> Segmented<S> {
    /// Wraps `inner` and starts the clock: build it right before
    /// `Simulator::run`.
    pub fn new(inner: S, every: u64) -> Self {
        let every = every.max(1);
        Segmented {
            inner,
            every,
            until_mark: every,
            mark: Instant::now(),
            stretches: Vec::new(),
        }
    }

    /// Stops the clock (call right after `Simulator::run` returns): the
    /// lengths of the stretches in seconds, the last one the remainder;
    /// they sum to the wall since `new`.
    pub fn finish(self) -> Vec<f64> {
        self.finish_with_inner().0
    }

    /// [`Segmented::finish`], handing the wrapped scheduler back too.
    pub fn finish_with_inner(mut self) -> (Vec<f64>, S) {
        self.stretches.push(self.mark.elapsed().as_secs_f64());
        (self.stretches, self.inner)
    }
}

impl<S: Scheduler> Scheduler for Segmented<S> {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }

    #[inline]
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        self.until_mark -= 1;
        if self.until_mark == 0 {
            self.until_mark = self.every;
            let now = Instant::now();
            self.stretches.push((now - self.mark).as_secs_f64());
            self.mark = now;
        }
        self.inner.decide(obs)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A scheduler with a stopwatch around `decide`.
pub struct Timed<S> {
    inner: S,
    /// Per-call `decide` durations.
    pub hist: LatencyHist,
    /// Sample every n-th observation (0 = none).
    sample_every: u64,
    keep_obs: bool,
    calls: u64,
    /// Sizes of the sampled observations.
    pub sizes: ObsSizes,
    /// The sampled observations, in decision order.
    pub kept: Vec<ReplayObs>,
}

impl<S: Scheduler> Timed<S> {
    /// Wraps `inner`; only the stopwatch runs.
    pub fn new(inner: S) -> Self {
        Timed::sampling(inner, 0, false)
    }

    /// Wraps `inner`, also sizing every `sample_every`-th observation
    /// and, with `keep_obs`, keeping it.
    pub fn sampling(inner: S, sample_every: u64, keep_obs: bool) -> Self {
        Timed {
            inner,
            hist: LatencyHist::default(),
            sample_every,
            keep_obs,
            calls: 0,
            sizes: ObsSizes::default(),
            kept: Vec::new(),
        }
    }

    /// The wrapped scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let t0 = Instant::now();
        let action = self.inner.decide(obs);
        self.hist.record(t0.elapsed().as_nanos() as u64);
        if self.sample_every > 0 {
            if self.calls % self.sample_every == 0 {
                self.sizes.samples += 1;
                self.sizes.jobs += obs.jobs.len() as u64;
                self.sizes.nodes += obs.jobs.iter().map(|j| j.nodes.len() as u64).sum::<u64>();
                self.sizes.schedulable += obs.schedulable.len() as u64;
                if self.keep_obs {
                    self.kept.push(ReplayObs::from_observation(obs));
                }
            }
            self.calls += 1;
        }
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
