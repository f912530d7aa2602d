//! A stopwatch around a scheduler's `decide`.
//!
//! Wall-clock time is telemetry, so it is read here, in the measurement
//! crate, and not inside the schedulers (docs/DETERMINISM.md,
//! `clippy::disallowed_methods`): wrapping changes no action, only
//! records how long each took.

use decima_core::SimTime;
use decima_sim::{Action, Observation, Scheduler};
use std::time::Instant;

/// `inner`, with the wall-clock seconds of every `decide` call and the
/// simulated time of every decision recorded in call order (Figure 15b).
pub struct Timed<S> {
    /// The scheduler being timed.
    pub inner: S,
    /// Seconds spent in each `decide` call.
    pub decide_secs: Vec<f64>,
    /// Simulated time of each decision (each call that returned an
    /// action).
    pub decision_times: Vec<SimTime>,
}

impl<S: Scheduler> Timed<S> {
    /// Wraps `inner` with an empty record.
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            decide_secs: Vec::new(),
            decision_times: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        #[expect(
            clippy::disallowed_methods,
            reason = "Figure 15b's decision latencies: recorded beside the run, never fed back"
        )]
        let t0 = Instant::now();
        let action = self.inner.decide(obs);
        self.decide_secs.push(t0.elapsed().as_secs_f64());
        if action.is_some() {
            self.decision_times.push(obs.time);
        }
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::untrained_agent;
    use crate::scenario::PolicySpec;
    use decima_core::ClusterSpec;
    use decima_sim::{SimConfig, Simulator};
    use decima_workload::tpch_batch;

    /// One positive latency and one simulated time per decision, and
    /// the wrapped agent takes the actions it takes bare.
    #[test]
    fn decide_latency_recorded() {
        let agent = || untrained_agent(&PolicySpec::default(), 5, Some(42));
        let sim = || {
            Simulator::new(
                ClusterSpec::homogeneous(5).with_move_delay(0.5),
                tpch_batch(2, 3),
                SimConfig::default().with_seed(1),
            )
        };
        let mut timed = Timed::new(agent());
        let r = sim().run(&mut timed);
        assert_eq!(timed.decide_secs.len(), r.actions.len());
        assert!(timed.decide_secs.iter().all(|&t| t > 0.0));
        assert_eq!(timed.decision_times.len(), r.actions.len());
        assert!(timed.decision_times.windows(2).all(|w| w[0] <= w[1]));

        r.same_run(&sim().run(agent()))
            .expect("timing must not perturb");
    }
}
