//! Simulation configuration.

use crate::dynamics::DynamicsSpec;

/// The high-level objective the reward signal encodes (§5.3, §7.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize average job completion time: the penalty accrued between
    /// consecutive actions is `∫ J(t) dt` where `J` is the number of jobs
    /// in the system (Little's-law argument, §5.3).
    #[default]
    AvgJct,
    /// Minimize makespan: the penalty is elapsed time while any job is
    /// incomplete (Figure 13c).
    Makespan,
}

/// Configuration of one simulation episode.
///
/// The three fidelity switches (`first_wave`, `inflation`, `noise`)
/// correspond to the first-order effects the paper found necessary for a
/// faithful simulator (§6.2, Appendix D); turning them all off yields the
/// simplified environment of Appendix H.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scheduling objective for reward accounting.
    pub objective: Objective,
    /// Apply per-stage first-wave slowdown to the first task each executor
    /// runs on a stage (§6.2 item 1).
    pub first_wave: bool,
    /// Apply the job's parallelism-dependent work-inflation curve
    /// (§6.2 item 3).
    pub inflation: bool,
    /// Log-normal task-duration noise sigma (0 = deterministic).
    pub noise: f64,
    /// Optional episode horizon: the run stops at this time even if jobs
    /// remain (RL training episodes, §5.3 challenge #1).
    pub time_limit: Option<f64>,
    /// Hard cap on processed events (guards against runaway schedulers).
    pub max_events: u64,
    /// Seed for the simulator's own stochastic effects (noise, and — salted —
    /// the [`crate::dynamics`] stream).
    pub seed: u64,
    /// Record a Gantt chart during the run (Figures 3, 13).
    pub record_gantt: bool,
    /// Cluster-dynamics model: executor churn, bounded-retry task
    /// failures, stragglers (see [`crate::dynamics`]). Off by default;
    /// disabled dynamics is bit-exactly the pre-dynamics engine.
    pub dynamics: DynamicsSpec,
    /// Drift phase boundaries (strictly increasing times in seconds).
    /// Each becomes a `PhaseBoundary` event; `k` boundaries yield `k + 1`
    /// phases of [`crate::DriftCounters`] accounting on the result.
    /// Empty (the default) is bit-exactly the phase-free engine.
    pub phase_boundaries: Vec<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            objective: Objective::AvgJct,
            first_wave: true,
            inflation: true,
            noise: 0.0,
            time_limit: None,
            max_events: 50_000_000,
            seed: 0,
            record_gantt: false,
            dynamics: DynamicsSpec::off(),
            phase_boundaries: Vec::new(),
        }
    }
}

impl SimConfig {
    /// The fully-deterministic, zero-overhead environment of Appendix H:
    /// no waves, no inflation, no noise. Stage durations then scale
    /// strictly inversely with parallelism.
    pub fn simplified() -> Self {
        SimConfig {
            first_wave: false,
            inflation: false,
            noise: 0.0,
            ..SimConfig::default()
        }
    }

    /// Sets the episode horizon.
    pub fn with_time_limit(mut self, secs: f64) -> Self {
        self.time_limit = Some(secs);
        self
    }

    /// Sets the noise sigma.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise = sigma;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables Gantt recording.
    pub fn with_gantt(mut self) -> Self {
        self.record_gantt = true;
        self
    }

    /// Sets the cluster-dynamics model.
    pub fn with_dynamics(mut self, dynamics: DynamicsSpec) -> Self {
        self.dynamics = dynamics;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.objective, Objective::AvgJct);
        assert!(c.first_wave && c.inflation);
        assert_eq!(c.noise, 0.0);
        assert!(c.time_limit.is_none());
        assert!(!c.dynamics.enabled(), "dynamics must default to off");
        assert!(
            c.phase_boundaries.is_empty(),
            "phase accounting must default to off"
        );
    }

    #[test]
    fn simplified_disables_overheads() {
        let c = SimConfig::simplified();
        assert!(!c.first_wave && !c.inflation);
        assert_eq!(c.noise, 0.0);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::default()
            .with_time_limit(100.0)
            .with_noise(0.1)
            .with_seed(7)
            .with_gantt()
            .with_dynamics(DynamicsSpec::med());
        assert_eq!(c.time_limit, Some(100.0));
        assert_eq!(c.noise, 0.1);
        assert_eq!(c.seed, 7);
        assert!(c.record_gantt);
        assert_eq!(c.dynamics, DynamicsSpec::med());
    }
}
