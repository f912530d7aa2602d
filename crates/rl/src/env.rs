//! Episode factories: how the trainer materializes environments.
//!
//! Input-dependent baselines (§5.3 challenge #2) require rebuilding the
//! *same* arrival sequence for several rollouts, so environments are
//! described by a factory that maps a sequence seed to a concrete
//! `(cluster, jobs, sim-config)` triple deterministically.

use decima_core::{ClusterSpec, JobSpec};
use decima_sim::SimConfig;
use decima_workload::{DriftSpec, WorkloadSpec};

/// Salt XORed into the sequence seed to derive the simulator's own RNG
/// seed, so workload sampling and simulator noise draw from decorrelated
/// streams.
pub const SIM_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds a deterministic episode from a sequence seed.
pub trait EnvFactory: Sync {
    /// Materializes the episode for `seq_seed`. The trainer may override
    /// `SimConfig::time_limit` with the curriculum horizon afterwards.
    fn build(&self, seq_seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig);
}

/// The environment: any [`WorkloadSpec`] plus a simulator configuration
/// template.
#[derive(Clone, Debug)]
pub struct SpecEnv {
    /// Workload and cluster description.
    pub workload: WorkloadSpec,
    /// Template for the simulator configuration (the per-episode seed is
    /// derived from the sequence seed, the phase boundaries from
    /// [`Self::drift`]).
    pub sim: SimConfig,
    /// Non-stationary drift regime; [`DriftSpec::off`] (the default)
    /// reproduces the stationary build bit-for-bit. It also sets the
    /// built configuration's `phase_boundaries`: the regime's own, none
    /// when drift is off.
    pub drift: DriftSpec,
}

impl SpecEnv {
    /// Wraps a workload with the default simulator configuration.
    pub fn new(workload: WorkloadSpec) -> Self {
        SpecEnv {
            workload,
            sim: SimConfig::default(),
            drift: DriftSpec::off(),
        }
    }
}

impl EnvFactory for SpecEnv {
    fn build(&self, seq_seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig) {
        let (cluster, jobs) = self.workload.build_drifting(&self.drift, seq_seed);
        let mut sim = self.sim.clone();
        sim.seed = seq_seed ^ SIM_SEED_SALT;
        sim.phase_boundaries = self.drift.phase_boundaries();
        (cluster, jobs, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_env_is_deterministic_per_seed_and_salts_the_simulator_seed() {
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(5, 10));
        let (c1, j1, s1) = env.build(42);
        let (c2, j2, s2) = env.build(42);
        assert_eq!(c1.total_executors(), c2.total_executors());
        assert_eq!(s1.seed, s2.seed);
        assert_eq!(s1.seed, 42 ^ SIM_SEED_SALT);
        let w1: f64 = j1.iter().map(JobSpec::total_work).sum();
        let w2: f64 = j2.iter().map(JobSpec::total_work).sum();
        assert_eq!(w1, w2);
        // Different seeds give different workloads.
        let (_, j3, _) = env.build(43);
        let w3: f64 = j3.iter().map(JobSpec::total_work).sum();
        assert_ne!(w1, w3);
        // The multi-resource source brings its four-class cluster.
        let (c, jobs, _) = SpecEnv::new(WorkloadSpec::alibaba_small(10, 12, 20.0)).build(1);
        assert_eq!(c.num_classes(), 4);
        assert_eq!(jobs.len(), 10);
    }

    #[test]
    fn the_drift_sets_the_phase_boundaries() {
        let mut env = SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0));
        env.sim.phase_boundaries = vec![1.0];
        let (_, _, off) = env.build(1);
        assert!(off.phase_boundaries.is_empty());
        for name in decima_workload::DRIFT_PROFILE_NAMES {
            let preset = DriftSpec::preset(name).unwrap();
            env.drift = preset;
            let (_, _, cfg) = env.build(1);
            assert_eq!(cfg.phase_boundaries, preset.phase_boundaries(), "{name}");
        }
    }
}
