//! Declarative workload specifications.
//!
//! [`WorkloadSpec`] unifies every workload the experiment layer knows how
//! to construct — TPC-H batches and streams, the Alibaba-like synthetic
//! trace, single queries, the full 22-query suite, and the Appendix A
//! example DAG — behind one deterministic `build(seed)` entry point that
//! returns the cluster and the job list together.
//!
//! Every source with arrivals is an entry into the crate's one job
//! generator ([`arrivals`](crate::arrivals)): the arrival times first,
//! then one body per arrival from the same RNG, so a seed names one job
//! list. `decima_rl::SpecEnv` wraps any spec.

use crate::alibaba::AlibabaConfig;
use crate::arrivals::{alibaba_stream, tpch_jobs, ArrivalProcess};
use crate::tpch::{tpch_job_scaled, with_random_memory};
use decima_core::{ClusterSpec, JobBuilder, JobId, JobSpec, SimTime, StageSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Task-slot count of the Appendix A example (its DAG is sized for it).
pub const APPENDIX_DAG_SLOTS: usize = 5;

/// ε of the Appendix A example DAG (seconds).
pub const APPENDIX_DAG_EPS: f64 = 0.1;

/// What jobs a scenario runs.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSource {
    /// Random TPC-H jobs on a homogeneous cluster (four-class when
    /// `random_memory` adds per-stage demands — Figure 11b).
    Tpch {
        /// Jobs per episode.
        num_jobs: usize,
        /// Arrival process.
        arrivals: ArrivalProcess,
        /// Task-count divisor (see `tpch_job_scaled`).
        task_scale: f64,
        /// Sample per-stage memory demands and use a four-class cluster.
        random_memory: bool,
    },
    /// TPC-H Poisson stream whose mean interarrival time is itself drawn
    /// uniformly from `[lo_iat, hi_iat]` per episode (Table 2 "mixed").
    TpchMixedIat {
        /// Jobs per episode.
        num_jobs: usize,
        /// Lower bound of the IAT mixture (seconds).
        lo_iat: f64,
        /// Upper bound of the IAT mixture (seconds).
        hi_iat: f64,
        /// Task-count divisor.
        task_scale: f64,
    },
    /// Alibaba-like multi-resource stream on a four-class cluster (§7.3).
    Alibaba {
        /// Jobs per episode.
        num_jobs: usize,
        /// Mean interarrival time (seconds).
        mean_iat: f64,
        /// Generator configuration.
        gen: AlibabaConfig,
    },
    /// One TPC-H query alone at time zero (Figure 2, Figure 18a).
    SingleTpch {
        /// Query number (1..=22).
        query: u16,
        /// Input size in GB.
        gb: f64,
        /// Task-count divisor.
        task_scale: f64,
    },
    /// All 22 TPC-H queries at once at time zero (Figure 18b).
    TpchSuite {
        /// Input size in GB per query.
        gb: f64,
        /// Task-count divisor.
        task_scale: f64,
    },
    /// The Appendix A two-branch example DAG (Figure 16).
    AppendixDag,
}

/// A workload plus the cluster it runs on — everything `build(seed)`
/// needs to materialize one deterministic episode input.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Job source.
    pub source: WorkloadSource,
    /// Total executor slots.
    pub executors: usize,
    /// Executor-motion delay in seconds.
    pub move_delay: f64,
}

impl WorkloadSpec {
    /// TPC-H batched arrivals at the standard scaled-down task scale.
    pub fn tpch_batch(num_jobs: usize, executors: usize) -> Self {
        WorkloadSpec {
            source: WorkloadSource::Tpch {
                num_jobs,
                arrivals: ArrivalProcess::Batch,
                task_scale: 8.0,
                random_memory: false,
            },
            executors,
            move_delay: 1.0,
        }
    }

    /// TPC-H Poisson arrivals at the standard scaled-down task scale.
    pub fn tpch_stream(num_jobs: usize, executors: usize, mean_iat: f64) -> Self {
        WorkloadSpec {
            source: WorkloadSource::Tpch {
                num_jobs,
                arrivals: ArrivalProcess::Poisson { mean_iat },
                task_scale: 8.0,
                random_memory: false,
            },
            executors,
            move_delay: 1.0,
        }
    }

    /// The small Alibaba-like configuration the experiments use.
    pub fn alibaba_small(num_jobs: usize, executors: usize, mean_iat: f64) -> Self {
        WorkloadSpec {
            source: WorkloadSource::Alibaba {
                num_jobs,
                mean_iat,
                gen: AlibabaConfig::small(),
            },
            executors,
            move_delay: 1.0,
        }
    }

    /// The Appendix A example DAG on its 5-slot cluster.
    pub fn appendix_dag() -> Self {
        WorkloadSpec {
            source: WorkloadSource::AppendixDag,
            executors: APPENDIX_DAG_SLOTS,
            move_delay: 0.0,
        }
    }

    /// Number of jobs one episode contains.
    pub fn num_jobs(&self) -> usize {
        match &self.source {
            WorkloadSource::Tpch { num_jobs, .. }
            | WorkloadSource::TpchMixedIat { num_jobs, .. }
            | WorkloadSource::Alibaba { num_jobs, .. } => *num_jobs,
            WorkloadSource::SingleTpch { .. } | WorkloadSource::AppendixDag => 1,
            WorkloadSource::TpchSuite { .. } => 22,
        }
    }

    /// Sets the job count where the source has one.
    pub fn set_num_jobs(&mut self, n: usize) {
        match &mut self.source {
            WorkloadSource::Tpch { num_jobs, .. }
            | WorkloadSource::TpchMixedIat { num_jobs, .. }
            | WorkloadSource::Alibaba { num_jobs, .. } => *num_jobs = n,
            _ => {}
        }
    }

    /// Sets the mean interarrival time where the source has one.
    /// Batched-arrival sources are left untouched — an IAT override must
    /// not silently turn a batch experiment into a stream.
    pub fn set_mean_iat(&mut self, iat: f64) {
        match &mut self.source {
            WorkloadSource::Tpch {
                arrivals: arrivals @ ArrivalProcess::Poisson { .. },
                ..
            } => {
                *arrivals = ArrivalProcess::Poisson { mean_iat: iat };
            }
            WorkloadSource::Alibaba { mean_iat, .. } => *mean_iat = iat,
            _ => {}
        }
    }

    /// Mean interarrival time, where the source has one (`None` for
    /// batched-arrival sources) — the inverse knob of
    /// [`Self::set_mean_iat`], used by rate sweeps to scale the base
    /// load.
    pub fn mean_iat(&self) -> Option<f64> {
        match &self.source {
            WorkloadSource::Tpch {
                arrivals: ArrivalProcess::Poisson { mean_iat },
                ..
            } => Some(*mean_iat),
            WorkloadSource::Alibaba { mean_iat, .. } => Some(*mean_iat),
            _ => None,
        }
    }

    /// Sets the TPC-H task-count divisor where the source has one.
    pub fn set_task_scale(&mut self, scale: f64) {
        match &mut self.source {
            WorkloadSource::Tpch { task_scale, .. }
            | WorkloadSource::TpchMixedIat { task_scale, .. }
            | WorkloadSource::SingleTpch { task_scale, .. }
            | WorkloadSource::TpchSuite { task_scale, .. } => *task_scale = scale,
            _ => {}
        }
    }

    /// The cluster every episode of this workload runs on: four memory
    /// classes where the jobs carry memory demands (Alibaba, TPC-H with
    /// random memory), one class otherwise.
    pub(crate) fn cluster(&self) -> ClusterSpec {
        let classes = match self.source {
            WorkloadSource::Alibaba { .. }
            | WorkloadSource::Tpch {
                random_memory: true,
                ..
            } => ClusterSpec::four_class(self.executors),
            _ => ClusterSpec::homogeneous(self.executors),
        };
        classes.with_move_delay(self.move_delay)
    }

    /// Materializes the episode input for `seed`, deterministically.
    /// With `random_memory`, the per-stage demands come from a side RNG
    /// after the whole stream is drawn (unlike
    /// [`tpch_stream_with_memory`](crate::tpch_stream_with_memory), which
    /// draws them from the stream's RNG).
    pub fn build(&self, seed: u64) -> (ClusterSpec, Vec<JobSpec>) {
        let jobs = match &self.source {
            WorkloadSource::Tpch {
                num_jobs,
                arrivals,
                task_scale,
                random_memory,
            } => {
                let jobs = tpch_jobs(*num_jobs, *arrivals, *task_scale, seed);
                if *random_memory {
                    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
                    jobs.into_iter()
                        .map(|j| with_random_memory(j, &mut rng))
                        .collect()
                } else {
                    jobs
                }
            }
            WorkloadSource::TpchMixedIat {
                num_jobs,
                lo_iat,
                hi_iat,
                task_scale,
            } => {
                // The episode IAT comes first, from a side RNG, then
                // the normal stream.
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xa11a);
                let iat = rng.gen_range(*lo_iat..=*hi_iat);
                tpch_jobs(
                    *num_jobs,
                    ArrivalProcess::Poisson { mean_iat: iat },
                    *task_scale,
                    seed,
                )
            }
            WorkloadSource::Alibaba {
                num_jobs,
                mean_iat,
                gen,
            } => alibaba_stream(gen, *num_jobs, *mean_iat, seed),
            WorkloadSource::SingleTpch {
                query,
                gb,
                task_scale,
            } => vec![tpch_job_scaled(
                *query,
                *gb,
                JobId(0),
                SimTime::ZERO,
                *task_scale,
            )],
            WorkloadSource::TpchSuite { gb, task_scale } => (1..=22u16)
                .enumerate()
                .map(|(i, q)| tpch_job_scaled(q, *gb, JobId(i as u32), SimTime::ZERO, *task_scale))
                .collect(),
            WorkloadSource::AppendixDag => vec![appendix_dag_job()],
        };
        (self.cluster(), jobs)
    }
}

/// The Appendix A two-branch DAG (5 task slots, ε = 0.1 s): a long
/// single-task left branch overlapped against a two-stage right branch,
/// joined at the end. Critical-path scheduling is 29% off optimal here.
#[expect(
    clippy::unwrap_used,
    reason = "valid by construction: four literal stages, three forward edges"
)]
pub fn appendix_dag_job() -> JobSpec {
    let mut b = JobBuilder::new(JobId(0));
    let l = b.stage(StageSpec::simple(1, 10.0));
    let r1 = b.stage(StageSpec::simple(40, 1.0));
    let r2 = b.stage(StageSpec::simple(5, 10.0));
    let j = b.stage(StageSpec::simple(5, APPENDIX_DAG_EPS));
    b.edge(r1, r2);
    b.edge(l, j);
    b.edge(r2, j);
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::tpch_stream;
    use decima_core::JobSpec;

    #[test]
    fn tpch_spec_matches_legacy_stream_constructor() {
        // `task_scale = 1` reduces to the legacy `tpch_stream` helper.
        let spec = WorkloadSpec {
            source: WorkloadSource::Tpch {
                num_jobs: 12,
                arrivals: ArrivalProcess::Poisson { mean_iat: 30.0 },
                task_scale: 1.0,
                random_memory: false,
            },
            executors: 10,
            move_delay: 1.0,
        };
        let (_, a) = spec.build(9);
        let b = tpch_stream(12, 30.0, 9);
        let wa: f64 = a.iter().map(JobSpec::total_work).sum();
        let wb: f64 = b.iter().map(JobSpec::total_work).sum();
        assert_eq!(wa, wb);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn build_is_deterministic_across_sources() {
        let specs = [
            WorkloadSpec::tpch_batch(5, 8),
            WorkloadSpec::tpch_stream(5, 8, 20.0),
            WorkloadSpec::alibaba_small(5, 8, 20.0),
            WorkloadSpec::appendix_dag(),
            WorkloadSpec {
                source: WorkloadSource::TpchMixedIat {
                    num_jobs: 5,
                    lo_iat: 10.0,
                    hi_iat: 40.0,
                    task_scale: 8.0,
                },
                executors: 8,
                move_delay: 1.0,
            },
            WorkloadSpec {
                source: WorkloadSource::TpchSuite {
                    gb: 10.0,
                    task_scale: 4.0,
                },
                executors: 8,
                move_delay: 2.5,
            },
        ];
        for spec in &specs {
            let (c1, j1) = spec.build(3);
            let (c2, j2) = spec.build(3);
            assert_eq!(c1.total_executors(), c2.total_executors());
            assert_eq!(j1.len(), j2.len());
            let w1: f64 = j1.iter().map(JobSpec::total_work).sum();
            let w2: f64 = j2.iter().map(JobSpec::total_work).sum();
            assert_eq!(w1, w2, "source {:?}", spec.source);
            assert_eq!(j1.len(), spec.num_jobs());
        }
    }

    #[test]
    fn random_memory_uses_four_classes() {
        let mut spec = WorkloadSpec::tpch_stream(6, 12, 25.0);
        if let WorkloadSource::Tpch { random_memory, .. } = &mut spec.source {
            *random_memory = true;
        }
        let (c, jobs) = spec.build(1);
        assert_eq!(c.num_classes(), 4);
        assert!(jobs
            .iter()
            .flat_map(|j| &j.stages)
            .all(|s| s.mem_demand > 0.0));
    }

    #[test]
    fn knob_setters_apply() {
        let mut spec = WorkloadSpec::tpch_stream(10, 5, 20.0);
        spec.set_num_jobs(3);
        spec.set_mean_iat(7.0);
        spec.set_task_scale(2.0);
        assert_eq!(spec.num_jobs(), 3);
        assert_eq!(spec.mean_iat(), Some(7.0));
        match spec.source {
            WorkloadSource::Tpch {
                arrivals,
                task_scale,
                ..
            } => {
                assert_eq!(arrivals, ArrivalProcess::Poisson { mean_iat: 7.0 });
                assert_eq!(task_scale, 2.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn appendix_dag_shape() {
        let j = appendix_dag_job();
        assert_eq!(j.stages.len(), 4);
        assert!(j.validate().is_ok());
    }
}
