//! Arrival processes and the one job generator.
//!
//! The paper evaluates two arrival regimes (§7.2): *batched* (all jobs
//! present at time zero) and *continuous* (Poisson arrivals; 45 s mean
//! interarrival time over the TPC-H mix ≈ 85% cluster load on 50
//! executors). Training additionally uses freshly-sampled sequences per
//! iteration, all reproducible from a single seed.
//!
//! Every workload is built the same way: draw the arrival times, then
//! one job body per arrival, in arrival order, from the same RNG. The
//! crate-private generator does that once; the named streams here,
//! [`WorkloadSpec::build`](crate::WorkloadSpec::build) and the drifting
//! builds are entries into it that pick the times and the body (a
//! TPC-H query or an Alibaba-like job).

use crate::alibaba::{alibaba_job, AlibabaConfig};
use crate::tpch::{sample_query, with_random_memory, QueryPlans};
use decima_core::{JobId, JobSpec, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};

/// How jobs arrive over time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// All jobs arrive at `t = 0`.
    Batch,
    /// Poisson arrivals with the given mean interarrival time (seconds).
    Poisson {
        /// Mean interarrival time in seconds.
        mean_iat: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` arrival times.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Vec<SimTime> {
        match *self {
            ArrivalProcess::Batch => vec![SimTime::ZERO; n],
            ArrivalProcess::Poisson { mean_iat } => {
                let Ok(exp) = Exp::new(1.0 / mean_iat) else {
                    panic!("mean interarrival time must be positive and finite, got {mean_iat}")
                };
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        t += exp.sample(rng);
                        SimTime::from_secs(t)
                    })
                    .collect()
            }
        }
    }
}

/// The one generator: a job per arrival time, with dense ids in arrival
/// order, each body drawn from `rng` after all the times were.
pub(crate) fn generate(
    times: Vec<SimTime>,
    rng: &mut SmallRng,
    mut body: impl FnMut(JobId, SimTime, &mut SmallRng) -> JobSpec,
) -> Vec<JobSpec> {
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| body(JobId(i as u32), t, rng))
        .collect()
}

/// The TPC-H body of one job list: a query and input size from the
/// §7.2 mix, built from the list's own table of query plans, so the jobs
/// of one query share its DAG.
pub(crate) fn tpch_body(task_scale: f64) -> impl FnMut(JobId, SimTime, &mut SmallRng) -> JobSpec {
    let mut plans = QueryPlans::default();
    move |id, arrival, rng| {
        let (q, s) = sample_query(rng);
        plans.job(q, s, id, arrival, task_scale)
    }
}

/// Random TPC-H jobs under the given arrival process: one RNG seeded
/// with `seed` draws the arrival times, then the query mix.
pub(crate) fn tpch_jobs(
    n: usize,
    arrivals: ArrivalProcess,
    task_scale: f64,
    seed: u64,
) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let times = arrivals.sample(n, &mut rng);
    generate(times, &mut rng, tpch_body(task_scale))
}

/// A batch of `n` random TPC-H jobs, all arriving at time zero (§7.2
/// "batched arrivals").
pub fn tpch_batch(n: usize, seed: u64) -> Vec<JobSpec> {
    tpch_jobs(n, ArrivalProcess::Batch, 1.0, seed)
}

/// `n` random TPC-H jobs arriving as a Poisson process (§7.2 "continuous
/// arrivals"; the paper uses `mean_iat = 45` for ≈85% load).
pub fn tpch_stream(n: usize, mean_iat: f64, seed: u64) -> Vec<JobSpec> {
    tpch_jobs(n, ArrivalProcess::Poisson { mean_iat }, 1.0, seed)
}

/// TPC-H stream with per-stage memory demands sampled from `(0,1]`
/// (the multi-resource TPC-H experiment, Figure 11b). Each job's
/// demands come from the stream's own RNG, right after its body.
pub fn tpch_stream_with_memory(n: usize, mean_iat: f64, seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let times = ArrivalProcess::Poisson { mean_iat }.sample(n, &mut rng);
    let mut body = tpch_body(1.0);
    generate(times, &mut rng, |id, t, rng| {
        with_random_memory(body(id, t, rng), rng)
    })
}

/// `n` synthetic Alibaba-like jobs under `cfg`, arriving as a Poisson
/// process (the §7.3 industrial-trace replay substitute).
pub fn alibaba_stream(cfg: &AlibabaConfig, n: usize, mean_iat: f64, seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let times = ArrivalProcess::Poisson { mean_iat }.sample(n, &mut rng);
    generate(times, &mut rng, |id, t, rng| alibaba_job(cfg, id, t, rng))
}

/// Renumbers job ids to be dense `0..n` (required by the simulator) after
/// slicing or merging workloads; preserves order.
pub fn renumber(mut jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(i as u32);
    }
    jobs
}

/// Estimated offered load of a workload on `num_executors` slots:
/// total work / (horizon × executors). Values near 1.0 saturate the
/// cluster; the paper's continuous TPC-H experiment runs at ≈0.85.
pub fn offered_load(jobs: &[JobSpec], num_executors: usize) -> f64 {
    if jobs.is_empty() || num_executors == 0 {
        return 0.0;
    }
    let total_work: f64 = jobs.iter().map(JobSpec::total_work).sum();
    let horizon = jobs
        .iter()
        .map(|j| j.arrival.as_secs())
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    total_work / (horizon * num_executors as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_all_at_zero() {
        let jobs = tpch_batch(20, 1);
        assert_eq!(jobs.len(), 20);
        assert!(jobs.iter().all(|j| j.arrival == SimTime::ZERO));
        // Ids are dense.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn poisson_mean_iat_close() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ts = ArrivalProcess::Poisson { mean_iat: 10.0 }.sample(4000, &mut rng);
        let horizon = ts.last().unwrap().as_secs();
        let empirical_iat = horizon / 4000.0;
        assert!(
            (empirical_iat - 10.0).abs() < 1.0,
            "empirical IAT {empirical_iat}"
        );
        // Strictly increasing.
        for w in ts.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn stream_is_sorted_and_dense() {
        let jobs = tpch_stream(50, 45.0, 3);
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn memory_stream_has_demands() {
        let jobs = tpch_stream_with_memory(10, 45.0, 4);
        assert!(jobs
            .iter()
            .flat_map(|j| &j.stages)
            .all(|s| s.mem_demand > 0.0));
    }

    #[test]
    fn alibaba_stream_valid() {
        let jobs = alibaba_stream(&AlibabaConfig::default(), 100, 20.0, 5);
        assert_eq!(jobs.len(), 100);
        assert!(jobs.iter().all(|j| j.validate().is_ok()));
    }

    #[test]
    fn renumber_makes_ids_dense() {
        let jobs = tpch_batch(10, 6);
        let sliced: Vec<_> = jobs.into_iter().skip(3).collect();
        let dense = renumber(sliced);
        for (i, j) in dense.iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn offered_load_sane() {
        // The paper's continuous setting (IAT 45 s on 50 executors) runs
        // around 85% load; our synthetic profiles should land in the same
        // regime (±35 points — absolute work calibration is not required
        // for shape reproduction, see DESIGN.md).
        let jobs = tpch_stream(400, 45.0, 7);
        let load = offered_load(&jobs, 50);
        assert!(load > 0.3 && load < 1.5, "load = {load:.2}");
    }

    #[test]
    fn deterministic_streams() {
        let a = tpch_stream(30, 45.0, 9);
        let b = tpch_stream(30, 45.0, 9);
        let wa: f64 = a.iter().map(JobSpec::total_work).sum();
        let wb: f64 = b.iter().map(JobSpec::total_work).sum();
        assert_eq!(wa, wb);
    }
}
