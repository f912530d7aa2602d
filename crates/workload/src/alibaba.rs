//! Alibaba-like production-trace synthesizer.
//!
//! The paper's multi-resource experiments (§7.3) replay ~20,000 jobs from
//! Alibaba's proprietary `cluster-trace-v2018`. The trace itself is not
//! redistributable, so this module synthesizes a workload matching the
//! statistics the paper publishes about it:
//!
//! * **DAG sizes**: 59% of jobs have ≥ 4 stages; some have hundreds
//!   (we cap at a configurable maximum, default 120).
//! * **Structure**: layered random DAGs (production dataflows are mostly
//!   shallow-but-wide map/reduce pipelines with occasional deep chains).
//! * **Task counts / durations**: log-normal with heavy tails.
//! * **Memory demands**: uniform over `(0, 1]`, matching the discrete
//!   executor classes of §7.3.
//! * **No work-inflation profiles** — the paper explicitly notes the
//!   trace lacks parallelism-scaling measurements (§7.3), which is why
//!   Decima's edge over Graphene* is smaller here than on TPC-H; keeping
//!   inflation off preserves that shape.

use decima_core::{InflationCurve, JobBuilder, JobId, JobSpec, SimTime, StageSpec};
use rand::Rng;
use rand_distr::{Distribution, LogNormal};

/// Tunable parameters of the synthesizer.
#[derive(Clone, Debug, PartialEq)]
pub struct AlibabaConfig {
    /// Maximum number of stages per job.
    pub max_stages: usize,
    /// Fraction of jobs with fewer than 4 stages (paper: 41%).
    pub small_job_fraction: f64,
    /// Log-normal (mu, sigma) of per-stage task counts.
    pub task_count_lognorm: (f64, f64),
    /// Log-normal (mu, sigma) of task durations in seconds.
    pub task_dur_lognorm: (f64, f64),
    /// Cap on tasks per stage.
    pub max_tasks: u32,
    /// Sample per-stage memory demands from `(0, 1]`.
    pub with_memory: bool,
    /// First-wave slowdown factor.
    pub first_wave_factor: f64,
}

impl Default for AlibabaConfig {
    fn default() -> Self {
        AlibabaConfig {
            max_stages: 120,
            small_job_fraction: 0.41,
            task_count_lognorm: (1.6, 1.2),
            task_dur_lognorm: (0.9, 0.8),
            max_tasks: 400,
            with_memory: true,
            first_wave_factor: 1.5,
        }
    }
}

impl AlibabaConfig {
    /// The small configuration the experiments use (at most 30 stages
    /// of at most 50 tasks each): `WorkloadSpec::alibaba_small` and the
    /// mix-shift drift's post-shift jobs.
    pub(crate) fn small() -> Self {
        AlibabaConfig {
            max_stages: 30,
            max_tasks: 50,
            ..AlibabaConfig::default()
        }
    }
}

/// Samples the number of stages: 41% small (1–3), the rest a truncated
/// heavy tail starting at 4.
fn sample_num_stages(cfg: &AlibabaConfig, rng: &mut impl Rng) -> usize {
    if rng.gen::<f64>() < cfg.small_job_fraction {
        rng.gen_range(1..=3)
    } else {
        // Pareto-like: 4 / U^0.8, truncated.
        let u: f64 = rng.gen::<f64>().max(1e-9);
        let n = (4.0 / u.powf(0.8)) as usize;
        n.clamp(4, cfg.max_stages)
    }
}

/// Generates one synthetic production job.
#[expect(
    clippy::expect_used,
    reason = "valid by construction: at least one stage, every sampled field clamped into \
              range, and edges only from strictly earlier layers, so no cycle"
)]
pub fn alibaba_job(
    cfg: &AlibabaConfig,
    id: JobId,
    arrival: SimTime,
    rng: &mut impl Rng,
) -> JobSpec {
    let n = sample_num_stages(cfg, rng);
    #[expect(
        clippy::expect_used,
        reason = "caller contract: the config's (mu, sigma) pairs are finite with sigma >= 0, \
                  as the defaults (the only values any caller passes) are"
    )]
    let [tasks_dist, dur_dist] = [cfg.task_count_lognorm, cfg.task_dur_lognorm]
        .map(|(mu, sigma)| LogNormal::new(mu, sigma).expect("valid lognormal"));

    let mut b = JobBuilder::new(id);
    // Assign stages to layers: layer count ~ sqrt(n), at least 1.
    let layers = ((n as f64).sqrt().round() as usize).clamp(1, n);
    let mut layer_of = Vec::with_capacity(n);
    for v in 0..n {
        // Ensure each layer is non-empty by striping, then shuffle a bit.
        let l = if v < layers {
            v
        } else {
            rng.gen_range(0..layers)
        };
        layer_of.push(l);
    }
    for _ in 0..n {
        let tasks = (tasks_dist.sample(rng).ceil() as u32).clamp(1, cfg.max_tasks);
        let dur = dur_dist.sample(rng).clamp(0.2, 120.0);
        let mem = if cfg.with_memory {
            (rng.gen::<f64>() * 0.999 + 0.001).min(1.0)
        } else {
            0.0
        };
        b.stage(StageSpec {
            num_tasks: tasks,
            task_duration: dur,
            first_wave_factor: cfg.first_wave_factor,
            mem_demand: mem,
        });
    }
    // Edges: every stage in layer > 0 depends on 1–2 stages from strictly
    // earlier layers, keeping the graph acyclic by construction.
    for v in 0..n {
        if layer_of[v] == 0 {
            continue;
        }
        let earlier: Vec<u32> = (0..n)
            .filter(|&u| layer_of[u] < layer_of[v])
            .map(|u| u as u32)
            .collect();
        debug_assert!(!earlier.is_empty());
        let num_parents = rng.gen_range(1..=2.min(earlier.len()));
        let mut chosen: Vec<u32> = Vec::with_capacity(num_parents);
        while chosen.len() < num_parents {
            let p = earlier[rng.gen_range(0..earlier.len())];
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        for p in chosen {
            b.edge(p, v as u32);
        }
    }

    b.arrival(arrival)
        .inflation(InflationCurve::NONE)
        .build()
        .expect("synthesized job is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn jobs_are_valid_and_acyclic() {
        let cfg = AlibabaConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..200 {
            let j = alibaba_job(&cfg, JobId(i), SimTime::ZERO, &mut rng);
            assert!(j.validate().is_ok());
            assert!(!j.dag.is_empty() && j.dag.len() <= cfg.max_stages);
        }
    }

    #[test]
    fn stage_count_distribution_matches_paper() {
        let cfg = AlibabaConfig::default();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 4000;
        let ge4 = (0..n)
            .filter(|&i| {
                alibaba_job(&cfg, JobId(i), SimTime::ZERO, &mut rng)
                    .dag
                    .len()
                    >= 4
            })
            .count();
        let frac = ge4 as f64 / n as f64;
        // Paper: 59% of jobs have four or more stages.
        assert!(
            (frac - 0.59).abs() < 0.05,
            "fraction with >=4 stages = {frac:.2}"
        );
    }

    #[test]
    fn some_jobs_are_large() {
        let cfg = AlibabaConfig::default();
        let mut rng = SmallRng::seed_from_u64(5);
        let max = (0..2000)
            .map(|i| {
                alibaba_job(&cfg, JobId(i), SimTime::ZERO, &mut rng)
                    .dag
                    .len()
            })
            .max()
            .unwrap();
        assert!(max >= 60, "largest job only had {max} stages");
    }

    #[test]
    fn memory_demands_configurable() {
        let cfg = AlibabaConfig {
            with_memory: false,
            ..AlibabaConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let j = alibaba_job(&cfg, JobId(0), SimTime::ZERO, &mut rng);
        assert!(j.stages.iter().all(|s| s.mem_demand == 0.0));
        assert!((j.inflation.gamma - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn determinism_under_seed() {
        let cfg = AlibabaConfig::default();
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let a = alibaba_job(&cfg, JobId(0), SimTime::ZERO, &mut r1);
        let b = alibaba_job(&cfg, JobId(0), SimTime::ZERO, &mut r2);
        assert_eq!(a.total_work(), b.total_work());
        assert_eq!(a.dag.edges(), b.dag.edges());
    }
}
