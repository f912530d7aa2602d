//! Property-based tests of the simulation engine's invariants, over
//! randomly generated DAGs, clusters (including multi-class), and seeds:
//! tasks are conserved, no executor is double-booked, the clock is
//! monotone, work-conserving episodes terminate, and same-seed runs are
//! bit-identical. The `Invariants` wrapper checks the engine's
//! incremental counters against first principles at **every** decision,
//! and `run_checked` holds every observation to the rebuilt reference.

use decima_core::{ClusterSpec, ExecutorClass, JobBuilder, JobId, SimTime, StageSpec};
use decima_sim::{Action, DynamicsSpec, Observation, Scheduler, SimConfig, Simulator};
use proptest::prelude::*;

#[path = "../../../tests/support/checked.rs"]
mod checked;
use checked::run_checked;

/// A work-conserving test scheduler that spreads over all stages.
struct Spread;
impl Scheduler for Spread {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        // Round-robin over schedulable stages by picking the job with the
        // smallest allocation.
        let &(j, s) = obs
            .schedulable
            .iter()
            .min_by_key(|&&(j, _)| obs.jobs[j].alloc)?;
        Some(Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1))
    }
}

/// Wraps a scheduler and asserts the engine's per-decision invariants on
/// every observation it is handed.
struct Invariants<S> {
    inner: S,
    last_time: f64,
    decisions: usize,
}

impl<S> Invariants<S> {
    fn new(inner: S) -> Self {
        Invariants {
            inner,
            last_time: 0.0,
            decisions: 0,
        }
    }

    fn check(&mut self, obs: &Observation) {
        // The clock never goes backwards across decisions.
        assert!(
            obs.time.as_secs() >= self.last_time,
            "clock regressed: {} -> {}",
            self.last_time,
            obs.time.as_secs()
        );
        self.last_time = obs.time.as_secs();

        // Executor accounting: free + per-class splits agree, and no
        // executor is double-booked — every executor is in at most one
        // bucket: free (unbound/idle), busy (running or in flight),
        // or offline (churn outage). Equality can be missed only by
        // executors still in transit toward an already-finished job,
        // which are bound but belong to no active job's counts.
        assert_eq!(
            obs.free_by_class.iter().sum::<usize>(),
            obs.free_total,
            "free_by_class does not sum to free_total"
        );
        let busy: u32 = obs
            .jobs
            .iter()
            .flat_map(|j| j.nodes.iter())
            .map(|n| n.executors_on + n.in_flight)
            .sum();
        assert!(
            obs.free_total + busy as usize + obs.offline <= obs.total_executors,
            "double-booked executors: {} free + {busy} busy + {} offline > {} total",
            obs.free_total,
            obs.offline,
            obs.total_executors
        );

        for job in &obs.jobs {
            // Task conservation per stage: waiting + running + finished
            // covers exactly the spec'd tasks at all times.
            for (v, n) in job.nodes.iter().enumerate() {
                assert_eq!(
                    n.waiting + n.running + n.finished,
                    job.spec.stages[v].num_tasks,
                    "task conservation violated on job {:?} stage {v}",
                    job.id
                );
                assert_eq!(
                    n.running, n.executors_on,
                    "one running task per busy executor"
                );
            }
            // The incremental allocation equals its definition.
            let bound: u32 = job.nodes.iter().map(|n| n.executors_on + n.in_flight).sum();
            assert_eq!(
                job.alloc,
                job.local_free + bound as usize,
                "alloc mismatch on job {:?}",
                job.id
            );
        }

        // Schedulable entries are actionable by construction.
        for &(j, stage) in &obs.schedulable {
            let n = &obs.jobs[j].nodes[stage.index()];
            assert!(n.runnable && n.waiting > n.in_flight);
            let fits = (0..obs.num_classes)
                .any(|c| obs.free_by_class[c] > 0 && obs.class_memory[c] >= n.mem_demand);
            assert!(fits, "schedulable stage without a fitting free executor");
        }
    }
}

impl<S: Scheduler> Scheduler for Invariants<S> {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        self.check(obs);
        self.decisions += 1;
        self.inner.decide(obs)
    }
}

fn random_jobs(seed: u64, n_jobs: usize) -> Vec<decima_core::JobSpec> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..n_jobs)
        .map(|i| {
            let stages = rng.gen_range(1..5usize);
            let mut b = JobBuilder::new(JobId(i as u32));
            for s in 0..stages {
                b.stage(StageSpec {
                    num_tasks: rng.gen_range(1..10),
                    task_duration: rng.gen_range(0.2..5.0),
                    first_wave_factor: rng.gen_range(1.0..2.5),
                    mem_demand: 0.0,
                });
                // Random upstream parent keeps the DAG connected-ish.
                if s > 0 {
                    let p = rng.gen_range(0..s);
                    b.edge(p as u32, s as u32);
                }
            }
            b.arrival(SimTime::from_secs(rng.gen_range(0.0..20.0)))
                .build()
                .unwrap()
        })
        .collect()
}

/// Random multi-class cluster: 1–3 classes with distinct memory sizes.
/// The largest class always has memory 1.0 so every generated stage
/// (demand ≤ 1.0) fits somewhere and work-conserving episodes terminate.
fn random_cluster(seed: u64, execs: usize) -> ClusterSpec {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xc1a5);
    let n_classes = rng.gen_range(1..4usize).min(execs);
    let mut classes = Vec::with_capacity(n_classes);
    let mut remaining = execs;
    for ci in 0..n_classes {
        let count = if ci == n_classes - 1 {
            remaining
        } else {
            let hi = remaining - (n_classes - 1 - ci);
            rng.gen_range(1..=hi)
        };
        remaining -= count;
        let memory = if ci == n_classes - 1 {
            1.0
        } else {
            rng.gen_range(0.2..0.8)
        };
        classes.push(ExecutorClass { memory, count });
    }
    ClusterSpec {
        classes,
        move_delay: rng.gen_range(0.0..2.0),
    }
}

/// Random jobs with per-stage memory demands in `[0, 1]`.
fn random_memory_jobs(seed: u64, n_jobs: usize) -> Vec<decima_core::JobSpec> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x9e37);
    random_jobs(seed, n_jobs)
        .into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.mem_demand = rng.gen_range(0.0..1.0);
            }
            j
        })
        .collect()
}

/// Task failures at rate `fail` that never kill a job.
fn retrying(fail: f64) -> DynamicsSpec {
    DynamicsSpec {
        fail_prob: fail,
        max_retries: u32::MAX,
        ..DynamicsSpec::off()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: every task runs exactly once (finished counts match
    /// the specs; executed work ≥ static work), under arbitrary
    /// cluster shapes and noise.
    #[test]
    fn task_conservation(seed in 0u64..3000, n_jobs in 1usize..5,
                         execs in 1usize..6, noise in 0.0f64..0.3) {
        let jobs = random_jobs(seed, n_jobs);
        let static_work: f64 = jobs.iter().map(|j| j.total_work()).sum();
        let cfg = SimConfig { noise, seed, ..SimConfig::default() };
        let r = Simulator::new(
            ClusterSpec::homogeneous(execs),
            jobs,
            cfg,
        ).run(Spread);
        prop_assert_eq!(r.completed(), n_jobs, "all jobs must finish");
        let executed: f64 = r.jobs.iter().map(|j| j.executed_work).sum();
        // Noise is mean-one but can undershoot; allow slack below while
        // requiring the first-wave factor to push the average up overall.
        prop_assert!(executed > 0.5 * static_work);
        for j in &r.jobs {
            prop_assert!(j.completion.unwrap() >= j.arrival);
            prop_assert!(j.peak_alloc <= execs);
        }
    }

    /// More executors never hurt a single job's completion time in the
    /// simplified (inflation-free) environment under greedy scheduling.
    #[test]
    fn monotone_speedup_without_inflation(seed in 0u64..2000) {
        let jobs = random_jobs(seed, 1);
        let jct = |execs: usize| {
            Simulator::new(
                ClusterSpec::homogeneous(execs).with_move_delay(0.0),
                jobs.clone(),
                SimConfig::simplified(),
            )
            .run(Spread)
            .avg_jct()
            .unwrap()
        };
        let (a, b, c) = (jct(1), jct(2), jct(4));
        prop_assert!(b <= a + 1e-9, "2 execs ({b}) slower than 1 ({a})");
        prop_assert!(c <= b + 1e-9, "4 execs ({c}) slower than 2 ({b})");
    }

    /// The episode horizon truncates exactly: no event effects after the
    /// limit, penalty integral capped at limit × jobs.
    #[test]
    fn horizon_truncates(seed in 0u64..2000, limit in 1.0f64..30.0) {
        let jobs = random_jobs(seed, 3);
        let cfg = SimConfig { time_limit: Some(limit), seed, ..SimConfig::default() };
        let r = Simulator::new(ClusterSpec::homogeneous(2), jobs, cfg).run(Spread);
        prop_assert!(r.end_time.as_secs() <= limit + 1e-9);
        for j in &r.jobs {
            if let Some(c) = j.completion {
                prop_assert!(c.as_secs() <= limit + 1e-9);
            }
        }
        prop_assert!(r.total_penalty() <= limit * 3.0 + 1e-6);
    }

    /// The full per-decision invariant battery on random multi-class
    /// clusters with per-stage memory demands, with the engine's own
    /// incremental-vs-rebuilt observation check at every decision: tasks
    /// conserved, no double-booking, monotone clock, alloc consistency,
    /// schedulable-set soundness — and the work-conserving episode
    /// terminates with every job complete.
    #[test]
    fn invariants_hold_on_multiclass_clusters(seed in 0u64..3000, n_jobs in 1usize..5,
                                              execs in 2usize..8, noise in 0.0f64..0.3) {
        let jobs = random_memory_jobs(seed, n_jobs);
        let cluster = random_cluster(seed, execs);
        let cfg = SimConfig {
            noise,
            seed,
            ..SimConfig::default()
        };
        let mut sched = Invariants::new(Spread);
        let r = run_checked(Simulator::new(cluster, jobs, cfg), &mut sched);
        prop_assert_eq!(r.completed(), n_jobs, "work-conserving episode must finish");
        prop_assert!(sched.decisions > 0, "episode took no decisions");
    }

    /// Same-seed runs are bit-identical on multi-class clusters too.
    #[test]
    fn multiclass_bitwise_determinism(seed in 0u64..1000) {
        let mk = || {
            let cfg = SimConfig {
                noise: 0.15,
                seed,
                dynamics: retrying(0.03),
                ..SimConfig::default()
            };
            Simulator::new(
                random_cluster(seed, 5),
                random_memory_jobs(seed, 3),
                cfg,
            ).run(Spread)
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.avg_jct(), b.avg_jct());
        prop_assert_eq!(a.num_events, b.num_events);
        prop_assert_eq!(a.total_penalty(), b.total_penalty());
    }

    /// The full per-decision invariant battery **under cluster
    /// dynamics**: random churn, bounded-retry failures, and stragglers
    /// on random multi-class clusters, with the engine's
    /// incremental-vs-rebuilt observation check at every decision. Tasks stay
    /// conserved through retries and churn interrupts, the clock stays
    /// monotone across outages, executor accounting (free/busy/offline)
    /// never double-books, alloc matches its definition, and no
    /// schedulable stage ever relies on an offline executor (offline
    /// executors are absent from `free_by_class`, which the
    /// schedulable-soundness check consults). Every job either completes
    /// or is killed by its retry budget.
    #[test]
    fn dynamics_invariants_hold_under_perturbation(
        seed in 0u64..3000, n_jobs in 1usize..4, execs in 2usize..8,
        churn_iat in 4.0f64..40.0, outage in 1.0f64..10.0,
        fail in 0.0f64..0.12, retries in 3u32..30,
        straggle in 0.0f64..0.2,
    ) {
        let jobs = random_memory_jobs(seed, n_jobs);
        let cluster = random_cluster(seed, execs);
        let cfg = SimConfig {
            seed,
            dynamics: DynamicsSpec {
                churn_iat,
                outage_mean: outage,
                fail_prob: fail,
                max_retries: retries,
                straggler_prob: straggle,
                straggler_factor: 2.5,
            },
            ..SimConfig::default()
        };
        let mut sched = Invariants::new(Spread);
        let r = run_checked(Simulator::new(cluster, jobs, cfg), &mut sched);
        prop_assert!(sched.decisions > 0, "episode took no decisions");
        prop_assert_eq!(
            r.completed() + r.failed(), n_jobs,
            "every job must either complete or exhaust its retry budget"
        );
        prop_assert_eq!(r.failed() as u64, r.dynamics.failed_jobs);
        // A killed job costs its budget + 1 failures, so the retry
        // counter must cover at least that much.
        prop_assert!(r.dynamics.retries >= r.dynamics.failed_jobs * (retries as u64 + 1));
        prop_assert!(r.dynamics.churn_events == 0 || r.dynamics.lost_exec_seconds > 0.0);
    }

    /// Task conservation **including retries**: with failure injection
    /// but a generous budget (no job dies), every job still completes,
    /// and the re-executed attempts show up as executed work beyond the
    /// static total.
    #[test]
    fn dynamics_retries_conserve_tasks(seed in 0u64..2000, n_jobs in 1usize..4,
                                       fail in 0.05f64..0.3) {
        let jobs = random_jobs(seed, n_jobs);
        let static_work: f64 = jobs.iter().map(|j| j.total_work()).sum();
        let cfg = SimConfig {
            first_wave: false,
            inflation: false,
            seed,
            dynamics: retrying(fail),
            ..SimConfig::default()
        };
        let r = Simulator::new(ClusterSpec::homogeneous(3), jobs, cfg).run(Spread);
        prop_assert_eq!(r.completed(), n_jobs, "generous budget ⇒ all jobs finish");
        prop_assert_eq!(r.dynamics.failed_jobs, 0);
        let executed: f64 = r.jobs.iter().map(|j| j.executed_work).sum();
        // Every retry re-runs a full task, so executed work exceeds the
        // static total exactly when failures occurred.
        if r.dynamics.retries > 0 {
            prop_assert!(executed > static_work + 1e-9);
        } else {
            prop_assert!((executed - static_work).abs() < 1e-6);
        }
        prop_assert_eq!(r.task_failures, r.dynamics.retries);
    }

    /// Same seed + same `DynamicsSpec` ⇒ bit-identical episodes and
    /// counters, with every perturbation active at once.
    #[test]
    fn dynamics_bitwise_determinism(seed in 0u64..1000) {
        let mk = || {
            let cfg = SimConfig {
                noise: 0.1,
                seed,
                dynamics: DynamicsSpec {
                    churn_iat: 8.0,
                    outage_mean: 5.0,
                    fail_prob: 0.08,
                    max_retries: 10,
                    straggler_prob: 0.1,
                    straggler_factor: 3.0,
                },
                ..SimConfig::default()
            };
            Simulator::new(
                random_cluster(seed, 5),
                random_memory_jobs(seed, 3),
                cfg,
            ).run(Spread)
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.avg_jct(), b.avg_jct());
        prop_assert_eq!(a.num_events, b.num_events);
        prop_assert_eq!(a.dynamics, b.dynamics);
        prop_assert_eq!(a.total_penalty(), b.total_penalty());
        let fa: Vec<bool> = a.jobs.iter().map(|j| j.failed).collect();
        let fb: Vec<bool> = b.jobs.iter().map(|j| j.failed).collect();
        prop_assert_eq!(fa, fb);
    }

    /// The streaming job lifecycle's differential contract: with job
    /// retirement on (the default), every observable field of the
    /// episode result — the decision tally (count, summed penalty and
    /// the digest of every decision's time and penalty bits), per-job
    /// outcomes, `DynamicsCounters`, event counts — is
    /// bit-identical to the keep-everything engine
    /// ([`Simulator::retain_all`]), across random multi-class clusters
    /// with churn, bounded-retry failures, stragglers, and noise all
    /// active. The incremental-vs-rebuilt observation check runs at
    /// every decision of both episodes, so the recycled arena is also
    /// checked against the rebuilt oracle throughout. Drift phase
    /// boundaries compose with the dynamics: none to four of them, at
    /// random instants, so the per-phase counters join the comparison.
    #[test]
    fn retirement_is_bit_identical_to_keep_everything(
        seed in 0u64..3000, n_jobs in 1usize..5, execs in 2usize..8,
        churn_iat in 4.0f64..40.0, fail in 0.0f64..0.15, retries in 0u32..6,
        noise in 0.0f64..0.3,
        incs in proptest::collection::vec(0.5f64..30.0, 0..5),
    ) {
        let phase_boundaries: Vec<f64> = incs
            .iter()
            .scan(0.0, |t, d| {
                *t += d;
                Some(*t)
            })
            .collect();
        let mk = |keep: bool| {
            let cfg = SimConfig {
                noise,
                seed,
                phase_boundaries: phase_boundaries.clone(),
                dynamics: DynamicsSpec {
                    churn_iat,
                    outage_mean: 5.0,
                    fail_prob: fail,
                    max_retries: retries,
                    straggler_prob: 0.1,
                    straggler_factor: 2.0,
                },
                ..SimConfig::default()
            };
            let sim =
                Simulator::new(random_cluster(seed, execs), random_memory_jobs(seed, n_jobs), cfg);
            run_checked(sim.retain_all(keep), Spread)
        };
        let retire = mk(false);
        let keep = mk(true);
        let diff = retire.same_run(&keep);
        prop_assert!(diff.is_ok(), "modes diverged: {:?}", diff);
        // The telemetry is the one sanctioned difference: the arena's
        // high-water mark tracks the live peak with retirement on and
        // total arrivals with it off.
        prop_assert_eq!(retire.mem.slots_hwm, retire.mem.live_jobs_peak);
        prop_assert!(keep.mem.slots_hwm >= retire.mem.slots_hwm);
        prop_assert_eq!(keep.mem.node_pool_hwm, 0);
        prop_assert_eq!(
            retire.mem.retired_jobs as usize,
            retire.completed() + retire.failed()
        );
    }

    /// Determinism: identical configuration ⇒ identical episode, even
    /// with noise and failures enabled.
    #[test]
    fn bitwise_determinism(seed in 0u64..1000) {
        let mk = || {
            let cfg = SimConfig {
                noise: 0.2,
                seed,
                dynamics: retrying(0.05),
                ..SimConfig::default()
            };
            Simulator::new(
                ClusterSpec::homogeneous(3),
                random_jobs(seed, 3),
                cfg,
            ).run(Spread)
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.avg_jct(), b.avg_jct());
        prop_assert_eq!(a.num_events, b.num_events);
        prop_assert_eq!(a.task_failures, b.task_failures);
        prop_assert_eq!(a.total_penalty(), b.total_penalty());
    }
}

// ---------------------------------------------------------------------------
// A hostile scheduler never panics the engine
// ---------------------------------------------------------------------------

/// A seeded scheduler that mixes well-formed picks with every malformed
/// action a buggy or adversarial policy could emit: job ids out of
/// range, not yet arrived or already retired, stages past the DAG,
/// classes the cluster does not have, limits 0 and `usize::MAX`, stage
/// scope, and passes.
struct Hostile {
    rng: rand::rngs::SmallRng,
    n_jobs: u32,
    /// Every job id an observation ever showed.
    seen: Vec<JobId>,
}

impl Scheduler for Hostile {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        use rand::Rng;
        for j in &obs.jobs {
            if !self.seen.contains(&j.id) {
                self.seen.push(j.id);
            }
        }
        let &(j, stage) = obs
            .schedulable
            .get(self.rng.gen_range(0..obs.schedulable.len()))?;
        let job = &obs.jobs[j];
        let good = Action::new(job.id, stage, job.alloc + 1);
        Some(match self.rng.gen_range(0..12u32) {
            0 => return None,
            1 => Action {
                job: JobId(self.n_jobs + self.rng.gen_range(0..3)),
                ..good
            },
            2 => Action {
                job: JobId(u32::MAX),
                ..good
            },
            // Seen earlier, gone now: retired (its slot may be reused).
            3 => match self
                .seen
                .iter()
                .find(|id| obs.jobs.iter().all(|j| j.id != **id))
            {
                Some(&retired) => Action {
                    job: retired,
                    ..good
                },
                None => Action {
                    job: JobId(self.rng.gen_range(0..self.n_jobs)),
                    ..good
                },
            },
            4 => Action {
                stage: decima_core::StageId(job.nodes.len() as u32 + 2),
                ..good
            },
            5 => good.with_class(decima_core::ClassId(obs.num_classes as u16 + 1)),
            6 => good.with_class(decima_core::ClassId(
                self.rng.gen_range(0..obs.num_classes) as u16
            )),
            7 => Action { limit: 0, ..good },
            8 => Action {
                limit: usize::MAX,
                ..good
            },
            9 => Action {
                limit: self.rng.gen_range(0..4),
                ..good
            }
            .stage_scoped(),
            _ => good,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the scheduler returns, the engine returns an
    /// `EpisodeResult`: every job has an outcome, the episode ends for a
    /// stated reason, the per-decision invariant battery (task
    /// conservation, no double-booking, incremental == rebuilt
    /// observation) holds at every decision, and a second run is
    /// `same_run`-identical — on random multi-class clusters, dynamics
    /// on and off, with and without a horizon.
    #[test]
    fn hostile_scheduler_never_panics_the_engine(
        seed in 0u64..3000, n_jobs in 1usize..5, execs in 1usize..8,
        dynamics_on in 0u32..2, horizon_on in 0u32..2, horizon in 5.0f64..80.0,
    ) {
        use decima_sim::EpisodeOutcome::{Drained, EventBudget, Horizon, Livelock};
        use rand::SeedableRng;
        let run = || {
            let cfg = SimConfig {
                noise: 0.1,
                seed,
                time_limit: (horizon_on == 1).then_some(horizon),
                max_events: 200_000,
                dynamics: if dynamics_on == 1 {
                    DynamicsSpec { churn_iat: 6.0, outage_mean: 4.0, fail_prob: 0.1,
                                   max_retries: 4, straggler_prob: 0.1, straggler_factor: 2.0 }
                } else {
                    DynamicsSpec::off()
                },
                ..SimConfig::default()
            };
            let mut sched = Invariants::new(Hostile {
                rng: rand::rngs::SmallRng::seed_from_u64(seed ^ 0x4057),
                n_jobs: n_jobs as u32,
                seen: Vec::new(),
            });
            let sim =
                Simulator::new(random_cluster(seed, execs), random_memory_jobs(seed, n_jobs), cfg);
            run_checked(sim, &mut sched)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.jobs.len(), n_jobs);
        prop_assert!(matches!(a.outcome, Drained | Horizon | Livelock | EventBudget));
        prop_assert!(a.completed() + a.failed() <= n_jobs);
        prop_assert!(a.wasted_actions <= a.actions.len() as u64);
        let diff = a.same_run(&b);
        prop_assert!(diff.is_ok(), "hostile rerun diverged: {:?}", diff);
    }
}

// A case whose base run leaves a job live is rejected and replaced: the
// test checks 48 cases and fails past 24 rejections (20 today, so 68
// cases are drawn).
proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_global_rejects: 24 })]

    /// Metamorphic relation of the paper's model (§6.2): a job appended
    /// to arrive after the episode's end changes no earlier job's
    /// outcome, under either scheduler of this suite, dynamics on and
    /// off. Every earlier job has retired by then, so the appended one
    /// is admitted into a recycled slot and the arena does not grow.
    #[test]
    fn a_job_arriving_after_the_end_changes_no_earlier_outcome(
        seed in 0u64..3000, n_jobs in 1usize..5, execs in 1usize..8,
        dynamics_on in 0u32..2, hostile in 0u32..2, gap in 0.1f64..20.0,
    ) {
        use rand::SeedableRng;
        let jobs = random_memory_jobs(seed, n_jobs);
        let run = |jobs: Vec<decima_core::JobSpec>| {
            let cfg = SimConfig {
                noise: 0.1,
                seed,
                max_events: 200_000,
                dynamics: if dynamics_on == 1 {
                    DynamicsSpec { churn_iat: 6.0, outage_mean: 4.0, fail_prob: 0.1,
                                   max_retries: 4, straggler_prob: 0.1, straggler_factor: 2.0 }
                } else {
                    DynamicsSpec::off()
                },
                ..SimConfig::default()
            };
            let sim = Simulator::new(random_cluster(seed, execs), jobs, cfg);
            if hostile == 1 {
                run_checked(sim, Hostile {
                    rng: rand::rngs::SmallRng::seed_from_u64(seed ^ 0x4057),
                    n_jobs: n_jobs as u32,
                    seen: Vec::new(),
                })
            } else {
                run_checked(sim, Spread)
            }
        };
        let base = run(jobs.clone());
        // The relation needs every earlier job retired: a run left with
        // live jobs (a passing scheduler, a livelock) would be woken by
        // the arrival.
        prop_assume!(base.completed() + base.failed() >= n_jobs);
        let mut late = random_memory_jobs(seed ^ 0x1a7e, 1).remove(0);
        late.id = JobId(n_jobs as u32);
        late.arrival = SimTime::from_secs(base.end_time.as_secs() + gap);
        let mut extended = jobs;
        extended.push(late);
        let ext = run(extended);
        prop_assert_eq!(&ext.jobs[..n_jobs], &base.jobs[..]);
        prop_assert_eq!(ext.mem.slots_hwm, base.mem.slots_hwm, "the late job took a recycled slot");
        prop_assert_eq!(ext.mem.live_jobs_peak, base.mem.live_jobs_peak);
    }
}

// ---------------------------------------------------------------------------
// Workload drift: phase accounting and the drift-off identity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Phase boundaries are pure observation: injecting arbitrary
    /// strictly-increasing boundaries never perturbs scheduling — every
    /// cost-bearing result field is bit-identical to the boundary-free
    /// run (only `end_time`/`num_events` may move, when a trailing
    /// zero-rate boundary event pops after the last completion) — and
    /// the per-phase counters partition the episode exactly: arrivals
    /// sum to the materialized jobs, completions to the completed jobs,
    /// and the per-phase cost integral to the total penalty.
    #[test]
    fn phase_boundaries_observe_without_perturbing(
        seed in 0u64..2000, n_jobs in 1usize..4, noise in 0.0f64..0.3,
        incs in proptest::collection::vec(0.5f64..30.0, 1..5),
    ) {
        let mut boundaries = Vec::with_capacity(incs.len());
        let mut t = 0.0;
        for d in &incs {
            t += d;
            boundaries.push(t);
        }
        let mk = |b: Vec<f64>| {
            let cfg = SimConfig { noise, seed, phase_boundaries: b, ..SimConfig::default() };
            Simulator::new(ClusterSpec::homogeneous(3), random_jobs(seed, n_jobs), cfg)
                .run(Spread)
        };
        let with = mk(boundaries.clone());
        let without = mk(Vec::new());
        prop_assert_eq!(
            with.avg_jct().map(f64::to_bits),
            without.avg_jct().map(f64::to_bits)
        );
        prop_assert_eq!(with.total_penalty().to_bits(), without.total_penalty().to_bits());
        prop_assert_eq!(with.completed(), without.completed());
        prop_assert_eq!(with.actions.len(), without.actions.len());

        prop_assert!(!without.drift.enabled());
        prop_assert_eq!(with.drift.phases as usize, boundaries.len() + 1);
        prop_assert_eq!(with.drift.total_arrivals() as usize, with.jobs.len());
        prop_assert_eq!(with.drift.total_completions() as usize, with.completed());
        let total = with.total_penalty();
        prop_assert!(
            (with.drift.total_cost() - total).abs() <= 1e-9 * total.abs().max(1.0),
            "cost partition leaks: {} vs {}", with.drift.total_cost(), total
        );
    }

    /// The drift-off identity at the workload layer:
    /// `build_drifting(off)` is byte-for-byte `build`, and the episodes
    /// they feed satisfy the full `same_run` oracle (drift counters
    /// included).
    #[test]
    fn drift_off_build_is_the_stationary_build(seed in 0u64..500, n_jobs in 1usize..5) {
        use decima_workload::{DriftSpec, WorkloadSpec};
        let spec = WorkloadSpec::tpch_stream(n_jobs, 4, 20.0);
        let (c_off, j_off) = spec.build_drifting(&DriftSpec::off(), seed);
        let (c_plain, j_plain) = spec.build(seed);
        prop_assert_eq!(&c_off, &c_plain);
        prop_assert_eq!(&j_off, &j_plain);
        let run = |cluster, jobs| {
            let cfg = SimConfig { noise: 0.1, seed, ..SimConfig::default() };
            Simulator::new(cluster, jobs, cfg).run(Spread)
        };
        let a = run(c_off, j_off);
        let b = run(c_plain, j_plain);
        prop_assert!(a.same_run(&b).is_ok(), "drift-off diverged: {:?}", a.same_run(&b));
    }

    /// Drifted episodes are bit-deterministic, counters included: the
    /// same `DriftSpec` + seed reproduces the whole `same_run` surface.
    #[test]
    fn drifted_episodes_are_bit_deterministic(
        seed in 0u64..300,
        profile_idx in 0usize..decima_workload::DRIFT_PROFILE_NAMES.len(),
    ) {
        use decima_workload::{DriftSpec, WorkloadSpec};
        let profile = decima_workload::DRIFT_PROFILE_NAMES[profile_idx];
        let drift = DriftSpec::preset(profile).unwrap();
        let spec = WorkloadSpec::tpch_stream(5, 4, 25.0);
        let mk = || {
            let (cluster, jobs) = spec.build_drifting(&drift, seed);
            let cfg = SimConfig {
                phase_boundaries: drift.phase_boundaries(),
                seed,
                ..SimConfig::default()
            };
            Simulator::new(cluster, jobs, cfg).run(Spread)
        };
        let (a, b) = (mk(), mk());
        prop_assert!(a.same_run(&b).is_ok(), "drifted rerun diverged: {:?}", a.same_run(&b));
        prop_assert!(a.drift.enabled());
        prop_assert_eq!(a.drift.total_arrivals() as usize, a.jobs.len());
    }

    /// Task conservation across the mix-shift boundary: every job from
    /// both families (pre-shift TPC-H, post-shift trace-like) runs to
    /// completion under a work-conserving scheduler, the two phases
    /// partition the arrivals exactly, and executed work covers the
    /// static total of both families.
    #[test]
    fn mixshift_conserves_tasks_across_the_boundary(
        seed in 0u64..200, shift in 50.0f64..300.0,
    ) {
        use decima_workload::{DriftProfile, DriftSpec, WorkloadSpec};
        let drift = DriftSpec { profile: DriftProfile::MixShift { shift_at: shift } };
        let spec = WorkloadSpec::tpch_stream(6, 4, 25.0);
        let (cluster, jobs) = spec.build_drifting(&drift, seed);
        let n = jobs.len();
        let static_work: f64 = jobs.iter().map(|j| j.total_work()).sum();
        let cfg = SimConfig {
            phase_boundaries: drift.phase_boundaries(),
            seed,
            first_wave: false,
            inflation: false,
            ..SimConfig::default()
        };
        let r = Simulator::new(cluster, jobs, cfg).run(Spread);
        prop_assert_eq!(r.completed(), n, "mix-shift episode must finish every job");
        prop_assert_eq!(r.drift.phases, 2);
        prop_assert_eq!(r.drift.total_arrivals() as usize, n);
        prop_assert_eq!(r.drift.total_completions() as usize, n);
        let executed: f64 = r.jobs.iter().map(|j| j.executed_work).sum();
        prop_assert!((executed - static_work).abs() < 1e-6 * static_work.max(1.0));
    }
}

// ---------------------------------------------------------------------------
// The spliced observation write
// ---------------------------------------------------------------------------

/// Sends every free executor it may to the last schedulable stage's
/// job: the move takes idle executors from many other jobs, so the next
/// write finds many jobs dirty.
struct Grab;
impl Scheduler for Grab {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let &(j, s) = obs.schedulable.last()?;
        Some(Action::new(obs.jobs[j].id, s, obs.total_executors))
    }
}

/// `Hostile` on every third decision and `Spread` on the others, so the
/// malformed actions land all through the episode instead of ending
/// its passes from the start.
struct Mixed(Hostile, u32);
impl Scheduler for Mixed {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        self.1 += 1;
        if self.1 % 3 == 0 {
            self.0.decide(obs)
        } else {
            Spread.decide(obs)
        }
    }
}

/// `n_jobs` random memory-demanding jobs, all arriving at time zero: the
/// active set then stands between retirements, and most writes splice.
fn memory_batch(seed: u64, n_jobs: usize) -> Vec<decima_core::JobSpec> {
    random_memory_jobs(seed, n_jobs)
        .into_iter()
        .map(|mut j| {
            j.arrival = SimTime::ZERO;
            j
        })
        .collect()
}

/// `small` executors of memory 0.5 and `big` of memory 1.0: the memory
/// threshold flips between the two whenever every big one is busy.
fn two_class(small: usize, big: usize) -> ClusterSpec {
    ClusterSpec {
        classes: vec![
            ExecutorClass {
                memory: 0.5,
                count: small,
            },
            ExecutorClass {
                memory: 1.0,
                count: big,
            },
        ],
        move_delay: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The write that splices the dirty jobs' runs of `schedulable` in
    /// place equals the rebuilt observation at every decision of 40- to
    /// 100-job episodes, where runs grow, shrink and vanish mid-list, on
    /// two-class clusters whose threshold flips; with dynamics (offline
    /// executors, job kills) on and off and retirement on and off; under
    /// a scheduler that dirties many jobs per write (`Grab`), one that
    /// dirties one or two (`Spread`) and one that is hostile on every
    /// third decision (`Mixed`). Half the cases spread the arrivals over
    /// 20 s instead, so that admissions interleave with the splices.
    #[test]
    fn the_spliced_write_matches_the_rebuilt_observation(
        seed in 0u64..3000, n_jobs in 40usize..=100, small in 1usize..6, big in 1usize..4,
        dynamics_on in 0u32..2, keep in 0u32..2, sched in 0u32..3, staggered in 0u32..2,
    ) {
        use rand::SeedableRng;
        let cfg = SimConfig {
            noise: 0.1,
            seed,
            max_events: 200_000,
            dynamics: if dynamics_on == 1 {
                DynamicsSpec { churn_iat: 6.0, outage_mean: 4.0, fail_prob: 0.05,
                               max_retries: 3, straggler_prob: 0.1, straggler_factor: 2.0 }
            } else {
                DynamicsSpec::off()
            },
            ..SimConfig::default()
        };
        let jobs = if staggered == 1 {
            random_memory_jobs(seed, n_jobs)
        } else {
            memory_batch(seed, n_jobs)
        };
        let sim = Simulator::new(two_class(small, big), jobs, cfg).retain_all(keep == 1);
        let r = match sched {
            0 => run_checked(sim, Invariants::new(Grab)),
            1 => run_checked(sim, Invariants::new(Spread)),
            _ => run_checked(sim, Invariants::new(Mixed(Hostile {
                rng: rand::rngs::SmallRng::seed_from_u64(seed ^ 0x4057),
                n_jobs: n_jobs as u32,
                seen: Vec::new(),
            }, 0))),
        };
        prop_assert_eq!(r.jobs.len(), n_jobs);
        prop_assert!(r.completed() + r.failed() <= n_jobs);
    }
}
