//! Engine unit tests (private access to every engine module).

use super::execs::ExecSet;
use super::*;
use crate::dynamics::DynamicsSpec;
use crate::result::{JobOutcome, MemCounters};
use crate::sched::{Action, JobProfile};
use decima_core::{ClassId, JobBuilder, StageId, StageSpec};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Greedy FIFO-ish scheduler used only for engine tests.
struct TestSched;
impl Scheduler for TestSched {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let &(j, stage) = obs.schedulable.first()?;
        Some(Action::new(obs.jobs[j].id, stage, obs.total_executors))
    }
}

fn one_stage_job(id: u32, tasks: u32, dur: f64, arrival: f64) -> JobSpec {
    let mut b = JobBuilder::new(JobId(id));
    b.stage(StageSpec::simple(tasks, dur));
    b.arrival(SimTime::from_secs(arrival)).build().unwrap()
}

fn chain_job(id: u32, arrival: f64) -> JobSpec {
    let mut b = JobBuilder::new(JobId(id));
    let a = b.stage(StageSpec::simple(2, 1.0));
    let c = b.stage(StageSpec::simple(2, 1.0));
    b.edge(a, c);
    b.arrival(SimTime::from_secs(arrival)).build().unwrap()
}

fn bare_cfg() -> SimConfig {
    SimConfig {
        first_wave: false,
        inflation: false,
        noise: 0.0,
        ..SimConfig::default()
    }
}

fn cluster(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n).with_move_delay(0.0)
}

/// Answers the decision `step` owes next with `sched`; `false` once the
/// episode has ended.
fn answer(sim: &mut Simulator, sched: &mut impl Scheduler) -> bool {
    let Some(p) = sim.step() else {
        return false;
    };
    let action = sched.decide(p.observation());
    p.resume(action);
    true
}

/// Drives the episode through `step`, answering with `sched` and holding
/// every decision's observation to the rebuilt reference; then steps
/// twice more, which must find the episode ended, and finishes it.
fn run_checked(mut sim: Simulator, mut sched: impl Scheduler) -> EpisodeResult {
    sched.on_episode_start();
    while let Some(p) = sim.step() {
        p.check()
            .expect("incremental observation matches the rebuilt one");
        let action = sched.decide(p.observation());
        p.resume(action);
    }
    assert!(sim.step().is_none() && sim.step().is_none(), "stays ended");
    sim.finish()
}

#[test]
fn single_job_runs_to_completion() {
    // 4 tasks of 2s on 2 executors => 2 waves => JCT 4s.
    let sim = Simulator::new(cluster(2), vec![one_stage_job(0, 4, 2.0, 0.0)], bare_cfg());
    let r = sim.run(TestSched);
    assert_eq!(r.completed(), 1);
    assert_eq!(r.avg_jct(), Some(4.0));
    assert_eq!(r.makespan(), Some(4.0));
    assert_eq!(r.outcome, EpisodeOutcome::Drained);
}

#[test]
fn chain_respects_dependencies() {
    // Stage 0: 2 tasks 1s; stage 1: 2 tasks 1s, only after stage 0.
    let sim = Simulator::new(cluster(2), vec![chain_job(0, 0.0)], bare_cfg());
    let r = sim.run(TestSched);
    assert_eq!(r.avg_jct(), Some(2.0));
}

#[test]
fn parallelism_bounded_by_executors() {
    // 10 tasks of 1s on 3 executors => ceil(10/3)=4 waves => 4s.
    let sim = Simulator::new(cluster(3), vec![one_stage_job(0, 10, 1.0, 0.0)], bare_cfg());
    let r = sim.run(TestSched);
    assert_eq!(r.avg_jct(), Some(4.0));
}

#[test]
fn move_delay_charged_for_fresh_executors() {
    let cl = ClusterSpec::homogeneous(1).with_move_delay(2.0);
    let sim = Simulator::new(cl, vec![one_stage_job(0, 1, 1.0, 0.0)], bare_cfg());
    let r = sim.run(TestSched);
    // 2s JVM launch + 1s task.
    assert_eq!(r.avg_jct(), Some(3.0));
}

#[test]
fn first_wave_factor_applies_once_per_executor() {
    let mut b = JobBuilder::new(JobId(0));
    b.stage(StageSpec {
        num_tasks: 3,
        task_duration: 1.0,
        first_wave_factor: 2.0,
        mem_demand: 0.0,
    });
    let job = b.build().unwrap();
    let cfg = SimConfig {
        first_wave: true,
        inflation: false,
        ..SimConfig::default()
    };
    let sim = Simulator::new(cluster(1), vec![job], cfg);
    let r = sim.run(TestSched);
    // First task 2s (cold), next two 1s each => 4s.
    assert_eq!(r.avg_jct(), Some(4.0));
}

#[test]
fn inflation_slows_high_parallelism() {
    use decima_core::InflationCurve;
    let mut b = JobBuilder::new(JobId(0));
    b.stage(StageSpec::simple(4, 1.0));
    let job = b
        .inflation(InflationCurve {
            gamma: 1.0,
            p_ref: 1.0,
            knee: 1.0,
        })
        .build()
        .unwrap();
    let cfg = SimConfig {
        first_wave: false,
        inflation: true,
        ..SimConfig::default()
    };
    // 4 executors: factor(4) = 1 + 3 = 4 => each task 4s, one wave.
    let sim = Simulator::new(cluster(4), vec![job], cfg);
    let r = sim.run(TestSched);
    assert_eq!(r.avg_jct(), Some(4.0));
}

#[test]
fn two_jobs_fifo_order_and_avg_jct_reward() {
    let jobs = vec![one_stage_job(0, 2, 1.0, 0.0), one_stage_job(1, 2, 1.0, 0.0)];
    let sim = Simulator::new(cluster(2), jobs, bare_cfg());
    let r = sim.run(TestSched);
    assert_eq!(r.completed(), 2);
    // Job 0 takes both executors: done at 1s; job 1 next: done at 2s.
    let jcts = r.jcts();
    assert_eq!(jcts, vec![1.0, 2.0]);
    // Total AvgJct penalty = ∫J dt = 2*1 + 1*1 = 3 (2 jobs during
    // first second, 1 during the second).
    assert!((r.total_penalty() - 3.0).abs() < 1e-9);
}

#[test]
fn time_limit_truncates_episode() {
    let sim = Simulator::new(
        cluster(1),
        vec![one_stage_job(0, 10, 1.0, 0.0)],
        bare_cfg().with_time_limit(3.5),
    );
    let r = sim.run(TestSched);
    assert_eq!(r.completed(), 0);
    assert_eq!(r.unfinished(), 1);
    assert!(r.end_time.as_secs() <= 3.5 + 1e-9);
    // Penalty accrues only to the horizon: 1 job * 3.5s.
    assert!((r.total_penalty() - 3.5).abs() < 1e-9);
    assert_eq!(r.outcome, EpisodeOutcome::Horizon);
}

/// Passes on every decision.
struct DenyAll;
impl Scheduler for DenyAll {
    fn decide(&mut self, _: &Observation) -> Option<Action> {
        None
    }
}

#[test]
fn idle_scheduler_starves_but_terminates() {
    let sim = Simulator::new(
        cluster(2),
        vec![one_stage_job(0, 2, 1.0, 0.0)],
        bare_cfg().with_time_limit(10.0),
    );
    let r = sim.run(DenyAll);
    assert_eq!(r.completed(), 0);
    // Without churn there is nothing to keep the queue alive: the
    // episode drains (it never even reaches the horizon).
    assert_eq!(r.outcome, EpisodeOutcome::Drained);
}

/// Regression: churn plus a never-scheduling policy and no
/// `time_limit` used to grind churn ticks all the way to
/// `max_events` (50M by default). The livelock detector now ends
/// the episode explicitly after one fruitless churn cycle.
#[test]
fn deny_all_scheduler_under_churn_ends_as_livelock() {
    let dynamics = DynamicsSpec {
        churn_iat: 40.0,
        ..DynamicsSpec::off()
    };
    let sim = Simulator::new(
        cluster(3),
        vec![one_stage_job(0, 2, 1.0, 0.0)],
        bare_cfg().with_dynamics(dynamics),
    );
    let r = sim.run(DenyAll);
    assert_eq!(r.outcome, EpisodeOutcome::Livelock);
    assert_eq!(r.completed(), 0);
    assert!(
        r.num_events < 1_000,
        "livelock must end long before max_events: {} events",
        r.num_events
    );
}

/// Regression: a churn tick on an empty cluster used to panic picking
/// its victim (`gen_range(0..0)`). It now picks none; the ticks go on
/// until every job has arrived and then end the episode as a livelock.
#[test]
fn churn_tick_on_an_empty_cluster_picks_no_victim() {
    let dynamics = DynamicsSpec {
        churn_iat: 5.0,
        ..DynamicsSpec::off()
    };
    let cfg = bare_cfg().with_dynamics(dynamics);
    let jobs = vec![
        one_stage_job(0, 2, 1.0, 0.0),
        one_stage_job(1, 2, 1.0, 60.0),
    ];
    let r = run_checked(Simulator::new(cluster(0), jobs, cfg), TestSched);
    assert_eq!(r.outcome, EpisodeOutcome::Livelock);
    assert_eq!((r.completed(), r.dynamics.churn_events), (0, 0));
    assert!(
        r.end_time.as_secs() >= 60.0,
        "ticks survived to the arrival"
    );
}

/// A scheduler that denies everything until churn capacity comes
/// back is not livelocked while outages are pending: the detector
/// only fires when the whole cluster is online for a full idle
/// churn cycle, so episodes that do make progress end `Drained`.
#[test]
fn churned_episode_with_progress_ends_drained() {
    let dynamics = DynamicsSpec {
        churn_iat: 2.0,
        ..DynamicsSpec::off()
    };
    let sim = Simulator::new(
        cluster(3),
        vec![one_stage_job(0, 6, 1.0, 0.0)],
        bare_cfg().with_dynamics(dynamics),
    );
    let r = sim.run(TestSched);
    assert_eq!(r.completed(), 1);
    assert_eq!(r.outcome, EpisodeOutcome::Drained);
}

#[test]
fn limit_restricts_parallelism() {
    struct LimitTwo;
    impl Scheduler for LimitTwo {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            let &(j, stage) = obs.schedulable.first()?;
            Some(Action::new(obs.jobs[j].id, stage, 2))
        }
    }
    // 8 tasks of 1s, 8 executors, but limit 2 => 4 waves => 4s.
    let sim = Simulator::new(cluster(8), vec![one_stage_job(0, 8, 1.0, 0.0)], bare_cfg());
    let r = sim.run(LimitTwo);
    assert_eq!(r.avg_jct(), Some(4.0));
}

#[test]
fn multi_resource_memory_fit() {
    // Two classes: small (0.25) x1, large (1.0) x1. A stage demanding
    // 0.5 can only use the large executor.
    let cl = ClusterSpec {
        classes: vec![
            decima_core::ExecutorClass {
                memory: 0.25,
                count: 1,
            },
            decima_core::ExecutorClass {
                memory: 1.0,
                count: 1,
            },
        ],
        move_delay: 0.0,
    };
    let mut b = JobBuilder::new(JobId(0));
    b.stage(StageSpec {
        num_tasks: 2,
        task_duration: 1.0,
        first_wave_factor: 1.0,
        mem_demand: 0.5,
    });
    let job = b.build().unwrap();
    let sim = Simulator::new(cl, vec![job], bare_cfg());
    let r = sim.run(TestSched);
    // Only one executor fits => 2 sequential tasks => 2s.
    assert_eq!(r.avg_jct(), Some(2.0));
    // All busy time on class 1.
    assert_eq!(r.jobs[0].class_busy[0], 0.0);
    assert!((r.jobs[0].class_busy[1] - 2.0).abs() < 1e-9);
}

#[test]
fn task_failures_requeue() {
    let cfg = SimConfig {
        seed: 42,
        dynamics: DynamicsSpec {
            fail_prob: 0.5,
            max_retries: u32::MAX,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let sim = Simulator::new(cluster(1), vec![one_stage_job(0, 5, 1.0, 0.0)], cfg);
    let r = sim.run(TestSched);
    assert_eq!(r.completed(), 1);
    assert!(r.task_failures > 0);
    // Every failure adds one extra second of serial work.
    let expected = 5.0 + r.task_failures as f64;
    assert_eq!(r.avg_jct(), Some(expected));
}

#[test]
fn determinism_same_seed_same_result() {
    let mk = || {
        let cfg = SimConfig {
            noise: 0.3,
            seed: 7,
            ..bare_cfg()
        };
        Simulator::new(
            cluster(4),
            vec![one_stage_job(0, 20, 1.0, 0.0), chain_job(1, 0.5)],
            cfg,
        )
        .run(TestSched)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.avg_jct(), b.avg_jct());
    assert_eq!(a.num_events, b.num_events);
}

#[test]
fn gantt_recorded_when_enabled() {
    let cfg = SimConfig {
        record_gantt: true,
        ..bare_cfg()
    };
    let sim = Simulator::new(cluster(2), vec![one_stage_job(0, 4, 1.0, 0.0)], cfg);
    let r = sim.run(TestSched);
    let g = r.gantt.expect("gantt requested");
    assert_eq!(g.num_rows(), 2);
    assert!(g.utilization() > 0.9);
    assert_eq!(g.completions().len(), 1);
}

#[test]
fn incremental_observation_validates_against_rebuilt() {
    // Every decision of a mixed, noisy, multi-stage episode compares
    // the incremental observation field-for-field with the rebuilt
    // reference.
    let cfg = SimConfig {
        noise: 0.2,
        seed: 3,
        dynamics: DynamicsSpec {
            fail_prob: 0.05,
            max_retries: u32::MAX,
            ..DynamicsSpec::off()
        },
        ..SimConfig::default()
    };
    let jobs = vec![
        one_stage_job(0, 6, 1.0, 0.0),
        chain_job(1, 0.5),
        one_stage_job(2, 3, 2.0, 4.0),
    ];
    let cl = ClusterSpec::homogeneous(3).with_move_delay(1.0);
    let r = run_checked(Simulator::new(cl, jobs, cfg), TestSched);
    assert_eq!(r.completed(), 3);
}

#[test]
fn observation_matches_rebuilt_mid_episode() {
    let cfg = SimConfig {
        seed: 9,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        ClusterSpec::four_class(8).with_move_delay(1.0),
        vec![one_stage_job(0, 12, 1.0, 0.0), chain_job(1, 0.0)],
        cfg,
    );
    // Answer two decisions, then compare the two paths at the third.
    assert!(answer(&mut sim, &mut TestSched) && answer(&mut sim, &mut TestSched));
    let p = sim.step().expect("a third decision is owed");
    p.check()
        .expect("incremental and rebuilt observations must agree");
}

/// The observation write's work on a 40-job TPC-H batch over a
/// two-class cluster, whose memory threshold moves as the five big
/// executors fill and drain: a write that follows no move of the active set or the
/// threshold re-emits exactly the runs of the jobs marked dirty (counted
/// from their flags, not from the dirty list), and every full re-emit
/// follows such a move. The totals pin the work against the one-pass
/// write, which re-emitted every active job's run each time.
#[test]
fn a_write_re_emits_only_the_dirty_jobs_runs() {
    /// One more executor to the job with the fewest: many dirty jobs.
    struct Spread;
    impl Scheduler for Spread {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            let &(j, s) = obs
                .schedulable
                .iter()
                .min_by_key(|&&(j, _)| obs.jobs[j].alloc)?;
            Some(Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1))
        }
    }
    let cfg = SimConfig {
        seed: 7,
        ..SimConfig::default()
    };
    let jobs = decima_workload::tpch_batch(40, 3);
    let class = |memory, count| decima_core::ExecutorClass { memory, count };
    let cl = ClusterSpec {
        classes: vec![class(0.5, 15), class(1.0, 5)],
        move_delay: 2.5,
    };
    let mut sim = Simulator::new(cl, jobs, cfg);
    while let Some(p) = sim.step() {
        p.check()
            .expect("incremental observation matches the rebuilt one");
        let action = Spread.decide(p.observation());
        p.resume(action);
    }
    let log = &sim.obs_scratch.log;
    let (mut full, mut moves, mut runs, mut active) = (0, 0, 0, 0);
    for (i, w) in log.iter().enumerate() {
        let moved = i == 0 || {
            let last = &log[i - 1];
            last.epoch != w.epoch || last.fits_bits != w.fits_bits
        };
        assert_eq!(w.full, moved, "write {i}: {w:?}");
        let expect = if w.full { w.active } else { w.marked };
        assert_eq!(w.runs, expect, "write {i}: {w:?}");
        full += usize::from(w.full);
        moves += usize::from(i > 0 && log[i - 1].epoch == w.epoch && moved);
        runs += w.runs;
        active += w.active;
    }
    assert_eq!(
        (log.len(), full, moves, runs, active),
        (515, 175, 134, 6256, 9409),
        "(writes, full re-emits, threshold-only moves, runs re-emitted, active jobs at writes)"
    );
}

/// Both builders emit `schedulable` strictly ascending by (job index,
/// stage) and hand out the admission-time profile, at every decision of
/// a two-class episode under dynamics; `obs_equal` refuses a list that
/// is not grouped even when both sides carry the same one.
#[test]
fn both_builders_emit_schedulable_grouped_and_obs_equal_insists() {
    /// Counts its decisions and keeps the first observation with more
    /// than two stages open.
    struct Grouped(usize, Option<Observation>);
    impl Scheduler for Grouped {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            assert!(obs.schedulable_is_grouped(), "{:?}", obs.schedulable);
            for j in &obs.jobs {
                assert_eq!(*j.profile, JobProfile::of(&j.spec));
            }
            self.0 += 1;
            if self.1.is_none() && obs.schedulable.len() > 2 {
                self.1 = Some(obs.clone());
            }
            // The last schedulable stage: keeps several jobs open at once.
            let &(j, stage) = obs.schedulable.last()?;
            Some(Action::new(obs.jobs[j].id, stage, obs.jobs[j].alloc + 2))
        }
    }
    let cl = ClusterSpec {
        classes: vec![
            decima_core::ExecutorClass {
                memory: 0.5,
                count: 2,
            },
            decima_core::ExecutorClass {
                memory: 1.0,
                count: 2,
            },
        ],
        move_delay: 0.5,
    };
    let jobs: Vec<JobSpec> = (0..5)
        .map(|i| {
            let mut b = JobBuilder::new(JobId(i));
            let root = b.stage(StageSpec::simple(3, 1.0));
            for k in 0..3 {
                let leaf = b.stage(StageSpec {
                    mem_demand: [0.2, 0.6, 0.9][k],
                    ..StageSpec::simple(2 + k as u32, 1.0)
                });
                b.edge(root, leaf);
            }
            b.arrival(SimTime::from_secs(i as f64)).build().unwrap()
        })
        .collect();
    let cfg = SimConfig {
        seed: 4,
        ..SimConfig::default()
    }
    .with_dynamics(DynamicsSpec::med());
    let mut sim = Simulator::new(cl, jobs, cfg);
    let mut sched = Grouped(0, None);
    // The two builders agree at every decision, several of them with
    // more than two stages open; `check` also refuses either side
    // ungrouped.
    while let Some(p) = sim.step() {
        p.check().expect("the two builders agree");
        let action = sched.decide(p.observation());
        p.resume(action);
    }
    assert!(sched.0 > 20, "decisions were checked");
    let inc = sched.1.expect("several stages open at once");

    let mut swapped = inc.clone();
    swapped.schedulable.swap(0, 1);
    let err = obs_equal(&swapped, &swapped).unwrap_err();
    assert!(err.contains("not strictly ascending"), "{err}");
    assert!(obs_equal(&inc, &swapped).is_err());
}

/// The `multi_resource_memory_fit` edge from the scheduler's view:
/// with exactly one executor that fits the stage, the stage must be
/// schedulable iff that executor is free — the small free executor
/// alone must not make it actionable.
#[test]
fn memory_fit_schedulability_tracks_the_one_fitting_executor() {
    let cl = ClusterSpec {
        classes: vec![
            decima_core::ExecutorClass {
                memory: 0.25,
                count: 1,
            },
            decima_core::ExecutorClass {
                memory: 1.0,
                count: 1,
            },
        ],
        move_delay: 0.0,
    };
    let mut b = JobBuilder::new(JobId(0));
    b.stage(StageSpec {
        num_tasks: 2,
        task_duration: 1.0,
        first_wave_factor: 1.0,
        mem_demand: 0.5,
    });
    let job = b.build().unwrap();

    struct Check;
    impl Scheduler for Check {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            // decide() is only invoked with a non-empty schedulable
            // set, so the fitting (large) executor must be free here:
            // the small free executor alone must never surface the
            // stage.
            let &(j, stage) = obs.schedulable.first()?;
            assert!(
                obs.free_by_class[1] > 0,
                "stage offered as schedulable while no fitting executor is free"
            );
            Some(Action::new(obs.jobs[j].id, stage, obs.total_executors))
        }
    }
    let r = run_checked(Simulator::new(cl, vec![job], bare_cfg()), Check);
    assert_eq!(
        r.avg_jct(),
        Some(2.0),
        "two sequential tasks on the large executor"
    );
}

/// An action naming a class the cluster does not have is a wasted
/// action, not a panic (defensive against buggy/learned policies).
#[test]
fn apply_action_tolerates_out_of_range_class() {
    struct BadClass(bool);
    impl Scheduler for BadClass {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            if self.0 {
                return None;
            }
            self.0 = true;
            let &(j, stage) = obs.schedulable.first()?;
            Some(Action::new(obs.jobs[j].id, stage, obs.total_executors).with_class(ClassId(7)))
        }
    }
    let r = Simulator::new(
        cluster(2),
        vec![one_stage_job(0, 2, 1.0, 0.0)],
        SimConfig {
            time_limit: Some(5.0),
            ..bare_cfg()
        },
    )
    .run(BadClass(false));
    assert_eq!(r.wasted_actions, 1);
}

/// `apply_action` must agree with the observation about memory fit:
/// an action pinned to a class whose executors cannot fit the stage
/// assigns nothing (one wasted action), instead of depending on scan
/// order.
#[test]
fn apply_action_rejects_class_that_cannot_fit() {
    let cl = ClusterSpec {
        classes: vec![
            decima_core::ExecutorClass {
                memory: 0.25,
                count: 1,
            },
            decima_core::ExecutorClass {
                memory: 1.0,
                count: 1,
            },
        ],
        move_delay: 0.0,
    };
    let mut b = JobBuilder::new(JobId(0));
    b.stage(StageSpec {
        num_tasks: 1,
        task_duration: 1.0,
        first_wave_factor: 1.0,
        mem_demand: 0.5,
    });
    let job = b.build().unwrap();

    /// First pins the small (unfittable) class, then passes.
    struct PinSmall(bool);
    impl Scheduler for PinSmall {
        fn decide(&mut self, obs: &Observation) -> Option<Action> {
            if self.0 {
                return None;
            }
            self.0 = true;
            let &(j, stage) = obs.schedulable.first()?;
            Some(Action::new(obs.jobs[j].id, stage, obs.total_executors).with_class(ClassId(0)))
        }
    }
    let r = Simulator::new(
        cl,
        vec![job],
        SimConfig {
            time_limit: Some(10.0),
            ..bare_cfg()
        },
    )
    .run(PinSmall(false));
    assert_eq!(
        r.wasted_actions, 1,
        "the class-0 action must assign nothing"
    );
    assert_eq!(r.completed(), 0, "the scheduler then passed forever");
}

// ---- cluster dynamics ----

#[test]
fn dynamics_off_runs_identically_and_counts_nothing() {
    let mk = |dynamics: DynamicsSpec| {
        let cfg = SimConfig {
            noise: 0.2,
            seed: 5,
            dynamics,
            ..bare_cfg()
        };
        Simulator::new(cluster(3), vec![one_stage_job(0, 12, 1.0, 0.0)], cfg).run(TestSched)
    };
    let off = mk(DynamicsSpec::off());
    let default = mk(DynamicsSpec::default());
    assert_eq!(off.avg_jct(), default.avg_jct());
    assert_eq!(off.num_events, default.num_events);
    assert_eq!(off.dynamics, crate::dynamics::DynamicsCounters::default());
}

#[test]
fn stragglers_inflate_sampled_tasks() {
    // Probability 1 ⇒ every task straggles: 2 tasks of 1 s on one
    // executor at factor 2 take exactly 4 s.
    let cfg = SimConfig {
        dynamics: DynamicsSpec {
            straggler_prob: 1.0,
            straggler_factor: 2.0,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let r = Simulator::new(cluster(1), vec![one_stage_job(0, 2, 1.0, 0.0)], cfg).run(TestSched);
    assert_eq!(r.avg_jct(), Some(4.0));
    assert_eq!(r.dynamics.straggled, 2);
}

#[test]
fn retry_budget_exhaustion_fails_the_job() {
    // Every task completion fails; a budget of 3 retries means the
    // 4th failure kills the job.
    let cfg = SimConfig {
        dynamics: DynamicsSpec {
            fail_prob: 1.0,
            max_retries: 3,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let r = Simulator::new(cluster(2), vec![one_stage_job(0, 5, 1.0, 0.0)], cfg).run(TestSched);
    assert_eq!(r.completed(), 0);
    assert_eq!(r.failed(), 1);
    assert!(r.jobs[0].failed && r.jobs[0].completion.is_none());
    assert_eq!(r.dynamics.failed_jobs, 1);
    assert_eq!(r.dynamics.retries, 4, "budget + 1 failures were charged");
    assert_eq!(r.task_failures, 4);
}

#[test]
fn failures_within_budget_retry_to_completion() {
    let cfg = SimConfig {
        seed: 9,
        dynamics: DynamicsSpec {
            fail_prob: 0.3,
            max_retries: 1000,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let r = Simulator::new(cluster(2), vec![one_stage_job(0, 8, 1.0, 0.0)], cfg).run(TestSched);
    assert_eq!(r.completed(), 1, "generous budget ⇒ the job completes");
    assert!(r.dynamics.retries > 0, "some tasks must have failed");
    assert_eq!(r.dynamics.failed_jobs, 0);
}

#[test]
fn churn_takes_executors_down_and_episode_still_completes() {
    // Aggressive churn on a long single-stage job: outages must be
    // observed, capacity lost, and the work still finishes (at least
    // one executor is always kept online).
    let cfg = SimConfig {
        seed: 13,
        dynamics: DynamicsSpec {
            churn_iat: 3.0,
            outage_mean: 4.0,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let sim = Simulator::new(cluster(3), vec![one_stage_job(0, 40, 1.0, 0.0)], cfg);
    let r = run_checked(sim, TestSched);
    assert_eq!(r.completed(), 1);
    assert!(r.dynamics.churn_events > 0, "no churn observed");
    assert!(r.dynamics.lost_exec_seconds > 0.0);
    // Interrupted tasks re-ran, so the ideal 40/3 waves stretched.
    assert!(r.avg_jct().unwrap() > 40.0 / 3.0);
}

#[test]
fn full_dynamics_is_deterministic_at_fixed_seed() {
    let mk = || {
        let cfg = SimConfig {
            noise: 0.1,
            seed: 21,
            dynamics: DynamicsSpec::high(),
            ..SimConfig::default()
        };
        Simulator::new(
            cluster(4),
            vec![one_stage_job(0, 30, 1.0, 0.0), chain_job(1, 2.0)],
            cfg,
        )
        .run(TestSched)
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.avg_jct(), b.avg_jct());
    assert_eq!(a.num_events, b.num_events);
    assert_eq!(a.dynamics, b.dynamics);
    assert_eq!(a.total_penalty(), b.total_penalty());
}

/// The dynamics RNG is decorrelated from the engine RNG: enabling
/// stragglers must not change *which* noise values the base stream
/// draws (the noisy durations stay in lockstep, only multiplied).
#[test]
fn dynamics_does_not_disturb_the_engine_rng_stream() {
    let base = |dynamics: DynamicsSpec| {
        let cfg = SimConfig {
            noise: 0.3,
            seed: 2,
            dynamics,
            ..bare_cfg()
        };
        Simulator::new(cluster(1), vec![one_stage_job(0, 6, 1.0, 0.0)], cfg).run(TestSched)
    };
    let off = base(DynamicsSpec::off());
    // Stragglers at factor 1.0 change durations by nothing, and the
    // engine's noise draws must land identically.
    let on = base(DynamicsSpec {
        straggler_prob: 1.0,
        straggler_factor: 1.0,
        ..DynamicsSpec::off()
    });
    assert_eq!(off.avg_jct(), on.avg_jct());
    assert_eq!(off.total_penalty(), on.total_penalty());
}

// ---- streaming job lifecycle (lazy materialization + retirement) ----

/// Scripted scheduler keyed on decision count, for timelines that
/// need specific dispatch decisions at specific scheduling passes.
struct Script(u32);
impl Scheduler for Script {
    fn decide(&mut self, _: &Observation) -> Option<Action> {
        self.0 += 1;
        match self.0 {
            1 => Some(Action::new(JobId(0), StageId(0), 1)),
            3 => Some(Action::new(JobId(0), StageId(0), 2)),
            4 => Some(Action::new(JobId(1), StageId(0), 1)),
            5 => Some(Action::new(JobId(2), StageId(0), 1)),
            _ => None,
        }
    }
}

/// A valid-epoch `ExecReady` can land after its target job finished
/// (finishing does not interrupt in-flight moves) — and by then the
/// job's arena slot may already host a *different* job. The phase
/// table must recognize the retired target, free the executor, and
/// leave the slot's new occupant untouched.
///
/// Timeline (move delay 3): exec0 moves to job0 at t=0 and runs its
/// two 0.5s tasks (t=3..4); exec1 is sent after job0 at t=2 (job1's
/// arrival pass) and is still in transit when job0 finishes at t=4.
/// Job2 arrives at t=4.5 and reuses job0's slot. The stale-target
/// ExecReady pops at t=5, frees exec1, and the pass then serves
/// job2 on it.
#[test]
fn exec_ready_after_finish_with_recycled_slot() {
    let cl = ClusterSpec::homogeneous(2).with_move_delay(3.0);
    let jobs = vec![
        one_stage_job(0, 2, 0.5, 0.0),
        one_stage_job(1, 1, 0.5, 2.0),
        one_stage_job(2, 1, 1.0, 4.5),
    ];
    let r = run_checked(Simulator::new(cl, jobs, bare_cfg()), Script(0));
    assert_eq!(r.completed(), 3);
    assert_eq!(r.jobs[0].jct(), Some(4.0));
    assert_eq!(
        r.jobs[1].jct(),
        Some(5.5),
        "t=4 dispatch + 3s move + 0.5s task"
    );
    assert_eq!(
        r.jobs[2].jct(),
        Some(4.5),
        "t=5 dispatch on the freed executor + 3s move + 1s task"
    );
    // Job2 reused job0's slot: the arena never grew past the
    // two-job live peak even though three jobs were served.
    assert_eq!(r.mem.live_jobs_peak, 2);
    assert_eq!(
        r.mem.slots_hwm, 2,
        "slot arena tracks live peak, not total jobs"
    );
    assert_eq!(r.mem.retired_jobs, 3);
    assert_eq!(r.mem.node_pool_hwm, 2);
}

/// Same episode with retirement disabled: bit-identical results,
/// but the arena keeps every job resident.
#[test]
fn retain_all_is_bit_identical_but_keeps_every_slot() {
    let mk = |keep: bool| {
        let cl = ClusterSpec::homogeneous(2).with_move_delay(3.0);
        let jobs = vec![
            one_stage_job(0, 2, 0.5, 0.0),
            one_stage_job(1, 1, 0.5, 2.0),
            one_stage_job(2, 1, 1.0, 4.5),
        ];
        run_checked(
            Simulator::new(cl, jobs, bare_cfg()).retain_all(keep),
            Script(0),
        )
    };
    let retire = mk(false);
    let keep = mk(true);
    retire
        .same_run(&keep)
        .expect("retirement must not change observable results");
    assert_eq!(keep.mem.slots_hwm, 3, "keep-everything holds all jobs");
    assert_eq!(keep.mem.node_pool_hwm, 0, "nothing is ever recycled");
    assert_eq!(retire.mem.slots_hwm, 2);
}

/// An admission into a recycled slot lends the new job its last
/// occupant's `nodes`, `class_busy` and `open` buffers, cleared: the new
/// state is, field for field, the one a fresh slot gets, so nothing of
/// the old job reaches the new one's observation.
#[test]
fn a_recycled_slot_lends_its_buffers_cleared() {
    let admitted = |recycle: bool| {
        let mut arena = JobArena::with_capacity(2, 2);
        arena.push_pending(chain_job(0, 0.0));
        arena.push_pending(one_stage_job(1, 3, 1.0, 0.0));
        if recycle {
            arena.admit(JobId(0));
            let rt = arena.job_mut(JobId(0));
            rt.nodes[0].waiting = 0;
            rt.class_busy[1] = 4.0;
            rt.open.push((StageId(1), 0.5));
            arena.retire(JobId(0), Some(SimTime::from_secs(1.0)), false);
        }
        arena.admit(JobId(1));
        format!("{:?}", arena.job(JobId(1)))
    };
    assert_eq!(admitted(true), admitted(false));
}

/// A retry-budget kill cancels the victim's other running tasks by
/// bumping their executors' epochs: the already-queued `TaskDone`
/// must be dropped as stale, and the killed job's recycled slot
/// must be safe for the next arrival.
#[test]
fn task_done_after_kill_with_recycled_slot() {
    let cfg = SimConfig {
        dynamics: DynamicsSpec {
            fail_prob: 1.0,
            max_retries: 0,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let jobs = vec![one_stage_job(0, 4, 1.0, 0.0), one_stage_job(1, 1, 1.0, 2.0)];
    let r = Simulator::new(cluster(2), jobs, cfg).run(TestSched);
    // exec0's first failure kills job0 (budget 0) and cancels
    // exec1's running task; exec1's TaskDone at the same instant is
    // stale and must not be charged. Job1 then reuses job0's slot
    // and dies the same way.
    assert_eq!(r.completed(), 0);
    assert_eq!(r.failed(), 2);
    assert_eq!(
        r.task_failures, 2,
        "the cancelled task's TaskDone was dropped"
    );
    assert_eq!(r.dynamics.retries, 2);
    assert_eq!(r.dynamics.failed_jobs, 2);
    assert_eq!(r.mem.live_jobs_peak, 1);
    assert_eq!(r.mem.slots_hwm, 1, "job1 reused job0's slot");
    assert_eq!(r.mem.retired_jobs, 2);
}

/// Full-fidelity differential check: churn, failures, stragglers,
/// noise, move delays — retirement on vs off must agree on every
/// observable field (and the incremental observation path is
/// validated against the rebuilt oracle at every decision).
#[test]
fn retirement_matches_keep_everything_under_full_dynamics() {
    let mk = |keep: bool| {
        let cfg = SimConfig {
            noise: 0.2,
            seed: 3,
            dynamics: DynamicsSpec::high(),
            ..SimConfig::default()
        };
        let jobs = vec![
            one_stage_job(0, 6, 1.0, 0.0),
            chain_job(1, 0.5),
            one_stage_job(2, 3, 2.0, 4.0),
        ];
        let cl = ClusterSpec::homogeneous(3).with_move_delay(1.0);
        run_checked(Simulator::new(cl, jobs, cfg).retain_all(keep), TestSched)
    };
    let retire = mk(false);
    let keep = mk(true);
    retire
        .same_run(&keep)
        .expect("retirement must not change observable results");
    assert_eq!(
        retire.mem.slots_hwm, retire.mem.live_jobs_peak,
        "the arena grows exactly to the live-job peak"
    );
    assert_eq!(retire.mem.retired_jobs, 3);
}

/// The four ways an episode's end builds a job's outcome, pinned field
/// by field on one horizon-cut episode: job 0 completes (after one
/// retried task), job 1 is killed by its retry budget, job 2 is still
/// live when the horizon cuts the episode at t=6, and job 3 arrives
/// after it, so it never does. The arena's telemetry is pinned too.
#[test]
fn a_horizon_cut_episode_keeps_every_outcome_field() {
    let cfg = SimConfig {
        seed: 31,
        time_limit: Some(6.0),
        dynamics: DynamicsSpec {
            fail_prob: 0.3,
            max_retries: 1,
            ..DynamicsSpec::off()
        },
        ..bare_cfg()
    };
    let jobs = vec![
        one_stage_job(0, 2, 1.0, 0.0),
        one_stage_job(1, 8, 0.5, 0.0),
        one_stage_job(2, 6, 2.0, 1.5),
        one_stage_job(3, 1, 1.0, 50.0),
    ];
    let r = run_checked(Simulator::new(cluster(3), jobs, cfg), TestSched);
    assert_eq!(r.outcome, EpisodeOutcome::Horizon);
    assert_eq!(r.end_time, SimTime::from_secs(6.0));
    let outcome =
        |id: u32, arrival: f64, completion: Option<f64>, work: [f64; 2], peak, failed| JobOutcome {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival),
            completion: completion.map(SimTime::from_secs),
            total_work: work[0],
            executed_work: work[1],
            peak_alloc: peak,
            class_busy: vec![work[1]],
            failed,
        };
    assert_eq!(
        r.jobs,
        [
            outcome(0, 0.0, Some(2.0), [2.0, 3.0], 2, false),
            outcome(1, 0.0, None, [4.0, 4.0], 3, true),
            outcome(2, 1.5, None, [12.0, 6.0], 3, false),
            outcome(3, 50.0, None, [1.0, 0.0], 0, false),
        ]
    );
    assert_eq!(
        r.mem,
        MemCounters {
            live_jobs_peak: 3,
            retired_jobs: 2,
            slots_hwm: 3,
            event_queue_hwm: 5,
            node_pool_hwm: 2,
        }
    );
}

// ---- event order ----

/// One episode's order-sensitive results: decisions, events, the end
/// time's bits, each job's JCT bits and the event-queue high-water mark.
type OrderPin = (usize, u64, u64, Vec<Option<u64>>, u64);

fn order_pin(r: &EpisodeResult) -> OrderPin {
    (
        r.actions.len(),
        r.num_events,
        r.end_time.as_secs().to_bits(),
        r.jobs.iter().map(|j| j.jct().map(f64::to_bits)).collect(),
        r.mem.event_queue_hwm,
    )
}

fn pin(decisions: usize, events: u64, end: f64, jcts: &[Option<f64>], hwm: u64) -> OrderPin {
    let jcts = jcts.iter().map(|j| j.map(f64::to_bits)).collect();
    (decisions, events, end.to_bits(), jcts, hwm)
}

/// Eight jobs whose arrivals are out of id order, three of them tied at
/// t = 2. With integer task durations and a 1 s move delay, arrivals land
/// on the instants executors become ready (t = 1) and tasks finish
/// (t = 2, 3). `last` is job 7's arrival.
fn order_jobs(last: f64) -> Vec<JobSpec> {
    vec![
        one_stage_job(0, 2, 1.0, 3.0),
        chain_job(1, 0.0),
        one_stage_job(2, 3, 2.0, 2.0),
        one_stage_job(3, 1, 1.0, 2.0),
        chain_job(4, 2.0),
        one_stage_job(5, 2, 1.0, 1.0),
        one_stage_job(6, 1, 3.0, 6.0),
        one_stage_job(7, 2, 1.0, last),
    ]
}

fn order_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(3).with_move_delay(1.0)
}

/// Pins the order in which the event queue hands out same-instant
/// events — arrivals first, and among themselves by id — with every
/// order-sensitive result frozen to the bit. Also under a phase boundary
/// and a churn tick on arrival instants, a horizon between two arrivals,
/// and an episode stepped with one decision dropped unanswered.
#[test]
fn same_instant_events_keep_their_order() {
    let plain = || Simulator::new(order_cluster(), order_jobs(9.0), bare_cfg());
    let s = Some;
    let jcts = [
        s(2.0),
        s(3.0),
        s(6.0),
        s(7.0),
        s(9.0),
        s(3.0),
        s(7.0),
        s(4.0),
    ];
    let want = pin(11, 41, 13.0, &jcts, 9);
    assert_eq!(order_pin(&plain().run(TestSched)), want, "plain");

    // Stepped, with the third decision (at t = 2) dropped unanswered and
    // so offered again: the same episode.
    let mut sim = plain();
    assert!(answer(&mut sim, &mut TestSched) && answer(&mut sim, &mut TestSched));
    let third = sim.step().map(|p| p.observation().time);
    assert_eq!(third, Some(SimTime::from_secs(2.0)));
    assert_eq!(order_pin(&run_checked(sim, TestSched)), want, "stepped");

    // A horizon between the arrivals at t = 6 and t = 9.
    let cfg = bare_cfg().with_time_limit(7.5);
    let r = Simulator::new(order_cluster(), order_jobs(9.0), cfg).run(TestSched);
    assert_eq!(r.outcome, EpisodeOutcome::Horizon);
    let jcts = [s(2.0), s(3.0), None, None, None, s(3.0), None, None];
    assert_eq!(order_pin(&r), pin(7, 24, 7.5, &jcts, 9), "horizon");

    // Phase boundaries on the arrivals at t = 2 and t = 6, and job 7
    // arriving exactly when the first churn tick fires.
    let dynamics = DynamicsSpec {
        churn_iat: 4.0,
        outage_mean: 3.0,
        ..DynamicsSpec::off()
    };
    let cfg = SimConfig {
        seed: 5,
        phase_boundaries: vec![2.0, 6.0],
        ..bare_cfg().with_dynamics(dynamics)
    };
    let first_tick = Perturbations::new(dynamics, cfg.seed, 3).next_churn_interval();
    assert_eq!(first_tick, 4.035755121319159);
    let r = Simulator::new(order_cluster(), order_jobs(first_tick), cfg).run(TestSched);
    assert_eq!(r.dynamics.churn_events, 2);
    assert_eq!(r.drift.arrivals_by_phase, [5, 3, 0], "arrivals first");
    assert_eq!(r.drift.completions_by_phase, [0, 3, 5]);
    let jcts = [
        s(2.0),
        s(3.0),
        s(10.0),
        s(10.043059568451596),
        s(13.371713586390458),
        s(3.0),
        s(10.043059568451596),
        s(11.96424487868084),
    ];
    let want = pin(12, 49, 17.19602384606274, &jcts, 12);
    assert_eq!(order_pin(&r), want, "phases and churn");
}

/// The four ways an episode stops, in the order `stopping_episode`
/// builds them.
const STOPS: [EpisodeOutcome; 4] = [
    EpisodeOutcome::Drained,
    EpisodeOutcome::Horizon,
    EpisodeOutcome::EventBudget,
    EpisodeOutcome::Livelock,
];

/// `order_jobs` run to the stop named: drained, a horizon between the
/// arrivals at t = 6 and t = 9, twenty events, or a deny-all scheduler
/// under churn.
fn stopping_episode(stop: EpisodeOutcome) -> (Simulator, Box<dyn Scheduler>) {
    let (cfg, sched): (_, Box<dyn Scheduler>) = match stop {
        EpisodeOutcome::Drained => (bare_cfg(), Box::new(TestSched)),
        EpisodeOutcome::Horizon => (bare_cfg().with_time_limit(7.5), Box::new(TestSched)),
        EpisodeOutcome::EventBudget => (
            SimConfig {
                max_events: 20,
                ..bare_cfg()
            },
            Box::new(TestSched),
        ),
        EpisodeOutcome::Livelock => {
            let churn = DynamicsSpec {
                churn_iat: 40.0,
                ..DynamicsSpec::off()
            };
            (bare_cfg().with_dynamics(churn), Box::new(DenyAll))
        }
    };
    (Simulator::new(order_cluster(), order_jobs(9.0), cfg), sched)
}

/// Each stop ends its episode at the same event with the same results:
/// the outcome and every order-sensitive value, event counts included.
#[test]
fn each_stop_keeps_its_event_count() {
    let s = Some;
    let done = [
        s(2.0),
        s(3.0),
        s(6.0),
        s(7.0),
        s(9.0),
        s(3.0),
        s(7.0),
        s(4.0),
    ];
    let horizon = [s(2.0), s(3.0), None, None, None, s(3.0), None, None];
    let want = [
        pin(11, 41, 13.0, &done, 9),
        pin(7, 24, 7.5, &horizon, 9),
        // The 21st event is counted, not handled: the clock stays at 5.
        pin(6, 21, 5.0, &horizon, 9),
        // Deny-all answers record no decision; churn alone runs the clock.
        pin(0, 11, 182.4715111260296, &[None; 8], 9),
    ];
    for (stop, want) in STOPS.into_iter().zip(want) {
        let (sim, sched) = stopping_episode(stop);
        let r = sim.run(sched);
        assert_eq!((r.outcome, order_pin(&r)), (stop, want), "{stop:?}");
    }
}

/// Each stop ends its episode with the same objective integral: the
/// bits of `total_penalty`, the decisions' penalties summed in decision
/// order plus the tail after the last one.
#[test]
fn each_stop_keeps_its_penalty() {
    // Deny-all records no decision: the livelock's is all tail.
    let want = [41.0, 26.0, 17.0, 1434.772089008237].map(f64::to_bits);
    for (stop, want) in STOPS.into_iter().zip(want) {
        let (sim, sched) = stopping_episode(stop);
        let r = sim.run(sched);
        assert_eq!(
            (r.outcome, r.total_penalty().to_bits()),
            (stop, want),
            "{stop:?}: total penalty {}",
            r.total_penalty()
        );
    }
}

/// `order_jobs` under churn, task failures and stragglers, with phase
/// boundaries on the arrivals at t = 2 and t = 6.
fn dynamic_episode() -> Simulator {
    let dynamics = DynamicsSpec {
        churn_iat: 4.0,
        outage_mean: 3.0,
        fail_prob: 0.1,
        max_retries: 4,
        straggler_prob: 0.1,
        straggler_factor: 2.0,
    };
    let cfg = SimConfig {
        seed: 5,
        phase_boundaries: vec![2.0, 6.0],
        ..bare_cfg().with_dynamics(dynamics)
    };
    Simulator::new(order_cluster(), order_jobs(9.0), cfg)
}

/// Stepping an episode with the scheduler's own answers is `run` to the
/// bit, at each of the four stops and under dynamics and phase
/// boundaries; stepping on after the end changes nothing, the event
/// count included (`run_checked` steps twice more before finishing).
#[test]
fn stepping_is_run() {
    let same = |ran: &EpisodeResult, stepped: &EpisodeResult| {
        ran.same_run(stepped).expect("the episode `run` gives");
        assert_eq!(order_pin(ran), order_pin(stepped));
    };
    for stop in STOPS {
        let (sim, sched) = stopping_episode(stop);
        let ran = sim.run(sched);
        let (sim, sched) = stopping_episode(stop);
        let stepped = run_checked(sim, sched);
        assert_eq!(stepped.outcome, stop);
        same(&ran, &stepped);
    }
    let ran = dynamic_episode().run(TestSched);
    let d = ran.dynamics;
    assert!(d.churn_events > 0 && d.retries > 0 && d.straggled > 0 && ran.drift.enabled());
    same(&ran, &run_checked(dynamic_episode(), TestSched));
}

/// A decision dropped unanswered is offered again, with an observation
/// `obs_equal` accepts against the first; answering the second offers
/// gives the episode `run` does.
#[test]
fn a_dropped_decision_is_offered_again() {
    let mut sim = dynamic_episode();
    let mut offers = 0;
    while let Some(first) = sim.step().map(|p| p.observation().clone()) {
        let p = sim.step().expect("the dropped decision is still owed");
        obs_equal(&first, p.observation()).expect("offered again unchanged");
        let action = TestSched.decide(p.observation());
        p.resume(action);
        offers += 1;
    }
    let r = sim.finish();
    assert_eq!(offers, r.actions.len());
    r.same_run(&dynamic_episode().run(TestSched))
        .expect("the episode `run` gives");
}

/// A time compared by `Ord` (`total_cmp`) everywhere: `BinaryHeap`
/// sifts with `<=`, which on a bare `SimTime` is the `f64` one, where
/// `-0.0` and `0.0` are equal.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TotalTime(SimTime);

impl Ord for TotalTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for TotalTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The queue as it was before arrivals got their own cursor: every
/// event, arrivals included, in one heap ordered by `(time, seq)`, with
/// the events themselves kept beside it by `seq`.
#[derive(Default)]
struct OneHeapQueue {
    heap: BinaryHeap<Reverse<(TotalTime, u64)>>,
    evs: Vec<Ev>,
    hwm: u64,
}

impl OneHeapQueue {
    fn push(&mut self, time: SimTime, ev: Ev) {
        let seq = self.evs.len() as u64;
        self.heap.push(Reverse((TotalTime(time), seq)));
        self.evs.push(ev);
        self.hwm = self.hwm.max(self.heap.len() as u64);
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let Reverse((TotalTime(t), seq)) = self.heap.pop()?;
        Some((t, self.evs[seq as usize]))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((TotalTime(t), _))| *t)
    }
}

/// A time drawn for the queue scripts: whole seconds 0–4, so ties are
/// common, and `-0.0`, which sorts before `0.0`.
fn script_time(code: u8) -> SimTime {
    SimTime::from_secs(if code == 0 { -0.0 } else { f64::from(code - 1) })
}

/// `(time, event)` with the bits of the time, which `==` does not see.
fn bits(e: Option<(SimTime, Ev)>) -> Option<(u64, Ev)> {
    e.map(|(t, ev)| (t.as_secs().to_bits(), ev))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The arrival cursor merged with the heap hands out exactly what
    /// one heap holding every event does, ties and `-0.0` included: the
    /// same events at the same time bits, the same `next_time` before
    /// every step and the same high-water mark.
    #[test]
    fn event_queue_matches_one_heap(
        arrivals in proptest::collection::vec(0u8..6, 0..12),
        script in proptest::collection::vec((0u8..2, 0u8..6), 0..48),
    ) {
        let mut reference = OneHeapQueue::default();
        for (id, &code) in arrivals.iter().enumerate() {
            reference.push(script_time(code), Ev::Arrival(JobId(id as u32)));
        }
        let mut queue = EventQueue::with_arrivals(
            arrivals
                .iter()
                .enumerate()
                .map(|(id, &code)| (script_time(code), JobId(id as u32)))
                .collect(),
        );
        // Every push carries a distinct event, so push order is visible.
        let mut pushed = 0u32;
        for &(op, code) in &script {
            let (t, r) = (queue.next_time(), reference.next_time());
            prop_assert_eq!(t.map(|t| t.as_secs().to_bits()), r.map(|t| t.as_secs().to_bits()));
            if op == 0 {
                prop_assert_eq!(bits(queue.pop()), bits(reference.pop()));
            } else {
                let ev = Ev::ExecOnline(ExecutorId(pushed));
                pushed += 1;
                queue.push(script_time(code), ev);
                reference.push(script_time(code), ev);
            }
        }
        loop {
            let (q, r) = (queue.pop(), reference.pop());
            prop_assert_eq!(bits(q), bits(r));
            if r.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue.hwm(), reference.hwm);
    }

    /// The executor bitset behaves as a `BTreeSet<u32>` under random
    /// insert / remove scripts (repeats included) at word-boundary
    /// sizes: the same `len` and the same ascending members after every
    /// step.
    #[test]
    fn exec_set_matches_btree_set(
        size in 0usize..5,
        script in proptest::collection::vec((0u8..2, 0u8..3, 0u32..10_000), 0..160),
    ) {
        let bound = [1u32, 63, 64, 65, 10_000][size];
        // Two indices in three come from the word edges, where a shift
        // or a word index is most easily off by one.
        let edges: Vec<u32> = [0, 62, 63, 64, 65, bound - 1]
            .into_iter()
            .filter(|&i| i < bound)
            .collect();
        let mut set = ExecSet::new(bound as usize);
        let mut reference = BTreeSet::new();
        for &(op, from, raw) in &script {
            let i = if from == 0 { raw % bound } else { edges[raw as usize % edges.len()] };
            if op == 0 {
                set.insert(i);
                reference.insert(i);
            } else {
                set.remove(i);
                reference.remove(&i);
            }
            prop_assert_eq!(set.len(), reference.len());
            prop_assert!(set.iter().eq(reference.iter().copied()));
        }
    }
}

/// The rewards a trainer derives from the observations' `cost` — each
/// decision's negated increase to the next, the tail after the last —
/// are one per decision and sum to the negated total penalty.
#[test]
fn rewards_align_with_actions() {
    let mut sim = Simulator::new(
        cluster(2),
        vec![one_stage_job(0, 2, 1.0, 0.0), one_stage_job(1, 2, 1.0, 1.0)],
        bare_cfg(),
    );
    let mut costs = Vec::new();
    while let Some(p) = sim.step() {
        costs.push(p.observation().cost);
        let action = TestSched.decide(p.observation());
        assert!(action.is_some());
        p.resume(action);
    }
    let r = sim.finish();
    assert!(!r.actions.is_empty());
    assert_eq!(costs.len(), r.actions.len());
    assert_eq!(costs[0], 0.0, "the first decision is at the episode start");
    let rewards: Vec<f64> = costs
        .windows(2)
        .map(|w| -(w[1] - w[0]))
        .chain([-r.tail_penalty])
        .collect();
    assert!(rewards.iter().all(|&x| x <= 0.0));
    let sum: f64 = rewards.iter().sum();
    assert!((sum + r.total_penalty()).abs() < 1e-9);
}
