//! The probes must not change what they measure: an episode run
//! through [`Timed`] or [`Segmented`] is the same run.

use decima_baselines::SjfCpScheduler;
use decima_bench::factory::untrained_agent;
use decima_bench::scenario::PolicySpec;
use decima_benchmark::timed::{Segmented, Timed};
use decima_policy::DecimaAgent;
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{Observation, Simulator};
use decima_workload::WorkloadSpec;

fn sim(env: &SpecEnv, seed: u64) -> Simulator {
    let (cluster, jobs, cfg) = env.build(seed);
    Simulator::new(cluster, jobs, cfg)
}

#[test]
fn heuristic_episode_is_the_same_run_with_and_without_the_stopwatch() {
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(6, 10));
    let plain = sim(&env, 3).run(SjfCpScheduler);
    let mut timed = Timed::sampling(SjfCpScheduler, 4, true);
    let watched = sim(&env, 3).run(&mut timed);
    plain
        .same_run(&watched)
        .expect("the stopwatch changed the run");

    let n = plain.actions.len() as u64;
    assert!(n > 0);
    assert_eq!(timed.hist.len(), n, "one timing per decision");
    assert_eq!(timed.sizes.samples, n.div_ceil(4), "every 4th observation");
    assert_eq!(timed.kept.len() as u64, timed.sizes.samples);
    assert!(
        timed.sizes.jobs >= timed.sizes.samples,
        "a decision has a job"
    );
    assert!(timed.sizes.nodes >= timed.sizes.jobs);
    assert!(timed.sizes.schedulable >= timed.sizes.samples);
}

#[test]
fn a_cut_episode_is_the_same_run_and_its_stretches_add_up() {
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(6, 10));
    let plain = sim(&env, 3).run(SjfCpScheduler);
    let n = plain.actions.len() as u64;
    assert!(n > 10);

    let t0 = std::time::Instant::now();
    let mut cut = Segmented::new(Timed::new(SjfCpScheduler), 4);
    let watched = sim(&env, 3).run(&mut cut);
    let (stretches, timed) = cut.finish_with_inner();
    let wall = t0.elapsed().as_secs_f64();
    plain
        .same_run(&watched)
        .expect("cutting the episode changed the run");
    assert_eq!(
        timed.hist.len(),
        n,
        "the stopwatch inside still sees every call"
    );

    // One stretch per four decisions begun, and the remainder after the
    // last mark; together they are the wall since the wrapper was built.
    assert_eq!(stretches.len() as u64, n / 4 + 1);
    assert!(stretches.iter().all(|s| *s >= 0.0));
    let sum: f64 = stretches.iter().sum();
    assert!(sum > 0.0 && sum <= wall, "{sum} of {wall}");

    // A replay is cut at the same decisions.
    let mut again = Segmented::new(SjfCpScheduler, 4);
    let _ = sim(&env, 3).run(&mut again);
    assert_eq!(again.finish().len(), stretches.len());
}

#[test]
fn policy_episode_is_the_same_run_and_kept_observations_replay() {
    let env = SpecEnv::new(WorkloadSpec::tpch_stream(8, 5, 20.0));
    let agent = || -> DecimaAgent {
        let a = untrained_agent(&PolicySpec::default(), 5, None);
        DecimaAgent::greedy_fast(a.policy, a.store)
    };
    let plain = sim(&env, 11).run(agent());
    let mut timed = Timed::sampling(agent(), 1, true);
    let watched = sim(&env, 11).run(&mut timed);
    plain
        .same_run(&watched)
        .expect("the stopwatch changed the run");

    // Stopwatch only: nothing sized, nothing kept.
    let mut bare = Timed::new(agent());
    let again = sim(&env, 11).run(&mut bare);
    plain
        .same_run(&again)
        .expect("the stopwatch changed the run");
    assert_eq!(bare.hist.len(), plain.actions.len() as u64);
    assert_eq!(bare.sizes.samples, 0);
    assert!(bare.kept.is_empty());

    // A kept observation writes back into something a policy can score.
    let mut obs = Observation::default();
    timed.kept[0].write_into(&mut obs);
    assert!(!obs.schedulable.is_empty());
    assert_eq!(obs.jobs.len() as u64, timed.kept[0].num_jobs() as u64);
    assert!(bare.into_inner().uses_fast_infer());
}
