//! Differential test of the incremental observation path.
//!
//! Every registered scenario's evaluation workload is run (scaled down)
//! at two seeds through `run_checked`: at **every** scheduling decision
//! `Pending::check` rebuilds the observation from scratch, and the run
//! panics on the first field that differs from the
//! incrementally-maintained one. Two scheduler families drive the
//! episodes so both the single-resource and the memory-fit/multi-class
//! decision shapes are exercised.

use decima_bench::runner::spec_env;
use decima_bench::scenario::SchedulerSpec;
use decima_bench::{make_scheduler, ScenarioRegistry};
use decima_rl::EnvFactory as _;
use decima_sim::Simulator;

#[path = "../../../tests/support/checked.rs"]
mod checked;
use checked::run_checked;

#[test]
fn every_scenario_validates_incremental_observations() {
    let reg = ScenarioRegistry::standard();
    let mut covered = 0usize;
    let mut decisions = 0usize;
    for sc in reg.iter() {
        let mut spec = sc.spec.clone();
        if spec.workload.is_none() {
            continue; // no jobs to schedule (e.g. the GNN comparison)
        }
        // Scale down for test speed; the per-decision comparison is
        // exhaustive regardless of workload size.
        spec.set("jobs", "4").unwrap();
        let env = spec_env(&spec);
        let executors = env.workload.executors;
        for seed in [11u64, 12] {
            for sched_spec in [SchedulerSpec::SjfCp, SchedulerSpec::Fair] {
                let (cluster, jobs, mut cfg) = env.build(seed);
                // Bound scenario-specific long horizons: the check costs
                // a full rebuild per decision.
                cfg.max_events = 200_000;
                let sched = make_scheduler(&sched_spec, executors, None);
                // Any divergence panics with the field that differed.
                let r = run_checked(Simulator::new(cluster, jobs, cfg), sched);
                decisions += r.actions.len();
            }
        }
        covered += 1;
    }
    assert!(
        covered >= 15,
        "registry coverage dropped: {covered} scenarios"
    );
    assert!(
        decisions > 2_000,
        "too few validated decisions ({decisions}): the scenarios did not exercise the engine"
    );
}
