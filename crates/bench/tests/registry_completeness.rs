//! Guards the contract between the registry and its documentation —
//! the "Experiment index" table of `docs/ARCHITECTURE.md` lists exactly
//! the registered scenarios — and every registered scenario's runner
//! prerequisites.

use decima_bench::registry::ScenarioRegistry;
use decima_bench::runner::RunKind;
use decima_bench::scenario::SchedulerSpec;
use std::collections::BTreeSet;
use std::path::Path;

/// The first cell of every data row of the "Experiment index" table.
fn documented_scenarios() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/ARCHITECTURE.md");
    let text = std::fs::read_to_string(&path).expect("docs/ARCHITECTURE.md is readable");
    text.lines()
        .skip_while(|l| !l.starts_with("## Experiment index"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `")?.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn experiment_index_lists_exactly_the_registered_scenarios() {
    let reg = ScenarioRegistry::standard();
    let registered: BTreeSet<String> = reg.names().iter().map(|n| n.to_string()).collect();
    let documented = documented_scenarios();
    assert!(!documented.is_empty(), "Experiment index table not found");
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered scenarios without an Experiment index row: {undocumented:?}"
    );
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "Experiment index rows naming no registered scenario: {unregistered:?}"
    );
}

#[test]
fn list_shows_at_least_nineteen_scenarios() {
    let reg = ScenarioRegistry::standard();
    assert!(
        reg.names().len() >= 19,
        "registry lists only {} scenarios",
        reg.names().len()
    );
}

#[test]
fn comparison_scenarios_have_workload_and_lineup() {
    for sc in ScenarioRegistry::standard().iter() {
        if matches!(sc.run, RunKind::Comparison) {
            assert!(
                sc.spec.workload.is_some(),
                "comparison scenario '{}' needs a workload",
                sc.spec.name
            );
            assert!(
                !sc.spec.lineup.is_empty(),
                "comparison scenario '{}' needs a lineup",
                sc.spec.name
            );
            assert!(
                sc.spec.seeds.count > 0,
                "comparison scenario '{}' needs seeds",
                sc.spec.name
            );
        }
    }
}

#[test]
fn lineup_schedulers_all_construct() {
    // Every scheduler referenced by any registered scenario must come
    // out of the factory (untrained stand-ins for Decima entries).
    for sc in ScenarioRegistry::standard().iter() {
        for entry in &sc.spec.lineup {
            // Training is expensive; swap Decima entries for their
            // untrained form, which exercises the same construction.
            let spec = match &entry.sched {
                SchedulerSpec::Decima { train } => SchedulerSpec::DecimaUntrained {
                    policy: train.policy.clone(),
                    sample_seed: None,
                },
                other => other.clone(),
            };
            let executors = sc.spec.executors().max(2);
            let _sched = decima_bench::make_scheduler(&spec, executors, None);
        }
    }
}
