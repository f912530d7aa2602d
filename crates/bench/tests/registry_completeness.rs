//! Guards the contract between the registry and its documentation —
//! the "Experiment index" table of `docs/ARCHITECTURE.md` lists exactly
//! the registered scenarios, its "Settable keys" table and
//! `docs/ROBUSTNESS.md`'s knob table are the rows the code generates,
//! every `--set` key the docs, the CI and `benchmark/` use is accepted —
//! and every registered scenario's runner prerequisites.

use decima_bench::registry::ScenarioRegistry;
use decima_bench::scenario::{settable_keys, SchedulerSpec, KEYS};
use decima_sim::DynamicsSpec;
use std::collections::BTreeSet;
use std::path::Path;

fn repo_file(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The table rows (lines starting `| \``) of the section whose heading
/// starts with `heading`.
fn table_rows(text: &str, heading: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with("| `"))
        .map(str::to_string)
        .collect()
}

/// The first cell of every data row of the "Experiment index" table.
fn documented_scenarios() -> BTreeSet<String> {
    table_rows(&repo_file("docs/ARCHITECTURE.md"), "## Experiment index")
        .iter()
        .filter_map(|l| l.strip_prefix("| `")?.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Docs ↔ code, both directions, as whole rows: a key, scope, range or
/// meaning edited on one side only fails here, and the message is the
/// table to paste.
#[test]
fn settable_keys_table_is_the_one_the_code_generates() {
    let generated: Vec<String> = settable_keys()
        .iter()
        .map(|[key, on, accepts, doc]| {
            let keys: Vec<String> = key.split(", ").map(|k| format!("`{k}`")).collect();
            format!("| {} | {on} | {accepts} | {doc} |", keys.join(", "))
        })
        .collect();
    let documented = table_rows(&repo_file("docs/ARCHITECTURE.md"), "### Settable keys");
    assert_eq!(
        documented,
        generated,
        "docs/ARCHITECTURE.md \"Settable keys\" should read:\n{}\n",
        generated.join("\n")
    );
}

#[test]
fn robustness_knob_table_is_the_one_the_code_generates() {
    let generated: Vec<String> = DynamicsSpec::KNOBS
        .iter()
        .map(|k| format!("| `{}` | `{}` | {} | {} |", k.field, k.key, k.range, k.doc))
        .collect();
    let documented = table_rows(&repo_file("docs/ROBUSTNESS.md"), "## Model semantics");
    assert_eq!(
        documented,
        generated,
        "docs/ROBUSTNESS.md's knob table should read:\n{}\n",
        generated.join("\n")
    );
}

/// docs/TRAINING.md's key table ↔ the `train` scenario, both ways: a
/// row names only keys `train` takes, and every parameter `train`
/// declares, every dynamics knob and the five shared keys the old
/// `--train` flags mapped to has a row — with the declared default.
#[test]
fn training_doc_lists_the_keys_train_takes() {
    let reg = ScenarioRegistry::standard();
    let train = &reg.get("train").unwrap().spec;
    let rows = table_rows(&repo_file("docs/TRAINING.md"), "### Keys of `train`");
    let mut documented = BTreeSet::new();
    for row in &rows {
        let cells: Vec<&str> = row.split(" | ").collect();
        for key in cells[0].split('`').skip(1).step_by(2) {
            documented.insert(key.to_string());
            let refusal = train.clone().set(key, "1").err().unwrap_or_default();
            assert!(
                !refusal.contains("key"),
                "`{key}` in TRAINING.md: {refusal}"
            );
            let declared = train.params.iter().find(|(k, _)| k == key);
            if let Some((_, default)) = declared {
                use decima_bench::scenario::ParamValue::{Count, Flag, Num, Text};
                let default = match default {
                    Num(n) => n.to_string(),
                    Count(n) => n.to_string(),
                    Flag(b) => b.to_string(),
                    Text(t) => t.clone(),
                };
                let shown = cells[1].trim_matches('`');
                assert!(
                    shown == default || (default.is_empty() && shown.starts_with("out/")),
                    "TRAINING.md gives `{key}` the default {shown}, the registry {default}"
                );
            }
        }
    }
    let mut taken: BTreeSet<String> = ["iters", "jobs", "execs", "iat", "checkpoint"]
        .map(String::from)
        .into();
    taken.extend(train.params.iter().map(|(k, _)| k.clone()));
    taken.extend(DynamicsSpec::KNOBS.iter().map(|k| k.key.to_string()));
    assert_eq!(documented, taken, "docs/TRAINING.md \"Keys of `train`\"");
}

/// Every `--set key=` the README, the docs and the CI workflow show
/// names a table row, a dynamics knob or a parameter some scenario
/// declares (`exces` is the docs' deliberate typo; `key`, `k` are
/// placeholders).
#[test]
fn every_documented_set_key_is_known() {
    let reg = ScenarioRegistry::standard();
    let mut known: BTreeSet<&str> = KEYS.iter().flat_map(|r| r.names).copied().collect();
    known.extend(DynamicsSpec::KNOBS.iter().map(|k| k.key));
    for sc in reg.iter() {
        known.extend(sc.spec.params.iter().map(|(k, _)| k.as_str()));
    }
    known.extend(["exces", "key", "k"]);
    let mut files = vec!["README.md".to_string(), ".github/workflows/ci.yml".into()];
    for doc in [
        "ARCHITECTURE",
        "DETERMINISM",
        "DRIFT",
        "FLEET",
        "PERF",
        "ROBUSTNESS",
        "TRAINING",
    ] {
        files.push(format!("docs/{doc}.md"));
    }
    let mut seen = 0;
    for file in files {
        let text = repo_file(&file);
        for (at, _) in text.match_indices("--set ") {
            let rest = &text[at + "--set ".len()..];
            let Some((key, _)) = rest.split_once('=') else {
                continue;
            };
            if key.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                assert!(known.contains(key), "{file}: `--set {key}=` is not a key");
                seen += 1;
            }
        }
    }
    assert!(seen > 50, "only {seen} `--set key=` occurrences found");
}

/// The overrides `benchmark/src/workloads/exp.rs` applies (that package
/// cannot be edited here, and panics on a refused pair).
#[test]
fn the_benchmark_overrides_are_accepted() {
    let reg = ScenarioRegistry::standard();
    let sets: [(&str, &[(&str, &str)]); 3] = [
        ("fig09a", &[("iters", "4"), ("jobs", "10"), ("runs", "8")]),
        (
            "fleet",
            &[
                ("jobs", "400"),
                ("shards", "1,2,4"),
                ("rates", "1,2"),
                ("router", "rr"),
            ],
        ),
        (
            "drift",
            &[
                ("iters", "1"),
                ("ft-iters", "2"),
                ("jobs", "5"),
                ("runs", "2"),
            ],
        ),
    ];
    for (name, pairs) in sets {
        let mut spec = reg.get(name).unwrap().spec.clone();
        for (k, v) in pairs {
            assert_eq!(spec.set(k, v), Ok(()), "{name}: {k}={v}");
        }
    }
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
    // The scenarios `run_comparison` runs need a lineup; what
    // `spec_env` and the seed-parallel evaluation need holds of every
    // scenario that has one.
    let generic = ["fig09a", "fig09b", "fig23", "table2", "table3"];
    for sc in ScenarioRegistry::standard().iter() {
        let generic = generic.contains(&sc.spec.name.as_str());
        assert!(
            !(generic && sc.spec.lineup.is_empty()),
            "comparison scenario '{}' needs a lineup",
            sc.spec.name
        );
        if !sc.spec.lineup.is_empty() {
            assert!(
                sc.spec.workload.is_some(),
                "comparison scenario '{}' needs a workload",
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
