//! `../BENCHMARK.json` and the program must agree, inside the contract's
//! limits: the same metrics, and no workload the program does not have.

use decima_bench::json::Json;
use decima_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without '{key}': {entry:?}"))
}

fn name_ok(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Asserts the contract's list `key` names exactly `defs`, unit by unit.
fn same_metrics(doc: &Json, key: &str, defs: &[MetricDef]) {
    let listed: Vec<(&str, &str)> = entries(doc, key)
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect();
    let emitted: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(listed, emitted, "'{key}' and the program disagree");
    for e in entries(doc, key) {
        assert!(name_ok(text(e, "name")), "{}", text(e, "name"));
        assert!(unit_ok(text(e, "unit")), "{}", text(e, "unit"));
        assert!(matches!(text(e, "better"), "lower" | "higher"));
    }
}

#[test]
fn contract_workloads_are_the_programs_and_stay_within_eight() {
    let doc = contract();
    let listed: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|e| text(e, "name"))
        .collect();
    // The contract gates on the workloads that can be timed to within
    // its bounds on a shared machine (README, "Deviations"); each is one
    // of the program's, in the program's order.
    let known: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| listed.contains(w))
        .collect();
    assert_eq!(listed, known, "a contract workload the program lacks");
    assert!((2..=8).contains(&listed.len()));
    for e in entries(&doc, "workloads") {
        assert!(name_ok(text(e, "name")));
        let why = text(e, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
}

#[test]
fn end_to_end_metrics_match_and_carry_bounds() {
    let doc = contract();
    same_metrics(&doc, "end_to_end", &END_TO_END);
    assert!((1..=16).contains(&END_TO_END.len()));
    for e in entries(&doc, "end_to_end") {
        let bound = e.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            text(e, "name")
        );
    }
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn per_layer_metrics_match_and_stay_within_128() {
    let doc = contract();
    same_metrics(&doc, "per_layer", &PER_LAYER);
    assert!((1..=128).contains(&PER_LAYER.len()));
    for e in entries(&doc, "per_layer") {
        assert!(e.get("bound").is_none(), "per-layer metrics have no bound");
    }
}

#[test]
fn every_name_is_used_once() {
    let all: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
        .collect();
    let unique: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    assert!(all.iter().all(|n| name_ok(n)));
}

#[test]
fn the_command_and_paths_stay_inside_the_benchmark() {
    let doc = contract();
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));
}
