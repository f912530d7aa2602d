//! Fixture-based self-tests for the rule engine, plus the guard that
//! pins the committed workspace baseline to a fresh scan.
//!
//! Layout under `tests/fixtures/`:
//!
//! * `bad_ws/` — a mini-workspace where every rule has a known-bad
//!   file; scanning it must produce a failing report for each rule.
//! * `clean_ws/` — the same patterns with reviewed inline annotations
//!   (plus one grandfathered W001 site pinned by the fixture's
//!   `LINT_BASELINE.json`); scanning it must come back clean.

use decima_lint::baseline::Baseline;
use decima_lint::rules::{Severity, RULES};
use decima_lint::scan::Report;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// bad_ws: every rule fires and fails the check
// ---------------------------------------------------------------------------

#[test]
fn every_deny_rule_fires_on_its_bad_fixture() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    for (rule, file) in [
        ("D001", "d001_bad.rs"),
        ("D002", "d002_bad.rs"),
        ("D004", "d004_bad.rs"),
    ] {
        assert!(
            report
                .deny_violations()
                .any(|f| f.rule_id == rule && f.path.ends_with(file)),
            "{rule} must fire in {file}"
        );
    }
}

#[test]
fn bad_ws_fails_the_check_with_every_rule() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    let errors = report.check(&Baseline::default());
    for rule in RULES {
        assert!(
            errors.iter().any(|e| e.contains(rule.id)),
            "check() must report {}: {errors:#?}",
            rule.id
        );
    }
}

#[test]
fn d002_bad_fixture_catches_all_three_entropy_sources() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    for what in ["thread_rng", "Instant::now", "SystemTime::now"] {
        assert!(
            report
                .deny_violations()
                .any(|f| f.rule_id == "D002" && f.what.contains(what)),
            "D002 must catch {what}"
        );
    }
}

#[test]
fn d004_fires_inside_test_modules_too() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    let count = report
        .deny_violations()
        .filter(|f| f.rule_id == "D004")
        .count();
    assert_eq!(count, 2, "one library + one cfg(test) unsafe block");
}

#[test]
fn w001_ratchets_against_a_zero_baseline() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    // Two library sites in w001_bad.rs; the test-module unwrap is free.
    assert_eq!(report.ratchet_counts("W001").get("decima-sim"), Some(&2));
    let errors = report.check(&Baseline::default());
    assert!(
        errors
            .iter()
            .any(|e| e.contains("W001") && e.contains("baseline pins 0")),
        "{errors:#?}"
    );
}

#[test]
fn malformed_annotations_are_hard_errors_and_do_not_suppress() {
    let report = decima_lint::scan(&fixture("bad_ws")).unwrap();
    assert_eq!(report.bad_annotations.len(), 2, "reasonless + unknown verb");
    // The reasonless annotation's D001 finding stays unsuppressed.
    assert!(report
        .deny_violations()
        .any(|f| f.rule_id == "D001" && f.path.ends_with("malformed_annotation.rs")));
    let errors = report.check(&Baseline::default());
    assert!(errors
        .iter()
        .any(|e| e.contains("bad decima-lint annotation")));
}

// ---------------------------------------------------------------------------
// clean_ws: annotations and scoping make the same patterns pass
// ---------------------------------------------------------------------------

fn clean_report() -> Report {
    decima_lint::scan(&fixture("clean_ws")).unwrap()
}

#[test]
fn annotated_fixtures_are_clean() {
    let report = clean_report();
    let deny: Vec<_> = report.deny_violations().collect();
    assert!(deny.is_empty(), "unexpected violations: {deny:#?}");
    assert!(report.bad_annotations.is_empty());
    assert!(
        report.unused_suppressions.is_empty(),
        "{:#?}",
        report.unused_suppressions
    );
}

#[test]
fn clean_ws_passes_against_its_pinned_baseline() {
    let report = clean_report();
    let baseline = decima_lint::load_baseline(&fixture("clean_ws")).unwrap();
    let errors = report.check(&baseline);
    assert!(errors.is_empty(), "{errors:#?}");
}

#[test]
fn suppressed_and_test_sites_do_not_count_toward_the_ratchet() {
    let report = clean_report();
    // w001_ok.rs has three unwraps: annotated (not counted), bare
    // library (counted), test-module (not counted).
    assert_eq!(report.ratchet_counts("W001").get("decima-sim"), Some(&1));
    assert_eq!(report.ratchet_counts("W001").get("decima-bench"), Some(&0));
}

#[test]
fn a_seeded_w001_violation_breaks_the_ratchet() {
    let mut report = clean_report();
    decima_lint::scan_source(
        "crates/sim/src/new_code.rs",
        "decima-sim",
        "pub fn rushed(o: Option<u32>) -> u32 { o.unwrap() }\n",
        &mut report,
    );
    let baseline = decima_lint::load_baseline(&fixture("clean_ws")).unwrap();
    let errors = report.check(&baseline);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("2 W001 site(s) but the baseline pins 1"));
    assert!(errors[0].contains("new_code.rs:1"), "{}", errors[0]);
}

#[test]
fn an_improvement_requires_ratcheting_the_baseline_down() {
    let report = clean_report();
    let mut stale = decima_lint::load_baseline(&fixture("clean_ws")).unwrap();
    stale
        .counts
        .get_mut("W001")
        .unwrap()
        .insert("decima-sim".to_string(), 5);
    let errors = report.check(&stale);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("ratchet down"), "{}", errors[0]);
}

/// A stale suppression (an annotation that no longer suppresses
/// anything) fails `check()` outright — dead exemptions used to be
/// warnings only and could accumulate unnoticed.
#[test]
fn a_stale_suppression_fails_the_check() {
    let mut report = clean_report();
    decima_lint::scan_source(
        "crates/sim/src/stale.rs",
        "decima-sim",
        "// decima-lint: allow(D002) — excuse with nothing left to excuse\nfn f() {}\n",
        &mut report,
    );
    let baseline = decima_lint::load_baseline(&fixture("clean_ws")).unwrap();
    let errors = report.check(&baseline);
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert!(
        errors[0].contains("unused suppression of D002"),
        "{}",
        errors[0]
    );
    assert!(errors[0].contains("stale.rs:1"), "{}", errors[0]);
}

#[test]
fn update_baseline_output_matches_the_pinned_fixture_file() {
    let report = clean_report();
    let committed =
        std::fs::read_to_string(fixture("clean_ws").join(decima_lint::BASELINE_FILE)).unwrap();
    assert_eq!(report.to_baseline().render(), committed);
}

// ---------------------------------------------------------------------------
// The real workspace: clean now, and pinned to stay that way
// ---------------------------------------------------------------------------

#[test]
fn workspace_scan_is_clean() {
    let root = workspace_root();
    let report = decima_lint::scan(&root).unwrap();
    let baseline = decima_lint::load_baseline(&root).unwrap();
    let errors = report.check(&baseline);
    assert!(errors.is_empty(), "workspace lint errors: {errors:#?}");
    assert!(
        report.unused_suppressions.is_empty(),
        "stale annotations: {:#?}",
        report.unused_suppressions
    );
    // Known reviewed exemptions: the three `unsafe` tokens
    // `GlobalAlloc` forces on the one counting allocator,
    // tests/support/counting_alloc.rs, which every allocation-pin test
    // includes by `#[path]` (the impl and its two methods; test-only,
    // forwards to `System`). (The fourth, a second
    // copy of the trainer's τ draw, went when `train_iteration` and
    // `fine_tune_window` became one step.) Growing this number should
    // be a deliberate, reviewed act — update the count alongside the
    // annotation.
    let suppressed = report.findings.iter().filter(|f| f.suppressed).count();
    assert_eq!(suppressed, 3, "annotated-exemption census changed");
}

#[test]
fn committed_baseline_matches_a_fresh_scan() {
    let root = workspace_root();
    let report = decima_lint::scan(&root).unwrap();
    let committed = std::fs::read_to_string(root.join(decima_lint::BASELINE_FILE))
        .expect("LINT_BASELINE.json is committed at the workspace root");
    assert_eq!(
        report.to_baseline().render(),
        committed,
        "LINT_BASELINE.json is stale — run `cargo run -p decima-lint -- --update-baseline`"
    );
}

#[test]
fn every_rule_is_either_deny_or_ratchet_and_documented() {
    for r in RULES {
        assert!(!r.summary.is_empty());
        assert!(matches!(r.severity, Severity::Deny | Severity::Ratchet));
        assert!(decima_lint::rules::rule(r.id).is_some());
    }
}
