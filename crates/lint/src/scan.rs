//! Workspace walker and finding engine: applies the [`crate::rules`]
//! matchers to every in-tree source file, scoped by crate class and
//! test context, honoring inline suppressions.

use crate::baseline::Baseline;
use crate::lexer;
use crate::rules::{self, Rule, Scope, Severity};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directories never scanned: third-party stubs, build output,
/// experiment artifacts, and the lint tool's own known-bad fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", "out", ".git", "fixtures"];

/// One rule hit at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path relative to the scanned root.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub rule_id: &'static str,
    /// What matched, e.g. ``"`HashMap`"``.
    pub what: String,
    /// The crate the file belongs to (package name).
    pub krate: String,
    /// Suppressed by a well-formed inline annotation.
    pub suppressed: bool,
}

impl Finding {
    fn describe(&self) -> String {
        let summary = rules::rule(self.rule_id).map_or("", |r| r.summary);
        format!(
            "{}:{}: {} {} — {}",
            self.path,
            self.line,
            self.rule_id,
            self.what,
            collapse_ws(summary)
        )
    }
}

/// Collapses the multi-line rule summaries to single-line messages.
fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A malformed annotation, reported as an error.
#[derive(Clone, Debug)]
pub struct BadAnnotation {
    pub path: String,
    pub line: usize,
    pub problem: String,
}

/// A well-formed annotation that suppressed nothing (a `--check`
/// failure, so stale exemptions can't accumulate).
#[derive(Clone, Debug)]
pub struct UnusedSuppression {
    pub path: String,
    pub line: usize,
    pub rules: Vec<String>,
}

/// Everything one scan produced.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub bad_annotations: Vec<BadAnnotation>,
    pub unused_suppressions: Vec<UnusedSuppression>,
    /// Crates seen during the scan (even if clean), so the ratchet can
    /// pin zero for them.
    pub crates_seen: Vec<String>,
    pub files_scanned: usize,
}

impl Report {
    /// Unsuppressed findings for deny-severity rules.
    pub fn deny_violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| {
            !f.suppressed && rules::rule(f.rule_id).map(|r| r.severity) == Some(Severity::Deny)
        })
    }

    /// Per-crate unsuppressed counts for one ratcheted rule.
    pub fn ratchet_counts(&self, rule_id: &str) -> BTreeMap<String, u64> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for k in &self.crates_seen {
            counts.insert(k.clone(), 0);
        }
        for f in &self.findings {
            if f.rule_id == rule_id && !f.suppressed {
                *counts.entry(f.krate.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The baseline a `--update-baseline` run would write.
    pub fn to_baseline(&self) -> Baseline {
        let mut b = Baseline::default();
        for rule in rules::RULES {
            if rule.severity == Severity::Ratchet {
                b.counts
                    .insert(rule.id.to_string(), self.ratchet_counts(rule.id));
            }
        }
        b
    }

    /// Compares the scan against `baseline`; returns every error a
    /// `--check` run must fail with (empty = pass).
    pub fn check(&self, baseline: &Baseline) -> Vec<String> {
        let mut errors = Vec::new();
        for f in self.deny_violations() {
            errors.push(f.describe());
        }
        for a in &self.bad_annotations {
            errors.push(format!(
                "{}:{}: bad decima-lint annotation: {}",
                a.path, a.line, a.problem
            ));
        }
        // A suppression that no longer suppresses anything is a dead
        // exemption: the code it excused was fixed or moved, and leaving
        // the annotation around invites re-use without review. Fail the
        // check instead of warning so stale allowances can't accumulate.
        for u in &self.unused_suppressions {
            errors.push(format!(
                "{}:{}: unused suppression of {} — remove the stale annotation",
                u.path,
                u.line,
                u.rules.join(", ")
            ));
        }
        for rule in rules::RULES {
            if rule.severity != Severity::Ratchet {
                continue;
            }
            let current = self.ratchet_counts(rule.id);
            // Union of crates seen now and crates pinned before, so a
            // deleted crate shows up as drift too.
            let mut all: Vec<&String> = current.keys().collect();
            if let Some(pinned) = baseline.counts.get(rule.id) {
                for k in pinned.keys() {
                    if !current.contains_key(k) {
                        all.push(k);
                    }
                }
            }
            for krate in all {
                let now = current.get(krate).copied().unwrap_or(0);
                let pinned = baseline.count(rule.id, krate);
                if now > pinned {
                    let mut msg = format!(
                        "{}: {krate} has {now} {} site(s) but the baseline pins {pinned} — \
                         fix the new one(s), annotate with a reason, or (if deliberate) \
                         run --update-baseline",
                        rule.id, rule.id
                    );
                    for f in self
                        .findings
                        .iter()
                        .filter(|f| f.rule_id == rule.id && !f.suppressed && f.krate == *krate)
                    {
                        msg.push_str(&format!("\n    {}:{}: {}", f.path, f.line, f.what));
                    }
                    errors.push(msg);
                } else if now < pinned {
                    errors.push(format!(
                        "{}: {krate} is down to {now} site(s) but the baseline still pins \
                         {pinned} — run --update-baseline to ratchet down",
                        rule.id
                    ));
                }
            }
        }
        errors
    }
}

/// Maps a path (relative to the scan root) to its package name, or
/// `None` for files outside any scanned package.
fn crate_of(rel: &Path) -> Option<String> {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next().as_deref() {
        Some("crates") => {
            let dir = parts.next()?;
            Some(if dir == "decima" {
                "decima".to_string()
            } else {
                format!("decima-{dir}")
            })
        }
        // The root package owns src/, tests/, examples/.
        Some("src") | Some("tests") | Some("examples") => Some("decima-tests".to_string()),
        _ => None,
    }
}

/// True when every line of the file is test/bench/example context
/// (integration tests, benches, examples, or a `tests.rs` — the
/// out-of-line body of a `#[cfg(test)] mod tests;` — not shipped
/// library code).
fn whole_file_is_test(rel: &Path) -> bool {
    rel.components().any(|c| {
        matches!(
            c.as_os_str().to_string_lossy().as_ref(),
            "tests" | "benches" | "examples" | "tests.rs"
        )
    })
}

/// Whether `rule` applies at this (crate, test-context) site.
fn in_scope(rule: &Rule, krate: &str, is_test: bool) -> bool {
    match rule.scope {
        Scope::DeterministicNonTest => rules::DETERMINISTIC_CRATES.contains(&krate) && !is_test,
        Scope::NonTimingNonTest => !rules::TIMING_CRATES.contains(&krate) && !is_test,
        Scope::LibraryCode => !is_test,
        Scope::Everywhere => true,
    }
}

/// Scans one already-read source file. Exposed for fixture tests.
pub fn scan_source(rel_path: &str, krate: &str, source: &str, report: &mut Report) {
    let stripped = lexer::strip(source);
    let test_lines = if whole_file_is_test(Path::new(rel_path)) {
        Vec::new() // sentinel: handled below
    } else {
        stripped.test_lines()
    };
    let file_is_test = whole_file_is_test(Path::new(rel_path));

    for a in &stripped.bad_annotations {
        report.bad_annotations.push(BadAnnotation {
            path: rel_path.to_string(),
            line: a.line,
            problem: a.problem.clone(),
        });
    }

    let mut used = vec![false; stripped.suppressions.len()];
    for (idx, masked_line) in stripped.masked.lines().enumerate() {
        let line_no = idx + 1;
        let is_test = file_is_test || test_lines.get(idx).copied().unwrap_or(false);
        for m in rules::match_line(masked_line) {
            let Some(rule) = rules::rule(m.rule_id) else {
                continue;
            };
            if !in_scope(rule, krate, is_test) {
                continue;
            }
            // A suppression on line L covers lines L and L+1.
            let mut suppressed = false;
            for (si, s) in stripped.suppressions.iter().enumerate() {
                if (s.line == line_no || s.line + 1 == line_no)
                    && s.rules.iter().any(|r| r == m.rule_id)
                {
                    suppressed = true;
                    used[si] = true;
                }
            }
            report.findings.push(Finding {
                path: rel_path.to_string(),
                line: line_no,
                rule_id: m.rule_id,
                what: m.what,
                krate: krate.to_string(),
                suppressed,
            });
        }
    }

    for (si, s) in stripped.suppressions.iter().enumerate() {
        if !used[si] {
            report.unused_suppressions.push(UnusedSuppression {
                path: rel_path.to_string(),
                line: s.line,
                rules: s.rules.clone(),
            });
        }
    }
    report.files_scanned += 1;
}

/// Walks a workspace root and scans every in-scope `.rs` file.
pub fn scan(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut crates_seen = Vec::new();
    for rel in files {
        let Some(krate) = crate_of(&rel) else {
            continue;
        };
        if !crates_seen.contains(&krate) {
            crates_seen.push(krate.clone());
        }
        let full = root.join(&rel);
        let source = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        scan_source(&rel_str, &krate, &source, &mut report);
    }
    crates_seen.sort();
    report.crates_seen = crates_seen;
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<_, _>>()
        .map_err(|e| format!("error walking {}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let ty = entry
            .file_type()
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        if ty.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(
            crate_of(Path::new("crates/sim/src/engine/mod.rs")).as_deref(),
            Some("decima-sim")
        );
        assert_eq!(
            crate_of(Path::new("crates/decima/src/lib.rs")).as_deref(),
            Some("decima")
        );
        assert_eq!(
            crate_of(Path::new("tests/golden.rs")).as_deref(),
            Some("decima-tests")
        );
        assert_eq!(crate_of(Path::new("README.md")), None);
    }

    #[test]
    fn deny_finding_fires_and_suppression_silences() {
        let mut r = Report::default();
        scan_source(
            "crates/sim/src/x.rs",
            "decima-sim",
            "use std::collections::HashMap;\n",
            &mut r,
        );
        assert_eq!(r.deny_violations().count(), 1);

        let mut r = Report::default();
        scan_source(
            "crates/sim/src/x.rs",
            "decima-sim",
            "// decima-lint: allow(D001) — ordered downstream\nuse std::collections::HashMap;\n",
            &mut r,
        );
        assert_eq!(r.deny_violations().count(), 0);
        assert!(r.unused_suppressions.is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_d001() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let mut r = Report::default();
        scan_source("crates/sim/src/x.rs", "decima-sim", src, &mut r);
        assert_eq!(r.deny_violations().count(), 0);
        // So is the out-of-line body of `#[cfg(test)] mod tests;`.
        let src = "use std::collections::HashSet;\nfn f() { None::<u8>.unwrap(); }\n";
        scan_source("crates/sim/src/engine/tests.rs", "decima-sim", src, &mut r);
        assert_eq!(r.deny_violations().count(), 0);
        assert!(r.ratchet_counts("W001").values().all(|&n| n == 0));
    }

    #[test]
    fn d001_only_applies_to_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        let mut r = Report::default();
        scan_source("crates/bench/src/x.rs", "decima-bench", src, &mut r);
        assert_eq!(r.deny_violations().count(), 0);
    }

    #[test]
    fn d004_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { } }\n}\n";
        let mut r = Report::default();
        scan_source("crates/bench/src/x.rs", "decima-bench", src, &mut r);
        assert_eq!(r.deny_violations().count(), 1);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let mut r = Report::default();
        scan_source(
            "crates/sim/src/x.rs",
            "decima-sim",
            "// decima-lint: allow(D001) — nothing here\nlet x = 1;\n",
            &mut r,
        );
        assert_eq!(r.unused_suppressions.len(), 1);
        // Stale annotations fail the check outright (not a warning).
        let errs = r.check(&Baseline::default());
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("unused suppression of D001"),
            "{}",
            errs[0]
        );
        assert!(errs[0].contains("x.rs:1"), "{}", errs[0]);
    }

    #[test]
    fn ratchet_counts_and_check() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let mut r = Report::default();
        scan_source("crates/sim/src/x.rs", "decima-sim", src, &mut r);
        r.crates_seen = vec!["decima-sim".to_string()];
        let counts = r.ratchet_counts("W001");
        assert_eq!(counts.get("decima-sim"), Some(&1));

        // Baseline pins 1: clean.
        assert!(r.check(&r.to_baseline()).is_empty());
        // Baseline pins 0: new violation.
        let empty = Baseline::default();
        let errs = r.check(&empty);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("baseline pins 0"), "{}", errs[0]);
        // Baseline pins 2: stale, must ratchet down.
        let mut stale = r.to_baseline();
        stale
            .counts
            .get_mut("W001")
            .unwrap()
            .insert("decima-sim".to_string(), 2);
        let errs = r.check(&stale);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("ratchet down"), "{}", errs[0]);
    }
}
