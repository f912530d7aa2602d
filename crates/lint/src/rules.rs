//! The determinism-contract rules.
//!
//! Each rule matches on *masked* source lines (comments and string
//! literals already blanked by [`crate::lexer`]), so a rule can use
//! plain substring scans with identifier-boundary checks instead of a
//! real parser. See `docs/DETERMINISM.md` for what each rule protects.

/// How a rule's findings are treated by `--check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Any unsuppressed finding fails the check.
    Deny,
    /// Findings are counted per crate and ratcheted against
    /// `LINT_BASELINE.json`: more than the baseline fails, fewer is a
    /// drift that `--update-baseline` records.
    Ratchet,
}

/// Where a rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Only the deterministic crates (see [`DETERMINISTIC_CRATES`]),
    /// non-test code.
    DeterministicNonTest,
    /// Every workspace crate except the timing-allowlisted ones
    /// (see [`TIMING_CRATES`]), non-test code.
    NonTimingNonTest,
    /// Every workspace crate, non-test (library) code only.
    LibraryCode,
    /// Every workspace crate, all code including tests.
    Everywhere,
}

/// A static rule description.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub severity: Severity,
    pub scope: Scope,
}

/// Crates whose behavior must be a pure function of (spec, seed): the
/// simulation core and everything on the decision path. `HashMap`
/// iteration order — or any other ambient nondeterminism — in these
/// crates can change scheduling decisions between runs.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "decima-core",
    "decima-sim",
    "decima-gnn",
    "decima-nn",
    "decima-policy",
    "decima-workload",
    "decima-rl",
];

/// Crates allowed to read wall-clock time: the measurement layer.
pub const TIMING_CRATES: &[&str] = &["decima-bench"];

/// All rules, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "no HashMap/HashSet in deterministic crates \
                  (iteration-order hazard; use BTreeMap/BTreeSet or index sets)",
        severity: Severity::Deny,
        scope: Scope::DeterministicNonTest,
    },
    Rule {
        id: "D002",
        summary: "no thread_rng/SystemTime::now/Instant::now outside \
                  timing-allowlisted sites",
        severity: Severity::Deny,
        scope: Scope::NonTimingNonTest,
    },
    Rule {
        id: "D004",
        summary: "no unsafe code",
        severity: Severity::Deny,
        scope: Scope::Everywhere,
    },
    Rule {
        id: "W001",
        summary: "unwrap()/expect() in library code (ratcheted; prefer \
                  Result plumbing in new code)",
        severity: Severity::Ratchet,
        scope: Scope::LibraryCode,
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True if `needle` occurs in `line` delimited by non-identifier
/// characters on both sides, at or after `from`; returns the match
/// offset.
fn find_word(line: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = from;
    while let Some(pos) = line[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + needle.len();
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn has_word(line: &str, needle: &str) -> bool {
    find_word(line, needle, 0).is_some()
}

/// One matched pattern on a masked line.
pub struct LineMatch {
    pub rule_id: &'static str,
    pub what: String,
}

/// Runs every pattern matcher against one masked line. Scope filtering
/// (crate class, test context) happens in the scanner; this only
/// answers "does the pattern occur".
pub fn match_line(masked_line: &str) -> Vec<LineMatch> {
    let mut out = Vec::new();

    // D001: hash collections.
    for coll in ["HashMap", "HashSet"] {
        if has_word(masked_line, coll) {
            out.push(LineMatch {
                rule_id: "D001",
                what: format!("`{coll}`"),
            });
        }
    }

    // D002: ambient entropy and wall-clock time.
    for call in ["thread_rng", "Instant::now", "SystemTime::now"] {
        if has_word(masked_line, call) {
            out.push(LineMatch {
                rule_id: "D002",
                what: format!("`{call}`"),
            });
        }
    }

    // D004: the `unsafe` keyword (blocks, fns, impls, traits).
    if has_word(masked_line, "unsafe") {
        out.push(LineMatch {
            rule_id: "D004",
            what: "`unsafe`".to_string(),
        });
    }

    // W001: panicking extractors.
    for call in ["unwrap", "expect"] {
        let mut from = 0;
        while let Some(at) = find_word(masked_line, call, from) {
            // Only method calls: `.unwrap()` / `.expect(`, not bare
            // identifiers like a local named `unwrap`.
            let is_method = at > 0 && masked_line.as_bytes()[at - 1] == b'.';
            let called = masked_line[at + call.len()..].trim_start().starts_with('(');
            if is_method && called {
                out.push(LineMatch {
                    rule_id: "W001",
                    what: format!("`.{call}(…)`"),
                });
            }
            from = at + call.len();
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(line: &str) -> Vec<&'static str> {
        match_line(line).into_iter().map(|m| m.rule_id).collect()
    }

    #[test]
    fn d001_matches_hash_collections() {
        assert_eq!(ids("use std::collections::HashMap;"), vec!["D001"]);
        assert_eq!(ids("let s: HashSet<u32> = HashSet::new();"), vec!["D001"]);
        assert!(ids("let m = BTreeMap::new();").is_empty());
        // Identifier boundary: no match inside a longer name.
        assert!(ids("struct MyHashMapLike;").is_empty());
    }

    #[test]
    fn d002_matches_ambient_entropy() {
        assert_eq!(ids("let mut r = thread_rng();"), vec!["D002"]);
        assert_eq!(ids("let t0 = Instant::now();"), vec!["D002"]);
        assert_eq!(ids("let t = SystemTime::now();"), vec!["D002"]);
        assert!(ids("let t0 = now();").is_empty());
    }

    #[test]
    fn d004_matches_unsafe() {
        assert_eq!(ids("unsafe { ptr.read() }"), vec!["D004"]);
        assert_eq!(ids("pub unsafe fn f() {}"), vec!["D004"]);
        // `unsafe_code` (the forbid attribute) is a different token.
        assert!(ids("#![forbid(unsafe_code)]").is_empty());
    }

    #[test]
    fn w001_matches_method_calls_only() {
        assert_eq!(ids("let x = o.unwrap();"), vec!["W001"]);
        assert_eq!(ids("let x = o.expect(   );"), vec!["W001"]);
        assert_eq!(ids("a.unwrap(); b.unwrap();"), vec!["W001", "W001"]);
        assert!(ids("let x = o.unwrap_or(3);").is_empty());
        assert!(ids("let x = unwrap();").is_empty());
        assert!(ids("fn unwrap() {}").is_empty());
    }
}
