#![forbid(unsafe_code)]
//! # decima-lint
//!
//! A dependency-free static analyzer that machine-enforces the
//! workspace's determinism contract (see `docs/DETERMINISM.md`). Every
//! verification asset in this repo — goldens, bit-exact checkpoint
//! resume, dynamics-off identity, fast-vs-tape JCT identity, thread-
//! count counter equality — assumes simulation is a pure function of
//! `(spec, seed)`. These rules make the assumptions explicit:
//!
//! | rule | contract |
//! |------|----------|
//! | D001 | no `HashMap`/`HashSet` in deterministic crates |
//! | D002 | no `thread_rng`/`SystemTime::now`/`Instant::now` outside timing-allowlisted sites |
//! | D004 | no `unsafe` |
//! | W001 | `unwrap()`/`expect()` in library code (ratcheted via `LINT_BASELINE.json`) |
//!
//! There is no `syn`, no `regex`, no proc-macro machinery: a small
//! lexer ([`lexer`]) blanks comments and string literals, then the
//! rule matchers ([`rules`]) run over the masked lines. Exemptions are
//! inline, reviewable, and grep-able:
//!
//! ```text
//! let t0 = Instant::now(); // decima-lint: allow(D002) — wall-clock telemetry, not sim time
//! ```
//!
//! Run it with `cargo run -p decima-lint -- --check`.

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use baseline::Baseline;
pub use scan::{scan, scan_source, Finding, Report};

use std::path::{Path, PathBuf};

/// Name of the ratchet baseline file at the workspace root.
pub const BASELINE_FILE: &str = "LINT_BASELINE.json";

/// Ascends from `start` to the first directory that looks like the
/// workspace root (has a `Cargo.toml` declaring `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Loads the baseline next to `root`, or an empty one if absent.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}
