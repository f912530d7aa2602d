//! The determinism contract (docs/DETERMINISM.md) is the workspace's
//! lint tables — `[workspace.lints]` in the root Cargo.toml, clippy.toml
//! and the `#![deny(clippy::unwrap_used, clippy::expect_used)]` at each
//! crate root — so tier-1 runs the linter: the workspace must pass
//! clippy with warnings denied (a stale `#[expect]` is such a warning),
//! and the seeded violations of `src/contract_canary.rs` must not.

use std::path::{Path, PathBuf};
use std::process::Command;

const INSTALL_HINT: &str = "if cargo reports no such command `clippy`, install it: \
                            rustup component add clippy";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `cargo clippy <args>` at the repo root, offline, in a target directory
/// of its own (the outer `cargo test` may hold the lock of the usual
/// one); returns whether it passed, and its stderr.
fn clippy(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO"))
        .arg("clippy")
        .args(["--offline", "--quiet", "--target-dir", "target/contract"])
        .args(args.split(' '))
        .current_dir(root())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", env!("CARGO")));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

#[test]
fn workspace_scan_is_clean() {
    let (passed, stderr) = clippy("--workspace --all-targets -- -D warnings");
    assert!(passed, "{stderr}\n{INSTALL_HINT}");
}

#[test]
fn every_rule_fires_on_the_canary() {
    // After `--` the cfg reaches the selected package alone, so the
    // dependencies' artefacts are the clean scan's.
    let (passed, stderr) = clippy("-p decima --lib -- --cfg contract_canary -D warnings");
    assert!(!passed, "clippy accepted src/contract_canary.rs");
    for (lint, message) in [
        (
            "disallowed_types",
            "use of a disallowed type `std::collections::HashMap`",
        ),
        (
            "disallowed_methods",
            "use of a disallowed method `std::time::Instant::now`",
        ),
        ("unwrap_used", "used `unwrap()` on an `Option` value"),
        ("unsafe_code", "usage of an `unsafe` block"),
    ] {
        assert!(
            stderr.contains(lint) && stderr.contains(message),
            "{lint} did not fire on the canary:\n{stderr}\n{INSTALL_HINT}"
        );
    }
}

/// Every `.rs` file under `dir`, skipping build output and dot-directories.
fn rust_sources(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rust_sources(&path, found);
        } else if name.ends_with(".rs") {
            found.push(path);
        }
    }
}

/// `unsafe_code` is switched off in exactly one file: the counting
/// allocator the allocation-pin tests share.
#[test]
fn the_one_unsafe_exemption_is_the_counting_allocator() {
    let needles = ["allow", "expect"].map(|level| format!("{level}(unsafe_code"));
    let mut sources = Vec::new();
    rust_sources(root(), &mut sources);
    let mut exempt: Vec<PathBuf> = sources
        .into_iter()
        .filter(|path| {
            let mut text = std::fs::read_to_string(path).unwrap();
            text.retain(|c| !c.is_whitespace());
            needles.iter().any(|n| text.contains(n.as_str()))
        })
        .collect();
    exempt.sort();
    assert_eq!(exempt, [root().join("tests/support/counting_alloc.rs")]);
}
