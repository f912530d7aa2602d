//! The harness the binary-driving suites share (`malformed_input`,
//! `artefacts`).

use std::path::{Path, PathBuf};

/// An empty directory of this process's own.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decima_exp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `decima-exp` with `args` in `dir`; returns the exit code and
/// stderr.
pub fn decima_exp_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_decima-exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("decima-exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// Runs `decima-exp` with `args` in a directory of its own; returns
/// that directory, the exit code and stderr.
pub fn decima_exp(tag: &str, args: &[&str]) -> (PathBuf, Option<i32>, String) {
    let dir = fresh_dir(tag);
    let (code, stderr) = decima_exp_in(&dir, args);
    (dir, code, stderr)
}
