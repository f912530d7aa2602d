//! The harness the binary-driving suites share (`malformed_input`,
//! `artefacts`); each uses part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Output;

/// An empty directory of this process's own.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decima_exp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `decima-exp` with `args` in `dir`.
pub fn output_in(dir: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_decima-exp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("decima-exp runs")
}

/// Runs `decima-exp` with `args` in `dir`; returns the exit code and
/// stderr.
pub fn decima_exp_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = output_in(dir, args);
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
