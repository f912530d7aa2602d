//! The harness the binary-driving suites share (`malformed_input`,
//! `artefacts`).

/// Runs `decima-exp` with `args` in a directory of its own; returns
/// that directory, the exit code and stderr.
pub fn decima_exp(tag: &str, args: &[&str]) -> (std::path::PathBuf, Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("decima_exp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_decima-exp"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("decima-exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (dir, out.status.code(), stderr)
}
