//! What the run happened on, and this process's memory: the stamp put
//! on every output, resident-set readings, and the CPU spin-up.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The benchmark's own directory (`benchmark/` of the checkout that
/// built this binary).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where span files, captured child output and scenario artefacts go.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Width of every pool the benchmark itself starts: the load generator
/// never runs more than two threads of its own, and never more than
/// the machine has.
pub fn pool_width() -> usize {
    checked_width(2.min(nproc()), nproc())
}

/// Refuses a pool wider than the machine.
pub fn checked_width(want: usize, nproc: usize) -> usize {
    assert!(
        want >= 1 && want <= nproc,
        "refusing to start a pool of {want} threads on {nproc} hardware threads"
    );
    want
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One line naming the code, compiler, flags and machine of this run.
pub fn stamp() -> String {
    format!(
        "commit={} rustc=\"{}\" rustflags=\"{}\" nproc={} cpu=\"{}\"",
        git_commit(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_RUSTFLAGS"),
        nproc(),
        cpu_model()
    )
}

/// A `kB` field of `/proc/self/status`, in MB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Keeps one core busy for `d`, so the first child does not start on a
/// CPU that has just come out of idle.
pub fn spin_up(d: Duration) {
    let t0 = Instant::now();
    let mut x = 1.0f64;
    while t0.elapsed() < d {
        for _ in 0..10_000 {
            x = std::hint::black_box(x * 1.000_000_1 + 1e-9);
        }
    }
    std::hint::black_box(x);
}
