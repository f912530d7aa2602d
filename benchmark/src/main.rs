//! `decima-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]`
//!
//! The driver process. It spins one core up, then runs each requested
//! workload (all seven when none is named) in a child process of its
//! own — so that peak memory is per workload — captures what the child
//! prints (the scenarios of `exp_e2e` are chatty), and prints the
//! child's report: every metric by name with its unit, then one JSON
//! result line. It exits non-zero when a workload could not run or its
//! outputs failed a check.
//!
//! A child is this same binary started with `--child`; it prefixes each
//! line of its report with `@@ ` so the driver can tell it from chatter.

use decima_benchmark::host;
use decima_benchmark::metrics::WORKLOADS;
use decima_benchmark::run::{run, RunArgs};
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Marks a report line in a child's standard output.
const MARK: &str = "@@ ";

/// How long one core is kept busy before the first child starts. Short,
/// because every run pays it and `setup_s` is the fastest of several
/// set-ups anyway: it only spares the first of them a cold CPU.
const SPIN_UP: Duration = Duration::from_millis(300);

/// How long one workload's child may run before the driver stops it.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            cli.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(value.clone());
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(cli)
}

/// The child: one workload, report lines marked.
fn child_main(cli: &Cli) -> ExitCode {
    let Some(workload) = cli.workload.clone() else {
        eprintln!("--child needs --workload");
        return ExitCode::from(2);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    match run(&args) {
        Ok(out) => {
            for line in &out.lines {
                println!("{MARK}{line}");
            }
            println!("{MARK}{}", out.report.json_line());
            if out.report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in a child; prints its report; `true` on success.
fn run_child(cli: &Cli, workload: &str) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return false;
        }
    };
    let spawned = Command::new(exe)
        .args(["--child", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start the {workload} child: {e}");
            return false;
        }
    };
    // Read on a thread so a chatty child never blocks on a full pipe
    // while this one waits for it to exit.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => {
                // Out of time (a workload that stopped making progress
                // must not hold the driver past its limit): stop it and
                // wait until it has ended.
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let (report, chatter): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with(MARK));
    if !chatter.is_empty() {
        let dir = host::out_dir();
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(
            dir.join(format!("{workload}.log")),
            chatter.join("\n") + "\n",
        );
    }
    if !status.is_some_and(|s| s.success()) {
        // No result line for a run that failed: the driver must see the
        // exit code, not a number.
        match status {
            Some(s) => eprintln!("workload {workload} failed ({s})"),
            None => eprintln!("workload {workload} stopped after {CHILD_LIMIT:?}"),
        }
        for line in report.iter().filter(|l| !l.starts_with("@@ {")) {
            eprintln!("{}", &line[MARK.len()..]);
        }
        return false;
    }
    for line in report {
        println!("{}", &line[MARK.len()..]);
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\nusage: decima-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if cli.child {
        return child_main(&cli);
    }
    println!("decima-benchmark  {}", host::stamp());
    host::spin_up(SPIN_UP);
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    for w in workloads {
        ok &= run_child(&cli, w);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
