//! Every workload, at a size that takes milliseconds, traced and
//! untraced: it completes, nothing fails, and it reports exactly the
//! catalog's metrics.

use decima_benchmark::metrics::{Values, END_TO_END, PER_LAYER};
use decima_benchmark::run::{run, run_workload, RunArgs, RunOutput};
use decima_benchmark::trace::Tracer;
use decima_benchmark::workloads::episodes::{EpisodeSpec, Episodes, Sched};
use decima_benchmark::workloads::exp::{Exp, ExpSpec};
use decima_benchmark::workloads::fleet::{Fleet, FleetSpec};
use decima_benchmark::workloads::train::{TrainIter, TrainIterSpec};
use decima_benchmark::workloads::Workload;
use decima_workload::WorkloadSpec;
use std::path::PathBuf;

fn args(name: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: format!("tiny_{name}"),
        seed: 3,
        seconds: 0.05,
        trace,
    }
}

/// The checks every tiny run must pass.
fn check(name: &str, trace: bool, out: &RunOutput) {
    let r = &out.report;
    assert!(r.attempted > 0, "{name}: nothing attempted");
    assert_eq!(
        r.failed,
        0,
        "{name}: failed_share must be 0\n{}",
        out.lines.join("\n")
    );
    assert!(r.correct, "{name}: outputs failed a check");
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    if trace {
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(
            names, want,
            "{name}: traced runs report every per-layer metric"
        );
        for (metric, value, _) in &r.metrics {
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }
        let get = |k: &str| r.metrics.iter().find(|m| m.0 == k).map(|m| m.1).unwrap();
        assert!((0.0..=1.0).contains(&get("unattributed_share")));
        assert!(get("sim.decisions") > 0.0, "{name}: no decisions counted");
    } else {
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(
            names, want,
            "{name}: untraced runs report every end-to-end metric"
        );
        for (metric, value, _) in &r.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: {metric} = {value}"
            );
        }
    }
    let line = r.json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(!line.contains('\n'));
}

/// Runs `setup` traced and untraced.
fn both<W: Workload>(name: &str, mut setup: impl FnMut(&mut Tracer, &mut Values) -> W) {
    for trace in [false, true] {
        let out = run_workload(&args(name, trace), &mut setup);
        check(name, trace, &out);
    }
}

fn episodes(name: &str, spec: EpisodeSpec) {
    both(name, |tr, vals| Episodes::setup(spec.clone(), 3, tr, vals));
}

#[test]
fn sim_batch_large_tiny() {
    episodes(
        "sim_batch_large",
        EpisodeSpec {
            workload: WorkloadSpec::tpch_batch(5, 8),
            episodes: 2,
            sched: Sched::SjfCp,
            count_rounds: 3,
            stretch: 16,
        },
    );
}

#[test]
fn sim_stream_long_tiny() {
    episodes(
        "sim_stream_long",
        EpisodeSpec {
            workload: WorkloadSpec::tpch_stream(30, 8, 20.0),
            episodes: 1,
            sched: Sched::Fair,
            count_rounds: 3,
            stretch: 16,
        },
    );
}

#[test]
fn serve_f32_steady_tiny() {
    episodes(
        "serve_f32_steady",
        EpisodeSpec {
            workload: WorkloadSpec::tpch_stream(20, 6, 30.0),
            episodes: 1,
            sched: Sched::Policy { warmup_iters: 1 },
            count_rounds: 3,
            stretch: 16,
        },
    );
}

#[test]
fn serve_f32_backlog_tiny() {
    episodes(
        "serve_f32_backlog",
        EpisodeSpec {
            workload: WorkloadSpec::tpch_batch(6, 6),
            episodes: 2,
            sched: Sched::Policy { warmup_iters: 1 },
            count_rounds: 3,
            stretch: 16,
        },
    );
}

#[test]
fn fleet_f32_tiny() {
    let spec = FleetSpec {
        workload: WorkloadSpec::tpch_stream(40, 6, 10.0),
        shards: 2,
        warmup_iters: 1,
        count_rounds: 3,
    };
    both("fleet_f32", |tr, vals| {
        Fleet::setup(spec.clone(), 3, tr, vals)
    });
}

#[test]
fn train_iter_tiny() {
    let spec = TrainIterSpec {
        workload: WorkloadSpec::tpch_batch(3, 5),
        horizon: 5,
        count_rounds: 4,
    };
    both("train_iter", |tr, vals| {
        TrainIter::setup(spec.clone(), 3, tr, vals)
    });
}

#[test]
fn exp_e2e_tiny() {
    let spec = ExpSpec {
        scenarios: vec![
            ("fig09a", vec![("iters", "1"), ("jobs", "3"), ("runs", "2")]),
            (
                "fleet",
                vec![
                    ("jobs", "20"),
                    ("shards", "1,2"),
                    ("rates", "1"),
                    ("router", "rr"),
                ],
            ),
            (
                "drift",
                vec![
                    ("iters", "1"),
                    ("ft-iters", "1"),
                    ("jobs", "3"),
                    ("runs", "1"),
                ],
            ),
        ],
        count_rounds: 2,
        warmup: "fleet",
    };
    // The scenarios write under the working directory; give them one of
    // their own (no other test here depends on it).
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exp_e2e_tiny");
    both("exp_e2e", |tr, vals| {
        Exp::setup(spec.clone(), 3, &dir, tr, vals)
    });
    for artefact in ["out/fig09a.json", "out/fleet.csv", "out/drift.json"] {
        assert!(dir.join(artefact).is_file(), "{artefact} missing");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let err = run(&RunArgs {
        workload: "sim_batch_huge".into(),
        seed: 7,
        seconds: 0.05,
        trace: false,
    });
    assert!(err.is_err_and(|e| e.contains("sim_batch_huge")));
}
