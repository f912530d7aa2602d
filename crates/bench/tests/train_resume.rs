//! End-to-end checks of the standalone training driver: checkpoints and
//! JSONL logs are written, `--resume` continues the iteration counter
//! and statistics seamlessly, and an interrupted-and-resumed run ends at
//! exactly the same model as an uninterrupted one.

use decima_bench::json::Json;
use decima_bench::{run_training, TrainOptions, TrainedPolicy};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decima_train_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_opts(dir: &std::path::Path, iters: usize) -> TrainOptions {
    TrainOptions {
        iters,
        jobs: 2,
        execs: 5,
        seed: 11,
        checkpoint_dir: dir.to_path_buf(),
        checkpoint_every: 1,
        log_path: Some(dir.join("train.jsonl")),
        ..TrainOptions::default()
    }
}

fn log_iters(path: &std::path::Path) -> Vec<u64> {
    std::fs::read_to_string(path)
        .expect("training log exists")
        .lines()
        .map(|l| {
            Json::parse(l)
                .expect("log line is valid JSON")
                .get("iter")
                .and_then(Json::as_u64)
                .expect("log line has an iter")
        })
        .collect()
}

#[test]
fn train_writes_checkpoint_and_jsonl_then_resume_continues_seamlessly() {
    let dir = tmp_dir("resume");

    // Phase 1: two iterations from scratch.
    let opts = tiny_opts(&dir, 2);
    run_training(&opts).expect("training runs");
    let ckpt = opts.checkpoint_path();
    assert!(ckpt.exists(), "checkpoint written");
    let log = opts.log_file();
    assert_eq!(log_iters(&log), vec![0, 1], "one JSONL record per iter");

    // Phase 2: resume to four total. The iteration counter and the log
    // continue where phase 1 stopped.
    let opts2 = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 4)
    };
    let resumed = run_training(&opts2).expect("resume runs");
    assert_eq!(
        log_iters(&log),
        vec![0, 1, 2, 3],
        "log continues seamlessly"
    );

    // The resumed model is bit-identical to an uninterrupted 4-iteration
    // run with the same seeds.
    let ref_dir = tmp_dir("uninterrupted");
    let reference = run_training(&tiny_opts(&ref_dir, 4)).expect("reference runs");
    assert_eq!(resumed.store.len(), reference.store.len());
    for i in 0..reference.store.len() {
        let (a, b) = (
            resumed.store.value(i).data(),
            reference.store.value(i).data(),
        );
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "param {i} diverged after resume");
        }
    }

    // The checkpoint is a reusable artifact: load it cold and evaluate.
    let loaded = TrainedPolicy::from_checkpoint(ckpt.to_str().unwrap()).expect("loads");
    assert_eq!(loaded.store.num_scalars(), resumed.store.num_scalars());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// An interruption *between* checkpoints leaves logged iterations the
/// checkpoint never saw; resuming must drop those stale records before
/// re-running them, keeping one line per iteration.
#[test]
fn resume_reconciles_log_records_past_the_checkpoint() {
    let dir = tmp_dir("reconcile");
    let opts = tiny_opts(&dir, 2);
    run_training(&opts).expect("phase 1");
    let ckpt_at_2 = std::fs::read_to_string(opts.checkpoint_path()).unwrap();
    let resume4 = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 4)
    };
    run_training(&resume4).expect("phase 2");
    // Simulate a crash after iteration 4 was logged but before a newer
    // checkpoint landed: roll the checkpoint back to iteration 2.
    std::fs::write(opts.checkpoint_path(), ckpt_at_2).unwrap();
    run_training(&resume4).expect("recovery");
    assert_eq!(
        log_iters(&opts.log_file()),
        vec![0, 1, 2, 3],
        "stale records for re-run iterations must be dropped, not duplicated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log line that is not a record — torn by a crash mid-write, or a
/// damaged file — is dropped like a stale one. A line of two million
/// `[` used to overflow the JSON parser's stack and abort the resume;
/// a checkpoint header that asks for a 19 TB layer is an error, not an
/// allocation.
#[test]
fn resume_survives_a_damaged_log_and_refuses_a_damaged_checkpoint() {
    let dir = tmp_dir("damaged");
    let opts = tiny_opts(&dir, 2);
    run_training(&opts).expect("fresh run");
    let log = opts.log_file();
    let mut text = std::fs::read_to_string(&log).unwrap();
    text.push_str(&"[".repeat(2_000_000));
    text.push_str("\n{\"iter\": 1, \"torn");
    std::fs::write(&log, text).unwrap();
    let resume = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 3)
    };
    run_training(&resume).expect("resume runs");
    assert_eq!(log_iters(&log), vec![0, 1, 2]);

    let ckpt = std::fs::read_to_string(opts.checkpoint_path()).unwrap();
    let hidden = ckpt
        .lines()
        .find(|l| l.starts_with("policy.hidden"))
        .unwrap();
    let hostile = ckpt.replacen(hidden, "policy.hidden 99999999999", 1);
    std::fs::write(opts.checkpoint_path(), hostile).unwrap();
    let err = run_training(&resume).err().expect("hostile header");
    assert_eq!(
        err,
        "checkpoint field 'policy.hidden' must be in [1, 1024], got 99999999999"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint embeds the workload it was trained on; resuming with
/// different `--jobs/--execs/--iat` flags must fail loudly instead of
/// silently continuing the optimization on another distribution.
#[test]
fn resume_with_mismatched_workload_flags_is_a_hard_error() {
    let dir = tmp_dir("echo");
    let opts = tiny_opts(&dir, 1);
    run_training(&opts).expect("fresh run");
    let text = std::fs::read_to_string(opts.checkpoint_path()).unwrap();
    assert!(text.contains("echo.jobs 2"), "checkpoint carries the echo");
    assert!(text.contains("echo.execs 5"));

    // Mismatched executor count: hard error with both shapes named.
    let bad = TrainOptions {
        resume: true,
        execs: 9,
        ..tiny_opts(&dir, 2)
    };
    let err = match run_training(&bad) {
        Err(e) => e,
        Ok(_) => panic!("mismatched resume must fail"),
    };
    assert!(err.contains("workload mismatch"), "{err}");
    assert!(err.contains("9 executors"), "{err}");

    // Mismatched arrivals (batch → stream): also rejected.
    let bad_iat = TrainOptions {
        resume: true,
        iat: Some(20.0),
        ..tiny_opts(&dir, 2)
    };
    assert!(
        run_training(&bad_iat).is_err(),
        "IAT drift must be rejected"
    );

    // Mismatched dynamics (fault-free checkpoint, perturbed resume):
    // also rejected — and by symmetry a perturbed checkpoint refuses a
    // resume that drops the dynamics flags.
    let bad_dyn = TrainOptions {
        resume: true,
        dynamics: decima_sim::DynamicsSpec::med(),
        ..tiny_opts(&dir, 2)
    };
    let err = match run_training(&bad_dyn) {
        Err(e) => e,
        Ok(_) => panic!("dynamics drift must be rejected"),
    };
    assert!(err.contains("dynamics(churn=240"), "{err}");

    // Matching flags resume normally.
    let good = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 2)
    };
    run_training(&good).expect("matching resume works");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpoint_errors_and_target_reached_is_a_noop() {
    let dir = tmp_dir("errors");
    let missing = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 2)
    };
    assert!(run_training(&missing).is_err(), "no checkpoint to resume");

    let opts = tiny_opts(&dir, 1);
    run_training(&opts).expect("fresh run");
    let before = std::fs::read_to_string(opts.checkpoint_path()).unwrap();
    // Target already reached: nothing trains, checkpoint untouched.
    let again = TrainOptions {
        resume: true,
        ..tiny_opts(&dir, 1)
    };
    run_training(&again).expect("noop resume");
    let after = std::fs::read_to_string(opts.checkpoint_path()).unwrap();
    assert_eq!(before, after);
    let _ = std::fs::remove_dir_all(&dir);
}
