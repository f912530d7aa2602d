//! End-to-end checks of the `train` scenario — the training driver with
//! a log, a save cadence and a resume: checkpoints and JSONL logs are
//! written, `resume=true` continues the iteration counter and
//! statistics seamlessly, and an interrupted-and-resumed run ends at
//! exactly the same model as an uninterrupted one.

use decima_bench::json::Json;
use decima_bench::runner::RunOptions;
use decima_bench::{ScenarioRegistry, TrainedPolicy};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decima_train_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint(dir: &Path) -> PathBuf {
    dir.join("checkpoint.txt")
}

fn log_file(dir: &Path) -> PathBuf {
    dir.join("train.jsonl")
}

/// What `decima-exp --scenario train --set …` runs (short of writing
/// `out/train.json`): the registered scenario with a tiny workload in
/// `dir`, `iters` as the target, then `extra` on top.
fn train(dir: &Path, iters: usize, extra: &[(&str, &str)]) -> Result<(), String> {
    let mut sc = ScenarioRegistry::standard().get("train").unwrap().clone();
    let (ckpt, log) = (checkpoint(dir), log_file(dir));
    let tiny = [
        ("iters", iters.to_string()),
        ("jobs", "2".to_string()),
        ("execs", "5".to_string()),
        ("seed", "11".to_string()),
        ("checkpoint", ckpt.display().to_string()),
        ("checkpoint-every", "1".to_string()),
        ("train-log", log.display().to_string()),
    ];
    for (key, value) in &tiny {
        sc.spec.set(key, value)?;
    }
    for (key, value) in extra {
        sc.spec.set(key, value)?;
    }
    sc.spec.check()?;
    (sc.run)(&sc.spec, &RunOptions::default()).map(drop)
}

const RESUME: (&str, &str) = ("resume", "true");

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
    train(&dir, 2, &[]).expect("training runs");
    let ckpt = checkpoint(&dir);
    assert!(ckpt.exists(), "checkpoint written");
    let log = log_file(&dir);
    assert_eq!(log_iters(&log), vec![0, 1], "one JSONL record per iter");

    // Phase 2: resume to four total. The iteration counter and the log
    // continue where phase 1 stopped.
    train(&dir, 4, &[RESUME]).expect("resume runs");
    assert_eq!(
        log_iters(&log),
        vec![0, 1, 2, 3],
        "log continues seamlessly"
    );

    // The resumed model is bit-identical to an uninterrupted 4-iteration
    // run with the same seeds — and so are the two files, byte for byte.
    let ref_dir = tmp_dir("uninterrupted");
    train(&ref_dir, 4, &[]).expect("reference runs");
    let load = |dir: &Path| TrainedPolicy::from_checkpoint(checkpoint(dir).to_str().unwrap());
    let (resumed, reference) = (load(&dir).unwrap(), load(&ref_dir).unwrap());
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

    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();
    assert_eq!(read(checkpoint(&dir)), read(checkpoint(&ref_dir)));
    assert_eq!(read(log_file(&dir)), read(log_file(&ref_dir)));

    // A fresh run overwrites what is there: the checkpoint is back at
    // iteration 1 and the log at one line.
    train(&dir, 1, &[]).expect("fresh run over an old one");
    assert!(read(ckpt).contains("\nstate.iter 1\n"));
    assert_eq!(log_iters(&log), vec![0]);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// An interruption *between* checkpoints leaves logged iterations the
/// checkpoint never saw; resuming must drop those stale records before
/// re-running them, keeping one line per iteration.
#[test]
fn resume_reconciles_log_records_past_the_checkpoint() {
    let dir = tmp_dir("reconcile");
    train(&dir, 2, &[]).expect("phase 1");
    let ckpt_at_2 = std::fs::read_to_string(checkpoint(&dir)).unwrap();
    train(&dir, 4, &[RESUME]).expect("phase 2");
    // Simulate a crash after iteration 4 was logged but before a newer
    // checkpoint landed: roll the checkpoint back to iteration 2.
    std::fs::write(checkpoint(&dir), ckpt_at_2).unwrap();
    train(&dir, 4, &[RESUME]).expect("recovery");
    assert_eq!(
        log_iters(&log_file(&dir)),
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
    train(&dir, 2, &[]).expect("fresh run");
    let log = log_file(&dir);
    let mut text = std::fs::read_to_string(&log).unwrap();
    text.push_str(&"[".repeat(2_000_000));
    text.push_str("\n{\"iter\": 1, \"torn");
    std::fs::write(&log, text).unwrap();
    train(&dir, 3, &[RESUME]).expect("resume runs");
    assert_eq!(log_iters(&log), vec![0, 1, 2]);

    let ckpt = std::fs::read_to_string(checkpoint(&dir)).unwrap();
    let hidden = ckpt
        .lines()
        .find(|l| l.starts_with("policy.hidden"))
        .unwrap();
    let hostile = ckpt.replacen(hidden, "policy.hidden 99999999999", 1);
    std::fs::write(checkpoint(&dir), hostile).unwrap();
    let err = train(&dir, 3, &[RESUME]).expect_err("hostile header");
    assert_eq!(
        err,
        format!(
            "cannot load checkpoint '{}': checkpoint field 'policy.hidden' must be in \
             [1, 1024], got 99999999999",
            checkpoint(&dir).display()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint embeds the workload it was trained on; resuming with
/// different `jobs=`/`execs=`/`iat=` keys must fail loudly instead of
/// silently continuing the optimization on another distribution.
#[test]
fn resume_with_mismatched_workload_flags_is_a_hard_error() {
    let dir = tmp_dir("echo");
    train(&dir, 1, &[]).expect("fresh run");
    let text = std::fs::read_to_string(checkpoint(&dir)).unwrap();
    assert!(text.contains("echo.jobs 2"), "checkpoint carries the echo");
    assert!(text.contains("echo.execs 5"));

    // Mismatched executor count: hard error with both shapes named.
    let err = train(&dir, 2, &[RESUME, ("execs", "9")]).expect_err("mismatched resume");
    assert!(err.contains("workload mismatch"), "{err}");
    assert!(err.contains("9 executors"), "{err}");

    // Mismatched arrivals (batch → stream): also rejected.
    assert!(
        train(&dir, 2, &[RESUME, ("iat", "20")]).is_err(),
        "IAT drift must be rejected"
    );

    // Mismatched dynamics (fault-free checkpoint, perturbed resume):
    // also rejected — and by symmetry a perturbed checkpoint refuses a
    // resume that drops the dynamics flags.
    let med = decima_sim::DynamicsSpec::med();
    let knobs = decima_sim::DynamicsSpec::KNOBS.map(|k| (k.key, k.get(&med).to_string()));
    let mut bad_dyn = vec![RESUME];
    bad_dyn.extend(knobs.iter().map(|(key, value)| (*key, value.as_str())));
    let err = train(&dir, 2, &bad_dyn).expect_err("dynamics drift must be rejected");
    assert!(err.contains("dynamics(churn=240"), "{err}");

    // Matching keys resume normally.
    train(&dir, 2, &[RESUME]).expect("matching resume works");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpoint_errors_and_target_reached_is_a_noop() {
    let dir = tmp_dir("errors");
    assert!(
        train(&dir, 2, &[RESUME]).is_err(),
        "no checkpoint to resume"
    );

    train(&dir, 1, &[]).expect("fresh run");
    let before = std::fs::read_to_string(checkpoint(&dir)).unwrap();
    // Target already reached: nothing trains, checkpoint untouched.
    train(&dir, 1, &[RESUME]).expect("noop resume");
    let after = std::fs::read_to_string(checkpoint(&dir)).unwrap();
    assert_eq!(before, after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--train --iat 40` made the `standard` recipe's batch a Poisson
/// stream, and `iat=` keeps that meaning for `train` — while the same
/// key leaves a batch scenario's workload a batch
/// (`WorkloadSpec::set_mean_iat`). The continuous-arrival recipes
/// stream 25 s apart unless told otherwise.
#[test]
fn iat_turns_the_train_scenarios_batch_into_a_stream() {
    let dir = tmp_dir("iat");
    let echoed_iat = |extra: &[(&str, &str)]| {
        train(&dir, 1, extra).expect("trains");
        let text = std::fs::read_to_string(checkpoint(&dir)).unwrap();
        let line = text.lines().find(|l| l.starts_with("echo.iat ")).unwrap();
        line.to_string()
    };
    assert_eq!(echoed_iat(&[]), "echo.iat none");
    assert_eq!(echoed_iat(&[("iat", "40")]), "echo.iat 40");
    assert_eq!(echoed_iat(&[("recipe", "stream")]), "echo.iat 25");
    assert_eq!(
        echoed_iat(&[("recipe", "tuned"), ("iat", "30")]),
        "echo.iat 30"
    );
    let mut fig09a = ScenarioRegistry::standard().get("fig09a").unwrap().clone();
    fig09a.spec.set("iat", "40").unwrap();
    assert_eq!(fig09a.spec.workload.unwrap().mean_iat(), None);
    let _ = std::fs::remove_dir_all(&dir);
}
