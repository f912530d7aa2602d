//! Input from outside the program is an `Err` or an `Ok`, never a
//! panic, an abort or a hang: arbitrary bytes and damaged valid
//! documents into `Json::parse`, arbitrary `--set` pairs into
//! `ScenarioSpec::set` on every registered scenario — and, through the
//! binary, a value it refuses, a model the run cannot use and an `out/`
//! it cannot write: one `error:` line, exit 2 when the value itself is
//! wrong and exit 1 when the file is, nothing written under `out/`.

mod common;

use common::{decima_exp, decima_exp_in, fresh_dir};
use decima_bench::json::Json;
use decima_bench::registry::ScenarioRegistry;
use decima_bench::scenario::KEYS;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// Runs `f` on its own thread and fails the case if it has not
/// returned after ten seconds (a panic inside `f` fails it too).
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the case panicked or did not finish within 10 s")
}

/// A valid document with everything the writer can emit.
fn valid_document() -> String {
    let reg = ScenarioRegistry::standard();
    reg.get("table2").unwrap().spec.to_json().render()
}

/// Values chosen to sit on the edges of every kind a key can have.
const HOSTILE: [&str; 16] = [
    "",
    "0",
    "-1",
    "-0",
    "0.5",
    "1e309",
    "-1e309",
    "NaN",
    "inf",
    "99999999999999999999",
    "true",
    "1,2,,3",
    ",",
    "0..0",
    "18446744073709551615..0",
    "9..3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_parse_survives_arbitrary_bytes(bytes in vec(0u8..=255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        within_ten_seconds(move || Json::parse(&text).is_ok());
    }

    #[test]
    fn json_parse_survives_damaged_documents(
        cut in 0usize..4000,
        len in 0usize..40,
        splice in vec(0u8..=255, 0..12),
        nest in 0usize..200_000,
    ) {
        let doc = valid_document().into_bytes();
        let at = cut % doc.len();
        let end = (at + len).min(doc.len());
        let mut damaged = doc[..at].to_vec();
        damaged.extend_from_slice(&splice);
        damaged.extend(std::iter::repeat(b'[').take(nest));
        damaged.extend_from_slice(&doc[end..]);
        let text = String::from_utf8_lossy(&damaged).into_owned();
        within_ten_seconds(move || {
            // Whatever still parses renders and parses again.
            if let Ok(v) = Json::parse(&text) {
                assert_eq!(Json::parse(&v.render()), Ok(v));
            }
        });
    }

    #[test]
    fn set_survives_arbitrary_pairs(
        scenario in 0usize..1000,
        key in 0usize..1000,
        hostile in 0usize..HOSTILE.len(),
        noise in vec(0u8..=255, 0..12),
        use_noise in 0u32..3,
    ) {
        let reg = ScenarioRegistry::standard();
        let sc = reg.iter().nth(scenario % reg.len()).unwrap();
        // A table key, one of the scenario's own parameters, or noise.
        let mut keys: Vec<String> = KEYS.iter().flat_map(|r| r.names).map(|n| n.to_string()).collect();
        keys.extend(decima_sim::DynamicsSpec::KNOBS.iter().map(|k| k.key.to_string()));
        keys.extend(sc.spec.params.iter().map(|(k, _)| k.clone()));
        keys.push(String::from_utf8_lossy(&noise).into_owned());
        let key = keys[key % keys.len()].clone();
        let value = match use_noise {
            0 => String::from_utf8_lossy(&noise).into_owned(),
            _ => HOSTILE[hostile].to_string(),
        };
        let mut spec = sc.spec.clone();
        within_ten_seconds(move || {
            let before = spec.clone();
            match spec.set(&key, &value) {
                // What was accepted is a spec the echo can describe.
                Ok(()) => assert!(Json::parse(&spec.to_json().render()).is_ok()),
                Err(e) => {
                    assert!(!e.is_empty());
                    assert_eq!(spec, before, "a refused '{key}={value}' changed the spec");
                }
            }
        });
    }
}

/// Every one of these was a panic and a backtrace (exit 101), an abort
/// (`execs=1e9`, exit 134), a hang (`task-scale=0`) — or a run of
/// something else that exited 0: `fine-tuned:` outside `drift` served 8-
/// and 64-executor clusters with a 5-executor model, `shards=2.5` ran 3
/// shards, `sched=weighted-fair:abc` served α = −1.
#[test]
fn a_model_the_run_cannot_use_is_one_error_line() {
    // A 5-executor checkpoint, and a file that is not a checkpoint.
    let train = "--scenario train --set execs=5 --set jobs=2 --set iters=1 \
                 --set checkpoint=five.ckpt --set train-log=five.jsonl";
    let (models, code, stderr) =
        decima_exp("models", &train.split_whitespace().collect::<Vec<_>>());
    assert_eq!(
        (code, stderr.as_str()),
        (Some(0), ""),
        "training the fixture"
    );
    std::fs::write(models.join("garbage.ckpt"), "garbage").unwrap();
    let five = models.join("five.ckpt").display().to_string();
    let garbage = models.join("garbage.ckpt").display().to_string();

    let small = ["--set", "jobs=3", "--set", "runs=1"];
    let cases: [(&str, Vec<String>, i32, &str); 21] = [
        (
            "fig09a",
            vec![format!("checkpoint={garbage}")],
            1,
            "has no [params] section",
        ),
        (
            "fig09a",
            vec![format!("checkpoint={five}")],
            1,
            "was trained for 5 executors but the evaluation cluster has 15",
        ),
        (
            "fleet",
            vec!["sched=decima-ckpt:/nonexistent".into()],
            1,
            "cannot load checkpoint '/nonexistent'",
        ),
        ("fleet", vec!["sched=decima".into()], 2, "does not train"),
        ("scale", vec!["sched=decima".into()], 2, "does not train"),
        (
            "robust",
            vec!["level=custom".into()],
            2,
            "level=custom without any dynamics knob",
        ),
        (
            "scale",
            vec![format!("sched=fine-tuned:{five}"), "jobs=50".into()],
            2,
            "does not train",
        ),
        (
            "scale",
            vec![format!("sched=decima-ckpt:{five}"), "jobs=50".into()],
            1,
            "was trained for 5 executors but the evaluation cluster has 8",
        ),
        (
            "fig09a",
            vec!["execs=0".into()],
            2,
            "'execs' must be at least 1",
        ),
        (
            "fleet",
            vec!["shards=0".into()],
            2,
            "'shards' must be at least 1",
        ),
        ("fig09a", vec!["exces=30".into()], 2, "unknown key 'exces'"),
        (
            "fig09a",
            vec!["task-scale=0".into()],
            2,
            "'task-scale' must be > 0",
        ),
        (
            "fleet",
            vec!["router=foo".into()],
            2,
            "unknown router 'foo'",
        ),
        (
            "fleet",
            vec!["sched=weighted-fair:abc".into()],
            2,
            "scheduler 'weighted-fair' takes a finite exponent after ':', got 'weighted-fair:abc'",
        ),
        (
            "fleet",
            vec!["sched=weighted-fair:nan".into()],
            2,
            "scheduler 'weighted-fair' takes a finite exponent after ':', got 'weighted-fair:nan'",
        ),
        (
            "fleet",
            vec!["sched=fifo:junk".into()],
            2,
            "scheduler 'fifo' takes no argument, got 'fifo:junk'",
        ),
        (
            "scale",
            vec!["sched=random:-3".into()],
            2,
            "scheduler 'random' takes a whole non-negative seed after ':', got 'random:-3'",
        ),
        (
            "fleet",
            vec!["shards=2.5".into()],
            2,
            "'shards' must be at least 1 (whole, up to 1000000), got 2.5",
        ),
        (
            "fig09a",
            vec!["jobs=3.7".into()],
            2,
            "'jobs' must be at least 1 (whole, up to 100000000), got 3.7",
        ),
        (
            "fig09a",
            vec!["execs=1e9".into()],
            2,
            "'execs' must be at least 1 (whole, up to 1000000), got 1000000000",
        ),
        (
            "scale",
            vec!["jobs=1e12".into()],
            2,
            "'jobs' must be at least 1 (whole, up to 100000000), got 1000000000000",
        ),
    ];
    for (i, (scenario, sets, want_code, want)) in cases.iter().enumerate() {
        let mut args = vec!["--scenario", scenario];
        if *scenario == "fig09a" {
            args.extend(small);
        }
        args.extend(sets.iter().flat_map(|s| ["--set", s.as_str()]));
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (dir, code, stderr) = within_ten_seconds(move || {
            let args: Vec<&str> = owned.iter().map(String::as_str).collect();
            decima_exp(&format!("case{i}"), &args)
        });
        assert_eq!(code, Some(*want_code), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(want),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!dir.join("out").exists(), "{args:?} wrote under out/");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The second front door is gone, not half-open.
    let (dir, code, stderr) = decima_exp("flag", &["--train", "--iters", "3"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown flag '--train'"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    for dir in [dir, models] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A run that cannot write its artefacts says so and fails — it used to
/// print two warnings and exit 0 with nothing written — and says so
/// before it runs: `out/` is probed up front, so the error does not wait
/// for a scenario that would take minutes.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "times the child process: the refusal must come before the run"
)]
fn an_unwritable_out_is_one_error_line_naming_the_file() {
    let dir = fresh_dir("unwritable");
    std::fs::write(dir.join("out"), "in the way").unwrap();
    // Two million jobs: tens of seconds of routing and serving, were
    // they to start.
    let args = "--scenario fleet --set shards=1 --set jobs=2000000 --set rates=1";
    let started = std::time::Instant::now();
    let (code, stderr) = decima_exp_in(&dir, &args.split_whitespace().collect::<Vec<_>>());
    let elapsed = started.elapsed();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot write out/fleet.json: "),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        elapsed < Duration::from_secs(2),
        "the error took {elapsed:?}: `out/` was not probed before the run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `decima-exp` with `args` in `dir`, reads the first line of its
/// stdout and closes the pipe; returns that line, the exit code and
/// stderr.
fn first_line_then_close(dir: &std::path::Path, args: &[&str]) -> (String, Option<i32>, String) {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_decima-exp"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("decima-exp runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (first, out.status.code(), stderr)
}

/// A reader that stops early (`decima-exp --list | head -1`) ends the
/// run quietly, exit 0. Both used to exit 101 with `failed printing to
/// stdout: Broken pipe` and a backtrace on stderr.
#[test]
fn a_reader_that_stops_early_ends_the_run_quietly() {
    let dir = fresh_dir("closed_stdout");
    for args in [&["--list"][..], &["--scenario", "fig03"]] {
        let (first, code, stderr) = first_line_then_close(&dir, args);
        assert!(!first.is_empty(), "{args:?} printed nothing");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
