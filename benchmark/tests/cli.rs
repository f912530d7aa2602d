//! The command line the driver uses.

use decima_bench::json::Json;
use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_decima-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

#[test]
fn one_workload_ends_with_the_result_line() {
    let out = bench(&[
        "--workload",
        "sim_batch_large",
        "--seed",
        "5",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout
        .lines()
        .next()
        .is_some_and(|l| l.contains("rustc=") && l.contains("nproc=")));
    let last = stdout.lines().last().expect("a last line");
    let doc = Json::parse(last).expect("the last line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let wall = doc
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert!(wall
        .get("value")
        .and_then(Json::as_f64)
        .is_some_and(|v| v > 0.0));
    assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--quick", "1"],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--seed"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
