//! What a scenario run leaves behind, frozen: tiny runs of all 24
//! scenarios through the built binary, every CSV byte for byte, every
//! JSON document with `wall_secs` zeroed, and stdout as a sorted multiset
//! of whitespace-collapsed lines (without the `[csv]` / `[json]` lines,
//! whose place in the stream is the runner's), against
//! `tests/golden/artefacts/`. Training is zero to two iterations, so a
//! run is mostly evaluation, aggregation and reporting — the part a
//! change to the report layer must leave alone. The few cells that are
//! wall-clock are masked (see [`masked`]). Refresh after an intended
//! change with `GOLDEN_UPDATE=1 cargo test -p decima-bench --test artefacts`.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

/// `(scenario, --set pairs, the CSV and JSON files it writes)`.
const RUNS: [(&str, &[&str], &[&str]); 24] = [
    (
        "drift",
        &[
            "profile=diurnal",
            "iters=0",
            "ft-iters=0",
            "jobs=5",
            "runs=2",
        ],
        &["drift.csv", "drift.json"],
    ),
    (
        "fig02",
        &["max-parallelism=4"],
        &["fig02.json", "fig02_parallelism.csv"],
    ),
    ("fig03", &["iters=1", "jobs=3", "execs=4"], &["fig03.json"]),
    (
        "fig07",
        &["samples=3", "jobs=5"],
        &["fig07.json", "fig07_reward_variance.csv"],
    ),
    (
        "fig09a",
        &["iters=0", "jobs=3", "runs=2"],
        &["fig09a.csv", "fig09a.json"],
    ),
    (
        "fig09b",
        &["iters=0", "jobs=6", "runs=2"],
        &["fig09b.csv", "fig09b.json"],
    ),
    (
        "fig10",
        &["iters=1", "jobs=6"],
        &["fig10.json", "fig10a_concurrency.csv", "fig10cde_jobs.csv"],
    ),
    (
        "fig11",
        &["iters=0", "jobs=4", "runs=2"],
        &["fig11.json", "fig11_multires.csv"],
    ),
    (
        "fig12",
        &["iters=0", "jobs=10"],
        &[
            "fig12.json",
            "fig12a_duration_ratio.csv",
            "fig12b_class_usage.csv",
        ],
    ),
    (
        "fig13",
        &["iters=1", "jobs=2", "execs=4", "width=40"],
        &["fig13.json"],
    ),
    (
        "fig14",
        &["iters=0", "jobs=5"],
        &["fig14.json", "fig14_ablations.csv"],
    ),
    (
        "fig15a",
        &["iters=2", "eval-every=1", "jobs=2", "execs=4"],
        &["fig15a.json", "fig15a_learning_curve.csv"],
    ),
    (
        "fig15b",
        &["jobs=4"],
        &["fig15b.json", "fig15b_latency.csv"],
    ),
    (
        "fig16",
        &["iters=2"],
        &["fig16.json", "fig16_appendix_example.csv"],
    ),
    ("fig18", &["reps=2"], &["fig18.json", "fig18a_isolated.csv"]),
    (
        "fig19",
        &["iters=4", "nodes=6", "eval-every=2"],
        &["fig19.json", "fig19_expressiveness.csv"],
    ),
    (
        "fig22",
        &["iters=1", "orderings=20", "jobs=4", "runs=2"],
        &["fig22.json", "fig22_optimality.csv"],
    ),
    (
        "fig23",
        &["iters=1", "jobs=3", "runs=2"],
        &["fig23.csv", "fig23.json"],
    ),
    (
        "fleet",
        &["shards=1,2", "rates=1", "jobs=8"],
        &["fleet.csv", "fleet.json"],
    ),
    (
        "robust",
        &["level=low", "iters=0", "jobs=4", "runs=2"],
        &["robust.csv", "robust.json"],
    ),
    (
        "scale",
        &["execs=4", "jobs=20"],
        &["scale.csv", "scale.json"],
    ),
    (
        "table2",
        &["iters=0", "jobs=6", "runs=2"],
        &["table2.csv", "table2.json"],
    ),
    (
        "table3",
        &["iters=0", "jobs=6", "runs=2"],
        &["table3.csv", "table3.json"],
    ),
    ("train", &["iters=2", "jobs=2", "execs=5"], &["train.json"]),
];

/// `line` with its `n`-th whitespace-separated token replaced by `_`.
fn blank_token(line: &str, n: usize) -> String {
    let tokens = line.split_whitespace().enumerate();
    let tokens: Vec<&str> = tokens.map(|(i, t)| if i == n { "_" } else { t }).collect();
    tokens.join(" ")
}

/// Stdout as the sorted multiset of its whitespace-collapsed lines,
/// without the runner's `[csv]` / `[json]` lines.
fn stdout_multiset(text: &str) -> String {
    let lines = text.lines().map(|l| blank_token(l, usize::MAX));
    let mut lines: Vec<String> = lines
        .filter(|l| !l.starts_with("[csv] ") && !l.starts_with("[json] "))
        .collect();
    lines.sort();
    lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
}

/// `text` of artefact `name` with what is wall-clock taken out: every
/// document's `wall_secs`; Figure 15b's measured decision latencies (its
/// CSV is sorted by them, so that file is held to header and row count);
/// `scale`'s stdout-only decisions per wall-clock second.
fn masked(name: &str, text: &str) -> String {
    let is_num = |t: &str| t.parse::<f64>().is_ok();
    let line = |l: &str| -> String {
        let t = l.trim_start();
        match name {
            _ if t.starts_with("\"wall_secs\": ") => "  \"wall_secs\": 0".into(),
            // `[q, decision_ms, interval_ms]`
            "fig15b.json" if t.starts_with("[0.") => blank_token(l, 1),
            "fig15b.json" if t.starts_with("\"interval_over_delay_median\"") => blank_token(l, 1),
            // `p50: decision 0.03 ms event interval 2604.8 ms`
            "fig15b.stdout" if l.contains(": decision ") => blank_token(l, 2),
            "fig15b.stdout" if l.starts_with("median interval / median delay") => blank_token(l, 5),
            // A data row: nine numbers, the last one `decis/s(w)`.
            "scale.stdout" if l.split(' ').count() == 9 && l.split(' ').all(is_num) => {
                blank_token(l, 8)
            }
            _ => l.to_string(),
        }
    };
    if name == "fig15b_latency.csv" {
        let header = text.lines().next().unwrap_or_default();
        return format!("{header}\n<{} rows>\n", text.lines().count() - 1);
    }
    if name.ends_with(".csv") {
        return text.to_string();
    }
    text.lines().flat_map(|l| [line(l), "\n".into()]).collect()
}

#[test]
fn tiny_runs_leave_the_frozen_csv_and_json_bytes() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/artefacts");
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    let mut moved = Vec::new();
    for (scenario, sets, files) in RUNS {
        let mut args = vec!["--scenario", scenario, "--threads", "2"];
        args.extend(sets.iter().flat_map(|s| ["--set", s]));
        let dir = common::fresh_dir(&format!("artefacts_{scenario}"));
        let out = common::output_in(&dir, &args);
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert_eq!(
            (out.status.code(), stderr.as_str()),
            (Some(0), ""),
            "{args:?}"
        );

        let written: BTreeSet<String> = std::fs::read_dir(dir.join("out"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".csv") || f.ends_with(".json"))
            .collect();
        let expected: BTreeSet<String> = files.iter().map(|f| f.to_string()).collect();
        assert_eq!(written, expected, "{scenario}: files under out/");

        let stdout_name = format!("{scenario}.stdout");
        let read = |file: &&str| std::fs::read_to_string(dir.join("out").join(file)).unwrap();
        let artefacts = files.iter().map(|file| (file.to_string(), read(file)));
        let stdout = (stdout_name, stdout_multiset(&stdout));
        for (file, got) in artefacts.chain([stdout]) {
            let got = masked(&file, &got);
            if update {
                std::fs::create_dir_all(&golden).unwrap();
                std::fs::write(golden.join(&file), &got).unwrap();
            }
            let want = std::fs::read_to_string(golden.join(&file)).unwrap_or_default();
            if got != want {
                let at = got.lines().zip(want.lines()).position(|(g, w)| g != w);
                let at = at.unwrap_or(got.lines().count().min(want.lines().count()));
                moved.push(format!(
                    "{file} line {}: got {:?}, frozen {:?}",
                    at + 1,
                    got.lines().nth(at),
                    want.lines().nth(at)
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(moved.is_empty(), "artefacts moved:\n{}", moved.join("\n"));
}

/// One run, one summary: with task failures on, one of six seeds
/// completes no job, and the terminal table, the CSV and the JSON all
/// describe the five that did — `n` 5, mean 49.65 — where the terminal
/// used to average the `NaN` in and the CSV spelled it out.
#[test]
fn a_seed_that_completes_no_job_is_reported_the_same_three_ways() {
    let sets = [
        "jobs=1",
        "execs=4",
        "runs=6",
        "iters=1",
        "fail=0.3",
        "retries=3",
    ];
    let mut args = vec!["--scenario", "fig09a", "--threads", "2"];
    args.extend(sets.iter().flat_map(|s| ["--set", s]));
    let dir = common::fresh_dir("artefacts_nan_seed");
    let out = common::output_in(&dir, &args);
    assert_eq!(out.status.code(), Some(0));

    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let rows = stdout.lines().map(|l| l.split_whitespace().collect());
    let rows: Vec<Vec<&str>> = rows.collect();
    let fifo = rows.iter().find(|r| r.first() == Some(&"fifo")).unwrap();
    assert_eq!(fifo[..], ["fifo", "49.6", "57.4", "69.5", "5"]);
    let none = "fifo: 1 of 6 seeds completed no job";
    assert!(stdout.lines().any(|l| l.trim() == none), "{stdout}");
    assert!(!stdout.contains("NaN%"), "{stdout}");

    let json = std::fs::read_to_string(dir.join("out/fig09a.json")).unwrap();
    let doc = decima_bench::json::Json::parse(&json).unwrap();
    let fifo = &doc.get("schedulers").unwrap().as_arr().unwrap()[0];
    let summary = fifo.get("summary").unwrap();
    assert_eq!(summary.get("n").unwrap().as_u64(), Some(5));
    let mean = summary.get("mean").unwrap().as_f64().unwrap();
    assert_eq!(format!("{mean:.2}"), "49.65");

    let csv = std::fs::read_to_string(dir.join("out/fig09a.csv")).unwrap();
    assert!(!csv.contains("NaN"), "{csv}");
    assert_eq!(csv.lines().last(), Some("1.000,,,,,,"));
    let cells = csv.lines().skip(1).map(|l| l.split(',').nth(1).unwrap());
    let finite: Vec<f64> = cells.filter_map(|c| c.parse().ok()).collect();
    assert_eq!(finite.len(), 5);
    assert_eq!(format!("{:.2}", finite.iter().sum::<f64>() / 5.0), "49.65");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A figure runs the simulator it echoes: with every task failing and no
/// retry, `fig03`'s four drawn schedules complete nothing — they used to
/// be built from `SimConfig::default()`, echo `fail_prob: 1`, and report
/// every job done.
#[test]
fn fig03_draws_its_schedules_on_the_dynamics_it_echoes() {
    let sets = ["jobs=2", "execs=4", "iters=1", "fail=1", "retries=0"];
    let mut args = vec!["--scenario", "fig03"];
    args.extend(sets.iter().flat_map(|s| ["--set", s]));
    let dir = common::fresh_dir("artefacts_fig03_dynamics");
    let out = common::output_in(&dir, &args);
    assert_eq!(out.status.code(), Some(0));

    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = "Decima vs FIFO: NaN% Decima vs Fair: NaN%";
    assert!(stdout_multiset(&stdout).contains(line), "{stdout}");

    let json = std::fs::read_to_string(dir.join("out/fig03.json")).unwrap();
    let doc = decima_bench::json::Json::parse(&json).unwrap();
    let dynamics = doc
        .get("scenario")
        .and_then(|s| s.get("sim")?.get("dynamics"));
    assert_eq!(
        dynamics.unwrap().get("fail_prob").unwrap().as_f64(),
        Some(1.0)
    );
    let schedulers = doc.get("schedulers").unwrap().as_arr().unwrap();
    assert_eq!(schedulers.len(), 4);
    for s in schedulers {
        assert_eq!(
            s.get("summary").unwrap().get("n").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(s.get("unfinished").unwrap().as_u64(), Some(2), "{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
