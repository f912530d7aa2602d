//! What a scenario run leaves under `out/`, frozen byte for byte: tiny
//! runs of seven scenarios through the built binary, every CSV as it is
//! and every JSON document with `wall_secs` zeroed, against
//! `tests/golden/artefacts/`. Nothing trains (`iters=0`, `ft-iters=0`),
//! so a run is evaluation, aggregation and reporting only — the part a
//! change to the runner must leave alone. Refresh after an intended
//! change with `GOLDEN_UPDATE=1 cargo test -p decima-bench --test artefacts`.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

/// `(scenario, --set pairs, the CSV and JSON files it writes)`.
const RUNS: [(&str, &[&str], &[&str]); 7] = [
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
        "fig11",
        &["iters=0", "jobs=4", "runs=2"],
        &["fig11.json", "fig11_multires.csv"],
    ),
    (
        "robust",
        &["level=low", "iters=0", "jobs=4", "runs=2"],
        &["robust.csv", "robust.json"],
    ),
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
        "fleet",
        &["shards=1,2", "rates=1", "jobs=8"],
        &["fleet.csv", "fleet.json"],
    ),
    (
        "scale",
        &["execs=4", "jobs=20"],
        &["scale.csv", "scale.json"],
    ),
];

/// The document with the one field that is wall-clock set to zero.
fn without_wall_clock(text: &str) -> String {
    let lines = text.lines().map(|l| match l.trim_start() {
        t if t.starts_with("\"wall_secs\": ") => "  \"wall_secs\": 0",
        _ => l,
    });
    lines.flat_map(|l| [l, "\n"]).collect()
}

#[test]
fn tiny_runs_leave_the_frozen_csv_and_json_bytes() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/artefacts");
    let update = std::env::var_os("GOLDEN_UPDATE").is_some();
    let mut moved = Vec::new();
    for (scenario, sets, files) in RUNS {
        let mut args = vec!["--scenario", scenario, "--threads", "2"];
        args.extend(sets.iter().flat_map(|s| ["--set", s]));
        let (dir, code, stderr) = common::decima_exp(&format!("artefacts_{scenario}"), &args);
        assert_eq!((code, stderr.as_str()), (Some(0), ""), "{args:?}");

        let written: BTreeSet<String> = std::fs::read_dir(dir.join("out"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".csv") || f.ends_with(".json"))
            .collect();
        let expected: BTreeSet<String> = files.iter().map(|f| f.to_string()).collect();
        assert_eq!(written, expected, "{scenario}: files under out/");

        for file in files {
            let mut got = std::fs::read_to_string(dir.join("out").join(file)).unwrap();
            if file.ends_with(".json") {
                got = without_wall_clock(&got);
            }
            if update {
                std::fs::create_dir_all(&golden).unwrap();
                std::fs::write(golden.join(file), &got).unwrap();
            }
            let want = std::fs::read_to_string(golden.join(file)).unwrap_or_default();
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
