//! Byte-level oracle for every job list the workload generators build:
//! the FNV-1a hash of the cluster's `Debug` rendering followed by each
//! job's simulated fields (see [`render`]) for every [`WorkloadSource`]
//! shape, under every drift preset and drift off, at
//! four seeds, plus the jobs of the named stream constructors at three
//! seeds each. Arrival times are drawn before the job bodies, and the
//! bodies in arrival order, from one RNG; a change that moves one draw
//! moves a row here.
//!
//! `GOLDEN_UPDATE=1 cargo test -p decima-workload --test generator_golden`
//! rewrites `tests/golden/generator.txt`.

use decima_core::JobSpec;
use decima_workload::{
    tpch_batch, tpch_stream, tpch_stream_with_memory, AlibabaConfig, DriftSpec, WorkloadSource,
    WorkloadSpec, DRIFT_PROFILE_NAMES,
};

const SEEDS: [u64; 4] = [0, 1, 7, 12345];
const CONSTRUCTOR_SEEDS: [u64; 3] = [0, 7, 12345];

/// FNV-1a over the bytes of a `Debug` rendering.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Debug` of each job's id, arrival, DAG, stages and inflation curve:
/// every field a simulation reads.
fn render(jobs: &[JobSpec]) -> String {
    jobs.iter()
        .map(|j| {
            format!(
                "{:?}{:?}{:?}{:?}{:?}",
                j.id, j.arrival, j.dag, j.stages, j.inflation
            )
        })
        .collect()
}

/// One spec per `WorkloadSource` shape; the streams are long enough to
/// cross every drift preset's boundaries.
fn shapes() -> Vec<(&'static str, WorkloadSpec)> {
    let spec = |source| WorkloadSpec {
        source,
        executors: 10,
        move_delay: 1.0,
    };
    let mut memory = WorkloadSpec::tpch_stream(30, 10, 20.0);
    if let WorkloadSource::Tpch { random_memory, .. } = &mut memory.source {
        *random_memory = true;
    }
    vec![
        ("tpch_batch", WorkloadSpec::tpch_batch(30, 10)),
        ("tpch_stream", WorkloadSpec::tpch_stream(30, 10, 20.0)),
        ("tpch_stream_memory", memory),
        (
            "tpch_mixed_iat",
            spec(WorkloadSource::TpchMixedIat {
                num_jobs: 30,
                lo_iat: 10.0,
                hi_iat: 40.0,
                task_scale: 8.0,
            }),
        ),
        ("alibaba", WorkloadSpec::alibaba_small(30, 10, 20.0)),
        (
            "single_tpch",
            spec(WorkloadSource::SingleTpch {
                query: 9,
                gb: 50.0,
                task_scale: 4.0,
            }),
        ),
        (
            "tpch_suite",
            spec(WorkloadSource::TpchSuite {
                gb: 10.0,
                task_scale: 8.0,
            }),
        ),
        ("appendix_dag", WorkloadSpec::appendix_dag()),
    ]
}

/// The Alibaba stream at the generator's default configuration, built
/// through its `WorkloadSource` so the pin names no constructor
/// signature.
fn alibaba_default_stream(n: usize, mean_iat: f64, seed: u64) -> String {
    let spec = WorkloadSpec {
        source: WorkloadSource::Alibaba {
            num_jobs: n,
            mean_iat,
            gen: AlibabaConfig::default(),
        },
        executors: 10,
        move_delay: 1.0,
    };
    render(&spec.build(seed).1)
}

/// A named constructor at one seed, rendered with [`render`].
type Rendered = fn(u64) -> String;

fn fingerprints() -> String {
    let mut out = String::new();
    for (shape, spec) in shapes() {
        for drift in std::iter::once("off").chain(DRIFT_PROFILE_NAMES) {
            let preset = DriftSpec::preset(drift).expect("a preset name");
            for seed in SEEDS {
                let (cluster, jobs) = spec.build_drifting(&preset, seed);
                let hash = fnv(&format!("{cluster:?}{}", render(&jobs)));
                out += &format!("{shape} {drift} {seed} {hash:016x}\n");
            }
        }
    }
    let constructors: [(&str, Rendered); 4] = [
        ("tpch_batch", |s| render(&tpch_batch(20, s))),
        ("tpch_stream", |s| render(&tpch_stream(20, 25.0, s))),
        ("tpch_stream_with_memory", |s| {
            render(&tpch_stream_with_memory(20, 25.0, s))
        }),
        ("alibaba_stream", |s| alibaba_default_stream(20, 25.0, s)),
    ];
    for (name, build) in constructors {
        for seed in CONSTRUCTOR_SEEDS {
            out += &format!("{name} {seed} {:016x}\n", fnv(&build(seed)));
        }
    }
    out
}

#[test]
fn every_job_list_matches_the_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/generator.txt");
    let text = fingerprints();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, &text).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); generate it with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    let moved: Vec<_> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, then)| now != then)
        .collect();
    assert!(
        moved.is_empty(),
        "job lists moved (now, golden): {moved:#?}"
    );
    assert_eq!(text.lines().count(), 172);
    assert_eq!(text, golden);
}
