//! The spec layer's tests: the frozen echo, `--set` on structured
//! fields, knobs and declared parameters, and the checkpoint naming.

use super::*;
use decima_sim::DynamicsSpec;
use decima_workload::{DriftSpec, WorkloadSpec};

fn demo_spec() -> ScenarioSpec {
    ScenarioBuilder::new("demo", "Demo scenario")
        .paper_ref("§0")
        .workload(WorkloadSpec::tpch_batch(4, 6))
        .seeds(100, 3)
        .sched(SchedulerSpec::Fifo)
        .entry_csv(
            "opt-weighted-fair",
            "opt_wf",
            SchedulerSpec::TunedWeightedFair {
                tune_start: 2000,
                tune_count: 10,
            },
        )
        .decima(TrainSpec::standard(5, 11).with_checkpoint("out/m.ckpt"))
        .entry(
            "saved",
            SchedulerSpec::DecimaCheckpoint {
                path: "out/other.ckpt".into(),
            },
        )
        .report(ReportKind::CdfCsv)
        .param("iters", 5.0)
        .flag("verbose", false)
        .note("paper shape: everything works")
        .build()
}

/// The spec echo is write-only (results stay self-describing; CI and
/// readers grep it), so its format is pinned as text. Refresh
/// `tests/golden/demo_spec_echo.json` by hand when a field is added.
#[test]
fn demo_spec_echo_matches_the_frozen_golden() {
    let mut spec = demo_spec();
    spec.sim.dynamics = DynamicsSpec::level("med").unwrap();
    spec.sim.drift = DriftSpec::preset("ramp").unwrap();
    assert_eq!(
        spec.to_json().render(),
        include_str!("../../tests/golden/demo_spec_echo.json").trim_end()
    );
}

#[test]
fn seed_plan_parsing() {
    let plan = SeedPlan {
        start: 10,
        count: 5,
    };
    assert_eq!(
        plan.parse("0..40").unwrap(),
        SeedPlan {
            start: 0,
            count: 40
        }
    );
    assert_eq!(
        plan.parse("7").unwrap(),
        SeedPlan {
            start: 10,
            count: 7
        }
    );
    assert!(plan.parse("9..3").is_err());
    assert!(plan.parse("x..y").is_err());
    assert_eq!(plan.seeds(), vec![10, 11, 12, 13, 14]);
}

#[test]
fn set_overrides_structured_fields() {
    let declared = ScenarioBuilder { spec: demo_spec() };
    let mut spec = declared
        .param("custom-knob", 0.0)
        .flag("flaggy", false)
        .build();
    spec.set("execs", "30").unwrap();
    spec.set("jobs", "8").unwrap();
    spec.set("runs", "12").unwrap();
    spec.set("iters", "9").unwrap();
    spec.set("custom-knob", "2.5").unwrap();
    spec.set("flaggy", "true").unwrap();
    assert_eq!(spec.workload.as_ref().unwrap().executors, 30);
    assert_eq!(spec.workload.as_ref().unwrap().num_jobs(), 8);
    assert_eq!(spec.seeds.count, 12);
    match &spec.lineup[2].sched {
        SchedulerSpec::Decima { train } => assert_eq!(train.iters, 9),
        _ => unreachable!(),
    }
    assert_eq!(spec.num_param("custom-knob"), 2.5);
    assert!(spec.flag_param("flaggy"));
    assert!(spec.set("execs", "abc").is_err());
}

#[test]
fn checkpoint_override_rewrites_decima_entries_only() {
    let mut spec = demo_spec();
    spec.set("checkpoint", "/tmp/new.ckpt").unwrap();
    match &spec.lineup[2].sched {
        SchedulerSpec::Decima { train } => {
            assert_eq!(train.checkpoint.as_deref(), Some("/tmp/new.ckpt"));
        }
        other => panic!("{other:?}"),
    }
    // Pre-resolved checkpoint entries are untouched by the override.
    match &spec.lineup[3].sched {
        SchedulerSpec::DecimaCheckpoint { path } => assert_eq!(path, "out/other.ckpt"),
        other => panic!("{other:?}"),
    }
}

/// With several Decima entries (ablations, different training
/// workloads), `--set checkpoint=` must give each its own file —
/// sharing one path would silently evaluate one model everywhere.
#[test]
fn checkpoint_override_disambiguates_multiple_decima_entries() {
    let mut spec = ScenarioBuilder::new("multi", "Two trained entries")
        .workload(WorkloadSpec::tpch_batch(4, 6))
        .entry(
            "decima",
            SchedulerSpec::Decima {
                train: TrainSpec::standard(5, 11),
            },
        )
        .entry(
            "decima (no durations)",
            SchedulerSpec::Decima {
                train: TrainSpec::standard(5, 12),
            },
        )
        .build();
    spec.set("checkpoint", "out/m.ckpt").unwrap();
    let paths: Vec<String> = spec
        .lineup
        .iter()
        .map(|e| match &e.sched {
            SchedulerSpec::Decima { train } => train.checkpoint.clone().unwrap(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(paths[0], "out/m.decima.ckpt");
    assert_eq!(paths[1], "out/m.decima_no_durations.ckpt");
    assert_ne!(paths[0], paths[1]);
    // Extension-less base paths still disambiguate.
    spec.set("checkpoint", "out/checkpoints/model").unwrap();
    match &spec.lineup[0].sched {
        SchedulerSpec::Decima { train } => {
            assert_eq!(
                train.checkpoint.as_deref(),
                Some("out/checkpoints/model.decima")
            );
        }
        other => panic!("{other:?}"),
    }
}

/// Satellite coverage: every dynamics knob is reachable with
/// `--set`, and `level=` applies whole presets (rejecting unknown
/// names).
#[test]
fn set_overrides_dynamics_knobs() {
    let mut spec = demo_spec();
    assert!(!spec.sim.dynamics.enabled());
    spec.set("churn", "90").unwrap();
    spec.set("outage", "12").unwrap();
    spec.set("fail", "0.04").unwrap();
    spec.set("retries", "7").unwrap();
    spec.set("straggle", "0.2").unwrap();
    spec.set("straggle-factor", "5").unwrap();
    assert_eq!(
        spec.sim.dynamics,
        DynamicsSpec {
            churn_iat: 90.0,
            outage_mean: 12.0,
            fail_prob: 0.04,
            max_retries: 7,
            straggler_prob: 0.2,
            straggler_factor: 5.0,
        }
    );
    assert!(spec.sim.dynamics.enabled());
    assert!(spec.set("fail", "lots").is_err(), "non-numeric rejected");

    // `level` is interpreted by the robust scenario only.
    spec.name = "robust".into();
    // Presets overwrite the whole model and record the level param.
    spec.set("level", "high").unwrap();
    assert_eq!(spec.sim.dynamics, DynamicsSpec::high());
    assert_eq!(spec.text_param("level"), "high");
    spec.set("level", "off").unwrap();
    assert!(!spec.sim.dynamics.enabled());
    // "all" (the robust sweep marker) and "custom" (use the knobs
    // as set) touch the param only, never the structured model.
    spec.set("churn", "50").unwrap();
    spec.set("level", "all").unwrap();
    assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
    assert_eq!(spec.text_param("level"), "all");
    spec.set("level", "custom").unwrap();
    assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
    assert_eq!(spec.text_param("level"), "custom");
    assert!(spec.set("level", "apocalyptic").is_err());
}

/// `--set level=` outside the robust scenario is a hard error (it
/// would be silently ignored), and the error names the knobs that
/// do work everywhere.
#[test]
fn level_outside_robust_is_rejected() {
    let mut spec = demo_spec();
    for value in ["high", "all", "custom"] {
        let err = spec.set("level", value).unwrap_err();
        assert!(err.contains("robust-only"), "{err}");
        assert!(
            err.contains("churn="),
            "error must name the valid knobs: {err}"
        );
    }
    // The direct dynamics knobs stay available to every scenario.
    spec.set("churn", "120").unwrap();
    assert_eq!(spec.sim.dynamics.churn_iat, 120.0);
}

/// A key that is neither a table row nor a declared parameter is an
/// error naming what the scenario takes; a declared parameter only
/// takes its declared kind.
#[test]
fn undeclared_keys_and_wrong_kinds_are_rejected() {
    let declared = ScenarioBuilder { spec: demo_spec() };
    let mut spec = declared.count("reps", 10).text("tag", "a").build();
    let before = spec.clone();
    let err = spec.set("exces", "30").unwrap_err();
    assert!(
        err.starts_with("unknown key 'exces' for scenario 'demo', which takes execs=, jobs=,"),
        "{err}"
    );
    assert!(
        err.ends_with("straggle-factor=, verbose=, reps=, tag="),
        "{err}"
    );
    let cases = [
        ("reps", "ten", "'reps' needs a numeric value, got 'ten'"),
        (
            "reps",
            "-3",
            "'reps' must be a non-negative integer, got -3",
        ),
        (
            "reps",
            "2.5",
            "'reps' must be a non-negative integer, got 2.5",
        ),
        (
            "iters",
            "inf",
            "'iters' must be a non-negative integer, got inf",
        ),
        ("verbose", "1", "'verbose' needs true or false, got '1'"),
        ("runs", "0", "seed range '0' selects no seed"),
        ("seeds", "5..5", "seed range '5..5' selects no seed"),
        (
            "seeds",
            "0..99999999",
            "seed range '0..99999999' selects more than 1000000 seeds",
        ),
    ];
    for (key, value, want) in cases {
        assert_eq!(spec.set(key, value), Err(want.to_string()), "{key}={value}");
    }
    assert_eq!(spec, before, "a refused value changes nothing");
    spec.set("reps", "12").unwrap();
    spec.set("tag", "anything at all").unwrap();
    spec.set("verbose", "true").unwrap();
    assert_eq!(spec.usize_param("reps"), 12);
    assert_eq!(spec.text_param("tag"), "anything at all");
    assert!(spec.flag_param("verbose"));
}

#[test]
fn sanitize_labels() {
    assert_eq!(sanitize("opt-weighted-fair"), "opt_weighted_fair");
    assert_eq!(sanitize("Q9 @ 2 GB"), "q9_2_gb");
    assert_eq!(sanitize("graphene*"), "graphene");
}

#[test]
fn csv_name_prefers_explicit() {
    let spec = demo_spec();
    assert_eq!(spec.lineup[0].csv_name(), "fifo");
    assert_eq!(spec.lineup[1].csv_name(), "opt_wf");
}
