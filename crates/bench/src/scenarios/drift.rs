//! The `drift` scenario family: scheduler quality under **workload
//! drift** — non-stationary arrival processes (load ramps, diurnal
//! cycles, flash crowds) and a mid-episode job-mix shift — with an
//! **online-adaptation** arm fine-tuned on the drifted environment.
//!
//! Per drift profile the lineup compares four policies:
//!
//! * `frozen` — Decima trained once on the stationary workload, then
//!   evaluated as-is under drift (the deployment that never adapts);
//! * `fine_tuned` — the same base checkpoint, fine-tuned for a few
//!   iterations on the drifted environment with
//!   [`Trainer::fine_tune_window`](decima_rl::Trainer::fine_tune_window)
//!   (a rolling trajectory window), then frozen for evaluation;
//! * `retrain` — Decima retrained from scratch on the drifted
//!   environment (the upper-bound adaptation budget);
//! * the spec's heuristic entries (the best of which defines the
//!   regret baseline together with the policies above).
//!
//! Each `(profile, scheduler, phase)` cell reports the mean per-phase
//! cost (the avg-JCT penalty integral restricted to that phase, from
//! the engine's [`DriftCounters`]) and the **regret** against the best
//! arm in that phase — CSV rows in `out/drift.csv` and a structured
//! `profiles` object in `out/drift.json`. Determinism: fixed seeds +
//! a fixed `DriftSpec` reproduce every number bit-exactly, independent
//! of `--threads` (see docs/DRIFT.md).
//!
//! [`DriftCounters`]: decima_sim::DriftCounters

use crate::json::{obj, Json, ToJson};
use crate::model::train_entry;
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table, CSV, TERM};
use crate::runner::{resolve_lineup, spec_env, spec_episodes, RunOptions};
use crate::scenario::{
    drift_json, LineupEntry, ParamValue, ScenarioSpec, SchedulerSpec, TrainSpec,
};
use decima_rl::SpecEnv;
use decima_sim::{DriftCounters, EpisodeResult};
use decima_workload::{DriftSpec, DRIFT_PROFILE_NAMES};

/// The drift profiles this run sweeps, by the `profile` parameter:
/// `all` (default) sweeps the four named presets; a single name runs
/// the spec's own drift (the preset `--set profile=<name>` loaded,
/// refined by any later overrides).
fn resolve_profiles(spec: &ScenarioSpec) -> Vec<(String, DriftSpec)> {
    let profile = spec.param("profile").and_then(ParamValue::as_text);
    match profile.unwrap_or("all") {
        "all" => DRIFT_PROFILE_NAMES
            .iter()
            .filter_map(|&n| DriftSpec::preset(n).map(|d| (n.to_string(), d)))
            .collect(),
        // `ScenarioSpec::set` refused any name that is not a preset.
        name => vec![(name.to_string(), spec.sim.drift)],
    }
}

/// Per-arm, per-phase aggregation over the seed plan: arrivals and
/// completions summed, cost averaged. A stationary episode (no phase
/// boundaries) degrades to one synthetic phase so `profile=off` still
/// produces well-formed rows.
fn aggregate(results: &[EpisodeResult]) -> DriftCounters {
    let n = results.len().max(1) as f64;
    let phases = results.iter().map(|r| r.drift.phases).max().unwrap_or(0);
    if phases == 0 {
        let cost = results.iter().map(EpisodeResult::total_penalty);
        return DriftCounters {
            phases: 1,
            cost_by_phase: vec![cost.sum::<f64>() / n],
            arrivals_by_phase: vec![results.iter().map(|r| r.jobs.len() as u64).sum()],
            completions_by_phase: vec![results.iter().map(|r| r.completed() as u64).sum()],
        };
    }
    let mut agg = DriftCounters::with_boundaries(phases as usize - 1);
    for r in results {
        for i in 0..phases as usize {
            agg.cost_by_phase[i] += r.drift.cost_by_phase.get(i).copied().unwrap_or(0.0) / n;
            agg.arrivals_by_phase[i] += r.drift.arrivals_by_phase.get(i).copied().unwrap_or(0);
            agg.completions_by_phase[i] +=
                r.drift.completions_by_phase.get(i).copied().unwrap_or(0);
        }
    }
    agg
}

/// Runs the drift sweep.
pub fn run_drift(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let mut report = ScenarioReport::new();
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();
    let profiles = resolve_profiles(spec);
    // The base policy every adaptation arm starts from.
    let train = super::first_train(spec);

    // The stationary environment the base policy trains on: drift off,
    // so no phase boundaries either.
    let mut stationary = env.clone();
    stationary.drift = DriftSpec::off();

    // The base model's checkpoint is the lineage root every fine-tuned
    // arm resumes from. Only a file the caller named is ever reused: a
    // leftover out/drift_base.ckpt would make the run depend on what
    // ran before it.
    let base_path = train.checkpoint.clone().unwrap_or_else(|| {
        let _ = std::fs::remove_file("out/drift_base.ckpt");
        "out/drift_base.ckpt".to_string()
    });
    let base = train.clone().with_checkpoint(&base_path);
    train_entry("base policy on the stationary workload", &base, &stationary)?;
    // The three policy arms are lineup entries like any other, resolved
    // per profile so that profiles never leak adaptation into each
    // other: the frozen one loads the base checkpoint, the fine-tuned
    // one loads and adapts it, the retrain one rebuilds from scratch.
    let arm = |name: &str, sched| LineupEntry {
        label: name.to_string(),
        csv: Some(name.to_string()),
        sched,
    };
    let mut arms = vec![
        arm(
            "frozen",
            SchedulerSpec::DecimaCheckpoint {
                path: base_path.clone(),
            },
        ),
        arm(
            "fine_tuned",
            SchedulerSpec::FineTuned {
                path: base_path,
                iters: spec.usize_param("ft-iters"),
                window: spec.usize_param("ft-window"),
            },
        ),
        arm(
            "retrain",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    checkpoint: None,
                    ..train
                },
            },
        ),
    ];
    // Then the spec's own entries (the registered Decima recipe is what
    // the policy arms above were made from): heuristics, and explicit
    // checkpoint or fine-tuned entries with their own files and budgets.
    let own = spec.lineup.iter().filter(|e| {
        !matches!(
            e.sched,
            SchedulerSpec::Decima { .. } | SchedulerSpec::DecimaUntrained { .. }
        )
    });
    arms.extend(own.map(|e| arm(&e.csv_name(), e.sched.clone())));

    // The engine's per-phase counters keep their names in the JSON.
    let [cost, arrivals, completions] =
        DriftCounters::with_boundaries(0).phase_rows()[0].map(|(name, _)| name);
    let mut table = Table::new(
        &spec.name,
        [
            Column::new("profile").on(CSV),
            Column::new("scheduler").on(TERM | CSV),
            Column::new("phase").on(TERM | CSV),
            Column::new("phases").on(CSV),
            Column::new("mean_cost").json(cost).digits(4, 1),
            Column::new("regret").json("regret_by_phase").digits(4, 1),
            Column::new("arrivals").json(arrivals),
            Column::new("completions")
                .heading("compl")
                .json(completions),
        ],
    );
    let mut profile_objs: Vec<(String, Json)> = Vec::new();
    for (profile_name, drift) in &profiles {
        // The drifted evaluation/adaptation environment for this profile.
        let mut penv: SpecEnv = env.clone();
        penv.drift = *drift;
        println!("\n== drift: profile '{profile_name}' ==");

        let mut aggs: Vec<(String, DriftCounters)> = Vec::new();
        for (arm, trained) in resolve_lineup(&arms, &penv, opts.threads, &mut report)? {
            let results = spec_episodes(&arm.sched, trained.as_ref(), &penv, &seeds, opts.threads);
            report.push_series(SeriesReport::of(
                format!("{} @{profile_name}", arm.label),
                format!("{profile_name}_{}", arm.label),
                &results,
            ));
            aggs.push((arm.label, aggregate(&results)));
        }

        // Per-phase regret against the best arm in that phase.
        let phases = aggs.iter().map(|(_, a)| a.phases).max().unwrap_or(1) as usize;
        let best: Vec<f64> = (0..phases)
            .map(|i| {
                aggs.iter()
                    .map(|(_, a)| a.cost_by_phase.get(i).copied().unwrap_or(f64::INFINITY))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();

        let from = table.len();
        let mut sched_objs: Vec<(String, Json)> = Vec::new();
        for (name, agg) in &aggs {
            let first = table.len();
            for (i, [cost, arrivals, completions]) in agg.phase_rows().into_iter().enumerate() {
                table.push([
                    profile_name.as_str().into(),
                    name.as_str().into(),
                    i.into(),
                    agg.phases.into(),
                    cost.1.into(),
                    (cost.1 - best[i]).into(),
                    Cell::Int(arrivals.1 as u64),
                    Cell::Int(completions.1 as u64),
                ]);
            }
            sched_objs.push((name.clone(), table.json_columns(first..table.len())));
        }
        table.print_from(from);
        let schedulers = Json::Obj(sched_objs);
        let profile = obj!("drift" => drift_json(drift), phases, schedulers);
        profile_objs.push((profile_name.clone(), profile));
    }

    report.push_extra("profiles", Json::Obj(profile_objs));
    report.push_table(table);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;
    use crate::{make_scheduler, run_episode};
    use decima_rl::EnvFactory as _;
    use decima_workload::DriftProfile;

    fn drift_spec() -> ScenarioSpec {
        ScenarioRegistry::standard()
            .get("drift")
            .expect("drift registered")
            .spec
            .clone()
    }

    #[test]
    fn default_sweep_covers_all_presets() {
        let profiles = resolve_profiles(&drift_spec());
        let names: Vec<&str> = profiles.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, DRIFT_PROFILE_NAMES);
        for (name, d) in &profiles {
            assert_eq!(&d.profile_name().to_string(), name);
            assert!(d.enabled());
        }
    }

    /// `--set profile=<name>` narrows the sweep to the spec's own drift,
    /// honoring the loaded preset.
    #[test]
    fn named_profile_uses_spec_drift() {
        let mut spec = drift_spec();
        spec.set("profile", "flash").unwrap();
        let profiles = resolve_profiles(&spec);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].0, "flash");
        assert_eq!(profiles[0].1, DriftSpec::preset("flash").unwrap());
    }

    /// The `profile` knob hard-errors outside the drift scenario instead
    /// of being silently ignored.
    #[test]
    fn profile_is_drift_only() {
        let mut spec = drift_spec();
        spec.set("profile", "diurnal").unwrap();
        assert!(matches!(
            spec.sim.drift.profile,
            DriftProfile::Diurnal { .. }
        ));
        assert!(spec.set("profile", "apocalyptic").is_err());

        let mut other = ScenarioRegistry::standard()
            .get("fig09a")
            .unwrap()
            .spec
            .clone();
        let err = other.set("profile", "diurnal").unwrap_err();
        assert!(err.contains("drift-only"), "{err}");
    }

    /// Stationary results aggregate into one synthetic phase, so
    /// `profile=off` still emits well-formed rows.
    #[test]
    fn aggregate_degrades_to_one_phase_without_boundaries() {
        let env = SpecEnv::new(decima_workload::WorkloadSpec::tpch_batch(2, 5));
        let (cluster, jobs, cfg) = env.build(7);
        let r = run_episode(
            &cluster,
            &jobs,
            &cfg,
            make_scheduler(&SchedulerSpec::SjfCp, 5, None),
        );
        let agg = aggregate(std::slice::from_ref(&r));
        assert_eq!(agg.phases, 1);
        assert_eq!(agg.cost_by_phase.len(), 1);
        assert!((agg.cost_by_phase[0] - r.total_penalty()).abs() < 1e-9);
        assert_eq!(agg.arrivals_by_phase, vec![r.jobs.len() as u64]);
        assert_eq!(agg.completions_by_phase, vec![r.completed() as u64]);
    }

    /// Drifted episodes land arrivals/cost in real phases and conserve
    /// tasks across the aggregation.
    #[test]
    fn aggregate_splits_cost_across_phases() {
        let mut spec = drift_spec();
        spec.set("jobs", "6").unwrap();
        spec.set("profile", "diurnal").unwrap();
        let env = spec_env(&spec);
        let (cluster, jobs, cfg) = env.build(19_000);
        assert!(!cfg.phase_boundaries.is_empty());
        let r = run_episode(
            &cluster,
            &jobs,
            &cfg,
            make_scheduler(&SchedulerSpec::SjfCp, spec.executors(), None),
        );
        let agg = aggregate(std::slice::from_ref(&r));
        assert_eq!(agg.phases, 5, "diurnal has 4 boundaries = 5 phases");
        assert_eq!(agg.total_arrivals(), jobs.len() as u64);
        let total = agg.total_cost();
        assert!((total - r.total_penalty()).abs() <= 1e-9 * r.total_penalty().abs().max(1.0));
    }
}
