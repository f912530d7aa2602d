//! The `robust` scenario family: scheduler quality under cluster
//! dynamics (executor churn, bounded-retry task failures, stragglers).
//!
//! The lineup — heuristics plus trained and untrained Decima — is
//! resolved once on the unperturbed evaluation environment, then
//! evaluated over the seed plan at **escalating perturbation levels**
//! (`off → low → med → high` by default; restrict with `--set
//! level=low`, or `--set level=custom` to use the spec's own
//! `--set churn=…/fail=…/straggle=…` knobs — which are honored even
//! without an explicit level: they run as a single `custom` level
//! rather than being dropped by the preset sweep). Each `(level, scheduler)`
//! cell reports the mean avg JCT, unfinished jobs, and the dynamics
//! counters (retries, interrupted tasks, stragglers, failed jobs, churn
//! events, lost executor-seconds) — CSV rows in `out/robust.csv`, and a
//! structured `levels` object in `out/robust.json`. Determinism: fixed
//! seeds + a fixed `DynamicsSpec` reproduce every number bit-exactly,
//! independent of `--threads` (see docs/ROBUSTNESS.md).

use crate::json::Json;
use crate::report::{ScenarioReport, SeriesReport};
use crate::runner::{resolve_lineup, spec_env, spec_episodes, RunOptions};
use crate::scenario::{dynamics_json, ParamValue, ScenarioSpec};
use decima_rl::SpecEnv;
use decima_sim::{DynamicsCounters, DynamicsSpec};

/// The perturbation levels this run sweeps, by the `level` parameter.
/// Explicit dynamics knobs (`--set churn=…` etc.) are always honored:
/// without a `level` they run as a single `custom` level instead of
/// being silently dropped by the preset sweep, and with `--set
/// level=<name>` any knobs applied *after* the level refine that
/// preset (flag order wins, like the rest of `--set`).
fn resolve_levels(spec: &ScenarioSpec) -> Result<Vec<(String, DynamicsSpec)>, String> {
    // `level=custom` needs a knob.
    spec.check()?;
    let level = spec.param("level").and_then(ParamValue::as_text);
    Ok(match level.unwrap_or("all") {
        "all" if !spec.sim.dynamics.enabled() => vec![
            ("off".into(), DynamicsSpec::off()),
            ("low".into(), DynamicsSpec::low()),
            ("med".into(), DynamicsSpec::med()),
            ("high".into(), DynamicsSpec::high()),
        ],
        "all" => {
            println!(
                "note: explicit dynamics knobs set; running them as level 'custom' \
                 (reset the knobs for the off→low→med→high preset sweep)"
            );
            vec![("custom".into(), spec.sim.dynamics)]
        }
        // `custom` is the spec's own dynamics knobs (set via --set
        // churn=… etc.); `--set level=<name>` loaded the preset into
        // sim.dynamics and later knob overrides refined it. Either way,
        // use what the spec says.
        name => vec![(name.to_string(), spec.sim.dynamics)],
    })
}

/// The environment Decima lineup entries train on: unperturbed for the
/// preset sweep (measuring how clean-trained policies degrade), but the
/// spec's own dynamics for a single `custom` level — explicit
/// `churn=/fail=/straggle=` knobs describe the deployment the caller
/// wants a policy *for*, so training silently dropping them was a bug.
fn robust_train_env(env: &SpecEnv, levels: &[(String, DynamicsSpec)]) -> SpecEnv {
    let mut train_env = env.clone();
    train_env.sim.dynamics = match levels {
        [(name, dynamics)] if name == "custom" => *dynamics,
        _ => DynamicsSpec::off(),
    };
    train_env
}

/// A mean JCT as a CSV cell: empty (not the literal `NaN`) when no job
/// completed — e.g. every job exhausted its retry budget — so numeric
/// consumers of `out/robust.csv` see a missing value, not a non-numeric
/// token.
fn csv_mean(mean: f64) -> String {
    if mean.is_finite() {
        format!("{mean:.2}")
    } else {
        String::new()
    }
}

/// Runs the robustness sweep.
pub fn run_robust(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let mut report = ScenarioReport::new();
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();
    let levels = resolve_levels(spec)?;

    // Resolve the lineup once. For the named preset sweep, Decima
    // entries train (or load their checkpoint) on the *unperturbed*
    // evaluation environment, so the sweep measures how clean-trained
    // policies degrade. A `custom` level is different: the caller asked
    // for one explicit perturbation point, so the entry trains under
    // exactly those dynamics. (To evaluate a separately trained model,
    // point a `decima-ckpt:<path>` entry at its checkpoint.)
    let train_env = robust_train_env(&env, &levels);
    let resolved = resolve_lineup(&spec.lineup, &train_env, opts.threads, &mut report)?;

    let mut rows = Vec::new();
    let mut level_objs: Vec<(String, Json)> = Vec::new();
    for (level_name, dynamics) in &levels {
        let mut level_env = env.clone();
        level_env.sim.dynamics = *dynamics;
        println!("\n== robust: perturbation level '{level_name}' ==");
        println!(
            "{:<22} {:>9} {:>6} {:>8} {:>8} {:>9} {:>7} {:>7} {:>10}",
            "scheduler",
            "avg JCT",
            "unfin",
            "retries",
            "interr",
            "straggle",
            "failed",
            "churn",
            "lost e·s"
        );
        let mut sched_objs: Vec<(String, Json)> = Vec::new();
        for (entry, trained) in &resolved {
            let (label, csv) = (&entry.label, entry.csv_name());
            let results = spec_episodes(
                &entry.sched,
                trained.as_ref(),
                &level_env,
                &seeds,
                opts.threads,
            );
            let series = SeriesReport::of(
                format!("{label} @{level_name}"),
                format!("{level_name}_{csv}"),
                &results,
            );
            let mut c = DynamicsCounters::default();
            results.iter().for_each(|r| c += r.dynamics);
            println!(
                "{:<22} {:>8.1}s {:>6} {:>8} {:>8} {:>9} {:>7} {:>7} {:>9.1}s",
                label,
                series.mean(),
                series.unfinished,
                c.retries,
                c.interrupted,
                c.straggled,
                c.failed_jobs,
                c.churn_events,
                c.lost_exec_seconds
            );
            let [counts @ .., (_, lost_secs)] = c.named();
            let counts = counts.map(|(_, n)| n.to_string()).join(",");
            rows.push(format!(
                "{level_name},{csv},{},{},{counts},{lost_secs:.2}",
                csv_mean(series.mean()),
                series.unfinished,
            ));
            let counters = c.named().map(|(name, n)| (name, Json::Num(n)));
            sched_objs.push((csv, Json::obj(counters)));
            report.push_series(series);
        }
        level_objs.push((
            level_name.clone(),
            Json::obj([
                ("dynamics", dynamics_json(dynamics)),
                ("counters", Json::Obj(sched_objs)),
            ]),
        ));
    }

    report.push_extra("levels", Json::Obj(level_objs));
    let counters = DynamicsCounters::default().named().map(|(name, _)| name);
    let header = format!("level,scheduler,avg_jct,unfinished,{}", counters.join(","));
    report.push_table(&spec.name, &header, rows);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_scheduler;
    use crate::registry::ScenarioRegistry;
    use crate::scenario::SchedulerSpec;
    use decima_rl::EnvFactory as _;

    fn robust_spec() -> ScenarioSpec {
        ScenarioRegistry::standard()
            .get("robust")
            .expect("robust registered")
            .spec
            .clone()
    }

    #[test]
    fn default_sweep_escalates() {
        let levels = resolve_levels(&robust_spec()).unwrap();
        let names: Vec<&str> = levels.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["off", "low", "med", "high"]);
        assert_eq!(levels[0].1, DynamicsSpec::off());
        assert_eq!(levels[3].1, DynamicsSpec::high());
    }

    /// Explicit knobs without a level are honored (as `custom`), never
    /// silently dropped by the preset sweep.
    #[test]
    fn explicit_knobs_run_as_custom() {
        let mut spec = robust_spec();
        spec.set("fail", "0.5").unwrap();
        let levels = resolve_levels(&spec).unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].0, "custom");
        assert_eq!(levels[0].1.fail_prob, 0.5);
    }

    /// Knobs applied after `--set level=<name>` refine that preset.
    #[test]
    fn named_level_honors_later_knob_overrides() {
        let mut spec = robust_spec();
        spec.set("level", "med").unwrap();
        spec.set("fail", "0.5").unwrap();
        let levels = resolve_levels(&spec).unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].0, "med");
        assert_eq!(levels[0].1.fail_prob, 0.5, "override on top of the preset");
        assert_eq!(levels[0].1.churn_iat, DynamicsSpec::med().churn_iat);
    }

    #[test]
    fn csv_mean_blanks_out_nan() {
        assert_eq!(csv_mean(12.345), "12.35");
        assert_eq!(csv_mean(f64::NAN), "");
        assert_eq!(csv_mean(f64::INFINITY), "");
    }

    #[test]
    fn custom_level_uses_spec_dynamics() {
        let mut spec = robust_spec();
        spec.set("churn", "60").unwrap();
        spec.set("level", "custom").unwrap();
        let levels = resolve_levels(&spec).unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].0, "custom");
        assert_eq!(levels[0].1.churn_iat, 60.0);
    }

    /// `level=custom` with no knob set would run unperturbed — refuse.
    #[test]
    #[should_panic(expected = "level=custom without any dynamics knob")]
    fn custom_level_without_knobs_is_rejected() {
        let mut spec = robust_spec();
        spec.set("level", "custom").unwrap();
        resolve_levels(&spec).unwrap();
    }

    /// The named presets keep the documented unperturbed-training
    /// behavior: the sweep measures clean-trained degradation.
    #[test]
    fn preset_levels_train_unperturbed() {
        let mut spec = robust_spec();
        spec.set("level", "med").unwrap();
        let env = spec_env(&spec);
        let train_env = robust_train_env(&env, &resolve_levels(&spec).unwrap());
        assert_eq!(train_env.sim.dynamics, DynamicsSpec::off());
        let sweep = robust_train_env(&env, &resolve_levels(&robust_spec()).unwrap());
        assert_eq!(sweep.sim.dynamics, DynamicsSpec::off());
    }

    /// Regression (PR-5 caveat): under `level=custom` the Decima entry
    /// now trains on the spec's own dynamics instead of silently
    /// training on the unperturbed environment — a training episode
    /// records the custom perturbation's counters, where the old
    /// training environment recorded all zeros.
    #[test]
    fn custom_level_trains_under_its_own_dynamics() {
        let mut spec = robust_spec();
        spec.set("churn", "60").unwrap();
        spec.set("fail", "0.2").unwrap();
        spec.set("level", "custom").unwrap();
        let env = spec_env(&spec);
        let train_env = robust_train_env(&env, &resolve_levels(&spec).unwrap());
        assert_eq!(train_env.sim.dynamics, spec.sim.dynamics);
        assert!(train_env.sim.dynamics.enabled());

        let executors = env.workload.executors;
        let run = |e: &SpecEnv| {
            let (cluster, jobs, cfg) = e.build(11_000);
            crate::run_episode(
                &cluster,
                &jobs,
                &cfg,
                make_scheduler(&SchedulerSpec::Fifo, executors, None),
            )
        };
        let perturbed = run(&train_env);
        let clean = run(&robust_train_env(
            &env,
            &resolve_levels(&robust_spec()).unwrap(),
        ));
        assert_eq!(clean.dynamics, DynamicsCounters::default());
        assert_ne!(
            perturbed.dynamics, clean.dynamics,
            "custom training episodes must actually be perturbed"
        );
    }
}
