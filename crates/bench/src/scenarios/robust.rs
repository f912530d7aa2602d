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

use crate::json::{obj, Json, ToJson};
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table, CSV, TERM};
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

    // The six dynamics counters by name; the terminal abbreviates them.
    let [retries, interrupted, straggled, failed, churn, lost] =
        DynamicsCounters::default().named().map(|(name, _)| name);
    let mut table = Table::new(
        &spec.name,
        [
            Column::new("level").on(CSV),
            Column::new("scheduler").on(TERM),
            Column::new("scheduler").on(CSV),
            Column::new("avg_jct")
                .heading("avg JCT")
                .unit("s")
                .on(TERM | CSV),
            Column::new("unfinished").heading("unfin").on(TERM | CSV),
            Column::new(retries),
            Column::new(interrupted).heading("interr"),
            Column::new(straggled).heading("straggle"),
            Column::new(failed).heading("failed"),
            Column::new(churn).heading("churn"),
            Column::new(lost).heading("lost e·s").unit("s"),
        ],
    );
    for (level_name, dynamics) in &levels {
        let mut level_env = env.clone();
        level_env.sim.dynamics = *dynamics;
        let from = table.len();
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
            let [counts @ .., (_, lost_secs)] = c.named();
            let names = [level_name.as_str(), label.as_str(), csv.as_str()].map(Cell::from);
            let jobs = [series.mean().into(), series.unfinished.into()];
            let counts = counts.map(|(_, n)| Cell::Int(n as u64));
            let row = names.into_iter().chain(jobs).chain(counts);
            table.push(row.chain([lost_secs.into()]));
            report.push_series(series);
        }
        println!("\n== robust: perturbation level '{level_name}' ==");
        table.print_from(from);
    }

    // The JSON of a level: its spec, then each scheduler's counter cells.
    let mut rows = table.json_rows().into_iter();
    let levels = levels.iter().map(|(level_name, dynamics)| {
        let counters = resolved.iter().zip(rows.by_ref());
        let counters = counters.map(|((entry, _), row)| (entry.csv_name(), Json::Obj(row)));
        let counters = Json::Obj(counters.collect());
        let level = obj!("dynamics" => dynamics_json(dynamics), counters);
        (level_name.clone(), level)
    });
    let level_objs = levels.collect();

    report.push_extra("levels", Json::Obj(level_objs));
    report.push_table(table);
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
