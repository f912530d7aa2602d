//! `exp_e2e`: the top of the stack a user actually runs — three
//! registered scenarios through `ScenarioRegistry::standard()` and
//! `run_scenario`, in process, on `min(2, nproc)` threads.
//!
//! `fig09a` (tuning sweep, training, seed-parallel evaluation, CDF CSV),
//! `fleet` (shard × rate sweep on the shard pool) and `drift` (training,
//! checkpoint save and load, fine-tuning, drift generation) between
//! them cross spec overrides, `par_map`, both codecs and the reporters.
//! The scenarios print as they go; the driver captures that.

use super::{caught, input_seed, Round, Workload};
use crate::host::pool_width;
use crate::metrics::Values;
use crate::trace::Tracer;
use decima_bench::factory::build_trainer;
use decima_bench::json::Json;
use decima_bench::registry::ScenarioRegistry;
use decima_bench::report::ScenarioReport;
use decima_bench::runner::{
    eval_series, run_scenario, spec_env, train_decima_entry, RunOptions, Scenario,
};
use decima_bench::scenario::SchedulerSpec;
use decima_rl::Trainer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The base checkpoint `drift` writes and, when it finds one, loads
/// instead of training; removed before every round so rounds repeat.
const DRIFT_CKPT: &str = "out/drift_base.ckpt";

/// Overrides that size the three scenarios.
#[derive(Clone, Debug)]
pub struct ExpSpec {
    /// `(scenario, [(key, value)])`, run in this order.
    pub scenarios: Vec<(&'static str, Vec<(&'static str, &'static str)>)>,
    /// Rounds in a pass (see `Workload::count_rounds`).
    pub count_rounds: usize,
    /// The scenario set-up passes through once.
    pub warmup: &'static str,
}

impl ExpSpec {
    /// The full-size workload: the issue's three scenarios with their
    /// repeat counts (training iterations, evaluation runs) cut so that
    /// a round takes about two seconds and a run fits several.
    pub fn exp_e2e() -> Self {
        ExpSpec {
            scenarios: vec![
                (
                    "fig09a",
                    vec![("iters", "4"), ("jobs", "10"), ("runs", "8")],
                ),
                (
                    "fleet",
                    vec![
                        ("jobs", "400"),
                        ("shards", "1,2,4"),
                        ("rates", "1,2"),
                        ("router", "rr"),
                    ],
                ),
                (
                    "drift",
                    vec![
                        ("iters", "1"),
                        ("ft-iters", "2"),
                        ("jobs", "5"),
                        ("runs", "2"),
                    ],
                ),
            ],
            count_rounds: 3,
            warmup: "fleet",
        }
    }
}

/// The span and metric names of a scenario's run.
fn scenario_names(name: &str) -> (&'static str, &'static str) {
    match name {
        "fig09a" => (
            "bench.runner.scenario.fig09a",
            "bench.runner.scenario_s.fig09a",
        ),
        "fleet" => (
            "bench.runner.scenario.fleet",
            "bench.runner.scenario_s.fleet",
        ),
        "drift" => (
            "bench.runner.scenario.drift",
            "bench.runner.scenario_s.drift",
        ),
        _ => ("bench.runner.scenario.other", "_scenario_s.other"),
    }
}

/// The experiment workload after set-up.
pub struct Exp {
    /// The scenarios with their overrides applied and their registered
    /// seeds.
    scenarios: Vec<Scenario>,
    seed: u64,
    count_rounds: usize,
    opts: RunOptions,
    next_op: u64,
}

impl Exp {
    /// Resolves the scenarios and applies the overrides; the process
    /// moves into `dir`, where the scenarios write
    /// `out/<name>.{json,csv}`.
    pub fn setup(
        spec: ExpSpec,
        seed: u64,
        dir: &Path,
        tr: &mut Tracer,
        _vals: &mut Values,
    ) -> Self {
        let scenarios = tr.span("bench.registry", 0, |_| {
            let registry = ScenarioRegistry::standard();
            spec.scenarios
                .iter()
                .map(|(name, sets)| {
                    let mut sc = registry
                        .get(name)
                        .unwrap_or_else(|| panic!("scenario '{name}' is not registered"))
                        .clone();
                    for (k, v) in sets {
                        sc.spec
                            .set(k, v)
                            .unwrap_or_else(|e| panic!("{name}: --set {k}={v}: {e}"));
                    }
                    sc
                })
                .collect()
        });
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        std::env::set_current_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        let exp = Exp {
            scenarios,
            seed,
            count_rounds: spec.count_rounds,
            opts: RunOptions {
                threads: pool_width(),
                dump_json: false,
            },
            next_op: 1,
        };
        // One pass through the cheapest scenario, like `train_iter`'s
        // warm-up iteration: what a process pays once (first thread
        // spawns, lazy switches, the allocator's first growth) belongs
        // to set-up, not to round 0 — and it gives this workload a
        // set-up long enough to time.
        if let Some(sc) = exp.scenarios.iter().find(|s| s.spec.name == spec.warmup) {
            tr.span("bench.runner.warmup", 0, |_| {
                run_scenario(&reseeded(sc, seed, 0), &exp.opts)
            });
        }
        exp
    }
}

/// Whether the scenario left every artefact it names and only finite
/// completion times.
fn report_ok(name: &str, report: &ScenarioReport) -> bool {
    PathBuf::from(format!("out/{name}.json")).is_file()
        && !report.csv_paths.is_empty()
        && report.csv_paths.iter().all(|p| p.is_file())
        && !report.series.is_empty()
        && report
            .series
            .iter()
            .all(|s| !s.avg_jcts.is_empty() && s.avg_jcts.iter().all(|v| v.is_finite()))
}

/// `sc` with its evaluation and tuning seed plans moved to round `idx`
/// of a run seeded `seed`. Training recipes keep their registered seeds
/// (see [`super::POLICY_SEED`] for why).
fn reseeded(sc: &Scenario, seed: u64, idx: u64) -> Scenario {
    let shift = input_seed(seed, idx, 0) % 1_000_000_007 * 1000;
    let mut sc = sc.clone();
    sc.spec.seeds.start = sc.spec.seeds.start.wrapping_add(shift);
    for entry in &mut sc.spec.lineup {
        if let SchedulerSpec::TunedWeightedFair { tune_start, .. } = &mut entry.sched {
            *tune_start = tune_start.wrapping_add(shift);
        }
    }
    sc
}

impl Workload for Exp {
    fn count_rounds(&self) -> usize {
        self.count_rounds
    }

    fn round(&mut self, idx: u64, tr: &mut Tracer, vals: &mut Values) -> Round {
        let _ = std::fs::remove_file(DRIFT_CKPT);
        let mut round = Round::default();
        let mut outputs = String::new();
        let scenarios: Vec<Scenario> = self
            .scenarios
            .iter()
            .map(|sc| reseeded(sc, self.seed, idx))
            .collect();
        for sc in &scenarios {
            let op = self.next_op;
            self.next_op += 1;
            let (span, metric) = scenario_names(&sc.spec.name);
            let t0 = Instant::now();
            let report = tr.span(span, op, |_| caught(|| run_scenario(sc, &self.opts)));
            let wall = t0.elapsed().as_secs_f64();
            round.calls.push(wall);
            round.attempted += 1;
            if tr.enabled() {
                vals.add(metric, wall);
                vals.add("_scenario_runs", 1.0 / self.scenarios.len() as f64);
            }
            let Some(mut report) = report.filter(|r| report_ok(&sc.spec.name, r)) else {
                round.failed += 1;
                continue;
            };
            for s in &report.series {
                round.jct_sum += s.avg_jcts.iter().sum::<f64>();
                round.jct_n += s.avg_jcts.len() as u64;
            }
            // Only the fleet scenario reports how many decisions it took,
            // so on this workload `decisions_per_s` counts those alone.
            let cells = report.extra.iter().find(|(k, _)| k == "cells");
            for cell in cells.and_then(|(_, c)| c.as_arr()).unwrap_or(&[]) {
                let num = |k| cell.get(k).and_then(Json::as_u64).unwrap_or(0);
                round.decisions += num("total_decisions");
                round.jobs_completed += num("completed");
            }
            report.wall_secs = 0.0;
            outputs.push_str(&report.to_json(&sc.spec).render_compact());
        }
        round.seal(&outputs);
        round
    }

    /// The steps `run_scenario` hides, once each from their public
    /// functions on the `fig09a` spec: training, seed-parallel
    /// evaluation, rendering and parsing the report, and a checkpoint
    /// save and load.
    fn layers(&mut self, tr: &mut Tracer, vals: &mut Values) {
        let Some(sc) = self.scenarios.iter().find(|s| s.spec.name == "fig09a") else {
            return;
        };
        let spec = &sc.spec;
        let Some((label, sched, train)) = spec.lineup.iter().find_map(|e| match &e.sched {
            SchedulerSpec::Decima { train } => {
                Some((e.label.clone(), e.sched.clone(), train.clone()))
            }
            _ => None,
        }) else {
            return;
        };
        tr.span("bench.runner.pieces", 0, |tr| {
            let env = spec_env(spec);
            let seeds = spec.seeds.seeds();
            let timed = |vals: &mut Values, key, t0: Instant| {
                vals.set(key, t0.elapsed().as_secs_f64());
            };
            let t0 = Instant::now();
            let snapshot = tr.span("bench.runner.train", 0, |_| {
                train_decima_entry(&label, &train, &env)
            });
            timed(vals, "bench.runner.train_s", t0);
            let t0 = Instant::now();
            let series = tr.span("bench.runner.eval", 0, |_| {
                eval_series(
                    &label,
                    "decima",
                    &sched,
                    &env,
                    &seeds,
                    Some(&snapshot),
                    self.opts.threads,
                )
            });
            timed(vals, "bench.runner.eval_s", t0);

            let mut report = ScenarioReport::new();
            report.push_series(series);
            let t0 = Instant::now();
            let text = tr.span("bench.report.render", 0, |_| report.to_json(spec).render());
            timed(vals, "bench.report.render_s", t0);
            let t0 = Instant::now();
            let parsed = tr.span("bench.json.parse", 0, |_| Json::parse(&text));
            timed(vals, "bench.json.parse_s", t0);
            assert!(parsed.is_ok(), "the rendered report must parse");

            let mut trainer = build_trainer(&train, spec.executors());
            trainer.train_iteration(&env);
            let path = PathBuf::from("out/bench_probe.ckpt");
            let t0 = Instant::now();
            let saved = tr.span("rl.checkpoint_save", 0, |_| trainer.save_checkpoint(&path));
            timed(vals, "rl.checkpoint_save_s", t0);
            assert!(saved.is_ok(), "checkpoint save: {saved:?}");
            vals.set(
                "rl.checkpoint_bytes",
                std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
            );
            let t0 = Instant::now();
            let loaded = tr.span("rl.checkpoint_load", 0, |_| Trainer::load_checkpoint(&path));
            timed(vals, "rl.checkpoint_load_s", t0);
            assert!(loaded.is_ok(), "checkpoint load failed");
        });
    }
}
