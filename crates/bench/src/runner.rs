//! The unified experiment runner.
//!
//! [`try_run_scenario`] executes any registered scenario: the generic
//! declarative path ([`run_comparison`]) tunes baselines, resolves each
//! lineup entry to its model, evaluates the whole lineup over the seed
//! plan **in parallel** (deterministic per-seed results, stable
//! ordering), prints the familiar terminal report, and writes both the
//! CSV and the structured JSON; custom scenarios plug in a run function
//! for figure-specific analyses and inherit the same reporting.
//!
//! No scenario builds a trainer or opens a checkpoint itself: models
//! come from [`crate::model`] (`resolve` for a lineup entry,
//! `train_entry` for a recipe, `run_train` for the `train` scenario),
//! and a model the run cannot use — a missing, damaged or wrong-sized
//! checkpoint — comes back as the `Err` of the run. [`run_scenario`]
//! and [`train_decima_entry`] keep their infallible signatures for
//! callers compiled against them (`benchmark/`) and panic on that `Err`.

use crate::factory::{make_scheduler, TrainedPolicy};
use crate::model::{resolve, train_entry, Site};
use crate::report::{write_json, ScenarioReport, SeriesReport};
use crate::scenario::{ReportKind, ScenarioSpec, SchedulerSpec};
use crate::{print_comparison, run_episode, write_csv};
use decima_baselines::tune_alpha;
use decima_core::par::ordered_map;
use decima_rl::SpecEnv;
use decima_sim::EpisodeResult;
use std::time::Instant;

/// Execution options common to every scenario.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads for seed-parallel evaluation.
    pub threads: usize,
    /// Also print the JSON document to stdout.
    pub dump_json: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            dump_json: false,
        }
    }
}

/// A run function: receives the (override-applied) spec and the
/// options, prints its analysis, and returns the structured results —
/// or why the run could not use a model it names. [`run_comparison`] is
/// the fully declarative one; `scenarios/` holds the figure-specific
/// ones.
pub type RunFn = fn(&ScenarioSpec, &RunOptions) -> Result<ScenarioReport, String>;

/// A registered scenario: its declarative spec plus how to run it.
#[derive(Clone)]
pub struct Scenario {
    /// The declarative description (echoed into the JSON output).
    pub spec: ScenarioSpec,
    /// The run function.
    pub run: RunFn,
}

/// [`try_run_scenario`] for callers that hold models the run can use
/// (`benchmark/`): panics on the error.
pub fn run_scenario(sc: &Scenario, opts: &RunOptions) -> ScenarioReport {
    try_run_scenario(sc, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs a scenario end-to-end: executes, prints the paper-shape notes,
/// stamps wall-clock time, and writes `out/<name>.json`. An `Err` comes
/// from resolving a model, before any report is written.
pub fn try_run_scenario(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let t0 = Instant::now();
    let mut report = (sc.run)(&sc.spec, opts)?;
    if !sc.spec.notes.is_empty() {
        println!();
        for line in &sc.spec.notes {
            println!("{line}");
        }
    }
    report.wall_secs = t0.elapsed().as_secs_f64();
    let doc = report.to_json(&sc.spec);
    write_json(&sc.spec.name, &doc);
    if opts.dump_json {
        println!("{}", doc.render());
    }
    Ok(report)
}

/// Maps `f` over `items` on up to `threads` threads, returning results
/// in input order ([`ordered_map`] over borrowed items). With
/// deterministic `f` the output is identical to a sequential map (this
/// is what keeps parallel seed loops reproducible).
pub fn par_map<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    ordered_map(threads, items.iter().collect(), f)
}

/// The evaluation environment a comparison spec describes.
pub fn spec_env(spec: &ScenarioSpec) -> SpecEnv {
    SpecEnv {
        workload: spec
            .workload
            .clone()
            .unwrap_or_else(|| panic!("scenario '{}' has no workload", spec.name)),
        sim: spec.sim.to_config(),
        drift: spec.sim.drift,
    }
}

/// Evaluates one scheduler spec over the seeds, one fresh scheduler per
/// seed, in parallel.
pub fn eval_series(
    label: &str,
    csv: &str,
    sched: &SchedulerSpec,
    env: &SpecEnv,
    seeds: &[u64],
    trained: Option<&TrainedPolicy>,
    threads: usize,
) -> SeriesReport {
    let executors = env.workload.executors;
    let results: Vec<EpisodeResult> = par_map(seeds, threads, |&seed| {
        use decima_rl::EnvFactory as _;
        let (cluster, jobs, cfg) = env.build(seed);
        let sched = make_scheduler(sched, executors, trained);
        run_episode(&cluster, &jobs, &cfg, sched)
    });
    SeriesReport {
        label: label.to_string(),
        csv: csv.to_string(),
        avg_jcts: results
            .iter()
            .map(|r| r.avg_jct().unwrap_or(f64::NAN))
            .collect(),
        unfinished: results.iter().map(EpisodeResult::unfinished).sum(),
    }
}

/// Sweeps the weighted-fair exponent α on held-out seeds (§7.1),
/// evaluating each candidate's seed set in parallel.
pub fn tune_weighted_fair(env: &SpecEnv, tune_seeds: &[u64], threads: usize) -> f64 {
    let (alpha, _) = tune_alpha(|a| {
        eval_series(
            "tune",
            "tune",
            &SchedulerSpec::WeightedFair { alpha: a },
            env,
            tune_seeds,
            None,
            threads,
        )
        .avg_jcts
        .iter()
        // A seed with no completed job (NaN) disqualifies the
        // candidate — dropping it would make failure look cheap.
        .map(|v| if v.is_finite() { *v } else { f64::INFINITY })
        .sum::<f64>()
    });
    alpha
}

/// [`train_entry`]'s snapshot for callers compiled against the
/// infallible signature (`benchmark/`): panics on the error.
pub fn train_decima_entry(
    label: &str,
    train: &crate::scenario::TrainSpec,
    env: &SpecEnv,
) -> TrainedPolicy {
    let trainer = train_entry(label, train, env).unwrap_or_else(|e| panic!("{e}"));
    TrainedPolicy::of(&trainer)
}

/// The generic declarative path: resolve tuning and models entry by
/// entry, evaluate the lineup over the seed plan, report per the spec's
/// [`ReportKind`].
pub fn run_comparison(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();
    let mut report = ScenarioReport::new();

    for entry in &spec.lineup {
        let mut sched = entry.sched.clone();
        if let SchedulerSpec::TunedWeightedFair {
            tune_start,
            tune_count,
        } = sched
        {
            let tune_seeds: Vec<u64> = (tune_start..tune_start + tune_count as u64).collect();
            let alpha = tune_weighted_fair(&env, &tune_seeds, opts.threads);
            println!("Tuned weighted-fair α = {alpha:.1} (paper: optimum near -1)");
            // Record the swept value so JSON consumers don't have to
            // parse the terminal line.
            report.push_extra(
                format!("tuned_alpha_{}", entry.csv_name()),
                crate::json::Json::Num(alpha),
            );
            sched = SchedulerSpec::WeightedFair { alpha };
        }
        let trained = resolve(&entry.label, &sched, Site::Env(&env))?;
        report.push_series(eval_series(
            &entry.label,
            &entry.csv_name(),
            &sched,
            &env,
            &seeds,
            trained.as_ref(),
            opts.threads,
        ));
    }

    print_and_write(spec, &mut report);
    Ok(report)
}

/// Prints the terminal report and writes the CSV for a comparison run.
fn print_and_write(spec: &ScenarioSpec, report: &mut ScenarioReport) {
    match spec.report {
        ReportKind::Table | ReportKind::CdfCsv => {
            print_comparison(&spec.title, &report.series);
        }
        ReportKind::MeanUnfinished => {
            println!("\n{}", spec.title);
            for s in &report.series {
                println!(
                    "{:<22} avg JCT {:>8.1}s   unfinished {:>4} (across {} runs)",
                    s.label,
                    s.mean(),
                    s.unfinished,
                    s.avg_jcts.len()
                );
            }
        }
        ReportKind::MeanCsv => {
            println!("\n{}", spec.title);
            for s in &report.series {
                println!("{:<34} avg JCT {:>8.1}s", s.label, s.mean());
            }
        }
    }

    let path = match spec.report {
        ReportKind::CdfCsv => {
            // One sorted column per scheduler: `cdf,<name>,<name>,…`.
            let runs = spec.seeds.count;
            let sorted: Vec<Vec<f64>> = report
                .series
                .iter()
                .map(|s| {
                    let mut v = s.avg_jcts.clone();
                    v.sort_by(|a, b| a.total_cmp(b));
                    v
                })
                .collect();
            let mut rows = Vec::with_capacity(runs);
            for i in 0..runs {
                let frac = (i + 1) as f64 / runs.max(1) as f64;
                let mut row = format!("{frac:.3}");
                for col in &sorted {
                    match col.get(i) {
                        Some(v) => row += &format!(",{v:.2}"),
                        None => row += ",",
                    }
                }
                rows.push(row);
            }
            let header = std::iter::once("cdf".to_string())
                .chain(report.series.iter().map(|s| s.csv.clone()))
                .collect::<Vec<_>>()
                .join(",");
            write_csv(&spec.name, &header, &rows)
        }
        ReportKind::Table => {
            let rows: Vec<String> = report
                .series
                .iter()
                .map(|s| {
                    let sum = s.summary();
                    format!(
                        "{},{:.2},{:.2},{:.2},{}",
                        s.csv, sum.mean, sum.p50, sum.p95, sum.n
                    )
                })
                .collect();
            write_csv(&spec.name, "scheduler,mean,p50,p95,runs", &rows)
        }
        ReportKind::MeanUnfinished => {
            let rows: Vec<String> = report
                .series
                .iter()
                .map(|s| format!("{},{:.2},{}", s.csv, s.mean(), s.unfinished))
                .collect();
            write_csv(&spec.name, "scheduler,avg_jct,unfinished", &rows)
        }
        ReportKind::MeanCsv => {
            let rows: Vec<String> = report
                .series
                .iter()
                .map(|s| format!("{},{:.2}", s.csv, s.mean()))
                .collect();
            write_csv(&spec.name, "setup,avg_jct", &rows)
        }
    };
    report.push_csv(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..37).collect();
        for threads in [1, 3, 8, 64] {
            let out = par_map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        assert!(par_map::<u64, u64>(&[], 4, |&x| x).is_empty());
    }

    #[test]
    fn par_map_matches_sequential_for_episode_eval() {
        use crate::scenario::ScenarioBuilder;
        use decima_rl::EnvFactory as _;
        use decima_workload::WorkloadSpec;
        let spec = ScenarioBuilder::new("t", "t")
            .workload(WorkloadSpec::tpch_batch(2, 4))
            .seeds(100, 4)
            .sched(SchedulerSpec::Fifo)
            .build();
        let env = spec_env(&spec);
        let seeds = spec.seeds.seeds();
        let seq: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let (c, j, cfg) = env.build(s);
                run_episode(&c, &j, &cfg, make_scheduler(&SchedulerSpec::Fifo, 4, None))
                    .avg_jct()
                    .unwrap()
            })
            .collect();
        for threads in [1, 2, 4] {
            let s = eval_series(
                "fifo",
                "fifo",
                &SchedulerSpec::Fifo,
                &env,
                &seeds,
                None,
                threads,
            );
            assert_eq!(s.avg_jcts, seq, "threads={threads}");
        }
    }
}
