//! The unified experiment runner.
//!
//! Every artefact is the same protocol — a lineup run over a seed plan
//! on one environment, then summarised — and its two steps exist once,
//! here: [`episodes`] is the only seed → `env.build` → scheduler →
//! `Simulator::run` loop (seed-parallel, deterministic per seed, stable
//! ordering; [`SeriesReport::of`] is the only summary of what it
//! returns), and [`resolve_lineup`] is the only place a lineup's swept
//! baselines are tuned and its entries resolved to their models. The
//! generic declarative path ([`run_comparison`]) is the two composed;
//! custom scenarios plug in a run function for figure-specific analyses
//! and call the same two.
//!
//! A run function prints its analysis and returns data. Only
//! [`try_run_scenario`] writes under `out/`: each CSV table of the
//! report, then `out/<name>.json`; a file it cannot write is the `Err`
//! of the run, like a model the run cannot use.
//!
//! No scenario builds a trainer or opens a checkpoint itself: models
//! come from [`crate::model`] (`resolve` for a lineup entry,
//! `train_entry` for a recipe, `run_train` for the `train` scenario),
//! and a model the run cannot use — a missing, damaged or wrong-sized
//! checkpoint — comes back as the `Err` of the run. [`run_scenario`]
//! and [`train_decima_entry`] keep their infallible signatures for
//! callers compiled against them (`benchmark/`) and panic on that `Err`.

use crate::factory::{make_scheduler, TrainedPolicy};
use crate::json::Json;
use crate::model::{resolve, train_entry, Site};
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table, CSV, TERM};
use crate::scenario::{LineupEntry, ReportKind, ScenarioSpec, SchedulerSpec};
use decima_baselines::tune_alpha;
use decima_core::par::ordered_map;
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{EpisodeResult, Scheduler, Simulator};
use std::path::{Path, PathBuf};
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
/// options, prints its analysis, and returns the structured results,
/// CSV tables included, without writing a file — or why the run could
/// not use a model it names. [`run_comparison`] is the fully declarative
/// one; `scenarios/` holds the figure-specific ones.
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
/// stamps wall-clock time, and writes the report — each CSV table to
/// `out/<table>.csv`, then `out/<name>.json`. Nothing else writes there
/// (checkpoints and the training log go where their keys say). An `Err`
/// is an `out/` that cannot be written — found before any episode runs
/// — a model the run could not use, before anything is written, or a
/// file that could not be written.
pub fn try_run_scenario(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let json_name = format!("{}.json", sc.spec.name);
    probe_out().map_err(|e| cannot_write(&Path::new("out").join(&json_name), &e))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "`wall_secs` is telemetry: the report carries it and no run reads it back"
    )]
    let t0 = Instant::now();
    let mut report = (sc.run)(&sc.spec, opts)?;
    if !sc.spec.notes.is_empty() {
        println!();
        for line in &sc.spec.notes {
            println!("{line}");
        }
    }
    report.wall_secs = t0.elapsed().as_secs_f64();
    for table in &report.tables {
        let path = write_out(&format!("{}.csv", table.name), &table.csv())?;
        println!("[csv] {}", path.display());
        report.csv_paths.push(path);
    }
    let doc = report.to_json(&sc.spec);
    let path = write_out(&json_name, &(doc.render() + "\n"))?;
    println!("[json] {}", path.display());
    if opts.dump_json {
        println!("{}", doc.render());
    }
    Ok(report)
}

fn cannot_write(path: &Path, e: &std::io::Error) -> String {
    format!("cannot write {}: {e}", path.display())
}

/// Whether a file can be created in `out/` — or, while `out/` does not
/// exist, beside it, where creating the directory takes the same
/// permission — found out by creating one and removing it: a run that
/// fails later for another reason still leaves nothing under `out/`.
fn probe_out() -> std::io::Result<()> {
    let out = Path::new("out");
    let dir = if out.exists() {
        std::fs::create_dir_all(out)?; // an `out` that is not a directory
        out
    } else {
        Path::new(".")
    };
    let probe = dir.join(format!(".decima-exp-probe-{}", std::process::id()));
    let created = std::fs::File::create(&probe).map(drop);
    let _ = std::fs::remove_file(&probe);
    created
}

/// Writes `out/<file>` (creating `out/`).
fn write_out(file: &str, body: &str) -> Result<PathBuf, String> {
    let path = Path::new("out").join(file);
    std::fs::create_dir_all("out")
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| cannot_write(&path, &e))?;
    Ok(path)
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

/// One episode per seed, in seed order, on up to `threads` threads: the
/// only seed → `env.build` → scheduler → `Simulator::run` loop of the
/// experiment layer. `make_sched` builds a fresh scheduler for every
/// episode, so the results equal a sequential run whatever the thread
/// count.
pub fn episodes<S: Scheduler>(
    env: &dyn EnvFactory,
    seeds: &[u64],
    threads: usize,
    make_sched: impl Fn() -> S + Sync,
) -> Vec<EpisodeResult> {
    par_map(seeds, threads, |&seed| {
        let (cluster, jobs, cfg) = env.build(seed);
        Simulator::new(cluster, jobs, cfg).run(make_sched())
    })
}

/// [`episodes`] of a scheduler spec and the model it stands for, on a
/// cluster of the environment's size.
pub fn spec_episodes(
    sched: &SchedulerSpec,
    trained: Option<&TrainedPolicy>,
    env: &SpecEnv,
    seeds: &[u64],
    threads: usize,
) -> Vec<EpisodeResult> {
    let executors = env.workload.executors;
    episodes(env, seeds, threads, || {
        make_scheduler(sched, executors, trained)
    })
}

/// Evaluates one scheduler spec over the seeds: [`spec_episodes`], then
/// [`SeriesReport::of`].
pub fn eval_series(
    label: &str,
    csv: &str,
    sched: &SchedulerSpec,
    env: &SpecEnv,
    seeds: &[u64],
    trained: Option<&TrainedPolicy>,
    threads: usize,
) -> SeriesReport {
    SeriesReport::of(
        label,
        csv,
        &spec_episodes(sched, trained, env, seeds, threads),
    )
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

/// Resolves a lineup on `env`, in entry order: a `TunedWeightedFair`
/// entry is tuned there (the α recorded in `report`) and replaced by
/// its tuned form, then every entry goes through [`resolve`] — trains,
/// loads or fine-tunes there. Returns each entry ready to evaluate with
/// the model it stands for, if any. The only lineup loop that does
/// either.
pub fn resolve_lineup(
    lineup: &[LineupEntry],
    env: &SpecEnv,
    threads: usize,
    report: &mut ScenarioReport,
) -> Result<Vec<(LineupEntry, Option<TrainedPolicy>)>, String> {
    let mut resolved = Vec::with_capacity(lineup.len());
    for entry in lineup {
        let mut entry = entry.clone();
        if let SchedulerSpec::TunedWeightedFair {
            tune_start,
            tune_count,
        } = entry.sched
        {
            let tune_seeds: Vec<u64> = (tune_start..tune_start + tune_count as u64).collect();
            let alpha = tune_weighted_fair(env, &tune_seeds, threads);
            println!("Tuned weighted-fair α = {alpha:.1} (paper: optimum near -1)");
            // Record the swept value so JSON consumers don't have to
            // parse the terminal line.
            report.push_extra(
                format!("tuned_alpha_{}", entry.csv_name()),
                Json::Num(alpha),
            );
            entry.sched = SchedulerSpec::WeightedFair { alpha };
        }
        let trained = resolve(&entry.label, &entry.sched, Site::Env(env))?;
        resolved.push((entry, trained));
    }
    Ok(resolved)
}

/// The generic declarative path: resolve the lineup, evaluate it over
/// the seed plan, report per the spec's [`ReportKind`].
pub fn run_comparison(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();
    let mut report = ScenarioReport::new();
    for (entry, trained) in resolve_lineup(&spec.lineup, &env, opts.threads, &mut report)? {
        report.push_series(eval_series(
            &entry.label,
            &entry.csv_name(),
            &entry.sched,
            &env,
            &seeds,
            trained.as_ref(),
            opts.threads,
        ));
    }
    report_comparison(spec, &mut report);
    Ok(report)
}

/// Reports a comparison run in the spec's [`ReportKind`]: one [`Table`]
/// printed to the terminal and handed to the report as its CSV (the CDF
/// shape prints the comparison table and writes the CDF one).
fn report_comparison(spec: &ScenarioSpec, report: &mut ScenarioReport) {
    let series = &report.series;
    let table = match spec.report {
        ReportKind::Table | ReportKind::CdfCsv => {
            println!("\n== {} ==", spec.title);
            let table = comparison_table(spec, series);
            table.print();
            print_headlines(series);
            match spec.report {
                ReportKind::CdfCsv => cdf_table(spec, series),
                _ => table,
            }
        }
        ReportKind::MeanUnfinished | ReportKind::MeanCsv => {
            println!("\n{}", spec.title);
            let table = mean_table(spec, series);
            table.print();
            table
        }
    };
    report.push_table(table);
}

/// Name, mean, p50, p95 and seed count per scheduler, each over the
/// seeds that completed a job ([`SeriesReport::summary`]).
fn comparison_table(spec: &ScenarioSpec, series: &[SeriesReport]) -> Table {
    let names = [
        Column::new("scheduler").on(TERM),
        Column::new("scheduler").on(CSV),
    ];
    let stats = ["mean", "p50", "p95", "runs"].map(Column::new);
    let mut table = Table::new(&spec.name, names.into_iter().chain(stats));
    for s in series {
        let (names, sum) = (
            [s.label.as_str(), s.csv.as_str()].map(Cell::from),
            s.summary(),
        );
        let stats = [sum.mean, sum.p50, sum.p95].map(Cell::Num);
        table.push(names.into_iter().chain(stats).chain([sum.n.into()]));
    }
    table
}

/// The headline ratios against the first row, and how many seeds of a
/// scheduler completed no job (they are in no statistic above).
fn print_headlines(series: &[SeriesReport]) {
    if let Some((first, rest)) = series.split_first() {
        let (first, base) = (&first.label, first.summary().mean);
        for s in rest {
            let (name, m) = (&s.label, s.summary().mean);
            let (change, ratio) = (100.0 * (m - base) / base, base / m);
            println!("   {name} vs {first}: {change:+.1}% ({ratio:.2}x)");
        }
    }
    for s in series {
        let (name, runs, done) = (&s.label, s.avg_jcts.len(), s.summary().n);
        if done < runs {
            println!(
                "   {name}: {} of {runs} seeds completed no job",
                runs - done
            );
        }
    }
}

/// One labelled line per scheduler: mean avg JCT, and for streaming runs
/// the unfinished jobs across the seeds.
fn mean_table(spec: &ScenarioSpec, series: &[SeriesReport]) -> Table {
    // Where the streaming columns show: nowhere for a plain mean table.
    let (id, streaming) = match spec.report {
        ReportKind::MeanUnfinished => ("scheduler", TERM | CSV),
        _ => ("setup", 0),
    };
    let columns = [
        Column::new("").on(TERM),
        Column::new(id).on(CSV),
        Column::new("avg_jct").heading("avg JCT").unit("s"),
        Column::new("unfinished").on(streaming),
        Column::new("").on(streaming & TERM),
    ];
    let mut table = Table::new(&spec.name, columns).labelled();
    for s in series {
        let across = format!("(across {} runs)", s.avg_jcts.len());
        let names = [s.label.as_str(), s.csv.as_str()].map(Cell::from);
        let jobs = [s.mean().into(), s.unfinished.into(), across.into()];
        table.push(names.into_iter().chain(jobs));
    }
    table
}

/// One sorted column per scheduler: `cdf,<name>,<name>,…`; a seed that
/// completed no job sorts last, as an empty cell.
fn cdf_table(spec: &ScenarioSpec, series: &[SeriesReport]) -> Table {
    let runs = spec.seeds.count;
    let names = series.iter().map(|s| Column::new(s.csv.as_str()));
    let cdf = Column::new("cdf").digits(3, 3);
    let mut table = Table::new(&spec.name, std::iter::once(cdf).chain(names));
    let sorted = series.iter().map(|s| {
        let mut v = s.avg_jcts.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    });
    let sorted: Vec<Vec<f64>> = sorted.collect();
    for i in 0..runs {
        let frac = (i + 1) as f64 / runs.max(1) as f64;
        let cells = sorted
            .iter()
            .map(|col| col.get(i).copied().unwrap_or(f64::NAN));
        table.push(std::iter::once(frac).chain(cells).map(Cell::Num));
    }
    table
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

    fn fifo_spec() -> ScenarioSpec {
        use crate::scenario::ScenarioBuilder;
        use decima_workload::WorkloadSpec;
        ScenarioBuilder::new("t", "t")
            .workload(WorkloadSpec::tpch_batch(2, 4))
            .seeds(100, 4)
            .sched(SchedulerSpec::Fifo)
            .build()
    }

    #[test]
    fn par_map_matches_sequential_for_episode_eval() {
        use crate::run_episode;
        use decima_baselines::FifoScheduler;
        let spec = fifo_spec();
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
            let direct = episodes(&env, &seeds, threads, || FifoScheduler);
            let direct = SeriesReport::of("fifo", "fifo", &direct);
            assert_eq!(direct.avg_jcts, seq, "episodes, threads={threads}");
        }
    }

    /// A run function returns its tables as data: called twice in one
    /// process it gives the same report and leaves `out/` as it found it.
    #[test]
    fn a_run_function_returns_its_tables_and_touches_no_file() {
        let listing = || {
            let stamp =
                |e: std::fs::DirEntry| (e.file_name(), e.metadata().unwrap().modified().ok());
            let mut files: Vec<_> = std::fs::read_dir("out")
                .ok()?
                .flatten()
                .map(stamp)
                .collect();
            files.sort();
            Some(files)
        };
        let before = listing();
        let spec = fifo_spec();
        let opts = RunOptions {
            threads: 2,
            dump_json: false,
        };
        let first = run_comparison(&spec, &opts).unwrap();
        let second = run_comparison(&spec, &opts).unwrap();
        assert_eq!(first.tables, second.tables);
        assert_eq!(first.tables.len(), 1);
        assert_eq!(first.tables[0].name, "t");
        let csv = first.tables[0].csv();
        assert_eq!(csv.lines().next(), Some("scheduler,mean,p50,p95,runs"));
        assert_eq!(first.tables[0].len(), 1);
        assert!(first.csv_paths.is_empty(), "only the runner writes");
        assert_eq!(listing(), before);
    }
}
