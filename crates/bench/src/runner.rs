//! The unified experiment runner.
//!
//! [`run_scenario`] executes any registered scenario: the generic
//! declarative path ([`run_comparison`]) tunes baselines, trains Decima
//! entries, evaluates the whole lineup over the seed plan **in
//! parallel** (deterministic per-seed results, stable ordering), prints the familiar terminal report, and writes both the
//! CSV and the structured JSON; custom scenarios plug in a run function
//! for figure-specific analyses and inherit the same reporting.

use crate::factory::{build_trainer, make_scheduler, TrainedPolicy};
use crate::report::{write_json, ScenarioReport, SeriesReport};
use crate::scenario::{ReportKind, ScenarioSpec, SchedulerSpec};
use crate::{print_comparison, run_episode, train_with_progress, write_csv};
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

/// A custom run function: receives the (override-applied) spec and the
/// options, prints its figure-specific analysis, and returns the
/// structured results.
pub type CustomFn = fn(&ScenarioSpec, &RunOptions) -> ScenarioReport;

/// How a scenario executes.
#[derive(Clone)]
pub enum RunKind {
    /// Fully declarative: the generic comparison protocol.
    Comparison,
    /// Figure-specific analysis on top of the declarative spec.
    Custom(CustomFn),
}

/// A registered scenario: its declarative spec plus how to run it.
#[derive(Clone)]
pub struct Scenario {
    /// The declarative description (echoed into the JSON output).
    pub spec: ScenarioSpec,
    /// Execution strategy.
    pub run: RunKind,
}

/// Runs a scenario end-to-end: executes, prints the paper-shape notes,
/// stamps wall-clock time, and writes `out/<name>.json`.
pub fn run_scenario(sc: &Scenario, opts: &RunOptions) -> ScenarioReport {
    let t0 = Instant::now();
    let mut report = match &sc.run {
        RunKind::Comparison => run_comparison(&sc.spec, opts),
        RunKind::Custom(f) => f(&sc.spec, opts),
    };
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
    report
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

/// Trains a `Decima` lineup entry and snapshots the result. Training
/// runs on the entry's own workload override when present (the
/// generalization experiments), otherwise on the evaluation environment;
/// the policy is always sized for the evaluation cluster.
///
/// When the recipe names a [`crate::scenario::TrainSpec::checkpoint`]
/// path, an existing checkpoint is loaded instead of training (the model
/// is a reusable artifact), and a fresh training run saves there.
pub fn train_decima_entry(
    label: &str,
    train: &crate::scenario::TrainSpec,
    env: &SpecEnv,
) -> TrainedPolicy {
    let apply_hint = |mut snapshot: TrainedPolicy| {
        if let Some(hint) = train.eval_iat_hint {
            // Hinted policies observe the *test* IAT at evaluation time.
            snapshot.policy.cfg.feat.iat_hint = Some(hint);
        }
        snapshot
    };
    if let Some(ckpt) = &train.checkpoint {
        if std::path::Path::new(ckpt).exists() {
            println!("Loading {label} from checkpoint {ckpt} (no training)...");
            let snapshot = TrainedPolicy::from_checkpoint(ckpt)
                .unwrap_or_else(|e| panic!("cannot load checkpoint '{ckpt}': {e}"));
            check_snapshot_compat(&snapshot, env.workload.executors, ckpt);
            return apply_hint(snapshot);
        }
    }
    println!("Training {label} ({} iterations)...", train.iters);
    let mut trainer = build_trainer(train, env.workload.executors);
    let train_env = match &train.workload {
        Some(w) => SpecEnv {
            workload: w.clone(),
            sim: env.sim.clone(),
            drift: env.drift,
        },
        None => env.clone(),
    };
    train_with_progress(&mut trainer, &train_env, train.iters);
    if let Some(ckpt) = &train.checkpoint {
        match trainer.save_checkpoint(std::path::Path::new(ckpt)) {
            Ok(()) => println!("[checkpoint] {ckpt}"),
            Err(e) => eprintln!("warning: could not save checkpoint '{ckpt}': {e}"),
        }
    }
    apply_hint(TrainedPolicy::of(&trainer))
}

/// A saved model is only valid on the cluster size it was trained for:
/// the limit head enumerates parallelism values against
/// `cfg.total_executors`, so evaluating a 15-executor policy on a
/// 30-executor cluster would silently misreport "trained Decima".
/// Loudly refuse instead of publishing wrong numbers.
pub(crate) fn check_snapshot_compat(snapshot: &TrainedPolicy, executors: usize, ckpt: &str) {
    let trained_for = snapshot.policy.cfg.total_executors;
    assert!(
        trained_for == executors,
        "checkpoint '{ckpt}' was trained for {trained_for} executors but the evaluation \
         cluster has {executors}; retrain (delete the file or point --set checkpoint= \
         elsewhere) or evaluate at the matching cluster size"
    );
}

/// The generic declarative path: resolve tuning, train Decima entries,
/// evaluate the lineup over the seed plan, report per the spec's
/// [`ReportKind`].
pub fn run_comparison(spec: &ScenarioSpec, opts: &RunOptions) -> ScenarioReport {
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();
    let mut report = ScenarioReport::new();

    for entry in &spec.lineup {
        let series = match &entry.sched {
            SchedulerSpec::TunedWeightedFair {
                tune_start,
                tune_count,
            } => {
                let tune_seeds: Vec<u64> = (*tune_start..tune_start + *tune_count as u64).collect();
                let alpha = tune_weighted_fair(&env, &tune_seeds, opts.threads);
                println!("Tuned weighted-fair α = {alpha:.1} (paper: optimum near -1)");
                // Record the swept value so JSON consumers don't have to
                // parse the terminal line.
                report.push_extra(
                    format!("tuned_alpha_{}", entry.csv_name()),
                    crate::json::Json::Num(alpha),
                );
                eval_series(
                    &entry.label,
                    &entry.csv_name(),
                    &SchedulerSpec::WeightedFair { alpha },
                    &env,
                    &seeds,
                    None,
                    opts.threads,
                )
            }
            SchedulerSpec::Decima { train } => {
                let snapshot = train_decima_entry(&entry.label, train, &env);
                eval_series(
                    &entry.label,
                    &entry.csv_name(),
                    &entry.sched,
                    &env,
                    &seeds,
                    Some(&snapshot),
                    opts.threads,
                )
            }
            SchedulerSpec::DecimaCheckpoint { path } => {
                println!("Loading {} from checkpoint {path}...", entry.label);
                let snapshot = TrainedPolicy::from_checkpoint(path)
                    .unwrap_or_else(|e| panic!("cannot load checkpoint '{path}': {e}"));
                check_snapshot_compat(&snapshot, env.workload.executors, path);
                eval_series(
                    &entry.label,
                    &entry.csv_name(),
                    &entry.sched,
                    &env,
                    &seeds,
                    Some(&snapshot),
                    opts.threads,
                )
            }
            other => eval_series(
                &entry.label,
                &entry.csv_name(),
                other,
                &env,
                &seeds,
                None,
                opts.threads,
            ),
        };
        report.push_series(series);
    }

    print_and_write(spec, &mut report);
    report
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

// ---------------------------------------------------------------------------
// Standalone training runs (`decima-exp --train`)
// ---------------------------------------------------------------------------

/// Options of a standalone checkpointed training run.
#[derive(Clone, Debug)]
pub struct TrainOptions {
    /// Recipe name: `standard`, `stream`, or `tuned`.
    pub recipe: String,
    /// Target total iterations (a resumed run continues up to this).
    pub iters: usize,
    /// Jobs per training episode.
    pub jobs: usize,
    /// Cluster executors.
    pub execs: usize,
    /// Poisson mean interarrival time; batched arrivals when `None`
    /// (stream/tuned recipes default to 25 s).
    pub iat: Option<f64>,
    /// Master seed (policy init + rollouts).
    pub seed: u64,
    /// Directory holding `checkpoint.txt`.
    pub checkpoint_dir: std::path::PathBuf,
    /// Save the checkpoint every N iterations (and always at the end).
    pub checkpoint_every: usize,
    /// Resume from the directory's checkpoint instead of starting fresh.
    pub resume: bool,
    /// JSONL log path (default `out/train_<recipe>.jsonl`).
    pub log_path: Option<std::path::PathBuf>,
    /// Cluster-dynamics model applied to the training episodes
    /// (`--churn`/`--fail`/`--straggle`), so checkpoints can be produced
    /// for perturbed clusters. Off by default.
    pub dynamics: decima_sim::DynamicsSpec,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            recipe: "standard".into(),
            iters: 50,
            jobs: 10,
            execs: 15,
            iat: None,
            seed: 11,
            checkpoint_dir: std::path::PathBuf::from("out/checkpoints"),
            checkpoint_every: 10,
            resume: false,
            log_path: None,
            dynamics: decima_sim::DynamicsSpec::off(),
        }
    }
}

impl TrainOptions {
    /// The checkpoint file this run reads/writes.
    pub fn checkpoint_path(&self) -> std::path::PathBuf {
        self.checkpoint_dir.join("checkpoint.txt")
    }

    /// The JSONL training-log path.
    pub fn log_file(&self) -> std::path::PathBuf {
        self.log_path
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(format!("out/train_{}.jsonl", self.recipe)))
    }

    /// The training recipe (hyperparameters) this run uses.
    pub fn train_spec(&self) -> Result<crate::scenario::TrainSpec, String> {
        use crate::scenario::TrainSpec;
        Ok(match self.recipe.as_str() {
            "standard" => TrainSpec::standard(self.iters, self.seed),
            "stream" => TrainSpec::stream(self.iters, self.seed),
            "tuned" => TrainSpec::tuned(self.iters, self.seed),
            other => {
                return Err(format!(
                    "unknown recipe '{other}' (expected standard, stream, or tuned)"
                ))
            }
        })
    }

    /// The training workload this run rolls out on.
    pub fn workload(&self) -> decima_workload::WorkloadSpec {
        use decima_workload::WorkloadSpec;
        let continuous = self.recipe != "standard";
        match (self.iat, continuous) {
            (Some(iat), _) => WorkloadSpec::tpch_stream(self.jobs, self.execs, iat),
            (None, true) => WorkloadSpec::tpch_stream(self.jobs, self.execs, 25.0),
            (None, false) => WorkloadSpec::tpch_batch(self.jobs, self.execs),
        }
    }
}

/// Runs (or resumes) a standalone training run: builds the trainer from
/// the recipe — or restores it bit-exactly from the checkpoint — then
/// trains to the target iteration count, streaming one JSONL record per
/// iteration to the log and checkpointing every
/// [`TrainOptions::checkpoint_every`] iterations. Returns the trained
/// snapshot.
pub fn run_training(opts: &TrainOptions) -> Result<TrainedPolicy, String> {
    use std::io::Write as _;

    let ckpt_path = opts.checkpoint_path();
    let requested = decima_rl::WorkloadEcho::of(&opts.workload()).with_dynamics(opts.dynamics);
    let mut trainer = if opts.resume {
        let mut t = decima_rl::Trainer::load_checkpoint(&ckpt_path)?;
        match &t.workload_echo {
            // Resuming on a different workload than the checkpoint was
            // trained on silently degrades the model — refuse loudly.
            Some(saved) => saved.ensure_matches(&requested)?,
            // Pre-echo checkpoints carry no workload record; stamp the
            // requested shape so future resumes are protected.
            None => t.workload_echo = Some(requested),
        }
        println!(
            "Resumed from {} at iteration {} ({} logged)",
            ckpt_path.display(),
            t.iter,
            t.history.len()
        );
        t
    } else {
        let mut t = build_trainer(&opts.train_spec()?, opts.execs);
        t.workload_echo = Some(requested);
        t
    };
    let log_path = opts.log_file();
    // Fresh runs truncate the log; resumed runs append, so the file ends
    // up with one line per iteration of the *whole* run. An interruption
    // between checkpoints can leave logged iterations the checkpoint
    // never saw — those are not in the saved model (and re-run below if
    // the target asks), so drop their stale records first to keep the
    // one-line-per-iteration contract. This must happen even when the
    // target is already reached, or a rolled-back checkpoint would leave
    // the log permanently over-claiming.
    if opts.resume {
        if let Ok(text) = std::fs::read_to_string(&log_path) {
            let kept: Vec<&str> = text
                .lines()
                .filter(|l| {
                    crate::json::Json::parse(l)
                        .ok()
                        .and_then(|v| v.get("iter").and_then(crate::json::Json::as_u64))
                        .is_some_and(|i| (i as usize) < trainer.iter)
                })
                .collect();
            if kept.len() != text.lines().count() {
                let body = if kept.is_empty() {
                    String::new()
                } else {
                    kept.join("\n") + "\n"
                };
                std::fs::write(&log_path, body)
                    .map_err(|e| format!("cannot rewrite {}: {e}", log_path.display()))?;
            }
        }
    }
    if trainer.iter >= opts.iters {
        println!(
            "Checkpoint already at iteration {} (target {}); nothing to do",
            trainer.iter, opts.iters
        );
        return Ok(TrainedPolicy::of(&trainer));
    }

    let mut env = SpecEnv::new(opts.workload());
    env.sim.dynamics = opts.dynamics;
    if let Some(dir) = log_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(opts.resume)
        .truncate(!opts.resume)
        .write(true)
        .open(&log_path)
        .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;

    println!(
        "Training recipe '{}' on {} (target {} iterations, checkpoints in {})",
        opts.recipe,
        crate::scenario::workload_json(&env.workload).render_compact(),
        opts.iters,
        opts.checkpoint_dir.display()
    );
    while trainer.iter < opts.iters {
        let s = trainer.train_iteration(&env);
        let line = crate::report::iter_stats_json(&s).render_compact();
        writeln!(log, "{line}").map_err(|e| format!("cannot write training log: {e}"))?;
        if (s.iter + 1) % 10 == 0 || s.iter == 0 {
            println!(
                "  [train] iter {:>4}  reward {:>9.3}  jct {:>8.1}  entropy {:.2}",
                s.iter + 1,
                s.mean_reward,
                s.mean_avg_jct,
                s.mean_entropy
            );
        }
        let done = trainer.iter >= opts.iters;
        if done || trainer.iter % opts.checkpoint_every.max(1) == 0 {
            trainer.save_checkpoint(&ckpt_path)?;
        }
    }
    log.flush().map_err(|e| format!("training log: {e}"))?;
    println!(
        "[checkpoint] {}  (iteration {})",
        ckpt_path.display(),
        trainer.iter
    );
    println!("[jsonl] {}", log_path.display());
    Ok(TrainedPolicy::of(&trainer))
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
