//! How a policy comes to exist: the one place that builds a trainer or
//! opens a checkpoint, trains, fine-tunes and saves.
//!
//! * [`drive`] is the **training driver**, the only training loop of the
//!   experiment layer: progress line, optional JSONL record, periodic
//!   save, up to a target iteration.
//! * [`resolve`] is the **lineup resolver**: a `decima` entry trains or
//!   reuses its named checkpoint ([`train_entry`]), `decima-ckpt:PATH`
//!   loads, `fine-tuned:PATH` loads and adapts — each file held to the
//!   cluster it is about to serve. A scenario that only
//!   serves ([`Site::Serving`]) is refused the entries that would train.
//! * [`run_train`] is the `train` scenario: the driver with a log, a
//!   save cadence and a bit-exact resume (docs/TRAINING.md).
//!
//! Everything returns `Result<_, String>`: a file that cannot be read,
//! is damaged or was trained for another cluster size is an `error:`
//! line and exit 1, never a panic.

use crate::factory::{build_trainer, TrainedPolicy};
use crate::report::{iter_stats_json, ScenarioReport};
use crate::runner::{spec_env, RunOptions};
use crate::scenario::{workload_json, ParamValue, ScenarioSpec, SchedulerSpec, TrainSpec};
use decima_rl::{EnvFactory, IterStats, SpecEnv, Trainer, WorkloadEcho};
use decima_workload::{ArrivalProcess, WorkloadSource};
use std::io::Write as _;
use std::path::Path;

/// A trainer at the start of a run on a cluster of `executors`: the
/// checkpoint `from` names (see `open`), or one built fresh from the
/// recipe's seed. A run that goes on training names its workload in
/// `echo`, which the trainer carries into the checkpoints it writes.
pub fn begin(
    train: &TrainSpec,
    executors: usize,
    from: Option<&str>,
    echo: Option<WorkloadEcho>,
) -> Result<Trainer, String> {
    let Some(path) = from else {
        let mut trainer = build_trainer(train, executors);
        trainer.workload_echo = echo;
        return Ok(trainer);
    };
    open(path, executors, echo)
}

/// Opens a checkpoint for a cluster of `executors`. A saved model is
/// only valid on the cluster size it was trained for: the limit head
/// enumerates parallelism values against `cfg.total_executors`, so
/// evaluating a 15-executor policy on a 30-executor cluster would
/// silently misreport "trained Decima". A run that continues training
/// (`resuming` names its workload) is held to the workload the
/// checkpoint echoes as well.
fn open(path: &str, executors: usize, resuming: Option<WorkloadEcho>) -> Result<Trainer, String> {
    let mut trainer = Trainer::load_checkpoint(Path::new(path))
        .map_err(|e| format!("cannot load checkpoint '{path}': {e}"))?;
    if let Some(requested) = resuming {
        match &trainer.workload_echo {
            // Resuming on a different workload than the checkpoint was
            // trained on silently degrades the model — refuse loudly.
            Some(saved) => saved.ensure_matches(&requested)?,
            // Pre-echo checkpoints carry no workload record; stamp the
            // requested shape so future resumes are protected.
            None => trainer.workload_echo = resuming,
        }
    }
    let trained_for = trainer.policy.cfg.total_executors;
    if trained_for != executors {
        return Err(format!(
            "checkpoint '{path}' was trained for {trained_for} executors but the evaluation \
             cluster has {executors}; retrain (delete the file or point --set checkpoint= \
             elsewhere) or evaluate at the matching cluster size"
        ));
    }
    Ok(trainer)
}

/// The training driver: takes `trainer` to `target` completed
/// iterations on `env`, printing a progress line for the first
/// iteration and every tenth and appending one JSONL record per
/// iteration to `log`. `save` names a checkpoint file and a cadence: the
/// file is written every that many iterations (0: not on the way) and
/// once the target is reached.
pub fn drive(
    trainer: &mut Trainer,
    env: &dyn EnvFactory,
    target: usize,
    save: Option<(&Path, usize)>,
    mut log: Option<&mut std::fs::File>,
) -> Result<(), String> {
    let mut saved_at = None;
    while trainer.iter() < target {
        let s = trainer.train_iteration(env);
        if let Some(log) = &mut log {
            write_records(log, &trainer.history[s.iter..])?;
        }
        if (s.iter + 1) % 10 == 0 || s.iter == 0 {
            println!(
                "  [train] iter {:>4}  reward {:>9.3}  jct {:>8.1}  entropy {:.2}",
                s.iter + 1,
                s.mean_reward,
                s.mean_avg_jct,
                s.mean_entropy
            );
        }
        if let Some((path, every)) = save {
            if every > 0 && trainer.iter() % every == 0 {
                trainer.save_checkpoint(path)?;
                saved_at = Some(trainer.iter());
            }
        }
    }
    match save {
        Some((path, _)) if saved_at != Some(trainer.iter()) => trainer.save_checkpoint(path),
        _ => Ok(()),
    }
}

/// Appends one JSONL line per record to the training log.
fn write_records(log: &mut std::fs::File, records: &[IterStats]) -> Result<(), String> {
    for s in records {
        let line = iter_stats_json(s).render_compact();
        writeln!(log, "{line}").map_err(|e| format!("cannot write training log: {e}"))?;
    }
    Ok(())
}

/// The trainer behind a `Decima` lineup entry. A recipe that names a
/// [`TrainSpec::checkpoint`] which exists loads it and trains nothing
/// (the model is a reusable artifact); otherwise a fresh trainer —
/// always sized for the evaluation cluster — trains for the recipe's
/// iterations and is saved where the recipe says. Training runs on the
/// recipe's own workload when it has one (the generalization
/// experiments), otherwise on `env`.
pub fn train_entry(label: &str, train: &TrainSpec, env: &SpecEnv) -> Result<Trainer, String> {
    let ckpt = train.checkpoint.as_deref();
    let found = ckpt.filter(|path| Path::new(path).exists());
    match found {
        Some(ckpt) => println!("Loading {label} from checkpoint {ckpt} (no training)..."),
        None => println!("Training {label} ({} iterations)...", train.iters),
    }
    let mut trainer = begin(train, env.workload.executors, found, None)?;
    if found.is_none() {
        let mut train_env = env.clone();
        if let Some(w) = &train.workload {
            train_env.workload = w.clone();
        }
        let save = ckpt.map(|path| (Path::new(path), 0));
        drive(&mut trainer, &train_env, train.iters, save, None)?;
        if let Some(ckpt) = ckpt {
            println!("[checkpoint] {ckpt}");
        }
    }
    if let Some(hint) = train.eval_iat_hint {
        // Hinted policies observe the *test* IAT at evaluation time.
        trainer.policy.cfg.feat.iat_hint = Some(hint);
    }
    Ok(trainer)
}

/// Where a lineup entry is resolved.
#[derive(Clone, Copy)]
pub enum Site<'a> {
    /// A scenario that trains: entries train and fine-tune on this
    /// environment and serve its cluster.
    Env(&'a SpecEnv),
    /// A scenario that only serves a cluster of this many executors.
    Serving(usize),
}

/// The model a lineup entry stands for; `None` for a heuristic or an
/// untrained policy, which [`crate::factory::make_scheduler`] builds
/// from the spec alone.
pub fn resolve(
    label: &str,
    sched: &SchedulerSpec,
    site: Site,
) -> Result<Option<TrainedPolicy>, String> {
    let executors = match site {
        Site::Env(env) => env.workload.executors,
        Site::Serving(executors) => executors,
    };
    let env = || match site {
        Site::Env(env) => Ok(env),
        Site::Serving(_) => Err(crate::scenario::serving_does_not_train(label)),
    };
    let trainer = match sched {
        SchedulerSpec::Decima { train } => train_entry(label, train, env()?)?,
        SchedulerSpec::DecimaCheckpoint { path } => {
            println!("Loading {label} from checkpoint {path}...");
            open(path, executors, None)?
        }
        SchedulerSpec::FineTuned {
            path,
            iters,
            window,
        } => {
            // Online adaptation: `iters` iterations over a rolling
            // window of `window` trajectories.
            let env = env()?;
            println!("Fine-tuning {label} from {path} ({iters} iters, window {window})...");
            let mut trainer = open(path, executors, None)?;
            trainer.fine_tune_window(env, *iters, *window);
            trainer
        }
        _ => return Ok(None),
    };
    Ok(Some(TrainedPolicy::of(&trainer)))
}

/// The `train` scenario: one checkpointed training run. Builds the
/// trainer from `recipe=` and `seed=` — or, with `resume=true`,
/// restores it bit-exactly from `checkpoint=`, refusing another
/// workload than the one the file echoes — then drives it to `iters=`
/// total iterations with one JSONL record per iteration in `train-log=`
/// and a save every `checkpoint-every=` iterations. Without `resume` the
/// run starts fresh and overwrites both files.
pub fn run_train(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let recipe = spec.text_param("recipe");
    let entry = crate::scenarios::first_train(spec);
    let seed = spec.usize_param("seed") as u64;
    let train = TrainSpec::by_recipe(recipe, entry.iters, seed)?;
    let ckpt = entry.checkpoint.as_deref();
    let ckpt = ckpt.ok_or("the train scenario's entry names no checkpoint")?;
    let resume = spec.flag_param("resume");
    let log_path = match spec.text_param("train-log") {
        "" => format!("out/train_{recipe}.jsonl"),
        path => path.to_string(),
    };
    let log_path = Path::new(&log_path);

    // `iat=` or a continuous-arrival recipe turns the batch into a
    // stream (25 s apart unless set) — unlike `WorkloadSpec::set_mean_iat`,
    // which leaves a batch alone.
    let mut env = spec_env(spec);
    let iat = spec.param("iat").and_then(ParamValue::as_num);
    let iat = iat.or((recipe != "standard").then_some(25.0));
    if let (Some(mean_iat), WorkloadSource::Tpch { arrivals, .. }) = (iat, &mut env.workload.source)
    {
        *arrivals = ArrivalProcess::Poisson { mean_iat };
    }
    let echo = WorkloadEcho::of(&env.workload).with_dynamics(env.sim.dynamics);

    let from = resume.then_some(ckpt);
    let mut trainer = begin(&train, env.workload.executors, from, Some(echo))?;
    if resume {
        println!("Resumed from {ckpt} at iteration {}", trainer.iter());
    }
    // The log is the trainer's history rendered, then one line per new
    // iteration: a resumed run's log is the one an uninterrupted run
    // writes, whatever the file held before.
    if let Some(dir) = log_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut log = std::fs::File::create(log_path)
        .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
    write_records(&mut log, &trainer.history)?;

    if trainer.iter() >= train.iters {
        println!(
            "Checkpoint already at iteration {} (target {}); nothing to do",
            trainer.iter(),
            train.iters
        );
        return Ok(ScenarioReport::new());
    }
    println!(
        "Training recipe '{recipe}' on {} (target {} iterations, checkpoint {ckpt})",
        workload_json(&env.workload).render_compact(),
        train.iters,
    );
    let every = spec.usize_param("checkpoint-every").max(1);
    let save = Some((Path::new(ckpt), every));
    drive(&mut trainer, &env, train.iters, save, Some(&mut log))?;
    println!("[checkpoint] {ckpt}  (iteration {})", trainer.iter());
    println!("[jsonl] {}", log_path.display());
    Ok(ScenarioReport::new())
}
