//! §7.4 analyses: objective-dependent policies (Fig. 13), key-idea
//! ablations vs load (Fig. 14), parallelism-encoding learning curves
//! (Fig. 15a), and decision latency (Fig. 15b).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::Json;
use crate::model::{begin, drive, train_entry};
use crate::report::{ScenarioReport, SeriesReport};
use crate::runner::{episodes, spec_env, RunOptions};
use crate::scenario::{PolicySpec, ScenarioSpec, TrainSpec};
use crate::timed::Timed;
use decima_baselines::WeightedFairScheduler;
use decima_policy::ParallelismMode;
use decima_rl::{EnvFactory, SpecEnv, Trainer};
use decima_sim::{Objective, Scheduler, Simulator};
use decima_workload::WorkloadSpec;

/// Mean avg JCT of a scheduler over the seeds (finite episodes only).
fn mean_jct<S: Scheduler>(
    env: &SpecEnv,
    seeds: &[u64],
    threads: usize,
    make_sched: impl Fn() -> S + Sync,
) -> f64 {
    SeriesReport::of("", "", &episodes(env, seeds, threads, make_sched)).mean()
}

/// Figure 13: qualitatively different learned policies per environment
/// and objective — costly motion, free motion, makespan.
pub fn run_fig13(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let width = spec.usize_param("width");
    let seq = spec.num_param("seed") as u64;
    let train = first_train(spec);
    let base = spec_env(spec);

    let cases: [(&str, f64, Objective); 3] = [
        ("(a) avg JCT, costly motion", 1.0, Objective::AvgJct),
        ("(b) avg JCT, free motion", 0.0, Objective::AvgJct),
        ("(c) makespan objective", 1.0, Objective::Makespan),
    ];

    let mut report = ScenarioReport::new();
    for (title, move_delay, objective) in cases {
        let mut env = base.clone();
        env.workload.move_delay = move_delay;
        env.sim.objective = objective;
        println!();
        let csv = crate::scenario::sanitize(title);
        let trainer = train_entry(title, &train.clone().keyed(&csv), &env)?;
        let trained = TrainedPolicy::of(&trainer);

        env.sim.record_gantt = true;
        let run = episodes(&env, &[seq], 1, || trained.greedy_agent());
        let r = &run[0];
        println!(
            "--- {title}: avg JCT {:.1}s, makespan {:.1}s ---",
            r.avg_jct().unwrap_or(f64::NAN),
            r.makespan().unwrap_or(f64::NAN)
        );
        let mut utilization = f64::NAN;
        if let Some(g) = &r.gantt {
            print!("{}", g.render_ascii(width));
            utilization = g.utilization();
            println!("utilization {:.0}%", 100.0 * utilization);
        }
        report.push_series(SeriesReport::of(title, &csv, &run));
        report.push_extra(
            csv,
            Json::obj([
                ("makespan", Json::Num(r.makespan().unwrap_or(f64::NAN))),
                ("utilization", Json::Num(utilization)),
            ]),
        );
    }
    Ok(report)
}

/// Figure 14: contribution of each key idea, vs cluster load.
pub fn run_fig14(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let iters = spec.usize_param("iters");
    let jobs_n = spec
        .workload
        .as_ref()
        .map(WorkloadSpec::num_jobs)
        .unwrap_or(100);
    let execs = spec.executors();
    // Mean IAT ≈ 24s gives ~85% load at task_scale 8 on 10 executors;
    // larger IATs lower the load.
    let loads: Vec<(f64, f64)> = vec![(0.55, 37.0), (0.70, 29.0), (0.85, 24.0)];
    let eval_start = spec.num_param("eval-seed-start") as u64;
    let eval_seeds: Vec<u64> = (eval_start..eval_start + 4).collect();

    // Base recipe from the registered lineup entry (seed/policy vary
    // per ablation variant below), so registry edits govern the run.
    let base = first_train(spec);
    let variant = move |fixed_seq: bool, policy: PolicySpec, seed: u64| {
        let mut train = base.clone();
        train.iters = iters;
        train.cfg.seed = seed;
        train.cfg.input_dependent_baseline = fixed_seq;
        train.policy = policy;
        train
    };
    let no_gnn = PolicySpec {
        gnn: false,
        ..PolicySpec::default()
    };
    let no_par = PolicySpec {
        parallelism: ParallelismMode::Disabled,
        ..PolicySpec::default()
    };

    let mut rows = Vec::new();
    let mut report = ScenarioReport::new();
    println!("Figure 14: ablations vs cluster load (avg JCT over completed jobs, seconds)");
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "load", "opt-wf", "decima", "no-gnn", "no-par-ctl", "batch-trn", "no-var-red"
    );
    for &(load, iat) in &loads {
        let env = SpecEnv {
            workload: WorkloadSpec::tpch_stream(jobs_n, execs, iat),
            sim: spec.sim.to_config(),
            drift: spec.sim.drift,
        };
        // Heuristic reference.
        let wf = mean_jct(&env, &eval_seeds, opts.threads, || {
            WeightedFairScheduler::new(-1.0)
        });

        let train_and_eval = |name: &str, mut t: TrainSpec, batch_train: bool| {
            if batch_train {
                t.workload = Some(WorkloadSpec::tpch_batch(20, execs));
                t.cfg.curriculum = None;
                t.cfg.differential_reward = false;
            }
            let key = format!("load{:.0}_{name}", load * 100.0);
            let trainer = train_entry(&format!("{name} at load {load}"), &t.keyed(&key), &env)?;
            let trained = TrainedPolicy::of(&trainer);
            let greedy = || trained.greedy_agent();
            Ok::<f64, String>(mean_jct(&env, &eval_seeds, opts.threads, greedy))
        };

        let default = PolicySpec::default;
        let full = train_and_eval("decima", variant(true, default(), 31), false)?;
        let no_gnn_jct = train_and_eval("no_gnn", variant(true, no_gnn.clone(), 33), false)?;
        let no_par_jct = train_and_eval("no_par_ctl", variant(true, no_par.clone(), 35), false)?;
        let batch_trained = train_and_eval("batch_trained", variant(true, default(), 37), true)?;
        let no_var = train_and_eval("no_var_red", variant(false, default(), 39), false)?;

        println!(
            "{:<10} {:>12.1} {:>10.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            format!("{:.0}%", load * 100.0),
            wf,
            full,
            no_gnn_jct,
            no_par_jct,
            batch_trained,
            no_var
        );
        rows.push(format!(
            "{load},{wf:.2},{full:.2},{no_gnn_jct:.2},{no_par_jct:.2},{batch_trained:.2},{no_var:.2}"
        ));
        report.push_extra(
            format!("load_{:.0}", load * 100.0),
            Json::obj([
                ("opt_wf", Json::Num(wf)),
                ("decima", Json::Num(full)),
                ("no_gnn", Json::Num(no_gnn_jct)),
                ("no_par_ctl", Json::Num(no_par_jct)),
                ("batch_trained", Json::Num(batch_trained)),
                ("no_var_red", Json::Num(no_var)),
            ]),
        );
    }
    report.push_table(
        "fig14_ablations",
        "load,opt_wf,decima,no_gnn,no_par_ctl,batch_trained,no_var_red",
        rows,
    );
    Ok(report)
}

/// Figure 15a: learning curves of the three parallelism encodings.
pub fn run_fig15a(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let iters = spec.usize_param("iters");
    let every = spec.usize_param("eval-every").max(1);
    let env = spec_env(spec);
    let execs = env.workload.executors;
    let eval_start = spec.num_param("eval-seed-start") as u64;
    let eval_seeds: Vec<u64> = (eval_start..eval_start + 3).collect();
    let modes = [
        ("job-level (decima)", ParallelismMode::JobLevel),
        ("one-hot limits", ParallelismMode::OneHot),
        ("stage-level", ParallelismMode::StageLevel),
    ];

    let mut curves: Vec<Vec<(usize, f64)>> = Vec::new();
    for &(name, mode) in &modes {
        println!("\nTraining variant: {name}");
        let mut train = TrainSpec::tuned(iters, 41);
        train.cfg.entropy_decay_iters = iters.max(1);
        train.cfg.differential_reward = false;
        train.cfg.curriculum = None;
        train.policy.parallelism = mode;
        let mut t = begin(&train, execs, None, None)?;
        let eval = |t: &Trainer| {
            let trained = TrainedPolicy::of(t);
            mean_jct(&env, &eval_seeds, opts.threads, || trained.greedy_agent())
        };
        let mut curve = vec![(0usize, eval(&t))];
        for block in 0..(iters / every) {
            drive(&mut t, &env, (block + 1) * every, None, None)?;
            let jct = eval(&t);
            println!("  iter {:>4}: eval avg JCT {jct:.1}s", (block + 1) * every);
            curve.push(((block + 1) * every, jct));
        }
        curves.push(curve);
    }

    let mut rows = Vec::new();
    for ((&(iter, job_level), &(_, one_hot)), &(_, stage_level)) in
        curves[0].iter().zip(&curves[1]).zip(&curves[2])
    {
        rows.push(format!(
            "{iter},{job_level:.2},{one_hot:.2},{stage_level:.2}"
        ));
    }
    let mut report = ScenarioReport::new();
    report.push_table(
        "fig15a_learning_curve",
        "iter,job_level,one_hot,stage_level",
        rows,
    );
    for (i, key) in ["job_level", "one_hot", "stage_level"].iter().enumerate() {
        report.push_extra(
            key.to_string(),
            Json::Arr(
                curves[i]
                    .iter()
                    .map(|&(it, jct)| Json::nums([it as f64, jct]))
                    .collect(),
            ),
        );
    }
    Ok(report)
}

/// Figure 15b: CDF of scheduling-decision latency vs the interval
/// between scheduling events.
pub fn run_fig15b(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    use decima_core::percentile;
    let env = spec_env(spec);
    let execs = env.workload.executors;
    let seed = spec.num_param("seed") as u64;

    // The agent comes from the registered lineup entry (an untrained
    // sampling policy), so registry edits govern the run.
    let (policy, sample_seed) = spec
        .lineup
        .iter()
        .find_map(|e| match &e.sched {
            crate::scenario::SchedulerSpec::DecimaUntrained {
                policy,
                sample_seed,
            } => Some((policy.clone(), *sample_seed)),
            _ => None,
        })
        .unwrap_or((PolicySpec::default(), Some(1)));
    let (cluster, jobs, cfg) = env.build(seed);
    let mut agent = Timed::new(crate::factory::untrained_agent(&policy, execs, sample_seed));
    let result = Simulator::new(cluster, jobs, cfg).run(&mut agent);

    let delays_ms: Vec<f64> = agent.decide_secs.iter().map(|s| s * 1e3).collect();
    let mut intervals_ms: Vec<f64> = result
        .actions
        .windows(2)
        .map(|w| (w[1].time - w[0].time) * 1e3)
        .filter(|&d| d > 0.0)
        .collect();
    intervals_ms.sort_by(|a, b| a.total_cmp(b));

    println!(
        "Figure 15b: scheduling delay vs event interval ({} decisions)",
        delays_ms.len()
    );
    let mut report = ScenarioReport::new();
    let mut quantiles = Vec::new();
    for q in [0.5, 0.9, 0.95, 0.99] {
        let d = percentile(&delays_ms, q);
        let iv = percentile(&intervals_ms, q);
        println!(
            "  p{:>2.0}: decision {:>8.2} ms   event interval {:>10.1} ms",
            q * 100.0,
            d,
            iv
        );
        quantiles.push(Json::nums([q, d, iv]));
    }
    let ratio = percentile(&intervals_ms, 0.5) / percentile(&delays_ms, 0.5).max(1e-9);
    println!("  median interval / median delay: {ratio:.0}x (paper: ~50x, <15 ms decisions)");

    let mut sorted = delays_ms.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rows: Vec<String> = sorted
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let f = (i + 1) as f64 / sorted.len() as f64;
            let interval = intervals_ms
                .get(i * intervals_ms.len() / sorted.len())
                .copied()
                .unwrap_or(f64::NAN);
            format!("{f:.4},{d:.4},{interval:.2}")
        })
        .collect();
    report.push_table("fig15b_latency", "cdf,decision_ms,interval_ms", rows);
    report.push_extra("quantiles_q_decision_interval", Json::Arr(quantiles));
    report.push_extra("interval_over_delay_median", Json::Num(ratio));
    Ok(report)
}
