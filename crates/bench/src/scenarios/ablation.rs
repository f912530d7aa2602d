//! §7.4 analyses: objective-dependent policies (Fig. 13), key-idea
//! ablations vs load (Fig. 14), parallelism-encoding learning curves
//! (Fig. 15a), and decision latency (Fig. 15b).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::{obj, Json, ToJson};
use crate::model::{begin, drive, train_entry};
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table, CSV, JSON, TERM};
use crate::runner::{episodes, spec_env, RunOptions};
use crate::scenario::{PolicySpec, ScenarioSpec, TrainSpec};
use decima_baselines::WeightedFairScheduler;
use decima_policy::ParallelismMode;
use decima_rl::{EnvFactory, SpecEnv, Trainer};
use decima_sim::{Objective, Scheduler, Simulator};
use decima_workload::WorkloadSpec;
use std::time::Instant;

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
        let makespan = r.makespan().unwrap_or(f64::NAN);
        report.push_extra(csv, obj!(makespan, utilization));
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
    // (CSV / JSON / model key, terminal heading, recipe, trained on batches)
    let default = PolicySpec::default;
    let variants = [
        ("decima", "decima", variant(true, default(), 31), false),
        ("no_gnn", "no-gnn", variant(true, no_gnn, 33), false),
        ("no_par_ctl", "no-par-ctl", variant(true, no_par, 35), false),
        (
            "batch_trained",
            "batch-trn",
            variant(true, default(), 37),
            true,
        ),
        (
            "no_var_red",
            "no-var-red",
            variant(false, default(), 39),
            false,
        ),
    ];

    let mut report = ScenarioReport::new();
    println!("Figure 14: ablations vs cluster load (avg JCT over completed jobs, seconds)");
    // The terminal shows the load as a percentage, the CSV as a fraction.
    let fixed = [
        Column::new("load").on(TERM),
        Column::new("load").shortest().on(CSV),
        Column::new("opt_wf").heading("opt-wf"),
    ];
    let arms = variants
        .iter()
        .map(|(key, heading, ..)| Column::new(*key).heading(heading));
    let mut table = Table::new("fig14_ablations", fixed.into_iter().chain(arms));
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
        let mut row = vec![
            format!("{:.0}%", load * 100.0).into(),
            load.into(),
            wf.into(),
        ];
        for (name, _, train, batch_train) in &variants {
            let mut t = train.clone();
            if *batch_train {
                t.workload = Some(WorkloadSpec::tpch_batch(20, execs));
                t.cfg.curriculum = None;
                t.cfg.differential_reward = false;
            }
            let key = format!("load{:.0}_{name}", load * 100.0);
            let trainer = train_entry(&format!("{name} at load {load}"), &t.keyed(&key), &env)?;
            let trained = TrainedPolicy::of(&trainer);
            let greedy = || trained.greedy_agent();
            row.push(mean_jct(&env, &eval_seeds, opts.threads, greedy).into());
        }
        table.push(row);
    }
    table.print();
    for (&(load, _), row) in loads.iter().zip(table.json_rows()) {
        report.push_extra(format!("load_{:.0}", load * 100.0), Json::Obj(row));
    }
    report.push_table(table);
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
        ("job-level (decima)", ParallelismMode::JobLevel, "job_level"),
        ("one-hot limits", ParallelismMode::OneHot, "one_hot"),
        ("stage-level", ParallelismMode::StageLevel, "stage_level"),
    ];

    let mut curves: Vec<Vec<(usize, f64)>> = Vec::new();
    for &(name, mode, _) in &modes {
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

    let keys = modes.map(|(_, _, key)| key);
    let columns = std::iter::once("iter").chain(keys).map(Column::new);
    let mut table = Table::new("fig15a_learning_curve", columns);
    for (i, &(iter, _)) in curves[0].iter().enumerate() {
        let jcts = curves.iter().map(|curve| curve[i].1.into());
        table.push(std::iter::once(iter.into()).chain(jcts));
    }
    let mut report = ScenarioReport::new();
    for key in keys {
        report.push_extra(key, table.json_arrays(&["iter", key]));
    }
    report.push_table(table);
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
    let mut agent = crate::factory::untrained_agent(&policy, execs, sample_seed);
    let mut sim = Simulator::new(cluster, jobs, cfg);
    // The latency of every `decide` call and the simulated time of
    // every decision (every call that returned an action), in call order.
    let (mut delays_ms, mut decision_times) = (Vec::new(), Vec::new());
    agent.on_episode_start();
    while let Some(pending) = sim.step() {
        let obs = pending.observation();
        #[expect(
            clippy::disallowed_methods,
            reason = "Figure 15b's decision latencies: recorded beside the run, never fed back"
        )]
        let t0 = Instant::now();
        let action = agent.decide(obs);
        delays_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if action.is_some() {
            decision_times.push(obs.time);
        }
        pending.resume(action);
    }

    let mut intervals_ms: Vec<f64> = decision_times
        .windows(2)
        .map(|w| (w[1] - w[0]) * 1e3)
        .filter(|&d| d > 0.0)
        .collect();
    intervals_ms.sort_by(|a, b| a.total_cmp(b));

    println!(
        "Figure 15b: scheduling delay vs event interval ({} decisions)",
        delays_ms.len()
    );
    let mut report = ScenarioReport::new();
    let mut quantiles = Table::new(
        "quantiles",
        [
            Column::new("").on(TERM),
            Column::new("q").on(JSON),
            Column::new("decision").digits(2, 2).unit(" ms"),
            Column::new("event interval").unit(" ms"),
        ],
    )
    .labelled();
    for q in [0.5, 0.9, 0.95, 0.99] {
        let (d, iv) = (percentile(&delays_ms, q), percentile(&intervals_ms, q));
        quantiles.push([
            format!("p{:.0}:", q * 100.0).into(),
            q.into(),
            d.into(),
            iv.into(),
        ]);
    }
    quantiles.print();
    let ratio = percentile(&intervals_ms, 0.5) / percentile(&delays_ms, 0.5).max(1e-9);
    println!("  median interval / median delay: {ratio:.0}x (paper: ~50x, <15 ms decisions)");

    let mut sorted = delays_ms.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mut table = Table::new(
        "fig15b_latency",
        [
            Column::new("cdf").digits(4, 4),
            Column::new("decision_ms").digits(4, 4),
            Column::new("interval_ms"),
        ],
    );
    for (i, &d) in sorted.iter().enumerate() {
        let f = (i + 1) as f64 / sorted.len() as f64;
        let interval = intervals_ms.get(i * intervals_ms.len() / sorted.len());
        table.push([f, d, interval.copied().unwrap_or(f64::NAN)].map(Cell::Num));
    }
    report.push_table(table);
    report.push_extra("quantiles_q_decision_interval", quantiles.json_arrays(&[]));
    report.push_extra("interval_over_delay_median", Json::Num(ratio));
    Ok(report)
}
