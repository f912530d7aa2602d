//! Appendix artifacts: the two-branch example DAG (Fig. 16, App. A),
//! simulator fidelity (Fig. 18, App. D), GNN expressiveness (Fig. 19,
//! App. E), and the exhaustive-search comparison (Fig. 22, App. H).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::Json;
use crate::model::train_entry;
use crate::report::{ScenarioReport, SeriesReport};
use crate::run_episode;
use crate::runner::{episodes, par_map, spec_env, RunOptions};
use crate::scenario::ScenarioSpec;
use decima_baselines::{exhaustive_search, SjfCpScheduler, WeightedFairScheduler};
use decima_core::{ClusterSpec, JobId, SimTime};
use decima_gnn::{random_cp_example, CpExample, CpHarness};
use decima_rl::EnvFactory as _;
use decima_sim::SimConfig;
use decima_workload::{renumber, tpch_job_scaled, APPENDIX_DAG_EPS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Figure 16 (Appendix A): critical-path scheduling is 29% slower than
/// the optimal plan on the two-branch DAG — and Decima learns the
/// optimal plan.
pub fn run_fig16(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let mut train = first_train(spec);
    // The historical binary anneals entropy over half the run.
    train.cfg.entropy_decay_iters = train.iters / 2;
    let env = spec_env(spec);
    const EPS: f64 = APPENDIX_DAG_EPS;

    let cp_run = episodes(&env, &[0], 1, || SjfCpScheduler);
    let cp = cp_run[0].makespan().unwrap();
    println!(
        "critical-path schedule: {cp:.2}s (paper: 28 + 3ε = {:.2}s)",
        28.0 + 3.0 * EPS
    );
    println!(
        "optimal plan:           {:.2}s (paper: 20 + 3ε)",
        20.0 + 3.0 * EPS
    );

    println!();
    let trainer = train_entry("Decima on this single DAG", &train, &env)?;
    let trained = TrainedPolicy::of(&trainer);
    let learned_run = episodes(&env, &[0], 1, || trained.greedy_agent());
    let learned = learned_run[0].makespan().unwrap();
    println!("\nDecima's learned schedule: {learned:.2}s");
    println!(
        "vs critical path: {:+.0}% (paper: optimal is 29% faster)",
        100.0 * (learned - cp) / cp
    );

    let mut report = ScenarioReport::new();
    // One job arriving at time zero: its JCT is the makespan.
    report.push_series(SeriesReport::of("sjf-cp", "sjf_cp", &cp_run));
    report.push_series(SeriesReport::of("decima", "decima", &learned_run));
    report.push_table(
        "fig16_appendix_example",
        "scheduler,makespan",
        vec![
            format!("sjf_cp,{cp:.2}"),
            format!("decima,{learned:.2}"),
            format!("optimal,{:.2}", 20.0 + 3.0 * EPS),
        ],
    );
    report.push_extra("critical_path_makespan", Json::Num(cp));
    report.push_extra("decima_makespan", Json::Num(learned));
    report.push_extra("optimal_makespan", Json::Num(20.0 + 3.0 * EPS));
    Ok(report)
}

/// Figure 18 (Appendix D): simulator fidelity — the de-noised engine vs
/// the full-noise engine as the "real cluster" stand-in.
pub fn run_fig18(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let reps = spec.usize_param("reps");
    let noise = spec.num_param("noise");
    // The spec's workload is the representative single-query source; its
    // task scale (overridable with `--set task-scale=…`) governs all 22.
    let scale = match spec.workload.as_ref().map(|w| &w.source) {
        Some(decima_workload::WorkloadSource::SingleTpch { task_scale, .. }) => *task_scale,
        _ => 4.0,
    };
    let execs = spec.executors();
    let move_delay = spec.workload.as_ref().map_or(2.5, |w| w.move_delay);

    let cluster = ClusterSpec::homogeneous(execs).with_move_delay(move_delay);
    let sim_cfg = SimConfig::default().with_seed(0);
    println!("Figure 18a: single jobs in isolation (relative error, sim vs noisy 'real')");
    let mut rows = Vec::new();
    let mut errs = Vec::new();
    let rep_seeds: Vec<u64> = (0..reps as u64).collect();
    for q in 1..=22u16 {
        let jobs = vec![tpch_job_scaled(q, 20.0, JobId(0), SimTime::ZERO, scale)];
        let sim = run_episode(&cluster, &jobs, &sim_cfg, WeightedFairScheduler::fair())
            .avg_jct()
            .unwrap();
        let reals = par_map(&rep_seeds, opts.threads, |&r| {
            let cfg = SimConfig::default().with_noise(noise).with_seed(100 + r);
            run_episode(&cluster, &jobs, &cfg, WeightedFairScheduler::fair())
                .avg_jct()
                .unwrap()
        });
        let real_mean: f64 = reals.iter().sum::<f64>() / reps as f64;
        let err = 100.0 * (sim - real_mean) / real_mean;
        errs.push(err.abs());
        println!("  q{q:<3} real {real_mean:>7.1}s  sim {sim:>7.1}s  err {err:>+6.1}%");
        rows.push(format!("q{q},{real_mean:.2},{sim:.2},{err:.2}"));
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    println!("mean |error| isolated: {mean_err:.1}% (paper: ≤5%)");
    let mut report = ScenarioReport::new();
    report.push_table("fig18a_isolated", "query,real_mean,sim,err_pct", rows);

    println!("\nFigure 18b: 22-query mix on a shared cluster");
    let jobs = renumber(
        (1..=22u16)
            .map(|q| tpch_job_scaled(q, 10.0, JobId(0), SimTime::ZERO, scale))
            .collect(),
    );
    let sim = run_episode(&cluster, &jobs, &sim_cfg, WeightedFairScheduler::fair())
        .avg_jct()
        .unwrap();
    let reals = par_map(&rep_seeds, opts.threads, |&r| {
        let cfg = SimConfig::default().with_noise(noise).with_seed(200 + r);
        run_episode(&cluster, &jobs, &cfg, WeightedFairScheduler::fair())
            .avg_jct()
            .unwrap()
    });
    let real_mean = reals.iter().sum::<f64>() / reps as f64;
    let err = 100.0 * (sim - real_mean) / real_mean;
    println!("  mix: real {real_mean:.1}s  sim {sim:.1}s  err {err:+.1}% (paper: ≤9%)");
    report.push_extra("mean_abs_err_isolated_pct", Json::Num(mean_err));
    report.push_extra(
        "mix",
        Json::obj([
            ("real_mean", Json::Num(real_mean)),
            ("sim", Json::Num(sim)),
            ("err_pct", Json::Num(err)),
        ]),
    );
    Ok(report)
}

/// Figure 19 (Appendix E): critical-path identification accuracy of the
/// two-level aggregation vs a single-aggregation GNN.
pub fn run_fig19(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let iters = spec.usize_param("iters");
    let nodes = spec.usize_param("nodes");
    let every = spec.usize_param("eval-every").max(1);

    let mut rng = SmallRng::seed_from_u64(0);
    let train: Vec<CpExample> = (0..64)
        .map(|_| random_cp_example(nodes, &mut rng))
        .collect();
    let test: Vec<CpExample> = (0..100)
        .map(|_| random_cp_example(nodes, &mut rng))
        .collect();

    let mut two = CpHarness::new(true, 7);
    let mut one = CpHarness::new(false, 7);
    println!("Figure 19: critical-path argmax accuracy on unseen {nodes}-node DAGs");
    println!("{:>6} {:>14} {:>14}", "iter", "two-level", "single-level");
    let mut rows = Vec::new();
    let mut curve = Vec::new();
    for i in 0..=iters {
        if i % every == 0 {
            let a2 = two.accuracy(&test);
            let a1 = one.accuracy(&test);
            println!("{i:>6} {a2:>14.2} {a1:>14.2}");
            rows.push(format!("{i},{a2:.4},{a1:.4}"));
            curve.push(Json::nums([i as f64, a2, a1]));
        }
        if i < iters {
            let lo = (i * 8) % (train.len() - 8);
            two.train_step(&train[lo..lo + 8]);
            one.train_step(&train[lo..lo + 8]);
        }
    }
    let mut report = ScenarioReport::new();
    report.push_table("fig19_expressiveness", "iter,two_level,single_level", rows);
    report.push_extra("accuracy_iter_two_one", Json::Arr(curve));
    Ok(report)
}

/// Figure 22 (Appendix H): Decima vs an exhaustive search over job
/// orderings in the simplified environment.
pub fn run_fig22(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let budget = spec.usize_param("orderings");
    let train = first_train(spec);
    let env = spec_env(spec);
    let seeds = spec.seeds.seeds();

    let trainer = train_entry("Decima in the simplified environment", &train, &env)?;
    let trained = TrainedPolicy::of(&trainer);

    println!(
        "\nFigure 22: avg JCT on {} unseen 10-job batches (simplified sim)",
        seeds.len()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>12}",
        "seed", "opt-wf", "sjf-cp", "search", "decima"
    );
    let wf = episodes(&env, &seeds, opts.threads, || {
        WeightedFairScheduler::new(-1.0)
    });
    let sjf = episodes(&env, &seeds, opts.threads, || SjfCpScheduler);
    let searches = par_map(&seeds, opts.threads, |&seed| {
        let (cluster, jobs, cfg) = env.build(seed);
        exhaustive_search(&cluster, &jobs, &cfg, budget)
    });
    let decima = episodes(&env, &seeds, opts.threads, || trained.greedy_agent());
    let columns = [
        SeriesReport::of("opt-wf", "opt_wf", &wf),
        SeriesReport::of("sjf-cp", "sjf_cp", &sjf),
        SeriesReport {
            label: "search".into(),
            csv: "search".into(),
            avg_jcts: searches.iter().map(|s| s.avg_jct).collect(),
            unfinished: 0,
        },
        SeriesReport::of("decima", "decima", &decima),
    ];

    let mut rows = Vec::new();
    for (i, (seed, search)) in seeds.iter().zip(&searches).enumerate() {
        let [wf, sjf, searched, decima] = [0, 1, 2, 3].map(|col| columns[col].avg_jcts[i]);
        println!(
            "{seed:>6} {wf:>12.1} {sjf:>12.1} {searched:>14.1} {decima:>12.1}   \
             (search evaluated {} orderings{})",
            search.evaluated,
            if search.exhaustive {
                ", exhaustive"
            } else {
                ", sampled"
            }
        );
        rows.push(format!("{seed},{wf:.2},{sjf:.2},{searched:.2},{decima:.2}"));
    }
    let mut report = ScenarioReport::new();
    report.series.extend(columns);
    report.push_table("fig22_optimality", "seed,opt_wf,sjf_cp,search,decima", rows);
    Ok(report)
}
