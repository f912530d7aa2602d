//! Appendix artifacts: the two-branch example DAG (Fig. 16, App. A),
//! simulator fidelity (Fig. 18, App. D), GNN expressiveness (Fig. 19,
//! App. E), and the exhaustive-search comparison (Fig. 22, App. H).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::Json;
use crate::model::train_entry;
use crate::report::{ScenarioReport, SeriesReport};
use crate::runner::{par_map, spec_env, RunOptions};
use crate::scenario::ScenarioSpec;
use crate::{run_episode, write_csv};
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

    let (cluster, jobs, cfg) = env.build(0);
    let cp = run_episode(&cluster, &jobs, &cfg, SjfCpScheduler)
        .makespan()
        .unwrap();
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
    let mut agent = TrainedPolicy::of(&trainer).greedy_agent();
    let learned = run_episode(&cluster, &jobs, &cfg, &mut agent)
        .makespan()
        .unwrap();
    println!("\nDecima's learned schedule: {learned:.2}s");
    println!(
        "vs critical path: {:+.0}% (paper: optimal is 29% faster)",
        100.0 * (learned - cp) / cp
    );

    let mut report = ScenarioReport::new();
    report.push_series(SeriesReport {
        label: "sjf-cp".into(),
        csv: "sjf_cp".into(),
        avg_jcts: vec![cp],
        unfinished: 0,
    });
    report.push_series(SeriesReport {
        label: "decima".into(),
        csv: "decima".into(),
        avg_jcts: vec![learned],
        unfinished: 0,
    });
    report.push_csv(write_csv(
        "fig16_appendix_example",
        "scheduler,makespan",
        &[
            format!("sjf_cp,{cp:.2}"),
            format!("decima,{learned:.2}"),
            format!("optimal,{:.2}", 20.0 + 3.0 * EPS),
        ],
    ));
    report.push_extra("critical_path_makespan", Json::Num(cp));
    report.push_extra("decima_makespan", Json::Num(learned));
    report.push_extra("optimal_makespan", Json::Num(20.0 + 3.0 * EPS));
    Ok(report)
}

/// Figure 18 (Appendix D): simulator fidelity — the de-noised engine vs
/// the full-noise engine as the "real cluster" stand-in.
pub fn run_fig18(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let reps = spec.usize_param("reps", 10);
    let noise = spec.num_param("noise", 0.15);
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
    report.push_csv(write_csv(
        "fig18a_isolated",
        "query,real_mean,sim,err_pct",
        &rows,
    ));

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
    let iters = spec.usize_param("iters", 300);
    let nodes = spec.usize_param("nodes", 20);
    let every = spec.usize_param("eval-every", 25).max(1);

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
    report.push_csv(write_csv(
        "fig19_expressiveness",
        "iter,two_level,single_level",
        &rows,
    ));
    report.push_extra("accuracy_iter_two_one", Json::Arr(curve));
    Ok(report)
}

/// Figure 22 (Appendix H): Decima vs an exhaustive search over job
/// orderings in the simplified environment.
pub fn run_fig22(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let budget = spec.usize_param("orderings", 2000);
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
    struct Row {
        seed: u64,
        wf: f64,
        sjf: f64,
        search: decima_baselines::SearchResult,
        decima: f64,
    }
    let computed: Vec<Row> = par_map(&seeds, opts.threads, |&seed| {
        let (cluster, jobs, cfg) = env.build(seed);
        let wf = run_episode(&cluster, &jobs, &cfg, WeightedFairScheduler::new(-1.0))
            .avg_jct()
            .unwrap();
        let sjf = run_episode(&cluster, &jobs, &cfg, SjfCpScheduler)
            .avg_jct()
            .unwrap();
        let search = exhaustive_search(&cluster, &jobs, &cfg, budget);
        let mut agent = trained.greedy_agent();
        let decima = run_episode(&cluster, &jobs, &cfg, &mut agent)
            .avg_jct()
            .unwrap();
        Row {
            seed,
            wf,
            sjf,
            search,
            decima,
        }
    });
    let mut rows = Vec::new();
    let mut report = ScenarioReport::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for r in &computed {
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>14.1} {:>12.1}   (search evaluated {} orderings{})",
            r.seed,
            r.wf,
            r.sjf,
            r.search.avg_jct,
            r.decima,
            r.search.evaluated,
            if r.search.exhaustive {
                ", exhaustive"
            } else {
                ", sampled"
            }
        );
        rows.push(format!(
            "{},{:.2},{:.2},{:.2},{:.2}",
            r.seed, r.wf, r.sjf, r.search.avg_jct, r.decima
        ));
        for (col, v) in columns
            .iter_mut()
            .zip([r.wf, r.sjf, r.search.avg_jct, r.decima])
        {
            col.push(v);
        }
    }
    report.push_csv(write_csv(
        "fig22_optimality",
        "seed,opt_wf,sjf_cp,search,decima",
        &rows,
    ));
    for (name, col) in ["opt_wf", "sjf_cp", "search", "decima"].iter().zip(columns) {
        report.push_series(SeriesReport {
            label: name.replace('_', "-"),
            csv: name.to_string(),
            avg_jcts: col,
            unfinished: 0,
        });
    }
    Ok(report)
}
