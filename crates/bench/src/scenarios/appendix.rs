//! Appendix artifacts: the two-branch example DAG (Fig. 16, App. A),
//! simulator fidelity (Fig. 18, App. D), GNN expressiveness (Fig. 19,
//! App. E), and the exhaustive-search comparison (Fig. 22, App. H).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::{obj, Json, ToJson};
use crate::model::train_entry;
use crate::report::{Column, ScenarioReport, SeriesReport, Table, TERM};
use crate::run_episode;
use crate::runner::{episodes, par_map, spec_env, RunOptions};
use crate::scenario::ScenarioSpec;
use decima_baselines::{exhaustive_search, SjfCpScheduler, WeightedFairScheduler};
use decima_core::{ClusterSpec, JobId, JobSpec, SimTime};
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
    // A horizon that ends before the job does leaves no makespan: an
    // empty cell and a `null`.
    let cp = cp_run[0].makespan().unwrap_or(f64::NAN);
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
    let learned = learned_run[0].makespan().unwrap_or(f64::NAN);
    println!("\nDecima's learned schedule: {learned:.2}s");
    println!(
        "vs critical path: {:+.0}% (paper: optimal is 29% faster)",
        100.0 * (learned - cp) / cp
    );

    let mut report = ScenarioReport::new();
    // One job arriving at time zero: its JCT is the makespan.
    report.push_series(SeriesReport::of("sjf-cp", "sjf_cp", &cp_run));
    report.push_series(SeriesReport::of("decima", "decima", &learned_run));
    let columns = ["scheduler", "makespan"].map(Column::new);
    let mut table = Table::new("fig16_appendix_example", columns);
    table.push(["sjf_cp".into(), cp.into()]);
    table.push(["decima".into(), learned.into()]);
    table.push(["optimal".into(), (20.0 + 3.0 * EPS).into()]);
    report.push_table(table);
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
    // A horizon too short for a job to finish leaves its JCT undefined:
    // an empty cell and a `null`, like any run that completes nothing.
    let config = |seed: u64| spec.sim.to_config().with_seed(seed);
    let fair_jct = |jobs: &[JobSpec], cfg: &SimConfig| {
        let run = run_episode(&cluster, jobs, cfg, WeightedFairScheduler::fair());
        run.avg_jct().unwrap_or(f64::NAN)
    };
    let sim_cfg = config(0);
    println!("Figure 18a: single jobs in isolation (relative error, sim vs noisy 'real')");
    let mut table = Table::new(
        "fig18a_isolated",
        [
            Column::new("query").heading(""),
            Column::new("real_mean").heading("real").unit("s"),
            Column::new("sim").unit("s"),
            Column::new("err_pct").heading("err").signed().unit("%"),
        ],
    )
    .labelled();
    let mut errs = Vec::new();
    let rep_seeds: Vec<u64> = (0..reps as u64).collect();
    for q in 1..=22u16 {
        let jobs = vec![tpch_job_scaled(q, 20.0, JobId(0), SimTime::ZERO, scale)];
        let sim = fair_jct(&jobs, &sim_cfg);
        let reals = par_map(&rep_seeds, opts.threads, |&r| {
            fair_jct(&jobs, &config(100 + r).with_noise(noise))
        });
        let real_mean: f64 = reals.iter().sum::<f64>() / reps as f64;
        let err = 100.0 * (sim - real_mean) / real_mean;
        errs.push(err.abs());
        table.push([
            format!("q{q}").into(),
            real_mean.into(),
            sim.into(),
            err.into(),
        ]);
    }
    table.print();
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    println!("mean |error| isolated: {mean_err:.1}% (paper: ≤5%)");
    let mut report = ScenarioReport::new();
    report.push_table(table);

    println!("\nFigure 18b: 22-query mix on a shared cluster");
    let jobs = renumber(
        (1..=22u16)
            .map(|q| tpch_job_scaled(q, 10.0, JobId(0), SimTime::ZERO, scale))
            .collect(),
    );
    let sim = fair_jct(&jobs, &sim_cfg);
    let reals = par_map(&rep_seeds, opts.threads, |&r| {
        fair_jct(&jobs, &config(200 + r).with_noise(noise))
    });
    let real_mean = reals.iter().sum::<f64>() / reps as f64;
    let err = 100.0 * (sim - real_mean) / real_mean;
    println!("  mix: real {real_mean:.1}s  sim {sim:.1}s  err {err:+.1}% (paper: ≤9%)");
    report.push_extra("mean_abs_err_isolated_pct", Json::Num(mean_err));
    report.push_extra("mix", obj!(real_mean, sim, "err_pct" => err));
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
    let mut table = Table::new(
        "fig19_expressiveness",
        [
            Column::new("iter"),
            Column::new("two_level").heading("two-level").digits(4, 2),
            Column::new("single_level")
                .heading("single-level")
                .digits(4, 2),
        ],
    );
    for i in 0..=iters {
        if i % every == 0 {
            table.push([
                i.into(),
                two.accuracy(&test).into(),
                one.accuracy(&test).into(),
            ]);
        }
        if i < iters {
            let lo = (i * 8) % (train.len() - 8);
            two.train_step(&train[lo..lo + 8]);
            one.train_step(&train[lo..lo + 8]);
        }
    }
    table.print();
    let mut report = ScenarioReport::new();
    report.push_extra("accuracy_iter_two_one", table.json_arrays(&[]));
    report.push_table(table);
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

    // One column per series, then what the search did (terminal only).
    let series = columns.iter();
    let series = series.map(|s| Column::new(s.csv.as_str()).heading(&s.label));
    let note = Column::new("").on(TERM);
    let seed = std::iter::once(Column::new("seed"));
    let mut table = Table::new("fig22_optimality", seed.chain(series).chain([note]));
    for (i, (&seed, search)) in seeds.iter().zip(&searches).enumerate() {
        let jcts = columns.iter().map(|s| s.avg_jcts[i].into());
        let how = if search.exhaustive {
            "exhaustive"
        } else {
            "sampled"
        };
        let note = format!("(search evaluated {} orderings, {how})", search.evaluated);
        table.push(
            std::iter::once(seed.into())
                .chain(jcts)
                .chain([note.into()]),
        );
    }
    table.print();
    let mut report = ScenarioReport::new();
    report.series.extend(columns);
    report.push_table(table);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

    /// A horizon that ends before any job does: Figures 16 and 18 report
    /// empty CSV cells and JSON `null`s where they used to panic on the
    /// missing makespan / JCT.
    #[test]
    fn a_horizon_that_finishes_nothing_is_empty_cells_and_nulls() {
        let registry = ScenarioRegistry::standard();
        let opts = RunOptions::default();
        let run = |name: &str, run: crate::runner::RunFn, sets: &[(&str, &str)]| {
            let mut spec = registry.get(name).unwrap().spec.clone();
            sets.iter().for_each(|(k, v)| spec.set(k, v).unwrap());
            spec.sim.time_limit = Some(1e-3);
            let report = run(&spec, &opts).unwrap();
            (report.tables[0].csv(), report.to_json(&spec))
        };

        let (csv, doc) = run("fig16", run_fig16, &[("iters", "0")]);
        let optimal = format!("optimal,{:.2}", 20.0 + 3.0 * APPENDIX_DAG_EPS);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            ["scheduler,makespan", "sjf_cp,", "decima,", &optimal]
        );
        let extra = doc.get("extra").unwrap();
        assert!(extra.get("optimal_makespan").unwrap().as_f64().is_some());
        let rendered = extra.render();
        assert!(
            rendered.contains("\"critical_path_makespan\": null"),
            "{rendered}"
        );
        assert!(rendered.contains("\"decima_makespan\": null"), "{rendered}");

        let (csv, doc) = run("fig18", run_fig18, &[("reps", "1")]);
        assert_eq!(csv.lines().count(), 23);
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",,,")), "{csv}");
        let rendered = doc.get("extra").unwrap().render();
        assert!(
            rendered.contains("\"mean_abs_err_isolated_pct\": null"),
            "{rendered}"
        );
        assert!(rendered.contains("\"sim\": null"), "{rendered}");
    }
}
