//! §7.3 multi-resource experiments: packing comparison (Fig. 11) and
//! the job-size breakdown vs Graphene* (Fig. 12).

use crate::factory::TrainedPolicy;
use crate::model::train_entry;
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table, CSV};
use crate::runner::{episodes, spec_env, RunOptions};
use crate::scenario::{ParamValue, ScenarioSpec};
use decima_baselines::{tune_graphene, GrapheneScheduler, TetrisScheduler, WeightedFairScheduler};
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::EpisodeResult;
use decima_workload::{ArrivalProcess, WorkloadSource, WorkloadSpec};

fn eval_all(
    name: &str,
    env: &SpecEnv,
    seeds: &[u64],
    trained: &TrainedPolicy,
    threads: usize,
    table: &mut Table,
    report: &mut ScenarioReport,
) {
    println!("\n== Figure 11 ({name}) ==");
    let from = table.len();
    let mut per_sched = |sched_name: &str, rs: &[EpisodeResult]| -> f64 {
        let series = SeriesReport::of(
            format!("{name}:{sched_name}"),
            format!("{name}_{}", crate::scenario::sanitize(sched_name)),
            rs,
        );
        let (mean, unf) = (series.mean(), series.unfinished);
        table.push([name.into(), sched_name.into(), mean.into(), unf.into()]);
        report.push_series(series);
        mean
    };

    per_sched(
        "opt-weighted-fair",
        &episodes(env, seeds, threads, || WeightedFairScheduler::new(-1.0)),
    );
    per_sched("tetris", &episodes(env, seeds, threads, || TetrisScheduler));

    // Tune Graphene* on one held-out seed (App. F grid search).
    let (g, _) = tune_graphene(|g| {
        episodes(env, &[seeds[0] ^ 0xdead], 1, || g.clone())[0]
            .avg_jct()
            .unwrap_or(f64::INFINITY)
    });
    println!(
        "(graphene* tuned: work_frac {:.1}, mem {:.2}, α {:.1})",
        g.work_frac_threshold, g.mem_threshold, g.alpha
    );
    let graphene = per_sched("graphene*", &episodes(env, seeds, threads, || g.clone()));

    let decima_rs = episodes(env, seeds, threads, || trained.greedy_agent());
    let decima = per_sched("decima", &decima_rs);
    table.print_from(from);
    println!(
        "decima vs graphene*: {:+.0}% (paper: -32% on the trace, -43% on TPC-H)",
        100.0 * (decima - graphene) / graphene
    );
}

/// Figure 11: Decima vs opt-weighted-fair, Tetris, and Graphene* on the
/// Alibaba-like trace replay and TPC-H with random memory demands.
pub fn run_fig11(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let seeds = spec.seeds.seeds();
    // The training recipes of the two sub-experiments are kept in the
    // lineup (first = Alibaba, second = TPC-H with memory).
    let trains: Vec<_> = super::lineup_trains(spec).collect();
    let mut table = Table::new(
        "fig11_multires",
        [
            Column::new("workload").on(CSV),
            Column::new("scheduler").heading(""),
            Column::new("avg_jct").heading("avg JCT").unit("s"),
            Column::new("unfinished"),
        ],
    )
    .labelled();
    let mut report = ScenarioReport::new();

    if !spec.flag_param("tpch-only") {
        let env = spec_env(spec);
        let label = "Decima on the Alibaba-like multi-resource environment";
        let trainer = train_entry(label, trains[0], &env)?;
        eval_all(
            "alibaba",
            &env,
            &seeds,
            &TrainedPolicy::of(&trainer),
            opts.threads,
            &mut table,
            &mut report,
        );
    }
    if !spec.flag_param("alibaba-only") {
        // TPC-H with random memory demands (Figure 11b). Job count
        // follows the main (Alibaba) workload unless overridden, so
        // `--set jobs=N` scales both sub-experiments together.
        let num_jobs = match spec.usize_param("tpch-jobs") {
            0 => spec.workload.as_ref().map_or(80, WorkloadSpec::num_jobs),
            n => n,
        };
        // `--set iat=…` historically applied to both sub-experiments;
        // a positive `tpch-iat` overrides it here.
        let tpch_iat = spec.num_param("tpch-iat");
        let iat = spec.param("iat").and_then(ParamValue::as_num);
        let mean_iat = match tpch_iat > 0.0 {
            true => tpch_iat,
            false => iat.unwrap_or(28.0),
        };
        let executors = spec.executors();
        let env = SpecEnv {
            workload: WorkloadSpec {
                source: WorkloadSource::Tpch {
                    num_jobs,
                    arrivals: ArrivalProcess::Poisson { mean_iat },
                    task_scale: 8.0,
                    random_memory: true,
                },
                executors,
                move_delay: 1.0,
            },
            sim: spec.sim.to_config(),
            drift: spec.sim.drift,
        };
        println!();
        let label = "Decima on the TPC-H multi-resource environment";
        let trainer = train_entry(label, trains[1], &env)?;
        eval_all(
            "tpch-mem",
            &env,
            &seeds,
            &TrainedPolicy::of(&trainer),
            opts.threads,
            &mut table,
            &mut report,
        );
    }
    report.push_table(table);
    Ok(report)
}

/// Decima's value over Graphene*'s, the one number both halves of
/// Figure 12 report per row.
fn ratio_column() -> Column {
    let ratio = Column::new("decima_over_graphene");
    ratio.heading("").digits(4, 2)
}

/// Figure 12: Decima vs Graphene* broken down by job size — duration
/// ratio per total-work bin and per-class executor usage on the
/// smallest-20% jobs.
pub fn run_fig12(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let seed = spec.num_param("seed") as u64;
    let train = super::first_train(spec);
    let env = spec_env(spec);

    let trainer = train_entry("Decima on the multi-resource environment", &train, &env)?;
    let trained = TrainedPolicy::of(&trainer);

    let (_, jobs, _) = env.build(seed);
    let graphene_run = episodes(&env, &[seed], 1, GrapheneScheduler::default);
    let decima_run = episodes(&env, &[seed], 1, || trained.greedy_agent());
    let (graphene, decima) = (&graphene_run[0], &decima_run[0]);

    let mut report = ScenarioReport::new();

    // (a) duration ratio per work bin.
    let works: Vec<f64> = jobs.iter().map(|j| j.total_work()).collect();
    let mut sorted = works.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let edges: Vec<f64> = (1..5).map(|q| sorted[q * sorted.len() / 5]).collect();
    let bin_of = |w: f64| edges.iter().filter(|&&e| w > e).count();

    let jct_by_bin = |r: &EpisodeResult| -> Vec<(f64, usize)> {
        let mut sums = vec![(0.0, 0usize); 5];
        for j in &r.jobs {
            if let Some(jct) = j.jct() {
                let b = bin_of(j.total_work);
                sums[b].0 += jct;
                sums[b].1 += 1;
            }
        }
        sums
    };
    let g = jct_by_bin(graphene);
    let d = jct_by_bin(decima);
    println!("\n(a) normalized job duration (Decima / Graphene*), by total-work quintile:");
    let mut table = Table::new(
        "fig12a_duration_ratio",
        [
            Column::new("work_quintile").heading("quintile").unit(":"),
            ratio_column(),
        ],
    )
    .labelled();
    for b in 0..5 {
        if g[b].1 == 0 || d[b].1 == 0 {
            continue;
        }
        let ratio = (d[b].0 / d[b].1 as f64) / (g[b].0 / g[b].1 as f64);
        table.push([(b + 1).into(), ratio.into()]);
    }
    table.print();
    report.push_extra("duration_ratio_by_quintile", table.json_arrays(&[]));
    report.push_table(table);

    // (b) per-class executor usage on the smallest-20% jobs.
    let small_cut = sorted[sorted.len() / 5];
    let class_use = |r: &EpisodeResult| -> Vec<f64> {
        let mut acc = vec![0.0; 4];
        for j in &r.jobs {
            if j.total_work <= small_cut {
                for (c, &b) in j.class_busy.iter().enumerate() {
                    acc[c] += b;
                }
            }
        }
        acc
    };
    let gu = class_use(graphene);
    let du = class_use(decima);
    println!("\n(b) class busy-time on smallest-20% jobs (Decima / Graphene*):");
    let mut table = Table::new(
        "fig12b_class_usage",
        [
            Column::new("class_memory")
                .heading("memory")
                .digits(2, 2)
                .shortest()
                .unit(":"),
            ratio_column(),
        ],
    )
    .labelled();
    for (c, memory) in [0.25, 0.5, 0.75, 1.0].into_iter().enumerate() {
        table.push([memory, du[c] / gu[c].max(1e-9)].map(Cell::Num));
    }
    table.print();
    report.push_extra("class_usage_ratio", table.json_arrays(&[]));
    report.push_table(table);

    for (label, csv, r) in [
        ("graphene*", "graphene", &graphene_run),
        ("decima", "decima", &decima_run),
    ] {
        report.push_series(SeriesReport::of(label, csv, r));
    }
    Ok(report)
}
