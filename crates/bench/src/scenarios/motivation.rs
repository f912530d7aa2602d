//! Motivation figures: parallelism curves (Fig. 2), schedule
//! visualizations (Fig. 3), and reward variance (Fig. 7).

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::{obj, Json, ToJson};
use crate::model::train_entry;
use crate::report::{Cell, Column, ScenarioReport, SeriesReport, Table};
use crate::run_episode;
use crate::runner::{episodes, par_map, spec_env, RunOptions};
use crate::scenario::{ScenarioSpec, SimSpec};
use decima_baselines::{FifoScheduler, RandomScheduler, SjfCpScheduler, WeightedFairScheduler};
use decima_core::{ClusterSpec, JobId, SimTime};
use decima_rl::EnvFactory as _;
use decima_sim::{Action, EpisodeResult, Observation, Scheduler, SimConfig};
use decima_workload::tpch_job;

/// Gives every executor to the only job (a user running one query).
struct Greedy;
impl Scheduler for Greedy {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let &(j, s) = obs.schedulable.first()?;
        Some(Action::new(obs.jobs[j].id, s, obs.total_executors))
    }
}

/// One query alone on `execs` executors, on the scenario's simulator
/// with the figure's two overrides; `NaN` when the job does not complete
/// (task failures with no retry left).
fn runtime(sim: &SimSpec, query: u16, gb: f64, execs: usize) -> f64 {
    let job = tpch_job(query, gb, JobId(0), SimTime::ZERO);
    let cluster = ClusterSpec::homogeneous(execs).with_move_delay(0.0);
    let cfg = SimConfig {
        first_wave: false,
        noise: 0.0,
        ..sim.to_config()
    };
    run_episode(&cluster, &[job], &cfg, Greedy)
        .avg_jct()
        .unwrap_or(f64::NAN)
}

fn sweet_spot(curve: &[(usize, f64)]) -> usize {
    // First parallelism whose runtime is within 5% of the curve minimum.
    let min = curve.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
    curve
        .iter()
        .find(|&&(_, r)| r <= 1.05 * min)
        .map(|&(p, _)| p)
        .unwrap_or(0)
}

/// Figure 2: job runtime vs. degree of parallelism.
pub fn run_fig02(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let max_p = spec.usize_param("max-parallelism");
    // (query, GB, CSV / JSON key, terminal heading)
    let cases = [
        (2u16, 100.0, "q2_100g", "Q2-100G"),
        (9, 100.0, "q9_100g", "Q9-100G"),
        (9, 2.0, "q9_2g", "Q9-2G"),
    ];

    println!("Figure 2: runtime vs. degree of parallelism");
    let ps: Vec<usize> = (1..=max_p).filter(|p| *p <= 10 || p % 5 == 0).collect();
    // Each grid point is an independent single-job episode — sweep them
    // in parallel.
    let grid: Vec<[f64; 3]> = par_map(&ps, opts.threads, |&p| {
        cases.map(|(query, gb, ..)| runtime(&spec.sim, query, gb, p))
    });
    let runtimes = cases.map(|(.., key, heading)| Column::new(key).heading(heading).digits(3, 1));
    let columns = std::iter::once(Column::new("p")).chain(runtimes);
    let mut table = Table::new("fig02_parallelism", columns);
    for (&p, rs) in ps.iter().zip(&grid) {
        table.push(std::iter::once(p.into()).chain(rs.map(Cell::Num)));
    }
    table.print();

    println!("\nSweet spots (within 5% of best):");
    let mut spots = Vec::new();
    let mut curves = Vec::new();
    for (i, &(q, gb, key, _)) in cases.iter().enumerate() {
        let curve: Vec<(usize, f64)> = ps.iter().zip(&grid).map(|(&p, rs)| (p, rs[i])).collect();
        let spot = sweet_spot(&curve);
        println!("  Q{q}@{gb}GB: {spot} executors");
        spots.push((key.to_string(), Json::Num(spot as f64)));
        curves.push((key.to_string(), table.json_arrays(&["p", key])));
    }
    let mut report = ScenarioReport::new();
    report.push_extra("sweet_spots", Json::Obj(spots));
    report.push_extra("curves", Json::Obj(curves));
    report.push_table(table);
    Ok(report)
}

fn show(name: &str, r: &EpisodeResult, width: usize) {
    println!(
        "\n--- {name}: avg JCT {:.1}s, makespan {:.1}s ---",
        r.avg_jct().unwrap_or(f64::NAN),
        r.makespan().unwrap_or(f64::NAN)
    );
    if let Some(g) = &r.gantt {
        print!("{}", g.render_ascii(width));
    }
}

/// Figure 3: executor-occupancy visualizations with average JCT.
pub fn run_fig03(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let width = spec.usize_param("width");
    let seq_seed = spec.num_param("seed") as u64;
    let train = first_train(spec);
    let env = spec_env(spec);

    // One fixed schedule to draw: the simulator's own seed is pinned, so
    // these four are not `episodes` of the environment.
    let (cluster, jobs, cfg) = env.build(seq_seed);
    let cfg = cfg.with_seed(1).with_gantt();

    let fifo = run_episode(&cluster, &jobs, &cfg, FifoScheduler);
    let sjf = run_episode(&cluster, &jobs, &cfg, SjfCpScheduler);
    let fair = run_episode(&cluster, &jobs, &cfg, WeightedFairScheduler::fair());

    let trainer = train_entry("Decima on the batch environment", &train, &env)?;
    let mut agent = TrainedPolicy::of(&trainer).greedy_agent();
    let decima = run_episode(&cluster, &jobs, &cfg, &mut agent);

    show("FIFO", &fifo, width);
    show("SJF", &sjf, width);
    show("Fair", &fair, width);
    show("Decima", &decima, width);

    // A schedule that completes no job has no average: a `NaN%` here,
    // an empty summary below.
    let [f, d, fr] = [&fifo, &decima, &fair].map(|r| r.avg_jct().unwrap_or(f64::NAN));
    println!(
        "\nDecima vs FIFO: {:+.0}%   Decima vs Fair: {:+.0}%",
        100.0 * (d - f) / f,
        100.0 * (d - fr) / fr
    );

    let mut report = ScenarioReport::new();
    for (label, csv, r) in [
        ("fifo", "fifo", &fifo),
        ("sjf-cp", "sjf_cp", &sjf),
        ("fair", "fair", &fair),
        ("decima", "decima", &decima),
    ] {
        report.push_series(SeriesReport::of(label, csv, std::slice::from_ref(r)));
        report.push_extra(
            format!("{csv}_makespan"),
            Json::Num(r.makespan().unwrap_or(f64::NAN)),
        );
    }
    Ok(report)
}

/// Figure 7: reward variance caused by stochastic job arrivals.
pub fn run_fig07(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioReport, String> {
    let n = spec.usize_param("samples");
    let env = spec_env(spec);

    let samples: Vec<u64> = (0..n as u64).collect();
    // Across-sequence spread (same action seed).
    let across = episodes(&env, &samples, opts.threads, || RandomScheduler::new(0));
    let across: Vec<f64> = across.iter().map(|r| -r.total_penalty()).collect();
    // Within-sequence spread (same arrivals, different action seeds).
    let (cluster, jobs, cfg) = env.build(0);
    let within: Vec<f64> = par_map(&samples, opts.threads, |&a| {
        -run_episode(&cluster, &jobs, &cfg, RandomScheduler::new(a)).total_penalty()
    });

    let stats = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        let sd = (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt();
        (m, sd)
    };
    let (ma, sa) = stats(&across);
    let (mw, sw) = stats(&within);

    println!("Figure 7: return variance from the arrival process");
    println!("  across arrival sequences: mean {ma:.0}, std {sa:.0}");
    println!("  within one sequence:      mean {mw:.0}, std {sw:.0}");
    let ratio = (sa / sw.max(1e-9)).powi(2);
    println!("  variance ratio (across/within): {ratio:.1}x — the input process dominates");
    let columns = ["sample", "across_seq", "within_seq"].map(Column::new);
    let mut table = Table::new("fig07_reward_variance", columns);
    for (i, (&a, &w)) in across.iter().zip(&within).enumerate() {
        table.push([i.into(), a.into(), w.into()]);
    }
    let mut report = ScenarioReport::new();
    report.push_table(table);
    report.push_extra("across", obj!("mean" => ma, "std" => sa));
    report.push_extra("within", obj!("mean" => mw, "std" => sw));
    report.push_extra("variance_ratio", Json::Num(ratio));
    Ok(report)
}
