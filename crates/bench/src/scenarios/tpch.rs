//! §7.2 time-series analysis (Fig. 10). The headline TPC-H comparisons
//! (Fig. 9a/9b) run fully declaratively through the generic runner.

use super::first_train;
use crate::factory::TrainedPolicy;
use crate::json::{obj, Json, ToJson};
use crate::model::train_entry;
use crate::report::{Column, ScenarioReport, SeriesReport, Table};
use crate::runner::{episodes, spec_env, RunOptions};
use crate::scenario::ScenarioSpec;
use decima_baselines::WeightedFairScheduler;
use decima_rl::EnvFactory as _;
use decima_sim::EpisodeResult;

/// Figure 10: concurrent job count over time, per-job JCT vs size,
/// executor share for small jobs, and total-work inflation — Decima vs
/// the tuned weighted-fair heuristic.
pub fn run_fig10(spec: &ScenarioSpec, _opts: &RunOptions) -> Result<ScenarioReport, String> {
    let seed = spec.num_param("seed") as u64;
    let train = first_train(spec);
    let env = spec_env(spec);

    let trained = TrainedPolicy::of(&train_entry("Decima", &train, &env)?);

    let (_, jobs, _) = env.build(seed);
    let heuristic_run = episodes(&env, &[seed], 1, || WeightedFairScheduler::new(-1.0));
    let decima_run = episodes(&env, &[seed], 1, || trained.greedy_agent());
    let (heuristic, decima) = (&heuristic_run[0], &decima_run[0]);

    let mut report = ScenarioReport::new();

    // (a) concurrent jobs over time.
    let ser = |r: &EpisodeResult| r.concurrency_series();
    let (hs, ds) = (ser(heuristic), ser(decima));
    let peak = |s: &[(f64, usize)]| s.iter().map(|&(_, c)| c).max().unwrap_or(0);
    println!(
        "\n(a) concurrent jobs: peak heuristic {}, peak decima {}",
        peak(&hs),
        peak(&ds)
    );
    let columns = ["scheduler", "time", "jobs_in_system"];
    let columns = columns.map(|key| Column::new(key).digits(1, 1));
    let mut table = Table::new("fig10a_concurrency", columns);
    for (tag, series) in [("heuristic", &hs), ("decima", &ds)] {
        for &(t, c) in series {
            table.push([tag.into(), t.into(), c.into()]);
        }
    }
    report.push_table(table);

    // (b)+(c) per-job JCT vs completion time and size.
    let columns = [
        "scheduler",
        "job",
        "arrival",
        "jct",
        "total_work",
        "executed_work",
        "peak_alloc",
    ];
    let columns = columns.map(|key| Column::new(key).digits(1, 1));
    let mut table = Table::new("fig10cde_jobs", columns);
    for (tag, r) in [("heuristic", heuristic), ("decima", decima)] {
        for j in &r.jobs {
            if let Some(jct) = j.jct() {
                table.push([
                    tag.into(),
                    j.id.index().into(),
                    j.arrival.as_secs().into(),
                    jct.into(),
                    j.total_work.into(),
                    j.executed_work.into(),
                    j.peak_alloc.into(),
                ]);
            }
        }
    }
    report.push_table(table);

    // (d) executor share on small jobs; (e) work inflation.
    let small_cut = {
        let mut works: Vec<f64> = jobs.iter().map(|j| j.total_work()).collect();
        works.sort_by(|a, b| a.total_cmp(b));
        works[works.len() / 5] // smallest 20%
    };
    let stats = |r: &EpisodeResult| -> (f64, f64) {
        let mut alloc_small = 0.0_f64;
        let mut n_small = 0.0_f64;
        let mut inflation = 0.0_f64;
        let mut n_done = 0.0_f64;
        for j in &r.jobs {
            if j.completion.is_none() {
                continue;
            }
            n_done += 1.0;
            inflation += j.executed_work / j.total_work.max(1e-9);
            if j.total_work <= small_cut {
                alloc_small += j.peak_alloc as f64;
                n_small += 1.0;
            }
        }
        (alloc_small / n_small.max(1.0), inflation / n_done.max(1.0))
    };
    let (h_alloc, h_infl) = stats(heuristic);
    let (d_alloc, d_infl) = stats(decima);
    println!(
        "(d) mean peak executors on smallest-20% jobs: heuristic {h_alloc:.1}, decima {d_alloc:.1}"
    );
    println!(
        "(e) mean work inflation (executed/static): heuristic {h_infl:.2}, decima {d_infl:.2}"
    );
    println!(
        "\navg JCT: heuristic {:.1}s vs decima {:.1}s ({:+.0}%)",
        heuristic.avg_jct().unwrap_or(f64::NAN),
        decima.avg_jct().unwrap_or(f64::NAN),
        100.0 * (decima.avg_jct().unwrap_or(0.0) - heuristic.avg_jct().unwrap_or(0.0))
            / heuristic.avg_jct().unwrap_or(1.0)
    );

    for (label, csv, r, alloc, infl) in [
        (
            "opt-weighted-fair",
            "heuristic",
            &heuristic_run,
            h_alloc,
            h_infl,
        ),
        ("decima", "decima", &decima_run, d_alloc, d_infl),
    ] {
        report.push_series(SeriesReport::of(label, csv, r));
        let peak_concurrency = peak(&ser(&r[0]));
        let stats =
            obj!(peak_concurrency, "small_job_peak_alloc" => alloc, "work_inflation" => infl);
        report.push_extra(format!("{csv}_stats"), stats);
    }
    Ok(report)
}
