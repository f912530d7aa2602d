//! The `scale` scenario: long-horizon serving swept over cluster size ×
//! total jobs to demonstrate that episode memory tracks *concurrently
//! live* jobs, not total jobs served (ROADMAP: arena/pool memory
//! scaling for fleet serving).
//!
//! Each cell runs one streaming episode on a single simulator with the
//! cell's executor count and job count, holding per-executor offered
//! load constant: the mean interarrival time shrinks as
//! `base_iat × base_execs / execs`, so a 10 000-executor cell absorbs
//! 100 000 jobs at the same utilization an 8-executor cell absorbs 500.
//! The deterministic outputs are the [`MemCounters`] telemetry —
//! `live_jobs_peak`, the arena/pool high-water marks, and the retired
//! count — which stay bounded by the live-job peak while `jobs` grows
//! without bound. Wall-clock decisions/s is printed to stdout only;
//! `out/scale.{csv,json}` carry simulated-time quantities exclusively
//! and are bit-identical for a fixed spec regardless of `--threads`.
//!
//! Knobs (all via `--set`):
//!
//! * `execs=8,64` — executor counts to sweep.
//! * `jobs=500,5000` — total-job counts to sweep.
//! * `sched=<factory name>` — scheduler (default `fair`, which shares
//!   executors across live jobs and therefore stays stable as the
//!   cluster grows; FIFO-style whole-cluster grants serialize service
//!   and saturate. `decima-ckpt:<path>` serves a trained checkpoint —
//!   pick a single `execs` value matching the checkpoint's cluster
//!   size).
//!
//! The headline point of the ISSUE — 10 000 executors × 100 000 jobs —
//! is `--set execs=10000 jobs=100000` on a release build.
//!
//! [`MemCounters`]: decima_sim::MemCounters

use crate::json::Json;
use crate::report::{ScenarioReport, SeriesReport};
use crate::runner::{spec_env, spec_episodes, RunOptions};
use crate::scenario::ScenarioSpec;
use crate::scenarios::fleet::{count_list, resolve_sched};
use decima_sim::{EpisodeResult, MemCounters};
use std::time::Instant;

/// One sweep cell's deterministic result: per-seed episode results at a
/// fixed (executors, total jobs) point.
pub struct ScaleCell {
    /// Executor count.
    pub execs: usize,
    /// Total jobs offered over the episode.
    pub jobs: usize,
    /// Per-seed episode results, in seed order.
    pub per_seed: Vec<EpisodeResult>,
    /// Wall-clock decision throughput over the cell (decisions per
    /// second of real time, all seeds pooled). Stdout-only telemetry —
    /// never written to the deterministic CSV/JSON outputs.
    pub wall_decisions_per_sec: f64,
}

impl ScaleCell {
    /// Largest value of `f` across the cell's seeds (the conventional
    /// aggregate for high-water marks).
    fn hwm(&self, f: impl Fn(&MemCounters) -> u64) -> u64 {
        self.per_seed.iter().map(|r| f(&r.mem)).max().unwrap_or(0)
    }

    fn mean(&self, f: impl Fn(&EpisodeResult) -> f64) -> f64 {
        self.per_seed.iter().map(&f).sum::<f64>() / self.per_seed.len().max(1) as f64
    }
}

/// Runs the executors × total-jobs sweep and returns the cells in sweep
/// order. Public so the determinism and memory-ceiling tests can
/// inspect raw [`EpisodeResult`]s (in particular `mem.live_jobs_peak`)
/// rather than re-parsing the rendered report.
pub fn sweep(spec: &ScenarioSpec, opts: &RunOptions) -> Result<Vec<ScaleCell>, String> {
    // Episodes run sequentially: one simulator is the unit under test
    // and the deterministic outputs must not depend on the thread count.
    let _ = opts.threads;
    let env = spec_env(spec);
    let base_execs = env.workload.executors;
    let base_iat = env
        .workload
        .mean_iat()
        .ok_or("the scale scenario needs a streaming workload with a mean interarrival time")?;
    let exec_counts = count_list(spec, "execs", &[8.0, 64.0])?;
    let job_counts = count_list(spec, "jobs", &[500.0, 5000.0])?;
    let seeds = spec.seeds.seeds();

    let mut cells = Vec::new();
    for &execs in &exec_counts {
        // Resolved per executor count so checkpoint compatibility is
        // checked against the cluster size it will actually serve.
        let (sched, trained) = resolve_sched(spec, execs)?;
        for &jobs in &job_counts {
            let mut cell_env = env.clone();
            cell_env.workload.executors = execs;
            cell_env.workload.set_num_jobs(jobs);
            // Hold per-executor offered load constant across the sweep.
            cell_env
                .workload
                .set_mean_iat(base_iat * base_execs as f64 / execs as f64);
            let start = Instant::now();
            let per_seed = spec_episodes(&sched, trained.as_deref(), &cell_env, &seeds, 1);
            let decisions: u64 = per_seed.iter().map(|r| r.actions.len() as u64).sum();
            let wall = start.elapsed().as_secs_f64();
            cells.push(ScaleCell {
                execs,
                jobs,
                per_seed,
                wall_decisions_per_sec: decisions as f64 / wall.max(1e-9),
            });
        }
    }
    Ok(cells)
}

/// Runs the scale sweep and reports it (`out/scale.{csv,json}`).
pub fn run_scale_scenario(
    spec: &ScenarioSpec,
    opts: &RunOptions,
) -> Result<ScenarioReport, String> {
    let mut report = ScenarioReport::new();
    let cells = sweep(spec, opts)?;

    println!(
        "{:>7} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>11}",
        "execs",
        "jobs",
        "completed",
        "decisions",
        "live_peak",
        "slots",
        "queue",
        "pool",
        "decis/s(w)"
    );
    let mut rows = Vec::new();
    let mut cell_objs = Vec::new();
    for cell in &cells {
        let completed: usize = cell.per_seed.iter().map(EpisodeResult::completed).sum();
        let unfinished: usize = cell.per_seed.iter().map(EpisodeResult::unfinished).sum();
        let decisions: u64 = cell.per_seed.iter().map(|r| r.actions.len() as u64).sum();
        let events: u64 = cell.per_seed.iter().map(|r| r.num_events).sum();
        let retired: u64 = cell.per_seed.iter().map(|r| r.mem.retired_jobs).sum();
        let live_peak = cell.hwm(|m| m.live_jobs_peak);
        let slots_hwm = cell.hwm(|m| m.slots_hwm);
        let queue_hwm = cell.hwm(|m| m.event_queue_hwm);
        let pool_hwm = cell.hwm(|m| m.node_pool_hwm);
        let end_time = cell.mean(|r| r.end_time.as_secs());
        let avg_jct = cell.mean(|r| r.avg_jct().unwrap_or(f64::NAN));
        println!(
            "{:>7} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>11.0}",
            cell.execs,
            cell.jobs,
            completed,
            decisions,
            live_peak,
            slots_hwm,
            queue_hwm,
            pool_hwm,
            cell.wall_decisions_per_sec
        );
        rows.push(format!(
            "{},{},{completed},{unfinished},{decisions},{events},{end_time:.4},{avg_jct:.4},\
             {live_peak},{slots_hwm},{queue_hwm},{pool_hwm},{retired}",
            cell.execs, cell.jobs
        ));
        cell_objs.push(Json::obj([
            ("execs", Json::Num(cell.execs as f64)),
            ("jobs", Json::Num(cell.jobs as f64)),
            ("completed", Json::Num(completed as f64)),
            ("unfinished", Json::Num(unfinished as f64)),
            ("decisions", Json::Num(decisions as f64)),
            ("events", Json::Num(events as f64)),
            ("end_time", Json::Num(end_time)),
            ("avg_jct", Json::Num(avg_jct)),
            ("live_jobs_peak", Json::Num(live_peak as f64)),
            ("slots_hwm", Json::Num(slots_hwm as f64)),
            ("event_queue_hwm", Json::Num(queue_hwm as f64)),
            ("node_pool_hwm", Json::Num(pool_hwm as f64)),
            ("retired_jobs", Json::Num(retired as f64)),
        ]));
        report.push_series(SeriesReport::of(
            format!("{} execs × {} jobs", cell.execs, cell.jobs),
            format!("e{}_j{}", cell.execs, cell.jobs),
            &cell.per_seed,
        ));
    }

    report.push_extra("sched", Json::str(spec.text_param("sched")));
    report.push_extra("cells", Json::Arr(cell_objs));
    report.push_table(
        &spec.name,
        "execs,jobs,completed,unfinished,decisions,events,end_time,avg_jct,\
         live_jobs_peak,slots_hwm,event_queue_hwm,node_pool_hwm,retired_jobs",
        rows,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

    fn scale_spec() -> ScenarioSpec {
        ScenarioRegistry::standard()
            .get("scale")
            .expect("scale registered")
            .spec
            .clone()
    }

    fn tiny(spec: &mut ScenarioSpec) {
        spec.set("seeds", "42..43").unwrap();
        spec.set("execs", "4").unwrap();
        spec.set("jobs", "12").unwrap();
    }

    #[test]
    fn sweep_covers_every_cell_and_serves_every_job() {
        let mut spec = scale_spec();
        tiny(&mut spec);
        spec.set("execs", "2,4").unwrap();
        spec.set("jobs", "6,12").unwrap();
        let cells = sweep(&spec, &RunOptions::default()).unwrap();
        assert_eq!(cells.len(), 4, "2 exec counts × 2 job counts");
        for cell in &cells {
            for r in &cell.per_seed {
                assert_eq!(r.jobs.len(), cell.jobs, "every offered job has an outcome");
                assert!(!r.actions.is_empty());
            }
        }
    }

    /// The tentpole claim at scenario level: over a long streaming
    /// horizon the arena's high-water mark tracks the live-job peak,
    /// not the total number of jobs served.
    #[test]
    fn memory_telemetry_is_bounded_by_live_jobs_not_total_jobs() {
        let mut spec = scale_spec();
        tiny(&mut spec);
        spec.set("jobs", "40").unwrap();
        let cells = sweep(&spec, &RunOptions::default()).unwrap();
        let cell = &cells[0];
        for r in &cell.per_seed {
            assert_eq!(r.completed(), cell.jobs, "fair finishes the stream");
            assert_eq!(r.mem.retired_jobs, cell.jobs as u64);
            assert!(
                r.mem.live_jobs_peak < cell.jobs as u64,
                "live-job peak {} must undercut total jobs {}",
                r.mem.live_jobs_peak,
                cell.jobs
            );
            assert_eq!(
                r.mem.slots_hwm, r.mem.live_jobs_peak,
                "arena HWM equals the live-job peak when retirement is on"
            );
        }
    }

    /// The deterministic outputs must not depend on the thread knob.
    #[test]
    fn cells_are_identical_across_thread_settings() {
        let mut spec = scale_spec();
        tiny(&mut spec);
        let render = |threads: usize| {
            let opts = RunOptions {
                threads,
                ..RunOptions::default()
            };
            let cells = sweep(&spec, &opts).unwrap();
            cells
                .iter()
                .flat_map(|c| c.per_seed.iter())
                .map(|r| {
                    format!(
                        "{}|{}|{}|{:?}",
                        r.actions.len(),
                        r.num_events,
                        r.end_time.as_secs().to_bits(),
                        r.mem
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(1), render(4));
    }

    #[test]
    #[should_panic(expected = "does not train")]
    fn training_entries_are_rejected() {
        let mut spec = scale_spec();
        tiny(&mut spec);
        spec.set("sched", "decima").unwrap();
    }
}
