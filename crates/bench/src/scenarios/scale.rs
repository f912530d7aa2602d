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
use crate::report::{Column, ScenarioReport, SeriesReport, Table, CSV, JSON, TERM};
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
            #[expect(
                clippy::disallowed_methods,
                reason = "decisions per wall-clock second are reported, never read back by a run"
            )]
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

    // The terminal shows what fits a line: four memory counters under
    // short headings, and the one wall-clock column the files leave out.
    let data = |key: &str| Column::new(key).digits(4, 1).on(CSV | JSON);
    let [live, slots, queue, pool, retired] = MemCounters::default().named().map(|(name, _)| name);
    let mut table = Table::new(
        &spec.name,
        [
            Column::new("execs"),
            Column::new("jobs"),
            Column::new("completed"),
            data("unfinished"),
            Column::new("decisions"),
            data("events"),
            data("end_time"),
            data("avg_jct"),
            Column::new(live).heading("live_peak"),
            Column::new(slots).heading("slots"),
            Column::new(queue).heading("queue"),
            Column::new(pool).heading("pool"),
            data(retired),
            Column::new("decis/s(w)").digits(0, 0).on(TERM),
        ],
    );
    for cell in &cells {
        let seeds = || cell.per_seed.iter();
        // A high-water mark is the largest seed's, the retired count adds up.
        let mem = |i: usize| seeds().map(move |r| r.mem.named()[i].1);
        let hwm = |i: usize| mem(i).max().unwrap_or(0);
        table.push([
            cell.execs.into(),
            cell.jobs.into(),
            seeds().map(EpisodeResult::completed).sum::<usize>().into(),
            seeds().map(EpisodeResult::unfinished).sum::<usize>().into(),
            seeds().map(|r| r.actions.len()).sum::<usize>().into(),
            seeds().map(|r| r.num_events).sum::<u64>().into(),
            cell.mean(|r| r.end_time.as_secs()).into(),
            cell.mean(|r| r.avg_jct().unwrap_or(f64::NAN)).into(),
            hwm(0).into(),
            hwm(1).into(),
            hwm(2).into(),
            hwm(3).into(),
            mem(4).sum::<u64>().into(),
            cell.wall_decisions_per_sec.into(),
        ]);
        report.push_series(SeriesReport::of(
            format!("{} execs × {} jobs", cell.execs, cell.jobs),
            format!("e{}_j{}", cell.execs, cell.jobs),
            &cell.per_seed,
        ));
    }
    table.print();

    report.push_extra("sched", Json::str(spec.text_param("sched")));
    let cell_objs = table.json_rows().into_iter().map(Json::Obj);
    report.push_extra("cells", Json::Arr(cell_objs.collect()));
    report.push_table(table);
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
