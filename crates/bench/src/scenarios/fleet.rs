//! The `fleet` scenario: the sharded multi-cluster serving driver
//! swept over shard count × arrival rate to locate the saturation knee
//! (ROADMAP item 2: fleet-scale serving).
//!
//! Each cell routes one streaming arrival trace across `shards`
//! independent cluster shards — every shard a full [`Simulator`] at its
//! own derived seed — and reports aggregate fleet metrics: completed
//! jobs per simulated second, pooled tail JCT (p95 across shards), and
//! routed-work imbalance. As the rate multiplier grows past what
//! `shards × executors` can serve, `jobs_per_sim_sec` flattens and
//! `jct_p95` blows up: that corner is the knee.
//!
//! Knobs (all via `--set`):
//!
//! * `shards=4` or `shards=1,2,4,8` — shard counts to sweep.
//! * `rates=1,2,4` — arrival-rate multipliers on the base workload
//!   (rate 2 halves the mean interarrival time).
//! * `router=rr|jsq|least-loaded` — routing policy (default `jsq`).
//! * `sched=<factory name>` — per-shard scheduler (default `fifo`;
//!   `decima-ckpt:<path>` serves a trained checkpoint, resolved once
//!   and shared across shards).
//!
//! Determinism: `out/fleet.csv` and the `cells` JSON are bit-identical
//! for a fixed spec regardless of `--threads` — shard episodes run in
//! parallel but results come back in slot order before aggregation
//! (see docs/FLEET.md for the contract and its wall-clock exclusion).
//!
//! [`Simulator`]: decima_sim::Simulator

use crate::factory::{make_router, scheduler_spec_by_name, TrainedPolicy};
use crate::fleet::{run_fleet, FleetResult, ShardPool};
use crate::json::Json;
use crate::model::{resolve, Site};
use crate::report::{Column, ScenarioReport, SeriesReport, Table, CSV, JSON};
use crate::runner::{spec_env, RunOptions};
use crate::scenario::{ParamValue, ScenarioSpec, SchedulerSpec};
use decima_rl::EnvFactory as _;
use std::sync::Arc;

/// Reads a sweep-list parameter: `--set shards=4` (kept as a number)
/// or `--set shards=1,2,4,8` (kept as text) both work.
pub(crate) fn list_param(
    spec: &ScenarioSpec,
    key: &str,
    default: &[f64],
) -> Result<Vec<f64>, String> {
    let bad = || format!("'{key}' needs a number or comma list");
    match spec.param(key) {
        None => Ok(default.to_vec()),
        Some(ParamValue::Num(n)) => Ok(vec![*n]),
        Some(ParamValue::Text(t)) => t
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| bad()))
            .collect(),
        Some(_) => Err(bad()),
    }
}

/// Reads a sweep list of counts (`--set shards=1,2,4`;
/// `ScenarioSpec::set` has already refused anything but whole numbers
/// from 1 up).
pub(crate) fn count_list(
    spec: &ScenarioSpec,
    key: &str,
    default: &[f64],
) -> Result<Vec<usize>, String> {
    let list = list_param(spec, key, default)?;
    Ok(list.iter().map(|&v| v as usize).collect())
}

/// Resolves the scheduler a serving scenario runs (`fleet`, and `scale`
/// per executor count): a checkpoint is loaded once, held to the
/// cluster size and shared; a name that would train is an error — a
/// fleet serves policies, it does not produce them.
pub(crate) fn resolve_sched(
    spec: &ScenarioSpec,
    executors: usize,
) -> Result<(SchedulerSpec, Option<Arc<TrainedPolicy>>), String> {
    let name = spec.text_param("sched");
    let sched = scheduler_spec_by_name(name)?;
    let trained = resolve(name, &sched, Site::Serving(executors))?;
    Ok((sched, trained.map(Arc::new)))
}

/// One sweep cell's deterministic result: per-seed fleet aggregates.
pub struct FleetCell {
    /// Shard count.
    pub shards: usize,
    /// Arrival-rate multiplier.
    pub rate: f64,
    /// Per-seed fleet results, in seed order.
    pub per_seed: Vec<FleetResult>,
}

impl FleetCell {
    fn mean(&self, f: impl Fn(&FleetResult) -> f64) -> f64 {
        self.per_seed.iter().map(&f).sum::<f64>() / self.per_seed.len().max(1) as f64
    }
}

/// Runs the shard-count × arrival-rate sweep and returns the cells in
/// sweep order. Public (rather than an implementation detail of
/// [`run_fleet_scenario`]) so the determinism tests can compare
/// rendered cell JSON across `--threads` settings.
pub fn sweep(spec: &ScenarioSpec, opts: &RunOptions) -> Result<Vec<FleetCell>, String> {
    let env = spec_env(spec);
    let executors = env.workload.executors;
    let shard_counts = count_list(spec, "shards", &[1.0, 2.0, 4.0, 8.0])?;
    // Every rate is > 0: `ScenarioSpec::set` checked.
    let rates = list_param(spec, "rates", &[1.0, 2.0, 4.0])?;
    let router_name = spec.text_param("router");
    let (sched, trained) = resolve_sched(spec, executors)?;
    let base_iat = env
        .workload
        .mean_iat()
        .ok_or("the fleet scenario needs a streaming workload with a mean interarrival time")?;
    let seeds = spec.seeds.seeds();
    let pool = ShardPool::new(opts.threads.max(1));

    let mut cells = Vec::new();
    for &shards in &shard_counts {
        for &rate in &rates {
            let mut cell_env = env.clone();
            cell_env.workload.set_mean_iat(base_iat / rate);
            let mut per_seed = Vec::with_capacity(seeds.len());
            for &seed in &seeds {
                // One arrival trace per seed, routed once; shard s
                // simulates at shard_seed(cfg.seed, s).
                let (cluster, jobs, cfg) = cell_env.build(seed);
                let mut router = make_router(router_name)?;
                per_seed.push(run_fleet(
                    &cluster,
                    &jobs,
                    &cfg,
                    shards,
                    &mut *router,
                    &sched,
                    trained.as_ref(),
                    &pool,
                ));
            }
            cells.push(FleetCell {
                shards,
                rate,
                per_seed,
            });
        }
    }
    Ok(cells)
}

/// Runs the fleet sweep and reports it (`out/fleet.{csv,json}`).
pub fn run_fleet_scenario(
    spec: &ScenarioSpec,
    opts: &RunOptions,
) -> Result<ScenarioReport, String> {
    let mut report = ScenarioReport::new();
    let cells = sweep(spec, opts)?;

    let mut table = Table::new(
        &spec.name,
        [
            Column::new("shards"),
            Column::new("rate").digits(3, 1),
            Column::new("routed_jobs").heading("routed"),
            Column::new("completed"),
            Column::new("unfinished").on(CSV | JSON),
            Column::new("total_decisions").heading("decisions"),
            Column::new("jobs_per_sim_sec")
                .heading("jobs/s(sim)")
                .digits(6, 4),
            Column::new("jct_p95")
                .heading("jct p95")
                .digits(4, 1)
                .unit("s"),
            Column::new("imbalance").digits(6, 3),
        ],
    );
    for cell in &cells {
        let seeds = || cell.per_seed.iter();
        let unfinished: usize = seeds().map(FleetResult::unfinished).sum();
        table.push([
            cell.shards.into(),
            cell.rate.into(),
            seeds().map(FleetResult::routed_jobs).sum::<u64>().into(),
            seeds().map(FleetResult::completed).sum::<usize>().into(),
            unfinished.into(),
            seeds()
                .map(FleetResult::total_decisions)
                .sum::<u64>()
                .into(),
            cell.mean(FleetResult::jobs_per_sim_sec).into(),
            cell.mean(|f| f.jct.p95).into(),
            cell.mean(FleetResult::imbalance).into(),
        ]);
        report.push_series(SeriesReport {
            label: format!("{} shard(s) @ rate {:.1}", cell.shards, cell.rate),
            csv: format!("s{}_r{}", cell.shards, cell.rate),
            avg_jcts: seeds().map(|f| f.jct.mean).collect(),
            unfinished,
        });
    }
    table.print();

    // A cell's JSON object is its row, then every seed's fleet aggregate.
    let cell_objs = table.json_rows().into_iter().zip(&cells);
    let cell_objs = cell_objs.map(|(mut row, cell)| {
        let per_seed = cell.per_seed.iter().map(FleetResult::to_json);
        row.push(("per_seed".into(), Json::Arr(per_seed.collect())));
        Json::Obj(row)
    });
    report.push_extra("router", Json::str(spec.text_param("router")));
    report.push_extra("cells", Json::Arr(cell_objs.collect()));
    report.push_table(table);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

    fn fleet_spec() -> ScenarioSpec {
        ScenarioRegistry::standard()
            .get("fleet")
            .expect("fleet registered")
            .spec
            .clone()
    }

    fn tiny(spec: &mut ScenarioSpec) {
        spec.set("jobs", "6").unwrap();
        spec.set("seeds", "42..43").unwrap();
        spec.set("shards", "2").unwrap();
        spec.set("rates", "1").unwrap();
    }

    #[test]
    fn sweep_covers_every_cell_and_routes_every_job() {
        let mut spec = fleet_spec();
        tiny(&mut spec);
        spec.set("shards", "1,2").unwrap();
        spec.set("rates", "1,2").unwrap();
        let opts = RunOptions {
            threads: 2,
            ..RunOptions::default()
        };
        let cells = sweep(&spec, &opts).unwrap();
        assert_eq!(cells.len(), 4, "2 shard counts × 2 rates");
        for cell in &cells {
            for fleet in &cell.per_seed {
                assert_eq!(fleet.routed_jobs(), 6, "front-end must route every job");
                assert_eq!(fleet.shards.len(), cell.shards);
                assert!(fleet.total_decisions() > 0);
            }
        }
    }

    #[test]
    fn higher_rate_never_lowers_offered_load() {
        let mut spec = fleet_spec();
        tiny(&mut spec);
        spec.set("rates", "1,4").unwrap();
        let cells = sweep(&spec, &RunOptions::default()).unwrap();
        // Same jobs, arriving 4× faster: the fleet finishes no earlier
        // at rate 1 than at rate 4.
        assert!(cells[0].per_seed[0].end_time() >= cells[1].per_seed[0].end_time());
    }

    #[test]
    #[should_panic(expected = "does not train")]
    fn training_entries_are_rejected() {
        let mut spec = fleet_spec();
        tiny(&mut spec);
        spec.set("sched", "decima").unwrap();
    }

    /// A name that reaches the sweep without passing `set` is refused
    /// the same way, and so is one that would fine-tune.
    #[test]
    fn the_sweep_trains_nothing_either() {
        let mut spec = fleet_spec();
        tiny(&mut spec);
        for name in ["decima", "fine-tuned:/nonexistent"] {
            spec.params.retain(|(k, _)| k != "sched");
            spec.params
                .push(("sched".into(), ParamValue::Text(name.into())));
            let err = sweep(&spec, &RunOptions::default()).err().unwrap();
            assert!(err.contains("does not train"), "{name}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown router")]
    fn unknown_router_is_rejected() {
        let mut spec = fleet_spec();
        tiny(&mut spec);
        spec.set("router", "bogus").unwrap();
    }
}
