//! The fleet determinism contract, tested end to end (docs/FLEET.md):
//!
//! 1. The sweep's deterministic output (every cell's rendered JSON) is
//!    **bit-identical across `--threads 1` and `--threads 4`** — shard
//!    episodes run on a worker pool, but results are re-sorted before
//!    aggregation, so parallelism must never leak into the numbers.
//! 2. Fleet aggregation is **invariant under shard-result arrival
//!    order** (workers finish in wall-clock order, which is noise).
//! 3. A **1-shard round-robin fleet is the single-cluster engine**,
//!    bit-for-bit: shard 0 keeps the base seed, routing a whole trace
//!    to one shard is the identity, so every field of the
//!    `EpisodeResult` must match a plain `run_episode` — compared via
//!    `Debug` strings, where Rust's shortest-roundtrip float formatting
//!    makes string equality float-bit equality.
//!
//! All three hold across random seeds, shard counts, and every
//! registered router, so they run under proptest.

use decima_bench::factory::{make_router, make_scheduler, ROUTER_NAMES};
use decima_bench::fleet::{route_jobs, run_fleet, shard_seed, FleetResult, ShardPool, ShardRun};
use decima_bench::registry::ScenarioRegistry;
use decima_bench::run_episode;
use decima_bench::runner::RunOptions;
use decima_bench::scenario::{ScenarioSpec, SchedulerSpec};
use decima_bench::scenarios::fleet::sweep;
use decima_rl::{EnvFactory as _, SpecEnv};
use decima_sim::EpisodeResult;
use decima_workload::{renumber, WorkloadSpec};
use proptest::prelude::*;

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

fn small_fleet_spec() -> ScenarioSpec {
    let mut spec = ScenarioRegistry::standard()
        .get("fleet")
        .expect("fleet registered")
        .spec
        .clone();
    spec.set("jobs", "10").unwrap();
    spec.set("seeds", "42..44").unwrap();
    spec.set("shards", "1,4").unwrap();
    spec.set("rates", "1,2").unwrap();
    spec
}

/// Renders everything deterministic a sweep produced, in order.
fn rendered(cells: &[decima_bench::scenarios::fleet::FleetCell]) -> String {
    cells
        .iter()
        .flat_map(|c| c.per_seed.iter())
        .map(|f| f.to_json().render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let spec = small_fleet_spec();
    let one = rendered(&sweep(&spec, &opts(1)).unwrap());
    let four = rendered(&sweep(&spec, &opts(4)).unwrap());
    assert_eq!(one, four, "--threads must never change fleet output");
}

#[test]
fn sweep_covers_a_four_shard_cell() {
    // The acceptance bar: the default registry spec sweeps at least one
    // ≥4-shard cell, and this test proves per-shard determinism on it.
    let spec = small_fleet_spec();
    let cells = sweep(&spec, &opts(2)).unwrap();
    let four_shard = cells
        .iter()
        .find(|c| c.shards >= 4)
        .expect("sweep must include a >=4-shard cell");
    for fleet in &four_shard.per_seed {
        assert_eq!(fleet.shards.len(), four_shard.shards);
        assert!(fleet.routed_jobs() > 0);
    }
}

/// The tie rule (ROADMAP item 2), on the cell that showed the pile-up:
/// `fleet --set shards=4 --set rates=1 --set jobs=400`. At this load
/// the front-end's drain model reads most backlogs as zero, and when
/// ties went to the first index the load-aware routers piled onto shard
/// 0 — imbalance (max shard work over mean, the scenario's column)
/// 1.399 for `jsq` and 1.437 for `least-loaded` against 1.087 for `rr`.
/// With ties going to the fewest routed jobs they come to 1.157 and
/// 1.097. What is left is the spread of job sizes over a hundred jobs a
/// shard: every router hands each shard its share of the jobs to
/// within four.
#[test]
fn load_aware_routers_do_not_pile_onto_the_first_shard() {
    let mut spec = small_fleet_spec();
    spec.set("jobs", "400").unwrap();
    spec.set("seeds", "13000..13002").unwrap();
    let env = decima_bench::runner::spec_env(&spec);
    for router_name in ROUTER_NAMES {
        let mut imbalance = 0.0;
        for seed in spec.seeds.seeds() {
            let (cluster, jobs, _) = env.build(seed);
            let mut router = make_router(router_name).unwrap();
            let routed = route_jobs(&jobs, 4, cluster.total_executors(), &mut *router);
            let work = |shard: &Vec<_>| shard.iter().map(decima_core::JobSpec::total_work).sum();
            let works: Vec<f64> = routed.iter().map(work).collect();
            let mean = works.iter().sum::<f64>() / 4.0;
            imbalance += works.iter().fold(0.0f64, |a, &b| a.max(b)) / mean / 2.0;
            for shard in &routed {
                assert!(
                    shard.len().abs_diff(100) <= 4,
                    "{router_name}: {}",
                    shard.len()
                );
            }
        }
        assert!(imbalance <= 1.2, "{router_name}: imbalance {imbalance:.3}");
    }
}

/// Runs one fleet through the pool plus a by-hand sequential replay,
/// returning both aggregates.
fn pooled_and_sequential(
    env: &SpecEnv,
    seed: u64,
    shards: usize,
    router_name: &str,
    workers: usize,
    reverse: bool,
) -> (FleetResult, FleetResult) {
    let (cluster, jobs, cfg) = env.build(seed);
    let pool = ShardPool::new(workers);
    let mut router = make_router(router_name).unwrap();
    let pooled = run_fleet(
        &cluster,
        &jobs,
        &cfg,
        shards,
        &mut *router,
        &SchedulerSpec::Fifo,
        None,
        &pool,
    );
    // Sequential replay, optionally feeding the aggregator shards in
    // reversed completion order.
    let mut router = make_router(router_name).unwrap();
    let executors = cluster.total_executors();
    let mut per_shard: Vec<(usize, u64, EpisodeResult)> =
        route_jobs(&jobs, shards, executors, &mut *router)
            .into_iter()
            .enumerate()
            .map(|(s, shard_jobs)| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.seed = shard_seed(cfg.seed, s);
                let routed = shard_jobs.len() as u64;
                let r = run_episode(
                    &cluster,
                    &renumber(shard_jobs),
                    &shard_cfg,
                    make_scheduler(&SchedulerSpec::Fifo, executors, None),
                );
                (s, routed, r)
            })
            .collect();
    if reverse {
        per_shard.reverse();
    }
    (pooled, FleetResult::aggregate(router.name(), per_shard))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool execution at any worker count equals a sequential replay,
    /// and the aggregate is invariant under shard-result arrival order
    /// — for random seeds, shard counts, and every registered router.
    #[test]
    fn fleet_is_deterministic_and_order_invariant(
        seed in 0u64..1000,
        shards in 1usize..6,
        workers in 1usize..5,
        reverse_bit in 0u8..2,
        router_idx in 0usize..3,
    ) {
        let reverse = reverse_bit == 1;
        let router_name = ROUTER_NAMES[router_idx % ROUTER_NAMES.len()];
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(8, 5, 10.0));
        let (pooled, sequential) =
            pooled_and_sequential(&env, seed, shards, router_name, workers, reverse);
        prop_assert_eq!(
            pooled.to_json().render(),
            sequential.to_json().render(),
            "pool + aggregation must be a pure function of (spec, seed)"
        );
        prop_assert_eq!(pooled.routed_jobs(), 8, "every job must be routed");
    }

    /// A 1-shard round-robin fleet IS the single-cluster engine: the
    /// shard's episode matches `run_episode` on the unrouted trace,
    /// bit-for-bit across every field.
    #[test]
    fn one_shard_fleet_matches_single_cluster_bit_for_bit(
        seed in 0u64..1000,
        jobs_n in 2usize..10,
    ) {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(jobs_n, 5, 10.0));
        let (cluster, jobs, cfg) = env.build(seed);
        let executors = cluster.total_executors();

        // The fleet path: route everything to the only shard.
        let mut router = make_router("rr").unwrap();
        let routed = route_jobs(&jobs, 1, executors, &mut *router);
        prop_assert_eq!(routed.len(), 1);
        let mut shard_cfg = cfg.clone();
        shard_cfg.seed = shard_seed(cfg.seed, 0);
        prop_assert_eq!(shard_cfg.seed, cfg.seed, "shard 0 keeps the base seed");
        let pool = ShardPool::new(2);
        let out = pool.run(vec![ShardRun {
            shard: 0,
            cluster: cluster.clone(),
            jobs: renumber(routed.into_iter().next().unwrap()),
            cfg: shard_cfg,
            sched: SchedulerSpec::Fifo,
            trained: None,
        }]);
        prop_assert_eq!(out.len(), 1);

        // The single-cluster path.
        let single = run_episode(
            &cluster,
            &jobs,
            &cfg,
            make_scheduler(&SchedulerSpec::Fifo, executors, None),
        );
        prop_assert_eq!(
            format!("{:?}", out[0].2),
            format!("{single:?}"),
            "1-shard fleet must reproduce the single-cluster episode bit-for-bit"
        );
    }
}
