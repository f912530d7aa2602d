//! Fleet-scale sharded serving: N independent cluster shards, each a
//! full [`Simulator`], fed by one streaming arrival front-end that
//! routes every incoming job to a shard (ROADMAP item 2: "simulate a
//! datacenter, not a cluster").
//!
//! Architecture
//! ------------
//! * **Sharding.** The fleet is `shards` copies of the base cluster.
//!   Shard `s` simulates only the jobs routed to it, with its own RNG
//!   stream: its `SimConfig::seed` is `shard_seed(seed, s)` — the base
//!   seed XOR a per-shard salt — so shards are mutually decorrelated
//!   yet individually deterministic. Shard 0's salt is zero, so a
//!   1-shard fleet reproduces the single-cluster engine bit-for-bit.
//! * **Routing.** The front-end walks the arrival stream in time order
//!   and asks a pluggable [`Router`] for a shard per job. Routers see
//!   the front-end's *estimated* shard loads (a deterministic drain
//!   model over routed work, not live simulator state), mirroring real
//!   cluster managers that balance on delayed, coarse signals.
//! * **Execution.** Shard episodes run on a [`ShardPool`] — one
//!   [`ordered_map`] call per batch: results come back in slot order,
//!   so fleet output is bit-identical to a sequential run regardless of
//!   `--threads`.
//! * **Aggregation.** Per-shard [`EpisodeResult`]s reduce to a
//!   [`FleetResult`]: total decisions, completed jobs, pooled tail JCT
//!   across shards, and per-shard routed-work imbalance. Everything in
//!   [`FleetResult::to_json`] is simulated-time only — wall-clock rates
//!   are reported by the caller — so the aggregate JSON is reproducible
//!   bit-for-bit (see docs/FLEET.md for the determinism contract).

use crate::factory::{make_scheduler, TrainedPolicy};
use crate::json::{obj, Json, ToJson};
use crate::scenario::SchedulerSpec;
use decima_core::par::ordered_map;
use decima_core::{ClusterSpec, JobSpec, Summary};
use decima_sim::{EpisodeResult, MemCounters, SimConfig, Simulator};
use decima_workload::renumber;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Per-shard seed salt (the 64-bit golden ratio, as in splitmix64).
/// Shard `s` perturbs the base seed by `s` multiples of it, so distinct
/// shards get distinct, well-spread seeds and shard 0 keeps the base
/// seed unchanged.
pub const FLEET_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives shard `s`'s simulator seed from the fleet's base seed.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ FLEET_SEED_SALT.wrapping_mul(shard as u64)
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The front-end's estimate of one shard's load at routing time.
///
/// These are *front-end* quantities: outstanding routed work drained by
/// a nominal `executors` work-seconds/second service model. The router
/// never sees live simulator state — that keeps routing causal (a real
/// front-end cannot observe the future) and the whole fleet a pure
/// function of `(spec, seed)`.
#[derive(Clone, Debug)]
pub struct ShardLoad {
    /// Executors the shard owns (service rate of the drain model).
    pub executors: usize,
    /// Jobs routed to the shard so far.
    pub routed_jobs: u64,
    /// Estimated outstanding work-seconds.
    pub backlog: f64,
    /// Estimated jobs still in the shard's system.
    pub active_jobs: usize,
}

/// A routing policy: picks the destination shard for each arriving job.
pub trait Router {
    /// Factory name of this router (the CSV/JSON label).
    fn name(&self) -> &'static str;
    /// Picks a shard for `job` given the current load estimates
    /// (`loads` is non-empty; the pick must index into it).
    fn route(&mut self, job: &JobSpec, loads: &[ShardLoad]) -> usize;
}

/// Cycles through shards irrespective of load.
#[derive(Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }
    fn route(&mut self, _job: &JobSpec, loads: &[ShardLoad]) -> usize {
        let pick = self.next % loads.len();
        self.next = self.next.wrapping_add(1);
        pick
    }
}

/// Join-shortest-queue by estimated pending work-seconds (a tie goes
/// to the fewest jobs routed so far, then the lowest shard index).
pub struct ShortestQueue;

impl Router for ShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }
    fn route(&mut self, _job: &JobSpec, loads: &[ShardLoad]) -> usize {
        argbest(loads, |l| l.backlog)
    }
}

/// Least-loaded by estimated free executors: each active job is assumed
/// to occupy at least one executor, so `free = executors − active`
/// (a tie goes to the fewest jobs routed so far, then the lowest shard
/// index).
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }
    fn route(&mut self, _job: &JobSpec, loads: &[ShardLoad]) -> usize {
        // Most free executors == smallest occupancy deficit.
        argbest(loads, |l| l.active_jobs as f64 - l.executors as f64)
    }
}

/// Index of the minimum key; a tie goes to the shard with the fewest
/// jobs routed so far, then to the lowest index. At low load the drain
/// model reads every backlog as zero, and "first index wins" sent each
/// such tie to shard 0; the tie-break stays deterministic, as the fleet
/// determinism contract needs.
fn argbest(loads: &[ShardLoad], key: impl Fn(&ShardLoad) -> f64) -> usize {
    let rank = |l: &ShardLoad| (key(l), l.routed_jobs);
    let mut best = 0;
    for (i, l) in loads.iter().enumerate().skip(1) {
        if rank(l) < rank(&loads[best]) {
            best = i;
        }
    }
    best
}

/// An estimated completion time, ordered by [`f64::total_cmp`] so that a
/// min-heap of them is well defined.
#[derive(Clone, Copy, Debug)]
struct Done(f64);

impl PartialEq for Done {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Done {}

impl PartialOrd for Done {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Done {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Routes `jobs` (in arrival order) across `shards` shards; returns the
/// per-shard job lists, preserving arrival order and original job ids.
///
/// Between arrivals the front-end drains each shard's estimated backlog
/// at `executors` work-seconds per second and retires jobs whose
/// estimated completion has passed, so load-aware routers track an
/// evolving picture rather than the cumulative routed total. Each
/// shard's estimates wait in a min-heap, so an arrival pops only the
/// jobs it retires.
pub fn route_jobs(
    jobs: &[JobSpec],
    shards: usize,
    executors: usize,
    router: &mut dyn Router,
) -> Vec<Vec<JobSpec>> {
    assert!(shards > 0, "a fleet needs at least one shard");
    let mut out: Vec<Vec<JobSpec>> = vec![Vec::new(); shards];
    let mut loads: Vec<ShardLoad> = (0..shards)
        .map(|_| ShardLoad {
            executors,
            routed_jobs: 0,
            backlog: 0.0,
            active_jobs: 0,
        })
        .collect();
    // Estimated completion times of in-flight jobs, per shard.
    let mut active: Vec<BinaryHeap<Reverse<Done>>> = vec![BinaryHeap::new(); shards];
    let mut last_t = 0.0f64;
    for job in jobs {
        let t = job.arrival.as_secs();
        debug_assert!(t >= last_t, "arrival stream must be time-ordered");
        let dt = (t - last_t).max(0.0);
        last_t = t;
        for (load, done) in loads.iter_mut().zip(&mut active) {
            load.backlog = (load.backlog - dt * load.executors as f64).max(0.0);
            while done.peek().is_some_and(|Reverse(Done(d))| *d <= t) {
                done.pop();
            }
            load.active_jobs = done.len();
        }
        let pick = router.route(job, &loads);
        assert!(pick < shards, "router picked shard {pick} of {shards}");
        let work = job.total_work();
        loads[pick].backlog += work;
        loads[pick].routed_jobs += 1;
        // Crude service estimate: the backlog ahead of (and including)
        // this job, drained at full parallelism.
        let done = t + loads[pick].backlog / loads[pick].executors.max(1) as f64;
        active[pick].push(Reverse(Done(done)));
        loads[pick].active_jobs = active[pick].len();
        out[pick].push(job.clone());
    }
    out
}

// ---------------------------------------------------------------------------
// The shard worker pool
// ---------------------------------------------------------------------------

/// One shard episode, ready to run.
pub struct ShardRun {
    /// Shard index within the fleet (for aggregation labels).
    pub shard: usize,
    /// The shard's cluster (a copy of the base cluster).
    pub cluster: ClusterSpec,
    /// Jobs routed to the shard, renumbered to dense ids.
    pub jobs: Vec<JobSpec>,
    /// Simulator config with the shard-derived seed already applied.
    pub cfg: SimConfig,
    /// Scheduler run inside the shard.
    pub sched: SchedulerSpec,
    /// Shared trained policy for Decima entries (resolved once by the
    /// caller, shared across shards).
    pub trained: Option<Arc<TrainedPolicy>>,
}

/// The width at which shard episodes run in parallel. One pool value
/// serves a whole sweep; it holds no threads between batches.
///
/// Determinism: each episode is a pure function of its [`ShardRun`]
/// and results come back in slot order, so the output is bit-identical
/// to a sequential run no matter how many workers execute it.
pub struct ShardPool {
    workers: usize,
}

impl ShardPool {
    /// A pool that runs up to `workers` episodes at once (at least one).
    pub fn new(workers: usize) -> Self {
        ShardPool {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of shard episodes, returning
    /// `(shard, routed_jobs, result)` in submission (slot) order. A
    /// panicking episode re-raises here once the whole batch has run.
    pub fn run(&self, runs: Vec<ShardRun>) -> Vec<(usize, u64, EpisodeResult)> {
        ordered_map(self.workers, runs, |run| {
            let executors = run.cluster.total_executors();
            let sched = make_scheduler(&run.sched, executors, run.trained.as_deref());
            let routed = run.jobs.len() as u64;
            let result = Simulator::new(run.cluster, run.jobs, run.cfg).run(sched);
            (run.shard, routed, result)
        })
    }
}

// ---------------------------------------------------------------------------
// The fleet driver and aggregate metrics
// ---------------------------------------------------------------------------

/// One shard's contribution to the fleet aggregate.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Jobs the front-end routed here.
    pub routed_jobs: u64,
    /// Static work-seconds routed here.
    pub routed_work: f64,
    /// Jobs that completed within the episode.
    pub completed: usize,
    /// Jobs left unfinished.
    pub unfinished: usize,
    /// Agent/scheduler decisions taken.
    pub decisions: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Simulated end time (seconds).
    pub end_time: f64,
    /// Mean JCT of completed jobs (NaN when none completed).
    pub avg_jct: f64,
    /// Memory-scaling telemetry of the shard's episode (live-job peak,
    /// pool high-water marks) — deterministic, see [`MemCounters`].
    pub mem: MemCounters,
}

/// Aggregated outcome of one fleet run (a set of shard episodes fed by
/// one routed arrival stream). Everything here is simulated-time only —
/// bit-reproducible from `(spec, seed)`; wall-clock throughput is the
/// caller's to measure.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Router that produced the partition.
    pub router: String,
    /// Per-shard stats, in shard order.
    pub shards: Vec<ShardStats>,
    /// Pooled completed-job JCT summary across all shards (the fleet
    /// tail: `jct.p95` / `jct.max`).
    pub jct: Summary,
}

impl FleetResult {
    /// Builds the aggregate from per-shard results. Input order is
    /// irrelevant — stats are re-sorted by shard index — so the
    /// aggregate is invariant under shard-result arrival order.
    pub fn aggregate(router: &str, mut per_shard: Vec<(usize, u64, EpisodeResult)>) -> FleetResult {
        per_shard.sort_by_key(|(shard, _, _)| *shard);
        let mut jcts: Vec<f64> = Vec::new();
        let shards = per_shard
            .iter()
            .map(|(shard, routed, r)| {
                jcts.extend(r.jcts());
                ShardStats {
                    shard: *shard,
                    routed_jobs: *routed,
                    routed_work: r.jobs.iter().map(|j| j.total_work).sum(),
                    completed: r.completed(),
                    unfinished: r.unfinished(),
                    decisions: r.actions.len() as u64,
                    events: r.num_events,
                    end_time: r.end_time.as_secs(),
                    avg_jct: r.avg_jct().unwrap_or(f64::NAN),
                    mem: r.mem,
                }
            })
            .collect();
        FleetResult {
            router: router.to_string(),
            shards,
            jct: Summary::of(&jcts),
        }
    }

    /// Total scheduler decisions across shards.
    pub fn total_decisions(&self) -> u64 {
        self.shards.iter().map(|s| s.decisions).sum()
    }

    /// Total jobs routed (= offered jobs).
    pub fn routed_jobs(&self) -> u64 {
        self.shards.iter().map(|s| s.routed_jobs).sum()
    }

    /// Total completed jobs.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Total unfinished jobs.
    pub fn unfinished(&self) -> usize {
        self.shards.iter().map(|s| s.unfinished).sum()
    }

    /// Simulated makespan: the latest shard end time (seconds).
    pub fn end_time(&self) -> f64 {
        self.shards.iter().map(|s| s.end_time).fold(0.0, f64::max)
    }

    /// Completed jobs per simulated second (fleet service rate).
    pub fn jobs_per_sim_sec(&self) -> f64 {
        let t = self.end_time();
        if t > 0.0 {
            self.completed() as f64 / t
        } else {
            0.0
        }
    }

    /// Peak concurrently-live jobs, summed across shards: the fleet's
    /// worst-case resident job state. Under the streaming lifecycle
    /// this bounds memory, not the (much larger) routed-job total.
    pub fn live_jobs_peak(&self) -> u64 {
        self.shards.iter().map(|s| s.mem.live_jobs_peak).sum()
    }

    /// Jobs retired into compact outcomes across all shards.
    pub fn retired_jobs(&self) -> u64 {
        self.shards.iter().map(|s| s.mem.retired_jobs).sum()
    }

    /// Routed-work imbalance: max shard work over mean shard work
    /// (1.0 = perfectly balanced; 0 work everywhere reports 1.0).
    pub fn imbalance(&self) -> f64 {
        let works: Vec<f64> = self.shards.iter().map(|s| s.routed_work).collect();
        let mean = works.iter().sum::<f64>() / works.len().max(1) as f64;
        if mean > 0.0 {
            works.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
        } else {
            1.0
        }
    }

    /// Deterministic JSON (simulated-time metrics only; no wall clock).
    pub fn to_json(&self) -> Json {
        let per_shard = self.shards.iter().map(|s| {
            // Of the memory counters, the first and the last.
            let [live_peak, .., retired] = s.mem.named();
            obj!(
                s.shard,
                s.routed_jobs,
                s.routed_work,
                s.completed,
                s.decisions,
                s.events,
                s.end_time,
                live_peak.0 => live_peak.1,
                retired.0 => retired.1
            )
        });
        obj!(
            self.router,
            "shards" => self.shards.len(),
            self.routed_jobs(),
            self.completed(),
            self.unfinished(),
            self.total_decisions(),
            self.end_time(),
            self.jobs_per_sim_sec(),
            self.imbalance(),
            self.live_jobs_peak(),
            self.retired_jobs(),
            "jct_mean" => self.jct.mean,
            "jct_p95" => self.jct.p95,
            "jct_max" => self.jct.max,
            "per_shard" => per_shard.collect::<Vec<Json>>()
        )
    }
}

/// One fleet run: route the arrival stream, simulate every shard on the
/// pool, aggregate. `sim.seed` is the fleet's base seed; shard `s` runs
/// at `shard_seed(sim.seed, s)`.
pub fn run_fleet(
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sim: &SimConfig,
    shards: usize,
    router: &mut dyn Router,
    sched: &SchedulerSpec,
    trained: Option<&Arc<TrainedPolicy>>,
    pool: &ShardPool,
) -> FleetResult {
    let routed = route_jobs(jobs, shards, cluster.total_executors(), router);
    let runs: Vec<ShardRun> = routed
        .into_iter()
        .enumerate()
        .map(|(s, shard_jobs)| {
            let mut cfg = sim.clone();
            cfg.seed = shard_seed(sim.seed, s);
            ShardRun {
                shard: s,
                cluster: cluster.clone(),
                // The simulator needs dense job ids; arrival times and
                // names survive renumbering.
                jobs: renumber(shard_jobs),
                cfg,
                sched: sched.clone(),
                trained: trained.cloned(),
            }
        })
        .collect();
    FleetResult::aggregate(router.name(), pool.run(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::{JobBuilder, JobId, SimTime, StageSpec};
    use decima_workload::WorkloadSpec;
    use proptest::prelude::*;

    fn stream(n: usize) -> (ClusterSpec, Vec<JobSpec>) {
        WorkloadSpec::tpch_stream(n, 6, 15.0).build(7)
    }

    /// `route_jobs` as it was before the completion estimates moved to
    /// min-heaps: every arrival rescans every shard's estimates.
    fn route_jobs_retain(
        jobs: &[JobSpec],
        shards: usize,
        executors: usize,
        router: &mut dyn Router,
    ) -> Vec<Vec<JobSpec>> {
        let mut out: Vec<Vec<JobSpec>> = vec![Vec::new(); shards];
        let mut loads: Vec<ShardLoad> = (0..shards)
            .map(|_| ShardLoad {
                executors,
                routed_jobs: 0,
                backlog: 0.0,
                active_jobs: 0,
            })
            .collect();
        let mut active: Vec<Vec<f64>> = vec![Vec::new(); shards];
        let mut last_t = 0.0f64;
        for job in jobs {
            let t = job.arrival.as_secs();
            let dt = (t - last_t).max(0.0);
            last_t = t;
            for (s, load) in loads.iter_mut().enumerate() {
                load.backlog = (load.backlog - dt * load.executors as f64).max(0.0);
                active[s].retain(|&done| done > t);
                load.active_jobs = active[s].len();
            }
            let pick = router.route(job, &loads);
            loads[pick].backlog += job.total_work();
            loads[pick].routed_jobs += 1;
            active[pick].push(t + loads[pick].backlog / loads[pick].executors.max(1) as f64);
            loads[pick].active_jobs = active[pick].len();
            out[pick].push(job.clone());
        }
        out
    }

    /// One single-stage job per `(gap, tasks, duration)`, arriving `gap`
    /// half-seconds after the one before (so arrivals often tie with
    /// each other and with estimated completions).
    fn generated_stream(spec: &[(u8, u8, u8)]) -> Vec<JobSpec> {
        let mut t = 0.0;
        spec.iter()
            .enumerate()
            .map(|(i, &(gap, tasks, dur))| {
                t += f64::from(gap) * 0.5;
                let mut b = JobBuilder::new(JobId(i as u32));
                b.stage(StageSpec::simple(u32::from(tasks), f64::from(dur) * 0.5));
                b.arrival(SimTime::from_secs(t)).build().unwrap()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The min-heaps route every job where the rescan did, for each
        /// of the three routers.
        #[test]
        fn heap_routing_matches_the_rescan(
            spec in proptest::collection::vec((0u8..4, 1u8..9, 1u8..13), 0..60),
            shards in 1usize..5,
            executors in 1usize..7,
        ) {
            let jobs = generated_stream(&spec);
            let ids = |routed: Vec<Vec<JobSpec>>| -> Vec<Vec<JobId>> {
                routed.iter().map(|s| s.iter().map(|j| j.id).collect()).collect()
            };
            let routers: [fn() -> Box<dyn Router>; 3] = [
                || Box::new(RoundRobin::default()),
                || Box::new(ShortestQueue),
                || Box::new(LeastLoaded),
            ];
            for make in routers {
                let heap = route_jobs(&jobs, shards, executors, make().as_mut());
                let rescan = route_jobs_retain(&jobs, shards, executors, make().as_mut());
                prop_assert_eq!(ids(heap), ids(rescan), "{}", make().name());
            }
        }
    }

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), 42);
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
    }

    #[test]
    fn round_robin_cycles() {
        let (_, jobs) = stream(6);
        let mut rr = RoundRobin { next: 0 };
        let routed = route_jobs(&jobs, 3, 6, &mut rr);
        assert_eq!(routed.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 2]);
    }

    #[test]
    fn jsq_balances_work_better_than_static_assignment() {
        let (_, jobs) = stream(12);
        let mut jsq = ShortestQueue;
        let routed = route_jobs(&jobs, 3, 6, &mut jsq);
        // Every shard must receive something under a balancing router.
        assert!(routed.iter().all(|r| !r.is_empty()), "jsq starves a shard");
        let total: usize = routed.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn least_loaded_routes_everything() {
        let (_, jobs) = stream(9);
        let mut ll = LeastLoaded;
        let routed = route_jobs(&jobs, 4, 6, &mut ll);
        let total: usize = routed.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn aggregate_is_invariant_under_result_order() {
        let (cluster, jobs) = stream(8);
        let pool = ShardPool::new(2);
        let sim = SimConfig {
            seed: 5,
            ..SimConfig::default()
        };
        let mut rr = RoundRobin { next: 0 };
        let fleet = run_fleet(
            &cluster,
            &jobs,
            &sim,
            2,
            &mut rr,
            &SchedulerSpec::Fifo,
            None,
            &pool,
        );
        // Re-aggregate with the shard results swapped.
        let mut rr2 = RoundRobin { next: 0 };
        let routed = route_jobs(&jobs, 2, cluster.total_executors(), &mut rr2);
        let mut per_shard: Vec<(usize, u64, EpisodeResult)> = routed
            .into_iter()
            .enumerate()
            .map(|(s, shard_jobs)| {
                let mut cfg = sim.clone();
                cfg.seed = shard_seed(sim.seed, s);
                let routed_n = shard_jobs.len() as u64;
                let r = Simulator::new(cluster.clone(), renumber(shard_jobs), cfg)
                    .run(make_scheduler(&SchedulerSpec::Fifo, 6, None));
                (s, routed_n, r)
            })
            .collect();
        per_shard.reverse();
        let swapped = FleetResult::aggregate("rr", per_shard);
        assert_eq!(fleet.to_json().render(), swapped.to_json().render());
    }

    #[test]
    fn pool_panics_propagate_and_pool_survives() {
        let (cluster, jobs) = stream(4);
        let pool = ShardPool::new(2);
        // Non-dense ids make Simulator::new panic.
        let mut bad_jobs = jobs.clone();
        bad_jobs[0].id = decima_core::JobId(99);
        let bad = ShardRun {
            shard: 0,
            cluster: cluster.clone(),
            jobs: bad_jobs,
            cfg: SimConfig::default(),
            sched: SchedulerSpec::Fifo,
            trained: None,
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![bad]);
        }));
        assert!(caught.is_err(), "shard panic must re-raise");
        // The pool stays usable for the next batch.
        let good = ShardRun {
            shard: 0,
            cluster,
            jobs: renumber(jobs),
            cfg: SimConfig::default(),
            sched: SchedulerSpec::Fifo,
            trained: None,
        };
        let out = pool.run(vec![good]);
        assert_eq!(out.len(), 1);
        assert!(out[0].2.completed() > 0);
    }
}
