//! `fleet_f32`: the sharded serving driver with the trained policy in
//! every shard — fleet-aggregate trained-policy decisions per second,
//! the number ROADMAP item 3 is judged on.
//!
//! Four shards of 15 executors behind the round-robin router, shard
//! episodes on a `ShardPool` of `min(2, nproc)` workers, one shared
//! `Arc<TrainedPolicy>`. Round-robin because `jsq` and `least-loaded`
//! pile this load onto shard 0 (see the README's leads).

use super::episodes::{episode_ok, tally_engine, tally_sizes};
use super::{caught, input_seed, warmed_up_policy, Round, Workload, POLICY_SEED, SAMPLE_EVERY};
use crate::host::pool_width;
use crate::layers;
use crate::metrics::Values;
use crate::stats::LatencyHist;
use crate::timed::Timed;
use crate::trace::Tracer;
use decima_bench::factory::{make_router, make_scheduler, TrainedPolicy};
use decima_bench::fleet::{route_jobs, run_fleet, shard_seed, FleetResult, ShardPool, ShardRun};
use decima_bench::scenario::{SchedulerSpec, TrainSpec};
use decima_core::{ClusterSpec, JobSpec};
use decima_policy::ReplayObs;
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{SimConfig, Simulator};
use decima_workload::{renumber, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

/// Shape and size of the fleet workload.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// The arrival stream routed across the shards (its `executors`
    /// is one shard's cluster size).
    pub workload: WorkloadSpec,
    /// Shards.
    pub shards: usize,
    /// Warm-up training iterations behind the served policy.
    pub warmup_iters: usize,
    /// Rounds in a pass (see `Workload::count_rounds`).
    pub count_rounds: usize,
}

impl FleetSpec {
    /// The full-size workload: the issue's stream (40 000 jobs at a
    /// mean interarrival time of 11.25 s over 4×15 executors) cut to a
    /// sixteenth of its length so that a round takes a few tenths of a
    /// second and a run replays each several times.
    pub fn fleet_f32() -> Self {
        FleetSpec {
            workload: WorkloadSpec::tpch_stream(625, 15, 11.25),
            shards: 4,
            warmup_iters: 3,
            count_rounds: 32,
        }
    }
}

/// The fleet workload after set-up.
pub struct Fleet {
    spec: FleetSpec,
    seed: u64,
    env: SpecEnv,
    /// The round whose arrival stream `cluster`/`jobs`/`cfg` hold.
    built: u64,
    cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
    cfg: SimConfig,
    sched: SchedulerSpec,
    policy: Arc<TrainedPolicy>,
    pool: ShardPool,
    kept: Vec<ReplayObs>,
    /// Every `decide` of the serial shard re-runs.
    decide_hist: LatencyHist,
    next_op: u64,
}

impl Fleet {
    /// Generates round 0's stream from `seed`, warms up the policy and
    /// spawns the shard pool.
    pub fn setup(spec: FleetSpec, seed: u64, tr: &mut Tracer, vals: &mut Values) -> Self {
        let env = SpecEnv::new(spec.workload.clone());
        let (cluster, jobs, cfg) =
            tr.span("workload.build", 0, |_| env.build(input_seed(seed, 0, 0)));
        vals.set("workload.jobs", jobs.len() as f64);
        let policy = Arc::new(warmed_up_policy(
            spec.workload.executors,
            spec.warmup_iters,
            tr,
        ));
        let pool = tr.span(
            "bench.fleet.pool_spawn",
            0,
            |_| ShardPool::new(pool_width()),
        );
        Fleet {
            spec,
            seed,
            env,
            built: 0,
            cluster,
            jobs,
            cfg,
            // The recipe inside the spec is never run: the fleet serves
            // the shared snapshot.
            sched: SchedulerSpec::Decima {
                train: TrainSpec::standard(0, POLICY_SEED),
            },
            policy,
            pool,
            kept: Vec::new(),
            decide_hist: LatencyHist::default(),
            next_op: 1,
        }
    }

    /// `run_fleet`, step by step from its public pieces, with a span
    /// around each step.
    fn run_fleet_traced(&self, tr: &mut Tracer, op: u64) -> FleetResult {
        let mut router = make_router("rr").expect("rr is a router name");
        let routed = tr.span("bench.fleet.route", op, |_| {
            route_jobs(
                &self.jobs,
                self.spec.shards,
                self.cluster.total_executors(),
                &mut *router,
            )
        });
        let runs = tr.span("bench.fleet.shard_runs", op, |_| self.shard_runs(routed));
        let per_shard = tr.span("bench.fleet.pool_run", op, |_| self.pool.run(runs));
        tr.span("bench.fleet.aggregate", op, |_| {
            FleetResult::aggregate(router.name(), per_shard)
        })
    }

    fn shard_runs(&self, routed: Vec<Vec<JobSpec>>) -> Vec<ShardRun> {
        routed
            .into_iter()
            .enumerate()
            .map(|(s, shard_jobs)| {
                let mut cfg = self.cfg.clone();
                cfg.seed = shard_seed(self.cfg.seed, s);
                ShardRun {
                    shard: s,
                    cluster: self.cluster.clone(),
                    jobs: renumber(shard_jobs),
                    cfg,
                    sched: self.sched.clone(),
                    trained: Some(Arc::clone(&self.policy)),
                }
            })
            .collect()
    }
}

impl Workload for Fleet {
    fn count_rounds(&self) -> usize {
        self.spec.count_rounds
    }

    fn round(&mut self, idx: u64, tr: &mut Tracer, _vals: &mut Values) -> Round {
        if self.built != idx {
            (self.cluster, self.jobs, self.cfg) = tr.span("workload.build", 0, |_| {
                self.env.build(input_seed(self.seed, idx, 0))
            });
            self.built = idx;
        }
        let op = self.next_op;
        self.next_op += 1;
        let t0 = Instant::now();
        let fleet = caught(|| {
            if tr.enabled() {
                self.run_fleet_traced(tr, op)
            } else {
                let mut router = make_router("rr").expect("rr is a router name");
                run_fleet(
                    &self.cluster,
                    &self.jobs,
                    &self.cfg,
                    self.spec.shards,
                    &mut *router,
                    &self.sched,
                    Some(&self.policy),
                    &self.pool,
                )
            }
        });
        let mut round = Round {
            calls: vec![t0.elapsed().as_secs_f64()],
            attempted: self.spec.shards as u64,
            ..Round::default()
        };
        let Some(fleet) = fleet else {
            round.failed = round.attempted;
            return round;
        };
        for s in &fleet.shards {
            if s.unfinished > 0 || s.completed as u64 != s.routed_jobs || !s.avg_jct.is_finite() {
                round.failed += 1;
            }
            round.decisions += s.decisions;
            round.events += s.events;
        }
        round.jobs_completed = fleet.completed() as u64;
        round.jct_sum = fleet.jct.mean * fleet.jct.n as f64;
        round.jct_n = fleet.jct.n as u64;
        tr.span("bench.check", op, |_| round.seal(&fleet.to_json().render()));
        round
    }

    /// Every shard once more, one after the other on this thread and
    /// through the stopwatch: what the pool's wall is made of.
    fn layers(&mut self, tr: &mut Tracer, vals: &mut Values) {
        let mut router = make_router("rr").expect("rr is a router name");
        let routed = route_jobs(
            &self.jobs,
            self.spec.shards,
            self.cluster.total_executors(),
            &mut *router,
        );
        let executors = self.cluster.total_executors();
        let mut serial = Vec::new();
        let mut results = Vec::new();
        tr.span("bench.fleet.serial", 0, |tr| {
            for run in self.shard_runs(routed) {
                let op = self.next_op;
                self.next_op += 1;
                let routed_n = run.jobs.len();
                let t0 = Instant::now();
                let sched = tr.span("bench.fleet.agent_build", op, |_| {
                    make_scheduler(&run.sched, executors, run.trained.as_deref())
                });
                let build_s = t0.elapsed().as_secs_f64();
                let sim = tr.span("sim.new", op, |_| {
                    Simulator::new(run.cluster, run.jobs, run.cfg)
                });
                let mut timed = Timed::sampling(sched, SAMPLE_EVERY, true);
                let (r, run_s) = tr.span("sim.run", op, |tr| {
                    let t0 = Instant::now();
                    let r = sim.run(&mut timed);
                    let run_s = t0.elapsed().as_secs_f64();
                    tr.folded("policy.decide", op, timed.hist.sum_ns(), timed.hist.len());
                    (r, run_s)
                });
                assert!(
                    episode_ok(&r, routed_n),
                    "serial shard {} failed",
                    run.shard
                );
                vals.add("bench.fleet.agent_build_s", build_s);
                vals.add("_decide_ns", timed.hist.sum_ns() as f64);
                vals.add("_run_s", run_s);
                tally_engine(vals, &r);
                tally_sizes(vals, &timed.sizes);
                self.decide_hist.merge(&timed.hist);
                self.kept.extend(timed.kept);
                serial.push(build_s + run_s);
                results.push((run.shard, routed_n as u64, r));
            }
        });
        vals.set("bench.fleet.shard_serial_s_sum", serial.iter().sum());
        vals.set(
            "bench.fleet.shard_serial_s_max",
            serial.iter().copied().fold(0.0, f64::max),
        );
        vals.set(
            "bench.fleet.imbalance",
            FleetResult::aggregate("rr", results).imbalance(),
        );
        vals.set("_pool_workers", self.pool.num_workers() as f64);
        let every = (self.kept.len() / 1024).max(1);
        let kept: Vec<ReplayObs> = std::mem::take(&mut self.kept)
            .into_iter()
            .step_by(every)
            .collect();
        layers::rescore(&self.policy, &kept, tr, vals);
    }

    fn decide_hist(&self) -> Option<(&'static str, &LatencyHist)> {
        (!self.decide_hist.is_empty()).then_some(("policy", &self.decide_hist))
    }
}
