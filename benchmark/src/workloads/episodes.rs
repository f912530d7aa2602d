//! The four single-cluster workloads: whole episodes of one simulator
//! under one scheduler.
//!
//! | workload | scheduler | inputs |
//! |---|---|---|
//! | `sim_batch_large` | SJF-CP | batches of 100 TPC-H jobs on 80 executors |
//! | `sim_stream_long` | fair | one long Poisson stream on 64 executors |
//! | `serve_f32_steady` | trained policy, f32 lane | a stable stream on 15 executors |
//! | `serve_f32_backlog` | trained policy, f32 lane | batches of 100 jobs on 50 executors |

use super::{caught, input_seed, warmed_up_policy, Round, Workload, SAMPLE_EVERY};
use crate::layers;
use crate::metrics::Values;
use crate::stats::LatencyHist;
use crate::timed::{Segmented, Timed};
use crate::trace::Tracer;
use decima_baselines::{SjfCpScheduler, WeightedFairScheduler};
use decima_bench::factory::TrainedPolicy;
use decima_policy::{DecimaAgent, ReplayObs};
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{EpisodeOutcome, EpisodeResult, Scheduler, Simulator};
use decima_workload::WorkloadSpec;

/// At most this many kept observations are re-scored.
const MAX_KEPT: usize = 1024;

/// Which scheduler drives the episodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// Shortest-job-first by critical path (`decima-baselines`).
    SjfCp,
    /// Plain fair sharing (`decima-baselines`).
    Fair,
    /// The trained policy on the f32 inference lane, obtained by a
    /// warm-up of this many training iterations during set-up.
    Policy {
        /// Warm-up training iterations.
        warmup_iters: usize,
    },
}

/// Shape and size of an episode workload.
#[derive(Clone, Debug)]
pub struct EpisodeSpec {
    /// Job source and cluster.
    pub workload: WorkloadSpec,
    /// Episodes per round, each from its own derived seed.
    pub episodes: usize,
    /// Scheduler.
    pub sched: Sched,
    /// Rounds in a pass (see `Workload::count_rounds`).
    pub count_rounds: usize,
    /// Decisions in one timed stretch of an episode (see
    /// [`Segmented`]): about four milliseconds' worth.
    pub stretch: u64,
}

impl EpisodeSpec {
    /// Heuristic lane with a large active set: the observation is big
    /// and SJF-CP's own per-decision scan does most of the work.
    pub fn sim_batch_large() -> Self {
        EpisodeSpec {
            workload: WorkloadSpec::tpch_batch(100, 80),
            episodes: 10,
            sched: Sched::SjfCp,
            count_rounds: 10,
            stretch: 1_500,
        }
    }

    /// The engine under continuous arrival and retirement: ~25 live
    /// jobs out of thousands served. Sized down from the 100 000-job
    /// stream of the issue (same arrival rate and cluster) so that an
    /// episode takes a few tenths of a second and a run replays each
    /// several times.
    pub fn sim_stream_long() -> Self {
        EpisodeSpec {
            workload: WorkloadSpec::tpch_stream(10_000, 64, 12.0),
            episodes: 1,
            sched: Sched::Fair,
            count_rounds: 4,
            stretch: 3_000,
        }
    }

    /// Serving in a stable cluster: small graphs, most of the wall
    /// inside `DecimaAgent::decide`.
    pub fn serve_f32_steady() -> Self {
        EpisodeSpec {
            workload: WorkloadSpec::tpch_stream(1_250, 15, 45.0),
            episodes: 1,
            sched: Sched::Policy { warmup_iters: 3 },
            count_rounds: 8,
            stretch: 300,
        }
    }

    /// The same policy layers on ~1 000-node graphs: the GNN sweep and
    /// the dense segment matrices dominate.
    pub fn serve_f32_backlog() -> Self {
        EpisodeSpec {
            workload: WorkloadSpec::tpch_batch(100, 50),
            episodes: 1,
            sched: Sched::Policy { warmup_iters: 3 },
            count_rounds: 10,
            stretch: 50,
        }
    }
}

/// A simulator ready to run, its agent on policy workloads, and the
/// number of jobs it must complete.
type Ready = (Simulator, Option<DecimaAgent>, usize);

/// An episode workload after set-up.
pub struct Episodes {
    spec: EpisodeSpec,
    seed: u64,
    env: SpecEnv,
    policy: Option<TrainedPolicy>,
    /// The round whose simulators (and agents) are built, and they.
    ready: Option<(u64, Vec<Ready>)>,
    /// Every `decide` the stopwatch saw, over all rounds.
    decide_hist: LatencyHist,
    /// Observations kept by the first traced round.
    kept: Vec<ReplayObs>,
    next_op: u64,
}

/// What the stopwatch brought back from one episode.
struct Probed {
    hist: LatencyHist,
    sizes: crate::timed::ObsSizes,
    kept: Vec<ReplayObs>,
}

/// Whether an episode finished the way a correct run must.
pub fn episode_ok(r: &EpisodeResult, jobs: usize) -> bool {
    r.outcome == EpisodeOutcome::Drained
        && r.jobs.len() == jobs
        && r.unfinished() == 0
        && r.avg_jct().is_some_and(f64::is_finite)
}

/// Adds one episode's deterministic outputs to the round.
pub fn tally(round: &mut Round, r: &EpisodeResult) {
    round.decisions += r.actions.len() as u64;
    round.events += r.num_events;
    round.jobs_completed += r.completed() as u64;
    round.jct_sum += r.jcts().iter().sum::<f64>();
    round.jct_n += r.completed() as u64;
}

/// Records one traced episode's engine counters.
pub fn tally_engine(vals: &mut Values, r: &EpisodeResult) {
    vals.add("_events", r.num_events as f64);
    vals.add("_decisions", r.actions.len() as f64);
    vals.add("_wasted", r.wasted_actions as f64);
    vals.max("sim.live_jobs_peak", r.mem.live_jobs_peak as f64);
    vals.max("sim.slots_hwm", r.mem.slots_hwm as f64);
    vals.max("sim.retired_jobs", r.mem.retired_jobs as f64);
    vals.max("sim.event_queue_hwm", r.mem.event_queue_hwm as f64);
}

/// Records what the stopwatch sampled.
pub fn tally_sizes(vals: &mut Values, s: &crate::timed::ObsSizes) {
    vals.add("_obs_samples", s.samples as f64);
    vals.add("_obs_jobs", s.jobs as f64);
    vals.add("_obs_nodes", s.nodes as f64);
    vals.add("_obs_schedulable", s.schedulable as f64);
}

impl Episodes {
    /// Warms up the policy if the workload serves one, and generates
    /// round 0's inputs from `seed` and builds its simulators.
    pub fn setup(spec: EpisodeSpec, seed: u64, tr: &mut Tracer, vals: &mut Values) -> Self {
        let policy = match spec.sched {
            Sched::Policy { warmup_iters } => {
                Some(warmed_up_policy(spec.workload.executors, warmup_iters, tr))
            }
            _ => None,
        };
        let mut w = Episodes {
            env: SpecEnv::new(spec.workload.clone()),
            spec,
            seed,
            policy,
            ready: None,
            decide_hist: LatencyHist::default(),
            kept: Vec::new(),
            next_op: 1,
        };
        let ready = w.prepare(0, tr);
        vals.set(
            "workload.jobs",
            ready.iter().map(|r| r.2).sum::<usize>() as f64,
        );
        w.ready = Some((0, ready));
        w
    }

    /// Generates round `idx`'s inputs and builds its simulators and
    /// agents (never timed as part of a round).
    fn prepare(&self, idx: u64, tr: &mut Tracer) -> Vec<Ready> {
        (0..self.spec.episodes)
            .map(|i| {
                let (cluster, jobs, cfg) = tr.span("workload.build", 0, |_| {
                    self.env.build(input_seed(self.seed, idx, i))
                });
                let n = jobs.len();
                let sim = tr.span("sim.new", 0, |_| Simulator::new(cluster, jobs, cfg));
                let agent = self
                    .policy
                    .as_ref()
                    .map(|p| tr.span("policy.pack", 0, |_| p.greedy_agent_fast()));
                (sim, agent, n)
            })
            .collect()
    }

    /// One timed `Simulator::run`, cut into stretches of `stretch`
    /// decisions, and through the stopwatch when `probe`.
    fn run_one<S: Scheduler>(
        tr: &mut Tracer,
        op: u64,
        sim: Simulator,
        sched: S,
        stretch: u64,
        probe: Option<(u64, bool)>,
        decide_layer: &'static str,
    ) -> (Option<EpisodeResult>, Vec<f64>, Option<Probed>) {
        tr.span("sim.run", op, |tr| match probe {
            None => {
                let mut cut = Segmented::new(sched, stretch);
                let r = caught(|| sim.run(&mut cut));
                (r, cut.finish(), None)
            }
            Some((every, keep)) => {
                let mut cut = Segmented::new(Timed::sampling(sched, every, keep), stretch);
                let r = caught(|| sim.run(&mut cut));
                let (stretches, timed) = cut.finish_with_inner();
                tr.folded(decide_layer, op, timed.hist.sum_ns(), timed.hist.len());
                let probed = Probed {
                    hist: timed.hist,
                    sizes: timed.sizes,
                    kept: timed.kept,
                };
                (r, stretches, Some(probed))
            }
        })
    }
}

impl Workload for Episodes {
    fn count_rounds(&self) -> usize {
        self.spec.count_rounds
    }

    fn round(&mut self, idx: u64, tr: &mut Tracer, vals: &mut Values) -> Round {
        let ready = match self.ready.take() {
            Some((built, ready)) if built == idx => ready,
            _ => self.prepare(idx, tr),
        };
        let traced = tr.enabled();
        let is_policy = self.policy.is_some();
        // The policy workloads always carry the stopwatch (it is how a
        // client would see decision latency); the heuristic ones only
        // when traced, where 50 ns on a 400 ns decision would show.
        let keep = traced && is_policy && self.kept.is_empty();
        let probe = if traced {
            Some((SAMPLE_EVERY, keep))
        } else if is_policy {
            Some((0, false))
        } else {
            None
        };
        let decide_layer = if is_policy {
            "policy.decide"
        } else {
            "baselines.decide"
        };
        let mut round = Round::default();
        for (sim, agent, jobs) in ready {
            let op = self.next_op;
            self.next_op += 1;
            let stretch = self.spec.stretch;
            let (r, stretches, probed) = match (self.spec.sched, agent) {
                (Sched::SjfCp, _) => {
                    Self::run_one(tr, op, sim, SjfCpScheduler, stretch, probe, decide_layer)
                }
                (Sched::Fair, _) => Self::run_one(
                    tr,
                    op,
                    sim,
                    WeightedFairScheduler::fair(),
                    stretch,
                    probe,
                    decide_layer,
                ),
                (Sched::Policy { .. }, Some(agent)) => {
                    Self::run_one(tr, op, sim, agent, stretch, probe, decide_layer)
                }
                (Sched::Policy { .. }, None) => unreachable!("set-up builds an agent per episode"),
            };
            let wall: f64 = stretches.iter().sum();
            round.calls.extend(stretches);
            round.attempted += 1;
            match r {
                Some(r) if episode_ok(&r, jobs) => {
                    tally(&mut round, &r);
                    if traced {
                        tally_engine(vals, &r);
                    }
                }
                _ => round.failed += 1,
            }
            if let Some(p) = probed {
                self.decide_hist.merge(&p.hist);
                if traced {
                    vals.add("_decide_ns", p.hist.sum_ns() as f64);
                    vals.add("_run_s", wall);
                    tally_sizes(vals, &p.sizes);
                }
                self.kept.extend(p.kept);
            }
        }
        if self.kept.len() > MAX_KEPT {
            let n = self.kept.len();
            let kept = std::mem::take(&mut self.kept);
            self.kept = kept
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i * MAX_KEPT / n != (i + 1) * MAX_KEPT / n)
                .map(|(_, o)| o)
                .collect();
        }
        round.seal("");
        round
    }

    fn layers(&mut self, tr: &mut Tracer, vals: &mut Values) {
        if let Some(policy) = &self.policy {
            layers::rescore(policy, &self.kept, tr, vals);
        }
    }

    fn decide_hist(&self) -> Option<(&'static str, &LatencyHist)> {
        let layer = if self.policy.is_some() {
            "policy"
        } else {
            "baselines"
        };
        (!self.decide_hist.is_empty()).then_some((layer, &self.decide_hist))
    }
}
