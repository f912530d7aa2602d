//! The seven workloads.
//!
//! Every workload is a closed loop: the engine thread calls
//! `Scheduler::decide` and waits for the answer; nothing is sent on a
//! schedule. A workload is **set up** (first inputs generated from the
//! seed, policy warmed up, pools spawned), then run in **rounds**.
//!
//! Round `i` runs the same operations on its own inputs, generated from
//! `(seed, i)`. A run makes **passes** over a fixed number of rounds
//! (`Workload::count_rounds`): round `i` of every pass replays round `i`
//! of the first, call for call, and its deterministic outputs must agree
//! with it. Only the calls into the program are timed; generating a
//! round's inputs between rounds is not.
//!
//! The machines this runs on switch, second by second, between a quiet
//! state and one in which the same call takes up to half as long again
//! (the neighbours' load). That only ever adds time, so each timed call
//! is reported at the shortest length any of its replays saw, and a
//! call is kept short enough (a few tenths of a second) that some
//! replay falls into a quiet second.

pub mod episodes;
pub mod exp;
pub mod fleet;
pub mod train;

use crate::metrics::Values;
use crate::stats::LatencyHist;
use crate::trace::Tracer;
use decima_bench::factory::{build_trainer, TrainedPolicy};
use decima_bench::scenario::TrainSpec;
use decima_rl::SpecEnv;
use decima_workload::WorkloadSpec;
use std::hash::{Hash, Hasher};

/// Every n-th decision of a traced run is sized (and, on policy
/// workloads, kept for re-scoring).
pub const SAMPLE_EVERY: u64 = 64;

/// What one round did.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Length of each timed call into the program, in seconds, in the
    /// order made; a replay of the round makes the same calls.
    pub calls: Vec<f64>,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Sum and count behind the mean job completion time (simulated s).
    pub jct_sum: f64,
    /// See `jct_sum`.
    pub jct_n: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or whose output failed a check.
    pub failed: u64,
    /// Hash of the round's deterministic outputs.
    pub fingerprint: u64,
}

impl Round {
    /// Timed wall of the round: the summed length of its calls.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().sum()
    }

    /// Folds the deterministic outputs into `fingerprint`.
    pub fn seal(&mut self, extra: &str) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.decisions, self.events, self.jobs_completed).hash(&mut h);
        (self.jct_sum.to_bits(), self.jct_n).hash(&mut h);
        extra.hash(&mut h);
        self.fingerprint = h.finish();
    }
}

/// A workload: set up once, then run pass after pass over its rounds.
pub trait Workload {
    /// Rounds in a pass. Counts, completion times and timings are taken
    /// over exactly one pass, so that they do not depend on how many
    /// passes the machine fits into the run.
    fn count_rounds(&self) -> usize;

    /// Round `idx` of a pass, a pure function of `(seed, idx)`; rounds
    /// are asked for in order, 0 after the last. With `tr` enabled the
    /// round goes through the timing probes and records spans and
    /// working sums into `vals`.
    fn round(&mut self, idx: u64, tr: &mut Tracer, vals: &mut Values) -> Round;

    /// Traced-only extras outside the measured rounds (re-scoring kept
    /// observations, serial re-runs): their own root spans, their own
    /// working sums.
    fn layers(&mut self, _tr: &mut Tracer, _vals: &mut Values) {}

    /// The layer (`baselines` or `policy`) and durations of every
    /// `decide` call the client's stopwatch saw, if it ran.
    fn decide_hist(&self) -> Option<(&'static str, &LatencyHist)> {
        None
    }
}

/// The input seed of slot `i` of round `round` of a run seeded `seed`.
pub fn input_seed(seed: u64, round: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add(round.wrapping_mul(1_009))
        .wrapping_add(i as u64)
}

/// Runs `f`, turning a panic into `None` (the operation then counts as
/// failed).
pub fn caught<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Seed of every trainer the benchmark builds. Pinned, not derived from
/// `--seed`: a policy stands in for a committed checkpoint — part of
/// the program, not of its input — and a few iterations from an unlucky
/// initialisation give a policy under which the serving streams are not
/// stable (live jobs and decision cost grow without bound), which is a
/// different workload. `--seed` generates the jobs.
pub const POLICY_SEED: u64 = 11;

/// The deterministic warm-up that stands in for a trained checkpoint on
/// the policy workloads: `iters` iterations of the standard recipe at
/// [`POLICY_SEED`] on a ten-job batch sized for the serving cluster.
pub fn warmed_up_policy(executors: usize, iters: usize, tr: &mut Tracer) -> TrainedPolicy {
    tr.span("rl.warmup_train", 0, |_| {
        let mut trainer = build_trainer(&TrainSpec::standard(iters, POLICY_SEED), executors);
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(10, executors));
        for _ in 0..iters {
            trainer.train_iteration(&env);
        }
        TrainedPolicy::of(&trainer)
    })
}
