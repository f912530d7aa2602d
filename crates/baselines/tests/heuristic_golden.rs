//! Byte-level oracle for every factory heuristic: decisions, events and
//! an FNV-1a hash of every job completion time's `to_bits`, on a small
//! two-class workload under medium cluster dynamics and on a
//! single-class `tpch_batch`. The expected values were written by the
//! code *before* the heuristics started reading a per-job static
//! profile and `schedulable` as per-job groups; a helper that moves one
//! comparison, one tie or one sum moves a row here.
//!
//! The schedulers are built by the same expressions as
//! `decima_bench::factory::make_scheduler` (the factory crate sits above
//! this one), under the factory's names.

use decima_baselines::{
    FifoScheduler, GrapheneScheduler, RandomScheduler, SjfCpScheduler, TetrisScheduler,
    WeightedFairScheduler,
};
use decima_core::{ClusterSpec, ExecutorClass, JobSpec};
use decima_sim::{DynamicsSpec, EpisodeResult, Scheduler, SimConfig, Simulator};
use decima_workload::{tpch_batch, tpch_stream_with_memory};

const NAMES: [&str; 8] = [
    "fifo",
    "sjf-cp",
    "fair",
    "naive-weighted-fair",
    "weighted-fair:-1",
    "tetris",
    "graphene",
    "random:3",
];

fn scheduler(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fifo" => Box::new(FifoScheduler),
        "sjf-cp" => Box::new(SjfCpScheduler),
        "fair" => Box::new(WeightedFairScheduler::fair()),
        "naive-weighted-fair" => Box::new(WeightedFairScheduler::naive()),
        "weighted-fair:-1" => Box::new(WeightedFairScheduler::new(-1.0)),
        "tetris" => Box::new(TetrisScheduler),
        "graphene" => Box::new(GrapheneScheduler::default()),
        "random:3" => Box::new(RandomScheduler::new(3)),
        other => panic!("not a factory heuristic: {other}"),
    }
}

fn shrink(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / 8).max(1);
            }
            j
        })
        .collect()
}

/// FNV-1a over every job's completion-time bits, in job-id order; a job
/// that never completed contributes `u64::MAX`.
fn jct_hash(r: &EpisodeResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for j in &r.jobs {
        let bits = j.jct().map_or(u64::MAX, f64::to_bits);
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(decisions, events, jct hash)` of one episode.
type Row = (usize, u64, u64);

fn rows(build: impl Fn() -> Simulator) -> Vec<Row> {
    NAMES
        .iter()
        .map(|name| {
            let r = build().run(scheduler(name));
            (r.actions.len(), r.num_events, jct_hash(&r))
        })
        .collect()
}

fn check(what: &str, got: &[Row], want: &[Row]) {
    // On a mismatch print the whole table as it would be written below.
    let table: String = NAMES
        .iter()
        .zip(got)
        .map(|(name, g)| format!("    ({}, {}, {:#018x}), // {name}\n", g.0, g.1, g.2))
        .collect();
    assert!(
        got == want,
        "{what}: (decisions, events, jct hash) moved — got\n{table}"
    );
}

#[test]
fn two_class_medium_dynamics_is_pinned() {
    // 14 memory-annotated jobs streaming onto 6 small + 6 large
    // executors, with churn, task failures and stragglers: stages the
    // small class cannot hold, offline executors and retried tasks all
    // pass through `schedulable`.
    let got = rows(|| {
        let cluster = ClusterSpec {
            classes: vec![
                ExecutorClass {
                    memory: 0.5,
                    count: 6,
                },
                ExecutorClass {
                    memory: 1.0,
                    count: 6,
                },
            ],
            move_delay: 1.0,
        };
        let cfg = SimConfig::default()
            .with_seed(11)
            .with_dynamics(DynamicsSpec::med());
        Simulator::new(cluster, shrink(tpch_stream_with_memory(14, 20.0, 5)), cfg)
    });
    check("two-class, medium dynamics", &got, &TWO_CLASS);
}

#[test]
fn single_class_batch_is_pinned() {
    let got = rows(|| {
        Simulator::new(
            ClusterSpec::homogeneous(10).with_move_delay(1.0),
            shrink(tpch_batch(12, 3)),
            SimConfig::default().with_seed(1),
        )
    });
    check("single-class tpch_batch", &got, &SINGLE_CLASS);
}

const TWO_CLASS: [Row; 8] = [
    (227, 1362, 0x1b4dcdec6e9ba0bf), // fifo
    (206, 1375, 0x2a9d9284fa542979), // sjf-cp
    (175, 1303, 0x0fdb2c3f713de8e1), // fair
    (156, 1222, 0xdc1dc4c10689cdd2), // naive-weighted-fair
    (177, 1304, 0xc269d1dd2a68b61b), // weighted-fair:-1
    (211, 1251, 0x7f7cd4479ef41e2d), // tetris
    (182, 1241, 0x369b34a694e9731d), // graphene
    (180, 1370, 0xa76419fb0b3def81), // random:3
];

const SINGLE_CLASS: [Row; 8] = [
    (250, 736, 0xfb56f361f953c20c), // fifo
    (227, 714, 0x78d536ee055c4994), // sjf-cp
    (164, 687, 0x2f8f794343526ad2), // fair
    (155, 697, 0x589889d2edf427c3), // naive-weighted-fair
    (165, 680, 0x56569525f0241230), // weighted-fair:-1
    (227, 754, 0x26c5608872c7733e), // tetris
    (190, 690, 0x62eace9a66d582cb), // graphene
    (157, 712, 0xba2ccfcc6c4555c6), // random:3
];
