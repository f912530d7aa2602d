//! What one job's static input costs on the heap. A `JobSpec` is two
//! blocks — its DAG's one flat buffer, shared by every clone, and its
//! fitted stage vector — so cloning one, as the fleet front-end's
//! `route_jobs` does once for every job of the arrival stream, is one
//! allocation of exactly the stage bytes: no name, no per-stage
//! adjacency block, no DAG copy and no spare capacity. A generated
//! TPC-H stream builds each query's DAG once and gives every job of
//! the query a share of it, so building the stream is one allocation
//! per job plus a constant. Counted by the workspace's counting
//! `#[global_allocator]` (`tests/support/counting_alloc.rs`), on the
//! test's own thread only.

use decima_core::{JobBuilder, JobId, JobSpec, StageSpec};
use decima_workload::tpch_stream;
use std::collections::BTreeSet;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, bytes};

/// A diamond `0 -> {1, 2} -> 3` whose sink heads the chain `3 -> … -> 9`.
const EDGES: [(u32, u32); 10] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 8),
    (8, 9),
];

/// Jobs in the stream the two stream pins build: the length of the
/// repo benchmark's `sim_stream_long`.
const STREAM: usize = 10_000;

/// Allocations building a TPC-H stream makes besides its jobs' stage
/// vectors: the arrival times, the job list, and each of the 22 query
/// plans (its stage and edge lists as they grow, the join frontier, the
/// DAG buffer and Kahn's stack). Measured: 226 for
/// `tpch_stream(10_000, 12.0, 7)`, whose list draws all 22 queries.
const STREAM_OVERHEAD: u64 = 226;

#[test]
fn a_job_spec_clone_is_one_fitted_allocation() {
    let mut b = JobBuilder::new(JobId(0));
    for i in 0..10 {
        b.stage(StageSpec::simple(i + 1, 1.0));
    }
    for (p, c) in EDGES {
        b.edge(p, c);
    }
    let job = b.build().unwrap();
    assert_eq!(job.stages.capacity(), job.stages.len());

    let (n, e) = (job.dag.len(), job.dag.num_edges());
    let (allocs, asked) = (allocations(), bytes());
    let copy = job.clone();
    let (allocs, asked) = (allocations() - allocs, bytes() - asked);
    assert_eq!(copy, job);
    assert_eq!(
        copy.dag.topo_order().as_ptr(),
        job.dag.topo_order().as_ptr()
    );

    println!("a {n}-stage, {e}-edge JobSpec clone: {allocs} allocations, {asked} bytes");
    assert_eq!(
        allocs, 1,
        "a JobSpec clone is its stages; the DAG is shared"
    );
    assert_eq!(asked as usize, n * size_of::<StageSpec>());
}

/// The DAG buffers `jobs` hold, told apart by where their words live.
fn distinct_dags(jobs: &[JobSpec]) -> BTreeSet<*const u32> {
    jobs.iter().map(|j| j.dag.topo_order().as_ptr()).collect()
}

#[test]
fn a_tpch_stream_holds_one_dag_per_query() {
    let jobs = tpch_stream(STREAM, 12.0, 7);
    let dags = distinct_dags(&jobs);
    println!("tpch_stream({STREAM}, 12.0, 7): {} DAG buffers", dags.len());
    assert!(
        dags.len() <= 22,
        "{} DAG buffers for 22 queries",
        dags.len()
    );
}

#[test]
fn building_a_tpch_stream_is_one_allocation_per_job() {
    let (allocs, asked) = (allocations(), bytes());
    let jobs = tpch_stream(STREAM, 12.0, 7);
    let (allocs, asked) = (allocations() - allocs, bytes() - asked);
    assert_eq!(jobs.len(), STREAM);
    println!("tpch_stream({STREAM}, 12.0, 7): {allocs} allocations, {asked} bytes");
    assert!(
        allocs <= STREAM as u64 + STREAM_OVERHEAD,
        "{allocs} allocations for {STREAM} jobs"
    );
}
