//! What one job's static input costs on the heap. A `JobSpec` is three
//! blocks — its name, its DAG's one flat buffer and its fitted stage
//! vector — so cloning one, as the fleet front-end does per shard for
//! every job of the arrival stream, is three allocations of exactly the
//! bytes the job holds: no per-stage adjacency block and no spare
//! capacity. Counted by the workspace's counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`), on the test's own thread
//! only.

use decima_core::{JobBuilder, JobId, StageSpec};

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

#[test]
fn a_job_spec_clone_is_three_fitted_allocations() {
    let mut b = JobBuilder::new(JobId(0));
    for i in 0..10 {
        b.stage(StageSpec::simple(i + 1, 1.0));
    }
    for (p, c) in EDGES {
        b.edge(p, c);
    }
    let job = b.name("diamond-and-chain").build().unwrap();
    assert_eq!(job.stages.capacity(), job.stages.len());

    let (n, e) = (job.dag.len(), job.dag.num_edges());
    let (allocs, asked) = (allocations(), bytes());
    let copy = job.clone();
    let (allocs, asked) = (allocations() - allocs, bytes() - asked);
    assert_eq!(copy, job);

    println!("a {n}-stage, {e}-edge JobSpec clone: {allocs} allocations, {asked} bytes");
    assert_eq!(
        allocs, 3,
        "a JobSpec clone is its name, its DAG buffer and its stages"
    );
    let dag = (4 * n + 2 + 2 * e) * size_of::<u32>();
    let stages = n * size_of::<StageSpec>();
    assert_eq!(asked as usize, job.name.len() + dag + stages);
}
