//! Multi-resource scheduling (§7.3): jobs with per-stage memory demands
//! on a four-class cluster, comparing the packing heuristics.
//!
//! ```sh
//! cargo run --release --example multi_resource
//! ```

use decima::baselines::{GrapheneScheduler, TetrisScheduler, WeightedFairScheduler};
use decima::core::ClusterSpec;
use decima::sim::{SimConfig, Simulator};
use decima::workload::{renumber, tpch_batch, with_random_memory};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 12 TPC-H-like jobs with memory demands drawn from (0, 1].
    let mut rng = SmallRng::seed_from_u64(42);
    let jobs = renumber(
        tpch_batch(12, 9)
            .into_iter()
            .map(|mut j| {
                for s in &mut j.stages {
                    s.num_tasks = (s.num_tasks / 4).max(1); // laptop scale
                }
                with_random_memory(j, &mut rng)
            })
            .collect(),
    );

    // Four executor classes: memory 0.25 / 0.5 / 0.75 / 1.0, 4 slots each.
    let cluster = ClusterSpec::four_class(16);
    let cfg = SimConfig::default().with_seed(3);

    println!("12 jobs, 16 executors in 4 memory classes\n");
    for (name, jct) in [
        (
            "fair (memory-blind)",
            Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
                .run(WeightedFairScheduler::fair())
                .avg_jct()
                .unwrap(),
        ),
        (
            "tetris (packing)",
            Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
                .run(TetrisScheduler)
                .avg_jct()
                .unwrap(),
        ),
        (
            "graphene*",
            Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
                .run(GrapheneScheduler::default())
                .avg_jct()
                .unwrap(),
        ),
    ] {
        println!("  {name:<22} avg JCT {jct:.1}s");
    }
    println!("\nTrain Decima on this setting with `decima-exp --scenario fig11`.");
}
