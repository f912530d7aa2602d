//! Quickstart: build a DAG job, run it through the simulator under two
//! schedulers, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use decima::baselines::{FifoScheduler, WeightedFairScheduler};
use decima::core::{ClusterSpec, JobBuilder, JobId, SimTime, StageSpec};
use decima::sim::{SimConfig, Simulator};

fn main() {
    // A two-branch job: two scan stages feeding a join, then an output
    // stage — the classic data-parallel diamond.
    let mut b = JobBuilder::new(JobId(0));
    let scan_a = b.stage(StageSpec::simple(8, 2.0)); // 8 tasks × 2 s
    let scan_b = b.stage(StageSpec::simple(4, 3.0));
    let join = b.stage(StageSpec::simple(6, 1.5));
    let sink = b.stage(StageSpec::simple(1, 1.0));
    b.edge(scan_a, join);
    b.edge(scan_b, join);
    b.edge(join, sink);
    let diamond = b.build().expect("valid job");

    // A second, smaller job arriving 5 seconds later.
    let mut b = JobBuilder::new(JobId(1));
    b.stage(StageSpec::simple(3, 1.0));
    let small = b
        .arrival(SimTime::from_secs(5.0))
        .build()
        .expect("valid job");

    let cluster = ClusterSpec::homogeneous(4); // 4 executors, 2.5 s move delay
    let cfg = SimConfig::default().with_gantt();
    // Specs and outcomes carry job ids; the names are the example's own.
    let job_names = ["diamond", "small"];

    for (name, result) in [
        (
            "FIFO",
            Simulator::new(
                cluster.clone(),
                vec![diamond.clone(), small.clone()],
                cfg.clone(),
            )
            .run(FifoScheduler),
        ),
        (
            "Fair",
            Simulator::new(cluster.clone(), vec![diamond, small], cfg)
                .run(WeightedFairScheduler::fair()),
        ),
    ] {
        println!("== {name} ==");
        for job in &result.jobs {
            println!(
                "  {}: arrived {:.1}s, JCT {:.1}s",
                job_names[job.id.index()],
                job.arrival.as_secs(),
                job.jct().unwrap_or(f64::NAN)
            );
        }
        println!("  avg JCT {:.2}s", result.avg_jct().unwrap());
        if let Some(g) = &result.gantt {
            print!("{}", g.render_ascii(60));
        }
        println!();
    }
}
