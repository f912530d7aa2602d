//! Continuous job arrivals at increasing load: watch the heuristics
//! saturate (§7.2's "heuristics cannot keep up" regime).
//!
//! ```sh
//! cargo run --release --example streaming_load
//! ```

use decima::baselines::{FifoScheduler, SjfCpScheduler, WeightedFairScheduler};
use decima::rl::{EnvFactory, SpecEnv};
use decima::sim::Simulator;
use decima::workload::WorkloadSpec;

fn main() {
    println!(
        "{:>8} {:>14} {:>14} {:>14}  (avg JCT s / unfinished of 80 jobs)",
        "IAT", "fifo", "sjf-cp", "opt-wf"
    );
    for iat in [60.0, 40.0, 28.0, 22.0] {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(80, 10, iat));
        let mut cells = Vec::new();
        for sched in ["fifo", "sjf", "wf"] {
            let (cluster, jobs, cfg) = env.build(5);
            let r = match sched {
                "fifo" => Simulator::new(cluster, jobs, cfg).run(FifoScheduler),
                "sjf" => Simulator::new(cluster, jobs, cfg).run(SjfCpScheduler),
                _ => Simulator::new(cluster, jobs, cfg).run(WeightedFairScheduler::new(-1.0)),
            };
            cells.push(format!(
                "{:>8.0}/{:<3}",
                r.avg_jct().unwrap_or(f64::NAN),
                r.unfinished()
            ));
        }
        println!(
            "{:>8.0} {:>14} {:>14} {:>14}",
            iat, cells[0], cells[1], cells[2]
        );
    }
    println!("\nLower IAT = higher load. FIFO's backlog explodes first; the tuned");
    println!("weighted-fair heuristic keeps up the longest — exactly the regime");
    println!("where the paper shows Decima's largest wins (Figure 10).");
}
