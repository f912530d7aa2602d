//! Smoke test covering the `examples/quickstart.rs` happy path end to
//! end: build DAG jobs by hand, simulate them under two baseline
//! schedulers, and sanity-check the results — so `cargo test` fails fast
//! if the public construction → simulation → metrics path breaks.

use decima::baselines::{FifoScheduler, WeightedFairScheduler};
use decima::core::{ClusterSpec, JobBuilder, JobId, SimTime, StageSpec};
use decima::sim::{EpisodeResult, SimConfig, Simulator};

/// The two jobs from `examples/quickstart.rs`: a diamond-shaped DAG and
/// a small late-arriving job.
fn quickstart_jobs() -> Vec<decima::core::JobSpec> {
    let mut b = JobBuilder::new(JobId(0));
    let scan_a = b.stage(StageSpec::simple(8, 2.0));
    let scan_b = b.stage(StageSpec::simple(4, 3.0));
    let join = b.stage(StageSpec::simple(6, 1.5));
    let sink = b.stage(StageSpec::simple(1, 1.0));
    b.edge(scan_a, join);
    b.edge(scan_b, join);
    b.edge(join, sink);
    let diamond = b.build().expect("valid diamond job");

    let mut b = JobBuilder::new(JobId(1));
    b.stage(StageSpec::simple(3, 1.0));
    let small = b
        .arrival(SimTime::from_secs(5.0))
        .build()
        .expect("valid small job");

    vec![diamond, small]
}

fn run(sched: impl decima::sim::Scheduler) -> EpisodeResult {
    let cluster = ClusterSpec::homogeneous(4);
    let cfg = SimConfig::default().with_gantt();
    Simulator::new(cluster, quickstart_jobs(), cfg).run(sched)
}

#[test]
fn quickstart_happy_path() {
    for result in [run(FifoScheduler), run(WeightedFairScheduler::fair())] {
        // Both jobs finish with a finite, positive JCT.
        assert_eq!(result.jobs.len(), 2);
        for job in &result.jobs {
            let jct = job.jct().expect("job completed");
            assert!(jct.is_finite() && jct > 0.0, "bad JCT {jct}");
        }
        let avg = result.avg_jct().expect("avg over completed jobs");
        assert!(avg > 0.0 && avg < 100.0, "avg JCT {avg} out of range");

        // The recorded Gantt chart renders non-trivially.
        let ascii = result
            .gantt
            .as_ref()
            .expect("gantt requested via with_gantt")
            .render_ascii(60);
        assert!(ascii.lines().count() >= 4, "gantt too small:\n{ascii}");
    }
}

#[test]
fn quickstart_fair_sharing_helps_the_small_job() {
    let fifo = run(FifoScheduler);
    let fair = run(WeightedFairScheduler::fair());
    let small_jct = |r: &EpisodeResult| {
        r.jobs
            .iter()
            .find(|j| j.id == JobId(1))
            .and_then(|j| j.jct())
            .expect("small job completed")
    };
    // Under FIFO the small job waits behind the diamond; fair sharing
    // must strictly improve it (§2.3's motivating observation).
    assert!(
        small_jct(&fair) < small_jct(&fifo),
        "fair {:.2}s should beat fifo {:.2}s for the small job",
        small_jct(&fair),
        small_jct(&fifo)
    );
}

#[test]
fn quickstart_is_deterministic() {
    let a = run(FifoScheduler);
    let b = run(FifoScheduler);
    assert_eq!(a.avg_jct(), b.avg_jct());
    assert_eq!(a.end_time, b.end_time);
}
