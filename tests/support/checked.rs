//! An episode driven decision by decision through `Simulator::step`, with
//! every decision's observation held to the rebuild-from-scratch
//! reference by `Pending::check`. The differential suites
//! (`crates/sim/tests/proptests.rs`, `crates/bench/tests/differential.rs`,
//! `crates/bench/tests/robustness.rs`) include this one file by `#[path]`.

use decima_sim::{EpisodeResult, Scheduler, Simulator};

/// `Simulator::run` with `Pending::check` at every decision: panics
/// naming the first field where the incremental observation and the
/// rebuilt one differ.
pub fn run_checked(mut sim: Simulator, mut sched: impl Scheduler) -> EpisodeResult {
    sched.on_episode_start();
    while let Some(p) = sim.step() {
        if let Err(e) = p.check() {
            panic!("incremental observation diverged from the rebuilt reference: {e}");
        }
        let action = sched.decide(p.observation());
        p.resume(action);
    }
    sim.finish()
}
