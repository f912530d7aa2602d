//! Support for this crate's own unit and integration tests; not part of
//! the training API. Nothing outside tests evaluates a trainer this way:
//! production evaluation is `decima-bench`'s `runner::episodes` on the
//! f32 inference lane.

use crate::env::EnvFactory;
use crate::trainer::Trainer;
use decima_core::par::ordered_map;
use decima_policy::DecimaAgent;
use decima_sim::{EpisodeResult, Simulator};

/// Greedy episodes of the trainer's current policy on the f64 tape, one
/// per sequence seed (no horizon cap): the tests' probe of what a
/// trainer has learned or restored.
pub fn greedy_eval(
    trainer: &Trainer,
    env: &dyn EnvFactory,
    seq_seeds: &[u64],
) -> Vec<EpisodeResult> {
    ordered_map(seq_seeds.len(), seq_seeds.to_vec(), |seed| {
        let (cluster, jobs, sim_cfg) = env.build(seed);
        let mut agent = DecimaAgent::greedy(trainer.policy.clone(), trainer.store.clone());
        Simulator::new(cluster, jobs, sim_cfg).run(&mut agent)
    })
}
