//! Train a small Decima policy with REINFORCE, checkpoint it, reload the
//! checkpoint, and watch the restored policy match the trained one on a
//! batched TPC-H-like workload.
//!
//! ```sh
//! cargo run --release --example train_decima -- [iterations]
//! ```

use decima::baselines::{FifoScheduler, WeightedFairScheduler};
use decima::nn::ParamStore;
use decima::policy::{DecimaAgent, DecimaPolicy, PolicyConfig};
use decima::rl::{EnvFactory, SpecEnv, TrainConfig, Trainer};
use decima::sim::Simulator;
use decima::workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let executors = 8;
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(8, executors));

    // Heuristic references on a fixed evaluation sequence.
    let eval_seed = 1234;
    let (cluster, jobs, cfg) = env.build(eval_seed);
    let fifo = Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
        .run(FifoScheduler)
        .avg_jct()
        .unwrap();
    let fair = Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
        .run(WeightedFairScheduler::fair())
        .avg_jct()
        .unwrap();
    println!("heuristics on the eval sequence: FIFO {fifo:.1}s, fair {fair:.1}s");

    // Build and train the agent.
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let policy = DecimaPolicy::new(PolicyConfig::small(executors), &mut store, &mut rng);
    println!(
        "policy has {} parameters (paper's full model: 12,736)",
        store.num_scalars()
    );
    let mut trainer = Trainer::new(
        policy,
        store,
        TrainConfig {
            num_rollouts: 8,
            lr: 2e-3,
            entropy_start: 0.08,
            entropy_end: 1e-3,
            entropy_decay_iters: iters / 2,
            seed: 7,
            ..TrainConfig::default()
        },
    );
    trainer.train(&env, iters, |s| {
        if (s.iter + 1) % 10 == 0 {
            println!(
                "iter {:>4}: mean sampled JCT {:>7.1}s, entropy {:.2}",
                s.iter + 1,
                s.mean_avg_jct,
                s.mean_entropy
            );
        }
    });

    // The trained policy is a persistent artifact: save a checkpoint,
    // reload it cold, and schedule with the restored model.
    let ckpt = std::env::temp_dir().join("train_decima_example.ckpt");
    trainer
        .save_checkpoint(&ckpt)
        .expect("checkpoint should save");
    println!("\ncheckpoint saved to {}", ckpt.display());
    let restored = Trainer::load_checkpoint(&ckpt).expect("checkpoint should load");
    let _ = std::fs::remove_file(&ckpt);

    let mut agent = DecimaAgent::greedy(trainer.policy.clone(), trainer.store.clone());
    let learned = Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
        .run(&mut agent)
        .avg_jct()
        .unwrap();
    let mut restored_agent = DecimaAgent::greedy(restored.policy.clone(), restored.store.clone());
    let reloaded = Simulator::new(cluster, jobs, cfg)
        .run(&mut restored_agent)
        .avg_jct()
        .unwrap();
    assert_eq!(
        learned.to_bits(),
        reloaded.to_bits(),
        "the reloaded policy must schedule identically"
    );
    println!(
        "Decima after {iters} iterations: {learned:.1}s, reloaded from checkpoint: {reloaded:.1}s \
         (FIFO {fifo:.1}s, fair {fair:.1}s)"
    );
}
