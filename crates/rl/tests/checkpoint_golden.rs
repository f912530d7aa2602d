//! The `decima-checkpoint v1` header, pinned as bytes.
//!
//! `tests/golden/checkpoint_head*.txt` hold everything before
//! `[params]` of two tiny deterministic trainers, written by the commit
//! before the header writer and reader were folded onto one field list
//! each: the first has every optional line (GNN, IAT hint, curriculum,
//! differential reward, a perturbed workload echo), the second none of
//! them. A header that differs from these is a format change and needs a
//! version bump, not a refresh (`GOLDEN_UPDATE=1 cargo test -p decima-rl
//! --test checkpoint_golden` rewrites the files).

use decima_nn::ParamStore;
use decima_policy::{DecimaPolicy, PolicyConfig};
use decima_rl::{Curriculum, SpecEnv, TrainConfig, Trainer, WorkloadEcho};
use decima_sim::DynamicsSpec;
use decima_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trained(policy: PolicyConfig, cfg: TrainConfig, env: &SpecEnv, iters: usize) -> Trainer {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let policy = DecimaPolicy::new(policy, &mut store, &mut rng);
    let mut t = Trainer::new(policy, store, cfg);
    for _ in 0..iters {
        t.train_iteration(env);
    }
    t
}

/// GNN, IAT hint, curriculum, differential reward and a perturbed echo:
/// every optional header line is present.
fn full() -> Trainer {
    let mut policy = PolicyConfig::small(5);
    policy.feat.iat_hint = Some(20.0);
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 3,
        differential_reward: true,
        curriculum: Some(Curriculum {
            tau_init: 50.0,
            tau_step: 25.0,
            tau_max: 200.0,
        }),
        ..TrainConfig::default()
    };
    let mut t = trained(
        policy,
        cfg,
        &SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0)),
        2,
    );
    t.workload_echo = Some(
        WorkloadEcho::of(&WorkloadSpec::tpch_stream(3, 5, 20.0)).with_dynamics(DynamicsSpec {
            churn_iat: 90.5,
            max_retries: 7,
            ..DynamicsSpec::med()
        }),
    );
    t
}

/// `policy.gnn 0`, no curriculum, no echo.
fn minimal() -> Trainer {
    let mut policy = PolicyConfig::small(5);
    policy.gnn = None;
    let cfg = TrainConfig {
        num_rollouts: 2,
        seed: 4,
        ..TrainConfig::default()
    };
    trained(
        policy,
        cfg,
        &SpecEnv::new(WorkloadSpec::tpch_batch(2, 5)),
        1,
    )
}

fn check(file: &str, t: &Trainer) {
    let text = t.to_checkpoint();
    let (head, tail) = text
        .split_once("[params]\n")
        .expect("has a [params] section");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::write(&path, head).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file is readable");
    assert_eq!(head, golden, "{file}: header bytes changed");
    // The reader takes the golden header (with this trainer's
    // parameters) back to the same bytes.
    let with_params = format!("{golden}[params]\n{tail}");
    let back = Trainer::from_checkpoint(&with_params).expect("golden header loads");
    assert_eq!(back.to_checkpoint(), with_params, "{file}: re-serialised");
}

#[test]
fn full_header_matches_the_golden_written_before_the_field_lists() {
    check("checkpoint_head.txt", &full());
}

#[test]
fn minimal_header_matches_the_golden_written_before_the_field_lists() {
    check("checkpoint_head_minimal.txt", &minimal());
}
