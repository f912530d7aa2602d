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
//!
//! Four of those lines (`policy.feat.{task,dur,work}_scale`,
//! `policy.limit_stride`) no longer set anything: the writer emits the
//! build's constants and the reader refuses any other value. The whole
//! documents these trainers wrote while the lines were still settable
//! are pinned by hash, and must load and write back byte for byte.

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

/// FNV-1a over a document's bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The golden header with this trainer's tensor sections is the whole
/// document the trainer wrote while the scales and the limit stride
/// were settable fields — same length and hash as recorded then — and
/// it loads and writes back to the same bytes.
fn old_document_round_trips(file: &str, t: &Trainer, len: usize, hash: u64) {
    let text = t.to_checkpoint();
    let (_, tail) = text
        .split_once("[params]\n")
        .expect("has a [params] section");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let golden = std::fs::read_to_string(&path).expect("golden file is readable");
    let old = format!("{golden}[params]\n{tail}");
    assert_eq!(
        (old.len(), fnv(&old)),
        (len, hash),
        "{file}: not the old document"
    );
    let back = Trainer::from_checkpoint(&old).expect("the old document loads");
    assert_eq!(back.to_checkpoint(), old, "{file}: re-serialised");
}

#[test]
fn documents_written_with_settable_scales_and_stride_load_and_write_back() {
    old_document_round_trips(
        "checkpoint_head.txt",
        &full(),
        306_492,
        0x64d5_ea2b_f5f7_f7b9,
    );
    old_document_round_trips(
        "checkpoint_head_minimal.txt",
        &minimal(),
        66_338,
        0xba3f_3f44_0456_4394,
    );
}
