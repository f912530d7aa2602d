//! A checkpoint is a file from outside the program: whatever is in it,
//! `Trainer::from_checkpoint` returns `Ok` or `Err` — it does not
//! panic, abort on an allocation, or hang.

use decima_gnn::GnnConfig;
use decima_nn::ParamStore;
use decima_policy::{DecimaPolicy, PolicyConfig};
use decima_rl::{Curriculum, SpecEnv, TrainConfig, Trainer, WorkloadEcho};
use decima_sim::DynamicsSpec;
use decima_workload::WorkloadSpec;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

/// Runs `f` on its own thread and fails the case if it has not
/// returned after ten seconds (a panic inside `f` fails it too).
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the case panicked or did not finish within 10 s")
}

/// A valid checkpoint with every optional line present (trained once).
fn valid_checkpoint() -> &'static str {
    static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DOC.get_or_init(train_a_checkpoint)
}

fn train_a_checkpoint() -> String {
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
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
    let mut t = Trainer::new(policy, store, cfg);
    let echo = WorkloadEcho::of(&WorkloadSpec::tpch_stream(3, 5, 20.0));
    t.workload_echo = Some(echo.with_dynamics(DynamicsSpec::med()));
    for _ in 0..2 {
        t.train_iteration(&SpecEnv::new(WorkloadSpec::tpch_stream(3, 5, 20.0)));
    }
    t.to_checkpoint()
}

/// Values on the edges of every kind a header line can have.
const HOSTILE: [&str; 16] = [
    "",
    "0",
    "-1",
    "1",
    "2",
    "0.5",
    "99999999999",
    "18446744073709551616",
    "1e309",
    "NaN",
    "inf",
    "none",
    "x",
    "1 1 1 1 1 1 1 1 1",
    "0 0 0",
    "64 64",
];

fn load_and_rewrite(text: String) {
    within_ten_seconds(move || {
        if let Ok(t) = Trainer::from_checkpoint(&text) {
            // What loads describes itself again, and holds nothing a
            // forward pass or an Adam step would turn into NaN.
            let again = t.to_checkpoint();
            assert!(Trainer::from_checkpoint(&again).is_ok());
            let (_, tensors) = again.split_once("\n[params]\n").unwrap();
            let non_finite = |tok: &str| matches!(tok, "NaN" | "inf" | "-inf");
            assert!(!tensors.split_whitespace().any(non_finite));
        }
    });
}

/// What a number in the `[params]` / `[adam]` sections can be damaged
/// into: not finite, or a dimension whose product overflows.
const HOSTILE_NUMBERS: [&str; 9] = [
    "nan",
    "NaN",
    "inf",
    "-inf",
    "1e999",
    "-1e999",
    "4294967296",
    "18446744073709551615",
    "-1",
];

/// `valid` with token `token` of line `line` of its tensor sections
/// (both counted modulo what there is) replaced by `with`.
fn with_tensor_token(valid: &str, line: usize, token: usize, with: &str) -> String {
    let (head, tensors) = valid.split_once("\n[params]\n").unwrap();
    let mut lines: Vec<String> = tensors.lines().map(str::to_string).collect();
    let at = line % lines.len();
    let mut tokens: Vec<&str> = lines[at].split(' ').collect();
    let token = token % tokens.len();
    tokens[token] = with;
    lines[at] = tokens.join(" ");
    format!("{head}\n[params]\n{}\n", lines.join("\n"))
}

#[test]
fn the_reproductions_of_the_issue_are_errors() {
    let valid = valid_checkpoint();
    let with = |line: &str, value: &str| {
        let old = valid.lines().find(|l| l.starts_with(line)).unwrap();
        valid.replacen(old, &format!("{line} {value}"), 1)
    };
    // The first history line, numbered for the second iteration.
    let first = valid.lines().find(|l| l.starts_with("history ")).unwrap();
    let renumbered = first.replacen("history 0 ", "1 ", 1);
    let cases = [
        (
            "policy.hidden",
            "99999999999",
            "'policy.hidden' must be in [1, 1024], got 99999999999",
        ),
        (
            "policy.hidden",
            "1 1 1 1 1 1 1 1 1",
            "'policy.hidden' lists more than 8 layers",
        ),
        (
            "policy.gnn.embed_dim",
            "0",
            "'policy.gnn.embed_dim' must be in [1, 1024], got 0",
        ),
        (
            "policy.gnn.feat_dim",
            "5",
            "'policy.gnn.feat_dim' must be 7, got 5",
        ),
        (
            "policy.limit_stride",
            "0",
            "'policy.limit_stride' must be 1, got 0",
        ),
        (
            "policy.limit_stride",
            "2",
            "'policy.limit_stride' must be 1, got 2",
        ),
        (
            "policy.feat.task_scale",
            "50",
            "'policy.feat.task_scale' must be 100, got 50",
        ),
        (
            "policy.total_executors",
            "9999999",
            "'policy.total_executors' must be in [1, 1000000]",
        ),
        (
            "cfg.num_rollouts",
            "0",
            "'cfg.num_rollouts' must be in [1, 1024], got 0",
        ),
        ("cfg.lr", "inf", "'cfg.lr' must be finite, got inf"),
        (
            "cfg.curriculum",
            "0 25 200",
            "'cfg.curriculum' is malformed ('0 25 200')",
        ),
        (
            "echo.dynamics",
            "240 60 2 20 0.05 3",
            "dynamics 'fail' must be in [0, 1], got 2",
        ),
        (
            "state.rate_avg",
            "64 64",
            "'state.rate_avg' must be in [0, 63], got 64",
        ),
        (
            "state.rate_avg",
            "1 0 0.5 0.5",
            "'state.rate_avg' holds more samples than its window",
        ),
        ("state.tau_mean", "0", "'state.tau_mean' must be positive"),
        (
            "state.iter",
            "3",
            "'state.iter' is 3 but the history holds 2 iterations",
        ),
        ("history", &renumbered, "history line 0 is for iteration 1"),
    ];
    for (line, value, want) in cases {
        let err = Trainer::from_checkpoint(&with(line, value))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains(want), "{line} {value}: {err}");
    }
    // A one-hot limit head is a layer as wide as the cluster.
    let one_hot = with("policy.parallelism", "one-hot");
    let one_hot = one_hot.replacen("policy.total_executors 5", "policy.total_executors 5000", 1);
    let err = Trainer::from_checkpoint(&one_hot).map(|_| ()).unwrap_err();
    assert!(err.contains("one-hot limit head wider than 1024"), "{err}");
}

/// The features are always `FEAT_DIM` wide: a policy built with another
/// width used to save, load `Ok` and panic at its first decision on
/// either lane.
#[test]
fn a_policy_of_another_feature_width_does_not_load() {
    let mut cfg = PolicyConfig::small(5);
    cfg.gnn = Some(GnnConfig::small(5));
    let mut store = ParamStore::new();
    let policy = DecimaPolicy::new(cfg, &mut store, &mut SmallRng::seed_from_u64(0));
    let text = Trainer::new(policy, store, TrainConfig::default()).to_checkpoint();
    assert!(Trainer::from_checkpoint(&text).is_err());
}

/// The two reproductions of the tape issue: a NaN parameter used to
/// load `Ok` and train every parameter to NaN (a debug build panicked
/// in a rollout worker instead), and 2³² × 2³² "values" overflowed the
/// size check in a debug build.
#[test]
fn damaged_tensor_sections_are_errors_naming_the_tensor() {
    let valid = valid_checkpoint();
    let first = valid
        .lines()
        .find(|l| l.starts_with("gnn.prep.w0 "))
        .unwrap();
    let replaced = |from: usize, with: &str| {
        let mut tokens: Vec<&str> = first.split(' ').collect();
        tokens.splice(from.., with.split(' '));
        valid.replacen(first, &tokens.join(" "), 1)
    };
    let nan_value = {
        let mut tokens: Vec<&str> = first.split(' ').collect();
        tokens[3] = "nan";
        valid.replacen(first, &tokens.join(" "), 1)
    };
    let moment = valid.lines().find(|l| l.starts_with("v 1 ")).unwrap();
    let hyper = valid.lines().find(|l| l.starts_with("hyper ")).unwrap();
    let cases = [
        (
            nan_value,
            "[params]: gnn.prep.w0: value 'nan' is not finite",
        ),
        (
            replaced(1, "4294967296 4294967296"),
            "[params]: gnn.prep.w0: shape mismatch: the file says 4294967296x4294967296, \
             the model has 7x16",
        ),
        (
            replaced(3, "1e999"),
            "[params]: gnn.prep.w0: value '1e999' is not finite",
        ),
        (
            valid.replacen(moment, "v 1 1 16 inf", 1),
            "[adam]: v 1: value 'inf' is not finite",
        ),
        (
            valid.replacen(moment, "v 1 18446744073709551615 16 0", 1),
            "[adam]: v 1: shape mismatch",
        ),
        (
            valid.replacen(hyper, "hyper NaN 0.9 0.999 1e-8 10 2", 1),
            "[adam]: hyper lr: value 'NaN' is not finite",
        ),
        (
            valid.replacen(hyper, "hyper 0.001 0.9 0.999 1e-8 inf 2", 1),
            "[adam]: hyper clip: value 'inf' is not finite",
        ),
    ];
    for (text, want) in cases {
        let err = Trainer::from_checkpoint(&text).map(|_| ()).unwrap_err();
        assert!(err.contains(want), "wanted '{want}', got '{err}'");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// One number of a parameter, moment or `hyper` line — a dimension,
    /// an index or a value — becomes a hostile one.
    #[test]
    fn damaged_tensor_numbers_never_panic_or_load(
        line in 0usize..10_000,
        token in 0usize..100_000,
        hostile in 0usize..HOSTILE_NUMBERS.len(),
    ) {
        let damaged = with_tensor_token(valid_checkpoint(), line, token, HOSTILE_NUMBERS[hostile]);
        load_and_rewrite(damaged);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..300)) {
        load_and_rewrite(String::from_utf8_lossy(&bytes).into_owned());
    }

    /// One header line gets a hostile value, goes missing, or appears
    /// twice; the sections after the header stay as written.
    #[test]
    fn damaged_header_lines_never_panic(
        line in 0usize..1000,
        hostile in 0usize..HOSTILE.len(),
        how in 0u32..4,
    ) {
        let valid = valid_checkpoint();
        let (head, rest) = valid.split_once("\n[params]\n").unwrap();
        let mut lines: Vec<String> = head.lines().map(str::to_string).collect();
        let at = line % lines.len();
        let key = lines[at].split(' ').next().unwrap().to_string();
        match how {
            0 => { lines.remove(at); }
            1 => lines.push(format!("{key} {}", HOSTILE[hostile])),
            _ => lines[at] = format!("{key} {}", HOSTILE[hostile]),
        }
        load_and_rewrite(format!("{}\n[params]\n{rest}", lines.join("\n")));
    }

    /// The whole document truncated, or with a run of bytes replaced.
    #[test]
    fn truncated_and_spliced_documents_never_panic(
        cut in 0usize..100_000,
        len in 0usize..30,
        splice in vec(0u8..=255, 0..10),
        truncate in 0u32..2,
    ) {
        let doc = valid_checkpoint().as_bytes();
        let at = cut % doc.len();
        let mut damaged = doc[..at].to_vec();
        if truncate == 0 {
            damaged.extend_from_slice(&splice);
            damaged.extend_from_slice(&doc[(at + len).min(doc.len())..]);
        }
        load_and_rewrite(String::from_utf8_lossy(&damaged).into_owned());
    }
}
