//! Episode-corpus differential harness for the f32 inference fast path.
//!
//! A deterministically warmed-up *trained* policy drives a corpus of
//! evaluation episodes on the exact f64 tape path while, at every
//! decision, the f32 [`InferSession`] scores the same observation.
//! The harness then asserts the fast path's contract on realistic
//! trained-policy inputs (not just random weights):
//!
//! * node log-probabilities within 1e-4 relative error of the tape,
//! * greedy action agreement ≥ 99.9% over the corpus, and
//! * the session's per-job encoder memos change nothing: a **cold**
//!   session packed for that one observation returns bit-identical
//!   node scores and the same decision as the warm one that has seen
//!   the whole corpus so far (it is never reset, episode starts
//!   included).
//!
//! The observed worst case is logged and snapshotted to
//! `tests/golden/infer_differential.json`; refresh the snapshot with
//! `GOLDEN_UPDATE=1 cargo test -p decima-bench --test infer_differential`.

use decima_bench::json::Json;
use decima_bench::scenario::TrainSpec;
use decima_bench::{build_trainer, TrainedPolicy};
use decima_core::StageId;
use decima_gnn::GraphCache;
use decima_nn::{ParamStore, Tape};
use decima_policy::{DecimaAgent, DecimaPolicy, InferSession};
use decima_rl::{EnvFactory, SpecEnv};
use decima_sim::{Action, Observation, Scheduler, Simulator};
use decima_workload::WorkloadSpec;
use std::path::PathBuf;

/// Log-softmax of raw f32 scores, computed in f64 (mirrors what the
/// tape's `log_softmax_col` produces from the same column of scores).
fn log_softmax(scores: &[f32]) -> Vec<f64> {
    let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse = scores
        .iter()
        .map(|&s| (s as f64 - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    scores.iter().map(|&s| s as f64 - lse).collect()
}

/// The worst logit divergence seen over the corpus, with enough context
/// to reproduce it.
#[derive(Clone, Default)]
struct WorstCase {
    rel_err: f64,
    seed: u64,
    decision: usize,
    candidates: usize,
}

/// Tallies accumulated across every decision of the corpus.
#[derive(Default)]
struct DiffStats {
    decisions: usize,
    agreements: usize,
    worst: WorstCase,
}

/// Drives episodes with the exact tape-path agent while differentially
/// scoring every observation through the f32 fast path.
struct DiffScheduler {
    tape: DecimaAgent,
    policy: DecimaPolicy,
    store: ParamStore,
    session: InferSession,
    fast_cache: GraphCache,
    logit_cache: GraphCache,
    seed: u64,
    decision: usize,
    stats: DiffStats,
}

impl DiffScheduler {
    fn new(snapshot: &TrainedPolicy) -> Self {
        let session = InferSession::try_new(&snapshot.policy, &snapshot.store)
            .expect("trained policy supports the fast path");
        DiffScheduler {
            tape: snapshot.greedy_agent_tape(),
            policy: snapshot.policy.clone(),
            store: snapshot.store.clone(),
            session,
            fast_cache: GraphCache::default(),
            logit_cache: GraphCache::default(),
            seed: 0,
            decision: 0,
            stats: DiffStats::default(),
        }
    }
}

impl Scheduler for DiffScheduler {
    fn on_episode_start(&mut self) {
        self.tape.on_episode_start();
        self.fast_cache = GraphCache::default();
        self.logit_cache = GraphCache::default();
        self.decision = 0;
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        // Fast path: one batched f32 sweep.
        let fd = self
            .session
            .decide_greedy(&self.policy, obs, &mut self.fast_cache);
        let fast_logp = log_softmax(self.session.node_scores());

        // The same observation through a session with no memos.
        let mut cold = InferSession::try_new(&self.policy, &self.store)
            .expect("trained policy supports the fast path");
        let cold_fd = cold.decide_greedy(&self.policy, obs, &mut GraphCache::default());
        let bits = |scores: &[f32]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(self.session.node_scores()),
            bits(cold.node_scores()),
            "seed {} decision {}: memoised scores differ from a cold session's",
            self.seed,
            self.decision
        );
        assert_eq!(
            (
                fd.cand.job_idx,
                fd.cand.stage,
                fd.limit,
                self.session.node_entropy().to_bits()
            ),
            (
                cold_fd.cand.job_idx,
                cold_fd.cand.stage,
                cold_fd.limit,
                cold.node_entropy().to_bits()
            ),
            "seed {} decision {}: memoised decision differs from a cold session's",
            self.seed,
            self.decision
        );

        // Reference logits: an independent tape forward over the same
        // observation (the driving agent does its own internally but
        // does not expose the tensor).
        let mut tape = Tape::new();
        let fwd =
            self.policy
                .forward_nodes_cached(&mut tape, &self.store, obs, &mut self.logit_cache);
        let tape_logp = tape.value(fwd.node_logp).data();

        assert_eq!(fast_logp.len(), tape_logp.len());
        for (a, b) in fast_logp.iter().zip(tape_logp) {
            let err = (a - b).abs() / b.abs().max(1.0);
            if err > self.stats.worst.rel_err {
                self.stats.worst = WorstCase {
                    rel_err: err,
                    seed: self.seed,
                    decision: self.decision,
                    candidates: fast_logp.len(),
                };
            }
        }

        // The authoritative action comes from the tape agent, so the
        // episode stream is identical to a plain tape-lane run
        // regardless of any disagreement.
        let action = self.tape.decide(obs);
        if let Some(a) = &action {
            let fast_job = obs.jobs[fd.cand.job_idx].id;
            self.stats.decisions += 1;
            if a.job == fast_job && a.stage == StageId(fd.cand.stage) && a.limit == fd.limit {
                self.stats.agreements += 1;
            }
        }
        self.decision += 1;
        action
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("infer_differential.json")
}

fn to_json(stats: &DiffStats, episodes: usize, agreement: f64) -> Json {
    Json::obj([
        ("episodes", Json::Num(episodes as f64)),
        ("decisions", Json::Num(stats.decisions as f64)),
        ("agreements", Json::Num(stats.agreements as f64)),
        ("agreement_rate", Json::Num(agreement)),
        (
            "worst",
            Json::obj([
                ("rel_err", Json::str(format!("{:.3e}", stats.worst.rel_err))),
                ("seed", Json::Num(stats.worst.seed as f64)),
                ("decision", Json::Num(stats.worst.decision as f64)),
                ("candidates", Json::Num(stats.worst.candidates as f64)),
            ]),
        ),
    ])
}

/// Compares (or refreshes, under `GOLDEN_UPDATE=1`) the snapshot. Counts
/// must match exactly; the worst-case error magnitude is compared with a
/// 1% relative tolerance to be robust to fp-contraction differences
/// across compiler versions.
fn check_snapshot(stats: &DiffStats, episodes: usize, agreement: f64) {
    let path = golden_path();
    let doc = to_json(stats, episodes, agreement);
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc.render() + "\n").unwrap();
        eprintln!("snapshot refreshed: {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); generate it with GOLDEN_UPDATE=1 \
             cargo test -p decima-bench --test infer_differential",
            path.display()
        )
    });
    let want = Json::parse(&text).expect("snapshot parses");
    for key in ["episodes", "decisions", "agreements"] {
        let w = want.get(key).and_then(Json::as_f64).expect(key);
        let g = doc.get(key).and_then(Json::as_f64).unwrap();
        assert_eq!(w, g, "snapshot field '{key}' drifted (run GOLDEN_UPDATE=1)");
    }
    let w_worst = want.get("worst").expect("'worst' key");
    for key in ["seed", "decision", "candidates"] {
        let w = w_worst.get(key).and_then(Json::as_f64).expect(key);
        let g = doc
            .get("worst")
            .unwrap()
            .get(key)
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(w, g, "worst-case '{key}' drifted (run GOLDEN_UPDATE=1)");
    }
    let w_err: f64 = match w_worst.get("rel_err") {
        Some(Json::Str(s)) => s.parse().expect("worst.rel_err parses"),
        other => panic!("worst.rel_err must be a string, got {other:?}"),
    };
    assert!(
        (w_err - stats.worst.rel_err).abs() <= 0.01 * w_err.abs().max(1e-12),
        "worst-case divergence moved: snapshot {w_err:.3e}, observed {:.3e}",
        stats.worst.rel_err
    );
}

/// Deterministic 2-iteration warm-up: enough training to leave the
/// uniform-initialization regime (where greedy ties are meaningless)
/// while staying fast in debug mode.
fn warmed_snapshot() -> TrainedPolicy {
    let mut trainer = build_trainer(&TrainSpec::standard(2, 11), 10);
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 10));
    for _ in 0..2 {
        trainer.train_iteration(&env);
    }
    TrainedPolicy::of(&trainer)
}

#[test]
fn trained_policy_fast_path_agrees_over_episode_corpus() {
    let snapshot = warmed_snapshot();
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 10));
    let mut sched = DiffScheduler::new(&snapshot);

    let seeds: Vec<u64> = (100..106).collect();
    for &seed in &seeds {
        sched.seed = seed;
        let (cluster, jobs, cfg) = env.build(seed);
        let r = Simulator::new(cluster, jobs, cfg).run(&mut sched);
        assert!(r.completed() > 0, "episode {seed} must finish jobs");
    }

    let stats = &sched.stats;
    assert!(
        stats.decisions > 200,
        "corpus too small: {}",
        stats.decisions
    );
    let agreement = stats.agreements as f64 / stats.decisions as f64;
    eprintln!(
        "corpus: {} episodes, {} decisions, agreement {:.4}%, worst logit \
         rel err {:.3e} (seed {}, decision {}, {} candidates)",
        seeds.len(),
        stats.decisions,
        agreement * 100.0,
        stats.worst.rel_err,
        stats.worst.seed,
        stats.worst.decision,
        stats.worst.candidates,
    );

    assert!(
        stats.worst.rel_err <= 1e-4,
        "worst logit divergence {:.3e} exceeds the 1e-4 contract",
        stats.worst.rel_err
    );
    assert!(
        agreement >= 0.999,
        "greedy action agreement {:.4}% below 99.9%",
        agreement * 100.0
    );
    check_snapshot(stats, seeds.len(), agreement);
}
