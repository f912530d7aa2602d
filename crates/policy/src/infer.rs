//! The inference-only decision fast path.
//!
//! [`InferSession`] is the evaluation twin of the tape-based
//! `forward_nodes_cached` → `forward_limits` pipeline: weights are
//! packed once from the `f64` [`ParamStore`] into contiguous `f32`
//! matrices, the GNN runs through [`decima_gnn::InferEncoder`], and
//! both heads score their whole candidate batch with one fused matmul
//! each — no tape nodes, no gradient bookkeeping, and no allocations in
//! steady state.
//!
//! Two properties define the contract with the tape path:
//!
//! * **Exact-enough.** Logits diverge from the `f64` reference only by
//!   `f32` rounding (bounded at 1e-4 relative error by the differential
//!   suites); argmax ties break identically (last maximum wins, the
//!   same rule as the tape lane's argmax, and `log_softmax` is
//!   monotonic so raw scores order exactly like log-probabilities).
//! * **Narrow.** Only the greedy single-class configurations evaluation
//!   actually uses are supported; [`InferSession::try_new`] returns
//!   `None` for everything else (no GNN, one-hot limit head,
//!   multi-class clusters) and the agent silently stays on the tape.
//!   That return value is the only selection between the two lanes:
//!   there is no flag, environment variable or global to set.
//!
//! The encoder recomputes only what moved since it last saw each job.
//! Its per-job memos are keyed on the whole read set of the features:
//! per node and per job, and per decision `free_total`,
//! `total_executors` and the feature configuration. When the
//! decision-wide key moves (an executor is handed out or freed), the
//! current memos are parked under their key and any memos parked under
//! the new key are taken back, so a `free_total` that returns to a
//! recent value recomputes only the jobs that moved meanwhile. A few
//! sets are parked (`decima_gnn::infer` module docs). So at most a small
//! constant number of memos is held per live job, every set is carried
//! across a change of the live job set, and taking a set back swaps
//! buffers without allocating.

use crate::policy::{Candidate, DecimaPolicy, ParallelismMode};
use decima_gnn::{GraphCache, InferEncoder};
use decima_nn::{F32Mlp, F32Scratch, ParamStore};
use decima_sim::Observation;

/// One greedy decision produced by the fast path.
#[derive(Clone, Copy, Debug)]
pub struct FastDecision {
    /// The chosen candidate (job index + stage).
    pub cand: Candidate,
    /// The chosen parallelism limit (total executors when parallelism
    /// control is disabled).
    pub limit: usize,
}

/// Pre-packed `f32` inference state for one policy: encoder, node head,
/// limit head, and every reusable buffer a decision needs.
pub struct InferSession {
    enc: InferEncoder,
    q_net: F32Mlp,
    w_net: F32Mlp,
    scratch: F32Scratch,
    qin: Vec<f32>,
    qscore: Vec<f32>,
    win: Vec<f32>,
    wtail: Vec<f32>,
    wscore: Vec<f32>,
}

impl InferSession {
    /// Packs `policy`'s parameters for tape-free inference. Returns
    /// `None` for configurations the fast path does not cover (no GNN,
    /// one-hot limit head, multi-class clusters) — callers fall back to
    /// the exact tape path.
    pub fn try_new(policy: &DecimaPolicy, store: &ParamStore) -> Option<Self> {
        if policy.cfg.num_classes > 1 || policy.cfg.parallelism == ParallelismMode::OneHot {
            return None;
        }
        let enc = InferEncoder::pack(policy.encoder.as_ref()?, store)?;
        let q_net = F32Mlp::pack(&policy.q_net, store)?;
        let w_net = F32Mlp::pack(&policy.w_net, store)?;
        Some(InferSession {
            enc,
            q_net,
            w_net,
            scratch: F32Scratch::default(),
            qin: Vec::new(),
            qscore: Vec::new(),
            win: Vec::new(),
            wtail: Vec::new(),
            wscore: Vec::new(),
        })
    }

    /// Number of per-job encoder memos in the current set — at most the
    /// live job count of the last observation decided on (each parked
    /// set holds at most as many, for the same jobs).
    pub fn memo_len(&self) -> usize {
        self.enc.memo_len()
    }

    /// Drops the encoder's per-job memos (episode boundary).
    pub fn clear_memos(&mut self) {
        self.enc.clear_memos();
    }

    /// Raw node-head scores of the last [`decide_greedy`]
    /// (one per candidate, softmax-equivalent to the tape path's
    /// log-probabilities up to a constant shift).
    ///
    /// [`decide_greedy`]: Self::decide_greedy
    pub fn node_scores(&self) -> &[f32] {
        &self.qscore
    }

    /// Entropy (nats) of the node softmax of the last [`decide_greedy`].
    /// Computed when asked: a greedy decision does not read it.
    ///
    /// [`decide_greedy`]: Self::decide_greedy
    pub fn node_entropy(&self) -> f64 {
        softmax_entropy(&self.qscore)
    }

    /// One greedy decision: encodes the observation, scores every
    /// schedulable candidate in one batched matmul, and scores every
    /// valid limit of the winner in another.
    pub fn decide_greedy(
        &mut self,
        policy: &DecimaPolicy,
        obs: &Observation,
        cache: &mut GraphCache,
    ) -> FastDecision {
        assert!(
            !obs.schedulable.is_empty(),
            "policy invoked with no schedulable nodes"
        );
        let structure = cache.structure_for(obs);
        self.enc
            .forward_observation(&policy.cfg.feat, obs, &structure);
        let d = self.enc.embed_dim();

        // Node head: all candidate (e_v | y_i | z) rows in one batch.
        let c = obs.schedulable.len();
        self.qin.resize(c * 3 * d, 0.0);
        for (row, &(job_idx, stage)) in self.qin.chunks_exact_mut(3 * d).zip(&obs.schedulable) {
            let v = structure.jobs[job_idx].node_offset + stage.0 as usize;
            row[..d].copy_from_slice(self.enc.node_row(v));
            row[d..2 * d].copy_from_slice(self.enc.job_row(job_idx));
            row[2 * d..].copy_from_slice(self.enc.global_row());
        }
        self.q_net
            .forward(c, &self.qin, &mut self.scratch, &mut self.qscore);
        // log_softmax is monotonic: argmax over raw scores equals argmax
        // over log-probs. `>=` keeps the tape's last-max tie-breaking.
        let (job_idx, stage) = obs.schedulable[argmax_last(&self.qscore)];
        let cand = Candidate {
            job_idx,
            stage: stage.0,
        };

        // Limit head for the winner: every row scores the same
        // [y_i | z] context with only the normalized value differing,
        // so the shared prefix runs through the first layer once.
        let limit = if policy.cfg.parallelism == ParallelismMode::Disabled {
            obs.total_executors
        } else {
            let (lo, stride) = policy.limit_steps(obs, cand);
            self.win.clear();
            self.win.extend_from_slice(self.enc.job_row(cand.job_idx));
            self.win.extend_from_slice(self.enc.global_row());
            debug_assert_eq!(self.win.len(), 2 * d);
            self.wtail.clear();
            self.wtail.extend(
                (lo..=obs.total_executors)
                    .step_by(stride)
                    .map(|v| (v as f64 / policy.cfg.total_executors as f64) as f32),
            );
            self.w_net.forward_shared_prefix(
                self.wtail.len(),
                &self.win,
                &self.wtail,
                &mut self.scratch,
                &mut self.wscore,
            );
            lo + argmax_last(&self.wscore) * stride
        };

        FastDecision { cand, limit }
    }
}

/// Argmax with the tape path's tie rule: the *last* maximum wins
/// (`Iterator::max_by` keeps later elements on `Ordering::Equal`).
fn argmax_last(scores: &[f32]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s >= scores[best] {
            best = i;
        }
    }
    best
}

/// Entropy (nats) of the softmax over raw scores, computed stably via
/// the log-sum-exp shift.
fn softmax_entropy(scores: &[f32]) -> f64 {
    let m = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let mut z = 0.0f64;
    for &s in scores {
        z += (s as f64 - m).exp();
    }
    let lse = m + z.ln();
    let mut h = 0.0f64;
    for &s in scores {
        let logp = s as f64 - lse;
        h -= logp.exp() * logp;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn policy_with(cfg: PolicyConfig) -> (DecimaPolicy, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let policy = DecimaPolicy::new(cfg, &mut store, &mut rng);
        (policy, store)
    }

    #[test]
    fn unsupported_configs_fall_back() {
        let (p, s) = policy_with(PolicyConfig {
            gnn: None,
            ..PolicyConfig::small(5)
        });
        assert!(InferSession::try_new(&p, &s).is_none(), "no-GNN ablation");
        let (p, s) = policy_with(PolicyConfig {
            parallelism: ParallelismMode::OneHot,
            ..PolicyConfig::small(5)
        });
        assert!(InferSession::try_new(&p, &s).is_none(), "one-hot head");
        let (p, s) = policy_with(PolicyConfig {
            num_classes: 4,
            ..PolicyConfig::small(5)
        });
        assert!(InferSession::try_new(&p, &s).is_none(), "multi-class");
        let (p, s) = policy_with(PolicyConfig::small(5));
        assert!(InferSession::try_new(&p, &s).is_some(), "standard config");
    }

    #[test]
    fn argmax_last_matches_tape_tie_rule() {
        assert_eq!(argmax_last(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax_last(&[2.0, 2.0, 2.0]), 2, "last max wins");
        assert_eq!(argmax_last(&[2.0, 3.0, 3.0, 1.0]), 2);
    }

    #[test]
    fn softmax_entropy_of_uniform_is_log_n() {
        let h = softmax_entropy(&[0.5; 8]);
        assert!((h - (8f64).ln()).abs() < 1e-9);
    }
}
