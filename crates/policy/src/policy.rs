//! The Decima policy network (§5.2).
//!
//! Given the GNN embeddings, the policy scores every schedulable node
//! (`q(e_v, y_i, z)`), every parallelism limit for the chosen node's job
//! (`w(y_i, z, l)` — note `l` is an *input*, which is what lets one score
//! function cover every limit, §5.2), and — in the multi-resource setting
//! (§7.3) — every executor class. Masked softmaxes over the valid sets
//! yield the action distribution; everything is differentiable end to end.
//!
//! The [`ParallelismMode`] and `gnn: None` switches reproduce the paper's
//! ablations: no parallelism control and no graph embedding (Figure 14),
//! stage-level granularity and per-limit output heads (Figure 15a).

use decima_gnn::{
    Embeddings, FeatureConfig, GnnConfig, GnnEncoder, GraphCache, GraphInput, FEAT_DIM,
    GRAPH_CACHE_CAP,
};
use decima_nn::{Activation, Mlp, ParamStore, Tape, TensorId};
use decima_sim::Observation;
use rand::Rng;
use std::iter::repeat;

/// How the policy controls parallelism (§5.2, Figure 15a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ParallelismMode {
    /// Job-level limits with the limit value as a score-function input —
    /// the paper's design.
    #[default]
    JobLevel,
    /// Limits applied per stage (finer control, larger search space; the
    /// green curve in Figure 15a).
    StageLevel,
    /// One output unit per limit value instead of the limit-as-input
    /// trick (many more parameters; the yellow curve in Figure 15a).
    OneHot,
    /// No parallelism control: always grant the maximum (Figure 14's
    /// "Decima w/o parallelism control" ablation).
    Disabled,
}

impl ParallelismMode {
    /// The mode's name in scenario specs and checkpoint headers.
    pub fn key(self) -> &'static str {
        match self {
            ParallelismMode::JobLevel => "job-level",
            ParallelismMode::StageLevel => "stage-level",
            ParallelismMode::OneHot => "one-hot",
            ParallelismMode::Disabled => "disabled",
        }
    }

    /// The mode [`ParallelismMode::key`] names `key`.
    pub fn from_key(key: &str) -> Result<Self, String> {
        use ParallelismMode::{Disabled, JobLevel, OneHot, StageLevel};
        [JobLevel, StageLevel, OneHot, Disabled]
            .into_iter()
            .find(|m| m.key() == key)
            .ok_or_else(|| format!("unknown parallelism mode '{key}'"))
    }
}

/// Policy construction options.
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// GNN configuration; `None` feeds raw features directly to the score
    /// functions (Figure 14's "w/o graph embedding" ablation).
    pub gnn: Option<GnnConfig>,
    /// Feature extraction settings.
    pub feat: FeatureConfig,
    /// Parallelism-control mode.
    pub parallelism: ParallelismMode,
    /// Total executors (sizes the one-hot head and limit normalization).
    pub total_executors: usize,
    /// Executor classes (>1 enables the class head).
    pub num_classes: usize,
    /// Hidden widths of the score-function MLPs (paper: [32, 16]).
    pub hidden: Vec<usize>,
    /// LRU capacity of the per-agent [`decima_gnn::GraphCache`]. Purely
    /// a rebuild-frequency knob — it can never change policy outputs.
    /// Both constructors write [`GRAPH_CACHE_CAP`], the default of every
    /// `GraphCache`.
    pub graph_cache_cap: usize,
}

impl PolicyConfig {
    /// The scaled-down default used by the fast experiments: small GNN,
    /// job-level limits, single resource class.
    pub fn small(total_executors: usize) -> Self {
        PolicyConfig {
            gnn: Some(GnnConfig::small(FEAT_DIM)),
            feat: FeatureConfig::default(),
            parallelism: ParallelismMode::JobLevel,
            total_executors,
            num_classes: 1,
            hidden: vec![16, 8],
            graph_cache_cap: GRAPH_CACHE_CAP,
        }
    }

    /// The paper's §6.1 configuration (32/16 hidden units, 16-dim
    /// embeddings).
    pub fn paper(total_executors: usize) -> Self {
        PolicyConfig {
            gnn: Some(GnnConfig::paper(FEAT_DIM)),
            feat: FeatureConfig::default(),
            parallelism: ParallelismMode::JobLevel,
            total_executors,
            num_classes: 1,
            hidden: vec![32, 16],
            graph_cache_cap: GRAPH_CACHE_CAP,
        }
    }

    fn embed_dim(&self) -> usize {
        self.gnn.as_ref().map_or(FEAT_DIM, |g| g.embed_dim)
    }

    fn mlp_dims(&self, in_dim: usize, out_dim: usize) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(in_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(out_dim);
        dims
    }
}

/// One candidate the node head can pick.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Index into `obs.jobs`.
    pub job_idx: usize,
    /// Stage within the job.
    pub stage: u32,
}

/// The forward-pass handles needed to sample (or re-score) one decision.
pub struct PolicyForward {
    /// Log-probabilities over candidates, `[C, 1]`.
    pub node_logp: TensorId,
    /// The candidates, aligned with `node_logp` rows.
    pub cands: Vec<Candidate>,
    emb: Embeddings,
}

/// Limit head output: log-probs over the valid limit values.
pub struct LimitForward {
    /// Log-probabilities `[L, 1]`.
    pub logp: TensorId,
    /// The limit value each row encodes.
    pub values: Vec<usize>,
}

/// Class head output: log-probs over the fitting executor classes.
pub struct ClassForward {
    /// Log-probabilities `[K, 1]`.
    pub logp: TensorId,
    /// The class index each row encodes.
    pub classes: Vec<usize>,
}

/// The Decima policy network.
#[derive(Clone, Debug)]
pub struct DecimaPolicy {
    /// Construction options.
    pub cfg: PolicyConfig,
    pub(crate) encoder: Option<GnnEncoder>,
    pub(crate) q_net: Mlp,
    pub(crate) w_net: Mlp,
    /// One-hot limit head (only in `ParallelismMode::OneHot`).
    pub(crate) w_onehot: Option<Mlp>,
    pub(crate) class_net: Option<Mlp>,
}

impl DecimaPolicy {
    /// Registers all parameters in `store`.
    pub fn new(cfg: PolicyConfig, store: &mut ParamStore, rng: &mut impl Rng) -> Self {
        let act = Activation::LeakyRelu(0.2);
        let d = cfg.embed_dim();
        let encoder = cfg.gnn.clone().map(|g| GnnEncoder::new(g, store, rng));
        let q_net = Mlp::new(store, "policy.q", &cfg.mlp_dims(3 * d, 1), act, rng);
        let w_net = Mlp::new(store, "policy.w", &cfg.mlp_dims(2 * d + 1, 1), act, rng);
        let w_onehot = (cfg.parallelism == ParallelismMode::OneHot).then(|| {
            Mlp::new(
                store,
                "policy.w1h",
                &cfg.mlp_dims(2 * d, cfg.total_executors),
                act,
                rng,
            )
        });
        let class_net = (cfg.num_classes > 1)
            .then(|| Mlp::new(store, "policy.class", &cfg.mlp_dims(2 * d + 2, 1), act, rng));
        // Near-zero final layers give a near-uniform initial policy:
        // unnormalized GNN sums would otherwise make the initial softmax
        // almost deterministic and kill exploration.
        for head in [&q_net, &w_net]
            .into_iter()
            .chain(w_onehot.as_ref())
            .chain(class_net.as_ref())
        {
            head.scale_final_layer(store, 0.01);
        }
        DecimaPolicy {
            cfg,
            encoder,
            q_net,
            w_net,
            w_onehot,
            class_net,
        }
    }

    /// Runs the encoder and node head over the observation's schedulable
    /// set. Panics if the schedulable set is empty (the engine guarantees
    /// it is not when it invokes the scheduler).
    ///
    /// `cache` is caller-owned, so the batch's static structure (level
    /// plan, child lists and counts, job node ranges) is reused across
    /// the decisions of an episode and only rebuilt when the active-job
    /// set changes.
    pub fn forward_nodes_cached(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        obs: &Observation,
        cache: &mut GraphCache,
    ) -> PolicyForward {
        assert!(
            !obs.schedulable.is_empty(),
            "policy invoked with no schedulable nodes"
        );
        let graph: GraphInput = self.cfg.feat.graph_input_cached(obs, cache);
        let emb = match &self.encoder {
            Some(enc) => enc.forward(tape, store, &graph),
            None => {
                // Ablation: raw features as "embeddings", with per-job and
                // global raw aggregates standing in for y_i and z. The
                // node → job segment sum runs over the jobs' node ranges.
                let nodes = tape.input_copy(&graph.features);
                let jobs = tape.segment_sum(nodes, graph.jobs().iter().map(|j| j.num_nodes));
                let global = tape.sum_rows(jobs);
                Embeddings {
                    nodes,
                    jobs,
                    global,
                }
            }
        };

        let cands: Vec<Candidate> = obs
            .schedulable
            .iter()
            .map(|&(job_idx, stage)| Candidate {
                job_idx,
                stage: stage.0,
            })
            .collect();
        let node_rows = cands
            .iter()
            .map(|c| graph.jobs()[c.job_idx].node_offset + c.stage as usize);
        let ev = tape.gather_rows(emb.nodes, node_rows);
        let yi = tape.gather_rows(emb.jobs, cands.iter().map(|c| c.job_idx));
        let z = tape.gather_rows(emb.global, repeat(0).take(cands.len()));
        let qin = tape.concat_cols(&[ev, yi, z]);
        let scores = self.q_net.forward(tape, store, qin);
        let node_logp = tape.log_softmax_col(scores);
        PolicyForward {
            node_logp,
            cands,
            emb,
        }
    }

    /// Valid limit values for a candidate under the current mode.
    pub fn limit_values(&self, obs: &Observation, cand: Candidate) -> Vec<usize> {
        (self.min_limit(obs, cand)..=obs.total_executors).collect()
    }

    /// The smallest valid limit for a candidate:
    /// [`limit_values`](Self::limit_values) runs from it to
    /// `obs.total_executors` and is never empty. The fast lane walks
    /// that range without the `Vec`.
    pub(crate) fn min_limit(&self, obs: &Observation, cand: Candidate) -> usize {
        let cur = match self.cfg.parallelism {
            ParallelismMode::StageLevel => {
                let n = &obs.jobs[cand.job_idx].nodes[cand.stage as usize];
                (n.executors_on + n.in_flight) as usize
            }
            _ => obs.jobs[cand.job_idx].alloc,
        };
        // The paper enforces limit > current allocation so every action
        // schedules at least one executor (§5.2); at a full allocation
        // the one value left is the cluster size.
        (cur + 1).min(obs.total_executors)
    }

    /// Runs the limit head for one candidate.
    pub fn forward_limits(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        obs: &Observation,
        fwd: &PolicyForward,
        cand: Candidate,
    ) -> LimitForward {
        let values = self.limit_values(obs, cand);
        // `new` builds the one-hot head in `ParallelismMode::OneHot` and in
        // no other mode, so the head's presence is the mode. It scores
        // every limit from one `[y_i | z]` row: the unit `v − 1` is limit
        // `v`. The limit-as-input head scores one row per limit.
        let rows = if self.w_onehot.is_some() {
            1
        } else {
            values.len()
        };
        let yi = tape.gather_rows(fwd.emb.jobs, repeat(cand.job_idx).take(rows));
        let z = tape.gather_rows(fwd.emb.global, repeat(0).take(rows));
        let scores = match &self.w_onehot {
            Some(net) => {
                let win = tape.concat_cols(&[yi, z]);
                let units = net.forward(tape, store, win); // [1, total_executors]
                let picked: Vec<TensorId> =
                    values.iter().map(|&v| tape.pick(units, 0, v - 1)).collect();
                tape.concat_rows(&picked)
            }
            None => {
                let lnorm = values
                    .iter()
                    .map(|&v| v as f64 / self.cfg.total_executors as f64);
                let lcol = tape.input_from(rows, 1, lnorm);
                let win = tape.concat_cols(&[yi, z, lcol]);
                self.w_net.forward(tape, store, win)
            }
        };
        let logp = tape.log_softmax_col(scores);
        LimitForward { logp, values }
    }

    /// Runs the class head for one candidate (multi-resource setting).
    /// Returns `None` when the cluster has a single class.
    pub fn forward_classes(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        obs: &Observation,
        fwd: &PolicyForward,
        cand: Candidate,
    ) -> Option<ClassForward> {
        let net = self.class_net.as_ref()?;
        let demand = obs.jobs[cand.job_idx].nodes[cand.stage as usize].mem_demand;
        let classes: Vec<usize> = (0..obs.num_classes)
            .filter(|&c| obs.free_by_class[c] > 0 && obs.class_memory[c] >= demand)
            .collect();
        if classes.is_empty() {
            return None;
        }
        let k = classes.len();
        let yi = tape.gather_rows(fwd.emb.jobs, repeat(cand.job_idx).take(k));
        let z = tape.gather_rows(fwd.emb.global, repeat(0).take(k));
        let mem = classes.iter().map(|&c| obs.class_memory[c]);
        let free = classes
            .iter()
            .map(|&c| obs.free_by_class[c] as f64 / obs.total_executors as f64);
        let mem = tape.input_from(k, 1, mem);
        let free = tape.input_from(k, 1, free);
        let cin = tape.concat_cols(&[yi, z, mem, free]);
        let scores = net.forward(tape, store, cin);
        let logp = tape.log_softmax_col(scores);
        Some(ClassForward { logp, classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_mode_keys_round_trip() {
        use ParallelismMode::{Disabled, JobLevel, OneHot, StageLevel};
        let keys = ["job-level", "stage-level", "one-hot", "disabled"];
        for (mode, key) in [JobLevel, StageLevel, OneHot, Disabled]
            .into_iter()
            .zip(keys)
        {
            assert_eq!(mode.key(), key);
            assert_eq!(ParallelismMode::from_key(key), Ok(mode));
        }
        assert_eq!(
            ParallelismMode::from_key("bogus"),
            Err("unknown parallelism mode 'bogus'".to_string())
        );
    }
}
