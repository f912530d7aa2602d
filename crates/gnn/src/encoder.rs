//! The graph neural network of §5.1.
//!
//! Per-node embeddings follow Eq. (1):
//!
//! ```text
//! e_v = g( Σ_{u ∈ ξ(v)} f(e_u) ) + p_v,      p_v = prep(x_v)
//! ```
//!
//! computed in one exact bottom-up sweep: nodes are grouped by leaf-depth
//! level, so every node is evaluated after all of its children — which
//! lets the network express critical-path-style max aggregations over the
//! *entire* DAG depth (Appendix E), unlike fixed-iteration simultaneous
//! message passing. (`prep` is a learned projection taking raw features to
//! the embedding width; the paper's x_v addition requires matching
//! dimensions, and the released implementation uses the same trick.)
//!
//! Per-job summaries y_i and the global summary z reuse the same formula
//! with their own `f`/`g` networks and zero self-features (§5.1's summary
//! nodes): six non-linear transformations in total, exactly as the paper
//! counts them. The `two_level` switch disables the outer `g(·)` to
//! reproduce the single-aggregation ablation of Appendix E / Figure 19.
//!
//! Segment sums (child → parent over each level's `child_counts`, node
//! → job over each job's node range) are one tape op,
//! `Tape::segment_sum`, read by index from the cached `GraphStructure`
//! plan the `f32` sweep reads too; the job → global sum is `sum_rows`.
//! A segment sum adds in the aligned groups of four of the 0/1 matmul
//! it stands for, so *where* a child sits in its level's batch is part
//! of what a parent's message sum evaluates to — the reason decisions
//! are scored one full graph at a time rather than re-batched
//! (docs/PERF.md "The training lane").

use crate::graph::GraphInput;
use decima_nn::{Activation, Mlp, ParamStore, Tape, TensorId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the encoder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GnnConfig {
    /// Raw per-node feature width.
    pub feat_dim: usize,
    /// Embedding width (paper: 16; scaled default: 8).
    pub embed_dim: usize,
    /// Hidden widths of every transformation MLP (paper: [32, 16]).
    pub hidden: Vec<usize>,
    /// Apply the outer non-linear transform `g(·)` (Eq. 1). `false`
    /// reproduces the standard single-aggregation GNN ablation.
    pub two_level: bool,
}

impl GnnConfig {
    /// The paper's §6.1 configuration (two 32/16 hidden layers, 16-dim
    /// embeddings).
    pub fn paper(feat_dim: usize) -> Self {
        GnnConfig {
            feat_dim,
            embed_dim: 16,
            hidden: vec![32, 16],
            two_level: true,
        }
    }

    /// A smaller configuration for fast CPU training (see DESIGN.md
    /// substitution 5).
    pub fn small(feat_dim: usize) -> Self {
        GnnConfig {
            feat_dim,
            embed_dim: 8,
            hidden: vec![16, 8],
            two_level: true,
        }
    }

    fn mlp_dims(&self, in_dim: usize, out_dim: usize) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(in_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(out_dim);
        dims
    }
}

/// Output handles of one encoder forward pass.
#[derive(Clone, Copy, Debug)]
pub struct Embeddings {
    /// `[total_nodes, embed_dim]` per-node embeddings, in the
    /// `GraphInput`'s node order.
    pub nodes: TensorId,
    /// `[num_jobs, embed_dim]` per-job summaries.
    pub jobs: TensorId,
    /// `[1, embed_dim]` global summary.
    pub global: TensorId,
}

/// The graph neural network (six transformations + feature projection).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GnnEncoder {
    pub(crate) cfg: GnnConfig,
    pub(crate) prep: Mlp,
    pub(crate) f_node: Mlp,
    pub(crate) g_node: Mlp,
    pub(crate) f_job: Mlp,
    pub(crate) g_job: Mlp,
    pub(crate) f_glob: Mlp,
    pub(crate) g_glob: Mlp,
}

impl GnnEncoder {
    /// Registers all encoder parameters in `store`.
    pub fn new(cfg: GnnConfig, store: &mut ParamStore, rng: &mut impl Rng) -> Self {
        let act = Activation::LeakyRelu(0.2);
        let d = cfg.embed_dim;
        let prep = Mlp::new(store, "gnn.prep", &cfg.mlp_dims(cfg.feat_dim, d), act, rng);
        let f_node = Mlp::new(store, "gnn.f_node", &cfg.mlp_dims(d, d), act, rng);
        let g_node = Mlp::new(store, "gnn.g_node", &cfg.mlp_dims(d, d), act, rng);
        let f_job = Mlp::new(store, "gnn.f_job", &cfg.mlp_dims(d, d), act, rng);
        let g_job = Mlp::new(store, "gnn.g_job", &cfg.mlp_dims(d, d), act, rng);
        let f_glob = Mlp::new(store, "gnn.f_glob", &cfg.mlp_dims(d, d), act, rng);
        let g_glob = Mlp::new(store, "gnn.g_glob", &cfg.mlp_dims(d, d), act, rng);
        GnnEncoder {
            cfg,
            prep,
            f_node,
            g_node,
            f_job,
            g_job,
            f_glob,
            g_glob,
        }
    }

    /// Configuration.
    pub fn cfg(&self) -> &GnnConfig {
        &self.cfg
    }

    /// Runs the encoder, producing node/job/global embeddings.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, g: &GraphInput) -> Embeddings {
        let n = g.num_nodes();
        let d = self.cfg.embed_dim;
        assert!(n > 0, "encoder needs at least one node");
        assert_eq!(g.features.cols(), self.cfg.feat_dim, "feature dim");

        // Feature projection p_v for every node at once.
        let x = tape.input_copy(&g.features);
        let p = self.prep.forward(tape, store, x);

        // Bottom-up sweep, one batch per level, following the
        // precomputed evaluation plan: node lists, children and child
        // counts all come from the cached `GraphStructure` instead of
        // being rebuilt per pass.
        let s = &g.structure;
        let mut blocks: Vec<TensorId> = Vec::with_capacity(s.levels.len());
        for plan in &s.levels {
            debug_assert!(!plan.nodes.is_empty(), "levels are dense");
            let nv = plan.nodes.len();
            let p_rows = tape.gather_rows(p, plan.nodes.iter().copied());

            let e_level = if plan.children.is_empty() {
                // All leaves: message is the zero vector, so
                // e = g(0) + p (or just p in single-level mode). g(0) is
                // one row — compute it once and broadcast, instead of
                // running the MLP over every leaf.
                if self.cfg.two_level {
                    let zero = tape.input_from(1, d, std::iter::repeat(0.0).take(d));
                    let gz = self.g_node.forward(tape, store, zero);
                    let gz_rows = tape.gather_rows(gz, std::iter::repeat(0).take(nv));
                    tape.add(gz_rows, p_rows)
                } else {
                    p_rows
                }
            } else {
                // Gather all child embeddings of this level's nodes
                // straight from the already-computed blocks.
                let rows = plan.children.iter().map(|&c| s.perm[c as usize]);
                let gathered = tape.gather_blocks(&blocks, rows);
                let fmsg = self.f_node.forward(tape, store, gathered);
                let counts = plan.child_counts.iter().map(|&n| n as usize);
                let summed = tape.segment_sum(fmsg, counts);
                let aggregated = if self.cfg.two_level {
                    self.g_node.forward(tape, store, summed)
                } else {
                    summed
                };
                tape.add(aggregated, p_rows)
            };
            blocks.push(e_level);
        }

        // Restore original node order: perm[v] = row of node v.
        let nodes = tape.gather_blocks(&blocks, s.perm.iter().copied());

        // Job summaries: y_i = g2(Σ_{v ∈ G_i} f2(e_v)).
        let fj = self.f_job.forward(tape, store, nodes);
        let job_sum = tape.segment_sum(fj, s.jobs.iter().map(|j| j.num_nodes));
        let jobs = if self.cfg.two_level {
            self.g_job.forward(tape, store, job_sum)
        } else {
            job_sum
        };

        // Global summary: z = g3(Σ_i f3(y_i)).
        let fg = self.f_glob.forward(tape, store, jobs);
        let glob_sum = tape.sum_rows(fg);
        let global = if self.cfg.two_level {
            self.g_glob.forward(tape, store, glob_sum)
        } else {
            glob_sum
        };

        Embeddings {
            nodes,
            jobs,
            global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::DagTopology;
    use decima_nn::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy_input() -> GraphInput {
        let d1 = DagTopology::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let d2 = DagTopology::new(2, &[(0, 1)]).unwrap();
        let f1 = Tensor::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.1).collect());
        let f2 = Tensor::from_vec(2, 3, vec![0.5; 6]);
        GraphInput::new(&[&d1, &d2], &[f1, f2])
    }

    fn encoder(two_level: bool) -> (GnnEncoder, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = GnnConfig {
            feat_dim: 3,
            embed_dim: 4,
            hidden: vec![8],
            two_level,
        };
        let enc = GnnEncoder::new(cfg, &mut store, &mut rng);
        (enc, store)
    }

    #[test]
    fn output_shapes() {
        let (enc, store) = encoder(true);
        let g = toy_input();
        let mut tape = Tape::new();
        let e = enc.forward(&mut tape, &store, &g);
        assert_eq!(tape.value(e.nodes).shape(), (6, 4));
        assert_eq!(tape.value(e.jobs).shape(), (2, 4));
        assert_eq!(tape.value(e.global).shape(), (1, 4));
    }

    #[test]
    fn information_flows_from_children_to_parents() {
        // Node 0 (root of job 1) must see changes in node 3 (its leaf
        // descendant) through two message-passing levels.
        let (enc, store) = encoder(true);
        let g1 = toy_input();
        let mut g2 = toy_input();
        // Perturb the leaf (global node 3) features.
        for c in 0..3 {
            let v = g2.features.get(3, c);
            g2.features.set(3, c, v + 1.0);
        }
        let mut t1 = Tape::new();
        let e1 = enc.forward(&mut t1, &store, &g1);
        let mut t2 = Tape::new();
        let e2 = enc.forward(&mut t2, &store, &g2);
        let root1 = t1.value(e1.nodes).row_slice(0).to_vec();
        let root2 = t2.value(e2.nodes).row_slice(0).to_vec();
        assert_ne!(root1, root2, "root embedding must depend on its leaves");
        // And job 2's nodes must NOT change.
        let other1 = t1.value(e1.nodes).row_slice(4).to_vec();
        let other2 = t2.value(e2.nodes).row_slice(4).to_vec();
        assert_eq!(other1, other2, "jobs must not leak into each other");
    }

    #[test]
    fn leaves_do_not_see_parents() {
        let (enc, store) = encoder(true);
        let g1 = toy_input();
        let mut g2 = toy_input();
        for c in 0..3 {
            let v = g2.features.get(0, c);
            g2.features.set(0, c, v + 1.0); // perturb the root
        }
        let mut t1 = Tape::new();
        let e1 = enc.forward(&mut t1, &store, &g1);
        let mut t2 = Tape::new();
        let e2 = enc.forward(&mut t2, &store, &g2);
        // Leaf (node 3) embedding unchanged: messages flow child→parent.
        assert_eq!(
            t1.value(e1.nodes).row_slice(3),
            t2.value(e2.nodes).row_slice(3)
        );
        // But the global summary sees everything.
        assert_ne!(
            t1.value(e1.global).row_slice(0),
            t2.value(e2.global).row_slice(0)
        );
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (enc, mut store) = encoder(true);
        let g = toy_input();
        let mut tape = Tape::new();
        let e = enc.forward(&mut tape, &store, &g);
        let cat = tape.concat_rows(&[e.nodes, e.jobs, e.global]);
        let loss = tape.sum_all(cat);
        tape.backward(loss, 1.0, &mut store);
        let mut missing = Vec::new();
        for i in 0..store.len() {
            if store.grad(i).norm_sq() == 0.0 {
                missing.push(store.name(i).to_string());
            }
        }
        assert!(missing.is_empty(), "zero-grad params: {missing:?}");
    }

    #[test]
    fn single_level_variant_runs() {
        let (enc, store) = encoder(false);
        let g = toy_input();
        let mut tape = Tape::new();
        let e = enc.forward(&mut tape, &store, &g);
        assert_eq!(tape.value(e.nodes).shape(), (6, 4));
    }

    #[test]
    fn single_node_job() {
        let (enc, store) = encoder(true);
        let d = DagTopology::single();
        let f = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let g = GraphInput::new(&[&d], &[f]);
        let mut tape = Tape::new();
        let e = enc.forward(&mut tape, &store, &g);
        assert_eq!(tape.value(e.nodes).shape(), (1, 4));
        assert_eq!(tape.value(e.jobs).shape(), (1, 4));
    }
}
