//! Graph-input plumbing: a batched, level-grouped view of every active
//! job's DAG, ready for bottom-up message passing.
//!
//! The expensive part of a batch — the depth-levelled evaluation plan
//! with its per-parent child lists — depends only on the DAG *shapes*,
//! which never change mid-episode. It is therefore factored into
//! [`GraphStructure`], shared behind an `Arc` and cached across the
//! thousands of decisions of an episode (see `GraphCache` in
//! `features.rs`); a [`GraphInput`] is that structure plus the
//! per-decision feature matrix.
//!
//! One pass over the DAGs builds the one plan both forward lanes read:
//! per level the nodes, their children as global node indices grouped
//! per parent, and the child counts; the node → job map `node_job`; and
//! `perm`, each node's row in the level-block concatenation the tape
//! builds. Every segment sum is by index — child → parent over
//! `child_counts`, node → job over each job's `num_nodes` — so a
//! structure holds O(nodes) indices and nothing O(jobs × nodes). And a
//! structure built from job specs ([`GraphStructure::for_specs`]) holds
//! each job's `Arc<JobSpec>`: that is the job identity `InferEncoder`
//! keys its per-job memos on.

use decima_core::{DagTopology, JobSpec};
use decima_nn::Tensor;
use std::sync::Arc;

/// One job's topology inside a [`GraphStructure`] batch.
#[derive(Clone, Debug)]
pub struct JobGraph {
    /// Index of the job's first node in the global node numbering.
    pub node_offset: usize,
    /// Number of nodes in this job.
    pub num_nodes: usize,
    /// The job this topology belongs to, when the structure was built
    /// from specs. Holding the `Arc` keeps the allocation alive, so a
    /// pointer comparison against it can never match a later job that
    /// reuses the address. `None` for a structure built from bare DAGs,
    /// whose jobs are nobody outside that structure.
    pub spec: Option<Arc<JobSpec>>,
}

impl JobGraph {
    /// Whether this is the job of `spec` with `num_nodes` nodes: the one
    /// identity test of a job across structures, by which `GraphCache`
    /// matches and evicts entries and `InferEncoder` carries its memos.
    /// A job built from a bare DAG is no job outside its structure.
    pub(crate) fn is(&self, spec: &Arc<JobSpec>, num_nodes: usize) -> bool {
        self.num_nodes == num_nodes && self.spec.as_ref().is_some_and(|s| Arc::ptr_eq(s, spec))
    }
}

/// The precomputed evaluation plan for one depth level of the bottom-up
/// sweep.
#[derive(Clone, Debug)]
pub struct LevelPlan {
    /// Global node indices at this level, ascending.
    pub nodes: Vec<usize>,
    /// Every child message consumed at this level, as the child's
    /// global node index, grouped per parent in parent order. Empty when
    /// the whole level is leaves. The tape gathers child `c` from row
    /// `perm[c]` of the earlier level blocks.
    pub children: Vec<u32>,
    /// `child_counts[i]` = number of children of `nodes[i]`: the
    /// segment lengths of the per-parent message sums over `children`.
    pub child_counts: Vec<u32>,
}

/// The static (per-episode) structure of a batch of job DAGs: everything
/// the encoder needs that does not change between decisions.
#[derive(Clone, Debug)]
pub struct GraphStructure {
    /// Per-job topology views.
    pub jobs: Vec<JobGraph>,
    /// Bottom-up evaluation plan, level 0 (leaves) first.
    pub levels: Vec<LevelPlan>,
    /// Total node count across jobs.
    pub num_nodes: usize,
    /// Job index of every global node.
    pub node_job: Vec<u32>,
    /// `perm[v]` = row of global node `v` in the concatenation of the
    /// level blocks (restores original node order after the sweep).
    pub perm: Vec<usize>,
}

impl GraphStructure {
    /// Precomputes the batch structure for the given DAGs. The jobs
    /// carry no identity (see [`JobGraph::spec`]).
    pub fn new(dags: &[&DagTopology]) -> Self {
        Self::build(dags.iter().map(|&dag| (dag, None)))
    }

    /// Precomputes the batch structure for the given jobs' DAGs, each
    /// job keeping its spec as its identity.
    pub fn for_specs<'a>(specs: impl IntoIterator<Item = &'a Arc<JobSpec>>) -> Self {
        Self::build(
            specs
                .into_iter()
                .map(|spec| (&spec.dag, Some(Arc::clone(spec)))),
        )
    }

    fn build<'a>(dags: impl Iterator<Item = (&'a DagTopology, Option<Arc<JobSpec>>)>) -> Self {
        let mut jobs = Vec::with_capacity(dags.size_hint().0);
        let mut topologies = Vec::with_capacity(dags.size_hint().0);
        let mut node_job = Vec::new();
        // Global node indices per level, ascending.
        let mut level_nodes: Vec<Vec<usize>> = Vec::new();
        let mut offset = 0usize;
        for (ji, (dag, spec)) in dags.enumerate() {
            for v in 0..dag.len() {
                let level = dag.level(v) as usize;
                if level >= level_nodes.len() {
                    level_nodes.resize_with(level + 1, Vec::new);
                }
                level_nodes[level].push(offset + v);
                node_job.push(ji as u32);
            }
            jobs.push(JobGraph {
                node_offset: offset,
                num_nodes: dag.len(),
                spec,
            });
            topologies.push(dag);
            offset += dag.len();
        }

        // The row numbering of the level-block concatenation and each
        // level's children, grouped per parent.
        let mut perm = vec![usize::MAX; offset];
        let mut next_row = 0usize;
        let mut levels = Vec::with_capacity(level_nodes.len());
        for nodes in level_nodes {
            debug_assert!(!nodes.is_empty(), "levels are dense");
            let mut children = Vec::new();
            let mut child_counts = Vec::with_capacity(nodes.len());
            for &v in &nodes {
                let ji = node_job[v] as usize;
                let base = jobs[ji].node_offset;
                let kids = topologies[ji].children(v - base);
                child_counts.push(kids.len() as u32);
                for &c in kids {
                    let c = base + c as usize;
                    debug_assert_ne!(perm[c], usize::MAX, "child computed before parent");
                    children.push(c as u32);
                }
            }
            for &v in &nodes {
                perm[v] = next_row;
                next_row += 1;
            }
            levels.push(LevelPlan {
                nodes,
                children,
                child_counts,
            });
        }

        GraphStructure {
            jobs,
            levels,
            num_nodes: offset,
            node_job,
            perm,
        }
    }

    /// Number of jobs in the batch.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }
}

/// A batch of job DAGs plus per-node feature rows: the cached static
/// [`GraphStructure`] and the per-decision feature matrix.
#[derive(Clone, Debug)]
pub struct GraphInput {
    /// `[total_nodes, feat_dim]` feature matrix, nodes grouped by job.
    pub features: Tensor,
    /// The static batch structure (shared; cached across decisions).
    pub structure: Arc<GraphStructure>,
}

impl GraphInput {
    /// Builds a batch from per-job `(topology, feature rows)` pairs,
    /// computing the structure fresh. Hot paths should build the
    /// structure once and reuse it via [`GraphInput::with_structure`].
    ///
    /// `feats[j]` must be a `[jobs[j].len(), feat_dim]` tensor.
    pub fn new(dags: &[&DagTopology], feats: &[Tensor]) -> Self {
        assert_eq!(dags.len(), feats.len(), "one feature block per job");
        let structure = Arc::new(GraphStructure::new(dags));
        let feat_dim = feats.first().map_or(0, Tensor::cols);
        let mut features = Tensor::zeros(structure.num_nodes, feat_dim);
        for (job, f) in structure.jobs.iter().zip(feats) {
            assert_eq!(f.rows(), job.num_nodes, "feature rows mismatch");
            assert_eq!(f.cols(), feat_dim, "feature dim mismatch");
            for v in 0..job.num_nodes {
                for c in 0..feat_dim {
                    features.set(job.node_offset + v, c, f.get(v, c));
                }
            }
        }
        GraphInput {
            features,
            structure,
        }
    }

    /// Pairs a cached structure with a fresh feature matrix.
    ///
    /// `features` must have one row per structure node.
    pub fn with_structure(structure: Arc<GraphStructure>, features: Tensor) -> Self {
        assert_eq!(
            features.rows(),
            structure.num_nodes,
            "feature rows mismatch"
        );
        GraphInput {
            features,
            structure,
        }
    }

    /// Total node count across jobs.
    pub fn num_nodes(&self) -> usize {
        self.structure.num_nodes
    }

    /// Number of jobs in the batch.
    pub fn num_jobs(&self) -> usize {
        self.structure.jobs.len()
    }

    /// Per-job topology views.
    pub fn jobs(&self) -> &[JobGraph] {
        &self.structure.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_two_jobs() {
        let d1 = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap(); // chain
        let d2 = DagTopology::new(2, &[(0, 1)]).unwrap();
        let f1 = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let f2 = Tensor::from_vec(2, 2, vec![2.0; 4]);
        let g = GraphInput::new(&[&d1, &d2], &[f1, f2]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_jobs(), 2);
        assert_eq!(g.jobs()[1].node_offset, 3);
        // d1: levels are 2,1,0; d2: 1,0.
        let s = &g.structure;
        assert_eq!(s.levels[0].nodes, vec![2, 4]); // leaves
        assert_eq!(s.levels[1].nodes, vec![1, 3]);
        assert_eq!(s.levels[2].nodes, vec![0]);
        // Leaves consume no child messages; upper levels sum their
        // children, grouped per parent, as global node indices.
        assert!(s.levels[0].children.is_empty());
        assert!(s.levels[0].child_counts.iter().all(|&n| n == 0));
        assert_eq!(s.levels[1].children, vec![2, 4]);
        assert_eq!(s.levels[1].child_counts, vec![1, 1]);
        assert_eq!(s.levels[2].children, vec![1]);
        assert_eq!(s.levels[2].child_counts, vec![1]);
        // Each node's row in the level-block stack: leaves 2, 4 first,
        // then 1, 3, then the root. The tape gathers child `c` from row
        // `perm[c]`, so level 1 reads rows 0 and 1.
        assert_eq!(s.perm, vec![4, 2, 0, 3, 1]);
        let rows: Vec<usize> = s.levels[1]
            .children
            .iter()
            .map(|&c| s.perm[c as usize])
            .collect();
        assert_eq!(rows, vec![0, 1]);
        // Each node's job; the jobs' node ranges are the job segments.
        assert_eq!(s.node_job, vec![0, 0, 0, 1, 1]);
        let ranges: Vec<_> = s
            .jobs
            .iter()
            .map(|j| (j.node_offset, j.num_nodes))
            .collect();
        assert_eq!(ranges, vec![(0, 3), (3, 2)]);
        // Features copied.
        assert_eq!(g.features.get(3, 0), 2.0);
        // Bare DAGs carry no job identity.
        assert!(s.jobs.iter().all(|j| j.spec.is_none()));
    }

    #[test]
    fn structure_is_reusable_across_feature_sets() {
        let d = DagTopology::new(2, &[(0, 1)]).unwrap();
        let g1 = GraphInput::new(&[&d], &[Tensor::from_vec(2, 1, vec![1.0, 2.0])]);
        let g2 = GraphInput::with_structure(
            Arc::clone(&g1.structure),
            Tensor::from_vec(2, 1, vec![3.0, 4.0]),
        );
        assert!(Arc::ptr_eq(&g1.structure, &g2.structure));
        assert_eq!(g2.features.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_features_panic() {
        let d = DagTopology::new(2, &[(0, 1)]).unwrap();
        let f = Tensor::zeros(3, 2);
        let _ = GraphInput::new(&[&d], &[f]);
    }
}
