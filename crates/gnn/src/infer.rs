//! Tape-free `f32` encoder forward for inference, memoised per job.
//!
//! [`InferEncoder`] is the evaluation-only twin of
//! [`GnnEncoder::forward`]: the seven MLPs are packed once into
//! contiguous `f32` matrices ([`decima_nn::F32Mlp`]), the bottom-up
//! sweep runs over flat reusable buffers in the order the
//! [`GraphStructure`] records for it (`LevelPlan::children`,
//! `GraphStructure::node_job`) instead of tape nodes, and its segment
//! sums run by index over the plan's child counts and job node ranges,
//! as the tape's do — in plain row order here, where the tape keeps the
//! grouped order of the 0/1 matmul its sum stands for.
//!
//! Messages never cross jobs (§5.1): a node embedding depends only on
//! its own job's DAG and feature rows, the job summary `y_i` only on
//! that job's node embeddings, and the global summary `z` is the single
//! cross-job term. So the encoder keeps, for every job of the structure
//! it last ran on, what it computed the job from, the job's node
//! embeddings, `y_i` and `f_glob(y_i)` — one **memo** per live job — and
//! a decision ([`InferEncoder::forward_observation`]) recomputes `prep →
//! level sweep → f_job/g_job → f_glob`, batched, over the nodes of the
//! jobs whose input changed since, then re-sums `z` over all the
//! `f_glob` rows in job order. It never builds a feature matrix: per job
//! it compares the *read set* of the features (`features.rs`: per node
//! remaining tasks, `executors_on` and the duration estimate's bits; per
//! job `local_free > 0`) with the keys kept in the job's memo — the one
//! comparison store — and builds `f32` feature rows, from those keys,
//! only for the jobs where a key moved. The compare is the one pass that
//! is still O(all nodes).
//!
//! A memo is keyed on the *whole* read set, the decision-wide part
//! included: `free_total`, `total_executors` and the `FeatureConfig`,
//! which every row of every job reads (`free_total / m` is §6.1's
//! feature (iv)). The memos computed under one decision-wide key form
//! one set. Beside the current set the encoder **parks** up to
//! `PARKED` (3) earlier ones, most recently current first. When the
//! decision-wide key moves, the current set is parked under the key it
//! was computed with, and the set parked under the new key, if any, is
//! taken back: only the jobs whose own keys moved since it was parked
//! are recomputed, and `z` is re-summed from its rows. With no set
//! parked under the new key, the least recently current one is taken
//! back emptied, and every job is computed. On a loaded cluster
//! `free_total` sits at one value most of the time and moves straight
//! back after an executor is handed out, so most moves return to a
//! parked key. A cold encoder is the same code with no job held.
//!
//! What parking costs: taking a set back swaps buffers, so it never
//! allocates. Every set is kept in the current structure's row layout,
//! so a change of the live job set carries all `1 + PARKED` of them (a
//! copy of each surviving job's rows), and memory holds at most
//! `1 + PARKED` memos per live job: `(1 + PARKED) × live nodes × (d
//! floats + a 16-byte key)`, plus three per-job rows each. A job that a
//! set holds no rows for — one admitted since it was parked — is marked
//! by a flag of its own, never by a key value.
//!
//! [`InferEncoder::forward`] is the **cold reference sweep**: it takes a
//! [`GraphInput`] with any feature matrix, computes every job from it,
//! compares nothing and leaves no key behind — it drops the parked sets
//! too — so the next decision recomputes every job. The differential
//! suites hold the observation entry to it, and the benchmark's layer
//! probe times it.
//!
//! Memoising is exact: every [`F32Mlp`] kernel computes an output row
//! from that input row and the weights alone, in a fixed `k` order, and
//! the per-parent, per-job and global sums keep their order, so a row
//! has the same bits whether it was computed in this call, in an earlier
//! one, or in a batch of different height; and a feature row is a pure
//! function of the keys, so equal keys mean equal rows
//! (`tests/infer_diff.rs` drives a warm encoder against a cold one and
//! against the cold reference through random edit scripts).
//!
//! Memos live in the row layout of one `GraphStructure`, held by `Arc`
//! by the encoder. When the live job set changes, the memos of
//! jobs present in both structures are carried over, in every set; a
//! job is recognised by `JobGraph::is`: its spec `Arc`, compared by
//! pointer while the old structure still holds it (so a freed address
//! cannot alias), and its node count.
//! Everything else is dropped, which bounds the memo count by the live
//! job count times `1 + PARKED`. A structure built from bare DAGs has
//! no job identity: its memos serve that structure `Arc` and die with
//! it.
//!
//! Against the `f64` tape the output is numerically *exact-enough*, not
//! bit-identical: the differential suite bounds the divergence at 1e-4
//! relative error.

use crate::encoder::GnnEncoder;
use crate::features::{FeatureConfig, GlobalKey, NodeKey, FEAT_DIM};
use crate::graph::{GraphInput, GraphStructure, JobGraph};
use decima_nn::{F32Mlp, F32Scratch, ParamStore};
use decima_sim::Observation;
use std::sync::Arc;

/// How many memos the encoder parks beside the current one (module
/// docs). Chosen from a sweep over 1, 3 and 7 on the benchmark's
/// backlog workload (docs/PERF.md "Parked memos").
const PARKED: usize = 3;

/// The per-job results of forwards under one decision-wide key, flat in
/// the row layout of the encoder's structure: job `i`'s memo is its node
/// range in `keys` and `nodes` plus row `i` of `held`, `local`, `jobs`
/// and `fglob`.
#[derive(Default)]
struct Memo {
    /// The decision-wide key every row here was computed under; `None`
    /// while the memo holds nothing.
    glob: Option<GlobalKey>,
    /// `held[i]`: the rows of job `i` are here. False for a job the
    /// memo was never computed for — one admitted since the memo was
    /// last current, or any job of a memo taken back emptied.
    held: Vec<bool>,
    /// What each job was last computed from: the read set of every
    /// node's feature row, `[n]` …
    keys: Vec<NodeKey>,
    /// … and `local_free > 0` of every job, `[jobs]`.
    local: Vec<bool>,
    /// `[n, d]` node embeddings `e_v`.
    nodes: Vec<f32>,
    /// `[jobs, d]` job summaries `y_i`.
    jobs: Vec<f32>,
    /// `[jobs, d]` rows `f_glob(y_i)`, the terms of the global sum.
    fglob: Vec<f32>,
}

impl Memo {
    /// Refills `self` with `from`'s memo in `to`'s row layout: job `i`
    /// of `to` keeps the rows `from` holds for job `carried[i]` of
    /// `old` (`from`'s layout), and every other job is marked not held.
    /// Only resizes and copies, so it allocates only to grow.
    fn carry(
        &mut self,
        from: &Memo,
        old: &[JobGraph],
        to: &GraphStructure,
        carried: &[Option<u32>],
        d: usize,
    ) {
        let (n, nj) = (to.num_nodes, to.num_jobs());
        // Rows of a job not held are computed before they are read, so
        // the buffers are resized, not cleared.
        self.nodes.resize(n * d, 0.0);
        self.jobs.resize(nj * d, 0.0);
        self.fglob.resize(nj * d, 0.0);
        self.keys.resize(n, NodeKey::default());
        self.local.resize(nj, false);
        self.glob = from.glob;
        self.held.clear();
        for (ji, (job, &oi)) in to.jobs.iter().zip(carried).enumerate() {
            let oi = oi
                .map(|oi| oi as usize)
                .filter(|&oi| from.glob.is_some() && from.held[oi]);
            self.held.push(oi.is_some());
            let Some(oi) = oi else { continue };
            let (src, dst, n) = (old[oi].node_offset, job.node_offset, job.num_nodes);
            self.keys[dst..dst + n].copy_from_slice(&from.keys[src..src + n]);
            self.local[ji] = from.local[oi];
            self.nodes[dst * d..(dst + n) * d].copy_from_slice(&from.nodes[src * d..(src + n) * d]);
            self.jobs[ji * d..(ji + 1) * d].copy_from_slice(&from.jobs[oi * d..(oi + 1) * d]);
            self.fglob[ji * d..(ji + 1) * d].copy_from_slice(&from.fglob[oi * d..(oi + 1) * d]);
        }
    }
}

/// Position in `old` of `job` ([`JobGraph::is`]), searching from
/// `*cursor` round (observation order is stable, so the next survivor
/// is almost always the first one looked at).
fn position_of(old: &[JobGraph], job: &JobGraph, cursor: &mut usize) -> Option<u32> {
    let spec = job.spec.as_ref()?;
    let n = old.len();
    let found = (0..n)
        .map(|k| (*cursor + k) % n)
        .find(|&i| old[i].is(spec, job.num_nodes))?;
    *cursor = found + 1;
    Some(found as u32)
}

/// The packed, tape-free encoder. Owns every buffer the forward pass
/// needs; between changes of the live job set nothing here allocates.
pub struct InferEncoder {
    d: usize,
    feat_dim: usize,
    two_level: bool,
    prep: F32Mlp,
    f_node: F32Mlp,
    g_node: F32Mlp,
    f_job: F32Mlp,
    g_job: F32Mlp,
    f_glob: F32Mlp,
    g_glob: F32Mlp,
    /// `g_node(0)` — constant for fixed weights, so the leaf broadcast
    /// of the tape path collapses to one precomputed row.
    g_zero: Vec<f32>,
    /// The structure the memos are laid out for, and whose plan the
    /// sweep follows. Holding the `Arc` keeps the allocation alive, so
    /// the pointer identity check in [`begin`](Self::begin) is sound,
    /// and keeps every job's `Arc<JobSpec>` alive for
    /// [`rebase`](Self::rebase).
    structure: Arc<GraphStructure>,
    /// The memo the sweep reads and writes: the one under the last
    /// forward's decision-wide key.
    memo: Memo,
    /// Memos under earlier keys, most recently current first, in the
    /// same row layout; a decision whose key matches one takes it back.
    parked: [Memo; PARKED],
    /// Target of a rebase, swapped with each memo in turn.
    spare: Memo,
    /// Per job of the structure being rebased to: its index in the old
    /// one, if it was there.
    carried: Vec<Option<u32>>,
    /// Job indices recomputed by this forward, ascending.
    dirty: Vec<u32>,
    /// Per job: whether it is in `dirty`, and if so its node offset in
    /// the compact (dirty jobs only) row numbering.
    compact_off: Vec<Option<u32>>,
    /// The level's dirty nodes: (position in the level's node list,
    /// compact row).
    picked: Vec<(u32, u32)>,
    scratch: F32Scratch,
    xin: Vec<f32>,
    p: Vec<f32>,
    gathered: Vec<f32>,
    fmsg: Vec<f32>,
    summed: Vec<f32>,
    agg: Vec<f32>,
    fj: Vec<f32>,
    jsum: Vec<f32>,
    y: Vec<f32>,
    fg: Vec<f32>,
    gsum: Vec<f32>,
    glob: Vec<f32>,
}

/// The structure of an encoder that holds no memo.
fn no_structure() -> Arc<GraphStructure> {
    Arc::new(GraphStructure::new(&[]))
}

impl InferEncoder {
    /// Packs a [`GnnEncoder`]'s parameters from `store` into `f32`
    /// inference form. Always `Some`, like [`F32Mlp::pack`]: the
    /// `Option` stays only because callers outside the workspace
    /// destructure it.
    pub fn pack(enc: &GnnEncoder, store: &ParamStore) -> Option<Self> {
        let d = enc.cfg.embed_dim;
        let prep = F32Mlp::pack(&enc.prep, store)?;
        let f_node = F32Mlp::pack(&enc.f_node, store)?;
        let g_node = F32Mlp::pack(&enc.g_node, store)?;
        let f_job = F32Mlp::pack(&enc.f_job, store)?;
        let g_job = F32Mlp::pack(&enc.g_job, store)?;
        let f_glob = F32Mlp::pack(&enc.f_glob, store)?;
        let g_glob = F32Mlp::pack(&enc.g_glob, store)?;
        let mut scratch = F32Scratch::default();
        let mut g_zero = Vec::new();
        if enc.cfg.two_level {
            g_node.forward(1, &vec![0.0; d], &mut scratch, &mut g_zero);
        }
        Some(InferEncoder {
            d,
            feat_dim: enc.cfg.feat_dim,
            two_level: enc.cfg.two_level,
            prep,
            f_node,
            g_node,
            f_job,
            g_job,
            f_glob,
            g_glob,
            g_zero,
            structure: no_structure(),
            memo: Memo::default(),
            parked: Default::default(),
            spare: Memo::default(),
            carried: Vec::new(),
            dirty: Vec::new(),
            compact_off: Vec::new(),
            picked: Vec::new(),
            scratch,
            xin: Vec::new(),
            p: Vec::new(),
            gathered: Vec::new(),
            fmsg: Vec::new(),
            summed: Vec::new(),
            agg: Vec::new(),
            fj: Vec::new(),
            jsum: Vec::new(),
            y: Vec::new(),
            fg: Vec::new(),
            gsum: Vec::new(),
            glob: Vec::new(),
        })
    }

    /// Embedding width.
    pub fn embed_dim(&self) -> usize {
        self.d
    }

    /// Number of per-job memos in the current set: the job count of the
    /// structure the last forward ran on. Each parked set holds at most
    /// as many, for the same jobs.
    pub fn memo_len(&self) -> usize {
        self.structure.num_jobs()
    }

    /// Drops every memo (and the structure and job specs they hold),
    /// keeping their buffers. Never needed for correctness; keeps an
    /// idle encoder from pinning the last episode's jobs.
    pub fn clear_memos(&mut self) {
        self.forget_all();
        self.structure = no_structure();
    }

    /// Number of jobs the last forward recomputed (the rest were served
    /// from their memos).
    pub fn dirty_jobs(&self) -> usize {
        self.dirty.len()
    }

    /// Marks every memo, current and parked, as holding nothing.
    fn forget_all(&mut self) {
        for memo in std::iter::once(&mut self.memo).chain(&mut self.parked) {
            memo.glob = None;
        }
    }

    /// Moves every memo into `structure`'s row layout: jobs present in
    /// both structures ([`JobGraph::is`]) keep their rows, every
    /// other job of `structure` is marked not held, and the rows of
    /// departed jobs are dropped with the old structure.
    fn rebase(&mut self, structure: &Arc<GraphStructure>) {
        let old = &self.structure.jobs;
        let mut cursor = 0usize;
        self.carried.clear();
        let carried = structure
            .jobs
            .iter()
            .map(|j| position_of(old, j, &mut cursor));
        self.carried.extend(carried);
        for memo in std::iter::once(&mut self.memo).chain(&mut self.parked) {
            self.spare
                .carry(memo, old, structure, &self.carried, self.d);
            std::mem::swap(memo, &mut self.spare);
        }
        self.structure = Arc::clone(structure);
    }

    /// Makes the current memo the one computed under `glob`. If it is
    /// not already, the current memo is parked, most recent first, and
    /// the parked memo under `glob` is taken back — or, if there is
    /// none, the least recently current one, emptied. Swaps only, so it
    /// never allocates. Returns whether the current memo changed.
    fn take(&mut self, glob: GlobalKey) -> bool {
        if self.memo.glob == Some(glob) {
            return false;
        }
        let k = self
            .parked
            .iter()
            .position(|memo| memo.glob == Some(glob))
            .unwrap_or(PARKED - 1);
        std::mem::swap(&mut self.memo, &mut self.parked[k]);
        self.parked[..=k].rotate_right(1);
        if self.memo.glob != Some(glob) {
            self.memo.glob = Some(glob);
            self.memo.held.fill(false);
        }
        true
    }

    /// Start of a forward over `structure`: rebases the memos if it is
    /// not the structure they are laid out for (returns whether it did)
    /// and empties the dirty list.
    fn begin(&mut self, structure: &Arc<GraphStructure>) -> bool {
        assert!(structure.num_nodes > 0, "encoder needs at least one node");
        let rebased = !Arc::ptr_eq(&self.structure, structure);
        if rebased {
            self.rebase(structure);
        }
        self.dirty.clear();
        self.compact_off.clear();
        self.xin.clear();
        rebased
    }

    /// The cold reference sweep: runs the encoder over every job of `g`,
    /// filling the node/job/global embedding buffers (read them with
    /// [`node_row`](Self::node_row) / [`job_row`](Self::job_row) /
    /// [`global_row`](Self::global_row)). It reads no memo and leaves
    /// no key, parked ones included, so the next
    /// [`forward_observation`](Self::forward_observation) recomputes
    /// every job as well (module docs).
    ///
    /// No decision takes it. It stays for the suites that name it as
    /// the reference — `crates/gnn/tests/infer_diff.rs` holds it to the
    /// `f64` tape and the observation entry to it — and for the
    /// benchmark's layer probe, because it takes any feature matrix.
    pub fn forward(&mut self, g: &GraphInput) {
        assert_eq!(g.features.cols(), self.feat_dim, "feature dim");
        self.forget_all();
        self.begin(&g.structure);
        self.xin.extend(g.features.data().iter().map(|&v| v as f32));
        for (ji, job) in self.structure.jobs.iter().enumerate() {
            self.dirty.push(ji as u32);
            self.compact_off.push(Some(job.node_offset as u32));
        }
        self.finish(self.structure.num_nodes, true);
    }

    /// The entry a decision takes: what `feat.graph_input_cached(obs,
    /// ..)` followed by [`forward`](Self::forward) computes, bit for
    /// bit, without building the feature matrix. `structure` must be the
    /// one `GraphCache::structure_for(obs)` returns.
    ///
    /// Per job it compares the *read set* of the features — each node's
    /// key, the job's `local_free > 0`, and the decision-wide key (module
    /// docs) — with the keys the job's memo was computed from, and builds
    /// feature rows, from those keys, only for the jobs where one moved.
    pub fn forward_observation(
        &mut self,
        feat: &FeatureConfig,
        obs: &Observation,
        structure: &Arc<GraphStructure>,
    ) {
        assert_eq!(self.feat_dim, FEAT_DIM, "feature dim");
        assert_eq!(
            structure.num_jobs(),
            obs.jobs.len(),
            "structure is not this observation's"
        );
        let rebased = self.begin(structure);
        let glob = GlobalKey::of(feat, obs);
        let taken = self.take(glob);
        let s: &GraphStructure = &self.structure;
        let memo = &mut self.memo;

        let mut m = 0usize;
        for (ji, (job, seen)) in s.jobs.iter().zip(&obs.jobs).enumerate() {
            assert_eq!(job.num_nodes, seen.nodes.len(), "one spec, one DAG");
            let keys = &mut memo.keys[job.node_offset..job.node_offset + job.num_nodes];
            let local = seen.local_free > 0;
            // One pass both compares the keys and brings them up to date.
            let mut moved = !memo.held[ji] || memo.local[ji] != local;
            for (key, node) in keys.iter_mut().zip(&seen.nodes) {
                let now = NodeKey::of(node);
                moved |= *key != now;
                *key = now;
            }
            memo.local[ji] = local;
            if !moved {
                self.compact_off.push(None);
                continue;
            }
            memo.held[ji] = true;
            self.dirty.push(ji as u32);
            self.compact_off.push(Some(m as u32));
            glob.job_rows_f32(local, keys, &mut self.xin);
            m += job.num_nodes;
        }
        // A memo taken back holds other `f_glob` rows than the last
        // forward summed, so `z` is re-summed even if no job is dirty.
        self.finish(m, rebased || taken);
    }

    /// End of a forward: recomputes the `m` nodes of the dirty jobs
    /// (rows in `self.xin`) and, if any job was recomputed or `moved`
    /// says the memo's rows are not the ones `z` was last summed from,
    /// re-sums `z`.
    fn finish(&mut self, m: usize, moved: bool) {
        let d = self.d;
        if self.dirty.is_empty() && !moved {
            return;
        }
        if !self.dirty.is_empty() {
            self.recompute_dirty(m);
        }

        // Global summary: z = g3(Σ_i f3(y_i)) over every job's cached
        // f3 row, in job order.
        self.gsum.clear();
        self.gsum.resize(d, 0.0);
        for row in self.memo.fglob.chunks_exact(d) {
            for (acc, v) in self.gsum.iter_mut().zip(row) {
                *acc += v;
            }
        }
        if self.two_level {
            self.g_glob
                .forward(1, &self.gsum, &mut self.scratch, &mut self.glob);
        } else {
            self.glob.clear();
            self.glob.extend_from_slice(&self.gsum);
        }
    }

    /// `prep → level sweep → f_job/g_job → f_glob` over the `m` nodes of
    /// the jobs in `self.dirty`, whose feature rows are packed in
    /// `self.xin`; results land in the jobs' memos.
    fn recompute_dirty(&mut self, m: usize) {
        let d = self.d;
        let s: &GraphStructure = &self.structure;
        // Row of global node `v` (of a dirty job) in the compact
        // numbering `xin` and `p` use.
        let compact_off = &self.compact_off;
        let compact = |v: usize| -> Option<usize> {
            let ji = s.node_job[v] as usize;
            compact_off[ji].map(|off| off as usize + v - s.jobs[ji].node_offset)
        };

        // Feature projection p_v.
        self.prep
            .forward(m, &self.xin, &mut self.scratch, &mut self.p);

        // Bottom-up sweep, one batch per level over the dirty nodes;
        // embeddings are written in place, in original node order, and
        // a level's children lie in levels already written.
        let nodes = &mut self.memo.nodes;
        for level in &s.levels {
            self.picked.clear();
            self.gathered.clear();
            let mut at = 0usize;
            for (i, (&v, &cnt)) in level.nodes.iter().zip(&level.child_counts).enumerate() {
                let children = &level.children[at..at + cnt as usize];
                at += cnt as usize;
                let Some(row) = compact(v) else { continue };
                self.picked.push((i as u32, row as u32));
                for &c in children {
                    let c = c as usize;
                    self.gathered.extend_from_slice(&nodes[c * d..(c + 1) * d]);
                }
            }
            let nv = self.picked.len();
            let leaves = level.children.is_empty();
            if !leaves && nv > 0 {
                let nc = self.gathered.len() / d;
                self.f_node
                    .forward(nc, &self.gathered, &mut self.scratch, &mut self.fmsg);
                // Per-parent segment sums (children are grouped per
                // parent, in parent order — the invariant the tape's
                // `segment_sum` over `child_counts` reads too).
                self.summed.clear();
                self.summed.resize(nv * d, 0.0);
                let mut srow = 0usize;
                for (k, &(i, _)) in self.picked.iter().enumerate() {
                    let cnt = level.child_counts[i as usize] as usize;
                    let acc = &mut self.summed[k * d..(k + 1) * d];
                    for msg in self.fmsg[srow * d..(srow + cnt) * d].chunks_exact(d) {
                        for (a, v) in acc.iter_mut().zip(msg) {
                            *a += v;
                        }
                    }
                    srow += cnt;
                }
                debug_assert_eq!(srow, nc, "child segments must cover the gather");
                if self.two_level {
                    self.g_node
                        .forward(nv, &self.summed, &mut self.scratch, &mut self.agg);
                } else {
                    std::mem::swap(&mut self.agg, &mut self.summed);
                }
            }
            // e_v = g(Σ f(e_c)) + p_v; for a leaf the message is the
            // zero vector, so g(0) + p_v (or just p_v single-level).
            for (k, &(i, row)) in self.picked.iter().enumerate() {
                let (v, row) = (level.nodes[i as usize], row as usize);
                let prow = &self.p[row * d..(row + 1) * d];
                let dst = &mut nodes[v * d..(v + 1) * d];
                if !leaves {
                    let arow = &self.agg[k * d..(k + 1) * d];
                    for ((o, av), pv) in dst.iter_mut().zip(arow).zip(prow) {
                        *o = av + pv;
                    }
                } else if self.two_level {
                    for ((o, gz), pv) in dst.iter_mut().zip(&self.g_zero).zip(prow) {
                        *o = gz + pv;
                    }
                } else {
                    dst.copy_from_slice(prow);
                }
            }
        }

        // Job summaries: y_i = g2(Σ_{v ∈ G_i} f2(e_v)); a job's nodes
        // are contiguous in original order.
        let nd = self.dirty.len();
        self.xin.clear();
        for &ji in &self.dirty {
            let job = &s.jobs[ji as usize];
            self.xin.extend_from_slice(
                &nodes[job.node_offset * d..(job.node_offset + job.num_nodes) * d],
            );
        }
        self.f_job
            .forward(m, &self.xin, &mut self.scratch, &mut self.fj);
        self.jsum.clear();
        self.jsum.resize(nd * d, 0.0);
        let mut srow = 0usize;
        for (k, &ji) in self.dirty.iter().enumerate() {
            let cnt = s.jobs[ji as usize].num_nodes;
            let acc = &mut self.jsum[k * d..(k + 1) * d];
            for row in self.fj[srow * d..(srow + cnt) * d].chunks_exact(d) {
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            srow += cnt;
        }
        if self.two_level {
            self.g_job
                .forward(nd, &self.jsum, &mut self.scratch, &mut self.y);
        } else {
            std::mem::swap(&mut self.y, &mut self.jsum);
        }
        self.f_glob
            .forward(nd, &self.y, &mut self.scratch, &mut self.fg);
        for (k, &ji) in self.dirty.iter().enumerate() {
            let ji = ji as usize;
            self.memo.jobs[ji * d..(ji + 1) * d].copy_from_slice(&self.y[k * d..(k + 1) * d]);
            self.memo.fglob[ji * d..(ji + 1) * d].copy_from_slice(&self.fg[k * d..(k + 1) * d]);
        }
    }

    /// Embedding row of node `v` (original node order) from the last
    /// [`forward`](Self::forward).
    pub fn node_row(&self, v: usize) -> &[f32] {
        &self.memo.nodes[v * self.d..(v + 1) * self.d]
    }

    /// Summary row of job `i` from the last forward.
    pub fn job_row(&self, i: usize) -> &[f32] {
        &self.memo.jobs[i * self.d..(i + 1) * self.d]
    }

    /// The global summary row from the last forward.
    pub fn global_row(&self) -> &[f32] {
        &self.glob[..self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::DagTopology;
    use decima_nn::{Tape, Tensor};
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
        let mut rng = SmallRng::seed_from_u64(9);
        let cfg = crate::encoder::GnnConfig {
            feat_dim: 3,
            embed_dim: 4,
            hidden: vec![8],
            two_level,
        };
        let enc = GnnEncoder::new(cfg, &mut store, &mut rng);
        (enc, store)
    }

    fn assert_close(fast: &[f32], tape: &[f64], what: &str) {
        assert_eq!(fast.len(), tape.len(), "{what}: length");
        for (a, b) in fast.iter().zip(tape) {
            assert!(
                (*a as f64 - b).abs() <= 1e-4 * b.abs().max(1.0),
                "{what}: fast {a} vs tape {b}"
            );
        }
    }

    #[test]
    fn fast_forward_matches_tape() {
        for two_level in [true, false] {
            let (enc, store) = encoder(two_level);
            let g = toy_input();
            let mut tape = Tape::new();
            let e = enc.forward(&mut tape, &store, &g);
            let mut fast = InferEncoder::pack(&enc, &store).unwrap();
            fast.forward(&g);
            for v in 0..6 {
                assert_close(
                    fast.node_row(v),
                    tape.value(e.nodes).row_slice(v),
                    "node emb",
                );
            }
            for i in 0..2 {
                assert_close(fast.job_row(i), tape.value(e.jobs).row_slice(i), "job emb");
            }
            assert_close(
                fast.global_row(),
                tape.value(e.global).row_slice(0),
                "global emb",
            );
        }
    }

    #[test]
    fn plan_cache_is_identity_keyed() {
        let (enc, store) = encoder(true);
        let mut fast = InferEncoder::pack(&enc, &store).unwrap();
        let g1 = toy_input();
        fast.forward(&g1);
        let first = fast.global_row().to_vec();
        // Same structure Arc, same result; a fresh structure, same result.
        let g1b = GraphInput::with_structure(Arc::clone(&g1.structure), g1.features.clone());
        fast.forward(&g1b);
        assert_eq!(fast.global_row(), &first[..]);
        let g2 = toy_input();
        fast.forward(&g2);
        assert_eq!(fast.global_row(), &first[..]);
    }

    #[test]
    fn single_node_job() {
        let (enc, store) = encoder(true);
        let d = DagTopology::single();
        let f = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let g = GraphInput::new(&[&d], &[f]);
        let mut tape = Tape::new();
        let e = enc.forward(&mut tape, &store, &g);
        let mut fast = InferEncoder::pack(&enc, &store).unwrap();
        fast.forward(&g);
        assert_close(fast.node_row(0), tape.value(e.nodes).row_slice(0), "node");
        assert_close(fast.global_row(), tape.value(e.global).row_slice(0), "glob");
    }
}
