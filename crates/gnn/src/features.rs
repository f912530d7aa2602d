//! Raw state → per-node feature vectors (§6.1 "State observations").
//!
//! The paper's per-node feature vector `x_v` contains: (i) the number of
//! tasks remaining in the stage, (ii) the average task duration, (iii) the
//! number of executors currently working on the node, (iv) the number of
//! available executors, and (v) whether available executors are local to
//! the job. We add the derived "remaining work" product (tasks × duration,
//! which the released implementation also feeds) and an optional
//! interarrival-time hint (the Table 2 generalization experiment), for a
//! fixed width of [`FEAT_DIM`] = 7.
//!
//! Appendix J's incomplete-information experiment is reproduced by
//! `include_duration = false`, which zeroes features (ii) and the derived
//! work term while keeping everything else.
//!
//! A row is computed from three small **keys**, never from the
//! observation directly: the node's `NodeKey` (remaining tasks,
//! `executors_on`, duration bits), its job's `local_free > 0`, and the
//! decision's `GlobalKey` (`free_total`, `total_executors`, the
//! [`FeatureConfig`]). Together they are the features' whole read set,
//! which is what lets `InferEncoder::forward_observation` decide from
//! the keys alone which jobs' rows — and embeddings — a decision has to
//! recompute. A new feature that reads another field has to add it to a
//! key to get at it.

use crate::graph::{GraphInput, GraphStructure};
use decima_nn::Tensor;
use decima_sim::{NodeObs, Observation};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fixed feature width handed to the GNN.
pub const FEAT_DIM: usize = 7;

/// Normaliser of feature (i), remaining tasks. The feature scales are
/// fixed: a checkpoint records them (`policy.feat.*_scale`) and a
/// loader accepts no other value.
pub const TASK_SCALE: f64 = 100.0;
/// Normaliser of feature (ii), the average task duration in seconds.
pub const DUR_SCALE: f64 = 10.0;
/// Normaliser of the derived remaining-work term, in task-seconds.
pub const WORK_SCALE: f64 = 1000.0;

/// Feature-extraction configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Include task-duration-derived features (off for Appendix J).
    pub include_duration: bool,
    /// Optional workload interarrival-time hint in seconds (Table 2).
    pub iat_hint: Option<f64>,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            include_duration: true,
            iat_hint: None,
        }
    }
}

/// What a feature row reads of its own node — nothing else of a
/// [`NodeObs`] can move it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NodeKey {
    remaining_tasks: u32,
    executors_on: u32,
    /// `avg_task_duration`, as bits: keys compare bitwise.
    duration_bits: u64,
}

impl NodeKey {
    #[inline]
    pub(crate) fn of(n: &NodeObs) -> Self {
        NodeKey {
            remaining_tasks: n.remaining_tasks(),
            executors_on: n.executors_on,
            duration_bits: n.avg_task_duration.to_bits(),
        }
    }
}

/// What every feature row of a decision reads besides its node's
/// [`NodeKey`] and its job's `local_free > 0`: two cluster counts and
/// the configuration. Rows are computed *from* the keys
/// ([`GlobalKey::node_row`]), so the three keys together are the whole
/// read set of the features by construction — a feature cannot read a
/// field no key holds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GlobalKey {
    free_total: usize,
    total_executors: usize,
    cfg: FeatureConfig,
}

impl PartialEq for GlobalKey {
    /// Bitwise on the configuration's floats, like every key compare.
    fn eq(&self, other: &Self) -> bool {
        let bits = |c: &FeatureConfig| (c.include_duration, c.iat_hint.map(f64::to_bits));
        (self.free_total, self.total_executors) == (other.free_total, other.total_executors)
            && bits(&self.cfg) == bits(&other.cfg)
    }
}

impl GlobalKey {
    pub(crate) fn of(cfg: &FeatureConfig, obs: &Observation) -> Self {
        GlobalKey {
            free_total: obs.free_total,
            total_executors: obs.total_executors,
            cfg: *cfg,
        }
    }

    /// The feature row of one node, in `f64`.
    // `#[inline]` is load-bearing: called out of line from the per-job
    // loop in `infer.rs` this measured ≈70 ns a row against 3–4 ns
    // inlined, which erased the whole gain of building rows only for
    // the jobs that moved (docs/PERF.md "Codegen trap"). For the same
    // reason the per-job builder below lives here, next to it.
    #[inline]
    fn node_row(&self, local_free: bool, node: NodeKey) -> [f64; FEAT_DIM] {
        let cfg = &self.cfg;
        let m = self.total_executors.max(1) as f64;
        let tasks = node.remaining_tasks as f64;
        let dur = if cfg.include_duration {
            f64::from_bits(node.duration_bits)
        } else {
            0.0
        };
        [
            tasks / TASK_SCALE,
            dur / DUR_SCALE,
            tasks * dur / WORK_SCALE,
            node.executors_on as f64 / m,
            self.free_total as f64 / m,
            if local_free { 1.0 } else { 0.0 },
            cfg.iat_hint.map_or(0.0, |iat| iat / 100.0),
        ]
    }

    /// Appends one job's feature rows to `out` as `f32`: the `f64`
    /// arithmetic of [`node_row`](Self::node_row), then the cast — the
    /// bits [`FeatureConfig::graph_input_cached`] followed by the tensor
    /// entry's conversion gives.
    pub(crate) fn job_rows_f32(&self, local_free: bool, nodes: &[NodeKey], out: &mut Vec<f32>) {
        let at = out.len();
        out.resize(at + nodes.len() * FEAT_DIM, 0.0);
        for (dst, &node) in out[at..].chunks_exact_mut(FEAT_DIM).zip(nodes) {
            for (o, x) in dst.iter_mut().zip(self.node_row(local_free, node)) {
                *o = x as f32;
            }
        }
    }
}

impl FeatureConfig {
    /// Builds the batched [`GraphInput`] for every active job in `obs`,
    /// computing the graph structure fresh. Every production path uses
    /// [`FeatureConfig::graph_input_cached`]; this cache-free form stays
    /// as the reference of the differential suite
    /// `crates/gnn/tests/infer_diff.rs` (and of the stored-observation
    /// test in `decima-policy`'s `replay.rs`).
    pub fn graph_input(&self, obs: &Observation) -> GraphInput {
        let mut cache = GraphCache::default();
        self.graph_input_cached(obs, &mut cache)
    }

    /// Builds the [`GraphInput`] for `obs`, reusing `cache`'s
    /// [`GraphStructure`] when the active-job set is unchanged since the
    /// last call. Only the feature matrix is recomputed per decision.
    pub fn graph_input_cached(&self, obs: &Observation, cache: &mut GraphCache) -> GraphInput {
        let structure = cache.structure_for(obs);
        let mut features = Tensor::zeros(structure.num_nodes, FEAT_DIM);
        let glob = GlobalKey::of(self, obs);
        let mut rows = features.data_mut().chunks_exact_mut(FEAT_DIM);
        for job in &obs.jobs {
            for (n, dst) in job.nodes.iter().zip(&mut rows) {
                dst.copy_from_slice(&glob.node_row(job.local_free > 0, NodeKey::of(n)));
            }
        }
        GraphInput::with_structure(structure, features)
    }
}

/// Default maximum number of job-set entries [`GraphCache`] retains —
/// the one default: `GraphCache::default()` and both `PolicyConfig`
/// constructors use it.
///
/// Arrivals and finishes toggle the active-job set between a handful of
/// nearby configurations; a small LRU window captures those without
/// letting the cache grow with episode length. 16 rather than the
/// historical 8 because mix-shift drift episodes cycle through more than
/// 8 live job sets and thrash a narrower window
/// (`wider_cap_prevents_churn_on_deep_job_waves`); use
/// [`GraphCache::with_cap`] to widen it further.
pub const GRAPH_CACHE_CAP: usize = 16;

/// Caches the static [`GraphStructure`] across the decisions of one
/// episode, bounded by the *live* job set.
///
/// DAG shapes never change mid-episode, so a structure only needs
/// rebuilding when the *set* of active jobs changes (arrival/finish).
/// Entries key on the identity of each job's shared spec (`Arc`
/// pointer) plus its node count. Two mechanisms keep memory
/// proportional to concurrently-live jobs rather than total jobs
/// served over a long streaming episode:
///
/// 1. **Departed-job eviction** — jobs arrive exactly once, so an
///    entry whose key references a spec absent from the current
///    observation can never match again; it is dropped on the next
///    lookup that sees a different live set. (An entry's structure
///    holds its jobs' spec `Arc`s, so while the entry lives a pointer
///    in its key cannot alias a new job.)
/// 2. **LRU cap** — at most `cap` entries survive (default
///    [`GRAPH_CACHE_CAP`]), most-recently-used first.
///
/// The cache must still be [`cleared`](GraphCache::clear) at episode
/// boundaries (fresh episodes may reuse addresses).
pub struct GraphCache {
    /// Most-recently-used first.
    entries: Vec<(CacheKey, Arc<GraphStructure>)>,
    scratch_key: CacheKey,
    /// Maximum retained entries. The cap bounds memory only — it can
    /// never change what `structure_for` returns, only how often it
    /// rebuilds.
    cap: usize,
}

impl Default for GraphCache {
    fn default() -> Self {
        GraphCache::with_cap(GRAPH_CACHE_CAP)
    }
}

/// One (spec `Arc` pointer, node count) identity per active job, in
/// observation order.
type CacheKey = Vec<(usize, usize)>;

impl GraphCache {
    /// A cache retaining at most `cap` job-set entries (`cap` is clamped
    /// to ≥ 1 — a zero-capacity cache could not return the entry it just
    /// built).
    pub fn with_cap(cap: usize) -> Self {
        GraphCache {
            entries: Vec::new(),
            scratch_key: CacheKey::default(),
            cap: cap.max(1),
        }
    }

    /// The configured LRU capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Drops every cached structure (call between episodes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of job-set entries currently cached (≤ [`GraphCache::cap`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The structure for `obs`'s active jobs, rebuilt only when this
    /// exact job set has not been seen recently. Entries referencing
    /// jobs that have left the system are evicted whenever the live set
    /// differs from the last call's.
    pub fn structure_for(&mut self, obs: &Observation) -> Arc<GraphStructure> {
        let mut key = std::mem::take(&mut self.scratch_key);
        key.clear();
        key.extend(
            obs.jobs
                .iter()
                .map(|j| (Arc::as_ptr(&j.spec) as usize, j.nodes.len())),
        );

        // Same live set as the last call: nothing can have departed
        // since, so there is nothing to evict or reorder.
        if let Some((front, structure)) = self.entries.first() {
            if *front == key {
                let structure = Arc::clone(structure);
                self.scratch_key = key;
                return structure;
            }
        }

        let structure = if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            // Hit: move to front so the cap evicts least-recently-used.
            let hit = self.entries.remove(pos);
            let structure = Arc::clone(&hit.1);
            self.entries.insert(0, hit);
            structure
        } else {
            let built = Arc::new(GraphStructure::for_specs(obs.jobs.iter().map(|j| &j.spec)));
            self.entries.insert(0, (key.clone(), Arc::clone(&built)));
            built
        };

        // A key element absent from the live set belongs to a job that
        // retired (jobs arrive once), so the entry can never match again.
        self.entries
            .retain(|(k, _)| k.iter().all(|e| key.contains(e)));
        self.entries.truncate(self.cap);

        self.scratch_key = key;
        structure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::{ClusterSpec, JobBuilder, JobId, SimTime, StageSpec};
    use decima_sim::{SimConfig, Simulator};

    fn sample_obs() -> Observation {
        let mut b = JobBuilder::new(JobId(0));
        let a = b.stage(StageSpec::simple(4, 2.0));
        let c = b.stage(StageSpec::simple(2, 3.0));
        b.edge(a, c);
        let job = b.build().unwrap();
        let mut b2 = JobBuilder::new(JobId(1));
        b2.stage(StageSpec::simple(3, 1.0));
        let job2 = b2.arrival(SimTime::ZERO).build().unwrap();
        let sim = Simulator::new(
            ClusterSpec::homogeneous(10),
            vec![job, job2],
            SimConfig::default(),
        );
        // No events processed yet: the observation is empty of jobs.
        sim.observation_rebuilt()
    }

    #[test]
    fn empty_observation_is_empty_graph() {
        let obs = sample_obs();
        // Jobs have not "arrived" (no event processed), so no jobs.
        let g = FeatureConfig::default().graph_input(&obs);
        assert_eq!(g.num_jobs(), 0);
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn feature_rows_have_expected_values() {
        use decima_sim::{Action, Scheduler};
        struct Capture(Option<Observation>);
        impl Scheduler for Capture {
            fn decide(&mut self, obs: &Observation) -> Option<Action> {
                if self.0.is_none() {
                    self.0 = Some(obs.clone());
                }
                None
            }
        }
        let mut b = JobBuilder::new(JobId(0));
        let a = b.stage(StageSpec::simple(4, 2.0));
        let c = b.stage(StageSpec::simple(2, 3.0));
        b.edge(a, c);
        let job = b.build().unwrap();
        let sim = Simulator::new(
            ClusterSpec::homogeneous(10),
            vec![job],
            SimConfig::default().with_time_limit(1.0),
        );
        let mut cap = Capture(None);
        let _ = sim.run(&mut cap);
        let obs = cap.0.expect("scheduler invoked");

        let fc = FeatureConfig::default();
        let g = fc.graph_input(&obs);
        assert_eq!(g.num_nodes(), 2);
        // Node 0: 4 tasks of 2s.
        assert!((g.features.get(0, 0) - 4.0 / 100.0).abs() < 1e-12);
        assert!((g.features.get(0, 1) - 2.0 / 10.0).abs() < 1e-12);
        assert!((g.features.get(0, 2) - 8.0 / 1000.0).abs() < 1e-12);
        // All 10 executors free.
        assert!((g.features.get(0, 4) - 1.0).abs() < 1e-12);
        // No IAT hint by default.
        assert_eq!(g.features.get(0, 6), 0.0);

        // Appendix J: hidden durations zero features 1 and 2.
        let fc_blind = FeatureConfig {
            include_duration: false,
            ..fc
        };
        let g2 = fc_blind.graph_input(&obs);
        assert_eq!(g2.features.get(0, 1), 0.0);
        assert_eq!(g2.features.get(0, 2), 0.0);
        assert_eq!(g2.features.get(0, 0), g.features.get(0, 0));

        // Table 2: IAT hint occupies feature 6.
        let fc_hint = FeatureConfig {
            iat_hint: Some(45.0),
            ..fc
        };
        let g3 = fc_hint.graph_input(&obs);
        assert!((g3.features.get(0, 6) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn repeated_lookup_reuses_the_cached_structure() {
        use decima_sim::{Action, Scheduler};
        struct Capture(Option<Observation>);
        impl Scheduler for Capture {
            fn decide(&mut self, obs: &Observation) -> Option<Action> {
                if self.0.is_none() {
                    self.0 = Some(obs.clone());
                }
                None
            }
        }
        let mut b = JobBuilder::new(JobId(0));
        b.stage(StageSpec::simple(2, 1.0));
        let job = b.build().unwrap();
        let sim = Simulator::new(
            ClusterSpec::homogeneous(2),
            vec![job],
            SimConfig::default().with_time_limit(1.0),
        );
        let mut cap = Capture(None);
        let _ = sim.run(&mut cap);
        let obs = cap.0.expect("scheduler invoked");

        let mut cache = GraphCache::default();
        let a = cache.structure_for(&obs);
        let b = cache.structure_for(&obs);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same structure");
        assert_eq!(cache.len(), 1);
    }

    /// Under a long streaming workload the cache must track the *live*
    /// job set: entries for departed jobs are evicted, so the entry
    /// count stays far below the number of jobs served (and under the
    /// hard cap).
    #[test]
    fn cache_stays_bounded_by_live_jobs_under_churn() {
        use decima_sim::{Action, Scheduler};
        struct Probe {
            fc: FeatureConfig,
            cache: GraphCache,
            peak_entries: usize,
        }
        impl Scheduler for Probe {
            fn decide(&mut self, obs: &Observation) -> Option<Action> {
                let _ = self.fc.graph_input_cached(obs, &mut self.cache);
                self.peak_entries = self.peak_entries.max(self.cache.len());
                // Greedy FIFO: feed the first schedulable stage.
                let &(j, s) = obs.schedulable.first()?;
                Some(Action::new(obs.jobs[j].id, s, obs.jobs[j].alloc + 1))
            }
        }

        // 16 short jobs arriving every 2 s on 2 executors: only a couple
        // are ever live at once.
        let total_jobs = 16;
        let jobs: Vec<_> = (0..total_jobs)
            .map(|i| {
                let mut b = JobBuilder::new(JobId(i));
                b.stage(StageSpec::simple(2, 1.0));
                b.arrival(SimTime::from_secs(2.0 * i as f64))
                    .build()
                    .unwrap()
            })
            .collect();
        let sim = Simulator::new(ClusterSpec::homogeneous(2), jobs, SimConfig::default());
        let mut probe = Probe {
            fc: FeatureConfig::default(),
            cache: GraphCache::default(),
            peak_entries: 0,
        };
        let result = sim.run(&mut probe);
        assert_eq!(result.jcts().len(), total_jobs as usize);
        assert!(probe.peak_entries >= 1, "cache was exercised");
        assert!(
            probe.peak_entries <= GRAPH_CACHE_CAP,
            "cache peaked at {} entries, cap is {}",
            probe.peak_entries,
            GRAPH_CACHE_CAP
        );
        assert!(
            probe.peak_entries <= result.mem.live_jobs_peak as usize + 2,
            "cache peak {} not O(live): live-job peak was {}",
            probe.peak_entries,
            result.mem.live_jobs_peak
        );
    }

    fn single_stage_spec(i: u32) -> Arc<decima_core::JobSpec> {
        let mut b = JobBuilder::new(JobId(i));
        b.stage(StageSpec::simple(2, 1.0));
        Arc::new(b.build().unwrap())
    }

    /// Observation whose live set is exactly `specs` (only `jobs`
    /// matters to the cache key and structure build).
    fn live_obs(specs: &[Arc<decima_core::JobSpec>]) -> Observation {
        use decima_sim::{JobObs, JobProfile, NodeObs};
        Observation {
            jobs: specs
                .iter()
                .map(|s| JobObs {
                    id: s.id,
                    spec: Arc::clone(s),
                    profile: Arc::new(JobProfile::of(s)),
                    alloc: 0,
                    local_free: 0,
                    nodes: s
                        .stages
                        .iter()
                        .map(|st| NodeObs {
                            waiting: st.num_tasks,
                            running: 0,
                            finished: 0,
                            executors_on: 0,
                            in_flight: 0,
                            runnable: true,
                            completed: false,
                            avg_task_duration: 1.0,
                            mem_demand: 0.0,
                        })
                        .collect(),
                })
                .collect(),
            ..Observation::default()
        }
    }

    /// Eviction-churn regression for deep job waves (the mix-shift drift
    /// pattern): the live set grows past the historical 8-entry cap and
    /// then drains in arrival order, re-visiting each earlier prefix. A
    /// cap-8 cache has truncated the early prefixes and rebuilds them on
    /// the way down; the default of 16 (`GRAPH_CACHE_CAP`) keeps the whole
    /// wave hot. Either way the rebuilt structures are identical — the
    /// cap changes rebuild frequency, never outputs.
    #[test]
    fn wider_cap_prevents_churn_on_deep_job_waves() {
        const WAVE: usize = 12;
        let specs: Vec<_> = (0..WAVE as u32).map(single_stage_spec).collect();

        // Grow 1..=WAVE live jobs, then shrink back down, newest first.
        let depths: Vec<usize> = (1..=WAVE).chain((1..WAVE).rev()).collect();

        let run = |cap: usize| -> (usize, Vec<Arc<GraphStructure>>) {
            let mut cache = GraphCache::with_cap(cap);
            let mut grown: Vec<Option<Arc<GraphStructure>>> = vec![None; WAVE + 1];
            let mut rebuilds = 0;
            let mut returned = Vec::new();
            for &k in &depths {
                let s = cache.structure_for(&live_obs(&specs[..k]));
                match &grown[k] {
                    Some(first) if Arc::ptr_eq(first, &s) => {}
                    Some(_) => rebuilds += 1, // same key, fresh structure
                    None => grown[k] = Some(Arc::clone(&s)),
                }
                returned.push(s); // keep alive: no address reuse
            }
            (rebuilds, returned)
        };

        let (rebuilds_narrow, narrow) = run(8);
        let (rebuilds_wide, wide) = run(GRAPH_CACHE_CAP);

        // The shrink phase re-visits WAVE-1 prefixes; the narrow cache
        // truncated the oldest WAVE-8 of them during the grow phase.
        assert_eq!(rebuilds_narrow, WAVE - 8, "cap-8 must thrash the wave");
        assert_eq!(rebuilds_wide, 0, "cap-16 must keep the wave hot");

        // Identical outputs decision-for-decision regardless of cap.
        assert_eq!(narrow.len(), wide.len());
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.num_nodes, b.num_nodes);
            assert_eq!(a.perm, b.perm);
            assert_eq!(a.jobs.len(), b.jobs.len());
        }
    }

    /// One default backs `Default` (and `PolicyConfig`'s constructors);
    /// an explicit cap is taken as given and clamped at ≥ 1.
    #[test]
    fn cap_plumbing_and_clamp() {
        assert_eq!(GraphCache::default().cap(), GRAPH_CACHE_CAP);
        assert_eq!(GraphCache::with_cap(0).cap(), 1);
        assert_eq!(GraphCache::with_cap(8).cap(), 8);
    }
}
