//! Splitting a policy decision into its layers, from the outside.
//!
//! The traced run keeps every 64th observation of a policy workload
//! ([`crate::timed::Timed`]). After the measured rounds, each kept
//! observation is written back into an [`Observation`] and pushed
//! through the same public steps a decision takes —
//! `GraphCache::structure_for` → `FeatureConfig::graph_input_cached` →
//! `InferEncoder::forward` → `InferSession::decide_greedy` — with a
//! stopwatch around each. All times are medians over the kept
//! observations.
//!
//! The policy's own encoder is `pub(crate)`, so the sweep alone is
//! timed on a **twin**: a `GnnEncoder::new` of the same configuration
//! packed by `InferEncoder::pack`. Its weights differ; the work per
//! node does not. Likewise `nn.f32_mlp_us` times an `F32Mlp` of the
//! node head's shape at the observed candidate batch.

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use decima_bench::factory::TrainedPolicy;
use decima_gnn::{GnnEncoder, GraphCache, InferEncoder};
use decima_nn::{Activation, F32Mlp, F32Scratch, Mlp, ParamStore, Tape};
use decima_policy::{InferSession, ReplayObs};
use decima_sim::Observation;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 * 1e-3
}

/// The twin encoder and its store (see the module docs).
fn twin_encoder(policy: &TrainedPolicy) -> Option<(GnnEncoder, ParamStore)> {
    let cfg = policy.policy.cfg.gnn.clone()?;
    let mut store = ParamStore::new();
    let enc = GnnEncoder::new(cfg, &mut store, &mut SmallRng::seed_from_u64(0));
    Some((enc, store))
}

/// An MLP of the node head's shape: `3·embed → hidden… → 1`.
fn twin_head(policy: &TrainedPolicy, store: &mut ParamStore) -> Option<Mlp> {
    let cfg = &policy.policy.cfg;
    let d = cfg.gnn.as_ref()?.embed_dim;
    let mut dims = vec![3 * d];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(1);
    Some(Mlp::new(
        store,
        "twin.q",
        &dims,
        Activation::LeakyRelu(0.2),
        &mut SmallRng::seed_from_u64(0),
    ))
}

/// Re-scores `kept` on the f32 lane and records the per-layer medians
/// (`gnn.*`, `policy.heads_us`, `nn.f32_mlp_us`, …) into `vals`.
pub fn rescore(policy: &TrainedPolicy, kept: &[ReplayObs], tr: &mut Tracer, vals: &mut Values) {
    let Some((twin, mut twin_store)) = twin_encoder(policy) else {
        return;
    };
    let Some(head) = twin_head(policy, &mut twin_store) else {
        return;
    };
    if kept.is_empty() {
        return;
    }
    tr.span("bench.rescore", 0, |tr| {
        let t0 = Instant::now();
        let packed_head = F32Mlp::pack(&head, &twin_store);
        vals.set("nn.pack_s", t0.elapsed().as_secs_f64());
        let (Some(mut enc), Some(packed_head), Some(mut session)) = (
            InferEncoder::pack(&twin, &twin_store),
            packed_head,
            InferSession::try_new(&policy.policy, &policy.store),
        ) else {
            return;
        };
        let feat = &policy.policy.cfg.feat;
        let cap = policy.policy.cfg.graph_cache_cap;
        let (mut cache, mut session_cache) = (GraphCache::with_cap(cap), GraphCache::with_cap(cap));
        let mut obs = Observation::default();
        let (mut scratch, mut head_in, mut head_out) =
            (F32Scratch::default(), Vec::new(), Vec::new());
        let mut last = None;
        let mut rebuilds = 0u64;
        let (mut t_feat, mut t_build, mut t_fwd, mut t_heads, mut t_mlp) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut nodes, mut levels, mut cands, mut limits) = (0u64, 0u64, 0u64, 0u64);
        for k in kept {
            k.write_into(&mut obs);
            // Structure: rebuilt only when the live job set changed.
            let t = Instant::now();
            let structure = cache.structure_for(&obs);
            let build = us(t);
            if !last.as_ref().is_some_and(|l| Arc::ptr_eq(l, &structure)) {
                rebuilds += 1;
                t_build.push(build);
            }
            last = Some(structure);
            // Features (structure now cached).
            let t = Instant::now();
            let graph = feat.graph_input_cached(&obs, &mut cache);
            let f = us(t);
            // The sweep, on the twin.
            let t = Instant::now();
            enc.forward(&graph);
            let s = us(t);
            // The whole decision, on the real policy.
            session_cache.structure_for(&obs);
            let t = Instant::now();
            let fd = session.decide_greedy(&policy.policy, &obs, &mut session_cache);
            let whole = us(t);
            // The node head alone, at this candidate batch.
            let c = obs.schedulable.len();
            head_in.clear();
            head_in.resize(c * packed_head.in_dim(), 0.5f32);
            let t = Instant::now();
            packed_head.forward(c, &head_in, &mut scratch, &mut head_out);
            t_mlp.push(us(t));

            t_feat.push(f);
            t_fwd.push(s);
            t_heads.push((whole - f - s).max(0.0));
            nodes += graph.num_nodes() as u64;
            levels += graph.structure.levels.len() as u64;
            cands += c as u64;
            limits += policy.policy.limit_values(&obs, fd.cand).len() as u64;
        }
        let n = kept.len() as u64;
        let total_ns = |us: &[f64]| (us.iter().sum::<f64>() * 1e3) as u64;
        tr.folded("gnn.features", 0, total_ns(&t_feat), n);
        tr.folded("gnn.infer", 0, total_ns(&t_fwd), n);
        tr.folded("policy.heads", 0, total_ns(&t_heads), n);
        let nf = n as f64;
        vals.set("gnn.features_us", median(&t_feat));
        vals.set(
            "gnn.structure_build_us",
            if t_build.is_empty() {
                0.0
            } else {
                median(&t_build)
            },
        );
        vals.set("gnn.structure_rebuild_share", rebuilds as f64 / nf);
        vals.set("gnn.infer_forward_us", median(&t_fwd));
        vals.set(
            "gnn.infer_ns_per_node",
            total_ns(&t_fwd) as f64 / (nodes as f64).max(1.0),
        );
        vals.set("gnn.nodes_mean", nodes as f64 / nf);
        vals.set("gnn.levels_mean", levels as f64 / nf);
        vals.set("policy.heads_us", median(&t_heads));
        vals.set("nn.f32_mlp_us", median(&t_mlp));
        vals.set("policy.candidates_mean", cands as f64 / nf);
        vals.set("policy.limit_values_mean", limits as f64 / nf);
    });
}

/// Re-scores `kept` on the f64 tape lane (what a gradient pass pays per
/// step) and records `gnn.tape_forward_us`, `policy.forward_nodes_us`,
/// `policy.forward_limits_us` and `policy.replay_write_us`.
pub fn rescore_tape(
    policy: &TrainedPolicy,
    kept: &[ReplayObs],
    tr: &mut Tracer,
    vals: &mut Values,
) {
    let Some((twin, twin_store)) = twin_encoder(policy) else {
        return;
    };
    if kept.is_empty() {
        return;
    }
    tr.span("bench.rescore_tape", 0, |_| {
        let feat = &policy.policy.cfg.feat;
        let cap = policy.policy.cfg.graph_cache_cap;
        let (mut cache, mut policy_cache) = (GraphCache::with_cap(cap), GraphCache::with_cap(cap));
        let mut obs = Observation::default();
        let (mut t_write, mut t_enc, mut t_nodes, mut t_limits) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for k in kept {
            let t = Instant::now();
            k.write_into(&mut obs);
            let again = ReplayObs::from_observation(&obs);
            t_write.push(us(t));
            std::hint::black_box(again);

            let graph = feat.graph_input_cached(&obs, &mut cache);
            let t = Instant::now();
            let mut tape = Tape::new();
            std::hint::black_box(twin.forward(&mut tape, &twin_store, &graph));
            t_enc.push(us(t));

            policy_cache.structure_for(&obs);
            let t = Instant::now();
            let mut tape = Tape::new();
            let fwd = policy.policy.forward_nodes_cached(
                &mut tape,
                &policy.store,
                &obs,
                &mut policy_cache,
            );
            t_nodes.push(us(t));
            let cand = fwd.cands[0];
            let t = Instant::now();
            std::hint::black_box(policy.policy.forward_limits(
                &mut tape,
                &policy.store,
                &obs,
                &fwd,
                cand,
            ));
            t_limits.push(us(t));
        }
        vals.set("policy.replay_write_us", median(&t_write));
        vals.set("gnn.tape_forward_us", median(&t_enc));
        vals.set("policy.forward_nodes_us", median(&t_nodes));
        vals.set("policy.forward_limits_us", median(&t_limits));
    });
}
