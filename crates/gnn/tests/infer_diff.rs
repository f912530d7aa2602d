//! Differential property tests: the tape-free [`InferEncoder`] against
//! the tape [`GnnEncoder`] over random job DAGs, random features, and
//! random (He-initialised) weights.
//!
//! The contract matches `crates/nn/tests/infer_diff.rs`: every node,
//! job, and global embedding agrees within 1e-4 relative error against
//! `max(1, |tape value|)`.
//!
//! The encoder's per-job memos have a stricter contract of their own: a
//! warm encoder, whatever it has seen before, must produce the **bits**
//! a freshly packed (cold) encoder produces on the same input. The
//! second half of this file drives that through random edit scripts and
//! through the two ways a memo could be handed to the wrong job.

use decima_core::{DagTopology, JobBuilder, JobId, JobSpec, StageSpec};
use decima_gnn::{GnnConfig, GnnEncoder, GraphInput, GraphStructure, InferEncoder};
use decima_nn::{ParamStore, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random DAG on `n` nodes: each forward edge (i, j), i < j, is kept
/// with probability `density`.
fn random_dag(rng: &mut SmallRng, n: usize, density: f64) -> DagTopology {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rng.gen_bool(density) {
                edges.push((i, j));
            }
        }
    }
    DagTopology::new(n, &edges).expect("forward edges form a DAG")
}

struct Case {
    enc: GnnEncoder,
    store: ParamStore,
    input: GraphInput,
    num_nodes: usize,
    num_jobs: usize,
}

/// A random encoder; its feature width is `enc.cfg().feat_dim`.
fn random_encoder(rng: &mut SmallRng) -> (GnnEncoder, ParamStore) {
    let cfg = GnnConfig {
        feat_dim: rng.gen_range(2..5),
        embed_dim: rng.gen_range(2..6),
        hidden: vec![rng.gen_range(3..10)],
        two_level: rng.gen_bool(0.5),
    };
    let mut store = ParamStore::new();
    let enc = GnnEncoder::new(cfg, &mut store, rng);
    (enc, store)
}

/// Builds a random encoder + multi-job graph input from one seed.
fn random_case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (enc, store) = random_encoder(&mut rng);
    let feat_dim = enc.cfg().feat_dim;

    let num_jobs = rng.gen_range(1..4);
    let mut dags = Vec::with_capacity(num_jobs);
    let mut feats = Vec::with_capacity(num_jobs);
    let mut num_nodes = 0;
    for _ in 0..num_jobs {
        let n = rng.gen_range(1..8);
        num_nodes += n;
        let density = rng.gen_range(0.2..0.8);
        dags.push(random_dag(&mut rng, n, density));
        feats.push(Tensor::from_vec(
            n,
            feat_dim,
            (0..n * feat_dim)
                .map(|_| rng.gen_range(-1.5..1.5))
                .collect(),
        ));
    }
    let refs: Vec<&DagTopology> = dags.iter().collect();
    let input = GraphInput::new(&refs, &feats);
    Case {
        enc,
        store,
        input,
        num_nodes,
        num_jobs,
    }
}

/// Max |fast − tape| / max(1, |tape|) over every node, job, and global
/// embedding of the case.
fn case_divergence(case: &Case) -> f64 {
    let mut tape = Tape::new();
    let e = case.enc.forward(&mut tape, &case.store, &case.input);
    let mut fast = InferEncoder::pack(&case.enc, &case.store).expect("leaky-relu gnn packs");
    fast.forward(&case.input);

    let rel = |fast_row: &[f32], tape_row: &[f64]| {
        assert_eq!(fast_row.len(), tape_row.len());
        fast_row
            .iter()
            .zip(tape_row)
            .map(|(a, b)| (*a as f64 - b).abs() / b.abs().max(1.0))
            .fold(0.0, f64::max)
    };

    let mut worst = 0.0f64;
    for v in 0..case.num_nodes {
        worst = worst.max(rel(fast.node_row(v), tape.value(e.nodes).row_slice(v)));
    }
    for i in 0..case.num_jobs {
        worst = worst.max(rel(fast.job_row(i), tape.value(e.jobs).row_slice(i)));
    }
    worst.max(rel(fast.global_row(), tape.value(e.global).row_slice(0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random (weights, DAG shapes, features) ⇒ fast sweep within 1e-4
    /// relative error of the tape sweep on every embedding row.
    #[test]
    fn fast_gnn_matches_tape_within_tolerance(seed in 0u64..1_000_000) {
        let case = random_case(seed);
        let err = case_divergence(&case);
        prop_assert!(
            err <= 1e-4,
            "divergence {err:.3e} exceeds 1e-4 (seed {seed}, {} nodes, {} jobs)",
            case.num_nodes,
            case.num_jobs
        );
    }

    /// One warm encoder driven through a random script of the edits an
    /// episode makes — some jobs' rows move, a global column moves, a
    /// job leaves, a job arrives, nothing moves — equals, bit for bit
    /// and at every step, a cold encoder that sees only that step.
    #[test]
    fn warm_encoder_matches_cold_encoder_through_edit_scripts(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (enc, store) = random_encoder(&mut rng);
        let feat_dim = enc.cfg().feat_dim;
        let mut next_id = 0u32;
        let mut admit = |rng: &mut SmallRng| {
            let n = rng.gen_range(1..8);
            let density = rng.gen_range(0.2..0.8);
            next_id += 1;
            LiveJob {
                spec: spec_with_dag(next_id, &random_dag(rng, n, density)),
                rows: (0..n * feat_dim).map(|_| rng.gen_range(-1.5..1.5)).collect(),
            }
        };
        let mut live: Vec<LiveJob> = (0..rng.gen_range(1..5)).map(|_| admit(&mut rng)).collect();
        let mut structure = structure_of(&live);
        let mut warm = InferEncoder::pack(&enc, &store).unwrap();
        for step in 0..24 {
            let edit = if step == 0 { Edit::Repeat } else { Edit::random(&mut rng) };
            match edit {
                Edit::SomeJobs => {
                    for job in &mut live {
                        if rng.gen_bool(0.4) {
                            let at = rng.gen_range(0..job.rows.len());
                            job.rows[at] += 0.25;
                        }
                    }
                }
                Edit::OneColumn => {
                    let col = rng.gen_range(0..feat_dim);
                    let to = rng.gen_range(-1.5..1.5);
                    for job in &mut live {
                        job.rows.iter_mut().skip(col).step_by(feat_dim).for_each(|x| *x = to);
                    }
                }
                Edit::Drop if live.len() > 1 => {
                    live.remove(rng.gen_range(0..live.len()));
                    structure = structure_of(&live);
                }
                Edit::Admit => {
                    let job = admit(&mut rng);
                    live.insert(rng.gen_range(0..=live.len()), job);
                    structure = structure_of(&live);
                }
                // Same jobs under a structure `Arc` of their own, as
                // after a `GraphCache` eviction.
                Edit::Restructure => structure = structure_of(&live),
                Edit::Drop | Edit::Repeat => {}
            }
            let rows: Vec<f64> = live.iter().flat_map(|j| j.rows.iter().copied()).collect();
            let input = GraphInput::with_structure(
                Arc::clone(&structure),
                Tensor::from_vec(structure.num_nodes, feat_dim, rows),
            );
            warm.forward(&input);
            let mut cold = InferEncoder::pack(&enc, &store).unwrap();
            cold.forward(&input);
            prop_assert!(
                same_bits(&warm, &cold, &structure),
                "warm and cold encoders differ at step {step} after {edit:?} (seed {seed})"
            );
            prop_assert_eq!(warm.memo_len(), live.len());
        }
    }
}

/// One live job of an edit script: its identity and its feature rows.
struct LiveJob {
    spec: Arc<JobSpec>,
    rows: Vec<f64>,
}

#[derive(Clone, Copy, Debug)]
enum Edit {
    SomeJobs,
    OneColumn,
    Drop,
    Admit,
    Restructure,
    Repeat,
}

impl Edit {
    fn random(rng: &mut SmallRng) -> Edit {
        const ALL: [Edit; 6] = [
            Edit::SomeJobs,
            Edit::OneColumn,
            Edit::Drop,
            Edit::Admit,
            Edit::Restructure,
            Edit::Repeat,
        ];
        ALL[rng.gen_range(0..ALL.len())]
    }
}

/// A job spec whose DAG is `dag` (stage attributes play no part here).
fn spec_with_dag(id: u32, dag: &DagTopology) -> Arc<JobSpec> {
    let mut b = JobBuilder::new(JobId(id));
    for _ in 0..dag.len() {
        b.stage(StageSpec::simple(1, 1.0));
    }
    for (parent, child) in dag.edges() {
        b.edge(parent, child);
    }
    Arc::new(b.build().expect("a DAG's own edges are valid"))
}

fn structure_of(live: &[LiveJob]) -> Arc<GraphStructure> {
    Arc::new(GraphStructure::for_specs(live.iter().map(|j| &j.spec)))
}

/// Whether two encoders hold bit-identical node, job and global rows
/// for `s`.
fn same_bits(a: &InferEncoder, b: &InferEncoder, s: &GraphStructure) -> bool {
    let eq = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    (0..s.num_nodes).all(|v| eq(a.node_row(v), b.node_row(v)))
        && (0..s.num_jobs()).all(|i| eq(a.job_row(i), b.job_row(i)))
        && eq(a.global_row(), b.global_row())
}

/// A memo belongs to a job, not to a position or to a set of feature
/// rows: once a job has left, a different-shaped job that presents the
/// same number of identical rows must be computed afresh — even when
/// the departed job's spec has been dropped everywhere outside the
/// encoder, so that the allocator is free to hand its address on.
#[test]
fn a_departed_jobs_memo_never_serves_a_different_job() {
    let mut rng = SmallRng::seed_from_u64(21);
    let (enc, store) = random_encoder(&mut rng);
    let feat_dim = enc.cfg().feat_dim;
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let fan = DagTopology::new(3, &[(0, 1), (0, 2)]).unwrap();
    let rows: Vec<f64> = (0..3 * feat_dim).map(|i| 0.1 * i as f64 - 0.4).collect();
    let input_for = |dag: &DagTopology, id: u32| {
        let live = [LiveJob {
            spec: spec_with_dag(id, dag),
            rows: rows.clone(),
        }];
        // `live`, and with it this scope's `Arc<JobSpec>`, drops on
        // return: only the structure holds the spec from here on.
        GraphInput::with_structure(
            structure_of(&live),
            Tensor::from_vec(3, feat_dim, rows.clone()),
        )
    };
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward(&input_for(&chain, 0));
    // The first input — structure and spec — is gone; only the
    // encoder's memo still refers to the chain job.
    let second = input_for(&fan, 1);
    warm.forward(&second);
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward(&second);
    assert!(
        same_bits(&warm, &cold, &second.structure),
        "the fan job was served the chain job's memo"
    );
    assert_eq!(warm.memo_len(), 1, "the chain job's memo is gone");
}

/// Jobs of a structure built from bare DAGs have no identity, so their
/// memos serve that structure `Arc` only.
#[test]
fn structures_built_from_bare_dags_never_share_memos() {
    let mut rng = SmallRng::seed_from_u64(22);
    let (enc, store) = random_encoder(&mut rng);
    let feat_dim = enc.cfg().feat_dim;
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let fan = DagTopology::new(3, &[(0, 1), (0, 2)]).unwrap();
    let feats = || {
        Tensor::from_vec(
            3,
            feat_dim,
            (0..3 * feat_dim).map(|i| 0.2 * i as f64).collect(),
        )
    };
    let first = GraphInput::new(&[&chain], &[feats()]);
    let second = GraphInput::new(&[&fan], &[feats()]);
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward(&first);
    warm.forward(&second);
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward(&second);
    assert!(same_bits(&warm, &cold, &second.structure));
    // The same `Arc` again is the one case that does hit.
    warm.forward(&first);
    warm.forward(&first);
    cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward(&first);
    assert!(same_bits(&warm, &cold, &first.structure));
}

/// Deterministic worst-case sweep over a fixed 150-graph corpus,
/// logging the observed maximum divergence across all embeddings.
#[test]
fn worst_case_divergence_over_corpus() {
    let mut worst = 0.0f64;
    let mut worst_seed = 0u64;
    for seed in 500..650u64 {
        let case = random_case(seed);
        let err = case_divergence(&case);
        if err > worst {
            worst = err;
            worst_seed = seed;
        }
    }
    eprintln!("worst f32-vs-tape GNN divergence over 150 graphs: {worst:.3e} (seed {worst_seed})");
    assert!(worst <= 1e-4, "worst case {worst:.3e} exceeds the contract");
    assert!(worst > 0.0, "f32 sweep must differ from f64 somewhere");
}
