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
//! second half of this file drives the observation entry a decision
//! takes through random edit scripts of observations — against a cold
//! observation entry and against the cold reference sweep
//! (`InferEncoder::forward` on the feature matrix), with calls through
//! that reference thrown in — through the two ways a memo could be
//! handed to the wrong job, and through the read set field by field; and
//! it shows the reference sweep reads no memo.

use decima_core::{DagTopology, JobBuilder, JobId, JobSpec, SimTime, StageSpec};
use decima_gnn::{
    FeatureConfig, GnnConfig, GnnEncoder, GraphInput, GraphStructure, InferEncoder, FEAT_DIM,
};
use decima_nn::{ParamStore, Tape, Tensor};
use decima_sim::{JobObs, JobProfile, NodeObs, Observation};
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
    let feat_dim = rng.gen_range(2..5);
    random_encoder_of_width(rng, feat_dim)
}

fn random_encoder_of_width(rng: &mut SmallRng, feat_dim: usize) -> (GnnEncoder, ParamStore) {
    let cfg = GnnConfig {
        feat_dim,
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

    /// The observation entry, driven through a random script of what an
    /// episode does to an observation: at every step the warm encoder
    /// holds the bits of a cold encoder on the same entry *and* of a
    /// cold encoder fed the feature matrix through the tensor entry —
    /// including right after the warm one was itself called through the
    /// tensor entry.
    #[test]
    fn observation_entry_matches_cold_and_tensor_entries_through_edit_scripts(
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
        let feat = FeatureConfig {
            include_duration: rng.gen_bool(0.8),
            iat_hint: rng.gen_bool(0.3).then(|| rng.gen_range(10.0..90.0)),
        };
        let mut next_id = 0u32;
        let mut admit = |rng: &mut SmallRng| {
            let n = rng.gen_range(1..8);
            let density = rng.gen_range(0.2..0.8);
            next_id += 1;
            let spec = spec_with_dag(next_id, &random_dag(rng, n, density));
            random_job_obs(rng, spec)
        };
        let mut obs = Observation {
            total_executors: rng.gen_range(1..40),
            free_total: rng.gen_range(0..10),
            jobs: (0..rng.gen_range(1..5)).map(|_| admit(&mut rng)).collect(),
            ..Observation::default()
        };
        let mut structure = structure_of_obs(&obs);
        let mut warm = InferEncoder::pack(&enc, &store).unwrap();
        // Every (free_total, total_executors) the script has decided on,
        // for the edit that returns to one of them.
        let mut counts_seen: Vec<(usize, usize)> = Vec::new();
        for step in 0..24 {
            let edit = if step == 0 { ObsEdit::Repeat } else { ObsEdit::random(&mut rng) };
            match edit {
                ObsEdit::Tasks => {
                    for job in &mut obs.jobs {
                        if rng.gen_bool(0.4) {
                            let at = rng.gen_range(0..job.nodes.len());
                            let node = &mut job.nodes[at];
                            if node.waiting > 0 && rng.gen_bool(0.5) {
                                node.waiting -= 1;
                            } else {
                                node.running += 1;
                            }
                        }
                    }
                }
                ObsEdit::ExecutorsOn => {
                    let job = rng.gen_range(0..obs.jobs.len());
                    let at = rng.gen_range(0..obs.jobs[job].nodes.len());
                    obs.jobs[job].nodes[at].executors_on += 1;
                }
                ObsEdit::LocalFree => {
                    let job = rng.gen_range(0..obs.jobs.len());
                    obs.jobs[job].local_free = 1 - obs.jobs[job].local_free.min(1);
                }
                ObsEdit::FreeTotal => obs.free_total = rng.gen_range(0..10),
                ObsEdit::TotalExecutors => obs.total_executors = rng.gen_range(1..40),
                // Back to earlier cluster counts: a memo parked under
                // them is taken back, with whatever moved since.
                ObsEdit::ReturnCounts => {
                    let at = rng.gen_range(0..counts_seen.len());
                    (obs.free_total, obs.total_executors) = counts_seen[at];
                }
                ObsEdit::Retire if obs.jobs.len() > 1 => {
                    obs.jobs.remove(rng.gen_range(0..obs.jobs.len()));
                    structure = structure_of_obs(&obs);
                }
                ObsEdit::Admit => {
                    let job = admit(&mut rng);
                    obs.jobs.insert(rng.gen_range(0..=obs.jobs.len()), job);
                    structure = structure_of_obs(&obs);
                }
                ObsEdit::Restructure => structure = structure_of_obs(&obs),
                // The warm encoder is called through the other entry,
                // on this observation's features scaled — so the memos
                // it leaves behind are wrong for the observation.
                ObsEdit::TensorCall => {
                    let g = feat.graph_input(&obs);
                    let scaled = Tensor::from_vec(
                        structure.num_nodes,
                        FEAT_DIM,
                        g.features.data().iter().map(|x| x * 0.5 + 0.125).collect(),
                    );
                    let input = GraphInput::with_structure(Arc::clone(&structure), scaled);
                    warm.forward(&input);
                    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
                    cold.forward(&input);
                    prop_assert!(
                        same_bits(&warm, &cold, &structure),
                        "tensor entry after the observation entry differs from a cold one at \
                         step {step} (seed {seed})"
                    );
                }
                ObsEdit::Retire | ObsEdit::Repeat => {}
            }
            counts_seen.push((obs.free_total, obs.total_executors));
            warm.forward_observation(&feat, &obs, &structure);
            let mut cold = InferEncoder::pack(&enc, &store).unwrap();
            cold.forward_observation(&feat, &obs, &structure);
            prop_assert!(
                same_bits(&warm, &cold, &structure),
                "warm and cold observation entries differ at step {step} after {edit:?} \
                 (seed {seed})"
            );
            let mut tensor = InferEncoder::pack(&enc, &store).unwrap();
            tensor.forward(&feat.graph_input(&obs));
            prop_assert!(
                same_bits(&warm, &tensor, &structure),
                "observation and tensor entries differ at step {step} after {edit:?} \
                 (seed {seed})"
            );
            prop_assert_eq!(warm.memo_len(), obs.jobs.len());
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum ObsEdit {
    Tasks,
    ExecutorsOn,
    LocalFree,
    FreeTotal,
    TotalExecutors,
    ReturnCounts,
    Retire,
    Admit,
    Restructure,
    TensorCall,
    Repeat,
}

impl ObsEdit {
    fn random(rng: &mut SmallRng) -> ObsEdit {
        const ALL: [ObsEdit; 11] = [
            ObsEdit::Tasks,
            ObsEdit::ExecutorsOn,
            ObsEdit::LocalFree,
            ObsEdit::FreeTotal,
            ObsEdit::TotalExecutors,
            ObsEdit::ReturnCounts,
            ObsEdit::Retire,
            ObsEdit::Admit,
            ObsEdit::Restructure,
            ObsEdit::TensorCall,
            ObsEdit::Repeat,
        ];
        ALL[rng.gen_range(0..ALL.len())]
    }
}

/// A job observation over `spec` with random per-stage state.
fn random_job_obs(rng: &mut SmallRng, spec: Arc<JobSpec>) -> JobObs {
    JobObs {
        id: spec.id,
        profile: Arc::new(JobProfile::of(&spec)),
        alloc: rng.gen_range(0..4),
        local_free: rng.gen_range(0..2),
        nodes: spec
            .stages
            .iter()
            .map(|_| NodeObs {
                waiting: rng.gen_range(0..50),
                running: rng.gen_range(0..5),
                finished: rng.gen_range(0..20),
                executors_on: rng.gen_range(0..5),
                in_flight: rng.gen_range(0..3),
                runnable: rng.gen_bool(0.5),
                completed: false,
                avg_task_duration: rng.gen_range(0.1..30.0),
                mem_demand: 0.0,
            })
            .collect(),
        spec,
    }
}

fn structure_of_obs(obs: &Observation) -> Arc<GraphStructure> {
    Arc::new(GraphStructure::for_specs(obs.jobs.iter().map(|j| &j.spec)))
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

/// An observation of one job over `dag` whose node rows are drawn from
/// `seed` alone: two such observations present the same keys whatever
/// their DAGs.
fn one_job_obs(dag: &DagTopology, id: u32, seed: u64) -> Observation {
    let spec = spec_with_dag(id, dag);
    Observation {
        total_executors: 12,
        free_total: 3,
        jobs: vec![random_job_obs(&mut SmallRng::seed_from_u64(seed), spec)],
        ..Observation::default()
    }
}

/// A memo belongs to a job, not to a position or to a set of keys: once
/// a job has left, a different-shaped job that presents the same number
/// of identical keys must be computed afresh — even when the departed
/// job's spec has been dropped everywhere outside the encoder, so that
/// the allocator is free to hand its address on.
#[test]
fn a_departed_jobs_memo_never_serves_a_different_job() {
    let mut rng = SmallRng::seed_from_u64(21);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig::default();
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let fan = DagTopology::new(3, &[(0, 1), (0, 2)]).unwrap();
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    {
        let obs = one_job_obs(&chain, 0, 5);
        warm.forward_observation(&feat, &obs, &structure_of_obs(&obs));
    }
    // The first observation — structure and spec — is gone; only the
    // encoder's memo still refers to the chain job.
    let obs = one_job_obs(&fan, 1, 5);
    let structure = structure_of_obs(&obs);
    warm.forward_observation(&feat, &obs, &structure);
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward_observation(&feat, &obs, &structure);
    assert!(
        same_bits(&warm, &cold, &structure),
        "the fan job was served the chain job's memo"
    );
    assert_eq!(warm.memo_len(), 1, "the chain job's memo is gone");
}

/// Jobs of a structure built from bare DAGs have no identity, so their
/// memos serve that structure `Arc` only.
#[test]
fn structures_built_from_bare_dags_never_share_memos() {
    let mut rng = SmallRng::seed_from_u64(22);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig::default();
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let fan = DagTopology::new(3, &[(0, 1), (0, 2)]).unwrap();
    let obs = one_job_obs(&chain, 0, 6);
    let first = Arc::new(GraphStructure::new(&[&chain]));
    let second = Arc::new(GraphStructure::new(&[&fan]));
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward_observation(&feat, &obs, &first);
    warm.forward_observation(&feat, &obs, &second);
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward_observation(&feat, &obs, &second);
    assert!(same_bits(&warm, &cold, &second));
    // The same `Arc` again is the one case that does hit.
    warm.forward_observation(&feat, &obs, &first);
    warm.forward_observation(&feat, &obs, &first);
    assert_eq!(warm.dirty_jobs(), 0, "the second call on one Arc hits");
    cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward_observation(&feat, &obs, &first);
    assert!(same_bits(&warm, &cold, &first));
}

/// The tensor entry is the cold reference sweep: it computes every job
/// whatever ran before, and leaves no key behind, so the observation
/// call after it recomputes every job too — here over memos that hold
/// another feature matrix's embeddings, which a kept key would serve.
#[test]
fn the_tensor_entry_reads_no_memo() {
    let mut rng = SmallRng::seed_from_u64(24);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig::default();
    let jobs = (0..3)
        .map(|i| {
            let dag = random_dag(&mut rng, 4, 0.5);
            random_job_obs(&mut rng, spec_with_dag(i, &dag))
        })
        .collect();
    let obs = Observation {
        total_executors: 12,
        free_total: 3,
        jobs,
        ..Observation::default()
    };
    let structure = structure_of_obs(&obs);
    let g = feat.graph_input(&obs);
    let scaled = g.features.data().iter().map(|x| x * 0.5 + 0.125);
    let input = GraphInput::with_structure(
        Arc::clone(&structure),
        Tensor::from_vec(structure.num_nodes, FEAT_DIM, scaled.collect()),
    );
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward_observation(&feat, &obs, &structure);
    for call in 0..2 {
        warm.forward(&input);
        assert_eq!(warm.dirty_jobs(), 3, "tensor call {call}");
    }
    warm.forward_observation(&feat, &obs, &structure);
    assert_eq!(warm.dirty_jobs(), 3, "a tensor call leaves no key behind");
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward_observation(&feat, &obs, &structure);
    assert!(same_bits(&warm, &cold, &structure));
}

/// The observation entry's keys are the features' read set, no more and
/// no less: moving any one field a feature row reads recomputes the
/// jobs that read it (one job for a node or job field, all of them for
/// a cluster count or the configuration) to the bits a cold encoder
/// gives, and moving a field no feature reads recomputes nothing.
/// Moving it back recomputes the one job again for a node or job
/// field, and nothing for a decision-wide one: the memo computed under
/// the old decision-wide key was parked, and is taken back.
#[test]
fn the_observation_entry_recomputes_exactly_what_the_features_read() {
    type Edit<'a> = &'a dyn Fn(&mut Observation);
    let mut rng = SmallRng::seed_from_u64(23);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig {
        iat_hint: Some(45.0),
        ..FeatureConfig::default()
    };
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let base = Observation {
        total_executors: 20,
        free_total: 4,
        jobs: (0..3)
            .map(|i| random_job_obs(&mut rng, spec_with_dag(i, &chain)))
            .collect(),
        ..Observation::default()
    };
    let structure = structure_of_obs(&base);
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward_observation(&feat, &base, &structure);
    assert_eq!(warm.dirty_jobs(), 3, "a cold encoder computes every job");

    // `want` jobs recomputed after `edit`, and the bits are a cold
    // encoder's; then back to `base`, which moves the same keys back
    // and recomputes `undone` jobs, again to a cold encoder's bits.
    let mut base_cold = InferEncoder::pack(&enc, &store).unwrap();
    base_cold.forward_observation(&feat, &base, &structure);
    let mut check =
        |what: &str, want: usize, undone: usize, feat_now: &FeatureConfig, edit: Edit| {
            let mut obs = base.clone();
            edit(&mut obs);
            warm.forward_observation(feat_now, &obs, &structure);
            assert_eq!(warm.dirty_jobs(), want, "{what}");
            let mut cold = InferEncoder::pack(&enc, &store).unwrap();
            cold.forward_observation(feat_now, &obs, &structure);
            assert!(same_bits(&warm, &cold, &structure), "{what}");
            warm.forward_observation(&feat, &base, &structure);
            assert_eq!(warm.dirty_jobs(), undone, "{what}, undone");
            assert!(same_bits(&warm, &base_cold, &structure), "{what}, undone");
        };

    // Read per node: remaining tasks (either addend), executors_on, and
    // the duration estimate.
    check("waiting", 1, 1, &feat, &|o| o.jobs[1].nodes[2].waiting += 1);
    check("running", 1, 1, &feat, &|o| o.jobs[1].nodes[0].running += 1);
    check("executors_on", 1, 1, &feat, &|o| {
        o.jobs[2].nodes[1].executors_on += 1
    });
    check("avg_task_duration", 1, 1, &feat, &|o| {
        o.jobs[0].nodes[1].avg_task_duration += 0.5
    });
    // Read per job: whether any bound executor is idle.
    check("local_free 0 <-> 1", 1, 1, &feat, &|o| {
        o.jobs[1].local_free = 1 - o.jobs[1].local_free
    });
    // Read by every row: the two cluster counts and the configuration.
    check("free_total", 3, 0, &feat, &|o| o.free_total += 1);
    check("total_executors", 3, 0, &feat, &|o| o.total_executors += 1);
    let other_cfgs = [
        FeatureConfig {
            include_duration: false,
            ..feat
        },
        FeatureConfig {
            iat_hint: None,
            ..feat
        },
        FeatureConfig {
            iat_hint: Some(46.0),
            ..feat
        },
    ];
    for cfg in &other_cfgs {
        check(&format!("{cfg:?}"), 3, 0, cfg, &|_| {});
    }

    // Not read: everything else an observation carries.
    let unread: [(&str, Edit); 13] = [
        ("time", &|o| o.time = SimTime::from_secs(99.0)),
        ("cost", &|o| o.cost += 7.0),
        ("offline", &|o| o.offline += 1),
        ("free_by_class", &|o| o.free_by_class = vec![4]),
        ("schedulable", &|o| o.schedulable.clear()),
        ("alloc", &|o| o.jobs[1].alloc += 1),
        ("local_free 1 -> 2", &|o| {
            let job = o.jobs.iter_mut().find(|j| j.local_free > 0);
            job.expect("seed 23 leaves a job with an idle executor")
                .local_free += 1
        }),
        ("finished", &|o| o.jobs[1].nodes[0].finished += 1),
        ("in_flight", &|o| o.jobs[1].nodes[0].in_flight += 1),
        ("runnable", &|o| {
            o.jobs[1].nodes[0].runnable = !o.jobs[1].nodes[0].runnable
        }),
        ("completed", &|o| o.jobs[1].nodes[0].completed = true),
        ("mem_demand", &|o| o.jobs[1].nodes[0].mem_demand = 0.5),
        // A task starting moves one unit between the addends of
        // `remaining_tasks`, which is all the features read of them.
        ("waiting -> running", &|o| {
            let node = o
                .jobs
                .iter_mut()
                .flat_map(|j| &mut j.nodes)
                .find(|n| n.waiting > 0);
            let node = node.expect("seed 23 leaves a waiting task");
            node.waiting -= 1;
            node.running += 1;
        }),
    ];
    for (what, edit) in unread {
        check(what, 0, 0, &feat, edit);
    }
}

/// When `free_total` returns to a value a memo was parked under, only
/// the jobs whose own keys moved since are recomputed, and the rows
/// (`z` included) are a cold encoder's: 1 → 2 → 1 with one job edited
/// at 2 recomputes that job alone on the return; with no job edited it
/// recomputes none, and `z` is re-summed from the memo taken back.
#[test]
fn a_memo_parked_under_free_total_serves_the_jobs_that_did_not_move() {
    let mut rng = SmallRng::seed_from_u64(25);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig::default();
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let one = Observation {
        total_executors: 20,
        free_total: 1,
        jobs: (0..3)
            .map(|i| random_job_obs(&mut rng, spec_with_dag(i, &chain)))
            .collect(),
        ..Observation::default()
    };
    let structure = structure_of_obs(&one);
    for edited in [true, false] {
        let mut two = Observation {
            free_total: 2,
            ..one.clone()
        };
        if edited {
            two.jobs[1].nodes[0].waiting += 1;
        }
        let back = Observation {
            free_total: 1,
            ..two.clone()
        };
        let mut warm = InferEncoder::pack(&enc, &store).unwrap();
        warm.forward_observation(&feat, &one, &structure);
        warm.forward_observation(&feat, &two, &structure);
        assert_eq!(
            warm.dirty_jobs(),
            3,
            "a new free_total recomputes every job"
        );
        warm.forward_observation(&feat, &back, &structure);
        let want = usize::from(edited);
        assert_eq!(warm.dirty_jobs(), want, "edited: {edited}");
        let mut cold = InferEncoder::pack(&enc, &store).unwrap();
        cold.forward_observation(&feat, &back, &structure);
        assert!(same_bits(&warm, &cold, &structure), "edited: {edited}");
    }
}

/// A memo marks the jobs it holds no rows for with a flag of its own,
/// not with a key value: a job admitted whose every key is the default
/// one (no task left, no executor, no duration estimate) is computed
/// like any other new job.
#[test]
fn a_job_admitted_with_default_keys_is_computed() {
    let mut rng = SmallRng::seed_from_u64(26);
    let (enc, store) = random_encoder_of_width(&mut rng, FEAT_DIM);
    let feat = FeatureConfig::default();
    let chain = DagTopology::new(3, &[(0, 1), (1, 2)]).unwrap();
    let mut obs = Observation {
        total_executors: 20,
        free_total: 1,
        jobs: vec![random_job_obs(&mut rng, spec_with_dag(0, &chain))],
        ..Observation::default()
    };
    let mut warm = InferEncoder::pack(&enc, &store).unwrap();
    warm.forward_observation(&feat, &obs, &structure_of_obs(&obs));
    let mut idle = random_job_obs(&mut rng, spec_with_dag(1, &chain));
    idle.local_free = 0;
    for node in &mut idle.nodes {
        (node.waiting, node.running, node.executors_on) = (0, 0, 0);
        node.avg_task_duration = 0.0;
    }
    obs.jobs.push(idle);
    let structure = structure_of_obs(&obs);
    warm.forward_observation(&feat, &obs, &structure);
    assert_eq!(warm.dirty_jobs(), 1, "the admitted job is computed");
    let mut cold = InferEncoder::pack(&enc, &store).unwrap();
    cold.forward_observation(&feat, &obs, &structure);
    assert!(same_bits(&warm, &cold, &structure));
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
