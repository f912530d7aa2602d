//! Appendix E: expressiveness of the two-level aggregation.
//!
//! The paper's sanity check for the graph-embedding scheme: train the GNN
//! *supervised* to output each node's critical-path value on random DAGs,
//! then measure how accurately the network identifies the node with the
//! maximum critical path on unseen DAGs (Figure 19). Critical path needs a
//! `max` across children during message passing; a single non-linear
//! aggregation `Σ f(e_u)` cannot express it, while Decima's two-level
//! `g(Σ f(e_u))` can — accuracy separates the two architectures cleanly.

use crate::encoder::{GnnConfig, GnnEncoder};
use crate::graph::GraphInput;
use decima_core::DagTopology;
use decima_nn::{Activation, Adam, Mlp, ParamStore, Tape, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One supervised example: a DAG with per-node work and critical-path
/// targets.
#[derive(Clone, Debug)]
pub struct CpExample {
    /// The topology.
    pub dag: DagTopology,
    /// Per-node work.
    pub work: Vec<f64>,
    /// Per-node critical-path values (the regression target).
    pub cp: Vec<f64>,
}

/// Generates a random `n`-node DAG with uniform `[0.1, 1]` work. Each
/// non-root node draws 1–2 parents among lower-indexed nodes, so the
/// graph is acyclic by construction.
pub fn random_cp_example(n: usize, rng: &mut impl Rng) -> CpExample {
    assert!(n >= 2);
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        let num_parents = rng.gen_range(1..=2.min(v));
        let mut chosen = Vec::with_capacity(num_parents as usize);
        while (chosen.len() as u32) < num_parents {
            let p = rng.gen_range(0..v);
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        for p in chosen {
            edges.push((p, v));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "valid by construction: every edge runs from a lower index to a higher one"
    )]
    let dag = DagTopology::new(n, &edges).expect("construction is acyclic");
    let work: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let cp = dag.critical_path(&work);
    CpExample { dag, work, cp }
}

fn input_of(ex: &CpExample) -> GraphInput {
    let mut f = Tensor::zeros(ex.dag.len(), 1);
    for (v, &w) in ex.work.iter().enumerate() {
        f.set(v, 0, w);
    }
    GraphInput::new(&[&ex.dag], &[f])
}

/// The supervised harness: encoder + scalar regression head.
pub struct CpHarness {
    enc: GnnEncoder,
    head: Mlp,
    /// Trainable parameters.
    pub store: ParamStore,
    opt: Adam,
    /// Kept across passes and reset before each.
    tape: Tape,
}

impl CpHarness {
    /// Builds a harness; `two_level = false` gives the single-aggregation
    /// baseline of Figure 19.
    pub fn new(two_level: bool, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = GnnConfig {
            feat_dim: 1,
            embed_dim: 8,
            hidden: vec![16],
            two_level,
        };
        let enc = GnnEncoder::new(cfg, &mut store, &mut rng);
        let head = Mlp::new(
            &mut store,
            "cp.head",
            &[8, 16, 1],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let opt = Adam::new(&store, 1e-2);
        CpHarness {
            enc,
            head,
            store,
            opt,
            tape: Tape::new(),
        }
    }

    /// One gradient step over a batch of examples; returns the mean MSE.
    pub fn train_step(&mut self, batch: &[CpExample]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for ex in batch {
            let g = input_of(ex);
            let tape = &mut self.tape;
            tape.reset();
            let emb = self.enc.forward(tape, &self.store, &g);
            let pred = self.head.forward(tape, &self.store, emb.nodes);
            let target = tape.input(Tensor::col(ex.cp.clone()));
            let err = tape.sub(pred, target);
            let sq = tape.mul(err, err);
            let loss = tape.sum_all(sq);
            let n = ex.dag.len() as f64;
            let scaled = tape.scale(loss, 1.0 / n);
            total += tape.value(scaled).scalar();
            count += 1;
            tape.backward(scaled, 1.0 / batch.len() as f64, &mut self.store);
        }
        self.opt.step(&mut self.store);
        total / count as f64
    }

    /// Fraction of examples where the predicted argmax node equals the
    /// true critical-path argmax (the Figure 19 metric).
    pub fn accuracy(&mut self, examples: &[CpExample]) -> f64 {
        let mut hits = 0usize;
        for ex in examples {
            let g = input_of(ex);
            let tape = &mut self.tape;
            tape.reset();
            let emb = self.enc.forward(tape, &self.store, &g);
            let pred = self.head.forward(tape, &self.store, emb.nodes);
            let p = tape.value(pred);
            let pred_arg = (0..p.rows()).max_by(|&a, &b| p.get(a, 0).total_cmp(&p.get(b, 0)));
            let true_arg = (0..ex.cp.len()).max_by(|&a, &b| ex.cp[a].total_cmp(&ex.cp[b]));
            if pred_arg == true_arg {
                hits += 1;
            }
        }
        hits as f64 / examples.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_examples_are_valid() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let ex = random_cp_example(12, &mut rng);
            assert_eq!(ex.cp.len(), 12);
            // cp of any node ≥ its own work.
            for v in 0..12 {
                assert!(ex.cp[v] >= ex.work[v] - 1e-12);
            }
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let mut rng = SmallRng::seed_from_u64(1);
        let train: Vec<CpExample> = (0..24).map(|_| random_cp_example(10, &mut rng)).collect();
        let test: Vec<CpExample> = (0..40).map(|_| random_cp_example(10, &mut rng)).collect();

        let mut h = CpHarness::new(true, 7);
        let first = h.train_step(&train[..8]);
        let mut last = first;
        for epoch in 0..40 {
            let lo = (epoch * 8) % 16;
            last = h.train_step(&train[lo..lo + 8]);
        }
        assert!(
            last < first,
            "loss should decrease: first={first:.4} last={last:.4}"
        );
        // Chance level for argmax over 10 nodes is 0.1; even brief
        // training should clear it by a wide margin.
        let acc = h.accuracy(&test);
        assert!(acc > 0.3, "accuracy {acc:.2} barely above chance");
    }
}
