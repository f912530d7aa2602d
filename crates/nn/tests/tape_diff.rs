//! Differential tests of how the `f64` tape executes, all bitwise
//! (`to_bits`): training results are pinned to the bit, so "close" is a
//! failure here.
//!
//! * each kernel of `decima_nn::kernels` against the expression it
//!   replaces, built from the reference `Tensor::matmul` /
//!   `Tensor::transpose`;
//! * the fused dense layer, forward and backward, against `matmul` +
//!   `add_row` + `leaky_relu`;
//! * the segment sum, forward and backward, against `matmul` by the 0/1
//!   matrix of the same segments;
//! * one kept, reset `Tape` driven through a random sequence of graphs
//!   (grow, shrink, repeat, parameters stepped in between) against a
//!   fresh `Tape::new()` per pass: every forward value and every
//!   accumulated gradient.

use decima_nn::kernels::{linear_into, matmul_into, matmul_nt_into, matmul_tn_into};
use decima_nn::{Activation, Mlp, ParamStore, Tape, Tensor, TensorId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// The widths the kernels block differently: singles, one block of 8,
/// one of 16, and every mix of them.
const WIDTHS: [usize; 9] = [1, 3, 7, 8, 16, 17, 24, 32, 41];

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn width(rng: &mut SmallRng) -> usize {
    WIDTHS[rng.gen_range(0..WIDTHS.len())]
}

/// A matrix of one of the kinds the tape multiplies: dense values, dense
/// values salted with exact `+0.0` / `-0.0` (whole groups of four among
/// them, so the zero-skip is exercised), or a 0/1 segment matrix.
fn matrix(rng: &mut SmallRng, rows: usize, cols: usize) -> Tensor {
    let kind = rng.gen_range(0..3);
    matrix_of(kind, rng, rows, cols)
}

/// [`matrix`] of kind 0 (dense), 1 (zero-salted) or 2 (0/1 segments).
fn matrix_of(kind: u32, rng: &mut SmallRng, rows: usize, cols: usize) -> Tensor {
    let mut data: Vec<f64> = (0..rows * cols)
        .map(|_| match kind {
            0 => rng.gen_range(-2.0..2.0),
            1 => match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0..2.0),
            },
            _ => 0.0,
        })
        .collect();
    match kind {
        1 if cols >= 4 => {
            // Zero out aligned groups along a row now and then.
            for row in data.chunks_exact_mut(cols) {
                if rng.gen_range(0..2) == 0 {
                    let at = rng.gen_range(0..cols / 4) * 4;
                    let zero = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
                    row[at..at + 4].fill(zero);
                }
            }
        }
        2 if rows > 0 => {
            // One 1 per column, parents in ascending order: a segment sum.
            let mut parent = 0;
            for c in 0..cols {
                if parent + 1 < rows && rng.gen_range(0..3) == 0 {
                    parent += 1;
                }
                data[parent * cols + c] = 1.0;
            }
        }
        _ => {}
    }
    Tensor::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn product_kernels_match_the_reference_bitwise(seed in 0u64..1_000_000, m in 0usize..71) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (k, n) = (width(&mut rng), width(&mut rng));
        // Kept across the three calls, as the tape keeps a buffer.
        let mut out = Tensor::filled(3, 3, f64::NAN);

        let (a, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
        matmul_into(&a, &b, &mut out);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(bits(&out), bits(&a.matmul(&b)), "a·b, {m}x{k}x{n}, seed {seed}");

        let (g, w) = (matrix(&mut rng, m, n), matrix(&mut rng, k, n));
        matmul_nt_into(&g, &w, &mut out);
        prop_assert_eq!(out.shape(), (m, k));
        prop_assert_eq!(
            bits(&out),
            bits(&g.matmul(&w.transpose())),
            "g·wᵀ, {m}x{n}x{k}, seed {seed}"
        );
        // What a dense layer does instead: the forward kernel on a kept
        // transpose.
        matmul_into(&g, &w.transpose(), &mut out);
        prop_assert_eq!(bits(&out), bits(&g.matmul(&w.transpose())));

        let (x, g) = (matrix(&mut rng, m, k), matrix(&mut rng, m, n));
        matmul_tn_into(&x, &g, &mut out);
        prop_assert_eq!(out.shape(), (k, n));
        prop_assert_eq!(
            bits(&out),
            bits(&x.transpose().matmul(&g)),
            "xᵀ·g, {m}x{k}x{n}, seed {seed}"
        );
    }

    #[test]
    fn fused_layer_kernel_matches_the_unfused_arithmetic(
        seed in 0u64..1_000_000,
        m in 0usize..71,
        leaky in 0u32..2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (k, n) = (width(&mut rng), width(&mut rng));
        let (x, w, bias) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n), matrix(&mut rng, 1, n));
        let slope = (leaky == 1).then_some(0.2);
        let mut out = Tensor::default();
        linear_into(&x, &w, &bias, slope, &mut out);

        // matmul, then the bias row, then the activation, each a pass
        // of its own over the whole matrix.
        let mut want = x.matmul(&w);
        for (i, v) in want.data_mut().iter_mut().enumerate() {
            *v += bias.data()[i % n];
        }
        let want = want.map(|v| match slope {
            Some(s) if v <= 0.0 => v * s,
            _ => v,
        });
        prop_assert_eq!(bits(&out), bits(&want), "{m}x{k}x{n}, seed {seed}");
    }

    /// `Tape::linear` against `matmul` + `add_row` + `leaky_relu` on the
    /// tape: the value, and the gradient of every operand — the fused
    /// backward goes through the kept transposed weight, the unfused one
    /// through the direct `g·wᵀ` kernel.
    #[test]
    fn fused_layer_matches_the_three_ops_forward_and_backward(
        seed in 0u64..1_000_000,
        m in 0usize..40,
        leaky in 0u32..2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (k, n) = (width(&mut rng), width(&mut rng));
        let mut store = ParamStore::new();
        let x = store.add("x", matrix(&mut rng, m, k));
        let w = store.add("w", matrix(&mut rng, k, n));
        let b = store.add("b", matrix(&mut rng, 1, n));
        let mut unfused_store = store.clone();
        let slope = (leaky == 1).then_some(0.2);
        let weights = matrix(&mut rng, m, n);

        let loss_of = |tape: &mut Tape, y: TensorId| {
            // A weighted sum, so the upstream gradient is not all ones.
            let wt = tape.input(weights.clone());
            let prod = tape.mul(y, wt);
            tape.sum_all(prod)
        };
        let mut fused = Tape::new();
        let (xn, wn, bn) = (fused.param(&store, x), fused.param(&store, w), fused.param(&store, b));
        let y = fused.linear(xn, wn, bn, slope);
        let loss = loss_of(&mut fused, y);
        fused.backward(loss, 1.0, &mut store);

        let mut unfused = Tape::new();
        let s = &unfused_store;
        let (xn, wn, bn) = (unfused.param(s, x), unfused.param(s, w), unfused.param(s, b));
        let h = unfused.matmul(xn, wn);
        let mut y2 = unfused.add_row(h, bn);
        if let Some(s) = slope {
            y2 = unfused.leaky_relu(y2, s);
        }
        let loss = loss_of(&mut unfused, y2);
        unfused.backward(loss, 1.0, &mut unfused_store);

        prop_assert_eq!(bits(fused.value(y)), bits(unfused.value(y2)), "seed {seed}");
        for p in [x, w, b] {
            prop_assert_eq!(
                bits(store.grad(p)),
                bits(unfused_store.grad(p)),
                "gradient of {}, {m}x{k}x{n}, seed {seed}",
                store.name(p)
            );
        }
    }
}

/// The `[counts.len(), Σ counts]` 0/1 matrix whose row `i` has its ones
/// on segment `i`: what a segment sum multiplies by.
fn segment_matrix(counts: &[usize]) -> Tensor {
    let mut seg = Tensor::zeros(counts.len(), counts.iter().sum());
    let mut col = 0;
    for (i, &n) in counts.iter().enumerate() {
        for _ in 0..n {
            seg.set(i, col, 1.0);
            col += 1;
        }
    }
    seg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Tape::segment_sum` against `Tape::matmul` of the 0/1 matrix of
    /// the same counts: segments of 1–9 rows, so starts fall anywhere
    /// in a group of four and segments cross groups; row totals with and
    /// without a tail past the last whole group; values of every
    /// `matrix` kind, exact zeros included. The forward value and the
    /// gradient reaching the summed parameter, through an upstream
    /// gradient that is itself zero-salted.
    #[test]
    fn segment_sum_matches_the_zero_one_matmul_bitwise(
        seed in 0u64..1_000_000,
        segments in 1usize..12,
        aligned in 0u32..2,
        kind in 0u32..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts: Vec<usize> = (0..segments).map(|_| rng.gen_range(1..10)).collect();
        let total: usize = counts.iter().sum();
        if aligned == 1 && total % 4 != 0 {
            counts.push(4 - total % 4);
        }
        let (rows, cols) = (counts.iter().sum::<usize>(), width(&mut rng));
        let mut store = ParamStore::new();
        let a = store.add("a", matrix_of(kind, &mut rng, rows, cols));
        let mut matmul_store = store.clone();
        let weights = matrix_of(1, &mut rng, counts.len(), cols);
        let loss_of = |tape: &mut Tape, y: TensorId| {
            let wt = tape.input(weights.clone());
            let prod = tape.mul(y, wt);
            tape.sum_all(prod)
        };

        let mut tape = Tape::new();
        let an = tape.param(&store, a);
        let y = tape.segment_sum(an, counts.iter().copied());
        let loss = loss_of(&mut tape, y);
        tape.backward(loss, 1.0, &mut store);

        let mut reference = Tape::new();
        let seg = reference.input(segment_matrix(&counts));
        let an = reference.param(&matmul_store, a);
        let y2 = reference.matmul(seg, an);
        let loss = loss_of(&mut reference, y2);
        reference.backward(loss, 1.0, &mut matmul_store);

        prop_assert_eq!(tape.value(y).shape(), (counts.len(), cols));
        prop_assert_eq!(
            bits(tape.value(y)),
            bits(reference.value(y2)),
            "value, counts {:?}, width {}, seed {}", &counts, cols, seed
        );
        prop_assert_eq!(
            bits(store.grad(a)),
            bits(matmul_store.grad(a)),
            "gradient, counts {:?}, width {}, seed {}", &counts, cols, seed
        );
    }
}

// ---------------------------------------------------------------------
// One kept tape against a fresh tape per pass.
// ---------------------------------------------------------------------

/// One level of a [`Graph`].
struct Level {
    /// The level's nodes, as rows of the feature matrix.
    rows: Vec<usize>,
    /// Their children's rows in the stack of earlier levels.
    child_rows: Vec<usize>,
    /// Each node's child count (empty for a level of leaves).
    counts: Vec<usize>,
}

/// A level-structured random graph in the shape the GNN encoder walks.
struct Graph {
    features: Tensor,
    levels: Vec<Level>,
    /// Row of each node in the stack of all levels.
    perm: Vec<usize>,
    candidates: Vec<usize>,
    choice: usize,
}

const FEATURES: usize = 5;

fn graph(rng: &mut SmallRng) -> Graph {
    let nodes = rng.gen_range(1..30);
    let depth = rng.gen_range(1..5).min(nodes);
    let mut sizes = vec![1usize; depth];
    for _ in depth..nodes {
        sizes[rng.gen_range(0..depth)] += 1;
    }
    let mut order: Vec<usize> = (0..nodes).collect();
    for i in (1..nodes).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut levels = Vec::new();
    let mut perm = vec![0; nodes];
    let mut stacked = 0;
    for (l, &size) in sizes.iter().enumerate() {
        let rows: Vec<usize> = order[stacked..stacked + size].to_vec();
        for (i, &v) in rows.iter().enumerate() {
            perm[v] = stacked + i;
        }
        let (mut child_rows, mut counts) = (Vec::new(), Vec::new());
        if l > 0 {
            for _ in 0..size {
                let n = rng.gen_range(1..4);
                counts.push(n);
                child_rows.extend((0..n).map(|_| rng.gen_range(0..stacked)));
            }
        }
        levels.push(Level {
            rows,
            child_rows,
            counts,
        });
        stacked += size;
    }
    let picks = rng.gen_range(1..nodes + 1);
    let candidates: Vec<usize> = (0..picks).map(|_| rng.gen_range(0..nodes)).collect();
    Graph {
        features: matrix(rng, nodes, FEATURES),
        levels,
        perm,
        choice: rng.gen_range(0..picks),
        candidates,
    }
}

struct Nets {
    prep: Mlp,
    f: Mlp,
    g: Mlp,
    q: Mlp,
    embed: usize,
}

fn nets(rng: &mut SmallRng, store: &mut ParamStore) -> Nets {
    let embed = [4, 8, 16][rng.gen_range(0..3)];
    let hidden = [8, 16, 32][rng.gen_range(0..3)];
    let act = Activation::LeakyRelu(0.2);
    let mut mlp = |name: &str, dims: &[usize]| Mlp::new(store, name, dims, act, rng);
    Nets {
        prep: mlp("prep", &[FEATURES, hidden, embed]),
        f: mlp("f", &[embed, hidden, embed]),
        g: mlp("g", &[embed, hidden, embed]),
        q: mlp("q", &[2 * embed, hidden, 1]),
        embed,
    }
}

/// One decision-shaped pass — encoder sweep, a score head, a softmax,
/// the REINFORCE loss with its entropy term — and its backward pass.
/// Returns every node it recorded.
fn pass(tape: &mut Tape, store: &mut ParamStore, nets: &Nets, graph: &Graph) -> Vec<TensorId> {
    let mut ids = Vec::new();
    let mut keep = |id: TensorId| {
        ids.push(id);
        id
    };
    let x = keep(tape.input_copy(&graph.features));
    let p = keep(nets.prep.forward(tape, store, x));
    let mut blocks = Vec::new();
    for Level {
        rows,
        child_rows,
        counts,
    } in &graph.levels
    {
        let p_rows = keep(tape.gather_rows(p, rows.iter().copied()));
        let inner = if counts.is_empty() {
            let zero = tape.input_from(1, nets.embed, std::iter::repeat(0.0).take(nets.embed));
            let gz = keep(nets.g.forward(tape, store, zero));
            keep(tape.gather_rows(gz, std::iter::repeat(0).take(rows.len())))
        } else {
            let gathered = keep(tape.gather_blocks(&blocks, child_rows.iter().copied()));
            let messages = keep(nets.f.forward(tape, store, gathered));
            let summed = keep(tape.segment_sum(messages, counts.iter().copied()));
            keep(nets.g.forward(tape, store, summed))
        };
        blocks.push(keep(tape.add(inner, p_rows)));
    }
    let nodes = keep(tape.gather_blocks(&blocks, graph.perm.iter().copied()));
    let summary = keep(tape.sum_rows(nodes));
    let ev = keep(tape.gather_rows(nodes, graph.candidates.iter().copied()));
    let z = keep(tape.gather_rows(summary, std::iter::repeat(0).take(graph.candidates.len())));
    let qin = keep(tape.concat_cols(&[ev, z]));
    let scores = keep(nets.q.forward(tape, store, qin));
    let logp = keep(tape.log_softmax_col(scores));
    let picked = keep(tape.pick(logp, graph.choice, 0));
    let cat = keep(tape.concat_rows(&[picked, picked]));
    let total = keep(tape.sum_all(cat));
    let mut loss = keep(tape.scale(total, -0.7));
    let prob = keep(tape.exp(logp));
    let plogp = keep(tape.mul(prob, logp));
    let neg_entropy = keep(tape.sum_all(plogp));
    let term = keep(tape.scale(neg_entropy, 0.05));
    loss = keep(tape.add(loss, term));
    tape.backward(loss, 1.0, store);
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The edit script: graphs of changing size and structure, some
    /// repeated back to back, the parameters stepped between some of
    /// them. The kept tape must be indistinguishable from a new one.
    #[test]
    fn one_reused_tape_equals_a_fresh_tape_per_pass(seed in 0u64..1_000_000, steps in 2usize..10) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut kept_store = ParamStore::new();
        let nets = nets(&mut rng, &mut kept_store);
        let mut fresh_store = kept_store.clone();
        let mut kept = Tape::new();
        let mut current = graph(&mut rng);
        for step in 0..steps {
            match rng.gen_range(0..4) {
                // Repeat the graph: the steady state of an episode.
                0 => {}
                // Grow or shrink it.
                _ => current = graph(&mut rng),
            }
            if rng.gen_range(0..3) == 0 {
                // An optimizer step between passes, on both stores.
                let (p, shift) = (rng.gen_range(0..kept_store.len()), rng.gen_range(-0.1..0.1));
                for store in [&mut kept_store, &mut fresh_store] {
                    store.value_mut(p).data_mut()[0] += shift;
                }
            }
            kept.reset();
            let kept_ids = pass(&mut kept, &mut kept_store, &nets, &current);
            let mut fresh = Tape::new();
            let fresh_ids = pass(&mut fresh, &mut fresh_store, &nets, &current);

            prop_assert_eq!(kept.len(), fresh.len());
            for (&a, &b) in kept_ids.iter().zip(&fresh_ids) {
                prop_assert_eq!(kept.value(a).shape(), fresh.value(b).shape());
                prop_assert_eq!(
                    bits(kept.value(a)),
                    bits(fresh.value(b)),
                    "value {a:?}, step {step}, seed {seed}"
                );
            }
            // Gradients keep accumulating across the passes: one
            // addition per parameter per pass on both sides.
            for p in 0..kept_store.len() {
                prop_assert_eq!(
                    bits(kept_store.grad(p)),
                    bits(fresh_store.grad(p)),
                    "gradient of {}, step {step}, seed {seed}",
                    kept_store.name(p)
                );
            }
        }
    }
}
