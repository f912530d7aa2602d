//! Reverse-mode automatic differentiation on a recycled tape.
//!
//! Usage pattern: keep one [`Tape`] for a run of forward passes of
//! similar shape — an agent's decisions — and call [`Tape::reset`]
//! before each. Pull parameters in with [`Tape::param`], compose
//! operations, then call [`Tape::backward`] on a `[1,1]` loss node;
//! gradients are accumulated into the [`ParamStore`]'s grad buffers.
//! `Tape::new()` per pass computes exactly the same bits; what the kept
//! tape saves is the allocator.
//!
//! **Nothing is allocated in steady state.** A reset keeps every node
//! slot, and the node pushed at position `i` of the next pass writes its
//! value into the buffer position `i` held before; the gradient table
//! and the backward pass's temporaries are recycled the same way, and
//! the index lists of gathers and concats live in one arena. The op
//! sequence of a decision repeats while the job set does, so positions
//! line up and buffers already have the right size; when the shape
//! changes a buffer grows once. The arena is therefore about as large
//! as the largest single pass, and it belongs to this tape alone — no
//! free list shared across tapes or threads.
//!
//! **Nothing constant is copied or differentiated.** A parameter is
//! read through the store's `Arc` ([`ParamStore::shared_value`]), a
//! segment sum reads its segment lengths from the index arena, and
//! every node carries a `needs_grad` bit — false for inputs, the OR of
//! the operands otherwise — so the backward pass computes no gradient
//! that has no parameter upstream of it (the feature side of the first
//! layer).
//!
//! **What it computes is fixed to the bit**, including the order of
//! every sum (see [`crate::kernels`] and docs/DETERMINISM.md): a
//! gradient's first contribution is copied into place and later ones
//! are added to it in descending consumer order, a contribution is
//! summed on its own before it is added, and one backward pass adds
//! each parameter's gradient to the store once.
//!
//! The op set is exactly what the Decima networks need (Eq. 1 message
//! passing, hierarchical summaries, masked log-softmax action heads):
//! the fused dense layer, elementwise arithmetic and `exp`, row and
//! segment sums, gather/concat for graph plumbing, and a
//! numerically-stable log-softmax over a column of scores. Matmul,
//! broadcast add and leaky ReLU also stand alone: the fused layer is
//! held to them.

use crate::kernels;
use crate::store::ParamStore;
use crate::tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Handle to a node on the tape, valid until the next [`Tape::reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorId(usize);

/// A run of the tape's index arena: the operands of a concat, the rows
/// of a gather, the lengths of a segment sum.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    len: usize,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// An input: nothing upstream.
    Leaf,
    Param {
        store_idx: usize,
    },
    MatMul(TensorId, TensorId),
    /// Fused `act(x·W + b)` (one node instead of three: the MLP-layer
    /// hot path of every GNN/policy forward).
    Linear {
        x: TensorId,
        w: TensorId,
        b: TensorId,
        /// Leaky-ReLU negative-side slope; `None` = no activation.
        slope: Option<f64>,
    },
    Add(TensorId, TensorId),
    /// `[m,n] + [1,n]` with the right operand broadcast across rows.
    AddRow(TensorId, TensorId),
    Sub(TensorId, TensorId),
    Mul(TensorId, TensorId),
    Scale(TensorId, f64),
    LeakyRelu(TensorId, f64),
    Exp(TensorId),
    SumRows(TensorId),
    SumAll(TensorId),
    /// Row `i` sums the next `counts[i]` rows of the operand.
    SegmentSum(TensorId, Span),
    ConcatRows(Span),
    ConcatCols(Span),
    GatherRows(TensorId, Span),
    /// Rows gathered from the vertical stack of `blocks`, which is
    /// never built.
    GatherBlocks {
        blocks: Span,
        rows: Span,
    },
    LogSoftmaxCol(TensorId),
    Pick(TensorId, usize, usize),
}

enum Value {
    /// Computed on this tape, in a buffer the slot keeps across resets.
    Owned(Tensor),
    /// A parameter: entry of [`Tape::params`].
    Param(usize),
}

struct Node {
    value: Value,
    op: Op,
    /// Whether a parameter is upstream, i.e. whether the backward pass
    /// computes this node's gradient at all.
    needs_grad: bool,
}

/// A parameter the tape has pulled. Holding the store's `Arc` keeps the
/// value alive and unchanged, so the store handing out a different
/// allocation for the same index — the optimizer stepped, a checkpoint
/// loaded, another store altogether — is exactly the event that makes
/// `transposed` stale, and a pointer comparison at the next pull sees
/// it.
struct ParamSlot {
    value: Arc<Tensor>,
    /// `valueᵀ`, built by the first backward pass that differentiates a
    /// dense layer through this weight: `g·wᵀ` then runs through the
    /// forward kernel for as long as the value stands (a trajectory).
    transposed: OnceLock<Tensor>,
    /// The pass of the last pull and the node it made: one node per
    /// parameter per pass.
    pulled: Option<(u64, TensorId)>,
}

/// A gradient tape: forward values plus enough structure to backprop.
#[derive(Default)]
pub struct Tape {
    /// Node slots; `nodes[..len]` are the current pass, the rest keep
    /// the buffers of a longer earlier one.
    nodes: Vec<Node>,
    len: usize,
    /// Index arena of the current pass's [`Span`]s.
    indices: Vec<usize>,
    /// One gradient buffer per node slot, and whether it holds a
    /// gradient of the backward pass in progress.
    grads: Vec<Tensor>,
    live: Vec<bool>,
    /// Backward temporaries: a contribution to a gradient that already
    /// has one, and the stacked gradient of a block gather.
    contribution: Tensor,
    stacked: Tensor,
    /// Parameters pulled so far, and each store index's entry in it.
    params: Vec<ParamSlot>,
    param_at: Vec<Option<usize>>,
    /// Bumped by every reset.
    pass: u64,
}

fn value_of<'a>(nodes: &'a [Node], params: &'a [ParamSlot], id: TensorId) -> &'a Tensor {
    match &nodes[id.0].value {
        Value::Owned(t) => t,
        Value::Param(at) => &params[*at].value,
    }
}

impl Tape {
    /// Empty tape. An agent builds one and [`reset`](Self::reset)s it per
    /// pass. A fresh tape for every pass is off the decision and training
    /// paths and stays only as the reference the differential suites
    /// name: `crates/nn/tests/tape_diff.rs` holds the kept tape to it to
    /// the bit. Its other callers, the repo benchmark's tape-forward
    /// probes, are to move to a kept tape, after which per-pass use is
    /// the reference's alone.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Starts the next forward pass: forgets every node (ids handed out
    /// so far are dead) and keeps every buffer.
    pub fn reset(&mut self) {
        self.len = 0;
        self.indices.clear();
        self.pass += 1;
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer the next node will own: what the same position held
    /// in an earlier pass (contents to be overwritten), else an empty
    /// tensor.
    fn recycled(&mut self) -> Tensor {
        match self.nodes.get_mut(self.len) {
            Some(Node {
                value: Value::Owned(t),
                ..
            }) => std::mem::take(t),
            _ => Tensor::default(),
        }
    }

    fn push(&mut self, value: Value, op: Op, needs_grad: bool) -> TensorId {
        let node = Node {
            value,
            op,
            needs_grad,
        };
        match self.nodes.get_mut(self.len) {
            Some(slot) => *slot = node,
            None => self.nodes.push(node),
        }
        self.len += 1;
        let id = TensorId(self.len - 1);
        debug_assert!(
            self.value(id).data().iter().all(|v| v.is_finite()),
            "non-finite value produced by {op:?}"
        );
        id
    }

    /// Copies an index list into the arena.
    fn span(&mut self, items: impl IntoIterator<Item = usize>) -> Span {
        let start = self.indices.len();
        self.indices.extend(items);
        Span {
            start,
            len: self.indices.len() - start,
        }
    }

    fn needs(&self, id: TensorId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// The forward value of a node.
    pub fn value(&self, id: TensorId) -> &Tensor {
        assert!(id.0 < self.len, "tensor id from before the last reset");
        value_of(&self.nodes, &self.params, id)
    }

    /// Registers a constant input (no gradient tracked past it),
    /// adopting `t`'s allocation.
    pub fn input(&mut self, t: Tensor) -> TensorId {
        self.push(Value::Owned(t), Op::Leaf, false)
    }

    /// A constant `[rows, cols]` input written into a recycled buffer
    /// from row-major `values`.
    pub fn input_from(
        &mut self,
        rows: usize,
        cols: usize,
        values: impl IntoIterator<Item = f64>,
    ) -> TensorId {
        let mut out = self.recycled();
        out.assign(rows, cols, values);
        self.push(Value::Owned(out), Op::Leaf, false)
    }

    /// A constant input copied from `t` into a recycled buffer.
    pub fn input_copy(&mut self, t: &Tensor) -> TensorId {
        self.input_from(t.rows(), t.cols(), t.data().iter().copied())
    }

    /// Pulls parameter `idx` from the store onto the tape, sharing its
    /// value. Pulling the same parameter again in one pass returns the
    /// existing node: gradients from all of its consumers accumulate
    /// through one node, which is equivalent to (and cheaper than) one
    /// node per pull. One pass pulls from one store.
    pub fn param(&mut self, store: &ParamStore, idx: usize) -> TensorId {
        let shared = store.shared_value(idx);
        if self.param_at.len() <= idx {
            self.param_at.resize(idx + 1, None);
        }
        let at = *self.param_at[idx].get_or_insert_with(|| {
            self.params.push(ParamSlot {
                value: Arc::clone(shared),
                transposed: OnceLock::new(),
                pulled: None,
            });
            self.params.len() - 1
        });
        let slot = &mut self.params[at];
        let this_pass = slot.pulled.filter(|&(pass, _)| pass == self.pass);
        if !Arc::ptr_eq(&slot.value, shared) {
            // The value behind this index changed (see `ParamSlot`):
            // whatever was derived from the old one goes with it.
            assert!(
                this_pass.is_none(),
                "one pass pulled parameter {idx} from two stores"
            );
            slot.value = Arc::clone(shared);
            slot.transposed = OnceLock::new();
        } else if let Some((_, node)) = this_pass {
            return node;
        }
        let node = self.push(Value::Param(at), Op::Param { store_idx: idx }, true);
        self.params[at].pulled = Some((self.pass, node));
        node
    }

    /// Records a node whose value `compute` writes into a recycled
    /// buffer.
    fn record(
        &mut self,
        op: Op,
        needs_grad: bool,
        compute: impl FnOnce(&Tape, &mut Tensor),
    ) -> TensorId {
        let mut out = self.recycled();
        compute(self, &mut out);
        self.push(Value::Owned(out), op, needs_grad)
    }

    fn unary(&mut self, a: TensorId, op: Op, f: impl Fn(f64) -> f64) -> TensorId {
        self.record(op, self.needs(a), |tape, out| {
            let t = tape.value(a);
            out.assign(t.rows(), t.cols(), t.data().iter().map(|&x| f(x)));
        })
    }

    fn binary(
        &mut self,
        a: TensorId,
        b: TensorId,
        op: Op,
        f: impl Fn(f64, f64) -> f64,
    ) -> TensorId {
        self.record(op, self.needs(a) || self.needs(b), |tape, out| {
            let (ta, tb) = (tape.value(a), tape.value(b));
            assert_eq!(ta.shape(), tb.shape(), "shape mismatch in {op:?}");
            let values = ta.data().iter().zip(tb.data()).map(|(&x, &y)| f(x, y));
            out.assign(ta.rows(), ta.cols(), values);
        })
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.record(
            Op::MatMul(a, b),
            self.needs(a) || self.needs(b),
            |tape, out| kernels::matmul_into(tape.value(a), tape.value(b), out),
        )
    }

    /// Fused dense layer `act(x·W + b)`, with `act` a leaky ReLU of the
    /// given negative-side slope (`None` = linear output). One tape node
    /// where `matmul` + `add_row` + `leaky_relu` would record three; the
    /// arithmetic is identical. The slope must not be negative: the
    /// backward pass reads the activation mask off the output's sign.
    pub fn linear(
        &mut self,
        x: TensorId,
        w: TensorId,
        b: TensorId,
        slope: Option<f64>,
    ) -> TensorId {
        assert!(
            slope.map_or(true, |s| s >= 0.0),
            "linear needs a non-negative leaky slope, got {slope:?}"
        );
        self.record(
            Op::Linear { x, w, b, slope },
            self.needs(x) || self.needs(w) || self.needs(b),
            |tape, out| {
                kernels::linear_into(tape.value(x), tape.value(w), tape.value(b), slope, out)
            },
        )
    }

    /// Elementwise addition (same shapes).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// `a[m,n] + b[1,n]`, broadcasting `b` across rows (bias add).
    pub fn add_row(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.record(
            Op::AddRow(a, b),
            self.needs(a) || self.needs(b),
            |tape, out| {
                let (ta, tb) = (tape.value(a), tape.value(b));
                assert_eq!(tb.rows(), 1, "add_row rhs must be a row vector");
                assert_eq!(ta.cols(), tb.cols(), "add_row width mismatch");
                let bias = tb.data().iter().cycle();
                let values = ta.data().iter().zip(bias).map(|(&x, &bv)| x + bv);
                out.assign(ta.rows(), ta.cols(), values);
            },
        )
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Scalar multiply.
    pub fn scale(&mut self, a: TensorId, k: f64) -> TensorId {
        self.unary(a, Op::Scale(a, k), |x| x * k)
    }

    /// Leaky ReLU with the given negative-side slope.
    pub fn leaky_relu(&mut self, a: TensorId, slope: f64) -> TensorId {
        self.unary(a, Op::LeakyRelu(a, slope), |x| {
            if x > 0.0 {
                x
            } else {
                slope * x
            }
        })
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Exp(a), f64::exp)
    }

    /// Column-wise sum over rows: `[m,n] -> [1,n]`.
    pub fn sum_rows(&mut self, a: TensorId) -> TensorId {
        self.record(Op::SumRows(a), self.needs(a), |tape, out| {
            sum_rows_into(tape.value(a), out)
        })
    }

    /// Sum of all elements: `[m,n] -> [1,1]`.
    pub fn sum_all(&mut self, a: TensorId) -> TensorId {
        self.record(Op::SumAll(a), self.needs(a), |tape, out| {
            out.assign(1, 1, [tape.value(a).sum()])
        })
    }

    /// Segment sum: output row `i` sums the next `counts[i]` rows of
    /// `a`, and the counts cover `a`'s rows. The bits are those of
    /// `matmul` by the 0/1 matrix with row `i`'s ones on segment `i`,
    /// because the order is [`kernels::matmul_into`]'s: a segment's rows
    /// inside one aligned group of four are added left to right on
    /// their own, the group sums are added into `+0.0` in ascending
    /// order, and rows at or past `rows − rows % 4` are added one at a
    /// time. The backward pass gives every row `0.0 + g` of its
    /// segment's row, which is what `matmul_tn_into` gives.
    pub fn segment_sum(
        &mut self,
        a: TensorId,
        counts: impl IntoIterator<Item = usize>,
    ) -> TensorId {
        let span = self.span(counts);
        self.record(Op::SegmentSum(a, span), self.needs(a), |tape, out| {
            segment_sum_into(tape.value(a), tape.slice(span), out)
        })
    }

    /// Vertical stack of same-width tensors.
    pub fn concat_rows(&mut self, ids: &[TensorId]) -> TensorId {
        assert!(!ids.is_empty(), "concat_rows needs at least one input");
        let span = self.span(ids.iter().map(|id| id.0));
        let needs = ids.iter().any(|&id| self.needs(id));
        self.record(Op::ConcatRows(span), needs, |tape, out| {
            let cols = tape.value(ids[0]).cols();
            let rows = ids.iter().map(|&i| tape.value(i).rows()).sum();
            out.refill(rows, cols, |data| {
                for &i in ids {
                    let t = tape.value(i);
                    assert_eq!(t.cols(), cols, "concat_rows width mismatch");
                    data.extend_from_slice(t.data());
                }
            });
        })
    }

    /// Horizontal stack of same-height tensors.
    pub fn concat_cols(&mut self, ids: &[TensorId]) -> TensorId {
        assert!(!ids.is_empty(), "concat_cols needs at least one input");
        let span = self.span(ids.iter().map(|id| id.0));
        let needs = ids.iter().any(|&id| self.needs(id));
        self.record(Op::ConcatCols(span), needs, |tape, out| {
            let rows = tape.value(ids[0]).rows();
            let cols = ids.iter().map(|&i| tape.value(i).cols()).sum();
            out.refill(rows, cols, |data| {
                for r in 0..rows {
                    for &i in ids {
                        let t = tape.value(i);
                        assert_eq!(t.rows(), rows, "concat_cols height mismatch");
                        data.extend_from_slice(t.row_slice(r));
                    }
                }
            });
        })
    }

    /// Row gather: output row `i` is input row `idx[i]` (rows may repeat,
    /// which doubles as row broadcast).
    pub fn gather_rows(&mut self, a: TensorId, idx: impl IntoIterator<Item = usize>) -> TensorId {
        let span = self.span(idx);
        self.record(Op::GatherRows(a, span), self.needs(a), |tape, out| {
            let t = tape.value(a);
            out.refill(span.len, t.cols(), |data| {
                for &src in tape.slice(span) {
                    assert!(src < t.rows(), "gather_rows index out of range");
                    data.extend_from_slice(t.row_slice(src));
                }
            });
        })
    }

    /// [`Tape::gather_rows`] from the vertical stack of same-width
    /// `blocks` — `rows` index the stack — without building the stack:
    /// identical, values and gradients, to `concat_rows(blocks)`
    /// followed by `gather_rows`.
    pub fn gather_blocks(
        &mut self,
        blocks: &[TensorId],
        rows: impl IntoIterator<Item = usize>,
    ) -> TensorId {
        assert!(!blocks.is_empty(), "gather_blocks needs at least one block");
        let block_span = self.span(blocks.iter().map(|id| id.0));
        let row_span = self.span(rows);
        let needs = blocks.iter().any(|&id| self.needs(id));
        let op = Op::GatherBlocks {
            blocks: block_span,
            rows: row_span,
        };
        self.record(op, needs, |tape, out| {
            let cols = tape.value(blocks[0]).cols();
            for &b in blocks {
                assert_eq!(tape.value(b).cols(), cols, "gather_blocks width mismatch");
            }
            out.refill(row_span.len, cols, |data| {
                for &row in tape.slice(row_span) {
                    // Walk down the stack to the block holding `row`.
                    let mut local = row;
                    let mut holder = None;
                    for &b in blocks {
                        let t = tape.value(b);
                        if local < t.rows() {
                            holder = Some(t);
                            break;
                        }
                        local -= t.rows();
                    }
                    let Some(block) = holder else {
                        panic!("gather_blocks index {row} out of range");
                    };
                    data.extend_from_slice(block.row_slice(local));
                }
            });
        })
    }

    /// Numerically-stable log-softmax over a `[m,1]` column of scores.
    pub fn log_softmax_col(&mut self, a: TensorId) -> TensorId {
        self.record(Op::LogSoftmaxCol(a), self.needs(a), |tape, out| {
            let t = tape.value(a);
            assert_eq!(t.cols(), 1, "log_softmax_col needs a column vector");
            let max = t.data().iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + t.data().iter().map(|&x| (x - max).exp()).sum::<f64>().ln();
            out.assign(t.rows(), 1, t.data().iter().map(|&x| x - lse));
        })
    }

    /// Extracts element `(r, c)` as a `[1,1]` tensor.
    pub fn pick(&mut self, a: TensorId, r: usize, c: usize) -> TensorId {
        self.record(Op::Pick(a, r, c), self.needs(a), |tape, out| {
            out.assign(1, 1, [tape.value(a).get(r, c)])
        })
    }

    fn slice(&self, span: Span) -> &[usize] {
        &self.indices[span.start..][..span.len]
    }

    /// Backpropagates from the `[1,1]` node `loss` (seeded with
    /// `d loss/d loss = seed`) and accumulates parameter gradients into
    /// `store.grads`, one addition per parameter.
    pub fn backward(&mut self, loss: TensorId, seed: f64, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let Tape {
            nodes,
            len,
            indices,
            grads,
            live,
            contribution,
            stacked,
            params,
            ..
        } = self;
        let nodes = &nodes[..*len];
        let params = &params[..];
        let value = |id: TensorId| value_of(nodes, params, id);
        let slice = |span: Span| &indices[span.start..][..span.len];
        if grads.len() < nodes.len() {
            grads.resize_with(nodes.len(), Tensor::default);
        }
        live.clear();
        live.resize(nodes.len(), false);
        let mut grads = Grads {
            nodes,
            bufs: grads,
            live,
            contribution,
        };
        grads.add(loss, (1, 1), &[seed]);

        for i in (0..=loss.0).rev() {
            if !grads.live[i] {
                continue;
            }
            // Taken out for the arm to read (and, for a dense layer,
            // mask in place); the buffer goes back to its slot below.
            let mut g = std::mem::take(&mut grads.bufs[i]);
            let shape = g.shape();
            let y = value(TensorId(i));
            match nodes[i].op {
                Op::Leaf => {}
                Op::Param { store_idx } => store.accumulate_grad(store_idx, &g, 1.0),
                Op::MatMul(a, b) => {
                    grads.add_with(a, |ga| kernels::matmul_nt_into(&g, value(b), ga));
                    grads.add_with(b, |gb| kernels::matmul_tn_into(value(a), &g, gb));
                }
                Op::Linear { x, w, b, slope } => {
                    // y = act(x·W + bias). The pre-activation sign equals
                    // the output sign (leaky slope ≥ 0), so the
                    // activation mask is recovered from y itself.
                    if let Some(s) = slope {
                        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                            *gv = if yv > 0.0 { *gv } else { *gv * s };
                        }
                    }
                    grads.add_with(x, |gx| match nodes[w.0].value {
                        Value::Param(at) => {
                            let slot = &params[at];
                            let wt = slot.transposed.get_or_init(|| slot.value.transpose());
                            kernels::matmul_into(&g, wt, gx)
                        }
                        _ => kernels::matmul_nt_into(&g, value(w), gx),
                    });
                    grads.add_with(w, |gw| kernels::matmul_tn_into(value(x), &g, gw));
                    grads.add_with(b, |gb| sum_rows_into(&g, gb));
                }
                Op::Add(a, b) => {
                    grads.add(a, shape, g.data());
                    grads.add(b, shape, g.data());
                }
                Op::AddRow(a, b) => {
                    grads.add(a, shape, g.data());
                    grads.add_with(b, |gb| sum_rows_into(&g, gb));
                }
                Op::Sub(a, b) => {
                    grads.add(a, shape, g.data());
                    grads.add_map(b, &g, |gv| -gv);
                }
                Op::Mul(a, b) => {
                    grads.add_zip(a, &g, value(b), |gv, bv| gv * bv);
                    grads.add_zip(b, &g, value(a), |gv, av| gv * av);
                }
                Op::Scale(a, k) => grads.add_map(a, &g, |gv| gv * k),
                Op::LeakyRelu(a, slope) => {
                    let masked = |gv, xv| if xv > 0.0 { gv } else { gv * slope };
                    grads.add_zip(a, &g, value(a), masked);
                }
                Op::Exp(a) => grads.add_zip(a, &g, y, |gv, yv| gv * yv),
                Op::SumRows(a) => {
                    let rows = value(a).rows();
                    grads.add_with(a, |ga| {
                        ga.refill(rows, g.cols(), |data| {
                            for _ in 0..rows {
                                data.extend_from_slice(g.data());
                            }
                        });
                    });
                }
                Op::SumAll(a) => {
                    let (rows, cols) = value(a).shape();
                    let all = std::iter::repeat(g.scalar()).take(rows * cols);
                    grads.add_with(a, |ga| ga.assign(rows, cols, all));
                }
                Op::SegmentSum(a, counts) => {
                    let rows = value(a).rows();
                    grads.add_with(a, |ga| {
                        ga.refill(rows, g.cols(), |data| {
                            for (i, &n) in slice(counts).iter().enumerate() {
                                for _ in 0..n {
                                    data.extend(g.row_slice(i).iter().map(|&gv| 0.0 + gv));
                                }
                            }
                        });
                    });
                }
                Op::ConcatRows(ids) => grads.add_stacked(slice(ids), &g, value),
                Op::ConcatCols(ids) => {
                    let mut at = 0;
                    for &id in slice(ids) {
                        let cols = value(TensorId(id)).cols();
                        grads.add_with(TensorId(id), |part| {
                            part.refill(g.rows(), cols, |data| {
                                for r in 0..g.rows() {
                                    data.extend_from_slice(&g.row_slice(r)[at..][..cols]);
                                }
                            });
                        });
                        at += cols;
                    }
                }
                Op::GatherRows(a, rows) => {
                    let src = value(a).rows();
                    grads.add_with(a, |ga| scatter_rows_into(&g, slice(rows), src, ga));
                }
                Op::GatherBlocks { blocks, rows } => {
                    // The gradient of the stack that was never built,
                    // then each block's rows of it — zero rows included,
                    // as the concat this replaces passed them on.
                    let total = slice(blocks).iter().map(|&b| value(TensorId(b)).rows());
                    scatter_rows_into(&g, slice(rows), total.sum(), stacked);
                    grads.add_stacked(slice(blocks), stacked, value);
                }
                Op::LogSoftmaxCol(a) => {
                    // y = x - lse(x); dx = dy - softmax(x) * sum(dy)
                    let gsum: f64 = g.data().iter().sum();
                    grads.add_zip(a, &g, y, |gv, yv| gv - yv.exp() * gsum);
                }
                Op::Pick(a, r, c) => {
                    let (rows, cols) = value(a).shape();
                    grads.add_with(a, |ga| {
                        ga.resize_zeroed(rows, cols);
                        ga.set(r, c, g.scalar());
                    });
                }
            }
            grads.live[i] = false;
            grads.bufs[i] = g;
        }
    }
}

/// `out[0][c] = Σ_r t[r][c]`, rows added in ascending order from zero.
fn sum_rows_into(t: &Tensor, out: &mut Tensor) {
    out.resize_zeroed(1, t.cols());
    for row in t.data().chunks_exact(t.cols().max(1)) {
        for (o, &v) in out.data_mut().iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// [`Tape::segment_sum`]'s forward: each segment's rows summed per
/// aligned group of four, the group sums added into `+0.0`.
fn segment_sum_into(t: &Tensor, counts: &[usize], out: &mut Tensor) {
    let (rows, cols) = t.shape();
    assert_eq!(
        counts.iter().sum::<usize>(),
        rows,
        "segment_sum counts must cover the rows"
    );
    let whole = rows - rows % 4;
    out.resize_zeroed(counts.len(), cols);
    let data = t.data();
    let mut r = 0;
    for (acc, &n) in out.data_mut().chunks_exact_mut(cols.max(1)).zip(counts) {
        let end = r + n;
        while r < end {
            // This segment's rows of the group holding row `r`; past
            // the last whole group, row `r` alone.
            let stop = if r < whole {
                (r / 4 * 4 + 4).min(end)
            } else {
                r + 1
            };
            let (first, rest) = data[r * cols..stop * cols].split_at(cols);
            for (c, o) in acc.iter_mut().enumerate() {
                *o += rest.chunks_exact(cols).fold(first[c], |s, row| s + row[c]);
            }
            r = stop;
        }
    }
}

/// The gradient of a row gather: `out` is `[src_rows, g.cols()]` zeros
/// with row `g[r]` added to row `rows[r]`, in ascending `r`.
fn scatter_rows_into(g: &Tensor, rows: &[usize], src_rows: usize, out: &mut Tensor) {
    let cols = g.cols();
    out.resize_zeroed(src_rows, cols);
    for (r, &src) in rows.iter().enumerate() {
        let into = &mut out.data_mut()[src * cols..][..cols];
        for (o, &v) in into.iter_mut().zip(g.row_slice(r)) {
            *o += v;
        }
    }
}

/// The gradient table of a backward pass in progress. A contribution
/// to a node with no parameter upstream is dropped here, uncomputed.
struct Grads<'a> {
    nodes: &'a [Node],
    bufs: &'a mut [Tensor],
    live: &'a mut [bool],
    contribution: &'a mut Tensor,
}

impl Grads<'_> {
    /// Adds a contribution to node `id`'s gradient: the first is copied
    /// into place bit for bit, a later one is added elementwise.
    fn add(&mut self, id: TensorId, (rows, cols): (usize, usize), src: &[f64]) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        let buf = &mut self.bufs[id.0];
        if std::mem::replace(&mut self.live[id.0], true) {
            assert_eq!(buf.shape(), (rows, cols), "gradient shape mismatch");
            for (a, &b) in buf.data_mut().iter_mut().zip(src) {
                *a += b;
            }
        } else {
            buf.refill(rows, cols, |data| data.extend_from_slice(src));
        }
    }

    /// [`Grads::add`] for a contribution `fill` computes: straight into
    /// the node's buffer when it is the first, else into the tape's
    /// temporary — summed on its own — and then added.
    fn add_with(&mut self, id: TensorId, fill: impl FnOnce(&mut Tensor)) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        if self.live[id.0] {
            let mut computed = std::mem::take(self.contribution);
            fill(&mut computed);
            self.add(id, computed.shape(), computed.data());
            *self.contribution = computed;
        } else {
            fill(&mut self.bufs[id.0]);
            self.live[id.0] = true;
        }
    }

    /// Hands each of `ids` its rows of `stacked`, the gradient of their
    /// vertical stack.
    fn add_stacked<'t>(
        &mut self,
        ids: &[usize],
        stacked: &Tensor,
        value: impl Fn(TensorId) -> &'t Tensor,
    ) {
        let cols = stacked.cols();
        let mut at = 0;
        for &id in ids {
            let rows = value(TensorId(id)).rows();
            self.add(
                TensorId(id),
                (rows, cols),
                &stacked.data()[at..][..rows * cols],
            );
            at += rows * cols;
        }
    }

    /// Contributes `f(g)` elementwise.
    fn add_map(&mut self, id: TensorId, g: &Tensor, f: impl Fn(f64) -> f64) {
        self.add_with(id, |out| {
            out.assign(g.rows(), g.cols(), g.data().iter().map(|&gv| f(gv)))
        });
    }

    /// Contributes `f(g, other)` elementwise.
    fn add_zip(&mut self, id: TensorId, g: &Tensor, other: &Tensor, f: impl Fn(f64, f64) -> f64) {
        debug_assert_eq!(g.shape(), other.shape());
        let values = g.data().iter().zip(other.data());
        self.add_with(id, |out| {
            out.assign(g.rows(), g.cols(), values.map(|(&gv, &ov)| f(gv, ov)))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check against every element of every
    /// parameter in the store. `f` must rebuild the computation from
    /// scratch each call (fresh tape).
    fn grad_check(store: &mut ParamStore, f: impl Fn(&mut Tape, &ParamStore) -> TensorId) {
        // Analytic gradients.
        store.zero_grads();
        let mut tape = Tape::new();
        let loss = f(&mut tape, store);
        tape.backward(loss, 1.0, store);

        let eps = 1e-5;
        for p in 0..store.len() {
            let (rows, cols) = store.value(p).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = store.value(p).get(r, c);

                    store.value_mut(p).set(r, c, orig + eps);
                    let mut t1 = Tape::new();
                    let l1 = f(&mut t1, store);
                    let y1 = t1.value(l1).scalar();

                    store.value_mut(p).set(r, c, orig - eps);
                    let mut t2 = Tape::new();
                    let l2 = f(&mut t2, store);
                    let y2 = t2.value(l2).scalar();

                    store.value_mut(p).set(r, c, orig);
                    let numeric = (y1 - y2) / (2.0 * eps);
                    let analytic = store.grad(p).get(r, c);
                    let denom = numeric.abs().max(analytic.abs()).max(1e-8);
                    assert!(
                        (numeric - analytic).abs() / denom < 1e-4,
                        "param {p} ({},{}) numeric={numeric} analytic={analytic}",
                        r,
                        c
                    );
                }
            }
        }
    }

    #[test]
    fn grad_check_matmul_bias_relu() {
        let mut store = ParamStore::new();
        store.add(
            "w",
            Tensor::from_vec(3, 2, vec![0.5, -0.3, 0.2, 0.8, -0.6, 0.1]),
        );
        store.add("b", Tensor::from_vec(1, 2, vec![0.1, -0.2]));
        grad_check(&mut store, |tape, store| {
            let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]));
            let w = tape.param(store, 0);
            let b = tape.param(store, 1);
            let h = tape.matmul(x, w);
            let h = tape.add_row(h, b);
            let h = tape.leaky_relu(h, 0.2);
            tape.sum_all(h)
        });
    }

    #[test]
    fn grad_check_fused_linear() {
        let mut store = ParamStore::new();
        store.add(
            "w",
            Tensor::from_vec(3, 2, vec![0.5, -0.3, 0.2, 0.8, -0.6, 0.1]),
        );
        store.add("b", Tensor::from_vec(1, 2, vec![0.1, -0.2]));
        // With activation.
        grad_check(&mut store, |tape, store| {
            let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]));
            let w = tape.param(store, 0);
            let b = tape.param(store, 1);
            let h = tape.linear(x, w, b, Some(0.2));
            tape.sum_all(h)
        });
        // Linear output.
        grad_check(&mut store, |tape, store| {
            let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]));
            let w = tape.param(store, 0);
            let b = tape.param(store, 1);
            let h = tape.linear(x, w, b, None);
            tape.sum_all(h)
        });
    }

    #[test]
    fn fused_linear_matches_unfused() {
        let mut store = ParamStore::new();
        store.add(
            "w",
            Tensor::from_vec(3, 2, vec![0.5, -0.3, 0.2, 0.8, -0.6, 0.1]),
        );
        store.add("b", Tensor::from_vec(1, 2, vec![0.1, -0.2]));
        let x_data = Tensor::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);

        let mut t1 = Tape::new();
        let x = t1.input(x_data.clone());
        let w = t1.param(&store, 0);
        let b = t1.param(&store, 1);
        let fused = t1.linear(x, w, b, Some(0.2));

        let mut t2 = Tape::new();
        let x = t2.input(x_data);
        let w = t2.param(&store, 0);
        let b = t2.param(&store, 1);
        let h = t2.matmul(x, w);
        let h = t2.add_row(h, b);
        let unfused = t2.leaky_relu(h, 0.2);

        assert_eq!(t1.value(fused).data(), t2.value(unfused).data());
    }

    /// The backward pass reads the activation mask off the output's
    /// sign, which only a non-negative slope preserves.
    #[test]
    #[should_panic(expected = "non-negative leaky slope")]
    fn fused_linear_refuses_a_negative_slope() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::filled(1, 1, 1.0));
        store.add("b", Tensor::zeros(1, 1));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::filled(1, 1, 1.0));
        let (w, b) = (tape.param(&store, 0), tape.param(&store, 1));
        tape.linear(x, w, b, Some(-0.1));
    }

    /// `seg · act(x·w + b)` with `x` and `seg` constant: neither gets a
    /// gradient buffer written, the layer output between them does, and
    /// the parameters receive exactly what they receive when the two
    /// constants are (undifferentiated-through) parameters instead.
    #[test]
    fn constants_get_no_gradient_and_the_parameters_behind_them_do() {
        let x_data = Tensor::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);
        let seg_data = Tensor::from_vec(2, 3, vec![1.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(2, 2, vec![0.5, -0.3, 0.2, 0.8]));
        let b = store.add("b", Tensor::from_vec(1, 2, vec![0.1, -0.2]));
        let xp = store.add("x", x_data.clone());
        let sp = store.add("seg", seg_data.clone());
        let mut all_params = store.clone();

        let mut tape = Tape::new();
        let x = tape.input(x_data);
        let seg = tape.input(seg_data);
        let (wn, bn) = (tape.param(&store, w), tape.param(&store, b));
        let h = tape.linear(x, wn, bn, Some(0.2));
        let s = tape.matmul(seg, h);
        let loss = tape.sum_all(s);
        tape.backward(loss, 1.0, &mut store);
        assert!(!tape.needs(x) && !tape.needs(seg) && tape.needs(h));
        assert!(
            tape.grads[x.0].is_empty() && tape.grads[seg.0].is_empty(),
            "a gradient was computed for a constant"
        );
        assert!(!tape.grads[h.0].is_empty());
        assert!(store.grad(w).norm_sq() > 0.0 && store.grad(b).norm_sq() > 0.0);

        let mut tape = Tape::new();
        let (x, seg) = (tape.param(&all_params, xp), tape.param(&all_params, sp));
        let (wn, bn) = (tape.param(&all_params, w), tape.param(&all_params, b));
        let h = tape.linear(x, wn, bn, Some(0.2));
        let s = tape.matmul(seg, h);
        let loss = tape.sum_all(s);
        tape.backward(loss, 1.0, &mut all_params);
        assert!(all_params.grad(xp).norm_sq() > 0.0 && all_params.grad(sp).norm_sq() > 0.0);
        for p in [w, b] {
            assert_eq!(store.grad(p).data(), all_params.grad(p).data());
        }
    }

    /// A kept tape sees the store change between passes: the value, and
    /// the transposed weight derived from it, are both refreshed.
    #[test]
    fn a_reused_tape_follows_the_store() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(2, 2, vec![0.5, -0.3, 0.2, 0.8]));
        let b = store.add("b", Tensor::zeros(1, 2));
        let u = store.add("u", Tensor::from_vec(1, 2, vec![0.7, -0.4]));
        let pass = |tape: &mut Tape, store: &mut ParamStore| {
            tape.reset();
            // `u` first, so the layer's input needs a gradient and the
            // backward pass goes through `wᵀ`.
            let un = tape.param(store, u);
            let (wn, bn) = (tape.param(store, w), tape.param(store, b));
            let h = tape.linear(un, wn, bn, Some(0.2));
            let loss = tape.sum_all(h);
            store.zero_grads();
            tape.backward(loss, 1.0, store);
            (tape.value(loss).scalar(), store.grad(u).data().to_vec())
        };
        let mut kept = Tape::new();
        let first = pass(&mut kept, &mut store);
        assert_eq!(pass(&mut kept, &mut store), first, "same store, same pass");
        store.value_mut(w).set(0, 1, 2.5);
        let after = pass(&mut kept, &mut store);
        assert_ne!(after, first);
        assert_eq!(after, pass(&mut Tape::new(), &mut store));
    }

    #[test]
    fn param_is_memoized_per_tape() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let a = tape.param(&store, w);
        let b = tape.param(&store, w);
        assert_eq!(a, b, "same parameter must map to one node");
        // Two consumers accumulate through the shared node: d(w+w)/dw = 2.
        let s = tape.add(a, b);
        let l = tape.sum_all(s);
        tape.backward(l, 1.0, &mut store);
        assert_eq!(store.grad(w).scalar(), 2.0);
    }

    #[test]
    fn grad_check_exp() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(1, 3, vec![0.3, 0.7, 1.2]));
        grad_check(&mut store, |tape, store| {
            let w = tape.param(store, 0);
            let e = tape.exp(w);
            let a = tape.add(w, e);
            let a = tape.mul(a, e);
            let a = tape.scale(a, 0.5);
            tape.sum_all(a)
        });
    }

    #[test]
    fn grad_check_concat_gather_sum() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]));
        store.add("b", Tensor::from_vec(1, 2, vec![-0.5, 0.6]));
        grad_check(&mut store, |tape, store| {
            let a = tape.param(store, 0);
            let b = tape.param(store, 1);
            let cat = tape.concat_rows(&[a, b]); // [3,2]
            let g = tape.gather_rows(cat, vec![0, 2, 2, 1]); // repeats!
            let sr = tape.sum_rows(g); // [1,2]
            let cc = tape.concat_cols(&[sr, b]); // [1,4]
            tape.sum_all(cc)
        });
    }

    #[test]
    fn grad_check_log_softmax_pick() {
        let mut store = ParamStore::new();
        store.add("s", Tensor::col(vec![1.0, -0.5, 2.0, 0.3]));
        grad_check(&mut store, |tape, store| {
            let s = tape.param(store, 0);
            let lp = tape.log_softmax_col(s);
            tape.pick(lp, 2, 0)
        });
    }

    #[test]
    fn grad_check_entropy_expression() {
        // H = -Σ p log p computed from log-softmax output.
        let mut store = ParamStore::new();
        store.add("s", Tensor::col(vec![0.2, 1.5, -0.7]));
        grad_check(&mut store, |tape, store| {
            let s = tape.param(store, 0);
            let lp = tape.log_softmax_col(s);
            let p = tape.exp(lp);
            let pl = tape.mul(p, lp);
            let h = tape.sum_all(pl);
            tape.scale(h, -1.0)
        });
    }

    #[test]
    fn grad_check_sub_mul_chain() {
        let mut store = ParamStore::new();
        store.add("x", Tensor::from_vec(2, 2, vec![0.5, 1.0, -0.8, 0.2]));
        store.add("y", Tensor::from_vec(2, 2, vec![1.5, -0.4, 0.9, 0.7]));
        grad_check(&mut store, |tape, store| {
            let x = tape.param(store, 0);
            let y = tape.param(store, 1);
            let d = tape.sub(x, y);
            let sq = tape.mul(d, d); // (x-y)^2, MSE-style
            tape.sum_all(sq)
        });
    }

    #[test]
    fn log_softmax_is_normalized() {
        let mut tape = Tape::new();
        let s = tape.input(Tensor::col(vec![100.0, 100.5, 99.0])); // large values: stability
        let lp = tape.log_softmax_col(s);
        let total: f64 = tape.value(lp).data().iter().map(|&l| l.exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_seed_scales_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let p = tape.param(&store, w);
        let l = tape.mul(p, p); // w^2, d/dw = 2w = 4
        let l = tape.sum_all(l);
        tape.backward(l, 3.0, &mut store);
        assert!((store.grad(w).scalar() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::filled(1, 1, 1.0));
        for _ in 0..3 {
            let mut tape = Tape::new();
            let p = tape.param(&store, w);
            let l = tape.sum_all(p);
            tape.backward(l, 1.0, &mut store);
        }
        assert_eq!(store.grad(w).scalar(), 3.0);
    }
}
