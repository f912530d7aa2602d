//! Tape-free `f32` inference kernels.
//!
//! Training needs the `f64` tape: gradients, replay bit-exactness, and
//! gradient-checking all live there. Evaluation does not — a greedy
//! agent only ever reads the forward values — so this module provides a
//! second, inference-only lane: weights pre-packed **once** from the
//! [`ParamStore`] into contiguous `f32` matrices, a fused
//! matmul+bias+leaky-ReLU kernel that writes into caller-owned buffers
//! (zero allocations in steady state), and an [`F32Mlp`] that replays a
//! whole network through a ping-pong scratch pair.
//!
//! The contract with the tape path is *exact-enough*, not exact: `f32`
//! arithmetic diverges from the `f64` reference in the last bits, which
//! the differential suites (`crates/nn/tests/infer_diff.rs` and up the
//! stack) bound at 1e-4 relative error on outputs. Anything that needs
//! bit-exactness — sampling, replay, the reference side of the
//! differential suites — stays on the tape.

use crate::mlp::{Activation, Mlp};
use crate::store::ParamStore;

/// One packed dense layer: `[in_dim, out_dim]` row-major weights plus a
/// bias row, both converted from the `f64` store once at pack time.
#[derive(Clone, Debug)]
pub struct F32Layer {
    w: Vec<f32>,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

/// Reusable ping-pong scratch for hidden-layer activations. One pair
/// serves any number of [`F32Mlp::forward`] calls; buffers grow to the
/// high-water mark and are never shrunk.
#[derive(Clone, Debug, Default)]
pub struct F32Scratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
    /// First-layer row of [`F32Mlp::forward_shared_prefix`]'s prefix.
    base: Vec<f32>,
}

/// Fused `out = act(x @ w + b)` on row-major `f32` slices.
///
/// Mirrors the tape's `linear` op numerically (bias-initialized
/// accumulators, `x[r,k] * w[k,·]` added in `k` order), but is shaped
/// for the auto-vectorizer instead of the tape's sparsity: the common
/// layer widths (1/8/16/32 outputs) run through const-width
/// register-accumulator kernels, row-blocked so each weight row is
/// loaded once per block and the independent accumulator rows hide FP
/// add latency. `slope` applies leaky-ReLU in the same pass when given.
pub fn linear_f32(
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    x: &[f32],
    w: &[f32],
    b: &[f32],
    slope: Option<f32>,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), rows * in_dim);
    debug_assert_eq!(w.len(), in_dim * out_dim);
    debug_assert_eq!(b.len(), out_dim);
    // Every kernel writes every output element, so old contents need no
    // zeroing — only (re)size the buffer.
    if out.len() < rows * out_dim {
        out.resize(rows * out_dim, 0.0);
    } else {
        out.truncate(rows * out_dim);
    }
    // Row-block factors are measured, not guessed: LLVM only keeps an
    // accumulator tile in registers while scalar replacement applies
    // (arrays past ~128 bytes fall back to stack round-trips), so width
    // 8 uses four explicit `[f32; 8]` locals and width 16 a 2-row tile
    // — one `[f32; 16]` row is exactly one 512-bit register (see
    // `.cargo/config.toml` and docs/PERF.md).
    match out_dim {
        1 => dot_kernel(rows, in_dim, x, w, b[0], slope, out),
        8 => block_kernel4::<8>(rows, in_dim, x, w, b, slope, out),
        16 => block_kernel::<16, 2>(rows, in_dim, x, w, b, slope, out),
        32 => block_kernel::<32, 1>(rows, in_dim, x, w, b, slope, out),
        _ => generic_kernel(rows, in_dim, out_dim, x, w, b, slope, out),
    }
}

/// `out_dim == 1`: each output is a bias-seeded dot product over the
/// contiguous weight column. Eight partial lanes break the serial FMA
/// chain (a fixed reassociation of the sum — deterministic, and covered
/// by the differential contract).
fn dot_kernel(
    rows: usize,
    in_dim: usize,
    x: &[f32],
    w: &[f32],
    b: f32,
    slope: Option<f32>,
    out: &mut [f32],
) {
    for r in 0..rows {
        let xrow = &x[r * in_dim..(r + 1) * in_dim];
        let mut lanes = [0.0f32; 8];
        let mut chunks = xrow.chunks_exact(8).zip(w.chunks_exact(8));
        for (xc, wc) in &mut chunks {
            for j in 0..8 {
                lanes[j] += xc[j] * wc[j];
            }
        }
        let done = in_dim - in_dim % 8;
        for (j, (a, wv)) in xrow[done..].iter().zip(&w[done..]).enumerate() {
            lanes[j] += a * wv;
        }
        let mut acc = b;
        for pair in [0usize, 2, 4, 6] {
            lanes[pair] += lanes[pair + 1];
        }
        lanes[0] += lanes[2];
        lanes[4] += lanes[6];
        acc += lanes[0] + lanes[4];
        if let Some(s) = slope {
            if acc < 0.0 {
                acc *= s;
            }
        }
        out[r] = acc;
    }
}

/// Four-row kernel with the accumulator tile spelled out as separate
/// local arrays: one `[f32; OD]` stays under the scalar-replacement
/// size limit, so all four rows live in registers (AVX-512 has 32),
/// giving 8+ independent add chains to hide FP latency.
fn block_kernel4<const OD: usize>(
    rows: usize,
    in_dim: usize,
    x: &[f32],
    w: &[f32],
    b: &[f32],
    slope: Option<f32>,
    out: &mut [f32],
) {
    let mut bias = [0.0f32; OD];
    bias.copy_from_slice(b);
    let mut r = 0;
    while r + 4 <= rows {
        let (mut a0, mut a1, mut a2, mut a3) = (bias, bias, bias, bias);
        let x0 = &x[r * in_dim..(r + 1) * in_dim];
        let x1 = &x[(r + 1) * in_dim..(r + 2) * in_dim];
        let x2 = &x[(r + 2) * in_dim..(r + 3) * in_dim];
        let x3 = &x[(r + 3) * in_dim..(r + 4) * in_dim];
        for k in 0..in_dim {
            let wrow = &w[k * OD..(k + 1) * OD];
            let (v0, v1, v2, v3) = (x0[k], x1[k], x2[k], x3[k]);
            for j in 0..OD {
                a0[j] += v0 * wrow[j];
            }
            for j in 0..OD {
                a1[j] += v1 * wrow[j];
            }
            for j in 0..OD {
                a2[j] += v2 * wrow[j];
            }
            for j in 0..OD {
                a3[j] += v3 * wrow[j];
            }
        }
        for (i, a) in [&mut a0, &mut a1, &mut a2, &mut a3].into_iter().enumerate() {
            if let Some(s) = slope {
                for v in a.iter_mut() {
                    if *v < 0.0 {
                        *v *= s;
                    }
                }
            }
            out[(r + i) * OD..(r + i + 1) * OD].copy_from_slice(a);
        }
        r += 4;
    }
    if r < rows {
        block_kernel::<OD, 1>(
            rows - r,
            in_dim,
            &x[r * in_dim..],
            w,
            b,
            slope,
            &mut out[r * OD..],
        );
    }
}

/// Const-width kernel: an `RB x OD` accumulator tile lives in registers
/// across the whole `k` loop, so `w[k,·]` is loaded once per row block
/// and nothing round-trips through memory until the final store.
fn block_kernel<const OD: usize, const RB: usize>(
    rows: usize,
    in_dim: usize,
    x: &[f32],
    w: &[f32],
    b: &[f32],
    slope: Option<f32>,
    out: &mut [f32],
) {
    let mut bias = [0.0f32; OD];
    bias.copy_from_slice(b);
    let mut r = 0;
    while r + RB <= rows {
        let mut acc = [bias; RB];
        for k in 0..in_dim {
            let wrow = &w[k * OD..(k + 1) * OD];
            for (i, a) in acc.iter_mut().enumerate() {
                let v = x[(r + i) * in_dim + k];
                for j in 0..OD {
                    a[j] += v * wrow[j];
                }
            }
        }
        for (i, a) in acc.iter_mut().enumerate() {
            if let Some(s) = slope {
                for v in a.iter_mut() {
                    if *v < 0.0 {
                        *v *= s;
                    }
                }
            }
            out[(r + i) * OD..(r + i + 1) * OD].copy_from_slice(a);
        }
        r += RB;
    }
    while r < rows {
        let xrow = &x[r * in_dim..(r + 1) * in_dim];
        let mut acc = bias;
        for k in 0..in_dim {
            let a = xrow[k];
            let wrow = &w[k * OD..(k + 1) * OD];
            for j in 0..OD {
                acc[j] += a * wrow[j];
            }
        }
        if let Some(s) = slope {
            for v in acc.iter_mut() {
                if *v < 0.0 {
                    *v *= s;
                }
            }
        }
        out[r * OD..(r + 1) * OD].copy_from_slice(&acc);
        r += 1;
    }
}

/// Fallback for unusual widths: bias-init then accumulate per input.
fn generic_kernel(
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    x: &[f32],
    w: &[f32],
    b: &[f32],
    slope: Option<f32>,
    out: &mut [f32],
) {
    for r in 0..rows {
        let xrow = &x[r * in_dim..(r + 1) * in_dim];
        let orow = &mut out[r * out_dim..(r + 1) * out_dim];
        orow.copy_from_slice(b);
        for (k, &a) in xrow.iter().enumerate() {
            let wrow = &w[k * out_dim..(k + 1) * out_dim];
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += a * wv;
            }
        }
        if let Some(s) = slope {
            for o in orow.iter_mut() {
                if *o < 0.0 {
                    *o *= s;
                }
            }
        }
    }
}

/// A fully-connected network packed for tape-free `f32` inference:
/// the `f32` counterpart of [`Mlp::forward`], layer layout and fused
/// activation included.
#[derive(Clone, Debug)]
pub struct F32Mlp {
    layers: Vec<F32Layer>,
    /// Leaky-ReLU slope fused into every hidden layer (the output layer
    /// is linear, exactly like the tape path).
    slope: f32,
    in_dim: usize,
    out_dim: usize,
}

impl F32Mlp {
    /// Packs an [`Mlp`]'s parameters from the store into contiguous
    /// `f32` matrices. Always `Some`: the fused kernel covers the one
    /// [`Activation`]. The `Option` stays only because callers outside
    /// the workspace destructure it.
    pub fn pack(mlp: &Mlp, store: &ParamStore) -> Option<Self> {
        let Activation::LeakyRelu(slope) = mlp.activation();
        let layers = mlp
            .layers()
            .iter()
            .map(|&(wi, bi)| {
                let w = store.value(wi);
                let b = store.value(bi);
                F32Layer {
                    w: w.data().iter().map(|&v| v as f32).collect(),
                    b: b.data().iter().map(|&v| v as f32).collect(),
                    in_dim: w.rows(),
                    out_dim: w.cols(),
                }
            })
            .collect();
        Some(F32Mlp {
            layers,
            slope: slope as f32,
            in_dim: mlp.in_dim(),
            out_dim: mlp.out_dim(),
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the network to `rows` rows of `x` (`[rows, in_dim]`
    /// row-major), writing `[rows, out_dim]` into `out`. Hidden
    /// activations ping-pong through `scratch`; nothing allocates once
    /// the buffers have reached their steady-state sizes.
    pub fn forward(&self, rows: usize, x: &[f32], scratch: &mut F32Scratch, out: &mut Vec<f32>) {
        assert_eq!(x.len(), rows * self.in_dim, "f32 MLP input size mismatch");
        self.layers_from(0, rows, Some(x), scratch, out);
    }

    /// [`forward`](Self::forward) for a batch whose rows all share the
    /// same leading `shared` inputs and differ only in a trailing
    /// per-row block (`tails` is `[rows, in_dim - shared.len()]`
    /// row-major) — the shape of the limit head, where every candidate
    /// value scores the same job/global context.
    ///
    /// The shared prefix's first-layer contribution is computed once and
    /// each row only adds its own tail columns on top. Because the
    /// kernel accumulates `k` in ascending order, this is the *same*
    /// summation order as materializing the full rows — bit-identical
    /// output, `rows`-fold less first-layer work.
    pub fn forward_shared_prefix(
        &self,
        rows: usize,
        shared: &[f32],
        tails: &[f32],
        scratch: &mut F32Scratch,
        out: &mut Vec<f32>,
    ) {
        let first = &self.layers[0];
        let tw = first.in_dim - shared.len();
        assert_eq!(tails.len(), rows * tw, "tail block size mismatch");
        // Shared prefix through the first layer, bias included, no
        // activation yet (the tail columns still need to land).
        let od = first.out_dim;
        let base = &mut scratch.base;
        base.clear();
        base.extend_from_slice(&first.b);
        for (k, &v) in shared.iter().enumerate() {
            let wrow = &first.w[k * od..(k + 1) * od];
            for (acc, &wv) in base.iter_mut().zip(wrow) {
                *acc += v * wv;
            }
        }
        // Per-row tails, then the fused activation of a hidden layer; a
        // one-layer network's (linear) output goes straight to `out`.
        let hidden = self.layers.len() > 1;
        let dst = if hidden { &mut scratch.pong } else { &mut *out };
        dst.clear();
        dst.resize(rows * od, 0.0);
        for r in 0..rows {
            let trow = &tails[r * tw..(r + 1) * tw];
            let orow = &mut dst[r * od..(r + 1) * od];
            orow.copy_from_slice(&scratch.base);
            for (k, &v) in trow.iter().enumerate() {
                let wrow = &first.w[(shared.len() + k) * od..];
                for (o, &wv) in orow.iter_mut().zip(wrow) {
                    *o += v * wv;
                }
            }
            if hidden {
                for o in orow.iter_mut() {
                    if *o < 0.0 {
                        *o *= self.slope;
                    }
                }
            }
        }
        if hidden {
            std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            self.layers_from(1, rows, None, scratch, out);
        }
    }

    /// Layers `first..` over `rows` rows of `x`, or of `scratch.ping`
    /// when `x` is `None`: hidden layers ping-pong through `scratch`,
    /// the (linear) output layer writes `out`.
    fn layers_from(
        &self,
        first: usize,
        rows: usize,
        x: Option<&[f32]>,
        scratch: &mut F32Scratch,
        out: &mut Vec<f32>,
    ) {
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate().skip(first) {
            let src = match x {
                Some(x) if l == first => x,
                _ => &scratch.ping,
            };
            let (slope, dst) = if l < last {
                (Some(self.slope), &mut scratch.pong)
            } else {
                (None, &mut *out)
            };
            linear_f32(
                rows,
                layer.in_dim,
                layer.out_dim,
                src,
                &layer.w,
                &layer.b,
                slope,
                dst,
            );
            if l < last {
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tape_forward(mlp: &Mlp, store: &ParamStore, x: &Tensor) -> Vec<f64> {
        let mut tape = Tape::new();
        let xid = tape.input(x.clone());
        let y = mlp.forward(&mut tape, store, xid);
        tape.value(y).data().to_vec()
    }

    #[test]
    fn packed_mlp_matches_tape_forward() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[5, 16, 8, 3],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let fast = F32Mlp::pack(&mlp, &store).expect("leaky-relu packs");
        assert_eq!(fast.in_dim(), 5);
        assert_eq!(fast.out_dim(), 3);

        let x = Tensor::from_vec(
            7,
            5,
            (0..35)
                .map(|i| ((i * 37) % 11) as f64 * 0.3 - 1.5)
                .collect(),
        );
        let want = tape_forward(&mlp, &store, &x);
        let xf: Vec<f32> = x.data().iter().map(|&v| v as f32).collect();
        let mut scratch = F32Scratch::default();
        let mut out = Vec::new();
        fast.forward(7, &xf, &mut scratch, &mut out);
        assert_eq!(out.len(), want.len());
        for (a, b) in out.iter().zip(&want) {
            assert!(
                (*a as f64 - b).abs() <= 1e-4 * b.abs().max(1.0),
                "fast {a} vs tape {b}"
            );
        }
    }

    #[test]
    fn buffers_are_reused_across_calls() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[4, 8, 2],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let fast = F32Mlp::pack(&mlp, &store).unwrap();
        let mut scratch = F32Scratch::default();
        let mut out = Vec::new();
        let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.7).sin()).collect();
        // Two warm-up calls: the ping-pong pair reaches its high-water
        // mark only once both buffers have held the widest activation.
        fast.forward(10, &x, &mut scratch, &mut out);
        fast.forward(10, &x, &mut scratch, &mut out);
        let cap = (
            out.capacity(),
            scratch.ping.capacity(),
            scratch.pong.capacity(),
        );
        for _ in 0..50 {
            fast.forward(10, &x, &mut scratch, &mut out);
        }
        assert_eq!(
            cap,
            (
                out.capacity(),
                scratch.ping.capacity(),
                scratch.pong.capacity()
            ),
            "steady-state forward must not reallocate"
        );
    }

    /// The shared-prefix kernel is the batched forward with the common
    /// columns hoisted: same bits, at any first-layer width.
    #[test]
    fn shared_prefix_matches_materialized_rows_at_any_width() {
        for first_width in [8usize, 64, 128] {
            let mut store = ParamStore::new();
            let mut rng = SmallRng::seed_from_u64(8);
            let mlp = Mlp::new(
                &mut store,
                "m",
                &[5, first_width, 1],
                Activation::LeakyRelu(0.2),
                &mut rng,
            );
            let fast = F32Mlp::pack(&mlp, &store).unwrap();
            let shared = [0.3f32, -1.2, 0.7, 0.05];
            let tails = [0.1f32, 0.5, 0.9];
            let full: Vec<f32> = tails
                .iter()
                .flat_map(|&t| shared.iter().copied().chain([t]))
                .collect();
            let mut scratch = F32Scratch::default();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            fast.forward(3, &full, &mut scratch, &mut want);
            fast.forward_shared_prefix(3, &shared, &tails, &mut scratch, &mut got);
            assert_eq!(want, got, "first-layer width {first_width}");
        }
    }

    #[test]
    fn sparse_inputs_match_tape() {
        // Feature rows are sparse in practice; zeros flowing through the
        // dense kernel must not perturb the result.
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[6, 5, 2],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let fast = F32Mlp::pack(&mlp, &store).unwrap();
        let mut data = vec![0.0f64; 6];
        data[2] = 0.8;
        data[5] = -0.4;
        let x = Tensor::from_vec(1, 6, data.clone());
        let want = tape_forward(&mlp, &store, &x);
        let xf: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let mut scratch = F32Scratch::default();
        let mut out = Vec::new();
        fast.forward(1, &xf, &mut scratch, &mut out);
        for (a, b) in out.iter().zip(&want) {
            assert!((*a as f64 - b).abs() <= 1e-5 * b.abs().max(1.0));
        }
    }
}
