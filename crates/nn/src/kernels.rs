//! The matrix kernels the `f64` tape executes through.
//!
//! Three products cover every dense operation of a forward and a
//! backward pass: `a·b` ([`matmul_into`], and [`linear_into`] with the
//! dense layer's bias and leaky ReLU folded into its epilogue),
//! `g·wᵀ` ([`matmul_nt_into`]) and `xᵀ·g` ([`matmul_tn_into`]). Each
//! writes into a caller-owned [`Tensor`] whose allocation it keeps, and
//! none materialises a transpose.
//!
//! **The summation order is the contract.** Every output element is
//! computed exactly as [`Tensor::matmul`] computes it: the accumulator
//! starts at `+0.0`; the contraction index advances in aligned groups of
//! four, each added as `a0·r0 + a1·r1 + a2·r2 + a3·r3` (left to right)
//! unless all four coefficients are zero, in which case the group is
//! skipped; then the tail, one term at a time, zero coefficients
//! skipped; bias and activation come after the sum. Training results
//! are pinned to the bit (`crates/bench/tests/tape_golden.rs`), so a
//! kernel may change how the elements are walked — these block the
//! output's columns into const widths the vectoriser can unroll, and
//! `xᵀ·g` walks the groups outermost — but never the order in which one
//! element's terms are added. The contract binds `Tape::segment_sum`
//! too: it is the product by a 0/1 segment matrix, computed by index,
//! so it adds a segment's rows per aligned group of four and the group
//! sums into `+0.0`, and its backward is this `xᵀ·g`'s `0.0 + g`.
//! `tests/tape_diff.rs` compares each kernel with the `Tensor::matmul` /
//! `Tensor::transpose` expression it replaces, and the segment sum with
//! `Tape::matmul` of its 0/1 matrix, bit for bit.

use crate::tensor::Tensor;

/// `out = a·b`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    product(a, b, None, None, out);
}

/// `out = act(x·w + bias)`: the fused dense layer. `slope` is the leaky
/// ReLU's negative-side slope (`None` = linear output); `bias` is a
/// `[1, w.cols()]` row.
pub fn linear_into(x: &Tensor, w: &Tensor, bias: &Tensor, slope: Option<f64>, out: &mut Tensor) {
    assert_eq!(bias.rows(), 1, "linear bias must be a row vector");
    assert_eq!(w.cols(), bias.cols(), "linear bias width mismatch");
    product(x, w, Some(bias.data()), slope, out);
}

fn product(a: &Tensor, b: &Tensor, bias: Option<&[f64]>, slope: Option<f64>, out: &mut Tensor) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.resize_zeroed(m, n);
    let (a, b, out) = (a.data(), b.data(), out.data_mut());
    let mut c0 = 0;
    while c0 < n {
        c0 += match n - c0 {
            16.. => product_block::<16>(a, b, (m, k, n), c0, bias, slope, out),
            8.. => product_block::<8>(a, b, (m, k, n), c0, bias, slope, out),
            _ => product_block::<1>(a, b, (m, k, n), c0, bias, slope, out),
        };
    }
}

/// Columns `c0..c0 + W` of `act(a·b + bias)`; returns `W`. One output
/// row's accumulators stay in registers across the whole contraction.
fn product_block<const W: usize>(
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    c0: usize,
    bias: Option<&[f64]>,
    slope: Option<f64>,
    out: &mut [f64],
) -> usize {
    let k4 = k - k % 4;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f64; W];
        for p in (0..k4).step_by(4) {
            let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
            if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                let r0 = &b[p * n + c0..][..W];
                let r1 = &b[(p + 1) * n + c0..][..W];
                let r2 = &b[(p + 2) * n + c0..][..W];
                let r3 = &b[(p + 3) * n + c0..][..W];
                for c in 0..W {
                    acc[c] += a0 * r0[c] + a1 * r1[c] + a2 * r2[c] + a3 * r3[c];
                }
            }
        }
        for p in k4..k {
            let av = arow[p];
            if av != 0.0 {
                let r = &b[p * n + c0..][..W];
                for c in 0..W {
                    acc[c] += av * r[c];
                }
            }
        }
        if let Some(bias) = bias {
            for (o, &bv) in acc.iter_mut().zip(&bias[c0..][..W]) {
                *o += bv;
            }
        }
        if let Some(s) = slope {
            for o in &mut acc {
                if *o <= 0.0 {
                    *o *= s;
                }
            }
        }
        out[i * n + c0..][..W].copy_from_slice(&acc);
    }
    W
}

/// `out = g·wᵀ` for `g: [m, n]`, `w: [k, n]`, bit-identical to
/// `g.matmul(&w.transpose())`: both operands are read along their
/// contiguous rows, so nothing is transposed. The general form of a
/// matmul's left-operand gradient; a dense layer, whose `w` is a
/// parameter that stands for a whole trajectory, goes through
/// [`matmul_into`] on a transposed weight the tape keeps instead.
pub fn matmul_nt_into(g: &Tensor, w: &Tensor, out: &mut Tensor) {
    assert_eq!(
        g.cols(),
        w.cols(),
        "matmul_nt shape mismatch: {:?} x {:?}ᵀ",
        g.shape(),
        w.shape()
    );
    let (m, n, k) = (g.rows(), g.cols(), w.rows());
    out.resize_zeroed(m, k);
    let (g, w, out) = (g.data(), w.data(), out.data_mut());
    let n4 = n - n % 4;
    for i in 0..m {
        let grow = &g[i * n..][..n];
        for j in 0..k {
            let wrow = &w[j * n..][..n];
            let mut acc = 0.0;
            for (gg, wg) in grow[..n4].chunks_exact(4).zip(wrow[..n4].chunks_exact(4)) {
                if gg[0] != 0.0 || gg[1] != 0.0 || gg[2] != 0.0 || gg[3] != 0.0 {
                    acc += gg[0] * wg[0] + gg[1] * wg[1] + gg[2] * wg[2] + gg[3] * wg[3];
                }
            }
            for (&gv, &wv) in grow[n4..].iter().zip(&wrow[n4..]) {
                if gv != 0.0 {
                    acc += gv * wv;
                }
            }
            out[i * k + j] = acc;
        }
    }
}

/// `out = xᵀ·g` for `x: [m, k]`, `g: [m, n]`, bit-identical to
/// `x.transpose().matmul(g)`: a weight gradient, or a matmul's
/// right-operand gradient. The contraction runs over the rows of both
/// operands, so the groups of four are walked outermost and `x` is read
/// by strided loads — each output element still receives its groups in
/// ascending order.
pub fn matmul_tn_into(x: &Tensor, g: &Tensor, out: &mut Tensor) {
    assert_eq!(
        x.rows(),
        g.rows(),
        "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
        x.shape(),
        g.shape()
    );
    let (m, k, n) = (x.rows(), x.cols(), g.cols());
    out.resize_zeroed(k, n);
    let (x, g, out) = (x.data(), g.data(), out.data_mut());
    let mut c0 = 0;
    while c0 < n {
        c0 += match n - c0 {
            16.. => tn_block::<16>(x, g, (m, k, n), c0, out),
            8.. => tn_block::<8>(x, g, (m, k, n), c0, out),
            _ => tn_block::<1>(x, g, (m, k, n), c0, out),
        };
    }
}

/// Columns `c0..c0 + W` of `xᵀ·g`, accumulated into a zeroed `out`;
/// returns `W`.
fn tn_block<const W: usize>(
    x: &[f64],
    g: &[f64],
    (m, k, n): (usize, usize, usize),
    c0: usize,
    out: &mut [f64],
) -> usize {
    let m4 = m - m % 4;
    for p in (0..m4).step_by(4) {
        let g0 = &g[p * n + c0..][..W];
        let g1 = &g[(p + 1) * n + c0..][..W];
        let g2 = &g[(p + 2) * n + c0..][..W];
        let g3 = &g[(p + 3) * n + c0..][..W];
        let (x0, x1) = (&x[p * k..][..k], &x[(p + 1) * k..][..k]);
        let (x2, x3) = (&x[(p + 2) * k..][..k], &x[(p + 3) * k..][..k]);
        for j in 0..k {
            let (a0, a1, a2, a3) = (x0[j], x1[j], x2[j], x3[j]);
            if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                let o = &mut out[j * n + c0..][..W];
                for c in 0..W {
                    o[c] += a0 * g0[c] + a1 * g1[c] + a2 * g2[c] + a3 * g3[c];
                }
            }
        }
    }
    for p in m4..m {
        let grow = &g[p * n + c0..][..W];
        for (j, &av) in x[p * k..][..k].iter().enumerate() {
            if av != 0.0 {
                let o = &mut out[j * n + c0..][..W];
                for c in 0..W {
                    o[c] += av * grow[c];
                }
            }
        }
    }
    W
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn ramp(rows: usize, cols: usize, scale: f64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i * 7 + 3) % 11) as f64 * scale - 1.0)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Every column-block split (16 / 8 / singles) against the reference.
    #[test]
    fn every_width_class_matches_the_reference_products() {
        let mut out = Tensor::default();
        for n in [1, 7, 8, 9, 16, 17, 24, 32, 41] {
            for (m, k) in [(0, 3), (1, 0), (3, 5), (9, 8), (6, 13)] {
                let (a, b) = (ramp(m, k, 0.37), ramp(k, n, 0.21));
                matmul_into(&a, &b, &mut out);
                assert_eq!(bits(&out), bits(&a.matmul(&b)), "a·b {m}x{k}x{n}");

                let (g, w) = (ramp(m, n, 0.11), ramp(k, n, 0.21));
                matmul_nt_into(&g, &w, &mut out);
                assert_eq!(out.shape(), (m, k));
                assert_eq!(bits(&out), bits(&g.matmul(&w.transpose())), "g·wᵀ");

                let (x, g) = (ramp(m, k, 0.37), ramp(m, n, 0.11));
                matmul_tn_into(&x, &g, &mut out);
                assert_eq!(bits(&out), bits(&x.transpose().matmul(&g)), "xᵀ·g");
            }
        }
    }

    #[test]
    fn a_reused_output_keeps_nothing_of_its_last_use() {
        let mut out = Tensor::filled(9, 9, f64::NAN);
        let (a, b) = (ramp(2, 3, 0.5), ramp(3, 2, 0.25));
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }
}
