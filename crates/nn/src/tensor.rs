//! Dense row-major 2-D tensors.
//!
//! Everything in the Decima networks is a small matrix (the paper's whole
//! model is ~13k parameters), so a `Vec<f64>`-backed dense tensor is
//! enough. [`Tensor::matmul`] and [`Tensor::transpose`] here are the
//! plain reference forms: the tape executes through the
//! width-specialised, allocation-free kernels of [`crate::kernels`],
//! which `tests/tape_diff.rs` holds bitwise to expressions built from
//! these two. The order in which `matmul` sums — aligned groups of four
//! along the contraction index, all-zero groups skipped — is therefore
//! part of the training contract (docs/DETERMINISM.md), not an
//! implementation detail.

use rand::Rng;
use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled with `v`.
    pub fn filled(rows: usize, cols: usize, v: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds from a row-major data vector. Panics on size mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor { rows, cols, data }
    }

    /// A `[1, n]` row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// A `[n, 1]` column vector.
    pub fn col(data: Vec<f64>) -> Self {
        Tensor {
            rows: data.len(),
            cols: 1,
            data,
        }
    }

    /// Parses the `rows cols v0 v1 …` tail of a serialized tensor line
    /// (`ParamStore::load_text`, `Adam::load_text`) for a tensor
    /// registered as `shape`. The text is outside input: the declared
    /// shape is compared with the registered one before anything is
    /// sized from it, and a value that is not a finite number is an
    /// error — one NaN parameter or moment would otherwise train every
    /// parameter to NaN. Errors name `what`.
    pub(crate) fn parse_line_tail<'a>(
        what: &str,
        shape: (usize, usize),
        mut tokens: impl Iterator<Item = &'a str>,
    ) -> Result<Tensor, String> {
        let mut dim = |name: &str| -> Result<usize, String> {
            let tok = tokens
                .next()
                .ok_or_else(|| format!("{what}: missing {name}"))?;
            tok.parse()
                .map_err(|e| format!("{what}: bad {name} '{tok}': {e}"))
        };
        let declared = (dim("rows")?, dim("cols")?);
        if declared != shape {
            return Err(format!(
                "{what}: shape mismatch: the file says {}x{}, the model has {}x{}",
                declared.0, declared.1, shape.0, shape.1
            ));
        }
        let want = shape.0 * shape.1;
        let mut data = Vec::with_capacity(want);
        for tok in tokens {
            let v = parse_finite(what, tok)?;
            if data.len() == want {
                return Err(format!("{what}: more than the expected {want} values"));
            }
            data.push(v);
        }
        if data.len() != want {
            return Err(format!(
                "{what}: expected {want} values, found {}",
                data.len()
            ));
        }
        Ok(Tensor::from_vec(shape.0, shape.1, data))
    }

    /// He-uniform initialization for a `[fan_in, fan_out]` weight matrix.
    pub fn he_init(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / rows as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Reshapes to `[rows, cols]` of zeros, keeping the allocation: how
    /// the tape recycles a buffer for a kernel that accumulates into it.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Reshapes to `[rows, cols]`, keeping the allocation: `fill` gets
    /// the emptied buffer and must leave `rows * cols` row-major values
    /// in it (panics otherwise).
    pub fn refill(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f64>)) {
        self.data.clear();
        fill(&mut self.data);
        assert_eq!(self.data.len(), rows * cols, "tensor data length mismatch");
        (self.rows, self.cols) = (rows, cols);
    }

    /// [`Tensor::refill`] from an iterator of row-major values.
    pub fn assign(&mut self, rows: usize, cols: usize, values: impl IntoIterator<Item = f64>) {
        self.refill(rows, cols, |data| data.extend(values));
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self[m,k] × rhs[k,n]`.
    ///
    /// The kernel walks four `rhs` rows per pass so every output element
    /// is loaded/stored once per four multiply-adds (the NN hot path is
    /// memory-bound at these tiny sizes), and skips all-zero coefficient
    /// groups; `Tape::segment_sum` is a product with a 0/1 matrix
    /// computed by index in exactly this order.
    ///
    /// The tape computes through the allocation-free kernels of
    /// `kernels.rs`; this allocating form has no production caller and
    /// stays as the expression each kernel is held to the bit against
    /// (`crates/nn/tests/tape_diff.rs`, and the kernels' unit tests).
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut p = 0;
            while p + 4 <= k {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let r0 = &rhs.data[p * n..(p + 1) * n];
                    let r1 = &rhs.data[(p + 1) * n..(p + 2) * n];
                    let r2 = &rhs.data[(p + 2) * n..(p + 3) * n];
                    let r3 = &rhs.data[(p + 3) * n..(p + 4) * n];
                    for c in 0..n {
                        orow[c] += a0 * r0[c] + a1 * r1[c] + a2 * r2[c] + a3 * r3[c];
                    }
                }
                p += 4;
            }
            for (p, &a) in arow.iter().enumerate().take(k).skip(p) {
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[p * n..(p + 1) * n];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += scale * other` (shapes must match).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius-norm squared.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Scalar value of a `[1,1]` tensor.
    pub fn scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "scalar() needs a [1,1] tensor");
        self.data[0]
    }
}

/// Parses one number of a checkpoint's tensor sections: NaN and the
/// infinities parse as `f64` and are refused all the same. Errors name
/// `what`.
pub(crate) fn parse_finite(what: &str, tok: &str) -> Result<f64, String> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(format!("{what}: value '{tok}' is not finite")),
        Err(e) => Err(format!("{what}: bad value '{tok}': {e}")),
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        t.set(0, 0, 9.0);
        assert_eq!(t.get(0, 0), 9.0);
        assert_eq!(t.row_slice(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 2));
        assert_eq!(c.data(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn he_init_bounded_and_nonzero() {
        let mut rng = SmallRng::seed_from_u64(0);
        let w = Tensor::he_init(8, 16, &mut rng);
        let bound = (6.0_f64 / 8.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        assert!(w.norm_sq() > 0.0);
    }

    #[test]
    fn helpers() {
        let mut a = Tensor::row(vec![1.0, 2.0]);
        a.add_scaled(&Tensor::row(vec![10.0, 10.0]), 0.5);
        assert_eq!(a.data(), &[6.0, 7.0]);
        assert_eq!(a.sum(), 13.0);
        let s = Tensor::filled(1, 1, 3.0);
        assert_eq!(s.scalar(), 3.0);
        assert_eq!(a.map(|v| v * 2.0).data(), &[12.0, 14.0]);
    }
}
