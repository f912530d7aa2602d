//! Parameter storage: named tensors with accumulated gradients.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Magic prefix of the [`ParamStore::to_text`] header line.
pub const PARAM_FORMAT_HEADER: &str = "decima-params";

/// Version written by [`ParamStore::to_text`] (and the only one
/// [`ParamStore::load_text`] accepts). Bump on any layout change.
pub const PARAM_FORMAT_VERSION: u32 = 1;

/// A named collection of trainable tensors and their gradient buffers.
///
/// Values are shared, not copied: a tape reads a parameter through the
/// `Arc` it takes at `Tape::param`, a clone of the store (one per
/// rollout or gradient worker) shares every value with the original,
/// and [`ParamStore::value_mut`] copies a tensor only if someone else
/// still holds it. The names are shared the same way: a clone copies
/// no string. `Tape::backward` accumulates `d(loss)/d(param)` into
/// `grads`; the optimizer consumes them and calls
/// [`ParamStore::zero_grads`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamStore {
    names: Arc<Vec<String>>,
    values: Vec<Arc<Tensor>>,
    grads: Vec<Tensor>,
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore {
            names: Arc::new(Vec::new()),
            values: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Registers a parameter, returning its dense index.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> usize {
        let (r, c) = value.shape();
        Arc::make_mut(&mut self.names).push(name.into());
        self.values.push(Arc::new(value));
        self.grads.push(Tensor::zeros(r, c));
        self.values.len() - 1
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters (the paper quotes ~12,736).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Parameter value by index.
    pub fn value(&self, idx: usize) -> &Tensor {
        &self.values[idx]
    }

    /// The shared handle behind [`ParamStore::value`]. Holding a clone
    /// keeps that tensor alive and unchanged: a later
    /// [`ParamStore::value_mut`] or load leaves the store pointing at a
    /// different allocation, which is how a tape notices that what it
    /// derived from a value is stale.
    pub fn shared_value(&self, idx: usize) -> &Arc<Tensor> {
        &self.values[idx]
    }

    /// Mutable parameter value (optimizer use). Copies the tensor first
    /// if a tape or another store still shares it.
    pub fn value_mut(&mut self, idx: usize) -> &mut Tensor {
        Arc::make_mut(&mut self.values[idx])
    }

    /// Gradient accumulator by index.
    pub fn grad(&self, idx: usize) -> &Tensor {
        &self.grads[idx]
    }

    /// Accumulates into a gradient buffer.
    pub fn accumulate_grad(&mut self, idx: usize, g: &Tensor, scale: f64) {
        self.grads[idx].add_scaled(g, scale);
    }

    /// Parameter name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Clears all gradient buffers.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            for v in g.data_mut() {
                *v = 0.0;
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.grads.iter().map(Tensor::norm_sq).sum::<f64>().sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f64) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                for v in g.data_mut() {
                    *v *= s;
                }
            }
        }
    }

    /// Adds every gradient of `other` into this store (parameter-wise).
    /// Used to merge per-worker gradient accumulations.
    pub fn merge_grads(&mut self, other: &ParamStore) {
        assert_eq!(self.len(), other.len(), "stores must match");
        for i in 0..self.grads.len() {
            self.grads[i].add_scaled(&other.grads[i], 1.0);
        }
    }

    /// Multiplies every gradient by `s` (e.g. `1/N` after merging `N`
    /// worker contributions).
    pub fn scale_grads(&mut self, s: f64) {
        for g in &mut self.grads {
            for v in g.data_mut() {
                *v *= s;
            }
        }
    }

    /// Serializes all parameter values into a simple self-describing text
    /// format: a `decima-params v1` header line followed by one
    /// `name rows cols v0 v1 …` line per tensor.
    pub fn to_text(&self) -> String {
        let mut out = format!("{PARAM_FORMAT_HEADER} v{PARAM_FORMAT_VERSION}\n");
        for (i, v) in self.values.iter().enumerate() {
            out.push_str(&format!("{} {} {}", self.names[i], v.rows(), v.cols()));
            for x in v.data() {
                out.push_str(&format!(" {x:.17e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Restores parameter values from [`ParamStore::to_text`] output.
    /// Parameters are matched by name; shape mismatches, unknown names,
    /// values that are not finite numbers and **missing parameters**
    /// are errors naming the tensor — a document that loads `Ok` fully
    /// determines every registered tensor (no silent stale values from
    /// a truncated file) and holds nothing a forward pass cannot use.
    /// A `decima-params vN` header is
    /// validated when present (headerless input is accepted as the
    /// legacy v1 format); an unknown version is an error, so future
    /// checkpoint migrations are detectable.
    pub fn load_text(&mut self, text: &str) -> Result<(), String> {
        let mut seen = vec![false; self.values.len()];
        for (lineno, line) in text.lines().enumerate() {
            if lineno == 0 && line.starts_with(PARAM_FORMAT_HEADER) {
                let ver = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.strip_prefix('v'))
                    .and_then(|v| v.parse::<u32>().ok())
                    .ok_or_else(|| format!("malformed format header '{line}'"))?;
                if ver != PARAM_FORMAT_VERSION {
                    return Err(format!(
                        "unsupported parameter format version v{ver} \
                         (this build reads v{PARAM_FORMAT_VERSION})"
                    ));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let name = it.next().ok_or("missing name")?;
            let idx = self
                .names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| format!("unknown parameter {name}"))?;
            let value = Tensor::parse_line_tail(name, self.values[idx].shape(), it)?;
            self.values[idx] = Arc::new(value);
            seen[idx] = true;
        }
        let missing: Vec<&str> = seen
            .iter()
            .zip(self.names.iter())
            .filter(|(s, _)| !**s)
            .map(|(_, n)| n.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "incomplete parameter document: {} of {} tensors missing (first: {})",
                missing.len(),
                self.values.len(),
                missing[0]
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_count() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(2, 3));
        let b = s.add("b", Tensor::zeros(1, 3));
        assert_eq!((w, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 9);
        assert_eq!(s.name(0), "w");
    }

    #[test]
    fn grad_accumulation_and_clip() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::zeros(1, 2));
        s.accumulate_grad(w, &Tensor::row(vec![3.0, 4.0]), 1.0);
        assert_eq!(s.grad_norm(), 5.0);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-12);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn merge_grads_sums() {
        let mut a = ParamStore::new();
        let w = a.add("w", Tensor::zeros(1, 1));
        let mut b = a.clone();
        a.accumulate_grad(w, &Tensor::filled(1, 1, 1.0), 1.0);
        b.accumulate_grad(w, &Tensor::filled(1, 1, 2.0), 1.0);
        a.merge_grads(&b);
        assert_eq!(a.grad(w).scalar(), 3.0);
    }

    #[test]
    fn text_round_trip() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(1, 2, vec![1.25, -3.5]));
        s.add("b", Tensor::from_vec(1, 1, vec![0.125]));
        let text = s.to_text();
        let mut s2 = ParamStore::new();
        s2.add("w", Tensor::zeros(1, 2));
        s2.add("b", Tensor::zeros(1, 1));
        s2.load_text(&text).unwrap();
        assert_eq!(s2.value(0).data(), &[1.25, -3.5]);
        assert_eq!(s2.value(1).data(), &[0.125]);
    }

    #[test]
    fn load_rejects_bad_input() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(1, 2));
        assert!(s.load_text("w 1 3 1 2 3").is_err()); // wrong shape
        assert!(s.load_text("x 1 2 1 2").is_err()); // unknown name
        assert!(s.load_text("w 1 2 1").is_err()); // missing values
        assert!(s.load_text("w 1 2 1 2 3").is_err()); // surplus values
                                                      // A value no forward pass can use, however it is spelled.
        for bad in ["nan", "NaN", "inf", "-inf", "1e999"] {
            let err = s.load_text(&format!("w 1 2 0.5 {bad}")).unwrap_err();
            assert_eq!(err, format!("w: value '{bad}' is not finite"));
        }
        // Dimensions whose product overflows are compared, never
        // multiplied.
        let err = s.load_text("w 4294967296 4294967296").unwrap_err();
        assert!(err.starts_with("w: shape mismatch"), "{err}");
        assert_eq!(s.value(0).data(), &[0.0, 0.0], "nothing was loaded");
    }

    #[test]
    fn text_emits_and_validates_version_header() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(1, 1, vec![2.0]));
        let text = s.to_text();
        assert!(
            text.starts_with("decima-params v1\n"),
            "missing header: {text:?}"
        );
        // Round trip with the header.
        let mut s2 = ParamStore::new();
        s2.add("w", Tensor::zeros(1, 1));
        s2.load_text(&text).unwrap();
        assert_eq!(s2.value(0).scalar(), 2.0);
        // Headerless legacy input still loads.
        s2.load_text("w 1 1 3.5").unwrap();
        assert_eq!(s2.value(0).scalar(), 3.5);
        // A future version must be rejected, not silently misread.
        let err = s2.load_text("decima-params v2\nw 1 1 9.0").unwrap_err();
        assert!(err.contains("v2"), "{err}");
        assert_eq!(s2.value(0).scalar(), 3.5, "value must be untouched");
        // A malformed header is rejected too.
        assert!(s2.load_text("decima-params vX\n").is_err());
    }

    #[test]
    fn load_rejects_truncated_and_garbage_input() {
        let mk = || {
            let mut s = ParamStore::new();
            s.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
            s
        };
        let full = mk().to_text();
        // Truncating the value list mid-tensor must error.
        let truncated = full.trim_end().rsplit_once(' ').unwrap().0.to_string();
        assert!(mk().load_text(&truncated).is_err());
        // Non-numeric dims and values must error.
        assert!(mk().load_text("w x 2 1 2 3 4").is_err());
        assert!(mk().load_text("w 2 2 1 2 three 4").is_err());
        // A bare name with no dims must error.
        assert!(mk().load_text("w").is_err());
    }

    #[test]
    fn load_rejects_incomplete_documents() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(1, 1));
        s.add("b", Tensor::zeros(1, 1));
        // Only one of two tensors present: must error, not leave `b`
        // silently at its old value.
        let err = s.load_text("decima-params v1\nw 1 1 2.0").unwrap_err();
        assert!(err.contains('b'), "{err}");
        // The full document loads.
        s.load_text("w 1 1 2.0\nb 1 1 3.0").unwrap();
        assert_eq!(s.value(1).scalar(), 3.0);
    }

    #[test]
    fn round_trip_preserves_exact_bits() {
        let mut s = ParamStore::new();
        s.add(
            "w",
            Tensor::from_vec(
                1,
                5,
                vec![
                    std::f64::consts::PI,
                    -1.0 / 3.0,
                    1e-300,
                    -1e300,
                    5.551115123125783e-17,
                ],
            ),
        );
        let mut s2 = ParamStore::new();
        s2.add("w", Tensor::zeros(1, 5));
        s2.load_text(&s.to_text()).unwrap();
        for (a, b) in s.value(0).data().iter().zip(s2.value(0).data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(1, 1));
        s.load_text("decima-params v1\n\nw 1 1 7.0\n\n").unwrap();
        assert_eq!(s.value(0).scalar(), 7.0);
    }
}
