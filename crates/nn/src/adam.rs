//! Adam optimizer (Kingma & Ba, 2015) — the paper's optimizer (App. C).

use crate::store::ParamStore;
use crate::tensor::{parse_finite, Tensor};
use serde::{Deserialize, Serialize};

/// Adam state and hyperparameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate (paper: 1e-3).
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Optional global gradient-norm clip applied before each step.
    pub clip_norm: Option<f64>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state shaped like `store` with the paper's
    /// defaults (lr = 1e-3).
    pub fn new(store: &ParamStore, lr: f64) -> Self {
        let m = (0..store.len())
            .map(|i| {
                let (r, c) = store.value(i).shape();
                Tensor::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(10.0),
            m,
            v,
            t: 0,
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Serializes the full optimizer state — hyperparameters, step
    /// count, and both moment buffers — as text (checkpointing). Rust's
    /// shortest-round-trip float formatting keeps the state bit-exact.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "hyper {} {} {} {} {} {}\n",
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.clip_norm.map_or("none".to_string(), |c| c.to_string()),
            self.t
        ));
        for (tag, moments) in [("m", &self.m), ("v", &self.v)] {
            for (i, t) in moments.iter().enumerate() {
                out.push_str(&format!("{tag} {i} {} {}", t.rows(), t.cols()));
                for x in t.data() {
                    out.push_str(&format!(" {x}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Restores state written by [`Adam::to_text`]. The optimizer must
    /// already be shaped like the store it was saved from (construct
    /// with [`Adam::new`] first); shape or index mismatches are errors,
    /// and so is an **incomplete** document (missing hyperparameters or
    /// moment tensors) — a load that returns `Ok` fully determines the
    /// optimizer state.
    pub fn load_text(&mut self, text: &str) -> Result<(), String> {
        let mut seen_hyper = false;
        let mut seen_m = vec![false; self.m.len()];
        let mut seen_v = vec![false; self.v.len()];
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let tag = it.next().ok_or("empty line")?;
            match tag {
                "hyper" => {
                    let mut field = |what: &str| it.next().ok_or_else(|| format!("missing {what}"));
                    self.lr = parse_finite("hyper lr", field("lr")?)?;
                    self.beta1 = parse_finite("hyper beta1", field("beta1")?)?;
                    self.beta2 = parse_finite("hyper beta2", field("beta2")?)?;
                    self.eps = parse_finite("hyper eps", field("eps")?)?;
                    self.clip_norm = match field("clip")? {
                        "none" => None,
                        c => Some(parse_finite("hyper clip", c)?),
                    };
                    self.t = field("step count")?
                        .parse()
                        .map_err(|e| format!("bad step count: {e}"))?;
                    seen_hyper = true;
                }
                "m" | "v" => {
                    let idx: usize = it
                        .next()
                        .ok_or("missing moment index")?
                        .parse()
                        .map_err(|e| format!("bad moment index: {e}"))?;
                    let buf = if tag == "m" { &mut self.m } else { &mut self.v };
                    let slot = buf
                        .get_mut(idx)
                        .ok_or_else(|| format!("moment index {idx} out of range"))?;
                    *slot = Tensor::parse_line_tail(&format!("{tag} {idx}"), slot.shape(), it)?;
                    let seen = if tag == "m" { &mut seen_m } else { &mut seen_v };
                    seen[idx] = true;
                }
                other => return Err(format!("unknown record '{other}'")),
            }
        }
        if !seen_hyper {
            return Err("incomplete optimizer state: no 'hyper' record".to_string());
        }
        for (tag, seen) in [("m", &seen_m), ("v", &seen_v)] {
            if let Some(idx) = seen.iter().position(|s| !s) {
                return Err(format!(
                    "incomplete optimizer state: moment '{tag} {idx}' missing"
                ));
            }
        }
        Ok(())
    }

    /// Applies one update from the store's accumulated gradients (gradient
    /// *descent*: parameters move against the gradient), then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        if let Some(c) = self.clip_norm {
            store.clip_grad_norm(c);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..store.len() {
            // Clone the gradient to release the borrow on `store`.
            let g = store.grad(i).clone();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let p = store.value_mut(i);
            for k in 0..g.len() {
                let gk = g.data()[k];
                m.data_mut()[k] = self.beta1 * m.data()[k] + (1.0 - self.beta1) * gk;
                v.data_mut()[k] = self.beta2 * v.data()[k] + (1.0 - self.beta2) * gk * gk;
                let mhat = m.data()[k] / bc1;
                let vhat = v.data()[k] / bc2;
                p.data_mut()[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizing (w - 3)^2 should converge to w = 3.
    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::filled(1, 1, 0.0));
        let mut opt = Adam::new(&store, 0.1);
        for _ in 0..500 {
            let mut tape = Tape::new();
            let p = tape.param(&store, w);
            let three = tape.input(Tensor::filled(1, 1, 3.0));
            let t = tape.sub(p, three);
            let sq = tape.mul(t, t);
            let loss = tape.sum_all(sq);
            tape.backward(loss, 1.0, &mut store);
            opt.step(&mut store);
        }
        let final_w = store.value(w).scalar();
        assert!((final_w - 3.0).abs() < 1e-3, "w = {final_w}");
        assert_eq!(opt.steps(), 500);
    }

    /// A 2-D least-squares problem: fit y = X·w with w* = (1, -2).
    #[test]
    fn fits_linear_regression() {
        let x = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
        let y = Tensor::col(vec![1.0, -2.0, -1.0, 4.0]);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(2, 1));
        let mut opt = Adam::new(&store, 0.05);
        for _ in 0..2000 {
            let mut tape = Tape::new();
            let xi = tape.input(x.clone());
            let yi = tape.input(y.clone());
            let wp = tape.param(&store, w);
            let pred = tape.matmul(xi, wp);
            let err = tape.sub(pred, yi);
            let sq = tape.mul(err, err);
            let loss = tape.sum_all(sq);
            tape.backward(loss, 1.0, &mut store);
            opt.step(&mut store);
        }
        let wv = store.value(w);
        assert!((wv.get(0, 0) - 1.0).abs() < 1e-2);
        assert!((wv.get(1, 0) + 2.0).abs() < 1e-2);
    }

    /// Saving mid-optimization and restoring into a fresh optimizer must
    /// continue the parameter trajectory bit-exactly.
    #[test]
    fn state_round_trip_resumes_bit_exactly() {
        let run = |split: Option<usize>| -> f64 {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::filled(1, 1, 0.0));
            let mut opt = Adam::new(&store, 0.1);
            for i in 0..40 {
                if split == Some(i) {
                    let text = opt.to_text();
                    opt = Adam::new(&store, 999.0); // wrong lr, overwritten by load
                    opt.load_text(&text).unwrap();
                }
                let mut tape = Tape::new();
                let p = tape.param(&store, w);
                let three = tape.input(Tensor::filled(1, 1, 3.0));
                let t = tape.sub(p, three);
                let sq = tape.mul(t, t);
                let loss = tape.sum_all(sq);
                tape.backward(loss, 1.0, &mut store);
                opt.step(&mut store);
            }
            store.value(w).scalar()
        };
        let uninterrupted = run(None);
        let resumed = run(Some(17));
        assert_eq!(uninterrupted.to_bits(), resumed.to_bits());
    }

    #[test]
    fn load_rejects_malformed_state() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(2, 2));
        let mut opt = Adam::new(&store, 0.1);
        assert!(opt.load_text("m 0 2 2 1 2 3").is_err()); // truncated
        assert!(opt.load_text("m 7 1 1 0").is_err()); // index out of range
        assert!(opt.load_text("m 0 3 3 1 2 3 4 5 6 7 8 9").is_err()); // shape
        assert!(opt.load_text("q 0 1 1 0").is_err()); // unknown record
        assert!(opt.load_text("hyper 0.1 0.9").is_err()); // truncated hyper
        let err = opt.load_text("m 0 2 2 1 2 inf 4").unwrap_err();
        assert_eq!(err, "m 0: value 'inf' is not finite");
        let err = opt.load_text("v 0 4294967296 4294967296").unwrap_err();
        assert!(err.starts_with("v 0: shape mismatch"), "{err}");
        let err = opt.load_text("hyper 0.1 0.9 nan 1e-8 none 0").unwrap_err();
        assert_eq!(err, "hyper beta2: value 'nan' is not finite");
        // Well-formed but incomplete documents are rejected too: a
        // valid moment line without the hyper record and sibling
        // moments must not load.
        let err = opt
            .load_text("m 0 2 2 1 2 3 4\nv 0 2 2 1 2 3 4")
            .unwrap_err();
        assert!(err.contains("hyper"), "{err}");
        let full = opt.to_text();
        let no_v = full
            .lines()
            .filter(|l| !l.starts_with('v'))
            .collect::<Vec<_>>()
            .join("\n");
        let err = opt.load_text(&no_v).unwrap_err();
        assert!(err.contains("v 0"), "{err}");
        assert!(opt.load_text(&full).is_ok());
    }

    #[test]
    fn clip_limits_update_magnitude() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::filled(1, 1, 0.0));
        store.accumulate_grad(w, &Tensor::filled(1, 1, 1e9), 1.0);
        let mut opt = Adam::new(&store, 0.001);
        opt.clip_norm = Some(1.0);
        opt.step(&mut store);
        // One Adam step moves by at most ~lr regardless of raw magnitude.
        assert!(store.value(w).scalar().abs() <= 0.002);
    }
}
