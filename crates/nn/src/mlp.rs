//! Multi-layer perceptrons over the tape.
//!
//! The paper implements every transformation (`f`, `g` at three summary
//! levels, and the score functions `q`, `w`) as a small fully-connected
//! network — two hidden layers of 32 and 16 units in the prototype (§6.1).
//! [`Mlp`] registers its weights in a [`ParamStore`] once and replays the
//! forward pass on whatever tape it is handed.

use crate::store::ParamStore;
use crate::tape::{Tape, TensorId};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hidden-layer activation: the leaky ReLU every Decima network uses.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Leaky ReLU with this negative-side slope (the released Decima
    /// implementation's choice).
    LeakyRelu(f64),
}

/// A fully-connected network: `dims[0] -> dims[1] -> … -> dims.last()`,
/// with `act` after every layer except the last (linear output).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// `(weight, bias)` parameter indices per layer.
    layers: Vec<(usize, usize)>,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Mlp {
    /// Registers a new MLP's parameters in `store`.
    ///
    /// `dims` lists layer widths including input and output, e.g.
    /// `[5, 32, 16, 8]` for the paper's transformations. A negative
    /// leaky-ReLU slope is refused: the fused layer's backward pass
    /// recovers the activation mask from the sign of the *output*
    /// ([`Tape::linear`]), which a negative slope flips.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let Activation::LeakyRelu(slope) = act;
        assert!(
            slope >= 0.0,
            "MLP needs a non-negative leaky slope, got {act:?}"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (l, pair) in dims.windows(2).enumerate() {
            let w = store.add(
                format!("{name}.w{l}"),
                Tensor::he_init(pair[0], pair[1], rng),
            );
            let b = store.add(format!("{name}.b{l}"), Tensor::zeros(1, pair[1]));
            layers.push((w, b));
        }
        Mlp {
            layers,
            act,
            in_dim: dims[0],
            out_dim: dims[dims.len() - 1],
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter indices `(weight, bias)` of the final layer.
    pub fn final_layer(&self) -> (usize, usize) {
        self.layers[self.layers.len() - 1]
    }

    /// Parameter indices `(weight, bias)` of every layer, in order.
    /// The inference packer reads weights out of the store through this.
    pub fn layers(&self) -> &[(usize, usize)] {
        &self.layers
    }

    /// The hidden-layer activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Scales the final layer's weights and bias by `s`. Initializing a
    /// policy head near zero makes the initial action distribution close
    /// to uniform — maximal entropy for early exploration.
    pub fn scale_final_layer(&self, store: &mut ParamStore, s: f64) {
        let (w, b) = self.final_layer();
        for idx in [w, b] {
            for v in store.value_mut(idx).data_mut() {
                *v *= s;
            }
        }
    }

    /// Applies the network to a `[batch, in_dim]` node.
    ///
    /// Each layer records one fused [`Tape::linear`] node, the leaky
    /// ReLU of a hidden layer included.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: TensorId) -> TensorId {
        assert_eq!(
            tape.value(x).cols(),
            self.in_dim,
            "MLP input width mismatch"
        );
        let Activation::LeakyRelu(slope) = self.act;
        let mut h = x;
        let last = self.layers.len() - 1;
        for (l, &(w, b)) in self.layers.iter().enumerate() {
            let wp = tape.param(store, w);
            let bp = tape.param(store, b);
            h = tape.linear(h, wp, bp, (l < last).then_some(slope));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mlp = Mlp::new(
            &mut store,
            "f",
            &[5, 32, 16, 8],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 8);
        // Params: 5*32+32 + 32*16+16 + 16*8+8 = 192+528+136
        assert_eq!(store.num_scalars(), 5 * 32 + 32 + 32 * 16 + 16 + 16 * 8 + 8);

        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(7, 5));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (7, 8));
    }

    /// `LeakyRelu(s)` with `s < 0` would be mis-differentiated without a
    /// word (the mask comes from the output's sign), so it is refused.
    #[test]
    #[should_panic(expected = "non-negative leaky slope")]
    fn negative_leaky_slope_is_refused() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        Mlp::new(
            &mut store,
            "m",
            &[2, 2],
            Activation::LeakyRelu(-0.1),
            &mut rng,
        );
    }

    #[test]
    fn gradient_flows_through_mlp() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[3, 8, 1],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, -1.0, 0.5, 0.2, 0.9, -0.3]));
        let y = mlp.forward(&mut tape, &store, x);
        let loss = tape.sum_all(y);
        tape.backward(loss, 1.0, &mut store);
        assert!(store.grad_norm() > 0.0, "some gradient must flow");
    }

    #[test]
    fn mlp_gradcheck_end_to_end() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[2, 4, 1],
            Activation::LeakyRelu(0.2),
            &mut rng,
        );
        let x_data = Tensor::from_vec(3, 2, vec![0.5, -0.2, 1.1, 0.7, -0.9, 0.4]);

        store.zero_grads();
        let mut tape = Tape::new();
        let x = tape.input(x_data.clone());
        let y = mlp.forward(&mut tape, &store, x);
        let loss = tape.sum_all(y);
        tape.backward(loss, 1.0, &mut store);

        let eps = 1e-5;
        for p in 0..store.len() {
            let (rows, cols) = store.value(p).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = store.value(p).get(r, c);
                    let eval = |store: &ParamStore| {
                        let mut t = Tape::new();
                        let x = t.input(x_data.clone());
                        let y = mlp.forward(&mut t, store, x);
                        let l = t.sum_all(y);
                        t.value(l).scalar()
                    };
                    store.value_mut(p).set(r, c, orig + eps);
                    let y1 = eval(&store);
                    store.value_mut(p).set(r, c, orig - eps);
                    let y2 = eval(&store);
                    store.value_mut(p).set(r, c, orig);
                    let numeric = (y1 - y2) / (2.0 * eps);
                    let analytic = store.grad(p).get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 1e-6 * numeric.abs().max(1.0),
                        "{} ({r},{c}): numeric={numeric} analytic={analytic}",
                        store.name(p)
                    );
                }
            }
        }
    }
}
