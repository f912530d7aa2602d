#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-nn
//!
//! A minimal, self-contained neural-network substrate for the Decima
//! reproduction: dense `f64` tensors, tape-based reverse-mode automatic
//! differentiation, small MLPs, and Adam.
//!
//! The calibration notes for this reproduction flag `candle`/`burn` as
//! immature for GNN policy-gradient training, so this crate implements
//! from scratch exactly the op set Decima's networks need (see
//! `DESIGN.md` S7). Everything is gradient-checked against central
//! differences in the test suite, and the whole model is small enough
//! (~13k scalars in the paper's configuration) that dense math on the
//! CPU trains in a fraction of a second per iteration. Training is where
//! the paper spends its compute, so the tape is built to be kept — one
//! per agent, reset per decision, nothing allocated in steady state
//! ([`tape`]) — and executes through width-blocked kernels
//! ([`kernels`]) held bitwise to the plain reference forms in
//! [`tensor`].
//!
//! ## Example
//!
//! ```
//! use decima_nn::{Activation, Adam, Mlp, ParamStore, Tape, Tensor};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mlp = Mlp::new(&mut store, "net", &[2, 8, 1], Activation::LeakyRelu(0.2), &mut rng);
//! let mut opt = Adam::new(&store, 1e-2);
//!
//! // One gradient step on a toy loss.
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_vec(1, 2, vec![0.5, -0.3]));
//! let y = mlp.forward(&mut tape, &store, x);
//! let loss = tape.sum_all(y);
//! tape.backward(loss, 1.0, &mut store);
//! opt.step(&mut store);
//! ```

#![warn(missing_docs)]

pub mod adam;
pub mod infer;
pub mod kernels;
pub mod mlp;
pub mod store;
pub mod tape;
pub mod tensor;

pub use adam::Adam;
pub use infer::{F32Mlp, F32Scratch};
pub use mlp::{Activation, Mlp};
pub use store::{ParamStore, PARAM_FORMAT_HEADER, PARAM_FORMAT_VERSION};
pub use tape::{Tape, TensorId};
pub use tensor::Tensor;
