#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-baselines
//!
//! The seven baseline scheduling algorithms the paper compares against
//! (§7.1) plus the Appendix H exhaustive-search reference:
//!
//! 1. [`FifoScheduler`] — Spark's default FIFO.
//! 2. [`SjfCpScheduler`] — shortest-job-first along the critical path.
//! 3. [`WeightedFairScheduler::fair`] — simple fair sharing.
//! 4. [`WeightedFairScheduler::naive`] — shares ∝ total work.
//! 5. [`WeightedFairScheduler`] with swept α — "opt. weighted fair".
//! 6. [`TetrisScheduler`] — multi-resource packing.
//! 7. [`GrapheneScheduler`] — Graphene* with troublesome-node grouping.
//!
//! All baselines implement `decima_sim::Scheduler`, so any experiment can
//! swap them for the learned policy one-for-one.

#![warn(missing_docs)]

pub mod common;
pub mod exhaustive;
pub mod fair;
pub mod packing;
pub mod simple;

pub use exhaustive::{exhaustive_search, OrderScheduler, SearchResult};
pub use fair::{tune_alpha, WeightedFairScheduler};
pub use packing::{tune_graphene, GrapheneScheduler, TetrisScheduler};
pub use simple::{FifoScheduler, RandomScheduler, SjfCpScheduler};
