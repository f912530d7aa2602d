#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # decima-workload
//!
//! Synthetic workload generators for the Decima reproduction:
//!
//! * [`tpch`] — TPC-H-like jobs: 22 structurally-distinct query DAGs at
//!   six input scales with per-query parallelism profiles (§2, §7.2).
//! * [`alibaba`] — an Alibaba-trace-like synthesizer matching the
//!   statistics the paper publishes about the proprietary trace (§7.3).
//! * [`arrivals`] — batched and Poisson arrival processes, and the one
//!   job generator: arrival times first, then one job body per arrival,
//!   in arrival order, from the same RNG.
//! * [`spec`] — [`WorkloadSpec`], the declarative description every
//!   experiment builds from.
//! * [`drift`] — non-stationary regimes (ramps, diurnal cycles, mix
//!   shifts, flash crowds) that pick other arrival times or bodies.
//!
//! The named streams ([`tpch_batch`], [`tpch_stream`],
//! [`tpch_stream_with_memory`], [`alibaba_stream`]),
//! [`WorkloadSpec::build`] and [`WorkloadSpec::build_drifting`] are
//! named entries into that one generator.
//!
//! All generation is deterministic under a seed, which the RL trainer
//! relies on for input-dependent baselines (§5.3 challenge #2).

#![warn(missing_docs)]

pub mod alibaba;
pub mod arrivals;
pub mod drift;
pub mod spec;
pub mod tpch;

pub use alibaba::{alibaba_job, AlibabaConfig};
pub use arrivals::{
    alibaba_stream, offered_load, renumber, tpch_batch, tpch_stream, tpch_stream_with_memory,
    ArrivalProcess,
};
pub use drift::{DriftProfile, DriftSpec, DRIFT_PROFILE_NAMES, DRIFT_SEED_SALT};
pub use spec::{
    appendix_dag_job, WorkloadSource, WorkloadSpec, APPENDIX_DAG_EPS, APPENDIX_DAG_SLOTS,
};
pub use tpch::{
    sample_query, tpch_job, tpch_job_scaled, with_random_memory, FIRST_WAVE_FACTOR, INPUT_SIZES_GB,
    NUM_QUERIES,
};
