//! Custom run functions for scenarios whose figure-specific analyses go
//! beyond the generic comparison protocol (Gantt renders, sweeps,
//! time-series, supervised probes, …).
//!
//! Each function receives the override-applied [`ScenarioSpec`] and
//! the run options, prints the same analysis the historical standalone
//! binary printed, and returns a
//! [`ScenarioReport`](crate::report::ScenarioReport) — series, extras
//! and CSV tables as data — which the unified runner writes out. Each
//! evaluates through [`episodes`](crate::runner::episodes), reads its
//! parameters as the registry declares them, and opens no file.

pub mod ablation;
pub mod appendix;
pub mod drift;
pub mod fleet;
pub mod motivation;
pub mod multires;
pub mod robust;
pub mod scale;
pub mod tpch;

use crate::scenario::{ScenarioSpec, SchedulerSpec, TrainSpec};

/// The trained-Decima recipes of the lineup, in order (the conventional
/// place scenarios keep their training hyperparameters).
pub(crate) fn lineup_trains(spec: &ScenarioSpec) -> impl Iterator<Item = &TrainSpec> {
    spec.lineup.iter().filter_map(|e| match &e.sched {
        SchedulerSpec::Decima { train } => Some(train),
        _ => None,
    })
}

/// The first of them.
pub(crate) fn first_train(spec: &ScenarioSpec) -> TrainSpec {
    let first = lineup_trains(spec).next().cloned();
    first.unwrap_or_else(|| panic!("scenario '{}' has no Decima lineup entry", spec.name))
}
