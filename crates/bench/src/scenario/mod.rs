//! Declarative experiment descriptions.
//!
//! A [`ScenarioSpec`] captures everything one paper artifact needs —
//! workload and cluster, simulator knobs, seed plan, scheduler lineup,
//! and training recipes — as plain serializable data. Specs are built
//! with the fluent [`ScenarioBuilder`], registered in the
//! [`crate::registry::ScenarioRegistry`], executed by
//! [`crate::runner::run_scenario`], and echoed verbatim into each
//! run's `out/<scenario>.json` so results stay self-describing.
//!
//! One file per job: `spec` holds the types, `keys` the `--set` key
//! table and [`ScenarioSpec::set`], `echo` the JSON echo, `builder` the
//! [`ScenarioBuilder`]; everything public is re-exported here.

mod builder;
mod echo;
mod keys;
mod spec;

pub use builder::ScenarioBuilder;
pub use echo::{drift_json, dynamics_json, workload_json};
pub(crate) use keys::serving_does_not_train;
pub use keys::{settable_keys, Key, Kind, Range, KEYS};
pub use spec::{
    sanitize, LineupEntry, ParamValue, PolicySpec, ReportKind, ScenarioSpec, SchedulerSpec,
    SeedPlan, SimSpec, TrainSpec,
};

#[cfg(test)]
mod tests;
