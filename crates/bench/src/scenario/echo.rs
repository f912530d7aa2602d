//! The JSON echo of a spec, as `out/<scenario>.json` opens with it: one
//! field list per struct or variant ([`obj!`]), walked by one
//! renderer ([`Echo`]), so a member's key is the name of the field it
//! shows and exists nowhere else.

use super::spec::{
    LineupEntry, ParamValue, PolicySpec, ReportKind, ScenarioSpec, SchedulerSpec, SeedPlan,
    SimSpec, TrainSpec,
};
use crate::json::{obj, to_json, Json, ToJson};
use decima_policy::ParallelismMode;
use decima_rl::Curriculum;
use decima_sim::{DynamicsSpec, Objective};
use decima_workload::{
    AlibabaConfig, ArrivalProcess, DriftProfile, DriftSpec, WorkloadSource, WorkloadSpec,
};

to_json! {
    ParallelismMode: mode => Json::str(mode.key()),
    Objective: o => Json::str(match o {
        Objective::AvgJct => "avg-jct",
        Objective::Makespan => "makespan",
    }),
    ReportKind: r => Json::str(match r {
        ReportKind::Table => "table",
        ReportKind::CdfCsv => "cdf",
        ReportKind::MeanUnfinished => "mean-unfinished",
        ReportKind::MeanCsv => "mean",
    }),
    ParamValue: value => match value {
        ParamValue::Num(n) => n.json(),
        ParamValue::Count(n) => n.json(),
        ParamValue::Text(t) => t.json(),
        ParamValue::Flag(b) => b.json(),
    },
    DynamicsSpec: d => Json::obj(DynamicsSpec::KNOBS.map(|k| (k.field, Json::Num(k.get(d))))),
    DriftSpec: d => d.profile.json(),
    SeedPlan: s => obj!(s.start, s.count),
    Curriculum: c => obj!(c.tau_init, c.tau_step, c.tau_max),
    WorkloadSpec: w => obj!(w.source, w.executors, w.move_delay),
    PolicySpec: p => obj!(p.gnn, p.parallelism, p.num_classes, p.include_duration, p.iat_hint),
    LineupEntry: e => obj!(e.label, e.csv, "scheduler" => e.sched),
    SimSpec: s => obj!(
        s.simplified,
        s.objective,
        s.noise,
        s.time_limit,
        s.record_gantt,
        s.dynamics,
        s.drift
    ),
    AlibabaConfig: g => obj!(
        g.max_stages,
        g.small_job_fraction,
        g.task_count_lognorm,
        g.task_dur_lognorm,
        g.max_tasks,
        g.with_memory,
        g.first_wave_factor
    ),
}

/// The parameters by key, in declaration order.
impl ToJson for Vec<(String, ParamValue)> {
    fn json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.json())).collect())
    }
}

/// `impl ToJson` for an enum: a variant is the object of its tag under
/// `$tag_key`, then its fields under their names.
macro_rules! variants {
    ($t:ty, $tag_key:literal: $($variant:ident $({ $($f:ident),* })? => $tag:literal),* $(,)?) => {
        impl ToJson for $t {
            fn json(&self) -> Json {
                match self {
                    $(Self::$variant $({ $($f),* })? => obj!($tag_key => $tag $($(, $f)*)?),)*
                }
            }
        }
    };
}

variants! { DriftProfile, "profile":
    Off => "off",
    Ramp { start_iat, end_iat, ramp_secs } => "ramp",
    Diurnal { base_iat, amplitude, period } => "diurnal",
    MixShift { shift_at } => "mixshift",
    FlashCrowd { base_iat, burst_at, burst_secs, burst_factor } => "flash",
}

variants! { ArrivalProcess, "type":
    Batch => "batch",
    Poisson { mean_iat } => "poisson",
}

variants! { WorkloadSource, "type":
    Tpch { num_jobs, arrivals, task_scale, random_memory } => "tpch",
    TpchMixedIat { num_jobs, lo_iat, hi_iat, task_scale } => "tpch-mixed-iat",
    Alibaba { num_jobs, mean_iat, gen } => "alibaba",
    SingleTpch { query, gb, task_scale } => "single-tpch",
    TpchSuite { gb, task_scale } => "tpch-suite",
    AppendixDag => "appendix-dag",
}

variants! { SchedulerSpec, "type":
    Fifo => "fifo",
    SjfCp => "sjf-cp",
    Fair => "fair",
    NaiveWeightedFair => "naive-weighted-fair",
    WeightedFair { alpha } => "weighted-fair",
    TunedWeightedFair { tune_start, tune_count } => "tuned-weighted-fair",
    Tetris => "tetris",
    Graphene => "graphene",
    Random { seed } => "random",
    Decima { train } => "decima",
    DecimaUntrained { policy, sample_seed } => "decima-untrained",
    DecimaCheckpoint { path } => "decima-checkpoint",
    FineTuned { path, iters, window } => "fine-tuned",
}

/// The recipe with the trainer's hyperparameters beside its own fields.
impl ToJson for TrainSpec {
    fn json(&self) -> Json {
        let (t, c) = (self, &self.cfg);
        obj!(
            t.iters,
            c.seed,
            c.num_rollouts,
            c.lr,
            c.entropy_start,
            c.entropy_end,
            c.entropy_decay_iters,
            c.differential_reward,
            c.input_dependent_baseline,
            c.curriculum,
            t.policy,
            t.workload,
            t.eval_iat_hint,
            t.checkpoint
        )
    }
}

impl ScenarioSpec {
    /// Serializes the spec.
    pub fn to_json(&self) -> Json {
        let s = self;
        obj!(
            s.name,
            s.title,
            s.paper_ref,
            s.workload,
            s.sim,
            s.seeds,
            s.lineup,
            s.report,
            s.params,
            s.notes
        )
    }
}

/// Serializes a workload-drift model (public: the drift scenario echoes
/// each profile's spec into its JSON output).
pub fn drift_json(d: &DriftSpec) -> Json {
    d.json()
}

/// Serializes a cluster-dynamics model (public: the robust scenario
/// echoes each level's spec into its JSON output).
pub fn dynamics_json(d: &DynamicsSpec) -> Json {
    d.json()
}

/// Serializes a workload spec (public: the `train` scenario names the
/// workload it rolls out on).
pub fn workload_json(w: &WorkloadSpec) -> Json {
    w.json()
}
