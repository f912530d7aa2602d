//! Declarative experiment descriptions.
//!
//! A [`ScenarioSpec`] captures everything one paper artifact needs —
//! workload and cluster, simulator knobs, seed plan, scheduler lineup,
//! and training recipes — as plain serializable data. Specs are built
//! with the fluent [`ScenarioBuilder`], registered in the
//! [`crate::registry::ScenarioRegistry`], executed by
//! [`crate::runner::run_scenario`], and echoed verbatim into each
//! run's `out/<scenario>.json` so results stay self-describing.

use crate::json::Json;
use decima_sim::{DynamicsSpec, Objective, SimConfig};
use decima_workload::{ArrivalProcess, DriftProfile, DriftSpec, WorkloadSource, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// A scalar experiment parameter (the open-ended part of a spec that
/// custom scenarios read at run time).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A number.
    Num(f64),
    /// A free-form string.
    Text(String),
    /// A boolean flag.
    Flag(bool),
}

impl ParamValue {
    /// Parses a CLI override: bool literals, then numbers, else text.
    pub fn parse(s: &str) -> ParamValue {
        match s {
            "true" => ParamValue::Flag(true),
            "false" => ParamValue::Flag(false),
            _ => s
                .parse::<f64>()
                .map(ParamValue::Num)
                .unwrap_or_else(|_| ParamValue::Text(s.to_string())),
        }
    }
}

/// The evaluation seeds: `count` consecutive seeds from `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedPlan {
    /// First seed.
    pub start: u64,
    /// Number of seeds.
    pub count: usize,
}

impl SeedPlan {
    /// The concrete seed list.
    pub fn seeds(&self) -> Vec<u64> {
        (self.start..self.start + self.count as u64).collect()
    }

    /// Parses `"a..b"` (half-open range) or a bare count (keeps `start`).
    pub fn parse(&self, text: &str) -> Result<SeedPlan, String> {
        if let Some((a, b)) = text.split_once("..") {
            let start: u64 = a.trim().parse().map_err(|_| bad_range(text))?;
            let end: u64 = b.trim().parse().map_err(|_| bad_range(text))?;
            if end < start {
                return Err(bad_range(text));
            }
            Ok(SeedPlan {
                start,
                count: (end - start) as usize,
            })
        } else {
            let count: usize = text.trim().parse().map_err(|_| bad_range(text))?;
            Ok(SeedPlan {
                start: self.start,
                count,
            })
        }
    }
}

fn bad_range(text: &str) -> String {
    format!("invalid seed range '{text}' (expected 'start..end' or a count)")
}

/// Simulator knobs a scenario overrides on top of the default (or
/// simplified) configuration. The per-episode RNG seed is always derived
/// from the sequence seed by the runner.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimSpec {
    /// Start from `SimConfig::simplified()` instead of the default.
    pub simplified: bool,
    /// Scheduling objective.
    pub objective: Objective,
    /// Log-normal task-duration noise sigma override.
    pub noise: Option<f64>,
    /// Episode horizon override (seconds).
    pub time_limit: Option<f64>,
    /// Record Gantt charts.
    pub record_gantt: bool,
    /// Cluster-dynamics model (executor churn, bounded-retry task
    /// failures, stragglers); off by default. Overridable on every
    /// scenario with `--set churn=… fail=… straggle=…` (plus `outage=`,
    /// `retries=`, `straggle-factor=`, and the `level=` presets).
    pub dynamics: DynamicsSpec,
    /// Non-stationary workload drift (arrival ramps, diurnal cycles,
    /// mix shifts, flash crowds); off by default. The `drift` scenario
    /// selects presets with `--set profile=…`.
    pub drift: DriftSpec,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            simplified: false,
            objective: Objective::AvgJct,
            noise: None,
            time_limit: None,
            record_gantt: false,
            dynamics: DynamicsSpec::off(),
            drift: DriftSpec::off(),
        }
    }
}

impl SimSpec {
    /// Materializes the simulator configuration template.
    pub fn to_config(&self) -> SimConfig {
        let mut cfg = if self.simplified {
            SimConfig::simplified()
        } else {
            SimConfig::default()
        };
        cfg.objective = self.objective;
        if let Some(noise) = self.noise {
            cfg.noise = noise;
        }
        cfg.time_limit = self.time_limit;
        cfg.record_gantt = self.record_gantt;
        cfg.dynamics = self.dynamics;
        if self.drift.enabled() {
            cfg.phase_boundaries = self.drift.phase_boundaries();
        }
        cfg
    }
}

/// Episode-horizon curriculum parameters (§5.3 challenge #1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurriculumSpec {
    /// Initial mean horizon (seconds).
    pub tau_init: f64,
    /// Additive growth per iteration.
    pub tau_step: f64,
    /// Cap on the mean horizon.
    pub tau_max: f64,
}

impl CurriculumSpec {
    /// The curriculum every continuous-arrival experiment uses.
    pub fn standard() -> Self {
        CurriculumSpec {
            tau_init: 300.0,
            tau_step: 40.0,
            tau_max: 4000.0,
        }
    }
}

/// Policy-architecture overrides on top of `PolicyConfig::small`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Use the graph neural network (off reproduces the "w/o graph
    /// embedding" ablation).
    pub gnn: bool,
    /// Parallelism-control mode, as a string key: `job-level`,
    /// `stage-level`, `one-hot`, or `disabled`.
    pub parallelism: String,
    /// Executor classes (>1 enables the class head).
    pub num_classes: usize,
    /// Include task-duration features (off for Appendix J).
    pub include_duration: bool,
    /// Interarrival-time hint feature (Table 2).
    pub iat_hint: Option<f64>,
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec {
            gnn: true,
            parallelism: "job-level".to_string(),
            num_classes: 1,
            include_duration: true,
            iat_hint: None,
        }
    }
}

impl PolicySpec {
    /// A four-class multi-resource policy (§7.3 experiments).
    pub fn multires() -> Self {
        PolicySpec {
            num_classes: 4,
            ..PolicySpec::default()
        }
    }
}

/// A complete training recipe: hyperparameters, policy overrides, and an
/// optional train-time workload (when it differs from the evaluation
/// workload — generalization experiments).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainSpec {
    /// Training iterations.
    pub iters: usize,
    /// Master seed (policy init and rollout sampling).
    pub seed: u64,
    /// Rollouts per iteration.
    pub num_rollouts: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Entropy-bonus weight at iteration 0.
    pub entropy_start: f64,
    /// Entropy-bonus weight after decay.
    pub entropy_end: f64,
    /// Iterations over which the entropy weight decays.
    pub entropy_decay_iters: usize,
    /// Average-reward (differential) formulation.
    pub differential_reward: bool,
    /// Fix one arrival sequence per iteration (input-dependent baseline).
    pub input_dependent_baseline: bool,
    /// Episode-horizon curriculum.
    pub curriculum: Option<CurriculumSpec>,
    /// Policy-architecture overrides.
    pub policy: PolicySpec,
    /// Train on a different workload than the evaluation workload.
    pub workload: Option<WorkloadSpec>,
    /// Override the policy's IAT-hint feature at evaluation time
    /// (Table 2's hinted rows observe the *test* IAT).
    pub eval_iat_hint: Option<f64>,
    /// Persist/reuse the trained model at this checkpoint path: when the
    /// file exists the runner loads it instead of training, otherwise it
    /// trains and saves there — so one training run serves many
    /// scenarios (`--set checkpoint=PATH`).
    pub checkpoint: Option<String>,
}

impl TrainSpec {
    /// The standard scaled-down batched-arrival recipe
    /// (`standard_trainer` historically): uniform-initialized small
    /// policy, entropy-annealed REINFORCE.
    pub fn standard(iters: usize, seed: u64) -> Self {
        TrainSpec {
            iters,
            seed,
            num_rollouts: 8,
            lr: 2e-3,
            entropy_start: 0.08,
            entropy_end: 1e-3,
            entropy_decay_iters: 50,
            differential_reward: false,
            input_dependent_baseline: true,
            curriculum: None,
            policy: PolicySpec::default(),
            workload: None,
            eval_iat_hint: None,
            checkpoint: None,
        }
    }

    /// The continuous-arrival recipe: standard plus differential rewards
    /// and the horizon curriculum.
    pub fn stream(iters: usize, seed: u64) -> Self {
        TrainSpec {
            differential_reward: true,
            curriculum: Some(CurriculumSpec::standard()),
            ..TrainSpec::standard(iters, seed)
        }
    }

    /// The generalization/multi-resource recipe: hotter entropy schedule
    /// at the default learning rate, with differential rewards and the
    /// curriculum.
    pub fn tuned(iters: usize, seed: u64) -> Self {
        TrainSpec {
            iters,
            seed,
            num_rollouts: 8,
            lr: 1e-3,
            entropy_start: 0.25,
            entropy_end: 1e-3,
            entropy_decay_iters: 60,
            differential_reward: true,
            input_dependent_baseline: true,
            curriculum: Some(CurriculumSpec::standard()),
            policy: PolicySpec::default(),
            workload: None,
            eval_iat_hint: None,
            checkpoint: None,
        }
    }

    /// Persist/reuse the trained model at `path` (see
    /// [`TrainSpec::checkpoint`]).
    pub fn with_checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }
}

/// One entry of the scheduler factory's vocabulary: which scheduler to
/// construct, with its parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// Spark's default FIFO.
    Fifo,
    /// Shortest-job-first along the critical path.
    SjfCp,
    /// Simple fair sharing.
    Fair,
    /// Naive weighted fair (shares ∝ total work).
    NaiveWeightedFair,
    /// Weighted fair with a fixed exponent.
    WeightedFair {
        /// Share exponent α.
        alpha: f64,
    },
    /// Weighted fair with α swept on held-out seeds (§7.1).
    TunedWeightedFair {
        /// First tuning seed.
        tune_start: u64,
        /// Number of tuning seeds.
        tune_count: usize,
    },
    /// Multi-resource packing (Tetris).
    Tetris,
    /// Graphene* with default thresholds.
    Graphene,
    /// Uniform random actions.
    Random {
        /// Action-sampling seed.
        seed: u64,
    },
    /// Decima, trained with the given recipe before evaluation.
    Decima {
        /// Training recipe.
        train: TrainSpec,
    },
    /// Decima with freshly-initialized (untrained) parameters.
    DecimaUntrained {
        /// Policy overrides.
        policy: PolicySpec,
        /// Sample actions with this seed instead of greedy argmax.
        sample_seed: Option<u64>,
    },
    /// Decima loaded from a saved training checkpoint (no training at
    /// run time; the model is a persistent, reusable artifact).
    DecimaCheckpoint {
        /// Path to a checkpoint written by the trainer.
        path: String,
    },
    /// Decima loaded from a checkpoint, then fine-tuned online on the
    /// evaluation environment before greedy evaluation (the drift
    /// scenario's online-adaptation arm; docs/DRIFT.md).
    FineTuned {
        /// Path to the base checkpoint written by the trainer.
        path: String,
        /// Fine-tuning iterations on the drifted environment.
        iters: usize,
        /// Rolling trajectory-window size (trajectories, not iterations).
        window: usize,
    },
}

impl SchedulerSpec {
    /// The default display label.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Fifo => "fifo".into(),
            SchedulerSpec::SjfCp => "sjf-cp".into(),
            SchedulerSpec::Fair => "fair".into(),
            SchedulerSpec::NaiveWeightedFair => "naive-weighted-fair".into(),
            SchedulerSpec::WeightedFair { .. } | SchedulerSpec::TunedWeightedFair { .. } => {
                "opt-weighted-fair".into()
            }
            SchedulerSpec::Tetris => "tetris".into(),
            SchedulerSpec::Graphene => "graphene*".into(),
            SchedulerSpec::Random { .. } => "random".into(),
            SchedulerSpec::Decima { .. } => "decima".into(),
            SchedulerSpec::DecimaUntrained { .. } => "decima-untrained".into(),
            SchedulerSpec::DecimaCheckpoint { .. } => "decima".into(),
            SchedulerSpec::FineTuned { .. } => "fine-tuned".into(),
        }
    }
}

/// A labelled lineup slot: the scheduler plus its table/CSV names.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LineupEntry {
    /// Display label (table rows, progress lines).
    pub label: String,
    /// CSV column/row identifier (defaults to the sanitized label).
    pub csv: Option<String>,
    /// What to construct.
    pub sched: SchedulerSpec,
}

impl LineupEntry {
    /// The CSV identifier: the explicit one, or the label with
    /// non-alphanumeric runs collapsed to `_`.
    pub fn csv_name(&self) -> String {
        self.csv.clone().unwrap_or_else(|| sanitize(&self.label))
    }
}

/// Derives a per-lineup-entry checkpoint path from a shared base path:
/// the entry key is inserted before the file extension (`out/m.ckpt` +
/// `decima_no_dur` → `out/m.decima_no_dur.ckpt`), or appended when the
/// path has none.
fn per_entry_checkpoint(path: &str, entry: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{entry}.{ext}")
        }
        _ => format!("{path}.{entry}"),
    }
}

/// Collapses a label to a CSV/JSON-friendly identifier.
pub fn sanitize(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut prev_us = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            prev_us = false;
        } else if !prev_us && !out.is_empty() {
            out.push('_');
            prev_us = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// How the generic comparison runner reports its results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportKind {
    /// Comparison table (mean/p50/p95) plus a per-scheduler summary CSV.
    Table,
    /// Comparison table plus a CDF CSV (one sorted column per scheduler).
    CdfCsv,
    /// Per-scheduler mean JCT and unfinished-job count (streaming runs).
    MeanUnfinished,
    /// One `label,mean` CSV row per scheduler (generalization tables).
    MeanCsv,
}

/// A complete declarative experiment description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Registry key (`fig09a`, `table2`, …).
    pub name: String,
    /// Human title printed above results.
    pub title: String,
    /// Where in the paper the artifact lives.
    pub paper_ref: String,
    /// Evaluation workload and cluster (absent for scenarios that do not
    /// schedule jobs, e.g. the supervised GNN comparison of Figure 19).
    pub workload: Option<WorkloadSpec>,
    /// Simulator knobs.
    pub sim: SimSpec,
    /// Evaluation seed plan.
    pub seeds: SeedPlan,
    /// Scheduler lineup, in display order.
    pub lineup: Vec<LineupEntry>,
    /// Report shape for the generic comparison runner.
    pub report: ReportKind,
    /// Free-form scalar parameters (custom-scenario knobs; all
    /// overridable with `--set key=value`).
    pub params: Vec<(String, ParamValue)>,
    /// "Paper shape" reminder lines printed after the results.
    pub notes: Vec<String>,
}

impl ScenarioSpec {
    /// Total executors of the evaluation cluster (0 without a workload).
    pub fn executors(&self) -> usize {
        self.workload.as_ref().map_or(0, |w| w.executors)
    }

    /// A numeric parameter, or `default` when absent/non-numeric.
    pub fn num_param(&self, key: &str, default: f64) -> f64 {
        match self.param(key) {
            Some(ParamValue::Num(n)) => *n,
            _ => default,
        }
    }

    /// A numeric parameter rounded to usize.
    pub fn usize_param(&self, key: &str, default: usize) -> usize {
        self.num_param(key, default as f64).round().max(0.0) as usize
    }

    /// A boolean parameter, or `default` when absent.
    pub fn flag_param(&self, key: &str, default: bool) -> bool {
        match self.param(key) {
            Some(ParamValue::Flag(b)) => *b,
            Some(ParamValue::Num(n)) => *n != 0.0,
            _ => default,
        }
    }

    /// A text parameter, or `default` when absent/non-text.
    pub fn text_param(&self, key: &str, default: &str) -> String {
        match self.param(key) {
            Some(ParamValue::Text(t)) => t.clone(),
            _ => default.to_string(),
        }
    }

    /// Raw parameter lookup (scenario code usually wants the typed
    /// accessors below; sweep lists need the variant itself).
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Applies one `--set key=value` override. Well-known keys update the
    /// corresponding structured field; anything else lands in `params`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let num = || -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| format!("'{key}' needs a numeric value, got '{value}'"))
        };
        // A sweep value: a single number or a comma list of them, each
        // entry held to `check`, kept as a parameter so `list_param` can
        // expand it.
        fn sweep_value(
            key: &str,
            value: &str,
            check: impl Fn(&str, f64) -> Result<(), String>,
        ) -> Result<ParamValue, String> {
            let nums: Result<Vec<f64>, _> = value.split(',').map(|s| s.trim().parse()).collect();
            let nums =
                nums.map_err(|_| format!("'{key}' needs a number or comma list, got '{value}'"))?;
            for &n in &nums {
                check(&format!("'{key}'"), n)?;
            }
            Ok(match nums[..] {
                [n] => ParamValue::Num(n),
                _ => ParamValue::Text(value.to_string()),
            })
        }
        let count = |what: &str, n: f64| count_arg(what, n).map(drop);
        match key {
            "execs" | "executors" => {
                // The scale scenario *sweeps* executor counts, so comma
                // lists must survive as a parameter instead of collapsing
                // the workload to one cluster size (the same
                // scenario-conditional treatment 'level' gets below).
                if self.name == "scale" {
                    self.upsert_param("execs", sweep_value(key, value, count)?);
                } else {
                    let n = count_arg(&format!("'{key}'"), num()?)?;
                    if let Some(w) = &mut self.workload {
                        w.executors = n;
                    }
                }
            }
            "jobs" => {
                if self.name == "scale" {
                    self.upsert_param("jobs", sweep_value(key, value, count)?);
                } else {
                    let n = count_arg(&format!("'{key}'"), num()?)?;
                    if let Some(w) = &mut self.workload {
                        w.set_num_jobs(n);
                    }
                }
            }
            // The fleet scenario's two sweep lists.
            "shards" if self.name == "fleet" => {
                self.upsert_param(key, sweep_value(key, value, count)?);
            }
            "rates" if self.name == "fleet" => {
                let positive = |what: &str, r: f64| ranged(what, r, r > 0.0, "> 0").map(drop);
                self.upsert_param(key, sweep_value(key, value, positive)?);
            }
            "iat" => {
                let iat = num()?;
                ranged("'iat'", iat, iat > 0.0, "> 0")?;
                if let Some(w) = &mut self.workload {
                    w.set_mean_iat(iat);
                }
                // Also visible as a param, so custom scenarios with
                // secondary environments (fig11) can honor it.
                self.upsert_param(key, ParamValue::Num(iat));
            }
            "task-scale" => {
                let s = num()?;
                if let Some(w) = &mut self.workload {
                    w.set_task_scale(s);
                }
            }
            "move-delay" => {
                let d = num()?;
                ranged("'move-delay'", d, d >= 0.0, ">= 0")?;
                if let Some(w) = &mut self.workload {
                    w.move_delay = d;
                }
            }
            // Cluster-dynamics knobs (docs/ROBUSTNESS.md): any scenario
            // can run perturbed.
            "churn" => self.sim.dynamics.churn_iat = num()?,
            "outage" => self.sim.dynamics.outage_mean = num()?,
            "fail" => self.sim.dynamics.fail_prob = num()?,
            "retries" => self.sim.dynamics.max_retries = num()?.round().max(0.0) as u32,
            "straggle" => self.sim.dynamics.straggler_prob = num()?,
            "straggle-factor" => self.sim.dynamics.straggler_factor = num()?,
            // A named perturbation preset. "all" (the robust scenario's
            // full sweep) and "custom" (use the churn=/fail=/straggle=
            // knobs as set) leave the structured dynamics untouched.
            // Only the robust scenario interprets the level parameter;
            // everywhere else it would be silently ignored, so reject it
            // loudly instead of letting `--set level=high` do nothing.
            "level" => {
                if self.name != "robust" {
                    return Err(format!(
                        "'level' is a robust-only parameter (scenario '{}' would ignore it); \
                         to perturb this scenario set the dynamics knobs directly: \
                         churn=, outage=, fail=, retries=, straggle=, straggle-factor=",
                        self.name
                    ));
                }
                if value != "all" && value != "custom" {
                    self.sim.dynamics = DynamicsSpec::level(value).ok_or_else(|| {
                        format!(
                            "unknown dynamics level '{value}' (expected off, low, med, high, \
                             all, or custom)"
                        )
                    })?;
                }
                self.upsert_param(key, ParamValue::Text(value.to_string()));
            }
            // A named drift preset. "all" (the drift scenario's full
            // sweep) leaves the structured spec untouched. Only the
            // drift scenario interprets the profile parameter; anywhere
            // else it would be silently ignored, so reject it loudly.
            "profile" => {
                if self.name != "drift" {
                    return Err(format!(
                        "'profile' is a drift-only parameter (scenario '{}' would ignore it); \
                         run `--scenario drift --set profile={value}` instead",
                        self.name
                    ));
                }
                if value != "all" {
                    self.sim.drift = DriftSpec::preset(value).ok_or_else(|| {
                        format!(
                            "unknown drift profile '{value}' (expected off, ramp, diurnal, \
                             mixshift, flash, or all)"
                        )
                    })?;
                }
                self.upsert_param(key, ParamValue::Text(value.to_string()));
            }
            // Both accept a bare count ("5") or a range ("0..40").
            "runs" | "seeds" => self.seeds = self.seeds.parse(value)?,
            "seed-start" => self.seeds.start = num()?.round() as u64,
            "iters" => {
                let iters = num()?.round() as usize;
                for entry in &mut self.lineup {
                    if let SchedulerSpec::Decima { train } = &mut entry.sched {
                        train.iters = iters;
                    }
                }
                self.upsert_param(key, ParamValue::Num(iters as f64));
            }
            // Persist/reuse every trained-Decima entry's model (first run
            // trains and saves; later runs load and skip training). With
            // several Decima entries in the lineup — ablations, different
            // training workloads — each gets its own file derived from
            // PATH and the entry name, so entries never silently share
            // one model.
            "checkpoint" => {
                let decima_entries = self
                    .lineup
                    .iter()
                    .filter(|e| matches!(e.sched, SchedulerSpec::Decima { .. }))
                    .count();
                for i in 0..self.lineup.len() {
                    let entry_key = self.lineup[i].csv_name();
                    if let SchedulerSpec::Decima { train } = &mut self.lineup[i].sched {
                        train.checkpoint = Some(if decima_entries > 1 {
                            per_entry_checkpoint(value, &entry_key)
                        } else {
                            value.to_string()
                        });
                    }
                }
            }
            _ => self.upsert_param(key, ParamValue::parse(value)),
        }
        self.sim.dynamics.validate()
    }

    fn upsert_param(&mut self, key: &str, value: ParamValue) {
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.params.push((key.to_string(), value));
        }
    }

    /// Serializes the spec.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("title", Json::str(&self.title)),
            ("paper_ref", Json::str(&self.paper_ref)),
            (
                "workload",
                self.workload.as_ref().map_or(Json::Null, workload_json),
            ),
            ("sim", sim_json(&self.sim)),
            (
                "seeds",
                Json::obj([
                    ("start", Json::Num(self.seeds.start as f64)),
                    ("count", Json::Num(self.seeds.count as f64)),
                ]),
            ),
            (
                "lineup",
                Json::Arr(self.lineup.iter().map(lineup_json).collect()),
            ),
            ("report", Json::str(report_key(self.report))),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                match v {
                                    ParamValue::Num(n) => Json::Num(*n),
                                    ParamValue::Text(t) => Json::str(t),
                                    ParamValue::Flag(b) => Json::Bool(*b),
                                },
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// A number from the command line (`what` names its key or flag) that
/// must be finite and satisfy `ok`; the error states the accepted `range`.
pub(crate) fn ranged(what: &str, v: f64, ok: bool, range: &str) -> Result<f64, String> {
    if v.is_finite() && ok {
        Ok(v)
    } else {
        Err(format!("{what} must be {range}, got {v}"))
    }
}

/// A job or executor count from the command line: at least 1.
pub(crate) fn count_arg(what: &str, n: f64) -> Result<usize, String> {
    ranged(what, n.round(), n.round() >= 1.0, "at least 1").map(|n| n as usize)
}

// ---------------------------------------------------------------------------
// JSON helpers for the component types.
// ---------------------------------------------------------------------------

fn report_key(r: ReportKind) -> &'static str {
    match r {
        ReportKind::Table => "table",
        ReportKind::CdfCsv => "cdf",
        ReportKind::MeanUnfinished => "mean-unfinished",
        ReportKind::MeanCsv => "mean",
    }
}

fn sim_json(s: &SimSpec) -> Json {
    Json::obj([
        ("simplified", Json::Bool(s.simplified)),
        (
            "objective",
            Json::str(match s.objective {
                Objective::AvgJct => "avg-jct",
                Objective::Makespan => "makespan",
            }),
        ),
        ("noise", s.noise.map_or(Json::Null, Json::Num)),
        ("time_limit", s.time_limit.map_or(Json::Null, Json::Num)),
        ("record_gantt", Json::Bool(s.record_gantt)),
        ("dynamics", dynamics_json(&s.dynamics)),
        ("drift", drift_json(&s.drift)),
    ])
}

/// Serializes a workload-drift model (public: the drift scenario echoes
/// each profile's spec into its JSON output).
pub fn drift_json(d: &DriftSpec) -> Json {
    match d.profile {
        DriftProfile::Off => Json::obj([("profile", Json::str("off"))]),
        DriftProfile::Ramp {
            start_iat,
            end_iat,
            ramp_secs,
        } => Json::obj([
            ("profile", Json::str("ramp")),
            ("start_iat", Json::Num(start_iat)),
            ("end_iat", Json::Num(end_iat)),
            ("ramp_secs", Json::Num(ramp_secs)),
        ]),
        DriftProfile::Diurnal {
            base_iat,
            amplitude,
            period,
        } => Json::obj([
            ("profile", Json::str("diurnal")),
            ("base_iat", Json::Num(base_iat)),
            ("amplitude", Json::Num(amplitude)),
            ("period", Json::Num(period)),
        ]),
        DriftProfile::MixShift { shift_at } => Json::obj([
            ("profile", Json::str("mixshift")),
            ("shift_at", Json::Num(shift_at)),
        ]),
        DriftProfile::FlashCrowd {
            base_iat,
            burst_at,
            burst_secs,
            burst_factor,
        } => Json::obj([
            ("profile", Json::str("flash")),
            ("base_iat", Json::Num(base_iat)),
            ("burst_at", Json::Num(burst_at)),
            ("burst_secs", Json::Num(burst_secs)),
            ("burst_factor", Json::Num(burst_factor)),
        ]),
    }
}

/// Serializes a cluster-dynamics model (public: the robust scenario
/// echoes each level's spec into its JSON output).
pub fn dynamics_json(d: &DynamicsSpec) -> Json {
    Json::obj([
        ("churn_iat", Json::Num(d.churn_iat)),
        ("outage_mean", Json::Num(d.outage_mean)),
        ("fail_prob", Json::Num(d.fail_prob)),
        ("max_retries", Json::Num(d.max_retries as f64)),
        ("straggler_prob", Json::Num(d.straggler_prob)),
        ("straggler_factor", Json::Num(d.straggler_factor)),
    ])
}

fn arrivals_json(a: &ArrivalProcess) -> Json {
    match a {
        ArrivalProcess::Batch => Json::obj([("type", Json::str("batch"))]),
        ArrivalProcess::Poisson { mean_iat } => Json::obj([
            ("type", Json::str("poisson")),
            ("mean_iat", Json::Num(*mean_iat)),
        ]),
    }
}

/// Serializes a workload spec (public: the runner echoes train-time
/// workload overrides too).
pub fn workload_json(w: &WorkloadSpec) -> Json {
    let source = match &w.source {
        WorkloadSource::Tpch {
            num_jobs,
            arrivals,
            task_scale,
            random_memory,
        } => Json::obj([
            ("type", Json::str("tpch")),
            ("num_jobs", Json::Num(*num_jobs as f64)),
            ("arrivals", arrivals_json(arrivals)),
            ("task_scale", Json::Num(*task_scale)),
            ("random_memory", Json::Bool(*random_memory)),
        ]),
        WorkloadSource::TpchMixedIat {
            num_jobs,
            lo_iat,
            hi_iat,
            task_scale,
        } => Json::obj([
            ("type", Json::str("tpch-mixed-iat")),
            ("num_jobs", Json::Num(*num_jobs as f64)),
            ("lo_iat", Json::Num(*lo_iat)),
            ("hi_iat", Json::Num(*hi_iat)),
            ("task_scale", Json::Num(*task_scale)),
        ]),
        WorkloadSource::Alibaba {
            num_jobs,
            mean_iat,
            gen,
        } => Json::obj([
            ("type", Json::str("alibaba")),
            ("num_jobs", Json::Num(*num_jobs as f64)),
            ("mean_iat", Json::Num(*mean_iat)),
            (
                "gen",
                Json::obj([
                    ("max_stages", Json::Num(gen.max_stages as f64)),
                    ("small_job_fraction", Json::Num(gen.small_job_fraction)),
                    (
                        "task_count_lognorm",
                        Json::nums([gen.task_count_lognorm.0, gen.task_count_lognorm.1]),
                    ),
                    (
                        "task_dur_lognorm",
                        Json::nums([gen.task_dur_lognorm.0, gen.task_dur_lognorm.1]),
                    ),
                    ("max_tasks", Json::Num(gen.max_tasks as f64)),
                    ("with_memory", Json::Bool(gen.with_memory)),
                    ("first_wave_factor", Json::Num(gen.first_wave_factor)),
                ]),
            ),
        ]),
        WorkloadSource::SingleTpch {
            query,
            gb,
            task_scale,
        } => Json::obj([
            ("type", Json::str("single-tpch")),
            ("query", Json::Num(*query as f64)),
            ("gb", Json::Num(*gb)),
            ("task_scale", Json::Num(*task_scale)),
        ]),
        WorkloadSource::TpchSuite { gb, task_scale } => Json::obj([
            ("type", Json::str("tpch-suite")),
            ("gb", Json::Num(*gb)),
            ("task_scale", Json::Num(*task_scale)),
        ]),
        WorkloadSource::AppendixDag => Json::obj([("type", Json::str("appendix-dag"))]),
    };
    Json::obj([
        ("source", source),
        ("executors", Json::Num(w.executors as f64)),
        ("move_delay", Json::Num(w.move_delay)),
    ])
}

fn policy_json(p: &PolicySpec) -> Json {
    Json::obj([
        ("gnn", Json::Bool(p.gnn)),
        ("parallelism", Json::str(&p.parallelism)),
        ("num_classes", Json::Num(p.num_classes as f64)),
        ("include_duration", Json::Bool(p.include_duration)),
        ("iat_hint", p.iat_hint.map_or(Json::Null, Json::Num)),
    ])
}

fn train_json(t: &TrainSpec) -> Json {
    Json::obj([
        ("iters", Json::Num(t.iters as f64)),
        ("seed", Json::Num(t.seed as f64)),
        ("num_rollouts", Json::Num(t.num_rollouts as f64)),
        ("lr", Json::Num(t.lr)),
        ("entropy_start", Json::Num(t.entropy_start)),
        ("entropy_end", Json::Num(t.entropy_end)),
        (
            "entropy_decay_iters",
            Json::Num(t.entropy_decay_iters as f64),
        ),
        ("differential_reward", Json::Bool(t.differential_reward)),
        (
            "input_dependent_baseline",
            Json::Bool(t.input_dependent_baseline),
        ),
        (
            "curriculum",
            t.curriculum.as_ref().map_or(Json::Null, |c| {
                Json::obj([
                    ("tau_init", Json::Num(c.tau_init)),
                    ("tau_step", Json::Num(c.tau_step)),
                    ("tau_max", Json::Num(c.tau_max)),
                ])
            }),
        ),
        ("policy", policy_json(&t.policy)),
        (
            "workload",
            t.workload.as_ref().map_or(Json::Null, workload_json),
        ),
        (
            "eval_iat_hint",
            t.eval_iat_hint.map_or(Json::Null, Json::Num),
        ),
        (
            "checkpoint",
            t.checkpoint.as_ref().map_or(Json::Null, Json::str),
        ),
    ])
}

fn sched_json(s: &SchedulerSpec) -> Json {
    match s {
        SchedulerSpec::Fifo => Json::obj([("type", Json::str("fifo"))]),
        SchedulerSpec::SjfCp => Json::obj([("type", Json::str("sjf-cp"))]),
        SchedulerSpec::Fair => Json::obj([("type", Json::str("fair"))]),
        SchedulerSpec::NaiveWeightedFair => Json::obj([("type", Json::str("naive-weighted-fair"))]),
        SchedulerSpec::WeightedFair { alpha } => Json::obj([
            ("type", Json::str("weighted-fair")),
            ("alpha", Json::Num(*alpha)),
        ]),
        SchedulerSpec::TunedWeightedFair {
            tune_start,
            tune_count,
        } => Json::obj([
            ("type", Json::str("tuned-weighted-fair")),
            ("tune_start", Json::Num(*tune_start as f64)),
            ("tune_count", Json::Num(*tune_count as f64)),
        ]),
        SchedulerSpec::Tetris => Json::obj([("type", Json::str("tetris"))]),
        SchedulerSpec::Graphene => Json::obj([("type", Json::str("graphene"))]),
        SchedulerSpec::Random { seed } => Json::obj([
            ("type", Json::str("random")),
            ("seed", Json::Num(*seed as f64)),
        ]),
        SchedulerSpec::Decima { train } => {
            Json::obj([("type", Json::str("decima")), ("train", train_json(train))])
        }
        SchedulerSpec::DecimaUntrained {
            policy,
            sample_seed,
        } => Json::obj([
            ("type", Json::str("decima-untrained")),
            ("policy", policy_json(policy)),
            (
                "sample_seed",
                sample_seed.map_or(Json::Null, |s| Json::Num(s as f64)),
            ),
        ]),
        SchedulerSpec::DecimaCheckpoint { path } => Json::obj([
            ("type", Json::str("decima-checkpoint")),
            ("path", Json::str(path)),
        ]),
        SchedulerSpec::FineTuned {
            path,
            iters,
            window,
        } => Json::obj([
            ("type", Json::str("fine-tuned")),
            ("path", Json::str(path)),
            ("iters", Json::Num(*iters as f64)),
            ("window", Json::Num(*window as f64)),
        ]),
    }
}

fn lineup_json(e: &LineupEntry) -> Json {
    Json::obj([
        ("label", Json::str(&e.label)),
        (
            "csv",
            e.csv.as_ref().map_or(Json::Null, |c| Json::str(c.clone())),
        ),
        ("scheduler", sched_json(&e.sched)),
    ])
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Fluent construction of a [`ScenarioSpec`]. A typical registration:
///
/// ```ignore
/// ScenarioBuilder::new("fig09a", "Figure 9a: batched arrivals, avg JCT over runs")
///     .paper_ref("§7.2, Fig. 9a")
///     .workload(WorkloadSpec::tpch_batch(20, 15))
///     .seeds(1000, 20)
///     .entry("fifo", SchedulerSpec::Fifo)
///     .decima(TrainSpec::standard(80, 11))
///     .report(ReportKind::CdfCsv)
///     .build()
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Starts a spec with the given registry key and display title.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                title: title.into(),
                paper_ref: String::new(),
                workload: None,
                sim: SimSpec::default(),
                seeds: SeedPlan { start: 0, count: 1 },
                lineup: Vec::new(),
                report: ReportKind::Table,
                params: Vec::new(),
                notes: Vec::new(),
            },
        }
    }

    /// Sets the paper reference string.
    pub fn paper_ref(mut self, r: impl Into<String>) -> Self {
        self.spec.paper_ref = r.into();
        self
    }

    /// Sets the evaluation workload.
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.spec.workload = Some(w);
        self
    }

    /// Edits the simulator knobs in place.
    pub fn sim(mut self, f: impl FnOnce(&mut SimSpec)) -> Self {
        f(&mut self.spec.sim);
        self
    }

    /// Sets the seed plan.
    pub fn seeds(mut self, start: u64, count: usize) -> Self {
        self.spec.seeds = SeedPlan { start, count };
        self
    }

    /// Appends a lineup entry with the scheduler's default label.
    pub fn sched(self, sched: SchedulerSpec) -> Self {
        let label = sched.label();
        self.entry(label, sched)
    }

    /// Appends a labelled lineup entry.
    pub fn entry(mut self, label: impl Into<String>, sched: SchedulerSpec) -> Self {
        self.spec.lineup.push(LineupEntry {
            label: label.into(),
            csv: None,
            sched,
        });
        self
    }

    /// Appends a lineup entry with an explicit CSV identifier.
    pub fn entry_csv(
        mut self,
        label: impl Into<String>,
        csv: impl Into<String>,
        sched: SchedulerSpec,
    ) -> Self {
        self.spec.lineup.push(LineupEntry {
            label: label.into(),
            csv: Some(csv.into()),
            sched,
        });
        self
    }

    /// Appends a trained-Decima entry labelled `decima`.
    pub fn decima(self, train: TrainSpec) -> Self {
        self.entry("decima", SchedulerSpec::Decima { train })
    }

    /// Sets the report shape.
    pub fn report(mut self, r: ReportKind) -> Self {
        self.spec.report = r;
        self
    }

    /// Adds a numeric parameter.
    pub fn param(mut self, key: impl Into<String>, value: f64) -> Self {
        self.spec.params.push((key.into(), ParamValue::Num(value)));
        self
    }

    /// Adds a boolean parameter.
    pub fn flag(mut self, key: impl Into<String>, value: bool) -> Self {
        self.spec.params.push((key.into(), ParamValue::Flag(value)));
        self
    }

    /// Adds a "paper shape" note line.
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.spec.notes.push(line.into());
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioBuilder::new("demo", "Demo scenario")
            .paper_ref("§0")
            .workload(WorkloadSpec::tpch_batch(4, 6))
            .seeds(100, 3)
            .sched(SchedulerSpec::Fifo)
            .entry_csv(
                "opt-weighted-fair",
                "opt_wf",
                SchedulerSpec::TunedWeightedFair {
                    tune_start: 2000,
                    tune_count: 10,
                },
            )
            .decima(TrainSpec::standard(5, 11).with_checkpoint("out/m.ckpt"))
            .entry(
                "saved",
                SchedulerSpec::DecimaCheckpoint {
                    path: "out/other.ckpt".into(),
                },
            )
            .report(ReportKind::CdfCsv)
            .param("iters", 5.0)
            .flag("verbose", false)
            .note("paper shape: everything works")
            .build()
    }

    /// The spec echo is write-only (results stay self-describing; CI and
    /// readers grep it), so its format is pinned as text. Refresh
    /// `tests/golden/demo_spec_echo.json` by hand when a field is added.
    #[test]
    fn demo_spec_echo_matches_the_frozen_golden() {
        let mut spec = demo_spec();
        spec.sim.dynamics = DynamicsSpec::level("med").unwrap();
        spec.sim.drift = DriftSpec::preset("ramp").unwrap();
        assert_eq!(
            spec.to_json().render(),
            include_str!("../tests/golden/demo_spec_echo.json").trim_end()
        );
    }

    #[test]
    fn seed_plan_parsing() {
        let plan = SeedPlan {
            start: 10,
            count: 5,
        };
        assert_eq!(
            plan.parse("0..40").unwrap(),
            SeedPlan {
                start: 0,
                count: 40
            }
        );
        assert_eq!(
            plan.parse("7").unwrap(),
            SeedPlan {
                start: 10,
                count: 7
            }
        );
        assert!(plan.parse("9..3").is_err());
        assert!(plan.parse("x..y").is_err());
        assert_eq!(plan.seeds(), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn set_overrides_structured_fields() {
        let mut spec = demo_spec();
        spec.set("execs", "30").unwrap();
        spec.set("jobs", "8").unwrap();
        spec.set("runs", "12").unwrap();
        spec.set("iters", "9").unwrap();
        spec.set("custom-knob", "2.5").unwrap();
        spec.set("flaggy", "true").unwrap();
        assert_eq!(spec.workload.as_ref().unwrap().executors, 30);
        assert_eq!(spec.workload.as_ref().unwrap().num_jobs(), 8);
        assert_eq!(spec.seeds.count, 12);
        match &spec.lineup[2].sched {
            SchedulerSpec::Decima { train } => assert_eq!(train.iters, 9),
            _ => unreachable!(),
        }
        assert_eq!(spec.num_param("custom-knob", 0.0), 2.5);
        assert!(spec.flag_param("flaggy", false));
        assert!(spec.set("execs", "abc").is_err());
    }

    #[test]
    fn checkpoint_override_rewrites_decima_entries_only() {
        let mut spec = demo_spec();
        spec.set("checkpoint", "/tmp/new.ckpt").unwrap();
        match &spec.lineup[2].sched {
            SchedulerSpec::Decima { train } => {
                assert_eq!(train.checkpoint.as_deref(), Some("/tmp/new.ckpt"));
            }
            other => panic!("{other:?}"),
        }
        // Pre-resolved checkpoint entries are untouched by the override.
        match &spec.lineup[3].sched {
            SchedulerSpec::DecimaCheckpoint { path } => assert_eq!(path, "out/other.ckpt"),
            other => panic!("{other:?}"),
        }
    }

    /// With several Decima entries (ablations, different training
    /// workloads), `--set checkpoint=` must give each its own file —
    /// sharing one path would silently evaluate one model everywhere.
    #[test]
    fn checkpoint_override_disambiguates_multiple_decima_entries() {
        let mut spec = ScenarioBuilder::new("multi", "Two trained entries")
            .workload(WorkloadSpec::tpch_batch(4, 6))
            .entry(
                "decima",
                SchedulerSpec::Decima {
                    train: TrainSpec::standard(5, 11),
                },
            )
            .entry(
                "decima (no durations)",
                SchedulerSpec::Decima {
                    train: TrainSpec::standard(5, 12),
                },
            )
            .build();
        spec.set("checkpoint", "out/m.ckpt").unwrap();
        let paths: Vec<String> = spec
            .lineup
            .iter()
            .map(|e| match &e.sched {
                SchedulerSpec::Decima { train } => train.checkpoint.clone().unwrap(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(paths[0], "out/m.decima.ckpt");
        assert_eq!(paths[1], "out/m.decima_no_durations.ckpt");
        assert_ne!(paths[0], paths[1]);
        // Extension-less base paths still disambiguate.
        spec.set("checkpoint", "out/checkpoints/model").unwrap();
        match &spec.lineup[0].sched {
            SchedulerSpec::Decima { train } => {
                assert_eq!(
                    train.checkpoint.as_deref(),
                    Some("out/checkpoints/model.decima")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    /// Satellite coverage: every dynamics knob is reachable with
    /// `--set`, and `level=` applies whole presets (rejecting unknown
    /// names).
    #[test]
    fn set_overrides_dynamics_knobs() {
        let mut spec = demo_spec();
        assert!(!spec.sim.dynamics.enabled());
        spec.set("churn", "90").unwrap();
        spec.set("outage", "12").unwrap();
        spec.set("fail", "0.04").unwrap();
        spec.set("retries", "7").unwrap();
        spec.set("straggle", "0.2").unwrap();
        spec.set("straggle-factor", "5").unwrap();
        assert_eq!(
            spec.sim.dynamics,
            DynamicsSpec {
                churn_iat: 90.0,
                outage_mean: 12.0,
                fail_prob: 0.04,
                max_retries: 7,
                straggler_prob: 0.2,
                straggler_factor: 5.0,
            }
        );
        assert!(spec.sim.dynamics.enabled());
        assert!(spec.set("fail", "lots").is_err(), "non-numeric rejected");

        // `level` is interpreted by the robust scenario only.
        spec.name = "robust".into();
        // Presets overwrite the whole model and record the level param.
        spec.set("level", "high").unwrap();
        assert_eq!(spec.sim.dynamics, DynamicsSpec::high());
        assert_eq!(spec.text_param("level", "all"), "high");
        spec.set("level", "off").unwrap();
        assert!(!spec.sim.dynamics.enabled());
        // "all" (the robust sweep marker) and "custom" (use the knobs
        // as set) touch the param only, never the structured model.
        spec.set("churn", "50").unwrap();
        spec.set("level", "all").unwrap();
        assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
        assert_eq!(spec.text_param("level", "x"), "all");
        spec.set("level", "custom").unwrap();
        assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
        assert_eq!(spec.text_param("level", "x"), "custom");
        assert!(spec.set("level", "apocalyptic").is_err());
    }

    /// `--set level=` outside the robust scenario is a hard error (it
    /// would be silently ignored), and the error names the knobs that
    /// do work everywhere.
    #[test]
    fn level_outside_robust_is_rejected() {
        let mut spec = demo_spec();
        for value in ["high", "all", "custom"] {
            let err = spec.set("level", value).unwrap_err();
            assert!(err.contains("robust-only"), "{err}");
            assert!(
                err.contains("churn="),
                "error must name the valid knobs: {err}"
            );
        }
        // The direct dynamics knobs stay available to every scenario.
        spec.set("churn", "120").unwrap();
        assert_eq!(spec.sim.dynamics.churn_iat, 120.0);
    }

    #[test]
    fn sanitize_labels() {
        assert_eq!(sanitize("opt-weighted-fair"), "opt_weighted_fair");
        assert_eq!(sanitize("Q9 @ 2 GB"), "q9_2_gb");
        assert_eq!(sanitize("graphene*"), "graphene");
    }

    #[test]
    fn csv_name_prefers_explicit() {
        let spec = demo_spec();
        assert_eq!(spec.lineup[0].csv_name(), "fifo");
        assert_eq!(spec.lineup[1].csv_name(), "opt_wf");
    }
}
