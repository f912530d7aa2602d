//! Declarative experiment descriptions.
//!
//! A [`ScenarioSpec`] captures everything one paper artifact needs —
//! workload and cluster, simulator knobs, seed plan, scheduler lineup,
//! and training recipes — as plain serializable data. Specs are built
//! with the fluent [`ScenarioBuilder`], registered in the
//! [`crate::registry::ScenarioRegistry`], executed by
//! [`crate::runner::run_scenario`], and echoed verbatim into each
//! run's `out/<scenario>.json` so results stay self-describing.

use crate::factory::{make_router, scheduler_spec_by_name};
use crate::json::Json;
use decima_policy::ParallelismMode;
use decima_rl::checkpoint::MAX_COUNT;
use decima_rl::{Curriculum, TrainConfig};
use decima_sim::{DynamicsSpec, Objective, SimConfig};
use decima_workload::{ArrivalProcess, DriftProfile, DriftSpec, WorkloadSource, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// A scalar experiment parameter (the open-ended part of a spec that
/// custom scenarios read at run time). A scenario declares each with a
/// default in the registry; the variant is the kind `--set` holds a new
/// value to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A finite number.
    Num(f64),
    /// A non-negative integer (iterations, repetitions, sizes).
    Count(usize),
    /// A free-form string.
    Text(String),
    /// `true` or `false`.
    Flag(bool),
}

impl ParamValue {
    /// The number, when it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            ParamValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The text, when it is one.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ParamValue::Text(t) => Some(t),
            _ => None,
        }
    }

    /// A `--set` value for a parameter declared as `self`: it has to be
    /// of the same kind.
    fn parse_like(&self, key: &str, value: &str) -> Result<ParamValue, String> {
        Ok(match self {
            ParamValue::Num(_) => ParamValue::Num(number(key, value, FINITE)?),
            ParamValue::Count(_) => ParamValue::Count(number(key, value, NATURAL)? as usize),
            ParamValue::Text(_) => ParamValue::Text(value.to_string()),
            ParamValue::Flag(_) => ParamValue::Flag(
                value
                    .parse()
                    .map_err(|_| format!("'{key}' needs true or false, got '{value}'"))?,
            ),
        })
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
    /// The most seeds one plan may name (the seed list is materialized).
    pub const MAX_SEEDS: u64 = 1_000_000;

    /// The concrete seed list.
    pub fn seeds(&self) -> Vec<u64> {
        (self.start..self.start + self.count as u64).collect()
    }

    /// Parses `"a..b"` (half-open range) or a bare count (keeps `start`):
    /// at least one seed, at most [`SeedPlan::MAX_SEEDS`].
    pub fn parse(&self, text: &str) -> Result<SeedPlan, String> {
        let num = |t: &str| t.trim().parse::<u64>().map_err(|_| bad_range(text));
        let (start, end) = match text.split_once("..") {
            Some((a, b)) => (num(a)?, num(b)?),
            None => (self.start, self.start.saturating_add(num(text)?)),
        };
        match end.checked_sub(start) {
            Some(count @ 1..=Self::MAX_SEEDS) => Ok(SeedPlan {
                start,
                count: count as usize,
            }),
            Some(0) => Err(format!("seed range '{text}' selects no seed")),
            Some(_) => Err(format!(
                "seed range '{text}' selects more than {} seeds",
                Self::MAX_SEEDS
            )),
            None => Err(bad_range(text)),
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
    /// failures, stragglers); off by default. Every scenario takes the
    /// [`DynamicsSpec::KNOBS`] keys with `--set`.
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

/// Policy-architecture overrides on top of `PolicyConfig::small`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Use the graph neural network (off reproduces the "w/o graph
    /// embedding" ablation).
    pub gnn: bool,
    /// Parallelism-control mode.
    pub parallelism: ParallelismMode,
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
            parallelism: ParallelismMode::JobLevel,
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
    /// Trainer hyperparameters; `cfg.seed` also seeds the policy's
    /// initial parameters.
    pub cfg: TrainConfig,
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
    /// The standard scaled-down batched-arrival recipe:
    /// uniform-initialized small policy, entropy-annealed REINFORCE.
    pub fn standard(iters: usize, seed: u64) -> Self {
        TrainSpec {
            iters,
            cfg: TrainConfig {
                num_rollouts: 8,
                lr: 2e-3,
                entropy_start: 0.08,
                entropy_end: 1e-3,
                entropy_decay_iters: 50,
                seed,
                ..TrainConfig::default()
            },
            policy: PolicySpec::default(),
            workload: None,
            eval_iat_hint: None,
            checkpoint: None,
        }
    }

    /// The continuous-arrival recipe: standard plus differential rewards
    /// and the horizon curriculum every continuous-arrival experiment
    /// uses (§5.3 challenge #1).
    pub fn stream(iters: usize, seed: u64) -> Self {
        let mut spec = TrainSpec::standard(iters, seed);
        spec.cfg.differential_reward = true;
        spec.cfg.curriculum = Some(Curriculum {
            tau_init: 300.0,
            tau_step: 40.0,
            tau_max: 4000.0,
        });
        spec
    }

    /// The generalization/multi-resource recipe: the continuous-arrival
    /// one with a hotter entropy schedule at the default learning rate.
    pub fn tuned(iters: usize, seed: u64) -> Self {
        let mut spec = TrainSpec::stream(iters, seed);
        spec.cfg.lr = 1e-3;
        spec.cfg.entropy_start = 0.25;
        spec.cfg.entropy_decay_iters = 60;
        spec
    }

    /// The recipe `name` (`standard`, `stream` or `tuned`), as the
    /// `train` scenario's `recipe=` picks it.
    pub fn by_recipe(name: &str, iters: usize, seed: u64) -> Result<Self, String> {
        match name {
            "standard" => Ok(TrainSpec::standard(iters, seed)),
            "stream" => Ok(TrainSpec::stream(iters, seed)),
            "tuned" => Ok(TrainSpec::tuned(iters, seed)),
            other => Err(format!(
                "unknown recipe '{other}' (expected standard, stream, or tuned)"
            )),
        }
    }

    /// Persist/reuse the trained model at `path` (see
    /// [`TrainSpec::checkpoint`]).
    pub fn with_checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// This recipe for one of several models trained from it: a named
    /// checkpoint gets `key` before its extension (`out/m.ckpt` →
    /// `out/m.<key>.ckpt`), so the models never share a file.
    pub fn keyed(mut self, key: &str) -> Self {
        self.checkpoint = self.checkpoint.map(|p| per_entry_checkpoint(&p, key));
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

    /// A parameter the scenario declared in the registry, where its
    /// default is stated. Reading one it did not declare — or as another
    /// kind — is a bug in the registry's shape, and panics.
    fn declared<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        get: impl FnOnce(&'a ParamValue) -> Option<T>,
    ) -> T {
        let value = self.param(key).and_then(get);
        value.unwrap_or_else(|| panic!("scenario '{}' declares no {kind} '{key}'", self.name))
    }

    /// A declared numeric parameter.
    pub fn num_param(&self, key: &str) -> f64 {
        self.declared(key, "number", ParamValue::as_num)
    }

    /// A declared count parameter.
    pub fn usize_param(&self, key: &str) -> usize {
        self.declared(key, "count", |v| match v {
            ParamValue::Count(n) => Some(*n),
            _ => None,
        })
    }

    /// A declared boolean parameter.
    pub fn flag_param(&self, key: &str) -> bool {
        self.declared(key, "flag", |v| match v {
            ParamValue::Flag(b) => Some(*b),
            _ => None,
        })
    }

    /// A declared text parameter.
    pub fn text_param(&self, key: &str) -> &str {
        self.declared(key, "text", ParamValue::as_text)
    }

    /// Raw parameter lookup: `None` for a key nobody declared or set —
    /// how the keys `--set` creates on demand (`level`, `profile`, `iat`,
    /// the sweep lists) are read.
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Applies one `--set key=value` override: a [`DynamicsSpec::KNOBS`]
    /// key, a [`KEYS`] row that applies to this scenario, or a parameter
    /// the scenario declared — held to the knob's range, the row's kind,
    /// or the declared kind. Anything else is an error that lists what
    /// the scenario accepts.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        if let Some(knob) = DynamicsSpec::KNOBS.iter().find(|k| k.key == key) {
            return knob.set(&mut self.sim.dynamics, numeric(key, value)?);
        }
        let mut rows = KEYS.iter().filter(|r| r.names.contains(&key));
        let named = rows.clone().next();
        if let Some(row) = rows.find(|r| r.applies_to(&self.name)) {
            match row.kind {
                Kind::Num(range, apply) => apply(self, number(key, value, range)?),
                Kind::Sweep(range) => self.upsert_param(row.names[0], sweep(key, value, range)?),
                Kind::Text(_, apply) => apply(self, value)?,
                Kind::Name(_, apply) => {
                    apply(self, value)?;
                    self.upsert_param(row.names[0], ParamValue::Text(value.to_string()));
                }
            }
            return Ok(());
        }
        let problem = match (named, self.params.iter().position(|(k, _)| k == key)) {
            (Some(row), _) => format!("'{key}' is a {}-only key", row.only.join("/")),
            (None, Some(i)) => {
                self.params[i].1 = self.params[i].1.parse_like(key, value)?;
                return Ok(());
            }
            (None, None) => format!("unknown key '{key}'"),
        };
        let rows = KEYS.iter().filter(|r| r.applies_to(&self.name));
        let knobs = DynamicsSpec::KNOBS.iter().map(|k| k.key);
        let params = self.params.iter().map(|(k, _)| k.as_str());
        let mut keys: Vec<String> = Vec::new();
        for key in rows.map(|r| r.names[0]).chain(knobs).chain(params) {
            let key = format!("{key}=");
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let keys = keys.join(", ");
        Err(format!(
            "{problem} for scenario '{}', which takes {keys}",
            self.name
        ))
    }

    /// What no single `--set` can see: the constraints between keys,
    /// checked once every override is in and before anything runs.
    pub fn check(&self) -> Result<(), String> {
        // Indistinguishable from `off`, which is never what the caller
        // meant — refuse instead of silently running unperturbed.
        let level = self.param("level").and_then(ParamValue::as_text);
        if level == Some("custom") && !self.sim.dynamics.enabled() {
            return Err(CUSTOM_NEEDS_A_KNOB.to_string());
        }
        if self.name == "train" {
            TrainSpec::by_recipe(self.text_param("recipe"), 0, 0)?;
        }
        Ok(())
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
                Json::Obj(self.params.iter().map(param_json).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// The `--set` key table
// ---------------------------------------------------------------------------

/// The accepted range of a number from the command line: as errors,
/// `--help` and the docs state it, and as a test.
pub type Range = (&'static str, fn(f64) -> bool);

/// An executor or shard count: a whole number up to [`MAX_COUNT`], the
/// most a checkpoint header records — so the checkpoint of whatever
/// cluster `train` builds loads again.
const COUNT: Range = ("at least 1 (whole, up to 1000000)", |n| {
    n >= 1.0 && n <= MAX_COUNT as f64 && n.fract() == 0.0
});
const _: () = assert!(MAX_COUNT == 1_000_000, "COUNT states the bound as text");
/// A job count: a whole number, bounded because the job list is
/// materialized.
const JOBS: Range = ("at least 1 (whole, up to 100000000)", |n| {
    (1.0..=1e8).contains(&n) && n.fract() == 0.0
});
const POSITIVE: Range = ("> 0", |v| v > 0.0);
const NON_NEGATIVE: Range = (">= 0", |v| v >= 0.0);
/// Up to 2^53, where every integer is still an exact `f64`.
const NATURAL: Range = ("a non-negative integer", |n| {
    n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0
});
const FINITE: Range = ("a finite number", |_| true);

/// `v` when it is finite and in `range`; the error names `what` (a
/// quoted key or a flag).
fn in_range(what: &str, v: f64, (text, ok): Range) -> Result<f64, String> {
    match v.is_finite() && ok(v) {
        true => Ok(v),
        false => Err(format!("{what} must be {text}, got {v}")),
    }
}

fn numeric(key: &str, value: &str) -> Result<f64, String> {
    let v = value.parse();
    v.map_err(|_| format!("'{key}' needs a numeric value, got '{value}'"))
}

/// The value of `--set key=value` as a number in `range`.
fn number(key: &str, value: &str, range: Range) -> Result<f64, String> {
    in_range(&format!("'{key}'"), numeric(key, value)?, range)
}

/// A sweep value: a single number or a comma list of them, each in
/// `range`, in the form `list_param` expands.
fn sweep(key: &str, value: &str, range: Range) -> Result<ParamValue, String> {
    let nums: Result<Vec<f64>, _> = value.split(',').map(|s| s.trim().parse()).collect();
    let nums = nums.map_err(|_| format!("'{key}' needs a number or comma list, got '{value}'"))?;
    for &n in &nums {
        in_range(&format!("'{key}'"), n, range)?;
    }
    Ok(match nums[..] {
        [n] => ParamValue::Num(n),
        _ => ParamValue::Text(value.to_string()),
    })
}

type SetText = fn(&mut ScenarioSpec, &str) -> Result<(), String>;

/// What a [`Key`]'s value has to look like, and what it changes.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One number in a range.
    Num(Range, fn(&mut ScenarioSpec, f64)),
    /// A sweep axis: one number or a comma list of them, each in the
    /// range, kept as a parameter for the scenario's run function.
    Sweep(Range),
    /// Text of the stated form, which the function resolves or refuses.
    Text(&'static str, SetText),
    /// The same, and what the function accepts is also kept as a
    /// parameter for the scenario's run function.
    Name(&'static str, SetText),
}

/// One `--set` key that means the same thing wherever it applies (a
/// scenario's own parameters are declared in the registry instead).
pub struct Key {
    /// The key, then its aliases.
    pub names: &'static [&'static str],
    /// The scenarios that take it; empty for every scenario.
    pub only: &'static [&'static str],
    /// Accepted values and their effect.
    pub kind: Kind,
    /// One-line meaning (`--help`, docs/ARCHITECTURE.md).
    pub doc: &'static str,
}

impl Key {
    fn applies_to(&self, scenario: &str) -> bool {
        self.only.is_empty() || self.only.contains(&scenario)
    }
}

/// `(key, applies to, accepted values, meaning)` for every [`KEYS`] row
/// and every [`DynamicsSpec::KNOBS`] key: the rows of `--help` and of
/// the "Settable keys" table in docs/ARCHITECTURE.md.
pub fn settable_keys() -> Vec<[String; 4]> {
    let everywhere = || "every scenario".to_string();
    let rows = KEYS.iter().map(|r| {
        let on = match r.only {
            [] => everywhere(),
            only => only.join(", "),
        };
        let accepts = match r.kind {
            Kind::Num((range, _), _) => range.to_string(),
            Kind::Sweep((range, _)) => format!("one or a comma list, each {range}"),
            Kind::Text(form, _) | Kind::Name(form, _) => form.to_string(),
        };
        [r.names.join(", "), on, accepts, r.doc.to_string()]
    });
    let knobs = DynamicsSpec::KNOBS.iter().map(|k| {
        let accepts = k.range.to_string();
        [k.key.to_string(), everywhere(), accepts, k.doc.to_string()]
    });
    rows.chain(knobs).collect()
}

const LEVELS: &str = "off, low, med, high, all or custom";
const PROFILES: &str = "off, ramp, diurnal, mixshift, flash or all";
const CUSTOM_NEEDS_A_KNOB: &str = "level=custom without any dynamics knob would run unperturbed; \
    set at least one of churn=, fail=, or straggle= (or pick a preset: off, low, med, high)";

/// The table behind [`ScenarioSpec::set`], `--help` and the docs. Where
/// two rows share a name the first that applies to the scenario wins.
pub const KEYS: &[Key] = &[
    Key {
        names: &["execs", "executors"],
        only: &["scale"],
        kind: Kind::Sweep(COUNT),
        doc: "executor counts to sweep",
    },
    Key {
        names: &["execs", "executors"],
        only: &[],
        kind: Kind::Num(COUNT, set_execs),
        doc: "executors of the evaluation cluster",
    },
    Key {
        names: &["jobs"],
        only: &["scale"],
        kind: Kind::Sweep(JOBS),
        doc: "total job counts to sweep",
    },
    Key {
        names: &["jobs"],
        only: &[],
        kind: Kind::Num(JOBS, set_jobs),
        doc: "jobs per evaluation episode",
    },
    Key {
        names: &["shards"],
        only: &["fleet"],
        kind: Kind::Sweep(COUNT),
        doc: "shard counts to sweep",
    },
    Key {
        names: &["rates"],
        only: &["fleet"],
        kind: Kind::Sweep(POSITIVE),
        doc: "arrival-rate multipliers to sweep",
    },
    Key {
        names: &["iat"],
        only: &[],
        kind: Kind::Num(POSITIVE, set_iat),
        doc: "mean interarrival time in seconds",
    },
    Key {
        names: &["task-scale"],
        only: &[],
        kind: Kind::Num(POSITIVE, set_task_scale),
        doc: "TPC-H task-count divisor",
    },
    Key {
        names: &["move-delay"],
        only: &[],
        kind: Kind::Num(NON_NEGATIVE, set_move_delay),
        doc: "executor move delay in seconds",
    },
    Key {
        names: &["level"],
        only: &["robust"],
        kind: Kind::Name(LEVELS, set_level),
        doc: "dynamics preset; all sweeps them, custom runs the knobs as set",
    },
    Key {
        names: &["profile"],
        only: &["drift"],
        kind: Kind::Name(PROFILES, set_profile),
        doc: "drift preset; all sweeps the four profiles",
    },
    Key {
        names: &["runs", "seeds"],
        only: &[],
        kind: Kind::Text("a count N, or a range A..B", set_seeds),
        doc: "evaluation seeds (like --seeds)",
    },
    Key {
        names: &["seed-start"],
        only: &[],
        kind: Kind::Num(NATURAL, set_seed_start),
        doc: "first evaluation seed",
    },
    Key {
        names: &["iters"],
        only: &[],
        kind: Kind::Num(NATURAL, set_iters),
        doc: "training iterations of every Decima entry",
    },
    Key {
        names: &["checkpoint"],
        only: &[],
        kind: Kind::Text("a path", set_checkpoint),
        doc: "each Decima entry's model: loaded if the file exists, else trained and saved (train: the file it writes)",
    },
    Key {
        names: &["router"],
        only: &["fleet"],
        kind: Kind::Name("rr, jsq or least-loaded", |_, name| {
            make_router(name).map(drop)
        }),
        doc: "how the front-end routes jobs to shards",
    },
    Key {
        names: &["sched"],
        only: &["fleet", "scale"],
        kind: Kind::Name("a scheduler name, or decima-ckpt:PATH", check_sched),
        doc: "the scheduler every shard (or the scale sweep) runs",
    },
];

fn with_workload(s: &mut ScenarioSpec, f: impl FnOnce(&mut WorkloadSpec)) {
    if let Some(w) = &mut s.workload {
        f(w);
    }
}

fn set_execs(s: &mut ScenarioSpec, n: f64) {
    with_workload(s, |w| w.executors = n as usize);
}

fn set_jobs(s: &mut ScenarioSpec, n: f64) {
    with_workload(s, |w| w.set_num_jobs(n as usize));
}

/// Also a parameter, so custom scenarios with secondary environments
/// (fig11) can honor it.
fn set_iat(s: &mut ScenarioSpec, iat: f64) {
    with_workload(s, |w| w.set_mean_iat(iat));
    s.upsert_param("iat", ParamValue::Num(iat));
}

fn set_task_scale(s: &mut ScenarioSpec, divisor: f64) {
    with_workload(s, |w| w.set_task_scale(divisor));
}

fn set_move_delay(s: &mut ScenarioSpec, secs: f64) {
    with_workload(s, |w| w.move_delay = secs);
}

fn set_seeds(s: &mut ScenarioSpec, plan: &str) -> Result<(), String> {
    s.seeds = s.seeds.parse(plan)?;
    Ok(())
}

fn set_seed_start(s: &mut ScenarioSpec, start: f64) {
    s.seeds.start = start as u64;
}

/// A named perturbation preset. "all" (the robust scenario's full sweep)
/// and "custom" (use the knobs as set) leave the structured dynamics
/// untouched.
fn set_level(s: &mut ScenarioSpec, value: &str) -> Result<(), String> {
    if value != "all" && value != "custom" {
        let level = DynamicsSpec::level(value);
        s.sim.dynamics =
            level.ok_or_else(|| format!("unknown dynamics level '{value}' (expected {LEVELS})"))?;
    }
    Ok(())
}

/// A named drift preset. "all" (the drift scenario's full sweep) leaves
/// the structured spec untouched.
fn set_profile(s: &mut ScenarioSpec, value: &str) -> Result<(), String> {
    if value != "all" {
        let preset = DriftSpec::preset(value);
        s.sim.drift = preset
            .ok_or_else(|| format!("unknown drift profile '{value}' (expected {PROFILES})"))?;
    }
    Ok(())
}

/// Also a parameter: fig14, fig15a and fig19 train outside the lineup.
fn set_iters(s: &mut ScenarioSpec, iters: f64) {
    for entry in &mut s.lineup {
        if let SchedulerSpec::Decima { train } = &mut entry.sched {
            train.iters = iters as usize;
        }
    }
    s.upsert_param("iters", ParamValue::Count(iters as usize));
}

/// Persist/reuse every trained-Decima entry's model (first run trains
/// and saves; later runs load and skip training). With several Decima
/// entries in the lineup — ablations, different training workloads —
/// each gets its own file derived from PATH and the entry name, so
/// entries never silently share one model.
fn set_checkpoint(s: &mut ScenarioSpec, path: &str) -> Result<(), String> {
    let is_decima = |e: &LineupEntry| matches!(e.sched, SchedulerSpec::Decima { .. });
    let several = s.lineup.iter().filter(|e| is_decima(e)).count() > 1;
    for entry in &mut s.lineup {
        let entry_key = entry.csv_name();
        if let SchedulerSpec::Decima { train } = &mut entry.sched {
            train.checkpoint = Some(match several {
                true => per_entry_checkpoint(path, &entry_key),
                false => path.to_string(),
            });
        }
    }
    Ok(())
}

/// Why a serving scenario (`fleet`, `scale`: no training environment)
/// refuses `name`, which stands for a policy still to be trained or
/// fine-tuned.
pub(crate) fn serving_does_not_train(name: &str) -> String {
    format!(
        "'{name}' has a policy to train, and a serving scenario does not train: train \
         separately (--scenario train) and serve the checkpoint as decima-ckpt:<path>"
    )
}

/// A name the factory does not resolve — or an argument it cannot use
/// — is refused here, and so is a policy still to be trained, rather
/// than served untrained.
fn check_sched(_: &mut ScenarioSpec, name: &str) -> Result<(), String> {
    match scheduler_spec_by_name(name)? {
        SchedulerSpec::Decima { .. } | SchedulerSpec::FineTuned { .. } => {
            Err(serving_does_not_train(name))
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// JSON helpers for the component types.
// ---------------------------------------------------------------------------

fn param_json((key, value): &(String, ParamValue)) -> (String, Json) {
    let value = match value {
        ParamValue::Num(n) => Json::Num(*n),
        ParamValue::Count(n) => Json::Num(*n as f64),
        ParamValue::Text(t) => Json::str(t),
        ParamValue::Flag(b) => Json::Bool(*b),
    };
    (key.clone(), value)
}

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
    Json::obj(DynamicsSpec::KNOBS.map(|k| (k.field, Json::Num(k.get(d)))))
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
        ("parallelism", Json::str(p.parallelism.key())),
        ("num_classes", Json::Num(p.num_classes as f64)),
        ("include_duration", Json::Bool(p.include_duration)),
        ("iat_hint", p.iat_hint.map_or(Json::Null, Json::Num)),
    ])
}

fn train_json(t: &TrainSpec) -> Json {
    let c = &t.cfg;
    Json::obj([
        ("iters", Json::Num(t.iters as f64)),
        ("seed", Json::Num(c.seed as f64)),
        ("num_rollouts", Json::Num(c.num_rollouts as f64)),
        ("lr", Json::Num(c.lr)),
        ("entropy_start", Json::Num(c.entropy_start)),
        ("entropy_end", Json::Num(c.entropy_end)),
        (
            "entropy_decay_iters",
            Json::Num(c.entropy_decay_iters as f64),
        ),
        ("differential_reward", Json::Bool(c.differential_reward)),
        (
            "input_dependent_baseline",
            Json::Bool(c.input_dependent_baseline),
        ),
        (
            "curriculum",
            c.curriculum.as_ref().map_or(Json::Null, |c| {
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

    /// Adds a count parameter (iterations, repetitions, sizes).
    pub fn count(mut self, key: impl Into<String>, value: usize) -> Self {
        self.spec
            .params
            .push((key.into(), ParamValue::Count(value)));
        self
    }

    /// Adds a boolean parameter.
    pub fn flag(mut self, key: impl Into<String>, value: bool) -> Self {
        self.spec.params.push((key.into(), ParamValue::Flag(value)));
        self
    }

    /// Adds a text parameter.
    pub fn text(mut self, key: impl Into<String>, value: &str) -> Self {
        let value = ParamValue::Text(value.to_string());
        self.spec.params.push((key.into(), value));
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
        let declared = ScenarioBuilder { spec: demo_spec() };
        let mut spec = declared
            .param("custom-knob", 0.0)
            .flag("flaggy", false)
            .build();
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
        assert_eq!(spec.num_param("custom-knob"), 2.5);
        assert!(spec.flag_param("flaggy"));
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
        assert_eq!(spec.text_param("level"), "high");
        spec.set("level", "off").unwrap();
        assert!(!spec.sim.dynamics.enabled());
        // "all" (the robust sweep marker) and "custom" (use the knobs
        // as set) touch the param only, never the structured model.
        spec.set("churn", "50").unwrap();
        spec.set("level", "all").unwrap();
        assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
        assert_eq!(spec.text_param("level"), "all");
        spec.set("level", "custom").unwrap();
        assert_eq!(spec.sim.dynamics.churn_iat, 50.0);
        assert_eq!(spec.text_param("level"), "custom");
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

    /// A key that is neither a table row nor a declared parameter is an
    /// error naming what the scenario takes; a declared parameter only
    /// takes its declared kind.
    #[test]
    fn undeclared_keys_and_wrong_kinds_are_rejected() {
        let declared = ScenarioBuilder { spec: demo_spec() };
        let mut spec = declared.count("reps", 10).text("tag", "a").build();
        let before = spec.clone();
        let err = spec.set("exces", "30").unwrap_err();
        assert!(
            err.starts_with("unknown key 'exces' for scenario 'demo', which takes execs=, jobs=,"),
            "{err}"
        );
        assert!(
            err.ends_with("straggle-factor=, verbose=, reps=, tag="),
            "{err}"
        );
        let cases = [
            ("reps", "ten", "'reps' needs a numeric value, got 'ten'"),
            (
                "reps",
                "-3",
                "'reps' must be a non-negative integer, got -3",
            ),
            (
                "reps",
                "2.5",
                "'reps' must be a non-negative integer, got 2.5",
            ),
            (
                "iters",
                "inf",
                "'iters' must be a non-negative integer, got inf",
            ),
            ("verbose", "1", "'verbose' needs true or false, got '1'"),
            ("runs", "0", "seed range '0' selects no seed"),
            ("seeds", "5..5", "seed range '5..5' selects no seed"),
            (
                "seeds",
                "0..99999999",
                "seed range '0..99999999' selects more than 1000000 seeds",
            ),
        ];
        for (key, value, want) in cases {
            assert_eq!(spec.set(key, value), Err(want.to_string()), "{key}={value}");
        }
        assert_eq!(spec, before, "a refused value changes nothing");
        spec.set("reps", "12").unwrap();
        spec.set("tag", "anything at all").unwrap();
        spec.set("verbose", "true").unwrap();
        assert_eq!(spec.usize_param("reps"), 12);
        assert_eq!(spec.text_param("tag"), "anything at all");
        assert!(spec.flag_param("verbose"));
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
