//! The spec types: what one experiment is, as plain data.

use decima_policy::ParallelismMode;
use decima_rl::{Curriculum, TrainConfig};
use decima_sim::{DynamicsSpec, Objective, SimConfig};
use decima_workload::{DriftSpec, WorkloadSpec};
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
pub(super) fn per_entry_checkpoint(path: &str, entry: &str) -> String {
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
}
