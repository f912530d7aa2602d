//! Versioned trainer checkpoints: the policy is a persistent artifact.
//!
//! A checkpoint is a single self-describing text document that captures
//! everything training touches:
//!
//! * the **policy architecture** ([`decima_policy::PolicyConfig`]), so a
//!   loader rebuilds the exact parameter layout without outside help;
//! * the **trainer hyperparameters** ([`TrainConfig`]);
//! * the **parameter values** (`ParamStore::to_text`, itself versioned);
//! * the **Adam moments and step count** (`Adam::to_text`);
//! * the **trainer state**: the full [`IterStats`] history, one line
//!   per completed iteration in order (`state.iter` repeats its count),
//!   the curriculum's current `τ_mean`, the raw RNG state, and the
//!   differential-reward moving average;
//! * optionally a **workload echo** ([`WorkloadEcho`], `echo.*` lines):
//!   the jobs/executors/IAT shape — and the cluster-dynamics model — a
//!   standalone training run rolled out on, so resuming with different
//!   workload or dynamics flags is a hard error.
//!
//! Restoring a checkpoint therefore resumes training **bit-exactly**: an
//! interrupted-and-resumed run produces the same `IterStats` history and
//! the same parameters as an uninterrupted one (proved in
//! `crates/rl/tests/`). Floats are written with Rust's shortest
//! round-trip formatting, so no precision is lost in transit.
//!
//! Layout (line-oriented; `[params]` and `[adam]` open the two nested
//! documents):
//!
//! ```text
//! decima-checkpoint v1
//! policy.total_executors 10
//! …
//! cfg.lr 0.001
//! …
//! state.iter 40
//! state.rng 123 456 789 12
//! history 0 -0.5 320.1 4 57 1.6 48.2 none 0.5
//! [params]
//! decima-params v1
//! …
//! [adam]
//! hyper 0.001 0.9 0.999 1e-8 10 40
//! …
//! ```

use crate::baseline::MovingAvg;
use crate::trainer::{Curriculum, IterStats, TrainConfig, Trainer};
use decima_gnn::{GnnConfig, DUR_SCALE, FEAT_DIM, TASK_SCALE, WORK_SCALE};
use decima_nn::ParamStore;
use decima_policy::{DecimaPolicy, ParallelismMode, PolicyConfig};
use decima_sim::DynamicsSpec;
use decima_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The shape of the environment a training run rolled out on, echoed
/// into the checkpoint (`echo.*` lines) so resuming (the `train`
/// scenario's `resume=true`) with different `jobs=`/`execs=`/`iat=` —
/// or different cluster-dynamics — keys is a hard error instead of
/// silently continuing the optimization on a different distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadEcho {
    /// Jobs per training episode.
    pub jobs: usize,
    /// Cluster executor count.
    pub execs: usize,
    /// Poisson mean interarrival time; `None` for batched arrivals (or
    /// sources without a single IAT).
    pub iat: Option<f64>,
    /// The cluster-dynamics model training ran under (off unless the
    /// run set `churn=`/`fail=`/`straggle=`).
    pub dynamics: DynamicsSpec,
}

impl WorkloadEcho {
    /// The echo of a declarative workload description (dynamics off;
    /// see [`WorkloadEcho::with_dynamics`]).
    pub fn of(w: &WorkloadSpec) -> Self {
        WorkloadEcho {
            jobs: w.num_jobs(),
            execs: w.executors,
            iat: w.mean_iat(),
            dynamics: DynamicsSpec::off(),
        }
    }

    /// Stamps the cluster-dynamics model the run trains under.
    pub fn with_dynamics(mut self, dynamics: DynamicsSpec) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        let arrivals = match self.iat {
            Some(iat) => format!("poisson arrivals (mean IAT {iat} s)"),
            None => "batched arrivals".to_string(),
        };
        let dynamics = if self.dynamics.enabled() {
            let knobs = DynamicsSpec::KNOBS.map(|k| format!("{}={}", k.key, k.get(&self.dynamics)));
            format!(" / dynamics({})", knobs.join(", "))
        } else {
            String::new()
        };
        format!(
            "{} jobs / {} executors / {arrivals}{dynamics}",
            self.jobs, self.execs
        )
    }

    /// Errors (with both shapes spelled out) unless `requested` matches
    /// this echo exactly — workload and dynamics alike.
    pub fn ensure_matches(&self, requested: &WorkloadEcho) -> Result<(), String> {
        if self == requested {
            Ok(())
        } else {
            Err(format!(
                "checkpoint workload mismatch: the checkpoint was trained on {} but resume=true \
                 was asked to continue on {}; set matching jobs=/execs=/iat= (and \
                 churn=/fail=/straggle=) keys or start fresh at another checkpoint= path",
                self.describe(),
                requested.describe()
            ))
        }
    }
}

/// Magic prefix of the checkpoint header line.
pub const CHECKPOINT_HEADER: &str = "decima-checkpoint";

/// Version written by [`Trainer::to_checkpoint`] (and the only one
/// [`Trainer::from_checkpoint`] accepts). Bump on any layout change.
pub const CHECKPOINT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// One field list per struct, shared by the writer and the reader
// ---------------------------------------------------------------------------

/// Ceiling on a layer width, feature or embedding dimension, class or
/// rollout count read from a checkpoint (the paper's widest layer is
/// 32): a header may not ask the loader for terabytes.
pub const MAX_WIDTH: usize = 1024;
/// Ceiling on the layers of one MLP read from a checkpoint.
pub const MAX_LAYERS: usize = 8;
/// Ceiling on the executor count and cache capacity read from a
/// checkpoint.
pub const MAX_COUNT: usize = 1_000_000;

/// How one header value is reached inside its struct `T`, and what a
/// reader holds it to. The accessor borrows mutably so that one serves
/// both directions; the writer runs it on a copy.
enum Slot<T> {
    /// A count within the inclusive bounds.
    Count(fn(&mut T) -> &mut usize, usize, usize),
    Seed(fn(&mut T) -> &mut u64),
    /// A finite real.
    Real(fn(&mut T) -> &mut f64),
    /// A measured statistic: any real, `NaN` and `inf` included.
    Stat(fn(&mut T) -> &mut f64),
    /// `0` or `1`.
    Flag(fn(&mut T) -> &mut bool),
    /// A finite real or `none`.
    OptReal(fn(&mut T) -> &mut Option<f64>),
    /// At most [`MAX_LAYERS`] widths of `1..=`[`MAX_WIDTH`].
    Widths(fn(&mut T) -> &mut Vec<usize>),
    Mode(fn(&mut T) -> &mut ParallelismMode),
    /// `none`, or `tau_init tau_step tau_max`.
    Horizon(fn(&mut T) -> &mut Option<Curriculum>),
    /// The knobs in [`DynamicsSpec::KNOBS`] order, each in its range.
    Dynamics(fn(&mut T) -> &mut DynamicsSpec),
    /// A constant of this build, written for the readers of the file:
    /// any other value is an error.
    Fixed(f64),
}

/// A struct's header lines: key and slot, in the order they are written.
type Fields<T> = &'static [(&'static str, Slot<T>)];

use Slot::{Count, Dynamics, Fixed, Flag, Horizon, Mode, OptReal, Real, Seed, Stat, Widths};

/// `policy.gnn 1` precedes these; `policy.gnn 0` replaces them.
const GNN_SWITCH: &str = "policy.gnn";
const GNN: Fields<GnnConfig> = &[
    // The features are always this wide; no lane runs another width.
    ("policy.gnn.feat_dim", Fixed(FEAT_DIM as f64)),
    (
        "policy.gnn.embed_dim",
        Count(|g| &mut g.embed_dim, 1, MAX_WIDTH),
    ),
    ("policy.gnn.hidden", Widths(|g| &mut g.hidden)),
    ("policy.gnn.two_level", Flag(|g| &mut g.two_level)),
];
const POLICY: Fields<PolicyConfig> = &[
    (
        "policy.feat.include_duration",
        Flag(|p| &mut p.feat.include_duration),
    ),
    ("policy.feat.iat_hint", OptReal(|p| &mut p.feat.iat_hint)),
    ("policy.feat.task_scale", Fixed(TASK_SCALE)),
    ("policy.feat.dur_scale", Fixed(DUR_SCALE)),
    ("policy.feat.work_scale", Fixed(WORK_SCALE)),
    ("policy.parallelism", Mode(|p| &mut p.parallelism)),
    // Every limit from the smallest valid one to the cluster size.
    ("policy.limit_stride", Fixed(1.0)),
    (
        "policy.total_executors",
        Count(|p| &mut p.total_executors, 1, MAX_COUNT),
    ),
    (
        "policy.num_classes",
        Count(|p| &mut p.num_classes, 1, MAX_WIDTH),
    ),
    ("policy.hidden", Widths(|p| &mut p.hidden)),
];
/// Lines newer than the first v1 checkpoints: a reader that finds none
/// keeps the default (a capacity of 16 only sets how often graph
/// structures are rebuilt, never what a policy computes; dynamics off).
const POLICY_ADDED: Fields<PolicyConfig> = &[(
    "policy.graph_cache_cap",
    Count(|p| &mut p.graph_cache_cap, 1, MAX_COUNT),
)];
const CFG: Fields<TrainConfig> = &[
    (
        "cfg.num_rollouts",
        Count(|c| &mut c.num_rollouts, 1, MAX_WIDTH),
    ),
    ("cfg.lr", Real(|c| &mut c.lr)),
    ("cfg.entropy_start", Real(|c| &mut c.entropy_start)),
    ("cfg.entropy_end", Real(|c| &mut c.entropy_end)),
    (
        "cfg.entropy_decay_iters",
        Count(|c| &mut c.entropy_decay_iters, 0, usize::MAX),
    ),
    ("cfg.curriculum", Horizon(|c| &mut c.curriculum)),
    (
        "cfg.input_dependent_baseline",
        Flag(|c| &mut c.input_dependent_baseline),
    ),
    (
        "cfg.differential_reward",
        Flag(|c| &mut c.differential_reward),
    ),
    ("cfg.reward_scale", Real(|c| &mut c.reward_scale)),
    (
        "cfg.normalize_advantages",
        Flag(|c| &mut c.normalize_advantages),
    ),
    ("cfg.seed", Seed(|c| &mut c.seed)),
];
const ECHO: Fields<WorkloadEcho> = &[
    ("echo.jobs", Count(|e| &mut e.jobs, 0, usize::MAX)),
    ("echo.execs", Count(|e| &mut e.execs, 0, usize::MAX)),
    ("echo.iat", OptReal(|e| &mut e.iat)),
];
const ECHO_ADDED: Fields<WorkloadEcho> = &[("echo.dynamics", Dynamics(|e| &mut e.dynamics))];
/// One `history` line: the values in this order, names implied.
const STATS: Fields<IterStats> = &[
    ("iter", Count(|s| &mut s.iter, 0, usize::MAX)),
    ("mean_reward", Stat(|s| &mut s.mean_reward)),
    ("mean_avg_jct", Stat(|s| &mut s.mean_avg_jct)),
    ("mean_completed", Stat(|s| &mut s.mean_completed)),
    ("mean_actions", Stat(|s| &mut s.mean_actions)),
    ("mean_entropy", Stat(|s| &mut s.mean_entropy)),
    ("grad_norm", Stat(|s| &mut s.grad_norm)),
    ("tau", OptReal(|s| &mut s.tau)),
    ("beta", Stat(|s| &mut s.beta)),
];
fn join<X: ToString>(items: &[X]) -> String {
    let items: Vec<String> = items.iter().map(X::to_string).collect();
    items.join(" ")
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or("none".to_string(), |x| x.to_string())
}

fn show<T>(slot: &Slot<T>, t: &mut T) -> String {
    match slot {
        Count(at, ..) => at(t).to_string(),
        Seed(at) => at(t).to_string(),
        Real(at) | Stat(at) => at(t).to_string(),
        Flag(at) => (*at(t) as u8).to_string(),
        OptReal(at) => opt_f64(*at(t)),
        Widths(at) => join(at(t)),
        Mode(at) => at(t).key().to_string(),
        Horizon(at) => at(t).map_or("none".to_string(), |c| {
            join(&[c.tau_init, c.tau_step, c.tau_max])
        }),
        Dynamics(at) => join(&DynamicsSpec::KNOBS.map(|k| k.get(at(t)))),
        Fixed(v) => v.to_string(),
    }
}

fn number<X: std::str::FromStr>(text: &str) -> Result<X, String> {
    text.parse().map_err(|_| format!("is malformed ('{text}')"))
}

fn finite(text: &str) -> Result<f64, String> {
    number(text).and_then(|x: f64| match x.is_finite() {
        true => Ok(x),
        false => Err(format!("must be finite, got {x}")),
    })
}

fn count(text: &str, lo: usize, hi: usize) -> Result<usize, String> {
    number(text).and_then(|n: usize| match (lo..=hi).contains(&n) {
        true => Ok(n),
        false => Err(format!("must be in [{lo}, {hi}], got {n}")),
    })
}

/// Reads `text` into the slot, or says why it is outside what the slot
/// accepts.
fn read<T>(slot: &Slot<T>, t: &mut T, text: &str) -> Result<(), String> {
    let reals = || {
        text.split_whitespace()
            .map(finite)
            .collect::<Result<Vec<f64>, _>>()
    };
    match slot {
        Count(at, lo, hi) => *at(t) = count(text, *lo, *hi)?,
        Seed(at) => *at(t) = number(text)?,
        Real(at) => *at(t) = finite(text)?,
        Stat(at) => *at(t) = number(text)?,
        Flag(at) => {
            *at(t) = match text {
                "1" | "true" => true,
                "0" | "false" => false,
                _ => return Err(format!("has non-bool value '{text}'")),
            }
        }
        OptReal(at) => *at(t) = (text != "none").then(|| finite(text)).transpose()?,
        Widths(at) => {
            let widths = text.split_whitespace().map(|w| count(w, 1, MAX_WIDTH));
            *at(t) = widths.collect::<Result<_, _>>()?;
            if at(t).len() > MAX_LAYERS {
                return Err(format!("lists more than {MAX_LAYERS} layers"));
            }
        }
        Mode(at) => *at(t) = ParallelismMode::from_key(text)?,
        Horizon(at) => {
            *at(t) = match (text, reals().as_deref()) {
                ("none", _) => None,
                // The horizon is drawn from Exp(1 / mean) and the mean
                // grows by the step: it has to stay positive.
                (_, Ok(&[tau_init, tau_step, tau_max]))
                    if tau_init > 0.0 && tau_step >= 0.0 && tau_max > 0.0 =>
                {
                    Some(Curriculum {
                        tau_init,
                        tau_step,
                        tau_max,
                    })
                }
                _ => return Err(format!("is malformed ('{text}')")),
            }
        }
        Dynamics(at) => {
            let (knobs, values) = (&DynamicsSpec::KNOBS, reals()?);
            if values.len() != knobs.len() {
                return Err(format!("needs {} values", knobs.len()));
            }
            let mut set = knobs.iter().zip(values);
            set.try_for_each(|(k, v)| k.set(at(t), v))?;
        }
        Fixed(v) => {
            if number::<f64>(text)? != *v {
                return Err(format!("must be {v}, got {text}"));
            }
        }
    }
    Ok(())
}

/// Writes `t`'s lines (on a copy: see [`Slot`]).
fn write_fields<T: Clone>(out: &mut String, fields: Fields<T>, t: &T) {
    let mut t = t.clone();
    for (key, slot) in fields {
        let _ = writeln!(out, "{key} {}", show(slot, &mut t));
    }
}

/// The head section as a key → value map plus the ordered history
/// lines. Ordered (`BTreeMap`) so anything that ever iterates the head
/// — today only lookups, tomorrow perhaps a diff or dump tool — is
/// deterministic by construction. Keys no field list names are never
/// looked up, which is how lines of retired fields keep loading.
struct Head {
    map: BTreeMap<String, String>,
    history: Vec<String>,
}

impl Head {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("checkpoint is missing '{key}'"))
    }

    /// Reads `t`'s lines into it, every value held to its slot's range;
    /// a missing line is an error unless the list is an `_ADDED` one.
    fn read_fields<T>(&self, fields: Fields<T>, t: &mut T, required: bool) -> Result<(), String> {
        for (key, slot) in fields {
            if required || self.map.contains_key(*key) {
                let value = self.get(key)?;
                read(slot, t, value).map_err(|e| format!("checkpoint field '{key}' {e}"))?;
            }
        }
        Ok(())
    }
}

/// One iteration's statistics as `(name, value)` pairs in `history`
/// order: the record of the JSONL training log (`tau` is `None` without
/// a curriculum).
pub fn iter_stats_record(s: &IterStats) -> Vec<(&'static str, Option<f64>)> {
    let mut s = *s;
    let mut value = |slot: &Slot<IterStats>| match slot {
        Count(at, ..) => Some(*at(&mut s) as f64),
        Real(at) | Stat(at) => Some(*at(&mut s)),
        OptReal(at) => *at(&mut s),
        // A statistic is a number.
        _ => None,
    };
    STATS
        .iter()
        .map(|(name, slot)| (*name, value(slot)))
        .collect()
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

fn split_sections(text: &str) -> Result<(Head, &str, &str), String> {
    let params_at = text
        .find("\n[params]\n")
        .ok_or("checkpoint has no [params] section")?;
    let adam_at = text
        .find("\n[adam]\n")
        .ok_or("checkpoint has no [adam] section")?;
    if adam_at < params_at {
        return Err("checkpoint sections are out of order".to_string());
    }
    let head_text = &text[..params_at];
    let params = &text[params_at + "\n[params]\n".len()..adam_at];
    let adam = &text[adam_at + "\n[adam]\n".len()..];

    let mut lines = head_text.lines();
    let header = lines.next().ok_or("empty checkpoint")?;
    let ver = header
        .strip_prefix(CHECKPOINT_HEADER)
        .map(str::trim)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| format!("not a checkpoint (bad header '{header}')"))?;
    if ver != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint version v{ver} (this build reads v{CHECKPOINT_VERSION})"
        ));
    }
    let mut map = BTreeMap::new();
    let mut history = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed checkpoint line '{line}'"))?;
        if key == "history" {
            history.push(value.to_string());
        } else {
            map.insert(key.to_string(), value.to_string());
        }
    }
    Ok((Head { map, history }, params, adam))
}

fn parse_history_line(line: &str) -> Result<IterStats, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != STATS.len() {
        return Err(format!("malformed history line '{line}'"));
    }
    let mut stats = IterStats::default();
    for ((name, slot), text) in STATS.iter().zip(tokens) {
        read(slot, &mut stats, text).map_err(|e| format!("history value '{name}' {e}"))?;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Trainer ⇄ checkpoint
// ---------------------------------------------------------------------------

impl Trainer {
    /// Serializes the complete training state as a versioned text
    /// document. See the module docs for the layout.
    pub fn to_checkpoint(&self) -> String {
        let mut out = format!("{CHECKPOINT_HEADER} v{CHECKPOINT_VERSION}\n");
        let p = &self.policy.cfg;
        let _ = writeln!(out, "{GNN_SWITCH} {}", p.gnn.is_some() as u8);
        if let Some(g) = &p.gnn {
            write_fields(&mut out, GNN, g);
        }
        write_fields(&mut out, POLICY, p);
        write_fields(&mut out, POLICY_ADDED, p);
        write_fields(&mut out, CFG, &self.cfg);
        // Workload echo (the `train` scenario's runs): lets a resume
        // refuse a mismatched workload. Optional for compatibility with
        // checkpoints written before the echo existed.
        if let Some(echo) = &self.workload_echo {
            write_fields(&mut out, ECHO, echo);
            write_fields(&mut out, ECHO_ADDED, echo);
        }

        let _ = writeln!(out, "state.iter {}", self.iter());
        let _ = writeln!(out, "state.tau_mean {}", self.tau_mean);
        let _ = writeln!(out, "state.rng {}", join(&self.rng.state()));
        let (window, next, values) = self.rate_avg.state();
        let _ = write!(out, "state.rate_avg {window} {next}");
        for v in values {
            let _ = write!(out, " {v}");
        }
        out.push('\n');

        for h in &self.history {
            let mut h = *h;
            let values: Vec<String> = STATS.iter().map(|(_, s)| show(s, &mut h)).collect();
            let _ = writeln!(out, "history {}", values.join(" "));
        }

        out.push_str("\n[params]\n");
        out.push_str(&self.store.to_text());
        out.push_str("\n[adam]\n");
        out.push_str(&self.opt.to_text());
        out
    }

    /// Reconstructs a trainer from [`Trainer::to_checkpoint`] output.
    /// The restored trainer continues training bit-exactly where the
    /// saved one stopped. Every header value is held to its range
    /// before anything is sized from it, so a damaged or hostile file
    /// is an `Err`.
    pub fn from_checkpoint(text: &str) -> Result<Trainer, String> {
        let (head, params, adam) = split_sections(text)?;

        let mut policy_cfg = PolicyConfig::small(1);
        let mut has_gnn = false;
        read(&Flag(|b| b), &mut has_gnn, head.get(GNN_SWITCH)?)
            .map_err(|e| format!("checkpoint field '{GNN_SWITCH}' {e}"))?;
        policy_cfg.gnn = match has_gnn {
            true => {
                let mut gnn = GnnConfig::small(FEAT_DIM);
                head.read_fields(GNN, &mut gnn, true)?;
                Some(gnn)
            }
            false => None,
        };
        head.read_fields(POLICY, &mut policy_cfg, true)?;
        head.read_fields(POLICY_ADDED, &mut policy_cfg, false)?;
        if policy_cfg.parallelism == ParallelismMode::OneHot
            && policy_cfg.total_executors > MAX_WIDTH
        {
            // That head has one output unit per limit value.
            return Err(format!("one-hot limit head wider than {MAX_WIDTH}"));
        }
        let mut cfg = TrainConfig::default();
        head.read_fields(CFG, &mut cfg, true)?;

        // Rebuild the parameter layout from the architecture (parameter
        // names and shapes are a deterministic function of the config),
        // then overwrite every value from the checkpoint.
        let mut store = ParamStore::new();
        let mut init_rng = SmallRng::seed_from_u64(cfg.seed);
        let policy = DecimaPolicy::new(policy_cfg, &mut store, &mut init_rng);
        let mut trainer = Trainer::new(policy, store, cfg);
        trainer
            .store
            .load_text(params)
            .map_err(|e| format!("checkpoint [params]: {e}"))?;
        trainer
            .opt
            .load_text(adam)
            .map_err(|e| format!("checkpoint [adam]: {e}"))?;

        if head.map.contains_key(ECHO[0].0) {
            let mut echo = WorkloadEcho::of(&WorkloadSpec::tpch_batch(0, 0));
            head.read_fields(ECHO, &mut echo, true)?;
            head.read_fields(ECHO_ADDED, &mut echo, false)?;
            trainer.workload_echo = Some(echo);
        }
        trainer.tau_mean = head.get("state.tau_mean").and_then(number)?;
        if trainer.tau_mean.is_nan() || trainer.tau_mean <= 0.0 {
            return Err("checkpoint field 'state.tau_mean' must be positive".to_string());
        }
        let rng_words: Vec<u64> = head
            .get("state.rng")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| "malformed 'state.rng'".to_string()))
            .collect::<Result<_, _>>()?;
        let rng_words: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| "'state.rng' needs four words".to_string())?;
        trainer.rng = SmallRng::from_state(rng_words);
        let mut rate = head.get("state.rate_avg")?.split_whitespace();
        let bad_rate = |e| format!("checkpoint field 'state.rate_avg' {e}");
        let window = count(rate.next().unwrap_or(""), 1, MAX_COUNT).map_err(bad_rate)?;
        // The next sample overwrites this slot once the window is full.
        let next = count(rate.next().unwrap_or(""), 0, window - 1).map_err(bad_rate)?;
        let values: Vec<f64> = rate
            .map(number)
            .collect::<Result<_, _>>()
            .map_err(bad_rate)?;
        if values.len() > window {
            return Err(bad_rate("holds more samples than its window".to_string()));
        }
        trainer.rate_avg = MovingAvg::from_state(window, next, values);
        // The history is the record of the run, one line per iteration
        // in order; `state.iter` repeats its length for the readers of
        // the file.
        trainer.history = head
            .history
            .iter()
            .enumerate()
            .map(|(at, l)| match parse_history_line(l)? {
                s if s.iter == at => Ok(s),
                s => Err(format!(
                    "checkpoint history line {at} is for iteration {}",
                    s.iter
                )),
            })
            .collect::<Result<_, _>>()?;
        let iter: usize = head.get("state.iter").and_then(number)?;
        if iter != trainer.iter() {
            return Err(format!(
                "checkpoint field 'state.iter' is {iter} but the history holds {} iterations",
                trainer.iter()
            ));
        }
        Ok(trainer)
    }

    /// Writes the checkpoint to `path` atomically (via a sibling
    /// temporary file), so an interrupted save never corrupts an
    /// existing checkpoint.
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_checkpoint())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot move checkpoint into {}: {e}", path.display()))?;
        Ok(())
    }

    /// Loads a checkpoint file written by [`Trainer::save_checkpoint`].
    pub fn load_checkpoint(path: &std::path::Path) -> Result<Trainer, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Trainer::from_checkpoint(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SpecEnv;
    use decima_workload::WorkloadSpec;

    fn trained(iters: usize, cfg: TrainConfig) -> Trainer {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
        let mut t = Trainer::new(policy, store, cfg);
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(2, 5));
        for _ in 0..iters {
            t.train_iteration(&env);
        }
        t
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            num_rollouts: 2,
            seed: 11,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn checkpoint_round_trips_all_state() {
        let t = trained(2, tiny_cfg());
        let text = t.to_checkpoint();
        let r = Trainer::from_checkpoint(&text).unwrap();
        assert_eq!(r.iter(), t.iter());
        assert_eq!(r.cfg, t.cfg);
        assert_eq!(r.history, t.history);
        assert_eq!(r.rng.state(), t.rng.state());
        assert_eq!(r.opt.steps(), t.opt.steps());
        assert_eq!(r.tau_mean.to_bits(), t.tau_mean.to_bits());
        for i in 0..t.store.len() {
            assert_eq!(
                t.store.value(i).data(),
                r.store.value(i).data(),
                "param {i}"
            );
        }
        // Serialization is stable: a reload serializes identically.
        assert_eq!(r.to_checkpoint(), text);
    }

    #[test]
    fn curricular_differential_config_round_trips() {
        let t = trained(
            2,
            TrainConfig {
                num_rollouts: 2,
                seed: 5,
                differential_reward: true,
                curriculum: Some(Curriculum {
                    tau_init: 50.0,
                    tau_step: 10.0,
                    tau_max: 200.0,
                }),
                ..TrainConfig::default()
            },
        );
        let r = Trainer::from_checkpoint(&t.to_checkpoint()).unwrap();
        assert_eq!(r.cfg.curriculum, t.cfg.curriculum);
        assert_eq!(r.tau_mean.to_bits(), t.tau_mean.to_bits());
        assert_eq!(r.rate_avg.state().2, t.rate_avg.state().2);
    }

    #[test]
    fn load_rejects_bad_checkpoints() {
        let t = trained(1, tiny_cfg());
        let text = t.to_checkpoint();
        // Wrong version.
        let bad = text.replacen("v1", "v9", 1);
        let err = Trainer::from_checkpoint(&bad).map(|_| ()).unwrap_err();
        assert!(err.contains("v9"), "{err}");
        // Not a checkpoint at all.
        assert!(Trainer::from_checkpoint("hello\n").is_err());
        // Missing sections.
        let head_only = text.split("\n[params]\n").next().unwrap();
        assert!(Trainer::from_checkpoint(head_only).is_err());
        // A missing field.
        let no_seed = text
            .lines()
            .filter(|l| !l.starts_with("cfg.seed"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = Trainer::from_checkpoint(&no_seed).map(|_| ()).unwrap_err();
        assert!(err.contains("cfg.seed"), "{err}");
    }

    #[test]
    fn file_round_trip_is_atomic_and_loadable() {
        let t = trained(1, tiny_cfg());
        let dir = std::env::temp_dir().join("decima_ckpt_test");
        let path = dir.join("checkpoint.txt");
        t.save_checkpoint(&path).unwrap();
        let r = Trainer::load_checkpoint(&path).unwrap();
        assert_eq!(r.iter(), 1);
        assert!(!path.with_extension("tmp").exists(), "tmp file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
