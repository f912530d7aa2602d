//! The `--set` key table: every key that means the same thing wherever
//! it applies, what its value has to look like and what it changes —
//! behind [`ScenarioSpec::set`], `--help` and the docs.

use super::spec::{
    per_entry_checkpoint, LineupEntry, ParamValue, ScenarioSpec, SchedulerSpec, TrainSpec,
};
use crate::factory::{make_router, scheduler_spec_by_name};
use decima_rl::checkpoint::MAX_COUNT;
use decima_sim::DynamicsSpec;
use decima_workload::{DriftSpec, WorkloadSpec};

impl ParamValue {
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

impl ScenarioSpec {
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
}

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
