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
//! * the **trainer state**: completed iterations, the curriculum's
//!   current `τ_mean`, the raw RNG state, the differential-reward moving
//!   average, and the full [`IterStats`] history;
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
use decima_gnn::{FeatureConfig, GnnConfig};
use decima_nn::ParamStore;
use decima_policy::{DecimaPolicy, ParallelismMode, PolicyConfig};
use decima_sim::DynamicsSpec;
use decima_workload::{ArrivalProcess, WorkloadSource, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The shape of the environment a training run rolled out on, echoed
/// into the checkpoint (`echo.*` lines) so a `--resume` with different
/// `--jobs`/`--execs`/`--iat` — or different cluster-dynamics — flags
/// is a hard error instead of silently continuing the optimization on
/// a different distribution.
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
    /// run passed `--churn`/`--fail`/`--straggle`).
    pub dynamics: DynamicsSpec,
}

impl WorkloadEcho {
    /// The echo of a declarative workload description (dynamics off;
    /// see [`WorkloadEcho::with_dynamics`]).
    pub fn of(w: &WorkloadSpec) -> Self {
        let iat = match &w.source {
            WorkloadSource::Tpch {
                arrivals: ArrivalProcess::Poisson { mean_iat },
                ..
            } => Some(*mean_iat),
            WorkloadSource::Alibaba { mean_iat, .. } => Some(*mean_iat),
            _ => None,
        };
        WorkloadEcho {
            jobs: w.num_jobs(),
            execs: w.executors,
            iat,
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
        let d = &self.dynamics;
        let dynamics = if d.enabled() {
            format!(
                " / dynamics(churn={}, outage={}, fail={}, retries={}, straggle={}, factor={})",
                d.churn_iat,
                d.outage_mean,
                d.fail_prob,
                d.max_retries,
                d.straggler_prob,
                d.straggler_factor
            )
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
                "checkpoint workload mismatch: the checkpoint was trained on {} but --resume \
                 was asked to continue on {}; pass matching --jobs/--execs/--iat (and \
                 --churn/--fail/--straggle) flags or start a fresh --checkpoint-dir",
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

fn mode_key(m: ParallelismMode) -> &'static str {
    match m {
        ParallelismMode::JobLevel => "job-level",
        ParallelismMode::StageLevel => "stage-level",
        ParallelismMode::OneHot => "one-hot",
        ParallelismMode::Disabled => "disabled",
    }
}

fn mode_from_key(key: &str) -> Result<ParallelismMode, String> {
    Ok(match key {
        "job-level" => ParallelismMode::JobLevel,
        "stage-level" => ParallelismMode::StageLevel,
        "one-hot" => ParallelismMode::OneHot,
        "disabled" => ParallelismMode::Disabled,
        other => return Err(format!("unknown parallelism mode '{other}'")),
    })
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or("none".to_string(), |x| x.to_string())
}

fn usizes(v: &[usize]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

/// The head section as a key → value map plus the ordered history
/// lines. Ordered (`BTreeMap`) so anything that ever iterates the head
/// — today only lookups, tomorrow perhaps a diff or dump tool — is
/// deterministic by construction.
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

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("checkpoint field '{key}' is malformed"))
    }

    fn parse_opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key)? {
            "none" => Ok(None),
            v => v
                .parse()
                .map(Some)
                .map_err(|_| format!("checkpoint field '{key}' is malformed")),
        }
    }

    fn parse_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            "1" | "true" => Ok(true),
            "0" | "false" => Ok(false),
            v => Err(format!("checkpoint field '{key}' has non-bool value '{v}'")),
        }
    }

    fn parse_usizes(&self, key: &str) -> Result<Vec<usize>, String> {
        self.get(key)?
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| format!("checkpoint field '{key}' is malformed"))
            })
            .collect()
    }
}

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
    let t: Vec<&str> = line.split_whitespace().collect();
    if t.len() != 9 {
        return Err(format!("malformed history line '{line}'"));
    }
    let f = |s: &str| -> Result<f64, String> {
        s.parse()
            .map_err(|_| format!("malformed history value '{s}'"))
    };
    Ok(IterStats {
        iter: t[0]
            .parse()
            .map_err(|_| format!("malformed history iter '{}'", t[0]))?,
        mean_reward: f(t[1])?,
        mean_avg_jct: f(t[2])?,
        mean_completed: f(t[3])?,
        mean_actions: f(t[4])?,
        mean_entropy: f(t[5])?,
        grad_norm: f(t[6])?,
        tau: match t[7] {
            "none" => None,
            v => Some(f(v)?),
        },
        beta: f(t[8])?,
    })
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
        match &p.gnn {
            Some(g) => {
                out.push_str("policy.gnn 1\n");
                let _ = writeln!(out, "policy.gnn.feat_dim {}", g.feat_dim);
                let _ = writeln!(out, "policy.gnn.embed_dim {}", g.embed_dim);
                let _ = writeln!(out, "policy.gnn.hidden {}", usizes(&g.hidden));
                let _ = writeln!(out, "policy.gnn.two_level {}", g.two_level as u8);
            }
            None => out.push_str("policy.gnn 0\n"),
        }
        let _ = writeln!(
            out,
            "policy.feat.include_duration {}",
            p.feat.include_duration as u8
        );
        let _ = writeln!(out, "policy.feat.iat_hint {}", opt_f64(p.feat.iat_hint));
        let _ = writeln!(out, "policy.feat.task_scale {}", p.feat.task_scale);
        let _ = writeln!(out, "policy.feat.dur_scale {}", p.feat.dur_scale);
        let _ = writeln!(out, "policy.feat.work_scale {}", p.feat.work_scale);
        let _ = writeln!(out, "policy.parallelism {}", mode_key(p.parallelism));
        let _ = writeln!(out, "policy.limit_stride {}", p.limit_stride);
        let _ = writeln!(out, "policy.total_executors {}", p.total_executors);
        let _ = writeln!(out, "policy.num_classes {}", p.num_classes);
        let _ = writeln!(out, "policy.hidden {}", usizes(&p.hidden));
        let _ = writeln!(out, "policy.graph_cache_cap {}", p.graph_cache_cap);

        let c = &self.cfg;
        let _ = writeln!(out, "cfg.num_rollouts {}", c.num_rollouts);
        let _ = writeln!(out, "cfg.lr {}", c.lr);
        let _ = writeln!(out, "cfg.entropy_start {}", c.entropy_start);
        let _ = writeln!(out, "cfg.entropy_end {}", c.entropy_end);
        let _ = writeln!(out, "cfg.entropy_decay_iters {}", c.entropy_decay_iters);
        match &c.curriculum {
            Some(cu) => {
                let _ = writeln!(
                    out,
                    "cfg.curriculum {} {} {}",
                    cu.tau_init, cu.tau_step, cu.tau_max
                );
            }
            None => out.push_str("cfg.curriculum none\n"),
        }
        let _ = writeln!(
            out,
            "cfg.input_dependent_baseline {}",
            c.input_dependent_baseline as u8
        );
        let _ = writeln!(
            out,
            "cfg.differential_reward {}",
            c.differential_reward as u8
        );
        let _ = writeln!(out, "cfg.reward_scale {}", c.reward_scale);
        let _ = writeln!(
            out,
            "cfg.normalize_advantages {}",
            c.normalize_advantages as u8
        );
        let _ = writeln!(out, "cfg.seed {}", c.seed);

        // Workload echo (standalone training runs): lets --resume refuse
        // mismatched workload flags. Optional for compatibility with
        // checkpoints written before the echo existed.
        if let Some(echo) = &self.workload_echo {
            let _ = writeln!(out, "echo.jobs {}", echo.jobs);
            let _ = writeln!(out, "echo.execs {}", echo.execs);
            let _ = writeln!(out, "echo.iat {}", opt_f64(echo.iat));
            let d = &echo.dynamics;
            let _ = writeln!(
                out,
                "echo.dynamics {} {} {} {} {} {}",
                d.churn_iat,
                d.outage_mean,
                d.fail_prob,
                d.max_retries,
                d.straggler_prob,
                d.straggler_factor
            );
        }

        let _ = writeln!(out, "state.iter {}", self.iter);
        let _ = writeln!(out, "state.tau_mean {}", self.tau_mean);
        let s = self.rng.state();
        let _ = writeln!(out, "state.rng {} {} {} {}", s[0], s[1], s[2], s[3]);
        let (window, next, values) = self.rate_avg.state();
        let _ = write!(out, "state.rate_avg {window} {next}");
        for v in values {
            let _ = write!(out, " {v}");
        }
        out.push('\n');

        for h in &self.history {
            let _ = writeln!(
                out,
                "history {} {} {} {} {} {} {} {} {}",
                h.iter,
                h.mean_reward,
                h.mean_avg_jct,
                h.mean_completed,
                h.mean_actions,
                h.mean_entropy,
                h.grad_norm,
                opt_f64(h.tau),
                h.beta
            );
        }

        out.push_str("\n[params]\n");
        out.push_str(&self.store.to_text());
        out.push_str("\n[adam]\n");
        out.push_str(&self.opt.to_text());
        out
    }

    /// Reconstructs a trainer from [`Trainer::to_checkpoint`] output.
    /// The restored trainer continues training bit-exactly where the
    /// saved one stopped.
    pub fn from_checkpoint(text: &str) -> Result<Trainer, String> {
        let (head, params, adam) = split_sections(text)?;

        let gnn = if head.parse_bool("policy.gnn")? {
            Some(GnnConfig {
                feat_dim: head.parse("policy.gnn.feat_dim")?,
                embed_dim: head.parse("policy.gnn.embed_dim")?,
                hidden: head.parse_usizes("policy.gnn.hidden")?,
                two_level: head.parse_bool("policy.gnn.two_level")?,
            })
        } else {
            None
        };
        let policy_cfg = PolicyConfig {
            gnn,
            feat: FeatureConfig {
                include_duration: head.parse_bool("policy.feat.include_duration")?,
                iat_hint: head.parse_opt_f64("policy.feat.iat_hint")?,
                task_scale: head.parse("policy.feat.task_scale")?,
                dur_scale: head.parse("policy.feat.dur_scale")?,
                work_scale: head.parse("policy.feat.work_scale")?,
            },
            parallelism: mode_from_key(head.get("policy.parallelism")?)?,
            limit_stride: head.parse("policy.limit_stride")?,
            total_executors: head.parse("policy.total_executors")?,
            num_classes: head.parse("policy.num_classes")?,
            hidden: head.parse_usizes("policy.hidden")?,
            // Absent in checkpoints written before the cache cap became
            // configurable; the default matches PolicyConfig::small/paper.
            // Purely a rebuild-frequency knob, so the default can never
            // change what a restored policy computes.
            graph_cache_cap: match head.map.get("policy.graph_cache_cap") {
                Some(v) => v
                    .parse()
                    .map_err(|_| "checkpoint field 'policy.graph_cache_cap' is malformed")?,
                None => 16,
            },
        };
        let curriculum = match head.get("cfg.curriculum")? {
            "none" => None,
            v => {
                let t: Vec<&str> = v.split_whitespace().collect();
                if t.len() != 3 {
                    return Err(format!("malformed curriculum '{v}'"));
                }
                let f = |s: &str| -> Result<f64, String> {
                    s.parse().map_err(|_| format!("malformed curriculum '{v}'"))
                };
                Some(Curriculum {
                    tau_init: f(t[0])?,
                    tau_step: f(t[1])?,
                    tau_max: f(t[2])?,
                })
            }
        };
        let cfg = TrainConfig {
            num_rollouts: head.parse("cfg.num_rollouts")?,
            lr: head.parse("cfg.lr")?,
            entropy_start: head.parse("cfg.entropy_start")?,
            entropy_end: head.parse("cfg.entropy_end")?,
            entropy_decay_iters: head.parse("cfg.entropy_decay_iters")?,
            curriculum,
            input_dependent_baseline: head.parse_bool("cfg.input_dependent_baseline")?,
            differential_reward: head.parse_bool("cfg.differential_reward")?,
            reward_scale: head.parse("cfg.reward_scale")?,
            normalize_advantages: head.parse_bool("cfg.normalize_advantages")?,
            seed: head.parse("cfg.seed")?,
        };

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

        trainer.workload_echo = match head.map.contains_key("echo.jobs") {
            true => {
                // The dynamics line is optional (echoes written before
                // perturbed training existed default to off).
                let dynamics = match head.map.get("echo.dynamics") {
                    Some(line) => {
                        let t: Vec<&str> = line.split_whitespace().collect();
                        if t.len() != 6 {
                            return Err(format!("malformed 'echo.dynamics' line '{line}'"));
                        }
                        let f = |s: &str| -> Result<f64, String> {
                            s.parse()
                                .map_err(|_| format!("malformed 'echo.dynamics' value '{s}'"))
                        };
                        DynamicsSpec {
                            churn_iat: f(t[0])?,
                            outage_mean: f(t[1])?,
                            fail_prob: f(t[2])?,
                            max_retries: t[3]
                                .parse()
                                .map_err(|_| "malformed 'echo.dynamics' retries".to_string())?,
                            straggler_prob: f(t[4])?,
                            straggler_factor: f(t[5])?,
                        }
                    }
                    None => DynamicsSpec::off(),
                };
                Some(WorkloadEcho {
                    jobs: head.parse("echo.jobs")?,
                    execs: head.parse("echo.execs")?,
                    iat: head.parse_opt_f64("echo.iat")?,
                    dynamics,
                })
            }
            false => None,
        };
        trainer.iter = head.parse("state.iter")?;
        trainer.tau_mean = head.parse("state.tau_mean")?;
        let rng_words: Vec<u64> = head
            .get("state.rng")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| "malformed 'state.rng'".to_string()))
            .collect::<Result<_, _>>()?;
        let rng_words: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| "'state.rng' needs four words".to_string())?;
        trainer.rng = SmallRng::from_state(rng_words);
        let ra: Vec<&str> = head.get("state.rate_avg")?.split_whitespace().collect();
        if ra.len() < 2 {
            return Err("malformed 'state.rate_avg'".to_string());
        }
        let window: usize = ra[0]
            .parse()
            .map_err(|_| "malformed 'state.rate_avg' window".to_string())?;
        let next: usize = ra[1]
            .parse()
            .map_err(|_| "malformed 'state.rate_avg' slot".to_string())?;
        let values: Vec<f64> = ra[2..]
            .iter()
            .map(|t| {
                t.parse()
                    .map_err(|_| "malformed 'state.rate_avg' sample".to_string())
            })
            .collect::<Result<_, _>>()?;
        trainer.rate_avg = MovingAvg::from_state(window, next, values);
        trainer.history = head
            .history
            .iter()
            .map(|l| parse_history_line(l))
            .collect::<Result<_, _>>()?;
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
    use crate::env::TpchEnv;

    fn trained(iters: usize, cfg: TrainConfig) -> Trainer {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
        let mut t = Trainer::new(policy, store, cfg);
        let env = TpchEnv::batch(2, 5);
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
        assert_eq!(r.iter, t.iter);
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
        assert_eq!(r.iter, 1);
        assert!(!path.with_extension("tmp").exists(), "tmp file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
