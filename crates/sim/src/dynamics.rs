//! Cluster dynamics: executor churn, bounded-retry task failures, and
//! straggler slowdowns.
//!
//! The paper's evaluation (§7) assumes a fixed, fault-free executor
//! pool; real clusters lose machines, retry failed tasks, and suffer
//! stragglers. This module adds a **deterministic, seeded perturbation
//! model** on top of the engine:
//!
//! * **Executor churn** — executors go offline at exponentially
//!   distributed cluster-wide intervals ([`DynamicsSpec::churn_iat`]) and
//!   return after an exponential outage ([`DynamicsSpec::outage_mean`]).
//!   A running task on a churned executor is killed and re-queued; a
//!   moving executor's transfer is cancelled. At least one executor is
//!   always kept online so work-conserving episodes stay live.
//! * **Task failures with bounded retries** — a finishing task fails
//!   with probability [`DynamicsSpec::fail_prob`] and re-enters its
//!   stage's waiting count. Each job tolerates
//!   [`DynamicsSpec::max_retries`] failures; one more kills the job
//!   (its tasks are cancelled, executors released, and the job reported
//!   as failed instead of completed).
//! * **Stragglers** — each started task straggles with probability
//!   [`DynamicsSpec::straggler_prob`], inflating its duration by
//!   [`DynamicsSpec::straggler_factor`].
//!
//! **Determinism contract.** All perturbation randomness is drawn from a
//! dedicated RNG seeded `SimConfig::seed ^ DYNAMICS_SEED_SALT`, so the
//! engine's own noise stream is untouched: enabling dynamics
//! never perturbs the base simulation's random draws, and a disabled
//! [`DynamicsSpec`] (the default) is bit-exactly the pre-dynamics
//! engine. At a fixed seed and spec, every counter and event ordering is
//! reproducible, independent of evaluation thread count (episodes are
//! single-threaded; parallelism is across seeds only).

use decima_core::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the simulator seed to derive the perturbation RNG, so
/// the dynamics stream is decorrelated from the engine's noise stream.
pub const DYNAMICS_SEED_SALT: u64 = 0xd1ca_0bad_5eed_ca57;

/// The serializable perturbation model of one episode. The default (and
/// [`DynamicsSpec::off`]) disables everything — the engine then behaves
/// bit-identically to a build without the dynamics subsystem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicsSpec {
    /// Mean seconds between executor-offline events, cluster-wide
    /// (exponential inter-arrival); `0` disables churn.
    pub churn_iat: f64,
    /// Mean outage duration in seconds (exponential).
    pub outage_mean: f64,
    /// Probability that a finishing task fails and is re-queued; `0`
    /// disables failure injection.
    pub fail_prob: f64,
    /// Per-job failure budget: the job is killed on failure number
    /// `max_retries + 1`.
    pub max_retries: u32,
    /// Probability that a started task is a straggler; `0` disables
    /// straggler injection.
    pub straggler_prob: f64,
    /// Multiplicative duration inflation applied to stragglers.
    pub straggler_factor: f64,
}

impl Default for DynamicsSpec {
    fn default() -> Self {
        DynamicsSpec::off()
    }
}

impl DynamicsSpec {
    /// Everything disabled (the default): secondary knobs keep sane
    /// values so `--set fail=0.05` alone yields a usable model.
    pub fn off() -> Self {
        DynamicsSpec {
            churn_iat: 0.0,
            outage_mean: 60.0,
            fail_prob: 0.0,
            max_retries: 20,
            straggler_prob: 0.0,
            straggler_factor: 3.0,
        }
    }

    /// Mild perturbation: rare churn, 2% failures, 2% stragglers.
    pub fn low() -> Self {
        DynamicsSpec {
            churn_iat: 600.0,
            outage_mean: 30.0,
            fail_prob: 0.02,
            max_retries: 50,
            straggler_prob: 0.02,
            straggler_factor: 2.0,
        }
    }

    /// Moderate perturbation: regular churn, 5% failures, 5% stragglers.
    pub fn med() -> Self {
        DynamicsSpec {
            churn_iat: 240.0,
            outage_mean: 60.0,
            fail_prob: 0.05,
            max_retries: 20,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
        }
    }

    /// Harsh perturbation: frequent churn, 10% failures, tight retry
    /// budget, 10% stragglers.
    pub fn high() -> Self {
        DynamicsSpec {
            churn_iat: 120.0,
            outage_mean: 90.0,
            fail_prob: 0.10,
            max_retries: 8,
            straggler_prob: 0.10,
            straggler_factor: 4.0,
        }
    }

    /// Resolves a named perturbation level (`off`/`none`, `low`,
    /// `med`/`medium`, `high`).
    pub fn level(name: &str) -> Option<DynamicsSpec> {
        Some(match name {
            "off" | "none" => DynamicsSpec::off(),
            "low" => DynamicsSpec::low(),
            "med" | "medium" => DynamicsSpec::med(),
            "high" => DynamicsSpec::high(),
            _ => return None,
        })
    }

    /// True when any perturbation is active. The engine only constructs
    /// runtime dynamics state (and only draws from the dynamics RNG)
    /// when this holds.
    pub fn enabled(&self) -> bool {
        self.churn_iat > 0.0 || self.fail_prob > 0.0 || self.straggler_prob > 0.0
    }

    /// Checks that every knob is finite and inside its accepted range;
    /// the error names the `--set` key of the first that is
    /// not. Command-line input goes through this before any episode runs.
    pub fn validate(&self) -> Result<(), String> {
        Self::KNOBS.iter().try_for_each(|k| k.check(k.get(self)))
    }

    /// The six knobs, in the order of the checkpoint echo line and the
    /// JSON echo.
    pub const KNOBS: [Knob; 6] = [
        Knob {
            key: "churn",
            field: "churn_iat",
            range: ">= 0",
            doc: "mean seconds between executor-offline events, cluster-wide; 0 = no churn",
            accepts: |v| v >= 0.0,
            read: |d| d.churn_iat,
            write: |d, v| d.churn_iat = v,
        },
        Knob {
            key: "outage",
            field: "outage_mean",
            range: ">= 0",
            doc: "mean outage duration in seconds",
            accepts: |v| v >= 0.0,
            read: |d| d.outage_mean,
            write: |d, v| d.outage_mean = v,
        },
        Knob {
            key: "fail",
            field: "fail_prob",
            range: "in [0, 1]",
            doc: "probability that a finishing task fails and is re-queued",
            accepts: |v| (0.0..=1.0).contains(&v),
            read: |d| d.fail_prob,
            write: |d, v| d.fail_prob = v,
        },
        Knob {
            key: "retries",
            field: "max_retries",
            range: "a non-negative integer",
            doc: "per-job failure budget; one more failure kills the job",
            accepts: |v| v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64,
            read: |d| d.max_retries as f64,
            write: |d, v| d.max_retries = v as u32,
        },
        Knob {
            key: "straggle",
            field: "straggler_prob",
            range: "in [0, 1]",
            doc: "probability that a started task straggles",
            accepts: |v| (0.0..=1.0).contains(&v),
            read: |d| d.straggler_prob,
            write: |d, v| d.straggler_prob = v,
        },
        Knob {
            key: "straggle-factor",
            field: "straggler_factor",
            range: ">= 1",
            doc: "duration multiplier applied to stragglers",
            accepts: |v| v >= 1.0,
            read: |d| d.straggler_factor,
            write: |d, v| d.straggler_factor = v,
        },
    ];
}

/// One knob of a [`DynamicsSpec`], declared once in
/// [`DynamicsSpec::KNOBS`]: validation, `--set` on every scenario,
/// `--help`, the checkpoint echo and the JSON echo all iterate that
/// table, so a knob's key, range and order exist in one place.
pub struct Knob {
    /// The `--set` key.
    pub key: &'static str,
    /// The field it sets, as the JSON echo and the docs name it.
    pub field: &'static str,
    /// The accepted range, as errors and `--help` state it.
    pub range: &'static str,
    /// One-line meaning.
    pub doc: &'static str,
    accepts: fn(f64) -> bool,
    read: fn(&DynamicsSpec) -> f64,
    write: fn(&mut DynamicsSpec, f64),
}

impl Knob {
    /// The knob's value in `d` (the retry budget as a number).
    pub fn get(&self, d: &DynamicsSpec) -> f64 {
        (self.read)(d)
    }

    /// Sets the knob in `d` to `v`, or says which range `v` is outside.
    pub fn set(&self, d: &mut DynamicsSpec, v: f64) -> Result<(), String> {
        self.check(v)?;
        (self.write)(d, v);
        Ok(())
    }

    fn check(&self, v: f64) -> Result<(), String> {
        if v.is_finite() && (self.accepts)(v) {
            Ok(())
        } else {
            let Knob { key, range, .. } = self;
            Err(format!("dynamics '{key}' must be {range}, got {v}"))
        }
    }
}

/// Perturbation counters measured during one episode (all zero when
/// dynamics is off).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DynamicsCounters {
    /// Failure-driven task re-queues (retries consumed across all jobs).
    pub retries: u64,
    /// Running tasks killed (and re-queued) by executor churn.
    pub interrupted: u64,
    /// Tasks inflated by the straggler factor.
    pub straggled: u64,
    /// Jobs killed after exhausting their retry budget.
    pub failed_jobs: u64,
    /// Executor-offline transitions actually applied.
    pub churn_events: u64,
    /// Executor-seconds spent offline during the episode.
    pub lost_exec_seconds: f64,
}

impl DynamicsCounters {
    /// The six counters by name, in the order reports list them: five
    /// whole event counts, then the lost executor-seconds.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("retries", self.retries as f64),
            ("interrupted", self.interrupted as f64),
            ("straggled", self.straggled as f64),
            ("failed_jobs", self.failed_jobs as f64),
            ("churn_events", self.churn_events as f64),
            ("lost_exec_seconds", self.lost_exec_seconds),
        ]
    }
}

impl std::ops::AddAssign for DynamicsCounters {
    fn add_assign(&mut self, other: Self) {
        self.retries += other.retries;
        self.interrupted += other.interrupted;
        self.straggled += other.straggled;
        self.failed_jobs += other.failed_jobs;
        self.churn_events += other.churn_events;
        self.lost_exec_seconds += other.lost_exec_seconds;
    }
}

/// Runtime perturbation state owned by one simulator: the spec, a
/// dedicated RNG, the episode counters, and per-executor outage
/// timestamps for lost-capacity accounting.
#[derive(Clone, Debug)]
pub struct Perturbations {
    /// The model being applied.
    pub spec: DynamicsSpec,
    /// Episode counters.
    pub counters: DynamicsCounters,
    /// When each currently-offline executor went down.
    pub offline_since: Vec<Option<SimTime>>,
    rng: SmallRng,
}

/// One exponential sample with the given mean (inverse-CDF from one
/// uniform draw), floored away from zero.
fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).max(1e-12).ln()) * mean
}

impl Perturbations {
    /// Fresh runtime state for `num_execs` executors, seeded
    /// deterministically.
    pub fn new(spec: DynamicsSpec, seed: u64, num_execs: usize) -> Self {
        Perturbations {
            spec,
            counters: DynamicsCounters::default(),
            offline_since: vec![None; num_execs],
            rng: SmallRng::seed_from_u64(seed ^ DYNAMICS_SEED_SALT),
        }
    }

    /// Time until the next churn tick (exponential, mean `churn_iat`).
    pub fn next_churn_interval(&mut self) -> f64 {
        exp_sample(&mut self.rng, self.spec.churn_iat).max(1e-3)
    }

    /// Duration of one outage (exponential, mean `outage_mean`).
    pub fn sample_outage(&mut self) -> f64 {
        exp_sample(&mut self.rng, self.spec.outage_mean.max(1e-3)).max(1e-3)
    }

    /// The executor index a churn tick targets (uniform; the engine
    /// skips the tick when the pick is already offline or is the last
    /// online executor).
    pub fn pick_victim(&mut self, num_execs: usize) -> usize {
        self.rng.gen_range(0..num_execs)
    }

    /// Samples whether a finishing task fails.
    pub fn task_fails(&mut self) -> bool {
        self.spec.fail_prob > 0.0 && self.rng.gen::<f64>() < self.spec.fail_prob
    }

    /// The duration multiplier for a starting task: the straggler factor
    /// with probability `straggler_prob`, else 1.
    pub fn straggle_factor(&mut self) -> f64 {
        if self.spec.straggler_prob > 0.0 && self.rng.gen::<f64>() < self.spec.straggler_prob {
            self.spec.straggler_factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let d = DynamicsSpec::default();
        assert!(!d.enabled());
        assert_eq!(d, DynamicsSpec::off());
        // Secondary knobs stay usable even in the off spec.
        assert!(d.outage_mean > 0.0 && d.straggler_factor > 1.0 && d.max_retries > 0);
    }

    #[test]
    fn levels_resolve_and_escalate() {
        for (name, spec) in [
            ("off", DynamicsSpec::off()),
            ("none", DynamicsSpec::off()),
            ("low", DynamicsSpec::low()),
            ("med", DynamicsSpec::med()),
            ("medium", DynamicsSpec::med()),
            ("high", DynamicsSpec::high()),
        ] {
            assert_eq!(DynamicsSpec::level(name), Some(spec), "{name}");
        }
        assert!(DynamicsSpec::level("apocalyptic").is_none());
        assert!(DynamicsSpec::low().fail_prob < DynamicsSpec::med().fail_prob);
        assert!(DynamicsSpec::med().fail_prob < DynamicsSpec::high().fail_prob);
        assert!(DynamicsSpec::low().churn_iat > DynamicsSpec::high().churn_iat);
        for l in [
            DynamicsSpec::low(),
            DynamicsSpec::med(),
            DynamicsSpec::high(),
        ] {
            assert!(l.enabled());
        }
    }

    #[test]
    fn validate_names_the_key_and_range_of_the_first_bad_knob() {
        for l in ["off", "low", "med", "high"] {
            assert_eq!(DynamicsSpec::level(l).map(|d| d.validate()), Some(Ok(())));
        }
        let off = DynamicsSpec::off;
        let cases = [
            (
                DynamicsSpec {
                    churn_iat: -1.0,
                    ..off()
                },
                "'churn' must be >= 0, got -1",
            ),
            (
                DynamicsSpec {
                    outage_mean: f64::NAN,
                    ..off()
                },
                "'outage' must be >= 0, got NaN",
            ),
            (
                DynamicsSpec {
                    fail_prob: 2.0,
                    ..off()
                },
                "'fail' must be in [0, 1], got 2",
            ),
            (
                DynamicsSpec {
                    straggler_prob: -0.1,
                    ..off()
                },
                "'straggle' must be in [0, 1], got -0.1",
            ),
            (
                DynamicsSpec {
                    straggler_factor: 0.5,
                    ..off()
                },
                "'straggle-factor' must be >= 1, got 0.5",
            ),
            (
                DynamicsSpec {
                    churn_iat: f64::INFINITY,
                    ..off()
                },
                "'churn' must be >= 0, got inf",
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(spec.validate(), Err(format!("dynamics {want}")));
        }
    }

    /// Each knob's getter and setter reach the same field, and a
    /// refused value leaves the spec as it was.
    #[test]
    fn knobs_read_and_write_the_field_they_name() {
        let mut d = DynamicsSpec::off();
        for k in &DynamicsSpec::KNOBS {
            k.set(&mut d, k.get(&DynamicsSpec::high())).unwrap();
        }
        assert_eq!(d, DynamicsSpec::high());
        for (v, shown) in [(-1.0, "-1"), (2.5, "2.5"), (1e10, "10000000000")] {
            assert_eq!(
                DynamicsSpec::KNOBS[3].set(&mut d, v),
                Err(format!(
                    "dynamics 'retries' must be a non-negative integer, got {shown}"
                ))
            );
        }
        assert_eq!(d, DynamicsSpec::high());
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let mk = || Perturbations::new(DynamicsSpec::med(), 7, 4);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            assert_eq!(a.next_churn_interval(), b.next_churn_interval());
            assert_eq!(a.sample_outage(), b.sample_outage());
            assert_eq!(a.pick_victim(4), b.pick_victim(4));
            assert_eq!(a.task_fails(), b.task_fails());
            assert_eq!(a.straggle_factor(), b.straggle_factor());
        }
        let mut p = mk();
        for _ in 0..200 {
            assert!(p.next_churn_interval() > 0.0);
            assert!(p.sample_outage() > 0.0);
            assert!(p.pick_victim(4) < 4);
            let f = p.straggle_factor();
            assert!(f == 1.0 || f == DynamicsSpec::med().straggler_factor);
        }
    }

    #[test]
    fn probabilities_hit_expected_rates() {
        let mut p = Perturbations::new(
            DynamicsSpec {
                fail_prob: 0.5,
                straggler_prob: 0.5,
                ..DynamicsSpec::off()
            },
            3,
            1,
        );
        let fails = (0..2000).filter(|_| p.task_fails()).count();
        assert!((800..1200).contains(&fails), "fail rate off: {fails}/2000");
        let straggles = (0..2000).filter(|_| p.straggle_factor() > 1.0).count();
        assert!(
            (800..1200).contains(&straggles),
            "straggle rate off: {straggles}/2000"
        );
    }
}
