//! The scenario registry: every paper artifact (`fig02` … `table3`)
//! registered as a declarative [`ScenarioSpec`], with a custom run
//! function where the figure's analysis goes beyond the generic
//! comparison protocol.
//!
//! The unified `decima-exp` runner fetches scenarios from here, so
//! there is exactly one source of truth for each experiment's
//! configuration — training included: `train` is a scenario like any
//! other.
//!
//! Recipes can reference **saved models**: a `Decima` entry whose
//! [`TrainSpec::checkpoint`] names a path loads the checkpoint instead
//! of retraining when the file exists (and saves there after a fresh
//! training run) — set it on any registered scenario with
//! `--set checkpoint=PATH`. A lineup can also pin a pre-trained model
//! directly with [`SchedulerSpec::DecimaCheckpoint`] (factory name
//! `decima-ckpt:<path>`). Either way the model comes from
//! [`crate::model`]. See `docs/TRAINING.md`.

use crate::runner::{run_comparison, RunFn, Scenario};
use crate::scenario::{
    PolicySpec, ReportKind, ScenarioBuilder, ScenarioSpec, SchedulerSpec, TrainSpec,
};
use crate::scenarios;
use decima_workload::{WorkloadSource, WorkloadSpec};

/// All registered scenarios, looked up by short name (`fig09a`,
/// `table2`, …).
pub struct ScenarioRegistry {
    items: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// The standard registry: every reproduced paper artifact.
    pub fn standard() -> Self {
        let items = vec![
            drift(),
            fig02(),
            fig03(),
            fig07(),
            fig09a(),
            fig09b(),
            fig10(),
            fig11(),
            fig12(),
            fig13(),
            fig14(),
            fig15a(),
            fig15b(),
            fig16(),
            fig18(),
            fig19(),
            fig22(),
            fig23(),
            fleet(),
            robust(),
            scale(),
            table2(),
            table3(),
            train(),
        ];
        ScenarioRegistry { items }
    }

    /// Looks up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.items.iter().find(|s| s.spec.name == name)
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.items.iter()
    }

    /// All scenario names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.items.iter().map(|s| s.spec.name.as_str()).collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no scenarios are registered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

fn custom(spec: ScenarioSpec, run: RunFn) -> Scenario {
    Scenario { spec, run }
}

fn comparison(spec: ScenarioSpec) -> Scenario {
    custom(spec, run_comparison)
}

/// The workload-drift scenario family (not a paper artifact): frozen vs
/// fine-tuned vs retrained Decima and the heuristic lineup under
/// non-stationary workloads — load ramps, diurnal cycles, a mid-episode
/// TPC-H → Alibaba mix shift, and flash crowds — with per-phase regret
/// against the best arm (docs/DRIFT.md).
fn drift() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "drift",
            "Drift: non-stationary workloads with online adaptation",
        )
        .paper_ref("— (drift ext)")
        .workload(WorkloadSpec::tpch_stream(30, 8, 25.0))
        .seeds(19000, 2)
        .entry_csv("sjf-cp", "sjf_cp", SchedulerSpec::SjfCp)
        .entry_csv(
            "opt-weighted-fair",
            "opt_wf",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .decima(TrainSpec::standard(20, 11))
        .count("ft-iters", 4)
        .count("ft-window", 16)
        .note("Profiles sweep ramp → diurnal → mixshift → flash (pick one with")
        .note("--set profile=…). The base policy trains on the stationary workload")
        .note("every run and is written to out/drift_base.ckpt; only a file named")
        .note("with --set checkpoint=… is reused when it exists. fine_tuned resumes")
        .note("it per profile with --set ft-iters=/ft-window=; retrain rebuilds from")
        .note("scratch on the drifted env (docs/DRIFT.md).")
        .build(),
        scenarios::drift::run_drift,
    )
}

fn fig02() -> Scenario {
    custom(
        // No workload entry: the sweep builds its own single-query
        // episodes over 1..=max-parallelism executors.
        ScenarioBuilder::new("fig02", "Figure 2: runtime vs. degree of parallelism")
            .paper_ref("§2.1, Fig. 2")
            .count("max-parallelism", 100)
            .note("Paper: Q9@100G ≈ 40, Q2@100G ≈ 20, Q9@2G ≲ 10.")
            .build(),
        scenarios::motivation::run_fig02,
    )
}

fn fig03() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig03",
            "Figure 3: executor-occupancy visualizations with avg JCT",
        )
        .paper_ref("§2.3, Fig. 3")
        .workload(WorkloadSpec::tpch_batch(10, 15))
        .count("width", 100)
        .param("seed", 7.0)
        .entry("fifo", SchedulerSpec::Fifo)
        .entry("sjf-cp", SchedulerSpec::SjfCp)
        .entry("fair", SchedulerSpec::Fair)
        .decima(TrainSpec::standard(60, 11))
        .note("Paper: Decima improves 45% over FIFO and 19% over fair on this setup.")
        .build(),
        scenarios::motivation::run_fig03,
    )
}

fn fig07() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig07",
            "Figure 7: return variance from the arrival process",
        )
        .paper_ref("§5.3, Fig. 7")
        .workload(WorkloadSpec::tpch_stream(60, 10, 12.0))
        .sim(|s| s.time_limit = Some(600.0))
        .count("samples", 20)
        .entry("random", SchedulerSpec::Random { seed: 0 })
        .build(),
        scenarios::motivation::run_fig07,
    )
}

fn fig09a() -> Scenario {
    comparison(
        ScenarioBuilder::new("fig09a", "Figure 9a: batched arrivals, avg JCT over runs")
            .paper_ref("§7.2, Fig. 9a")
            .workload(WorkloadSpec::tpch_batch(20, 15))
            .seeds(1000, 20)
            .entry("fifo", SchedulerSpec::Fifo)
            .entry_csv("sjf-cp", "sjf_cp", SchedulerSpec::SjfCp)
            .entry("fair", SchedulerSpec::Fair)
            .entry_csv(
                "naive-weighted-fair",
                "naive_wf",
                SchedulerSpec::NaiveWeightedFair,
            )
            .entry_csv(
                "opt-weighted-fair",
                "opt_wf",
                SchedulerSpec::TunedWeightedFair {
                    tune_start: 2000,
                    tune_count: 10,
                },
            )
            .decima(TrainSpec::standard(80, 11))
            .report(ReportKind::CdfCsv)
            .note("Paper shape: SJF-CP and fair beat FIFO (1.6×/2.5×); opt-weighted-fair")
            .note("beats fair by ~11%; Decima beats the best heuristic by ≥21%.")
            .build(),
    )
}

fn fig09b() -> Scenario {
    comparison(
        ScenarioBuilder::new("fig09b", "Figure 9b: continuous arrivals (load ≈ 85%)")
            .paper_ref("§7.2, Fig. 9b")
            .workload(WorkloadSpec::tpch_stream(120, 10, 28.0))
            .seeds(3000, 5)
            .entry("fifo", SchedulerSpec::Fifo)
            .entry_csv("sjf-cp", "sjf-cp", SchedulerSpec::SjfCp)
            .entry("fair", SchedulerSpec::Fair)
            .entry_csv(
                "opt-weighted-fair",
                "opt-weighted-fair",
                SchedulerSpec::WeightedFair { alpha: -1.0 },
            )
            .decima(TrainSpec::stream(100, 13))
            .report(ReportKind::MeanUnfinished)
            .note("Paper shape: only opt-weighted-fair keeps up among heuristics;")
            .note("Decima's average JCT is ~29% lower than opt-weighted-fair.")
            .build(),
    )
}

fn fig10() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig10",
            "Figure 10: time-series analysis of continuous arrivals",
        )
        .paper_ref("§7.2, Fig. 10")
        .workload(WorkloadSpec::tpch_stream(120, 10, 28.0))
        .param("seed", 4000.0)
        .entry(
            "opt-weighted-fair",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .decima(TrainSpec::stream(100, 13))
        .note("Paper shape: Decima keeps a lower concurrent-job count in busy periods,")
        .note("gives small jobs more executors, with similar total work (no inflation blow-up).")
        .build(),
        scenarios::tpch::run_fig10,
    )
}

fn fig11() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig11",
            "Figure 11: multi-dimensional resource packing, avg JCT",
        )
        .paper_ref("§7.3, Fig. 11")
        .workload(WorkloadSpec::alibaba_small(80, 12, 18.0))
        .seeds(5000, 3)
        .flag("tpch-only", false)
        .flag("alibaba-only", false)
        // 0: the TPC-H half follows `jobs` / `iat`.
        .count("tpch-jobs", 0)
        .param("tpch-iat", 0.0)
        .entry(
            "opt-weighted-fair",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .entry("tetris", SchedulerSpec::Tetris)
        .entry("graphene*", SchedulerSpec::Graphene)
        .entry(
            "decima (alibaba)",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    policy: PolicySpec::multires(),
                    ..TrainSpec::tuned(80, 17)
                },
            },
        )
        .entry(
            "decima (tpch-mem)",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    policy: PolicySpec::multires(),
                    ..TrainSpec::tuned(80, 19)
                },
            },
        )
        .note("Paper: Decima beats Graphene* by ~32% on the trace and ~43% on TPC-H.")
        .build(),
        scenarios::multires::run_fig11,
    )
}

fn fig12() -> Scenario {
    custom(
        ScenarioBuilder::new("fig12", "Figure 12: Decima vs Graphene* by job size")
            .paper_ref("§7.3, Fig. 12")
            .workload(WorkloadSpec::alibaba_small(80, 12, 18.0))
            .param("seed", 6000.0)
            .entry("graphene*", SchedulerSpec::Graphene)
            .entry(
                "decima",
                SchedulerSpec::Decima {
                    train: TrainSpec {
                        policy: PolicySpec::multires(),
                        ..TrainSpec::tuned(80, 17)
                    },
                },
            )
            .note("Paper shape: Decima completes small jobs faster and uses ~39% more of")
            .note("the largest executor class on the smallest-20% jobs.")
            .build(),
        scenarios::multires::run_fig12,
    )
}

fn fig13() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig13",
            "Figure 13: learned policies per environment and objective",
        )
        .paper_ref("§7.4, Fig. 13")
        .workload(WorkloadSpec::tpch_batch(8, 10))
        .count("width", 100)
        .param("seed", 21.0)
        .decima(TrainSpec::standard(60, 23))
        .note("Paper shape: the makespan policy trades higher avg JCT for a shorter")
        .note("makespan; free motion moves executors eagerly between jobs.")
        .build(),
        scenarios::ablation::run_fig13,
    )
}

fn fig14() -> Scenario {
    custom(
        ScenarioBuilder::new("fig14", "Figure 14: contribution of each key idea, vs load")
            .paper_ref("§7.4, Fig. 14")
            .workload(WorkloadSpec::tpch_stream(100, 10, 24.0))
            .count("iters", 60)
            .param("eval-seed-start", 7000.0)
            .entry(
                "opt-weighted-fair",
                SchedulerSpec::WeightedFair { alpha: -1.0 },
            )
            .decima(TrainSpec::tuned(60, 31))
            .note("Paper shape: every ablation underperforms the tuned heuristic at high")
            .note("load; parallelism control matters most, then the graph embedding.")
            .build(),
        scenarios::ablation::run_fig14,
    )
}

fn fig15a() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig15a",
            "Figure 15a: learning curves of the parallelism encodings",
        )
        .paper_ref("§7.4, Fig. 15a")
        .workload(WorkloadSpec::tpch_batch(15, 10))
        .count("iters", 80)
        .count("eval-every", 10)
        .param("eval-seed-start", 8000.0)
        .note("Paper shape: the limit-as-input job-level encoding learns fastest;")
        .note("one-hot output heads and stage-level granularity train slower.")
        .build(),
        scenarios::ablation::run_fig15a,
    )
}

fn fig15b() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig15b",
            "Figure 15b: scheduling-decision latency vs event intervals",
        )
        .paper_ref("§7.4, Fig. 15b")
        .workload(WorkloadSpec::tpch_stream(60, 10, 28.0))
        .param("seed", 9000.0)
        .entry(
            "decima-untrained",
            SchedulerSpec::DecimaUntrained {
                policy: PolicySpec::default(),
                sample_seed: Some(1),
            },
        )
        .build(),
        scenarios::ablation::run_fig15b,
    )
}

fn fig16() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig16",
            "Figure 16 (App. A): two-branch DAG, critical path vs optimal",
        )
        .paper_ref("App. A, Fig. 16")
        .workload(WorkloadSpec::appendix_dag())
        .sim(|s| s.simplified = true)
        .entry("sjf-cp", SchedulerSpec::SjfCp)
        .decima(TrainSpec::standard(80, 47))
        .build(),
        scenarios::appendix::run_fig16,
    )
}

fn fig18() -> Scenario {
    custom(
        ScenarioBuilder::new("fig18", "Figure 18 (App. D): simulator fidelity")
            .paper_ref("App. D, Fig. 18")
            .workload(WorkloadSpec {
                source: WorkloadSource::SingleTpch {
                    query: 1,
                    gb: 20.0,
                    task_scale: 4.0,
                },
                executors: 10,
                move_delay: 2.5,
            })
            .count("reps", 10)
            .param("noise", 0.15)
            .entry("fair", SchedulerSpec::Fair)
            .note("Paper: relative errors ≤5% (isolated) and ≤9% (mixed).")
            .build(),
        scenarios::appendix::run_fig18,
    )
}

fn fig19() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig19",
            "Figure 19 (App. E): two-level vs single-level GNN aggregation",
        )
        .paper_ref("App. E, Fig. 19")
        .count("iters", 300)
        .count("nodes", 20)
        .count("eval-every", 25)
        .note("Paper shape: the two-level aggregation reaches near-perfect accuracy")
        .note("(it can express the max over children); the single-level one plateaus.")
        .build(),
        scenarios::appendix::run_fig19,
    )
}

fn fig22() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fig22",
            "Figure 22 (App. H): Decima vs exhaustive ordering search",
        )
        .paper_ref("App. H, Fig. 22")
        .workload(WorkloadSpec {
            move_delay: 0.0,
            ..WorkloadSpec::tpch_batch(10, 10)
        })
        .sim(|s| s.simplified = true)
        .seeds(9100, 5)
        .count("orderings", 2000)
        .entry(
            "opt-weighted-fair",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .entry("sjf-cp", SchedulerSpec::SjfCp)
        .decima(TrainSpec::standard(80, 53))
        .note("Paper shape: SJF-CP beats tuned weighted-fair here (no real-cluster")
        .note("complexity); the ordering search beats SJF-CP; Decima matches or")
        .note("slightly beats the search (it re-prioritizes dynamically at runtime).")
        .build(),
        scenarios::appendix::run_fig22,
    )
}

fn fig23() -> Scenario {
    let train = |include_duration: bool, seed: u64| {
        let mut train = TrainSpec::tuned(80, seed);
        train.cfg.differential_reward = false;
        train.cfg.curriculum = None;
        train.policy.include_duration = include_duration;
        train
    };
    comparison(
        ScenarioBuilder::new("fig23", "Figure 23: avg JCT on unseen batches")
            .paper_ref("App. J, Fig. 23")
            .workload(WorkloadSpec::tpch_batch(20, 10))
            .seeds(9500, 6)
            .entry_csv(
                "opt-weighted-fair",
                "opt_wf",
                SchedulerSpec::WeightedFair { alpha: -1.0 },
            )
            .entry_csv(
                "decima (full features)",
                "decima_full",
                SchedulerSpec::Decima {
                    train: train(true, 61),
                },
            )
            .entry_csv(
                "decima (no durations)",
                "decima_no_duration",
                SchedulerSpec::Decima {
                    train: train(false, 63),
                },
            )
            .report(ReportKind::MeanCsv)
            .note("Paper shape: the duration-blind policy is worse than full Decima but")
            .note("still competitive with the best heuristic.")
            .build(),
    )
}

/// The fleet-scale serving driver (not a paper artifact): N sharded
/// cluster simulators behind one routed arrival front-end, swept over
/// shard count × arrival rate to locate the saturation knee
/// (docs/FLEET.md).
fn fleet() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "fleet",
            "Fleet: sharded serving swept over shard count × arrival rate",
        )
        .paper_ref("— (fleet ext)")
        .workload(WorkloadSpec::tpch_stream(40, 8, 12.0))
        .seeds(13000, 2)
        .text("router", "jsq")
        .text("sched", "fifo")
        .entry("fifo", SchedulerSpec::Fifo)
        .note("Shards are independent simulators at derived seeds; one streaming")
        .note("front-end routes jobs (--set router=rr|jsq|least-loaded). Sweep with")
        .note("--set shards=1,2,4,8 and rates=1,2,4 (rate multiplies arrival rate);")
        .note("--set sched=<name> picks the per-shard scheduler (decima-ckpt:<path>")
        .note("serves a trained checkpoint). See docs/FLEET.md.")
        .build(),
        scenarios::fleet::run_fleet_scenario,
    )
}

/// The robustness scenario family (not a paper artifact): the §7.1
/// lineup plus trained/untrained Decima evaluated under escalating
/// cluster-dynamics levels — executor churn, bounded-retry task
/// failures, stragglers (docs/ROBUSTNESS.md).
fn robust() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "robust",
            "Robustness: schedulers under churn, task failures, and stragglers",
        )
        .paper_ref("— (robustness ext)")
        .workload(WorkloadSpec::tpch_batch(10, 10))
        .seeds(11000, 3)
        .entry("fifo", SchedulerSpec::Fifo)
        .entry_csv("sjf-cp", "sjf_cp", SchedulerSpec::SjfCp)
        .entry("fair", SchedulerSpec::Fair)
        .entry_csv(
            "opt-weighted-fair",
            "opt_wf",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .entry(
            "decima-untrained",
            SchedulerSpec::DecimaUntrained {
                policy: PolicySpec::default(),
                sample_seed: None,
            },
        )
        .decima(TrainSpec::standard(30, 11))
        .note("Levels sweep off → low → med → high (pick one with --set level=…;")
        .note("level=custom uses --set churn=/fail=/straggle= directly). Decima")
        .note("trains unperturbed for preset sweeps, but under the spec's own")
        .note("dynamics at level=custom; evaluate perturbation-trained checkpoints")
        .note("via decima-ckpt:<path> entries (docs/ROBUSTNESS.md).")
        .build(),
        scenarios::robust::run_robust,
    )
}

/// The long-horizon memory-scaling scenario (not a paper artifact):
/// one streaming simulator swept over executor count × total jobs at
/// constant per-executor load, reporting the arena/pool memory
/// telemetry that proves episode memory tracks *live* jobs, not jobs
/// served (docs/PERF.md, "Memory").
fn scale() -> Scenario {
    custom(
        ScenarioBuilder::new(
            "scale",
            "Scale: long-horizon serving memory vs executors × total jobs",
        )
        .paper_ref("— (scaling ext)")
        .workload(WorkloadSpec::tpch_stream(500, 8, 96.0))
        .seeds(17000, 1)
        .text("sched", "fair")
        .entry("fair", SchedulerSpec::Fair)
        .note("Sweeps --set execs=8,64 × jobs=500,5000 (comma lists); the mean")
        .note("interarrival time scales as base_iat×8/execs so per-executor load")
        .note("is constant. Default sched=fair (shares executors across jobs;")
        .note("whole-cluster grants like fifo serialize and saturate).")
        .note("out/scale.{csv,json} carry MemCounters telemetry (live_jobs_peak,")
        .note("slots/queue/pool HWMs, retired_jobs); wall-clock decisions/s is")
        .note("stdout-only. The headline point is --set execs=10000 jobs=100000")
        .note("on a release build (docs/PERF.md).")
        .build(),
        scenarios::scale::run_scale_scenario,
    )
}

fn table2() -> Scenario {
    let test_iat = 24.0;
    let anti_iat = 40.0;
    let jobs = 100;
    let execs = 10;
    let mixed = WorkloadSpec {
        source: WorkloadSource::TpchMixedIat {
            num_jobs: jobs,
            lo_iat: test_iat * 0.9,
            hi_iat: anti_iat,
            task_scale: 8.0,
        },
        executors: execs,
        move_delay: 1.0,
    };
    comparison(
        ScenarioBuilder::new(
            "table2",
            "Table 2: generalization across workload interarrival times",
        )
        .paper_ref("§7.2, Table 2")
        .workload(WorkloadSpec::tpch_stream(jobs, execs, test_iat))
        .seeds(9700, 4)
        .entry_csv(
            "opt-weighted-fair",
            "opt_weighted_fair",
            SchedulerSpec::WeightedFair { alpha: -1.0 },
        )
        .entry_csv(
            "trained on test workload",
            "trained_on_test_workload",
            SchedulerSpec::Decima {
                train: TrainSpec::tuned(60, 71),
            },
        )
        .entry_csv(
            "trained on anti-skewed workload",
            "trained_on_anti-skewed_workload",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    workload: Some(WorkloadSpec::tpch_stream(jobs, execs, anti_iat)),
                    ..TrainSpec::tuned(60, 73)
                },
            },
        )
        .entry_csv(
            "trained on mixed workloads",
            "trained_on_mixed_workloads",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    workload: Some(mixed.clone()),
                    ..TrainSpec::tuned(60, 75)
                },
            },
        )
        .entry_csv(
            "mixed + IAT hint feature",
            "mixed_+_IAT_hint_feature",
            SchedulerSpec::Decima {
                train: TrainSpec {
                    workload: Some(mixed),
                    // The hint passed during training tracks each
                    // episode's IAT only approximately (the mixture
                    // midpoint); at evaluation the policy observes the
                    // test IAT.
                    policy: PolicySpec {
                        iat_hint: Some((test_iat + anti_iat) / 2.0),
                        ..PolicySpec::default()
                    },
                    eval_iat_hint: Some(test_iat),
                    ..TrainSpec::tuned(60, 77)
                },
            },
        )
        .report(ReportKind::MeanCsv)
        .note("Paper shape: test-trained < mixed+hint < mixed < heuristic < anti-skewed.")
        .build(),
    )
}

fn table3() -> Scenario {
    let test_jobs = 90;
    let test_execs = 20;
    let iat = 12.0;
    let train = |seed: u64, workload: Option<WorkloadSpec>| SchedulerSpec::Decima {
        train: TrainSpec {
            policy: PolicySpec::multires(),
            workload,
            ..TrainSpec::tuned(60, seed)
        },
    };
    comparison(
        ScenarioBuilder::new(
            "table3",
            "Table 3: scale generalization (Alibaba-like workload)",
        )
        .paper_ref("App. I, Table 3")
        .workload(WorkloadSpec::alibaba_small(test_jobs, test_execs, iat))
        .seeds(9800, 3)
        .entry_csv(
            "trained with test setting",
            "trained_with_test_setting",
            train(81, None),
        )
        // 6× fewer concurrent jobs (paper: 15×): shorter episodes,
        // lighter load.
        .entry_csv(
            "trained with 6x fewer jobs",
            "trained_with_6x_fewer_jobs",
            train(
                83,
                Some(WorkloadSpec::alibaba_small(
                    test_jobs / 6,
                    test_execs,
                    iat * 2.0,
                )),
            ),
        )
        // The executor-scarce agent trains on a smaller cluster but is
        // evaluated on the full one; the limit head normalizes by total
        // executors, which is what transfers.
        .entry_csv(
            "trained with 4x fewer executors",
            "trained_with_4x_fewer_executors",
            train(
                85,
                Some(WorkloadSpec::alibaba_small(test_jobs, test_execs / 4, iat)),
            ),
        )
        .report(ReportKind::MeanCsv)
        .note("Paper shape: both scaled-down trainings land within ~10% of the")
        .note("full-scale training (executor scaling generalizes more easily).")
        .build(),
    )
}

/// One checkpointed, resumable training run (§5.3's recipe on its own):
/// the training driver of [`crate::model`] with a JSONL log and a save
/// cadence. `iters=` is the target total, `checkpoint=` the file the run
/// writes — and, with `resume=true`, continues bit-exactly — and
/// `jobs=` / `execs=` / `iat=` / the dynamics knobs shape the episodes
/// it rolls out on (docs/TRAINING.md).
fn train() -> Scenario {
    custom(
        ScenarioBuilder::new("train", "Train: one checkpointed, resumable training run")
            .paper_ref("§5.3, Alg. 1")
            .workload(WorkloadSpec::tpch_batch(10, 15))
            .text("recipe", "standard")
            .count("seed", 11)
            .count("checkpoint-every", 10)
            .flag("resume", false)
            .text("train-log", "")
            .decima(TrainSpec::standard(50, 11).with_checkpoint("out/checkpoints/checkpoint.txt"))
            .note("Writes checkpoint= (and one JSONL record per iteration to train-log=,")
            .note("default out/train_<recipe>.jsonl); any scenario then reuses the model with")
            .note("--set checkpoint=<that file> or a decima-ckpt:<path> entry.")
            .build(),
        crate::model::run_train,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn registry_has_all_artifacts() {
        let reg = ScenarioRegistry::standard();
        assert!(reg.len() >= 20, "only {} scenarios", reg.len());
        assert!(!reg.is_empty());
        for name in [
            "drift", "fig02", "fig03", "fig07", "fig09a", "fig09b", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15a", "fig15b", "fig16", "fig18", "fig19", "fig22", "fig23",
            "fleet", "robust", "scale", "table2", "table3", "train",
        ] {
            assert!(reg.get(name).is_some(), "scenario '{name}' missing");
        }
        assert!(reg.get("fig99").is_none());
    }

    #[test]
    fn every_spec_echo_parses_and_names_itself() {
        for sc in ScenarioRegistry::standard().iter() {
            let text = sc.spec.to_json().render();
            let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", sc.spec.name));
            assert_eq!(
                parsed.get("name").and_then(Json::as_str),
                Some(sc.spec.name.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique_and_ordered() {
        let reg = ScenarioRegistry::standard();
        let names = reg.names();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "register scenarios in name order");
    }
}
