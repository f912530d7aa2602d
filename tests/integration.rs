//! Cross-crate integration tests: workload generators → simulator →
//! schedulers → training, plus property-based invariants over the whole
//! pipeline.

use decima::baselines::{
    FifoScheduler, GrapheneScheduler, RandomScheduler, SjfCpScheduler, TetrisScheduler,
    WeightedFairScheduler,
};
use decima::core::{ClusterSpec, JobBuilder, JobId, JobSpec, SimTime, StageSpec};
use decima::nn::ParamStore;
use decima::policy::{DecimaAgent, DecimaPolicy, GradientPass, PolicyConfig};
use decima::rl::{EnvFactory, SpecEnv, TrainConfig, Trainer};
use decima::sim::{Action, Observation, Scheduler, SimConfig, Simulator};
use decima::workload::{renumber, tpch_batch, tpch_stream, with_random_memory, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Scales every stage's task count down by `factor` (minimum one task),
/// so the pipeline tests run in milliseconds while keeping each job's
/// DAG shape.
fn shrink(jobs: Vec<JobSpec>, factor: u32) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|mut j| {
            for s in &mut j.stages {
                s.num_tasks = (s.num_tasks / factor).max(1);
            }
            j
        })
        .collect()
}

#[test]
fn full_pipeline_baseline_ordering() {
    // On a heavy-tailed batch, the paper's §2.3 ordering must hold:
    // fair < sjf < fifo in average JCT.
    let jobs = shrink(tpch_batch(12, 1), 8);
    let cluster = ClusterSpec::homogeneous(10);
    let cfg = SimConfig::default().with_seed(2);
    let run = |s: &mut dyn Scheduler| {
        Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
            .run(s)
            .avg_jct()
            .unwrap()
    };
    let fifo = run(&mut FifoScheduler);
    let sjf = run(&mut SjfCpScheduler);
    let fair = run(&mut WeightedFairScheduler::fair());
    assert!(sjf < fifo, "sjf {sjf:.1} !< fifo {fifo:.1}");
    assert!(fair < fifo, "fair {fair:.1} !< fifo {fifo:.1}");
}

#[test]
fn all_schedulers_complete_a_stream() {
    let jobs = shrink(tpch_stream(15, 30.0, 3), 8);
    let cluster = ClusterSpec::homogeneous(8);
    let cfg = SimConfig::default().with_seed(1);
    let scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FifoScheduler),
        Box::new(SjfCpScheduler),
        Box::new(WeightedFairScheduler::fair()),
        Box::new(WeightedFairScheduler::naive()),
        Box::new(WeightedFairScheduler::new(-1.0)),
        Box::new(TetrisScheduler),
        Box::new(GrapheneScheduler::default()),
        Box::new(RandomScheduler::new(0)),
    ];
    for s in scheds {
        let name = s.name().to_string();
        let r = Simulator::new(cluster.clone(), jobs.clone(), cfg.clone()).run(s);
        assert_eq!(r.completed(), 15, "{name} left jobs unfinished");
        assert_eq!(r.wasted_actions, 0, "{name} produced no-op actions");
    }
}

#[test]
fn decima_agent_runs_and_model_round_trips() {
    let execs = 6;
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(4, execs));
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let policy = DecimaPolicy::new(PolicyConfig::small(execs), &mut store, &mut rng);

    // Evaluate, snapshot parameters as text, perturb, restore, re-evaluate.
    let (cluster, jobs, cfg) = env.build(9);
    let eval = |store: &ParamStore| {
        let mut agent = DecimaAgent::greedy(policy.clone(), store.clone());
        Simulator::new(cluster.clone(), jobs.clone(), cfg.clone())
            .run(&mut agent)
            .avg_jct()
            .unwrap()
    };
    let before = eval(&store);
    let snapshot = store.to_text();
    for v in store.value_mut(0).data_mut() {
        *v += 1.0; // corrupt
    }
    assert_ne!(eval(&store), before, "corruption should change behaviour");
    store.load_text(&snapshot).expect("restore");
    assert_eq!(eval(&store), before, "restored model must act identically");
}

#[test]
fn short_training_run_is_stable() {
    let env = SpecEnv::new(WorkloadSpec::tpch_batch(3, 5));
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let policy = DecimaPolicy::new(PolicyConfig::small(5), &mut store, &mut rng);
    let mut trainer = Trainer::new(
        policy,
        store,
        TrainConfig {
            num_rollouts: 4,
            ..TrainConfig::default()
        },
    );
    trainer.train(&env, 3, |s| {
        assert!(s.mean_reward.is_finite());
        assert!(s.grad_norm.is_finite());
    });
    assert_eq!(trainer.history.len(), 3);
}

#[test]
fn memory_demands_respected_end_to_end() {
    // Every stage demands > 0.25 memory: class-0 (0.25) executors must
    // never run a task.
    let mut rng = SmallRng::seed_from_u64(5);
    let jobs: Vec<JobSpec> = renumber(
        shrink(tpch_batch(4, 2), 8)
            .into_iter()
            .map(|mut j| {
                j = with_random_memory(j, &mut rng);
                for s in &mut j.stages {
                    s.mem_demand = s.mem_demand.max(0.3);
                }
                j
            })
            .collect(),
    );
    let cluster = ClusterSpec::four_class(8);
    let r = Simulator::new(cluster, jobs, SimConfig::default()).run(TetrisScheduler);
    assert_eq!(r.completed(), 4);
    for j in &r.jobs {
        assert_eq!(
            j.class_busy[0], 0.0,
            "{:?}: task ran on an executor too small for it",
            j.id
        );
    }
}

/// FIFO, keeping the objective integral of every decision it takes.
struct Costs(Vec<f64>);

impl Scheduler for Costs {
    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let action = FifoScheduler.decide(obs);
        if action.is_some() {
            self.0.push(obs.cost);
        }
        action
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random job set completes under FIFO (no deadlock or livelock),
    /// and basic accounting invariants hold.
    #[test]
    fn random_jobs_always_complete(
        seed in 0u64..5000,
        n_jobs in 1usize..6,
        execs in 1usize..8,
        move_delay in 0.0f64..4.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs: Vec<JobSpec> = (0..n_jobs).map(|i| {
            let n_stages = 1 + (seed as usize + i) % 5;
            let mut b = JobBuilder::new(JobId(i as u32));
            for s in 0..n_stages {
                use rand::Rng;
                b.stage(StageSpec::simple(rng.gen_range(1..8), rng.gen_range(0.5..4.0)));
                if s > 0 {
                    b.edge(s as u32 - 1, s as u32);
                }
            }
            b.arrival(SimTime::from_secs(i as f64)).build().unwrap()
        }).collect();

        let total_work: f64 = jobs.iter().map(JobSpec::total_work).sum();
        let cluster = ClusterSpec::homogeneous(execs).with_move_delay(move_delay);
        let mut sched = Costs(Vec::new());
        let r = Simulator::new(cluster, jobs, SimConfig::default().with_seed(seed))
            .run(&mut sched);

        prop_assert_eq!(r.completed(), n_jobs);
        // Executed work ≥ static work (waves/inflation only inflate).
        let executed: f64 = r.jobs.iter().map(|j| j.executed_work).sum();
        prop_assert!(executed >= total_work - 1e-6,
            "executed {} < static {}", executed, total_work);
        // Completions never precede arrivals; makespan bounds every JCT.
        for j in &r.jobs {
            let c = j.completion.unwrap();
            prop_assert!(c >= j.arrival);
        }
        // Reward accounting is self-consistent: the rewards derived from
        // the decisions' objective integrals (the first is at t = 0) sum
        // to the negated total penalty.
        prop_assert_eq!(sched.0.len(), r.actions.len());
        let rewards: f64 = sched.0.windows(2).map(|w| -(w[1] - w[0])).sum::<f64>()
            - r.tail_penalty;
        prop_assert!((rewards + r.total_penalty()).abs() < 1e-6);
    }

    /// The average JCT penalty integral equals the sum of JCTs for any
    /// batch (Little's-law bookkeeping, §5.3).
    #[test]
    fn penalty_integral_equals_sum_of_jcts(seed in 0u64..2000) {
        let jobs = shrink(tpch_batch(3, seed), 16);
        let cluster = ClusterSpec::homogeneous(4).with_move_delay(0.0);
        let r = Simulator::new(cluster, jobs, SimConfig::default().with_seed(seed))
            .run(WeightedFairScheduler::fair());
        prop_assert_eq!(r.completed(), 3);
        let sum_jct: f64 = r.jcts().iter().sum();
        prop_assert!((r.total_penalty() - sum_jct).abs() < 1e-6,
            "∫J dt = {} but ΣJCT = {}", r.total_penalty(), sum_jct);
    }

    /// Gantt accounting: utilization within [0,1]; busy time never
    /// exceeds the horizon per executor.
    #[test]
    fn gantt_accounting(seed in 0u64..2000, execs in 1usize..6) {
        let jobs = shrink(tpch_batch(2, seed), 16);
        let cluster = ClusterSpec::homogeneous(execs);
        let cfg = SimConfig::default().with_seed(seed).with_gantt();
        let r = Simulator::new(cluster, jobs, cfg).run(FifoScheduler);
        let g = r.gantt.unwrap();
        let u = g.utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {}", u);
        let horizon = g.horizon().as_secs();
        for row in 0..g.num_rows() {
            let busy: f64 = g.row(decima::core::ExecutorId(row as u32))
                .iter().map(|s| s.end - s.start).sum();
            prop_assert!(busy <= horizon + 1e-9);
        }
    }

    /// Decima recording agents finish any small batch, and re-scoring
    /// their stored observations is bit-faithful to re-scoring the live
    /// ones, for arbitrary seeds.
    #[test]
    fn decima_replay_faithful(seed in 0u64..300) {
        let execs = 4;
        let env = SpecEnv::new(WorkloadSpec::tpch_batch(2, execs));
        let (cluster, jobs, cfg) = env.build(seed);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = DecimaPolicy::new(PolicyConfig::small(execs), &mut store, &mut rng);

        let mut recorder = DecimaAgent::recorder(policy.clone(), store.clone(), seed);
        let mut sim = Simulator::new(cluster, jobs, cfg);
        let mut live = Vec::new();
        recorder.on_episode_start();
        while let Some(pending) = sim.step() {
            live.push(pending.observation().clone());
            let action = recorder.decide(pending.observation());
            pending.resume(action);
        }
        prop_assert_eq!(sim.finish().completed(), 2);

        let mut pass = GradientPass::new(policy.clone(), store.clone(), 0.01);
        for (obs, &choice) in live.iter().zip(&recorder.records) {
            pass.add(obs, choice, 0.5);
        }
        let from_live = pass.finish();
        let adv = vec![0.5; recorder.records.len()];
        let from_stored = DecimaAgent::accumulate_from_observations(
            policy, store, &recorder.observations, recorder.records, adv, 0.01,
        );
        prop_assert!(from_stored.grad_norm() > 0.0);
        for i in 0..from_stored.len() {
            let (a, b) = (from_live.grad(i).data(), from_stored.grad(i).data());
            prop_assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()), "param {}", i);
        }
    }
}
