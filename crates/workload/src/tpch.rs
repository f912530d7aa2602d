//! TPC-H-like job generator.
//!
//! The paper runs all 22 TPC-H queries on Spark at six input scales
//! (2–100 GB) and samples query/size uniformly, which yields a
//! heavy-tailed work distribution (23% of jobs ≈ 82% of the work, §7.2).
//! The actual Spark stage profiles are not published, so this module
//! synthesizes *structurally faithful* DAGs per query:
//!
//! * each query's DAG is derived from the tables it scans (scan stages),
//!   a join tree over them (left-deep or bushy, per query), and an
//!   aggregation tail — matching the stage counts and shapes visible in
//!   the paper's Figure 1;
//! * per-stage task counts scale linearly with input size, with base-table
//!   cardinalities setting the relative weights (lineitem ≫ orders ≫ …);
//! * each query carries an [`InflationCurve`] whose slope reflects how
//!   well it parallelizes, reproducing the Figure 2 phenomenology (Q9
//!   scales to ~40 tasks at 100 GB; Q2 stops gaining around 20; small
//!   inputs need only a handful of tasks).
//!
//! The substitution is documented in `DESIGN.md`: every experiment that
//! consumes this workload only relies on these distributional properties.

use decima_core::{DagTopology, InflationCurve, JobId, JobSpec, SimTime, StageSpec};
use rand::Rng;

/// The six input scales used throughout the paper's TPC-H experiments.
pub const INPUT_SIZES_GB: [f64; 6] = [2.0, 5.0, 10.0, 20.0, 50.0, 100.0];

/// Number of TPC-H queries.
pub const NUM_QUERIES: u16 = 22;

/// Default first-wave slowdown factor for synthesized stages.
pub const FIRST_WAVE_FACTOR: f64 = 1.8;

/// Relative "cardinality" weight of each base table (scale-factor 1).
#[derive(Clone, Copy, Debug)]
enum Table {
    Lineitem,
    Orders,
    Partsupp,
    Part,
    Customer,
    Supplier,
    Nation,
    Region,
}

impl Table {
    fn weight(self) -> f64 {
        match self {
            Table::Lineitem => 1.0,
            Table::Orders => 0.25,
            Table::Partsupp => 0.13,
            Table::Part => 0.035,
            Table::Customer => 0.025,
            Table::Supplier => 0.004,
            Table::Nation => 0.001,
            Table::Region => 0.001,
        }
    }
}

/// Join-tree shape of a query plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Scans joined one after another: scan₀⋈scan₁, (⋅)⋈scan₂, …
    LeftDeep,
    /// Scans joined pairwise in a balanced tree.
    Bushy,
}

/// Static description of one query template.
struct Template {
    tables: &'static [Table],
    shape: Shape,
    /// Length of the aggregation/sort tail appended after the joins.
    agg_len: usize,
    /// Parallelism knee at 100 GB input: the query's Figure 2 sweet spot.
    knee_at_100g: f64,
}

use Table::*;

/// One template per TPC-H query (1-indexed by query number). The last
/// tuple element is the query's parallelism sweet spot at 100 GB: Figure 2
/// shows Q9 scaling to ~40 parallel tasks and Q2 stalling near 20.
fn template(query: u16) -> Template {
    let (tables, shape, agg_len, knee): (&'static [Table], Shape, usize, f64) = match query {
        1 => (&[Lineitem], Shape::LeftDeep, 2, 42.0),
        2 => (
            &[Part, Supplier, Partsupp, Nation, Region],
            Shape::Bushy,
            3,
            20.0,
        ),
        3 => (&[Customer, Orders, Lineitem], Shape::LeftDeep, 2, 32.0),
        4 => (&[Orders, Lineitem], Shape::LeftDeep, 3, 30.0),
        5 => (
            &[Customer, Orders, Lineitem, Supplier, Nation, Region],
            Shape::LeftDeep,
            2,
            28.0,
        ),
        6 => (&[Lineitem], Shape::LeftDeep, 1, 45.0),
        7 => (
            &[Supplier, Lineitem, Orders, Customer, Nation, Nation],
            Shape::Bushy,
            3,
            26.0,
        ),
        8 => (
            &[
                Part, Supplier, Lineitem, Orders, Customer, Nation, Nation, Region,
            ],
            Shape::Bushy,
            3,
            27.0,
        ),
        9 => (
            &[Part, Supplier, Lineitem, Partsupp, Orders, Nation],
            Shape::LeftDeep,
            2,
            40.0,
        ),
        10 => (
            &[Customer, Orders, Lineitem, Nation],
            Shape::LeftDeep,
            2,
            30.0,
        ),
        11 => (&[Partsupp, Supplier, Nation], Shape::LeftDeep, 4, 16.0),
        12 => (&[Orders, Lineitem], Shape::LeftDeep, 2, 30.0),
        13 => (&[Customer, Orders], Shape::LeftDeep, 2, 22.0),
        14 => (&[Lineitem, Part], Shape::LeftDeep, 2, 34.0),
        15 => (&[Supplier, Lineitem], Shape::LeftDeep, 3, 32.0),
        16 => (&[Partsupp, Part, Supplier], Shape::Bushy, 3, 18.0),
        17 => (&[Lineitem, Part], Shape::Bushy, 4, 36.0),
        18 => (&[Customer, Orders, Lineitem], Shape::Bushy, 3, 40.0),
        19 => (&[Lineitem, Part], Shape::LeftDeep, 1, 33.0),
        20 => (
            &[Supplier, Nation, Partsupp, Part, Lineitem],
            Shape::Bushy,
            3,
            22.0,
        ),
        21 => (
            &[Supplier, Lineitem, Orders, Nation, Lineitem],
            Shape::Bushy,
            4,
            38.0,
        ),
        22 => (&[Customer, Orders], Shape::Bushy, 3, 14.0),
        _ => panic!("TPC-H query number must be 1..=22, got {query}"),
    };
    Template {
        tables,
        shape,
        agg_len,
        knee_at_100g: knee,
    }
}

/// Tasks per unit of (table weight × GB). Calibrated so the continuous
/// TPC-H mix (Poisson, 45 s mean IAT) offers ≈85% load to 50 executors,
/// matching §7.2.
const TASKS_PER_WEIGHTED_GB: f64 = 8.0;
/// Mean seconds per scan task.
const SCAN_TASK_SECS: f64 = 2.4;
/// Mean seconds per join task.
const JOIN_TASK_SECS: f64 = 4.0;
/// Mean seconds per aggregation task.
const AGG_TASK_SECS: f64 = 1.8;
/// Join output carries this fraction of the larger input's weight.
const JOIN_SELECTIVITY: f64 = 0.6;
/// Parallelism increment past the knee at which inflation reaches
/// `1 + gamma`: steep enough that running past the sweet spot *increases*
/// stage runtime, as in Figure 2.
const P_REF: f64 = 20.0;
/// Inflation slope beyond the knee.
const GAMMA: f64 = 1.3;

fn tasks_for(weight: f64, input_gb: f64, task_scale: f64) -> u32 {
    (weight * input_gb * TASKS_PER_WEIGHTED_GB / task_scale.max(1e-9))
        .ceil()
        .max(1.0) as u32
}

/// One stage of a query's plan: what does not depend on the input size
/// or the task scale.
struct PlanStage {
    /// Table weight the stage's task count scales with.
    weight: f64,
    /// Mean seconds per task.
    task_duration: f64,
    /// The final collect stage: one task at every input size.
    collect: bool,
}

/// A query's plan: its DAG and its stages, from which a job at any input
/// size and task scale is one stage vector and one inflation curve.
struct Plan {
    dag: DagTopology,
    stages: Box<[PlanStage]>,
    /// Parallelism knee at 100 GB input.
    knee_at_100g: f64,
}

impl Plan {
    /// Walks `query`'s template: one scan stage per base table, its join
    /// tree, then the aggregation tail, stages numbered in that order.
    #[expect(
        clippy::expect_used,
        reason = "valid by construction: each of the 22 templates names a table, so the \
                  join tree leaves one stage, and every edge runs from an earlier stage to a \
                  later one"
    )]
    fn new(query: u16) -> Plan {
        let t = template(query);
        let mut stages: Vec<PlanStage> = t
            .tables
            .iter()
            .map(|&table| PlanStage {
                weight: table.weight(),
                task_duration: SCAN_TASK_SECS,
                collect: false,
            })
            .collect();
        let mut edges = Vec::new();

        // Join tree over the scans, as (stage, weight) pairs.
        let mut frontier: Vec<(u32, f64)> = (0..).zip(stages.iter().map(|s| s.weight)).collect();
        let mut join = |(a, wa): (u32, f64), (c, wc): (u32, f64)| {
            let w = JOIN_SELECTIVITY * wa.max(wc);
            let j = stages.len() as u32;
            stages.push(PlanStage {
                weight: w,
                task_duration: JOIN_TASK_SECS,
                collect: false,
            });
            edges.extend([(a, j), (c, j)]);
            (j, w)
        };
        match t.shape {
            Shape::LeftDeep => {
                while frontier.len() > 1 {
                    let a = frontier.remove(0);
                    let c = frontier.remove(0);
                    frontier.insert(0, join(a, c));
                }
            }
            Shape::Bushy => {
                while frontier.len() > 1 {
                    frontier = frontier
                        .chunks(2)
                        .map(|pair| match *pair {
                            [a, c] => join(a, c),
                            _ => pair[0],
                        })
                        .collect();
                }
            }
        }

        // Aggregation / sort tail.
        let (mut tail, mut weight) = frontier[0];
        for step in 0..t.agg_len {
            weight *= 0.35;
            let s = stages.len() as u32;
            stages.push(PlanStage {
                weight,
                task_duration: AGG_TASK_SECS,
                collect: step + 1 == t.agg_len,
            });
            edges.push((tail, s));
            tail = s;
        }

        Plan {
            dag: DagTopology::new(stages.len(), &edges).expect("TPC-H template yields a DAG"),
            stages: stages.into_boxed_slice(),
            knee_at_100g: t.knee_at_100g,
        }
    }

    /// The job at `input_gb` with task counts divided by `task_scale`: a
    /// share of the plan's DAG, a stage vector and an inflation curve.
    #[expect(
        clippy::expect_used,
        reason = "valid by construction: every stage has at least one task, a positive \
                  duration and no memory demand, and the plan's DAG has one node per stage"
    )]
    fn job(&self, input_gb: f64, id: JobId, arrival: SimTime, task_scale: f64) -> JobSpec {
        let stages = self
            .stages
            .iter()
            .map(|s| StageSpec {
                num_tasks: if s.collect {
                    1
                } else {
                    tasks_for(s.weight, input_gb, task_scale)
                },
                task_duration: s.task_duration,
                first_wave_factor: FIRST_WAVE_FACTOR,
                mem_demand: 0.0,
            })
            .collect();
        // The parallelism knee shrinks with input size (Q9 on 2 GB needs
        // only ~5 tasks, Figure 2) and with the task scale.
        let knee = (self.knee_at_100g * (input_gb / 100.0).sqrt() / task_scale).max(2.0);
        let p_ref = (P_REF / task_scale).max(2.0);
        let job = JobSpec {
            id,
            arrival,
            dag: self.dag.clone(),
            stages,
            inflation: InflationCurve {
                gamma: GAMMA,
                p_ref,
                knee,
            },
        };
        job.validate().expect("TPC-H plan produces a valid job");
        job
    }
}

/// The query plans of one generated job list, each built the first
/// time the list draws its query: every job of a query then shares the
/// plan's DAG, and costs only its stage vector.
#[derive(Default)]
pub(crate) struct QueryPlans([Option<Plan>; NUM_QUERIES as usize]);

impl QueryPlans {
    /// [`tpch_job_scaled`], from this list's plan of `query`.
    pub(crate) fn job(
        &mut self,
        query: u16,
        input_gb: f64,
        id: JobId,
        arrival: SimTime,
        task_scale: f64,
    ) -> JobSpec {
        self.0[usize::from(query) - 1]
            .get_or_insert_with(|| Plan::new(query))
            .job(input_gb, id, arrival, task_scale)
    }
}

/// Builds the job for `query` (1–22) at `input_gb`, with the given id and
/// arrival time.
///
/// The construction is deterministic: the same `(query, input_gb)` always
/// yields the same DAG and stage profile, mirroring recurring production
/// jobs whose profiles are known from prior runs (§2).
pub fn tpch_job(query: u16, input_gb: f64, id: JobId, arrival: SimTime) -> JobSpec {
    tpch_job_scaled(query, input_gb, id, arrival, 1.0)
}

/// [`tpch_job`] with task counts divided by `task_scale` (and the
/// parallelism knee shrunk to match). Scaled-down workloads keep the same
/// structural and distributional properties while making RL training
/// tractable on small clusters; every bench binary documents the scale it
/// uses (see EXPERIMENTS.md).
pub fn tpch_job_scaled(
    query: u16,
    input_gb: f64,
    id: JobId,
    arrival: SimTime,
    task_scale: f64,
) -> JobSpec {
    Plan::new(query).job(input_gb, id, arrival, task_scale)
}

/// Samples a uniform `(query, input size)` pair, the paper's §7.2 mix.
pub fn sample_query(rng: &mut impl Rng) -> (u16, f64) {
    let q = rng.gen_range(1..=NUM_QUERIES);
    let s = INPUT_SIZES_GB[rng.gen_range(0..INPUT_SIZES_GB.len())];
    (q, s)
}

/// Assigns every stage of a job a memory demand sampled uniformly from
/// `(0, 1]` — the multi-resource TPC-H setup of §7.3 / Figure 11b.
pub fn with_random_memory(mut job: JobSpec, rng: &mut impl Rng) -> JobSpec {
    for s in &mut job.stages {
        s.mem_demand = (rng.gen::<f64>() * 0.999 + 0.001).min(1.0);
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_core::JobBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The construction the plans replaced: a `JobBuilder` walk of the
    /// template for every job, kept as the reference they must match.
    fn builder_job(
        query: u16,
        input_gb: f64,
        id: JobId,
        arrival: SimTime,
        task_scale: f64,
    ) -> JobSpec {
        let t = template(query);
        let mut b = JobBuilder::new(id);
        let stage = |b: &mut JobBuilder, w: f64, task_duration: f64| {
            b.stage(StageSpec {
                num_tasks: tasks_for(w, input_gb, task_scale),
                task_duration,
                first_wave_factor: FIRST_WAVE_FACTOR,
                mem_demand: 0.0,
            })
        };
        let mut frontier: Vec<(u32, f64)> = t
            .tables
            .iter()
            .map(|&table| {
                (
                    stage(&mut b, table.weight(), SCAN_TASK_SECS),
                    table.weight(),
                )
            })
            .collect();
        match t.shape {
            Shape::LeftDeep => {
                while frontier.len() > 1 {
                    let (a, wa) = frontier.remove(0);
                    let (c, wc) = frontier.remove(0);
                    let w = JOIN_SELECTIVITY * wa.max(wc);
                    let j = stage(&mut b, w, JOIN_TASK_SECS);
                    b.edge(a, j);
                    b.edge(c, j);
                    frontier.insert(0, (j, w));
                }
            }
            Shape::Bushy => {
                while frontier.len() > 1 {
                    let mut next = Vec::with_capacity(frontier.len() / 2 + 1);
                    let mut iter = frontier.into_iter();
                    while let Some((a, wa)) = iter.next() {
                        match iter.next() {
                            Some((c, wc)) => {
                                let w = JOIN_SELECTIVITY * wa.max(wc);
                                let j = stage(&mut b, w, JOIN_TASK_SECS);
                                b.edge(a, j);
                                b.edge(c, j);
                                next.push((j, w));
                            }
                            None => next.push((a, wa)),
                        }
                    }
                    frontier = next;
                }
            }
        }
        let (mut tail, mut w) = frontier.pop().unwrap();
        for step in 0..t.agg_len {
            w *= 0.35;
            let s = b.stage(StageSpec {
                num_tasks: if step + 1 == t.agg_len {
                    1
                } else {
                    tasks_for(w, input_gb, task_scale)
                },
                task_duration: AGG_TASK_SECS,
                first_wave_factor: FIRST_WAVE_FACTOR,
                mem_demand: 0.0,
            });
            b.edge(tail, s);
            tail = s;
        }
        let knee = (t.knee_at_100g * (input_gb / 100.0).sqrt() / task_scale).max(2.0);
        let p_ref = (P_REF / task_scale).max(2.0);
        b.arrival(arrival)
            .inflation(InflationCurve {
                gamma: GAMMA,
                p_ref,
                knee,
            })
            .build()
            .unwrap()
    }

    /// Every field of `got` against `want`, floats by their bits.
    fn assert_same_job(got: &JobSpec, want: &JobSpec, case: &str) {
        assert_eq!(got.id, want.id, "{case}: id");
        assert_eq!(got.arrival, want.arrival, "{case}: arrival");
        assert!(got.dag == want.dag, "{case}: DAG buffer");
        assert_eq!(got.dag.len(), want.dag.len(), "{case}: stages");
        assert_eq!(got.dag.edges(), want.dag.edges(), "{case}: edges");
        assert_eq!(got.dag.topo_order(), want.dag.topo_order(), "{case}: topo");
        assert_eq!(got.stages.len(), want.stages.len(), "{case}: stage count");
        assert_eq!(
            got.stages.capacity(),
            got.stages.len(),
            "{case}: spare capacity"
        );
        for (g, w) in got.stages.iter().zip(&want.stages) {
            assert_eq!(g.num_tasks, w.num_tasks, "{case}: num_tasks");
            for (a, b) in [
                (g.task_duration, w.task_duration),
                (g.first_wave_factor, w.first_wave_factor),
                (g.mem_demand, w.mem_demand),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{case}: stage field");
            }
        }
        let (g, w) = (got.inflation, want.inflation);
        for (a, b) in [(g.gamma, w.gamma), (g.p_ref, w.p_ref), (g.knee, w.knee)] {
            assert_eq!(a.to_bits(), b.to_bits(), "{case}: inflation");
        }
    }

    #[test]
    fn plans_build_what_the_builder_built() {
        // One table for every size and scale: a plan serves them all.
        let mut plans = QueryPlans::default();
        let arrival = SimTime::from_secs(12.5);
        for q in 1..=NUM_QUERIES {
            for &gb in &INPUT_SIZES_GB {
                for scale in [1.0, 8.0] {
                    let case = format!("q{q} at {gb} GB, scale {scale}");
                    let id = JobId(u32::from(q));
                    let want = builder_job(q, gb, id, arrival, scale);
                    assert_same_job(&tpch_job_scaled(q, gb, id, arrival, scale), &want, &case);
                    assert_same_job(&plans.job(q, gb, id, arrival, scale), &want, &case);
                }
            }
        }
    }

    #[test]
    fn all_22_queries_build_at_all_sizes() {
        for q in 1..=NUM_QUERIES {
            for &gb in &INPUT_SIZES_GB {
                let j = tpch_job(q, gb, JobId(0), SimTime::ZERO);
                assert!(j.validate().is_ok(), "q{q} at {gb}GB invalid");
                assert!(j.dag.len() >= 2, "q{q} too small");
                assert!(j.total_work() > 0.0);
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = tpch_job(9, 100.0, JobId(0), SimTime::ZERO);
        let b = tpch_job(9, 100.0, JobId(0), SimTime::ZERO);
        assert_eq!(a.total_work(), b.total_work());
        assert_eq!(a.dag.edges(), b.dag.edges());
    }

    #[test]
    fn queries_have_distinct_structures() {
        use std::collections::BTreeSet;
        let mut sigs = BTreeSet::new();
        for q in 1..=NUM_QUERIES {
            let j = tpch_job(q, 20.0, JobId(0), SimTime::ZERO);
            sigs.insert((j.dag.len(), j.dag.num_edges(), j.total_tasks()));
        }
        // At least half the queries must be structurally distinguishable.
        assert!(sigs.len() >= 11, "only {} distinct signatures", sigs.len());
    }

    #[test]
    fn task_counts_scale_with_input() {
        let small = tpch_job(9, 2.0, JobId(0), SimTime::ZERO);
        let large = tpch_job(9, 100.0, JobId(0), SimTime::ZERO);
        assert!(large.total_tasks() > 10 * small.total_tasks());
    }

    #[test]
    fn q9_parallelizes_better_than_q2() {
        let q9 = tpch_job(9, 100.0, JobId(0), SimTime::ZERO);
        let q2 = tpch_job(2, 100.0, JobId(0), SimTime::ZERO);
        // Figure 2: Q9@100G scales to ~40 tasks, Q2@100G to ~20.
        assert!(q9.inflation.knee > 1.8 * q2.inflation.knee);
        assert!((q9.inflation.knee - 40.0).abs() < 1.0);
        assert!((q2.inflation.knee - 20.0).abs() < 1.0);
        // Q9 on small input needs only a handful of tasks.
        let q9_small = tpch_job(9, 2.0, JobId(0), SimTime::ZERO);
        assert!(q9_small.inflation.knee <= 10.0);
        // Q9's biggest stage supports ≥40-way parallelism at 100 GB.
        let max_tasks = q9.stages.iter().map(|s| s.num_tasks).max().unwrap();
        assert!(max_tasks >= 40, "q9 max stage tasks = {max_tasks}");
    }

    #[test]
    fn task_scale_shrinks_jobs_consistently() {
        let full = tpch_job(9, 100.0, JobId(0), SimTime::ZERO);
        let scaled = tpch_job_scaled(9, 100.0, JobId(0), SimTime::ZERO, 8.0);
        assert_eq!(full.dag.edges(), scaled.dag.edges());
        assert!(full.total_tasks() > 6 * scaled.total_tasks());
        assert!(scaled.inflation.knee < full.inflation.knee);
    }

    #[test]
    fn work_distribution_is_heavy_tailed() {
        // Uniform (query, size) sampling: the paper reports 23% of jobs
        // carrying 82% of total work. Assert a strong heavy tail.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut works: Vec<f64> = (0..600)
            .map(|i| {
                let (q, s) = sample_query(&mut rng);
                tpch_job(q, s, JobId(i), SimTime::ZERO).total_work()
            })
            .collect();
        works.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = works.iter().sum();
        let top23: f64 = works[..works.len() * 23 / 100].iter().sum();
        assert!(
            top23 / total > 0.60,
            "top 23% of jobs only carry {:.0}% of work",
            100.0 * top23 / total
        );
    }

    #[test]
    fn random_memory_is_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let j = with_random_memory(tpch_job(5, 10.0, JobId(0), SimTime::ZERO), &mut rng);
        for s in &j.stages {
            assert!(s.mem_demand > 0.0 && s.mem_demand <= 1.0);
        }
    }

    #[test]
    #[should_panic]
    fn query_zero_panics() {
        let _ = tpch_job(0, 10.0, JobId(0), SimTime::ZERO);
    }
}
