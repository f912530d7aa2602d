//! Job and stage specifications.
//!
//! A [`JobSpec`] is the static description of one DAG-structured job: its
//! topology, per-stage task counts and duration statistics, per-task memory
//! demand (multi-resource setting, §7.3), and the job's
//! parallelism-inflation curve, which models how per-task durations grow
//! when the job runs at high parallelism (wider shuffles, merge overheads —
//! §6.2 item 3 and Figure 2 of the paper).

use crate::dag::DagTopology;
use crate::ids::JobId;
use crate::time::SimTime;

/// Static description of one stage (DAG node).
#[derive(Clone, Debug, PartialEq)]
pub struct StageSpec {
    /// Number of parallel tasks in the stage (≥ 1).
    pub num_tasks: u32,
    /// Mean duration of one task, in seconds, for steady-state ("later
    /// wave") tasks at the reference parallelism.
    pub task_duration: f64,
    /// Multiplier applied to the first task an executor runs on this stage
    /// (pipelining / JIT / warm-up effects, §6.2 item 1). `1.0` disables.
    pub first_wave_factor: f64,
    /// Normalized memory demand in `[0, 1]`. A task only fits executors
    /// whose class memory is `>= mem_demand`. `0.0` fits everywhere
    /// (single-resource setting).
    pub mem_demand: f64,
}

impl StageSpec {
    /// A stage with `num_tasks` tasks of `task_duration` seconds each and no
    /// first-wave slowdown or memory demand.
    pub fn simple(num_tasks: u32, task_duration: f64) -> Self {
        StageSpec {
            num_tasks,
            task_duration,
            first_wave_factor: 1.0,
            mem_demand: 0.0,
        }
    }

    /// Total work in the stage (task-seconds, later-wave durations).
    #[inline]
    pub fn work(&self) -> f64 {
        self.num_tasks as f64 * self.task_duration
    }
}

/// How per-task durations inflate as a job's parallelism grows.
///
/// `factor(p) = 1 + gamma * max(0, p - knee) / p_ref`.
///
/// Below the `knee` the job parallelizes freely; beyond it, per-task
/// durations grow linearly (wider shuffles, more merge work — §6.2
/// item 3). The knee is the job's parallelism "sweet spot" from Figure 2:
/// with `gamma/p_ref` large enough, adding executors past the knee stops
/// reducing (and eventually increases) stage runtime. `gamma = 0` disables
/// inflation entirely (the Appendix H simplified setting). The paper's
/// simulator samples empirical per-parallelism distributions; a kneed
/// linear curve is the first-order shape of those measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InflationCurve {
    /// Slope of the inflation (0 = no inflation).
    pub gamma: f64,
    /// Parallelism increment over the knee at which inflation reaches
    /// `1 + gamma`.
    pub p_ref: f64,
    /// Parallelism level up to which the job scales without penalty.
    pub knee: f64,
}

impl InflationCurve {
    /// No work inflation at any parallelism.
    pub const NONE: InflationCurve = InflationCurve {
        gamma: 0.0,
        p_ref: 1.0,
        knee: 0.0,
    };

    /// The inflation multiplier at parallelism `p` (≥ 1.0 always).
    #[inline]
    pub fn factor(&self, parallelism: usize) -> f64 {
        if self.gamma == 0.0 {
            return 1.0;
        }
        let p = parallelism.max(1) as f64;
        1.0 + self.gamma * (p - self.knee.max(1.0)).max(0.0) / self.p_ref.max(1.0)
    }
}

/// Static description of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Dense job identifier within the episode.
    pub id: JobId,
    /// Arrival time of the job.
    pub arrival: SimTime,
    /// Dependency structure over `stages`.
    pub dag: DagTopology,
    /// Per-stage static attributes; `stages.len() == dag.len()`.
    pub stages: Vec<StageSpec>,
    /// Work-inflation curve applied to all stages of this job.
    pub inflation: InflationCurve,
}

/// Errors raised when validating a [`JobSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// `stages.len()` does not match `dag.len()`.
    StageCountMismatch {
        /// Node count of the DAG.
        dag: usize,
        /// Number of stage specs supplied.
        stages: usize,
    },
    /// A stage has zero tasks.
    EmptyStage {
        /// Index of the offending stage.
        stage: usize,
    },
    /// A stage has a non-positive or non-finite task duration.
    BadDuration {
        /// Index of the offending stage.
        stage: usize,
    },
    /// A stage's memory demand is outside `[0, 1]`.
    BadMemDemand {
        /// Index of the offending stage.
        stage: usize,
    },
}

impl std::fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSpecError::StageCountMismatch { dag, stages } => {
                write!(f, "dag has {dag} nodes but {stages} stage specs given")
            }
            JobSpecError::EmptyStage { stage } => write!(f, "stage {stage} has zero tasks"),
            JobSpecError::BadDuration { stage } => {
                write!(f, "stage {stage} has non-positive task duration")
            }
            JobSpecError::BadMemDemand { stage } => {
                write!(f, "stage {stage} memory demand outside [0,1]")
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

impl JobSpec {
    /// Validates internal consistency. Called by the simulator on ingest.
    pub fn validate(&self) -> Result<(), JobSpecError> {
        if self.stages.len() != self.dag.len() {
            return Err(JobSpecError::StageCountMismatch {
                dag: self.dag.len(),
                stages: self.stages.len(),
            });
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.num_tasks == 0 {
                return Err(JobSpecError::EmptyStage { stage: i });
            }
            if !(s.task_duration.is_finite() && s.task_duration > 0.0) {
                return Err(JobSpecError::BadDuration { stage: i });
            }
            if !(0.0..=1.0).contains(&s.mem_demand) {
                return Err(JobSpecError::BadMemDemand { stage: i });
            }
        }
        Ok(())
    }

    /// Total work of the job in task-seconds (later-wave durations, no
    /// inflation). This is the `T_i` used by the weighted-fair baselines.
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(StageSpec::work).sum()
    }

    /// Total number of tasks across all stages.
    pub fn total_tasks(&self) -> u64 {
        self.stages.iter().map(|s| s.num_tasks as u64).sum()
    }

    /// Per-stage work vector (task-seconds).
    pub fn stage_work(&self) -> Vec<f64> {
        self.stages.iter().map(StageSpec::work).collect()
    }

    /// Critical-path length through the DAG, where each node's weight is
    /// its total work (the SJF-CP baseline's per-node priority input).
    pub fn critical_path_len(&self) -> f64 {
        self.dag.critical_path_len(&self.stage_work())
    }

    /// Per-node critical-path values (total work metric).
    pub fn critical_path(&self) -> Vec<f64> {
        self.dag.critical_path(&self.stage_work())
    }
}

/// Fluent builder for [`JobSpec`], used heavily by workload generators and
/// tests.
#[derive(Debug)]
pub struct JobBuilder {
    id: JobId,
    arrival: SimTime,
    stages: Vec<StageSpec>,
    edges: Vec<(u32, u32)>,
    inflation: InflationCurve,
}

impl JobBuilder {
    /// Starts a new job with the given id.
    pub fn new(id: JobId) -> Self {
        JobBuilder {
            id,
            arrival: SimTime::ZERO,
            stages: Vec::new(),
            edges: Vec::new(),
            inflation: InflationCurve::NONE,
        }
    }

    /// Sets the arrival time.
    pub fn arrival(mut self, t: SimTime) -> Self {
        self.arrival = t;
        self
    }

    /// Sets the inflation curve.
    pub fn inflation(mut self, curve: InflationCurve) -> Self {
        self.inflation = curve;
        self
    }

    /// Appends a stage, returning its index.
    pub fn stage(&mut self, spec: StageSpec) -> u32 {
        self.stages.push(spec);
        (self.stages.len() - 1) as u32
    }

    /// Adds a dependency edge `parent -> child`.
    pub fn edge(&mut self, parent: u32, child: u32) -> &mut Self {
        self.edges.push((parent, child));
        self
    }

    /// Finalizes into a validated [`JobSpec`] whose `stages` hold no spare
    /// capacity: a spec may stay resident for a whole arrival stream.
    pub fn build(mut self) -> Result<JobSpec, Box<dyn std::error::Error>> {
        let dag = DagTopology::new(self.stages.len(), &self.edges)?;
        self.stages.shrink_to_fit();
        let job = JobSpec {
            id: self.id,
            arrival: self.arrival,
            dag,
            stages: self.stages,
            inflation: self.inflation,
        };
        job.validate()?;
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_job() -> JobSpec {
        let mut b = JobBuilder::new(JobId(0));
        let a = b.stage(StageSpec::simple(4, 2.0));
        let c = b.stage(StageSpec::simple(2, 3.0));
        b.edge(a, c);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_job() {
        let j = two_stage_job();
        assert_eq!(j.total_work(), 4.0 * 2.0 + 2.0 * 3.0);
        assert_eq!(j.total_tasks(), 6);
        assert_eq!(j.critical_path_len(), 14.0);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_stages() {
        let mut b = JobBuilder::new(JobId(0));
        b.stage(StageSpec::simple(0, 1.0));
        assert!(matches!(
            b.build().unwrap_err().downcast_ref::<JobSpecError>(),
            Some(JobSpecError::EmptyStage { stage: 0 })
        ));

        let mut b = JobBuilder::new(JobId(0));
        b.stage(StageSpec::simple(1, -1.0));
        assert!(b.build().is_err());

        let mut b = JobBuilder::new(JobId(0));
        b.stage(StageSpec {
            mem_demand: 1.5,
            ..StageSpec::simple(1, 1.0)
        });
        assert!(b.build().is_err());
    }

    #[test]
    fn inflation_curve_shapes() {
        let none = InflationCurve::NONE;
        assert_eq!(none.factor(1), 1.0);
        assert_eq!(none.factor(100), 1.0);

        let c = InflationCurve {
            gamma: 0.5,
            p_ref: 10.0,
            knee: 1.0,
        };
        assert_eq!(c.factor(1), 1.0);
        assert!((c.factor(11) - 1.5).abs() < 1e-12);
        // Monotone non-decreasing in p.
        let mut prev = 0.0;
        for p in 1..200 {
            let f = c.factor(p);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn inflation_knee_is_penalty_free_below() {
        let c = InflationCurve {
            gamma: 1.2,
            p_ref: 10.0,
            knee: 20.0,
        };
        for p in 1..=20 {
            assert_eq!(c.factor(p), 1.0, "p={p} should be free");
        }
        assert!(c.factor(30) > 1.0);
        assert!((c.factor(30) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn critical_path_per_node() {
        let j = two_stage_job();
        let cp = j.critical_path();
        assert_eq!(cp, vec![14.0, 6.0]);
    }
}
