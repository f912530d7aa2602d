//! Fluent construction of a [`ScenarioSpec`].

use super::spec::{
    LineupEntry, ParamValue, ReportKind, ScenarioSpec, SchedulerSpec, SeedPlan, SimSpec, TrainSpec,
};
use decima_workload::WorkloadSpec;

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
    pub(super) spec: ScenarioSpec,
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
