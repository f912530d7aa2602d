//! Per-phase drift accounting.
//!
//! Drifting workloads (see `decima-workload`'s `drift` module) divide an
//! episode into *phases* at configured boundary times. The engine turns
//! each boundary into a `PhaseBoundary` event and attributes arrivals,
//! completions, and objective cost to the phase in which they occur, so
//! experiments can report per-phase regret without re-deriving phases
//! from job timestamps.
//!
//! Determinism contract: with no boundaries configured (the default) the
//! counters stay empty, no events are scheduled, and the engine is
//! bit-identical to the drift-free build — `EpisodeResult::same_run`
//! includes these counters in its comparison precisely because they are
//! a deterministic function of `(spec, seed)`.

/// Per-phase counters for one episode. All vectors have length
/// `phases` (`boundaries + 1`); everything is empty when no phase
/// boundaries were configured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftCounters {
    /// Number of phases the episode was divided into (0 = drift off).
    pub phases: u64,
    /// Jobs whose arrival was materialized in each phase.
    pub arrivals_by_phase: Vec<u64>,
    /// Jobs that completed in each phase (dynamics-killed jobs are not
    /// completions and are counted nowhere).
    pub completions_by_phase: Vec<u64>,
    /// Objective cost (the same integral `total_penalty()` sums) accrued
    /// in each phase; the entries sum to the episode's total penalty.
    pub cost_by_phase: Vec<f64>,
}

impl DriftCounters {
    /// Counters sized for `boundaries` phase boundaries.
    pub fn with_boundaries(boundaries: usize) -> Self {
        let phases = boundaries + 1;
        DriftCounters {
            phases: phases as u64,
            arrivals_by_phase: vec![0; phases],
            completions_by_phase: vec![0; phases],
            cost_by_phase: vec![0.0; phases],
        }
    }

    /// One row per phase: the three per-phase counters by name, in the
    /// order reports list them (cost, arrivals, completions).
    pub fn phase_rows(&self) -> Vec<[(&'static str, f64); 3]> {
        let row = |i: usize| {
            [
                ("cost_by_phase", self.cost_by_phase[i]),
                ("arrivals_by_phase", self.arrivals_by_phase[i] as f64),
                ("completions_by_phase", self.completions_by_phase[i] as f64),
            ]
        };
        (0..self.phases as usize).map(row).collect()
    }

    /// Whether any phase accounting is active.
    pub fn enabled(&self) -> bool {
        self.phases > 0
    }

    /// Total materialized arrivals across phases.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals_by_phase.iter().sum()
    }

    /// Total completions across phases.
    pub fn total_completions(&self) -> u64 {
        self.completions_by_phase.iter().sum()
    }

    /// Total objective cost across phases.
    pub fn total_cost(&self) -> f64 {
        self.cost_by_phase.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_empty() {
        let c = DriftCounters::default();
        assert!(!c.enabled());
        assert_eq!(c.phases, 0);
        assert!(c.arrivals_by_phase.is_empty());
        assert_eq!(c.total_arrivals(), 0);
        assert_eq!(c.total_cost(), 0.0);
    }

    #[test]
    fn sized_counters_cover_every_phase() {
        let c = DriftCounters::with_boundaries(2);
        assert!(c.enabled());
        assert_eq!(c.phases, 3);
        assert_eq!(c.arrivals_by_phase.len(), 3);
        assert_eq!(c.completions_by_phase.len(), 3);
        assert_eq!(c.cost_by_phase.len(), 3);
    }

    #[test]
    fn totals_sum_phases() {
        let mut c = DriftCounters::with_boundaries(1);
        c.arrivals_by_phase[0] = 3;
        c.arrivals_by_phase[1] = 4;
        c.completions_by_phase[1] = 5;
        c.cost_by_phase[0] = 1.5;
        c.cost_by_phase[1] = 2.5;
        assert_eq!(c.total_arrivals(), 7);
        assert_eq!(c.total_completions(), 5);
        assert_eq!(c.total_cost(), 4.0);
    }
}
