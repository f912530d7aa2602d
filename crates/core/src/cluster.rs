//! Cluster specification: executor classes and counts.
//!
//! In the single-resource setting (§7.2) the cluster is a set of identical
//! executor slots. In the multi-resource setting (§7.3) the cluster offers
//! several *discrete executor classes* with different memory capacities
//! (the paper uses four classes with 0.25/0.5/0.75/1.0 units of normalized
//! memory, 25% of the slots each); a task only fits an executor whose
//! memory is at least the task's demand.

use crate::ids::ClassId;
use serde::{Deserialize, Serialize};

/// One class of executors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecutorClass {
    /// Normalized memory capacity in `(0, 1]`.
    pub memory: f64,
    /// Number of executor slots of this class.
    pub count: usize,
}

/// The cluster: its executor classes and executor-motion cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Executor classes. Single-resource clusters have exactly one class
    /// with `memory = 1.0`.
    pub classes: Vec<ExecutorClass>,
    /// Seconds of dead time when an executor moves between jobs (JVM
    /// teardown + launch, §6.2 item 2). `0.0` models free motion
    /// (Figure 13b).
    pub move_delay: f64,
}

impl ClusterSpec {
    /// A single-resource cluster of `n` identical executors with the
    /// paper's default ~2.5 s executor-motion delay.
    pub fn homogeneous(n: usize) -> Self {
        ClusterSpec {
            classes: vec![ExecutorClass {
                memory: 1.0,
                count: n,
            }],
            move_delay: 2.5,
        }
    }

    /// The paper's four-class multi-resource cluster (§7.3): memory
    /// capacities 0.25/0.5/0.75/1.0, each class 25% of `total` slots.
    pub fn four_class(total: usize) -> Self {
        let per = (total / 4).max(1);
        ClusterSpec {
            classes: [0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&memory| ExecutorClass { memory, count: per })
                .collect(),
            move_delay: 2.5,
        }
    }

    /// Overrides the executor-motion delay.
    pub fn with_move_delay(mut self, secs: f64) -> Self {
        self.move_delay = secs;
        self
    }

    /// Total executor slots across classes.
    pub fn total_executors(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Memory capacity of a class.
    pub fn class_memory(&self, class: ClassId) -> f64 {
        self.classes[class.index()].memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster() {
        let c = ClusterSpec::homogeneous(50);
        assert_eq!(c.total_executors(), 50);
        assert_eq!(c.num_classes(), 1);
        assert_eq!(c.class_memory(ClassId(0)), 1.0);
    }

    #[test]
    fn four_class_cluster() {
        let c = ClusterSpec::four_class(100);
        assert_eq!(c.total_executors(), 100);
        assert_eq!(c.num_classes(), 4);
        assert_eq!(c.class_memory(ClassId(2)), 0.75);
    }

    #[test]
    fn move_delay_override() {
        let c = ClusterSpec::homogeneous(10).with_move_delay(0.0);
        assert_eq!(c.move_delay, 0.0);
    }
}
