//! The event queue: events, their deterministic `(time, seq)` order,
//! and the one `push` that stamps sequence numbers.

use decima_core::{ExecutorId, JobId, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator events. Executor-bound events carry the executor's epoch
/// at push time: churn interrupts bump the epoch, so a stale
/// `TaskDone`/`ExecReady` for a since-interrupted assignment is
/// recognized and dropped when it pops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Ev {
    /// A job becomes visible to the scheduler.
    Arrival(JobId),
    /// A running task finishes on an executor.
    TaskDone(ExecutorId, u32),
    /// A moving executor arrives at its destination job.
    ExecReady(ExecutorId, u32),
    /// Cluster-dynamics churn tick: maybe take an executor offline and
    /// schedule the next tick.
    ChurnTick,
    /// An offline executor's outage ends.
    ExecOnline(ExecutorId),
    /// A drift phase boundary passes: subsequent arrivals, completions,
    /// and cost accrue to the next phase. Never scheduled unless
    /// `SimConfig::phase_boundaries` is non-empty.
    PhaseBoundary,
}

/// Heap entry ordered by `(time, seq)` for deterministic tie-breaking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueuedEv {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for QueuedEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for QueuedEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of pending events. Same-time events pop in push order.
#[derive(Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEv>>,
    seq: u64,
    /// High-water mark of `heap.len()`. The backing storage is never
    /// shrunk (`BinaryHeap` keeps its capacity across pop/push), so this
    /// is exactly the retained allocation in heap entries.
    hwm: u64,
}

impl EventQueue {
    #[inline]
    pub(super) fn push(&mut self, time: SimTime, ev: Ev) {
        let seq = self.seq;
        self.heap.push(Reverse(QueuedEv { time, seq, ev }));
        self.seq += 1;
        self.hwm = self.hwm.max(self.heap.len() as u64);
    }

    #[inline]
    pub(super) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|Reverse(q)| (q.time, q.ev))
    }

    /// Time of the next event, if any.
    #[inline]
    pub(super) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(q)| q.time)
    }

    pub(super) fn hwm(&self) -> u64 {
        self.hwm
    }
}
