//! The event queue: events, their deterministic `(time, seq)` order,
//! the one `push` that stamps sequence numbers, and the arrival cursor.

use decima_core::{ExecutorId, JobId, SimTime};
use std::cmp::{Ordering, Reverse};
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
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for QueuedEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pending events in `(time, seq)` order; same-time events pop in push
/// order.
///
/// Every arrival is known when the episode starts, so arrivals never
/// enter the heap: they sit in one vector sorted by time (equal times in
/// id order) and are read through a cursor, and the heap holds only the
/// events the run itself pushes. The arrivals count as pushed first —
/// before every heap event, in vector order — so an arrival wins every
/// tie with a heap event, exactly as if all of them shared one heap.
#[derive(Default)]
pub(super) struct EventQueue {
    arrivals: Vec<(SimTime, JobId)>,
    /// Index of the next arrival to pop.
    next_arrival: usize,
    heap: BinaryHeap<Reverse<QueuedEv>>,
    seq: u64,
    /// High-water mark of the pending events: the heap plus the arrivals
    /// not yet popped.
    hwm: u64,
}

impl EventQueue {
    /// A queue holding `arrivals`, stable-sorted by time so that equal
    /// times keep the order given (the engine passes id order).
    pub(super) fn with_arrivals(mut arrivals: Vec<(SimTime, JobId)>) -> Self {
        #[expect(
            clippy::unnecessary_sort_by,
            reason = "`Ord`, as in the heap: `sort_by_key` compares with `<`, \
                      for which `-0.0` and `0.0` are equal"
        )]
        arrivals.sort_by(|a, b| a.0.cmp(&b.0));
        EventQueue {
            hwm: arrivals.len() as u64,
            arrivals,
            ..EventQueue::default()
        }
    }

    #[inline]
    pub(super) fn push(&mut self, time: SimTime, ev: Ev) {
        let seq = self.seq;
        self.heap.push(Reverse(QueuedEv { time, seq, ev }));
        self.seq += 1;
        let pending = self.heap.len() + self.arrivals.len() - self.next_arrival;
        self.hwm = self.hwm.max(pending as u64);
    }

    /// The next arrival if it pops before the heap's top: at equal times
    /// it does, having been pushed first.
    #[inline]
    fn arrival_first(&self) -> Option<(SimTime, JobId)> {
        let &(t, j) = self.arrivals.get(self.next_arrival)?;
        match self.heap.peek() {
            Some(Reverse(q)) if t.cmp(&q.time) == Ordering::Greater => None,
            _ => Some((t, j)),
        }
    }

    #[inline]
    pub(super) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        if let Some((t, j)) = self.arrival_first() {
            self.next_arrival += 1;
            return Some((t, Ev::Arrival(j)));
        }
        self.heap.pop().map(|Reverse(q)| (q.time, q.ev))
    }

    /// Time of the next event, if any.
    #[inline]
    pub(super) fn next_time(&self) -> Option<SimTime> {
        match self.arrival_first() {
            Some((t, _)) => Some(t),
            None => self.heap.peek().map(|Reverse(q)| q.time),
        }
    }

    pub(super) fn hwm(&self) -> u64 {
        self.hwm
    }
}
