//! The one place in the workspace that starts a thread: an ordered
//! parallel map over independent tasks.
//!
//! Every parallel site — training rollouts and gradient batches (§5.3,
//! Algorithm 1), seed-parallel evaluation, the fleet's shard episodes —
//! is the same operation: run N pure tasks, return the results in input
//! order, surface a task panic on the caller. Results are placed by
//! slot, so with pure tasks the output is bit-identical to a sequential
//! map whatever the thread count or claim order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Maps `f` over `items` on up to `threads` threads (clamped to
/// `1..=items.len()`; the calling thread is one of them) and returns
/// the results in input order.
///
/// Workers claim items one at a time, so a slow early item does not
/// hold later ones back. A panicking task does not stop the others:
/// every item runs and every worker joins, then the panic of the
/// lowest slot is re-raised on the caller with its original payload.
pub fn ordered_map<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let width = threads.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    // The lock is held only across `next()` of a `Vec` iterator, which
    // cannot panic; a poisoned lock therefore still guards a valid queue.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((slot, item)) = claim() {
            done.push((slot, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
        done
    };
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = (1..width).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_by_key(|(slot, _)| *slot);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// With two or more threads item 0 is the slow one: it returns only
    /// after every other item has finished, which a static split of the
    /// items would deadlock on.
    #[test]
    fn matches_the_sequential_map_even_when_early_items_are_slow() {
        for threads in [1, 2, 7] {
            for n in [0usize, 1, 5, 64] {
                let (tx, rx) = mpsc::channel::<()>();
                let rx = Mutex::new(rx);
                let out = ordered_map(threads, (0..n).collect(), |i| {
                    if threads > 1 && i == 0 {
                        let rx = rx.lock().unwrap();
                        (1..n).for_each(|_| rx.recv().unwrap());
                    } else if threads > 1 {
                        tx.send(()).unwrap();
                    }
                    i * i + 1
                });
                let sequential: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
                assert_eq!(out, sequential, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn width_clamps_to_one_and_to_the_item_count() {
        let ids = |threads, n: usize| -> BTreeSet<String> {
            ordered_map(threads, (0..n).collect(), |_: usize| {
                format!("{:?}", thread::current().id())
            })
            .into_iter()
            .collect()
        };
        let here = format!("{:?}", thread::current().id());
        assert_eq!(ids(0, 6), BTreeSet::from([here]), "0 threads runs inline");
        assert!(ids(7, 2).len() <= 2, "never more threads than items");
    }

    #[test]
    fn a_task_panic_reaches_the_caller_after_every_other_item_ran() {
        for threads in [1, 3] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_map(threads, (0..8).collect(), |i: usize| {
                    if i == 3 || i == 6 {
                        panic!("boom {i}");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = caught.expect_err("the panic must surface");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("boom 3"), "lowest slot, original payload");
            assert_eq!(ran.load(Ordering::SeqCst), 6, "threads={threads}");
        }
    }

    #[test]
    fn a_call_after_a_caught_panic_returns_clean_results() {
        let bad = catch_unwind(|| ordered_map(2, vec![1, 2, 3], |i| assert!(i != 2)));
        assert!(bad.is_err());
        assert_eq!(ordered_map(2, vec![40, 41, 42], |i| i + 1), [41, 42, 43]);
    }
}
