//! The one level of parallelism: independent items, never one query.
//!
//! A query always runs on the calling thread. Workloads made of many small,
//! independent queries (grading a corpus, simulating a study, a session's
//! batch) fan their *items* out through [`batch_map`], a small pool of
//! scoped `std::thread` workers that pull item indices from a shared atomic
//! cursor — a slow item never idles the rest of the pool. Results are
//! reassembled by index, so the output is **independent of scheduling**:
//! byte-identical at every thread count.
//!
//! Error semantics match a serial loop: when items fail, the error reported
//! is the one from the earliest item (workers claim items in index order, so
//! every item before a failed one has completed), and remaining unclaimed
//! items are abandoned.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{scope, Mutex, OnceLock};

/// Number of worker threads the host machine supports; the default for
/// [`crate::physical::ExecOptions::threads`], i.e. the default size of the
/// [`batch_map`] item pool. Cached: `ExecOptions` is constructed per
/// `Database::execute` call, and `available_parallelism` is documented as
/// potentially expensive (syscall + cgroup reads).
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `work(index)` for every index in `0..count` on up to `threads`
/// work-stealing workers and return the results **in input order**.
///
/// Each task is one whole independent item (e.g. one grading item, one
/// study participant), and runs its queries on the worker that claimed it.
/// The first error in task order wins, exactly as a serial loop would
/// report it. `threads <= 1` (or a single task) runs inline on the calling
/// thread with zero spawn overhead.
///
/// Tasks must be independent: the driver gives no ordering guarantee about
/// *when* tasks run relative to each other, only about how their results
/// (and errors) are surfaced.
pub fn batch_map<R, E, F>(threads: usize, count: usize, work: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The failure check happens *before* claiming an index, and
                // a claimed index is always executed and its slot filled.
                // If the check came after the claim, a worker could claim
                // index i, observe `failed` set by a faster later-indexed
                // task, and abandon slots[i] — leaving a hole *before* the
                // earliest error and breaking the collection invariant
                // below.
                //
                // Release/Acquire on the flag orders the early-exit
                // decision after the store that caused it: a worker that
                // observes `failed` is guaranteed to also observe every
                // slot write the failing worker published before setting
                // it, so the None-suffix invariant is not
                // schedule-dependent (the sanitizer flags the Relaxed
                // version of this read-then-act pair).
                if failed.load(Ordering::Acquire) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = work(i);
                if result.is_err() {
                    failed.store(true, Ordering::Release);
                }
                *slots[i].lock().expect("batch slot lock") = Some(result);
            });
        }
    });
    // Indices are claimed monotonically and every claimed slot is filled,
    // so abandoned (None) slots are exactly the never-claimed suffix — all
    // after the earliest error, whose own slot is filled.
    let mut out = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner().expect("batch slot lock") {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            None => unreachable!("unfilled slot before the first error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_task_order_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let out: Vec<usize> =
                batch_map(threads, 37, |i| Ok::<_, ()>(i * 2)).expect("no errors");
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn earliest_error_wins() {
        for threads in [1usize, 4] {
            let err =
                batch_map::<usize, usize, _>(threads, 64, |i| if i >= 10 { Err(i) } else { Ok(i) })
                    .expect_err("tasks fail from index 10");
            assert_eq!(err, 10, "threads={threads}");
        }
    }

    #[test]
    fn error_path_never_abandons_a_slot_before_the_error() {
        // Regression: a worker that claimed index i must fill slots[i] even
        // when a faster later-indexed task has already set `failed` —
        // otherwise collection panics on a None slot before the first Err.
        // Slow even tasks + a fast early error maximize that window.
        for round in 0usize..200 {
            let fail_from = round % 8 + 1;
            let err = batch_map::<usize, usize, _>(8, 64, |i| {
                if i % 2 == 0 && i > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                if i >= fail_from {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .expect_err("tasks fail early");
            assert_eq!(err, fail_from, "round={round}");
        }
    }
}
