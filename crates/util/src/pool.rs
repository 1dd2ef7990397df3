//! The self-scheduling job pool — the one scheduler in the workspace.
//!
//! Every parallel loop runs on [`run_pool`]: the campaign driver streams
//! case records through it into its journal, and
//! [`par_map`](crate::par_map) is an order-restoring wrapper over it for
//! the bench sweeps. Beyond a fork-join map it gives the caller
//! backpressure, cancellation and results streamed out while the run goes:
//!
//! * **One shared cursor.** Every worker claims its next index from one
//!   atomic cursor, one index at a time, so no worker ever holds a private
//!   queue behind a slow item: while one worker is stuck on a runaway case
//!   the others keep claiming the rest. The measured traffic — campaign
//!   cases of about a millisecond each, a few hundred to a few thousand
//!   per run on two to four workers — puts no pressure on the cursor.
//! * **Bounded in-flight results.** Finished items stream through a
//!   `sync_channel` with a fixed bound to a sink running on the caller's
//!   thread — memory stays flat no matter how many items the run covers,
//!   and a slow sink (an fsyncing journal writer) throttles the workers
//!   instead of buffering unboundedly.
//! * **Graceful stop.** When `stop` becomes true, workers finish the item
//!   they are on, claim nothing more, and the run reports how many items
//!   completed. Nothing is lost: the sink has seen every completed item.
//!
//! The pool schedules *indices* (`0..n`); the caller maps them to work.
//! Item order is not preserved — sinks receive `(index, result)` pairs and
//! campaign aggregation is order-insensitive by construction. A single
//! worker runs the indices in order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Bound of the in-flight results channel (backpressure depth).
const QUEUE_BOUND: usize = 256;

/// What a [`run_pool`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRun {
    /// Items completed (== `n` unless stopped early).
    pub completed: usize,
    /// Whether the stop flag cut the run short.
    pub stopped: bool,
}

/// Runs `work` over the index range `0..n` on `workers` threads (`0` means
/// one per available core), streaming `(index, result)` pairs into `sink`
/// on the caller's thread.
///
/// `work` runs on pool workers and must be panic-free (wrap fallible work
/// in `catch_unwind` and make the panic part of `R`, as
/// [`par_map`](crate::par_map) does). `sink` observes every
/// completed item exactly once, in completion order.
///
/// Setting `stop` (from the sink, a signal handler, any thread) makes
/// workers finish their current item and claim no more.
pub fn run_pool<R: Send>(
    n: usize,
    workers: usize,
    stop: &AtomicBool,
    work: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) -> PoolRun {
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        workers
    };
    // The cursor only hands out indices and publishes no data, so its
    // increments can be relaxed.
    let cursor = AtomicUsize::new(0);
    let mut completed = 0usize;
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel::<(usize, R)>(QUEUE_BOUND);
        let (cursor, work) = (&cursor, &work);
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    // A send only fails if the sink side is gone, which
                    // means the scope is unwinding anyway.
                    if i >= n || tx.send((i, work(i))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            completed += 1;
            sink(i, r);
        }
    });
    PoolRun {
        completed,
        stopped: stop.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    fn collect_indices(n: usize, workers: usize) -> (Vec<usize>, PoolRun) {
        let stop = AtomicBool::new(false);
        let mut seen = Vec::new();
        let run = run_pool(n, workers, &stop, |i| i, |_, r| seen.push(r));
        (seen, run)
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for workers in [1, 2, 5] {
            let (seen, run) = collect_indices(1000, workers);
            assert_eq!(run.completed, 1000);
            assert!(!run.stopped);
            let unique: HashSet<usize> = seen.iter().copied().collect();
            assert_eq!(unique.len(), 1000, "workers={workers}: no dup, no loss");
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (seen, run) = collect_indices(0, 0);
        assert!(seen.is_empty());
        assert_eq!(run.completed, 0);
    }

    #[test]
    fn a_slow_item_never_holds_the_rest_back() {
        // Item 0 spins until the sink has counted the other 99: if any of
        // them were queued behind it, the run would only end at the guard.
        const N: usize = 100;
        let others = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let mut order = Vec::new();
        let run = run_pool(
            N,
            2,
            &stop,
            |i| {
                let guard = Instant::now() + Duration::from_secs(10);
                while i == 0 && others.load(Ordering::SeqCst) < N - 1 && Instant::now() < guard {
                    std::thread::yield_now();
                }
                i
            },
            |i, _| {
                if i != 0 {
                    others.fetch_add(1, Ordering::SeqCst);
                }
                order.push(i);
            },
        );
        assert_eq!(run.completed, N, "every item completes");
        assert_eq!(order.last(), Some(&0), "the slow item arrives last");
    }

    #[test]
    fn stop_flag_cuts_the_run_short_but_loses_nothing_seen() {
        let stop = AtomicBool::new(false);
        let mut seen = HashSet::new();
        let run = run_pool(
            10_000,
            2,
            &stop,
            |i| i,
            |_, r| {
                seen.insert(r);
                if seen.len() == 25 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        );
        assert!(run.stopped);
        assert!(run.completed >= 25, "the stop request itself was observed");
        assert!(
            run.completed < 10_000,
            "run must actually stop early, completed {}",
            run.completed
        );
        assert_eq!(seen.len(), run.completed, "sink saw every completed item");
    }

    #[test]
    fn single_worker_matches_sequential_order() {
        let (seen, _) = collect_indices(20, 1);
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }
}
