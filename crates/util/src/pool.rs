//! The work-stealing job pool — the one scheduler in the workspace.
//!
//! Every parallel loop runs on [`run_stealing`]: the campaign driver
//! streams case records through it into its journal, and
//! [`par_map`](crate::par_map) is an order-restoring wrapper over it for
//! the bench sweeps. Beyond a fork-join map it gives the caller
//! backpressure, cancellation and results streamed out while the run goes:
//!
//! * **Per-worker deques with stealing.** Each worker owns a deque of item
//!   indices and refills it in blocks from a global cursor; when both are
//!   empty it steals the back half of the fullest victim's deque. Blocks
//!   amortise cursor contention at million-item scale, stealing keeps the
//!   pool busy when per-item cost is wildly uneven (one runaway case next
//!   to a thousand fast ones).
//! * **Bounded in-flight results.** Finished items stream through a
//!   `sync_channel` with a fixed bound to a sink running on the caller's
//!   thread — memory stays flat no matter how many items the run covers,
//!   and a slow sink (an fsyncing journal writer) throttles the workers
//!   instead of buffering unboundedly.
//! * **Graceful stop.** When `stop` becomes true, workers finish the item
//!   they are on, drain nothing more, and the run reports how many items
//!   completed. Nothing is lost: the sink has seen every completed item.
//!
//! The pool schedules *indices* (`0..n`); the caller maps them to work.
//! Item order is not preserved — sinks receive `(index, result)` pairs and
//! campaign aggregation is order-insensitive by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

/// Pool shape. `Default` sizes it for the current machine.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Indices claimed from the global cursor per refill.
    pub block: usize,
    /// Bound of the in-flight results channel (backpressure depth).
    pub queue_bound: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 0,
            block: 64,
            queue_bound: 256,
        }
    }
}

impl PoolConfig {
    fn resolved_workers(&self, items: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.clamp(1, items.max(1))
    }
}

/// What a [`run_stealing`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRun {
    /// Items completed (== `n` unless stopped early).
    pub completed: usize,
    /// Whether the stop flag cut the run short.
    pub stopped: bool,
    /// Successful steals (scheduler telemetry; 0 on single-worker runs).
    pub steals: u64,
}

/// Runs `work` over the index range `0..n` on a work-stealing pool,
/// streaming `(index, result)` pairs into `sink` on the caller's thread.
///
/// `work` runs on pool workers and must be panic-free (wrap fallible work
/// in `catch_unwind` and make the panic part of `R`, as
/// [`par_map`](crate::par_map) does). `sink` observes every
/// completed item exactly once, in completion order.
///
/// Setting `stop` (from the sink, a signal handler, any thread) makes
/// workers finish their current item and claim no more.
pub fn run_stealing<R: Send>(
    n: usize,
    cfg: &PoolConfig,
    stop: &AtomicBool,
    work: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) -> PoolRun {
    if n == 0 {
        return PoolRun {
            completed: 0,
            stopped: stop.load(Ordering::Relaxed),
            steals: 0,
        };
    }
    let workers = cfg.resolved_workers(n);
    let block = cfg.block.max(1);
    let cursor = AtomicUsize::new(0);
    let steals = AtomicU64::new(0);
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();

    let mut completed = 0usize;
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel::<(usize, R)>(cfg.queue_bound.max(1));
        let cursor = &cursor;
        let steals = &steals;
        let deques = &deques;
        let work = &work;
        for me in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let item = next_item(me, deques, cursor, steals, n, block);
                let Some(i) = item else { return };
                // A send only fails if the sink side is gone, which means
                // the scope is unwinding anyway — drop the result.
                if tx.send((i, work(i))).is_err() {
                    return;
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
        steals: steals.load(Ordering::Relaxed),
    }
}

/// Claims the next index for worker `me`: own deque, then a fresh block
/// from the global cursor, then half of the fullest victim's deque.
fn next_item(
    me: usize,
    deques: &[Mutex<VecDeque<usize>>],
    cursor: &AtomicUsize,
    steals: &AtomicU64,
    n: usize,
    block: usize,
) -> Option<usize> {
    if let Some(i) = deques[me].lock().unwrap().pop_front() {
        return Some(i);
    }
    // Refill from the global cursor in blocks.
    let start = cursor.fetch_add(block, Ordering::Relaxed);
    if start < n {
        let end = (start + block).min(n);
        let mut own = deques[me].lock().unwrap();
        own.extend(start + 1..end);
        return Some(start);
    }
    // Steal the back half of the fullest victim.
    loop {
        let victim = deques
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .max_by_key(|(_, d)| d.lock().unwrap().len())?;
        let mut stolen: VecDeque<usize> = {
            let mut d = victim.1.lock().unwrap();
            let keep = d.len() / 2;
            d.split_off(keep)
        };
        let Some(first) = stolen.pop_front() else {
            // Everyone is empty: either all work is claimed (done) or a
            // racing worker emptied the victim between the scan and the
            // lock — rescan until the pool is provably dry.
            if deques.iter().all(|d| d.lock().unwrap().is_empty())
                && cursor.load(Ordering::Relaxed) >= n
            {
                return None;
            }
            continue;
        };
        steals.fetch_add(1, Ordering::Relaxed);
        if !stolen.is_empty() {
            deques[me].lock().unwrap().append(&mut stolen);
        }
        return Some(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect_indices(n: usize, cfg: &PoolConfig) -> (Vec<usize>, PoolRun) {
        let stop = AtomicBool::new(false);
        let mut seen = Vec::new();
        let run = run_stealing(n, cfg, &stop, |i| i, |_, r| seen.push(r));
        (seen, run)
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for workers in [1, 2, 5] {
            let cfg = PoolConfig {
                workers,
                block: 7,
                queue_bound: 4,
            };
            let (seen, run) = collect_indices(1000, &cfg);
            assert_eq!(run.completed, 1000);
            assert!(!run.stopped);
            let unique: HashSet<usize> = seen.iter().copied().collect();
            assert_eq!(unique.len(), 1000, "workers={workers}: no dup, no loss");
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (seen, run) = collect_indices(0, &PoolConfig::default());
        assert!(seen.is_empty());
        assert_eq!(run.completed, 0);
    }

    #[test]
    fn stealing_happens_under_skewed_cost() {
        // Give worker 0 a long item first; with a block size covering most
        // of the range, the other workers must steal to finish.
        let cfg = PoolConfig {
            workers: 4,
            block: 400,
            queue_bound: 16,
        };
        let stop = AtomicBool::new(false);
        let mut done = 0usize;
        let run = run_stealing(
            500,
            &cfg,
            &stop,
            |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            },
            |_, _| done += 1,
        );
        assert_eq!(done, 500);
        assert!(
            run.steals > 0,
            "victims with long deques must get robbed: {run:?}"
        );
    }

    #[test]
    fn stop_flag_cuts_the_run_short_but_loses_nothing_seen() {
        let cfg = PoolConfig {
            workers: 2,
            block: 1,
            queue_bound: 1,
        };
        let stop = AtomicBool::new(false);
        let mut seen = HashSet::new();
        let run = run_stealing(
            10_000,
            &cfg,
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
        let cfg = PoolConfig {
            workers: 1,
            block: 3,
            queue_bound: 2,
        };
        let (seen, _) = collect_indices(20, &cfg);
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }
}
