//! An order-preserving parallel map over the job pool.
//!
//! The bench sweep harness needs nothing more than a fork-join map, so
//! [`par_map`] is a thin wrapper over [`run_pool`]: each item runs under
//! `catch_unwind`, and the results are put back into input order once
//! every item has finished.
//! Panics are contained per *item*, not per worker, so one panicking item
//! never takes down the rest of the sweep; [`par_map`] re-panics afterwards
//! with the lowest-index item's message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;

use crate::pool::run_pool;

/// Renders a `catch_unwind` payload as a message.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Applies `f` to every item on the job pool (one worker per
/// available core) and collects the results in input order — exactly the
/// output of a sequential `items.iter().map(f).collect()`.
///
/// # Panics
///
/// If `f` panicked for any item, re-panics with `item {i} panicked: …` for
/// the lowest such index — but only after every *other* item has
/// completed, so one bad item cannot poison unrelated work.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<std::thread::Result<R>>> = (0..items.len()).map(|_| None).collect();
    // `f` is `Fn`, shared by reference: catching a panic cannot observe
    // broken invariants in it, so the unwind-safety assertion is sound.
    run_pool(
        items.len(),
        0,
        &AtomicBool::new(false),
        |i| catch_unwind(AssertUnwindSafe(|| f(&items[i]))),
        |i, r| out[i] = Some(r),
    );
    out.into_iter()
        .enumerate()
        .map(|(i, r)| match r.expect("the pool runs every item") {
            Ok(v) => v,
            Err(p) => panic!("par_map item {i} panicked: {}", panic_message(p.as_ref())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Runs `par_map` and returns its panic message.
    fn panic_of(items: &[u32], f: impl Fn(&u32) -> u32 + Sync) -> String {
        let caught = catch_unwind(AssertUnwindSafe(|| par_map(items, f))).unwrap_err();
        panic_message(caught.as_ref())
    }

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u32> = (0..17).collect();
        assert_eq!(
            par_map(&items, |x| x * 3),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert_eq!(par_map(&[] as &[u32], |x| *x), Vec::<u32>::new());
    }

    #[test]
    fn workers_actually_run_concurrently_on_shared_state() {
        let counter = AtomicU32::new(0);
        let items = [1u32; 8];
        let out = par_map(&items, |_| counter.fetch_add(1, Ordering::SeqCst));
        let mut seen = out.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn many_more_items_than_cores_still_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        assert_eq!(
            par_map(&items, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn one_panicking_item_does_not_poison_the_rest() {
        let completed = AtomicU32::new(0);
        let items: Vec<u32> = (0..64).collect();
        let msg = panic_of(&items, |&x| {
            assert!(x != 13, "injected panic on item {x}");
            completed.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert!(msg.contains("item 13 panicked"), "{msg}");
        assert!(msg.contains("injected panic on item 13"), "{msg}");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            63,
            "every other item still completed"
        );
    }

    #[test]
    fn every_other_item_runs_when_several_panic() {
        let ran: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<u32> = (0..8).collect();
        let msg = panic_of(&items, |&x| {
            assert!(x % 3 != 1, "boom {x}");
            ran[x as usize].fetch_add(1, Ordering::SeqCst);
            x * 2
        });
        assert!(msg.contains("item 1 panicked: boom 1"), "{msg}");
        for (i, n) in ran.iter().enumerate() {
            let want = u32::from(i % 3 != 1);
            assert_eq!(
                n.load(Ordering::SeqCst),
                want,
                "item {i} ran once or not at all"
            );
        }
    }

    #[test]
    fn par_map_reports_the_lowest_index_panic() {
        let items: Vec<u32> = (0..32).collect();
        let msg = panic_of(&items, |&x| {
            assert!(!(x == 5 || x == 20), "first is {x}");
            x
        });
        assert!(msg.contains("item 5 panicked: first is 5"), "{msg}");
    }

    #[test]
    fn par_map_still_panics_with_context() {
        let msg = panic_of(&[0, 1], |&x| {
            assert!(x == 0, "only zero survives");
            x
        });
        assert!(msg.contains("item 1 panicked"), "{msg}");
    }
}
