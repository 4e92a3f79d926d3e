//! Independent units of work on a small scoped worker pool.
//!
//! The experiments repeat one measurement many times, and each
//! repetition builds its own world from its own seed: nothing flows
//! from one unit to another, so they may run side by side without a
//! barrier. Workers take the next unit index from one shared cursor;
//! every result is put back at its unit's index, so the output is the
//! same at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Most threads that run units at once, the calling thread included.
///
/// Two, not one per core. Figs. 5–8's longest unit, the bare-metal host
/// chain, is about a third of the work and stays sequential, so it is
/// the critical path: a third worker could shorten a comparison by at
/// most another 1.5x. And each worker costs a fixed ≈ 0.3 MiB of
/// resident memory (its malloc arena, its stack, and thread and library
/// code paged in) in a ≈ 4.5 MiB process, so a third would grow the
/// peak by ≈ 13 %.
const MAX_WORKERS: usize = 2;

/// Workers [`par_units`] would use for `n` units on this host: at most
/// [`MAX_WORKERS`], at most the cores available, at most one per unit.
pub(crate) fn workers_for(n: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    MAX_WORKERS.min(cores).min(n)
}

/// `unit(0)`, …, `unit(n - 1)` on [`workers_for`]`(n)` workers; results
/// in index order. Lower indices start first, so put the longest unit
/// at index 0.
pub(crate) fn par_units<T: Send>(n: usize, unit: impl Fn(usize) -> T + Sync) -> Vec<T> {
    par_units_on(workers_for(n), n, unit)
}

/// [`par_units`] on exactly `workers` threads (the calling thread is
/// one of them; one or fewer spawns nothing). A panicking unit
/// propagates its panic once every worker has stopped.
pub(crate) fn par_units_on<T: Send>(
    workers: usize,
    n: usize,
    unit: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 {
        return (0..n).map(unit).collect();
    }
    // The cursor only hands out indices; each result reaches the caller
    // through the join, so no ordering beyond `Relaxed` is needed.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, unit(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut place =
            |done: Vec<(usize, T)>| done.into_iter().for_each(|(i, t)| slots[i] = Some(t));
        place(work());
        for helper in helpers {
            match helper.join() {
                Ok(done) => place(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|t| t.expect("every unit ran once")).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 2, 5, 17] {
                // With two or more workers, unit 0 waits until the last
                // unit has run on another thread, so units finish out of
                // index order.
                let meet = Barrier::new(2);
                let out = par_units_on(workers, n, |i| {
                    if workers > 1 && n > 1 && (i == 0 || i == n - 1) {
                        meet.wait();
                    }
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "{workers} workers, {n} units");
            }
        }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        par_units_on(3, runs.len(), |i| runs[i].fetch_add(1, Ordering::Relaxed));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn the_default_pool_is_capped() {
        assert_eq!(workers_for(0), 0);
        assert_eq!(workers_for(1), 1);
        assert!((1..=MAX_WORKERS).contains(&workers_for(31)));
        assert_eq!(par_units(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_panicking_unit_propagates_its_panic() {
        for (workers, bad) in [(1, 3), (2, 0), (2, 5), (3, 7)] {
            let caught = std::panic::catch_unwind(|| {
                par_units_on(workers, 8, |i| {
                    assert_ne!(i, bad, "unit {i} fails");
                    i
                })
            });
            let panic = caught.expect_err("the unit's panic reaches the caller");
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(&format!("unit {bad} fails")), "{workers} workers: {msg:?}");
        }
    }
}
