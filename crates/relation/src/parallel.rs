//! Splitting one job over idle cores: the one thread rule, and the one helper that
//! runs a job's independent parts.
//!
//! [`threads_for`] decides how many threads a job gets and [`run_parts`] runs its
//! parts on them. Two steps go through them: a cold
//! [`ColumnarIndex::build`](crate::ColumnarIndex::build), one part per column, and
//! every backend's `Scheme::decrypt` in `f2-core`, one part per range of rows.
//!
//! # The thread rule
//!
//! A job runs on its caller alone when it has fewer cells than its step's stated
//! threshold, or when the caller is a worker of a pool: a thread whose name starts
//! with [`POOL_THREAD_PREFIX`], as the engine's `Engine::encrypt` workers and the
//! server's workers are named. Otherwise it runs on
//! `min(available_parallelism(), parts)` threads, the caller among them.
//!
//! The pool's other workers already keep the cores busy, so helpers started under
//! them only add threads: with 2 engine workers on a 2-vCPU host, 10,000-row
//! Synthetic chunks (70,000 cells) encrypted no faster with index-build helpers
//! and raised peak RSS 14–25%.
//!
//! Each step states its own threshold, measured on a 2-vCPU host, since a cell
//! costs each step something else. Splitting costs a job about 60 µs: spawning and
//! joining a scoped thread about 35 µs, `available_parallelism` about 24 µs.
//!
//! * A cold index build splits from 65,536 cells
//!   ([`PARALLEL_MIN_CELLS`](crate::columnar::PARALLEL_MIN_CELLS)): two threads
//!   built 73,728–86,016 cells of Orders and Customer faster than one, and 57,344
//!   cells of the repetitive Synthetic plaintext no faster.
//! * A decryption splits from 8,192 cells (`DECRYPT_PARALLEL_MIN_CELLS` in
//!   `f2-core`): in alternating one- and two-thread pairs, two threads broke even
//!   at 1,792–2,304 cells, gained 1.14–1.24× at 3,584–4,608 (512-row chunks) and
//!   1.34–1.65× at 7,168–28,672, and in a later set, when the host lent its second
//!   vCPU only in part, lost 12–17% at 5,376–7,168 cells.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The name prefix of a worker-pool thread. A job whose caller is so named runs
/// on its caller alone (see the [module docs](self)); the engine's and the
/// server's worker pools name their threads with it.
pub const POOL_THREAD_PREFIX: &str = "f2-pool-";

/// Whether the calling thread is a worker of a pool ([`POOL_THREAD_PREFIX`]).
fn on_pool_thread() -> bool {
    std::thread::current().name().is_some_and(|name| name.starts_with(POOL_THREAD_PREFIX))
}

/// The one thread rule (see the [module docs](self#the-thread-rule)): the threads
/// a job of `cells` cells in `parts` independent parts gets, when its step splits
/// only jobs of at least `min_cells` cells. One below the threshold or on a pool
/// thread, else `min(available_parallelism(), parts)`, and never less than one.
pub fn threads_for(cells: usize, min_cells: usize, parts: usize) -> usize {
    if cells < min_cells || on_pool_thread() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(parts).max(1)
    }
}

/// Run `work(0)`, …, `work(parts - 1)` on up to `threads` threads, the calling one
/// among them, and return the results in part order with the number of threads
/// that ran them.
///
/// Each thread takes the next part nobody has taken until none is left, so at most
/// `threads` parts run at once and a thread that starts late or runs slow takes
/// fewer. No more helpers start than there are parts beyond the caller's first. A
/// helper the OS refuses to start is left out, and the caller runs the parts no
/// helper takes; with `threads` 1 it runs them all, in order, and starts none. A
/// panic in a helper is resumed on the caller.
pub fn run_parts<T, F>(parts: usize, threads: usize, work: F) -> (Vec<T>, usize)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // The counter only hands out part numbers; the results come back through
    // `join`, which orders them after the helper's writes.
    let next = AtomicUsize::new(0);
    let take = || {
        let mut done = Vec::new();
        loop {
            let part = next.fetch_add(1, Ordering::Relaxed);
            if part >= parts {
                return done;
            }
            done.push((part, work(part)));
        }
    };
    let (mut done, threads) = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(parts))
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, take).ok())
            .collect();
        let threads = 1 + helpers.len();
        let mut done = take();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        (done, threads)
    });
    done.sort_unstable_by_key(|&(part, _)| part);
    (done.into_iter().map(|(_, result)| result).collect(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_thread_count_returns_the_parts_in_order() {
        // More parts than threads, fewer parts than threads, and none.
        for threads in [1, 2, 3, 8] {
            for parts in [0, 1, 2, 5, 64] {
                let (done, started) = run_parts(parts, threads, |part| part * part);
                let want: Vec<usize> = (0..parts).map(|part| part * part).collect();
                assert_eq!(done, want, "{parts} parts on {threads} threads");
                assert!(
                    (1..=threads.min(parts).max(1)).contains(&started),
                    "{parts} parts on {threads} threads started {started}"
                );
            }
        }
    }

    #[test]
    fn parts_finished_out_of_order_come_back_in_part_order() {
        // Part 0 waits until another thread has taken part 1, and part 1 until
        // part 2 is done, so one thread runs parts 0 and 2 while a helper runs
        // part 1: the parts finish in the order 0, 2, 1 whichever thread took
        // part 0, and only a helper beside the caller can finish them at all.
        let (taken, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let wait_for = |flag: &AtomicUsize, part: usize| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while flag.load(Ordering::SeqCst) & 1 << part == 0 {
                assert!(std::time::Instant::now() < deadline, "no helper ran beside the caller");
                std::thread::yield_now();
            }
        };
        let (done, started) = run_parts(3, 2, |part| {
            taken.fetch_or(1 << part, Ordering::SeqCst);
            match part {
                0 => wait_for(&taken, 1),
                1 => wait_for(&finished, 2),
                _ => {}
            }
            finished.fetch_or(1 << part, Ordering::SeqCst);
            (part, std::thread::current().id())
        });
        assert_eq!(done.iter().map(|&(part, _)| part).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(done[0].1, done[2].1, "parts 0 and 2 ran on one thread");
        assert_ne!(done[0].1, done[1].1, "part 1 ran on the other");
        assert_eq!(started, 2);
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            // With one thread the caller runs a failing part itself. With more,
            // only helpers fail, and the caller's parts wait until one has.
            let failed = std::sync::atomic::AtomicBool::new(false);
            let panic = std::panic::catch_unwind(|| {
                run_parts(16, threads, |part| {
                    if threads == 1 || std::thread::current().id() != caller {
                        failed.store(true, Ordering::Relaxed);
                        panic!("part {part} failed");
                    }
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !failed.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                })
            })
            .unwrap_err();
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.ends_with(" failed"), "{threads} threads: {message}");
        }
    }

    #[test]
    fn the_rule_keeps_small_jobs_and_pool_threads_on_the_caller() {
        assert_eq!(threads_for(99, 100, 8), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_for(100, 100, 8), cores.min(8));
        assert_eq!(threads_for(100, 100, 1), 1);
        assert_eq!(threads_for(100, 100, 0), 1);
        let on_pool = std::thread::Builder::new()
            .name(format!("{POOL_THREAD_PREFIX}test"))
            .spawn(|| threads_for(usize::MAX, 0, 8))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(on_pool, 1);
    }
}
