//! A std-only scoped-thread work pool with order-preserving results.
//!
//! No external crates (the build environment has no registry access): the
//! pool is `std::thread::scope` plus an atomic work index. Workers claim
//! jobs in submission order and deposit results into per-job slots, so the
//! returned vector is always in submission order — the property the run
//! journal's determinism guarantee rests on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs every job, using up to `threads` worker threads, and returns the
/// results in submission order.
///
/// `threads == 1` (or a single job) degenerates to a plain sequential loop
/// on the calling thread. A panicking job propagates the panic to the
/// caller once the scope joins — a sweep never silently drops a run.
pub fn run_ordered<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }

    let next = AtomicUsize::new(0);
    // FnOnce must be *moved* out to call; Mutex<Option<_>> hands each job
    // to exactly one worker without requiring F: Sync.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each job claimed once");
                let result = job();
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("scope joined all workers"))
        .collect()
}

/// A sensible default worker count: the machine's available parallelism,
/// capped at 8 (simulator runs are memory-bound; more threads mostly add
/// cache pressure). Every sweep binary takes `--threads` to override it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0..20)
                .map(|i| {
                    move || {
                        // Stagger finish times so later jobs often finish first.
                        std::thread::sleep(std::time::Duration::from_micros(200 * (20 - i)));
                        i
                    }
                })
                .collect();
            let out = run_ordered(jobs, threads);
            assert_eq!(out, (0..20).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job_lists_work() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_ordered(none, 4).is_empty());
        assert_eq!(run_ordered(vec![|| 7u32], 4), vec![7]);
    }

    #[test]
    fn default_threads_is_positive() {
        let t = default_threads();
        assert!(t >= 1);
    }

    /// The wall-clock payoff of the pool. Jobs here *sleep* rather than
    /// compute so the speedup is observable even on a single-CPU machine
    /// (CI containers included); on multicore hosts the same overlap
    /// applies to the CPU-bound simulator runs.
    #[test]
    fn four_threads_beat_one_on_wall_clock() {
        let job = || std::thread::sleep(std::time::Duration::from_millis(100));
        let time = |threads: usize| {
            let t0 = std::time::Instant::now();
            run_ordered((0..8).map(|_| job).collect(), threads);
            t0.elapsed().as_secs_f64()
        };
        let serial = time(1);
        let parallel = time(4);
        assert!(
            serial / parallel > 1.5,
            "expected >1.5x wall-clock speedup at 4 threads vs 1, got {:.2}x \
             ({serial:.2}s vs {parallel:.2}s)",
            serial / parallel
        );
    }
}
