//! Determinism-preserving parallel task runner for experiment sweeps.
//!
//! The paper's evaluation is built from *independent* simulation
//! instances — FIG4's (receiver-count × trial) grid, multi-seed FIG2
//! runs, the ablation parameter sweeps. [`run_tasks`] fans such tasks
//! across `--threads N` scoped workers (std only, no extra deps) and
//! merges results **in task order**, so the emitted CSV/JSON is
//! byte-identical to the serial run.
//!
//! Determinism contract: the task function must depend only on its
//! task index and the task description — never on shared mutable state
//! or a sequentially-threaded RNG. Derive per-task seeds with
//! [`task_seed`] (`seed ^ hash(task-index)`), which is what keeps a
//! task's randomness identical whether it runs first on one thread or
//! last on eight.

use std::sync::atomic::{AtomicUsize, Ordering};

/// SplitMix64 finalizer: a cheap, well-mixed u64 hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG seed for task `index` of a sweep run with base `seed`:
/// `seed ^ hash(index)`. Stable across thread counts and schedules.
pub fn task_seed(seed: u64, index: u64) -> u64 {
    seed ^ splitmix64(index)
}

/// Runs `f(index, &tasks[index])` for every task, fanned across
/// `threads` scoped workers, and returns the results in task order.
///
/// `threads <= 1` (or a single task) degenerates to a plain serial
/// loop — same code path the determinism regression test compares
/// against. Worker panics propagate.
#[expect(
    clippy::disallowed_methods,
    reason = "the one home of OS threads; results merge in task order"
)]
pub fn run_tasks<T, R, F>(threads: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads <= 1 {
        return tasks.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(tasks.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        out.push((i, f(i, &tasks[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("sweep worker panicked"));
        }
    });
    // Merge in task order: output must not depend on scheduling.
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..100).collect();
        let serial = run_tasks(1, &tasks, |i, t| (i as u64) * 1000 + t);
        let par = run_tasks(4, &tasks, |i, t| (i as u64) * 1000 + t);
        assert_eq!(serial, par);
        assert_eq!(serial[7], 7007);
    }

    #[test]
    fn task_seed_is_stable_and_spread() {
        assert_eq!(task_seed(7, 3), task_seed(7, 3));
        assert_ne!(task_seed(7, 3), task_seed(7, 4));
        assert_ne!(task_seed(7, 0), 7); // index 0 is still mixed
                                        // Different base seeds stay different at every index.
        for i in 0..50 {
            assert_ne!(task_seed(1, i), task_seed(2, i));
        }
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let tasks = vec![1u32, 2];
        assert_eq!(run_tasks(16, &tasks, |_, t| t * 2), vec![2, 4]);
        let none: Vec<u32> = Vec::new();
        assert!(run_tasks(4, &none, |_, t: &u32| *t).is_empty());
    }
}
