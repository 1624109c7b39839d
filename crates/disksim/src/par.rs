//! Deterministic fan-out of independent simulation tasks across threads.
//!
//! Every unit of work fanned through [`pmap`] is a self-contained
//! simulation: it builds its own [`crate::SimClock`], disk and file
//! system, seeds its own RNG explicitly, and returns a value. Nothing is
//! shared, so tasks can run on any thread in any order — only the
//! *assembly* of results must follow the sequential order. [`pmap`]
//! provides exactly that contract: results come back in input order
//! regardless of which worker computed them or when, which keeps figure
//! tables, model-check failure reports and crash-sweep failure lists
//! byte-identical to a sequential run.
//!
//! The pool is scoped (`std::thread::scope`) and built per call — the
//! workspace builds offline with std only, and tasks are milliseconds to
//! seconds each, so pool construction cost is noise. Workers pull tasks
//! from a shared atomic cursor (work stealing by index), so uneven task
//! costs — e.g. Figure 10's long-idle points, or crash points deep into a
//! workload — balance automatically.
//!
//! This module started life in `vlfs-bench` driving only the figure
//! points; it lives in `disksim` so the model checker and the crash-point
//! sweeps (which must not depend on the bench crate) share one pool and
//! one knob.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use crate::disk::PagePool;

/// Number of worker threads `pmap` uses.
///
/// Resolution order: [`set_threads`] (a driver's `--threads` flag), the
/// `VLFS_THREADS` environment variable, then the machine's available
/// parallelism. A value of 1 disables threading entirely (pure sequential
/// execution on the calling thread).
///
/// # Panics
/// If `VLFS_THREADS` is set to anything [`parse_threads`] rejects: a
/// mistyped knob must not silently run at machine parallelism.
pub fn threads() -> usize {
    if let Some(&n) = CONFIGURED.get() {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("VLFS_THREADS") {
        return parse_threads(&v).unwrap_or_else(|e| panic!("VLFS_THREADS: {e}"));
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parse a worker count as given to `VLFS_THREADS` or `--threads`: a
/// positive decimal integer (surrounding whitespace ignored).
pub fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expected a positive integer, got {s:?}")),
    }
}

static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// Pin the worker count for the rest of the process (first call wins).
pub fn set_threads(n: usize) {
    let _ = CONFIGURED.set(n.max(1));
}

/// Map `f` over `items` on a scoped worker pool of the process-wide width
/// ([`threads`]), returning results in input order.
pub fn pmap<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    pmap_in(threads(), items, f)
}

/// [`pmap`] with an explicit pool width, for tests that compare a 1-wide
/// and an N-wide run of the same sweep within one process (the process-
/// wide knob is a set-once `OnceLock`). Falls back to a plain sequential
/// map when the pool is one thread wide or there is at most one item.
pub fn pmap_in<I, T, F>(width: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = width.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<T>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= inputs.len() {
            break;
        }
        let item = inputs[i]
            .lock()
            .expect("input slot poisoned")
            .take()
            .expect("each slot is taken exactly once");
        let out = f(item);
        *outputs[i].lock().expect("output slot poisoned") = Some(out);
    };
    // Each worker runs on a share of this thread's page pool, and the
    // worker's pool comes back here when it finishes, so no page is
    // reachable from two threads and the pages the tasks parked outlive
    // the workers.
    let pools = thread::scope(|s| {
        let handles: Vec<_> = PagePool::split_local(workers)
            .into_iter()
            .map(|share| s.spawn(|| share.lend(work).1))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    PagePool::rejoin_local(pools);
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panicked would have propagated via scope")
                .expect("every slot is filled before scope exits")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Make late items cheap and early items expensive so completion
        // order differs from input order.
        let out = pmap_in(4, (0..64u64).collect(), |i| {
            let spins = (64 - i) * 1000;
            let mut acc = i;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, std::hint::black_box(acc) & 1) // keep the spin from being optimised out
        });
        let order: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq: Vec<u64> = (0..40u64).map(|i| i * i + 1).collect();
        for width in [1, 2, 4, 8] {
            let par = pmap_in(width, (0..40u64).collect(), |i| i * i + 1);
            assert_eq!(seq, par, "width {width}");
        }
    }

    #[test]
    fn parse_threads_accepts_only_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4\n"), Ok(4));
        for bad in ["", " ", "0", "four", "-2", "4x", "1.5"] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = pmap(Vec::<u64>::new(), |i| i);
        assert!(empty.is_empty());
        assert_eq!(pmap(vec![7u64], |i| i + 1), vec![8]);
    }
}
