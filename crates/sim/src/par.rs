//! Deterministic parallel map over experiment sweep points.
//!
//! Experiment sweeps are embarrassingly parallel: every (app, load,
//! seed) point simulates independently and all randomness flows from the
//! point's own seed. [`par_map`] fans a slice across a scoped thread
//! pool and returns results **in input order**, so any aggregation the
//! caller does afterwards (f64 sums, CDF pushes) happens in exactly the
//! sequence the sequential runner would use — the parallel and
//! sequential runners therefore produce byte-identical experiment
//! output for fixed seeds.
//!
//! Thread count comes from `TLC_SWEEP_THREADS` when set (use `1` to
//! force sequential execution, e.g. when comparing against the
//! sequential twin), otherwise from the host's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads to use for sweeps: the `TLC_SWEEP_THREADS` override,
/// or the host's available parallelism.
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("TLC_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on [`sweep_threads`] scoped threads, returning
/// results in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_threads(sweep_threads(), items, f)
}

/// [`par_map`] with an explicit thread count. `threads <= 1` runs the
/// plain sequential loop (no pool, no overhead).
#[expect(
    clippy::expect_used,
    reason = "re-raises a worker's panic on the caller's thread"
)]
pub fn par_map_threads<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Work-stealing by atomic index: threads grab the next unclaimed
    // item, so one slow point does not stall the others. Each worker
    // records (index, result) pairs; a final sort restores input order.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("sweep worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Deterministic in-place parallel map over mutable shard states: the
/// digital twin's epoch barrier. Each item is visited exactly once by
/// exactly one thread (contiguous chunks), results return in input
/// order, and because every `f(i, item)` depends only on the item's
/// own state, the output is byte-identical at any thread count —
/// `threads = 1` runs the plain sequential loop the equivalence tests
/// compare against.
#[expect(
    clippy::expect_used,
    reason = "re-raises a worker's panic on the caller's thread"
)]
pub fn par_map_mut<T: Send, R: Send>(
    threads: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, ch)| {
                s.spawn(move || {
                    ch.iter_mut()
                        .enumerate()
                        .map(|(k, t)| f(ci * chunk + k, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("twin shard worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_threads(threads, &items, |x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, &empty, |x| *x).is_empty());
        assert_eq!(par_map_threads(4, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let expect_state: Vec<u64> = (0..23u64).map(|x| x + 100).collect();
        let expect_out: Vec<(usize, u64)> = (0..23usize).map(|i| (i, i as u64)).collect();
        for threads in [1, 2, 4, 16] {
            let mut items: Vec<u64> = (0..23).collect();
            let out = par_map_mut(threads, &mut items, |i, x| {
                let before = *x;
                *x += 100;
                (i, before)
            });
            assert_eq!(items, expect_state, "threads = {threads}");
            assert_eq!(out, expect_out, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Longer work at low indexes tempts a racing pool to reorder.
        let items: Vec<u64> = (0..16).collect();
        let got = par_map_threads(4, &items, |&x| {
            let mut acc = 0u64;
            for i in 0..(16 - x) * 10_000 {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc & 1)
        });
        let idx: Vec<u64> = got.iter().map(|(x, _)| *x).collect();
        assert_eq!(idx, items);
    }
}
