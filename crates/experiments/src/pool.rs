//! A scoped worker pool for fanning independent run units across threads.
//!
//! The pool is deliberately tiny: an atomic cursor hands unit indices to
//! `jobs` scoped worker threads, results flow back over a channel tagged
//! with their index, and the caller receives them **in input order** — so
//! any aggregation downstream folds results in exactly the order a
//! sequential loop would have produced them, keeping parallel output
//! bit-identical to `jobs = 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Evaluate `f(0..count)` on `jobs` worker threads and return the results
/// indexed by input position.
///
/// With `jobs <= 1` (or a single unit) this degenerates to a plain
/// sequential map on the calling thread — no threads, no channel. Workers
/// pull the next unit from a shared cursor, so long units do not convoy
/// short ones. A panicking unit propagates the panic to the caller once
/// the scope joins.
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    thread::scope(|s| {
        for _ in 0..jobs.min(count) {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count || tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, out) in rx {
            slots[i] = Some(out);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every unit completes exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for jobs in [1, 2, 4, 9] {
            let out = run_indexed(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_float_results() {
        let f = |i: usize| (i as f64).sqrt() * 1.000000001_f64.powi(i as i32);
        let seq = run_indexed(1, 64, f);
        let par = run_indexed(4, 64, f);
        let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, par_bits);
    }

    #[test]
    fn zero_units_is_empty() {
        let out: Vec<u32> = run_indexed(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
