//! A second, independent implementation of the delivery check — by explicit
//! transitive closure instead of vector clocks.
//!
//! The fast checker in [`crate::verify`] is itself protocol-like machinery
//! (vector clocks, binary searches); a bug there could mask a protocol bug.
//! This module re-derives `≺co` the expensive, obviously-correct way —
//! build the operation DAG (program order ∪ reads-from), take its
//! transitive closure over writes, and compare every pair of applies — so
//! tests can cross-validate the two implementations on the same histories.
//! O(W²) per site; use on small histories only.

use crate::history::{History, OpRecord};
use causal_types::{SiteId, WriteId};
use std::collections::HashMap;

/// Count causal apply-order inversions at each site by brute force:
/// `w1 ≺co w2`, both applied at `k`, `w2` applied first. Returns the total
/// over all sites (own-write races included — the caller splits them if
/// needed). Panics on unresolvable histories; feed it only histories the
/// fast checker resolved.
pub fn delivery_inversions_bruteforce(history: &History) -> u64 {
    let n = history.n();
    // Collect writes in a stable order and index them.
    let mut index: HashMap<WriteId, usize> = HashMap::new();
    let mut writes: Vec<WriteId> = Vec::new();
    for site in SiteId::all(n) {
        for op in history.ops(site) {
            if let OpRecord::Write { write, .. } = op {
                index.insert(write, writes.len());
                writes.push(write);
            }
        }
    }
    let w_count = writes.len();

    // reach[a] = bitset of writes causally ≤ a (including a itself).
    let words = w_count.div_ceil(64);
    let mut reach: Vec<Vec<u64>> = vec![vec![0; words]; w_count];
    let set = |bits: &mut [u64], i: usize| bits[i / 64] |= 1 << (i % 64);
    let get = |bits: &[u64], i: usize| bits[i / 64] & (1 << (i % 64)) != 0;

    // Sweep per-process histories in causal order, carrying each process's
    // accumulated causal-past bitset (same worklist shape as the fast
    // checker, but with explicit sets).
    let mut proc_past: Vec<Vec<u64>> = vec![vec![0; words]; n];
    let mut cursor: Vec<_> = SiteId::all(n).map(|s| history.ops(s).peekable()).collect();
    loop {
        let mut progressed = false;
        let mut done = true;
        for i in 0..n {
            while let Some(&op) = cursor[i].peek() {
                match op {
                    OpRecord::Write { write, .. } => {
                        let wi = index[&write];
                        set(&mut proc_past[i], wi);
                        reach[wi].copy_from_slice(&proc_past[i]);
                    }
                    OpRecord::Read {
                        read_from: Some(w), ..
                    } => {
                        let wi = *index.get(&w).expect("resolvable history");
                        // The observed write must be resolved first.
                        if reach[wi].iter().all(|&x| x == 0) && !get(&proc_past[w.site.index()], wi)
                        {
                            // Not yet swept; retry later.
                            break;
                        }
                        let (past, r) = (&mut proc_past[i], &reach[wi]);
                        for (a, b) in past.iter_mut().zip(r) {
                            *a |= *b;
                        }
                    }
                    OpRecord::Read { .. } => {}
                }
                cursor[i].next();
                progressed = true;
            }
            if cursor[i].peek().is_some() {
                done = false;
            }
        }
        if done {
            break;
        }
        assert!(progressed, "unresolvable history");
    }

    // Pairwise apply-order comparison per site.
    let mut inversions = 0;
    for site in SiteId::all(n) {
        let seq: Vec<WriteId> = history.applies(site).collect();
        for (pos2, w2) in seq.iter().enumerate() {
            let i2 = index[w2];
            for w1 in &seq[pos2 + 1..] {
                let i1 = index[w1];
                // w1 applied after w2 although w1 ≺co w2?
                if i1 != i2 && get(&reach[i2], i1) {
                    inversions += 1;
                }
            }
        }
    }
    inversions
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_types::VarId;

    fn w(site: usize, clock: u64) -> WriteId {
        WriteId::new(SiteId::from(site), clock)
    }

    #[test]
    fn counts_simple_inversion() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(1));
        h.record_apply(SiteId(1), w(0, 2));
        h.record_apply(SiteId(1), w(0, 1));
        assert_eq!(delivery_inversions_bruteforce(&h), 1);
    }

    #[test]
    fn clean_history_has_no_inversions() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(1));
        h.record_write(SiteId(1), w(1, 1), VarId(1));
        for k in 0..2 {
            h.record_apply(SiteId::from(k), w(0, 1));
            h.record_apply(SiteId::from(k), w(1, 1));
        }
        assert_eq!(delivery_inversions_bruteforce(&h), 0);
    }

    #[test]
    fn concurrent_writes_are_not_inversions() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(1), w(1, 1), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(0), w(1, 1));
        h.record_apply(SiteId(1), w(1, 1));
        h.record_apply(SiteId(1), w(0, 1));
        assert_eq!(delivery_inversions_bruteforce(&h), 0);
    }

    #[test]
    fn transitive_inversion_detected() {
        let mut h = History::new(4);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(1));
        h.record_write(SiteId(1), w(1, 1), VarId(1));
        h.record_read(SiteId(2), VarId(1), Some(w(1, 1)), SiteId(2));
        h.record_write(SiteId(2), w(2, 1), VarId(2));
        h.record_apply(SiteId(3), w(2, 1));
        h.record_apply(SiteId(3), w(0, 1));
        assert_eq!(delivery_inversions_bruteforce(&h), 1);
    }
}
