//! The quadratic checker this crate shipped before the frontier sweep,
//! kept verbatim as the oracle for the differential tests in
//! [`crate::verify`] — the role `clocks::reference::NaiveLog` plays for
//! `Log`. Test-only: nothing selects it at run time.

use crate::history::{History, OpRecord};
use crate::verify::Violations;
use causal_types::{SiteId, VarId, WriteId};
use std::collections::HashMap;

/// Per-write causal timestamp: `vc[j]` = number of writes by process `j` in
/// the causal past of this write (inclusive of the write itself for its own
/// origin). `w1 ≺co w2  ⟺  w2.vc[w1.site] ≥ w1.clock`.
struct WriteInfo {
    vc: Vec<u64>,
    var: VarId,
}

/// Verify a recorded history. See [`Violations`] for what is checked.
pub fn check(history: &History) -> Violations {
    let n = history.n();
    let mut v = Violations::default();

    // ------------------------------------------------------------------
    // Pass 1: assign vector clocks to writes by sweeping the per-process
    // histories in causal order (a read blocks until the write it observed
    // has its clock; program order otherwise).
    // ------------------------------------------------------------------
    let mut writes: HashMap<WriteId, WriteInfo> = HashMap::new();
    // Writes per variable, for the freshness check (filled as resolved).
    let mut writes_on: HashMap<VarId, Vec<WriteId>> = HashMap::new();
    let mut cursor: Vec<_> = SiteId::all(n).map(|s| history.ops(s).peekable()).collect();
    let mut proc_vc: Vec<Vec<u64>> = vec![vec![0; n]; n];
    // (reader, op index) of stale reads, resolved during the sweep.
    loop {
        let mut progressed = false;
        let mut done = true;
        for i in 0..n {
            while let Some(&op) = cursor[i].peek() {
                match &op {
                    OpRecord::Write { write, var } => {
                        proc_vc[i][i] += 1;
                        if proc_vc[i][i] != write.clock {
                            // Clocks must be the per-process write counter.
                            v.unresolved += 1;
                            v.note(format!(
                                "write {write} out of clock sequence at s{i} \
                                 (expected clock {})",
                                proc_vc[i][i]
                            ));
                        }
                        writes.insert(
                            *write,
                            WriteInfo {
                                vc: proc_vc[i].clone(),
                                var: *var,
                            },
                        );
                        writes_on.entry(*var).or_default().push(*write);
                    }
                    OpRecord::Read {
                        var,
                        read_from,
                        served_by: _,
                    } => {
                        if let Some(w) = read_from {
                            let Some(info) = writes.get(w) else {
                                if history.ops(w.site).any(
                                    |o| matches!(o, OpRecord::Write { write, .. } if write == *w),
                                ) {
                                    // Not yet resolved: retry later.
                                    break;
                                }
                                v.reads_from += 1;
                                v.note(format!("read of {var} at s{i} observed unknown write {w}"));
                                cursor[i].next();
                                continue;
                            };
                            if info.var != *var {
                                v.reads_from += 1;
                                v.note(format!(
                                    "read of {var} at s{i} observed {w}, which wrote {}",
                                    info.var
                                ));
                            }
                            // Freshness: no write on `var` in the reader's
                            // causal past may causally follow the returned
                            // write.
                            let returned = *w;
                            let vc_snapshot = &proc_vc[i];
                            if let Some(candidates) = writes_on.get(var) {
                                for w1 in candidates {
                                    if *w1 == returned {
                                        continue;
                                    }
                                    let in_past = vc_snapshot[w1.site.index()] >= w1.clock;
                                    if !in_past {
                                        continue;
                                    }
                                    let overwrites = writes
                                        .get(w1)
                                        .map(|i1| i1.vc[returned.site.index()] >= returned.clock)
                                        .unwrap_or(false);
                                    if overwrites {
                                        v.stale_reads += 1;
                                        v.note(format!(
                                            "stale read of {var} at s{i}: returned {returned} \
                                             but {w1} (causally newer) is in the reader's past"
                                        ));
                                        break;
                                    }
                                }
                            }
                            // The read-from edge merges the writer's clock.
                            let w_vc = writes.get(w).map(|x| x.vc.clone());
                            if let Some(w_vc) = w_vc {
                                for (a, b) in proc_vc[i].iter_mut().zip(&w_vc) {
                                    *a = (*a).max(*b);
                                }
                            }
                        } else {
                            // ⊥ read: a violation if any write on var is in
                            // the reader's causal past.
                            if let Some(candidates) = writes_on.get(var) {
                                let vc_snapshot = &proc_vc[i];
                                if let Some(w1) = candidates
                                    .iter()
                                    .find(|w1| vc_snapshot[w1.site.index()] >= w1.clock)
                                {
                                    v.stale_reads += 1;
                                    v.note(format!(
                                        "⊥ read of {var} at s{i} despite {w1} in causal past"
                                    ));
                                }
                            }
                        }
                    }
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
        if !progressed {
            v.unresolved += 1;
            v.note("history not causally resolvable (cyclic reads-from?)".into());
            return v;
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: per-site apply sequences.
    // ------------------------------------------------------------------
    for k in 0..n {
        let seq: Vec<WriteId> = history.applies(SiteId::from(k)).collect();
        // FIFO per origin: clocks strictly increase.
        let mut last_clock = vec![0u64; n];
        for w in &seq {
            if w.clock <= last_clock[w.site.index()] {
                v.fifo += 1;
                v.note(format!(
                    "s{k} applied {w} after clock {} from the same origin",
                    last_clock[w.site.index()]
                ));
            }
            last_clock[w.site.index()] = w.clock;
        }

        // Causal delivery: for each apply position, every causally
        // preceding write from each origin that this site *ever* applies
        // must already be applied. Per origin, the applied subsequence is
        // clock-sorted (FIFO, checked above), so "how many of origin l's
        // applied writes precede w" is a binary search over clocks, and
        // their positions are increasing — compare the last one's position.
        let mut per_origin: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n]; // (clock, pos)
        for (pos, w) in seq.iter().enumerate() {
            per_origin[w.site.index()].push((w.clock, pos));
        }
        #[allow(clippy::needless_range_loop)]
        for (pos, w) in seq.iter().enumerate() {
            let Some(info) = writes.get(w) else {
                v.unresolved += 1;
                v.note(format!("s{k} applied unknown write {w}"));
                continue;
            };
            for l in 0..n {
                let bound = info.vc[l];
                if bound == 0 {
                    continue;
                }
                let col = &per_origin[l];
                // Applied writes from l with clock ≤ bound, excluding w
                // itself.
                let m = col.partition_point(|&(c, _)| c <= bound);
                if m == 0 {
                    continue;
                }
                let (c_last, p_last) = col[m - 1];
                // The applying site's own writes apply immediately by
                // design; a miss there is the documented remote-fetch race,
                // not a delivery bug (see `own_write_races`).
                let own_write = w.site.index() == k;
                if (l, c_last) == (w.site.index(), w.clock) {
                    // w itself is the last such write; check the previous.
                    if m >= 2 {
                        let (_, p_prev) = col[m - 2];
                        if p_prev > pos {
                            if own_write {
                                v.own_write_races += 1;
                            } else {
                                v.delivery += 1;
                            }
                            v.note(format!(
                                "s{k} applied {w} before an earlier write from s{l}"
                            ));
                        }
                    }
                } else if p_last > pos {
                    if own_write {
                        v.own_write_races += 1;
                    } else {
                        v.delivery += 1;
                    }
                    v.note(format!(
                        "s{k} applied {w} at pos {pos} before causally preceding \
                         w(s{l},{c_last}) at pos {p_last}"
                    ));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: departure seals. Anything a site recorded after leaving the
    // view is activity the quiescence protocol failed to stop.
    // ------------------------------------------------------------------
    for (k, seal) in history.sealed().iter().enumerate() {
        let Some((ops_mark, applies_mark)) = seal else {
            continue;
        };
        let site = SiteId::from(k);
        let late_ops = history.ops(site).len().saturating_sub(*ops_mark);
        let late_applies = history.applies(site).len().saturating_sub(*applies_mark);
        if late_ops + late_applies > 0 {
            v.out_of_view += (late_ops + late_applies) as u64;
            v.note(format!(
                "s{k} recorded {late_ops} op(s) and {late_applies} apply(ies) \
                 after leaving the view"
            ));
        }
    }

    v
}
