//! The verification pass.

use crate::history::{History, OpRecord};
use causal_types::{SiteId, VarId, WriteId};
use std::collections::HashMap;

/// Violation counts found in a history, with capped human-readable examples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Violations {
    /// A site applied one origin's writes out of clock order (FIFO bug).
    pub fifo: u64,
    /// A site applied `w2` before a causally preceding `w1` it also applied
    /// — a genuine protocol bug (the activation predicate's guarantee).
    pub delivery: u64,
    /// A read returned a write that does not exist or wrote another
    /// variable.
    pub reads_from: u64,
    /// A read returned a value causally overwritten in the reader's past
    /// (strict causal-memory read anomaly; possible by design for remote
    /// fetches in partially replicated protocols).
    pub stale_reads: u64,
    /// A site applied its *own* write before a causally preceding remote
    /// write it later applies. Only reachable through a remote fetch whose
    /// returned value causally depends on an update still in flight to the
    /// fetcher: the writer then writes, and writers apply their own updates
    /// immediately. Like [`Violations::stale_reads`] this is a property of
    /// the published protocol (FM messages carry no causal context), not an
    /// implementation bug; it is impossible under full replication.
    pub own_write_races: u64,
    /// The history could not be causally ordered (cyclic reads-from or a
    /// read observing a write never issued) — indicates a corrupt recording.
    pub unresolved: u64,
    /// Operations or applies recorded for a site *after* its departure seal
    /// ([`History::seal_site`]) — a departed member kept mutating state,
    /// which the view-change quiescence protocol must prevent.
    pub out_of_view: u64,
    /// Up to ten human-readable descriptions of the first violations found.
    pub examples: Vec<String>,
}

impl Violations {
    /// `true` when the execution satisfies the protocol guarantees (FIFO +
    /// causal delivery + reads-from integrity). Stale remote reads are
    /// tolerated — see the crate docs.
    pub fn protocol_clean(&self) -> bool {
        self.fifo == 0
            && self.delivery == 0
            && self.reads_from == 0
            && self.unresolved == 0
            && self.out_of_view == 0
    }

    /// `true` when the execution additionally satisfies strict causal
    /// memory (fresh reads, no own-write races) — guaranteed under full
    /// replication, best-effort under partial replication.
    pub fn strictly_clean(&self) -> bool {
        self.protocol_clean() && self.stale_reads == 0 && self.own_write_races == 0
    }

    pub(crate) fn note(&mut self, msg: String) {
        if self.examples.len() < 10 {
            self.examples.push(msg);
        }
    }
}

impl std::fmt::Display for Violations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fifo={} delivery={} reads_from={} stale_reads={} own_write_races={} unresolved={} \
             out_of_view={}",
            self.fifo,
            self.delivery,
            self.reads_from,
            self.stale_reads,
            self.own_write_races,
            self.unresolved,
            self.out_of_view
        )
    }
}

/// Every write of a history with its causal timestamp, in flat storage.
///
/// The timestamp of the write in `slot` is the row `vc[slot * n..][..n]`:
/// entry `j` counts the writes by process `j` in its causal past (itself
/// included for its own origin), so `w1 ≺co w2 ⟺ vc(w2)[w1.site] ≥
/// w1.clock`. Process `i`'s `k`-th write owns slot `base[i] + k - 1`; a
/// valid history's clock *is* that ordinal, so a [`WriteId`] addresses its
/// row without hashing, and every allocation is sized by the number of
/// recorded writes — never by a clock value, which a corrupt recording
/// controls.
struct Writes {
    n: usize,
    /// `base[i]..base[i + 1]` are the slots of process `i`'s writes.
    base: Vec<usize>,
    slots: Vec<Slot>,
    vc: Vec<u32>,
    /// Writes recorded under an id other than `⟨process, ordinal⟩` (each
    /// one is reported as `unresolved`), by that id.
    odd: HashMap<WriteId, usize>,
    /// The written variables, sorted; a variable's rank addresses `on`.
    vars: Vec<VarId>,
    /// `on[rank(x) * n + l]`: clocks of process `l`'s resolved writes on
    /// `x`, ascending because program order resolves them so. Writes in
    /// `odd` stay out: their clock does not place them in program order.
    on: Vec<Vec<u32>>,
}

struct Slot {
    id: WriteId,
    var: VarId,
    /// Pass 1 has reached this write and filled its `vc` row.
    resolved: bool,
}

impl Writes {
    fn index(history: &History) -> Self {
        let n = history.n();
        let (mut base, mut slots, mut odd) =
            (Vec::with_capacity(n + 1), Vec::new(), HashMap::new());
        for (i, ops) in history.ops().iter().enumerate() {
            base.push(slots.len());
            for op in ops {
                if let OpRecord::Write { write, var } = *op {
                    let ordinal = (slots.len() - base[i] + 1) as u64;
                    if write.site.index() != i || write.clock != ordinal {
                        odd.insert(write, slots.len());
                    }
                    slots.push(Slot {
                        id: write,
                        var,
                        resolved: false,
                    });
                }
            }
        }
        base.push(slots.len());
        // Ordinals (hence every `vc` entry) fit `u32` with `u32::MAX` to
        // spare as pass 2's "no further apply" sentinel.
        assert!(slots.len() < u32::MAX as usize, "history too large");
        let mut vars: Vec<VarId> = slots.iter().map(|s| s.var).collect();
        vars.sort_unstable();
        vars.dedup();
        Writes {
            n,
            base,
            vc: vec![0; slots.len() * n],
            on: vec![Vec::new(); vars.len() * n],
            slots,
            odd,
            vars,
        }
    }

    /// The slot of the write recorded as `w`, resolved or not.
    fn find(&self, w: WriteId) -> Option<usize> {
        let s = w.site.index();
        if s < self.n {
            let k = w.clock.wrapping_sub(1);
            if k < (self.base[s + 1] - self.base[s]) as u64 {
                let slot = self.base[s] + k as usize;
                if self.slots[slot].id == w {
                    return Some(slot);
                }
            }
        }
        self.odd.get(&w).copied()
    }

    fn row(&self, slot: usize) -> &[u32] {
        &self.vc[slot * self.n..][..self.n]
    }

    /// Pass 1 reached process `i`'s `ordinal`-th write with causal past
    /// `past` (the write itself included).
    fn resolve(&mut self, i: usize, ordinal: u32, past: &[u32]) {
        let slot = self.base[i] + ordinal as usize - 1;
        self.vc[slot * self.n..][..self.n].copy_from_slice(past);
        let s = &mut self.slots[slot];
        s.resolved = true;
        if s.id == WriteId::new(SiteId::from(i), u64::from(ordinal)) {
            let rank = self.vars.binary_search(&s.var).expect("indexed");
            self.on[rank * self.n + i].push(ordinal);
        }
    }

    /// A write on `var` inside the causal past `past` that causally
    /// follows `returned` — or, for a ⊥ read (`None`), any write on `var`
    /// in `past`. Per origin only the latest write on `var` in `past` is
    /// tested: clocks are monotone along program order, so an earlier
    /// write of that origin overwrites `returned` only if the latest does,
    /// and when the latest *is* `returned` none of the earlier ones can.
    fn newer_in_past(
        &self,
        var: VarId,
        past: &[u32],
        returned: Option<WriteId>,
    ) -> Option<WriteId> {
        let rank = self.vars.binary_search(&var).ok()?;
        let lists = &self.on[rank * self.n..][..self.n];
        lists
            .iter()
            .zip(past)
            .enumerate()
            .find_map(|(l, (list, &seen))| {
                let c = *list[..list.partition_point(|&c| c <= seen)].last()?;
                let w1 = WriteId::new(SiteId::from(l), u64::from(c));
                let newer = match returned {
                    None => true,
                    Some(r) => r != w1 && covers(self.row(self.base[l] + c as usize - 1), r),
                };
                newer.then_some(w1)
            })
    }
}

/// `w` is in the causal past `vc`.
fn covers(vc: &[u32], w: WriteId) -> bool {
    vc.get(w.site.index())
        .is_some_and(|&c| u64::from(c) >= w.clock)
}

/// Verify a recorded history. See [`Violations`] for what is checked, and
/// the crate docs for the algorithm: `O((ops + applies) · n)` time.
pub fn check(history: &History) -> Violations {
    let n = history.n();
    let mut v = Violations::default();
    let mut ws = Writes::index(history);

    // ------------------------------------------------------------------
    // Pass 1: assign vector clocks to writes by sweeping the per-process
    // histories in causal order (a read blocks until the write it observed
    // has its clock; program order otherwise).
    // ------------------------------------------------------------------
    let mut cursor = vec![0usize; n];
    // Row `i` is process `i`'s causal past so far.
    let mut past = vec![0u32; n * n];
    loop {
        let mut progressed = false;
        let mut done = true;
        for i in 0..n {
            let ops = &history.ops()[i];
            while cursor[i] < ops.len() {
                match &ops[cursor[i]] {
                    OpRecord::Write { write, .. } => {
                        past[i * n + i] += 1;
                        let ordinal = past[i * n + i];
                        if write.site.index() != i || write.clock != u64::from(ordinal) {
                            // Clocks must be the per-process write counter.
                            v.unresolved += 1;
                            v.note(format!(
                                "write {write} out of clock sequence at s{i} \
                                 (expected clock {ordinal})"
                            ));
                        }
                        ws.resolve(i, ordinal, &past[i * n..][..n]);
                    }
                    OpRecord::Read {
                        var,
                        read_from: Some(w),
                        ..
                    } => {
                        let Some(slot) = ws.find(*w) else {
                            v.reads_from += 1;
                            v.note(format!("read of {var} at s{i} observed unknown write {w}"));
                            cursor[i] += 1;
                            continue;
                        };
                        if !ws.slots[slot].resolved {
                            // Issued but not yet reached: retry later.
                            break;
                        }
                        if ws.slots[slot].var != *var {
                            v.reads_from += 1;
                            v.note(format!(
                                "read of {var} at s{i} observed {w}, which wrote {}",
                                ws.slots[slot].var
                            ));
                        }
                        // Freshness: no write on `var` in the reader's
                        // causal past may causally follow the returned
                        // write.
                        let me = &mut past[i * n..][..n];
                        if let Some(w1) = ws.newer_in_past(*var, me, Some(*w)) {
                            v.stale_reads += 1;
                            v.note(format!(
                                "stale read of {var} at s{i}: returned {w} \
                                 but {w1} (causally newer) is in the reader's past"
                            ));
                        }
                        // The read-from edge merges the writer's clock.
                        for (a, b) in me.iter_mut().zip(ws.row(slot)) {
                            *a = (*a).max(*b);
                        }
                    }
                    OpRecord::Read { var, .. } => {
                        // ⊥ read: a violation if any write on var is in
                        // the reader's causal past.
                        if let Some(w1) = ws.newer_in_past(*var, &past[i * n..][..n], None) {
                            v.stale_reads += 1;
                            v.note(format!(
                                "⊥ read of {var} at s{i} despite {w1} in causal past"
                            ));
                        }
                    }
                }
                cursor[i] += 1;
                progressed = true;
            }
            if cursor[i] < ops.len() {
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
    let mut last_clock = vec![0u64; n];
    let mut next_clock = vec![u32::MAX; n];
    for (k, seq) in history.applies().iter().enumerate() {
        // FIFO per origin: clocks strictly increase.
        last_clock.fill(0);
        for w in seq {
            let Some(last) = last_clock.get_mut(w.site.index()) else {
                continue; // counted as an unknown write below
            };
            if w.clock <= *last {
                v.fifo += 1;
                v.note(format!(
                    "s{k} applied {w} after clock {last} from the same origin"
                ));
            }
            *last = w.clock;
        }

        // Causal delivery, as a frontier sweep from the last apply to the
        // first: `next_clock[l]` is the clock of the earliest write from
        // origin `l` this site applies *after* the current position
        // (`u32::MAX`, above every timestamp entry, when there is none).
        // FIFO makes that write the oldest of origin `l` still missing, so
        // `w` was applied ahead of a causally preceding write from `l`
        // exactly when `next_clock[l] ≤ vc(w)[l]`. `w`'s own origin never
        // fires: under FIFO its next apply carries a clock above `w.clock`.
        next_clock.fill(u32::MAX);
        for (pos, w) in seq.iter().enumerate().rev() {
            if let Some(slot) = ws.find(*w) {
                let row = ws.row(slot);
                let misses = next_clock
                    .iter()
                    .zip(row)
                    .filter(|(next, seen)| next <= seen);
                let misses = misses.count() as u64;
                if misses > 0 {
                    // The applying site's own writes apply immediately by
                    // design; a miss there is the documented remote-fetch
                    // race, not a delivery bug (see `own_write_races`).
                    if w.site.index() == k {
                        v.own_write_races += misses;
                    } else {
                        v.delivery += misses;
                    }
                    let l = (0..n).find(|&l| next_clock[l] <= row[l]);
                    let l = l.expect("counted above");
                    v.note(format!(
                        "s{k} applied {w} at pos {pos} before causally preceding \
                         w(s{l},{})",
                        next_clock[l]
                    ));
                }
            } else {
                v.unresolved += 1;
                v.note(format!("s{k} applied unknown write {w}"));
            }
            if let Some(next) = next_clock.get_mut(w.site.index()) {
                *next = u32::try_from(w.clock).unwrap_or(u32::MAX);
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
        let late_ops = history.ops()[k].len().saturating_sub(*ops_mark);
        let late_applies = history.applies()[k].len().saturating_sub(*applies_mark);
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

#[cfg(test)]
mod tests {
    use super::*;
    use causal_types::SiteId;

    fn w(site: usize, clock: u64) -> WriteId {
        WriteId::new(SiteId::from(site), clock)
    }

    /// w1 at s0; s1 reads it then writes w2: everyone must apply w1 < w2.
    fn causal_chain_history(good: bool) -> History {
        let mut h = History::new(3);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(1));
        h.record_write(SiteId(1), w(1, 1), VarId(1));
        for k in 0..3 {
            if good || k != 2 {
                h.record_apply(SiteId::from(k), w(0, 1));
                h.record_apply(SiteId::from(k), w(1, 1));
            } else {
                // Site 2 inverts the causal order.
                h.record_apply(SiteId::from(k), w(1, 1));
                h.record_apply(SiteId::from(k), w(0, 1));
            }
        }
        h
    }

    #[test]
    fn clean_causal_chain_passes() {
        let v = check(&causal_chain_history(true));
        assert!(v.strictly_clean(), "{v:?}");
    }

    #[test]
    fn inverted_apply_order_is_a_delivery_violation() {
        let v = check(&causal_chain_history(false));
        assert_eq!(v.delivery, 1, "{v:?}");
        assert!(!v.protocol_clean());
    }

    #[test]
    fn concurrent_writes_may_apply_in_any_order() {
        // s0 and s1 write concurrently (no read between them): sites may
        // apply them in different orders.
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(1), w(1, 1), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(0), w(1, 1));
        h.record_apply(SiteId(1), w(1, 1));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert!(v.strictly_clean(), "{v:?}");
    }

    #[test]
    fn fifo_violation_detected() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(0));
        h.record_apply(SiteId(1), w(0, 2));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert!(v.fifo >= 1, "{v:?}");
    }

    #[test]
    fn program_order_is_causal() {
        // Two writes by one process must apply in order everywhere, even
        // without reads.
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(1));
        h.record_apply(SiteId(1), w(0, 2));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert!(v.fifo + v.delivery >= 1, "{v:?}");
    }

    #[test]
    fn transitive_dependency_detected() {
        // w(0,1) →co w(1,1) via read; s2 applies only those two, inverted,
        // but also w(1,1) arrived through a third write's chain — keep it
        // minimal: inversion across a 2-hop chain.
        let mut h = History::new(4);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(1));
        h.record_write(SiteId(1), w(1, 1), VarId(1));
        h.record_read(SiteId(2), VarId(1), Some(w(1, 1)), SiteId(2));
        h.record_write(SiteId(2), w(2, 1), VarId(2));
        // Site 3 applies w(2,1) before w(0,1): transitive violation.
        h.record_apply(SiteId(3), w(2, 1));
        h.record_apply(SiteId(3), w(0, 1));
        // (Other sites' applies omitted; the checker only needs s3's.)
        let v = check(&h);
        assert_eq!(v.delivery, 1, "{v:?}");
    }

    #[test]
    fn stale_read_detected_but_tolerated_by_protocol_clean() {
        // s1 reads w(0,2)'s value of x, then reads x again and sees the
        // older w(0,1): stale.
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 2)), SiteId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(0), w(0, 2));
        let v = check(&h);
        assert_eq!(v.stale_reads, 1, "{v:?}");
        assert!(v.protocol_clean());
        assert!(!v.strictly_clean());
    }

    #[test]
    fn bottom_read_with_known_write_in_past_is_stale() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        // Same process reads its own variable as ⊥ afterwards.
        h.record_read(SiteId(0), VarId(0), None, SiteId(0));
        h.record_apply(SiteId(0), w(0, 1));
        let v = check(&h);
        assert_eq!(v.stale_reads, 1, "{v:?}");
    }

    #[test]
    fn bottom_read_before_any_write_is_fine() {
        let mut h = History::new(2);
        h.record_read(SiteId(1), VarId(0), None, SiteId(1));
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert!(v.strictly_clean(), "{v:?}");
    }

    #[test]
    fn read_from_wrong_variable_flagged() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(5), Some(w(0, 1)), SiteId(1));
        let v = check(&h);
        assert_eq!(v.reads_from, 1, "{v:?}");
    }

    #[test]
    fn unknown_write_flagged() {
        let mut h = History::new(2);
        h.record_read(SiteId(1), VarId(0), Some(w(0, 9)), SiteId(1));
        let v = check(&h);
        assert_eq!(v.reads_from, 1, "{v:?}");
    }

    #[test]
    fn out_of_sequence_write_clock_flagged() {
        let mut h = History::new(1);
        h.record_write(SiteId(0), w(0, 2), VarId(0)); // first write, clock 2
        let v = check(&h);
        assert!(v.unresolved >= 1, "{v:?}");
    }

    #[test]
    fn activity_after_departure_seal_is_out_of_view() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(1), w(0, 1));
        h.seal_site(SiteId(0));
        let v = check(&h);
        assert_eq!(v.out_of_view, 0, "{v:?}");
        assert!(v.protocol_clean());
        // The departed site writes and applies again: both flagged.
        h.record_write(SiteId(0), w(0, 2), VarId(0));
        h.record_apply(SiteId(0), w(0, 2));
        let v = check(&h);
        assert_eq!(v.out_of_view, 2, "{v:?}");
        assert!(!v.protocol_clean());
        // Sealing is idempotent: a second seal keeps the first watermark.
        h.seal_site(SiteId(0));
        assert_eq!(check(&h).out_of_view, 2);
    }

    #[test]
    fn examples_are_capped() {
        let mut h = History::new(1);
        // 20 bad ⊥ reads after a write.
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        for _ in 0..20 {
            h.record_read(SiteId(0), VarId(0), None, SiteId(0));
        }
        h.record_apply(SiteId(0), w(0, 1));
        let v = check(&h);
        assert_eq!(v.stale_reads, 20);
        assert!(v.examples.len() <= 10);
    }
}

#[cfg(test)]
mod totality_tests {
    //! Corrupt recordings: `check` must terminate, allocate by the size of
    //! the history (never by a value found in it), and count the damage.
    use super::*;

    fn w(site: usize, clock: u64) -> WriteId {
        WriteId::new(SiteId::from(site), clock)
    }

    #[test]
    fn a_write_with_clock_u64_max_sizes_nothing() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, u64::MAX), VarId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, u64::MAX)), SiteId(0));
        h.record_read(SiteId(1), VarId(0), None, SiteId(0));
        for k in 0..2 {
            h.record_apply(SiteId::from(k), w(0, u64::MAX));
            h.record_apply(SiteId::from(k), w(0, 2));
        }
        let v = check(&h);
        assert_eq!(v.unresolved, 1, "{v:?}");
        assert_eq!(v.fifo, 2, "clock 2 after u64::MAX at both sites: {v:?}");
        assert!(!v.protocol_clean());
    }

    #[test]
    fn a_duplicated_write_id_is_unresolved() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_write(SiteId(0), w(0, 1), VarId(1));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert_eq!(v.unresolved, 1, "{v:?}");
        assert!(!v.protocol_clean());
    }

    #[test]
    fn a_write_recorded_under_a_foreign_or_out_of_range_site_is_unresolved() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(1, 1), VarId(0));
        h.record_write(SiteId(1), w(9, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(9, 1)), SiteId(1));
        h.record_read(SiteId(0), VarId(0), Some(w(7, 3)), SiteId(0));
        h.record_apply(SiteId(0), w(9, 1));
        h.record_apply(SiteId(0), w(7, 3));
        let v = check(&h);
        assert_eq!(v.unresolved, 3, "two odd writes, one unknown apply: {v:?}");
        assert_eq!(v.reads_from, 1, "{v:?}");
    }

    #[test]
    fn an_apply_of_an_unknown_write_is_unresolved() {
        let mut h = History::new(2);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(1), w(0, 7));
        h.record_apply(SiteId(1), w(1, 1));
        let v = check(&h);
        assert_eq!(v.unresolved, 2, "{v:?}");
        assert_eq!((v.fifo, v.delivery), (0, 0), "{v:?}");
    }

    #[test]
    fn a_cyclic_reads_from_pair_is_unresolved_not_a_hang() {
        // Each process reads the other's write before issuing its own.
        let mut h = History::new(2);
        h.record_read(SiteId(0), VarId(1), Some(w(1, 1)), SiteId(1));
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(1), VarId(0), Some(w(0, 1)), SiteId(0));
        h.record_write(SiteId(1), w(1, 1), VarId(1));
        let v = check(&h);
        assert_eq!(v.unresolved, 1, "{v:?}");
        assert!(!v.protocol_clean());
    }

    #[test]
    fn a_process_with_zero_ops_and_a_single_site_system_check_clean() {
        let mut h = History::new(3);
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(2), VarId(0), Some(w(0, 1)), SiteId(0));
        for k in 0..3 {
            h.record_apply(SiteId::from(k), w(0, 1));
        }
        assert!(check(&h).strictly_clean());

        let mut h = History::new(1);
        h.record_read(SiteId(0), VarId(0), None, SiteId(0));
        h.record_write(SiteId(0), w(0, 1), VarId(0));
        h.record_read(SiteId(0), VarId(0), Some(w(0, 1)), SiteId(0));
        h.record_write(SiteId(0), w(0, 2), VarId(0));
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(0), w(0, 2));
        assert!(check(&h).strictly_clean());
        assert!(check(&History::new(0)).strictly_clean());
    }
}

#[cfg(test)]
mod own_write_race_tests {
    use super::*;
    use causal_types::SiteId;

    fn w(site: usize, clock: u64) -> WriteId {
        WriteId::new(SiteId::from(site), clock)
    }

    #[test]
    fn own_write_race_classified_separately() {
        // s1 writes to var 0. s0 remotely reads it (via some replica),
        // then writes var 1 — applied at s0 immediately. s1's write reaches
        // s0 only later: s0's apply order inverts a real →co edge, but the
        // later write is s0's own → own_write_races, not delivery.
        let mut h = History::new(3);
        h.record_write(SiteId(1), w(1, 1), causal_types::VarId(0));
        h.record_read(SiteId(0), causal_types::VarId(0), Some(w(1, 1)), SiteId(2));
        h.record_write(SiteId(0), w(0, 1), causal_types::VarId(1));
        // s0 applies its own write first, then the remote one.
        h.record_apply(SiteId(0), w(0, 1));
        h.record_apply(SiteId(0), w(1, 1));
        // Other sites apply in causal order.
        h.record_apply(SiteId(1), w(1, 1));
        h.record_apply(SiteId(1), w(0, 1));
        let v = check(&h);
        assert_eq!(v.own_write_races, 1, "{v:?}");
        assert_eq!(v.delivery, 0);
        assert!(v.protocol_clean());
        assert!(!v.strictly_clean());
    }

    #[test]
    fn received_write_inversion_is_still_a_delivery_bug() {
        // Same shape, but the inverting site is a third party applying two
        // *received* writes out of order: that is a genuine protocol bug.
        let mut h = History::new(3);
        h.record_write(SiteId(1), w(1, 1), causal_types::VarId(0));
        h.record_read(SiteId(0), causal_types::VarId(0), Some(w(1, 1)), SiteId(0));
        h.record_write(SiteId(0), w(0, 1), causal_types::VarId(1));
        h.record_apply(SiteId(2), w(0, 1));
        h.record_apply(SiteId(2), w(1, 1));
        let v = check(&h);
        assert_eq!(v.delivery, 1, "{v:?}");
        assert_eq!(v.own_write_races, 0);
    }
}
