//! The Full-Track protocol (partial replication, `n×n` matrix clock).
//!
//! §III-A of the paper: each site `s_i` tracks `Write_i[j][k]` — the number
//! of write operations performed by application process `ap_j` towards site
//! `s_k` that causally happened before (under `→co`) the site's current
//! state. The matrix is piggybacked on every SM and RM. Crucially, a
//! received matrix is **not** merged at message receipt: under `→co` it is
//! *reading* the written value that creates the causal edge, so the
//! piggybacked matrix is stashed in `LastWriteOn⟨h⟩` and merged into the
//! local matrix only by a later read of `h`.

use crate::factory::ProtocolKind;
use crate::msg::{RmMeta, SmMeta};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replica::{retain_slots, Core, Donor, Parked, Tracker};
use crate::replication::Replication;
use crate::site::{GcStats, StableCut};
use crate::var_map::VarMap;
use causal_clocks::{DestSet, MatrixClock};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// Full-Track's `Write_i` matrix and its rules; one site is a
/// [`Replica<FullTrack>`](crate::Replica).
#[derive(Clone)]
pub struct FullTrack {
    /// `Write_i` — the site's matrix clock.
    write: MatrixClock,
}

impl FullTrack {
    /// The Full-Track tracker for a site under `repl`.
    pub fn new(repl: &dyn Replication) -> Self {
        FullTrack {
            write: MatrixClock::new(repl.n()),
        }
    }
}

/// `Write[i][k]++` for every destination `k` of a write by `me`.
pub(crate) fn count_write(write: &mut MatrixClock, me: SiteId, dests: DestSet) {
    for k in dests.iter() {
        write.increment(me, k);
    }
}

/// The activation predicate `A_OPT` for an update from `sender` carrying
/// matrix `w`, evaluated at site `cx.site = k`, as its first unsatisfied
/// dependency `(site, required apply count)`:
///
/// * every process `l ≠ sender` must have had all its causally preceding
///   writes *to this site* applied: `Apply_k[l] ≥ W[l][k]`;
/// * the sender's row counts this very update, hence
///   `Apply_k[sender] ≥ W[sender][k] − 1`.
pub(crate) fn matrix_blocking_dep(
    cx: &Core,
    sender: SiteId,
    w: &MatrixClock,
) -> Option<(SiteId, u64)> {
    for l in SiteId::all(cx.n) {
        let required = w.get(l, cx.site);
        let threshold = if l == sender {
            required.saturating_sub(1)
        } else {
            required
        };
        if cx.apply[l.index()] < threshold {
            return Some((l, threshold));
        }
    }
    None
}

/// The own row of `write`: own writes per destination — ledger material,
/// since no peer's matrix can know more of this row than the site itself.
pub(crate) fn matrix_own_row(write: &MatrixClock, cx: &Core) -> Vec<u64> {
    SiteId::all(cx.n).map(|d| write.get(cx.site, d)).collect()
}

/// Raise the own row of `write` to at least the ledger's.
pub(crate) fn raise_own_row(write: &mut MatrixClock, cx: &Core, ledger: &OwnLedger) {
    for d in SiteId::all(cx.n) {
        let row = write.get(cx.site, d).max(ledger.own_row[d.index()]);
        write.set(cx.site, d, row);
    }
}

/// The matrix a crash leaves: nothing learned, the own row as the ledger
/// justifies it.
pub(crate) fn matrix_after_crash(cx: &Core, ledger: &OwnLedger) -> MatrixClock {
    let mut write = MatrixClock::new(cx.n);
    raise_own_row(&mut write, cx, ledger);
    write
}

/// The peer's unacked pre-crash writes are gone forever; pretend they were
/// applied so predicates counting them can fire.
pub(crate) fn count_lost_as_applied(cx: &mut Core, peer: SiteId, ledger: &OwnLedger) {
    let sent_here = ledger.own_row[cx.site.index()];
    let applied = &mut cx.apply[peer.index()];
    *applied = (*applied).max(sent_here);
}

/// Acked SMs were received exactly once and are never redelivered; unacked
/// ones will be. The acked count therefore IS the per-origin receive counter
/// the crash erased. Never regress: a WAL-replayed site may already count
/// logged-but-unacked ones.
pub(crate) fn restore_received(cx: &mut Core, peer: SiteId, ack: &PeerAckInfo) {
    let applied = &mut cx.apply[peer.index()];
    *applied = (*applied).max(ack.sm_count);
}

impl Tracker for FullTrack {
    const KIND: ProtocolKind = ProtocolKind::FullTrack;
    /// The writer's matrix snapshot, shared (`Arc`) all the way from the
    /// fan-out into each receiver's stash.
    type Stamp = Arc<MatrixClock>;
    /// The matrix that travelled with the last write applied: received
    /// matrices are **not** merged at receipt, only by a later read.
    type Slot = Arc<MatrixClock>;
    type SyncMeta = MatrixClock;

    fn stamp(&mut self, cx: &Core, _wid: WriteId, dests: DestSet) -> Self::Stamp {
        // Count this write towards every destination replica, then snapshot.
        count_write(&mut self.write, cx.site, dests);
        Arc::new(self.write.clone())
    }

    fn sm_meta(stamp: &Self::Stamp) -> SmMeta {
        SmMeta::FullTrack {
            write: Arc::clone(stamp),
        }
    }

    fn from_sm_meta(meta: SmMeta) -> Option<Self::Stamp> {
        match meta {
            SmMeta::FullTrack { write } => Some(write),
            _ => None,
        }
    }

    fn blocking_dep(&self, cx: &Core, sender: SiteId, w: &Self::Stamp) -> Option<(SiteId, u64)> {
        matrix_blocking_dep(cx, sender, w)
    }

    fn applied(&mut self, _cx: &Core, _sender: SiteId, m: Parked<Self::Stamp>) -> Self::Slot {
        m.stamp
    }

    fn read_merge(&mut self, _cx: &mut Core, slot: &mut Self::Slot) {
        self.write.merge_max(slot);
    }

    fn rm_reply(&mut self, _cx: &Core, slot: Option<&mut Self::Slot>) -> RmMeta {
        RmMeta::FullTrack(slot.map(|w| Arc::clone(w)))
    }

    fn rm_merge(&mut self, _cx: &mut Core, meta: RmMeta) -> bool {
        let RmMeta::FullTrack(meta) = meta else {
            return false;
        };
        if let Some(w) = &meta {
            self.write.merge_max(w);
        }
        true
    }

    fn local_meta_size(&self, _cx: &Core, slots: &VarMap<Self::Slot>, model: &SizeModel) -> u64 {
        let stashed: u64 = slots.values().map(|w| w.meta_size(model)).sum();
        self.write.meta_size(model) + stashed
    }

    fn gc_stable(&mut self, slots: &mut VarMap<Self::Slot>, cut: &StableCut) -> GcStats {
        // A stashed `LastWriteOn` matrix wholly within the stable cut
        // describes only writes already applied at every live member: a
        // future read's merge of it could never raise the local matrix
        // above knowledge whose constraints are vacuous everywhere, so the
        // stash can go. The value itself stays — only the metadata is GC'd.
        GcStats {
            log_entries: 0,
            slots: retain_slots(slots, |w| !w.le(cut.counts)),
        }
    }

    fn own_row(&self, cx: &Core) -> Vec<u64> {
        matrix_own_row(&self.write, cx)
    }

    fn restore_own(&mut self, cx: &Core, ledger: &OwnLedger) {
        raise_own_row(&mut self.write, cx, ledger);
    }

    fn crash(&mut self, cx: &Core, ledger: &OwnLedger) {
        self.write = matrix_after_crash(cx, ledger);
    }

    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, _dropped: usize) {
        count_lost_as_applied(cx, peer, ledger);
    }

    fn export_sync<'a>(
        &self,
        cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a Self::Slot>)>,
    ) -> SyncState {
        // A stash collected by `gc_stable` means the variable's last write
        // is stable at every member — its dependency constraints are
        // vacuous, so the zero matrix is exact.
        let stash =
            |w: Option<&Self::Slot>| w.map_or_else(|| MatrixClock::new(cx.n), |w| (**w).clone());
        SyncState::FullTrack {
            clock: self.write.clone(),
            vars: vars.map(|(var, value, w)| (var, value, stash(w))).collect(),
        }
    }

    fn absorb_sync<'a>(
        &mut self,
        cx: &mut Core,
        peer: SiteId,
        ack: &PeerAckInfo,
        state: &'a SyncState,
    ) -> Option<Donor<'a, Self::SyncMeta>> {
        let SyncState::FullTrack { clock, vars } = state else {
            return None;
        };
        restore_received(cx, peer, ack);
        // Merging every live peer's matrix over-approximates the lost
        // causal knowledge (each observed write is in its writer's own
        // row) — safe: never violates →co, only adds waiting.
        self.write.merge_max(clock);
        Some(Donor {
            known: &[],
            vars: vars
                .iter()
                .map(|(var, value, w)| (*var, *value, w))
                .collect(),
        })
    }

    fn slot_from_sync(&self, _cx: &Core, _value: VersionedValue, meta: &MatrixClock) -> Self::Slot {
        Arc::new(meta.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::ReadResult;
    use crate::msg::Msg;
    use crate::replica::kit::{self, applied, sends};
    use crate::replica::Replica;
    use crate::replication::FullReplication;
    use crate::site::ProtocolSite;

    fn system(n: usize) -> Vec<Replica<FullTrack>> {
        kit::system(FullReplication::new(n), FullTrack::new)
    }

    #[test]
    fn write_multicasts_to_other_replicas_and_applies_locally() {
        let mut sys = system(3);
        let (wid, effects) = sys[0].write(VarId(0), 42, 0);
        assert_eq!(wid, WriteId::new(SiteId(0), 1));
        let s = sends(&effects);
        assert_eq!(s.len(), 2, "one SM per remote replica");
        assert_eq!(applied(&effects), vec![wid], "writer applies immediately");
        assert_eq!(sys[0].value_of(VarId(0)).unwrap().data, 42);
    }

    #[test]
    fn in_order_delivery_applies_immediately() {
        let mut sys = system(2);
        let (wid, effects) = sys[0].write(VarId(1), 7, 0);
        let (to, sm) = sends(&effects)[0].clone();
        assert_eq!(to, SiteId(1));
        let eff = sys[1].on_message(SiteId(0), Msg::Sm(sm));
        assert_eq!(applied(&eff), vec![wid]);
        assert_eq!(sys[1].value_of(VarId(1)).unwrap().data, 7);
    }

    #[test]
    fn causal_dependency_through_read_parks_early_message() {
        // s0 writes x; s1 applies it, reads it (→co edge), writes y.
        // s2 receives y's SM before x's SM: y must park until x applies.
        let mut sys = system(3);
        let (wx, e0) = sys[0].write(VarId(0), 1, 0);
        let sm_x_to_1 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let sm_x_to_2 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        sys[1].on_message(SiteId(0), Msg::Sm(sm_x_to_1));
        match sys[1].read(VarId(0)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.writer, wx),
            other => panic!("expected local read, got {other:?}"),
        }
        let (wy, e1) = sys[1].write(VarId(1), 2, 0);
        let sm_y_to_2 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        // Deliver y first: it must be parked.
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert!(applied(&eff).is_empty(), "y causally follows x; parked");
        assert_eq!(sys[2].pending_len(), 1);
        assert_eq!(sys[2].value_of(VarId(1)), None);

        // Deliver x: both apply, in causal order.
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x_to_2));
        assert_eq!(applied(&eff), vec![wx, wy]);
        assert_eq!(sys[2].pending_len(), 0);
        assert_eq!(sys[2].value_of(VarId(1)).unwrap().writer, wy);
    }

    #[test]
    fn no_false_dependency_without_read() {
        // s1 receives x's SM but does NOT read x before writing y: under
        // →co there is no dependency, so s2 can apply y before x.
        let mut sys = system(3);
        let (_wx, e0) = sys[0].write(VarId(0), 1, 0);
        let sm_x_to_1 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_x_to_1));
        // No read here — receipt alone must not create causality.
        let (wy, e1) = sys[1].write(VarId(1), 2, 0);
        let sm_y_to_2 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert_eq!(
            applied(&eff),
            vec![wy],
            "no →co edge was created, y applies without waiting for x"
        );
    }

    #[test]
    fn fifo_order_from_one_sender_is_preserved() {
        let mut sys = system(2);
        let (w1, e1) = sys[0].write(VarId(0), 1, 0);
        let (w2, e2) = sys[0].write(VarId(0), 2, 0);
        let sm1 = sends(&e1)[0].1.clone();
        let sm2 = sends(&e2)[0].1.clone();
        // FIFO channels deliver in order; apply order must match.
        let eff1 = sys[1].on_message(SiteId(0), Msg::Sm(sm1));
        let eff2 = sys[1].on_message(SiteId(0), Msg::Sm(sm2));
        assert_eq!(applied(&eff1), vec![w1]);
        assert_eq!(applied(&eff2), vec![w2]);
        assert_eq!(sys[1].value_of(VarId(0)).unwrap().data, 2);
    }

    #[test]
    fn reading_bottom_returns_none() {
        let mut sys = system(2);
        match sys[0].read(VarId(9)) {
            ReadResult::Local(None) => {}
            other => panic!("expected ⊥, got {other:?}"),
        }
    }

    #[test]
    fn local_meta_size_counts_matrix() {
        let sys = system(5);
        let model = SizeModel::java_like();
        assert_eq!(sys[0].local_meta_size(&model), 250, "n² scalars");
    }

    #[test]
    fn gc_stable_drops_covered_last_write_on_stashes() {
        let mut sys = system(3);
        let (_w, e0) = sys[0].write(VarId(0), 42, 0);
        let sm_to_1 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_to_1));

        let model = SizeModel::java_like();
        let before = sys[1].local_meta_size(&model);

        // Not yet stable (zero counts): the stash must survive.
        let cut = StableCut {
            clocks: &[0, 0, 0],
            counts: &MatrixClock::new(3),
        };
        assert!(sys[1].gc_stable(&cut).is_empty());
        assert_eq!(sys[1].local_meta_size(&model), before);

        // s0's first write (1 per destination) stable everywhere: the
        // stashed matrix is wholly within the cut and goes.
        let mut counts = MatrixClock::new(3);
        for k in SiteId::all(3) {
            counts.set(SiteId(0), k, 1);
        }
        let cut = StableCut {
            clocks: &[1, 0, 0],
            counts: &counts,
        };
        let stats = sys[1].gc_stable(&cut);
        assert_eq!(stats.slots, 1, "stats: {stats:?}");
        assert!(sys[1].local_meta_size(&model) < before);
        assert!(sys[1].gc_stable(&cut).is_empty(), "idempotent");

        // The value itself is untouched — only metadata was reclaimed.
        assert_eq!(sys[1].value_of(VarId(0)).unwrap().data, 42);
        match sys[1].read(VarId(0)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.data, 42),
            other => panic!("expected local value, got {other:?}"),
        }
    }
}
