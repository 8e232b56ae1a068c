//! The optP protocol of Baldoni, Milani and Tucci-Piergiovanni (full
//! replication, size-`n` vector clock).
//!
//! This is the paper's full-replication baseline: the optimal
//! propagation-based protocol of \[13\]. Each site keeps a `Write` vector of
//! size `n` counting, per process, the writes that causally happened before
//! under `→co`; the vector is piggybacked on every SM. Merging happens at
//! *read* time, exactly as in Full-Track but with one dimension fewer
//! (under full replication every process's writes reach every site, so
//! per-destination counting is unnecessary).

use crate::factory::ProtocolKind;
use crate::msg::SmMeta;
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replica::{raise_to_horizon, retain_slots, Core, Donor, Parked, Tracker};
use crate::replication::Replication;
use crate::site::{GcStats, StableCut};
use crate::var_map::VarMap;
use causal_clocks::{DestSet, VectorClock};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// optP's `Write_i` vector and its rules; one site is a
/// [`Replica<OptP>`](crate::Replica).
#[derive(Clone)]
pub struct OptP {
    /// `Write_i` — the site's vector clock.
    pub(crate) write: VectorClock,
}

impl OptP {
    /// The optP tracker for a site under `repl`. Requires full replication.
    pub fn new(repl: &dyn Replication) -> Self {
        assert!(repl.is_full(), "optP requires full replication (p = n)");
        OptP {
            write: VectorClock::new(repl.n()),
        }
    }
}

impl Tracker for OptP {
    const KIND: ProtocolKind = ProtocolKind::OptP;
    /// The writer's vector snapshot, this write included.
    type Stamp = Arc<VectorClock>;
    type Slot = Arc<VectorClock>;
    type SyncMeta = VectorClock;

    fn stamp(&mut self, cx: &Core, wid: WriteId, _dests: DestSet) -> Self::Stamp {
        let own = self.write.increment(cx.site);
        debug_assert_eq!(own, wid.clock, "the own component is the write counter");
        Arc::new(self.write.clone())
    }

    fn sm_meta(stamp: &Self::Stamp) -> SmMeta {
        SmMeta::OptP {
            write: Arc::clone(stamp),
        }
    }

    fn from_sm_meta(meta: SmMeta) -> Option<Self::Stamp> {
        match meta {
            SmMeta::OptP { write } => Some(write),
            _ => None,
        }
    }

    /// All causally preceding writes counted by the piggybacked vector must
    /// be applied; the sender's component counts the update itself.
    fn blocking_dep(
        &self,
        cx: &Core,
        sender: SiteId,
        stamp: &Self::Stamp,
    ) -> Option<(SiteId, u64)> {
        stamp
            .iter()
            .map(|(l, required)| {
                let threshold = if l == sender {
                    required.saturating_sub(1)
                } else {
                    required
                };
                (l, threshold)
            })
            .find(|&(l, threshold)| cx.apply[l.index()] < threshold)
    }

    fn applied(&mut self, _cx: &Core, _sender: SiteId, m: Parked<Self::Stamp>) -> Self::Slot {
        m.stamp
    }

    fn read_merge(&mut self, _cx: &mut Core, slot: &mut Self::Slot) {
        self.write.merge_max(slot);
    }

    fn horizon<'a>(&'a self, cx: &'a Core) -> Option<&'a [u64]> {
        Some(&cx.apply)
    }

    fn local_meta_size(&self, _cx: &Core, slots: &VarMap<Self::Slot>, model: &SizeModel) -> u64 {
        let stashed: u64 = slots.values().map(|w| w.meta_size(model)).sum();
        self.write.meta_size(model) + stashed
    }

    fn gc_stable(&mut self, slots: &mut VarMap<Self::Slot>, cut: &StableCut) -> GcStats {
        // Full replication makes per-origin write clocks and destination
        // counts the same number, so the clock frontier is directly the
        // stability test for a stashed vector: a `LastWriteOn` clock wholly
        // below it only names writes applied at every live member, and the
        // read-merge it feeds can no longer influence any delivery.
        GcStats {
            log_entries: 0,
            slots: retain_slots(slots, |w| !w.le_frontier(cut.clocks)),
        }
    }

    fn own_row(&self, cx: &Core) -> Vec<u64> {
        // Full replication: every own write goes to every site.
        vec![cx.clock; cx.n]
    }

    fn restore_own(&mut self, cx: &Core, ledger: &OwnLedger) {
        let own = self.write.get(cx.site).max(ledger.own_clock);
        self.write.set(cx.site, own);
    }

    fn crash(&mut self, cx: &Core, ledger: &OwnLedger) {
        self.write = VectorClock::new(cx.n);
        self.write.set(cx.site, ledger.own_clock);
    }

    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, _dropped: usize) {
        // The peer's unacked pre-crash writes died with it; count them as
        // applied so predicates waiting on them can fire.
        let applied = &mut cx.apply[peer.index()];
        *applied = (*applied).max(ledger.own_clock);
    }

    fn export_sync<'a>(
        &self,
        cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a Self::Slot>)>,
    ) -> SyncState {
        // A stash collected by `gc_stable` means the variable's last write
        // is stable at every member — its dependency constraints are
        // vacuous, so the zero clock is exact.
        let stash =
            |w: Option<&Self::Slot>| w.map_or_else(|| VectorClock::new(cx.n), |w| (**w).clone());
        SyncState::OptP {
            clock: self.write.clone(),
            applied: cx.apply.clone(),
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
        let SyncState::OptP {
            clock,
            applied,
            vars,
        } = state
        else {
            return None;
        };
        self.write.merge_max(clock);
        raise_to_horizon(&mut cx.apply, peer, ack, applied);
        Some(Donor {
            known: applied,
            vars: vars
                .iter()
                .map(|(var, value, w)| (*var, *value, w))
                .collect(),
        })
    }

    fn slot_from_sync(
        &self,
        _cx: &Core,
        _value: VersionedValue,
        meta: &Self::SyncMeta,
    ) -> Self::Slot {
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

    fn system(n: usize) -> Vec<Replica<OptP>> {
        kit::system(FullReplication::new(n), OptP::new)
    }

    #[test]
    fn sm_size_is_exactly_209_plus_10n() {
        let model = SizeModel::java_like();
        for n in [5usize, 10, 20, 30, 35, 40] {
            let mut sys = system(n);
            let (_w, effects) = sys[0].write(VarId(0), 1, 0);
            let (_to, sm) = sends(&effects)[0].clone();
            assert_eq!(
                Msg::Sm(sm).meta_size(&model),
                209 + 10 * n as u64,
                "optP SM must match Table III exactly"
            );
        }
    }

    #[test]
    fn causal_order_enforced_through_reads() {
        let mut sys = system(3);
        let (w1, e1) = sys[0].write(VarId(0), 1, 0);
        let sm_x_to_1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let sm_x_to_2 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        sys[1].on_message(SiteId(0), Msg::Sm(sm_x_to_1));
        sys[1].read(VarId(0));
        let (w2, e2) = sys[1].write(VarId(1), 2, 0);
        let sm_y_to_2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert!(applied(&eff).is_empty(), "y waits for x");
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x_to_2));
        assert_eq!(applied(&eff), vec![w1, w2]);
    }

    #[test]
    fn no_false_causality_without_read() {
        let mut sys = system(3);
        let (_w1, e1) = sys[0].write(VarId(0), 1, 0);
        let sm_x_to_1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_x_to_1));
        // No read: receipt alone creates no →co edge in optP either.
        let (w2, e2) = sys[1].write(VarId(1), 2, 0);
        let sm_y_to_2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert_eq!(applied(&eff), vec![w2]);
    }

    #[test]
    fn reads_are_always_local() {
        let mut sys = system(2);
        match sys[0].read(VarId(99)) {
            ReadResult::Local(None) => {}
            other => panic!("expected ⊥, got {other:?}"),
        }
    }

    #[test]
    fn vector_grows_only_through_reads() {
        let mut sys = system(2);
        let (_w, e) = sys[0].write(VarId(0), 1, 0);
        let sm = sends(&e)[0].1.clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm));
        // Before the read the receiver's write clock must not know s0's
        // write (receipt does not merge).
        assert_eq!(sys[1].tracker.write.get(SiteId(0)), 0);
        sys[1].read(VarId(0));
        assert_eq!(sys[1].tracker.write.get(SiteId(0)), 1);
    }

    #[test]
    fn gc_stable_drops_covered_vector_stashes() {
        use causal_clocks::MatrixClock;
        let mut sys = system(3);
        let (_w, e) = sys[0].write(VarId(0), 5, 0);
        let sm_to_1 = sends(&e)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_to_1));

        let counts = MatrixClock::new(3);
        // Frontier below the stashed vector: survives.
        let cut = StableCut {
            clocks: &[0, 0, 0],
            counts: &counts,
        };
        assert!(sys[1].gc_stable(&cut).is_empty());

        // Frontier covers it: the stash goes, the value stays readable.
        let cut = StableCut {
            clocks: &[1, 0, 0],
            counts: &counts,
        };
        let stats = sys[1].gc_stable(&cut);
        assert_eq!(stats.slots, 1, "stats: {stats:?}");
        assert!(sys[1].gc_stable(&cut).is_empty(), "idempotent");
        match sys[1].read(VarId(0)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.data, 5),
            other => panic!("expected local value, got {other:?}"),
        }
    }
}
