//! HB-Track: a happened-before baseline exhibiting *false causality*.
//!
//! The paper's Contributions section credits Full-Track with "primarily
//! reduc\[ing\] the false causality in the partial replica system": under the
//! `→co` relation, *receiving* a message creates no causal dependency —
//! only reading the written value does, so piggybacked clocks are merged at
//! read time. HB-Track is the natural strawman this improves on: a matrix
//! protocol in the Raynal–Schiper–Toueg tradition that merges the
//! piggybacked matrix at **message receipt**, thereby tracking Lamport's
//! happened-before relation `→` — a superset of `→co`.
//!
//! HB-Track is still *correct* (`→co ⊂ →`, so every real dependency is
//! honored; the extra waits are all satisfiable because they refer to real
//! sends), and its messages have exactly Full-Track's size. What it costs
//! is **delay**: updates park behind dependencies that are not real, which
//! the `repro falseco` experiment quantifies via the apply-latency and
//! pending-buffer metrics. This protocol is an extension, not part of the
//! paper's measured set.

use crate::factory::ProtocolKind;
use crate::full_track::{
    count_lost_as_applied, count_write, matrix_after_crash, matrix_blocking_dep, matrix_own_row,
    raise_own_row, restore_received,
};
use crate::msg::{RmMeta, SmMeta};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replica::{Core, Donor, Parked, Tracker};
use crate::replication::Replication;
use crate::site::{GcStats, StableCut};
use crate::var_map::VarMap;
use causal_clocks::{DestSet, MatrixClock};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// HB-Track's happened-before matrix and its rules; one site is a
/// [`Replica<HbTrack>`](crate::Replica).
#[derive(Clone)]
pub struct HbTrack {
    /// The local matrix, behind shared ownership: a write's fan-out and an
    /// FM's reply take the snapshot by refcount alone, and the next mutation
    /// pays the copy-on-write clone ([`Arc::make_mut`]) only while such a
    /// snapshot is still alive.
    write: Arc<MatrixClock>,
}

impl HbTrack {
    /// The HB-Track tracker for a site under `repl`.
    pub fn new(repl: &dyn Replication) -> Self {
        HbTrack {
            write: Arc::new(MatrixClock::new(repl.n())),
        }
    }
}

impl Tracker for HbTrack {
    const KIND: ProtocolKind = ProtocolKind::HbTrack;
    /// The writer's matrix snapshot — on the wire exactly Full-Track's.
    type Stamp = Arc<MatrixClock>;
    /// Receipt-merge protocols keep no per-variable metadata.
    type Slot = ();
    type SyncMeta = ();

    fn stamp(&mut self, cx: &Core, _wid: WriteId, dests: DestSet) -> Self::Stamp {
        count_write(Arc::make_mut(&mut self.write), cx.site, dests);
        Arc::clone(&self.write)
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

    /// The same counting predicate as Full-Track — but because the matrix
    /// was merged at receipt, `W[l][k]` counts messages that happened
    /// before under `→`, not `→co`: the site waits for more than causality
    /// requires, and the witness may well be a *false* dependency — that is
    /// the point of the `falseco` experiment.
    fn blocking_dep(&self, cx: &Core, sender: SiteId, w: &Self::Stamp) -> Option<(SiteId, u64)> {
        matrix_blocking_dep(cx, sender, w)
    }

    fn applied(&mut self, cx: &Core, sender: SiteId, m: Parked<Self::Stamp>) {
        // Receipt-merge: this is where HB-Track manufactures the false
        // dependencies that its later multicasts will impose on others.
        // (The writer's own stamp is its live matrix already.)
        if sender != cx.site {
            Arc::make_mut(&mut self.write).merge_max(&m.stamp);
        }
    }

    /// No read-time merge: receipt already merged (that is the whole
    /// difference from Full-Track).
    fn read_merge(&mut self, _cx: &mut Core, _slot: &mut ()) {}

    fn rm_reply(&mut self, _cx: &Core, _slot: Option<&mut ()>) -> RmMeta {
        // The server answers with its whole matrix (HB semantics: the reply
        // transfers the server's knowledge wholesale).
        RmMeta::FullTrack(Some(Arc::clone(&self.write)))
    }

    fn rm_merge(&mut self, _cx: &mut Core, meta: RmMeta) -> bool {
        let RmMeta::FullTrack(meta) = meta else {
            return false;
        };
        if let Some(w) = &meta {
            Arc::make_mut(&mut self.write).merge_max(w);
        }
        true
    }

    fn local_meta_size(&self, _cx: &Core, _slots: &VarMap<()>, model: &SizeModel) -> u64 {
        self.write.meta_size(model)
    }

    fn gc_stable(&mut self, _slots: &mut VarMap<()>, _cut: &StableCut) -> GcStats {
        // The one fixed matrix is already O(n²)-bounded: nothing to collect.
        GcStats::default()
    }

    fn own_row(&self, cx: &Core) -> Vec<u64> {
        matrix_own_row(&self.write, cx)
    }

    fn restore_own(&mut self, cx: &Core, ledger: &OwnLedger) {
        raise_own_row(Arc::make_mut(&mut self.write), cx, ledger);
    }

    fn crash(&mut self, cx: &Core, ledger: &OwnLedger) {
        self.write = Arc::new(matrix_after_crash(cx, ledger));
    }

    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, _dropped: usize) {
        count_lost_as_applied(cx, peer, ledger);
    }

    fn export_sync<'a>(
        &self,
        _cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a ()>)>,
    ) -> SyncState {
        SyncState::HbTrack {
            clock: (*self.write).clone(),
            vars: vars.map(|(var, value, _)| (var, value)).collect(),
        }
    }

    fn absorb_sync<'a>(
        &mut self,
        cx: &mut Core,
        peer: SiteId,
        ack: &PeerAckInfo,
        state: &'a SyncState,
    ) -> Option<Donor<'a, ()>> {
        let SyncState::HbTrack { clock, vars } = state else {
            return None;
        };
        restore_received(cx, peer, ack);
        // Receipt-merge protocol: merging peers' matrices is exactly the
        // HB knowledge transfer an RM reply performs, just n-wide.
        Arc::make_mut(&mut self.write).merge_max(clock);
        Some(Donor {
            known: &[],
            vars: vars
                .iter()
                .map(|(var, value)| (*var, *value, &()))
                .collect(),
        })
    }

    fn slot_from_sync(&self, _cx: &Core, _value: VersionedValue, _meta: &()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::replica::kit::{self, applied, sends};
    use crate::replica::Replica;
    use crate::replication::FullReplication;
    use crate::site::ProtocolSite;

    fn system(n: usize) -> Vec<Replica<HbTrack>> {
        kit::system(FullReplication::new(n), HbTrack::new)
    }

    #[test]
    fn receipt_alone_creates_dependency_false_causality() {
        // The scenario where Full-Track does NOT park (its
        // `no_false_dependency_without_read` test): s1 receives x's update
        // but never reads it, then writes y. Under HB-Track, s2 must wait
        // for x anyway — the false dependency.
        let mut sys = system(3);
        let (w_x, e0) = sys[0].write(VarId(0), 1, 0);
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
        // No read!
        let (w_y, e1) = sys[1].write(VarId(1), 2, 0);
        let sm_y_to_2 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert!(
            applied(&eff).is_empty(),
            "HB-Track must park y behind the unread x (false causality)"
        );
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x_to_2));
        assert_eq!(applied(&eff), vec![w_x, w_y]);
    }

    #[test]
    fn real_dependencies_still_enforced() {
        let mut sys = system(3);
        let (w1, e0) = sys[0].write(VarId(0), 1, 0);
        let sm_to_1 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let sm_to_2 = sends(&e0)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_to_1));
        sys[1].read(VarId(0));
        let (w2, e1) = sys[1].write(VarId(1), 2, 0);
        let sm_y = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y));
        assert!(applied(&eff).is_empty());
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_to_2));
        assert_eq!(applied(&eff), vec![w1, w2]);
    }

    #[test]
    fn message_sizes_equal_full_track() {
        let model = SizeModel::java_like();
        let mut sys = system(5);
        let (_w, e) = sys[0].write(VarId(0), 1, 0);
        let sm = Msg::Sm(sends(&e)[0].1.clone());
        assert_eq!(sm.meta_size(&model), 209 + 10 * 25);
    }
}
