//! The Opt-Track-CRP protocol (full replication, 2-tuple log).
//!
//! §III-C of the paper: under full replication every write goes to every
//! site, so destination lists carry no information and each dependency is
//! the 2-tuple `⟨i, clock_i⟩`. The local log resets to the write's own tuple
//! after every write and grows by at most one tuple per read — `d + 1`
//! entries, `d` being the number of reads since the last local write. This
//! is the `O(d)` (effectively constant) per-message overhead that beats
//! optP's `O(n)` vector in Figs. 5–8 / Table III.

use crate::factory::ProtocolKind;
use crate::msg::SmMeta;
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replica::{raise_to_horizon, retain_slots, Core, Donor, Parked, Tracker};
use crate::replication::Replication;
use crate::site::{GcStats, StableCut};
use crate::var_map::VarMap;
use causal_clocks::{CrpLog, DestSet};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// Opt-Track-CRP's 2-tuple log and its rules; one site is a
/// [`Replica<OptTrackCrp>`](crate::Replica).
#[derive(Clone)]
pub struct OptTrackCrp {
    /// The local dependency log (`≤ d + 1` tuples).
    log: CrpLog,
    /// Largest write clock from each origin applied here. Under full
    /// replication every write of an origin reaches every site in clock
    /// order, so this equals the applied count; the predicate speaks clocks.
    last_clock: Vec<u64>,
}

impl OptTrackCrp {
    /// The CRP tracker for a site under `repl`. The placement must be full
    /// replication — the protocol's correctness depends on it.
    pub fn new(repl: &dyn Replication) -> Self {
        assert!(
            repl.is_full(),
            "Opt-Track-CRP requires full replication (p = n)"
        );
        OptTrackCrp {
            log: CrpLog::new(),
            last_clock: vec![0; repl.n()],
        }
    }
}

impl Tracker for OptTrackCrp {
    const KIND: ProtocolKind = ProtocolKind::OptTrackCrp;
    /// The write's clock and the writer's pre-write log.
    type Stamp = (u64, Arc<CrpLog>);
    /// Under CRP only the applied write's own tuple is stored ("only w'
    /// itself needs to be stored in LastWriteOn_i⟨x_h⟩").
    type Slot = WriteId;
    /// The tuple is the shipped value's own writer.
    type SyncMeta = ();

    fn stamp(&mut self, _cx: &Core, wid: WriteId, _dests: DestSet) -> Self::Stamp {
        // Piggyback the pre-write log (own previous write tuple + one tuple
        // per distinct origin read since then).
        let piggyback = Arc::new(self.log.clone());
        // "The local log always incurs reset after each write."
        self.log.reset_to(wid);
        (wid.clock, piggyback)
    }

    fn sm_meta((clock, log): &Self::Stamp) -> SmMeta {
        SmMeta::Crp {
            clock: *clock,
            log: Arc::clone(log),
        }
    }

    fn from_sm_meta(meta: SmMeta) -> Option<Self::Stamp> {
        match meta {
            SmMeta::Crp { clock, log } => Some((clock, log)),
            _ => None,
        }
    }

    /// Every dependency tuple must be applied here. The sender's own tuples
    /// are additionally covered by per-sender FIFO.
    fn blocking_dep(
        &self,
        _cx: &Core,
        _sender: SiteId,
        (_, log): &Self::Stamp,
    ) -> Option<(SiteId, u64)> {
        log.iter()
            .find(|w| self.last_clock[w.site.index()] < w.clock)
            .map(|w| (w.site, w.clock))
    }

    fn applied(&mut self, _cx: &Core, sender: SiteId, m: Parked<Self::Stamp>) -> Self::Slot {
        let (clock, _) = m.stamp;
        debug_assert_eq!(
            self.last_clock[sender.index()] + 1,
            clock,
            "full replication delivers every write of an origin, in order"
        );
        self.last_clock[sender.index()] = clock;
        m.value.writer
    }

    fn read_merge(&mut self, _cx: &mut Core, slot: &mut Self::Slot) {
        self.log.observe(*slot);
    }

    fn horizon<'a>(&'a self, _cx: &'a Core) -> Option<&'a [u64]> {
        Some(&self.last_clock)
    }

    fn local_meta_size(&self, _cx: &Core, slots: &VarMap<Self::Slot>, model: &SizeModel) -> u64 {
        // Log tuples + one stored tuple per written variable.
        self.log.meta_size(model) + model.scalars(2 * slots.len())
    }

    fn log_len(&self) -> Option<usize> {
        Some(self.log.len())
    }

    fn gc_stable(&mut self, slots: &mut VarMap<Self::Slot>, cut: &StableCut) -> GcStats {
        // Tuples at or below the stable frontier piggyback constraints that
        // are vacuous at every live member; likewise a stable stored
        // `LastWriteOn` tuple would only ever feed such a vacuous observe.
        let unstable = |w: &WriteId| cut.clocks.get(w.site.index()).is_none_or(|&f| w.clock > f);
        GcStats {
            log_entries: self.log.prune_stable(cut.clocks),
            slots: retain_slots(slots, unstable),
        }
    }

    fn own_row(&self, cx: &Core) -> Vec<u64> {
        // Under full replication every own write counts toward every site,
        // so the durable per-destination row is uniformly `clock_i`.
        vec![cx.clock; cx.n]
    }

    fn restore_own(&mut self, cx: &Core, _ledger: &OwnLedger) {
        let own = &mut self.last_clock[cx.site.index()];
        *own = (*own).max(cx.clock);
    }

    fn crash(&mut self, cx: &Core, _ledger: &OwnLedger) {
        self.log = CrpLog::new();
        if cx.clock > 0 {
            // Post-recovery writes causally follow the last pre-crash write;
            // keep its tuple so the next piggyback still says so.
            self.log.observe(WriteId::new(cx.site, cx.clock));
        }
        self.last_clock = vec![0; cx.n];
        self.last_clock[cx.site.index()] = cx.clock;
    }

    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, _dropped: usize) {
        // The peer's unacked pre-crash writes are lost; fast-forward to its
        // durable write counter so dependencies on them can fire.
        let p = peer.index();
        self.last_clock[p] = self.last_clock[p].max(ledger.own_clock);
        cx.apply[p] = cx.apply[p].max(ledger.own_clock);
    }

    fn export_sync<'a>(
        &self,
        _cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a Self::Slot>)>,
    ) -> SyncState {
        SyncState::Crp {
            log: self.log.clone(),
            applied: self.last_clock.clone(),
            vars: vars.map(|(var, value, _)| (var, value)).collect(),
        }
    }

    fn absorb_sync<'a>(
        &mut self,
        cx: &mut Core,
        peer: SiteId,
        ack: &PeerAckInfo,
        state: &'a SyncState,
    ) -> Option<Donor<'a, Self::SyncMeta>> {
        let SyncState::Crp { log, applied, vars } = state else {
            return None;
        };
        self.log.merge(log);
        // Short of the donor's horizon, fresh writes whose transitive
        // dependencies sit inside the skipped prefix would also apply
        // before those dependencies (the d+1-tuple log cannot re-park them).
        raise_to_horizon(&mut cx.apply, peer, ack, applied);
        raise_to_horizon(&mut self.last_clock, peer, ack, applied);
        Some(Donor {
            known: applied,
            vars: vars
                .iter()
                .map(|(var, value)| (*var, *value, &()))
                .collect(),
        })
    }

    fn slot_from_sync(&self, _cx: &Core, value: VersionedValue, _meta: &()) -> Self::Slot {
        value.writer
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

    fn system(n: usize) -> Vec<Replica<OptTrackCrp>> {
        kit::system(FullReplication::new(n), OptTrackCrp::new)
    }

    #[test]
    fn write_goes_to_all_other_sites() {
        let mut sys = system(4);
        let (wid, effects) = sys[0].write(VarId(0), 1, 0);
        assert_eq!(sends(&effects).len(), 3);
        assert_eq!(applied(&effects), vec![wid]);
    }

    #[test]
    fn log_resets_on_write_and_grows_with_reads() {
        let mut sys = system(3);
        // Seed values from two different origins.
        let (_w1, e1) = sys[1].write(VarId(1), 10, 0);
        let (_w2, e2) = sys[2].write(VarId(2), 20, 0);
        for (to, sm) in sends(&e1) {
            if to == SiteId(0) {
                sys[0].on_message(SiteId(1), Msg::Sm(sm));
            }
        }
        for (to, sm) in sends(&e2) {
            if to == SiteId(0) {
                sys[0].on_message(SiteId(2), Msg::Sm(sm));
            }
        }
        assert_eq!(sys[0].log_len().unwrap(), 0);
        sys[0].read(VarId(1));
        assert_eq!(sys[0].log_len().unwrap(), 1, "one tuple per read origin");
        sys[0].read(VarId(2));
        assert_eq!(sys[0].log_len().unwrap(), 2);
        sys[0].read(VarId(1));
        assert_eq!(
            sys[0].log_len().unwrap(),
            2,
            "re-reading the same origin adds nothing"
        );
        sys[0].write(VarId(0), 5, 0);
        assert_eq!(
            sys[0].log_len().unwrap(),
            1,
            "write resets the log to its own tuple"
        );
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

        // y first: parked (its log lists ⟨s0, 1⟩, unapplied at s2).
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_y_to_2));
        assert!(applied(&eff).is_empty());
        // x arrives: both apply in causal order.
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x_to_2));
        assert_eq!(applied(&eff), vec![w1, w2]);
    }

    #[test]
    fn piggyback_stays_small_under_write_heavy_load() {
        let mut sys = system(5);
        let model = SizeModel::java_like();
        let mut max_sm = 0u64;
        for round in 0..40u64 {
            let writer = (round % 5) as usize;
            let (_w, effects) = sys[writer].write(VarId((round % 9) as u32), round, 0);
            let outgoing = sends(&effects);
            for (to, sm) in outgoing {
                max_sm = max_sm.max(Msg::Sm(sm.clone()).meta_size(&model));
                let eff_kind = sys[to.index()].on_message(SiteId::from(writer), Msg::Sm(sm));
                let _ = eff_kind;
            }
            // Everyone reads the variable they just saw.
            for site in sys.iter_mut() {
                site.read(VarId((round % 9) as u32));
            }
        }
        // Pure write-heavy load: log ≤ (own tuple + a few read tuples);
        // SM size must stay far below optP's 209 + 10·n for large n — here
        // just sanity-check the absolute bound: base + sender tuple + ≤ 6
        // log tuples.
        assert!(max_sm <= 209 + 20 + 6 * 20, "max SM was {max_sm}");
    }

    #[test]
    fn gc_stable_prunes_tuples_and_stored_last_writes() {
        use causal_clocks::MatrixClock;
        let mut sys = system(3);
        // Seed values from two origins, read both at s0 so its log carries
        // one tuple per origin and LastWriteOn holds both tuples.
        let (_w1, e1) = sys[1].write(VarId(1), 10, 0);
        let (_w2, e2) = sys[2].write(VarId(2), 20, 0);
        for (to, sm) in sends(&e1) {
            if to == SiteId(0) {
                sys[0].on_message(SiteId(1), Msg::Sm(sm));
            }
        }
        for (to, sm) in sends(&e2) {
            if to == SiteId(0) {
                sys[0].on_message(SiteId(2), Msg::Sm(sm));
            }
        }
        sys[0].read(VarId(1));
        sys[0].read(VarId(2));
        assert_eq!(sys[0].log_len().unwrap(), 2);

        let counts = MatrixClock::new(3);
        // Only origin 1's write is stable: its tuple and stored last-write
        // go; origin 2's stay.
        let cut = StableCut {
            clocks: &[0, 1, 0],
            counts: &counts,
        };
        let stats = sys[0].gc_stable(&cut);
        assert_eq!(stats.log_entries, 1, "stats: {stats:?}");
        assert_eq!(stats.slots, 1, "stats: {stats:?}");
        assert_eq!(sys[0].log_len().unwrap(), 1);
        assert!(sys[0].gc_stable(&cut).is_empty(), "idempotent");

        // Values survive; re-reading a GC'd variable is still fine (the
        // vacuous observe is simply skipped).
        match sys[0].read(VarId(1)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.data, 10),
            other => panic!("expected local value, got {other:?}"),
        }
        assert_eq!(sys[0].log_len().unwrap(), 1, "no tuple re-materializes");
    }

    #[test]
    #[should_panic(expected = "full replication")]
    fn rejects_partial_replication() {
        use crate::opt_track::OptTrack;
        // A partial placement must be rejected at construction.
        let repl: Arc<dyn Replication> = Arc::new(PartialToy);
        let _ok = OptTrack::new(&*repl); // fine for Opt-Track
        let _crp = OptTrackCrp::new(&*repl); // must panic
    }

    struct PartialToy;
    impl Replication for PartialToy {
        fn n(&self) -> usize {
            3
        }
        fn replicas(&self, _var: VarId) -> causal_clocks::DestSet {
            causal_clocks::DestSet::from_sites([SiteId(0)])
        }
        fn fetch_target(&self, _var: VarId, _site: SiteId) -> SiteId {
            SiteId(0)
        }
        fn is_full(&self) -> bool {
            false
        }
    }
}
