//! The Opt-Track protocol (partial replication, KS-style log).
//!
//! §III-B of the paper: instead of Full-Track's `n×n` matrix, each site
//! keeps a log of records `⟨j, clock_j, Dests⟩` describing write operations
//! in the causal past whose destination information is still relevant, and
//! piggybacks the log (not a matrix) on SM and RM messages. Redundant
//! destination information is pruned with the KS algorithm's two implicit
//! conditions (see `causal_clocks::log`), which is what brings the amortized
//! per-message overhead from `O(n²)` down to roughly `O(n)` (the paper cites
//! Chandra et al. for the amortized bound).
//!
//! The MERGE function runs at *read* time (the `→co` edge is created by
//! reading), and the PURGE machinery runs at write/merge time.

use crate::factory::ProtocolKind;
use crate::msg::{RmMeta, SmMeta};
use crate::pending::ProtoTraceEvent;
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replica::{Core, Donor, Parked, Tracker};
use crate::replication::Replication;
use crate::site::{GcStats, StableCut};
use crate::var_map::VarMap;
use causal_clocks::{DestSet, Log, LogEntry, PruneConfig};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// The `LastWriteOn⟨h⟩` slot: the log that will accompany this variable's
/// value out of future reads — the piggybacked records plus the write's own
/// record, minus every mention of this site (implicit condition 1), then
/// normalized.
///
/// Constructed **lazily**: most applied values are overwritten before ever
/// being read, so the apply path just stores the shared piggyback snapshot
/// and the write's own record, and the read / fetch-reply / sync paths
/// materialize on first use. Materialization reads the shared snapshot and
/// builds the slot's own log in one pass ([`Log::with_own`]), so piggybacks
/// still in flight are never aliased by a mutated log — and never copied.
#[derive(Clone, Debug)]
pub struct LastWrite {
    log: Arc<Log>,
    /// The write's own record, still to be folded in; `None` once
    /// materialized.
    own: Option<LogEntry>,
}

impl LastWrite {
    /// Freshly applied: the shared piggyback plus the pending own record.
    fn applied(log: Arc<Log>, own: LogEntry) -> Self {
        LastWrite {
            log,
            own: Some(own),
        }
    }

    /// Already materialized (sync install path).
    fn materialized(log: Arc<Log>) -> Self {
        LastWrite { log, own: None }
    }

    /// The piggyback with `own` folded in. The historical implicit
    /// condition 1 removes *every* mention of `me` — justified by the
    /// activation predicate only for slots whose write arrived as an SM. A
    /// slot parked by the site's *own* write skipped the predicate, so
    /// under `pin_self` the removal is narrowed to the entries `last_clock`
    /// can witness as applied here (equivalent for predicate-covered slots,
    /// strictly sound for own-write slots).
    fn assoc(&self, own: LogEntry, me: SiteId, last_clock: &[u64], prune: PruneConfig) -> Log {
        let caps = prune.pin_self.then_some(last_clock);
        self.log.with_own(own, me, caps, prune)
    }

    /// The assoc log, materializing in place on first use.
    fn materialize(&mut self, me: SiteId, last_clock: &[u64], prune: PruneConfig) -> &Arc<Log> {
        if let Some(own) = self.own.take() {
            self.log = Arc::new(self.assoc(own, me, last_clock, prune));
        }
        &self.log
    }

    /// Owned materialized log without caching (for `&self` paths: sync
    /// export and size accounting).
    fn materialize_owned(&self, me: SiteId, last_clock: &[u64], prune: PruneConfig) -> Log {
        match self.own {
            Some(own) => self.assoc(own, me, last_clock, prune),
            None => (*self.log).clone(),
        }
    }

    /// Size of the materialized log — what this slot will weigh once read.
    fn meta_size(
        &self,
        model: &SizeModel,
        me: SiteId,
        last_clock: &[u64],
        prune: PruneConfig,
    ) -> u64 {
        match self.own {
            None => self.log.meta_size(model),
            Some(_) => self
                .materialize_owned(me, last_clock, prune)
                .meta_size(model),
        }
    }
}

/// Opt-Track's KS log and its rules; one site is a
/// [`Replica<OptTrack>`](crate::Replica).
#[derive(Clone)]
pub struct OptTrack {
    /// `LOG_i` — the local KS log, behind shared ownership so a write's
    /// fan-out piggybacks the snapshot by refcount alone. The write and
    /// read paths build the successor log from the shared one in a single
    /// pass and swap it in; nothing deep-clones it first. The rare paths
    /// (stability GC, sync merge, departures) mutate through
    /// [`Arc::make_mut`].
    log: Arc<Log>,
    /// Largest write-clock from each origin applied here. In partial
    /// replication a site receives only a subset of an origin's writes, so
    /// counts and clocks differ; the activation predicate needs clocks.
    last_clock: Vec<u64>,
    prune: PruneConfig,
}

impl OptTrack {
    /// The Opt-Track tracker for a site under `repl`, with default pruning.
    pub fn new(repl: &dyn Replication) -> Self {
        Self::with_prune(repl, PruneConfig::default())
    }

    /// With an explicit [`PruneConfig`] (the `ablation_purge` bench disables
    /// condition 2 to quantify the PURGE machinery's effect).
    pub fn with_prune(repl: &dyn Replication, prune: PruneConfig) -> Self {
        OptTrack {
            log: Arc::new(Log::new()),
            last_clock: vec![0; repl.n()],
            prune,
        }
    }

    /// Read-side MERGE: fold a value's `LastWriteOn` log into `LOG_i`,
    /// prune what this site already knows to be applied here, normalize —
    /// one pass ([`Log::merge_applied`]).
    fn merge_on_read(&mut self, cx: &mut Core, incoming: &Log) {
        let last_clock = Some(&self.last_clock[..]);
        let (log, removed) = self
            .log
            .merge_applied(incoming, cx.site, last_clock, self.prune);
        if removed > 0 {
            let remaining = log.len();
            cx.trace
                .emit(ProtoTraceEvent::LogPruned { removed, remaining });
        }
        self.log = Arc::new(log);
    }
}

impl Tracker for OptTrack {
    const KIND: ProtocolKind = ProtocolKind::OptTrack;
    /// The write's clock and the writer's pre-write log, shared across the
    /// fan-out; a receiver's slot keeps the shared log and reads it in place
    /// when it materializes.
    type Stamp = (u64, Arc<Log>);
    type Slot = LastWrite;
    type SyncMeta = Log;

    fn stamp(&mut self, cx: &Core, wid: WriteId, dests: DestSet) -> Self::Stamp {
        // Piggyback the *pre-write* log: "the outgoing update messages will
        // piggyback the currently stored records". Receivers thereby see the
        // writer's causal past, including its own still-relevant writes.
        // Taking the snapshot is a refcount bump.
        let piggyback = Arc::clone(&self.log);
        // Local log update: condition 2 prunes destinations covered by this
        // causally-later send, then the write's own record is added. The
        // successor is built from the snapshot, which stays as it is.
        self.log = Arc::new(piggyback.with_write(cx.site, wid.clock, dests, self.prune));
        (wid.clock, piggyback)
    }

    fn sm_meta((clock, log): &Self::Stamp) -> SmMeta {
        SmMeta::OptTrack {
            clock: *clock,
            log: Arc::clone(log),
        }
    }

    fn from_sm_meta(meta: SmMeta) -> Option<Self::Stamp> {
        match meta {
            SmMeta::OptTrack { clock, log } => Some((clock, log)),
            _ => None,
        }
    }

    /// `A_OPT`: every piggybacked record that lists this site as a
    /// destination must already be applied here. Records from the sender
    /// itself are additionally ordered by the per-sender FIFO queue
    /// (multicast sends leave in clock order over FIFO channels).
    fn blocking_dep(
        &self,
        cx: &Core,
        _sender: SiteId,
        (_, log): &Self::Stamp,
    ) -> Option<(SiteId, u64)> {
        log.iter()
            .filter(|e| e.dests.contains(cx.site))
            .find(|e| self.last_clock[e.origin.index()] < e.clock)
            .map(|e| (e.origin, e.clock))
    }

    fn applied(&mut self, cx: &Core, sender: SiteId, m: Parked<Self::Stamp>) -> Self::Slot {
        let (clock, log) = m.stamp;
        debug_assert!(
            self.last_clock[sender.index()] < clock,
            "FIFO channels deliver one origin's writes in clock order"
        );
        self.last_clock[sender.index()] = clock;
        // Park the ingredients of the assoc log (see [`LastWrite`]): the
        // shared piggyback and this write's own record. Implicit condition 1
        // (minus every mention of this site — the predicate just guaranteed
        // those writes are applied here) folds in lazily on first read.
        let own = LogEntry::new(sender, clock, cx.repl.replicas(m.var));
        LastWrite::applied(log, own)
    }

    fn read_merge(&mut self, cx: &mut Core, slot: &mut Self::Slot) {
        let log = Arc::clone(slot.materialize(cx.site, &self.last_clock, self.prune));
        self.merge_on_read(cx, &log);
    }

    fn rm_reply(&mut self, cx: &Core, slot: Option<&mut Self::Slot>) -> RmMeta {
        RmMeta::OptTrack(
            slot.map(|lw| Arc::clone(lw.materialize(cx.site, &self.last_clock, self.prune))),
        )
    }

    fn rm_merge(&mut self, cx: &mut Core, meta: RmMeta) -> bool {
        let RmMeta::OptTrack(meta) = meta else {
            return false;
        };
        if let Some(log) = &meta {
            self.merge_on_read(cx, log);
        }
        true
    }

    fn local_meta_size(&self, cx: &Core, slots: &VarMap<Self::Slot>, model: &SizeModel) -> u64 {
        let stashed: u64 = slots
            .values()
            .map(|lw| lw.meta_size(model, cx.site, &self.last_clock, self.prune))
            .sum();
        self.log.meta_size(model) + stashed
    }

    fn log_len(&self) -> Option<usize> {
        Some(self.log.len())
    }

    fn gc_stable(&mut self, slots: &mut VarMap<Self::Slot>, cut: &StableCut) -> GcStats {
        let mut stats = GcStats::default();
        // The main KS log: entries at or below the cut are applied at every
        // destination, so their (now vacuous) constraints can go. Run-tail
        // markers survive per PruneConfig, keeping merge cross-pruning power.
        // An empty-dest entry is a kept run-tail marker; only entries still
        // carrying destinations (or stale non-tail records) need the pass.
        let has_stale = |log: &Log| {
            log.iter().any(|e| {
                !e.dests.is_empty()
                    && cut
                        .clocks
                        .get(e.origin.index())
                        .is_some_and(|&f| e.clock <= f)
            })
        };
        if has_stale(&self.log) {
            stats.log_entries += Arc::make_mut(&mut self.log).prune_stable(cut.clocks, self.prune);
        }
        // Slot piggyback logs: prune only already-materialized slots.
        // Unmaterialized slots still alias the shared in-flight snapshot —
        // forcing materialization to GC them would *grow* memory, and their
        // Arc is usually dropped wholesale on overwrite anyway.
        for lw in slots.values_mut() {
            if lw.own.is_some() {
                continue;
            }
            if has_stale(&lw.log) {
                stats.slots += Arc::make_mut(&mut lw.log).prune_stable(cut.clocks, self.prune);
            }
        }
        stats
    }

    fn own_row(&self, cx: &Core) -> Vec<u64> {
        // Opt-Track's predicate is clock-based, not count-based, so the
        // per-destination row is only an upper bound (nothing reads it).
        vec![cx.clock; cx.n]
    }

    fn restore_own(&mut self, cx: &Core, _ledger: &OwnLedger) {
        let own = &mut self.last_clock[cx.site.index()];
        *own = (*own).max(cx.clock);
    }

    fn crash(&mut self, cx: &Core, _ledger: &OwnLedger) {
        self.log = Arc::new(Log::new());
        self.last_clock = vec![0; cx.n];
        // Own self-replicated writes were applied here at write time; the
        // clock-based fast-forward to the full own counter is safe (any own
        // write not self-applied was not destined here at all).
        self.last_clock[cx.site.index()] = cx.clock;
    }

    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, dropped: usize) {
        // The peer's unacked pre-crash writes are permanently lost:
        // fast-forward the per-origin clock so predicates that reference
        // them can fire (it already covers the dropped updates' clocks).
        let pi = peer.index();
        self.last_clock[pi] = self.last_clock[pi].max(ledger.own_clock);
        cx.apply[pi] += dropped as u64;
        // In place and without a purge: what empties here stays until the
        // next write or MERGE, as it always has (sync exports and
        // piggybacks in between carry it, so purging would move bytes).
        Arc::make_mut(&mut self.log).prune_applied(cx.site, &self.last_clock);
    }

    fn peer_departed(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, dropped: usize) {
        // Same fast-forward as a recovery announcement, plus: the peer is
        // gone for good, so its KS-log entries (as origin or destination)
        // can never constrain a future delivery — forget them.
        self.peer_recovered(cx, peer, ledger, dropped);
        Arc::make_mut(&mut self.log).forget_site(peer, self.prune);
    }

    fn export_sync<'a>(
        &self,
        cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a Self::Slot>)>,
    ) -> SyncState {
        let stash = |lw: Option<&LastWrite>| {
            lw.expect("every applied Opt-Track value keeps its slot")
                .materialize_owned(cx.site, &self.last_clock, self.prune)
        };
        SyncState::OptTrack {
            log: (*self.log).clone(),
            vars: vars
                .map(|(var, value, lw)| (var, value, stash(lw)))
                .collect(),
        }
    }

    fn absorb_sync<'a>(
        &mut self,
        cx: &mut Core,
        peer: SiteId,
        ack: &PeerAckInfo,
        state: &'a SyncState,
    ) -> Option<Donor<'a, Self::SyncMeta>> {
        let SyncState::OptTrack { log, vars } = state else {
            return None;
        };
        // Acked SMs were received exactly once and never redeliver;
        // unacked ones will be, starting right after the acked prefix
        // (FIFO), so the acked maximum restores last_clock exactly.
        // Never regress: a WAL-replayed site may already count unacked
        // (logged but never re-acked) deliveries beyond the acked prefix.
        let pi = peer.index();
        cx.apply[pi] = cx.apply[pi].max(ack.sm_count);
        self.last_clock[pi] = self.last_clock[pi].max(ack.sm_max_clock);
        // Merge every live peer's log: a conservative over-approximation
        // of the lost causal knowledge (each observed write lives in its
        // writer's own log until all destinations are covered).
        Arc::make_mut(&mut self.log).merge(log, self.prune);
        Some(Donor {
            known: &[],
            vars: vars
                .iter()
                .map(|(var, value, l)| (*var, *value, l))
                .collect(),
        })
    }

    fn sync_merged(&mut self, cx: &Core) {
        // Implicit condition 1 on the merged `LOG_i`: a MERGE with nothing
        // incoming drops what `last_clock` shows applied here.
        let last_clock = Some(&self.last_clock[..]);
        let (log, _) = self
            .log
            .merge_applied(&Log::new(), cx.site, last_clock, self.prune);
        self.log = Arc::new(log);
    }

    fn slot_from_sync(&self, cx: &Core, _value: VersionedValue, meta: &Log) -> Self::Slot {
        // The donor's log minus every mention of this site, normalized: a
        // MERGE with nothing incoming.
        let (log, _) = meta.merge_applied(&Log::new(), cx.site, None, self.prune);
        LastWrite::materialized(Arc::new(log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{Effect, ReadResult};
    use crate::msg::{Msg, Sm};
    use crate::replica::kit::{self, applied, sends};
    use crate::replica::Replica;
    use crate::replication::FullReplication;
    use crate::site::ProtocolSite;
    use causal_clocks::DestSet;

    /// Three sites; x at {0,1}, y at {1,2}, z at {0,2}, w at {2}.
    struct Toy;
    impl Replication for Toy {
        fn n(&self) -> usize {
            3
        }
        fn replicas(&self, var: VarId) -> DestSet {
            let sites: &[usize] = match var.0 {
                0 => &[0, 1],
                1 => &[1, 2],
                2 => &[0, 2],
                _ => &[2],
            };
            DestSet::from_sites(sites.iter().map(|&i| SiteId::from(i)))
        }
        fn fetch_target(&self, var: VarId, _site: SiteId) -> SiteId {
            self.replicas(var).iter().next().expect("non-empty")
        }
        fn is_full(&self) -> bool {
            false
        }
    }

    fn toy_system() -> Vec<Replica<OptTrack>> {
        kit::system(Toy, OptTrack::new)
    }

    #[test]
    fn write_targets_only_replicas() {
        let mut sys = toy_system();
        // Var 3 is replicated only at site 2; writer 0 holds no replica.
        let (wid, effects) = sys[0].write(VarId(3), 1, 0);
        let s = sends(&effects);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, SiteId(2));
        assert!(applied(&effects).is_empty(), "writer is not a replica");
        assert_eq!(sys[0].value_of(VarId(3)), None);
        assert_eq!(wid.clock, 1);
    }

    #[test]
    fn transitive_dependency_through_partial_replicas() {
        // s0 writes w(x3) → only s2 replicates x3 (SM delayed).
        // s0 writes w(x1) → s1 and s2 replicate x1; deliver to s1 only.
        //   (x1's piggyback carries ⟨s0, 1, {s2}⟩ — s0's first write.)
        // s1 reads x1 (merge), writes x2 → {s0, s2}.
        // s2 receives z's SM first: must park, because the piggybacked log
        // lists s2 as an unapplied destination of s0's first write.
        let mut sys = toy_system();
        let (w_x3, e0) = sys[0].write(VarId(3), 10, 0);
        let sm_x3_to_2 = sends(&e0)[0].1.clone();

        let (w_x1, e1) = sys[0].write(VarId(1), 11, 0);
        let sm_x1_to_1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let sm_x1_to_2 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        // The piggyback of the second write must still carry the first
        // write's record with s2 listed (snapshot taken before pruning).
        if let SmMeta::OptTrack { log, .. } = &sm_x1_to_1.meta {
            let e = log.get(SiteId(0), 1).expect("first write in causal past");
            assert!(e.dests.contains(SiteId(2)));
        } else {
            panic!("wrong meta");
        }

        sys[1].on_message(SiteId(0), Msg::Sm(sm_x1_to_1));
        match sys[1].read(VarId(1)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.data, 11),
            other => panic!("expected local value, got {other:?}"),
        }
        let (w_x2, e2) = sys[1].write(VarId(2), 12, 0);
        let sm_x2_to_2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        // s1's write causally depends (through the read) on s0's second
        // write, which transitively orders it after s0's first write too.
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_x2_to_2));
        assert!(applied(&eff).is_empty(), "parked behind s0's writes");
        assert_eq!(sys[2].pending_len(), 1);

        // s0's first write unblocks nothing yet (w_x2 still waits on w_x1).
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x3_to_2));
        assert_eq!(applied(&eff), vec![w_x3]);
        assert_eq!(sys[2].pending_len(), 1);

        // Delivering s0's second write releases the parked update, in
        // causal order.
        let eff = sys[2].on_message(SiteId(0), Msg::Sm(sm_x1_to_2));
        assert_eq!(applied(&eff), vec![w_x1, w_x2]);
        assert_eq!(sys[2].pending_len(), 0);
    }

    #[test]
    fn trace_records_buffering_with_blocking_dependency() {
        // Same causal shape as `transitive_dependency_through_partial_replicas`,
        // with tracing on at the parking site: the Buffered event must name
        // the write that parks and the dependency that blocks it.
        let mut sys = toy_system();
        sys[2].set_tracing(true);
        let (_w_x3, e0) = sys[0].write(VarId(3), 10, 0);
        let sm_x3_to_2 = sends(&e0)[0].1.clone();
        let (_w_x1, e1) = sys[0].write(VarId(1), 11, 0);
        let sm_x1_to_1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_x1_to_1));
        sys[1].read(VarId(1));
        let (w_x2, e2) = sys[1].write(VarId(2), 12, 0);
        let sm_x2_to_2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();

        sys[2].on_message(SiteId(1), Msg::Sm(sm_x2_to_2));
        let evs = sys[2].take_trace();
        assert_eq!(
            evs,
            vec![ProtoTraceEvent::Buffered {
                origin: w_x2.site,
                clock: w_x2.clock,
                var: VarId(2),
                dep_site: SiteId(0),
                dep_clock: 2,
            }],
            "the parked write waits on s0's writes; the witness found is \
             s0's second write (x1, clock 2), the one s1 actually read"
        );

        // An update that applies on arrival emits nothing.
        sys[2].on_message(SiteId(0), Msg::Sm(sm_x3_to_2));
        assert!(sys[2].take_trace().is_empty());
    }

    #[test]
    fn no_dependency_without_read_even_with_partial_replicas() {
        // Same shape as above but s1 does NOT read x1 before writing: s2 may
        // apply s1's write before s0's.
        let mut sys = toy_system();
        let (_w_x3, e0) = sys[0].write(VarId(3), 10, 0);
        let _delayed = sends(&e0)[0].1.clone();
        let (_w_x1, e1) = sys[0].write(VarId(1), 11, 0);
        let sm_x1_to_1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_x1_to_1));
        // No read: no →co edge.
        let (w_x2, e2) = sys[1].write(VarId(2), 12, 0);
        let sm_x2_to_2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        let eff = sys[2].on_message(SiteId(1), Msg::Sm(sm_x2_to_2));
        assert_eq!(applied(&eff), vec![w_x2]);
    }

    #[test]
    fn remote_fetch_round_trip() {
        let mut sys = toy_system();
        // s1 writes x2 (replicas {0,2}); deliver to s0.
        let (w_x2, e1) = sys[1].write(VarId(2), 77, 0);
        let sm_to_0 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(0))
            .unwrap()
            .1
            .clone();
        sys[0].on_message(SiteId(1), Msg::Sm(sm_to_0));

        // s1 itself does not replicate x2: reading it goes remote.
        let ReadResult::Fetch { target, msg } = sys[1].read(VarId(2)) else {
            panic!("x2 is not replicated at s1");
        };
        assert_eq!(target, SiteId(0), "predesignated replica");

        // Serve at s0, deliver the RM at s1.
        let reply = sys[0].on_message(SiteId(1), msg);
        let Effect::Send { to, msg: rm } = &reply[0] else {
            panic!("expected RM send");
        };
        assert_eq!(*to, SiteId(1));
        let eff = sys[1].on_message(SiteId(0), rm.clone());
        match &eff[0] {
            Effect::FetchDone { var, value } => {
                assert_eq!(*var, VarId(2));
                assert_eq!(value.unwrap().writer, w_x2);
            }
            other => panic!("expected FetchDone, got {other:?}"),
        }
    }

    #[test]
    fn fetch_of_bottom_variable_returns_none() {
        let mut sys = toy_system();
        let ReadResult::Fetch { msg, .. } = sys[1].read(VarId(2)) else {
            panic!("remote variable");
        };
        let reply = sys[0].on_message(SiteId(1), msg);
        let Effect::Send { msg: rm, .. } = &reply[0] else {
            panic!()
        };
        let eff = sys[1].on_message(SiteId(0), rm.clone());
        assert_eq!(
            eff[0],
            Effect::FetchDone {
                var: VarId(2),
                value: None
            }
        );
    }

    #[test]
    fn condition1_strips_own_site_from_stored_logs() {
        let mut sys = toy_system();
        let (_w, e0) = sys[0].write(VarId(0), 5, 0); // x0 at {0,1}
        let sm_to_1 = sends(&e0)[0].1.clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_to_1));
        // After applying at s1, the log stored for x0 must not mention s1.
        sys[1].read(VarId(0));
        // s1's own LOG (post merge) must not list s1 as a pending dest.
        assert!(sys[1]
            .tracker
            .log
            .iter()
            .all(|e| !e.dests.contains(SiteId(1))));
    }

    #[test]
    fn log_stays_small_under_repeated_full_replication_writes() {
        // Under full replication every write supersedes all previous dest
        // info: the log must stay O(1) per origin.
        let mut sites = kit::system(FullReplication::new(4), OptTrack::new);
        for round in 0..50u64 {
            let (_w, effects) = sites[0].write(VarId((round % 7) as u32), round, 0);
            for (to, sm) in sends(&effects) {
                sites[to.index()].on_message(SiteId(0), Msg::Sm(sm));
            }
            for site in sites.iter_mut().skip(1) {
                site.read(VarId((round % 7) as u32));
            }
        }
        for site in &sites {
            assert!(
                site.log_len().unwrap() <= 8,
                "log must stay bounded, got {}",
                site.log_len().unwrap()
            );
        }
    }

    #[test]
    fn ablation_condition2_off_grows_larger_logs() {
        let repl: Arc<dyn Replication> = Arc::new(FullReplication::new(4));
        let loose = PruneConfig {
            condition2: false,
            ..PruneConfig::default()
        };
        let site = |s, prune| Replica::new(s, repl.clone(), |r| OptTrack::with_prune(r, prune));
        let mut tight_site = site(SiteId(1), PruneConfig::default());
        let mut loose_site = site(SiteId(2), loose);
        let mut writer = site(SiteId(0), PruneConfig::default());
        for round in 0..30u64 {
            let (_w, effects) = writer.write(VarId((round % 5) as u32), round, 0);
            for (to, sm) in sends(&effects) {
                if to == SiteId(1) {
                    tight_site.on_message(SiteId(0), Msg::Sm(sm));
                } else if to == SiteId(2) {
                    loose_site.on_message(SiteId(0), Msg::Sm(sm));
                }
            }
            tight_site.read(VarId((round % 5) as u32));
            loose_site.read(VarId((round % 5) as u32));
        }
        assert!(
            loose_site.log_len().unwrap() > tight_site.log_len().unwrap(),
            "disabling condition 2 must inflate the log ({} vs {})",
            loose_site.log_len().unwrap(),
            tight_site.log_len().unwrap()
        );
    }

    #[test]
    fn piggyback_snapshot_never_aliases_mutated_log() {
        // Regression test for the snapshot sharing: a captured piggyback
        // is an immutable snapshot. Neither later writes and reads at the
        // writer (which build `LOG_i`'s successor from the shared log) nor
        // lazy materialization of a receiver's `LastWriteOn` slot may alter
        // the snapshot in place while an in-flight message still holds it.
        let mut sys = toy_system();
        let snapshot_of = |sm: &Sm| -> Arc<Log> {
            let SmMeta::OptTrack { log, .. } = &sm.meta else {
                panic!("wrong meta");
            };
            Arc::clone(log)
        };
        let contents = |l: &Log| -> Vec<(SiteId, u64, DestSet)> {
            l.iter().map(|e| (e.origin, e.clock, e.dests)).collect()
        };

        sys[0].write(VarId(0), 1, 0); // x at {0,1}: log gains ⟨s0,1,{0,1}⟩
        let (_w2, e2) = sys[0].write(VarId(2), 2, 0); // z at {0,2}
        let sm_z = sends(&e2)[0].1.clone();
        let held = snapshot_of(&sm_z);
        let expected = contents(&held);
        assert!(!expected.is_empty(), "snapshot must carry the causal past");

        // Writer keeps going: the write-side record and merge-on-read must
        // build anew, not mutate the shared snapshot.
        sys[0].write(VarId(0), 3, 0);
        sys[0].read(VarId(0));
        assert_eq!(contents(&held), expected, "writer mutated a live snapshot");

        // Receiver applies the update, then materializes and merges the
        // parked slot on read, then overwrites it with its own write.
        sys[2].on_message(SiteId(0), Msg::Sm(sm_z));
        sys[2].read(VarId(2));
        sys[2].write(VarId(2), 9, 0);
        assert_eq!(
            contents(&held),
            expected,
            "receiver mutated a live snapshot"
        );
    }

    #[test]
    fn merge_on_read_reads_a_shared_log_in_place_and_reports_what_apply_knowledge_dropped() {
        // s2 writes y (→ s1), then z (→ s0) piggybacking ⟨s2,1,{1,2}⟩. s1
        // applies y, writes x so its own LOG is not empty, then fetches z
        // from s0: the RM's log is [⟨s2,1,{1}⟩, ⟨s2,2,{2}⟩] and s1 already
        // applied ⟨s2,1⟩, so that entry goes by apply knowledge alone.
        let mut sys = toy_system();
        let (_, e) = sys[2].write(VarId(1), 1, 0);
        let sm_y = sends(&e)[0].1.clone();
        let (_, e) = sys[2].write(VarId(2), 2, 0);
        let sm_z = sends(&e)[0].1.clone();
        sys[0].on_message(SiteId(2), Msg::Sm(sm_z));
        sys[1].on_message(SiteId(2), Msg::Sm(sm_y));
        sys[1].write(VarId(0), 3, 0);
        let ReadResult::Fetch { msg, .. } = sys[1].read(VarId(2)) else {
            panic!("z is not replicated at s1");
        };
        let reply = sys[0].on_message(SiteId(1), msg);
        let Effect::Send { msg: rm, .. } = &reply[0] else {
            panic!("expected RM send");
        };
        let Msg::Rm(crate::msg::Rm {
            meta: RmMeta::OptTrack(Some(incoming)),
            ..
        }) = rm
        else {
            panic!("expected an Opt-Track RM with a log");
        };

        // A piggyback still in flight holds LOG_1.
        let in_flight = Arc::clone(&sys[1].tracker.log);
        let before = (*in_flight).clone();
        assert!(!before.is_empty());
        // The composition the fused MERGE replaced.
        let mut expected = before.clone();
        expected.merge(incoming, PruneConfig::default());
        let merged = expected.len();
        expected.prune_applied(SiteId(1), &sys[1].tracker.last_clock);
        expected.purge(PruneConfig::default());
        assert_eq!((merged, expected.len()), (3, 2), "the scenario prunes");

        sys[1].set_tracing(true);
        sys[1].on_message(SiteId(0), rm.clone());
        assert_eq!(*in_flight, before, "the shared log was read, not written");
        assert_eq!(*sys[1].tracker.log, expected);
        assert_eq!(
            sys[1].take_trace(),
            vec![ProtoTraceEvent::LogPruned {
                removed: 1,
                remaining: 2,
            }]
        );
    }

    #[test]
    fn gc_stable_prunes_log_and_materialized_slots() {
        use causal_clocks::MatrixClock;
        let mut sys = toy_system();
        // s0: w1(x1) → {1,2}, then w2(x0) → {0,1}; deliver both to s1 in
        // order, and have s1 read x0 so its slot materializes with s0's
        // two-entry causal past and its main log absorbs the piggyback.
        let (_w1, e1) = sys[0].write(VarId(1), 11, 0);
        let sm_w1 = sends(&e1)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let (_w2, e2) = sys[0].write(VarId(0), 12, 0);
        let sm_w2 = sends(&e2)
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        sys[1].on_message(SiteId(0), Msg::Sm(sm_w1));
        sys[1].on_message(SiteId(0), Msg::Sm(sm_w2));
        sys[1].read(VarId(0));

        let model = SizeModel::java_like();
        let before = sys[1].local_meta_size(&model);
        let counts = MatrixClock::new(3);
        // Nothing stable: GC must not touch anything.
        let cut = StableCut {
            clocks: &[0, 0, 0],
            counts: &counts,
        };
        assert!(sys[1].gc_stable(&cut).is_empty());
        assert_eq!(sys[1].local_meta_size(&model), before);

        // Both of s0's writes stable: the older entry goes from both the
        // main log and the materialized slot (the newest survives as a
        // marker per PruneConfig).
        let cut = StableCut {
            clocks: &[2, 0, 0],
            counts: &counts,
        };
        let stats = sys[1].gc_stable(&cut);
        assert!(stats.log_entries >= 1, "stats: {stats:?}");
        assert!(stats.slots >= 1, "stats: {stats:?}");
        assert!(sys[1].local_meta_size(&model) < before);
        // Idempotent: a second pass finds nothing left.
        assert!(sys[1].gc_stable(&cut).is_empty());

        // GC is invisible to reads.
        match sys[1].read(VarId(1)) {
            ReadResult::Local(Some(v)) => assert_eq!(v.data, 11),
            other => panic!("expected local value, got {other:?}"),
        }
    }
}
