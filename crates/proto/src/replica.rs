//! The replica shell every protocol runs in.
//!
//! §III of the paper gives every site the same state — local replicas,
//! `Apply[j]`, `LastWriteOn⟨h⟩`, a buffer of updates parked on the
//! activation predicate, one blocking `RemoteFetch` — and distinguishes the
//! protocols only by the `Write` clock or log and the rules that stamp,
//! test, merge and prune it. [`Replica`] is that shared site, generic over
//! a [`Tracker`] that holds the `Write` metadata and states its rules; it
//! is the only [`ProtocolSite`], and it never asks a tracker which protocol
//! it is — a difference between protocols is a tracker hook.

use crate::effect::{Effect, ReadResult};
use crate::factory::ProtocolKind;
use crate::msg::{Fm, Msg, Rm, RmMeta, Sm, SmMeta};
use crate::pending::{PendingQueues, ProtoTrace, ProtoTraceEvent};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replication::Replication;
use crate::site::{GcStats, ProtocolSite, StableCut};
use crate::var_map::VarMap;
use causal_clocks::DestSet;
use causal_types::{SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::sync::Arc;

/// The part of a site's shared state a [`Tracker`] hook may consult.
#[derive(Clone)]
pub struct Core {
    /// This site.
    pub site: SiteId,
    /// System size.
    pub n: usize,
    /// Placement handle, consulted per operation so a dynamic view narrows
    /// fan-outs without protocol changes.
    pub repl: Arc<dyn Replication>,
    /// Own write counter — the clock of the last `WriteId` minted here, and
    /// the one durable number (reusing it would mint duplicate `WriteId`s).
    pub clock: u64,
    /// `Apply_i[j]` — number of updates from `ap_j` applied here.
    pub apply: Vec<u64>,
    /// Protocol-level trace buffer.
    pub trace: ProtoTrace,
}

/// An update awaiting its activation predicate: the received write plus
/// the protocol's stamp, still shared with the rest of its fan-out.
#[derive(Clone, Debug)]
pub struct Parked<S> {
    /// The written variable.
    pub var: VarId,
    /// The written value.
    pub value: VersionedValue,
    /// The piggybacked causality metadata.
    pub stamp: S,
}

/// One donor's per-variable offers to a recovering site, as
/// [`Tracker::absorb_sync`] decodes them from a [`SyncState`].
pub struct Donor<'a, M> {
    /// The donor's per-origin applied-clock attestation; empty for
    /// protocols whose snapshots carry none.
    pub known: &'a [u64],
    /// `(var, value, LastWriteOn⟨var⟩ as shipped)`.
    pub vars: Vec<(VarId, VersionedValue, &'a M)>,
}

/// What §III distinguishes between the protocols: the `Write` metadata of
/// one site and the rules that stamp, test, merge, prune and rebuild it.
pub trait Tracker: Clone + Send + 'static {
    /// The protocol these rules implement (names it in panics and reports).
    const KIND: ProtocolKind;
    /// What one write's fan-out shares and a parked update carries.
    type Stamp: Clone + Send + 'static;
    /// `LastWriteOn⟨h⟩`: what an applied write leaves behind for the reads
    /// that follow.
    type Slot: Clone + Send + 'static;
    /// `LastWriteOn⟨h⟩` as a [`SyncState`] ships it.
    type SyncMeta: 'static;

    /// Stamp the write `wid` toward `dests`: advance the `Write` metadata
    /// and return what every destination's SM piggybacks.
    fn stamp(&mut self, cx: &Core, wid: WriteId, dests: DestSet) -> Self::Stamp;
    /// The stamp as it travels on an SM.
    fn sm_meta(stamp: &Self::Stamp) -> SmMeta;
    /// The stamp of a received SM; `None` for another protocol's variant.
    fn from_sm_meta(meta: SmMeta) -> Option<Self::Stamp>;

    /// The activation predicate, as its witness: the first dependency of an
    /// update from `sender` not yet applied here, `None` when it may apply.
    fn blocking_dep(&self, cx: &Core, sender: SiteId, stamp: &Self::Stamp)
        -> Option<(SiteId, u64)>;
    /// `m` from `sender` was just applied (the shell stored the value and
    /// counted it in `Apply`): do what the protocol does at an apply and
    /// return what it stores in `LastWriteOn`.
    fn applied(&mut self, cx: &Core, sender: SiteId, m: Parked<Self::Stamp>) -> Self::Slot;

    /// A local read returns the value `slot` belongs to: the `→co` edge.
    fn read_merge(&mut self, cx: &mut Core, slot: &mut Self::Slot);
    /// The metadata an FM for a variable with `slot` is answered with. The
    /// default serves the full-replication protocols, whose reads are local
    /// (the shell refuses FM and RM under a full placement).
    fn rm_reply(&mut self, cx: &Core, slot: Option<&mut Self::Slot>) -> RmMeta {
        let _ = (cx, slot);
        unreachable!("{}: reads are local under full replication", Self::KIND)
    }
    /// A remote read returned `meta`: the `→co` edge. `false` for another
    /// protocol's variant.
    fn rm_merge(&mut self, cx: &mut Core, meta: RmMeta) -> bool {
        let _ = (cx, meta);
        unreachable!("{}: reads are local under full replication", Self::KIND)
    }

    /// The per-origin applied-clock vector, for the protocols whose delivery
    /// counters are clock-valued (the full-replication pair: every write of
    /// an origin arrives everywhere, so its count is its clock). Such a
    /// site recognises a post-recovery duplicate by it, reports it as
    /// [`ProtocolSite::applied_horizon`], and ships it with a sync snapshot
    /// as the donor's attestation.
    fn horizon<'a>(&'a self, cx: &'a Core) -> Option<&'a [u64]> {
        let _ = cx;
        None
    }

    /// Bytes of causality metadata held: the `Write` structure plus `slots`.
    fn local_meta_size(&self, cx: &Core, slots: &VarMap<Self::Slot>, model: &SizeModel) -> u64;
    /// Entries in the causality log, for the log-based protocols.
    fn log_len(&self) -> Option<usize> {
        None
    }
    /// Drop what the stability `cut` proves redundant (drop only — clocks
    /// and counters stay).
    fn gc_stable(&mut self, slots: &mut VarMap<Self::Slot>, cut: &StableCut) -> GcStats;

    /// The durable per-destination row of own writes.
    fn own_row(&self, cx: &Core) -> Vec<u64>;
    /// Raise the own-write bookkeeping to at least `ledger` (the shell has
    /// already raised `cx.clock` and `Apply[self]`).
    fn restore_own(&mut self, cx: &Core, ledger: &OwnLedger);
    /// Fail-stop: forget everything learned, keep what `ledger` justifies.
    fn crash(&mut self, cx: &Core, ledger: &OwnLedger);
    /// `peer` recovered with `ledger`, and the shell dropped `dropped`
    /// updates parked from it: fast-forward past its lost pre-crash writes.
    fn peer_recovered(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, dropped: usize);
    /// `peer` left for good: the same fast-forward past traffic that will
    /// never arrive, unless the protocol can also drop metadata that only
    /// mattered while the peer could still return.
    fn peer_departed(&mut self, cx: &mut Core, peer: SiteId, ledger: &OwnLedger, dropped: usize) {
        self.peer_recovered(cx, peer, ledger, dropped);
    }

    /// This site's causal knowledge plus `vars` (the values the requester
    /// shares, each with its `LastWriteOn` slot) as a sync snapshot.
    fn export_sync<'a>(
        &self,
        cx: &Core,
        vars: impl Iterator<Item = (VarId, VersionedValue, Option<&'a Self::Slot>)>,
    ) -> SyncState;
    /// Fold one live peer's snapshot into the causal knowledge — merging
    /// every peer's is a safe over-approximation of what the crash erased —
    /// and restore the `peer`-origin delivery counters from `ack`; hand
    /// back the per-variable offers. `None` for another protocol's variant.
    fn absorb_sync<'a>(
        &mut self,
        cx: &mut Core,
        peer: SiteId,
        ack: &PeerAckInfo,
        state: &'a SyncState,
    ) -> Option<Donor<'a, Self::SyncMeta>>;
    /// Every donor is absorbed; the elected values install next.
    fn sync_merged(&mut self, cx: &Core) {
        let _ = cx;
    }
    /// The `LastWriteOn` slot of an installed `value` shipped with `meta`.
    fn slot_from_sync(&self, cx: &Core, value: VersionedValue, meta: &Self::SyncMeta)
        -> Self::Slot;
}

/// One site: the state the paper gives every protocol, around the
/// [`Tracker`] that tells them apart.
#[derive(Clone)]
pub struct Replica<T: Tracker> {
    core: Core,
    values: VarMap<VersionedValue>,
    /// `LastWriteOn_i`.
    slots: VarMap<T::Slot>,
    pending: PendingQueues<Parked<T::Stamp>>,
    /// The single outstanding `RemoteFetch`.
    fetch: Option<VarId>,
    pub(crate) tracker: T,
}

/// The borrow of everything an apply touches, handed through
/// [`PendingQueues::drain`] while `pending` itself is borrowed.
struct Applying<'a, T: Tracker> {
    core: &'a mut Core,
    values: &'a mut VarMap<VersionedValue>,
    slots: &'a mut VarMap<T::Slot>,
    tracker: &'a mut T,
    out: &'a mut Vec<Effect>,
}

impl<T: Tracker> Applying<'_, T> {
    /// The activation predicate of `m` from `sender`.
    fn ready(&self, sender: SiteId, m: &Parked<T::Stamp>) -> bool {
        self.tracker
            .blocking_dep(self.core, sender, &m.stamp)
            .is_none()
    }

    fn apply(&mut self, sender: SiteId, m: Parked<T::Stamp>) {
        let (var, value) = (m.var, m.value);
        self.values.insert(var, value);
        self.core.apply[sender.index()] += 1;
        self.out.push(Effect::Applied {
            var,
            write: value.writer,
        });
        let slot = self.tracker.applied(self.core, sender, m);
        self.slots.insert(var, slot);
    }
}

impl<T: Tracker> Replica<T> {
    /// The state machine of `site` under placement `repl`, tracking
    /// causality with the tracker `tracker` builds for that placement.
    pub fn new(
        site: SiteId,
        repl: Arc<dyn Replication>,
        tracker: impl FnOnce(&dyn Replication) -> T,
    ) -> Self {
        let n = repl.n();
        Replica {
            tracker: tracker(&*repl),
            core: Core {
                site,
                n,
                repl,
                clock: 0,
                apply: vec![0; n],
                trace: ProtoTrace::default(),
            },
            values: VarMap::new(),
            slots: VarMap::new(),
            pending: PendingQueues::new(n),
            fetch: None,
        }
    }

    /// The parked updates, and beside them everything applying one touches;
    /// the `Applied` effects go to `out` in apply order.
    fn applying<'a>(
        &'a mut self,
        out: &'a mut Vec<Effect>,
    ) -> (&'a mut PendingQueues<Parked<T::Stamp>>, Applying<'a, T>) {
        let st = Applying {
            core: &mut self.core,
            values: &mut self.values,
            slots: &mut self.slots,
            tracker: &mut self.tracker,
            out,
        };
        (&mut self.pending, st)
    }

    /// Apply `own` — the writer's own update, which skips the predicate —
    /// when given, then every parked update whose predicate holds, to a
    /// fixpoint.
    fn apply_ready(&mut self, own: Option<Parked<T::Stamp>>, out: &mut Vec<Effect>) {
        let (pending, mut st) = self.applying(out);
        if let Some(m) = own {
            st.apply(st.core.site, m);
        }
        pending.drain(&mut st, Applying::ready, Applying::apply);
    }

    /// `peer`'s lost traffic will never arrive: drop what is parked from it
    /// (it falls inside the prefix the fast-forward covers — applying it
    /// later would double-count), let `rule` move the tracker past it, and
    /// apply what that releases.
    fn fast_forward(
        &mut self,
        peer: SiteId,
        rule: impl FnOnce(&mut T, &mut Core, usize),
    ) -> (Vec<Effect>, usize) {
        let dropped = self.pending.clear_sender(peer);
        rule(&mut self.tracker, &mut self.core, dropped);
        let mut effects = Vec::new();
        self.apply_ready(None, &mut effects);
        (effects, dropped)
    }
}

impl<T: Tracker> ProtocolSite for Replica<T> {
    fn kind(&self) -> ProtocolKind {
        T::KIND
    }

    fn site(&self) -> SiteId {
        self.core.site
    }

    fn n(&self) -> usize {
        self.core.n
    }

    fn write_into(
        &mut self,
        var: VarId,
        data: u64,
        payload_len: u32,
        out: &mut Vec<Effect>,
    ) -> WriteId {
        let me = self.core.site;
        self.core.clock += 1;
        let wid = WriteId::new(me, self.core.clock);
        let value = VersionedValue::with_payload(wid, data, payload_len);
        let dests = self.core.repl.replicas(var);
        // One stamp serves the whole fan-out: every destination's SM shares
        // the same immutable snapshot.
        let stamp = self.tracker.stamp(&self.core, wid, dests);
        for to in dests.iter().filter(|&k| k != me) {
            let meta = T::sm_meta(&stamp);
            let msg = Msg::Sm(Sm { var, value, meta });
            out.push(Effect::Send { to, msg });
        }
        if dests.contains(me) {
            // The writer applies its own update immediately: everything in
            // its causal past that was destined here has already been
            // applied here or was learned through a remote read (see the
            // crate-level note on remote reads). That apply can unblock
            // parked updates that were waiting on this site's own writes.
            self.apply_ready(Some(Parked { var, value, stamp }), out);
        }
        wid
    }

    fn read(&mut self, var: VarId) -> ReadResult {
        let me = self.core.site;
        if self.core.repl.is_replicated_at(var, me) {
            // Reading the value creates the →co edge to the write it
            // returns.
            if let Some(slot) = self.slots.get_mut(var) {
                self.tracker.read_merge(&mut self.core, slot);
            }
            ReadResult::Local(self.values.get(var).copied())
        } else {
            assert!(
                self.fetch.is_none(),
                "application subsystem blocks on RemoteFetch; a second read \
                 cannot start while one is outstanding"
            );
            self.fetch = Some(var);
            ReadResult::Fetch {
                target: self.core.repl.fetch_target(var, me),
                msg: Msg::Fm(Fm { var }),
            }
        }
    }

    fn on_message_into(&mut self, from: SiteId, msg: Msg, out: &mut Vec<Effect>) {
        match msg {
            Msg::Sm(sm) => {
                let Some(stamp) = T::from_sm_meta(sm.meta) else {
                    panic!("{} site received a foreign SM meta", T::KIND);
                };
                // Post-recovery duplicate suppression: an SM at or below
                // the per-origin applied clock is a retransmission whose
                // effect is already folded into the installed sync snapshot
                // (or covered by a peer-recovery fast-forward); re-applying
                // it would roll the variable backwards.
                let horizon = self.tracker.horizon(&self.core);
                if horizon.is_some_and(|h| sm.value.writer.clock <= h[from.index()]) {
                    return;
                }
                // The predicate is evaluated here, once: its witness is what
                // a trace names, its verdict what the offer acts on.
                let dep = self.tracker.blocking_dep(&self.core, from, &stamp);
                if let Some((dep_site, dep_clock)) = dep {
                    self.core.trace.emit(ProtoTraceEvent::Buffered {
                        origin: sm.value.writer.site,
                        clock: sm.value.writer.clock,
                        var: sm.var,
                        dep_site,
                        dep_clock,
                    });
                }
                let (var, value) = (sm.var, sm.value);
                let (pending, mut st) = self.applying(out);
                pending.offer(
                    &mut st,
                    from,
                    Parked { var, value, stamp },
                    dep.is_none(),
                    Applying::ready,
                    Applying::apply,
                );
            }
            Msg::Fm(_) | Msg::Rm(_) if self.core.repl.is_full() => panic!(
                "{} never receives {:?} messages: reads are local under full \
                 replication",
                T::KIND,
                msg.kind()
            ),
            Msg::Fm(Fm { var }) => {
                // Serve the fetch from current local state (remote_return
                // event). FMs carry no causal metadata, so no waiting.
                let value = self.values.get(var).copied();
                let meta = self.tracker.rm_reply(&self.core, self.slots.get_mut(var));
                let msg = Msg::Rm(Rm { var, value, meta });
                out.push(Effect::Send { to: from, msg });
            }
            Msg::Rm(Rm { var, value, meta }) => {
                assert_eq!(
                    self.fetch.take(),
                    Some(var),
                    "RM must answer the single outstanding fetch"
                );
                // The remote read creates the →co edge now.
                if !self.tracker.rm_merge(&mut self.core, meta) {
                    panic!("{} site received a foreign RM meta", T::KIND);
                }
                out.push(Effect::FetchDone { var, value });
            }
            Msg::Batch(_) => panic!("batches are unbatched by the transport before delivery"),
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn local_meta_size(&self, model: &SizeModel) -> u64 {
        self.tracker.local_meta_size(&self.core, &self.slots, model)
    }

    fn value_of(&self, var: VarId) -> Option<VersionedValue> {
        self.values.get(var).copied()
    }

    fn log_len(&self) -> Option<usize> {
        self.tracker.log_len()
    }

    fn clone_box(&self) -> Box<dyn ProtocolSite> {
        Box::new(self.clone())
    }

    fn set_tracing(&mut self, on: bool) {
        self.core.trace.set_enabled(on);
    }

    fn take_trace(&mut self) -> Vec<ProtoTraceEvent> {
        self.core.trace.take()
    }

    fn abort_fetch(&mut self, var: VarId) {
        assert_eq!(
            self.fetch.take(),
            Some(var),
            "abort of a fetch that is not outstanding"
        );
    }

    fn fetching(&self) -> Option<VarId> {
        self.fetch
    }

    fn crash_volatile(&mut self) -> (OwnLedger, usize) {
        let ledger = self.own_ledger();
        self.values.clear();
        self.slots.clear();
        self.core.apply = vec![0; self.core.n];
        self.core.apply[self.core.site.index()] = ledger.self_applied;
        self.tracker.crash(&self.core, &ledger);
        let dropped = SiteId::all(self.core.n)
            .map(|s| self.pending.clear_sender(s))
            .sum();
        self.fetch = None;
        (ledger, dropped)
    }

    fn note_peer_recovery(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize) {
        self.fast_forward(peer, |t, cx, dropped| {
            t.peer_recovered(cx, peer, ledger, dropped)
        })
    }

    fn export_sync(&self, requester: SiteId) -> SyncState {
        let shared = self
            .values
            .iter()
            .filter(|(var, _)| self.core.repl.is_replicated_at(*var, requester))
            .map(|(var, value)| (var, *value, self.slots.get(var)));
        self.tracker.export_sync(&self.core, shared)
    }

    fn install_sync(&mut self, sources: &[(SiteId, PeerAckInfo, SyncState)]) {
        // Donor `known` attests `w`: the donor applied the write, so its
        // effect is folded into every value the donor exports.
        let knows =
            |known: &[u64], w: WriteId| known.get(w.site.index()).is_some_and(|&hw| hw >= w.clock);
        let pair = |w: WriteId| (w.clock, w.site);
        let mut best: VarMap<(VersionedValue, &T::SyncMeta, &[u64])> = VarMap::new();
        for (peer, ack, state) in sources {
            let donor = self.tracker.absorb_sync(&mut self.core, *peer, ack, state);
            let Some(Donor { known, vars }) = donor else {
                panic!("{} site received a foreign sync snapshot", T::KIND);
            };
            // Per variable, prefer the value whose donor provably applied
            // the rival's write and still kept this one; the bare
            // `(clock, site)` order can resurrect a causally-overwritten
            // value whose overwriter carries a smaller clock. A protocol
            // that ships no attestation gets that writer-pair order.
            for (var, value, meta) in vars {
                let replace = best.get(var).is_none_or(|(b, _, b_known)| {
                    let v_covers_b = knows(known, b.writer);
                    let b_covers_v = knows(b_known, value.writer);
                    if v_covers_b != b_covers_v {
                        v_covers_b
                    } else {
                        pair(value.writer) > pair(b.writer)
                    }
                });
                if replace {
                    best.insert(var, (value, meta, known));
                }
            }
        }
        self.tracker.sync_merged(&self.core);
        for (var, &(value, meta, known)) in best.iter() {
            // Install unless it would roll a WAL-replayed local state back:
            // the donor attesting the local write makes its value at least
            // as fresh; otherwise only a strictly newer writer pair does.
            let newer = self.values.get(var).is_none_or(|cur| {
                knows(known, cur.writer) || pair(value.writer) > pair(cur.writer)
            });
            if newer {
                let slot = self.tracker.slot_from_sync(&self.core, value, meta);
                self.values.insert(var, value);
                self.slots.insert(var, slot);
            }
        }
    }

    fn own_ledger(&self) -> OwnLedger {
        OwnLedger {
            site: self.core.site,
            own_clock: self.core.clock,
            own_row: self.tracker.own_row(&self.core),
            self_applied: self.core.apply[self.core.site.index()],
        }
    }

    fn note_peer_departed(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize) {
        self.fast_forward(peer, |t, cx, dropped| {
            t.peer_departed(cx, peer, ledger, dropped)
        })
    }

    fn drop_var(&mut self, var: VarId) {
        self.values.remove(var);
        self.slots.remove(var);
    }

    fn gc_stable(&mut self, cut: &StableCut) -> GcStats {
        self.tracker.gc_stable(&mut self.slots, cut)
    }

    fn applied_horizon(&self) -> Option<Vec<u64>> {
        self.tracker.horizon(&self.core).map(<[u64]>::to_vec)
    }

    fn restore_own_ledger(&mut self, ledger: &OwnLedger) {
        // Fail-soft WAL truncation may have replayed fewer own writes than
        // the durable ledger records; never reuse a clock (= WriteId).
        self.core.clock = self.core.clock.max(ledger.own_clock);
        let applied = &mut self.core.apply[self.core.site.index()];
        *applied = (*applied).max(ledger.self_applied);
        self.tracker.restore_own(&self.core, ledger);
    }
}

/// Drop the `LastWriteOn` slots `keep` rejects; the number dropped.
pub(crate) fn retain_slots<S>(slots: &mut VarMap<S>, keep: impl Fn(&S) -> bool) -> usize {
    let before = slots.len();
    slots.retain(|_, slot| keep(slot));
    before - slots.len()
}

/// Fast-forward clock-valued delivery `counters` to a donor's snapshot
/// horizon: per origin the highest write the donor has `applied`, plus the
/// acked prefix of the donor's own stream. The values a donor ships reflect
/// exactly that causally-closed cut, so the counters must reach all of it —
/// stopping at the acked prefix would let the unacked remainder redeliver
/// and roll the installed values backwards. Never regresses: a WAL-replayed
/// site may already count deliveries beyond any donor's horizon.
pub(crate) fn raise_to_horizon(
    counters: &mut [u64],
    peer: SiteId,
    ack: &PeerAckInfo,
    applied: &[u64],
) {
    counters[peer.index()] = counters[peer.index()].max(ack.sm_max_clock);
    for (counter, hw) in counters.iter_mut().zip(applied) {
        *counter = (*counter).max(*hw);
    }
}

#[cfg(test)]
pub(crate) mod kit {
    //! What every protocol's unit tests share.
    use super::*;

    /// One replica per site of `repl`, each with the tracker `tracker`
    /// builds for that placement.
    pub(crate) fn system<T: Tracker>(
        repl: impl Replication + 'static,
        tracker: impl Fn(&dyn Replication) -> T,
    ) -> Vec<Replica<T>> {
        let repl: Arc<dyn Replication> = Arc::new(repl);
        SiteId::all(repl.n())
            .map(|s| Replica::new(s, repl.clone(), &tracker))
            .collect()
    }

    /// A partial placement: `var` lives at sites `var mod n` and
    /// `var + 1 mod n`; the first serves everyone else's fetches.
    pub(crate) struct Ring(pub usize);

    impl Replication for Ring {
        fn n(&self) -> usize {
            self.0
        }
        fn replicas(&self, var: VarId) -> DestSet {
            let first = var.index() % self.0;
            DestSet::from_sites([first, (first + 1) % self.0].map(SiteId::from))
        }
        fn fetch_target(&self, var: VarId, _site: SiteId) -> SiteId {
            SiteId::from(var.index() % self.0)
        }
        fn is_full(&self) -> bool {
            false
        }
    }

    /// The SM sends in an effect list, as `(to, Sm)` pairs.
    pub(crate) fn sends(effects: &[Effect]) -> Vec<(SiteId, Sm)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: Msg::Sm(sm),
                } => Some((*to, sm.clone())),
                _ => None,
            })
            .collect()
    }

    /// The writes an effect list applied, in order.
    pub(crate) fn applied(effects: &[Effect]) -> Vec<WriteId> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Applied { write, .. } => Some(*write),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    //! What the shell guarantees for every protocol alike, checked for all
    //! five through [`build_site`].
    use super::kit::{applied, sends, Ring};
    use super::*;
    use crate::factory::{build_site, ProtocolConfig};
    use crate::msg::{BatchedSm, SmBatch};
    use crate::replication::FullReplication;
    use causal_clocks::{CrpLog, MatrixClock, VectorClock};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const KINDS: [ProtocolKind; 5] = [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::OptTrackCrp,
        ProtocolKind::OptP,
        ProtocolKind::HbTrack,
    ];
    const N: usize = 3;
    /// Replicated at s1 and s2 under [`Ring`]; everywhere under full
    /// replication.
    const X: VarId = VarId(1);
    /// Not replicated at s2 under [`Ring`].
    const REMOTE: VarId = VarId(0);

    fn cluster_on(kind: ProtocolKind, repl: Arc<dyn Replication>) -> Vec<Box<dyn ProtocolSite>> {
        SiteId::all(N)
            .map(|s| build_site(kind, s, repl.clone(), ProtocolConfig::default()))
            .collect()
    }

    /// The placement each protocol is meant for.
    fn cluster(kind: ProtocolKind) -> Vec<Box<dyn ProtocolSite>> {
        if kind.supports_partial() {
            cluster_on(kind, Arc::new(Ring(N)))
        } else {
            cluster_on(kind, Arc::new(FullReplication::new(N)))
        }
    }

    fn sm_to(effects: &[Effect], to: SiteId) -> Msg {
        let (_, sm) = sends(effects).into_iter().find(|(t, _)| *t == to).unwrap();
        Msg::Sm(sm)
    }

    /// s0 writes `X`; s1 applies it, reads it and overwrites it. Returns
    /// the two writes — s0's, then s1's, which depends on it — each with
    /// its effects.
    fn dependent_writes(sys: &mut [Box<dyn ProtocolSite>]) -> [(WriteId, Vec<Effect>); 2] {
        let (w0, e0) = sys[0].write(X, 10, 0);
        sys[1].on_message(SiteId(0), sm_to(&e0, SiteId(1)));
        sys[1].read(X);
        [(w0, e0), sys[1].write(X, 11, 0)]
    }

    /// [`dependent_writes`], as the two SMs addressed to s2 and the two
    /// writes.
    fn dependent_pair(sys: &mut [Box<dyn ProtocolSite>]) -> ([Msg; 2], [WriteId; 2]) {
        let [(w0, e0), (w1, e1)] = dependent_writes(sys);
        ([sm_to(&e0, SiteId(2)), sm_to(&e1, SiteId(2))], [w0, w1])
    }

    /// The panic message of `f`, which must panic.
    fn panic_of(what: &str, f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err(what);
        let text = err.downcast_ref::<String>().cloned();
        text.unwrap_or_else(|| {
            err.downcast_ref::<&str>()
                .map_or(String::new(), |s| s.to_string())
        })
    }

    #[test]
    fn a_buffered_event_is_the_blocking_dependency_of_an_update_that_parks() {
        for kind in KINDS {
            let mut sys = cluster(kind);
            sys[2].set_tracing(true);
            let ([first, second], [w0, w1]) = dependent_pair(&mut sys);
            // The dependent update arrives first: it parks, and the trace
            // names it and the write it waits for.
            let eff = sys[2].on_message(SiteId(1), second);
            assert!(applied(&eff).is_empty(), "{kind}");
            assert_eq!(sys[2].pending_len(), 1, "{kind}");
            assert_eq!(
                sys[2].take_trace(),
                vec![ProtoTraceEvent::Buffered {
                    origin: w1.site,
                    clock: w1.clock,
                    var: X,
                    dep_site: w0.site,
                    dep_clock: w0.clock,
                }],
                "{kind}"
            );
            // Its dependency applies on arrival and releases it: nothing
            // blocked, nothing recorded.
            let eff = sys[2].on_message(SiteId(0), first);
            assert_eq!(applied(&eff), vec![w0, w1], "{kind}");
            let buffered = sys[2].take_trace();
            let buffered = buffered
                .iter()
                .filter(|e| matches!(e, ProtoTraceEvent::Buffered { .. }));
            assert_eq!(buffered.count(), 0, "{kind}");

            // With tracing off a parked update records nothing.
            let mut sys = cluster(kind);
            let ([_, second], _) = dependent_pair(&mut sys);
            sys[2].on_message(SiteId(1), second);
            assert_eq!(sys[2].pending_len(), 1, "{kind}");
            assert!(sys[2].take_trace().is_empty(), "{kind}");
        }
    }

    #[test]
    fn a_ready_arrival_applies_past_a_parked_update_and_leaves_it_parked() {
        for kind in KINDS {
            let mut sys = cluster(kind);
            sys[2].set_tracing(true);
            // An earlier write of s0, on a variable s2 also holds, that
            // nothing depends on.
            let (w, e) = sys[0].write(VarId(2), 9, 0);
            let unrelated = sm_to(&e, SiteId(2));
            if !kind.supports_partial() {
                sys[1].on_message(SiteId(0), sm_to(&e, SiteId(1)));
            }
            let ([first, second], [w0, w1]) = dependent_pair(&mut sys);

            let eff = sys[2].on_message(SiteId(1), second);
            assert!(applied(&eff).is_empty(), "{kind}");
            assert_eq!(sys[2].pending_len(), 1, "{kind}");
            // Ready on arrival, with s1's update parked: it applies, and
            // the parked update neither moves nor is reported again.
            let eff = sys[2].on_message(SiteId(0), unrelated);
            assert_eq!(applied(&eff), vec![w], "{kind}");
            assert_eq!(sys[2].pending_len(), 1, "{kind}");
            let eff = sys[2].on_message(SiteId(0), first);
            assert_eq!(applied(&eff), vec![w0, w1], "{kind}");
            assert_eq!(sys[2].pending_len(), 0, "{kind}");
            let trace = sys[2].take_trace();
            let buffered = trace
                .iter()
                .filter(|e| matches!(e, ProtoTraceEvent::Buffered { .. }));
            assert_eq!(buffered.count(), 1, "{kind}: {trace:?}");
        }
    }

    #[test]
    fn a_peer_fast_forward_drops_what_the_peer_parked_and_releases_what_waited_on_it() {
        let forward = |site: &mut Box<dyn ProtocolSite>, ledger: &OwnLedger, departed| {
            if departed {
                site.note_peer_departed(SiteId(1), ledger)
            } else {
                site.note_peer_recovery(SiteId(1), ledger)
            }
        };
        for (kind, departed) in KINDS.into_iter().flat_map(|k| [(k, false), (k, true)]) {
            // `dependent_writes`, then s0 reads what s1 wrote — from s1
            // where it does not hold `X` — and writes: at s2 that write
            // waits for s1's.
            let script = || {
                let mut sys = cluster(kind);
                let [(w0, e0), (_, e1)] = dependent_writes(&mut sys);
                let (first, second) = (sm_to(&e0, SiteId(2)), sm_to(&e1, SiteId(2)));
                if let ReadResult::Fetch { target, msg } = sys[0].read(X) {
                    let reply = sys[target.index()].on_message(SiteId(0), msg);
                    let [Effect::Send { msg: rm, .. }] = &reply[..] else {
                        panic!("{kind}: an FM is answered by one RM, not {reply:?}");
                    };
                    sys[0].on_message(target, rm.clone());
                } else {
                    sys[0].on_message(SiteId(1), sm_to(&e1, SiteId(0)));
                    sys[0].read(X);
                }
                let (w2, e2) = sys[0].write(VarId(2), 13, 0);
                let third = sm_to(&e2, SiteId(2));
                let ledger = sys[1].own_ledger();
                (sys.remove(2), ledger, [first, second, third], [w0, w2])
            };

            // s1's own update is parked when s1 is fast-forwarded past: it
            // is dropped, and what arrives afterwards applies on arrival.
            let (mut s2, ledger, [first, second, third], [w0, w2]) = script();
            s2.on_message(SiteId(1), second);
            assert_eq!(s2.pending_len(), 1, "{kind}");
            let (eff, dropped) = forward(&mut s2, &ledger, departed);
            assert_eq!((applied(&eff), dropped), (vec![], 1), "{kind}");
            assert_eq!(s2.pending_len(), 0, "{kind}");
            let eff = s2.on_message(SiteId(0), first);
            assert_eq!(applied(&eff), vec![w0], "{kind}");
            let eff = s2.on_message(SiteId(0), third);
            assert_eq!(applied(&eff), vec![w2], "{kind}");
            assert_eq!(s2.pending_len(), 0, "{kind}");

            // s1's update never arrives and s0's waits for it: the
            // fast-forward releases it.
            let (mut s2, ledger, [first, _, third], [_, w2]) = script();
            s2.on_message(SiteId(0), first);
            let eff = s2.on_message(SiteId(0), third);
            assert!(applied(&eff).is_empty(), "{kind}");
            assert_eq!(s2.pending_len(), 1, "{kind}");
            let (eff, dropped) = forward(&mut s2, &ledger, departed);
            assert_eq!((applied(&eff), dropped), (vec![w2], 0), "{kind}");
            assert_eq!(s2.pending_len(), 0, "{kind}");
        }
    }

    #[test]
    fn a_crash_clears_the_fetch_slot_and_counts_what_was_parked() {
        for kind in KINDS {
            let mut sys = cluster(kind);
            let ([_, second], _) = dependent_pair(&mut sys);
            sys[2].on_message(SiteId(1), second);
            if kind.supports_partial() {
                assert!(matches!(sys[2].read(REMOTE), ReadResult::Fetch { .. }));
                assert_eq!(sys[2].fetching(), Some(REMOTE), "{kind}");
            }
            let (ledger, dropped) = sys[2].crash_volatile();
            assert_eq!(ledger.site, SiteId(2), "{kind}");
            assert_eq!(dropped, 1, "{kind}");
            assert_eq!(sys[2].pending_len(), 0, "{kind}");
            assert_eq!(sys[2].fetching(), None, "{kind}");
            assert_eq!(sys[2].value_of(X), None, "{kind}");
        }
    }

    #[test]
    fn misuse_panics_the_same_way_under_every_protocol() {
        let foreign_sm = |kind| match kind {
            ProtocolKind::OptP => SmMeta::Crp {
                clock: 1,
                log: Arc::new(CrpLog::new()),
            },
            _ => SmMeta::OptP {
                write: Arc::new(VectorClock::new(N)),
            },
        };
        let foreign_rm = |kind| match kind {
            ProtocolKind::OptTrack => RmMeta::FullTrack(None),
            _ => RmMeta::OptTrack(None),
        };
        let foreign_sync = |kind| match kind {
            ProtocolKind::HbTrack => SyncState::FullTrack {
                clock: MatrixClock::new(N),
                vars: Vec::new(),
            },
            _ => SyncState::HbTrack {
                clock: MatrixClock::new(N),
                vars: Vec::new(),
            },
        };
        for kind in KINDS {
            let site = || cluster(kind).remove(2);
            let named = |text: String, what: &str| {
                assert!(text.contains(&kind.to_string()), "{kind}: {text}");
                assert!(text.contains(what), "{kind}: {text}");
            };

            let mut s = site();
            let text = panic_of("abort without a fetch", || s.abort_fetch(REMOTE));
            assert!(text.contains("not outstanding"), "{kind}: {text}");

            let mut s = site();
            let value = VersionedValue::with_payload(WriteId::new(SiteId(0), 1), 1, 0);
            let (var, meta) = (X, foreign_sm(kind));
            let sm = Msg::Sm(Sm { var, value, meta });
            let text = panic_of("foreign SM", || drop(s.on_message(SiteId(0), sm)));
            named(text, "foreign SM meta");

            let mut s = site();
            let source = [(SiteId(1), PeerAckInfo::default(), foreign_sync(kind))];
            let text = panic_of("foreign sync", || s.install_sync(&source));
            named(text, "foreign sync snapshot");

            let mut s = site();
            let (_, e0) = cluster(kind)[0].write(X, 1, 0);
            let (sm, measured) = (sends(&e0).remove(0).1, false);
            let sms = vec![BatchedSm { sm, measured }];
            let batch = Msg::Batch(Arc::new(SmBatch { sms }));
            let text = panic_of("batch", || drop(s.on_message(SiteId(0), batch)));
            assert!(text.contains("unbatched"), "{kind}: {text}");

            if !kind.supports_partial() {
                continue;
            }
            let fetching = || {
                let mut s = site();
                assert!(matches!(s.read(REMOTE), ReadResult::Fetch { .. }));
                s
            };
            let mut s = fetching();
            let text = panic_of("abort of another variable", || s.abort_fetch(X));
            assert!(text.contains("not outstanding"), "{kind}: {text}");

            let mut s = fetching();
            let text = panic_of("second fetch", || drop(s.read(VarId(3))));
            assert!(text.contains("blocks on RemoteFetch"), "{kind}: {text}");

            let mut s = fetching();
            let (var, value, meta) = (VarId(3), None, foreign_rm(kind));
            let rm = Msg::Rm(Rm { var, value, meta });
            let text = panic_of("RM for another variable", || {
                drop(s.on_message(SiteId(0), rm))
            });
            assert!(text.contains("single outstanding fetch"), "{kind}: {text}");

            let mut s = fetching();
            let (var, value, meta) = (REMOTE, None, foreign_rm(kind));
            let rm = Msg::Rm(Rm { var, value, meta });
            let text = panic_of("foreign RM", || drop(s.on_message(SiteId(0), rm)));
            named(text, "foreign RM meta");
        }
    }

    #[test]
    fn a_fully_replicated_site_refuses_fetch_traffic() {
        for kind in KINDS {
            let site = || cluster_on(kind, Arc::new(FullReplication::new(N))).remove(2);
            let mut s = site();
            let fm = Msg::Fm(Fm { var: X });
            let text = panic_of("FM", || drop(s.on_message(SiteId(0), fm)));
            assert!(text.contains(&kind.to_string()), "{kind}: {text}");
            assert!(text.contains("reads are local"), "{kind}: {text}");

            let mut s = site();
            let (var, value, meta) = (X, None, RmMeta::FullTrack(None));
            let rm = Msg::Rm(Rm { var, value, meta });
            let text = panic_of("RM", || drop(s.on_message(SiteId(0), rm)));
            assert!(text.contains("reads are local"), "{kind}: {text}");
        }
    }

    #[test]
    fn export_sync_lists_the_shared_variables_in_ascending_order() {
        let vars = |state: SyncState| -> Vec<VarId> {
            match state {
                SyncState::FullTrack { vars, .. } => vars.into_iter().map(|v| v.0).collect(),
                SyncState::OptTrack { vars, .. } => vars.into_iter().map(|v| v.0).collect(),
                SyncState::Crp { vars, .. } => vars.into_iter().map(|v| v.0).collect(),
                SyncState::OptP { vars, .. } => vars.into_iter().map(|v| v.0).collect(),
                SyncState::HbTrack { vars, .. } => vars.into_iter().map(|v| v.0).collect(),
            }
        };
        for kind in KINDS {
            // s1 holds and s0 shares every variable `x ≡ 0 (mod 3)`, under
            // `Ring` as under full replication.
            let mut sys = cluster(kind);
            for x in [9, 3, 6, 0] {
                sys[1].write(VarId(x), u64::from(x), 0);
            }
            let got = vars(sys[1].export_sync(SiteId(0)));
            assert_eq!(got, [0, 3, 6, 9].map(VarId), "{kind}");
        }
    }

    #[test]
    fn a_checkpoint_clone_replays_the_same_script_to_the_same_effects() {
        for kind in KINDS {
            let mut sys = cluster(kind);
            sys[2].set_tracing(true);
            let ([first, second], _) = dependent_pair(&mut sys);
            let (_, e2) = sys[0].write(VarId(2), 12, 0);
            let third = sm_to(&e2, SiteId(2));
            sys[2].on_message(SiteId(1), second);
            let mut image = sys[2].clone_box();

            let script = |s: &mut Box<dyn ProtocolSite>| {
                let mut seen = Vec::new();
                seen.push(format!("{:?}", s.on_message(SiteId(0), first.clone())));
                seen.push(format!("{:?}", s.read(X)));
                seen.push(format!("{:?}", s.write(X, 13, 0)));
                seen.push(format!("{:?}", s.on_message(SiteId(0), third.clone())));
                seen.push(format!("{:?}", s.read(VarId(2))));
                seen.push(format!("{:?}", s.write(VarId(2), 14, 0)));
                seen.push(format!("{:?}", s.take_trace()));
                seen.push(format!("{:?}", s.own_ledger()));
                seen.push(format!(
                    "{:?}",
                    (s.pending_len(), s.log_len(), s.value_of(X))
                ));
                seen
            };
            assert_eq!(script(&mut sys[2]), script(&mut image), "{kind}");
        }
    }
}
