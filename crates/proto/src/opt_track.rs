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

use crate::effect::{Effect, ReadResult};
use crate::factory::ProtocolKind;
use crate::msg::{Fm, Msg, Rm, RmMeta, Sm, SmMeta};
use crate::pending::{PendingQueues, ProtoTrace, ProtoTraceEvent};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replication::Replication;
use crate::site::{GcStats, ProtocolSite, StableCut};
#[cfg(test)]
use causal_clocks::DestSet;
use causal_clocks::{Log, LogEntry, PruneConfig};
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::collections::HashMap;
use std::sync::Arc;

/// A parked Opt-Track update. The piggybacked log is shared across the
/// multicast fan-out; apply unwraps it (or clones, if still shared) when it
/// needs the private mutable copy for `assoc`.
#[derive(Clone, Debug)]
struct PendingSm {
    var: VarId,
    value: VersionedValue,
    clock: u64,
    log: Arc<Log>,
}

/// The `LastWriteOn⟨h⟩` slot: the log that will accompany this variable's
/// value out of future reads — the piggybacked records plus the write's own
/// record, minus every mention of this site (implicit condition 1), then
/// normalized.
///
/// Constructed **lazily**: most applied values are overwritten before ever
/// being read, so the apply path just stores the shared piggyback snapshot
/// and the write's own record, and the read / fetch-reply / sync paths
/// materialize on first use. Materialization never mutates the shared
/// snapshot (copy-on-write via `Arc::try_unwrap`-or-clone), so piggybacks
/// still in flight are never aliased by a mutated log.
#[derive(Clone, Debug)]
struct LastWrite {
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

    /// Implicit condition 1 on a freshly combined slot log. The historical
    /// rule removes *every* mention of `me` — justified by the activation
    /// predicate only for slots whose write arrived as an SM. A slot parked
    /// by the site's *own* write skipped the predicate, so under `pin_self`
    /// the removal is narrowed to the entries `last_clock` can witness as
    /// applied here (equivalent for predicate-covered slots, strictly
    /// sound for own-write slots).
    fn condition1(log: &mut Log, me: SiteId, last_clock: &[u64], prune: PruneConfig) {
        if prune.pin_self {
            log.prune_applied(me, last_clock);
        } else {
            log.remove_site(me);
        }
    }

    /// The assoc log, materializing in place on first use. The stored
    /// snapshot is deep-cloned only if still shared with in-flight
    /// messages or other sites' slots.
    fn materialize(&mut self, me: SiteId, last_clock: &[u64], prune: PruneConfig) -> &Arc<Log> {
        if let Some(own) = self.own.take() {
            let mut log = Arc::try_unwrap(std::mem::take(&mut self.log))
                .unwrap_or_else(|shared| (*shared).clone());
            log.upsert(own);
            Self::condition1(&mut log, me, last_clock, prune);
            log.normalize(prune);
            self.log = Arc::new(log);
        }
        &self.log
    }

    /// Owned materialized log without caching (for `&self` paths: sync
    /// export and size accounting).
    fn materialize_owned(&self, me: SiteId, last_clock: &[u64], prune: PruneConfig) -> Log {
        let mut log = (*self.log).clone();
        if let Some(own) = self.own {
            log.upsert(own);
            Self::condition1(&mut log, me, last_clock, prune);
            log.normalize(prune);
        }
        log
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

/// State consulted and mutated by the drain loop.
#[derive(Clone)]
struct ApplyState {
    me: SiteId,
    values: HashMap<VarId, VersionedValue>,
    last_write_on: HashMap<VarId, LastWrite>,
    /// `Apply_i[j]` — number of updates from `ap_j` applied here.
    apply: Vec<u64>,
    /// Largest write-clock from each origin applied here. In partial
    /// replication a site receives only a subset of an origin's writes, so
    /// counts and clocks differ; the activation predicate needs clocks.
    last_clock: Vec<u64>,
    applied_effects: Vec<Effect>,
    /// Destination sets by variable (placement is static; cached on apply).
    repl: Arc<dyn Replication>,
}

/// One site running Opt-Track.
#[derive(Clone)]
pub struct OptTrack {
    site: SiteId,
    n: usize,
    repl: Arc<dyn Replication>,
    /// `clock_i` — local write counter.
    clock: u64,
    /// `LOG_i` — the local KS log, behind shared ownership so a write's
    /// fan-out piggybacks the snapshot by refcount alone. Mutations go
    /// through [`Arc::make_mut`]: the deep clone is paid only when the log
    /// actually changes while a piggyback of it is still in flight
    /// (copy-on-write), never per destination and never per send.
    log: Arc<Log>,
    state: ApplyState,
    pending: PendingQueues<PendingSm>,
    outstanding_fetch: Option<VarId>,
    prune: PruneConfig,
    trace: ProtoTrace,
}

impl OptTrack {
    /// Create the Opt-Track state machine for `site` with default pruning.
    pub fn new(site: SiteId, repl: Arc<dyn Replication>) -> Self {
        Self::with_prune(site, repl, PruneConfig::default())
    }

    /// Create with an explicit [`PruneConfig`] (the `ablation_purge` bench
    /// disables condition 2 to quantify the PURGE machinery's effect).
    pub fn with_prune(site: SiteId, repl: Arc<dyn Replication>, prune: PruneConfig) -> Self {
        let n = repl.n();
        OptTrack {
            site,
            n,
            repl: repl.clone(),
            clock: 0,
            log: Arc::new(Log::new()),
            state: ApplyState {
                me: site,
                values: HashMap::new(),
                last_write_on: HashMap::new(),
                apply: vec![0; n],
                last_clock: vec![0; n],
                applied_effects: Vec::new(),
                repl,
            },
            pending: PendingQueues::new(n),
            outstanding_fetch: None,
            prune,
            trace: ProtoTrace::default(),
        }
    }

    /// Activation predicate `A_OPT`: every piggybacked record that lists
    /// this site as a destination must already be applied here. Records from
    /// the sender itself are additionally ordered by the per-sender FIFO
    /// queue (multicast sends leave in clock order over FIFO channels).
    fn ready(state: &ApplyState, _sender: SiteId, m: &PendingSm) -> bool {
        Self::blocking_dep(state, m).is_none()
    }

    /// The first piggybacked record that still blocks `m` here, as
    /// `(origin, clock)` — `None` when `A_OPT` holds.
    fn blocking_dep(state: &ApplyState, m: &PendingSm) -> Option<(SiteId, u64)> {
        m.log
            .iter()
            .filter(|e| e.dests.contains(state.me))
            .find(|e| state.last_clock[e.origin.index()] < e.clock)
            .map(|e| (e.origin, e.clock))
    }

    fn apply_update(state: &mut ApplyState, sender: SiteId, m: PendingSm) {
        debug_assert!(
            state.last_clock[sender.index()] < m.clock,
            "FIFO channels deliver one origin's writes in clock order"
        );
        state.values.insert(m.var, m.value);
        state.apply[sender.index()] += 1;
        state.last_clock[sender.index()] = m.clock;
        state.applied_effects.push(Effect::Applied {
            var: m.var,
            write: m.value.writer,
        });

        // Park the ingredients of the assoc log (see [`LastWrite`]): the
        // shared piggyback and this write's own record. Implicit condition 1
        // (minus every mention of this site — the predicate just guaranteed
        // those writes are applied here) folds in lazily on first read.
        let own = LogEntry::new(sender, m.clock, state.repl.replicas(m.var));
        state
            .last_write_on
            .insert(m.var, LastWrite::applied(m.log, own));
    }

    fn drain(&mut self) -> Vec<Effect> {
        self.pending
            .drain(&mut self.state, Self::ready, Self::apply_update);
        std::mem::take(&mut self.state.applied_effects)
    }

    /// Read-side MERGE: fold a value's `LastWriteOn` log into `LOG_i`,
    /// prune what this site already knows to be applied here, normalize.
    fn merge_on_read(&mut self, incoming: &Log) {
        let log = Arc::make_mut(&mut self.log);
        log.merge(incoming, self.prune);
        let merged = log.len();
        log.prune_applied(self.site, &self.state.last_clock);
        log.purge(self.prune);
        let remaining = log.len();
        if merged > remaining {
            self.trace.emit(ProtoTraceEvent::LogPruned {
                removed: merged - remaining,
                remaining,
            });
        }
    }

    /// Current log length (diagnostics; the paper discusses amortized log
    /// size following Chandra et al.).
    pub fn log_size(&self) -> usize {
        self.log.len()
    }
}

impl ProtocolSite for OptTrack {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::OptTrack
    }

    fn site(&self) -> SiteId {
        self.site
    }

    fn n(&self) -> usize {
        self.n
    }

    fn write(&mut self, var: VarId, data: u64, payload_len: u32) -> (WriteId, Vec<Effect>) {
        self.clock += 1;
        let wid = WriteId::new(self.site, self.clock);
        let value = VersionedValue::with_payload(wid, data, payload_len);
        let dests = self.repl.replicas(var);

        // Piggyback the *pre-write* log: "the outgoing update messages will
        // piggyback the currently stored records". Receivers thereby see the
        // writer's causal past, including its own still-relevant writes.
        // One shared snapshot serves the whole fan-out — taking it is a
        // refcount bump; `record_write` below pays the copy-on-write clone.
        let piggyback = Arc::clone(&self.log);

        let mut effects = Vec::new();
        for k in dests.iter() {
            if k != self.site {
                effects.push(Effect::Send {
                    to: k,
                    msg: Msg::Sm(Sm {
                        var,
                        value,
                        meta: SmMeta::OptTrack {
                            clock: self.clock,
                            log: Arc::clone(&piggyback),
                        },
                    }),
                });
            }
        }

        // Local log update: condition 2 prunes destinations covered by this
        // causally-later send, then the write's own record is added.
        Arc::make_mut(&mut self.log).record_write(self.site, self.clock, dests, self.prune);

        if dests.contains(self.site) {
            // Writer applies its own update immediately.
            self.state.values.insert(var, value);
            self.state.apply[self.site.index()] += 1;
            self.state.last_clock[self.site.index()] = self.clock;
            let own = LogEntry::new(self.site, self.clock, dests);
            self.state
                .last_write_on
                .insert(var, LastWrite::applied(piggyback, own));
            effects.push(Effect::Applied { var, write: wid });
            effects.extend(self.drain());
        }
        (wid, effects)
    }

    fn read(&mut self, var: VarId) -> ReadResult {
        if self.repl.is_replicated_at(var, self.site) {
            let (site, prune) = (self.site, self.prune);
            let ApplyState {
                last_write_on,
                last_clock,
                ..
            } = &mut self.state;
            let log = last_write_on
                .get_mut(&var)
                .map(|lw| Arc::clone(lw.materialize(site, last_clock, prune)));
            if let Some(log) = log {
                self.merge_on_read(&log);
            }
            ReadResult::Local(self.state.values.get(&var).copied())
        } else {
            assert!(
                self.outstanding_fetch.is_none(),
                "application subsystem blocks on RemoteFetch"
            );
            self.outstanding_fetch = Some(var);
            let target = self.repl.fetch_target(var, self.site);
            ReadResult::Fetch {
                target,
                msg: Msg::Fm(Fm { var }),
            }
        }
    }

    fn on_message(&mut self, from: SiteId, msg: Msg) -> Vec<Effect> {
        match msg {
            Msg::Sm(sm) => {
                let SmMeta::OptTrack { clock, log } = sm.meta else {
                    panic!("Opt-Track site received a foreign SM meta");
                };
                let m = PendingSm {
                    var: sm.var,
                    value: sm.value,
                    clock,
                    log,
                };
                if self.trace.enabled() {
                    if let Some((dep_site, dep_clock)) = Self::blocking_dep(&self.state, &m) {
                        self.trace.emit(ProtoTraceEvent::Buffered {
                            origin: m.value.writer.site,
                            clock: m.value.writer.clock,
                            var: m.var,
                            dep_site,
                            dep_clock,
                        });
                    }
                }
                self.pending.push(from, m);
                self.drain()
            }
            Msg::Fm(fm) => {
                let value = self.state.values.get(&fm.var).copied();
                let site = self.site;
                let prune = self.prune;
                let ApplyState {
                    last_write_on,
                    last_clock,
                    ..
                } = &mut self.state;
                let meta = RmMeta::OptTrack(
                    last_write_on
                        .get_mut(&fm.var)
                        .map(|lw| Arc::clone(lw.materialize(site, last_clock, prune))),
                );
                vec![Effect::Send {
                    to: from,
                    msg: Msg::Rm(Rm {
                        var: fm.var,
                        value,
                        meta,
                    }),
                }]
            }
            Msg::Rm(rm) => {
                assert_eq!(
                    self.outstanding_fetch.take(),
                    Some(rm.var),
                    "RM must answer the single outstanding fetch"
                );
                let RmMeta::OptTrack(meta) = rm.meta else {
                    panic!("Opt-Track site received a foreign RM meta");
                };
                if let Some(log) = &meta {
                    self.merge_on_read(log);
                }
                vec![Effect::FetchDone {
                    var: rm.var,
                    value: rm.value,
                }]
            }
            Msg::Batch(_) => panic!("batches are unbatched by the transport before delivery"),
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn local_meta_size(&self, model: &SizeModel) -> u64 {
        let mut total = self.log.meta_size(model);
        for l in self.state.last_write_on.values() {
            total += l.meta_size(model, self.site, &self.state.last_clock, self.prune);
        }
        total
    }

    fn value_of(&self, var: VarId) -> Option<VersionedValue> {
        self.state.values.get(&var).copied()
    }

    fn log_len(&self) -> Option<usize> {
        Some(self.log.len())
    }

    fn gc_stable(&mut self, cut: &StableCut) -> GcStats {
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
        for lw in self.state.last_write_on.values_mut() {
            if lw.own.is_some() {
                continue;
            }
            if has_stale(&lw.log) {
                stats.slots += Arc::make_mut(&mut lw.log).prune_stable(cut.clocks, self.prune);
            }
        }
        stats
    }

    fn own_ledger(&self) -> OwnLedger {
        OwnLedger {
            site: self.site,
            own_clock: self.clock,
            // Opt-Track's predicate is clock-based, not count-based, so the
            // per-destination row is only an upper bound (nothing reads it).
            own_row: vec![self.clock; self.n],
            self_applied: self.state.apply[self.site.index()],
        }
    }

    fn note_peer_departed(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize) {
        // Same fast-forward as a recovery announcement, plus: the peer is
        // gone for good, so its KS-log entries (as origin or destination)
        // can never constrain a future delivery — forget them.
        let dropped = self.pending.clear_sender(peer);
        let pi = peer.index();
        self.state.last_clock[pi] = self.state.last_clock[pi].max(ledger.own_clock);
        self.state.apply[pi] += dropped as u64;
        let log = Arc::make_mut(&mut self.log);
        log.prune_applied(self.site, &self.state.last_clock);
        log.forget_site(peer, self.prune);
        (self.drain(), dropped)
    }

    fn drop_var(&mut self, var: VarId) {
        self.state.values.remove(&var);
        self.state.last_write_on.remove(&var);
    }

    fn restore_own_ledger(&mut self, ledger: &OwnLedger) {
        // Fail-soft WAL truncation may have replayed fewer own writes than
        // the durable ledger records; never reuse a clock (= WriteId).
        self.clock = self.clock.max(ledger.own_clock);
        let me = self.site.index();
        self.state.last_clock[me] = self.state.last_clock[me].max(self.clock);
        self.state.apply[me] = self.state.apply[me].max(ledger.self_applied);
    }

    fn crash_volatile(&mut self) -> (OwnLedger, usize) {
        let ledger = self.own_ledger();
        // The write counter is the durable bit — reusing a clock would mint
        // duplicate WriteIds. Everything learned is volatile.
        self.log = Arc::new(Log::new());
        self.state.values.clear();
        self.state.last_write_on.clear();
        self.state.apply = vec![0; self.n];
        self.state.apply[self.site.index()] = ledger.self_applied;
        self.state.last_clock = vec![0; self.n];
        // Own self-replicated writes were applied here at write time; the
        // clock-based fast-forward to the full own counter is safe (any own
        // write not self-applied was not destined here at all).
        self.state.last_clock[self.site.index()] = self.clock;
        self.state.applied_effects.clear();
        let mut dropped = 0;
        for s in SiteId::all(self.n) {
            dropped += self.pending.clear_sender(s);
        }
        self.outstanding_fetch = None;
        (ledger, dropped)
    }

    fn note_peer_recovery(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize) {
        // The peer's unacked pre-crash writes are permanently lost:
        // fast-forward the per-origin clock so predicates that reference
        // them can fire, and drop updates parked from the peer (the
        // fast-forward already covers their clocks).
        let dropped = self.pending.clear_sender(peer);
        let pi = peer.index();
        self.state.last_clock[pi] = self.state.last_clock[pi].max(ledger.own_clock);
        self.state.apply[pi] += dropped as u64;
        Arc::make_mut(&mut self.log).prune_applied(self.site, &self.state.last_clock);
        (self.drain(), dropped)
    }

    fn export_sync(&self, requester: SiteId) -> SyncState {
        let vars = self
            .state
            .values
            .iter()
            .filter(|(var, _)| self.repl.is_replicated_at(**var, requester))
            .map(|(var, value)| {
                let lw = &self.state.last_write_on[var];
                (
                    *var,
                    *value,
                    lw.materialize_owned(self.site, &self.state.last_clock, self.prune),
                )
            })
            .collect();
        SyncState::OptTrack {
            log: (*self.log).clone(),
            vars,
        }
    }

    fn install_sync(&mut self, sources: &[(SiteId, PeerAckInfo, SyncState)]) {
        let mut best: HashMap<VarId, (VersionedValue, Log)> = HashMap::new();
        for (peer, ack, state) in sources {
            let SyncState::OptTrack { log, vars } = state else {
                panic!("Opt-Track site received a foreign sync snapshot");
            };
            // Acked SMs were received exactly once and never redeliver;
            // unacked ones will be, starting right after the acked prefix
            // (FIFO), so the acked maximum restores last_clock exactly.
            // Never regress: a WAL-replayed site may already count unacked
            // (logged but never re-acked) deliveries beyond the acked prefix.
            let apply = &mut self.state.apply[peer.index()];
            *apply = (*apply).max(ack.sm_count);
            let last = &mut self.state.last_clock[peer.index()];
            *last = (*last).max(ack.sm_max_clock);
            // Merge every live peer's log: a conservative over-approximation
            // of the lost causal knowledge (each observed write lives in its
            // writer's own log until all destinations are covered).
            Arc::make_mut(&mut self.log).merge(log, self.prune);
            for (var, value, meta) in vars {
                let replace = best.get(var).is_none_or(|(b, _)| {
                    (value.writer.clock, value.writer.site) > (b.writer.clock, b.writer.site)
                });
                if replace {
                    best.insert(*var, (*value, meta.clone()));
                }
            }
        }
        let local = Arc::make_mut(&mut self.log);
        local.prune_applied(self.site, &self.state.last_clock);
        local.purge(self.prune);
        for (var, (value, mut meta)) in best {
            // Install only values strictly newer than the local replica: a
            // WAL-replayed state already holds everything up to its durable
            // point, and a delta snapshot must not roll it back.
            let newer = self.state.values.get(&var).is_none_or(|cur| {
                (value.writer.clock, value.writer.site) > (cur.writer.clock, cur.writer.site)
            });
            if newer {
                meta.remove_site(self.site);
                meta.normalize(self.prune);
                self.state.values.insert(var, value);
                self.state
                    .last_write_on
                    .insert(var, LastWrite::materialized(Arc::new(meta)));
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ProtocolSite> {
        Box::new(self.clone())
    }

    fn abort_fetch(&mut self, var: VarId) {
        assert_eq!(
            self.outstanding_fetch.take(),
            Some(var),
            "abort of a fetch that is not outstanding"
        );
    }

    fn fetching(&self) -> Option<VarId> {
        self.outstanding_fetch
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    fn take_trace(&mut self) -> Vec<ProtoTraceEvent> {
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::FullReplication;

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

    fn toy_system() -> Vec<OptTrack> {
        let repl = Arc::new(Toy);
        SiteId::all(3)
            .map(|s| OptTrack::new(s, repl.clone()))
            .collect()
    }

    fn sends(effects: &[Effect]) -> Vec<(SiteId, Sm)> {
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

    fn applied(effects: &[Effect]) -> Vec<WriteId> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Applied { write, .. } => Some(*write),
                _ => None,
            })
            .collect()
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
        assert!(sys[1].log.iter().all(|e| !e.dests.contains(SiteId(1))));
    }

    #[test]
    fn log_stays_small_under_repeated_full_replication_writes() {
        // Under full replication every write supersedes all previous dest
        // info: the log must stay O(1) per origin.
        let repl = Arc::new(FullReplication::new(4));
        let mut sites: Vec<OptTrack> = SiteId::all(4)
            .map(|s| OptTrack::new(s, repl.clone()))
            .collect();
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
                site.log_size() <= 8,
                "log must stay bounded, got {}",
                site.log_size()
            );
        }
    }

    #[test]
    fn ablation_condition2_off_grows_larger_logs() {
        let repl = Arc::new(FullReplication::new(4));
        let loose = PruneConfig {
            condition2: false,
            ..PruneConfig::default()
        };
        let mut tight_site = OptTrack::new(SiteId(1), repl.clone());
        let mut loose_site = OptTrack::with_prune(SiteId(2), repl.clone(), loose);
        let mut writer = OptTrack::new(SiteId(0), repl.clone());
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
            loose_site.log_size() > tight_site.log_size(),
            "disabling condition 2 must inflate the log ({} vs {})",
            loose_site.log_size(),
            tight_site.log_size()
        );
    }

    #[test]
    fn piggyback_snapshot_never_aliases_mutated_log() {
        // Regression test for the copy-on-write sharing: a captured
        // piggyback is an immutable snapshot. Neither later writes at the
        // writer (which fork `LOG_i` via `Arc::make_mut`) nor lazy
        // materialization of a receiver's `LastWriteOn` slot (the
        // `Arc::try_unwrap`-or-clone path) may alter the snapshot in place
        // while an in-flight message still holds it.
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

        // Writer keeps going: record_write + merge-on-read must fork, not
        // mutate the shared snapshot.
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
