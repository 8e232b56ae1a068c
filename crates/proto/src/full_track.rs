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

use crate::effect::{Effect, ReadResult};
use crate::factory::ProtocolKind;
use crate::msg::{Fm, Msg, Rm, RmMeta, Sm, SmMeta};
use crate::pending::{PendingQueues, ProtoTrace, ProtoTraceEvent};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replication::Replication;
use crate::site::{GcStats, ProtocolSite, StableCut};
use causal_clocks::MatrixClock;
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::collections::HashMap;
use std::sync::Arc;

/// A parked Full-Track update. The matrix snapshot stays shared (`Arc`)
/// all the way from the writer's fan-out into the receiver's stash.
#[derive(Clone, Debug)]
struct PendingSm {
    var: VarId,
    value: VersionedValue,
    write: Arc<MatrixClock>,
}

/// Mutable state shared between the drain loop and the apply action.
#[derive(Clone)]
struct ApplyState {
    values: HashMap<VarId, VersionedValue>,
    last_write_on: HashMap<VarId, Arc<MatrixClock>>,
    apply: Vec<u64>,
    applied_effects: Vec<Effect>,
}

/// One site running Full-Track.
#[derive(Clone)]
pub struct FullTrack {
    site: SiteId,
    n: usize,
    repl: Arc<dyn Replication>,
    /// `Write_i` — the site's matrix clock.
    write_clock: MatrixClock,
    /// `Apply_i[j]` + replica values + `LastWriteOn_i`.
    state: ApplyState,
    /// Local write counter (for `WriteId`s; Full-Track itself needs only the
    /// matrix).
    own_writes: u64,
    pending: PendingQueues<PendingSm>,
    outstanding_fetch: Option<VarId>,
    trace: ProtoTrace,
}

impl FullTrack {
    /// Create the Full-Track state machine for `site`.
    pub fn new(site: SiteId, repl: Arc<dyn Replication>) -> Self {
        let n = repl.n();
        FullTrack {
            site,
            n,
            repl,
            write_clock: MatrixClock::new(n),
            state: ApplyState {
                values: HashMap::new(),
                last_write_on: HashMap::new(),
                apply: vec![0; n],
                applied_effects: Vec::new(),
            },
            own_writes: 0,
            pending: PendingQueues::new(n),
            outstanding_fetch: None,
            trace: ProtoTrace::default(),
        }
    }

    /// The activation predicate `A_OPT` for an update from `sender` carrying
    /// matrix `w`, evaluated at this site `k`:
    ///
    /// * every process `l ≠ sender` must have had all its causally preceding
    ///   writes *to this site* applied: `Apply_k[l] ≥ W[l][k]`;
    /// * the sender's row counts this very update, hence
    ///   `Apply_k[sender] ≥ W[sender][k] − 1`.
    fn ready(state: &ApplyState, me: SiteId, sender: SiteId, m: &PendingSm) -> bool {
        Self::blocking_dep(state, me, sender, m).is_none()
    }

    /// The first unsatisfied dependency of `m` at this site, as
    /// `(site, required apply count)` — `None` when `A_OPT` holds. `ready`
    /// is this predicate's emptiness; the trace records the witness.
    fn blocking_dep(
        state: &ApplyState,
        me: SiteId,
        sender: SiteId,
        m: &PendingSm,
    ) -> Option<(SiteId, u64)> {
        let n = state.apply.len();
        for l in SiteId::all(n) {
            let required = m.write.get(l, me);
            let threshold = if l == sender {
                required.saturating_sub(1)
            } else {
                required
            };
            if state.apply[l.index()] < threshold {
                return Some((l, threshold));
            }
        }
        None
    }

    fn apply_update(state: &mut ApplyState, sender: SiteId, m: PendingSm) {
        state.values.insert(m.var, m.value);
        state.apply[sender.index()] += 1;
        state.applied_effects.push(Effect::Applied {
            var: m.var,
            write: m.value.writer,
        });
        state.last_write_on.insert(m.var, m.write);
    }

    /// Run the drain loop and collect `Applied` effects.
    fn drain(&mut self) -> Vec<Effect> {
        let me = self.site;
        self.pending.drain(
            &mut self.state,
            |s, sender, m| Self::ready(s, me, sender, m),
            Self::apply_update,
        );
        std::mem::take(&mut self.state.applied_effects)
    }
}

impl ProtocolSite for FullTrack {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::FullTrack
    }

    fn site(&self) -> SiteId {
        self.site
    }

    fn n(&self) -> usize {
        self.n
    }

    fn write(&mut self, var: VarId, data: u64, payload_len: u32) -> (WriteId, Vec<Effect>) {
        self.own_writes += 1;
        let wid = WriteId::new(self.site, self.own_writes);
        let value = VersionedValue::with_payload(wid, data, payload_len);
        let dests = self.repl.replicas(var);

        // Count this write towards every destination replica, then snapshot
        // once; every destination's SM shares the same immutable matrix.
        for k in dests.iter() {
            self.write_clock.increment(self.site, k);
        }
        let snapshot = Arc::new(self.write_clock.clone());

        let mut effects = Vec::new();
        for k in dests.iter() {
            if k != self.site {
                effects.push(Effect::Send {
                    to: k,
                    msg: Msg::Sm(Sm {
                        var,
                        value,
                        meta: SmMeta::FullTrack {
                            write: Arc::clone(&snapshot),
                        },
                    }),
                });
            }
        }

        if dests.contains(self.site) {
            // The writer applies its own update immediately: everything in
            // its causal past that was destined here has already been
            // applied here or was learned through a remote read (see the
            // crate-level note on remote reads).
            self.state.values.insert(var, value);
            self.state.apply[self.site.index()] += 1;
            self.state.last_write_on.insert(var, snapshot);
            effects.push(Effect::Applied { var, write: wid });
            // The local apply can unblock parked updates that were waiting
            // on this site's own writes.
            effects.extend(self.drain());
        }
        (wid, effects)
    }

    fn read(&mut self, var: VarId) -> ReadResult {
        if self.repl.is_replicated_at(var, self.site) {
            // Reading the value creates the →co edge: merge the matrix that
            // travelled with the last write applied to this variable.
            if let Some(w) = self.state.last_write_on.get(&var) {
                self.write_clock.merge_max(w);
            }
            ReadResult::Local(self.state.values.get(&var).copied())
        } else {
            assert!(
                self.outstanding_fetch.is_none(),
                "application subsystem blocks on RemoteFetch; a second read \
                 cannot start while one is outstanding"
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
                let SmMeta::FullTrack { write } = sm.meta else {
                    panic!("Full-Track site received a foreign SM meta");
                };
                let m = PendingSm {
                    var: sm.var,
                    value: sm.value,
                    write,
                };
                if self.trace.enabled() {
                    if let Some((dep_site, dep_clock)) =
                        Self::blocking_dep(&self.state, self.site, from, &m)
                    {
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
                // Serve the fetch from current local state (remote_return
                // event). FMs carry no causal metadata, so no waiting.
                let value = self.state.values.get(&fm.var).copied();
                let meta = RmMeta::FullTrack(self.state.last_write_on.get(&fm.var).cloned());
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
                let RmMeta::FullTrack(meta) = rm.meta else {
                    panic!("Full-Track site received a foreign RM meta");
                };
                // The remote read creates the →co edge now.
                if let Some(w) = &meta {
                    self.write_clock.merge_max(w);
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
        let mut total = self.write_clock.meta_size(model);
        for w in self.state.last_write_on.values() {
            total += w.meta_size(model);
        }
        total
    }

    fn value_of(&self, var: VarId) -> Option<VersionedValue> {
        self.state.values.get(&var).copied()
    }

    fn gc_stable(&mut self, cut: &StableCut) -> GcStats {
        // A stashed `LastWriteOn` matrix wholly within the stable cut
        // describes only writes already applied at every live member: a
        // future read's merge of it could never raise the local matrix
        // above knowledge whose constraints are vacuous everywhere, so the
        // stash can go. The value itself stays — only the metadata is GC'd.
        let before = self.state.last_write_on.len();
        self.state.last_write_on.retain(|_, w| !w.le(cut.counts));
        GcStats {
            log_entries: 0,
            slots: before - self.state.last_write_on.len(),
        }
    }

    fn own_ledger(&self) -> OwnLedger {
        OwnLedger {
            site: self.site,
            own_clock: self.own_writes,
            own_row: SiteId::all(self.n)
                .map(|d| self.write_clock.get(self.site, d))
                .collect(),
            self_applied: self.state.apply[self.site.index()],
        }
    }

    fn drop_var(&mut self, var: VarId) {
        self.state.values.remove(&var);
        self.state.last_write_on.remove(&var);
    }

    fn restore_own_ledger(&mut self, ledger: &OwnLedger) {
        self.own_writes = self.own_writes.max(ledger.own_clock);
        for d in SiteId::all(self.n) {
            let row = self
                .write_clock
                .get(self.site, d)
                .max(ledger.own_row[d.index()]);
            self.write_clock.set(self.site, d, row);
        }
        let applied = &mut self.state.apply[self.site.index()];
        *applied = (*applied).max(ledger.self_applied);
    }

    fn crash_volatile(&mut self) -> (OwnLedger, usize) {
        let ledger = self.own_ledger();
        // Forget everything learned; re-seed what the ledger justifies.
        self.write_clock = MatrixClock::new(self.n);
        for d in SiteId::all(self.n) {
            self.write_clock
                .set(self.site, d, ledger.own_row[d.index()]);
        }
        self.state.values.clear();
        self.state.last_write_on.clear();
        self.state.apply = vec![0; self.n];
        self.state.apply[self.site.index()] = ledger.self_applied;
        self.state.applied_effects.clear();
        let mut dropped = 0;
        for s in SiteId::all(self.n) {
            dropped += self.pending.clear_sender(s);
        }
        self.outstanding_fetch = None;
        (ledger, dropped)
    }

    fn note_peer_recovery(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize) {
        // The peer's unacked pre-crash writes are gone forever; pretend they
        // were applied so predicates counting them can fire. Parked updates
        // from the peer fall inside the acked prefix the fast-forward now
        // covers — applying them later would double-count, so drop them.
        let dropped = self.pending.clear_sender(peer);
        let me = self.site.index();
        self.state.apply[peer.index()] = self.state.apply[peer.index()].max(ledger.own_row[me]);
        (self.drain(), dropped)
    }

    fn export_sync(&self, requester: SiteId) -> SyncState {
        let vars = self
            .state
            .values
            .iter()
            .filter(|(var, _)| self.repl.is_replicated_at(**var, requester))
            .map(|(var, value)| {
                // A stash collected by `gc_stable` means the variable's last
                // write is stable at every member — its dependency
                // constraints are vacuous, so the zero matrix is exact.
                let meta = self
                    .state
                    .last_write_on
                    .get(var)
                    .map(|w| w.as_ref().clone())
                    .unwrap_or_else(|| MatrixClock::new(self.n));
                (*var, *value, meta)
            })
            .collect();
        SyncState::FullTrack {
            clock: self.write_clock.clone(),
            vars,
        }
    }

    fn install_sync(&mut self, sources: &[(SiteId, PeerAckInfo, SyncState)]) {
        let mut best: HashMap<VarId, (VersionedValue, MatrixClock)> = HashMap::new();
        for (peer, ack, state) in sources {
            let SyncState::FullTrack { clock, vars } = state else {
                panic!("Full-Track site received a foreign sync snapshot");
            };
            // Acked SMs were received exactly once and are never redelivered;
            // unacked ones will be. The acked count therefore IS the
            // per-origin receive counter the crash erased. Never regress: a
            // WAL-replayed site may already count logged-but-unacked ones.
            let apply = &mut self.state.apply[peer.index()];
            *apply = (*apply).max(ack.sm_count);
            // Merging every live peer's matrix over-approximates the lost
            // causal knowledge (each observed write is in its writer's own
            // row) — safe: never violates →co, only adds waiting.
            self.write_clock.merge_max(clock);
            for (var, value, meta) in vars {
                let replace = best.get(var).is_none_or(|(b, _)| {
                    (value.writer.clock, value.writer.site) > (b.writer.clock, b.writer.site)
                });
                if replace {
                    best.insert(*var, (*value, meta.clone()));
                }
            }
        }
        for (var, (value, meta)) in best {
            // Install only values strictly newer than the local replica (a
            // delta snapshot must not roll a WAL-replayed state back).
            let newer = self.state.values.get(&var).is_none_or(|cur| {
                (value.writer.clock, value.writer.site) > (cur.writer.clock, cur.writer.site)
            });
            if newer {
                self.state.values.insert(var, value);
                self.state.last_write_on.insert(var, Arc::new(meta));
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

    fn system(n: usize) -> Vec<FullTrack> {
        let repl = Arc::new(FullReplication::new(n));
        SiteId::all(n)
            .map(|s| FullTrack::new(s, repl.clone()))
            .collect()
    }

    /// Extract the SM sends from an effect list as `(to, Sm)` pairs.
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
