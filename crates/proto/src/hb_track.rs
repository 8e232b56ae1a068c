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

use crate::effect::{Effect, ReadResult};
use crate::factory::ProtocolKind;
use crate::msg::{Fm, Msg, Rm, RmMeta, Sm, SmMeta};
use crate::pending::{PendingQueues, ProtoTrace, ProtoTraceEvent};
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use crate::replication::Replication;
use crate::site::ProtocolSite;
use causal_clocks::MatrixClock;
use causal_types::{MetaSized, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::collections::HashMap;
use std::sync::Arc;

/// A parked HB-Track update (shared matrix snapshot, as in Full-Track).
#[derive(Clone, Debug)]
struct PendingSm {
    var: VarId,
    value: VersionedValue,
    write: Arc<MatrixClock>,
}

#[derive(Clone)]
struct ApplyState {
    values: HashMap<VarId, VersionedValue>,
    apply: Vec<u64>,
    /// The local matrix — mutated on apply (receipt-merge), which is
    /// exactly the false-causality-inducing difference from Full-Track.
    write_clock: MatrixClock,
    applied_effects: Vec<Effect>,
}

/// One site running HB-Track.
#[derive(Clone)]
pub struct HbTrack {
    site: SiteId,
    n: usize,
    repl: Arc<dyn Replication>,
    state: ApplyState,
    own_writes: u64,
    pending: PendingQueues<PendingSm>,
    outstanding_fetch: Option<VarId>,
    trace: ProtoTrace,
}

impl HbTrack {
    /// Create the HB-Track state machine for `site`.
    pub fn new(site: SiteId, repl: Arc<dyn Replication>) -> Self {
        let n = repl.n();
        HbTrack {
            site,
            n,
            repl,
            state: ApplyState {
                values: HashMap::new(),
                apply: vec![0; n],
                write_clock: MatrixClock::new(n),
                applied_effects: Vec::new(),
            },
            own_writes: 0,
            pending: PendingQueues::new(n),
            outstanding_fetch: None,
            trace: ProtoTrace::default(),
        }
    }

    /// The same counting predicate as Full-Track — but because the matrix
    /// was merged at receipt, `W[l][k]` counts messages that happened
    /// before under `→`, not `→co`: the site waits for more than causality
    /// requires.
    fn ready(state: &ApplyState, me: SiteId, sender: SiteId, m: &PendingSm) -> bool {
        Self::blocking_dep(state, me, sender, m).is_none()
    }

    /// First unsatisfied dependency (witness for the trace); under HB
    /// semantics it may well be a *false* one — that is the point of the
    /// `falseco` experiment.
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
        // Receipt-merge: this is where HB-Track manufactures the false
        // dependencies that its later multicasts will impose on others.
        state.write_clock.merge_max(&m.write);
    }

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

impl ProtocolSite for HbTrack {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::HbTrack
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
        for k in dests.iter() {
            self.state.write_clock.increment(self.site, k);
        }
        let snapshot = Arc::new(self.state.write_clock.clone());
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
            self.state.values.insert(var, value);
            self.state.apply[self.site.index()] += 1;
            effects.push(Effect::Applied { var, write: wid });
            effects.extend(self.drain());
        }
        (wid, effects)
    }

    fn read(&mut self, var: VarId) -> ReadResult {
        if self.repl.is_replicated_at(var, self.site) {
            // No read-time merge: receipt already merged (that is the whole
            // difference from Full-Track).
            ReadResult::Local(self.state.values.get(&var).copied())
        } else {
            assert!(self.outstanding_fetch.is_none());
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
                    panic!("HB-Track site received a foreign SM meta");
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
                // The server answers with its whole matrix (HB semantics:
                // the reply transfers the server's knowledge wholesale).
                let value = self.state.values.get(&fm.var).copied();
                let meta = RmMeta::FullTrack(Some(Arc::new(self.state.write_clock.clone())));
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
                assert_eq!(self.outstanding_fetch.take(), Some(rm.var));
                let RmMeta::FullTrack(meta) = rm.meta else {
                    panic!("HB-Track site received a foreign RM meta");
                };
                if let Some(w) = &meta {
                    self.state.write_clock.merge_max(w);
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
        self.state.write_clock.meta_size(model)
    }

    fn value_of(&self, var: VarId) -> Option<VersionedValue> {
        self.state.values.get(&var).copied()
    }

    fn own_ledger(&self) -> OwnLedger {
        // HB-Track's own matrix row counts only own writes (peers' matrices
        // can never know more of this row than the site itself), so the row
        // snapshot is ledger material just as in Full-Track.
        OwnLedger {
            site: self.site,
            own_clock: self.own_writes,
            own_row: SiteId::all(self.n)
                .map(|d| self.state.write_clock.get(self.site, d))
                .collect(),
            self_applied: self.state.apply[self.site.index()],
        }
    }

    fn drop_var(&mut self, var: VarId) {
        self.state.values.remove(&var);
    }

    fn restore_own_ledger(&mut self, ledger: &OwnLedger) {
        self.own_writes = self.own_writes.max(ledger.own_clock);
        for d in SiteId::all(self.n) {
            let row = self
                .state
                .write_clock
                .get(self.site, d)
                .max(ledger.own_row[d.index()]);
            self.state.write_clock.set(self.site, d, row);
        }
        let applied = &mut self.state.apply[self.site.index()];
        *applied = (*applied).max(ledger.self_applied);
    }

    fn crash_volatile(&mut self) -> (OwnLedger, usize) {
        let ledger = self.own_ledger();
        self.state.write_clock = MatrixClock::new(self.n);
        for d in SiteId::all(self.n) {
            self.state
                .write_clock
                .set(self.site, d, ledger.own_row[d.index()]);
        }
        self.state.values.clear();
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
            .map(|(var, value)| (*var, *value))
            .collect();
        SyncState::HbTrack {
            clock: self.state.write_clock.clone(),
            vars,
        }
    }

    fn install_sync(&mut self, sources: &[(SiteId, PeerAckInfo, SyncState)]) {
        let mut best: HashMap<VarId, VersionedValue> = HashMap::new();
        for (peer, ack, state) in sources {
            let SyncState::HbTrack { clock, vars } = state else {
                panic!("HB-Track site received a foreign sync snapshot");
            };
            // Never regress: a WAL-replayed site may already count
            // logged-but-unacked deliveries beyond the acked prefix.
            let apply = &mut self.state.apply[peer.index()];
            *apply = (*apply).max(ack.sm_count);
            // Receipt-merge protocol: merging peers' matrices is exactly the
            // HB knowledge transfer an RM reply performs, just n-wide.
            self.state.write_clock.merge_max(clock);
            for (var, value) in vars {
                let replace = best.get(var).is_none_or(|b| {
                    (value.writer.clock, value.writer.site) > (b.writer.clock, b.writer.site)
                });
                if replace {
                    best.insert(*var, *value);
                }
            }
        }
        for (var, value) in best {
            // Install only values strictly newer than the local replica (a
            // delta snapshot must not roll a WAL-replayed state back).
            let newer = self.state.values.get(&var).is_none_or(|cur| {
                (value.writer.clock, value.writer.site) > (cur.writer.clock, cur.writer.site)
            });
            if newer {
                self.state.values.insert(var, value);
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

    fn system(n: usize) -> Vec<HbTrack> {
        let repl = Arc::new(FullReplication::new(n));
        SiteId::all(n)
            .map(|s| HbTrack::new(s, repl.clone()))
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
