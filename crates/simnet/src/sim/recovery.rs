//! Lossy/crashy mode: site liveness, fail-stop crashes, WAL replay, the
//! state-sync handshake and checkpoints.

use super::{Sim, SimConfig};
use crate::channel::FaultPlan;
use crate::kernel::SimEvent;
use crate::transport::Transport;
use causal_obs::EventKind;
use causal_proto::{DurableStore, Frame, OwnLedger, PeerAckInfo, SyncState, WalRecord};
use causal_types::{SimDuration, SimTime, SiteId, WriteId};
use fxhash::FxHashSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How long a recovering site waits for its expected `SyncResp`s before
/// coming up in degraded mode (2 s of virtual time — correlated crashes
/// can take an expected responder down mid-handshake).
const SYNC_DEADLINE: SimDuration = SimDuration(2_000_000_000);

/// Liveness of a site under crash injection.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(super) enum SiteStatus {
    /// Normal operation.
    Up,
    /// Crashed: operations defer, arriving data frames are lost.
    Down,
    /// Restarted, collecting `SyncResp`s; data frames buffer until the
    /// protocol state is reinstalled.
    Syncing,
    /// Not in the membership view: either not yet joined or departed for
    /// good. Operations are dropped, arriving frames are lost.
    Out,
}

/// One recovery's `SyncResp` collection.
pub(super) struct SyncCollect {
    /// The recovery instant (for the recovery-time statistic).
    started: SimTime,
    /// The incarnation the responses must echo.
    inc: u32,
    /// Peers that were up when the recovery began — the response set the
    /// recovery waits for. Down peers cannot answer; their own later
    /// recovery fast-forwards this site past anything missed.
    expected: Vec<SiteId>,
    /// Responses gathered so far.
    sources: Vec<(SiteId, PeerAckInfo, SyncState)>,
}

/// Everything the lossy/crashy mode adds to a run.
pub(super) struct Chaos {
    pub(super) transport: Transport,
    pub(super) faults: FaultPlan,
    /// Fault-decision stream, independent of the latency stream so the
    /// fault plan never perturbs latency sampling.
    pub(super) fault_rng: StdRng,
    pub(super) status: Vec<SiteStatus>,
    /// Events deferred while a site is down or syncing, replayed in order
    /// at recovery completion.
    pub(super) held: Vec<Vec<SimEvent>>,
    pub(super) sync: Vec<Option<SyncCollect>>,
    pub(super) ledgers: Vec<Option<OwnLedger>>,
    /// Per-site durable stores (WAL + checkpoint images), present iff the
    /// run's [`super::DurabilityPlan::wal`] is on.
    pub(super) stores: Option<Vec<DurableStore>>,
    /// History-level apply dedup: a crashed site re-applies redelivered
    /// updates it had already applied (and recorded) before losing state;
    /// the checker's per-origin FIFO pass must see each apply once.
    pub(super) applied_seen: FxHashSet<(SiteId, WriteId)>,
}

impl Chaos {
    /// Sites outside the initial membership (their first churn event is a
    /// join) start [`SiteStatus::Out`].
    pub(super) fn new(cfg: &SimConfig, members: &[bool]) -> Self {
        let n = members.len();
        let status = |m: &bool| if *m { SiteStatus::Up } else { SiteStatus::Out };
        Chaos {
            transport: Transport::new(n),
            faults: cfg.faults.clone(),
            fault_rng: StdRng::seed_from_u64(cfg.workload.seed ^ 0xFA17_BAD0_0DD5_EED5),
            status: members.iter().map(status).collect(),
            held: (0..n).map(|_| Vec::new()).collect(),
            sync: (0..n).map(|_| None).collect(),
            ledgers: vec![None; n],
            stores: cfg
                .durability
                .wal
                .then(|| (0..n).map(|_| DurableStore::new(n)).collect()),
            applied_seen: FxHashSet::default(),
        }
    }

    /// Which sites are up, indexed by site.
    pub(super) fn up(&self) -> Vec<bool> {
        self.status.iter().map(|s| *s == SiteStatus::Up).collect()
    }
}

impl Sim<'_> {
    pub(super) fn chaos_mut(&mut self) -> &mut Chaos {
        self.chaos
            .as_mut()
            .expect("crashes, sync and views require chaos mode")
    }

    /// Fail-stop `site`: volatile protocol state and parked lanes are
    /// lost, the durable ledger is kept for its recovery (or for the
    /// survivors of its departure).
    pub(super) fn crash_site(&mut self, site: SiteId) {
        self.emit(site, EventKind::Crash);
        let ledger = self.sites[site.index()].crash();
        let c = self.chaos_mut();
        c.status[site.index()] = SiteStatus::Down;
        c.ledgers[site.index()] = Some(ledger);
        c.transport.crash(site);
        if let Some(stab) = self.stability.as_mut() {
            stab.on_crash(site);
        }
    }

    pub(super) fn on_crash(&mut self, site: SiteId) {
        assert_eq!(
            self.status(site),
            SiteStatus::Up,
            "s{site} crashed again before its previous recovery finished"
        );
        self.crash_site(site);
        if self.cfg.durability.lose_media.contains(&site) {
            let stores = self.chaos_mut().stores.as_mut();
            stores.expect("media loss requires the WAL")[site.index()].wipe();
        }
    }

    pub(super) fn on_recover(&mut self, site: SiteId) {
        let i = site.index();
        assert_eq!(self.status(site), SiteStatus::Down, "recover without crash");
        let c = self.chaos_mut();
        let ledger = c.ledgers[i].clone().expect("ledger saved at crash");
        let inc = c.transport.revive(site, &ledger);
        self.emit(site, EventKind::Recover { inc });
        // Local-first recovery: rebuild the state machine from the durable
        // store, so peers only need to fill in the delta. Media loss (or
        // running without the WAL) falls back to the full peer rebuild
        // from the cleared state machine.
        let mut applied = None;
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            let store = &mut stores[i];
            // Fail-soft load: a torn final record is truncated rather than
            // aborting the replay; the redelivery marks roll back to the
            // checkpoint floor so the lost suffix is re-driven by the
            // transport.
            if self.cfg.durability.torn_tail.contains(&site) {
                store.tear_tail(1);
            }
            let driver = &self.sites[i];
            if let Some((mut replayed, replay_applied)) = store.replay(|| driver.fresh_site()) {
                if let Some(stab) = self.stability.as_mut() {
                    // The rebuilt state has applied exactly the
                    // checkpoint's applies plus these replayed ones;
                    // anything else from the volatile window is re-parked,
                    // not applied, and stays outstanding.
                    for w in &replay_applied {
                        stab.applied(site, *w);
                    }
                }
                // The replayed site may carry a trace buffer cloned from
                // the live site at checkpoint time (stale replay-era
                // events): discard it, then restore the run's tracing
                // mode.
                let _ = replayed.take_trace();
                replayed.set_tracing(self.trace.is_some());
                // A truncated tail may have lost the site's latest own
                // writes: raise the replayed state to the durable ledger
                // so no WriteId is ever reused.
                replayed.restore_own_ledger(&ledger);
                self.sites[i].replace_site(replayed);
                self.metrics.recovery_replays += 1;
                applied = Some(store.applied_high_water(site, ledger.own_clock));
            }
        }
        if self.begin_sync(site, inc, &ledger, applied) {
            // Nothing to wait for: a single-site system, or every peer is
            // down too (correlated failure) — the WAL replay (or, without
            // it, the bare ledger) is all the state there is.
            self.finish_recovery(site);
        }
    }

    /// Start `site`'s state-sync handshake under incarnation `inc`: ask
    /// every in-view peer for its state (only the delta past `applied`
    /// when the site replayed its WAL) and arm the sync deadline. Returns
    /// `true` when no peer is up to wait for.
    pub(super) fn begin_sync(
        &mut self,
        site: SiteId,
        inc: u32,
        ledger: &OwnLedger,
        applied: Option<Vec<u64>>,
    ) -> bool {
        let started = self.now;
        let c = self.chaos_mut();
        c.status[site.index()] = SiteStatus::Syncing;
        let status = c.status.clone();
        let peers = || SiteId::all(status.len()).filter(|p| *p != site);
        let expected: Vec<SiteId> = peers()
            .filter(|p| status[p.index()] == SiteStatus::Up)
            .collect();
        let nothing_expected = expected.is_empty();
        c.sync[site.index()] = Some(SyncCollect {
            started,
            inc,
            expected,
            sources: Vec::new(),
        });
        // Departed members never answer (and their channels were
        // forgotten): don't waste sync traffic on them.
        for peer in peers().filter(|p| status[p.index()] != SiteStatus::Out) {
            let req = Frame::SyncReq {
                inc,
                ledger: ledger.clone(),
                applied: applied.clone(),
            };
            self.metrics.sync_count += 1;
            self.metrics.sync_bytes += req.overhead(&self.cfg.size_model);
            self.emit(site, EventKind::SyncReq { to: peer });
            self.send_frame(site, peer, req, false);
        }
        self.heap.push(
            self.now + SYNC_DEADLINE,
            SimEvent::SyncTimeout { site, inc },
        );
        nothing_expected
    }

    /// A live site (`me`) handles a recovering peer's `SyncReq`:
    /// fast-forward past the peer's lost writes, renumber the SM backlog
    /// into the new epoch, re-issue a blocked fetch that was addressed to
    /// the dead incarnation, and answer with a state snapshot.
    pub(super) fn handle_sync_req(
        &mut self,
        me: SiteId,
        peer: SiteId,
        inc: u32,
        ledger: &OwnLedger,
        applied: Option<Vec<u64>>,
    ) {
        let (ack, renumbered) = self.chaos_mut().transport.peer_recovered(me, peer, inc);
        self.dispatch_cmds(me, renumbered);
        // A fetch blocked on the dead incarnation would wait forever: its
        // FM (or the RM reply) died with the peer's volatile state.
        // Re-issue it on the new epoch; a duplicate reply is a stray. The
        // attempt bump invalidates any armed fetch-deadline timer.
        let now = self.now.as_nanos();
        let d = &mut self.sites[me.index()];
        if d.fetch().is_some_and(|f| f.target == peer) {
            d.retarget_fetch(now, peer, &mut self.out);
            self.fetch_issued(me);
        }
        // Protocol-level fast-forward: lost writes count as applied,
        // parked updates from the dead incarnation are discarded, and
        // anything that was waiting only on the lost writes drains now.
        // Journaled first, so a later replay of this site re-drives the
        // same fast-forward.
        self.journal(
            me,
            WalRecord::PeerRecovered {
                peer,
                ledger: ledger.clone(),
            },
        );
        let site = self.sites[me.index()].site_mut();
        let (effects, _dropped) = site.note_peer_recovery(peer, ledger);
        // The fast-forward counts the peer's lost writes as applied
        // without ever emitting `Effect::Applied`; settle them or the
        // stable frontier wedges on updates nobody will deliver again.
        if let Some(stab) = self.stability.as_mut() {
            stab.settle_peer(me, peer, ledger.own_clock);
        }
        self.absorb(me, effects);
        // Answer with this site's causal knowledge and shared-variable
        // values — filtered down to the delta past the requester's
        // replayed per-origin high-water marks when it recovered from its
        // WAL.
        let size_model = &self.cfg.size_model;
        let mut state = self.sites[me.index()].site().export_sync(peer);
        if let Some(applied) = &applied {
            let full = state.meta_size(size_model);
            state = state.filter_delta(applied);
            self.metrics.delta_sync_saved_bytes += full - state.meta_size(size_model);
        }
        let bytes = state.meta_size(size_model);
        let resp = Frame::SyncResp { inc, ack, state };
        self.metrics.sync_count += 1;
        self.metrics.sync_bytes += resp.overhead(size_model) + bytes;
        self.emit(me, EventKind::SyncResp { to: peer, bytes });
        self.send_frame(me, peer, resp, false);
    }

    /// The recovering site collects one `SyncResp`; once every peer that
    /// was up at recovery start has answered, the snapshot union is
    /// installed and the site goes back up. (A concurrently recovering
    /// peer may answer too — its extra snapshot is folded in but never
    /// waited for.)
    pub(super) fn handle_sync_resp(
        &mut self,
        me: SiteId,
        peer: SiteId,
        inc: u32,
        ack: PeerAckInfo,
        state: SyncState,
    ) {
        // A response for an already-finished recovery is stale.
        let Some(col) = self.chaos_mut().sync[me.index()].as_mut() else {
            return;
        };
        if col.inc != inc {
            return;
        }
        col.sources.push((peer, ack, state));
        if col.all_answered() {
            self.finish_recovery(me);
        }
    }

    pub(super) fn on_sync_timeout(&mut self, site: SiteId, inc: u32) {
        let c = self.chaos_mut();
        let waiting = c.sync[site.index()].as_ref().is_some_and(|c| c.inc == inc);
        if c.status[site.index()] != SiteStatus::Syncing || !waiting {
            return;
        }
        // An expected responder died mid-handshake: stop waiting and come
        // up with whatever arrived (plus the WAL replay).
        self.metrics.degraded_recoveries += 1;
        self.finish_recovery(site);
    }

    /// Install the collected peer snapshots, mark the site up, replay
    /// buffered events and re-issue the site's own interrupted fetch.
    pub(super) fn finish_recovery(&mut self, me: SiteId) {
        let i = me.index();
        let c = self.chaos_mut();
        let col = c.sync[i].take().expect("sync in progress");
        c.status[i] = SiteStatus::Up;
        let held = std::mem::take(&mut c.held[i]);
        // A join bootstrap rides the recovery handshake verbatim; account
        // its transfer cost (and whether any donor never answered) to the
        // churn metrics before installing.
        if self
            .churn
            .as_mut()
            .is_some_and(|ch| std::mem::take(&mut ch.joining[i]))
        {
            for (_, _, st) in &col.sources {
                self.metrics.churn_transfer_bytes += st.meta_size(&self.cfg.size_model);
            }
            if !col.all_answered() {
                self.metrics.churn_transfers_degraded += 1;
            }
        }
        let site = self.sites[i].site_mut();
        site.install_sync(&col.sources);
        // Sync-installed writes are fast-forwarded, never individually
        // applied; settle each donor's acked high-water so the frontier
        // can pass them.
        if let Some(stab) = self.stability.as_mut() {
            for (peer, ack, _) in &col.sources {
                stab.settle_peer(me, *peer, ack.sm_max_clock);
            }
            // The full-replication protocols fast-forward past the whole
            // merged snapshot horizon and drop its redeliveries as
            // duplicates; those writes never raise an apply effect, so
            // settle them here too.
            for (j, hw) in site.applied_horizon().iter().flatten().enumerate() {
                if SiteId::from(j) != me {
                    stab.settle_peer(me, SiteId::from(j), *hw);
                }
            }
        }
        // Re-establish durability at the recovered state: a fresh
        // checkpoint folds in the installed snapshots (which are not
        // journaled) and truncates the log — and re-arms a wiped medium.
        self.checkpoint(me);
        let dur_ns = (self.now - col.started).as_nanos();
        self.metrics.recovery_ns.record(dur_ns as f64);
        self.emit(me, EventKind::RecoveryDone { dur_ns });
        for ev in held {
            self.heap.push(self.now, ev);
        }
        // The site's own in-flight fetch died with its old incarnation
        // (the FM may never have left, or the RM reply now addresses a
        // dead epoch); the re-issue's attempt bump invalidates any armed
        // fetch-deadline timer.
        let now = self.now.as_nanos();
        let d = &mut self.sites[i];
        let Some(var) = d.fetch().map(|f| f.var) else {
            return;
        };
        if d.resume_fetch(now, &mut self.out) {
            // Re-run through the protocol: journaled like any other read.
            self.after_read(me, var);
        } else {
            self.fetch_issued(me);
        }
    }

    /// Checkpoint `site`'s protocol state into its durable store (when
    /// the run has one) and truncate its log.
    pub(super) fn checkpoint(&mut self, site: SiteId) {
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            let state = self.sites[site.index()].site();
            let bytes = stores[site.index()].take_checkpoint(state, &self.cfg.size_model);
            self.emit(site, EventKind::Checkpoint { bytes });
        }
    }

    /// Checkpoint every live site that journaled anything since its last
    /// image (skipping the deep state clone otherwise). Only a live site's
    /// state is consistent; a crashed or syncing site checkpoints right
    /// after its recovery completes instead.
    pub(super) fn checkpoint_dirty(&mut self) {
        let up = self.chaos.as_ref().map_or_else(Vec::new, Chaos::up);
        for s in SiteId::all(up.len()).filter(|s| up[s.index()]) {
            let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) else {
                return;
            };
            let state = self.sites[s.index()].site();
            let image = stores[s.index()].take_checkpoint_if_dirty(state, &self.cfg.size_model);
            if let Some(bytes) = image {
                self.emit(s, EventKind::Checkpoint { bytes });
            }
        }
    }
}

impl SyncCollect {
    fn all_answered(&self) -> bool {
        let answered = |e| self.sources.iter().any(|(s, _, _)| s == e);
        self.expected.iter().all(answered)
    }
}
