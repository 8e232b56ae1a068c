//! Dynamic membership: epoch'd two-phase view changes (propose, quiesce,
//! install) for joins, graceful and fail-stop leaves, and live variable
//! migrations, built on the crash/recovery machinery.

use super::recovery::SiteStatus;
use super::Sim;
use crate::kernel::SimEvent;
use causal_clocks::DestSet;
use causal_memory::DynamicPlacement;
use causal_obs::EventKind;
use causal_proto::{Frame, OwnLedger, PeerAckInfo, Replication, WalRecord};
use causal_types::{SimDuration, SimTime, SiteId, VarId};
use causal_workload::{ChurnOp, ChurnPlan};
use std::collections::VecDeque;
use std::sync::Arc;

/// How long a proposed view change waits for full quiescence before it is
/// installed *forced* (2 s of virtual time, mirroring the sync deadline):
/// a member crashing mid-drain must degrade the view change, not wedge it.
const VIEW_DEADLINE: SimDuration = SimDuration(2_000_000_000);

/// Poll cadence of the quiescence test while a view change drains.
const VIEW_POLL: SimDuration = SimDuration(100_000_000);

/// A proposed view change draining toward its install.
pub(super) struct PendingView {
    /// Index into the churn plan's event list.
    idx: usize,
    /// Proposal instant (for the view-change-latency statistic and the
    /// forced-install deadline).
    proposed_at: SimTime,
}

/// Everything the membership layer adds to a run.
pub(super) struct ChurnState {
    /// The validated reconfiguration schedule.
    pub(super) plan: ChurnPlan,
    /// The epoch'd view the protocol sites share (via `Arc<dyn
    /// Replication>`): installs become visible to every site at once.
    pub(super) dynp: Arc<DynamicPlacement>,
    /// The view change currently quiescing, if any. View changes install
    /// strictly in plan order.
    pub(super) pending: Option<PendingView>,
    /// Proposals that reached their scheduled time while another view
    /// change was still in flight, FIFO.
    queued: VecDeque<usize>,
    /// Operations held during quiescence, replayed at install.
    pub(super) view_held: Vec<SimEvent>,
    /// Sites that joined the view and are still bootstrapping by state
    /// transfer.
    pub(super) joining: Vec<bool>,
}

impl ChurnState {
    pub(super) fn new(plan: ChurnPlan, dynp: Arc<DynamicPlacement>, n: usize) -> Self {
        ChurnState {
            plan,
            dynp,
            pending: None,
            queued: VecDeque::new(),
            view_held: Vec::new(),
            joining: vec![false; n],
        }
    }
}

impl Sim<'_> {
    fn churn_mut(&mut self) -> &mut ChurnState {
        self.churn
            .as_mut()
            .expect("view events require a churn plan")
    }

    pub(super) fn on_view_propose(&mut self, idx: usize) {
        // Parked updates must drain with the rest of the in-flight traffic
        // during quiescence: flush every sender's lanes onto the wire
        // before the view change starts draining.
        for s in SiteId::all(self.n) {
            self.sites[s.index()].flush_lanes(&mut self.out);
            self.apply_outputs(s);
        }
        self.churn_mut().queued.push_back(idx);
        self.propose_next_view();
    }

    /// Start quiescing the next queued view change, if none is in flight.
    /// View changes install strictly in plan order; a proposal that
    /// arrives while another is quiescing waits its turn in the FIFO.
    fn propose_next_view(&mut self) {
        let proposed_at = self.now;
        let Some(ch) = self.churn.as_mut().filter(|ch| ch.pending.is_none()) else {
            return;
        };
        let Some(idx) = ch.queued.pop_front() else {
            return;
        };
        ch.pending = Some(PendingView { idx, proposed_at });
        // A fail-stop leave crashes at the *proposal* — the volatile state
        // is lost the instant the failure happens; the view change only
        // ratifies the departure at the epoch boundary. (Skipped when a
        // fault-plan crash already took the site down: its ledger is saved
        // either way.)
        if let ChurnOp::CrashLeave(s) = ch.plan.events[idx].op {
            if self.status(s) == SiteStatus::Up {
                self.crash_site(s);
            }
        }
        self.heap.push(self.now, SimEvent::ViewQuiesceCheck { idx });
    }

    pub(super) fn on_view_quiesce_check(&mut self, idx: usize) {
        let proposed_at = match &self.churn_mut().pending {
            Some(p) if p.idx == idx => p.proposed_at,
            _ => return, // stale poll for an installed view
        };
        // Quiescent: no data frame is in flight or unsettled between live
        // sites, no update is parked in a lane, and no recovery handshake
        // is open. Held operations guarantee no *new* traffic starts, so
        // the test is monotone until the install.
        let c = self.chaos.as_ref().expect("churn requires chaos mode");
        let up = c.up();
        let quiet = !c.status.contains(&SiteStatus::Syncing)
            && c.transport.quiescent(&up)
            && self.sites.iter().all(|d| d.lanes_empty())
            && !self.heap.events().any(|e| match e {
                SimEvent::DeliverFrame { to, frame, .. } => {
                    matches!(**frame, Frame::Data { .. }) && up[to.index()]
                }
                SimEvent::Deliver { to, .. } => up[to.index()],
                _ => false,
            });
        let forced = !quiet && self.now >= proposed_at + VIEW_DEADLINE;
        if quiet || forced {
            self.metrics.views_forced += u64::from(forced);
            self.install_view(idx, proposed_at, forced);
        } else {
            self.heap
                .push(self.now + VIEW_POLL, SimEvent::ViewQuiesceCheck { idx });
        }
    }

    /// Install view change `idx`: apply the membership/placement mutation,
    /// run its state transfers, bump the epoch, release held operations,
    /// and start the next queued proposal.
    fn install_view(&mut self, idx: usize, proposed_at: SimTime, forced: bool) {
        let op = self.churn_mut().plan.events[idx].op;
        let mut joined_alone = false;
        let subject = match op {
            ChurnOp::Join(s) => {
                joined_alone = self.install_join(s);
                s
            }
            ChurnOp::Leave(s) => self.install_leave(s, false),
            ChurnOp::CrashLeave(s) => self.install_leave(s, true),
            ChurnOp::Migrate { var, from, to } => self.install_migrate(var, from, to),
        };
        self.metrics.view_changes += 1;
        self.metrics
            .view_change_ns
            .record((self.now - proposed_at).as_nanos() as f64);
        let ch = self.churn_mut();
        ch.pending = None;
        let epoch = ch.dynp.epoch();
        // Release the operations held during quiescence in their original
        // order (same-time heap ties break by insertion sequence).
        let held = std::mem::take(&mut ch.view_held);
        let forced = forced as u64;
        self.emit(subject, EventKind::ViewChange { epoch, forced });
        for ev in held {
            self.heap.push(self.now, ev);
        }
        if joined_alone {
            // Single-member (or fully-crashed) view: nothing to wait for.
            self.finish_recovery(subject);
        }
        self.propose_next_view();
    }

    /// A join is a recovery from nothing: revive the transport endpoint,
    /// then bootstrap by the digest/pull handshake — peers renumber their
    /// (empty) streams, ship snapshots, and the collected union becomes
    /// the joiner's state. Returns `true` when no peer is up to answer.
    fn install_join(&mut self, s: SiteId) -> bool {
        let ch = self.churn_mut();
        ch.dynp.install_join(s);
        ch.joining[s.index()] = true;
        assert_eq!(
            self.status(s),
            SiteStatus::Out,
            "join of an in-view site (validate should have caught this)"
        );
        let ledger = self.sites[s.index()].site().own_ledger();
        let inc = self.chaos_mut().transport.revive(s, &ledger);
        self.emit(s, EventKind::Recover { inc });
        let alone = self.begin_sync(s, inc, &ledger, None);
        // Seed the joiner's per-origin delivery state from every live
        // peer's ledger: writes up to a peer's current clock were
        // multicast to the *old* view and will never arrive on the
        // joiner's fresh channels, while everything after this install is
        // addressed to it and arrives contiguously. Without the seed,
        // count/FIFO predicates (Opt-Track-CRP) park every post-join write
        // behind pre-join tuples the joiner can never receive.
        for peer in SiteId::all(self.n) {
            if peer != s && self.status(peer) == SiteStatus::Up {
                let ledger = self.sites[peer.index()].site().own_ledger();
                let joiner = self.sites[s.index()].site_mut();
                let (eff, _) = joiner.note_peer_recovery(peer, &ledger);
                debug_assert!(eff.is_empty(), "a fresh joiner has nothing parked");
            }
        }
        // The joiner's stability row seeds at today's issued clocks:
        // pre-join writes were multicast to the old view and reach it (if
        // at all) only through the bootstrap snapshots, never as
        // individual applies.
        if let Some(stab) = self.stability.as_mut() {
            stab.add_member(s);
        }
        // Arm the joiner's first workload operation; it is held while the
        // bootstrap runs and replayed at completion.
        self.schedule_next(s);
        self.metrics.joins += 1;
        alone
    }

    fn install_leave(&mut self, s: SiteId, crashed: bool) -> SiteId {
        let dynp = self.churn_mut().dynp.clone();
        // The departure ledger survivors fast-forward past: the durable
        // one saved at the crash, or the live one drained at the epoch
        // boundary for a graceful leave.
        let ledger = if crashed || self.status(s) != SiteStatus::Up {
            let saved = self.chaos_mut().ledgers[s.index()].clone();
            saved.expect("ledger saved at crash")
        } else {
            self.sites[s.index()].site().own_ledger()
        };
        // The checker must not demand deliveries at the departed site past
        // this point: the leave seals it in the history.
        self.emit(s, EventKind::Leave);
        // Re-home every variable whose replica set would empty, *before*
        // the member list shrinks: a graceful leaver donates its copy; a
        // crashed one cannot (degraded).
        let mut members_after = dynp.members();
        members_after.remove(s);
        for var in VarId::all(self.cfg.workload.q) {
            let raw = dynp.raw_replicas(var);
            if !raw.contains(s) || !raw.intersect(&members_after).is_empty() {
                continue;
            }
            let target = members_after
                .iter()
                .find(|m| self.status(*m) == SiteStatus::Up)
                .or_else(|| members_after.iter().next())
                .expect("a view never empties");
            if crashed {
                self.metrics.churn_transfers_degraded += 1;
            } else {
                self.transfer_var(var, s, target);
            }
            dynp.install_override(var, DestSet::from_sites([target]));
        }
        dynp.install_leave(s);
        let c = self.chaos_mut();
        c.status[s.index()] = SiteStatus::Out;
        c.held[s.index()].clear();
        c.sync[s.index()] = None;
        // Kills survivors' retransmission timers toward the departed site
        // — there is no future incarnation to renumber their backlog for.
        c.transport.forget(s);
        self.sites[s.index()].abort_fetch();
        // Survivors prune their causal metadata of the departed site —
        // journaled first, so a later WAL replay re-drives the same
        // pruning. Syncing sites are deliberately skipped: a joiner
        // mid-bootstrap waiting on the leaver times out into a degraded
        // transfer instead.
        for m in SiteId::all(self.n) {
            if m != s && self.status(m) == SiteStatus::Up {
                self.note_departure(m, s, &ledger);
            }
        }
        // Drop the leaver's column from the frontier minimum and settle
        // survivors past its final clock — its undelivered updates were
        // just fast-forwarded, not applied.
        if let Some(stab) = self.stability.as_mut() {
            stab.remove_member(s, ledger.own_clock);
        }
        self.retarget_blocked_fetches(s, None);
        self.metrics.leaves += 1;
        s
    }

    /// Survivor `m` forgets departed `peer`.
    fn note_departure(&mut self, m: SiteId, peer: SiteId, ledger: &OwnLedger) {
        let rec = WalRecord::PeerDeparted {
            peer,
            ledger: ledger.clone(),
        };
        self.journal(m, rec);
        let site = self.sites[m.index()].site_mut();
        let (effects, _dropped) = site.note_peer_departed(peer, ledger);
        self.absorb(m, effects);
    }

    fn install_migrate(&mut self, var: VarId, from: SiteId, to: SiteId) -> SiteId {
        let dynp = self.churn_mut().dynp.clone();
        self.metrics.migrations += 1;
        // Under full replication every member already holds `var`, and the
        // count-based delivery predicates (Full-Track's expected-count,
        // CRP's per-sender FIFO contiguity) assume full fan-out: shrinking
        // the destination set would starve them. The migration is an epoch
        // bump and nothing else.
        if dynp.base().is_full() {
            return to;
        }
        let raw = dynp.raw_replicas(var);
        if !raw.contains(to) {
            // Seed the new replica with a one-variable state transfer,
            // preferring the vacated replica as donor and failing over to
            // any live one.
            let up = |s: SiteId| self.status(s) == SiteStatus::Up;
            let donor = if !up(to) {
                None
            } else if raw.contains(from) && up(from) {
                Some(from)
            } else {
                let live = raw.intersect(&dynp.members());
                let d = live.iter().find(|d| *d != to && up(*d));
                d
            };
            match donor {
                Some(d) => self.transfer_var(var, d, to),
                None => self.metrics.churn_transfers_degraded += 1,
            }
        }
        let mut replicas = raw;
        let vacated = replicas.remove(from);
        replicas.insert(to);
        dynp.install_override(var, replicas);
        if vacated && self.status(from) == SiteStatus::Up {
            self.sites[from.index()].site_mut().drop_var(var);
            self.checkpoint(from);
            // A fetch already addressed to the vacated replica would find
            // the variable dropped: re-aim it.
            self.retarget_blocked_fetches(from, Some(var));
        }
        to
    }

    /// Copy `var`'s state from `donor` into live site `to` and make it
    /// durable there. A pure max-merge: installing into a live site only
    /// adds knowledge, never rolls anything back.
    fn transfer_var(&mut self, var: VarId, donor: SiteId, to: SiteId) {
        let state = self.sites[donor.index()].site().export_sync(to);
        let state = state.retain_vars(&[var]);
        self.metrics.churn_transfer_bytes += state.meta_size(&self.cfg.size_model);
        let source = [(donor, PeerAckInfo::default(), state)];
        self.sites[to.index()].site_mut().install_sync(&source);
        self.checkpoint(to);
    }

    /// Re-address every blocked remote fetch whose target replica just
    /// left the view (or stopped replicating `only_var`): fail over to the
    /// best candidate under the new placement, or abandon the read as
    /// degraded when no candidate remains.
    fn retarget_blocked_fetches(&mut self, old_target: SiteId, only_var: Option<VarId>) {
        let dynp = self.churn_mut().dynp.clone();
        for s in SiteId::all(self.n) {
            // A crashed reader's recovery re-issues its own fetch.
            let Some(f) = self.sites[s.index()].fetch().copied() else {
                continue;
            };
            if self.status(s) != SiteStatus::Up
                || f.target != old_target
                || only_var.is_some_and(|v| v != f.var)
            {
                continue;
            }
            match dynp.fetch_candidates(f.var, s).first() {
                Some(next) => self.fail_over(s, *next),
                None => self.degrade_read(s, f.var),
            }
        }
    }
}
