//! The sans-IO site driver: everything one site does between "an operation
//! or a frame arrived" and "these frames leave, these things happened".
//!
//! A [`SiteDriver`] builds and owns a [`ProtocolSite`] and the send-side
//! and read-side state every deployment needs around it:
//!
//! * optional per-destination **lanes** ([`DestBatcher`]): an SM parks in
//!   the lane toward its destination and leaves when a count/byte bound
//!   trips, the harness's window timer fires, or an RM departs toward the
//!   same destination — an RM carries `LastWriteOn` metadata and the
//!   protocols' pruning rules assume per-channel FIFO order, so it may not
//!   overtake a parked update. An FM carries no metadata and leaves at
//!   once without touching a lane. Lanes hold a site's own updates back,
//!   so a driver with lanes builds its site with
//!   [`causal_clocks::PruneConfig::pin_self`] on, whatever it was given;
//! * the single **outstanding-fetch slot** of the paper's synchronous
//!   RemoteFetch (issue, retarget, resume after a crash, abort, complete)
//!   and the stray-RM rule ([`SiteDriver::accepts`]);
//! * the **receipt map** that turns an apply into a pending-queue dwell;
//! * **multicast grouping**: a write's fan-out leaves as one
//!   [`Output::Send`] naming every destination, sized once.
//!
//! It knows nothing about transport or time: entry points take `now` as
//! plain nanoseconds and append [`Output`]s to a buffer the harness owns
//! and reuses. The simulator, the threaded runtime and `LocalCluster` are
//! harnesses that feed it operations, frames and timer expiries, and turn
//! outputs into heap events or socket writes, history records, trace events
//! and metric updates (DESIGN.md, "Driver and harnesses"). None of them
//! builds a site itself.

use crate::effect::{Effect, ReadResult};
use crate::factory::{build_site, ProtocolConfig, ProtocolKind};
use crate::msg::{BatchedSm, Fm, Msg, Sm, SmBatch};
use crate::reliable::OwnLedger;
use crate::replication::Replication;
use crate::site::ProtocolSite;
use causal_clocks::{BatchPolicy, DestBatcher, DestSet, Offer};
use causal_types::{MetaSized, MsgKind, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a driver step produced, in the order it happened.
#[derive(Clone, PartialEq, Debug)]
pub enum Output {
    /// Ship one copy of `msg` to every site in `dsts` (ascending). More
    /// than one destination means one multicast: the same write with the
    /// same piggyback allocation ([`Sm::same_multicast`]).
    Send {
        /// Destination sites; never empty.
        dsts: DestSet,
        /// The message: an SM, FM, RM, or a drained lane's batch frame.
        msg: Msg,
        /// Post-warm-up attribution (`any()` over a batch's updates).
        measured: bool,
        /// Meta-data bytes of one copy.
        bytes: u64,
        /// For a batch frame, what its updates would have cost as
        /// individual SMs minus `bytes`; 0 otherwise.
        saved: u64,
    },
    /// A lane went from empty to non-empty: after the flush window, call
    /// [`SiteDriver::on_lane_timer`] with these coordinates.
    ArmLaneTimer {
        /// The lane's destination.
        to: SiteId,
        /// Lane epoch the timer is valid for.
        epoch: u64,
    },
    /// An update was applied to the local replica.
    Applied {
        /// The updated variable.
        var: VarId,
        /// The applied write.
        write: WriteId,
        /// Receipt-to-apply time; `None` for the site's own writes, which
        /// were never received.
        dwell_ns: Option<u64>,
    },
    /// A read returned.
    ReadDone {
        /// The variable read.
        var: VarId,
        /// The value returned, `None` for `⊥`.
        value: Option<VersionedValue>,
        /// The replica that served it (this site for a local read).
        served_by: SiteId,
        /// Issue-to-return time of the last fetch attempt; `None` for a
        /// local read.
        rtt_ns: Option<u64>,
        /// Post-warm-up attribution of the read operation.
        measured: bool,
    },
}

/// The outstanding remote fetch of a site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fetch {
    /// The variable being fetched.
    pub var: VarId,
    /// The replica the current attempt is addressed to.
    pub target: SiteId,
    /// Post-warm-up attribution of the read operation.
    pub measured: bool,
    /// Bumped on every re-issue, so a harness timer armed for an earlier
    /// attempt recognises itself as stale.
    pub attempt: u32,
    issued_ns: u64,
}

/// What one delivery did to the pending buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Updates the delivery left parked that were not parked before.
    pub buffered: u64,
    /// Pending-buffer population after the delivery.
    pub pending: usize,
}

/// An SM parked in a destination lane.
struct PendingSm {
    sm: Sm,
    measured: bool,
    /// What the update costs as its own SM frame — the baseline the
    /// batching saving is measured against.
    full_bytes: u64,
}

/// One site's protocol state machine plus its lanes, fetch slot and
/// receipt map. See the module docs.
pub struct SiteDriver {
    id: SiteId,
    /// What the site was built from, kept for [`SiteDriver::fresh_site`].
    repl: Arc<dyn Replication>,
    cfg: ProtocolConfig,
    site: Box<dyn ProtocolSite>,
    size_model: SizeModel,
    lanes: Option<DestBatcher<PendingSm>>,
    fetch: Option<Fetch>,
    /// The update being delivered right now. Most apply on arrival, and
    /// those never enter `receipt`.
    arriving: Option<WriteId>,
    /// Receipt time of every SM delivered earlier and not yet applied.
    receipt: BTreeMap<WriteId, u64>,
    /// The one buffer every write and delivery collects its effects in,
    /// drained by [`SiteDriver::route`]'s loop and reused.
    effects: Vec<Effect>,
}

impl SiteDriver {
    /// Build site `id` of a `kind` deployment over `repl` and drive it,
    /// sizing messages under `size_model`. `lanes` turns on per-destination
    /// batching under that policy and with it `pin_self`; `None` sends
    /// every SM as its own frame and keeps `cfg` as given.
    pub fn new(
        kind: ProtocolKind,
        id: SiteId,
        repl: Arc<dyn Replication>,
        mut cfg: ProtocolConfig,
        size_model: SizeModel,
        lanes: Option<BatchPolicy>,
    ) -> Self {
        // A parked update may sit in its lane for a whole flush window
        // while its causal future races ahead through other lanes, so the
        // prunings that assume "my own sends cover me" lose their timing
        // justification (docs/PROTOCOLS.md, "Pin the sender's own
        // obligations").
        cfg.prune.pin_self |= lanes.is_some();
        SiteDriver {
            id,
            site: build_site(kind, id, repl.clone(), cfg),
            repl,
            cfg,
            size_model,
            lanes: lanes.map(DestBatcher::new),
            fetch: None,
            arriving: None,
            receipt: BTreeMap::new(),
            effects: Vec::new(),
        }
    }

    /// The protocol state machine (checkpoints, sync export, gauges).
    pub fn site(&self) -> &dyn ProtocolSite {
        self.site.as_ref()
    }

    /// The protocol state machine, for recovery and membership plumbing
    /// that bypasses the operation path.
    pub fn site_mut(&mut self) -> &mut dyn ProtocolSite {
        self.site.as_mut()
    }

    /// A state machine built exactly as this driver's was, from nothing —
    /// what a WAL replay starts from.
    pub fn fresh_site(&self) -> Box<dyn ProtocolSite> {
        build_site(self.site.kind(), self.id, self.repl.clone(), self.cfg)
    }

    /// Swap in a rebuilt state machine (WAL replay). Lanes, fetch slot and
    /// receipts are the driver's and survive.
    pub fn replace_site(&mut self, site: Box<dyn ProtocolSite>) {
        debug_assert_eq!(site.site(), self.id);
        self.site = site;
    }

    /// Perform a local write. Returns its identity and every site that
    /// must apply it (the SM fan-out plus this site when it replicates
    /// `var`).
    pub fn write(
        &mut self,
        now: u64,
        var: VarId,
        data: u64,
        payload_len: u32,
        measured: bool,
        out: &mut Vec<Output>,
    ) -> (WriteId, DestSet) {
        let mut effects = std::mem::take(&mut self.effects);
        let id = self.site.write_into(var, data, payload_len, &mut effects);
        let mut dests = DestSet::EMPTY;
        for e in &effects {
            match e {
                Effect::Send {
                    to,
                    msg: Msg::Sm(_),
                } => dests.insert(*to),
                Effect::Applied { write, .. } if *write == id => dests.insert(self.id),
                _ => {}
            }
        }
        self.route_each(now, effects.drain(..), measured, out);
        self.effects = effects;
        (id, dests)
    }

    /// Perform a local read: a [`Output::ReadDone`] at once when `var` is
    /// replicated here, otherwise an FM toward the predesignated replica
    /// and an occupied fetch slot — the site issues nothing new until
    /// [`SiteDriver::fetch`] reads `None` again.
    pub fn read(&mut self, now: u64, var: VarId, measured: bool, out: &mut Vec<Output>) {
        self.issue(now, var, measured, 0, out);
    }

    fn issue(&mut self, now: u64, var: VarId, measured: bool, attempt: u32, out: &mut Vec<Output>) {
        debug_assert!(self.fetch.is_none(), "read issued while fetch outstanding");
        match self.site.read(var) {
            ReadResult::Local(value) => out.push(Output::ReadDone {
                var,
                value,
                served_by: self.id,
                rtt_ns: None,
                measured,
            }),
            ReadResult::Fetch { target, msg } => {
                self.fetch = Some(Fetch {
                    var,
                    target,
                    measured,
                    attempt,
                    issued_ns: now,
                });
                self.send(target, msg, measured, out);
            }
        }
    }

    /// The outstanding remote fetch, if any.
    pub fn fetch(&self) -> Option<&Fetch> {
        self.fetch.as_ref()
    }

    /// Re-address the outstanding fetch to `to` (a failover, or the same
    /// replica's new incarnation): bump the attempt, restart the RTT clock
    /// and send a fresh FM. Returns the new attempt.
    pub fn retarget_fetch(&mut self, now: u64, to: SiteId, out: &mut Vec<Output>) -> u32 {
        let f = self
            .fetch
            .as_mut()
            .expect("no outstanding fetch to retarget");
        f.target = to;
        f.attempt += 1;
        f.issued_ns = now;
        let (var, measured, attempt) = (f.var, f.measured, f.attempt);
        self.send(to, Msg::Fm(Fm { var }), measured, out);
        attempt
    }

    /// The site came back from a crash with its read still waiting: send
    /// the fetch again. A WAL replay restored the protocol's fetch slot,
    /// so a fresh FM to the recorded target is enough (returns `false`);
    /// a rebuild from nothing cleared it, so the read re-runs through the
    /// protocol like any other — and completes at once if a view change
    /// made the variable local — which the harness journals as a new read
    /// (returns `true`). Either way the attempt is bumped.
    pub fn resume_fetch(&mut self, now: u64, out: &mut Vec<Output>) -> bool {
        let f = self.fetch.expect("no outstanding fetch to resume");
        let rerun = self.site.fetching() != Some(f.var);
        if rerun {
            self.fetch = None;
            self.issue(now, f.var, f.measured, f.attempt + 1, out);
        } else {
            self.retarget_fetch(now, f.target, out);
        }
        rerun
    }

    /// Give up on the outstanding fetch (a degraded read, a departing
    /// site): release the slot here and, unless a crash already cleared
    /// it, in the protocol. A late RM for it is then a stray.
    pub fn abort_fetch(&mut self) -> Option<VarId> {
        let f = self.fetch.take()?;
        if self.site.fetching() == Some(f.var) {
            self.site.abort_fetch(f.var);
        }
        Some(f.var)
    }

    /// The stray-RM rule: an RM is accepted only while a fetch for its
    /// variable is outstanding. A read re-issued across a crash or a
    /// failover can be answered twice, and an aborted read answered late;
    /// the protocols assert a single outstanding fetch, so the harness
    /// drops (and counts) what this rejects instead of delivering it.
    pub fn accepts(&self, msg: &Msg) -> bool {
        match msg {
            Msg::Rm(rm) => self.fetch.is_some_and(|f| f.var == rm.var),
            _ => true,
        }
    }

    /// Unbatch-on-deliver: hand `each` the per-update messages of a batch
    /// frame (original piggybacks, original order, per-update warm-up
    /// attribution); a plain message passes through untouched. The
    /// receiving protocol sees exactly the deliveries it would have seen
    /// without batching.
    pub fn unbatch(msg: Msg, measured: bool, mut each: impl FnMut(Msg, bool)) {
        match msg {
            Msg::Batch(b) => {
                for bs in &b.sms {
                    each(Msg::Sm(bs.sm.clone()), bs.measured);
                }
            }
            m => each(m, measured),
        }
    }

    /// Deliver one unbatched message that [`SiteDriver::accepts`] admitted.
    pub fn on_message(
        &mut self,
        now: u64,
        from: SiteId,
        msg: Msg,
        measured: bool,
        out: &mut Vec<Output>,
    ) -> Delivery {
        debug_assert!(self.accepts(&msg), "stray RM reached the protocol");
        debug_assert!(!matches!(msg, Msg::Batch(_)), "unbatch before delivering");
        if let Msg::Sm(sm) = &msg {
            self.arriving = Some(sm.value.writer);
        }
        let before = self.site.pending_len();
        let mut effects = std::mem::take(&mut self.effects);
        self.site.on_message_into(from, msg, &mut effects);
        self.route_each(now, effects.drain(..), measured, out);
        self.effects = effects;
        if let Some(parked) = self.arriving.take() {
            self.receipt.insert(parked, now);
        }
        let pending = self.site.pending_len();
        Delivery {
            buffered: pending.saturating_sub(before) as u64,
            pending,
        }
    }

    /// Turn protocol effects into outputs, in order. Public for the
    /// recovery and membership paths, whose effects come from
    /// [`ProtocolSite::note_peer_recovery`] and friends rather than from
    /// an operation or a delivery.
    pub fn route(&mut self, now: u64, effects: Vec<Effect>, measured: bool, out: &mut Vec<Output>) {
        self.route_each(now, effects.into_iter(), measured, out);
    }

    fn route_each(
        &mut self,
        now: u64,
        effects: impl Iterator<Item = Effect>,
        measured: bool,
        out: &mut Vec<Output>,
    ) {
        let mut effects = effects.peekable();
        while let Some(e) = effects.next() {
            match e {
                Effect::Send {
                    to,
                    msg: Msg::Sm(sm),
                } => {
                    // One multicast is a run of SMs sharing a piggyback:
                    // size it once, then either park each copy or name
                    // every destination in one send. Destinations only
                    // ascend within a group, so none repeats and the
                    // harness ships in the protocol's order.
                    let bytes =
                        self.size_model.base(MsgKind::Sm) + sm.meta.meta_size(&self.size_model);
                    let mut dsts = DestSet::from_sites([to]);
                    let mut last = to;
                    while let Some(Effect::Send {
                        to,
                        msg: Msg::Sm(next),
                    }) = effects.peek()
                    {
                        if *to <= last || !sm.same_multicast(next) {
                            break;
                        }
                        last = *to;
                        dsts.insert(last);
                        effects.next();
                    }
                    if self.lanes.is_some() {
                        let mut dsts = dsts.iter().peekable();
                        while let Some(to) = dsts.next() {
                            if dsts.peek().is_none() {
                                self.park(to, sm, bytes, measured, out);
                                break;
                            }
                            self.park(to, sm.clone(), bytes, measured, out);
                        }
                    } else {
                        out.push(Output::Send {
                            dsts,
                            msg: Msg::Sm(sm),
                            measured,
                            bytes,
                            saved: 0,
                        });
                    }
                }
                Effect::Send { to, msg } => {
                    // An RM may not overtake updates parked toward its
                    // reader: drain that lane first.
                    if let Some(items) = self.lanes.as_mut().and_then(|l| l.flush_dest(to)) {
                        self.flush_lane(to, items, out);
                    }
                    self.send(to, msg, measured, out);
                }
                Effect::Applied { var, write } => {
                    let mut received = self.receipt.remove(&write);
                    if self.arriving == Some(write) {
                        (self.arriving, received) = (None, Some(now));
                    }
                    out.push(Output::Applied {
                        var,
                        write,
                        dwell_ns: received.map(|t0| now - t0),
                    });
                }
                Effect::FetchDone { var, value } => {
                    let f = self
                        .fetch
                        .take()
                        .expect("FetchDone without an outstanding fetch");
                    debug_assert_eq!(f.var, var, "fetch completion for the wrong variable");
                    out.push(Output::ReadDone {
                        var,
                        value,
                        served_by: f.target,
                        rtt_ns: Some(now - f.issued_ns),
                        measured: f.measured,
                    });
                }
            }
        }
    }

    /// Park one SM in the lane toward `to`, flushing the lane if that
    /// trips its count or byte bound.
    fn park(&mut self, to: SiteId, sm: Sm, bytes: u64, measured: bool, out: &mut Vec<Output>) {
        let lanes = self.lanes.as_mut().expect("park runs with lanes on");
        let pending = PendingSm {
            sm,
            measured,
            full_bytes: bytes,
        };
        match lanes.offer(to, pending, bytes) {
            Offer::First { epoch } => out.push(Output::ArmLaneTimer { to, epoch }),
            Offer::Queued => {}
            Offer::Flush(items) => self.flush_lane(to, items, out),
        }
    }

    /// Queue one message toward one destination.
    fn send(&self, to: SiteId, msg: Msg, measured: bool, out: &mut Vec<Output>) {
        out.push(Output::Send {
            dsts: DestSet::from_sites([to]),
            bytes: msg.meta_size(&self.size_model),
            msg,
            measured,
            saved: 0,
        });
    }

    /// Ship one drained lane. A single parked update goes out as a plain
    /// SM at exactly its unbatched bytes (batching that amortizes nothing
    /// must not cost anything either); two or more become one batch frame
    /// charged the merged-piggyback size.
    fn flush_lane(&self, to: SiteId, items: Vec<PendingSm>, out: &mut Vec<Output>) {
        debug_assert!(!items.is_empty(), "a drained lane is never empty");
        let (msg, bytes, measured, saved) = if items.len() == 1 {
            let p = items.into_iter().next().expect("len checked");
            (Msg::Sm(p.sm), p.full_bytes, p.measured, 0)
        } else {
            let unbatched: u64 = items.iter().map(|p| p.full_bytes).sum();
            let measured = items.iter().any(|p| p.measured);
            let sms = items
                .into_iter()
                .map(|p| BatchedSm {
                    sm: p.sm,
                    measured: p.measured,
                })
                .collect();
            let msg = Msg::Batch(Arc::new(SmBatch { sms }));
            let bytes = msg.meta_size(&self.size_model);
            (msg, bytes, measured, unbatched.saturating_sub(bytes))
        };
        out.push(Output::Send {
            dsts: DestSet::from_sites([to]),
            msg,
            measured,
            bytes,
            saved,
        });
    }

    /// A window timer armed by [`Output::ArmLaneTimer`] fired. A stale
    /// epoch — the lane already left on a count/byte bound, ahead of an
    /// RM, or at a barrier — is a no-op.
    pub fn on_lane_timer(&mut self, to: SiteId, epoch: u64, out: &mut Vec<Output>) {
        if let Some(items) = self.lanes.as_mut().and_then(|l| l.on_timer(to, epoch)) {
            self.flush_lane(to, items, out);
        }
    }

    /// Drain every lane, in ascending destination order (view-change
    /// barrier, end of the operation stream).
    pub fn flush_lanes(&mut self, out: &mut Vec<Output>) {
        for (to, items) in self.lanes.as_mut().map_or_else(Vec::new, |l| l.flush_all()) {
            self.flush_lane(to, items, out);
        }
    }

    /// `true` when no update is parked in any lane.
    pub fn lanes_empty(&self) -> bool {
        self.lanes.as_ref().is_none_or(|l| l.is_empty())
    }

    /// Fail-stop: the protocol discards its volatile state, and parked
    /// (never-transmitted) updates die with it exactly like unsent writes,
    /// which also stales their window timers. The fetch slot survives:
    /// the application's read is still waiting and recovery re-issues it.
    pub fn crash(&mut self) -> OwnLedger {
        if let Some(l) = self.lanes.as_mut() {
            drop(l.flush_all());
        }
        self.site.crash_volatile().0
    }

    /// Forget receipts of writes at or below a stable `frontier` (indexed
    /// by origin): they were dropped as duplicates or fast-forwarded past
    /// rather than applied, and nothing will ask for their dwell.
    pub fn gc_receipts(&mut self, frontier: &[u64]) {
        self.receipt
            .retain(|w, _| w.clock > frontier[w.site.index()]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::msg::Rm;
    use crate::replica::kit::Ring;
    use crate::replication::FullReplication;
    use causal_clocks::PruneConfig;
    use std::collections::VecDeque;

    pub(crate) const ALL: [ProtocolKind; 5] = [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::HbTrack,
        ProtocolKind::OptTrackCrp,
        ProtocolKind::OptP,
    ];

    pub(crate) fn cluster(
        kind: ProtocolKind,
        n: usize,
        lanes: Option<BatchPolicy>,
    ) -> Vec<SiteDriver> {
        let repl: Arc<dyn Replication> = if kind.supports_partial() {
            Arc::new(Ring(n))
        } else {
            Arc::new(FullReplication::new(n))
        };
        // Lanes delay a site's own sends, so runs that compare lanes on
        // against lanes off pin the local mentions in both.
        let cfg = ProtocolConfig {
            prune: PruneConfig {
                pin_self: true,
                ..PruneConfig::default()
            },
        };
        SiteId::all(n)
            .map(|s| SiteDriver::new(kind, s, repl.clone(), cfg, SizeModel::wire(), lanes))
            .collect()
    }

    /// The sends among `out`: destinations, message, measured, bytes, saved.
    fn sends(out: &[Output]) -> Vec<(Vec<SiteId>, &Msg, bool, u64, u64)> {
        let mut sends = Vec::new();
        for o in out {
            if let Output::Send {
                dsts,
                msg,
                measured,
                bytes,
                saved,
            } = o
            {
                sends.push((dsts.iter().collect(), msg, *measured, *bytes, *saved));
            }
        }
        sends
    }

    pub(crate) const LANES: Option<BatchPolicy> = Some(BatchPolicy::by_count(64));

    #[test]
    fn an_rm_drains_the_lane_toward_its_reader_first_and_an_fm_touches_no_lane() {
        let mut sites = cluster(ProtocolKind::OptTrack, 3, LANES);
        let (s0, s1) = (SiteId(0), SiteId(1));
        let mut out = Vec::new();
        // Site 0 writes x0 (replicas {0, 1}): the SM toward 1 parks.
        sites[0].write(0, VarId(0), 7, 0, true, &mut out);
        assert!(sends(&out).is_empty() && !sites[0].lanes_empty());
        out.clear();
        // Site 1 fetches x2 (replicas {2, 0}) from site 0: the RM leaves
        // after the parked update.
        sites[0].on_message(1, s1, Msg::Fm(Fm { var: VarId(2) }), true, &mut out);
        let left = sends(&out);
        assert_eq!(left.len(), 2);
        assert!(matches!(left[0], (ref d, Msg::Sm(_), ..) if *d == [s1]));
        assert!(matches!(left[1], (ref d, Msg::Rm(_), ..) if *d == [s1]));
        assert!(sites[0].lanes_empty());
        out.clear();
        // Parked again toward 1; site 0's fetch of x1 (served by 1) leaves
        // at once and the lane stays.
        sites[0].write(2, VarId(0), 8, 0, true, &mut out);
        out.clear();
        sites[0].read(3, VarId(1), true, &mut out);
        let left = sends(&out);
        assert_eq!(left.len(), 1);
        assert!(matches!(left[0], (ref d, Msg::Fm(_), ..) if *d == [s1]));
        assert!(!sites[0].lanes_empty());
        assert_eq!(
            sites[0].fetch().map(|f| (f.target, f.attempt)),
            Some((s1, 0))
        );
        let _ = s0;
    }

    #[test]
    fn a_one_item_lane_leaves_as_a_plain_sm_and_a_k_item_lane_as_one_batch() {
        let model = SizeModel::wire();
        for k in [1usize, 2, 5] {
            let mut sites = cluster(ProtocolKind::FullTrack, 3, LANES);
            let mut out = Vec::new();
            for i in 0..k {
                sites[0].write(i as u64, VarId(0), i as u64, 0, true, &mut out);
            }
            out.clear();
            sites[0].flush_lanes(&mut out);
            let left = sends(&out);
            assert_eq!(left.len(), 1, "x0 has one remote replica");
            let (_, msg, _, bytes, saved) = left[0];
            assert_eq!(bytes, msg.meta_size(&model));
            let full: u64 = msg
                .sms()
                .map(|sm| Msg::Sm(sm.clone()).meta_size(&model))
                .sum();
            if k == 1 {
                assert!(matches!(msg, Msg::Sm(_)));
                assert_eq!((bytes, saved), (full, 0), "exactly its unbatched bytes");
            } else {
                let Msg::Batch(b) = msg else {
                    panic!("k = {k} must batch")
                };
                assert_eq!(b.len(), k);
                assert_eq!(saved, full - bytes);
            }
        }
    }

    #[test]
    fn measured_is_per_update_inside_a_batch_and_any_on_the_frame() {
        for (bits, frame) in [([false, true, false], true), ([false, false, false], false)] {
            let mut sites = cluster(ProtocolKind::OptP, 2, LANES);
            let mut out = Vec::new();
            for (i, m) in bits.into_iter().enumerate() {
                sites[0].write(i as u64, VarId(0), 0, 0, m, &mut out);
            }
            out.clear();
            sites[0].flush_lanes(&mut out);
            let left = sends(&out);
            let (_, Msg::Batch(b), measured, ..) = left[0] else {
                panic!("three updates batch")
            };
            assert_eq!(measured, frame);
            let inner: Vec<bool> = b.sms.iter().map(|bs| bs.measured).collect();
            assert_eq!(inner, bits);
        }
    }

    #[test]
    fn a_lane_timer_with_a_stale_epoch_is_a_no_op() {
        let mut sites = cluster(ProtocolKind::OptP, 2, Some(BatchPolicy::by_count(2)));
        let mut out = Vec::new();
        sites[0].write(0, VarId(0), 0, 0, true, &mut out);
        let [Output::ArmLaneTimer { to, epoch }, Output::Applied { .. }] = out[..] else {
            panic!("first parked update arms the lane timer: {out:?}")
        };
        out.clear();
        // The count bound flushes the lane and the next write re-opens it.
        sites[0].write(1, VarId(0), 1, 0, true, &mut out);
        assert_eq!(sends(&out).len(), 1);
        sites[0].write(2, VarId(0), 2, 0, true, &mut out);
        out.clear();
        sites[0].on_lane_timer(to, epoch, &mut out);
        assert!(out.is_empty() && !sites[0].lanes_empty());
        sites[0].on_lane_timer(to, epoch + 1, &mut out);
        assert_eq!(sends(&out).len(), 1);
    }

    #[test]
    fn grouping_keeps_writes_apart_destinations_distinct_and_bytes_per_copy() {
        let model = SizeModel::wire();
        for kind in ALL {
            let n = 5;
            let mut grouped = cluster(kind, n, None);
            let mut plain = cluster(kind, n, None);
            let mut out = Vec::new();
            for i in 0..3u64 {
                let var = VarId(i as u32);
                let (wid, dests) = grouped[1].write(i, var, i, 0, true, &mut out);
                let (pid, effects) = plain[1].site_mut().write(var, i, 0);
                assert_eq!(wid, pid);
                let copies: Vec<(SiteId, u64)> = effects
                    .iter()
                    .filter_map(|e| match e {
                        Effect::Send { to, msg } => Some((*to, msg.meta_size(&model))),
                        _ => None,
                    })
                    .collect();
                let left = sends(&out);
                assert_eq!(left.len(), 1, "{kind}: one send per write");
                let (dsts, msg, _, bytes, _) = &left[0];
                assert!(msg.sms().all(|sm| sm.value.writer == wid));
                let ungrouped: Vec<(SiteId, u64)> = dsts.iter().map(|d| (*d, *bytes)).collect();
                assert_eq!(ungrouped, copies, "{kind}");
                let remote = dests.iter().filter(|d| *d != SiteId(1));
                assert_eq!(remote.collect::<Vec<_>>(), *dsts);
                out.clear();
            }
        }
    }

    #[test]
    fn retarget_bumps_the_attempt_abort_frees_the_slot_and_a_late_rm_is_a_stray() {
        let mut sites = cluster(ProtocolKind::FullTrack, 3, None);
        let mut out = Vec::new();
        sites[0].read(10, VarId(1), true, &mut out);
        assert_eq!(sites[0].retarget_fetch(20, SiteId(2), &mut out), 1);
        let f = *sites[0].fetch().expect("still outstanding");
        assert_eq!((f.var, f.target, f.attempt), (VarId(1), SiteId(2), 1));
        let fms = sends(&out);
        assert!(matches!(fms[1], (ref d, Msg::Fm(_), true, ..) if *d == [SiteId(2)]));
        out.clear();
        // Both replicas answer; the first completes the read with the RTT
        // of the last attempt, the second is a stray.
        for from in [SiteId(1), SiteId(2)] {
            sites[from.index()].on_message(
                25,
                SiteId(0),
                Msg::Fm(Fm { var: VarId(1) }),
                true,
                &mut out,
            );
        }
        let rms: Vec<Msg> = sends(&out).iter().map(|s| s.1.clone()).collect();
        out.clear();
        assert!(sites[0].accepts(&rms[0]));
        sites[0].on_message(50, SiteId(1), rms[0].clone(), true, &mut out);
        assert!(matches!(
            out[..],
            [Output::ReadDone {
                rtt_ns: Some(30),
                served_by: SiteId(2),
                ..
            }]
        ));
        assert!(sites[0].fetch().is_none() && !sites[0].accepts(&rms[1]));
        // An aborted read frees the slot; its late answer is a stray too.
        out.clear();
        sites[0].read(60, VarId(1), true, &mut out);
        assert_eq!(sites[0].abort_fetch(), Some(VarId(1)));
        assert!(sites[0].fetch().is_none() && !sites[0].accepts(&rms[0]));
        let other = Msg::Rm(Rm {
            var: VarId(4),
            ..match &rms[0] {
                Msg::Rm(rm) => rm.clone(),
                _ => unreachable!(),
            }
        });
        sites[0].read(70, VarId(1), true, &mut out);
        assert!(!sites[0].accepts(&other), "wrong variable");
    }

    #[test]
    fn a_crash_keeps_the_read_waiting_and_resume_knows_which_slot_survived() {
        let mut sites = cluster(ProtocolKind::OptTrack, 3, None);
        let mut out = Vec::new();
        sites[0].read(10, VarId(1), true, &mut out);
        // The protocol still holds its slot (a WAL replay restored it): a
        // fresh FM to the same replica is enough.
        assert!(!sites[0].resume_fetch(20, &mut out));
        assert_eq!(sites[0].fetch().map(|f| f.attempt), Some(1));
        // A crash clears the protocol's slot but the application is still
        // waiting: the read re-runs through the protocol.
        sites[0].crash();
        assert_eq!(sites[0].site().fetching(), None);
        assert!(sites[0].resume_fetch(30, &mut out));
        let f = *sites[0].fetch().expect("still outstanding");
        assert_eq!((f.var, f.target, f.attempt), (VarId(1), SiteId(1), 2));
        assert_eq!(sites[0].site().fetching(), Some(VarId(1)));
        let fms = sends(&out);
        assert_eq!(fms.len(), 3);
        assert!(fms
            .iter()
            .all(|s| matches!(s, (d, Msg::Fm(_), true, ..) if *d == [SiteId(1)])));
        // A site that crashed and never comes back gives its read up
        // without asking the protocol about a fetch it forgot.
        sites[0].crash();
        assert_eq!(sites[0].abort_fetch(), Some(VarId(1)));
        assert!(sites[0].fetch().is_none());
    }

    /// What a zero-latency FIFO run hands each receiver, and the order
    /// each site applied updates in.
    type Execution = (Vec<Vec<(SiteId, Msg)>>, Vec<Vec<WriteId>>);

    /// Drive a fixed script of write bursts and reads through `n` drivers.
    /// A burst's frames leave when it ends (lanes drained), then the
    /// network runs to silence before the next step.
    fn execute(kind: ProtocolKind, lanes: Option<BatchPolicy>) -> Execution {
        let n = 4;
        let mut sites = cluster(kind, n, lanes);
        let mut received = vec![Vec::new(); n];
        let mut applied = vec![Vec::new(); n];
        let mut net: VecDeque<(SiteId, SiteId, Msg, bool)> = VecDeque::new();
        let mut out = Vec::new();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let drain = |from: SiteId,
                     out: &mut Vec<Output>,
                     net: &mut VecDeque<_>,
                     applied: &mut Vec<Vec<WriteId>>| {
            for o in out.drain(..) {
                match o {
                    Output::Send {
                        dsts,
                        msg,
                        measured,
                        ..
                    } => net.extend(dsts.iter().map(|to| (from, to, msg.clone(), measured))),
                    Output::Applied { write, .. } => applied[from.index()].push(write),
                    Output::ArmLaneTimer { .. } | Output::ReadDone { .. } => {}
                }
            }
        };
        for step in 0..120u64 {
            let s = SiteId::from(next(n as u64) as usize);
            if next(4) == 0 {
                sites[s.index()].read(step, VarId(next(8) as u32), true, &mut out);
            } else {
                for _ in 0..1 + next(4) {
                    let var = VarId(next(8) as u32);
                    sites[s.index()].write(step, var, step, 0, true, &mut out);
                }
                sites[s.index()].flush_lanes(&mut out);
            }
            drain(s, &mut out, &mut net, &mut applied);
            while let Some((from, to, msg, measured)) = net.pop_front() {
                SiteDriver::unbatch(msg, measured, |msg, measured| {
                    received[to.index()].push((from, msg.clone()));
                    sites[to.index()].on_message(step, from, msg, measured, &mut out);
                    drain(to, &mut out, &mut net, &mut applied);
                });
            }
            assert!(sites.iter().all(|d| d.fetch().is_none() && d.lanes_empty()));
        }
        assert!(sites.iter().all(|d| d.site().pending_len() == 0));
        (received, applied)
    }

    #[test]
    fn batching_changes_frames_not_what_receivers_see_or_the_apply_order() {
        for kind in ALL {
            let off = execute(kind, None);
            let on = execute(kind, Some(BatchPolicy::by_count(3)));
            assert!(
                off.1.iter().all(|a| !a.is_empty()),
                "{kind}: script applies"
            );
            assert_eq!(off.0, on.0, "{kind}: per-receiver on_message sequences");
            assert_eq!(off.1, on.1, "{kind}: apply order");
        }
    }
}
