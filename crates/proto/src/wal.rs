//! Simulated-durable write-ahead log and checkpointing.
//!
//! PR 1's crash model keeps exactly one thing durable: the [`OwnLedger`] —
//! enough to never reuse a `WriteId`, but recovery must rebuild *everything
//! else* from live peers. That makes two overlapping crashes (or a crash
//! inside a partition) unrecoverable: nobody alive holds the lost state.
//!
//! This module upgrades the durability model to what production causal
//! stores actually do (cf. Xiang & Vaidya's partially replicated causal
//! memory, where recovery/stabilization is first-class): each site owns a
//! [`DurableStore`] — a write-ahead log of every externally caused protocol
//! transition plus periodic **checkpoints** of the whole protocol state
//! machine (Full-Track's `n×n` matrix, Opt-Track's KS log, Opt-Track-CRP's
//! 2-tuple log, optP's vector clock, replica values, parked updates).
//!
//! Because every bundled [`ProtocolSite`] is a *pure deterministic* function
//! of its entry-point call sequence, the log needs no protocol-specific
//! record format: it records the entry-point calls themselves
//! ([`WalRecord`]), and [`DurableStore::replay`] re-drives them against the
//! checkpoint image (or a fresh site), discarding the produced effects —
//! they already happened. Recovery then becomes **local-first**: replay to
//! the last durable point, ask peers only for a *delta* (values newer than
//! the replayed per-origin high-water marks, `Frame::SyncReq { applied }`),
//! and fall back to PR 1's full rebuild only when the medium itself was
//! lost ([`DurableStore::wipe`]).
//!
//! ## Redelivery and the `seen` high-water marks
//!
//! The reliable transport retransmits every unacked frame to a recovered
//! site — correct under PR 1, where the crash erased the receipts, but a
//! WAL-replayed site has *already counted* those deliveries. The store
//! therefore keeps per-origin high-water marks of received update clocks
//! (`seen`), which survive checkpoints (an SM received before a checkpoint
//! can stay unacked at its sender indefinitely — ack frames are droppable),
//! and the driver filters redelivered SMs with [`DurableStore::already_seen`]
//! before handing them to the replayed state machine. Per-channel write
//! clocks are strictly monotone, so a single scalar per origin suffices.

use crate::effect::Effect;
use crate::msg::Msg;
use crate::reliable::OwnLedger;
use crate::site::ProtocolSite;
use causal_types::{MetaSized, SiteId, SizeModel, VarId, WriteId};

/// One entry of the write-ahead log: an externally caused protocol
/// transition, recorded as the entry-point call that produced it.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// The site performed a local write `w(var)data` (the clock increment
    /// and destination stamping are deterministic consequences).
    OwnWrite {
        /// The written variable.
        var: VarId,
        /// The synthetic application value.
        data: u64,
        /// Modeled application-payload length.
        payload_len: u32,
    },
    /// A transport delivery: `on_message(from, msg)`.
    Recv {
        /// The sending site.
        from: SiteId,
        /// The delivered message (SM / FM / RM).
        msg: Msg,
    },
    /// A local read of a locally replicated variable — mutates state via
    /// the protocol's read-merge of `LastWriteOn⟨var⟩` (the `→co` edge).
    LocalRead {
        /// The read variable.
        var: VarId,
    },
    /// A remote read was issued (the fetch slot was taken); the matching
    /// [`WalRecord::Recv`] of the RM releases it during replay.
    FetchIssued {
        /// The fetched variable.
        var: VarId,
    },
    /// The outstanding remote read was abandoned past its failover budget
    /// (degraded read): `abort_fetch` released the fetch slot. Without this
    /// record a replay would resurrect a phantom outstanding fetch.
    FetchAborted {
        /// The abandoned variable.
        var: VarId,
    },
    /// A crashed peer announced recovery: `note_peer_recovery(peer,
    /// ledger)` fast-forwarded this site's bookkeeping past the peer's
    /// permanently lost writes.
    PeerRecovered {
        /// The recovered peer.
        peer: SiteId,
        /// The peer's announced durable ledger.
        ledger: OwnLedger,
    },
    /// A peer left the membership view for good:
    /// `note_peer_departed(peer, ledger)` fast-forwarded this site past the
    /// departed peer's undelivered traffic and dropped metadata that only
    /// mattered while the peer could still return.
    PeerDeparted {
        /// The departed peer.
        peer: SiteId,
        /// The peer's final durable ledger.
        ledger: OwnLedger,
    },
}

impl MetaSized for WalRecord {
    /// Modeled on-disk size of this record: identifiers as scalars, plus the
    /// full metadata footprint of any embedded message.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            WalRecord::OwnWrite { .. } => model.scalars(3),
            WalRecord::Recv { msg, .. } => model.scalars(1) + msg.meta_size(model),
            WalRecord::LocalRead { .. }
            | WalRecord::FetchIssued { .. }
            | WalRecord::FetchAborted { .. } => model.scalars(1),
            WalRecord::PeerRecovered { ledger, .. } | WalRecord::PeerDeparted { ledger, .. } => {
                model.scalars(3 + ledger.own_row.len())
            }
        }
    }
}

/// Modeled segment-rotation threshold: the active segment seals once it
/// crosses this many modeled bytes. Small enough that a busy inter-checkpoint
/// window spans several segments (so sealing/deletion accounting is
/// exercised), large enough that sealing stays off the per-append hot path.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 * 1024;

/// One contiguous run of WAL records. Each record is stored with its modeled
/// size so torn-tail truncation and deletion accounting stay exact without a
/// re-walk under a [`SizeModel`].
#[derive(Default)]
struct Segment {
    records: Vec<(WalRecord, u64)>,
    bytes: u64,
}

impl Segment {
    fn len(&self) -> usize {
        self.records.len()
    }

    fn push(&mut self, rec: WalRecord, bytes: u64) {
        self.bytes += bytes;
        self.records.push((rec, bytes));
    }

    fn pop(&mut self) -> Option<(WalRecord, u64)> {
        let e = self.records.pop();
        if let Some((_, b)) = &e {
            self.bytes -= b;
        }
        e
    }
}

/// One site's simulated-durable storage: checkpoint image, segmented
/// write-ahead log, and redelivery high-water marks. It survives
/// [`crate::ProtocolSite::crash_volatile`] and is destroyed only by media
/// loss ([`DurableStore::wipe`]).
///
/// The journal rotates: records append into an active segment that seals at
/// a size threshold, and a checkpoint *deletes* every segment it covers
/// (they re-derive from the image) instead of letting the journal file grow
/// forever between checkpoints. [`DurableStore::retained_bytes`] is the
/// modeled durable footprint the deletion keeps bounded.
pub struct DurableStore {
    /// Deep-cloned protocol state as of the last checkpoint (`None` before
    /// the first checkpoint: replay starts from a fresh site).
    checkpoint: Option<Box<dyn ProtocolSite>>,
    /// Sealed segments since the last checkpoint, oldest first.
    sealed: Vec<Segment>,
    /// The open segment receiving appends.
    active: Segment,
    /// Seal threshold in modeled bytes.
    segment_limit: u64,
    /// Per-origin high-water mark of received update clocks; survives
    /// checkpoints (see module docs).
    seen: Vec<u64>,
    /// `seen` as of the last checkpoint — the rollback floor for torn-tail
    /// truncation ([`DurableStore::tear_tail`]): marks justified by records
    /// at or before the checkpoint can never be torn off.
    seen_at_ckpt: Vec<u64>,
    /// Media loss: the store's contents are gone and recovery must fall
    /// back to the full peer rebuild. Cleared by the next checkpoint.
    lost: bool,
    /// Number of records ever appended.
    pub appends: u64,
    /// Modeled bytes ever appended.
    pub append_bytes: u64,
    /// Number of checkpoints taken.
    pub checkpoints: u64,
    /// Modeled bytes of checkpoint images written.
    pub checkpoint_bytes: u64,
    /// Number of records dropped by fail-soft torn-tail truncation.
    pub truncated: u64,
    /// Number of segments sealed (cumulative; unsealing by torn-tail
    /// truncation does not subtract).
    pub segments_sealed: u64,
    /// Modeled bytes of fully-checkpointed segments deleted.
    pub deleted_bytes: u64,
    /// Modeled size of the current checkpoint image (part of the retained
    /// durable footprint).
    image_bytes: u64,
}

impl DurableStore {
    /// An empty store for one site of an `n`-site system.
    pub fn new(n: usize) -> Self {
        DurableStore {
            checkpoint: None,
            sealed: Vec::new(),
            active: Segment::default(),
            segment_limit: DEFAULT_SEGMENT_BYTES,
            seen: vec![0; n],
            seen_at_ckpt: vec![0; n],
            lost: false,
            appends: 0,
            append_bytes: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            truncated: 0,
            segments_sealed: 0,
            deleted_bytes: 0,
            image_bytes: 0,
        }
    }

    /// Override the segment-rotation threshold (modeled bytes).
    pub fn set_segment_limit(&mut self, bytes: u64) {
        self.segment_limit = bytes.max(1);
    }

    /// Append one record (fsync'd before the transition is externally
    /// visible, in the durability fiction of the model). Returns the
    /// record's modeled size in bytes.
    pub fn append(&mut self, rec: WalRecord, model: &SizeModel) -> u64 {
        if let WalRecord::Recv {
            msg: Msg::Sm(sm), ..
        } = &rec
        {
            let w = sm.value.writer;
            let hw = &mut self.seen[w.site.index()];
            *hw = (*hw).max(w.clock);
        }
        let bytes = rec.meta_size(model);
        self.appends += 1;
        self.append_bytes += bytes;
        self.active.push(rec, bytes);
        if self.active.bytes >= self.segment_limit {
            self.sealed.push(std::mem::take(&mut self.active));
            self.segments_sealed += 1;
        }
        bytes
    }

    /// `true` when `msg` is an update this store already durably received —
    /// a transport redelivery the replayed state must not see twice.
    pub fn already_seen(&self, msg: &Msg) -> bool {
        match msg {
            Msg::Sm(sm) => sm.value.writer.clock <= self.seen[sm.value.writer.site.index()],
            _ => false,
        }
    }

    /// Snapshot `site` as the new checkpoint image and **delete** every
    /// journal segment — the image now covers them all, so keeping them
    /// would be the unbounded-growth bug this rotation exists to fix.
    /// `seen` is *not* reset (see module docs). Re-establishes durability
    /// after media loss. Returns the image's modeled size in bytes.
    pub fn take_checkpoint(&mut self, site: &dyn ProtocolSite, model: &SizeModel) -> u64 {
        self.checkpoint = Some(site.clone_box());
        self.deleted_bytes += self.retained_log_bytes();
        self.sealed.clear();
        self.active = Segment::default();
        self.seen_at_ckpt.copy_from_slice(&self.seen);
        self.lost = false;
        let bytes = site.local_meta_size(model);
        self.checkpoints += 1;
        self.checkpoint_bytes += bytes;
        self.image_bytes = bytes;
        bytes
    }

    /// Periodic-checkpoint variant of [`DurableStore::take_checkpoint`]:
    /// skips the deep `clone_box` when the log is empty and a checkpoint
    /// image already exists, because replay from that image would rebuild
    /// the exact same state. Returns the image's modeled size when a
    /// checkpoint was taken, `None` when skipped.
    ///
    /// Not safe after recovery: `install_sync` is applied directly to the
    /// live site and never journaled, so the post-recovery checkpoint must
    /// use the unconditional [`DurableStore::take_checkpoint`].
    pub fn take_checkpoint_if_dirty(
        &mut self,
        site: &dyn ProtocolSite,
        model: &SizeModel,
    ) -> Option<u64> {
        if self.log_len() == 0 && self.checkpoint.is_some() && !self.lost {
            return None;
        }
        Some(self.take_checkpoint(site, model))
    }

    /// Media loss: discard checkpoint, log and high-water marks. Recovery
    /// from this store must use the full peer rebuild. The vanished bytes
    /// are *not* counted as deleted — they were lost, not reclaimed.
    pub fn wipe(&mut self) {
        self.checkpoint = None;
        self.sealed.clear();
        self.active = Segment::default();
        self.image_bytes = 0;
        self.seen.iter_mut().for_each(|s| *s = 0);
        self.seen_at_ckpt.iter_mut().for_each(|s| *s = 0);
        self.lost = true;
    }

    /// Fail-soft load of a corrupt log tail: the last `k` records failed
    /// their checksum (a crash mid-append tore them) and are dropped rather
    /// than failing the whole load. The redelivery high-water marks are
    /// rolled back to what the surviving prefix justifies — a mark covering
    /// a torn-off receipt would make [`DurableStore::already_seen`] filter
    /// the transport's redelivery of an update the replayed state never
    /// applied, silently losing it. Returns the number of records dropped.
    ///
    /// The caller must reconcile the replayed site with the durable
    /// [`OwnLedger`] afterwards ([`ProtocolSite::restore_own_ledger`]): a
    /// torn [`WalRecord::OwnWrite`] must not let the replayed state mint an
    /// already-used `WriteId`.
    pub fn tear_tail(&mut self, k: usize) -> usize {
        let mut dropped = 0;
        while dropped < k {
            if self.active.pop().is_some() {
                dropped += 1;
                continue;
            }
            // The tear reaches back into sealed territory: the newest
            // sealed segment becomes the (torn) active one.
            match self.sealed.pop() {
                Some(seg) => self.active = seg,
                None => break,
            }
        }
        self.truncated += dropped as u64;
        let mut seen = self.seen_at_ckpt.clone();
        for (rec, _) in self.records() {
            if let WalRecord::Recv {
                msg: Msg::Sm(sm), ..
            } = rec
            {
                let w = sm.value.writer;
                let hw = &mut seen[w.site.index()];
                *hw = (*hw).max(w.clock);
            }
        }
        self.seen = seen;
        dropped
    }

    /// All journal records in append order (sealed segments, then active).
    fn records(&self) -> impl Iterator<Item = &(WalRecord, u64)> {
        self.sealed
            .iter()
            .flat_map(|s| s.records.iter())
            .chain(self.active.records.iter())
    }

    /// `true` after [`DurableStore::wipe`], until the next checkpoint.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Number of records currently in the log (since the last checkpoint).
    pub fn log_len(&self) -> usize {
        self.sealed.iter().map(Segment::len).sum::<usize>() + self.active.len()
    }

    /// Number of sealed segments currently retained (not yet deleted by a
    /// checkpoint).
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Modeled bytes of journal records currently retained.
    pub fn retained_log_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.bytes
    }

    /// Modeled durable footprint: retained journal bytes plus the current
    /// checkpoint image. This — not [`DurableStore::append_bytes`], which
    /// only ever grows — is what stable-frontier checkpointing keeps
    /// bounded.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_log_bytes() + self.image_bytes
    }

    /// Whether a checkpoint image exists.
    pub fn has_checkpoint(&self) -> bool {
        self.checkpoint.is_some()
    }

    /// The per-origin applied-write high-water vector for a delta
    /// [`crate::reliable::Frame::SyncReq`]: `seen` with the site's own entry
    /// raised to its durable write counter (own writes are always in the
    /// replayed state).
    pub fn applied_high_water(&self, own: SiteId, own_clock: u64) -> Vec<u64> {
        let mut v = self.seen.clone();
        v[own.index()] = v[own.index()].max(own_clock);
        v
    }

    /// Rebuild the protocol state machine from the checkpoint image plus the
    /// log: clone the checkpoint (or build a fresh site with `fresh`) and
    /// re-drive every logged entry-point call. The effects already happened
    /// before the crash and are discarded — except the [`Effect::Applied`]
    /// witnesses, which are returned so the caller can reconcile bookkeeping
    /// keyed on applied writes (the stability driver's outstanding sets)
    /// against *exactly* what the rebuilt state has applied, rather than
    /// guessing from watermarks (which over-count updates the replay merely
    /// re-parked). Returns `None` when the medium was lost and the caller
    /// must fall back to the full peer rebuild.
    ///
    /// Replay is a pure function of the store (idempotent): replaying twice
    /// yields identical state machines and identical applied sets.
    pub fn replay<F>(&self, fresh: F) -> Option<(Box<dyn ProtocolSite>, Vec<WriteId>)>
    where
        F: FnOnce() -> Box<dyn ProtocolSite>,
    {
        if self.lost {
            return None;
        }
        let mut site = match &self.checkpoint {
            Some(cp) => cp.clone_box(),
            None => fresh(),
        };
        let mut applied = Vec::new();
        let mut note = |effects: Vec<Effect>| {
            for e in effects {
                if let Effect::Applied { write, .. } = e {
                    applied.push(write);
                }
            }
        };
        for (rec, _) in self.records() {
            match rec {
                WalRecord::OwnWrite {
                    var,
                    data,
                    payload_len,
                } => {
                    let (_, effects) = site.write(*var, *data, *payload_len);
                    note(effects);
                }
                WalRecord::Recv { from, msg } => {
                    note(site.on_message(*from, msg.clone()));
                }
                WalRecord::LocalRead { var } | WalRecord::FetchIssued { var } => {
                    let _ = site.read(*var);
                }
                WalRecord::FetchAborted { var } => site.abort_fetch(*var),
                WalRecord::PeerRecovered { peer, ledger } => {
                    let (effects, _) = site.note_peer_recovery(*peer, ledger);
                    note(effects);
                }
                WalRecord::PeerDeparted { peer, ledger } => {
                    let (effects, _) = site.note_peer_departed(*peer, ledger);
                    note(effects);
                }
            }
        }
        Some((site, applied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::{Effect, ReadResult};
    use crate::factory::{build_site, ProtocolConfig, ProtocolKind};
    use crate::msg::{Fm, Sm, SmMeta};
    use crate::replica::kit::Ring;
    use crate::replication::{FullReplication, Replication};
    use causal_clocks::VectorClock;
    use causal_types::{VersionedValue, WriteId};
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    const Q: usize = 8;

    fn repl_for(kind: ProtocolKind, n: usize) -> Arc<dyn Replication> {
        if kind.supports_partial() {
            Arc::new(Ring(n))
        } else {
            Arc::new(FullReplication::new(n))
        }
    }

    /// Synchronous mini-cluster: effects are delivered immediately in FIFO
    /// order while site 0's entry points are journaled into a
    /// [`DurableStore`], exactly as the simulator does.
    struct Mini {
        sites: Vec<Box<dyn ProtocolSite>>,
        store: DurableStore,
        model: SizeModel,
    }

    impl Mini {
        fn new(kind: ProtocolKind, n: usize) -> Mini {
            let repl = repl_for(kind, n);
            Mini {
                sites: (0..n)
                    .map(|i| {
                        build_site(
                            kind,
                            SiteId::from(i),
                            repl.clone(),
                            ProtocolConfig::default(),
                        )
                    })
                    .collect(),
                store: DurableStore::new(n),
                model: SizeModel::java_like(),
            }
        }

        fn deliver(&mut self, from: SiteId, effects: Vec<Effect>) {
            let mut queue: VecDeque<(SiteId, SiteId, Msg)> = effects
                .into_iter()
                .filter_map(|e| match e {
                    Effect::Send { to, msg } => Some((from, to, msg)),
                    _ => None,
                })
                .collect();
            while let Some((src, dst, msg)) = queue.pop_front() {
                if dst.index() == 0 {
                    self.store.append(
                        WalRecord::Recv {
                            from: src,
                            msg: msg.clone(),
                        },
                        &self.model,
                    );
                }
                let out = self.sites[dst.index()].on_message(src, msg);
                for e in out {
                    if let Effect::Send { to, msg } = e {
                        queue.push_back((dst, to, msg));
                    }
                }
            }
        }

        fn write(&mut self, s: usize, var: VarId, data: u64) {
            if s == 0 {
                self.store.append(
                    WalRecord::OwnWrite {
                        var,
                        data,
                        payload_len: 0,
                    },
                    &self.model,
                );
            }
            let (_, effects) = self.sites[s].write(var, data, 0);
            self.deliver(SiteId::from(s), effects);
        }

        fn read(&mut self, s: usize, var: VarId) {
            match self.sites[s].read(var) {
                ReadResult::Local(_) => {
                    if s == 0 {
                        self.store.append(WalRecord::LocalRead { var }, &self.model);
                    }
                }
                ReadResult::Fetch { target, msg } => {
                    if s == 0 {
                        self.store
                            .append(WalRecord::FetchIssued { var }, &self.model);
                    }
                    // Synchronous delivery: the RM comes straight back and
                    // releases the fetch slot before the next op.
                    self.deliver(SiteId::from(s), vec![Effect::Send { to: target, msg }]);
                }
            }
        }
    }

    fn assert_same_state(a: &dyn ProtocolSite, b: &dyn ProtocolSite, n: usize) {
        let model = SizeModel::java_like();
        for r in (1..n).map(SiteId::from) {
            assert_eq!(a.export_sync(r), b.export_sync(r), "sync export to {r}");
        }
        for var in VarId::all(Q) {
            assert_eq!(a.value_of(var), b.value_of(var), "replica of {var}");
        }
        assert_eq!(a.pending_len(), b.pending_len(), "parked updates");
        assert_eq!(a.log_len(), b.log_len(), "causality log length");
        assert_eq!(
            a.local_meta_size(&model),
            b.local_meta_size(&model),
            "metadata footprint"
        );
    }

    const KINDS: [ProtocolKind; 5] = [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::OptTrackCrp,
        ProtocolKind::OptP,
        ProtocolKind::HbTrack,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Tentpole property: for every protocol, checkpoint + WAL replay
        /// reproduces the *exact* pre-crash state, and replay is idempotent.
        #[test]
        fn checkpoint_plus_replay_reproduces_the_live_state(
            n in 3usize..6,
            ckpt_every in 1usize..16,
            ops in proptest::collection::vec(
                (0usize..64, 0usize..100, 0usize..Q, any::<u64>()),
                20..90,
            ),
        ) {
            for kind in KINDS {
                let mut mini = Mini::new(kind, n);
                let mut since_ckpt = 0usize;
                for &(site_pick, op_pick, var_pick, data) in &ops {
                    let s = site_pick % n;
                    let var = VarId::from(var_pick);
                    if op_pick < 55 {
                        mini.write(s, var, data);
                    } else {
                        mini.read(s, var);
                    }
                    if s == 0 {
                        since_ckpt += 1;
                        if since_ckpt >= ckpt_every {
                            since_ckpt = 0;
                            let (site0, store) = (&mini.sites[0], &mut mini.store);
                            store.take_checkpoint(site0.as_ref(), &mini.model);
                        }
                    }
                }
                let repl = repl_for(kind, n);
                let fresh = || build_site(kind, SiteId(0), repl.clone(), ProtocolConfig::default());
                let (replayed, applied) = mini.store.replay(fresh).expect("medium not lost");
                assert_same_state(replayed.as_ref(), mini.sites[0].as_ref(), n);
                let (again, applied_again) = mini.store.replay(fresh).expect("medium not lost");
                assert_same_state(replayed.as_ref(), again.as_ref(), n);
                assert_eq!(applied, applied_again, "replay's applied set is deterministic");
            }
        }
    }

    #[test]
    fn replay_without_any_checkpoint_starts_fresh() {
        let n = 3;
        let mut mini = Mini::new(ProtocolKind::OptP, n);
        for i in 0..10u64 {
            mini.write(0, VarId::from((i % Q as u64) as usize), i);
            mini.write(1, VarId::from(((i + 1) % Q as u64) as usize), i);
        }
        assert!(!mini.store.has_checkpoint());
        let repl = repl_for(ProtocolKind::OptP, n);
        let (replayed, applied) = mini
            .store
            .replay(|| {
                build_site(
                    ProtocolKind::OptP,
                    SiteId(0),
                    repl,
                    ProtocolConfig::default(),
                )
            })
            .unwrap();
        assert_same_state(replayed.as_ref(), mini.sites[0].as_ref(), n);
        assert!(
            applied.iter().any(|w| w.site == SiteId(0)),
            "own writes re-apply during replay"
        );
    }

    #[test]
    fn wiped_media_forces_the_full_rebuild_path() {
        let mut store = DurableStore::new(3);
        let model = SizeModel::java_like();
        store.append(WalRecord::LocalRead { var: VarId(0) }, &model);
        store.wipe();
        assert!(store.is_lost());
        assert_eq!(store.log_len(), 0);
        let repl: Arc<dyn Replication> = Arc::new(FullReplication::new(3));
        assert!(store
            .replay(|| build_site(
                ProtocolKind::OptP,
                SiteId(0),
                repl,
                ProtocolConfig::default()
            ))
            .is_none());
    }

    #[test]
    fn seen_high_water_marks_filter_redeliveries_and_survive_checkpoints() {
        let n = 3;
        let model = SizeModel::java_like();
        let mut store = DurableStore::new(n);
        let sm = |clock: u64| {
            Msg::Sm(Sm {
                var: VarId(0),
                value: VersionedValue::new(WriteId::new(SiteId(1), clock), 0),
                meta: SmMeta::OptP {
                    write: Arc::new(VectorClock::new(n)),
                },
            })
        };
        store.append(
            WalRecord::Recv {
                from: SiteId(1),
                msg: sm(2),
            },
            &model,
        );
        assert!(store.already_seen(&sm(1)));
        assert!(store.already_seen(&sm(2)));
        assert!(!store.already_seen(&sm(3)));
        assert!(!store.already_seen(&Msg::Fm(Fm { var: VarId(0) })));
        // A checkpoint truncates the log but keeps the marks: the sender may
        // still redeliver an SM acked never.
        let repl: Arc<dyn Replication> = Arc::new(FullReplication::new(n));
        let site = build_site(
            ProtocolKind::OptP,
            SiteId(0),
            repl,
            ProtocolConfig::default(),
        );
        store.take_checkpoint(site.as_ref(), &model);
        assert_eq!(store.log_len(), 0);
        assert!(store.already_seen(&sm(2)));
        assert_eq!(store.applied_high_water(SiteId(0), 5), vec![5, 2, 0]);
    }

    #[test]
    fn torn_tail_truncation_rolls_back_marks_and_never_reuses_write_ids() {
        let n = 3;
        let mut mini = Mini::new(ProtocolKind::OptP, n);
        // Interleave own writes and receipts so the tail holds one of each:
        //   rec 1: OwnWrite(v0)   rec 2: Recv(SM s1@1)
        //   rec 3: OwnWrite(v1)   rec 4: Recv(SM s1@2)   <- torn
        mini.write(0, VarId(0), 10);
        mini.write(1, VarId(0), 11);
        mini.write(0, VarId(1), 12);
        mini.write(1, VarId(1), 13);
        let ledger = mini.sites[0].own_ledger();
        assert_eq!(ledger.own_clock, 2);

        let sm_from_1 = |clock: u64| {
            Msg::Sm(Sm {
                var: VarId(1),
                value: VersionedValue::new(WriteId::new(SiteId(1), clock), 13),
                meta: SmMeta::OptP {
                    write: Arc::new(VectorClock::new(n)),
                },
            })
        };
        assert!(mini.store.already_seen(&sm_from_1(2)));

        // The crash tore the last two records off the log tail.
        assert_eq!(mini.store.tear_tail(2), 2);
        assert_eq!(mini.store.truncated, 2);
        assert_eq!(mini.store.log_len(), 2);
        // The mark covering the torn receipt must roll back, or the
        // transport's redelivery of s1@2 would be filtered and lost.
        assert!(mini.store.already_seen(&sm_from_1(1)));
        assert!(!mini.store.already_seen(&sm_from_1(2)));

        // Replay the surviving prefix; the torn own write is gone, so the
        // durable ledger must be reimposed or WriteId (s0, 2) is minted
        // twice.
        let repl = repl_for(ProtocolKind::OptP, n);
        let (mut replayed, _) = mini
            .store
            .replay(|| {
                build_site(
                    ProtocolKind::OptP,
                    SiteId(0),
                    repl.clone(),
                    ProtocolConfig::default(),
                )
            })
            .expect("medium not lost");
        replayed.restore_own_ledger(&ledger);
        let (wid, _) = replayed.write(VarId(2), 14, 0);
        assert_eq!(
            wid,
            WriteId::new(SiteId(0), 3),
            "post-truncation write must advance past the durable counter"
        );

        // Tearing more than the log holds drops everything that is there;
        // marks floor at the checkpoint snapshot.
        let (site0, store) = (&mini.sites[0], &mut mini.store);
        store.take_checkpoint(site0.as_ref(), &mini.model);
        mini.store.append(
            WalRecord::Recv {
                from: SiteId(1),
                msg: sm_from_1(2),
            },
            &mini.model,
        );
        assert_eq!(mini.store.tear_tail(10), 1);
        assert_eq!(mini.store.log_len(), 0);
        assert!(
            mini.store.already_seen(&sm_from_1(1)),
            "checkpoint-covered marks survive any truncation"
        );
    }

    #[test]
    fn wal_records_have_monotone_nonzero_sizes() {
        let model = SizeModel::java_like();
        let read = WalRecord::LocalRead { var: VarId(1) };
        let write = WalRecord::OwnWrite {
            var: VarId(1),
            data: 9,
            payload_len: 0,
        };
        let recv = WalRecord::Recv {
            from: SiteId(1),
            msg: Msg::Fm(Fm { var: VarId(1) }),
        };
        assert!(read.meta_size(&model) > 0);
        assert!(write.meta_size(&model) > read.meta_size(&model));
        assert!(recv.meta_size(&model) > read.meta_size(&model));
    }

    #[test]
    fn segments_seal_at_the_limit_and_checkpoints_delete_them() {
        let model = SizeModel::java_like();
        let mut store = DurableStore::new(3);
        let rec_bytes = WalRecord::LocalRead { var: VarId(0) }.meta_size(&model);
        // Three records per segment.
        store.set_segment_limit(3 * rec_bytes);
        for _ in 0..7 {
            store.append(WalRecord::LocalRead { var: VarId(0) }, &model);
        }
        assert_eq!(store.segments_sealed, 2);
        assert_eq!(store.sealed_segments(), 2);
        assert_eq!(store.log_len(), 7);
        assert_eq!(store.retained_log_bytes(), 7 * rec_bytes);
        assert_eq!(store.deleted_bytes, 0);

        // The checkpoint covers every segment: all are deleted, and the
        // retained footprint collapses to the image.
        let repl: Arc<dyn Replication> = Arc::new(FullReplication::new(3));
        let site = build_site(
            ProtocolKind::OptP,
            SiteId(0),
            repl,
            ProtocolConfig::default(),
        );
        let image = store.take_checkpoint(site.as_ref(), &model);
        assert_eq!(store.deleted_bytes, 7 * rec_bytes);
        assert_eq!(store.sealed_segments(), 0);
        assert_eq!(store.log_len(), 0);
        assert_eq!(store.retained_bytes(), image);
        // Cumulative counters are unaffected by the deletion.
        assert_eq!(store.appends, 7);
        assert_eq!(store.append_bytes, 7 * rec_bytes);
    }

    #[test]
    fn torn_tail_reaches_back_through_sealed_segments() {
        let n = 3;
        let model = SizeModel::java_like();
        let mut mini = Mini::new(ProtocolKind::OptP, n);
        // Force a seal between the two records of site 0's journal:
        // OwnWrite then Recv, with the limit below one OwnWrite.
        mini.store.set_segment_limit(1);
        mini.write(0, VarId(0), 10);
        mini.write(1, VarId(0), 11);
        assert_eq!(mini.store.log_len(), 2);
        assert_eq!(mini.store.sealed_segments(), 2);

        // Tearing both records must cross the segment boundary.
        assert_eq!(mini.store.tear_tail(5), 2);
        assert_eq!(mini.store.log_len(), 0);
        assert_eq!(mini.store.retained_log_bytes(), 0);
        assert_eq!(mini.store.truncated, 2);

        // Marks rolled back with the torn receipt.
        let sm = Msg::Sm(Sm {
            var: VarId(0),
            value: VersionedValue::new(WriteId::new(SiteId(1), 1), 11),
            meta: SmMeta::OptP {
                write: Arc::new(VectorClock::new(n)),
            },
        });
        assert!(!mini.store.already_seen(&sm));
        let _ = model;
    }

    #[test]
    fn replay_spans_segment_boundaries() {
        let n = 3;
        let mut mini = Mini::new(ProtocolKind::OptP, n);
        mini.store.set_segment_limit(1); // every record seals a segment
        for i in 0..6u64 {
            mini.write(0, VarId::from((i % Q as u64) as usize), i);
            mini.write(1, VarId::from(((i + 1) % Q as u64) as usize), i);
        }
        assert!(mini.store.sealed_segments() > 1);
        let repl = repl_for(ProtocolKind::OptP, n);
        let (replayed, applied) = mini
            .store
            .replay(|| {
                build_site(
                    ProtocolKind::OptP,
                    SiteId(0),
                    repl,
                    ProtocolConfig::default(),
                )
            })
            .unwrap();
        assert_same_state(replayed.as_ref(), mini.sites[0].as_ref(), n);
        assert_eq!(
            applied.len(),
            12,
            "six own writes + six received updates re-applied"
        );
    }
}
