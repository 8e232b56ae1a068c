//! The protocol-site trait: what a driver sees of one site, whichever of
//! the five protocols it runs. [`crate::Replica`] is its one implementor.

use crate::effect::{Effect, ReadResult};
use crate::factory::ProtocolKind;
use crate::msg::Msg;
use crate::pending::ProtoTraceEvent;
use crate::reliable::{OwnLedger, PeerAckInfo, SyncState};
use causal_clocks::MatrixClock;
use causal_types::{SiteId, SizeModel, VarId, VersionedValue, WriteId};

/// A causal-stability cut: everything at or below it is applied at every
/// live member, so delivery constraints that refer to it are vacuous.
///
/// `clocks[j]` is the stable frontier of origin `j` in write-clock terms
/// (every write `⟨j, c⟩` with `c ≤ clocks[j]` is stable). `counts[j][k]`
/// is the number of `j`'s writes *destined to* `k` within that frontier —
/// the currency of the counting protocols (Full-Track's matrices compare
/// against counts, not clocks, under partial replication). Both views
/// describe the same cut; each protocol consults the one its metadata
/// speaks.
pub struct StableCut<'a> {
    /// Per-origin stable write clocks.
    pub clocks: &'a [u64],
    /// `counts[j][k]`: stable writes of `j` destined to `k`.
    pub counts: &'a MatrixClock,
}

/// What one [`ProtocolSite::gc_stable`] pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Causality-log entries removed (KS-log / CRP tuples).
    pub log_entries: usize,
    /// `LastWriteOn` slots or slot-piggyback entries released.
    pub slots: usize,
}

impl GcStats {
    /// `true` when the pass reclaimed nothing.
    pub fn is_empty(&self) -> bool {
        self.log_entries == 0 && self.slots == 0
    }
}

/// One site's protocol state machine.
///
/// A `ProtocolSite` owns the site's replica storage, causality metadata and
/// parked-update buffers. It is purely reactive: the driver calls the three
/// entry points below and routes the returned [`Effect`]s. Implementations
/// must be deterministic functions of the call sequence — all scheduling and
/// timing lives in the driver — which is what makes simulation runs
/// reproducible and lets the consistency checker replay histories.
pub trait ProtocolSite: Send {
    /// Which protocol this site runs.
    fn kind(&self) -> ProtocolKind;

    /// This site's id.
    fn site(&self) -> SiteId;

    /// System size `n`.
    fn n(&self) -> usize;

    /// Perform a local write `w(var)data`, appending its effects to `out`:
    /// one [`Effect::Send`] per remote destination replica and, when this
    /// site replicates `var`, an [`Effect::Applied`] for the local apply
    /// (and for every parked update it releases). Returns the new write's
    /// identity.
    fn write_into(
        &mut self,
        var: VarId,
        data: u64,
        payload_len: u32,
        out: &mut Vec<Effect>,
    ) -> WriteId;

    /// [`ProtocolSite::write_into`] into a fresh vector, sized for a
    /// fan-out to every site.
    fn write(&mut self, var: VarId, data: u64, payload_len: u32) -> (WriteId, Vec<Effect>) {
        let mut out = Vec::with_capacity(self.n());
        let id = self.write_into(var, data, payload_len, &mut out);
        (id, out)
    }

    /// Perform a local read `r(var)`.
    ///
    /// If `var` is replicated locally the value is returned immediately
    /// (after the protocol's read-merge of `LastWriteOn⟨var⟩`, which is what
    /// establishes the `→co` edge). Otherwise a fetch message for the
    /// predesignated replica is returned; the read completes when
    /// [`ProtocolSite::on_message`] later emits [`Effect::FetchDone`].
    ///
    /// At most one fetch may be outstanding per site — the paper's
    /// application subsystem blocks on `RemoteFetch`.
    fn read(&mut self, var: VarId) -> ReadResult;

    /// Deliver a transport message from `from`, appending its effects to
    /// `out`. A driver reuses one `out` for every delivery, so the hot path
    /// allocates nothing.
    fn on_message_into(&mut self, from: SiteId, msg: Msg, out: &mut Vec<Effect>);

    /// [`ProtocolSite::on_message_into`] into a fresh vector.
    fn on_message(&mut self, from: SiteId, msg: Msg) -> Vec<Effect> {
        let mut out = Vec::new();
        self.on_message_into(from, msg, &mut out);
        out
    }

    /// Number of parked (received, not yet applied) updates.
    fn pending_len(&self) -> usize;

    /// Bytes of causality metadata currently held by this site (local
    /// control-data footprint: clocks, logs, LastWriteOn structures).
    fn local_meta_size(&self, model: &SizeModel) -> u64;

    /// Current value of `var`'s local replica (`None` when `⊥` or when the
    /// site does not replicate `var`). Diagnostic/testing accessor.
    fn value_of(&self, var: VarId) -> Option<VersionedValue>;

    /// Number of entries in the site's causality log, where applicable
    /// (Opt-Track / Opt-Track-CRP); `None` for clock-based protocols. Used
    /// by the `d`-parameter analysis (paper §V-B).
    fn log_len(&self) -> Option<usize>;

    /// Deep-copy this site's complete state as a checkpoint image.
    ///
    /// The durable-storage model (`crate::wal`) snapshots a site by cloning
    /// the whole state machine: the clone *is* the protocol state the paper
    /// names — Full-Track's `n×n` matrix, Opt-Track's KS log, Opt-Track-CRP's
    /// 2-tuple log, optP's vector clock — plus replica values, parked
    /// updates and `LastWriteOn` metadata, so checkpoint + WAL replay
    /// reproduces the pre-crash state exactly.
    fn clone_box(&self) -> Box<dyn ProtocolSite>;

    /// Switch protocol-level trace recording on or off (buffering and log
    /// pruning decisions, drained via [`ProtocolSite::take_trace`]). Off
    /// until switched on.
    fn set_tracing(&mut self, on: bool);

    /// Drain the protocol-level trace events recorded since the last take.
    /// Empty unless [`ProtocolSite::set_tracing`] enabled recording.
    fn take_trace(&mut self) -> Vec<ProtoTraceEvent>;

    /// Abandon the single outstanding remote fetch (degraded read): the
    /// driver gave up on every candidate replica before a deadline. Clears
    /// the fetch slot so later reads can proceed; a straggling RM for the
    /// abandoned variable is filtered by the driver. Panics when `var` is
    /// not the outstanding fetch — the driver asks
    /// [`ProtocolSite::fetching`] first.
    fn abort_fetch(&mut self, var: VarId);

    /// The variable of the outstanding remote fetch, if any. A crash
    /// clears it and a WAL replay restores it, so the driver asks rather
    /// than keeping a copy.
    fn fetching(&self) -> Option<VarId>;

    // ------------------------------------------------------------------
    // Crash / recovery (fail-stop with state loss; see `crate::reliable`).
    // The driver (simulator) orchestrates the handshake; the protocol only
    // snapshots, forgets and rebuilds its own state.
    // ------------------------------------------------------------------

    /// Fail-stop: discard all volatile state (clocks, logs, values, parked
    /// updates, outstanding fetches), keeping only what the durable
    /// own-write ledger justifies (own write counter, own clock row).
    /// Returns the ledger and the number of parked updates lost.
    fn crash_volatile(&mut self) -> (OwnLedger, usize);

    /// A crashed `peer` announced recovery with `ledger`: fast-forward this
    /// site's per-origin bookkeeping past the peer's permanently-lost
    /// pre-crash writes (its unacked transmit backlog died with it) and
    /// discard updates parked from it, so activation predicates referring
    /// to those writes can still fire. Returns `(drained-apply effects,
    /// parked updates dropped)`.
    fn note_peer_recovery(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize);

    /// Export this site's causal knowledge plus a snapshot of the variables
    /// shared with `requester`, for the requester's state rebuild.
    fn export_sync(&self, requester: SiteId) -> SyncState;

    /// Rebuild after a crash from every live peer's [`SyncState`] (merge all
    /// causal knowledge — a safe over-approximation of the lost state — and
    /// reinstall shared-variable values) and the per-channel ack bookkeeping
    /// (restore per-origin apply counters exactly: acked updates were
    /// received and will never be redelivered, unacked ones will be).
    fn install_sync(&mut self, sources: &[(SiteId, PeerAckInfo, SyncState)]);

    // ------------------------------------------------------------------
    // Membership (epoch'd view changes; see the simulator's churn layer).
    // Built on the crash/recovery machinery: a join is a peer rebuild from
    // scratch, a leave is a permanent crash whose ledger lets survivors
    // fast-forward, a migration is a targeted state transfer.
    // ------------------------------------------------------------------

    /// Snapshot the durable own-write ledger *without* crashing: what
    /// [`ProtocolSite::crash_volatile`] would return, but leaving all
    /// volatile state intact. View changes hand this to joiners (so their
    /// activation predicates fast-forward past history they will receive
    /// via state transfer instead) and to survivors of a graceful leave.
    fn own_ledger(&self) -> OwnLedger;

    /// `peer` left the view for good (graceful drain or fail-stop): forget
    /// it. The bookkeeping of [`ProtocolSite::note_peer_recovery`] — the
    /// same fast-forward past traffic that will never arrive — and a
    /// protocol may additionally drop metadata that only mattered while
    /// the peer could still return (e.g. Opt-Track's KS-log entries whose
    /// remaining destinations all departed).
    fn note_peer_departed(&mut self, peer: SiteId, ledger: &OwnLedger) -> (Vec<Effect>, usize);

    /// Stop replicating `var`: discard its local value and per-variable
    /// metadata (migration cutover on the vacated replica). Causal
    /// knowledge about past writes of `var` is retained — it may still
    /// guard other applies.
    fn drop_var(&mut self, var: VarId);

    /// Garbage-collect causality metadata that a stability `cut` proves
    /// redundant: every write at or below the cut is applied at every live
    /// member, so log entries and `LastWriteOn` records describing it can
    /// never again block or constrain a delivery. Implementations must only
    /// drop state — never mutate clocks or counters — so a GC pass is
    /// invisible to the protocol's observable behaviour.
    fn gc_stable(&mut self, cut: &StableCut) -> GcStats;

    /// The per-origin applied-clock vector, for protocols whose delivery
    /// counters are clock-valued (the full-replication pair). After
    /// [`ProtocolSite::install_sync`] this is the snapshot horizon the site
    /// fast-forwarded to; writes at or below it were folded in wholesale and
    /// will never raise an individual apply effect, so the driver's
    /// stability ground truth must settle them from here. `None` for the
    /// partially-replicated protocols, whose counters count destined SMs
    /// rather than clocks.
    fn applied_horizon(&self) -> Option<Vec<u64>>;

    /// Reconcile this site's own-write bookkeeping with a durable `ledger`
    /// after a WAL replay that may have lost trailing records (fail-soft
    /// torn-tail truncation): raise the own write counter / clock rows to
    /// at least the ledger's values so no `WriteId` is ever reused. No-op
    /// when the replayed state already covers the ledger.
    fn restore_own_ledger(&mut self, ledger: &OwnLedger);
}
