//! The Opt-Track local log `{⟨j, clock_j, Dests⟩}` (KS-algorithm style).
//!
//! Each entry records a write operation in the causal past together with the
//! set of destination replicas for which "this write was sent there" is
//! still *relevant explicit information*. The paper (§III-B) prunes this
//! information with two implicit conditions:
//!
//! 1. once an update `m` is applied at site `s₂`, the fact that `s₂` is one
//!    of `m`'s destinations is redundant in the causal future of the apply
//!    ([`Log::remove_site`], [`Log::prune_applied`], and the site removal
//!    fused into [`Log::merge_applied`] / [`Log::with_own`]);
//! 2. if `send(m) →co send(m')` and both updates are sent to `s₂`, then
//!    `s₂ ∈ m.Dests` is redundant in the causal future of `send(m')`
//!    ([`Log::record_write`] pruning, and the same-sender normalization
//!    every composite operation ends in — same-sender sends are totally
//!    ordered by `→co` through program order).
//!
//! Entries whose destination list becomes empty are purged, **except** the
//! most recent entry per origin, which is kept as a marker: the paper notes
//! "it is important to keep entries with empty destination list as long as
//! they represent the most recent updates applied from some site".
//!
//! # Indexed layout
//!
//! The log is stored as **per-origin runs**: entries sorted by
//! `(origin, clock)` in one contiguous vector, so each origin's run is a
//! clock-sorted slice and run boundaries are origin changes. The grouping
//! mirrors the paper's structure directly — both implicit conditions are
//! *per-origin* facts:
//!
//! * condition 1 compares an entry's clock against the destination's
//!   last-applied clock **from that origin**;
//! * the same-sender half of condition 2 orders entries **within one run**
//!   (newer destinations accumulate newest→oldest per run, never across
//!   runs);
//! * MERGE's cross-pruning rule ("a side that knows a strictly newer write
//!   from an origin has proven every destination of the older write
//!   redundant") compares clocks against the **newest-per-origin marker**,
//!   which is simply a run's last element.
//!
//! # One pass per operation
//!
//! Every composite operation — MERGE ([`Log::merge`],
//! [`Log::merge_applied`]), the write-side record ([`Log::record_write`],
//! [`Log::with_write`]), the `LastWriteOn⟨h⟩` materialization
//! ([`Log::with_own`]) and [`Log::normalize`] — is a *feeder* that hands
//! entries **newest to oldest** to one private normalising builder. Per
//! entry the builder
//!
//! 1. subtracts the union of the newer same-run destinations (same-sender
//!    condition 2) and folds the result into that union;
//! 2. removes one site under condition 1, either from every entry or from
//!    those at or below a per-origin last-applied cap;
//! 3. applies the marker rule (an empty entry survives only as its run's
//!    tail);
//! 4. pushes;
//!
//! and reverses the output once at the end. Nothing is purged afterwards:
//! a feeder reads its (possibly shared) inputs and the builder writes the
//! one new vector. The operations used to be
//! compositions of whole-log passes (`merge; prune_applied; purge`,
//! `upsert; remove_site; normalize`); the fusion is exact, not
//! approximately right, because of two facts.
//!
//! * **Two purges equal one.** A purge deletes only empty non-tail
//!   entries. Those contribute nothing to a run's newer-destinations
//!   union, and a run's tail is the same entry before and after, so
//!   purging between two pruning steps changes nothing the second step or
//!   the final purge can see.
//! * **Site removal commutes with the same-sender subtraction.** Both
//!   removal rules — "clock ≤ cap\[origin\]" and "every entry" — are
//!   downward-closed within a run: if a newer entry of a run loses the
//!   site, every older one does too. So whether the union of newer
//!   destinations is taken before or after the removal, an older entry
//!   ends up without the site in exactly the same cases. The builder takes
//!   the union *before* the removal, which also lets it report how many
//!   entries the apply knowledge alone emptied (the `LogPruned` trace
//!   event's `removed`).
//!
//! [`Log::purge`], [`Log::prune_applied`], [`Log::remove_site`] and
//! [`Log::upsert`] remain as in-place primitives: the stability GC's
//! [`Log::prune_stable`] ends in `purge`, [`Log::forget_site`] runs
//! `remove_site`, Opt-Track's peer recovery runs `prune_applied`, and the
//! tests build logs with `upsert`. Snapshots of a log are shared by
//! `Arc` (a write's fan-out piggybacks one snapshot by refcount), so no hot
//! path clones a log; the feeders read shared snapshots in place.
//!
//! The log keeps no destination-member total: only a size model that
//! charges per site id reads one, so [`MetaSized::meta_size`] counts
//! members on demand ([`SizeModel::dest_sets_with`]) and is O(1) under the
//! `java_like` model, while a counter kept up to date would cost a
//! popcount per surviving entry in every builder pass and every decode.
//! The test-only reference implementation (`NaiveLog`, in `reference.rs`)
//! composes the whole-log passes literally; the differential proptests
//! (`log_differential.rs`) hold the two implementations to identical
//! observable state after every operation.

use crate::dests::DestSet;
use causal_types::{MetaSized, SiteId, SizeModel, WriteId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One record of the Opt-Track log: write `⟨origin, clock⟩` was multicast to
/// `dests`, and that fact is still relevant for the sites remaining in
/// `dests`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LogEntry {
    /// The application process that performed the write.
    pub origin: SiteId,
    /// The writer's local write counter for this write (1-based).
    pub clock: u64,
    /// Destinations for which the information is still explicit.
    pub dests: DestSet,
}

impl LogEntry {
    /// Construct an entry.
    pub fn new(origin: SiteId, clock: u64, dests: DestSet) -> Self {
        LogEntry {
            origin,
            clock,
            dests,
        }
    }

    /// The write this entry describes.
    pub fn write_id(&self) -> WriteId {
        WriteId::new(self.origin, self.clock)
    }

    /// The log's sort key.
    #[inline]
    fn key(&self) -> (SiteId, u64) {
        (self.origin, self.clock)
    }
}

/// Pruning switches. The defaults implement the full Opt-Track behaviour;
/// the ablation benches flip individual switches to quantify their effect.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Apply implicit condition 2 (supersede destination info when a later
    /// causally-ordered send covers the same destinations). Disabling this
    /// reproduces a naive log that only shrinks via condition 1.
    pub condition2: bool,
    /// Keep the newest (possibly empty) entry per origin as a marker of the
    /// most recent known write from that origin.
    pub keep_markers: bool,
    /// Never treat the *local site itself* as covered by its own sends or
    /// own-write applies: condition 2 subtracts `dests ∖ {origin}`, and the
    /// `LastWriteOn` materialization keeps the holder's own destination
    /// mentions until a clock witness shows them applied.
    ///
    /// The published algorithm's self-pruning is justified only when a
    /// message parked toward the local site arrives before its causal
    /// future loops back via reads — true for short, homogeneous channel
    /// delays, but not under per-destination update batching, where an
    /// update can sit in a sender's lane for a full flush window while its
    /// dependency chain races ahead through other lanes. Off by default to
    /// keep unbatched runs byte-identical to the paper calibration;
    /// `causal_proto::SiteDriver` turns it on whenever its site has lanes.
    pub pin_self: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            condition2: true,
            keep_markers: true,
            pin_self: false,
        }
    }
}

/// The Opt-Track local log `LOG_i` (also the piggybacked `L_w` and the
/// per-variable `LastWriteOn⟨h⟩` structure).
///
/// Entries are stored in one flat vector sorted by `(origin, clock)` — i.e.
/// per-origin sorted-by-clock **runs laid out contiguously** (see the module
/// docs for why the per-origin grouping mirrors the paper's pruning rules).
/// A snapshot is shared by `Arc`, never copied per destination; the
/// composite operations read `&self` and build their result in one
/// newest→oldest pass (module docs, "One pass per operation"). The log
/// never contains two entries for the same write.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Log {
    /// Entries sorted by `(origin, clock)`.
    entries: Vec<LogEntry>,
}

impl Log {
    /// The empty log.
    pub fn new() -> Self {
        Log::default()
    }

    /// Build a log from the `n` entries `next` yields, which must be
    /// strictly `(origin, clock)`-sorted — what [`Log::iter`] yields, and so
    /// what the wire codec emits. The order is checked as the entries
    /// arrive, in the one pass that collects them. `Ok(None)` when it is
    /// violated (out of order or a duplicate write), so a decoder stays
    /// total on hostile input; an error from `next` ends the build at once
    /// and wins over a violation before it.
    #[inline]
    pub fn from_sorted<E>(
        n: usize,
        mut next: impl FnMut() -> Result<LogEntry, E>,
    ) -> Result<Option<Log>, E> {
        let mut entries = Vec::with_capacity(n);
        let (mut prev, mut sorted) = (None, true);
        for _ in 0..n {
            let e = next()?;
            // `None` sorts below every key, so the first entry passes.
            sorted &= prev < Some(e.key());
            prev = Some(e.key());
            entries.push(e);
        }
        Ok(sorted.then_some(Log { entries }))
    }

    /// Number of entries (including empty-destination markers).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the log holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in `(origin, clock)` order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Entry for a specific write, if present.
    pub fn get(&self, origin: SiteId, clock: u64) -> Option<&LogEntry> {
        self.entries
            .binary_search_by(|e| (e.origin, e.clock).cmp(&(origin, clock)))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The newest clock this log knows for `origin` (marker entries count).
    /// One binary search to the end of the origin's run — no scan.
    pub fn latest_clock(&self, origin: SiteId) -> Option<u64> {
        let end = self.entries.partition_point(|e| e.origin <= origin);
        match end.checked_sub(1).map(|i| &self.entries[i]) {
            Some(e) if e.origin == origin => Some(e.clock),
            _ => None,
        }
    }

    /// Insert or combine an entry. If the same write is already present the
    /// destination sets are intersected (both sides' prunings are sound).
    /// Used by the protocols to attach a write's own entry to the log stored
    /// in `LastWriteOn⟨h⟩`.
    pub fn upsert(&mut self, entry: LogEntry) {
        match self
            .entries
            .binary_search_by(|e| (e.origin, e.clock).cmp(&(entry.origin, entry.clock)))
        {
            Ok(i) => {
                // Same write already present: combine knowledge (both
                // sides' prunings are sound, so intersect).
                let d = self.entries[i].dests.intersect(&entry.dests);
                self.entries[i].dests = d;
            }
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Record a local write: implicit condition 2 prunes every existing
    /// entry's destinations by the new write's destination set (the new send
    /// is in the causal future of everything in the log), empties are purged
    /// and the write's own entry `⟨origin, clock, dests⟩` is appended.
    ///
    /// Call *after* snapshotting the log for piggybacking: the paper's SM
    /// carries "the currently stored records", i.e. the pre-write log.
    pub fn record_write(&mut self, origin: SiteId, clock: u64, dests: DestSet, cfg: PruneConfig) {
        *self = self.with_write(origin, clock, dests, cfg);
    }

    /// [`Log::record_write`] into a new log, leaving `self` — typically the
    /// snapshot the write's fan-out piggybacks — untouched. One pass: every
    /// existing entry enters the builder with the covered destinations
    /// already subtracted.
    pub fn with_write(&self, origin: SiteId, clock: u64, dests: DestSet, cfg: PruneConfig) -> Log {
        // The new send informs every destination it actually reaches.
        // The origin itself receives no message (own writes apply
        // immediately, predicate unchecked), so under `pin_self` its
        // own pending-destination mentions survive the subtraction.
        let mut covered = DestSet::EMPTY;
        if cfg.condition2 {
            covered = dests;
            if cfg.pin_self {
                covered.remove(origin);
            }
        }
        let own = LogEntry::new(origin, clock, dests);
        self.rebuilt(Some(own), covered, None, cfg)
    }

    /// The `LastWriteOn⟨h⟩` log of a value applied at `site`: this log (the
    /// write's piggyback) plus the write's `own` record — destination sets
    /// intersected if the record is already present — minus `site` under
    /// implicit condition 1, normalized. `caps` narrows the removal to
    /// entries at or below `caps[origin]` (the last-applied clocks);
    /// `None` removes `site` from every entry, which the activation
    /// predicate justifies for a log that arrived with an applied SM.
    pub fn with_own(
        &self,
        own: LogEntry,
        site: SiteId,
        caps: Option<&[u64]>,
        cfg: PruneConfig,
    ) -> Log {
        self.rebuilt(Some(own), DestSet::EMPTY, Some(Strip { site, caps }), cfg)
    }

    /// Feed this log, with `covered` subtracted from every entry and `own`
    /// (if any) upserted at its sorted position, through the builder.
    fn rebuilt(
        &self,
        own: Option<LogEntry>,
        covered: DestSet,
        strip: Option<Strip<'_>>,
        cfg: PruneConfig,
    ) -> Log {
        let mut out = Builder::new(self.entries.len() + 1, strip, cfg);
        let uncovered = |e: &LogEntry| LogEntry::new(e.origin, e.clock, e.dests.minus(&covered));
        let mut older = &self.entries[..];
        if let Some(mut own) = own {
            let (below, mut above) = older.split_at(older.partition_point(|e| e.key() < own.key()));
            if let Some(same) = above.first().filter(|e| e.key() == own.key()) {
                // Same write already present: both sides' prunings are
                // sound, so intersect.
                own.dests = own.dests.intersect(&uncovered(same).dests);
                above = &above[1..];
            }
            above.iter().rev().for_each(|e| out.push(uncovered(e)));
            out.push(own);
            older = below;
        }
        older.iter().rev().for_each(|e| out.push(uncovered(e)));
        out.finish().0
    }

    /// Implicit condition 1 for a single site: remove `site` from every
    /// entry's destination set (used when `site` applies an update — its own
    /// membership in any piggybacked destination list is now redundant,
    /// because the activation predicate guaranteed those writes were applied
    /// at `site` first).
    pub fn remove_site(&mut self, site: SiteId) {
        for e in &mut self.entries {
            e.dests.remove(site);
        }
    }

    /// Implicit condition 1 driven by apply knowledge: remove `site` from
    /// every entry whose write is already applied at `site`, as witnessed by
    /// `last_applied_clock[origin]` (the largest write-clock from `origin`
    /// applied at `site`). Sound because multicasts from one origin reach a
    /// given destination in clock order over FIFO channels.
    ///
    /// Entries within a run are clock-sorted, so only each run's applied
    /// prefix does destination-set work; the rest of the run is skipped with
    /// a plain origin comparison.
    pub fn prune_applied(&mut self, site: SiteId, last_applied_clock: &[u64]) {
        let mut i = 0;
        while i < self.entries.len() {
            let origin = self.entries[i].origin;
            let cap = last_applied_clock[origin.index()];
            // Applied prefix of this origin's run.
            while i < self.entries.len()
                && self.entries[i].origin == origin
                && self.entries[i].clock <= cap
            {
                self.entries[i].dests.remove(site);
                i += 1;
            }
            // Skip the unapplied remainder of the run.
            while i < self.entries.len() && self.entries[i].origin == origin {
                i += 1;
            }
        }
    }

    /// A site left the system for good: drop every entry it originated
    /// (no survivor's activation predicate waits on a departed sender —
    /// the membership layer fast-forwards per-origin bookkeeping past its
    /// lost traffic) and remove it from every remaining destination set
    /// (it will never apply anything again, so its membership in a
    /// destination list can never constrain a future delivery). A later
    /// `merge` with a peer that has not yet forgotten the site may
    /// reintroduce entries; that is sound — merely wasteful until the
    /// peer forgets too — because forgotten entries carry no obligations.
    pub fn forget_site(&mut self, departed: SiteId, cfg: PruneConfig) {
        self.entries.retain(|e| e.origin != departed);
        self.remove_site(departed);
        self.normalize(cfg);
    }

    /// MERGE: fold the piggybacked log `incoming` (the `LastWriteOn⟨h⟩` of a
    /// read value) into this local log, then normalize.
    ///
    /// Rules (KS-style; each side's prunings are sound, so combined
    /// knowledge is the strongest of both):
    ///
    /// * same write in both logs → intersect destination sets;
    /// * a side that knows a **strictly newer** write from an origin but no
    ///   longer carries an older entry has, somewhere in its causal past,
    ///   proven every destination of that older write redundant (entries
    ///   are only ever dropped once their destination set empties, and
    ///   emptying is justified by implicit condition 1 or 2, which are
    ///   facts about the causal structure — once true, true forever).
    ///   Hence: an incoming entry older than the local marker for its
    ///   origin is skipped, and a local entry older than the incoming
    ///   side's marker is emptied. This cross-pruning is what keeps the
    ///   amortized log near `O(n)`; without the newest-per-origin markers
    ///   (which witness the "knows strictly newer" fact) it would be
    ///   unsound — which is why the paper insists on keeping them.
    ///
    /// One pass over both logs, newest to oldest: the first entry either
    /// side shows for an origin is that side's marker, the two sides merge
    /// key-by-key, and the builder normalizes as it goes —
    /// `O(|self| + |incoming|)` with a single allocation. With
    /// `!cfg.condition2` there is no cross-pruning: the result is the
    /// plain union with common entries intersected.
    pub fn merge(&mut self, incoming: &Log, cfg: PruneConfig) {
        *self = self.merged(incoming, None, cfg).0;
    }

    /// Read-side MERGE at `site` into a new log: [`Log::merge`] with
    /// `incoming`, then implicit condition 1 from apply knowledge — `site`
    /// leaves every entry at or below `last_applied[origin]` (`None`: every
    /// entry) — then purge, all in the one pass and without touching
    /// `self`, so a log still shared with an in-flight piggyback is read in
    /// place instead of deep-cloned first. Also returns how many entries
    /// the apply knowledge alone dropped (entries the plain merge would
    /// have kept).
    pub fn merge_applied(
        &self,
        incoming: &Log,
        site: SiteId,
        last_applied: Option<&[u64]>,
        cfg: PruneConfig,
    ) -> (Log, usize) {
        let strip = Strip {
            site,
            caps: last_applied,
        };
        self.merged(incoming, Some(strip), cfg)
    }

    /// Feed the MERGE of `self` and `incoming` through the builder.
    fn merged(&self, incoming: &Log, strip: Option<Strip<'_>>, cfg: PruneConfig) -> (Log, usize) {
        let (a, b) = (&self.entries, &incoming.entries);
        let mut out = Builder::new(a.len() + b.len(), strip, cfg);
        let (mut a, mut b) = (a.iter().rev(), b.iter().rev());
        let (mut head_a, mut head_b) = (a.next(), b.next());
        // Origin of the last entry taken from each side. Keys descend, so
        // when an entry only one side holds comes up, the other side has
        // shown a newer write of that origin — its marker outdates the
        // entry — exactly when its last entry taken has the same origin.
        let (mut a_seen, mut b_seen) = (None, None);
        loop {
            let (e, outdated) = match (head_a, head_b) {
                (None, None) => break,
                (Some(x), Some(y)) if x.key() == y.key() => {
                    (a_seen, b_seen) = (Some(x.origin), Some(x.origin));
                    (head_a, head_b) = (a.next(), b.next());
                    let common = x.dests.intersect(&y.dests);
                    (LogEntry::new(x.origin, x.clock, common), false)
                }
                (Some(x), Some(y)) if x.key() < y.key() => {
                    b_seen = Some(y.origin);
                    head_b = b.next();
                    (*y, a_seen == b_seen)
                }
                (None, Some(y)) => {
                    b_seen = Some(y.origin);
                    head_b = b.next();
                    (*y, a_seen == b_seen)
                }
                (Some(x), _) => {
                    a_seen = Some(x.origin);
                    head_a = a.next();
                    (*x, a_seen == b_seen)
                }
            };
            // Held by one side only and outdated by the other's marker:
            // that side proved it redundant. It is not its run's tail (the
            // marker came first), so an emptied copy would be purged —
            // skip it.
            if !(outdated && cfg.condition2) {
                out.push(e);
            }
        }
        out.finish()
    }

    /// Normalization pass: same-sender condition 2 (an older entry's
    /// destinations are pruned by every newer same-sender entry's current
    /// destinations) followed by a purge of empty entries (keeping the
    /// newest entry per origin as a marker when configured).
    pub fn normalize(&mut self, cfg: PruneConfig) {
        *self = self.rebuilt(None, DestSet::EMPTY, None, cfg);
    }

    /// Drop entries with empty destination sets. With `cfg.keep_markers`,
    /// the newest entry of each origin (its run's tail) survives even when
    /// empty.
    pub fn purge(&mut self, cfg: PruneConfig) {
        let len = self.entries.len();
        let mut w = 0;
        for r in 0..len {
            let e = self.entries[r];
            let is_run_tail = r + 1 >= len || self.entries[r + 1].origin != e.origin;
            if !e.dests.is_empty() || (cfg.keep_markers && is_run_tail) {
                self.entries[w] = e;
                w += 1;
            }
        }
        self.entries.truncate(w);
    }

    /// Causal-stability GC: empty the destination set of every entry whose
    /// write is at or below the stable `frontier` (per-origin: every live
    /// site has applied all of that origin's writes destined to it up to
    /// `frontier[origin]`), then purge. A stable write's destination
    /// constraints are vacuous — the activation predicate at every
    /// destination is already satisfied — so dropping them cannot block or
    /// reorder any future delivery. Each origin's newest entry survives as
    /// a marker (under `cfg.keep_markers`), preserving the MERGE
    /// cross-pruning power of [`Log::latest_clock`]; a peer that has not yet
    /// pruned may reintroduce a stable entry via merge, which is sound
    /// (forgotten entries carry no obligations) and bounded by that peer's
    /// own GC. Returns the number of entries removed.
    pub fn prune_stable(&mut self, frontier: &[u64], cfg: PruneConfig) -> usize {
        for e in &mut self.entries {
            let stable = frontier
                .get(e.origin.index())
                .is_some_and(|&f| e.clock <= f);
            if stable {
                e.dests = DestSet::EMPTY;
            }
        }
        let before = self.entries.len();
        self.purge(cfg);
        before - self.entries.len()
    }

    /// Total number of site ids across all destination lists (for size
    /// accounting under a per-site-id model, and diagnostics). O(len): one
    /// popcount per entry, counted when asked — nothing keeps a running
    /// total.
    pub fn dest_id_count(&self) -> usize {
        self.entries.iter().map(|e| e.dests.len()).sum()
    }
}

/// Implicit condition 1 for one site, applied as entries pass through the
/// [`Builder`].
#[derive(Clone, Copy)]
struct Strip<'a> {
    site: SiteId,
    /// `Some`: only entries at or below `caps[origin]` lose `site`;
    /// `None`: every entry does. Both are downward-closed within a run
    /// (module docs).
    caps: Option<&'a [u64]>,
}

/// The normalising builder every composite operation feeds (module docs,
/// "One pass per operation"). Entries arrive strictly newest to oldest in
/// `(origin, clock)` order.
struct Builder<'a> {
    cfg: PruneConfig,
    strip: Option<Strip<'a>>,
    /// Surviving entries, newest first until [`Builder::finish`].
    out: Vec<LogEntry>,
    /// Entries that survived normalization and were emptied by `strip`.
    dropped: usize,
    /// Origin of the run being fed.
    run: Option<SiteId>,
    /// Union of the run's destinations so far (before `strip`).
    newer: DestSet,
    /// `strip`'s clock cap for the run.
    cap: u64,
}

impl<'a> Builder<'a> {
    fn new(capacity: usize, strip: Option<Strip<'a>>, cfg: PruneConfig) -> Self {
        Builder {
            cfg,
            strip,
            out: Vec::with_capacity(capacity),
            dropped: 0,
            run: None,
            newer: DestSet::EMPTY,
            cap: u64::MAX,
        }
    }

    /// Inlined into each feeder's loop, where the builder's state then
    /// lives in registers: a scratch loop over 55-entry logs reads the
    /// one-log feeders 25–40 % faster than with a call per entry.
    #[inline(always)]
    fn push(&mut self, mut e: LogEntry) {
        let tail = self.run != Some(e.origin);
        if tail {
            self.run = Some(e.origin);
            self.newer = DestSet::EMPTY;
            if let Some(caps) = self.strip.and_then(|s| s.caps) {
                self.cap = caps[e.origin.index()];
            }
        }
        if self.cfg.condition2 {
            e.dests.subtract(&self.newer);
            self.newer = self.newer.union(&e.dests);
        }
        let live = !e.dests.is_empty();
        if let Some(strip) = self.strip {
            if e.clock <= self.cap {
                e.dests.remove(strip.site);
            }
        }
        if e.dests.is_empty() && !(tail && self.cfg.keep_markers) {
            self.dropped += usize::from(live);
            return;
        }
        self.out.push(e);
    }

    /// The built log and the number of entries `strip` alone dropped.
    fn finish(mut self) -> (Log, usize) {
        self.out.reverse();
        (Log { entries: self.out }, self.dropped)
    }
}

impl fmt::Debug for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Log[")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{},{},{:?}⟩", e.origin, e.clock, e.dests)?;
        }
        write!(f, "]")
    }
}

impl MetaSized for Log {
    /// Each entry is transmitted as two scalars (`origin`, `clock`) plus its
    /// destination set. The paper's Java implementation keeps the log as
    /// three primitive lists `⟨j⟩, ⟨clock_j⟩, ⟨Dests⟩` — under the
    /// `java_like` model each entry therefore costs three packed words;
    /// under the `wire` model the destination set is an explicit id list.
    ///
    /// O(1) under `java_like`; a per-site-id model counts the members,
    /// one popcount per entry (module docs).
    fn meta_size(&self, model: &SizeModel) -> u64 {
        let sets = self.entries.len();
        model.scalars(2 * sets) + model.dest_sets_with(sets, || self.dest_id_count())
    }
}

/// Difference between two Opt-Track logs from the same site.
///
/// Consecutive piggyback snapshots from one sender share most entries, so
/// a batched SM frame can ship the entries that changed (`upserts`: new
/// keys, or keys whose destination set shrank) plus the keys that were
/// purged (`removals`) instead of the whole log. The delta must be applied
/// with exact-replacement semantics — [`Log::upsert`] *intersects*
/// destination sets on an existing key, which is the piggyback-merge rule,
/// not reconstruction — hence [`LogDelta::apply_to`] rebuilds the entry
/// vector directly.
///
/// Exactness invariant, relied on by the wire codec's round-trip tests:
/// `LogDelta::between(prev, next).apply_to(prev) == next`.
#[derive(Clone, PartialEq, Debug)]
pub struct LogDelta {
    /// Entries to insert or overwrite, sorted by `(origin, clock)`.
    pub upserts: Vec<LogEntry>,
    /// Write keys to drop, sorted by `(origin, clock)`.
    pub removals: Vec<WriteId>,
}

impl LogDelta {
    /// Compute the delta that turns `prev` into `next`.
    pub fn between(prev: &Log, next: &Log) -> LogDelta {
        let mut upserts = Vec::new();
        let mut removals = Vec::new();
        let (a, b) = (&prev.entries, &next.entries);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) if (x.origin, x.clock) == (y.origin, y.clock) => {
                    if x.dests != y.dests {
                        upserts.push(*y);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if (x.origin, x.clock) < (y.origin, y.clock) => {
                    removals.push(x.write_id());
                    i += 1;
                }
                (Some(_), Some(y)) => {
                    upserts.push(*y);
                    j += 1;
                }
                (Some(x), None) => {
                    removals.push(x.write_id());
                    i += 1;
                }
                (None, Some(y)) => {
                    upserts.push(*y);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        LogDelta { upserts, removals }
    }

    /// Reconstruct the successor snapshot from its predecessor.
    pub fn apply_to(&self, prev: &Log) -> Log {
        let mut entries = Vec::with_capacity(prev.entries.len() + self.upserts.len());
        let mut ups = self.upserts.iter().peekable();
        let mut rms = self.removals.iter().peekable();
        for e in &prev.entries {
            let key = (e.origin, e.clock);
            while let Some(&&up) = ups.peek() {
                if (up.origin, up.clock) < key {
                    entries.push(up);
                    ups.next();
                } else {
                    break;
                }
            }
            if ups.peek().is_some_and(|up| (up.origin, up.clock) == key) {
                entries.push(*ups.next().unwrap());
                continue;
            }
            if rms.peek().is_some_and(|rm| (rm.site, rm.clock) == key) {
                rms.next();
                continue;
            }
            entries.push(*e);
        }
        entries.extend(ups.copied());
        Log { entries }
    }
}

impl MetaSized for LogDelta {
    /// Each upsert is a full entry (two scalars plus its destination set);
    /// each removal is a two-scalar key.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        let members = || self.upserts.iter().map(|e| e.dests.len()).sum();
        model.scalars(2 * (self.upserts.len() + self.removals.len()))
            + model.dest_sets_with(self.upserts.len(), members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(i: usize) -> SiteId {
        SiteId::from(i)
    }
    fn d(xs: &[usize]) -> DestSet {
        DestSet::from_sites(xs.iter().map(|&i| s(i)))
    }
    fn cfg() -> PruneConfig {
        PruneConfig::default()
    }

    /// `Log::from_sorted` over a slice.
    fn adopt(entries: &[LogEntry]) -> Option<Log> {
        let mut it = entries.iter().copied();
        Log::from_sorted(entries.len(), || it.next().ok_or(())).expect("enough entries")
    }

    /// A log is strictly `(origin, clock)`-sorted — what `from_sorted`
    /// and the wire decoder accept — and its counts read its entries.
    fn assert_well_formed(log: &Log) {
        let entries: Vec<LogEntry> = log.iter().copied().collect();
        assert_eq!(log.len(), entries.len());
        let members = entries.iter().map(|e| e.dests.len()).sum::<usize>();
        assert_eq!(log.dest_id_count(), members);
        assert_eq!(adopt(&entries).as_ref(), Some(log), "unsorted");
    }

    #[test]
    fn log_delta_roundtrips_across_writes_and_merges() {
        let mut a = Log::new();
        a.record_write(s(0), 1, d(&[1, 2]), cfg());
        a.record_write(s(1), 1, d(&[2, 3]), cfg());
        let mut b = a.clone();
        b.record_write(s(0), 2, d(&[1, 3]), cfg());
        let mut incoming = Log::new();
        incoming.upsert(LogEntry::new(s(2), 5, d(&[0, 1])));
        b.merge(&incoming, cfg());
        let delta = LogDelta::between(&a, &b);
        let rebuilt = delta.apply_to(&a);
        assert_eq!(rebuilt, b);
        assert_well_formed(&rebuilt);
    }

    proptest! {
        #[test]
        fn prop_log_delta_between_apply_is_identity(
            base in proptest::collection::vec(
                (0usize..6, 1u64..20, proptest::collection::vec(0usize..6, 0..4)), 0..16),
            extra in proptest::collection::vec(
                (0usize..6, 1u64..20, proptest::collection::vec(0usize..6, 0..4)), 0..16),
            stable in proptest::collection::vec(0u64..10, 6),
        ) {
            let mut a = Log::new();
            for (o, c, ds) in base {
                a.upsert(LogEntry::new(s(o), c, d(&ds)));
            }
            a.normalize(cfg());
            let mut b = a.clone();
            for (o, c, ds) in extra {
                b.record_write(s(o), 100 + c, d(&ds), cfg());
            }
            b.prune_stable(&stable, cfg());
            let rebuilt = LogDelta::between(&a, &b).apply_to(&a);
            prop_assert_eq!(&rebuilt, &b);
            assert_well_formed(&rebuilt);
        }
    }

    /// The flat layout's clone-is-a-memcpy property rests on `LogEntry`
    /// being `Copy` and word-sized; a non-`Copy` field (or a fat one) would
    /// silently turn every piggyback snapshot into a per-entry deep clone.
    #[test]
    fn log_entry_stays_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<LogEntry>();
        let sz = std::mem::size_of::<LogEntry>();
        assert!(
            sz <= 32,
            "LogEntry grew to {sz} bytes; clone cost scales with it"
        );
    }

    #[test]
    fn from_sorted_adopts_iter_order_and_rejects_anything_else() {
        let mut log = Log::new();
        log.record_write(s(1), 1, d(&[2, 3]), cfg());
        log.record_write(s(0), 1, d(&[2, 4]), cfg());
        log.record_write(s(1), 2, d(&[0]), cfg());
        let entries: Vec<LogEntry> = log.iter().copied().collect();
        let back = adopt(&entries).expect("iter order is sorted");
        assert_eq!(back, log);
        assert_well_formed(&back);
        assert_eq!(adopt(&[]), Some(Log::new()));

        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        assert_eq!(adopt(&swapped), None, "out of order");
        let mut dup = entries;
        dup.insert(1, dup[0]);
        assert_eq!(adopt(&dup), None, "duplicate write");
        // A failing `next` wins over an order violation before it.
        let mut it = swapped.iter().copied();
        let short = Log::from_sorted(swapped.len() + 1, || it.next().ok_or("short"));
        assert_eq!(short, Err("short"));
    }

    #[test]
    fn record_write_appends_own_entry() {
        let mut log = Log::new();
        log.record_write(s(0), 1, d(&[1, 2]), cfg());
        assert_eq!(log.len(), 1);
        let e = log.get(s(0), 1).unwrap();
        assert_eq!(e.dests, d(&[1, 2]));
        assert_well_formed(&log);
    }

    #[test]
    fn condition2_prunes_prior_entries_on_write() {
        let mut log = Log::new();
        log.record_write(s(1), 1, d(&[2, 3]), cfg());
        // Site 0 now writes to {2, 4}: destination 2 of the older entry is
        // superseded (a causally-later send covers it); 3 is not.
        log.record_write(s(0), 1, d(&[2, 4]), cfg());
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[3]));
        assert_eq!(log.get(s(0), 1).unwrap().dests, d(&[2, 4]));
        assert_well_formed(&log);
    }

    #[test]
    fn condition2_disabled_keeps_everything() {
        let no_c2 = PruneConfig {
            condition2: false,
            ..PruneConfig::default()
        };
        let mut log = Log::new();
        log.record_write(s(1), 1, d(&[2, 3]), no_c2);
        log.record_write(s(0), 1, d(&[2, 3]), no_c2);
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[2, 3]));
    }

    #[test]
    fn same_sender_condition2_in_normalize() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[2, 3])));
        log.upsert(LogEntry::new(s(1), 2, d(&[2, 4])));
        log.normalize(cfg());
        // Older same-sender entry loses dests covered by the newer one.
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[3]));
        assert_eq!(log.get(s(1), 2).unwrap().dests, d(&[2, 4]));
        assert_well_formed(&log);
    }

    #[test]
    fn forget_site_drops_origin_and_dest_membership() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[2, 3])));
        log.upsert(LogEntry::new(s(1), 2, d(&[0, 2])));
        log.upsert(LogEntry::new(s(2), 1, d(&[1, 3])));
        log.upsert(LogEntry::new(s(3), 1, d(&[0])));
        let mut naive = crate::reference::NaiveLog::new();
        for e in log.iter() {
            naive.upsert(*e);
        }
        log.forget_site(s(1), cfg());
        naive.forget_site(s(1), cfg());
        // Site 1's own entries are gone; its membership in other entries'
        // destination sets is gone; unrelated entries survive.
        assert!(log.get(s(1), 1).is_none());
        assert!(log.get(s(1), 2).is_none());
        assert_eq!(log.get(s(2), 1).unwrap().dests, d(&[3]));
        assert_eq!(log.get(s(3), 1).unwrap().dests, d(&[0]));
        assert_well_formed(&log);
        // Reference implementation agrees entry-for-entry.
        assert_eq!(
            log.iter().copied().collect::<Vec<_>>(),
            naive.iter().copied().collect::<Vec<_>>()
        );
    }

    /// `pin_self`: a write whose destination set includes the writer itself
    /// (the writer is a replica) must not prune the *writer's own* pending
    /// mentions — no message carries the obligation to self, since own
    /// writes apply immediately without the activation predicate. Other
    /// destinations are still covered by the actual sends.
    #[test]
    fn pin_self_keeps_writer_mentions_through_condition2() {
        let pinned = PruneConfig {
            pin_self: true,
            ..PruneConfig::default()
        };
        // Site 0 knows write (s1, 1) is still owed to itself and to s2.
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[0, 2])));
        // Site 0 writes to {0, 2}: s2 learns of the pending entry from the
        // piggyback of this very send, but site 0 sends itself nothing.
        log.record_write(s(0), 5, d(&[0, 2]), pinned);
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[0]));
        // The write's own entry keeps its full destination set.
        assert_eq!(log.get(s(0), 5).unwrap().dests, d(&[0, 2]));
        assert_well_formed(&log);
        // The default behaviour drops the self mention (the paper's rule,
        // sound only when in-flight delays are short).
        let mut legacy = Log::new();
        legacy.upsert(LogEntry::new(s(1), 1, d(&[0, 2])));
        legacy.record_write(s(0), 5, d(&[0, 2]), cfg());
        assert!(legacy.get(s(1), 1).unwrap().dests.is_empty());
    }

    #[test]
    fn purge_keeps_newest_marker_per_origin() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, DestSet::EMPTY));
        log.upsert(LogEntry::new(s(1), 2, DestSet::EMPTY));
        log.upsert(LogEntry::new(s(2), 1, d(&[0])));
        log.purge(cfg());
        assert!(log.get(s(1), 1).is_none(), "old empty entry purged");
        assert!(log.get(s(1), 2).is_some(), "newest kept as marker");
        assert!(log.get(s(2), 1).is_some());
        assert_well_formed(&log);
    }

    #[test]
    fn purge_without_markers_drops_all_empties() {
        let no_markers = PruneConfig {
            keep_markers: false,
            ..PruneConfig::default()
        };
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 2, DestSet::EMPTY));
        log.purge(no_markers);
        assert!(log.is_empty());
        assert_well_formed(&log);
    }

    #[test]
    fn merge_intersects_common_entries() {
        let mut a = Log::new();
        a.upsert(LogEntry::new(s(1), 1, d(&[2, 3, 4])));
        let mut b = Log::new();
        b.upsert(LogEntry::new(s(1), 1, d(&[3, 4, 5])));
        a.merge(&b, cfg());
        assert_eq!(a.get(s(1), 1).unwrap().dests, d(&[3, 4]));
        assert_well_formed(&a);
    }

    #[test]
    fn merge_inserts_unknown_entries() {
        let mut a = Log::new();
        let mut b = Log::new();
        b.upsert(LogEntry::new(s(2), 7, d(&[0, 1])));
        a.merge(&b, cfg());
        assert_eq!(a.get(s(2), 7).unwrap().dests, d(&[0, 1]));
        assert_well_formed(&a);
    }

    #[test]
    fn merge_cross_prunes_against_markers() {
        // Local knows ⟨1,1⟩ only; incoming's marker for origin 1 is clock 3:
        // the local entry empties (and survives only as a marker candidate).
        let mut a = Log::new();
        a.upsert(LogEntry::new(s(1), 1, d(&[2, 3])));
        let mut b = Log::new();
        b.upsert(LogEntry::new(s(1), 3, d(&[4])));
        // Incoming also carries a stale ⟨1,2⟩... which the local side has
        // never seen but whose clock is older than nothing local — adopted.
        a.merge(&b, cfg());
        assert!(a.get(s(1), 1).is_none(), "superseded local entry purged");
        assert_eq!(a.get(s(1), 3).unwrap().dests, d(&[4]));

        // Symmetrically: incoming entries older than the local marker skip.
        let mut c = Log::new();
        c.upsert(LogEntry::new(s(1), 5, d(&[0])));
        let mut old = Log::new();
        old.upsert(LogEntry::new(s(1), 2, d(&[6, 7])));
        c.merge(&old, cfg());
        assert!(c.get(s(1), 2).is_none(), "stale incoming entry skipped");
        assert_eq!(c.get(s(1), 5).unwrap().dests, d(&[0]));
        assert_well_formed(&c);
    }

    #[test]
    fn remove_site_clears_membership_everywhere() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[0, 2])));
        log.upsert(LogEntry::new(s(3), 4, d(&[0])));
        log.remove_site(s(0));
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[2]));
        assert!(log.get(s(3), 4).unwrap().dests.is_empty());
        assert_well_formed(&log);
    }

    #[test]
    fn prune_applied_uses_clock_witness() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 3, d(&[0, 2])));
        log.upsert(LogEntry::new(s(1), 9, d(&[0, 2])));
        // Site 0 has applied writes from s1 up to clock 5: entry clock 3 is
        // known applied at 0, entry clock 9 is not.
        let mut last = vec![0u64; 4];
        last[1] = 5;
        log.prune_applied(s(0), &last);
        assert_eq!(log.get(s(1), 3).unwrap().dests, d(&[2]));
        assert_eq!(log.get(s(1), 9).unwrap().dests, d(&[0, 2]));
        assert_well_formed(&log);
    }

    #[test]
    fn prune_stable_empties_stable_entries_and_keeps_markers() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 2, d(&[0, 2])));
        log.upsert(LogEntry::new(s(1), 5, d(&[0])));
        log.upsert(LogEntry::new(s(2), 1, d(&[3])));
        // Frontier: origin 1 stable through clock 3, origin 2 through 1.
        let mut frontier = vec![0u64; 4];
        frontier[1] = 3;
        frontier[2] = 1;
        let removed = log.prune_stable(&frontier, cfg());
        // ⟨1,2⟩ was stable and not its run's tail: gone. ⟨1,5⟩ is above the
        // frontier: untouched. ⟨2,1⟩ was stable but is its origin's newest:
        // kept as an empty marker so latest_clock survives for MERGE.
        assert_eq!(removed, 1);
        assert!(log.get(s(1), 2).is_none());
        assert_eq!(log.get(s(1), 5).unwrap().dests, d(&[0]));
        assert!(log.get(s(2), 1).unwrap().dests.is_empty());
        assert_eq!(log.latest_clock(s(2)), Some(1));
        assert_well_formed(&log);
    }

    #[test]
    fn prune_stable_at_zero_frontier_is_a_noop() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[0, 2])));
        let before = log.clone();
        assert_eq!(log.prune_stable(&[0, 0, 0], cfg()), 0);
        assert_eq!(log, before);
    }

    #[test]
    fn latest_clock_per_origin() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 3, d(&[0])));
        log.upsert(LogEntry::new(s(1), 7, d(&[0])));
        log.upsert(LogEntry::new(s(2), 1, d(&[0])));
        assert_eq!(log.latest_clock(s(1)), Some(7));
        assert_eq!(log.latest_clock(s(2)), Some(1));
        assert_eq!(log.latest_clock(s(0)), None);
    }

    #[test]
    fn iteration_order_is_origin_then_clock() {
        let mut log = Log::new();
        // Insert out of order on purpose.
        log.upsert(LogEntry::new(s(2), 1, d(&[0])));
        log.upsert(LogEntry::new(s(0), 9, d(&[1])));
        log.upsert(LogEntry::new(s(0), 2, d(&[1])));
        log.upsert(LogEntry::new(s(1), 4, d(&[2])));
        let keys: Vec<_> = log.iter().map(|e| (e.origin, e.clock)).collect();
        assert_eq!(
            keys,
            vec![(s(0), 2), (s(0), 9), (s(1), 4), (s(2), 1)],
            "flattened runs must read in (origin, clock) order"
        );
    }

    #[test]
    fn meta_size_counts_scalars_and_dest_sets() {
        let m = SizeModel::java_like();
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[2, 3])));
        log.upsert(LogEntry::new(s(2), 1, d(&[4])));
        // Packed encoding: 2 entries × 3 words × 10 B = 60.
        assert_eq!(log.meta_size(&m), 60);
        // Wire encoding: 2 entries × 2 scalars × 4 B + 3 ids × 2 B = 22.
        assert_eq!(log.meta_size(&SizeModel::wire()), 22);
    }

    #[test]
    fn duplicate_insert_is_intersection_not_duplicate() {
        let mut log = Log::new();
        log.upsert(LogEntry::new(s(1), 1, d(&[2, 3])));
        log.upsert(LogEntry::new(s(1), 1, d(&[3, 4])));
        assert_eq!(log.len(), 1);
        assert_eq!(log.get(s(1), 1).unwrap().dests, d(&[3]));
        assert_well_formed(&log);
    }

    /// Strategy: a small random log.
    fn arb_log() -> impl Strategy<Value = Log> {
        proptest::collection::vec(
            (
                0usize..6,
                1u64..8,
                proptest::collection::vec(0usize..6, 0..6),
            ),
            0..12,
        )
        .prop_map(|items| {
            let mut log = Log::new();
            for (o, c, ds) in items {
                log.upsert(LogEntry::new(s(o), c, d(&ds)));
            }
            log
        })
    }

    proptest! {
        #[test]
        fn prop_normalize_is_idempotent(mut log in arb_log()) {
            log.normalize(cfg());
            let once = log.clone();
            log.normalize(cfg());
            prop_assert_eq!(log, once);
        }

        #[test]
        fn prop_normalize_never_grows_dests(log in arb_log()) {
            let mut n = log.clone();
            n.normalize(cfg());
            for e in n.iter() {
                let before = log.get(e.origin, e.clock).unwrap();
                prop_assert!(e.dests.is_subset(&before.dests));
            }
        }

        #[test]
        fn prop_merge_upper_bounds_knowledge(a in arb_log(), b in arb_log()) {
            // After merge, every write known to either side is known to the
            // result or was purged as empty/non-newest.
            let mut m = a.clone();
            m.merge(&b, cfg());
            for e in m.iter() {
                // Dests in the merge never exceed what either side knew.
                let da = a.get(e.origin, e.clock).map(|x| x.dests);
                let db = b.get(e.origin, e.clock).map(|x| x.dests);
                let bound = match (da, db) {
                    (Some(x), Some(y)) => x.intersect(&y),
                    (Some(x), None) | (None, Some(x)) => x,
                    (None, None) => DestSet::EMPTY,
                };
                prop_assert!(e.dests.is_subset(&bound));
            }
        }

        #[test]
        fn prop_entries_sorted_and_unique(a in arb_log(), b in arb_log()) {
            let mut m = a.clone();
            m.merge(&b, cfg());
            let keys: Vec<_> = m.iter().map(|e| (e.origin, e.clock)).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(keys, sorted);
        }

        #[test]
        fn prop_merge_commutative_on_normalized_logs(a in arb_log(), b in arb_log()) {
            // Two sound, normalized logs combine to the same knowledge
            // regardless of merge direction (intersection and the
            // newest-marker cross-pruning are both symmetric).
            let mut a = a;
            let mut b = b;
            a.normalize(cfg());
            b.normalize(cfg());
            let mut ab = a.clone();
            ab.merge(&b, cfg());
            let mut ba = b.clone();
            ba.merge(&a, cfg());
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_merge_idempotent(a in arb_log()) {
            let mut a = a;
            a.normalize(cfg());
            let mut aa = a.clone();
            aa.merge(&a, cfg());
            prop_assert_eq!(aa, a);
        }

        #[test]
        fn prop_markers_pin_latest_clock(mut log in arb_log()) {
            let latest_before: Vec<_> =
                (0..6).map(|o| log.latest_clock(s(o))).collect();
            log.normalize(cfg());
            for (o, expected) in latest_before.iter().enumerate() {
                // Normalization never loses track of the newest write per
                // origin (the marker rule).
                prop_assert_eq!(log.latest_clock(s(o)), *expected);
            }
        }

        #[test]
        fn prop_counters_track_contents(a in arb_log(), b in arb_log()) {
            // Every public mutation path keeps the log well formed.
            let mut m = a.clone();
            assert_well_formed(&m);
            m.merge(&b, cfg());
            assert_well_formed(&m);
            m.record_write(s(0), 99, d(&[1, 2, 3]), cfg());
            assert_well_formed(&m);
            m.remove_site(s(2));
            assert_well_formed(&m);
            let last = vec![4u64; 6];
            m.prune_applied(s(1), &last);
            assert_well_formed(&m);
            m.purge(cfg());
            assert_well_formed(&m);
        }
    }
}
