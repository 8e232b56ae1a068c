//! Naive flat-vector reference implementation of the Opt-Track log.
//!
//! [`NaiveLog`] is the original `Log` implementation: a single
//! `Vec<LogEntry>` sorted by `(origin, clock)`, with every operation a linear
//! (or binary-search-per-entry) scan. It is deliberately simple — each method
//! is a direct transcription of the paper's MERGE / PURGE rules — and it is
//! **retained as the executable specification** for the indexed [`Log`]
//! (crate::log): the differential proptests in `log_differential.rs`
//! replay arbitrary operation interleavings against both structures and
//! require identical observable state (entry sets, destination sets, sizes)
//! after every step.
//!
//! It is compiled for the crate's tests only; no run uses it.
//!
//! [`Log`]: crate::Log

use crate::dests::DestSet;
use crate::log::{LogEntry, PruneConfig};
use causal_types::{MetaSized, SiteId, SizeModel};
use std::fmt;

/// The flat `Vec<LogEntry>` reference log (see module docs).
///
/// Entries are kept sorted by `(origin, clock)`; all operations preserve the
/// invariant. The log never contains two entries for the same write.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct NaiveLog {
    entries: Vec<LogEntry>,
}

impl NaiveLog {
    /// The empty log.
    pub fn new() -> Self {
        NaiveLog::default()
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
        self.position(origin, clock).map(|i| &self.entries[i])
    }

    /// The newest clock this log knows for `origin` (marker entries count).
    pub fn latest_clock(&self, origin: SiteId) -> Option<u64> {
        // Entries are sorted by (origin, clock): scan the origin's group end.
        let mut latest = None;
        for e in &self.entries {
            if e.origin == origin {
                latest = Some(e.clock);
            } else if e.origin > origin {
                break;
            }
        }
        latest
    }

    fn position(&self, origin: SiteId, clock: u64) -> Option<usize> {
        self.entries
            .binary_search_by(|e| (e.origin, e.clock).cmp(&(origin, clock)))
            .ok()
    }

    fn insert_sorted(&mut self, entry: LogEntry) {
        match self
            .entries
            .binary_search_by(|e| (e.origin, e.clock).cmp(&(entry.origin, entry.clock)))
        {
            Ok(i) => {
                // Same write already present: combine knowledge (both sides'
                // prunings are sound, so intersect).
                let d = self.entries[i].dests.intersect(&entry.dests);
                self.entries[i].dests = d;
            }
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Insert or combine an entry (destination sets of a duplicate write are
    /// intersected).
    pub fn upsert(&mut self, entry: LogEntry) {
        self.insert_sorted(entry);
    }

    /// Record a local write: implicit condition 2 prunes every existing
    /// entry's destinations by the new write's destination set, empties are
    /// purged and the write's own entry is appended.
    pub fn record_write(&mut self, origin: SiteId, clock: u64, dests: DestSet, cfg: PruneConfig) {
        if cfg.condition2 {
            let mut covered = dests;
            if cfg.pin_self {
                covered.remove(origin);
            }
            for e in &mut self.entries {
                e.dests.subtract(&covered);
            }
        }
        self.insert_sorted(LogEntry::new(origin, clock, dests));
        self.normalize(cfg);
    }

    /// Implicit condition 1 for a single site: remove `site` from every
    /// entry's destination set.
    pub fn remove_site(&mut self, site: SiteId) {
        for e in &mut self.entries {
            e.dests.remove(site);
        }
    }

    /// Implicit condition 1 driven by apply knowledge: remove `site` from
    /// every entry whose write is already applied at `site`, as witnessed by
    /// `last_applied_clock[origin]`.
    pub fn prune_applied(&mut self, site: SiteId, last_applied_clock: &[u64]) {
        for e in &mut self.entries {
            if e.dests.contains(site) && e.clock <= last_applied_clock[e.origin.index()] {
                e.dests.remove(site);
            }
        }
    }

    /// A site left the system for good: drop its originated entries and
    /// remove it from every remaining destination set. See
    /// `crate::Log::forget_site` for the soundness argument.
    pub fn forget_site(&mut self, departed: SiteId, cfg: PruneConfig) {
        self.entries.retain(|e| e.origin != departed);
        self.remove_site(departed);
        self.normalize(cfg);
    }

    /// MERGE: fold the piggybacked log `incoming` into this local log, then
    /// normalize. See `crate::Log::merge` for the rule derivation.
    pub fn merge(&mut self, incoming: &NaiveLog, cfg: PruneConfig) {
        self.entries.reserve(incoming.entries.len());
        if cfg.condition2 {
            // Local entries fully superseded by the incoming side's
            // knowledge lose their destinations (purged below).
            for e in &mut self.entries {
                if incoming.get(e.origin, e.clock).is_none()
                    && incoming.latest_clock(e.origin) > Some(e.clock)
                {
                    e.dests = DestSet::EMPTY;
                }
            }
            // Pre-merge local markers decide which incoming entries are
            // already known-redundant here.
            let local_latest: Vec<(SiteId, u64)> = {
                let mut v: Vec<(SiteId, u64)> = Vec::new();
                for e in &self.entries {
                    match v.last_mut() {
                        Some((o, c)) if *o == e.origin => *c = e.clock,
                        _ => v.push((e.origin, e.clock)),
                    }
                }
                v
            };
            let latest_of = |origin: SiteId| -> Option<u64> {
                local_latest
                    .binary_search_by(|(o, _)| o.cmp(&origin))
                    .ok()
                    .map(|i| local_latest[i].1)
            };
            for e in &incoming.entries {
                if self.get(e.origin, e.clock).is_none() && latest_of(e.origin) > Some(e.clock) {
                    continue;
                }
                self.insert_sorted(*e);
            }
        } else {
            for e in &incoming.entries {
                self.insert_sorted(*e);
            }
        }
        self.normalize(cfg);
    }

    /// Normalization pass: same-sender condition 2 followed by a purge of
    /// empty entries (keeping the newest entry per origin as a marker when
    /// configured).
    pub fn normalize(&mut self, cfg: PruneConfig) {
        if cfg.condition2 {
            // Entries are sorted by (origin, clock); walk each origin group
            // from newest to oldest, accumulating the union of newer dests.
            let mut group_end = self.entries.len();
            while group_end > 0 {
                let origin = self.entries[group_end - 1].origin;
                let mut group_start = group_end;
                while group_start > 0 && self.entries[group_start - 1].origin == origin {
                    group_start -= 1;
                }
                let mut newer = DestSet::EMPTY;
                for i in (group_start..group_end).rev() {
                    self.entries[i].dests.subtract(&newer);
                    newer = newer.union(&self.entries[i].dests);
                }
                group_end = group_start;
            }
        }
        self.purge(cfg);
    }

    /// Drop entries with empty destination sets. With `cfg.keep_markers`,
    /// the newest entry of each origin survives even when empty.
    pub fn purge(&mut self, cfg: PruneConfig) {
        let entries = &mut self.entries;
        let len = entries.len();
        let mut keep = Vec::with_capacity(len);
        for i in 0..len {
            let e = &entries[i];
            let is_newest_of_origin = i + 1 >= len || entries[i + 1].origin != e.origin;
            keep.push(!e.dests.is_empty() || (cfg.keep_markers && is_newest_of_origin));
        }
        let mut i = 0;
        entries.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Causal-stability GC (spec of `crate::Log::prune_stable`): empty the
    /// destinations of entries at or below the stable frontier, then purge.
    /// Returns the number of entries removed.
    pub fn prune_stable(&mut self, frontier: &[u64], cfg: PruneConfig) -> usize {
        for e in &mut self.entries {
            if frontier
                .get(e.origin.index())
                .is_some_and(|&f| e.clock <= f)
            {
                e.dests = DestSet::EMPTY;
            }
        }
        let before = self.entries.len();
        self.purge(cfg);
        before - self.entries.len()
    }

    /// Total number of site ids across all destination lists.
    pub fn dest_id_count(&self) -> usize {
        self.entries.iter().map(|e| e.dests.len()).sum()
    }
}

impl fmt::Debug for NaiveLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NaiveLog[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{},{},{:?}⟩", e.origin, e.clock, e.dests)?;
        }
        write!(f, "]")
    }
}

impl MetaSized for NaiveLog {
    /// Recomputed from scratch on every call — the behaviour the indexed
    /// log's incremental accounting must reproduce exactly.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        let mut total = model.scalars(2 * self.len());
        for e in &self.entries {
            total += model.dest_set(e.dests.len());
        }
        total
    }
}
