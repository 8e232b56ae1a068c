//! Byte-accounting model for message meta-data.
//!
//! The paper's headline metric is "message meta-data space overhead": the
//! number of bytes of causality-control information piggybacked on each SM /
//! FM / RM message. The absolute numbers in the paper come from a Java
//! implementation (JDK 8); from Table III we can reverse-engineer the
//! calibration exactly for the optP protocol: the average SM size is
//! `209 + 10·n` bytes, i.e. a 209-byte message base (headers + variable id +
//! value) plus 10 bytes per scalar (clock entry).
//!
//! [`SizeModel::java_like`] reproduces that calibration so that our measured
//! byte counts are directly comparable to the paper's tables.
//! [`SizeModel::wire`] is a tight binary encoding (4-byte scalars, small
//! headers) used by the `ablation_sizemodel` bench to show the paper's
//! conclusions do not depend on the Java calibration.

use crate::msg::MsgKind;
use serde::{Deserialize, Serialize};

/// How a log entry's destination set is encoded on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DestsEncoding {
    /// One scalar-sized word per destination **set** (a packed bitmask).
    /// This matches the paper's Java implementation, which keeps the
    /// Opt-Track log as "three primitive class lists ... ⟨j⟩, ⟨clock_j⟩,
    /// ⟨Dests⟩" — one primitive per field per entry.
    PackedWord,
    /// One site id per destination-set **member** (an explicit id list) —
    /// how a tight binary wire format would do it for large `n`.
    PerSiteId,
}

/// A byte-accounting calibration for message meta-data.
///
/// Meta-data size of a message = `base(kind)` + `scalar_bytes` × (number of
/// scalar fields in the piggybacked causality structure) + the destination
/// sets under [`DestsEncoding`]. The *value payload* is never counted — the
/// paper measures control overhead only.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SizeModel {
    /// Fixed overhead of an SM message (headers, variable id, value slot).
    pub sm_base: u32,
    /// Fixed overhead of an FM message. The paper calls the FM size "an
    /// invariant constant count" independent of `n` and `w_rate`.
    pub fm_base: u32,
    /// Fixed overhead of an RM message.
    pub rm_base: u32,
    /// Bytes charged per scalar (clock entry, counter, site id field,
    /// log-entry field).
    pub scalar_bytes: u32,
    /// Bytes charged per site id inside a [`DestsEncoding::PerSiteId`]
    /// destination list.
    pub site_id_bytes: u32,
    /// Destination-set encoding.
    pub dests: DestsEncoding,
    /// Fixed overhead of an `SmBatch` frame on top of one SM's worth of
    /// message base (batch header: count + flush-policy echo).
    pub batch_base: u32,
    /// Per-batched-SM framing overhead (flags + per-entry length) charged
    /// for every update folded into a batch frame.
    pub batch_sm_base: u32,
}

impl SizeModel {
    /// Calibration matching the paper's Java (JDK 8) measurements.
    ///
    /// `optP` SM meta-data = `209 + 10n` bytes exactly (Table III), and
    /// destination sets cost one packed word each (the paper's "three
    /// primitive class lists" remark).
    pub const fn java_like() -> Self {
        SizeModel {
            sm_base: 209,
            fm_base: 33,
            rm_base: 209,
            scalar_bytes: 10,
            site_id_bytes: 10,
            dests: DestsEncoding::PackedWord,
            batch_base: 33,
            batch_sm_base: 20,
        }
    }

    /// A tight binary wire encoding: 4-byte scalars, 2-byte site ids, small
    /// fixed headers, destination sets as explicit id lists.
    pub const fn wire() -> Self {
        SizeModel {
            sm_base: 24,
            fm_base: 12,
            rm_base: 24,
            scalar_bytes: 4,
            site_id_bytes: 2,
            dests: DestsEncoding::PerSiteId,
            batch_base: 8,
            batch_sm_base: 4,
        }
    }

    /// Fixed overhead for a message of the given kind.
    #[inline]
    pub fn base(&self, kind: MsgKind) -> u64 {
        match kind {
            MsgKind::Sm => self.sm_base as u64,
            MsgKind::Fm => self.fm_base as u64,
            MsgKind::Rm => self.rm_base as u64,
        }
    }

    /// Bytes for `count` scalar fields.
    #[inline]
    pub fn scalars(&self, count: usize) -> u64 {
        self.scalar_bytes as u64 * count as u64
    }

    /// Bytes for `count` site ids inside destination lists.
    #[inline]
    pub fn site_ids(&self, count: usize) -> u64 {
        self.site_id_bytes as u64 * count as u64
    }

    /// Bytes for a destination set with `members` sites.
    #[inline]
    pub fn dest_set(&self, members: usize) -> u64 {
        match self.dests {
            DestsEncoding::PackedWord => self.scalar_bytes as u64,
            DestsEncoding::PerSiteId => self.site_ids(members),
        }
    }

    /// Bytes for `sets` destination sets holding `members()` site ids in
    /// total: algebraically the sum of [`SizeModel::dest_set`] over the
    /// individual sets. `members` is called only under a model that charges
    /// per site id — a packed-word model prices a set by count alone — so
    /// the Opt-Track log counts its members only when a model reads them.
    #[inline]
    pub fn dest_sets_with(&self, sets: usize, members: impl FnOnce() -> usize) -> u64 {
        match self.dests {
            DestsEncoding::PackedWord => self.scalars(sets),
            DestsEncoding::PerSiteId => self.site_ids(members()),
        }
    }
}

impl Default for SizeModel {
    /// The default calibration is [`SizeModel::java_like`], for direct
    /// comparability with the paper's tables.
    fn default() -> Self {
        SizeModel::java_like()
    }
}

/// Types whose piggybacked meta-data size can be measured under a
/// [`SizeModel`].
///
/// Implemented by the causality structures (matrix clock, vector clock, KS
/// log) and by protocol messages. The returned size excludes the value
/// payload.
pub trait MetaSized {
    /// Meta-data bytes attributable to `self` under `model`.
    fn meta_size(&self, model: &SizeModel) -> u64;
}

impl<T: MetaSized> MetaSized for Option<T> {
    fn meta_size(&self, model: &SizeModel) -> u64 {
        self.as_ref().map_or(0, |t| t.meta_size(model))
    }
}

impl<T: MetaSized> MetaSized for std::sync::Arc<T> {
    fn meta_size(&self, model: &SizeModel) -> u64 {
        self.as_ref().meta_size(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_like_matches_table_iii_optp_formula() {
        // optP SM = base + n scalars = 209 + 10n.
        let m = SizeModel::java_like();
        for n in [5usize, 10, 20, 30, 35, 40] {
            let sm = m.base(MsgKind::Sm) + m.scalars(n);
            assert_eq!(sm, 209 + 10 * n as u64);
        }
    }

    #[test]
    fn wire_model_is_smaller_everywhere() {
        let j = SizeModel::java_like();
        let w = SizeModel::wire();
        for k in MsgKind::ALL {
            assert!(w.base(k) < j.base(k));
        }
        assert!(w.scalars(100) < j.scalars(100));
        assert!(w.site_ids(100) < j.site_ids(100));
    }

    #[test]
    fn dest_sets_matches_per_set_sum() {
        for model in [SizeModel::java_like(), SizeModel::wire()] {
            let members = [3usize, 0, 7, 1];
            let total: usize = members.iter().sum();
            let per_set: u64 = members.iter().map(|&m| model.dest_set(m)).sum();
            assert_eq!(model.dest_sets_with(members.len(), || total), per_set);
        }
        assert_eq!(SizeModel::java_like().dest_sets_with(0, || 0), 0);
    }

    #[test]
    fn dest_sets_with_counts_members_only_under_a_per_site_id_model() {
        let packed = SizeModel::java_like();
        let counted = |model: &SizeModel| {
            let mut asked = 0;
            let bytes = model.dest_sets_with(4, || {
                asked += 1;
                11
            });
            assert_eq!(bytes, model.dest_set(11) + 3 * model.dest_set(0));
            asked
        };
        assert_eq!(counted(&packed), 0, "a packed word is priced by count");
        assert_eq!(counted(&SizeModel::wire()), 1);
    }

    #[test]
    fn option_meta_size_is_zero_for_none() {
        struct Ten;
        impl MetaSized for Ten {
            fn meta_size(&self, _: &SizeModel) -> u64 {
                10
            }
        }
        let m = SizeModel::default();
        assert_eq!(None::<Ten>.meta_size(&m), 0);
        assert_eq!(Some(Ten).meta_size(&m), 10);
    }

    #[test]
    fn default_is_java_like() {
        assert_eq!(SizeModel::default(), SizeModel::java_like());
    }
}
