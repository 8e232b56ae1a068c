//! Protocol messages and their meta-data size accounting.
//!
//! Table I of the paper defines the message structures:
//!
//! | | Full-Track | Opt-Track |
//! |---|---|---|
//! | SM (multicast)     | `x_h, v, Write`            | `x_h, v, Site_id, clock, L_w` |
//! | FM (fetch)         | `x_h`                      | `x_h` |
//! | RM (remote return) | `v, LastWriteOn⟨h⟩`        | `v, LastWriteOn⟨h⟩` |
//!
//! Full-replication protocols only use SM: `m(x_h, v, Site_id, clock, LOG)`
//! for Opt-Track-CRP and `m(x_h, v, Write)` (a size-`n` vector) for optP.

use causal_clocks::{
    CrpDelta, CrpLog, Log, LogDelta, MatrixClock, MatrixDelta, VectorClock, VectorDelta,
};
use causal_types::{MetaSized, MsgKind, SizeModel, VarId, VersionedValue};
use std::sync::Arc;

/// The causality meta-data piggybacked on an SM (update multicast).
///
/// The piggybacked structures are behind `Arc`: a multicast write produces
/// one SM per destination replica carrying the *same immutable* snapshot, so
/// the fan-out shares one allocation instead of deep-cloning an `O(n²)`
/// matrix (or an `O(n)` log) per destination. Receivers that need a private
/// mutable copy (Opt-Track's `assoc` construction) unwrap-or-clone at apply
/// time.
#[derive(Clone, PartialEq, Debug)]
pub enum SmMeta {
    /// Full-Track: the writer's entire `n×n` Write matrix.
    FullTrack {
        /// Matrix snapshot taken *after* incrementing the writer's own row
        /// for this write's destinations.
        write: Arc<MatrixClock>,
    },
    /// Opt-Track: the writer's id and local write counter, plus the local
    /// log snapshot taken *before* the write pruned it.
    OptTrack {
        /// The writer's write counter for this update (1-based).
        clock: u64,
        /// Piggybacked causal-past records (`L_w`).
        log: Arc<Log>,
    },
    /// Opt-Track-CRP: as Opt-Track but with 2-tuple entries.
    Crp {
        /// The writer's write counter for this update (1-based).
        clock: u64,
        /// Piggybacked dependency tuples.
        log: Arc<CrpLog>,
    },
    /// optP: the writer's size-`n` Write vector, incremented for this write.
    OptP {
        /// Vector snapshot including this write.
        write: Arc<VectorClock>,
    },
}

impl SmMeta {
    /// Number of records in the piggybacked causality structure: matrix
    /// cells for Full-Track, log entries for Opt-Track / CRP, vector
    /// components for optP. Used to analyze the paper's `d` parameter and
    /// the amortized log size.
    pub fn entry_count(&self) -> usize {
        match self {
            SmMeta::FullTrack { write } => write.n() * write.n(),
            SmMeta::OptTrack { log, .. } => log.len(),
            SmMeta::Crp { log, .. } => log.len(),
            SmMeta::OptP { write } => write.len(),
        }
    }
}

impl MetaSized for SmMeta {
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            // `x_h` and `v` are part of the SM base in the SizeModel.
            SmMeta::FullTrack { write } => write.meta_size(model),
            // `Site_id` and `clock` are two scalars on top of the log.
            SmMeta::OptTrack { log, .. } => model.scalars(2) + log.meta_size(model),
            SmMeta::Crp { log, .. } => model.scalars(2) + log.meta_size(model),
            SmMeta::OptP { write } => write.meta_size(model),
        }
    }
}

/// Difference between two [`SmMeta`] piggybacks of the same variant (i.e.
/// two snapshots taken by the same sender under one protocol).
///
/// Used by the wire codec to encode the 2nd..Nth update of an [`SmBatch`]
/// relative to its predecessor — exact reconstruction, so batched and
/// unbatched decoding yield byte-identical protocol inputs. The per-SM
/// `clock` scalars stay outside the delta (they are per-update control
/// fields, not part of the shared structure).
#[derive(Clone, PartialEq, Debug)]
pub enum SmMetaDelta {
    /// Full-Track / HB-Track: changed matrix cells.
    FullTrack(MatrixDelta),
    /// Opt-Track: the update's own clock plus the log difference.
    OptTrack {
        /// The writer's write counter for this update.
        clock: u64,
        /// Exact log difference.
        delta: LogDelta,
    },
    /// Opt-Track-CRP: the update's own clock plus the 2-tuple differences.
    Crp {
        /// The writer's write counter for this update.
        clock: u64,
        /// Exact tuple replacements/removals.
        delta: CrpDelta,
    },
    /// optP: changed vector components.
    OptP(VectorDelta),
}

impl SmMetaDelta {
    /// Delta turning `prev` into `next`; `None` when the variants differ
    /// (mixed-protocol metas never share a batch, but the codec must not
    /// assume it).
    pub fn between(prev: &SmMeta, next: &SmMeta) -> Option<SmMetaDelta> {
        match (prev, next) {
            (SmMeta::FullTrack { write: a }, SmMeta::FullTrack { write: b }) => {
                Some(SmMetaDelta::FullTrack(MatrixDelta::between(a, b)))
            }
            (SmMeta::OptTrack { log: a, .. }, SmMeta::OptTrack { clock, log: b }) => {
                Some(SmMetaDelta::OptTrack {
                    clock: *clock,
                    delta: LogDelta::between(a, b),
                })
            }
            (SmMeta::Crp { log: a, .. }, SmMeta::Crp { clock, log: b }) => Some(SmMetaDelta::Crp {
                clock: *clock,
                delta: CrpDelta::between(a, b),
            }),
            (SmMeta::OptP { write: a }, SmMeta::OptP { write: b }) => {
                Some(SmMetaDelta::OptP(VectorDelta::between(a, b)))
            }
            _ => None,
        }
    }

    /// Reconstruct the successor meta from its predecessor; `None` when the
    /// variants differ (a corrupt frame, surfaced as a decode error).
    pub fn apply_to(&self, prev: &SmMeta) -> Option<SmMeta> {
        match (self, prev) {
            (SmMetaDelta::FullTrack(d), SmMeta::FullTrack { write }) => Some(SmMeta::FullTrack {
                write: Arc::new(d.apply_to(write)),
            }),
            (SmMetaDelta::OptTrack { clock, delta }, SmMeta::OptTrack { log, .. }) => {
                Some(SmMeta::OptTrack {
                    clock: *clock,
                    log: Arc::new(delta.apply_to(log)),
                })
            }
            (SmMetaDelta::Crp { clock, delta }, SmMeta::Crp { log, .. }) => Some(SmMeta::Crp {
                clock: *clock,
                log: Arc::new(delta.apply_to(log)),
            }),
            (SmMetaDelta::OptP(d), SmMeta::OptP { write }) => Some(SmMeta::OptP {
                write: Arc::new(d.apply_to(write)),
            }),
            _ => None,
        }
    }
}

impl MetaSized for SmMetaDelta {
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            SmMetaDelta::FullTrack(d) => d.meta_size(model),
            SmMetaDelta::OptTrack { delta, .. } => model.scalars(1) + delta.meta_size(model),
            SmMetaDelta::Crp { delta, .. } => model.scalars(1) + delta.meta_size(model),
            SmMetaDelta::OptP(d) => d.meta_size(model),
        }
    }
}

/// An update multicast message (one copy per destination replica).
#[derive(Clone, PartialEq, Debug)]
pub struct Sm {
    /// The written variable.
    pub var: VarId,
    /// The written value (tagged with the producing [`causal_types::WriteId`]).
    pub value: VersionedValue,
    /// Piggybacked causality meta-data.
    pub meta: SmMeta,
}

impl Sm {
    /// `true` when `other` is another copy of this very multicast: the same
    /// write carrying the *same allocation* as its piggyback — what every
    /// protocol's `write` emits toward each destination replica. An `O(1)`
    /// test that implies `self == other`, so a transport may ship one body
    /// for all the copies.
    pub fn same_multicast(&self, other: &Sm) -> bool {
        self.var == other.var
            && self.value == other.value
            && match (&self.meta, &other.meta) {
                (SmMeta::FullTrack { write: a }, SmMeta::FullTrack { write: b }) => {
                    Arc::ptr_eq(a, b)
                }
                (
                    SmMeta::OptTrack { clock: ca, log: a },
                    SmMeta::OptTrack { clock: cb, log: b },
                ) => ca == cb && Arc::ptr_eq(a, b),
                (SmMeta::Crp { clock: ca, log: a }, SmMeta::Crp { clock: cb, log: b }) => {
                    ca == cb && Arc::ptr_eq(a, b)
                }
                (SmMeta::OptP { write: a }, SmMeta::OptP { write: b }) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

/// One update inside an [`SmBatch`], with the bookkeeping the simulator
/// needs to unbatch it exactly as if it had been sent alone.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchedSm {
    /// The update, with its *exact* per-send piggyback snapshot — unbatching
    /// hands each SM to the protocol byte-identically to the unbatched path,
    /// so per-SM causal semantics (and the checker) are untouched.
    pub sm: Sm,
    /// Whether the update was issued inside the measured (post-warmup)
    /// window.
    pub measured: bool,
}

/// A per-destination batch of SM messages from one sender.
///
/// ROADMAP item #2: consecutive updates from one site to one destination
/// share most of their causal context, so a batch frame amortizes the
/// piggyback across its updates. The in-memory representation keeps every
/// update's exact meta (see [`BatchedSm::sm`]); the *byte accounting*
/// ([`SmBatch::meta_size`]) models the merged-piggyback wire format: one
/// structure — the final update's, which supersedes its same-sender
/// predecessors (matrix/vector snapshots are monotone under `merge_max`;
/// a KS/CRP log's dropped entries are exactly the ones proven redundant) —
/// plus a small control header per update. `docs/PROTOCOLS.md` maps this
/// format onto each protocol's delivery predicate.
#[derive(Clone, PartialEq, Debug)]
pub struct SmBatch {
    /// Updates in send order (oldest first). Never empty, same sender,
    /// same destination.
    pub sms: Vec<BatchedSm>,
}

impl SmBatch {
    /// Number of batched updates.
    pub fn len(&self) -> usize {
        self.sms.len()
    }

    /// `true` when the batch holds no updates (never shipped; exists so
    /// `len` passes clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.sms.is_empty()
    }

    /// Per-update control scalars beyond the shared piggyback: the variable
    /// id, the writer's clock, and — for the log protocols, whose delivery
    /// predicate consumes a per-update send counter — the meta clock. The
    /// writer's site id is once per frame (same sender), charged in
    /// `batch_base`.
    fn control_scalars(sm: &Sm) -> usize {
        match sm.meta {
            SmMeta::OptTrack { .. } | SmMeta::Crp { .. } => 3,
            SmMeta::FullTrack { .. } | SmMeta::OptP { .. } => 2,
        }
    }

    /// Meta-data bytes of the batch frame under the merged-piggyback model:
    /// `batch_base` + the final update's full piggyback + per update
    /// `batch_sm_base` plus its control scalars. The value payloads are not
    /// counted, as everywhere else.
    pub fn batch_meta_size(&self, model: &SizeModel) -> u64 {
        let merged = self.sms.last().map_or(0, |b| b.sm.meta.meta_size(model));
        let per_sm: u64 = self
            .sms
            .iter()
            .map(|b| model.batch_sm_base as u64 + model.scalars(Self::control_scalars(&b.sm)))
            .sum();
        model.batch_base as u64 + merged + per_sm
    }
}

/// A remote fetch request. Carries no causal meta-data (Table I): the
/// serving replica answers from its current state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fm {
    /// The requested variable.
    pub var: VarId,
}

/// The `LastWriteOn⟨h⟩` meta-data returned with a remote read.
///
/// Shares the server's stored snapshot via `Arc` — serving a fetch does not
/// deep-clone the stashed matrix/log.
#[derive(Clone, PartialEq, Debug)]
pub enum RmMeta {
    /// Full-Track: the matrix associated with the last write applied to the
    /// variable, or `None` if the variable is still `⊥` at the server.
    FullTrack(Option<Arc<MatrixClock>>),
    /// Opt-Track: the log associated with the last write applied to the
    /// variable, or `None` if the variable is still `⊥` at the server.
    OptTrack(Option<Arc<Log>>),
}

impl MetaSized for RmMeta {
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            RmMeta::FullTrack(m) => m.meta_size(model),
            RmMeta::OptTrack(l) => l.meta_size(model),
        }
    }
}

/// A remote-return message answering an [`Fm`].
#[derive(Clone, PartialEq, Debug)]
pub struct Rm {
    /// The requested variable (echoed for correlation).
    pub var: VarId,
    /// The server's current value, `None` for `⊥`.
    pub value: Option<VersionedValue>,
    /// The server's `LastWriteOn⟨h⟩`.
    pub meta: RmMeta,
}

/// Any protocol message.
#[derive(Clone, PartialEq, Debug)]
pub enum Msg {
    /// Update multicast (send event).
    Sm(Sm),
    /// Remote fetch (fetch event).
    Fm(Fm),
    /// Remote return (reply to a fetch).
    Rm(Rm),
    /// A per-destination batch of updates (`Arc`'d: the enum stays small
    /// and cloning a batch for retransmission is a refcount bump).
    Batch(Arc<SmBatch>),
}

impl Msg {
    /// This message's class. A batch is SM traffic — it carries updates and
    /// is accounted against the SM byte counters.
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Sm(_) | Msg::Batch(_) => MsgKind::Sm,
            Msg::Fm(_) => MsgKind::Fm,
            Msg::Rm(_) => MsgKind::Rm,
        }
    }

    /// The updates this message carries: one for an SM, every batched one
    /// (in send order) for a batch frame, none for an FM or RM.
    pub fn sms(&self) -> impl Iterator<Item = &Sm> {
        let (one, many) = match self {
            Msg::Sm(sm) => (Some(sm), None),
            Msg::Batch(b) => (None, Some(b.sms.iter().map(|bs| &bs.sm))),
            Msg::Fm(_) | Msg::Rm(_) => (None, None),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl MetaSized for Msg {
    /// Full meta-data footprint: per-kind base plus piggybacked structures.
    /// The value payload is intentionally *not* included (the paper measures
    /// control overhead only).
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            Msg::Sm(sm) => model.base(MsgKind::Sm) + sm.meta.meta_size(model),
            Msg::Fm(_) => model.base(MsgKind::Fm),
            Msg::Rm(rm) => model.base(MsgKind::Rm) + rm.meta.meta_size(model),
            // One SM's worth of message base for the frame, then the
            // merged-piggyback batch accounting.
            Msg::Batch(b) => model.base(MsgKind::Sm) + b.batch_meta_size(model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_types::{SiteId, WriteId};

    fn value() -> VersionedValue {
        VersionedValue::new(WriteId::new(SiteId(0), 1), 42)
    }

    #[test]
    fn optp_sm_size_matches_table_iii() {
        let model = SizeModel::java_like();
        for n in [5usize, 10, 20, 30, 35, 40] {
            let m = Msg::Sm(Sm {
                var: VarId(0),
                value: value(),
                meta: SmMeta::OptP {
                    write: Arc::new(VectorClock::new(n)),
                },
            });
            assert_eq!(m.meta_size(&model), 209 + 10 * n as u64);
        }
    }

    #[test]
    fn full_track_sm_is_quadratic() {
        let model = SizeModel::java_like();
        let m = Msg::Sm(Sm {
            var: VarId(0),
            value: value(),
            meta: SmMeta::FullTrack {
                write: Arc::new(MatrixClock::new(40)),
            },
        });
        assert_eq!(m.meta_size(&model), 209 + 10 * 1600);
    }

    #[test]
    fn fm_is_constant_base_only() {
        let model = SizeModel::java_like();
        let m = Msg::Fm(Fm { var: VarId(7) });
        assert_eq!(m.meta_size(&model), model.base(MsgKind::Fm));
    }

    #[test]
    fn rm_with_bottom_value_has_base_size_only() {
        let model = SizeModel::java_like();
        let m = Msg::Rm(Rm {
            var: VarId(0),
            value: None,
            meta: RmMeta::OptTrack(None),
        });
        assert_eq!(m.meta_size(&model), model.base(MsgKind::Rm));
    }

    #[test]
    fn crp_sm_counts_sender_tuple_and_log() {
        let model = SizeModel::java_like();
        let mut log = CrpLog::new();
        log.observe(WriteId::new(SiteId(2), 9));
        let m = Msg::Sm(Sm {
            var: VarId(0),
            value: value(),
            meta: SmMeta::Crp {
                clock: 1,
                log: Arc::new(log),
            },
        });
        // base 209 + (site id + clock) 20 + one 2-tuple 20.
        assert_eq!(m.meta_size(&model), 209 + 20 + 20);
    }

    fn batch_of(metas: Vec<SmMeta>) -> SmBatch {
        SmBatch {
            sms: metas
                .into_iter()
                .enumerate()
                .map(|(i, meta)| BatchedSm {
                    sm: Sm {
                        var: VarId(i as u32),
                        value: VersionedValue::new(WriteId::new(SiteId(0), i as u64 + 1), 7),
                        meta,
                    },
                    measured: true,
                })
                .collect(),
        }
    }

    #[test]
    fn batch_amortizes_the_piggyback() {
        // k matrix-carrying SMs in one frame: one matrix + k small headers,
        // against k full matrices unbatched.
        let model = SizeModel::wire();
        let k = 16;
        let batch = batch_of(
            (0..k)
                .map(|_| SmMeta::FullTrack {
                    write: Arc::new(MatrixClock::new(20)),
                })
                .collect(),
        );
        let batched = Msg::Batch(Arc::new(batch.clone())).meta_size(&model);
        let unbatched: u64 = (batch.sms.iter())
            .map(|b| model.base(MsgKind::Sm) + b.sm.meta.meta_size(&model))
            .sum();
        assert!(
            batched * 10 <= unbatched,
            "expected ≥10× amortization at k={k}: {batched} vs {unbatched}"
        );
        // Exact formula: sm_base + batch_base + one matrix + k·(per-SM).
        assert_eq!(batched, 24 + 8 + 400 * 4 + k as u64 * (4 + 2 * 4),);
    }

    #[test]
    fn singleton_batch_costs_more_than_a_plain_sm() {
        // The flush path must degrade a one-element lane to a plain SM;
        // this pins the reason (the batch framing is pure overhead at k=1).
        let model = SizeModel::wire();
        let meta = SmMeta::OptP {
            write: Arc::new(VectorClock::new(10)),
        };
        let single = batch_of(vec![meta.clone()]);
        let plain = Msg::Sm(single.sms[0].sm.clone()).meta_size(&model);
        assert!(Msg::Batch(Arc::new(single)).meta_size(&model) > plain);
    }

    #[test]
    fn sm_meta_delta_roundtrips_per_variant() {
        let mut m1 = MatrixClock::new(4);
        m1.set(SiteId(0), SiteId(1), 2);
        let mut m2 = m1.clone();
        m2.increment(SiteId(0), SiteId(1));
        let prev = SmMeta::FullTrack {
            write: Arc::new(m1),
        };
        let next = SmMeta::FullTrack {
            write: Arc::new(m2),
        };
        let d = SmMetaDelta::between(&prev, &next).unwrap();
        assert_eq!(d.apply_to(&prev), Some(next));

        // Variant mismatch: no delta, and apply refuses.
        let optp = SmMeta::OptP {
            write: Arc::new(VectorClock::new(4)),
        };
        assert!(SmMetaDelta::between(&prev, &optp).is_none());
        assert_eq!(d.apply_to(&optp), None);
    }

    #[test]
    fn kind_taxonomy() {
        assert_eq!(Msg::Fm(Fm { var: VarId(0) }).kind(), MsgKind::Fm);
        let rm = Msg::Rm(Rm {
            var: VarId(0),
            value: None,
            meta: RmMeta::FullTrack(None),
        });
        assert_eq!(rm.kind(), MsgKind::Rm);
    }
}
