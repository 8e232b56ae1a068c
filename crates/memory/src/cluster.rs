//! A synchronous in-process cluster.
//!
//! `LocalCluster` is the smallest harness around [`SiteDriver`]: `n`
//! drivers wired together with zero-latency FIFO delivery, every message
//! delivered and processed before the issuing operation returns. No lanes,
//! no clock, no metrics — a deterministic, totally ordered execution that is
//! convenient for examples, tutorials and protocol unit tests. The
//! discrete-event simulator in `causal-simnet` is the instrument for the
//! paper's experiments — it models latency and reordering across senders;
//! this cluster intentionally does not.

use causal_proto::{Output, ProtocolConfig, ProtocolKind, ProtocolSite, Replication, SiteDriver};
use causal_types::{MsgKind, SiteId, SizeModel, VarId, VersionedValue, WriteId};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::placement::Placement;

/// An observable event of a cluster execution.
#[derive(Clone, PartialEq, Debug)]
pub enum ClusterEvent {
    /// `write` was applied at `site`'s replica of `var`.
    Applied {
        /// The applying site.
        site: SiteId,
        /// The updated variable.
        var: VarId,
        /// The applied write.
        write: WriteId,
    },
    /// A message of kind `kind` travelled `from → to` carrying `meta_bytes`
    /// of causality meta-data.
    Message {
        /// Sending site.
        from: SiteId,
        /// Receiving site.
        to: SiteId,
        /// SM / FM / RM.
        kind: MsgKind,
        /// Meta-data bytes under the default size model.
        meta_bytes: u64,
    },
}

/// `n` protocol sites with synchronous, zero-latency FIFO delivery.
pub struct LocalCluster {
    sites: Vec<SiteDriver>,
    events: Vec<ClusterEvent>,
}

impl LocalCluster {
    /// Build a cluster of `placement.n()` sites all running `kind`.
    pub fn new(kind: ProtocolKind, placement: Arc<Placement>, cfg: ProtocolConfig) -> Self {
        let repl: Arc<dyn Replication> = placement;
        let model = SizeModel::default();
        let sites = SiteId::all(repl.n())
            .map(|s| SiteDriver::new(kind, s, repl.clone(), cfg, model, None))
            .collect();
        LocalCluster {
            sites,
            events: Vec::new(),
        }
    }

    /// Number of sites.
    pub fn n(&self) -> usize {
        self.sites.len()
    }

    /// Issue `w(var)data` at `site`, delivering all resulting messages
    /// before returning.
    pub fn write(&mut self, site: SiteId, var: VarId, data: u64) -> WriteId {
        let mut out = Vec::new();
        let (wid, _) = self.sites[site.index()].write(0, var, data, 0, true, &mut out);
        self.run(site, out);
        wid
    }

    /// Issue `r(var)` at `site`. Remote fetches complete synchronously.
    pub fn read(&mut self, site: SiteId, var: VarId) -> Option<VersionedValue> {
        let mut out = Vec::new();
        self.sites[site.index()].read(0, var, true, &mut out);
        self.run(site, out)
            .expect("synchronous delivery must complete the read")
    }

    /// Run `origin`'s outputs and everything they cause, breadth-first,
    /// until quiescence. Returns the value of the read that completed, if
    /// one did.
    fn run(&mut self, origin: SiteId, out: Vec<Output>) -> Option<Option<VersionedValue>> {
        let mut queue: VecDeque<_> = out.into_iter().map(|o| (origin, o)).collect();
        let (mut read, mut out) = (None, Vec::new());
        while let Some((from, o)) = queue.pop_front() {
            match o {
                Output::Send {
                    dsts, msg, bytes, ..
                } => {
                    for to in dsts.iter() {
                        self.events.push(ClusterEvent::Message {
                            from,
                            to,
                            kind: msg.kind(),
                            meta_bytes: bytes,
                        });
                        self.sites[to.index()].on_message(0, from, msg.clone(), true, &mut out);
                        queue.extend(out.drain(..).map(|o| (to, o)));
                    }
                }
                Output::Applied { var, write, .. } => self.events.push(ClusterEvent::Applied {
                    site: from,
                    var,
                    write,
                }),
                Output::ReadDone { value, .. } => read = Some(value),
                Output::ArmLaneTimer { .. } => unreachable!("a cluster without lanes"),
            }
        }
        read
    }

    /// Drain the recorded events.
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    /// Direct access to a site (diagnostics, assertions).
    pub fn site(&self, s: SiteId) -> &dyn ProtocolSite {
        self.sites[s.index()].site()
    }

    /// Total parked updates across all sites. In a synchronous cluster this
    /// must be zero between operations — delivery is instantaneous and the
    /// activation predicate can always be satisfied immediately.
    pub fn total_pending(&self) -> usize {
        self.sites.iter().map(|d| d.site().pending_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;

    fn cluster(kind: ProtocolKind, n: usize, partial: bool) -> LocalCluster {
        let placement = if partial {
            Arc::new(Placement::paper_partial(n).unwrap())
        } else {
            Arc::new(Placement::full(n).unwrap())
        };
        LocalCluster::new(kind, placement, ProtocolConfig::default())
    }

    #[test]
    fn write_then_read_everywhere_full_replication() {
        for kind in [ProtocolKind::OptTrackCrp, ProtocolKind::OptP] {
            let mut c = cluster(kind, 5, false);
            let w = c.write(SiteId(0), VarId(3), 42);
            for s in SiteId::all(5) {
                let v = c.read(s, VarId(3)).expect("value replicated everywhere");
                assert_eq!(v.writer, w);
                assert_eq!(v.data, 42);
            }
            assert_eq!(c.total_pending(), 0);
        }
    }

    #[test]
    fn write_then_read_everywhere_partial_replication() {
        for kind in [ProtocolKind::FullTrack, ProtocolKind::OptTrack] {
            let mut c = cluster(kind, 10, true);
            let w = c.write(SiteId(0), VarId(7), 7);
            for s in SiteId::all(10) {
                let v = c.read(s, VarId(7)).expect("local or fetched");
                assert_eq!(v.writer, w, "{kind} at {s}");
            }
            assert_eq!(c.total_pending(), 0);
        }
    }

    #[test]
    fn message_counts_match_paper_formulas_for_writes() {
        // Opt-Track write: (p-1) SMs if the writer replicates the variable,
        // p otherwise.
        let n = 10;
        let mut c = cluster(ProtocolKind::OptTrack, n, true);
        let placement = Placement::paper_partial(n).unwrap();
        let p = placement.p();
        for v in 0..20u32 {
            c.take_events();
            let writer = SiteId(0);
            c.write(writer, VarId(v), 1);
            let sms = c
                .take_events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ClusterEvent::Message {
                            kind: MsgKind::Sm,
                            ..
                        }
                    )
                })
                .count();
            let expected = if placement.replicas(VarId(v)).contains(writer) {
                p - 1
            } else {
                p
            };
            assert_eq!(sms, expected, "var {v}");
        }
    }

    #[test]
    fn remote_read_generates_fm_and_rm() {
        let n = 10;
        let mut c = cluster(ProtocolKind::OptTrack, n, true);
        c.write(SiteId(0), VarId(0), 5);
        c.take_events();
        // Var 0 replicas are sites {0,1,2}; site 5 must fetch.
        let v = c.read(SiteId(5), VarId(0)).unwrap();
        assert_eq!(v.data, 5);
        let kinds: Vec<MsgKind> = c
            .take_events()
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::Message { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![MsgKind::Fm, MsgKind::Rm]);
    }

    #[test]
    fn local_read_generates_no_messages() {
        let n = 10;
        let mut c = cluster(ProtocolKind::OptTrack, n, true);
        c.write(SiteId(0), VarId(0), 5);
        c.take_events();
        c.read(SiteId(1), VarId(0)); // site 1 replicates var 0
        assert!(c.take_events().is_empty());
    }

    #[test]
    fn clustered_placement_works_end_to_end() {
        let placement = Arc::new(Placement::new(PlacementKind::Clustered, 9, 3).unwrap());
        let mut c = LocalCluster::new(ProtocolKind::OptTrack, placement, ProtocolConfig::default());
        let w = c.write(SiteId(4), VarId(11), 9);
        for s in SiteId::all(9) {
            assert_eq!(c.read(s, VarId(11)).unwrap().writer, w);
        }
    }

    #[test]
    fn causal_chain_visible_in_apply_events() {
        let mut c = cluster(ProtocolKind::OptTrackCrp, 3, false);
        let w1 = c.write(SiteId(0), VarId(0), 1);
        c.read(SiteId(1), VarId(0));
        let w2 = c.write(SiteId(1), VarId(1), 2);
        // At every site, w1 must have been applied before w2.
        let events = c.take_events();
        for s in SiteId::all(3) {
            let order: Vec<WriteId> = events
                .iter()
                .filter_map(|e| match e {
                    ClusterEvent::Applied { site, write, .. } if *site == s => Some(*write),
                    _ => None,
                })
                .collect();
            let i1 = order.iter().position(|w| *w == w1).unwrap();
            let i2 = order.iter().position(|w| *w == w2).unwrap();
            assert!(i1 < i2, "site {s} applied out of causal order");
        }
    }
}
