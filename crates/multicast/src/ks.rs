//! The KS (Kshemkalyani–Singhal) optimal causal multicast node.

use crate::{CausalMulticast, Delivery};
use causal_clocks::{DestSet, Log, LogEntry, PruneConfig};
use causal_types::{MetaSized, SiteId, SizeModel, WriteId};
use std::collections::VecDeque;

/// A KS multicast message: sender sequence number, destination set and the
/// piggybacked log of causally preceding multicasts whose destination
/// information is still relevant.
#[derive(Clone, PartialEq, Debug)]
pub struct KsMsg {
    /// Per-sender sequence number (1-based).
    pub seq: u64,
    /// The full destination set of this multicast.
    pub dests: DestSet,
    /// Piggybacked causal-past records.
    pub log: Log,
    /// Application payload.
    pub payload: u64,
}

/// One process running the KS algorithm.
pub struct KsNode {
    me: SiteId,
    n: usize,
    clock: u64,
    /// Largest sequence number delivered per sender. Messages from one
    /// sender to one destination travel FIFO in seq order, so this is an
    /// exact delivery witness (the same argument as Opt-Track's
    /// `LastClock`).
    delivered: Vec<u64>,
    log: Log,
    /// Per-sender FIFO buffers of undeliverable messages.
    parked: Vec<VecDeque<KsMsg>>,
    prune: PruneConfig,
    last_piggyback: Log,
}

impl KsNode {
    /// A fresh node `me` in an `n`-process group.
    pub fn new(me: SiteId, n: usize) -> Self {
        KsNode {
            me,
            n,
            clock: 0,
            delivered: vec![0; n],
            log: Log::new(),
            parked: (0..n).map(|_| VecDeque::new()).collect(),
            prune: PruneConfig::default(),
            last_piggyback: Log::new(),
        }
    }

    /// The node's current log length (optimality diagnostics).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    fn deliverable(&self, m: &KsMsg) -> bool {
        m.log
            .iter()
            .filter(|e| e.dests.contains(self.me))
            .all(|e| self.delivered[e.origin.index()] >= e.clock)
    }

    fn deliver(&mut self, from: SiteId, m: KsMsg) -> Delivery {
        debug_assert!(self.delivered[from.index()] < m.seq, "FIFO per sender");
        self.delivered[from.index()] = m.seq;
        // Delivery creates the causal edge, composed as Opt-Track composes
        // it: the piggyback plus the message's own record, minus this
        // process (condition 1 — the delivery condition covered every
        // mention), is what the message stands for; MERGE folds it in,
        // scrubbing what `delivered` witnesses and normalizing (condition 2
        // within senders + markers).
        let own = LogEntry::new(from, m.seq, m.dests);
        let incoming = m.log.with_own(own, self.me, None, self.prune);
        let delivered = Some(&self.delivered[..]);
        (self.log, _) = self
            .log
            .merge_applied(&incoming, self.me, delivered, self.prune);
        Delivery {
            id: WriteId::new(from, m.seq),
            payload: m.payload,
        }
    }

    fn drain(&mut self, out: &mut Vec<Delivery>) {
        loop {
            let mut progressed = false;
            for s in 0..self.n {
                while let Some(head) = self.parked[s].front() {
                    if self.deliverable(head) {
                        let m = self.parked[s].pop_front().expect("head");
                        out.push(self.deliver(SiteId::from(s), m));
                        progressed = true;
                    } else {
                        break;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

impl CausalMulticast for KsNode {
    type Msg = KsMsg;

    fn multicast(&mut self, dests: DestSet, payload: u64) -> (WriteId, Vec<(SiteId, KsMsg)>) {
        self.clock += 1;
        let id = WriteId::new(self.me, self.clock);
        let piggyback = self.log.clone();
        self.last_piggyback = piggyback.clone();
        let outgoing: Vec<(SiteId, KsMsg)> = dests
            .iter()
            .filter(|d| *d != self.me)
            .map(|d| {
                (
                    d,
                    KsMsg {
                        seq: self.clock,
                        dests,
                        log: piggyback.clone(),
                        payload,
                    },
                )
            })
            .collect();
        let mut owed = dests;
        if owed.remove(self.me) {
            // Self-delivery is immediate (everything in our causal past is
            // already delivered here, by definition of `→`), so the own
            // record never lists this process. Nor does any other record:
            // every delivery scrubs it (condition 1).
            self.delivered[self.me.index()] = self.clock;
        }
        // Local log update: condition 2 against the new send, then own
        // record.
        self.log.record_write(self.me, self.clock, owed, self.prune);
        (id, outgoing)
    }

    fn receive(&mut self, from: SiteId, msg: KsMsg) -> Vec<Delivery> {
        self.parked[from.index()].push_back(msg);
        let mut out = Vec::new();
        self.drain(&mut out);
        out
    }

    fn pending(&self) -> usize {
        self.parked.iter().map(|q| q.len()).sum()
    }

    fn last_piggyback_bytes(&self, model: &SizeModel) -> u64 {
        self.last_piggyback.meta_size(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(sites: &[usize]) -> DestSet {
        DestSet::from_sites(sites.iter().map(|&i| SiteId::from(i)))
    }

    #[test]
    fn fifo_within_a_sender() {
        let mut a = KsNode::new(SiteId(0), 3);
        let mut b = KsNode::new(SiteId(1), 3);
        let (m1, out1) = a.multicast(d(&[1]), 10);
        let (m2, out2) = a.multicast(d(&[1]), 20);
        // Delivered in order even though both are immediately deliverable.
        let d1 = b.receive(SiteId(0), out1[0].1.clone());
        let d2 = b.receive(SiteId(0), out2[0].1.clone());
        assert_eq!(d1[0].id, m1);
        assert_eq!(d2[0].id, m2);
    }

    #[test]
    fn transitive_causality_across_disjoint_destinations() {
        // a → {b}: m1. b (after delivering m1) → {c}: m2. c must deliver m1
        // … wait, m1 was never sent to c — c must deliver m2 immediately
        // *without* waiting for m1 (no false blocking on messages not
        // addressed here).
        let mut a = KsNode::new(SiteId(0), 3);
        let mut b = KsNode::new(SiteId(1), 3);
        let mut c = KsNode::new(SiteId(2), 3);
        let (_m1, out) = a.multicast(d(&[1]), 1);
        b.receive(SiteId(0), out[0].1.clone());
        let (m2, out) = b.multicast(d(&[2]), 2);
        let got = c.receive(SiteId(1), out[0].1.clone());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, m2);
    }

    #[test]
    fn causal_blocking_on_shared_destination() {
        // a → {b, c}: m1. b delivers m1 then → {c}: m2. If c receives m2
        // first, it must park it until m1 arrives.
        let mut a = KsNode::new(SiteId(0), 3);
        let mut b = KsNode::new(SiteId(1), 3);
        let mut c = KsNode::new(SiteId(2), 3);
        let (m1, out_a) = a.multicast(d(&[1, 2]), 1);
        let to_b = out_a
            .iter()
            .find(|(t, _)| *t == SiteId(1))
            .unwrap()
            .1
            .clone();
        let to_c = out_a
            .iter()
            .find(|(t, _)| *t == SiteId(2))
            .unwrap()
            .1
            .clone();
        b.receive(SiteId(0), to_b);
        let (m2, out_b) = b.multicast(d(&[2]), 2);

        let got = c.receive(SiteId(1), out_b[0].1.clone());
        assert!(got.is_empty(), "m2 causally follows m1, both to c");
        assert_eq!(c.pending(), 1);
        let got = c.receive(SiteId(0), to_c);
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), vec![m1, m2]);
    }

    #[test]
    fn log_stays_small_under_repeated_multicast() {
        let n = 6;
        let mut nodes: Vec<KsNode> = (0..n).map(|i| KsNode::new(SiteId::from(i), n)).collect();
        for round in 0..200 {
            let s = round % n;
            let dests = d(&[(s + 1) % n, (s + 2) % n]);
            let (_, out) = nodes[s].multicast(dests, round as u64);
            for (to, msg) in out {
                nodes[to.index()].receive(SiteId::from(s), msg);
            }
        }
        for node in &nodes {
            assert!(
                node.log_len() <= 3 * n,
                "KS log must amortize, got {}",
                node.log_len()
            );
            assert_eq!(node.pending(), 0);
        }
    }

    #[test]
    fn self_delivery_is_immediate_and_not_resent() {
        let mut a = KsNode::new(SiteId(0), 2);
        let (_, out) = a.multicast(d(&[0, 1]), 7);
        assert_eq!(out.len(), 1, "only the remote destination gets a copy");
        assert_eq!(a.delivered[0], 1, "self-delivered");
    }
}
