//! The reliable-delivery transport: exactly-once FIFO over a lossy network.
//!
//! The paper's testbed gets reliability, no-duplication and FIFO order for
//! free from TCP. When a [`crate::channel::FaultPlan`] makes the simulated
//! network lossy, this layer restores those guarantees the way TCP does:
//!
//! * every protocol message is wrapped in a sequenced [`Frame::Data`]
//!   envelope, numbered per ordered site pair;
//! * receivers answer with cumulative [`Frame::Ack`]s, deduplicate
//!   already-seen sequence numbers and buffer out-of-order arrivals until
//!   the gap fills, handing messages to the protocol strictly in send
//!   order;
//! * senders keep at most `WINDOW` (32) frames in flight per channel,
//!   park excess sends in a backlog, and guard every unacked frame with a
//!   retransmission timer that starts at `RTO_BASE_MICROS` (250 ms) and
//!   doubles per attempt up to `RTO_MAX_SHIFT` (5) times.
//!
//! Timer jitter is derived deterministically from the channel coordinates
//! (site pair, sequence number, attempt), staggering retransmission storms
//! without consuming any RNG stream — runs stay bit-reproducible.
//!
//! The struct is a pure state machine: methods return [`TransportCmd`]s and
//! the simulator interprets them (sampling latency and fault decisions,
//! scheduling events, recording metrics). Crash handling — which channels
//! are wiped at a fail-stop, how streams are renumbered when a peer
//! announces a new incarnation — lives here too; the sync *handshake*
//! content is protocol business (see `causal_proto::reliable`).

use causal_metrics::RunMetrics;
use causal_proto::{Frame, Msg, PeerAckInfo};
use causal_types::{SimDuration, SiteId};
use std::collections::{BTreeMap, VecDeque};

/// Maximum unacked data frames per ordered site pair; further sends wait
/// in a backlog.
const WINDOW: usize = 32;

/// Base retransmission timeout, microseconds. It suits the default WAN
/// latency model (20–80 ms one-way): the first retransmission waits just
/// over one RTT.
const RTO_BASE_MICROS: u64 = 250_000;

/// Backoff cap: the timeout doubles per attempt up to
/// `RTO_BASE_MICROS << RTO_MAX_SHIFT` (250 ms × 2⁵ = 8 s).
const RTO_MAX_SHIFT: u32 = 5;

/// What the simulator must do on the transport's behalf.
#[derive(Debug)]
pub enum TransportCmd {
    /// Put `frame` on the wire toward `to` (subject to fault injection for
    /// data and ack frames).
    Emit {
        /// Destination site.
        to: SiteId,
        /// The frame.
        frame: Frame,
        /// Post-warm-up attribution of the wrapped message, if any.
        measured: bool,
        /// `true` when this emission is a retransmission.
        retransmit: bool,
    },
    /// Arm a retransmission timer: after `after`, fire a
    /// [`crate::kernel::SimEvent::RetransmitCheck`] with these coordinates.
    Arm {
        /// Destination site of the guarded channel.
        to: SiteId,
        /// Stream generation the timer is valid for.
        stream_gen: u32,
        /// Guarded sequence number.
        seq: u64,
        /// Attempt count the check will carry.
        attempt: u32,
        /// Delay until the check fires.
        after: SimDuration,
    },
    /// Hand an in-order, exactly-once message to the receiving protocol
    /// site.
    Handoff {
        /// The unwrapped protocol message.
        msg: Msg,
        /// Post-warm-up attribution.
        measured: bool,
    },
}

/// Sender-side state of one ordered channel.
struct TxChannel {
    /// The sender's belief of the receiver's incarnation (frame `dst_inc`).
    peer_inc: u32,
    /// Next sequence number to assign (sequences start at 1).
    next_seq: u64,
    /// In-flight frames, ascending by sequence number.
    unacked: VecDeque<InFlight>,
    /// Sends waiting for window space.
    backlog: VecDeque<(Msg, bool)>,
    /// Cumulative count of SM messages the receiver acknowledged, across
    /// stream renumberings (each SM is counted once, when first acked).
    acked_sm_count: u64,
    /// Largest write clock among those acknowledged SMs.
    acked_sm_max_clock: u64,
}

struct InFlight {
    seq: u64,
    msg: Msg,
    measured: bool,
}

impl TxChannel {
    fn fresh(peer_inc: u32) -> Self {
        TxChannel {
            peer_inc,
            next_seq: 1,
            unacked: VecDeque::new(),
            backlog: VecDeque::new(),
            acked_sm_count: 0,
            acked_sm_max_clock: 0,
        }
    }
}

/// Receiver-side state of one ordered channel.
struct RxChannel {
    /// Last sender incarnation seen; lower frames are stale, a higher one
    /// restarts the stream.
    src_inc: u32,
    /// Highest contiguously received sequence number.
    next_expected: u64,
    /// Out-of-order arrivals, keyed by sequence number. Bounded by the
    /// sender's in-flight window.
    reorder: BTreeMap<u64, (Msg, bool)>,
}

impl RxChannel {
    fn fresh(src_inc: u32) -> Self {
        RxChannel {
            src_inc,
            next_expected: 0,
            reorder: BTreeMap::new(),
        }
    }
}

fn sm_clock(msg: &Msg) -> Option<u64> {
    match msg {
        Msg::Sm(sm) => Some(sm.value.writer.clock),
        _ => None,
    }
}

/// The transport state machine for all `n·(n−1)` ordered channels.
pub struct Transport {
    n: usize,
    /// Per-site incarnation numbers (bumped at each recovery).
    inc: Vec<u32>,
    /// Per-channel stream generations — a simulator artifact identifying
    /// which stream a retransmission timer was armed for. Monotone across
    /// crashes (unlike the wiped channel state), so stale timers can never
    /// collide with a reborn stream's sequence numbers.
    gens: Vec<u32>,
    tx: Vec<TxChannel>,
    rx: Vec<RxChannel>,
}

impl Transport {
    /// A transport for `n` sites.
    pub fn new(n: usize) -> Self {
        Transport {
            n,
            inc: vec![0; n],
            gens: vec![0; n * n],
            tx: (0..n * n).map(|_| TxChannel::fresh(0)).collect(),
            rx: (0..n * n).map(|_| RxChannel::fresh(0)).collect(),
        }
    }

    /// Current incarnation of `site`.
    pub fn incarnation(&self, site: SiteId) -> u32 {
        self.inc[site.index()]
    }

    fn idx(&self, from: SiteId, to: SiteId) -> usize {
        from.index() * self.n + to.index()
    }

    /// Retransmission timeout for the given attempt, with deterministic
    /// per-(channel, seq, attempt) jitter of up to a quarter of the base.
    fn rto(&self, from: SiteId, to: SiteId, seq: u64, attempt: u32) -> SimDuration {
        let base = RTO_BASE_MICROS << attempt.saturating_sub(1).min(RTO_MAX_SHIFT);
        let mut key = (from.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(to.index() as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(seq)
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(attempt as u64);
        key ^= key >> 31;
        key = key.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        key ^= key >> 32;
        SimDuration::from_micros(base + key % (RTO_BASE_MICROS / 4))
    }

    fn emit_in_flight(
        &self,
        from: SiteId,
        to: SiteId,
        seq: u64,
        msg: Msg,
        measured: bool,
        cmds: &mut Vec<TransportCmd>,
    ) {
        let i = self.idx(from, to);
        cmds.push(TransportCmd::Emit {
            to,
            frame: Frame::Data {
                src_inc: self.inc[from.index()],
                dst_inc: self.tx[i].peer_inc,
                seq,
                msg,
            },
            measured,
            retransmit: false,
        });
        cmds.push(TransportCmd::Arm {
            to,
            stream_gen: self.gens[i],
            seq,
            attempt: 1,
            after: self.rto(from, to, seq, 1),
        });
    }

    /// Accept a protocol message for transmission `from → to`. Assigns a
    /// sequence number and emits immediately when the window has room,
    /// otherwise parks the message in the backlog.
    pub fn send(
        &mut self,
        from: SiteId,
        to: SiteId,
        msg: Msg,
        measured: bool,
    ) -> Vec<TransportCmd> {
        let i = self.idx(from, to);
        let mut cmds = Vec::new();
        if self.tx[i].unacked.len() < WINDOW {
            let seq = self.tx[i].next_seq;
            self.tx[i].next_seq += 1;
            self.tx[i].unacked.push_back(InFlight {
                seq,
                msg: msg.clone(),
                measured,
            });
            self.emit_in_flight(from, to, seq, msg, measured, &mut cmds);
        } else {
            self.tx[i].backlog.push_back((msg, measured));
        }
        cmds
    }

    /// A retransmission timer fired. Re-emits the frame with backoff if it
    /// is still unacked and belongs to the current stream generation.
    pub fn retransmit_check(
        &mut self,
        from: SiteId,
        to: SiteId,
        stream_gen: u32,
        seq: u64,
        attempt: u32,
    ) -> Vec<TransportCmd> {
        let i = self.idx(from, to);
        if self.gens[i] != stream_gen {
            return Vec::new(); // stream reborn since the timer was armed
        }
        let Some(f) = self.tx[i].unacked.iter().find(|f| f.seq == seq) else {
            return Vec::new(); // acked in the meantime
        };
        // Saturate: a frame stuck behind a long outage can accumulate an
        // unbounded attempt count; wrapping to 0 would reset the backoff
        // and re-arm the storm the cap exists to prevent.
        let next = attempt.saturating_add(1);
        vec![
            TransportCmd::Emit {
                to,
                frame: Frame::Data {
                    src_inc: self.inc[from.index()],
                    dst_inc: self.tx[i].peer_inc,
                    seq,
                    msg: f.msg.clone(),
                },
                measured: f.measured,
                retransmit: true,
            },
            TransportCmd::Arm {
                to,
                stream_gen,
                seq,
                attempt: next,
                after: self.rto(from, to, seq, next),
            },
        ]
    }

    /// A data or ack frame arrived at `to` from `from`. Returns handoffs
    /// (in-order deduplicated messages), acks, and any backlog frames the
    /// ack opened window space for. `measured` is the arriving frame's
    /// warm-up attribution. Sync frames are the simulator's business and
    /// must not be routed here.
    pub fn on_frame(
        &mut self,
        to: SiteId,
        from: SiteId,
        frame: Frame,
        measured: bool,
        metrics: &mut RunMetrics,
    ) -> Vec<TransportCmd> {
        let (src_inc, dst_inc, seq, msg) = match frame {
            Frame::Data {
                src_inc,
                dst_inc,
                seq,
                msg,
            } => (src_inc, dst_inc, seq, msg),
            Frame::Ack {
                epoch,
                src_inc,
                cum_seq,
            } => return self.on_ack(to, from, epoch, src_inc, cum_seq),
            sync => panic!("sync frame routed into the transport: {sync:?}"),
        };
        if dst_inc != self.inc[to.index()] {
            // Addressed to a dead incarnation of this site.
            metrics.crash_drops += 1;
            return Vec::new();
        }
        let i = self.idx(from, to);
        if src_inc < self.rx[i].src_inc {
            // From a dead incarnation of the sender.
            metrics.crash_drops += 1;
            return Vec::new();
        }
        if src_inc > self.rx[i].src_inc {
            // The sender restarted its stream after a crash.
            self.rx[i] = RxChannel::fresh(src_inc);
        }
        let r = &mut self.rx[i];
        let mut cmds = Vec::new();
        if seq <= r.next_expected || r.reorder.contains_key(&seq) {
            // Fault-injected duplicate or spurious retransmission.
            metrics.dup_drops += 1;
        } else {
            r.reorder.insert(seq, (msg, measured));
            // Hand over the contiguous prefix, in order.
            while let Some((m, meas)) = r.reorder.remove(&(r.next_expected + 1)) {
                r.next_expected += 1;
                cmds.push(TransportCmd::Handoff {
                    msg: m,
                    measured: meas,
                });
            }
        }
        cmds.push(TransportCmd::Emit {
            to: from,
            frame: Frame::Ack {
                epoch: self.inc[to.index()],
                src_inc,
                cum_seq: r.next_expected,
            },
            measured: false,
            retransmit: false,
        });
        cmds
    }

    fn on_ack(
        &mut self,
        at: SiteId,
        from_peer: SiteId,
        epoch: u32,
        src_inc: u32,
        cum_seq: u64,
    ) -> Vec<TransportCmd> {
        let i = self.idx(at, from_peer);
        if epoch != self.tx[i].peer_inc || src_inc != self.inc[at.index()] {
            return Vec::new(); // stale ack from or for a dead incarnation
        }
        while self.tx[i].unacked.front().is_some_and(|f| f.seq <= cum_seq) {
            let f = self.tx[i].unacked.pop_front().expect("front checked");
            if let Some(clock) = sm_clock(&f.msg) {
                self.tx[i].acked_sm_count += 1;
                self.tx[i].acked_sm_max_clock = self.tx[i].acked_sm_max_clock.max(clock);
            }
        }
        // Opened window space admits backlog frames.
        let mut cmds = Vec::new();
        while self.tx[i].unacked.len() < WINDOW && !self.tx[i].backlog.is_empty() {
            let (msg, measured) = self.tx[i].backlog.pop_front().expect("nonempty");
            let seq = self.tx[i].next_seq;
            self.tx[i].next_seq += 1;
            self.tx[i].unacked.push_back(InFlight {
                seq,
                msg: msg.clone(),
                measured,
            });
            self.emit_in_flight(at, from_peer, seq, msg, measured, &mut cmds);
        }
        cmds
    }

    /// `site` fail-stops: all of its sender- and receiver-side channel
    /// state is volatile and lost. Peers' channels *to* the site survive —
    /// their backlog is what recovery renumbers and redelivers.
    pub fn crash(&mut self, site: SiteId) {
        for peer in SiteId::all(self.n) {
            if peer == site {
                continue;
            }
            let o = self.idx(site, peer);
            self.gens[o] += 1;
            self.tx[o] = TxChannel::fresh(self.inc[peer.index()]);
            let r = self.idx(peer, site);
            self.rx[r] = RxChannel::fresh(self.inc[peer.index()]);
        }
    }

    /// `site` restarts: bump its incarnation and re-seed its sender-side
    /// ack bookkeeping from the durable ledger, so that a *later* crash of
    /// some peer still gets an accurate cumulative SM count for the
    /// `site → peer` channels (the peer was fast-forwarded past exactly
    /// `ledger.own_row[peer]` writes at this recovery).
    pub fn revive(&mut self, site: SiteId, ledger: &causal_proto::OwnLedger) -> u32 {
        self.inc[site.index()] += 1;
        for peer in SiteId::all(self.n) {
            if peer == site {
                continue;
            }
            let o = self.idx(site, peer);
            self.gens[o] += 1;
            let mut t = TxChannel::fresh(self.inc[peer.index()]);
            t.acked_sm_count = ledger.own_row[peer.index()];
            t.acked_sm_max_clock = ledger.own_clock;
            self.tx[o] = t;
            let r = self.idx(peer, site);
            self.rx[r] = RxChannel::fresh(self.inc[peer.index()]);
        }
        self.inc[site.index()]
    }

    /// `site` left the membership view for good: wipe the channel state of
    /// **both** directions of every pair involving it and bump the stream
    /// generations, so armed retransmission timers toward the departed site
    /// die silently instead of re-emitting forever (which would keep the
    /// event loop alive past quiescence). Unlike [`Transport::crash`], the
    /// survivors' sender-side backlog toward the site is discarded too —
    /// there is no future incarnation to renumber it for.
    pub fn forget(&mut self, site: SiteId) {
        for peer in SiteId::all(self.n) {
            if peer == site {
                continue;
            }
            let o = self.idx(site, peer);
            self.gens[o] += 1;
            self.tx[o] = TxChannel::fresh(self.inc[peer.index()]);
            self.rx[o] = RxChannel::fresh(self.inc[site.index()]);
            let i = self.idx(peer, site);
            self.gens[i] += 1;
            self.tx[i] = TxChannel::fresh(self.inc[site.index()]);
            self.rx[i] = RxChannel::fresh(self.inc[peer.index()]);
        }
    }

    /// `true` when no frame is unacked or backlogged on any channel whose
    /// **both** endpoints are marked up in `up`. Channels touching a down
    /// (or departed) site are excluded: their traffic can never settle and
    /// is handled by the caller's crash/forget machinery. This is the
    /// transport half of the membership layer's quiescence test; the other
    /// half (frames already on the wire) is the event-heap scan.
    pub fn quiescent(&self, up: &[bool]) -> bool {
        assert_eq!(up.len(), self.n, "liveness mask must cover n");
        for a in 0..self.n {
            if !up[a] {
                continue;
            }
            for (b, &b_up) in up.iter().enumerate() {
                if a == b || !b_up {
                    continue;
                }
                let t = &self.tx[a * self.n + b];
                if !t.unacked.is_empty() || !t.backlog.is_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// A live site (`me`) learns `peer` recovered with incarnation
    /// `new_inc`: snapshot the ack bookkeeping of the `me → peer` channel
    /// for the sync reply, then renumber the unacked + backlog SM stream
    /// into the new epoch (FM/RM frames are dropped — the blocked fetches
    /// they served are re-issued at the application layer). Returns the
    /// snapshot and the emissions for the renumbered in-window frames.
    pub fn peer_recovered(
        &mut self,
        me: SiteId,
        peer: SiteId,
        new_inc: u32,
    ) -> (PeerAckInfo, Vec<TransportCmd>) {
        self.inc[peer.index()] = self.inc[peer.index()].max(new_inc);
        let o = self.idx(me, peer);
        let ack = PeerAckInfo {
            sm_count: self.tx[o].acked_sm_count,
            sm_max_clock: self.tx[o].acked_sm_max_clock,
        };
        self.gens[o] += 1;
        let old = std::mem::replace(&mut self.tx[o], TxChannel::fresh(new_inc));
        self.tx[o].acked_sm_count = old.acked_sm_count;
        self.tx[o].acked_sm_max_clock = old.acked_sm_max_clock;
        // The receiver-side state for `peer → me` survives: the peer's new
        // incarnation restarts that stream and the src_inc check resets it
        // on first contact.
        let keep = old
            .unacked
            .into_iter()
            .map(|f| (f.msg, f.measured))
            .chain(old.backlog)
            .filter(|(m, _)| matches!(m, Msg::Sm(_)));
        let mut cmds = Vec::new();
        for (msg, measured) in keep {
            cmds.extend(self.send(me, peer, msg, measured));
        }
        (ack, cmds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_proto::{Fm, Sm, SmMeta};
    use causal_types::{VarId, VersionedValue, WriteId};

    fn fm(var: u32) -> Msg {
        Msg::Fm(Fm { var: VarId(var) })
    }

    fn sm(site: u16, clock: u64) -> Msg {
        Msg::Sm(Sm {
            var: VarId(0),
            value: VersionedValue::new(WriteId::new(SiteId(site), clock), 1),
            meta: SmMeta::Crp {
                clock,
                log: std::sync::Arc::new(causal_clocks::CrpLog::new()),
            },
        })
    }

    fn emits(cmds: &[TransportCmd]) -> Vec<&Frame> {
        cmds.iter()
            .filter_map(|c| match c {
                TransportCmd::Emit { frame, .. } => Some(frame),
                _ => None,
            })
            .collect()
    }

    fn handoffs(cmds: &[TransportCmd]) -> Vec<&Msg> {
        cmds.iter()
            .filter_map(|c| match c {
                TransportCmd::Handoff { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn data_seq(frame: &Frame) -> u64 {
        match frame {
            Frame::Data { seq, .. } => *seq,
            other => panic!("expected a data frame, got {other:?}"),
        }
    }

    #[test]
    fn send_emits_and_arms() {
        let mut t = Transport::new(2);
        let cmds = t.send(SiteId(0), SiteId(1), fm(3), true);
        assert_eq!(cmds.len(), 2);
        assert_eq!(data_seq(emits(&cmds)[0]), 1);
        assert!(matches!(
            cmds[1],
            TransportCmd::Arm {
                seq: 1,
                attempt: 1,
                ..
            }
        ));
    }

    #[test]
    fn in_order_frames_hand_off_immediately() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        for k in 1..=3u64 {
            let frame = Frame::Data {
                src_inc: 0,
                dst_inc: 0,
                seq: k,
                msg: fm(k as u32),
            };
            let cmds = t.on_frame(SiteId(1), SiteId(0), frame, false, &mut m);
            assert_eq!(handoffs(&cmds).len(), 1);
            // Every arrival is cumulatively acked.
            assert!(matches!(
                emits(&cmds)[0],
                Frame::Ack { cum_seq, .. } if *cum_seq == k
            ));
        }
        assert_eq!(m.dup_drops, 0);
    }

    #[test]
    fn reordered_frames_buffer_until_the_gap_fills() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        let f2 = Frame::Data {
            src_inc: 0,
            dst_inc: 0,
            seq: 2,
            msg: fm(2),
        };
        let cmds = t.on_frame(SiteId(1), SiteId(0), f2, false, &mut m);
        assert!(handoffs(&cmds).is_empty(), "seq 2 must wait for seq 1");
        assert!(matches!(emits(&cmds)[0], Frame::Ack { cum_seq: 0, .. }));
        let f1 = Frame::Data {
            src_inc: 0,
            dst_inc: 0,
            seq: 1,
            msg: fm(1),
        };
        let cmds = t.on_frame(SiteId(1), SiteId(0), f1, false, &mut m);
        let h = handoffs(&cmds);
        assert_eq!(h.len(), 2, "both frames release in order");
        assert!(matches!(h[0], Msg::Fm(f) if f.var == VarId(1)));
        assert!(matches!(h[1], Msg::Fm(f) if f.var == VarId(2)));
    }

    #[test]
    fn duplicates_are_dropped_but_reacked() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        let f = Frame::Data {
            src_inc: 0,
            dst_inc: 0,
            seq: 1,
            msg: fm(1),
        };
        let cmds = t.on_frame(SiteId(1), SiteId(0), f.clone(), false, &mut m);
        assert_eq!(handoffs(&cmds).len(), 1);
        let cmds = t.on_frame(SiteId(1), SiteId(0), f, false, &mut m);
        assert!(handoffs(&cmds).is_empty());
        assert_eq!(m.dup_drops, 1);
        // The duplicate still triggers a (re-)ack so the sender can settle.
        assert!(matches!(emits(&cmds)[0], Frame::Ack { cum_seq: 1, .. }));
    }

    #[test]
    fn retransmit_until_acked_with_backoff() {
        let mut t = Transport::new(2);
        t.send(SiteId(0), SiteId(1), fm(1), false);
        let cmds = t.retransmit_check(SiteId(0), SiteId(1), 0, 1, 1);
        assert!(matches!(
            cmds[0],
            TransportCmd::Emit {
                retransmit: true,
                ..
            }
        ));
        let TransportCmd::Arm { attempt, after, .. } = &cmds[1] else {
            panic!("expected rearm");
        };
        assert_eq!(*attempt, 2);
        // Attempt 2 backs off to at least double the base.
        assert!(after.as_nanos() >= 2 * 250_000_000);
        // Ack clears the frame: the timer then dies silently.
        let ack = Frame::Ack {
            epoch: 0,
            src_inc: 0,
            cum_seq: 1,
        };
        let mut m = RunMetrics::new();
        t.on_frame(SiteId(0), SiteId(1), ack, false, &mut m);
        assert!(t.retransmit_check(SiteId(0), SiteId(1), 0, 1, 2).is_empty());
    }

    #[test]
    fn deep_backoff_saturates_at_the_cap() {
        // Deep backoff sits at `RTO_BASE_MICROS << RTO_MAX_SHIFT` (8 s) plus
        // jitter below a quarter of the base (62.5 ms).
        let mut t = Transport::new(2);
        t.send(SiteId(0), SiteId(1), fm(1), false);
        let cmds = t.retransmit_check(SiteId(0), SiteId(1), 0, 1, 40);
        let TransportCmd::Arm { after, .. } = &cmds[1] else {
            panic!("expected rearm");
        };
        let micros = after.as_nanos() / 1_000;
        assert!(micros >= 8_000_000);
        assert!(micros < 8_062_500);
    }

    #[test]
    fn window_limits_in_flight_and_acks_release_backlog() {
        let mut t = Transport::new(2);
        let mut emitted = 0;
        for k in 0..WINDOW as u32 + 3 {
            emitted += emits(&t.send(SiteId(0), SiteId(1), fm(k), false)).len();
        }
        assert_eq!(emitted, WINDOW, "only the window goes out");
        let ack = Frame::Ack {
            epoch: 0,
            src_inc: 0,
            cum_seq: 2,
        };
        let mut m = RunMetrics::new();
        let cmds = t.on_frame(SiteId(0), SiteId(1), ack, false, &mut m);
        let released = emits(&cmds);
        assert_eq!(released.len(), 2, "two slots freed, two backlog frames fly");
        assert_eq!(data_seq(released[0]), WINDOW as u64 + 1);
        assert_eq!(data_seq(released[1]), WINDOW as u64 + 2);
    }

    #[test]
    fn stale_epoch_frames_are_dropped() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        let ledger = causal_proto::OwnLedger {
            site: SiteId(1),
            own_clock: 0,
            own_row: vec![0, 0],
            self_applied: 0,
        };
        t.crash(SiteId(1));
        assert_eq!(t.revive(SiteId(1), &ledger), 1);
        // A frame addressed to incarnation 0 arrives late: dropped.
        let f = Frame::Data {
            src_inc: 0,
            dst_inc: 0,
            seq: 1,
            msg: fm(1),
        };
        let cmds = t.on_frame(SiteId(1), SiteId(0), f, false, &mut m);
        assert!(cmds.is_empty());
        assert_eq!(m.crash_drops, 1);
    }

    #[test]
    fn stale_acks_for_a_previous_incarnation_are_ignored() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        // Site 0 crashes and restarts its streams; an old ack arrives.
        t.send(SiteId(0), SiteId(1), fm(1), false);
        t.crash(SiteId(0));
        let ledger = causal_proto::OwnLedger {
            site: SiteId(0),
            own_clock: 0,
            own_row: vec![0, 0],
            self_applied: 0,
        };
        t.revive(SiteId(0), &ledger);
        let cmds = t.send(SiteId(0), SiteId(1), fm(2), false);
        let stream_gen = cmds
            .iter()
            .find_map(|c| match c {
                TransportCmd::Arm { stream_gen, .. } => Some(*stream_gen),
                _ => None,
            })
            .expect("send arms a timer");
        let stale = Frame::Ack {
            epoch: 0,
            src_inc: 0,
            cum_seq: 1,
        };
        t.on_frame(SiteId(0), SiteId(1), stale, false, &mut m);
        // The new-stream frame must still be guarded (not falsely acked).
        assert!(!t
            .retransmit_check(SiteId(0), SiteId(1), stream_gen, 1, 1)
            .is_empty());
    }

    #[test]
    fn peer_recovery_renumbers_the_sm_backlog_and_reports_acks() {
        let mut t = Transport::new(2);
        let mut m = RunMetrics::new();
        // Site 0 sends three SMs and one FM to site 1; the first SM is
        // acked, the rest stay in flight.
        t.send(SiteId(0), SiteId(1), sm(0, 1), false);
        t.send(SiteId(0), SiteId(1), sm(0, 2), false);
        t.send(SiteId(0), SiteId(1), fm(9), false);
        t.send(SiteId(0), SiteId(1), sm(0, 3), false);
        let ack = Frame::Ack {
            epoch: 0,
            src_inc: 0,
            cum_seq: 1,
        };
        t.on_frame(SiteId(0), SiteId(1), ack, false, &mut m);
        // Site 1 crashes with state loss and recovers as incarnation 1.
        t.crash(SiteId(1));
        let (info, cmds) = t.peer_recovered(SiteId(0), SiteId(1), 1);
        assert_eq!(
            info,
            PeerAckInfo {
                sm_count: 1,
                sm_max_clock: 1
            }
        );
        let frames = emits(&cmds);
        // The two unacked SMs are renumbered 1, 2 in the new epoch; the FM
        // is dropped (its fetch is re-issued by the application layer).
        assert_eq!(frames.len(), 2);
        for (k, f) in frames.iter().enumerate() {
            let Frame::Data {
                dst_inc, seq, msg, ..
            } = f
            else {
                panic!("expected data");
            };
            assert_eq!(*dst_inc, 1);
            assert_eq!(*seq, k as u64 + 1);
            assert!(matches!(msg, Msg::Sm(_)));
        }
    }

    #[test]
    fn forget_kills_timers_and_clears_both_directions() {
        let mut t = Transport::new(3);
        // Traffic in both directions involving site 1, left unacked.
        t.send(SiteId(0), SiteId(1), sm(0, 1), false);
        t.send(SiteId(1), SiteId(2), sm(1, 1), false);
        assert!(!t.quiescent(&[true, true, true]));
        t.forget(SiteId(1));
        // Armed timers for the wiped streams die silently (generation bump).
        assert!(t.retransmit_check(SiteId(0), SiteId(1), 0, 1, 1).is_empty());
        assert!(t.retransmit_check(SiteId(1), SiteId(2), 0, 1, 1).is_empty());
        // With the departed site out of the mask — or even still in it,
        // since its channels were wiped — the transport is quiescent.
        assert!(t.quiescent(&[true, false, true]));
        assert!(t.quiescent(&[true, true, true]));
    }

    #[test]
    fn quiescent_ignores_channels_touching_down_sites() {
        let mut t = Transport::new(3);
        t.send(SiteId(0), SiteId(2), fm(1), false);
        assert!(!t.quiescent(&[true, true, true]));
        // The unsettled frame targets site 2: masking site 2 out excludes
        // the channel from the test.
        assert!(t.quiescent(&[true, true, false]));
        // Acking it settles the full mask too.
        let mut m = RunMetrics::new();
        let ack = Frame::Ack {
            epoch: 0,
            src_inc: 0,
            cum_seq: 1,
        };
        t.on_frame(SiteId(0), SiteId(2), ack, false, &mut m);
        assert!(t.quiescent(&[true, true, true]));
    }

    #[test]
    fn jitter_staggers_but_stays_bounded() {
        let t = Transport::new(4);
        let a = t.rto(SiteId(0), SiteId(1), 1, 1);
        let b = t.rto(SiteId(0), SiteId(1), 2, 1);
        assert_ne!(a, b, "jitter must vary per sequence number");
        for seq in 0..50 {
            let d = t.rto(SiteId(2), SiteId(3), seq, 1).as_nanos();
            assert!((250_000_000..312_500_000).contains(&d));
        }
    }
}
