//! Span replay: a single-threaded deliver loop that plays a seeded
//! schedule through `build_site` sites and wraps every call into a layer
//! in a span.
//!
//! Time is a tick counter. Each tick delivers what is due, then every
//! site that is not blocked in a fetch issues its next operation with
//! probability 1/2. A message sent at tick `t` on channel `(from, to)` is
//! due at `t + d(from, to)`, where `d` is a seeded constant in 1..=12 per
//! channel: constant per channel keeps every channel FIFO (which the
//! protocols require), different across channels lets a causally later
//! update overtake an earlier one from another sender, so the activation
//! predicates park and release updates as they do in a live run. The loop
//! stands in for `simnet` and `runtime::runner` only to put the sans-IO
//! layers under a stopwatch; its own cost lands in the `replay.*` root
//! spans and is not attributed to any layer.

use crate::span::{Recorder, SpanId};
use causal_clocks::{Log, MatrixClock, VectorClock};
use causal_memory::Placement;
use causal_proto::wire::{self, WireBuf};
use causal_proto::{
    build_site, Effect, Msg, ProtocolConfig, ProtocolKind, ProtocolSite, ReadResult, Replication,
    SmMeta,
};
use causal_types::{MetaSized, OpKind, SiteId, SizeModel};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest per-channel delay, ticks.
const MAX_DELAY: u64 = 12;
/// Due-tick buckets; must exceed `MAX_DELAY` so a delivery never pushes
/// into the bucket being drained.
const RING: usize = 16;
/// Piggyback snapshots kept per kind for the clock probes.
const SHAPES_KEPT: usize = 64;
/// One SM in this many is sampled, so the kept set spans the run.
const SHAPE_STRIDE: u64 = 16;

/// What to replay.
pub struct ReplaySpec<'a> {
    pub protocol: ProtocolKind,
    pub n: usize,
    /// Each site's operations, in program order.
    pub ops: &'a [Vec<OpKind>],
    /// Carry every message as an encoded routed frame (the TCP fabric's
    /// path) instead of as a `Msg` value (the channel fabric's and the
    /// simulator's).
    pub wire: bool,
    pub seed: u64,
    /// First `op_id` to hand out, so several replays can share a file.
    pub op_id_base: u64,
}

/// Piggybacked structures sampled from the replay's SMs: the shapes the
/// clock probes run on.
#[derive(Default)]
pub struct Shapes {
    pub logs: Vec<Arc<Log>>,
    pub matrices: Vec<Arc<MatrixClock>>,
    pub vectors: Vec<Arc<VectorClock>>,
}

impl Shapes {
    pub fn absorb(&mut self, other: Shapes) {
        self.logs.extend(other.logs);
        self.matrices.extend(other.matrices);
        self.vectors.extend(other.vectors);
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    pub ops: u64,
    pub writes: u64,
    /// `Effect::Send`s returned by `write` calls.
    pub write_sends: u64,
    pub sm_sent: u64,
    pub sm_meta_bytes: u64,
    pub sm_delivered: u64,
    /// SMs the receiving site parked instead of applying on arrival.
    pub sm_buffered: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub final_pending: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, o: &ReplayCounts) {
        self.ops += o.ops;
        self.writes += o.writes;
        self.write_sends += o.write_sends;
        self.sm_sent += o.sm_sent;
        self.sm_meta_bytes += o.sm_meta_bytes;
        self.sm_delivered += o.sm_delivered;
        self.sm_buffered += o.sm_buffered;
        self.frames += o.frames;
        self.frame_bytes += o.frame_bytes;
        self.final_pending += o.final_pending;
    }
}

pub struct ReplayOut {
    pub counts: ReplayCounts,
    pub shapes: Shapes,
    pub wall: Duration,
}

enum Payload {
    Msg(Msg),
    Frame(Vec<u8>),
}

struct Flight {
    from: SiteId,
    to: SiteId,
    op_id: u64,
    payload: Payload,
}

/// SplitMix64: the replay's only randomness (issue coin flips, channel
/// delays), a pure function of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Replayer<'a> {
    rec: &'a mut Recorder,
    sites: Vec<Box<dyn ProtocolSite>>,
    wire: bool,
    buf: WireBuf,
    model: SizeModel,
    /// `delays[from * n + to]`, ticks.
    delays: Vec<u64>,
    ring: Vec<VecDeque<Flight>>,
    tick: u64,
    blocked: Vec<bool>,
    counts: ReplayCounts,
    shapes: Shapes,
}

impl Replayer<'_> {
    fn sample_shape(&mut self, meta: &SmMeta) {
        if !self.counts.sm_sent.is_multiple_of(SHAPE_STRIDE) {
            return;
        }
        fn keep<T>(kept: &mut Vec<Arc<T>>, slot: usize, x: &Arc<T>) {
            if kept.len() < SHAPES_KEPT {
                kept.push(x.clone());
            } else {
                kept[slot] = x.clone();
            }
        }
        let slot = (self.counts.sm_sent / SHAPE_STRIDE) as usize % SHAPES_KEPT;
        match meta {
            SmMeta::OptTrack { log, .. } => keep(&mut self.shapes.logs, slot, log),
            SmMeta::FullTrack { write } => keep(&mut self.shapes.matrices, slot, write),
            SmMeta::OptP { write } => keep(&mut self.shapes.vectors, slot, write),
            SmMeta::Crp { .. } => {}
        }
    }

    fn send(&mut self, parent: SpanId, op_id: u64, from: SiteId, to: SiteId, msg: Msg) {
        if let Msg::Sm(sm) = &msg {
            self.sample_shape(&sm.meta);
            self.counts.sm_sent += 1;
            self.counts.sm_meta_bytes += msg.meta_size(&self.model);
        }
        let payload = if self.wire {
            let s = self.rec.start("wire.encode", Some(parent), op_id);
            wire::encode_routed_into(from, to, &msg, &mut self.buf);
            self.rec.end(s);
            self.counts.frames += 1;
            self.counts.frame_bytes += self.buf.len() as u64;
            Payload::Frame(self.buf.as_slice().to_vec())
        } else {
            Payload::Msg(msg)
        };
        let n = self.sites.len();
        let due = self.tick + self.delays[from.index() * n + to.index()];
        self.ring[due as usize % RING].push_back(Flight {
            from,
            to,
            op_id,
            payload,
        });
    }

    fn deliver(&mut self, f: Flight) {
        let root = self.rec.start("replay.deliver", None, f.op_id);
        let msg = match f.payload {
            Payload::Msg(m) => m,
            Payload::Frame(bytes) => {
                let s = self.rec.start("wire.decode", Some(root), f.op_id);
                let routed = wire::decode_routed(&bytes);
                self.rec.end(s);
                let routed = routed.expect("the replay's own frames decode");
                assert_eq!((routed.src, routed.dst), (f.from, f.to), "routing header");
                routed.msg
            }
        };
        let is_sm = matches!(msg, Msg::Sm(_));
        let site = &mut self.sites[f.to.index()];
        let pending_before = site.pending_len();
        let s = self.rec.start("proto.on_message", Some(root), f.op_id);
        let effects = site.on_message(f.from, msg);
        self.rec.end(s);
        if is_sm {
            self.counts.sm_delivered += 1;
            // An arriving SM either applies (and may release others:
            // pending shrinks or holds) or parks (pending grows by one).
            if self.sites[f.to.index()].pending_len() > pending_before {
                self.counts.sm_buffered += 1;
            }
        }
        for e in effects {
            match e {
                Effect::Send { to, msg } => self.send(root, f.op_id, f.to, to, msg),
                Effect::FetchDone { .. } => self.blocked[f.to.index()] = false,
                Effect::Applied { .. } => {}
            }
        }
        self.rec.end(root);
    }

    fn issue(&mut self, site: SiteId, op: OpKind, op_id: u64) {
        let root = self.rec.start("replay.op", None, op_id);
        self.counts.ops += 1;
        match op {
            OpKind::Write { var, data } => {
                let s = self.rec.start("proto.write", Some(root), op_id);
                let (_, effects) = self.sites[site.index()].write(var, data, 0);
                self.rec.end(s);
                self.counts.writes += 1;
                for e in effects {
                    if let Effect::Send { to, msg } = e {
                        self.counts.write_sends += 1;
                        self.send(root, op_id, site, to, msg);
                    }
                }
            }
            OpKind::Read { var } => {
                let s = self.rec.start("proto.read", Some(root), op_id);
                let r = self.sites[site.index()].read(var);
                self.rec.end(s);
                if let ReadResult::Fetch { target, msg } = r {
                    self.blocked[site.index()] = true;
                    self.send(root, op_id, site, target, msg);
                }
            }
        }
        self.rec.end(root);
    }
}

/// Play `spec` to quiescence, recording spans into `rec` (or nothing, if
/// it is disabled).
pub fn replay(spec: &ReplaySpec, rec: &mut Recorder) -> ReplayOut {
    let n = spec.n;
    assert_eq!(spec.ops.len(), n, "one operation list per site");
    let placement = if spec.protocol.supports_partial() {
        Placement::paper_partial(n)
    } else {
        Placement::full(n)
    }
    .expect("valid n");
    let repl: Arc<dyn Replication> = Arc::new(placement);
    let mut rng = SplitMix64(spec.seed);
    let delays = (0..n * n).map(|_| 1 + rng.next() % MAX_DELAY).collect();
    let mut r = Replayer {
        rec,
        sites: SiteId::all(n)
            .map(|s| build_site(spec.protocol, s, repl.clone(), ProtocolConfig::default()))
            .collect(),
        wire: spec.wire,
        buf: WireBuf::new(),
        model: SizeModel::java_like(),
        delays,
        ring: (0..RING).map(|_| VecDeque::new()).collect(),
        tick: 0,
        blocked: vec![false; n],
        counts: ReplayCounts::default(),
        shapes: Shapes::default(),
    };
    let mut next = vec![0usize; n];
    let mut op_id = spec.op_id_base;
    let t0 = Instant::now();
    loop {
        let mut due = std::mem::take(&mut r.ring[r.tick as usize % RING]);
        for f in due.drain(..) {
            r.deliver(f);
        }
        // Hand the emptied bucket back so its allocation is reused.
        r.ring[r.tick as usize % RING] = due;
        let mut ops_left = false;
        for (s, (next, ops)) in next.iter_mut().zip(spec.ops).enumerate() {
            let Some(&op) = ops.get(*next) else {
                continue;
            };
            ops_left = true;
            if !r.blocked[s] && rng.next().is_multiple_of(2) {
                r.issue(SiteId::from(s), op, op_id);
                *next += 1;
                op_id += 1;
            }
        }
        r.tick += 1;
        if !ops_left && r.ring.iter().all(VecDeque::is_empty) {
            break;
        }
    }
    let wall = t0.elapsed();
    r.counts.final_pending = r.sites.iter().map(|s| s.pending_len() as u64).sum();
    ReplayOut {
        counts: r.counts,
        shapes: r.shapes,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{self_times, totals_by_name};
    use causal_workload::{generate, WorkloadParams};

    fn ops() -> Vec<Vec<OpKind>> {
        generate(&WorkloadParams::small(8, 0.5, 11))
            .per_site
            .iter()
            .map(|ops| ops.iter().map(|o| o.kind).collect())
            .collect()
    }

    fn spec(protocol: ProtocolKind, wire: bool, ops: &[Vec<OpKind>]) -> ReplaySpec<'_> {
        ReplaySpec {
            protocol,
            n: 8,
            ops,
            wire,
            seed: 11,
            op_id_base: 0,
        }
    }

    #[test]
    fn every_protocol_drains_and_nests() {
        let ops = ops();
        for p in [
            ProtocolKind::FullTrack,
            ProtocolKind::OptTrack,
            ProtocolKind::HbTrack,
            ProtocolKind::OptTrackCrp,
            ProtocolKind::OptP,
        ] {
            let mut rec = Recorder::new(true);
            let out = replay(&spec(p, true, &ops), &mut rec);
            assert_eq!(out.counts.final_pending, 0, "{p} left updates parked");
            assert_eq!(out.counts.sm_sent, out.counts.sm_delivered, "{p}");
            assert!(out.counts.frames >= out.counts.sm_sent);
            self_times(&rec.spans).unwrap_or_else(|e| panic!("{p}: {e}"));
            let t = totals_by_name(&rec.spans).unwrap();
            assert_eq!(t["replay.op"].calls, out.counts.ops);
            assert_eq!(t["wire.encode"].calls, out.counts.frames);
            assert_eq!(t["wire.decode"].calls, out.counts.frames);
        }
    }

    #[test]
    fn spans_off_changes_nothing_but_the_spans() {
        let ops = ops();
        let mut on = Recorder::new(true);
        let mut off = Recorder::new(false);
        let a = replay(&spec(ProtocolKind::OptTrack, false, &ops), &mut on);
        let b = replay(&spec(ProtocolKind::OptTrack, false, &ops), &mut off);
        assert_eq!(a.counts, b.counts);
        assert!(off.spans.is_empty());
        assert!(on.spans.iter().all(|s| !s.name.starts_with("wire.")));
    }

    #[test]
    fn uneven_channel_delays_make_the_predicates_park() {
        let mut rec = Recorder::new(false);
        let out = replay(&spec(ProtocolKind::OptP, false, &ops()), &mut rec);
        assert!(out.counts.sm_buffered > 0, "no update was ever parked");
    }
}
