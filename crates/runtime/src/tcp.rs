//! The paper's transport: TCP, multiplexed per worker pair and driven by
//! the workers themselves.
//!
//! §IV-C of the paper: "the system relies on TCP channels to deliver
//! messages ... it guarantees that messages can be successfully transmitted
//! without any loss." Every protocol message is encoded with
//! `causal_proto::wire` and shipped through a real kernel socket — the
//! closest this repository gets to the authors' JDK-over-TCP testbed.
//!
//! ## Topology and threads
//!
//! Sites are sharded over `W` scheduler workers (see [`crate::runner`]),
//! and the mesh connects *workers*: one socket per unordered worker pair,
//! carrying the traffic of every site pair whose owners differ. Both ends
//! of every socket are nonblocking and belong to the worker at that end:
//! it reads them when its pass begins (`Transport::pump`) and writes them
//! when its pass ends (`Transport::flush`). The fabric spawns no thread —
//! a TCP run is `W` threads, whatever `n` and however many sockets.
//! Same-worker site pairs never touch a socket: a send's own-shard half
//! goes straight into the worker's own inbox, as on the channel fabric
//! (`Routes::send_own`).
//!
//! ## A connection, and the socket around it
//!
//! Each end of a connection is a `Conn` — the frame queue, the encoded
//! write buffer and its unwritten tail, the ledger of frames not fully
//! written, the instant the tail stalled, the reassembly buffer and the
//! `dead` flag — which makes no system call and reads no clock: time
//! reaches it as an argument. Around it, a thin shell moves bytes between
//! the nonblocking `TcpStream` and the `Conn` and keeps the byte counters
//! that wake the peer. So framing, partial writes, corrupt input and the
//! write timeout are tested on `Conn` pairs joined by an in-memory pipe,
//! and only the shell's own behaviour needs a loopback socket.
//!
//! ## Framing
//!
//! `[len: u32 LE][flags: u8][body: len bytes]`, where the body is a
//! *routed* frame: `[src_site][dst_site][msg]` for one destination, or
//! the multi-routed `[src_site][k][dst₁..dst_k][msg]` when `flags` bit 1
//! is set (varint headers, see `causal_proto::wire::encode_routed_into`
//! and `encode_multi_routed_with`). The routing header is what lets one
//! socket carry many site pairs, and the multi-routed form is what lets a
//! write's fan-out toward one peer worker cross it once: encoded once,
//! shipped once, decoded once, the `k` copies sharing the one decoded
//! piggyback. `len` counts the body only and must not exceed
//! [`wire::MAX_FRAME`]; `flags` bit 0 carries the frame's warm-up
//! attribution (batch frames additionally carry per-update bits in the
//! body), and the remaining bits are reserved-zero. A length beyond the
//! bound, a reserved flag, or a body the codec rejects tears the
//! connection down cleanly — one connection error, never a panic or a
//! multi-GiB allocation.
//!
//! ## Pump
//!
//! Each endpoint has a byte counter its *peer* advances after every
//! successful `write`. A pump compares it with the bytes the endpoint has
//! read so far: equal means nothing to do — an idle pass makes no syscall
//! — and otherwise the worker `read`s into the `Conn`'s reusable buffer
//! until it has caught up, routing frames from the borrowed bytes (many
//! frames per `read(2)`, no allocation per frame). Receivers route on the
//! header, not on the connection: own-shard copies are appended to the
//! pumping worker's own inbox with no wake (it takes them next), and a
//! frame for a site another worker owns is *rerouted* to that owner — one
//! frame and one wake at once — never dropped. A `read` that would block
//! while announced bytes are still missing — the kernel has taken them
//! from the peer but not handed them over yet — leaves the transport
//! unsettled, and the worker retries shortly.
//!
//! ## Flush
//!
//! A site's send appends one frame per peer worker to that connection's
//! queue and returns. When the worker's pass ends it encodes each queue
//! into one reusable buffer — outside every operation's latency window,
//! in slices of up to `WRITE_COALESCE_BYTES` (256 KiB) — and `write`s
//! until done or `WouldBlock` (`RunMetrics::syscall_writes`, carrying
//! `RunMetrics::transport_frames` frames), then advances the peer's byte
//! counter and notifies its wake latch: write, then count, then notify,
//! so a pump that ran too early to see the bytes is followed by a park
//! that returns at once. Bytes the socket would not take stay in the
//! buffer as the connection's *tail* (`RunMetrics::transport_write_stalls`);
//! later sends queue behind it, the worker keeps pumping — which is why
//! two full socket buffers cannot deadlock — and parks only briefly until
//! the tail is gone. Lane flushes from per-destination batching land on
//! the same queue.
//!
//! ## Failure
//!
//! A tail that makes no progress for `WRITE_TIMEOUT` (5 s), a failed
//! read or write, or a frame that fails validation marks the connection
//! dead. Exactly the messages not yet fully written — every destination
//! of every such frame — are lost, and so are later sends toward that
//! peer, refused at once. Every lost copy is counted by the run's one
//! rule for that (`Quiesce::lost`: a connection error, and done on the
//! losing worker's tally, so quiescence cannot wait for it); a bad frame
//! adds one connection error of its own.
//!
//! ## Handshake & teardown
//!
//! Each worker binds an ephemeral listener; worker `a` dials every `b > a`
//! and sends a 2-byte hello carrying its worker id — the only blocking
//! socket operations there are; both ends go nonblocking right after.
//! `TCP_NODELAY` is set on every stream — Nagle would otherwise delay small
//! frames behind unacked data and poison the latency tails the serve mode
//! measures. Teardown is the worker join: quiescence means every queue and
//! socket is empty, and dropping the transport closes the sockets.
//!
//! Readiness comes from the in-process counters, which is why std sockets
//! suffice. A multi-host mesh (`--join`, parked) has no shared memory to
//! carry them and is where a `poll`/`epoll` shim would be needed.

use crate::node::{Transport, Wire};
use crate::runner::{locked, Quiesce, Routes};
use causal_clocks::{dests::MAX_SITES, DestSet};
use causal_metrics::RunMetrics;
use causal_proto::{wire, Msg};
use causal_types::{Error, SiteId};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coalescing bound: a flush stops encoding a connection's queue once the
/// buffer reaches this size, ships it, and comes back for the rest.
const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// An unwritten tail that makes no progress for this long fails its
/// connection — insurance against a peer that stopped draining.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// TCP header `flags` bit 0: the frame's warm-up attribution.
const FLAG_MEASURED: u8 = 0b01;
/// TCP header `flags` bit 1: the body is a multi-routed frame
/// (`[src][k][dst₁..dst_k][msg]`) rather than a unicast `[src][dst][msg]`.
const FLAG_MULTI: u8 = 0b10;
/// `[len: u32 LE][flags: u8]`.
const HEADER_BYTES: usize = 5;

/// A connection's receive buffer: one `read(2)` picks up every frame the
/// peer's flush coalesced, up to this much (it grows only for a single
/// frame that is larger, bounded by [`wire::MAX_FRAME`]).
const READ_BUF_BYTES: usize = 64 * 1024;

/// One frame queued toward a peer worker: one message for every site in
/// `dsts` (all owned by that peer; never empty).
struct OutFrame {
    src: SiteId,
    dsts: DestSet,
    msg: Msg,
    measured: bool,
}

/// A received frame failed validation: its header (in [`Conn::filled`])
/// or its body (in the caller's routing). The connection must be failed.
struct BadFrame;

/// One end of a connection, without the socket: what is queued, encoded,
/// unwritten and being reassembled, and whether the connection failed. It
/// makes no system call and reads no clock; the shell around it moves the
/// bytes, and time arrives as an argument.
#[derive(Default)]
struct Conn {
    /// The connection failed: sends are refused, pumps skip it, and it
    /// has nothing left to write.
    dead: bool,
    /// Frames sent but not yet encoded, in send order.
    queue: Vec<OutFrame>,
    /// The encoded slice being written; `wbuf[wpos..]` is the tail not
    /// written yet.
    wbuf: Vec<u8>,
    wpos: usize,
    /// `(end offset in wbuf, destinations)` of every frame in `wbuf` that
    /// is not fully written — what is lost if the connection fails now.
    unwritten: VecDeque<(usize, u64)>,
    /// When the tail last stopped moving.
    stalled_since: Option<Instant>,
    /// `rbuf[start..end]` is received but not yet routed. Allocated at
    /// the first read.
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    /// Queue one frame of `msg` for every site in `dsts`, behind every
    /// earlier frame (per-pair FIFO). Returns how many copies it refused:
    /// all of them when the connection is dead, which queues nothing.
    fn queue(&mut self, src: SiteId, dsts: DestSet, msg: &Msg, measured: bool) -> u64 {
        if self.dead {
            return dsts.len() as u64;
        }
        self.queue.push(OutFrame {
            src,
            dsts,
            msg: msg.clone(),
            measured,
        });
        0
    }

    fn has_tail(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// The bytes to write next: the tail, or else the next slice of the
    /// queue, encoded. Empty when everything is written.
    fn pending_out(&mut self) -> &[u8] {
        if !self.has_tail() {
            self.wbuf.clear();
            self.wpos = 0;
            let mut taken = 0;
            for f in &self.queue {
                if self.wbuf.len() >= WRITE_COALESCE_BYTES {
                    break;
                }
                append_frame(&mut self.wbuf, f);
                self.unwritten
                    .push_back((self.wbuf.len(), f.dsts.len() as u64));
                taken += 1;
            }
            self.queue.drain(..taken);
        }
        &self.wbuf[self.wpos..]
    }

    /// The first `n` bytes of [`Conn::pending_out`] were written. Returns
    /// how many frames that completed.
    fn wrote(&mut self, n: usize) -> u64 {
        self.wpos += n;
        self.stalled_since = None;
        let mut frames = 0;
        while self.unwritten.front().is_some_and(|f| f.0 <= self.wpos) {
            self.unwritten.pop_front();
            frames += 1;
        }
        frames
    }

    /// The socket took nothing at `now`. Returns whether the tail has now
    /// made no progress for [`WRITE_TIMEOUT`] — the connection must fail.
    fn stalled(&mut self, now: Instant) -> bool {
        let since = *self.stalled_since.get_or_insert(now);
        now.duration_since(since) >= WRITE_TIMEOUT
    }

    /// Where the next received bytes go: the free end of a receive buffer
    /// of at least [`READ_BUF_BYTES`]. A frame that straddles the end of
    /// what was received is first moved to the front, and one larger than
    /// the buffer grows it — within the bound [`Conn::filled`] validated.
    fn read_buf(&mut self) -> &mut [u8] {
        if self.start > 0 {
            self.rbuf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let need = if self.end >= HEADER_BYTES {
            let len = u32::from_le_bytes(self.rbuf[..4].try_into().expect("4 bytes"));
            (HEADER_BYTES + (len as usize).min(wire::MAX_FRAME)).max(READ_BUF_BYTES)
        } else {
            READ_BUF_BYTES
        };
        if self.rbuf.len() < need {
            self.rbuf.reserve_exact(need - self.rbuf.len());
            self.rbuf.resize(need, 0);
        }
        &mut self.rbuf[self.end..]
    }

    /// `n` bytes were received into [`Conn::read_buf`]: hand the flags and
    /// body of every frame now complete to `route`, in order. A length
    /// beyond [`wire::MAX_FRAME`] or a reserved flag bit is a bad frame,
    /// and so is whatever `route` rejects.
    fn filled(
        &mut self,
        n: usize,
        mut route: impl FnMut(u8, &[u8]) -> Result<(), BadFrame>,
    ) -> Result<(), BadFrame> {
        self.end += n;
        while self.end - self.start >= HEADER_BYTES {
            let at = self.start;
            let len = u32::from_le_bytes(self.rbuf[at..at + 4].try_into().expect("4 bytes"));
            let flags = self.rbuf[at + 4];
            if len as usize > wire::MAX_FRAME || flags & !(FLAG_MEASURED | FLAG_MULTI) != 0 {
                // Never trust the prefix: a corrupt length would
                // otherwise ask for a buffer of up to 4 GiB.
                return Err(BadFrame);
            }
            let need = HEADER_BYTES + len as usize;
            if self.end - at < need {
                break;
            }
            route(flags, &self.rbuf[at + HEADER_BYTES..at + need])?;
            self.start += need;
        }
        Ok(())
    }

    /// Fail the connection: later sends are refused, and every message not
    /// fully written — one per destination of every frame in the tail or
    /// the queue — is dropped. Returns how many copies that lost.
    fn fail(&mut self) -> u64 {
        let tail = self.unwritten.drain(..).map(|f| f.1).sum::<u64>();
        let queued = self.queue.drain(..).map(|f| f.dsts.len() as u64);
        self.dead = true;
        self.wbuf.clear();
        self.wpos = 0;
        tail + queued.sum::<u64>()
    }
}

/// The mesh's shared gauges, folded into the run's metrics at teardown.
#[derive(Default)]
struct Gauges {
    /// `write(2)` calls that moved bytes.
    syscall_writes: AtomicU64,
    /// `read(2)` calls (what the idle-pass test watches).
    syscall_reads: AtomicU64,
    /// Frames fully written.
    frames: AtomicU64,
    /// Flushes that left a tail.
    write_stalls: AtomicU64,
}

/// One worker's end of its socket to one peer: the connection and the
/// socket it moves bytes through. Touched only by that worker's thread
/// (under the worker's uncontended mutex).
struct Endpoint {
    stream: TcpStream,
    conn: Conn,
    /// Bytes read off the socket so far — compared against what the peer
    /// announced in [`MuxTransport::arrived`].
    consumed: u64,
}

/// Everything worker `a` owns of the mesh: entry `b` is its endpoint
/// toward worker `b` (`None` iff `a == b`).
type WorkerIo = Vec<Option<Endpoint>>;

/// The multiplexed transport every site shares: a send's own-shard half
/// goes straight to the worker's own inbox ([`Routes::send_own`]), and
/// each other worker's part is queued on the owning pair's connection —
/// one frame per peer worker — and moves when the owning worker pumps and
/// flushes.
pub(crate) struct MuxTransport {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
    workers: Vec<Mutex<WorkerIo>>,
    /// `arrived[a * W + b]`: bytes worker `b` has written toward worker
    /// `a`. Advanced by `b` after each write (`Release`), read by `a`'s
    /// pump (`Acquire`) — the one piece of an endpoint its peer touches.
    arrived: Vec<AtomicU64>,
    gauges: Gauges,
}

impl Transport for MuxTransport {
    fn send(&self, from: SiteId, to: DestSet, msg: &Msg, measured: bool) {
        let wa = self.routes.owner(from.index());
        let rest = self
            .routes
            .send_own(&self.quiesce, wa, from, to, msg, measured);
        if rest.is_empty() {
            return;
        }
        let refused = locked(&self.workers[wa], |peers| {
            let queue = |(wb, dsts)| endpoint(peers, wb).conn.queue(from, dsts, msg, measured);
            self.routes.peers(rest).map(queue).sum()
        });
        self.quiesce.lost(wa, refused);
    }

    fn pump(&self, wa: usize) -> bool {
        let w = self.workers.len();
        let mut behind = false;
        locked(&self.workers[wa], |peers| {
            for (wb, ep) in peers.iter_mut().enumerate() {
                let Some(ep) = ep else { continue };
                let announced = self.arrived[wa * w + wb].load(Ordering::Acquire);
                if !ep.conn.dead && announced > ep.consumed {
                    behind |= self.read_in(wa, ep, announced);
                }
            }
        });
        behind
    }

    fn flush(&self, wa: usize) -> bool {
        let w = self.workers.len();
        let mut tail = false;
        locked(&self.workers[wa], |peers| {
            for (wb, ep) in peers.iter_mut().enumerate() {
                let Some(ep) = ep else { continue };
                let wrote = self.write_out(wa, ep);
                if wrote > 0 {
                    // Write, then count, then notify: the peer either sees
                    // the count in the pump it is running, or finds its
                    // token set when it tries to park.
                    self.arrived[wb * w + wa].fetch_add(wrote, Ordering::Release);
                    self.routes.wake(wb);
                }
                tail |= ep.conn.has_tail();
            }
        });
        tail
    }

    fn fold_gauges(&self, metrics: &mut RunMetrics) {
        let read = |g: &AtomicU64| g.load(Ordering::Relaxed);
        metrics.syscall_writes += read(&self.gauges.syscall_writes);
        metrics.transport_frames += read(&self.gauges.frames);
        metrics.transport_write_stalls += read(&self.gauges.write_stalls);
    }
}

fn endpoint(peers: &mut [Option<Endpoint>], wb: usize) -> &mut Endpoint {
    peers[wb]
        .as_mut()
        .expect("mesh covers every cross-worker pair")
}

impl MuxTransport {
    /// Establish the worker mesh over `routes`: one socket per unordered
    /// worker pair, `TCP_NODELAY` everywhere, both ends nonblocking once
    /// the hello has crossed. With a single worker the mesh is empty —
    /// every site pair is same-shard and no socket exists.
    pub(crate) fn connect(
        routes: &Arc<Routes>,
        quiesce: &Arc<Quiesce>,
    ) -> causal_types::Result<MuxTransport> {
        let w = routes.workers();
        let mut io: Vec<WorkerIo> = (0..w).map(|_| (0..w).map(|_| None).collect()).collect();
        let sock_err = |_| Error::ChannelClosed;
        let bind = |_| TcpListener::bind("127.0.0.1:0");
        let listeners: Vec<_> = (0..w)
            .map(bind)
            .collect::<Result<_, _>>()
            .map_err(sock_err)?;

        // Worker a dials every b > a; the accepting side reads the 2-byte
        // hello. Dialing and accepting are interleaved deterministically:
        // for each (a, b) pair we connect and accept inline — loopback
        // makes this immediate and avoids a thread per handshake.
        let endpoint = |stream| Endpoint {
            stream,
            conn: Conn::default(),
            consumed: 0,
        };
        let pairs = (0..w).flat_map(|a| ((a + 1)..w).map(move |b| (a, b)));
        for (a, b) in pairs {
            let addr = listeners[b].local_addr().map_err(sock_err)?;
            let mut out = TcpStream::connect(addr).map_err(sock_err)?;
            out.write_all(&(a as u16).to_le_bytes()).map_err(sock_err)?;
            let (mut inc, _) = listeners[b].accept().map_err(sock_err)?;
            let mut hello = [0u8; 2];
            inc.read_exact(&mut hello).map_err(sock_err)?;
            debug_assert_eq!(u16::from_le_bytes(hello) as usize, a);
            for s in [&out, &inc] {
                // Nagle would delay small frames behind unacked data —
                // fatal for latency measurement on a chatty mesh.
                s.set_nodelay(true).map_err(sock_err)?;
                s.set_nonblocking(true).map_err(sock_err)?;
            }
            io[a][b] = Some(endpoint(out));
            io[b][a] = Some(endpoint(inc));
        }
        Ok(MuxTransport {
            routes: routes.clone(),
            quiesce: quiesce.clone(),
            workers: io.into_iter().map(Mutex::new).collect(),
            arrived: (0..w * w).map(|_| AtomicU64::new(0)).collect(),
            gauges: Gauges::default(),
        })
    }

    /// Write `ep`'s pending bytes until everything is out or the socket
    /// would block; what it would not take stays as the connection's tail.
    /// Returns the bytes written.
    fn write_out(&self, wa: usize, ep: &mut Endpoint) -> u64 {
        let bump = |g: &AtomicU64, by| g.fetch_add(by, Ordering::Relaxed);
        let mut wrote = 0u64;
        loop {
            let out = ep.conn.pending_out();
            if out.is_empty() {
                return wrote;
            }
            match ep.stream.write(out) {
                Ok(n) if n > 0 => {
                    bump(&self.gauges.syscall_writes, 1);
                    wrote += n as u64;
                    bump(&self.gauges.frames, ep.conn.wrote(n));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    bump(&self.gauges.write_stalls, 1);
                    if !ep.conn.stalled(Instant::now()) {
                        return wrote;
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => break,
            }
        }
        self.fail(wa, ep);
        wrote
    }

    /// Read until `ep` has consumed the `announced` bytes, routing every
    /// complete frame straight from the borrowed buffer ([`MuxTransport::route`]);
    /// a frame that fails validation fails the connection. Returns whether
    /// announced bytes are still missing.
    fn read_in(&self, me: usize, ep: &mut Endpoint, announced: u64) -> bool {
        while ep.consumed < announced {
            self.gauges.syscall_reads.fetch_add(1, Ordering::Relaxed);
            match ep.stream.read(ep.conn.read_buf()) {
                Ok(n) if n > 0 => {
                    ep.consumed += n as u64;
                    let route = |flags, body: &[u8]| self.route(me, flags, body);
                    if ep.conn.filled(n, route).is_err() {
                        self.quiesce.bad_frame();
                        self.fail(me, ep);
                        return false;
                    }
                }
                // Announced, but still inside the kernel.
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // End of stream (the peer failed the connection), or an error.
                _ => break,
            }
        }
        if ep.consumed < announced {
            self.fail(me, ep);
        }
        false
    }

    /// Fail `ep`, worker `me`'s end of a connection, and close its socket:
    /// every copy the connection drops is lost on `me`.
    fn fail(&self, me: usize, ep: &mut Endpoint) {
        self.quiesce.lost(me, ep.conn.fail());
        let _ = ep.stream.shutdown(Shutdown::Both);
    }

    /// Decode one frame body and deliver a copy of its message to every
    /// site its *header* names: the copies for sites of `me`, the worker
    /// pumping, are appended to its own inbox with no wake; a copy for a
    /// site another worker owns is pushed to that owner and wakes it at
    /// once. A copy whose worker has already left is lost on `me`.
    fn route(&self, me: usize, flags: u8, body: &[u8]) -> Result<(), BadFrame> {
        // Route on the header, not the connection: any in-range
        // destination is honoured, so a wrong-shard frame is rerouted to
        // its owner rather than dropped.
        let (src, dsts, msg) = decode_frame(body, flags, self.routes.sites())?;
        let measured = flags & FLAG_MEASURED != 0;
        let rest = self
            .routes
            .send_own(&self.quiesce, me, src, dsts, &msg, measured);
        let deliver = |site| self.routes.deliver(site, Wire::msg(src, &msg, measured));
        let gone = rest.iter().filter(|&site| !deliver(site)).count();
        self.quiesce.lost(me, gone as u64);
        Ok(())
    }
}

/// Append one framed message to a connection's write buffer: the body is
/// encoded once however many destinations it has, which the header names
/// in ascending order.
fn append_frame(buf: &mut Vec<u8>, f: &OutFrame) {
    let mut put = |flags: u8, body: &[u8]| {
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.push(flags | if f.measured { FLAG_MEASURED } else { 0 });
        buf.extend_from_slice(body);
    };
    let mut ids = [SiteId(0); MAX_SITES];
    let mut k = 0;
    for d in f.dsts.iter() {
        ids[k] = d;
        k += 1;
    }
    match ids[..k] {
        [dst] => wire::encode_routed_with(f.src, dst, &f.msg, |body| put(0, body)),
        _ => wire::encode_multi_routed_with(f.src, &ids[..k], &f.msg, |body| put(FLAG_MULTI, body)),
    }
}

/// Decode one frame body: its source, its destinations and its message.
/// A body the codec rejects, or a destination outside a system of `sites`
/// sites, is a bad frame.
fn decode_frame(body: &[u8], flags: u8, sites: usize) -> Result<(SiteId, DestSet, Msg), BadFrame> {
    let (src, dsts, msg) = if flags & FLAG_MULTI != 0 {
        let m = wire::decode_multi_routed(body).map_err(|_| BadFrame)?;
        (m.src, m.dsts, m.msg)
    } else {
        let r = wire::decode_routed(body).map_err(|_| BadFrame)?;
        (r.src, DestSet::from_sites([r.dst]), r.msg)
    };
    if !dsts.is_subset(&DestSet::full(sites)) {
        return Err(BadFrame);
    }
    Ok((src, dsts, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::test_fabric;
    use causal_proto::Fm;
    use causal_types::VarId;
    use proptest::prelude::*;

    fn site(i: usize) -> SiteId {
        SiteId::from(i)
    }

    /// The sites `ids`, as a send names them.
    fn to(ids: &[usize]) -> DestSet {
        DestSet::from_sites(ids.iter().map(|&i| site(i)))
    }

    fn fm(var: u32) -> Msg {
        Msg::Fm(Fm { var: VarId(var) })
    }

    /// `msg` from site 0 to `dst`, framed as it crosses the wire.
    fn frame(dst: usize, msg: &Msg) -> Vec<u8> {
        let mut f = Vec::new();
        append_frame(
            &mut f,
            &OutFrame {
                src: site(0),
                dsts: to(&[dst]),
                msg: msg.clone(),
                measured: false,
            },
        );
        f
    }

    /// A Full-Track SM whose 128 × 128 matrix makes a ~100 KB frame —
    /// larger than the read buffer, and a few dozen fill a socket.
    fn big_sm(var: u32) -> Msg {
        Msg::Sm(causal_proto::Sm {
            var: VarId(var),
            value: causal_types::VersionedValue::new(causal_types::WriteId::new(site(0), 1), 0),
            meta: causal_proto::SmMeta::FullTrack {
                write: Arc::new(causal_clocks::MatrixClock::from_cells(
                    128,
                    vec![1 << 40; 128 * 128],
                )),
            },
        })
    }

    /// An Opt-Track SM whose piggyback holds one log entry.
    fn sm_with_log() -> Msg {
        use causal_clocks::{Log, LogEntry};
        use causal_proto::{Sm, SmMeta};
        use causal_types::{VersionedValue, WriteId};
        let entry = LogEntry::new(site(2), 4, DestSet::from_sites([site(1), site(5)]));
        Msg::Sm(Sm {
            var: VarId(9),
            value: VersionedValue::new(WriteId::new(site(0), 3), 77),
            meta: SmMeta::OptTrack {
                clock: 3,
                log: Arc::new({
                    let mut log = Log::new();
                    log.upsert(entry);
                    log
                }),
            },
        })
    }

    /// A received frame: source, destinations, message, attribution.
    type Got = (SiteId, DestSet, Msg, bool);

    /// The two ends of one connection joined by an in-memory byte pipe,
    /// each step playing one system call: `a` writes, `b` reads, and `b`
    /// decodes frames as the shell does, for a system of `sites` sites.
    struct Pipe {
        a: Conn,
        b: Conn,
        sites: usize,
        /// Bytes written and not read yet.
        wire: VecDeque<u8>,
        /// Every byte `a` ever wrote.
        stream: Vec<u8>,
        /// Frames `a` finished writing.
        written: u64,
        /// What `b` received, in order.
        got: Vec<Got>,
        /// Bad frames `b` saw; the first failed it.
        bad: u64,
    }

    impl Pipe {
        fn new(sites: usize) -> Self {
            Pipe {
                a: Conn::default(),
                b: Conn::default(),
                sites,
                wire: VecDeque::new(),
                stream: Vec::new(),
                written: 0,
                got: Vec::new(),
                bad: 0,
            }
        }

        fn send(&mut self, (src, dsts, msg, measured): &Got) -> u64 {
            self.a.queue(*src, *dsts, msg, *measured)
        }

        /// One write of at most `most` bytes. Returns the bytes moved.
        fn write(&mut self, most: usize) -> usize {
            let out = self.a.pending_out();
            let n = out.len().min(most);
            self.wire.extend(&out[..n]);
            self.stream.extend_from_slice(&out[..n]);
            self.written += self.a.wrote(n);
            n
        }

        /// A flush at `now` into a socket that holds at most `cap` unread
        /// bytes, as the shell's: write until everything is out, and stall
        /// on a full socket. Returns whether the stall timed out.
        fn flush(&mut self, cap: usize, now: Instant) -> bool {
            while !self.a.pending_out().is_empty() {
                if self.wire.len() >= cap {
                    return self.a.stalled(now);
                }
                self.write(cap - self.wire.len());
            }
            false
        }

        /// One read of at most `most` bytes, unless `b` has failed.
        /// Returns the bytes moved.
        fn read(&mut self, most: usize) -> usize {
            if self.b.dead {
                return 0;
            }
            let buf = self.b.read_buf();
            let n = buf.len().min(most).min(self.wire.len());
            buf[..n]
                .iter_mut()
                .zip(self.wire.drain(..n))
                .for_each(|(slot, byte)| *slot = byte);
            let (sites, got) = (self.sites, &mut self.got);
            let route = |flags, body: &[u8]| {
                let (src, dsts, msg) = decode_frame(body, flags, sites)?;
                got.push((src, dsts, msg, flags & FLAG_MEASURED != 0));
                Ok(())
            };
            if self.b.filled(n, route).is_err() {
                self.bad += 1;
                assert_eq!(self.b.fail(), 0, "the reading end sent nothing");
            }
            assert!(
                self.b.rbuf.capacity() <= HEADER_BYTES + wire::MAX_FRAME,
                "the receive buffer outgrew the frame bound"
            );
            n
        }

        /// Read until the pipe is empty or `b` has failed.
        fn read_all(&mut self, most: usize) {
            while self.read(most) > 0 {}
        }

        /// Read `bytes`, `most` at a time, into a new receiving end that
        /// keeps the last one's receive buffer, so that reading one stream
        /// after another allocates nothing new.
        fn reread(&mut self, bytes: &[u8], most: usize) {
            let rbuf = std::mem::take(&mut self.b.rbuf);
            self.b = Conn {
                rbuf,
                ..Conn::default()
            };
            self.got.clear();
            self.bad = 0;
            self.wire.clear();
            self.wire.extend(bytes);
            self.read_all(most);
        }
    }

    /// `bytes` arrive at a connection of a two-site system and must fail
    /// it: one bad frame, the connection dead, nothing delivered, no panic
    /// — on a `Conn`, and through the shell's pump, where the bad frame is
    /// the run's one connection error and a later pump reads nothing.
    fn assert_bad_frame_fails_the_connection(bytes: &[u8]) {
        let mut p = Pipe::new(2);
        p.wire.extend(bytes);
        p.read_all(usize::MAX);
        assert_eq!(p.bad, 1);
        assert!(p.b.dead, "the connection is failed");
        assert!(p.got.is_empty(), "no message is delivered");

        let r = rig(2, 2);
        r.inject(0, 1, bytes);
        r.pump_all(1);
        assert_eq!(r.conn_errors(), 1);
        let dead = r.endpoint(1, 0, |ep| ep.conn.dead);
        assert!(dead, "the endpoint is failed");
        assert!(r.no_mailbox_touched(), "no message is delivered");
        let reads = || r.gauge(|g| &g.syscall_reads);
        let before = reads();
        assert!(!r.mesh.pump(1));
        assert_eq!(reads(), before, "a dead end is not read");
    }

    #[test]
    fn oversized_length_prefix_fails_the_connection_not_the_process() {
        // A frame claiming 2 GiB: must be rejected before any allocation.
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(2u32 << 30).to_le_bytes());
        assert_bad_frame_fails_the_connection(&header);
    }

    #[test]
    fn corrupt_frame_tears_the_connection_down_cleanly() {
        // Well-formed header, garbage body: the codec must reject it (the
        // pre-PR6 code panicked here).
        let mut frame = 16u32.to_le_bytes().to_vec();
        frame.push(0);
        frame.extend_from_slice(&[0xFF; 16]);
        assert_bad_frame_fails_the_connection(&frame);
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        assert_bad_frame_fails_the_connection(&[0, 0, 0, 0, 0x80]);
    }

    #[test]
    fn out_of_range_destination_fails_the_connection() {
        // Valid routed frame, but dst = 5 in a 2-site system.
        assert_bad_frame_fails_the_connection(&frame(5, &fm(0)));
    }

    #[test]
    fn reader_routes_frames_that_straddle_or_outgrow_its_buffer() {
        // One burst far larger than the receive buffer: small frames, one
        // of which must straddle a buffer end, then a single frame larger
        // than the whole buffer, then a small one behind it.
        let mut p = Pipe::new(2);
        let small = 20_000u32;
        for i in 0..small {
            p.wire.extend(frame(1, &fm(i)));
        }
        assert!(p.wire.len() > 2 * READ_BUF_BYTES);
        let big = big_sm(1);
        assert!(frame(1, &big).len() > READ_BUF_BYTES);
        p.wire.extend(frame(1, &big));
        p.wire.extend(frame(1, &fm(small)));
        p.read_all(usize::MAX);

        let msgs: Vec<Msg> = p.got.into_iter().map(|g| g.2).collect();
        let want = (0..small).map(fm).chain([big, fm(small)]);
        assert!(msgs.into_iter().eq(want));
        assert_eq!(p.bad, 0);
    }

    /// Site 0 sends site 1 the next distinct ~100 KB frame.
    fn send_big(p: &mut Pipe, sent: &mut u32) {
        assert_eq!(p.send(&(site(0), to(&[1]), big_sm(*sent), false)), 0);
        *sent += 1;
    }

    /// A socket that holds ~1 MB unread, as loopback's buffers do.
    const SOCKET_BYTES: usize = 1 << 20;

    #[test]
    fn a_partial_write_keeps_its_tail_and_every_frame_arrives_once_in_order() {
        // Nobody reads: sooner or later a flush stops mid-slice.
        let mut p = Pipe::new(2);
        let now = Instant::now();
        let mut sent = 0;
        while !p.a.has_tail() {
            send_big(&mut p, &mut sent);
            assert!(!p.flush(SOCKET_BYTES, now));
        }
        assert!(p.a.stalled_since.is_some(), "the flush stalled");
        // Later sends queue behind the tail.
        (0..5).for_each(|_| send_big(&mut p, &mut sent));
        assert!(p.a.has_tail() && p.a.queue.len() == 5);

        // The peer reads again: both sides alternate until all is across.
        for _ in 0..1_000 {
            p.flush(SOCKET_BYTES, now);
            p.read_all(READ_BUF_BYTES);
            if p.got.len() == sent as usize {
                break;
            }
        }
        let msgs = p.got.iter().map(|g| &g.2);
        assert!(
            msgs.eq(&(0..sent).map(big_sm).collect::<Vec<_>>()),
            "whole, once, in order"
        );
        assert!(p.a.pending_out().is_empty() && p.wire.is_empty(), "settled");
        assert_eq!(p.written, u64::from(sent));
        assert_eq!(p.bad, 0);
        assert!(p.a.stalled_since.is_none(), "progress ended the stall");
    }

    #[test]
    fn a_stuck_peer_fails_the_connection_after_the_write_timeout() {
        // Nobody reads while site 0 keeps multicasting to three sites: the
        // tail stops moving, and only once it has not moved for the whole
        // timeout is the connection failed, with every copy not fully
        // written — all three of each such frame — counted lost.
        let mut p = Pipe::new(8);
        let dsts = to(&[1, 2, 3]);
        let t0 = Instant::now();
        let mut sent = 0u32;
        while !p.a.has_tail() {
            assert_eq!(p.send(&(site(0), dsts, big_sm(sent), false)), 0);
            sent += 1;
            assert!(!p.flush(SOCKET_BYTES, t0));
        }
        for _ in 0..10 {
            assert_eq!(p.send(&(site(0), dsts, big_sm(sent), false)), 0);
            sent += 1;
        }
        // Progress restarts the clock: the peer reads a little, and a
        // flush just before the timeout moves bytes.
        p.read(READ_BUF_BYTES);
        let t1 = t0 + WRITE_TIMEOUT - Duration::from_millis(1);
        assert!(!p.flush(SOCKET_BYTES, t1));
        assert!(!p.flush(SOCKET_BYTES, t0 + WRITE_TIMEOUT), "moved 1 ms ago");
        assert!(!p.flush(SOCKET_BYTES, t1 + WRITE_TIMEOUT / 2));
        assert!(p.flush(SOCKET_BYTES, t1 + WRITE_TIMEOUT), "stuck for 5 s");
        let lost = p.a.fail();
        assert!(lost > 0, "the frame cut in two is lost, at least");
        assert_eq!(lost % 3, 0, "a frame fails with all its destinations");
        assert!(
            p.a.pending_out().is_empty(),
            "nothing is kept for a dead peer"
        );
        let refused = p.send(&(site(0), dsts, fm(0), false));
        assert_eq!(refused, 3, "later sends fail fast");
        // What the socket did take is still deliverable: received plus
        // lost is exactly what was sent.
        p.read_all(usize::MAX);
        let received = p.got.len() as u64;
        assert!(p
            .got
            .iter()
            .map(|g| &g.2)
            .eq(&(0..received as u32).map(big_sm).collect::<Vec<_>>()));
        assert_eq!(3 * received + lost, 3 * u64::from(sent));
        assert_eq!(p.written, received, "a frame counts written once whole");
        assert_eq!(p.bad, 0);
    }

    /// Sites of the proptest's system.
    const SITES: usize = 8;

    /// A frame drawn from `(kind, bits)`: kinds 0 and 1 are a unicast FM
    /// and RM, 2 and 3 a multi-routed FM and Opt-Track SM, 4 a ~100 KB
    /// Full-Track SM; `bits` picks the sites, the variable and the
    /// attribution.
    fn drawn(kind: u8, bits: u64) -> Got {
        let one = to(&[(bits >> 16) as usize % SITES]);
        let mut some =
            DestSet::from_sites((0..SITES).filter(|i| bits >> (8 + i) & 1 == 1).map(site));
        if some.is_empty() {
            some = one;
        }
        let var = (bits >> 24) as u32 % causal_types::MAX_VARS as u32;
        let (dsts, msg) = match kind {
            0 => (one, fm(var)),
            1 => (
                one,
                Msg::Rm(causal_proto::Rm {
                    var: VarId(var),
                    value: None,
                    meta: causal_proto::RmMeta::OptTrack(None),
                }),
            ),
            2 => (some, fm(var)),
            3 => (some, sm_with_log()),
            _ => (some, big_sm(var)),
        };
        (site(bits as usize % SITES), dsts, msg, bits >> 63 == 1)
    }

    /// Where each frame of `stream` ends.
    fn frame_ends(stream: &[u8]) -> Vec<usize> {
        let mut ends = vec![];
        let mut at = 0;
        while at < stream.len() {
            let len = u32::from_le_bytes(stream[at..at + 4].try_into().expect("4 bytes"));
            at += HEADER_BYTES + len as usize;
            ends.push(at);
        }
        ends
    }

    /// `frames`, encoded as one connection writes them.
    fn encoded(frames: &[Got]) -> Vec<u8> {
        let mut p = Pipe::new(SITES);
        frames.iter().for_each(|f| assert_eq!(p.send(f), 0));
        while p.write(usize::MAX) > 0 {}
        p.stream
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn frames_arrive_whole_once_and_in_order_through_any_partial_writes_and_reads(
            frames in proptest::collection::vec((0u8..5, any::<u64>()), 1..10),
            cuts in proptest::collection::vec(
                // Sizes from one byte to ~128 KB, each octave as likely.
                (1u32..18, any::<u64>()).prop_map(|(e, b)| 1 + (b % (1 << e)) as usize),
                1..8,
            ),
        ) {
            let frames: Vec<Got> = frames.into_iter().map(|(k, b)| drawn(k, b)).collect();
            let mut p = Pipe::new(SITES);
            let mut cut = cuts.iter().cycle().copied();
            let mut queued = 0;
            for _ in 0..10_000_000 {
                if p.got.len() == frames.len() {
                    break;
                }
                if let Some(f) = frames.get(queued) {
                    prop_assert_eq!(p.send(f), 0);
                    queued += 1;
                }
                p.write(cut.next().expect("cycles"));
                p.read(cut.next().expect("cycles"));
            }
            prop_assert_eq!(&p.got, &frames);
            prop_assert_eq!(p.written, frames.len() as u64);
            prop_assert_eq!(p.bad, 0);
            prop_assert!(p.a.pending_out().is_empty() && p.wire.is_empty());

            // Every truncation: the stream read one byte at a time has
            // delivered, after each byte, exactly the frames that end
            // there or before — and nothing is ever counted bad.
            let ends = frame_ends(&p.stream);
            let mut q = Pipe::new(SITES);
            q.wire.extend(&p.stream);
            for read in 1..=p.stream.len() {
                q.read(1);
                let whole = ends.partition_point(|&e| e <= read);
                prop_assert_eq!(q.got.len(), whole, "after {} bytes", read);
            }
            prop_assert_eq!(q.got, frames);
            prop_assert_eq!(q.bad, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_truncated_or_bit_flipped_stream_delivers_an_intact_prefix_or_fails_once(
            frames in proptest::collection::vec((0u8..4, any::<u64>()), 1..6),
            chunk in 1usize..48,
        ) {
            let frames: Vec<Got> = frames.into_iter().map(|(k, b)| drawn(k, b)).collect();
            let stream = encoded(&frames);
            let ends = frame_ends(&stream);
            let mut p = Pipe::new(SITES);
            // Every truncation delivers the whole frames it holds.
            for cut in 0..=stream.len() {
                p.reread(&stream[..cut], chunk);
                let whole = ends.partition_point(|&e| e <= cut);
                prop_assert_eq!(&p.got[..], &frames[..whole], "cut at {}", cut);
                prop_assert_eq!(p.bad, 0);
            }
            // Every single bit flip: the frames before the damaged one
            // arrive intact and in order. The damaged one either fails the
            // connection — one bad frame, nothing delivered after it — or
            // decodes to some well-formed frame: the wire has no checksum,
            // so a flipped value bit cannot be noticed.
            let mut flipped = stream.clone();
            for bit in 0..stream.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                p.reread(&flipped, chunk);
                flipped[bit / 8] ^= 1 << (bit % 8);
                let intact = ends.partition_point(|&e| e <= bit / 8);
                prop_assert!(p.got.len() >= intact, "bit {}", bit);
                prop_assert_eq!(&p.got[..intact], &frames[..intact], "bit {}", bit);
                prop_assert!(p.bad <= 1);
                prop_assert_eq!(p.bad == 1, p.b.dead);
            }
        }
    }

    /// A connected mesh whose workers are the test itself: it calls
    /// `pump` and `flush` where a worker's pass would — no helper thread —
    /// and takes the inboxes, sorting what they held by destination.
    struct Rig {
        routes: Arc<Routes>,
        /// Per site, the frames taken out of its owner's inbox so far.
        mailboxes: Mutex<Vec<VecDeque<Wire>>>,
        quiesce: Arc<Quiesce>,
        mesh: MuxTransport,
    }

    fn rig(n: usize, workers: usize) -> Rig {
        let (routes, quiesce) = test_fabric(n, workers);
        let mesh = MuxTransport::connect(&routes, &quiesce).unwrap();
        Rig {
            routes,
            mailboxes: Mutex::new((0..n).map(|_| VecDeque::new()).collect()),
            quiesce,
            mesh,
        }
    }

    impl Rig {
        fn gauge(&self, g: impl Fn(&Gauges) -> &AtomicU64) -> u64 {
            g(&self.mesh.gauges).load(Ordering::Relaxed)
        }

        fn conn_errors(&self) -> u64 {
            self.quiesce.conn_errors()
        }

        /// Look at worker `a`'s endpoint toward worker `b`.
        fn endpoint<R>(&self, a: usize, b: usize, f: impl FnOnce(&mut Endpoint) -> R) -> R {
            locked(&self.mesh.workers[a], |peers| f(endpoint(peers, b)))
        }

        /// Put raw bytes on the wire from worker `a`'s end toward worker
        /// `b` and announce them, as a flush would; `b` pumps whenever the
        /// socket is full.
        fn inject(&self, a: usize, b: usize, mut bytes: &[u8]) {
            let w = self.routes.workers();
            while !bytes.is_empty() {
                match self.endpoint(a, b, |ep| ep.stream.write(bytes)) {
                    Ok(n) => {
                        self.mesh.arrived[b * w + a].fetch_add(n as u64, Ordering::Release);
                        bytes = &bytes[n..];
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.mesh.pump(b);
                    }
                    Err(e) => panic!("inject: {e}"),
                }
            }
        }

        /// Pump worker `w` until everything announced to it has arrived.
        fn pump_all(&self, w: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.mesh.pump(w) {
                assert!(Instant::now() < deadline, "announced bytes never arrived");
                std::thread::yield_now();
            }
        }

        /// Take every inbox and run `f` on the per-site frames so far.
        fn mailboxes<R>(&self, f: impl FnOnce(&mut [VecDeque<Wire>]) -> R) -> R {
            locked(&self.mailboxes, |boxes| {
                for w in 0..self.routes.workers() {
                    for (site, wire) in self.routes.taken(w) {
                        assert_eq!(self.routes.owner(site.index()), w, "in its owner's inbox");
                        boxes[site.index()].push_back(wire);
                    }
                }
                f(boxes)
            })
        }

        /// The next frame for `site`, if one has arrived.
        fn try_recv(&self, site: usize) -> Option<Wire> {
            self.mailboxes(|boxes| boxes[site].pop_front())
        }

        /// The next frame for `site`, which must already be there.
        fn next_msg(&self, site: usize) -> (SiteId, Msg) {
            match self.try_recv(site) {
                Some(Wire::Msg { from, msg, .. }) => (from, msg),
                _ => panic!("expected a message"),
            }
        }

        fn no_mailbox_touched(&self) -> bool {
            self.mailboxes(|boxes| boxes.iter().all(VecDeque::is_empty))
        }

        /// The sites worker `w` runs, ascending.
        fn shard(&self, w: usize) -> Vec<usize> {
            self.routes.shard(w).iter().map(SiteId::index).collect()
        }
    }

    #[test]
    fn wrong_shard_frame_is_rerouted_not_dropped() {
        // 4 sites over 2 workers. A frame addressed to a site of worker 0
        // arriving at worker 1 must land in worker 0's inbox, for that
        // site, and wake worker 0 — the pump trusts the routing header, not
        // the socket the frame came in on — while an own-shard frame wakes
        // nobody: the pumping worker takes it next.
        let r = rig(4, 2);
        let (wrong_dst, own_dst) = (r.shard(0)[1], r.shard(1)[1]);
        let mut wrong = frame(wrong_dst, &fm(7));
        wrong[4] |= FLAG_MEASURED;
        r.inject(0, 1, &wrong);
        r.inject(0, 1, &frame(own_dst, &fm(8)));
        r.pump_all(1);

        match r.try_recv(wrong_dst) {
            Some(Wire::Msg {
                from,
                msg,
                measured,
            }) => {
                assert_eq!((from, msg), (site(0), fm(7)));
                assert!(measured);
            }
            _ => panic!("the frame reaches the header's destination"),
        }
        assert!(
            r.routes.take_wake(0, Duration::ZERO),
            "the destination's owner is woken"
        );
        assert_eq!(r.next_msg(own_dst), (site(0), fm(8)));
        assert!(
            !r.routes.take_wake(1, Duration::ZERO),
            "own-shard copies need no wake"
        );
        assert!(r.no_mailbox_touched(), "no other site sees a frame");
        assert_eq!(r.conn_errors(), 0);
    }

    #[test]
    fn dead_connection_fails_sends_fast_without_blocking() {
        // Sites on two workers with the connection already marked dead:
        // the send must fail immediately (no socket interaction, no
        // sleep-poll), count a connection error per refused copy and
        // count it done on the sender's worker.
        let r = rig(4, 2);
        let (a, b) = (r.shard(0), r.shard(1));
        r.endpoint(0, 1, |ep| ep.conn.dead = true);
        r.endpoint(1, 0, |ep| ep.conn.dead = true);
        r.quiesce.frames_sent(0, 1);
        r.mesh.send(site(a[0]), to(&b[..1]), &fm(0), true);
        r.quiesce.frames_sent(1, 2);
        r.mesh.send(site(b[0]), to(&a), &fm(0), true);
        assert_eq!(r.conn_errors(), 3);
        assert_eq!(r.quiesce.in_flight(), 0, "refused copies are done");
        assert!(r.endpoint(0, 1, |ep| ep.conn.queue.is_empty()));
        assert!(!r.mesh.flush(0) && !r.mesh.flush(1));
        assert!(!r.mesh.pump(0) && !r.mesh.pump(1));
        assert_eq!(r.gauge(|g| &g.syscall_writes), 0);
        assert_eq!(r.gauge(|g| &g.syscall_reads), 0);
    }

    #[test]
    fn writer_marks_dead_peer_and_uncounts_inflight_frames() {
        // The peer vanishes; the flush must surface the failure (dead
        // flag + connection errors) and count every doomed message — all k
        // destinations of a multi-routed frame — done on the flushing
        // worker's tally, so quiescence cannot hang.
        let r = rig(8, 2);
        r.endpoint(1, 0, |ep| ep.stream.shutdown(Shutdown::Both).unwrap());
        // Several coalescing slices: the first write may still reach the
        // kernel, a later one must fail (RST).
        let (frames, k): (u64, u64) = (100_000, 3);
        let sent = frames * k;
        let dsts = to(&r.shard(1)[..3]);
        for _ in 0..frames {
            r.quiesce.frames_sent(0, k);
            r.mesh.send(site(0), dsts, &fm(0), false);
        }
        assert_eq!(r.conn_errors(), 0, "nothing fails before the flush");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !r.endpoint(0, 1, |ep| ep.conn.dead) {
            assert!(Instant::now() < deadline, "the failure never surfaced");
            r.mesh.flush(0);
        }
        let failed = r.conn_errors();
        assert!(failed > 0, "some frames positively failed");
        assert_eq!(failed % k, 0, "a frame fails with all its destinations");
        // Every frame either reached the kernel (still counted in flight —
        // nothing received them in this test) or was un-counted as failed.
        assert_eq!(r.quiesce.in_flight(), sent - failed);
        // Later sends fail fast and leave the tally where it was.
        r.quiesce.frames_sent(0, k);
        r.mesh.send(site(0), dsts, &fm(0), false);
        assert_eq!(r.conn_errors(), failed + k);
        assert_eq!(r.quiesce.in_flight(), sent - failed);
    }

    #[test]
    fn multicast_crosses_each_connection_once_and_keeps_pair_fifo() {
        // 6 sites over 2 workers, three each. Site 0 multicasts to
        // everyone else, then answers a site of the other worker with a
        // unicast RM.
        let r = rig(6, 2);
        let (mine, theirs) = (r.shard(0), r.shard(1));
        let sm = sm_with_log();
        r.mesh.send(site(0), to(&[1, 2, 3, 4, 5]), &sm, true);
        let rm = Msg::Rm(causal_proto::Rm {
            var: VarId(9),
            value: None,
            meta: causal_proto::RmMeta::OptTrack(None),
        });
        r.mesh.send(site(0), to(&theirs[..1]), &rm, true);
        assert!(
            !r.routes.take_wake(1, Duration::ZERO),
            "nothing moves, and nobody is woken, before the pass ends"
        );
        assert!(!r.mesh.flush(0));
        assert!(r.routes.take_wake(1, Duration::ZERO));
        r.pump_all(1);

        // Exactly one copy per destination, local or remote.
        let copy = |i: usize| {
            let (from, msg) = r.next_msg(i);
            assert_eq!((from, &msg), (site(0), &sm), "site {i}");
            msg
        };
        let remote: Vec<Msg> = theirs.iter().map(|&i| copy(i)).collect();
        let local: Vec<Msg> = mine[1..].iter().map(|&i| copy(i)).collect();
        // Per-pair FIFO: the later unicast arrives behind the multicast.
        assert_eq!(r.next_msg(theirs[0]).1, rm);
        assert!(r.no_mailbox_touched());

        // The remote copies were decoded once: they share one piggyback,
        // distinct from the sender's.
        let log_of = |m: &Msg| match m {
            Msg::Sm(causal_proto::Sm {
                meta: causal_proto::SmMeta::OptTrack { log, .. },
                ..
            }) => log.clone(),
            _ => panic!("expected an Opt-Track SM"),
        };
        let (sent, decoded) = (log_of(&sm), log_of(&remote[0]));
        assert!(remote.iter().all(|m| Arc::ptr_eq(&decoded, &log_of(m))));
        assert!(!Arc::ptr_eq(&decoded, &sent));
        assert!(
            local.iter().all(|m| Arc::ptr_eq(&sent, &log_of(m))),
            "local copies share the sender's"
        );

        let mut metrics = RunMetrics::new();
        r.mesh.fold_gauges(&mut metrics);
        assert_eq!(
            metrics.transport_frames, 2,
            "one multi-routed frame, one unicast"
        );
        assert_eq!(metrics.syscall_writes, 1, "in one write");
        assert_eq!(metrics.transport_write_stalls, 0);
        assert_eq!(r.conn_errors(), 0);
    }

    #[test]
    fn a_wide_multicast_is_one_frame_per_peer_in_send_order() {
        // 40 sites over 4 workers; site 0 multicasts to the other 39. The
        // split must leave exactly one frame per peer worker, each naming
        // that worker's destinations.
        let r = rig(40, 4);
        let everyone = DestSet::full(40).minus(&to(&[0]));
        r.mesh.send(site(0), everyone, &fm(1), false);
        for wb in 1..4 {
            let dsts = r.endpoint(0, wb, |ep| {
                assert_eq!(ep.conn.queue.len(), 1, "one frame toward worker {wb}");
                ep.conn.queue[0].dsts
            });
            assert_eq!(dsts, r.routes.shard(wb), "worker {wb}");
        }
        assert!(!r.mesh.flush(0));
        for wb in 1..4 {
            assert!(r.routes.take_wake(wb, Duration::ZERO), "worker {wb} woken");
            r.pump_all(wb);
            assert!(
                !r.routes.take_wake(wb, Duration::ZERO),
                "its own copies wake nobody"
            );
        }
        assert!(!r.routes.take_wake(0, Duration::ZERO));
        for i in 1..40 {
            assert_eq!(r.next_msg(i), (site(0), fm(1)), "site {i}");
        }
        assert!(r.no_mailbox_touched(), "one copy each");
        assert_eq!(r.gauge(|g| &g.frames), 3);
    }

    #[test]
    fn a_stuck_socket_fails_its_connection_after_the_write_timeout() {
        // Worker 1 never pumps while site 0 sends until a flush leaves a
        // tail. The shell then finds the tail stuck since a whole timeout
        // ago — its stall instant is set back rather than slept through —
        // and fails the connection, with every copy not fully written
        // counted lost.
        let r = rig(2, 2);
        let mut sent = 0;
        loop {
            assert!(sent < 1_000, "100 MB and the socket never filled");
            r.quiesce.frames_sent(0, 1);
            r.mesh.send(site(0), to(&[1]), &big_sm(sent), false);
            sent += 1;
            if r.mesh.flush(0) {
                break;
            }
        }
        let since_a_timeout = || Instant::now().checked_sub(WRITE_TIMEOUT);
        for _ in 0..100 {
            if r.endpoint(0, 1, |ep| ep.conn.dead) {
                break;
            }
            r.endpoint(0, 1, |ep| ep.conn.stalled_since = since_a_timeout());
            r.mesh.flush(0);
        }
        assert!(r.endpoint(0, 1, |ep| ep.conn.dead), "the stall timed out");
        let lost = r.conn_errors();
        assert!(lost > 0, "the frame cut in two is lost, at least");
        assert!(!r.mesh.flush(0), "nothing is kept for a dead peer");
        // What the socket did take is still deliverable: received plus
        // lost is exactly what was sent, so the tally ends at zero.
        r.pump_all(1);
        let mut received = 0;
        while let Some(Wire::Msg { msg, .. }) = r.try_recv(1) {
            assert_eq!(msg, big_sm(received));
            r.quiesce.frames_done(1, 1);
            received += 1;
        }
        assert_eq!(u64::from(received) + lost, u64::from(sent));
        assert_eq!(r.quiesce.in_flight(), 0);
        assert_eq!(r.conn_errors(), lost, "the peer counts nothing twice");
    }

    #[test]
    fn an_idle_pass_makes_no_syscall() {
        let r = rig(6, 3);
        // Some traffic first, so every endpoint has been used.
        for w in 0..3 {
            r.mesh
                .send(site(r.shard(w)[0]), DestSet::full(6), &fm(0), false);
            assert!(!r.mesh.flush(w));
        }
        (0..3).for_each(|w| r.pump_all(w));
        let syscalls = || r.gauge(|g| &g.syscall_reads) + r.gauge(|g| &g.syscall_writes);
        let before = syscalls();
        assert!(before > 0);
        for _ in 0..1_000 {
            for w in 0..3 {
                assert!(!r.mesh.pump(w) && !r.mesh.flush(w));
            }
        }
        assert_eq!(syscalls(), before, "nothing to move, nothing asked");
    }

    #[test]
    fn two_workers_ping_pong_through_a_socket_without_losing_a_wake() {
        // The socket analogue of the wake latch's ping-pong hammer: each
        // side sends one frame, flushes, and parks until the other's
        // answer has been pumped into its inbox. A wake lost between a
        // pump that found nothing and the park strands a round until the
        // deadline.
        const ROUNDS: u32 = 20_000;
        let r = rig(2, 2);
        let (mesh, routes) = (&r.mesh, &*r.routes);
        let deadline = Instant::now() + Duration::from_secs(10);
        let await_frame = |me: usize, round: u32| loop {
            let unsettled = mesh.pump(me);
            if let Some(Wire::Msg { msg, .. }) = r.try_recv(me) {
                return assert_eq!(msg, fm(round));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "lost wake-up in round {round}");
            let park = if unsettled {
                Duration::from_micros(50)
            } else {
                left
            };
            routes.take_wake(me, park);
        };
        std::thread::scope(|s| {
            s.spawn(move || {
                for round in 0..ROUNDS {
                    await_frame(1, round);
                    mesh.send(site(1), to(&[0]), &fm(round), false);
                    assert!(!mesh.flush(1));
                }
            });
            for round in 0..ROUNDS {
                mesh.send(site(0), to(&[1]), &fm(round), false);
                assert!(!mesh.flush(0));
                await_frame(0, round);
            }
        });
        assert_eq!(r.gauge(|g| &g.frames), 2 * u64::from(ROUNDS));
        assert_eq!(r.conn_errors(), 0);
    }
}
