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
//! it reads them when its pass begins ([`Transport::pump`]) and writes
//! them when its pass ends ([`Transport::flush`]). The fabric spawns no
//! thread — a TCP run is `W` threads, whatever `n` and however many
//! sockets. Same-worker site pairs never touch a socket: the frame goes
//! straight into the worker's own inbox.
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
//! connection down cleanly — counted in
//! [`RunMetrics::transport_conn_errors`], never a panic or a multi-GiB
//! allocation.
//!
//! ## Pump
//!
//! Each endpoint has a byte counter its *peer* advances after every
//! successful `write`. A pump compares it with the bytes the endpoint has
//! read so far: equal means nothing to do — an idle pass makes no syscall
//! — and otherwise the worker `read`s into the endpoint's reusable buffer
//! until it has caught up, decoding frames from the borrowed bytes (many
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
//! A site's send appends one frame per peer worker to that endpoint's
//! queue and returns. When the worker's pass ends it encodes each
//! endpoint's queue into one reusable buffer — outside every operation's
//! latency window, in slices of up to `WRITE_COALESCE_BYTES` (256 KiB) — and
//! `write`s until done or `WouldBlock` (`RunMetrics::syscall_writes`,
//! carrying `RunMetrics::transport_frames` frames), then advances the
//! peer's byte counter and notifies its wake latch: write, then count,
//! then notify, so a pump that ran too early to see the bytes is followed
//! by a park that returns at once. Bytes the socket would not take stay
//! in the buffer as the endpoint's *tail*
//! (`RunMetrics::transport_write_stalls`); later sends queue behind it,
//! the worker keeps pumping — which is why two full socket buffers cannot
//! deadlock — and parks only briefly until the tail is gone. A tail that
//! makes no progress for `WRITE_TIMEOUT` (5 s), or a failed write, marks the
//! connection dead and counts done, on the failing worker's tally, exactly
//! the messages not yet fully written — every destination of every such
//! frame — and later sends fail fast. Lane flushes from per-destination
//! batching (PR8) land on the same queue.
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
use causal_types::{Error, Result, SiteId};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coalescing bound: a flush stops encoding an endpoint's queue once the
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

/// An endpoint's receive buffer: one `read(2)` picks up every frame the
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

/// The mesh's shared gauges, folded into the run's metrics at teardown.
#[derive(Default)]
struct Gauges {
    /// Messages positively lost plus connections failed by a bad frame.
    conn_errors: AtomicU64,
    /// `write(2)` calls that moved bytes.
    syscall_writes: AtomicU64,
    /// `read(2)` calls (what the idle-pass test watches).
    syscall_reads: AtomicU64,
    /// Frames fully written.
    frames: AtomicU64,
    /// Flushes that left a tail.
    write_stalls: AtomicU64,
}

/// One worker's end of its socket to one peer. Touched only by that
/// worker's thread (under the worker's uncontended mutex).
struct Endpoint {
    stream: TcpStream,
    /// The connection failed: sends are refused, pumps and flushes skip it.
    dead: bool,
    /// Frames sent but not yet encoded, in send order.
    queue: Vec<OutFrame>,
    /// The encoded slice being written; `wbuf[wpos..]` is the tail the
    /// socket has not taken yet.
    wbuf: Vec<u8>,
    wpos: usize,
    /// `(end offset in wbuf, destinations)` of every frame in `wbuf` that
    /// is not fully written — what is lost if the connection fails now.
    unwritten: VecDeque<(usize, u64)>,
    /// When the tail last stopped moving.
    stalled_since: Option<Instant>,
    /// `rbuf[start..end]` is received but not yet routed.
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes read off the socket so far — compared against what the peer
    /// announced in [`MuxTransport::arrived`].
    consumed: u64,
}

impl Endpoint {
    fn new(stream: TcpStream) -> Self {
        Endpoint {
            stream,
            dead: false,
            queue: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            unwritten: VecDeque::new(),
            stalled_since: None,
            rbuf: vec![0u8; READ_BUF_BYTES],
            start: 0,
            end: 0,
            consumed: 0,
        }
    }

    fn has_tail(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// Everything worker `a` owns of the mesh: entry `b` is its endpoint
/// toward worker `b` (`None` iff `a == b`).
type WorkerIo = Vec<Option<Endpoint>>;

/// The multiplexed transport every site shares: a send's destinations are
/// split by shard mask ([`Routes::peers`]); same-worker copies go straight
/// to the worker's own inbox, cross-worker copies are queued on the owning
/// pair's endpoint — one frame per peer worker — and move when the owning
/// worker pumps and flushes.
pub(crate) struct MuxTransport {
    routes: Arc<Routes>,
    quiesce: Arc<Quiesce>,
    workers: Vec<Mutex<WorkerIo>>,
    /// `arrived[a * W + b]`: bytes worker `b` has written toward worker
    /// `a`. Advanced by `b` after each write (`Release`), read by `a`'s
    /// pump (`Acquire`) — the one piece of an endpoint its peer touches.
    arrived: Vec<AtomicU64>,
    write_timeout: Duration,
    gauges: Gauges,
}

impl Transport for MuxTransport {
    fn send(&self, from: SiteId, to: DestSet, msg: &Msg, measured: bool) -> usize {
        let wa = self.routes.owner(from.index());
        // Same shard: the copy never touches a socket, and the thread that
        // takes the inbox is the one executing this send — no wake needed.
        let own = to.intersect(&self.routes.shard(wa));
        let copy = |d| (d, Wire::msg(from, msg, measured));
        let mut refused = self.routes.push_own(wa, own.iter().map(copy));
        if own != to {
            // One frame per peer worker, behind every earlier frame of the
            // pair (per-pair FIFO).
            locked(&self.workers[wa], |peers| {
                for (wb, dsts) in self.routes.peers(wa, to) {
                    let ep = endpoint(peers, wb);
                    if ep.dead {
                        refused += dsts.len();
                        continue;
                    }
                    ep.queue.push(OutFrame {
                        src: from,
                        dsts,
                        msg: msg.clone(),
                        measured,
                    });
                }
            });
        }
        if refused > 0 {
            self.gauges
                .conn_errors
                .fetch_add(refused as u64, Ordering::Relaxed);
        }
        refused
    }

    fn pump(&self, wa: usize) -> bool {
        let w = self.workers.len();
        let mut behind = false;
        locked(&self.workers[wa], |peers| {
            for (wb, ep) in peers.iter_mut().enumerate() {
                let Some(ep) = ep else { continue };
                let announced = self.arrived[wa * w + wb].load(Ordering::Acquire);
                if !ep.dead && announced > ep.consumed {
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
                if ep.queue.is_empty() && !ep.has_tail() {
                    continue;
                }
                let wrote = self.write_out(wa, ep);
                if wrote > 0 {
                    // Write, then count, then notify: the peer either sees
                    // the count in the pump it is running, or finds its
                    // token set when it tries to park.
                    self.arrived[wb * w + wa].fetch_add(wrote, Ordering::Release);
                    self.routes.wake(wb);
                }
                tail |= ep.has_tail();
            }
        });
        tail
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
    pub(crate) fn connect(routes: &Arc<Routes>, quiesce: &Arc<Quiesce>) -> Result<MuxTransport> {
        let w = routes.workers();
        // Row-major: `peers[a * w + b]` is worker `a`'s end toward `b`.
        let mut peers: Vec<Option<Endpoint>> = (0..w * w).map(|_| None).collect();

        let sock_err = |_| Error::ChannelClosed;
        let mut listeners = Vec::with_capacity(w);
        let mut addrs = Vec::with_capacity(w);
        for _ in 0..w {
            let l = TcpListener::bind("127.0.0.1:0").map_err(sock_err)?;
            addrs.push(l.local_addr().map_err(sock_err)?);
            listeners.push(l);
        }

        // Worker a dials every b > a; the accepting side reads the 2-byte
        // hello. Dialing and accepting are interleaved deterministically:
        // for each (a, b) pair we connect and accept inline — loopback
        // makes this immediate and avoids a thread per handshake.
        for a in 0..w {
            for b in (a + 1)..w {
                let mut out = TcpStream::connect(addrs[b]).map_err(sock_err)?;
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
                peers[a * w + b] = Some(Endpoint::new(out));
                peers[b * w + a] = Some(Endpoint::new(inc));
            }
        }

        let mut peers = peers.into_iter();
        let worker_io = |_| Mutex::new(peers.by_ref().take(w).collect());
        Ok(MuxTransport {
            routes: routes.clone(),
            quiesce: quiesce.clone(),
            workers: (0..w).map(worker_io).collect(),
            arrived: (0..w * w).map(|_| AtomicU64::new(0)).collect(),
            write_timeout: WRITE_TIMEOUT,
            gauges: Gauges::default(),
        })
    }

    /// Fold the mesh's gauges into `metrics`. Call after the workers have
    /// been joined, so teardown races are included.
    pub(crate) fn fold_gauges(&self, metrics: &mut RunMetrics) {
        let read = |g: &AtomicU64| g.load(Ordering::Relaxed);
        metrics.transport_conn_errors += read(&self.gauges.conn_errors);
        metrics.syscall_writes += read(&self.gauges.syscall_writes);
        metrics.transport_frames += read(&self.gauges.frames);
        metrics.transport_write_stalls += read(&self.gauges.write_stalls);
    }

    /// Encode `ep`'s queue, a slice at a time, and write until everything
    /// is out or the socket would block; what it would not take stays as
    /// the endpoint's tail. Returns the bytes written.
    fn write_out(&self, wa: usize, ep: &mut Endpoint) -> u64 {
        let bump = |g: &AtomicU64| g.fetch_add(1, Ordering::Relaxed);
        let mut wrote = 0u64;
        loop {
            if !ep.has_tail() {
                ep.wbuf.clear();
                ep.wpos = 0;
                let mut taken = 0;
                for f in &ep.queue {
                    if ep.wbuf.len() >= WRITE_COALESCE_BYTES {
                        break;
                    }
                    append_frame(&mut ep.wbuf, f);
                    ep.unwritten.push_back((ep.wbuf.len(), f.dsts.len() as u64));
                    taken += 1;
                }
                ep.queue.drain(..taken);
                if ep.wbuf.is_empty() {
                    return wrote;
                }
            }
            match ep.stream.write(&ep.wbuf[ep.wpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    bump(&self.gauges.syscall_writes);
                    wrote += n as u64;
                    ep.wpos += n;
                    ep.stalled_since = None;
                    while ep.unwritten.front().is_some_and(|f| f.0 <= ep.wpos) {
                        ep.unwritten.pop_front();
                        bump(&self.gauges.frames);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    bump(&self.gauges.write_stalls);
                    let since = *ep.stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() < self.write_timeout {
                        return wrote;
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.fail(wa, ep, 0);
        wrote
    }

    /// Read until `ep` has consumed the `announced` bytes, routing every
    /// complete frame straight from the borrowed buffer. A frame that
    /// fails validation — length beyond [`wire::MAX_FRAME`], reserved flag
    /// bits, a body the codec rejects, or a destination outside the system
    /// — counts a connection error and fails the connection cleanly.
    /// Returns whether announced bytes are still missing.
    fn read_in(&self, me: usize, ep: &mut Endpoint, announced: u64) -> bool {
        loop {
            let mut need = HEADER_BYTES;
            while ep.end - ep.start >= need {
                let at = ep.start;
                let len = u32::from_le_bytes(ep.rbuf[at..at + 4].try_into().expect("4 bytes"));
                let flags = ep.rbuf[at + 4];
                if len as usize > wire::MAX_FRAME || flags & !(FLAG_MEASURED | FLAG_MULTI) != 0 {
                    // Never trust the prefix: a corrupt length would
                    // otherwise ask for a buffer of up to 4 GiB.
                    self.fail(me, ep, 1);
                    return false;
                }
                need = HEADER_BYTES + len as usize;
                if ep.end - at < need {
                    break;
                }
                let body = &ep.rbuf[at + HEADER_BYTES..at + need];
                match route_frame(&self.routes, body, flags, me) {
                    Ok(0) => {}
                    // A destination's worker already left: that copy is
                    // positively lost.
                    Ok(gone) => self.lost(me, gone as u64, 0),
                    Err(()) => {
                        self.fail(me, ep, 1);
                        return false;
                    }
                }
                ep.start += need;
                need = HEADER_BYTES;
            }
            if ep.consumed >= announced {
                return false;
            }
            // Only a frame that straddles the end of what was read is
            // copied (to the front); one larger than the buffer grows it,
            // within the bound validated above.
            if ep.start > 0 {
                ep.rbuf.copy_within(ep.start..ep.end, 0);
                ep.end -= ep.start;
                ep.start = 0;
            }
            if ep.rbuf.len() < need {
                ep.rbuf.resize(need, 0);
            }
            self.gauges.syscall_reads.fetch_add(1, Ordering::Relaxed);
            match ep.stream.read(&mut ep.rbuf[ep.end..]) {
                Ok(0) => break, // the peer failed the connection
                Ok(n) => {
                    ep.end += n;
                    ep.consumed += n as u64;
                }
                // Announced, but still inside the kernel.
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.fail(me, ep, 0);
        false
    }

    /// Fail `ep`, worker `me`'s end of a connection: every message not
    /// fully written — one per destination of every frame in the tail or
    /// the queue — is positively lost, and later sends are refused.
    /// `bad_frames` is 1 when an invalid frame is the reason.
    fn fail(&self, me: usize, ep: &mut Endpoint, bad_frames: u64) {
        let tail = ep.unwritten.drain(..).map(|f| f.1);
        let queued = ep.queue.drain(..).map(|f| f.dsts.len() as u64);
        self.lost(me, tail.sum::<u64>() + queued.sum::<u64>(), bad_frames);
        ep.dead = true;
        ep.wbuf.clear();
        ep.wpos = 0;
        let _ = ep.stream.shutdown(Shutdown::Both);
    }

    /// Count `copies` messages worker `me` lost (plus `bad_frames`) as
    /// connection errors, and the copies as done on `me`'s tally, so
    /// quiescence detection cannot hang on them.
    fn lost(&self, me: usize, copies: u64, bad_frames: u64) {
        self.gauges
            .conn_errors
            .fetch_add(copies + bad_frames, Ordering::Relaxed);
        if copies > 0 {
            self.quiesce.frames_done(me, copies);
        }
    }
}

/// Append one framed message to an endpoint's write buffer: the body is
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

/// Decode one frame body and deliver a copy of its message to every site
/// its *header* names: the copies for sites of `me`, the worker pumping,
/// are appended to its own inbox with no wake; a copy for a site another
/// worker owns is pushed to that owner and wakes it at once. `Err` when
/// the codec rejects the body or a destination is outside the system;
/// otherwise how many destinations' workers were already gone.
fn route_frame(
    routes: &Routes,
    body: &[u8],
    flags: u8,
    me: usize,
) -> std::result::Result<usize, ()> {
    // Route on the header, not the connection: any in-range destination
    // is honoured, so a wrong-shard frame is rerouted to its owner rather
    // than dropped.
    let deliver = |src: SiteId, dsts: DestSet, msg: Msg| {
        if !dsts.is_subset(&DestSet::full(routes.sites())) {
            return Err(());
        }
        let copy = |d| (d, Wire::msg(src, &msg, flags & FLAG_MEASURED != 0));
        let mine = dsts.intersect(&routes.shard(me));
        let mut gone = routes.push_own(me, mine.iter().map(copy));
        for (site, wire) in dsts.minus(&mine).iter().map(copy) {
            gone += usize::from(!routes.deliver(site, wire));
        }
        Ok(gone)
    };
    if flags & FLAG_MULTI != 0 {
        let m = wire::decode_multi_routed(body).map_err(drop)?;
        deliver(m.src, m.dsts, m.msg)
    } else {
        let r = wire::decode_routed(body).map_err(drop)?;
        deliver(r.src, DestSet::from_sites([r.dst]), r.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::test_fabric;
    use causal_proto::Fm;
    use causal_types::VarId;

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
            self.gauge(|g| &g.conn_errors)
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

    /// Worker 1 of a two-worker mesh receives `bytes`, which must fail the
    /// connection: one connection error, the endpoint dead, no inbox
    /// touched, no panic.
    fn assert_bad_frame_fails_the_connection(bytes: &[u8]) {
        let r = rig(2, 2);
        r.inject(0, 1, bytes);
        r.pump_all(1);
        assert_eq!(r.conn_errors(), 1);
        assert!(r.endpoint(1, 0, |ep| ep.dead), "the connection is failed");
        assert!(r.no_mailbox_touched(), "no message reaches any inbox");
        // Whatever follows on the failed connection is never looked at.
        assert!(!r.mesh.pump(1));
        assert_eq!(r.conn_errors(), 1);
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
        // sleep-poll) and count a connection error per refused copy.
        let r = rig(4, 2);
        let (a, b) = (r.shard(0), r.shard(1));
        r.endpoint(0, 1, |ep| ep.dead = true);
        r.endpoint(1, 0, |ep| ep.dead = true);
        assert_eq!(r.mesh.send(site(a[0]), to(&b[..1]), &fm(0), true), 1);
        assert_eq!(r.mesh.send(site(b[0]), to(&a), &fm(0), true), 2);
        assert_eq!(r.conn_errors(), 3);
        assert!(r.endpoint(0, 1, |ep| ep.queue.is_empty()));
        assert!(!r.mesh.flush(0) && !r.mesh.flush(1));
        assert_eq!(r.gauge(|g| &g.syscall_writes), 0);
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
            assert_eq!(r.mesh.send(site(0), dsts, &fm(0), false), 0);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !r.endpoint(0, 1, |ep| ep.dead) {
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
        assert_eq!(r.mesh.send(site(0), dsts, &fm(0), false), 3);
    }

    /// An Opt-Track SM whose piggyback holds one log entry.
    fn sm_with_log() -> Msg {
        use causal_clocks::{DestSet, Log, LogEntry};
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

    #[test]
    fn multicast_crosses_each_connection_once_and_keeps_pair_fifo() {
        // 6 sites over 2 workers, three each. Site 0 multicasts to
        // everyone else, then answers a site of the other worker with a
        // unicast RM.
        let r = rig(6, 2);
        let (mine, theirs) = (r.shard(0), r.shard(1));
        let sm = sm_with_log();
        assert_eq!(r.mesh.send(site(0), to(&[1, 2, 3, 4, 5]), &sm, true), 0);
        let rm = Msg::Rm(causal_proto::Rm {
            var: VarId(9),
            value: None,
            meta: causal_proto::RmMeta::OptTrack(None),
        });
        assert_eq!(r.mesh.send(site(0), to(&theirs[..1]), &rm, true), 0);
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
        assert_eq!(metrics.transport_conn_errors, 0);
        assert_eq!(metrics.transport_write_stalls, 0);
    }

    #[test]
    fn a_wide_multicast_is_one_frame_per_peer_in_send_order() {
        // 40 sites over 4 workers; site 0 multicasts to the other 39. The
        // split must leave exactly one frame per peer worker, each naming
        // that worker's destinations.
        let r = rig(40, 4);
        let everyone = DestSet::full(40).minus(&to(&[0]));
        assert_eq!(r.mesh.send(site(0), everyone, &fm(1), false), 0);
        for wb in 1..4 {
            let dsts = r.endpoint(0, wb, |ep| {
                assert_eq!(ep.queue.len(), 1, "one frame toward worker {wb}");
                ep.queue[0].dsts
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
    fn reader_routes_frames_that_straddle_or_outgrow_its_buffer() {
        // One burst far larger than the receive buffer: small frames, one
        // of which must straddle a buffer end, then a single frame larger
        // than the whole buffer, then a small one behind it.
        let r = rig(2, 2);
        let small = 20_000u32;
        let mut burst = Vec::new();
        for i in 0..small {
            burst.extend(frame(1, &fm(i)));
        }
        assert!(burst.len() > 2 * READ_BUF_BYTES);
        let big = big_sm(1);
        assert!(frame(1, &big).len() > READ_BUF_BYTES);
        burst.extend(frame(1, &big));
        burst.extend(frame(1, &fm(small)));
        r.inject(0, 1, &burst);
        r.pump_all(1);

        for i in 0..small {
            assert_eq!(r.next_msg(1).1, fm(i));
        }
        assert_eq!(r.next_msg(1).1, big);
        assert_eq!(r.next_msg(1).1, fm(small));
        assert!(r.no_mailbox_touched());
        assert_eq!(r.conn_errors(), 0);
    }

    /// Site 0 sends site 1 the next distinct ~100 KB frame.
    fn send_big(r: &Rig, sent: &mut u32) {
        r.quiesce.frames_sent(0, 1);
        assert_eq!(r.mesh.send(site(0), to(&[1]), &big_sm(*sent), false), 0);
        *sent += 1;
    }

    #[test]
    fn a_partial_write_keeps_its_tail_and_every_frame_arrives_once_in_order() {
        // Nobody pumps worker 1: sooner or later a flush stops mid-slice.
        let r = rig(2, 2);
        let mut sent = 0;
        while !r.mesh.flush(0) {
            assert!(sent < 2_000, "200 MB vanished into a socket nobody reads");
            send_big(&r, &mut sent);
        }
        assert!(r.gauge(|g| &g.write_stalls) > 0);
        // Later sends queue behind the tail.
        (0..5).for_each(|_| send_big(&r, &mut sent));
        r.endpoint(0, 1, |ep| {
            assert!(ep.has_tail() && ep.queue.len() == 5);
        });

        // The peer pumps again: both sides alternate until all is across.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut next = 0;
        while next < sent {
            assert!(Instant::now() < deadline, "frames stuck behind the tail");
            r.mesh.flush(0);
            r.mesh.pump(1);
            while let Some(Wire::Msg { msg, .. }) = r.try_recv(1) {
                assert_eq!(msg, big_sm(next), "whole, once, in order");
                r.quiesce.frames_done(1, 1);
                next += 1;
            }
        }
        assert!(!r.mesh.flush(0) && !r.mesh.pump(1), "settled");
        assert!(r.no_mailbox_touched());
        assert_eq!(r.gauge(|g| &g.frames), u64::from(sent));
        assert_eq!(r.conn_errors(), 0);
        assert_eq!(r.quiesce.in_flight(), 0);
    }

    #[test]
    fn a_stuck_peer_fails_the_connection_after_the_write_timeout() {
        let mut r = rig(2, 2);
        r.mesh.write_timeout = Duration::from_millis(100);
        // Worker 1 never pumps while site 0 keeps sending: once the kernel
        // stops growing the socket's buffers the tail stops moving, and
        // after the timeout the connection is failed with every copy not
        // fully written counted lost.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut sent = 0;
        while !r.endpoint(0, 1, |ep| ep.dead) {
            assert!(Instant::now() < deadline, "the stall never timed out");
            send_big(&r, &mut sent);
            r.mesh.flush(0);
            std::thread::sleep(Duration::from_millis(1));
        }
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
