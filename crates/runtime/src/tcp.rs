//! The paper's transport: TCP, multiplexed per worker pair.
//!
//! §IV-C of the paper: "the system relies on TCP channels to deliver
//! messages ... it guarantees that messages can be successfully transmitted
//! without any loss." Every protocol message is encoded with
//! `causal_proto::wire` and shipped through a real kernel socket — the
//! closest this repository gets to the authors' JDK-over-TCP testbed.
//!
//! ## Topology
//!
//! The old runtime kept a full site mesh: `n(n-1)/2` sockets and two
//! reader threads per socket — ~1,600 threads at `n = 40`. Sites are now
//! sharded over `W` scheduler workers (see [`crate::runner`]), and the
//! mesh connects *workers*: one socket per unordered worker pair, carrying
//! the traffic of every site pair whose owners differ. Each socket
//! endpoint gets one writer thread and one reader thread, so the whole
//! fabric is `W + 2·W·(W-1)` threads. Same-worker site pairs never touch a
//! socket — the frame goes straight into the destination mailbox.
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
//! shipped once, decoded once, the `k` mailboxes sharing the one decoded
//! piggyback. `len` counts the body only and must not exceed
//! [`wire::MAX_FRAME`]; `flags` bit 0 carries the frame's warm-up
//! attribution (batch frames additionally carry per-update bits in the
//! body), and the remaining bits are reserved-zero. A length beyond the
//! bound, a reserved flag, or a body the codec rejects tears the
//! connection down cleanly — counted in
//! [`RunMetrics::transport_conn_errors`], never a panic or a multi-GiB
//! allocation.
//!
//! Receivers route on the header, not on the connection: a frame for any
//! valid site is delivered to that site's mailbox and its owner woken,
//! so a frame arriving on an unexpected connection is *rerouted*, never
//! dropped. A reader pulls whatever the socket holds into one reusable
//! buffer and decodes frames from the borrowed bytes — many frames per
//! `read(2)`, no allocation per frame.
//!
//! ## Coalesced writes
//!
//! A site's send appends the frame to the connection's queue and returns;
//! when the site's scheduling step ends, [`Transport::flush`] kicks the
//! writer threads of the connections it queued on — one cross-thread wake
//! per step, and none inside an operation's latency window. The writer
//! takes everything queued at each kick into one buffer and ships it with
//! a single `write_all` — one syscall per kick instead of one per frame
//! (`RunMetrics::syscall_writes`, carrying `RunMetrics::transport_frames`
//! frames). Lane flushes from per-destination batching (PR8) land on the
//! same queue, so a batch window closing produces exactly one coalesced
//! write. A failed write marks the connection dead and un-counts the
//! queued messages — every destination of every frame — from the
//! in-flight tally; later sends fail fast.
//!
//! ## Handshake & teardown
//!
//! Each worker binds an ephemeral listener; worker `a` dials every `b > a`
//! and sends a 2-byte hello carrying its worker id. `TCP_NODELAY` is set
//! on every stream — Nagle would otherwise delay small frames behind
//! unacked data and poison the latency tails the serve mode measures.
//! Teardown is ordered: close every connection queue and kick its writer
//! (it drains what is left and exits), join the writers, then
//! `shutdown(Both)` each socket to wake the readers blocked in `read`
//! (they hold dups of the fd, so a plain drop would never deliver the
//! EOF) and join them — nothing leaks.

use crate::node::{Node, OpDriver, Transport};
use crate::runner::{
    build_fabric, drive, locked, resolve_workers, Quiesce, Routes, RunOutcome, RuntimeConfig,
    WakeLatch,
};
use causal_metrics::RunMetrics;
use causal_proto::{build_site, wire, Msg, ProtocolConfig, Replication};
use causal_types::{Error, Result, SiteId};
use causal_workload::generate;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coalescing bound: a writer stops draining its queue once the batched
/// buffer reaches this size, ships it, and comes back for the rest.
const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// A blocked writer gives up (and declares the connection dead) after
/// this long — insurance against a peer that stopped draining.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// TCP header `flags` bit 0: the frame's warm-up attribution.
const FLAG_MEASURED: u8 = 0b01;
/// TCP header `flags` bit 1: the body is a multi-routed frame
/// (`[src][k][dst₁..dst_k][msg]`) rather than a unicast `[src][dst][msg]`.
const FLAG_MULTI: u8 = 0b10;
/// `[len: u32 LE][flags: u8]`.
const HEADER_BYTES: usize = 5;

/// A reader's receive buffer: one `read(2)` picks up every frame the peer's
/// writer coalesced, up to this much (it grows only for a single frame
/// that is larger, bounded by [`wire::MAX_FRAME`]).
const READ_BUF_BYTES: usize = 64 * 1024;

/// One frame queued toward a connection's writer thread: one message for
/// every site in `dsts` (all owned by the peer worker; never empty).
struct OutFrame {
    src: SiteId,
    dsts: Vec<SiteId>,
    msg: Msg,
    measured: bool,
}

/// The mesh's shared gauges, folded into the run's metrics at teardown.
#[derive(Default)]
struct Gauges {
    /// Messages positively lost plus connections failed by a bad frame.
    conn_errors: AtomicU64,
    /// `write(2)` calls (one per coalesced writer wake).
    syscall_writes: AtomicU64,
    /// Frames those writes carried.
    frames: AtomicU64,
}

/// One directed connection endpoint, shared by the sending worker and the
/// endpoint's writer thread.
struct Conn {
    /// Frames waiting for the writer, in send order.
    queue: Mutex<Vec<OutFrame>>,
    /// The writer parks here; [`MuxTransport::flush`] and teardown notify.
    kick: WakeLatch,
    /// Frames were queued since the last kick (`Release` store by the
    /// send, `Acquire` swap by the flush that kicks for it).
    unkicked: AtomicBool,
    /// Raised by the writer when the socket dies: later sends fail fast.
    dead: AtomicBool,
    /// Raised at teardown: the writer drains what is queued and exits.
    closed: AtomicBool,
}

impl Conn {
    fn new() -> Arc<Conn> {
        Arc::new(Conn {
            queue: Mutex::new(Vec::new()),
            kick: WakeLatch::new(),
            unkicked: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        })
    }
}

/// The multiplexed transport every site shares: same-worker copies go
/// straight to the destination mailbox, cross-worker copies are queued on
/// the owning pair's connection — one frame per peer worker.
pub(crate) struct MuxTransport {
    routes: Arc<Routes>,
    workers: usize,
    /// `conns[wa * workers + wb]` is the endpoint at worker `wa` writing
    /// toward worker `wb`; `None` iff `wa == wb`.
    conns: Vec<Option<Arc<Conn>>>,
    gauges: Arc<Gauges>,
}

impl Transport for MuxTransport {
    fn send(&self, from: SiteId, to: &[SiteId], msg: &Msg, measured: bool) -> usize {
        let owner = |s: &SiteId| self.routes.owner(s.index());
        let wa = owner(&from);
        let mut refused = 0;
        for (i, d) in to.iter().enumerate() {
            let wb = owner(d);
            if wb == wa {
                // Same shard: the copy never touches a socket, and the
                // draining thread is the one executing this send — no
                // wake needed.
                let local = std::slice::from_ref(d);
                refused += self.routes.fan_out(from, local, msg, measured, Some(wa));
            } else if !to[..i].iter().any(|p| owner(p) == wb) {
                // First destination on this peer: its whole group leaves
                // now as one frame, so the group sits in the connection
                // queue where this copy alone would have (per-pair FIFO).
                let dsts: Vec<SiteId> =
                    to[i..].iter().copied().filter(|p| owner(p) == wb).collect();
                let conn = self.conns[wa * self.workers + wb]
                    .as_ref()
                    .expect("mesh covers every cross-worker pair");
                if conn.dead.load(Ordering::Relaxed) {
                    refused += dsts.len();
                    continue;
                }
                let frame = OutFrame {
                    src: from,
                    dsts,
                    msg: msg.clone(),
                    measured,
                };
                locked(&conn.queue, |q| q.push(frame));
                conn.unkicked.store(true, Ordering::Release);
            }
        }
        self.gauges
            .conn_errors
            .fetch_add(refused as u64, Ordering::Relaxed);
        refused
    }

    fn flush(&self, from: SiteId) {
        let wa = self.routes.owner(from.index());
        let row = &self.conns[wa * self.workers..(wa + 1) * self.workers];
        for conn in row.iter().flatten() {
            if conn.unkicked.swap(false, Ordering::Acquire) {
                conn.kick.notify();
            }
        }
    }
}

/// Append one framed message to the writer's coalescing buffer: the body
/// is encoded once however many destinations it has.
fn append_frame(buf: &mut Vec<u8>, f: &OutFrame) {
    let mut put = |flags: u8, body: &[u8]| {
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.push(flags | if f.measured { FLAG_MEASURED } else { 0 });
        buf.extend_from_slice(body);
    };
    match f.dsts[..] {
        [dst] => wire::encode_routed_with(f.src, dst, &f.msg, |body| put(0, body)),
        _ => wire::encode_multi_routed_with(f.src, &f.dsts, &f.msg, |body| put(FLAG_MULTI, body)),
    }
}

/// One connection endpoint's writer: at each kick, take everything queued
/// and ship it in buffered `write_all`s of up to [`WRITE_COALESCE_BYTES`].
/// Exits once the connection is closed (teardown) and drained. A write
/// failure marks the connection dead and un-counts the doomed messages —
/// one per destination of every frame not yet written — from the
/// in-flight tally so quiescence detection cannot hang on them.
fn writer_loop(mut stream: TcpStream, conn: Arc<Conn>, quiesce: Arc<Quiesce>, gauges: Arc<Gauges>) {
    let lost = |copies: u64| {
        gauges.conn_errors.fetch_add(copies, Ordering::Relaxed);
        quiesce.frames_done(copies);
    };
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    // Swapped with the connection's queue at each kick, so neither side
    // regrows a vector per kick.
    let mut taken: Vec<OutFrame> = Vec::new();
    loop {
        conn.kick.wait_until(None);
        // Read before draining: whatever was queued ahead of the close
        // still leaves.
        let closed = conn.closed.load(Ordering::Acquire);
        locked(&conn.queue, |q| std::mem::swap(q, &mut taken));
        let mut queued = taken.iter().peekable();
        while queued.peek().is_some() {
            buf.clear();
            let (mut frames, mut copies) = (0u64, 0u64);
            while buf.len() < WRITE_COALESCE_BYTES {
                let Some(f) = queued.next() else { break };
                append_frame(&mut buf, f);
                frames += 1;
                copies += f.dsts.len() as u64;
            }
            // Once the socket has failed, every later frame is positively
            // lost.
            if conn.dead.load(Ordering::Relaxed) || stream.write_all(&buf).is_err() {
                conn.dead.store(true, Ordering::Relaxed);
                lost(copies);
                continue;
            }
            gauges.syscall_writes.fetch_add(1, Ordering::Relaxed);
            gauges.frames.fetch_add(frames, Ordering::Relaxed);
        }
        taken.clear();
        if closed {
            return;
        }
    }
}

/// Decode one frame body and deliver a copy of its message to every
/// mailbox its *header* names, waking each owning worker once. `Err` when
/// the codec rejects the body or a destination is outside the system;
/// `Ok(false)` when a destination node is already gone.
fn route_frame(routes: &Routes, body: &[u8], flags: u8) -> std::result::Result<bool, ()> {
    // Route on the header, not the connection: any in-range destination
    // is honoured, so a wrong-shard frame is rerouted to its owner rather
    // than dropped.
    let deliver = |src: SiteId, dsts: &[SiteId], msg: Msg| {
        if dsts.iter().any(|d| d.index() >= routes.sites()) {
            return Err(());
        }
        let measured = flags & FLAG_MEASURED != 0;
        Ok(routes.fan_out(src, dsts, &msg, measured, None) == 0)
    };
    if flags & FLAG_MULTI != 0 {
        let m = wire::decode_multi_routed(body).map_err(drop)?;
        deliver(m.src, &m.dsts, m.msg)
    } else {
        let r = wire::decode_routed(body).map_err(drop)?;
        deliver(r.src, &[r.dst], r.msg)
    }
}

/// One connection endpoint's reader: pull whatever the socket holds into
/// one reusable buffer — the peer's writer coalesces, so one `read(2)`
/// usually carries many frames — and route every complete frame straight
/// from the borrowed bytes, until EOF. A frame that fails validation —
/// length beyond [`wire::MAX_FRAME`], reserved flag bits, a body the codec
/// rejects, or a destination outside the system — counts a connection
/// error and fails the connection cleanly.
fn reader_loop(mut stream: TcpStream, routes: Arc<Routes>, gauges: Arc<Gauges>) {
    let fail = |stream: &TcpStream| {
        gauges.conn_errors.fetch_add(1, Ordering::Relaxed);
        let _ = stream.shutdown(Shutdown::Both);
    };
    let mut buf = vec![0u8; READ_BUF_BYTES];
    // `buf[start..end]` is received but not yet routed.
    let (mut start, mut end) = (0usize, 0usize);
    loop {
        let mut need = HEADER_BYTES;
        while end - start >= need {
            let len = u32::from_le_bytes(buf[start..start + 4].try_into().expect("4 bytes"));
            let flags = buf[start + 4];
            if len as usize > wire::MAX_FRAME || flags & !(FLAG_MEASURED | FLAG_MULTI) != 0 {
                // Never trust the prefix: a corrupt length would otherwise
                // ask for a buffer of up to 4 GiB.
                return fail(&stream);
            }
            need = HEADER_BYTES + len as usize;
            if end - start < need {
                break;
            }
            match route_frame(&routes, &buf[start + HEADER_BYTES..start + need], flags) {
                Ok(true) => {}
                Ok(false) => return, // node already gone
                Err(()) => return fail(&stream),
            }
            start += need;
            need = HEADER_BYTES;
        }
        // Only a frame that straddles the end of what was read is copied
        // (to the front); one larger than the buffer grows it, within the
        // bound validated above.
        if start > 0 {
            buf.copy_within(start..end, 0);
            end -= start;
            start = 0;
        }
        if buf.len() < need {
            buf.resize(need, 0);
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => return, // EOF: shutdown
            Ok(n) => end += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// An established worker mesh: the shared transport, the writer and reader
/// threads, and the teardown handles that wake blocked readers.
pub(crate) struct Mesh {
    transport: Arc<MuxTransport>,
    writers: Vec<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    shutdowns: Vec<TcpStream>,
    gauges: Arc<Gauges>,
}

impl Mesh {
    /// The shared transport (clone per site).
    pub(crate) fn transport(&self) -> Arc<dyn Transport> {
        self.transport.clone()
    }

    /// Tear the mesh down, in dependency order, then fold its gauges into
    /// `metrics` (after the joins, so teardown races are included). Call
    /// after the workers have exited (their nodes hold transport clones).
    pub(crate) fn teardown(self, metrics: &mut RunMetrics) {
        let Mesh {
            transport,
            writers,
            readers,
            shutdowns,
            gauges,
        } = self;
        // Every node is gone, so nothing is queued behind the close; the
        // writers drain what is left and exit.
        for conn in transport.conns.iter().flatten() {
            conn.closed.store(true, Ordering::Release);
            conn.kick.notify();
        }
        for h in writers {
            let _ = h.join();
        }
        // Readers block in `read` on a dup of the fd — only an explicit
        // shutdown delivers the EOF that wakes them.
        for s in &shutdowns {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in readers {
            let _ = h.join();
        }
        metrics.transport_conn_errors += gauges.conn_errors.load(Ordering::Relaxed);
        metrics.syscall_writes += gauges.syscall_writes.load(Ordering::Relaxed);
        metrics.transport_frames += gauges.frames.load(Ordering::Relaxed);
    }
}

/// Establish the worker mesh over `routes`: one socket per unordered
/// worker pair, `TCP_NODELAY` everywhere, one writer + one reader thread
/// per endpoint (all counted in `threads`). With a single worker the mesh
/// is empty — every site pair is same-shard and no socket exists.
pub(crate) fn build_mesh(
    routes: &Arc<Routes>,
    quiesce: &Arc<Quiesce>,
    threads: &Arc<AtomicU64>,
) -> Result<Mesh> {
    let w = routes.workers();
    let gauges = Arc::new(Gauges::default());
    let mut conns: Vec<Option<Arc<Conn>>> = (0..w * w).map(|_| None).collect();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    let mut shutdowns = Vec::new();

    let mut listeners = Vec::with_capacity(w);
    let mut addrs = Vec::with_capacity(w);
    for _ in 0..w {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|_| Error::ChannelClosed)?;
        addrs.push(l.local_addr().map_err(|_| Error::ChannelClosed)?);
        listeners.push(l);
    }

    // Worker a dials every b > a; the accepting side reads the 2-byte
    // hello. Dialing and accepting are interleaved deterministically: for
    // each (a, b) pair we connect and accept inline — loopback makes this
    // immediate and avoids a thread per handshake.
    let sock_err = |_| Error::ChannelClosed;
    for a in 0..w {
        for b in (a + 1)..w {
            let out = TcpStream::connect(addrs[b]).map_err(sock_err)?;
            // Nagle would delay small frames behind unacked data — fatal
            // for latency measurement on a chatty mesh.
            out.set_nodelay(true).map_err(sock_err)?;
            out.set_write_timeout(Some(WRITE_TIMEOUT))
                .map_err(sock_err)?;
            out.try_clone()
                .map_err(sock_err)?
                .write_all(&(a as u16).to_le_bytes())
                .map_err(sock_err)?;
            let (inc, _) = listeners[b].accept().map_err(sock_err)?;
            inc.set_nodelay(true).map_err(sock_err)?;
            inc.set_write_timeout(Some(WRITE_TIMEOUT))
                .map_err(sock_err)?;
            let mut hello = [0u8; 2];
            let mut inc_read = inc.try_clone().map_err(sock_err)?;
            inc_read.read_exact(&mut hello).map_err(sock_err)?;
            debug_assert_eq!(u16::from_le_bytes(hello) as usize, a);

            shutdowns.push(out.try_clone().map_err(sock_err)?);
            shutdowns.push(inc.try_clone().map_err(sock_err)?);

            // Endpoint at a: writes a → b on `out`, reads b → a off `out`.
            let conn_ab = Conn::new();
            conns[a * w + b] = Some(conn_ab.clone());
            writers.push({
                let (s, q, g) = (
                    out.try_clone().map_err(sock_err)?,
                    quiesce.clone(),
                    gauges.clone(),
                );
                std::thread::spawn(move || writer_loop(s, conn_ab, q, g))
            });
            readers.push({
                let (r, g) = (routes.clone(), gauges.clone());
                std::thread::spawn(move || reader_loop(out, r, g))
            });

            // Endpoint at b: writes b → a on `inc`, reads a → b off `inc`.
            let conn_ba = Conn::new();
            conns[b * w + a] = Some(conn_ba.clone());
            writers.push({
                let (q, g) = (quiesce.clone(), gauges.clone());
                std::thread::spawn(move || writer_loop(inc, conn_ba, q, g))
            });
            readers.push({
                let (r, g) = (routes.clone(), gauges.clone());
                std::thread::spawn(move || reader_loop(inc_read, r, g))
            });

            threads.fetch_add(4, Ordering::Relaxed);
        }
    }

    Ok(Mesh {
        transport: Arc::new(MuxTransport {
            routes: routes.clone(),
            workers: w,
            conns,
            gauges: gauges.clone(),
        }),
        writers,
        readers,
        shutdowns,
        gauges,
    })
}

/// Run the workload over the multiplexed loopback-TCP worker mesh. Blocks
/// until quiescent.
pub fn run_tcp(cfg: &RuntimeConfig) -> Result<RunOutcome> {
    let n = cfg.workload.n;
    assert_eq!(cfg.placement.n(), n);
    let schedule = generate(&cfg.workload);
    let start = Instant::now();

    let fabric = build_fabric(n, resolve_workers(cfg.workers, n));
    let mesh = build_mesh(&fabric.routes, &fabric.quiesce, &fabric.threads)?;
    let repl: Arc<dyn Replication> = cfg.placement.clone();
    let transport = mesh.transport();
    let quiesce = fabric.quiesce.clone();
    let cluster = fabric.spawn(|i| {
        let site = SiteId::from(i);
        Node::new(
            site,
            build_site(cfg.protocol, site, repl.clone(), ProtocolConfig::default()),
            OpDriver::replay(
                schedule.per_site[i].clone(),
                schedule.warmup_events,
                cfg.time_scale,
            ),
            n,
            cfg.workload.payload_len,
            transport.clone(),
            quiesce.clone(),
            cfg.size_model,
            cfg.batch,
            start,
        )
    });
    drop(transport);

    let (history, mut metrics, final_pending) = drive(cluster, &[]);
    mesh.teardown(&mut metrics);

    Ok(RunOutcome {
        history,
        metrics,
        final_pending,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Wire;
    use crate::runner::test_fabric;
    use causal_proto::Fm;
    use causal_types::VarId;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn site(i: usize) -> SiteId {
        SiteId::from(i)
    }

    fn spawn_reader(stream: TcpStream, routes: Arc<Routes>, errs: Arc<Gauges>) -> JoinHandle<()> {
        std::thread::spawn(move || reader_loop(stream, routes, errs))
    }

    #[test]
    fn oversized_length_prefix_fails_the_connection_not_the_process() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes, errs.clone());
        // A frame claiming 2 GiB: must be rejected before any allocation.
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(2u32 << 30).to_le_bytes());
        tx.write_all(&header).unwrap();
        reader.join().expect("reader exits cleanly, no panic");
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 1);
        assert!(
            mailboxes.iter().all(|m| m.try_recv_test().is_none()),
            "no message reaches any mailbox"
        );
    }

    #[test]
    fn corrupt_frame_tears_the_connection_down_cleanly() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes, errs.clone());
        // Well-formed header, garbage body: the codec must reject it and
        // the reader must return (the pre-PR6 code panicked here).
        let body = [0xFFu8; 16];
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        tx.write_all(&header).unwrap();
        tx.write_all(&body).unwrap();
        reader.join().expect("reader exits cleanly, no panic");
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 1);
        assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let (mut tx, rx) = pair();
        let (routes, _mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes, errs.clone());
        let header = [0u8, 0, 0, 0, 0x80];
        tx.write_all(&header).unwrap();
        reader.join().expect("reader exits cleanly");
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn out_of_range_destination_fails_the_connection() {
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes, errs.clone());
        // Valid routed frame, but dst = 5 in a 2-site system.
        let msg = Msg::Fm(Fm { var: VarId(0) });
        let body =
            wire::encode_routed_with(SiteId::from(0usize), SiteId::from(5usize), &msg, |b| {
                b.to_vec()
            });
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.push(0);
        frame.extend_from_slice(&body);
        tx.write_all(&frame).unwrap();
        reader.join().expect("reader exits cleanly");
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 1);
        assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
    }

    #[test]
    fn wrong_shard_frame_is_rerouted_not_dropped() {
        // 4 sites over 2 workers: sites {0, 2} on worker 0, {1, 3} on
        // worker 1. A frame addressed to site 3 arriving on *any*
        // connection must land in site 3's mailbox and wake worker 1 —
        // the reader trusts the routing header, not the socket it came in
        // on.
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(4, 2);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes.clone(), errs.clone());
        let msg = Msg::Fm(Fm { var: VarId(7) });
        let body =
            wire::encode_routed_with(SiteId::from(0usize), SiteId::from(3usize), &msg, |b| {
                b.to_vec()
            });
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.push(1);
        frame.extend_from_slice(&body);
        tx.write_all(&frame).unwrap();

        let delivered = mailboxes[3]
            .recv_timeout(Duration::from_secs(5))
            .expect("the frame reaches the header's destination");
        match delivered {
            Wire::Msg {
                from,
                msg: Msg::Fm(fm),
                measured,
            } => {
                assert_eq!(from, SiteId::from(0usize));
                assert_eq!(fm.var, VarId(7));
                assert!(measured);
            }
            _ => panic!("expected the routed FM"),
        }
        assert!(
            routes.take_wake(1, Duration::from_secs(5)),
            "the destination's owner is woken"
        );
        assert!(
            mailboxes[0].try_recv_test().is_none() && mailboxes[1].try_recv_test().is_none(),
            "no other mailbox sees the frame"
        );
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 0);
        tx.shutdown(Shutdown::Both).unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn dead_connection_fails_sends_fast_without_blocking() {
        // Two sites on two workers with the connection already marked
        // dead: the send must fail immediately (no socket interaction, no
        // sleep-poll) and count a connection error.
        let (routes, _mailboxes) = test_fabric(2, 2);
        let errs = Arc::new(Gauges::default());
        let conn = Conn::new();
        conn.dead.store(true, Ordering::Relaxed);
        let t = MuxTransport {
            routes,
            workers: 2,
            conns: vec![None, Some(conn.clone()), Some(conn.clone()), None],
            gauges: errs.clone(),
        };
        let msg = Msg::Fm(Fm { var: VarId(0) });
        assert_eq!(t.send(site(0), &[site(1)], &msg, true), 1);
        assert_eq!(t.send(site(1), &[site(0)], &msg, true), 1);
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 2);
        assert!(locked(&conn.queue, |q| q.is_empty()));
    }

    #[test]
    fn writer_marks_dead_peer_and_uncounts_inflight_frames() {
        // The peer vanishes; the writer must surface the failure (dead
        // flag + connection errors) and un-count every doomed message —
        // all k destinations of a multi-routed frame — from the in-flight
        // tally, so quiescence cannot hang. The writer thread's exit
        // (connection closed and drained) is a deterministic sync point.
        let (a, b) = pair();
        drop(b);
        a.set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let quiesce = Arc::new(Quiesce::new(1));
        let conn = Conn::new();
        let errs = Arc::new(Gauges::default());
        // Far more bytes than any socket buffer: with nothing draining,
        // some write must fail (RST or timeout).
        let msg = Msg::Fm(Fm { var: VarId(0) });
        let (frames, k): (u64, u64) = (100_000, 3);
        let sent = frames * k;
        for _ in 0..frames {
            quiesce.frames_sent(k);
            locked(&conn.queue, |q| {
                q.push(OutFrame {
                    src: site(0),
                    dsts: vec![site(1), site(2), site(3)],
                    msg: msg.clone(),
                    measured: false,
                })
            });
        }
        conn.closed.store(true, Ordering::Release);
        conn.kick.notify();
        let writer = {
            let (c, q, e) = (conn.clone(), quiesce.clone(), errs.clone());
            std::thread::spawn(move || writer_loop(a, c, q, e))
        };
        writer.join().expect("writer exits once closed and drained");
        assert!(conn.dead.load(Ordering::Relaxed), "the dead flag is raised");
        let failed = errs.conn_errors.load(Ordering::Relaxed);
        assert!(failed > 0, "some frames positively failed");
        assert_eq!(failed % k, 0, "a frame fails with all its destinations");
        // Every frame either reached the kernel (still counted in flight —
        // nothing received them in this test) or was un-counted as failed.
        assert_eq!(quiesce.in_flight(), (sent - failed) as i64);
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
                log: Arc::new(Log::from_sorted(vec![entry]).unwrap()),
            },
        })
    }

    /// The next frame in `mailbox`, within the test deadline.
    fn next_msg(mailbox: &crate::runner::MailboxRx) -> (SiteId, Msg) {
        match mailbox.recv_timeout(Duration::from_secs(5)) {
            Some(Wire::Msg { from, msg, .. }) => (from, msg),
            _ => panic!("expected a message"),
        }
    }

    #[test]
    fn multicast_crosses_each_connection_once_and_keeps_pair_fifo() {
        // 6 sites over 2 workers: {0, 2, 4} on worker 0, {1, 3, 5} on
        // worker 1. Site 0 multicasts to everyone else, then answers site
        // 1 with a unicast RM.
        let (routes, mailboxes) = test_fabric(6, 2);
        let quiesce = Arc::new(Quiesce::new(6));
        let mesh = build_mesh(&routes, &quiesce, &Arc::new(AtomicU64::new(0))).unwrap();
        let transport = mesh.transport();
        let sm = sm_with_log();
        let everyone: Vec<SiteId> = (1..6).map(site).collect();
        assert_eq!(transport.send(site(0), &everyone, &sm, true), 0);
        let rm = Msg::Rm(causal_proto::Rm {
            var: VarId(9),
            value: None,
            meta: causal_proto::RmMeta::OptTrack(None),
        });
        assert_eq!(transport.send(site(0), &[site(1)], &rm, true), 0);
        transport.flush(site(0));

        // Exactly one copy per destination, local or remote.
        let copies: Vec<Msg> = (1..6)
            .map(|i| {
                let (from, msg) = next_msg(&mailboxes[i]);
                assert_eq!((from, &msg), (site(0), &sm), "site {i}");
                msg
            })
            .collect();
        // Per-pair FIFO: the later unicast arrives behind the multicast.
        assert_eq!(next_msg(&mailboxes[1]).1, rm);
        assert!(mailboxes.iter().all(|m| m.try_recv_test().is_none()));
        assert!(routes.take_wake(1, Duration::from_secs(5)));

        // The remote copies (sites 1, 3, 5) were decoded once: they share
        // one piggyback, distinct from the sender's.
        let log_of = |m: &Msg| match m {
            Msg::Sm(causal_proto::Sm {
                meta: causal_proto::SmMeta::OptTrack { log, .. },
                ..
            }) => log.clone(),
            _ => panic!("expected an Opt-Track SM"),
        };
        let (sent, remote) = (log_of(&sm), log_of(&copies[0]));
        assert!(Arc::ptr_eq(&remote, &log_of(&copies[2])));
        assert!(Arc::ptr_eq(&remote, &log_of(&copies[4])));
        assert!(!Arc::ptr_eq(&remote, &sent));
        assert!(
            Arc::ptr_eq(&sent, &log_of(&copies[1])),
            "local copies share the sender's"
        );

        drop(transport);
        let mut metrics = RunMetrics::new();
        mesh.teardown(&mut metrics);
        assert_eq!(
            metrics.transport_frames, 2,
            "one multi-routed frame, one unicast"
        );
        assert_eq!(metrics.transport_conn_errors, 0);
    }

    #[test]
    fn reader_routes_frames_that_straddle_or_outgrow_its_buffer() {
        // One burst far larger than the receive buffer: small frames, one
        // of which must straddle a buffer end, then a single frame larger
        // than the whole buffer, then a small one behind it.
        let (mut tx, rx) = pair();
        let (routes, mailboxes) = test_fabric(2, 1);
        let errs = Arc::new(Gauges::default());
        let reader = spawn_reader(rx, routes, errs.clone());
        let frame = |msg: &Msg| {
            let mut f = Vec::new();
            append_frame(
                &mut f,
                &OutFrame {
                    src: site(0),
                    dsts: vec![site(1)],
                    msg: msg.clone(),
                    measured: false,
                },
            );
            f
        };
        let small = 20_000u32;
        let mut burst = Vec::new();
        for i in 0..small {
            burst.extend(frame(&Msg::Fm(Fm { var: VarId(i) })));
        }
        assert!(burst.len() > 2 * READ_BUF_BYTES);
        let big = Msg::Sm(causal_proto::Sm {
            var: VarId(1),
            value: causal_types::VersionedValue::new(causal_types::WriteId::new(site(0), 1), 0),
            meta: causal_proto::SmMeta::FullTrack {
                write: Arc::new(causal_clocks::MatrixClock::from_cells(
                    128,
                    vec![1 << 40; 128 * 128],
                )),
            },
        });
        assert!(frame(&big).len() > READ_BUF_BYTES);
        burst.extend(frame(&big));
        burst.extend(frame(&Msg::Fm(Fm { var: VarId(small) })));
        tx.write_all(&burst).unwrap();

        for i in 0..small {
            assert_eq!(next_msg(&mailboxes[1]).1, Msg::Fm(Fm { var: VarId(i) }));
        }
        assert_eq!(next_msg(&mailboxes[1]).1, big);
        assert_eq!(next_msg(&mailboxes[1]).1, Msg::Fm(Fm { var: VarId(small) }));
        assert_eq!(errs.conn_errors.load(Ordering::Relaxed), 0);
        tx.shutdown(Shutdown::Both).unwrap();
        reader.join().unwrap();
    }
}
