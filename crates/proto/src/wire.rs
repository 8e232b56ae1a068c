//! Flat binary wire codec for protocol messages.
//!
//! The TCP transport in `causal-runtime` frames each [`Msg`] with this
//! codec (length-prefixed on the socket); the simnet transport sizes its
//! frames with the same layout. The format is a tag-prefixed flat encoding
//! with LEB128 varint scalars — no self-description, no versioning —
//! because both ends of a run are always the same build, as in the paper's
//! testbed.
//!
//! ## Tigerstyle: there IS a limit
//!
//! Encoding goes through a [`WireBuf`]: a reusable scratch buffer with a
//! hard [`MAX_FRAME`] cap. The hot path ([`encode_with`]) borrows a
//! thread-local scratch, so the steady state allocates nothing — the buffer
//! is cleared, refilled and handed to the caller as a borrowed `&[u8]`.
//! Exceeding the cap is a bug in the sender (no legal message comes close)
//! and fails loudly at the assert rather than growing without bound.
//!
//! Decoding is a zero-copy walk: a [`Frame`] borrows the input buffer and
//! [`Reader`] advances through it segment by segment, only materialising
//! the clock structures themselves. Decoding is **total**: malformed input
//! yields [`WireError`], never a panic or an attacker-sized allocation, so
//! a corrupted frame cannot take down a site. Batched updates
//! ([`SmBatch`]) encode the 2nd..Nth piggyback as an exact delta against
//! its predecessor ([`SmMetaDelta`]) and are reconstructed byte-identically
//! on decode.

use crate::msg::{BatchedSm, Fm, Msg, Rm, RmMeta, Sm, SmBatch, SmMeta, SmMetaDelta};
use causal_clocks::{
    CrpDelta, CrpLog, DestSet, Log, LogDelta, LogEntry, MatrixClock, MatrixDelta, VectorClock,
    VectorDelta,
};
use causal_types::{MsgKind, SiteId, VarId, VersionedValue, WriteId};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Hard upper bound on an encoded frame, in bytes.
///
/// The worst legal case — a full batch of `MAX_SITES`-wide matrix
/// piggybacks that all hit the dense fallback — stays well under 1 MiB;
/// anything larger is a runaway sender.
pub const MAX_FRAME: usize = 1 << 20;

/// Decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Input ended before the structure was complete (or a length field
    /// claimed more elements than the input could possibly hold).
    Truncated,
    /// An enum tag or flag byte was out of range.
    BadTag(u8),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// WireBuf: bounded, reusable encode scratch
// ---------------------------------------------------------------------

/// A reusable encode buffer with a hard [`MAX_FRAME`] size limit.
///
/// `clear()` keeps the allocation, so a long-lived `WireBuf` (such as the
/// thread-local scratch behind [`encode_with`]) reaches a steady state
/// where encoding allocates nothing at all.
#[derive(Default)]
pub struct WireBuf {
    buf: Vec<u8>,
}

impl WireBuf {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        WireBuf {
            buf: Vec::with_capacity(256),
        }
    }

    /// Drop the contents, keep the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn push(&mut self, b: u8) {
        assert!(
            self.buf.len() < MAX_FRAME,
            "wire frame exceeds MAX_FRAME ({MAX_FRAME} bytes): runaway sender"
        );
        self.buf.push(b);
    }

    /// LEB128 varint.
    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(b);
                return;
            }
            self.push(b | 0x80);
        }
    }

    #[inline]
    fn put_usize(&mut self, v: usize) {
        self.put_varint(v as u64);
    }

    #[inline]
    fn put_site(&mut self, s: SiteId) {
        self.put_varint(s.0 as u64);
    }
}

thread_local! {
    static SCRATCH: RefCell<WireBuf> = RefCell::new(WireBuf::new());
}

/// Fill the thread-local scratch with `fill` and hand the encoded bytes to
/// `f` — the zero-allocation hot path (the borrow never escapes, so the
/// scratch can be reused by the very next call).
fn with_scratch<R>(fill: impl FnOnce(&mut WireBuf), f: impl FnOnce(&[u8]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            fill(&mut buf);
            f(buf.as_slice())
        }
        // Re-entrant use (an encode inside `f`): fall back to a private
        // buffer rather than poisoning the scratch.
        Err(_) => {
            let mut buf = WireBuf::new();
            fill(&mut buf);
            f(buf.as_slice())
        }
    })
}

/// Encode `msg` into the thread-local scratch buffer and hand the encoded
/// bytes to `f`.
pub fn encode_with<R>(msg: &Msg, f: impl FnOnce(&[u8]) -> R) -> R {
    with_scratch(|buf| encode_into(msg, buf), f)
}

/// Encode a message to an owned byte vector (compatibility surface; sized
/// exactly, built from the thread-local scratch).
pub fn encode(msg: &Msg) -> Vec<u8> {
    encode_with(msg, |b| b.to_vec())
}

/// Encode a *routed* frame — a `[src][dst]` LEB128 routing header followed
/// by the ordinary message body — into the thread-local scratch and hand
/// the bytes to `f`. This is the multiplexed fabric's unicast frame format:
/// one connection carries every site pair between two workers, and the
/// receiver routes on the header alone (see [`decode_routed`]).
pub fn encode_routed_with<R>(src: SiteId, dst: SiteId, msg: &Msg, f: impl FnOnce(&[u8]) -> R) -> R {
    with_scratch(|buf| encode_routed_into(src, dst, msg, buf), f)
}

/// Encode a routed frame into `out`, replacing its previous contents.
pub fn encode_routed_into(src: SiteId, dst: SiteId, msg: &Msg, out: &mut WireBuf) {
    out.clear();
    out.put_site(src);
    out.put_site(dst);
    put_msg(out, msg);
}

/// Encode a *multi-routed* frame — `[src][k][dst₁..dst_k]` followed by one
/// message body shared by all `k` destinations — into the thread-local
/// scratch and hand the bytes to `f`. A write's fan-out toward one peer
/// worker crosses the socket as one such frame: encoded once, decoded once
/// (see [`decode_multi_routed`]).
pub fn encode_multi_routed_with<R>(
    src: SiteId,
    dsts: &[SiteId],
    msg: &Msg,
    f: impl FnOnce(&[u8]) -> R,
) -> R {
    with_scratch(
        |buf| {
            buf.clear();
            buf.put_site(src);
            buf.put_usize(dsts.len());
            for &d in dsts {
                buf.put_site(d);
            }
            put_msg(buf, msg);
        },
        f,
    )
}

/// Encode `msg` into `out`, replacing its previous contents.
pub fn encode_into(msg: &Msg, out: &mut WireBuf) {
    out.clear();
    put_msg(out, msg);
}

/// Append the tag byte and message body to `out` (no clear — routed frames
/// prefix their header first).
fn put_msg(out: &mut WireBuf, msg: &Msg) {
    match msg {
        Msg::Sm(sm) => {
            out.push(0);
            put_sm_body(out, sm);
        }
        Msg::Fm(fm) => {
            out.push(1);
            out.put_varint(fm.var.0 as u64);
        }
        Msg::Rm(rm) => {
            out.push(2);
            out.put_varint(rm.var.0 as u64);
            match &rm.value {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    put_value(out, v);
                }
            }
            put_rm_meta(out, &rm.meta);
        }
        Msg::Batch(batch) => {
            out.push(3);
            put_batch(out, batch);
        }
    }
}

/// Decode a message from bytes; the whole input must be consumed.
pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
    Frame::new(buf)?.decode()
}

/// A decoded routed frame: the routing header plus the message.
#[derive(Debug, PartialEq)]
pub struct Routed {
    /// The sending site (the `from` the receiving node sees).
    pub src: SiteId,
    /// The destination site whose mailbox the frame must reach. The
    /// receiver trusts this header over the connection's identity, so a
    /// frame arriving on the "wrong" connection is rerouted, not dropped.
    pub dst: SiteId,
    /// The message itself.
    pub msg: Msg,
}

/// Decode a routed frame (`[src][dst][body]`); the whole input must be
/// consumed and both sites must be in the legal range.
pub fn decode_routed(buf: &[u8]) -> Result<Routed, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let src = r.site()?;
    let dst = r.site()?;
    let msg = decode(&buf[r.pos..])?;
    Ok(Routed { src, dst, msg })
}

/// A decoded multi-routed frame: one message for several destinations.
#[derive(Debug, PartialEq)]
pub struct MultiRouted {
    /// The sending site.
    pub src: SiteId,
    /// The destination sites, in the sender's order: at least one, each in
    /// the legal range, no site twice.
    pub dsts: Vec<SiteId>,
    /// The message every destination receives.
    pub msg: Msg,
}

/// Decode a multi-routed frame (`[src][k][dst₁..dst_k][body]`); the whole
/// input must be consumed, `1 ≤ k ≤ MAX_SITES`, and the destinations must
/// be legal and distinct.
pub fn decode_multi_routed(buf: &[u8]) -> Result<MultiRouted, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let src = r.site()?;
    let k = match r.count()? {
        // An empty destination list is never encoded.
        0 => return Err(WireError::BadTag(0)),
        k if k > causal_clocks::dests::MAX_SITES => return Err(WireError::Truncated),
        k => k,
    };
    let mut dsts = Vec::with_capacity(k);
    let mut seen = DestSet::EMPTY;
    for _ in 0..k {
        let d = r.site()?;
        if seen.contains(d) {
            return Err(WireError::BadTag(d.0 as u8));
        }
        seen.insert(d);
        dsts.push(d);
    }
    let msg = decode(&buf[r.pos..])?;
    Ok(MultiRouted { src, dsts, msg })
}

// ---------------------------------------------------------------------
// Zero-copy frame view
// ---------------------------------------------------------------------

/// A zero-copy view over one encoded message.
///
/// Construction validates the tag byte only, so transports can classify a
/// frame (`kind()`) without materialising the piggybacked structures;
/// [`Frame::decode`] walks the borrowed bytes and builds the owned [`Msg`].
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    buf: &'a [u8],
    tag: u8,
}

impl<'a> Frame<'a> {
    /// Wrap `buf`, validating the leading tag byte.
    pub fn new(buf: &'a [u8]) -> Result<Frame<'a>, WireError> {
        match buf.first() {
            None => Err(WireError::Truncated),
            Some(&tag @ 0..=3) => Ok(Frame { buf, tag }),
            Some(&t) => Err(WireError::BadTag(t)),
        }
    }

    /// The message class, read from the tag without decoding the body.
    pub fn kind(&self) -> MsgKind {
        match self.tag {
            0 | 3 => MsgKind::Sm,
            1 => MsgKind::Fm,
            _ => MsgKind::Rm,
        }
    }

    /// Decode the full message; the whole frame must be consumed.
    pub fn decode(&self) -> Result<Msg, WireError> {
        let mut r = Reader {
            buf: self.buf,
            pos: 1,
        };
        let msg = match self.tag {
            0 => Msg::Sm(r.sm_body()?),
            1 => Msg::Fm(Fm { var: r.var()? }),
            2 => {
                let var = r.var()?;
                let value = match r.u8()? {
                    0 => None,
                    1 => Some(r.value()?),
                    t => return Err(WireError::BadTag(t)),
                };
                let meta = r.rm_meta()?;
                Msg::Rm(Rm { var, value, meta })
            }
            _ => Msg::Batch(Arc::new(r.batch()?)),
        };
        if r.pos != self.buf.len() {
            return Err(WireError::TrailingBytes(self.buf.len() - r.pos));
        }
        Ok(msg)
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

fn put_sm_body(out: &mut WireBuf, sm: &Sm) {
    out.put_varint(sm.var.0 as u64);
    put_value(out, &sm.value);
    put_sm_meta(out, &sm.meta);
}

fn put_write_id(out: &mut WireBuf, w: WriteId) {
    out.put_site(w.site);
    out.put_varint(w.clock);
}

fn put_value(out: &mut WireBuf, v: &VersionedValue) {
    put_write_id(out, v.writer);
    out.put_varint(v.data);
    out.put_varint(v.payload_len as u64);
}

fn put_matrix(out: &mut WireBuf, m: &MatrixClock) {
    out.put_usize(m.n());
    for j in SiteId::all(m.n()) {
        for k in SiteId::all(m.n()) {
            out.put_varint(m.get(j, k));
        }
    }
}

fn put_vector(out: &mut WireBuf, v: &VectorClock) {
    out.put_usize(v.len());
    for (_, c) in v.iter() {
        out.put_varint(c);
    }
}

fn put_dests(out: &mut WireBuf, d: &DestSet) {
    out.put_usize(d.len());
    for s in d.iter() {
        out.put_site(s);
    }
}

fn put_log(out: &mut WireBuf, log: &Log) {
    out.put_usize(log.len());
    for e in log.iter() {
        out.put_site(e.origin);
        out.put_varint(e.clock);
        put_dests(out, &e.dests);
    }
}

fn put_crp_log(out: &mut WireBuf, log: &CrpLog) {
    out.put_usize(log.len());
    for w in log.iter() {
        put_write_id(out, *w);
    }
}

fn put_sm_meta(out: &mut WireBuf, meta: &SmMeta) {
    match meta {
        SmMeta::FullTrack { write } => {
            out.push(0);
            put_matrix(out, write);
        }
        SmMeta::OptTrack { clock, log } => {
            out.push(1);
            out.put_varint(*clock);
            put_log(out, log);
        }
        SmMeta::Crp { clock, log } => {
            out.push(2);
            out.put_varint(*clock);
            put_crp_log(out, log);
        }
        SmMeta::OptP { write } => {
            out.push(3);
            put_vector(out, write);
        }
    }
}

fn put_rm_meta(out: &mut WireBuf, meta: &RmMeta) {
    match meta {
        RmMeta::FullTrack(None) => out.push(0),
        RmMeta::FullTrack(Some(m)) => {
            out.push(1);
            put_matrix(out, m);
        }
        RmMeta::OptTrack(None) => out.push(2),
        RmMeta::OptTrack(Some(l)) => {
            out.push(3);
            put_log(out, l);
        }
    }
}

/// Per-batched-SM flag byte: bit 0 = meta is a delta against the previous
/// update's meta, bit 1 = the update was issued in the measured window.
const BATCH_FLAG_DELTA: u8 = 0b01;
const BATCH_FLAG_MEASURED: u8 = 0b10;

fn put_batch(out: &mut WireBuf, batch: &SmBatch) {
    out.put_usize(batch.len());
    let mut prev: Option<&SmMeta> = None;
    for b in &batch.sms {
        let delta = prev.and_then(|p| SmMetaDelta::between(p, &b.sm.meta));
        let mut flags = 0u8;
        if delta.is_some() {
            flags |= BATCH_FLAG_DELTA;
        }
        if b.measured {
            flags |= BATCH_FLAG_MEASURED;
        }
        out.push(flags);
        out.put_varint(b.sm.var.0 as u64);
        put_value(out, &b.sm.value);
        match delta {
            Some(d) => put_sm_meta_delta(out, &d),
            None => put_sm_meta(out, &b.sm.meta),
        }
        prev = Some(&b.sm.meta);
    }
}

fn put_matrix_delta(out: &mut WireBuf, d: &MatrixDelta) {
    match d {
        MatrixDelta::Cells(cells) => {
            out.push(0);
            out.put_usize(cells.len());
            for &(j, k, v) in cells {
                out.put_site(j);
                out.put_site(k);
                out.put_varint(v);
            }
        }
        MatrixDelta::Full(m) => {
            out.push(1);
            put_matrix(out, m);
        }
    }
}

fn put_vector_delta(out: &mut WireBuf, d: &VectorDelta) {
    match d {
        VectorDelta::Changed(pairs) => {
            out.push(0);
            out.put_usize(pairs.len());
            for &(j, c) in pairs {
                out.put_site(j);
                out.put_varint(c);
            }
        }
        VectorDelta::Full(v) => {
            out.push(1);
            put_vector(out, v);
        }
    }
}

fn put_log_delta(out: &mut WireBuf, d: &LogDelta) {
    out.put_usize(d.upserts.len());
    for e in &d.upserts {
        out.put_site(e.origin);
        out.put_varint(e.clock);
        put_dests(out, &e.dests);
    }
    out.put_usize(d.removals.len());
    for w in &d.removals {
        put_write_id(out, *w);
    }
}

fn put_crp_delta(out: &mut WireBuf, d: &CrpDelta) {
    out.put_usize(d.upserts.len());
    for w in &d.upserts {
        put_write_id(out, *w);
    }
    out.put_usize(d.removals.len());
    for s in &d.removals {
        out.put_site(*s);
    }
}

fn put_sm_meta_delta(out: &mut WireBuf, d: &SmMetaDelta) {
    match d {
        SmMetaDelta::FullTrack(m) => {
            out.push(0);
            put_matrix_delta(out, m);
        }
        SmMetaDelta::OptTrack { clock, delta } => {
            out.push(1);
            out.put_varint(*clock);
            put_log_delta(out, delta);
        }
        SmMetaDelta::Crp { clock, delta } => {
            out.push(2);
            out.put_varint(*clock);
            put_crp_delta(out, delta);
        }
        SmMetaDelta::OptP(v) => {
            out.push(3);
            put_vector_delta(out, v);
        }
    }
}

// ---------------------------------------------------------------------
// Reader — the borrowed decode walk
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 varint. Total: at most 10 bytes are consumed, and a
    /// continuation past the 64-bit range is a tag error, not a wrap.
    #[inline]
    fn varint(&mut self) -> Result<u64, WireError> {
        // Single-byte fast path: clock cells, counts, and site ids are
        // almost always < 128, and the matrix decode loop lives here.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        self.varint_multi()
    }

    /// The multi-byte (or truncated) continuation of [`Reader::varint`].
    #[cold]
    fn varint_multi(&mut self) -> Result<u64, WireError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(WireError::BadTag(b));
            }
            x |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// A count field for a sequence whose elements occupy ≥ 1 byte each:
    /// anything beyond the remaining input is a lie, rejected *before*
    /// allocation.
    #[inline]
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.varint()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A site id. `MAX_SITES` is `2⁷`, so a legal id is exactly one
    /// varint byte: anything with the continuation bit set is out of range
    /// (or an over-long encoding no encoder emits).
    #[inline]
    fn site(&mut self) -> Result<SiteId, WireError> {
        const _: () = assert!(causal_clocks::dests::MAX_SITES == 128);
        match self.u8()? {
            b @ 0..=0x7f => Ok(SiteId(b as u16)),
            _ => Err(WireError::Truncated),
        }
    }

    fn var(&mut self) -> Result<VarId, WireError> {
        let raw = self.varint()?;
        u32::try_from(raw)
            .map(VarId)
            .map_err(|_| WireError::Truncated)
    }

    fn write_id(&mut self) -> Result<WriteId, WireError> {
        Ok(WriteId {
            site: self.site()?,
            clock: self.varint()?,
        })
    }

    fn value(&mut self) -> Result<VersionedValue, WireError> {
        let writer = self.write_id()?;
        let data = self.varint()?;
        let payload_len = u32::try_from(self.varint()?).map_err(|_| WireError::Truncated)?;
        Ok(VersionedValue {
            writer,
            data,
            payload_len,
        })
    }

    fn dim(&mut self) -> Result<usize, WireError> {
        // Matrix/vector dimension: cap to the sane range before allocating
        // n² cells from attacker-controlled input.
        let n = self.varint()? as usize;
        if n > causal_clocks::dests::MAX_SITES {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn matrix(&mut self) -> Result<MatrixClock, WireError> {
        // One pass into a pre-sized cell vector: building the zero matrix
        // first and `set()`ing every cell touched the `n²` cells twice and
        // cost an index computation per cell — ~1.8× the encode cost on
        // the Full-Track hot path before this was flattened. The `n` spare
        // slots take the row keys `from_cells` appends.
        let n = self.dim()?;
        let mut cells = Vec::with_capacity(n * n + n);
        for _ in 0..n * n {
            cells.push(self.varint()?);
        }
        Ok(MatrixClock::from_cells(n, cells))
    }

    fn vector(&mut self) -> Result<VectorClock, WireError> {
        let n = self.dim()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(self.varint()?);
        }
        Ok(VectorClock::from_entries(entries))
    }

    // Forced: left to the heuristics, `log` keeps a call per entry here and
    // in `log_entry`, and an Opt-Track SM decodes 1.6x slower (measured).
    #[inline(always)]
    fn dests(&mut self) -> Result<DestSet, WireError> {
        // `count` bounds `n` by the remaining input and a site id is one
        // byte (see `site`), so the members are the next `n` bytes: one
        // slice, one pass.
        let n = self.count()?;
        let mut d = DestSet::EMPTY;
        for &b in &self.buf[self.pos..self.pos + n] {
            if b > 0x7f {
                return Err(WireError::Truncated);
            }
            d.insert(SiteId(b as u16));
        }
        self.pos += n;
        Ok(d)
    }

    #[inline(always)]
    fn log_entry(&mut self) -> Result<LogEntry, WireError> {
        let origin = self.site()?;
        let clock = self.varint()?;
        let dests = self.dests()?;
        Ok(LogEntry::new(origin, clock, dests))
    }

    fn log(&mut self) -> Result<Log, WireError> {
        // `put_log` emits `Log::iter` order, which is strictly sorted: one
        // pass into a pre-sized vector, no per-entry search and regrow.
        // Anything else is not a log this codec wrote.
        let n = self.count()?;
        if n > self.remaining() / 3 {
            // An entry is at least three bytes: bound the allocation.
            return Err(WireError::Truncated);
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(self.log_entry()?);
        }
        Log::from_sorted(entries).ok_or(WireError::BadTag(0))
    }

    fn crp_log(&mut self) -> Result<CrpLog, WireError> {
        let n = self.count()?;
        let mut log = CrpLog::new();
        for _ in 0..n {
            log.observe(self.write_id()?);
        }
        Ok(log)
    }

    fn sm_meta(&mut self) -> Result<SmMeta, WireError> {
        Ok(match self.u8()? {
            0 => SmMeta::FullTrack {
                write: Arc::new(self.matrix()?),
            },
            1 => SmMeta::OptTrack {
                clock: self.varint()?,
                log: Arc::new(self.log()?),
            },
            2 => SmMeta::Crp {
                clock: self.varint()?,
                log: Arc::new(self.crp_log()?),
            },
            3 => SmMeta::OptP {
                write: Arc::new(self.vector()?),
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn rm_meta(&mut self) -> Result<RmMeta, WireError> {
        Ok(match self.u8()? {
            0 => RmMeta::FullTrack(None),
            1 => RmMeta::FullTrack(Some(Arc::new(self.matrix()?))),
            2 => RmMeta::OptTrack(None),
            3 => RmMeta::OptTrack(Some(Arc::new(self.log()?))),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn sm_body(&mut self) -> Result<Sm, WireError> {
        Ok(Sm {
            var: self.var()?,
            value: self.value()?,
            meta: self.sm_meta()?,
        })
    }

    fn matrix_delta(&mut self) -> Result<MatrixDelta, WireError> {
        Ok(match self.u8()? {
            0 => {
                let n = self.count()?;
                let mut cells = Vec::with_capacity(n);
                for _ in 0..n {
                    let j = self.site()?;
                    let k = self.site()?;
                    cells.push((j, k, self.varint()?));
                }
                MatrixDelta::Cells(cells)
            }
            1 => MatrixDelta::Full(self.matrix()?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn vector_delta(&mut self) -> Result<VectorDelta, WireError> {
        Ok(match self.u8()? {
            0 => {
                let n = self.count()?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let j = self.site()?;
                    pairs.push((j, self.varint()?));
                }
                VectorDelta::Changed(pairs)
            }
            1 => VectorDelta::Full(self.vector()?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn log_delta(&mut self) -> Result<LogDelta, WireError> {
        let nu = self.count()?;
        let mut upserts = Vec::with_capacity(nu);
        for _ in 0..nu {
            upserts.push(self.log_entry()?);
        }
        let nr = self.count()?;
        let mut removals = Vec::with_capacity(nr);
        for _ in 0..nr {
            removals.push(self.write_id()?);
        }
        Ok(LogDelta { upserts, removals })
    }

    fn crp_delta(&mut self) -> Result<CrpDelta, WireError> {
        let nu = self.count()?;
        let mut upserts = Vec::with_capacity(nu);
        for _ in 0..nu {
            upserts.push(self.write_id()?);
        }
        let nr = self.count()?;
        let mut removals = Vec::with_capacity(nr);
        for _ in 0..nr {
            removals.push(self.site()?);
        }
        Ok(CrpDelta { upserts, removals })
    }

    fn sm_meta_delta(&mut self) -> Result<SmMetaDelta, WireError> {
        Ok(match self.u8()? {
            0 => SmMetaDelta::FullTrack(self.matrix_delta()?),
            1 => SmMetaDelta::OptTrack {
                clock: self.varint()?,
                delta: self.log_delta()?,
            },
            2 => SmMetaDelta::Crp {
                clock: self.varint()?,
                delta: self.crp_delta()?,
            },
            3 => SmMetaDelta::OptP(self.vector_delta()?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// Guard sparse deltas against out-of-range coordinates before
    /// applying them to `prev` — a corrupted frame must not index past the
    /// predecessor's clock dimensions.
    fn delta_fits(delta: &SmMetaDelta, prev: &SmMeta) -> bool {
        match (delta, prev) {
            (SmMetaDelta::FullTrack(MatrixDelta::Cells(cells)), SmMeta::FullTrack { write }) => {
                let n = write.n();
                cells
                    .iter()
                    .all(|&(j, k, _)| j.index() < n && k.index() < n)
            }
            (SmMetaDelta::OptP(VectorDelta::Changed(pairs)), SmMeta::OptP { write }) => {
                pairs.iter().all(|&(j, _)| j.index() < write.len())
            }
            _ => true,
        }
    }

    fn batch(&mut self) -> Result<SmBatch, WireError> {
        let n = self.count()?;
        if n == 0 {
            // An empty batch is never encoded; reject rather than build a
            // frame the unbatch path would choke on.
            return Err(WireError::BadTag(0));
        }
        let mut sms: Vec<BatchedSm> = Vec::with_capacity(n);
        for _ in 0..n {
            let flags = self.u8()?;
            if flags & !(BATCH_FLAG_DELTA | BATCH_FLAG_MEASURED) != 0 {
                return Err(WireError::BadTag(flags));
            }
            let measured = flags & BATCH_FLAG_MEASURED != 0;
            let var = self.var()?;
            let value = self.value()?;
            let meta = if flags & BATCH_FLAG_DELTA != 0 {
                let delta = self.sm_meta_delta()?;
                let prev = sms.last().ok_or(WireError::BadTag(flags))?;
                if !Self::delta_fits(&delta, &prev.sm.meta) {
                    return Err(WireError::Truncated);
                }
                delta
                    .apply_to(&prev.sm.meta)
                    .ok_or(WireError::BadTag(flags))?
            } else {
                self.sm_meta()?
            };
            sms.push(BatchedSm {
                sm: Sm { var, value, meta },
                measured,
            });
        }
        Ok(SmBatch { sms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_log() -> Log {
        let mut log = Log::new();
        log.upsert(LogEntry::new(
            SiteId(1),
            7,
            DestSet::from_sites([SiteId(0), SiteId(3)]),
        ));
        log.upsert(LogEntry::new(SiteId(2), 1, DestSet::EMPTY));
        log
    }

    fn sample_batch() -> Msg {
        // Three matrix SMs whose snapshots grow — the 2nd and 3rd encode
        // as deltas.
        let mut m = MatrixClock::new(5);
        m.set(SiteId(0), SiteId(1), 3);
        let sms = (0..3u64)
            .map(|i| {
                m.increment(SiteId(0), SiteId(2));
                BatchedSm {
                    sm: Sm {
                        var: VarId(i as u32),
                        value: VersionedValue::new(WriteId::new(SiteId(0), i + 1), 40 + i),
                        meta: SmMeta::FullTrack {
                            write: Arc::new(m.clone()),
                        },
                    },
                    measured: i != 0,
                }
            })
            .collect();
        Msg::Batch(Arc::new(SmBatch { sms }))
    }

    /// One message of every variant and piggyback kind.
    fn sample_msgs() -> Vec<Msg> {
        let value = VersionedValue::with_payload(WriteId::new(SiteId(3), 9), 42, 1000);
        vec![
            Msg::Sm(Sm {
                var: VarId(5),
                value,
                meta: SmMeta::FullTrack {
                    write: Arc::new(MatrixClock::new(4)),
                },
            }),
            Msg::Sm(Sm {
                var: VarId(5),
                value,
                meta: SmMeta::OptTrack {
                    clock: 9,
                    log: Arc::new(sample_log()),
                },
            }),
            Msg::Sm(Sm {
                var: VarId(5),
                value,
                meta: SmMeta::Crp {
                    clock: 9,
                    log: Arc::new({
                        let mut l = CrpLog::new();
                        l.observe(WriteId::new(SiteId(0), 3));
                        l
                    }),
                },
            }),
            Msg::Sm(Sm {
                var: VarId(5),
                value,
                meta: SmMeta::OptP {
                    write: Arc::new(VectorClock::new(6)),
                },
            }),
            Msg::Fm(Fm { var: VarId(0) }),
            Msg::Rm(Rm {
                var: VarId(1),
                value: None,
                meta: RmMeta::OptTrack(None),
            }),
            Msg::Rm(Rm {
                var: VarId(1),
                value: Some(value),
                meta: RmMeta::OptTrack(Some(Arc::new(sample_log()))),
            }),
            Msg::Rm(Rm {
                var: VarId(1),
                value: Some(value),
                meta: RmMeta::FullTrack(Some(Arc::new(MatrixClock::new(3)))),
            }),
            sample_batch(),
        ]
    }

    fn encode_multi(src: SiteId, dsts: &[SiteId], msg: &Msg) -> Vec<u8> {
        encode_multi_routed_with(src, dsts, msg, |b| b.to_vec())
    }

    #[test]
    fn roundtrip_each_variant() {
        for msg in sample_msgs() {
            let bytes = encode(&msg);
            let back = decode(&bytes).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn batch_delta_encoding_is_smaller_than_full_and_exact() {
        let msg = sample_batch();
        let bytes = encode(&msg);
        // The same three SMs encoded individually are larger in total:
        // the deltas carry single changed cells instead of 25-cell grids.
        let Msg::Batch(batch) = &msg else {
            unreachable!()
        };
        let individual: usize = batch
            .sms
            .iter()
            .map(|b| encode(&Msg::Sm(b.sm.clone())).len())
            .sum();
        assert!(
            bytes.len() < individual,
            "batch {} bytes vs {} individually",
            bytes.len(),
            individual
        );
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn a_16_update_full_track_batch_is_at_least_5x_smaller_than_16_frames() {
        // 16 consecutive Full-Track SMs from one sender over a 20-site
        // matrix, one send per snapshot: the batch frame pays one matrix
        // plus 15 single-cell deltas, the per-SM frames pay 16 matrices.
        let n = 20usize;
        let mut m = MatrixClock::new(n);
        let sms: Vec<Sm> = (0..16u64)
            .map(|i| {
                m.increment(SiteId(0), SiteId::from((i as usize + 1) % n));
                Sm {
                    var: VarId(i as u32 % 8),
                    value: VersionedValue::new(WriteId::new(SiteId(0), i + 1), i),
                    meta: SmMeta::FullTrack {
                        write: Arc::new(m.clone()),
                    },
                }
            })
            .collect();
        let batch = Msg::Batch(Arc::new(SmBatch {
            sms: sms
                .iter()
                .map(|sm| BatchedSm {
                    sm: sm.clone(),
                    measured: true,
                })
                .collect(),
        }));
        let batch_bytes = encode(&batch).len();
        let frames_bytes: usize = sms.into_iter().map(|sm| encode(&Msg::Sm(sm)).len()).sum();
        assert_eq!((batch_bytes, frames_bytes), (590, 6528));
        assert!(batch_bytes * 5 <= frames_bytes);
    }

    #[test]
    fn frame_view_classifies_without_decoding() {
        let bytes = encode(&Msg::Fm(Fm { var: VarId(3) }));
        let frame = Frame::new(&bytes).unwrap();
        assert_eq!(frame.kind(), MsgKind::Fm);
        let bytes = encode(&sample_batch());
        assert_eq!(Frame::new(&bytes).unwrap().kind(), MsgKind::Sm);
        assert!(matches!(Frame::new(&[]), Err(WireError::Truncated)));
    }

    #[test]
    fn encode_with_reuses_the_scratch_without_allocating_a_vec() {
        let msg = Msg::Fm(Fm { var: VarId(700) });
        let len = encode_with(&msg, |b| b.len());
        assert_eq!(len, encode(&msg).len());
        // Re-entrant use must still produce correct bytes.
        let nested = encode_with(&msg, |outer| {
            let inner = encode_with(&msg, |b| b.to_vec());
            assert_eq!(outer, &inner[..]);
            inner
        });
        assert_eq!(nested, encode(&msg));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        for msg in [
            Msg::Sm(Sm {
                var: VarId(5),
                value: VersionedValue::new(WriteId::new(SiteId(0), 1), 0),
                meta: SmMeta::OptP {
                    write: Arc::new(VectorClock::new(8)),
                },
            }),
            sample_batch(),
        ] {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(WireError::Truncated),
                    "cut={cut}"
                );
            }
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(decode(&[9]), Err(WireError::BadTag(9)));
        assert!(matches!(decode(&[]), Err(WireError::Truncated)));
        // Batch with count 0.
        assert_eq!(decode(&[3, 0]), Err(WireError::BadTag(0)));
        // Batch whose first element claims to be a delta (no predecessor).
        // count=1, flags=delta, then nothing sensible.
        assert!(decode(&[3, 1, 1, 0]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Msg::Fm(Fm { var: VarId(3) }));
        bytes.push(0xFF);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_matrix_rejected() {
        // Tag 0 (Sm) + var + value + meta tag 0 (FullTrack) + n too large:
        // rejected by the dimension guard before any allocation.
        let mut buf = WireBuf::new();
        encode_into(
            &Msg::Sm(Sm {
                var: VarId(3),
                value: VersionedValue::new(WriteId::new(SiteId(0), 1), 0),
                meta: SmMeta::FullTrack {
                    write: Arc::new(MatrixClock::new(1)),
                },
            }),
            &mut buf,
        );
        let bytes = buf.as_slice();
        // Find the meta tag (last-but-two byte: tag, n=1, one zero cell)
        // and splice in a huge dimension instead.
        let mut evil = bytes[..bytes.len() - 2].to_vec();
        evil.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // n = 2^32-1
        assert_eq!(decode(&evil), Err(WireError::Truncated));
    }

    #[test]
    fn sequence_counts_are_checked_against_remaining_input() {
        // Opt-Track SM claiming 2^20 log entries in a 16-byte buffer must
        // be rejected before any Vec::with_capacity.
        let mut evil = vec![0u8]; // Sm
        evil.push(1); // var = 1
        evil.extend_from_slice(&[0, 1, 0, 0]); // value: writer (0,1), data 0, payload 0
        evil.push(1); // meta tag: OptTrack
        evil.push(7); // clock
        evil.extend_from_slice(&[0x80, 0x80, 0x40]); // log count = 2^20
        assert_eq!(decode(&evil), Err(WireError::Truncated));
    }

    #[test]
    fn routed_frame_roundtrips_every_variant() {
        let value = VersionedValue::new(WriteId::new(SiteId(3), 9), 42);
        let msgs = vec![
            Msg::Sm(Sm {
                var: VarId(5),
                value,
                meta: SmMeta::OptTrack {
                    clock: 9,
                    log: Arc::new(sample_log()),
                },
            }),
            Msg::Fm(Fm { var: VarId(0) }),
            Msg::Rm(Rm {
                var: VarId(1),
                value: Some(value),
                meta: RmMeta::OptTrack(None),
            }),
            sample_batch(),
        ];
        for msg in msgs {
            let (src, dst) = (SiteId(17), SiteId(2));
            let bytes = encode_routed_with(src, dst, &msg, |b| b.to_vec());
            // The routing header costs exactly the two site varints.
            assert_eq!(bytes.len(), encode(&msg).len() + 2);
            let r = decode_routed(&bytes).expect("roundtrip");
            assert_eq!(r.src, src);
            assert_eq!(r.dst, dst);
            assert_eq!(r.msg, msg);
        }
    }

    #[test]
    fn routed_decode_is_total_on_truncation() {
        let msg = Msg::Sm(Sm {
            var: VarId(5),
            value: VersionedValue::new(WriteId::new(SiteId(3), 9), 42),
            meta: SmMeta::OptTrack {
                clock: 9,
                log: Arc::new(sample_log()),
            },
        });
        let bytes = encode_routed_with(SiteId(1), SiteId(3), &msg, |b| b.to_vec());
        for cut in 0..bytes.len() {
            // Every prefix must fail cleanly, never panic.
            assert!(decode_routed(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn routed_header_rejects_out_of_range_sites() {
        // src beyond MAX_SITES: two-byte varint 0x80 0x20 = 4096.
        let msg = Msg::Fm(Fm { var: VarId(0) });
        let mut bytes = vec![0x80u8, 0x20, 0]; // src = 4096, dst = 0
        encode_with(&msg, |b| bytes.extend_from_slice(b));
        assert_eq!(decode_routed(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn multi_routed_frame_shares_one_body_and_every_prefix_errors() {
        let dsts = [SiteId(9), SiteId(2), SiteId(30)];
        for msg in sample_msgs() {
            let bytes = encode_multi(SiteId(17), &dsts, &msg);
            // Header: src, k, one varint per destination — then one body.
            assert_eq!(bytes.len(), encode(&msg).len() + 2 + dsts.len());
            let m = decode_multi_routed(&bytes).expect("roundtrip");
            assert_eq!((m.src, &m.dsts[..], &m.msg), (SiteId(17), &dsts[..], &msg));
            for cut in 0..bytes.len() {
                assert!(decode_multi_routed(&bytes[..cut]).is_err(), "prefix {cut}");
            }
        }
    }

    #[test]
    fn multi_routed_header_rejects_bad_destination_lists() {
        let body = encode(&Msg::Fm(Fm { var: VarId(0) }));
        let frame = |header: &[u8]| [header, &body[..]].concat();
        // Well-formed control: src 1, k = 2, dsts {2, 3}.
        assert!(decode_multi_routed(&frame(&[1, 2, 2, 3])).is_ok());
        // k = 0.
        assert!(decode_multi_routed(&frame(&[1, 0])).is_err());
        // A site twice.
        assert!(decode_multi_routed(&frame(&[1, 2, 3, 3])).is_err());
        // dst = 128 = MAX_SITES (two-byte varint 0x80 0x01).
        assert!(decode_multi_routed(&frame(&[1, 1, 0x80, 0x01])).is_err());
        // k = MAX_SITES + 1 distinct-looking destinations.
        let max = causal_clocks::dests::MAX_SITES;
        let mut header = vec![1u8, 0x81, 0x01]; // src 1, k = 129
        header.extend((0..=max).map(|d| (d % 128) as u8));
        assert!(decode_multi_routed(&frame(&header)).is_err());
        // k = MAX_SITES exactly is the largest legal list.
        let mut header = vec![1u8, 0x80, 0x01]; // src 1, k = 128
        header.extend((0..max).map(|d| d as u8));
        assert_eq!(
            decode_multi_routed(&frame(&header)).unwrap().dsts.len(),
            max
        );
    }

    #[test]
    fn unsorted_or_duplicated_log_entries_are_rejected() {
        // An Opt-Track SM whose two log entries arrive (2,1) then (1,7):
        // not an order `put_log` can emit.
        let mut evil = vec![0u8, 1]; // Sm, var = 1
        evil.extend_from_slice(&[0, 1, 0, 0]); // value: writer (0,1), data 0, payload 0
        evil.extend_from_slice(&[1, 7, 2]); // OptTrack, clock 7, two entries
        let (a, b) = ([1u8, 7, 0], [2u8, 1, 0]); // (origin, clock, no dests)
        let with = |x: [u8; 3], y: [u8; 3]| [&evil[..], &x, &y].concat();
        assert!(decode(&with(a, b)).is_ok());
        assert_eq!(decode(&with(b, a)), Err(WireError::BadTag(0)));
        assert_eq!(decode(&with(a, a)), Err(WireError::BadTag(0)));
    }

    proptest! {
        #[test]
        fn prop_opt_track_sm_roundtrip(
            var in 0u32..1000,
            clock in 1u64..1_000_000,
            site in 0u16..40,
            entries in proptest::collection::vec(
                (0u16..40, 1u64..100, proptest::collection::vec(0usize..40, 0..8)),
                0..12,
            ),
        ) {
            let mut log = Log::new();
            for (o, c, ds) in entries {
                log.upsert(LogEntry::new(
                    SiteId(o),
                    c,
                    DestSet::from_sites(ds.into_iter().map(SiteId::from)),
                ));
            }
            let msg = Msg::Sm(Sm {
                var: VarId(var),
                value: VersionedValue::new(WriteId::new(SiteId(site), clock), clock ^ 0xABCD),
                meta: SmMeta::OptTrack {
                    clock,
                    log: Arc::new(log),
                },
            });
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }

        #[test]
        fn prop_full_track_sm_roundtrip(n in 1usize..40, cells in proptest::collection::vec(0u64..1000, 1..64)) {
            let mut m = MatrixClock::new(n);
            for (i, &c) in cells.iter().enumerate() {
                let j = i % n;
                let k = (i / n) % n;
                m.set(SiteId::from(j), SiteId::from(k), c);
            }
            let msg = Msg::Sm(Sm {
                var: VarId(1),
                value: VersionedValue::new(WriteId::new(SiteId(0), 1), 2),
                meta: SmMeta::FullTrack { write: Arc::new(m) },
            });
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }

        #[test]
        fn prop_optp_and_crp_roundtrip(n in 1usize..40, comps in proptest::collection::vec(0u64..1000, 1..40),
                                        tuples in proptest::collection::vec((0u16..40, 1u64..100), 0..12)) {
            let mut v = VectorClock::new(n);
            for (i, &c) in comps.iter().enumerate().take(n) {
                v.set(SiteId::from(i), c);
            }
            let m1 = Msg::Sm(Sm {
                var: VarId(1),
                value: VersionedValue::new(WriteId::new(SiteId(0), 1), 2),
                meta: SmMeta::OptP { write: Arc::new(v) },
            });
            prop_assert_eq!(decode(&encode(&m1)).unwrap(), m1);

            let mut log = CrpLog::new();
            for (s, c) in tuples {
                log.observe(WriteId::new(SiteId(s), c));
            }
            let m2 = Msg::Sm(Sm {
                var: VarId(1),
                value: VersionedValue::new(WriteId::new(SiteId(0), 1), 2),
                meta: SmMeta::Crp {
                    clock: 5,
                    log: Arc::new(log),
                },
            });
            prop_assert_eq!(decode(&encode(&m2)).unwrap(), m2);
        }

        #[test]
        fn prop_batch_roundtrip(
            n in 2usize..12,
            seeds in proptest::collection::vec((0u32..50, 1u64..1000, 0usize..30), 1..8),
            kind in 0u8..4,
            measured in proptest::collection::vec(any::<bool>(), 8),
        ) {
            // Build a chain of same-variant metas that actually evolve, so
            // the encoder exercises the delta path.
            let mut mat = MatrixClock::new(n);
            let mut vec_clock = VectorClock::new(n);
            let mut log = Log::new();
            let mut crp = CrpLog::new();
            let mut sms = Vec::new();
            for (i, &(var, clock, touch)) in seeds.iter().enumerate() {
                let touched = SiteId::from(touch % n);
                let meta = match kind {
                    0 => {
                        mat.increment(touched, SiteId::from((touch + 1) % n));
                        SmMeta::FullTrack { write: Arc::new(mat.clone()) }
                    }
                    1 => {
                        log.record_write(
                            touched,
                            clock + i as u64,
                            DestSet::from_sites([SiteId::from((touch + 1) % n)]),
                            causal_clocks::PruneConfig::default(),
                        );
                        SmMeta::OptTrack { clock, log: Arc::new(log.clone()) }
                    }
                    2 => {
                        if i % 2 == 0 {
                            crp.reset_to(WriteId::new(touched, clock));
                        } else {
                            crp.observe(WriteId::new(touched, clock));
                        }
                        SmMeta::Crp { clock, log: Arc::new(crp.clone()) }
                    }
                    _ => {
                        vec_clock.increment(touched);
                        SmMeta::OptP { write: Arc::new(vec_clock.clone()) }
                    }
                };
                sms.push(BatchedSm {
                    sm: Sm {
                        var: VarId(var),
                        value: VersionedValue::new(WriteId::new(touched, clock), clock),
                        meta,
                    },
                    measured: measured[i % measured.len()],
                });
            }
            let msg = Msg::Batch(Arc::new(SmBatch { sms }));
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }

        #[test]
        fn prop_multi_routed_roundtrip(
            which in 0usize..9,
            src in 0u16..128,
            k in 1usize..=40,
            first in 0usize..8,
            stride in proptest::collection::vec(1usize..4, 40),
        ) {
            // k distinct destinations (first + 39·3 < MAX_SITES), not in
            // ascending order.
            let mut dsts = Vec::new();
            let mut d = first;
            for step in stride.iter().take(k) {
                dsts.push(SiteId::from(d));
                d += step;
            }
            dsts.rotate_left(first % k);
            let msgs = sample_msgs();
            let msg = &msgs[which % msgs.len()];
            let m = decode_multi_routed(&encode_multi(SiteId(src), &dsts, msg)).unwrap();
            prop_assert_eq!(m.src, SiteId(src));
            prop_assert_eq!(m.dsts, dsts);
            prop_assert_eq!(&m.msg, msg);
        }

        #[test]
        fn prop_decoder_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Total decoding: arbitrary bytes must produce Ok or Err, never
            // a panic or huge allocation.
            let _ = decode(&noise);
            let _ = decode_routed(&noise);
            let _ = decode_multi_routed(&noise);
        }

        #[test]
        fn prop_decoder_total_under_bit_flips(
            seeds in proptest::collection::vec((0u32..50, 1u64..1000, 0usize..30), 1..6),
            flip_at in 0usize..4096,
            flip_bit in 0u8..8,
        ) {
            // Start from a *valid* frame (a batch, the deepest structure)
            // and flip one bit anywhere: decode must stay total and, when
            // it succeeds, re-encoding must not panic either.
            let mut mat = MatrixClock::new(6);
            let sms = seeds.iter().map(|&(var, clock, touch)| {
                mat.increment(SiteId::from(touch % 6), SiteId::from((touch + 1) % 6));
                BatchedSm {
                    sm: Sm {
                        var: VarId(var),
                        value: VersionedValue::new(WriteId::new(SiteId::from(touch % 6), clock), clock),
                        meta: SmMeta::FullTrack { write: Arc::new(mat.clone()) },
                    },
                    measured: true,
                }
            }).collect();
            let msg = Msg::Batch(Arc::new(SmBatch { sms }));
            let mut bytes = encode(&msg);
            let i = flip_at % bytes.len();
            bytes[i] ^= 1 << flip_bit;
            if let Ok(msg) = decode(&bytes) {
                let _ = encode(&msg);
            }
            // Same for a multi-routed frame, header included.
            let dsts = [SiteId(4), SiteId(1), SiteId(3)];
            let mut bytes = encode_multi(SiteId(0), &dsts, &msg);
            let i = flip_at % bytes.len();
            bytes[i] ^= 1 << flip_bit;
            if let Ok(m) = decode_multi_routed(&bytes) {
                let _ = encode_multi(m.src, &m.dsts, &m.msg);
            }
        }
    }
}
