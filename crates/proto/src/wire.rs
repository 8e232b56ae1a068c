//! Flat binary wire codec for protocol messages.
//!
//! The TCP transport in `causal-runtime` frames each [`Msg`] with this
//! codec (length-prefixed on the socket). The simulator encodes nothing: it
//! charges each message the bytes `causal_types::SizeModel` models. The
//! format is a tag-prefixed flat encoding with LEB128 varint scalars — no
//! self-description, no versioning — because both ends of a run are always
//! the same build, as in the paper's testbed.
//!
//! ## One declaration per wire type
//!
//! Every type that crosses the wire has exactly one impl of the private
//! `Codec` trait, which holds its encoder (`put`) beside its decoder
//! (`take`). A struct whose encoding is its field list is declared once in
//! `fields!`, and an enum whose encoding is a tag byte plus the variant's
//! fields is declared once in `tagged!`; each macro generates both halves
//! from that one declaration, under the inline attribute the entry names
//! (small `put`s and `take`s left out of line cost a call per field). The
//! rest are written by hand: the scalars, the generic containers (`Vec`,
//! `Arc`, `Option`, tuples), `RmMeta`'s four folded tags, the KS-log entry
//! (below), and the types whose decoding validates (clocks, logs,
//! destination sets, batches), each check beside the field it guards.
//!
//! ## The KS log: one loop per direction
//!
//! Every Opt-Track SM carries its writer's log, so the log's entries are
//! most of what an Opt-Track run encodes and decodes. `Log`'s codec is one
//! loop each way over the `LogEntry` codec, which `LogDelta`'s upserts use
//! too. An entry is staged on the stack — origin, clock, member count,
//! member ids — and appended with one copy, one `MAX_FRAME` check and one
//! capacity check, where a per-field encode pays both per byte. It is
//! decoded by one walk over the borrowed input with the clock varint read
//! inline (past an origin's 127th write it is two or three bytes), and the
//! log's strict `(origin, clock)` order is checked as the entries arrive
//! (`Log::from_sorted`), not in a second pass. The bytes, and the error
//! any input gives, are the per-field codec's: a proptest keeps that codec
//! as the oracle.
//!
//! ## Tigerstyle: there IS a limit
//!
//! Encoding goes through a [`WireBuf`]: a reusable scratch buffer with a
//! hard [`MAX_FRAME`] cap. The hot path ([`encode_routed_with`]) borrows a
//! thread-local scratch, so the steady state allocates nothing — the buffer
//! is cleared, refilled and handed to the caller as a borrowed `&[u8]`.
//! Exceeding the cap is a bug in the sender (no legal message comes close)
//! and fails loudly at the assert rather than growing without bound.
//!
//! Decoding is a zero-copy walk over the borrowed input, only materialising
//! the clock structures themselves. Decoding is **total**: malformed input
//! yields [`WireError`], never a panic or an attacker-sized allocation, so
//! a corrupted frame cannot take down a site. Batched updates
//! ([`SmBatch`]) encode the 2nd..Nth piggyback as an exact delta against
//! its predecessor ([`SmMetaDelta`]) and are reconstructed byte-identically
//! on decode.

use crate::msg::{BatchedSm, Fm, Msg, Rm, RmMeta, Sm, SmBatch, SmMeta, SmMetaDelta};
use causal_clocks::{
    dests::MAX_SITES, CrpDelta, CrpLog, DestSet, Log, LogDelta, LogEntry, MatrixClock, MatrixDelta,
    VectorClock, VectorDelta,
};
use causal_types::{SiteId, VarId, VersionedValue, WriteId, MAX_VARS};
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
    /// Input ended before the structure was complete, or a field held a
    /// value no encoder emits: a count larger than the remaining input
    /// could hold (for a log, more entries than a third of it), a site id
    /// of `MAX_SITES` or more, a matrix or vector dimension or a
    /// multi-routed destination count beyond `MAX_SITES`, a variable id of
    /// `MAX_VARS` or more, a payload length beyond `u32`, or a batch delta
    /// naming a cell outside its predecessor's clock.
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
/// thread-local scratch behind [`encode_routed_with`]) reaches a steady
/// state where encoding allocates nothing at all.
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

    /// What a [`Stage`] holds, appended at once: one `MAX_FRAME` check and
    /// one capacity check for all of it, where `push` pays both per byte.
    /// A stage of at most 16 bytes — most log entries — is copied as a
    /// fixed 16-byte block and the excess cut off again: a copy of fixed
    /// size is a few moves, one of a run-time length a call to `memcpy`,
    /// which cost more than the rest of the entry's encode (measured).
    #[inline]
    fn extend(&mut self, stage: &Stage) {
        let end = self.buf.len() + stage.len;
        assert!(
            end <= MAX_FRAME,
            "wire frame exceeds MAX_FRAME ({MAX_FRAME} bytes): runaway sender"
        );
        if stage.len <= 16 {
            self.buf.extend_from_slice(&stage.bytes[..16]);
            self.buf.truncate(end);
        } else {
            self.buf.extend_from_slice(&stage.bytes[..stage.len]);
        }
    }

    /// A count, then `len` elements.
    fn put_seq<'a, T: Codec + 'a>(&mut self, len: usize, items: impl IntoIterator<Item = &'a T>) {
        (len as u64).put(self);
        for x in items {
            x.put(self);
        }
    }
}

/// The most bytes one KS-log entry encodes to: its origin (a `u16` site id,
/// at most three varint bytes), its clock (ten), its destination count (two,
/// for all 128 sites) and one byte per member.
const ENTRY_MAX: usize = 3 + 10 + 2 + MAX_SITES;

/// Stack room for one KS-log entry's encoding, filled field by field and
/// appended to a [`WireBuf`] with one [`WireBuf::extend`]. Its bytes are
/// exactly what the per-byte `Codec` puts would push. A log reuses one
/// stage for all its entries.
struct Stage {
    bytes: [u8; ENTRY_MAX],
    len: usize,
}

impl Stage {
    #[inline(always)]
    fn new() -> Self {
        Stage {
            bytes: [0; ENTRY_MAX],
            len: 0,
        }
    }

    /// One KS-log entry — its origin, its clock and its destination set —
    /// in place of what the stage held.
    #[inline(always)]
    fn entry(&mut self, e: &LogEntry) {
        self.len = 0;
        self.varint(e.origin.0 as u64);
        self.varint(e.clock);
        self.dests(e.dests);
    }

    /// LEB128, as `u64::put` writes it.
    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes[self.len] = v as u8 | 0x80;
            self.len += 1;
            v >>= 7;
        }
        self.bytes[self.len] = v as u8;
        self.len += 1;
    }

    /// A destination set: the member count, then each member's id (one
    /// byte, see `SiteId::take`) in increasing order. The members are
    /// gathered behind a one-byte count and counted on the way: on the
    /// baseline x86-64 target a popcount of the 128-bit mask is a software
    /// routine. Only all 128 sites need the two-byte count.
    #[inline(always)]
    fn dests(&mut self, d: DestSet) {
        let at = self.len;
        let mut n = 0;
        for s in d.iter() {
            self.bytes[at + 1 + n] = s.0 as u8;
            n += 1;
        }
        if n < 0x80 {
            self.bytes[at] = n as u8;
            self.len = at + 1 + n;
        } else {
            self.bytes.copy_within(at + 1..at + 1 + n, at + 2);
            self.varint(n as u64);
            self.len += n;
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<WireBuf> = RefCell::new(WireBuf::new());
}

/// Fill the cleared thread-local scratch with `fill` and hand the encoded
/// bytes to `f` — the zero-allocation hot path (the borrow never escapes,
/// so the scratch can be reused by the very next call).
fn with_scratch<R>(fill: impl FnOnce(&mut WireBuf), f: impl FnOnce(&[u8]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
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

/// Encode a message to an owned byte vector (the unit-level entry point;
/// sized exactly, built from the thread-local scratch).
pub fn encode(msg: &Msg) -> Vec<u8> {
    with_scratch(|buf| msg.put(buf), <[u8]>::to_vec)
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
    (src, dst).put(out);
    msg.put(out);
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
    let fill = |buf: &mut WireBuf| {
        src.put(buf);
        buf.put_seq(dsts.len(), dsts);
        msg.put(buf);
    };
    with_scratch(fill, f)
}

/// Decode a message from bytes; the whole input must be consumed.
pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let msg = Msg::take(&mut r)?;
    r.finish(msg)
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
    let (src, dst) = (SiteId::take(&mut r)?, SiteId::take(&mut r)?);
    let msg = Msg::take(&mut r)?;
    r.finish(Routed { src, dst, msg })
}

/// A decoded multi-routed frame: one message for several destinations.
#[derive(Debug, PartialEq)]
pub struct MultiRouted {
    /// The sending site.
    pub src: SiteId,
    /// The destination sites: at least one, each in the legal range. The
    /// header names each once, in whatever order the sender wrote them; a
    /// receiver routes every copy on its own, so the set is all it needs.
    pub dsts: DestSet,
    /// The message every destination receives.
    pub msg: Msg,
}

/// Decode a multi-routed frame (`[src][k][dst₁..dst_k][body]`); the whole
/// input must be consumed, `1 ≤ k ≤ MAX_SITES`, and the destinations must
/// be legal and distinct.
pub fn decode_multi_routed(buf: &[u8]) -> Result<MultiRouted, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let src = SiteId::take(&mut r)?;
    let k = match r.count()? {
        // An empty destination list is never encoded.
        0 => return Err(WireError::BadTag(0)),
        k if k > MAX_SITES => return Err(WireError::Truncated),
        k => k,
    };
    let mut dsts = DestSet::EMPTY;
    for _ in 0..k {
        let d = SiteId::take(&mut r)?;
        if dsts.contains(d) {
            return Err(WireError::BadTag(d.0 as u8));
        }
        dsts.insert(d);
    }
    let msg = Msg::take(&mut r)?;
    r.finish(MultiRouted { src, dsts, msg })
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

    /// `value`, when the whole frame was consumed.
    fn finish<T>(&self, value: T) -> Result<T, WireError> {
        match self.remaining() {
            0 => Ok(value),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// The multi-byte (or truncated) continuation of `u64::take`, out of
    /// line: clock cells, counts and site ids are almost always one byte.
    #[cold]
    fn varint_multi(&mut self) -> Result<u64, WireError> {
        self.leb128()
    }

    /// A whole LEB128 varint, inline — for a field, such as a log entry's
    /// clock, that is two or three bytes in any long run. Total: at most
    /// 10 bytes are consumed, and a continuation past the 64-bit range is
    /// a tag error, not a wrap.
    #[inline(always)]
    fn leb128(&mut self) -> Result<u64, WireError> {
        let (mut x, mut shift) = (0u64, 0);
        loop {
            let b = self.u8()?;
            x |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
            if shift == 70 {
                return Err(WireError::BadTag(self.u8()?));
            }
        }
    }

    /// A count field for a sequence whose elements occupy ≥ 1 byte each:
    /// anything beyond the remaining input is a lie, rejected *before*
    /// allocation.
    #[inline]
    fn count(&mut self) -> Result<usize, WireError> {
        let n = u64::take(self)? as usize;
        (n <= self.remaining())
            .then_some(n)
            .ok_or(WireError::Truncated)
    }

    /// A matrix or vector dimension: capped to the sane range before
    /// allocating `n²` cells from attacker-controlled input.
    fn dim(&mut self) -> Result<usize, WireError> {
        let n = u64::take(self)? as usize;
        (n <= MAX_SITES).then_some(n).ok_or(WireError::Truncated)
    }

    /// `n` elements (a checked count) into a pre-sized vector.
    fn take_seq<T: Codec>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(self)?);
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// The codec: one impl per wire type
// ---------------------------------------------------------------------

/// A wire type: `put` appends its encoding, `take` reads it back.
trait Codec: Sized {
    fn put(&self, out: &mut WireBuf);
    fn take(r: &mut Reader) -> Result<Self, WireError>;
}

/// LEB128 varint.
impl Codec for u64 {
    #[inline]
    fn put(&self, out: &mut WireBuf) {
        let mut v = *self;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    #[inline]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        // Single-byte fast path: clock cells, counts, and site ids are
        // almost always < 128, and the matrix decode loop lives here.
        if let Some(&b) = r.buf.get(r.pos) {
            if b & 0x80 == 0 {
                r.pos += 1;
                return Ok(b as u64);
            }
        }
        r.varint_multi()
    }
}

impl Codec for u32 {
    #[inline]
    fn put(&self, out: &mut WireBuf) {
        (*self as u64).put(out);
    }
    #[inline]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        u32::try_from(u64::take(r)?).map_err(|_| WireError::Truncated)
    }
}

impl Codec for SiteId {
    #[inline]
    fn put(&self, out: &mut WireBuf) {
        (self.0 as u64).put(out);
    }
    /// `MAX_SITES` is `2⁷`, so a legal id is exactly one varint byte:
    /// anything with the continuation bit set is out of range (or an
    /// over-long encoding no encoder emits).
    #[inline]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        const _: () = assert!(MAX_SITES == 128);
        match r.u8()? {
            b @ 0..=0x7f => Ok(SiteId(b as u16)),
            _ => Err(WireError::Truncated),
        }
    }
}

/// A run holds at most `MAX_VARS` variables, and a replica keeps a dense
/// slot per id up to the largest it sees: an id past the bound is not one
/// this codec's peers wrote, and decoding it would size that state.
impl Codec for VarId {
    #[inline]
    fn put(&self, out: &mut WireBuf) {
        self.0.put(out);
    }
    #[inline]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        match u32::take(r)? {
            x if x as usize >= MAX_VARS => Err(WireError::Truncated),
            x => Ok(VarId(x)),
        }
    }
}

/// Tuples: the elements in order.
macro_rules! tuples {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            #[inline] fn put(&self, out: &mut WireBuf) {
                $( self.$i.put(out); )*
            }
            #[inline] fn take(r: &mut Reader) -> Result<Self, WireError> {
                Ok(($($t::take(r)?,)*))
            }
        }
    )*};
}

tuples! { (A 0, B 1) (A 0, B 1, C 2) }

/// A count checked against the remaining input, then the elements.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut WireBuf) {
        out.put_seq(self.len(), self);
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count()?;
        r.take_seq(n)
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn put(&self, out: &mut WireBuf) {
        (**self).put(out);
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        T::take(r).map(Arc::new)
    }
}

/// A 0/1 presence tag, then the value when present.
impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut WireBuf) {
        out.push(self.is_some() as u8);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::take(r).map(Some),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Structs whose encoding is their fields, in the order listed (`0` names
/// a newtype's one field). An entry's attributes apply to `put` and `take`.
macro_rules! fields {
    ($($(#[$attr:meta])* $ty:ident { $($field:tt),* })*) => {$(
        impl Codec for $ty {
            $(#[$attr])* fn put(&self, out: &mut WireBuf) {
                $( self.$field.put(out); )*
            }
            $(#[$attr])* fn take(r: &mut Reader) -> Result<Self, WireError> {
                Ok($ty { $( $field: Codec::take(r)? ),* })
            }
        }
    )*};
}

fields! {
    #[inline] WriteId { site, clock }
    #[inline] VersionedValue { writer, data, payload_len }
    #[inline] Sm { var, value, meta }
    #[inline] Fm { var }
    #[inline] Rm { var, value, meta }
    #[inline] LogDelta { upserts, removals }
    #[inline] CrpDelta { upserts, removals }
}

/// Enums whose encoding is a tag byte, then the variant's fields in order.
/// Each variant is written `tag => Variant(a, b)` or `tag => Variant { a, b }`;
/// an entry's attributes apply to `put` and `take`.
macro_rules! tagged {
    ($($(#[$attr:meta])* $ty:ident { $($tag:literal => $variant:ident $fields:tt),* $(,)? })*) => {$(
        impl Codec for $ty {
            $(#[$attr])* fn put(&self, out: &mut WireBuf) {
                match self {
                    $( variant!($ty::$variant $fields) => { out.push($tag); variant!(put out $fields); } )*
                }
            }
            $(#[$attr])* fn take(r: &mut Reader) -> Result<Self, WireError> {
                Ok(match r.u8()? {
                    $( $tag => { variant!(take r $fields); variant!($ty::$variant $fields) } )*
                    t => return Err(WireError::BadTag(t)),
                })
            }
        }
    )*};
}

/// One `tagged!` variant: the pattern binding its fields (also the
/// expression rebuilding it from those bindings), or its fields put, or
/// taken into bindings of their names, in order.
macro_rules! variant {
    ($ty:ident::$v:ident ($($f:ident),*)) => { $ty::$v($($f),*) };
    ($ty:ident::$v:ident {$($f:ident),*}) => { $ty::$v { $($f),* } };
    (put $out:ident ($($f:ident),*)) => { $( $f.put($out); )* };
    (put $out:ident {$($f:ident),*}) => { $( $f.put($out); )* };
    (take $r:ident ($($f:ident),*)) => { $( let $f = Codec::take($r)?; )* };
    (take $r:ident {$($f:ident),*}) => { $( let $f = Codec::take($r)?; )* };
}

tagged! {
    // Forced into the three decode entry points, as the frame dispatch was
    // before it became this table: out of line, a small frame's result is
    // copied through every layer and an FM decodes ~3.7x slower (measured).
    #[inline(always)] Msg { 0 => Sm(sm), 1 => Fm(fm), 2 => Rm(rm), 3 => Batch(batch) }
    #[inline] SmMeta {
        0 => FullTrack { write }, 1 => OptTrack { clock, log },
        2 => Crp { clock, log }, 3 => OptP { write },
    }
    #[inline] SmMetaDelta {
        0 => FullTrack(delta), 1 => OptTrack { clock, delta },
        2 => Crp { clock, delta }, 3 => OptP(delta),
    }
    #[inline] MatrixDelta { 0 => Cells(cells), 1 => Full(matrix) }
    #[inline] VectorDelta { 0 => Changed(pairs), 1 => Full(vector) }
}

/// Folds the `Option` into the tag: 0/1 Full-Track without/with a matrix,
/// 2/3 Opt-Track without/with a log.
impl Codec for RmMeta {
    fn put(&self, out: &mut WireBuf) {
        match self {
            RmMeta::FullTrack(None) => out.push(0),
            RmMeta::FullTrack(Some(m)) => {
                out.push(1);
                m.put(out);
            }
            RmMeta::OptTrack(None) => out.push(2),
            RmMeta::OptTrack(Some(l)) => {
                out.push(3);
                l.put(out);
            }
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => RmMeta::FullTrack(None),
            1 => RmMeta::FullTrack(Some(Codec::take(r)?)),
            2 => RmMeta::OptTrack(None),
            3 => RmMeta::OptTrack(Some(Codec::take(r)?)),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// The dimension, then the `n²` cells row-major.
impl Codec for MatrixClock {
    fn put(&self, out: &mut WireBuf) {
        (self.n() as u64).put(out);
        for j in SiteId::all(self.n()) {
            for k in SiteId::all(self.n()) {
                self.get(j, k).put(out);
            }
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        // One pass into a pre-sized cell vector: building the zero matrix
        // first and `set()`ing every cell touched the `n²` cells twice and
        // cost an index computation per cell — ~1.8× the encode cost on
        // the Full-Track hot path before this was flattened. The `n` spare
        // slots take the row keys `from_cells` appends.
        let n = r.dim()?;
        let mut cells = Vec::with_capacity(n * n + n);
        for _ in 0..n * n {
            cells.push(u64::take(r)?);
        }
        Ok(MatrixClock::from_cells(n, cells))
    }
}

/// The dimension, then the components.
impl Codec for VectorClock {
    fn put(&self, out: &mut WireBuf) {
        (self.len() as u64).put(out);
        for (_, c) in self.iter() {
            c.put(out);
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.dim()?;
        r.take_seq(n).map(VectorClock::from_entries)
    }
}

/// A count, then the member sites.
impl Codec for DestSet {
    fn put(&self, out: &mut WireBuf) {
        let mut stage = Stage::new();
        stage.dests(*self);
        out.extend(&stage);
    }
    // Forced, as `LogEntry::take` is.
    #[inline(always)]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        // `count` bounds `n` by the remaining input and a site id is one
        // byte (see `SiteId::take`), so the members are the next `n`
        // bytes: one slice, one pass.
        let n = r.count()?;
        let mut d = DestSet::EMPTY;
        for &b in &r.buf[r.pos..r.pos + n] {
            if b > 0x7f {
                return Err(WireError::Truncated);
            }
            d.insert(SiteId(b as u16));
        }
        r.pos += n;
        Ok(d)
    }
}

/// The origin, the clock and the destination set. Both halves are forced
/// inline into the loops of `Log` and of `LogDelta`'s upserts: left to the
/// heuristics, a log keeps a call per entry and an Opt-Track SM decodes
/// 1.6x slower (measured).
impl Codec for LogEntry {
    /// Staged on the stack and appended at once: one bound check and one
    /// copy per entry, not one per byte.
    #[inline(always)]
    fn put(&self, out: &mut WireBuf) {
        let mut stage = Stage::new();
        stage.entry(self);
        out.extend(&stage);
    }
    /// The clock is read inline: past the first 127 writes of its origin it
    /// is two or three bytes, which `u64::take` leaves to a call.
    #[inline(always)]
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let origin = SiteId::take(r)?;
        let clock = r.leb128()?;
        let dests = DestSet::take(r)?;
        Ok(LogEntry::new(origin, clock, dests))
    }
}

/// A count, then the entries in `Log::iter` order, which is strictly
/// sorted: one loop per direction, and the decoder checks the order as it
/// fills a pre-sized vector — anything unsorted is not a log this codec
/// wrote.
impl Codec for Log {
    fn put(&self, out: &mut WireBuf) {
        (self.len() as u64).put(out);
        let mut stage = Stage::new();
        for e in self.iter() {
            stage.entry(e);
            out.extend(&stage);
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count()?;
        if n > r.remaining() / 3 {
            // An entry is at least three bytes: bound the allocation.
            return Err(WireError::Truncated);
        }
        Log::from_sorted(n, || LogEntry::take(r))?.ok_or(WireError::BadTag(0))
    }
}

/// A count, then the tuples.
impl Codec for CrpLog {
    fn put(&self, out: &mut WireBuf) {
        out.put_seq(self.len(), self.iter());
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut log = CrpLog::new();
        for _ in 0..n {
            log.observe(WriteId::take(r)?);
        }
        Ok(log)
    }
}

/// Per-batched-SM flag byte: bit 0 = meta is a delta against the previous
/// update's meta, bit 1 = the update was issued in the measured window.
const BATCH_FLAG_DELTA: u8 = 0b01;
const BATCH_FLAG_MEASURED: u8 = 0b10;

/// Guard sparse deltas against out-of-range coordinates before applying
/// them to `prev` — a corrupted frame must not index past the
/// predecessor's clock dimensions.
fn delta_fits(delta: &SmMetaDelta, prev: &SmMeta) -> bool {
    match (delta, prev) {
        (SmMetaDelta::FullTrack(MatrixDelta::Cells(cells)), SmMeta::FullTrack { write }) => {
            let fits = |s: SiteId| s.index() < write.n();
            cells.iter().all(|&(j, k, _)| fits(j) && fits(k))
        }
        (SmMetaDelta::OptP(VectorDelta::Changed(pairs)), SmMeta::OptP { write }) => {
            pairs.iter().all(|&(j, _)| j.index() < write.len())
        }
        _ => true,
    }
}

/// A non-zero count, then per update its flag byte, variable and value,
/// and its piggyback: whole for the first, from the second on a delta
/// against its predecessor's.
impl Codec for SmBatch {
    fn put(&self, out: &mut WireBuf) {
        (self.len() as u64).put(out);
        let mut prev: Option<&SmMeta> = None;
        for b in &self.sms {
            let delta = prev.and_then(|p| SmMetaDelta::between(p, &b.sm.meta));
            let delta_flag = if delta.is_some() { BATCH_FLAG_DELTA } else { 0 };
            out.push(delta_flag | if b.measured { BATCH_FLAG_MEASURED } else { 0 });
            (b.sm.var, b.sm.value).put(out);
            match delta {
                Some(d) => d.put(out),
                None => b.sm.meta.put(out),
            }
            prev = Some(&b.sm.meta);
        }
    }
    fn take(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count()?;
        if n == 0 {
            // An empty batch is never encoded; reject rather than build a
            // frame the unbatch path would choke on.
            return Err(WireError::BadTag(0));
        }
        let mut sms: Vec<BatchedSm> = Vec::with_capacity(n);
        for _ in 0..n {
            let flags = r.u8()?;
            if flags & !(BATCH_FLAG_DELTA | BATCH_FLAG_MEASURED) != 0 {
                return Err(WireError::BadTag(flags));
            }
            let (var, value) = <(VarId, VersionedValue)>::take(r)?;
            let meta = if flags & BATCH_FLAG_DELTA != 0 {
                let delta = SmMetaDelta::take(r)?;
                let prev = sms.last().ok_or(WireError::BadTag(flags))?;
                if !delta_fits(&delta, &prev.sm.meta) {
                    return Err(WireError::Truncated);
                }
                delta
                    .apply_to(&prev.sm.meta)
                    .ok_or(WireError::BadTag(flags))?
            } else {
                SmMeta::take(r)?
            };
            sms.push(BatchedSm {
                sm: Sm { var, value, meta },
                measured: flags & BATCH_FLAG_MEASURED != 0,
            });
        }
        Ok(SmBatch { sms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{cluster, ALL, LANES};
    use crate::{Output, ProtocolKind, SiteDriver};
    use causal_clocks::BatchPolicy;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    /// A send: source, destinations, message.
    type Sent = (SiteId, Vec<SiteId>, Msg);

    /// Move the sends among `out` into `sent` and onto the FIFO `net`.
    fn forward(
        from: SiteId,
        out: &mut Vec<Output>,
        net: &mut VecDeque<(SiteId, SiteId, Msg, bool)>,
        sent: &mut Vec<Sent>,
    ) {
        for o in out.drain(..) {
            if let Output::Send {
                dsts,
                msg,
                measured,
                ..
            } = o
            {
                let dsts: Vec<SiteId> = dsts.iter().collect();
                net.extend(dsts.iter().map(|&to| (from, to, msg.clone(), measured)));
                sent.push((from, dsts, msg));
            }
        }
    }

    /// Every frame a 5-site cluster sends under a fixed script of local
    /// writes, reads (remote ones where `kind` replicates partially) and
    /// lane flushes, each step delivered in FIFO order to quiescence.
    fn scripted_sends(kind: ProtocolKind, lanes: Option<BatchPolicy>) -> Vec<Sent> {
        let n = 5;
        let mut sites = cluster(kind, n, lanes);
        let (mut out, mut net, mut sent) = (Vec::new(), VecDeque::new(), Vec::new());
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for step in 0..=90u64 {
            let s = SiteId::from(next(n as u64) as usize);
            match next(6) {
                _ if step == 90 => SiteId::all(n).for_each(|s| {
                    sites[s.index()].flush_lanes(&mut out);
                    forward(s, &mut out, &mut net, &mut sent);
                }),
                0 | 1 => sites[s.index()].read(step, VarId(next(10) as u32), true, &mut out),
                2 => sites[s.index()].flush_lanes(&mut out),
                _ => {
                    for _ in 0..1 + next(3) {
                        let (var, payload) = (VarId(next(10) as u32), (step % 3) as u32 * 700);
                        sites[s.index()].write(step, var, step, payload, step % 4 != 0, &mut out);
                    }
                }
            }
            forward(s, &mut out, &mut net, &mut sent);
            while let Some((from, to, msg, measured)) = net.pop_front() {
                SiteDriver::unbatch(msg, measured, |msg, measured| {
                    sites[to.index()].on_message(step, from, msg, measured, &mut out);
                });
                forward(to, &mut out, &mut net, &mut sent);
            }
        }
        assert!(sites
            .iter()
            .all(|d| d.fetch().is_none() && d.lanes_empty() && d.site().pending_len() == 0));
        sent
    }

    /// FNV-1a (64-bit) over every frame's length and bytes, and the byte
    /// total: each message as a routed frame toward its first destination
    /// and as a multi-routed frame toward all of them, both decoded back.
    fn digest(sends: &[Sent]) -> (u64, usize) {
        let (mut hash, mut total) = (0xcbf2_9ce4_8422_2325u64, 0);
        let mut fold = |frame: &[u8]| {
            total += frame.len();
            for &b in (frame.len() as u64).to_le_bytes().iter().chain(frame) {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut buf = WireBuf::new();
        for (src, dsts, msg) in sends {
            encode_routed_into(*src, dsts[0], msg, &mut buf);
            fold(buf.as_slice());
            assert_eq!(&decode_routed(buf.as_slice()).unwrap().msg, msg);
            let bytes = encode_multi(*src, dsts, msg);
            fold(&bytes);
            assert_eq!(&decode_multi_routed(&bytes).unwrap().msg, msg);
        }
        (hash, total)
    }

    #[test]
    fn the_encoding_of_a_scripted_run_per_protocol_and_lane_setting_is_pinned() {
        use std::collections::HashSet;
        use std::mem::discriminant;
        // Digest and byte total per (protocol, lanes) cell, then for
        // `sample_msgs()`: a codec change that moves any byte moves these.
        #[rustfmt::skip]
        const PINNED: [(u64, usize); 11] = [
            (0x9708af09aa35b259, 7916), // Full-Track
            (0xeb66b17b095dde4b, 9005), // Full-Track, lanes
            (0x11d13b3e636d23b3, 7168), // Opt-Track
            (0xa451e4d4dfe1d39f, 8783), // Opt-Track, lanes
            (0xed3a8036fbf14e7d, 8020), // HB-Track
            (0x93a46cb06d9e59d5, 9781), // HB-Track, lanes
            (0xdf54c17b78c2c0c7, 2750), // Opt-Track-CRP
            (0x6d3453bab7dbb2ab, 9356), // Opt-Track-CRP, lanes
            (0x77a87ba84cff71a9, 3042), // optP
            (0x542184ae7d59cf3b, 8932), // optP, lanes
            (0xee0e8096dda6a15c,  407), // sample_msgs()
        ];
        let samples: Vec<Sent> = sample_msgs()
            .into_iter()
            .map(|m| (SiteId(4), vec![SiteId(1), SiteId(0), SiteId(3)], m))
            .collect();
        let mut corpus = Vec::new();
        for kind in ALL {
            for lanes in [None, LANES] {
                corpus.push(scripted_sends(kind, lanes));
            }
        }
        corpus.push(samples);
        let got: Vec<(u64, usize)> = corpus.iter().map(|c| digest(c)).collect();
        assert_eq!(got, PINNED, "{got:#x?}");
        // The corpus reaches every message, piggyback and delta variant.
        let (mut msgs, mut metas, mut deltas) = (HashSet::new(), HashSet::new(), HashSet::new());
        for (_, _, msg) in corpus.iter().flatten() {
            msgs.insert(discriminant(msg));
            let sms: Vec<&Sm> = msg.sms().collect();
            metas.extend(sms.iter().map(|sm| discriminant(&sm.meta)));
            for w in sms.windows(2) {
                let delta = SmMetaDelta::between(&w[0].meta, &w[1].meta).expect("one protocol");
                deltas.insert(discriminant(&delta));
            }
        }
        assert_eq!((msgs.len(), metas.len(), deltas.len()), (4, 4, 4));
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
    fn encode_with_reuses_the_scratch_without_allocating_a_vec() {
        let msg = Msg::Fm(Fm { var: VarId(700) });
        let (src, dst) = (SiteId(1), SiteId(2));
        let routed = |b: &[u8]| b.to_vec();
        let len = encode_routed_with(src, dst, &msg, |b| b.len());
        assert_eq!(len, encode(&msg).len() + 2);
        // Re-entrant use must still produce correct bytes.
        let nested = encode_routed_with(src, dst, &msg, |outer| {
            let inner = encode_routed_with(src, dst, &msg, routed);
            assert_eq!(outer, &inner[..]);
            inner
        });
        assert_eq!(nested, encode_routed_with(src, dst, &msg, routed));
    }

    #[test]
    fn a_dest_set_is_its_count_then_its_members_up_to_all_128_sites() {
        let bytes = |d: DestSet| {
            let mut out = WireBuf::new();
            d.put(&mut out);
            out.as_slice().to_vec()
        };
        let sites = |ids: &[u16]| DestSet::from_sites(ids.iter().map(|&i| SiteId(i)));
        assert_eq!(bytes(DestSet::EMPTY), [0]);
        assert_eq!(bytes(sites(&[0, 5, 127])), [3, 0, 5, 127]);
        // 128 members: a two-byte count.
        let full = DestSet::full(MAX_SITES);
        let encoded = bytes(full);
        assert_eq!(encoded[..2], [0x80, 0x01]);
        assert_eq!(encoded[2..], (0..128u8).collect::<Vec<_>>()[..]);
        let mut r = Reader {
            buf: &encoded,
            pos: 0,
        };
        assert_eq!(DestSet::take(&mut r), Ok(full));
    }

    #[test]
    fn a_variable_id_past_max_vars_is_refused() {
        let fm = |x: u32| encode(&Msg::Fm(Fm { var: VarId(x) }));
        let last = Msg::Fm(Fm {
            var: VarId(MAX_VARS as u32 - 1),
        });
        assert_eq!(decode(&encode(&last)), Ok(last));
        assert_eq!(decode(&fm(MAX_VARS as u32)), Err(WireError::Truncated));
        assert_eq!(decode(&fm(u32::MAX)), Err(WireError::Truncated));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let optp = Msg::Sm(Sm {
            var: VarId(5),
            value: VersionedValue::new(WriteId::new(SiteId(0), 1), 0),
            meta: SmMeta::OptP {
                write: Arc::new(VectorClock::new(8)),
            },
        });
        for msg in std::iter::once(optp).chain(sample_msgs()) {
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
        let bytes = encode(&Msg::Sm(Sm {
            var: VarId(3),
            value: VersionedValue::new(WriteId::new(SiteId(0), 1), 0),
            meta: SmMeta::FullTrack {
                write: Arc::new(MatrixClock::new(1)),
            },
        }));
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
        bytes.extend(encode(&msg));
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
            let set = DestSet::from_sites(dsts);
            assert_eq!((m.src, m.dsts, &m.msg), (SiteId(17), set, &msg));
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

    /// The KS-log codec as it was before each direction became one loop:
    /// a count, then each entry's fields pushed byte by byte, and on
    /// decode the entries collected first and their order checked in a
    /// second pass. The oracle the staged encoder and the one-pass decoder
    /// must match byte for byte and error for error.
    mod per_field {
        use super::*;

        fn varint(out: &mut Vec<u8>, mut v: u64) {
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }

        /// Any entry sequence, sorted or not, legal or not.
        pub fn put(entries: &[LogEntry]) -> Vec<u8> {
            let mut out = Vec::new();
            varint(&mut out, entries.len() as u64);
            for e in entries {
                varint(&mut out, e.origin.0 as u64);
                varint(&mut out, e.clock);
                varint(&mut out, e.dests.len() as u64);
                out.extend(e.dests.iter().map(|s| s.0 as u8));
            }
            out
        }

        fn byte(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
            let b = *buf.get(*pos).ok_or(WireError::Truncated)?;
            *pos += 1;
            Ok(b)
        }

        fn take_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
            let mut x = 0u64;
            for shift in (0..64).step_by(7) {
                let b = byte(buf, pos)?;
                x |= ((b & 0x7f) as u64) << shift;
                if b & 0x80 == 0 {
                    return Ok(x);
                }
            }
            Err(WireError::BadTag(byte(buf, pos)?))
        }

        /// The log and how many bytes it took.
        pub fn take(buf: &[u8]) -> Result<(Log, usize), WireError> {
            let mut pos = 0;
            let n = take_varint(buf, &mut pos)? as usize;
            if n > buf.len() - pos || n > (buf.len() - pos) / 3 {
                return Err(WireError::Truncated);
            }
            let mut entries = Vec::new();
            for _ in 0..n {
                let origin = match byte(buf, &mut pos)? {
                    b @ 0..=0x7f => SiteId(b as u16),
                    _ => return Err(WireError::Truncated),
                };
                let clock = take_varint(buf, &mut pos)?;
                let k = take_varint(buf, &mut pos)? as usize;
                if k > buf.len() - pos {
                    return Err(WireError::Truncated);
                }
                let mut dests = DestSet::EMPTY;
                for _ in 0..k {
                    match byte(buf, &mut pos)? {
                        b @ 0..=0x7f => dests.insert(SiteId(b as u16)),
                        _ => return Err(WireError::Truncated),
                    }
                }
                entries.push(LogEntry::new(origin, clock, dests));
            }
            let key = |e: &LogEntry| (e.origin, e.clock);
            if entries.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
                return Err(WireError::BadTag(0));
            }
            let mut it = entries.into_iter();
            let log = Log::from_sorted(n, || it.next().ok_or(WireError::Truncated))?;
            Ok((log.expect("checked above"), pos))
        }
    }

    /// What `Log::take` makes of `buf`: the log and the bytes it took.
    fn take_log(buf: &[u8]) -> Result<(Log, usize), WireError> {
        let mut r = Reader { buf, pos: 0 };
        Log::take(&mut r).map(|log| (log, r.pos))
    }

    /// A clock: one, two or three varint bytes, or anything up to
    /// `u64::MAX`.
    fn arb_clock() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..128,
            128u64..3_000_000,
            0u64..=u64::MAX,
            u64::MAX - 2..=u64::MAX
        ]
    }

    /// A destination set: empty, all 128 sites, two sites, or any mask.
    fn arb_dests() -> impl Strategy<Value = DestSet> {
        (0u8..4, any::<u64>(), any::<u64>()).prop_map(|(kind, lo, hi)| match kind {
            0 => DestSet::EMPTY,
            1 => DestSet::full(MAX_SITES),
            2 => DestSet::from_sites([
                SiteId::from(lo as usize % 40),
                SiteId::from(hi as usize % 40),
            ]),
            _ => {
                let mask = (hi as u128) << 64 | lo as u128;
                DestSet::from_sites(
                    (0..MAX_SITES)
                        .filter(|i| mask >> i & 1 == 1)
                        .map(SiteId::from),
                )
            }
        })
    }

    /// Entries in any order, duplicates allowed, origins past the legal
    /// range included.
    fn arb_entries() -> impl Strategy<Value = Vec<LogEntry>> {
        let origin = prop_oneof![0u16..128, 0u16..400];
        let entry =
            (origin, arb_clock(), arb_dests()).prop_map(|(o, c, d)| LogEntry::new(SiteId(o), c, d));
        proptest::collection::vec(entry, 0..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        #[test]
        fn prop_the_log_codec_matches_the_per_field_codec(
            entries in arb_entries(),
            cut in any::<usize>(),
            flip in (any::<usize>(), any::<u8>()),
        ) {
            // Sorted and deduplicated by key, the entries are a log: both
            // encoders write the same bytes and both decoders read it back.
            let mut legal: Vec<LogEntry> = entries.iter().filter(|e| e.origin.index() < MAX_SITES).copied().collect();
            legal.sort_by_key(|e| (e.origin, e.clock));
            legal.dedup_by_key(|e| (e.origin, e.clock));
            let mut it = legal.iter().copied();
            let log = Log::from_sorted(legal.len(), || it.next().ok_or(())).unwrap().unwrap();
            let mut out = WireBuf::new();
            log.put(&mut out);
            let bytes = out.as_slice().to_vec();
            prop_assert_eq!(&bytes, &per_field::put(&legal));
            prop_assert_eq!(take_log(&bytes), Ok((log, bytes.len())));
            // Unsorted, duplicated or out-of-range entries, any prefix of
            // an encoding, and one byte changed: the same verdict.
            let raw = per_field::put(&entries);
            let mut flipped = bytes.clone();
            if !flipped.is_empty() {
                let at = flip.0 % flipped.len();
                flipped[at] = flip.1;
            }
            let (raw_cut, cut) = (&raw[..cut % (raw.len() + 1)], &bytes[..cut % bytes.len()]);
            for input in [&raw[..], raw_cut, cut, &flipped] {
                prop_assert_eq!(take_log(input), per_field::take(input), "{:x?}", input);
            }
        }
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
            prop_assert_eq!(m.dsts, DestSet::from_sites(dsts));
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
                let _ = encode_multi(m.src, &m.dsts.iter().collect::<Vec<_>>(), &m.msg);
            }
        }
    }
}
