//! Execution-history recording.
//!
//! A [`History`] keeps each site's records as two byte streams, appended
//! as the run goes and decoded in order by [`History::ops`] and
//! [`History::applies`]. Every field is an unsigned LEB128 varint (seven
//! bits a byte, low bits first; 1 byte below 128, at most 10 for a `u64`):
//!
//! * an **apply** is its origin, then its clock as the zigzag-coded
//!   wrapping difference from the clock this site last applied from that
//!   origin. Applies from one origin ascend, so at `n = 40` an apply is
//!   2 bytes instead of a 16-byte [`WriteId`]. An origin at or above `n`
//!   (a corrupt record) is coded against 0;
//! * an **op** starts with a header, its variable shifted left by two over
//!   a tag. A write under the recording site's own id carries its clock
//!   as the zigzag difference from the site's previous write clock, a
//!   write under any other id carries that id first, a read carries the
//!   observed write's site and clock (none for `⊥`) and the serving site.
//!   A write is 3 bytes and a read 6 at `q = 100` instead of a 32-byte
//!   [`OpRecord`].
//!
//! Wrapping differences make the coding lossless for every value a
//! corrupt recording can hold: clocks up to `u64::MAX`, clocks that go
//! backwards or repeat, site ids at or above `n`. The difference bases are
//! the encoder state, and a site holds none until it first records.

use causal_types::{SiteId, VarId, WriteId};

/// One operation in a process's local history `h_i`, in program order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpRecord {
    /// `w_i(x)v` — the process issued a write.
    Write {
        /// The write's identity (`⟨site, clock⟩`).
        write: WriteId,
        /// The written variable.
        var: VarId,
    },
    /// `r_i(x)v` — the process issued a read.
    Read {
        /// The read variable.
        var: VarId,
        /// The write whose value was returned, `None` for `⊥`.
        read_from: Option<WriteId>,
        /// The replica that served the read (self for local reads).
        served_by: SiteId,
    },
}

/// A recorded multi-site execution: per-process operation sequences plus
/// per-site apply sequences, each one byte stream (module docs). Drivers
/// (the simulator, the threaded runtime and `LocalCluster`-based tests)
/// populate this during a run and hand it to [`crate::check`] afterwards.
#[derive(Clone, Debug)]
pub struct History {
    n: usize,
    ops: Vec<OpLog>,
    applies: Vec<ApplyLog>,
    /// Per-site `(ops, applies)` lengths at the moment the site left the
    /// membership view (`None` = never left). Records past the watermark
    /// are out-of-view activity the checker flags.
    sealed: Vec<Option<(usize, usize)>>,
}

/// Op header tags (the header's two low bits).
const WRITE_OWN: u64 = 0;
const WRITE_AS: u64 = 1;
const READ: u64 = 2;
const READ_BOTTOM: u64 = 3;

/// One process's operations, encoded.
#[derive(Clone, Debug, Default)]
struct OpLog {
    bytes: Vec<u8>,
    len: usize,
    /// Clock of the last write recorded, the base of the next one's.
    last_write: u64,
}

/// One site's applies, encoded.
#[derive(Clone, Debug, Default)]
struct ApplyLog {
    bytes: Vec<u8>,
    len: usize,
    /// Per origin below `n`: the clock last applied from it, the base of
    /// the next one's. Empty until the site first applies.
    last: Vec<u64>,
}

fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// `clock − base` (wrapping), zigzag-coded so that small steps either way
/// are small numbers.
fn delta(clock: u64, base: u64) -> u64 {
    let d = clock.wrapping_sub(base) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`delta`].
fn undelta(z: u64, base: u64) -> u64 {
    base.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// A site id as the encoder wrote it (`u64::from` a `u16`).
fn site_id(v: u64) -> SiteId {
    SiteId(v as u16)
}

impl History {
    /// Empty history for an `n`-site system.
    pub fn new(n: usize) -> Self {
        History {
            n,
            ops: vec![OpLog::default(); n],
            applies: vec![ApplyLog::default(); n],
            sealed: vec![None; n],
        }
    }

    /// Number of sites.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record that `site` issued `write` on `var`.
    pub fn record_write(&mut self, site: SiteId, write: WriteId, var: VarId) {
        let log = &mut self.ops[site.index()];
        let header = u64::from(var.0) << 2;
        if write.site == site {
            put(&mut log.bytes, header | WRITE_OWN);
        } else {
            put(&mut log.bytes, header | WRITE_AS);
            put(&mut log.bytes, u64::from(write.site.0));
        }
        put(&mut log.bytes, delta(write.clock, log.last_write));
        log.last_write = write.clock;
        log.len += 1;
    }

    /// Record that `site` read `var`, observing `read_from`, served by
    /// `served_by`.
    pub fn record_read(
        &mut self,
        site: SiteId,
        var: VarId,
        read_from: Option<WriteId>,
        served_by: SiteId,
    ) {
        let log = &mut self.ops[site.index()];
        let header = u64::from(var.0) << 2;
        match read_from {
            Some(w) => {
                put(&mut log.bytes, header | READ);
                put(&mut log.bytes, u64::from(w.site.0));
                put(&mut log.bytes, w.clock);
            }
            None => put(&mut log.bytes, header | READ_BOTTOM),
        }
        put(&mut log.bytes, u64::from(served_by.0));
        log.len += 1;
    }

    /// Record that `site` applied `write` to its replica (in apply order).
    pub fn record_apply(&mut self, site: SiteId, write: WriteId) {
        let log = &mut self.applies[site.index()];
        if log.last.is_empty() {
            log.last = vec![0; self.n];
        }
        put(&mut log.bytes, u64::from(write.site.0));
        let base = match log.last.get_mut(write.site.index()) {
            Some(last) => std::mem::replace(last, write.clock),
            None => 0,
        };
        put(&mut log.bytes, delta(write.clock, base));
        log.len += 1;
    }

    /// Seal `site`'s history at its current length: the site left the
    /// membership view, so any operation or apply recorded after this point
    /// is out-of-view activity (a departed site still mutating state). The
    /// first seal wins — a site cannot rejoin under the churn model.
    pub fn seal_site(&mut self, site: SiteId) {
        let i = site.index();
        if self.sealed[i].is_none() {
            self.sealed[i] = Some((self.ops[i].len, self.applies[i].len));
        }
    }

    /// Per-site seal watermarks (`None` = the site never left the view).
    pub fn sealed(&self) -> &[Option<(usize, usize)>] {
        &self.sealed
    }

    /// Process `site`'s operations, decoded in program order. Panics if
    /// `site` is not below [`History::n`].
    pub fn ops(&self, site: SiteId) -> Ops<'_> {
        let log = &self.ops[site.index()];
        Ops {
            site,
            bytes: &log.bytes,
            at: 0,
            left: log.len,
            last_write: 0,
        }
    }

    /// Site `site`'s applies, decoded in apply order. Panics if `site` is
    /// not below [`History::n`].
    pub fn applies(&self, site: SiteId) -> Applies<'_> {
        let log = &self.applies[site.index()];
        Applies {
            bytes: &log.bytes,
            at: 0,
            left: log.len,
            last: vec![0; self.n],
        }
    }

    /// Fold another history's records into this one. Used by the threaded
    /// runtime, where each site thread records its own operations and
    /// applies into a private `History` and the coordinator combines them.
    /// Panics if both histories recorded events for the same site.
    pub fn absorb(&mut self, other: History) {
        assert_eq!(self.n, other.n);
        for (i, ops) in other.ops.into_iter().enumerate() {
            if ops.len > 0 {
                assert!(
                    self.ops[i].len == 0,
                    "two histories recorded ops for site {i}"
                );
                self.ops[i] = ops;
            }
        }
        for (i, applies) in other.applies.into_iter().enumerate() {
            if applies.len > 0 {
                assert!(
                    self.applies[i].len == 0,
                    "two histories recorded applies for site {i}"
                );
                self.applies[i] = applies;
            }
        }
        for (i, seal) in other.sealed.into_iter().enumerate() {
            if self.sealed[i].is_none() {
                self.sealed[i] = seal;
            }
        }
    }

    /// Total operations recorded.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(|log| log.len).sum()
    }

    /// Total applies recorded.
    pub fn total_applies(&self) -> usize {
        self.applies.iter().map(|log| log.len).sum()
    }
}

/// One process's operations in program order ([`History::ops`]).
#[derive(Clone, Debug)]
pub struct Ops<'a> {
    site: SiteId,
    bytes: &'a [u8],
    at: usize,
    left: usize,
    last_write: u64,
}

impl Iterator for Ops<'_> {
    type Item = OpRecord;

    fn next(&mut self) -> Option<OpRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let header = get(self.bytes, &mut self.at);
        let var = VarId((header >> 2) as u32);
        let op = match header & 3 {
            READ_BOTTOM => OpRecord::Read {
                var,
                read_from: None,
                served_by: site_id(get(self.bytes, &mut self.at)),
            },
            READ => {
                let w = site_id(get(self.bytes, &mut self.at));
                let w = WriteId::new(w, get(self.bytes, &mut self.at));
                OpRecord::Read {
                    var,
                    read_from: Some(w),
                    served_by: site_id(get(self.bytes, &mut self.at)),
                }
            }
            tag => {
                let writer = match tag {
                    WRITE_OWN => self.site,
                    _ => site_id(get(self.bytes, &mut self.at)),
                };
                let clock = undelta(get(self.bytes, &mut self.at), self.last_write);
                self.last_write = clock;
                OpRecord::Write {
                    write: WriteId::new(writer, clock),
                    var,
                }
            }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Ops<'_> {}

/// One site's applies in apply order ([`History::applies`]).
#[derive(Clone, Debug)]
pub struct Applies<'a> {
    bytes: &'a [u8],
    at: usize,
    left: usize,
    /// The encoder's per-origin bases, replayed.
    last: Vec<u64>,
}

impl Iterator for Applies<'_> {
    type Item = WriteId;

    fn next(&mut self) -> Option<WriteId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let origin = site_id(get(self.bytes, &mut self.at));
        let z = get(self.bytes, &mut self.at);
        let clock = match self.last.get_mut(origin.index()) {
            Some(last) => {
                *last = undelta(z, *last);
                *last
            }
            None => undelta(z, 0),
        };
        Some(WriteId::new(origin, clock))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Applies<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recording_accumulates_in_order() {
        let mut h = History::new(2);
        let w = WriteId::new(SiteId(0), 1);
        h.record_write(SiteId(0), w, VarId(3));
        h.record_read(SiteId(1), VarId(3), Some(w), SiteId(1));
        h.record_apply(SiteId(0), w);
        h.record_apply(SiteId(1), w);
        assert_eq!(h.total_ops(), 2);
        assert_eq!(h.total_applies(), 2);
        assert_eq!(h.ops(SiteId(0)).len(), 1);
        assert_eq!(h.applies(SiteId(1)).collect::<Vec<_>>(), vec![w]);
    }

    /// The layout the streams replace: one `Vec` per site, as recorded.
    struct Plain {
        ops: Vec<Vec<OpRecord>>,
        applies: Vec<Vec<WriteId>>,
        sealed: Vec<Option<(usize, usize)>>,
    }

    /// Record `script` into a [`History`] and into the plain layout. Each
    /// entry is three words: the recording site and kind, then two values
    /// that become clocks, site ids and variables, drawn so that
    /// `u64::MAX`, ids at or above `n`, repeats and backward steps are
    /// common.
    fn record(n: usize, script: &[(u64, u64, u64)]) -> (History, Plain) {
        let mut h = History::new(n);
        let mut p = Plain {
            ops: vec![Vec::new(); n],
            applies: vec![Vec::new(); n],
            sealed: vec![None; n],
        };
        for &(k, a, b) in script {
            let at = SiteId::from(k as usize % n);
            let i = at.index();
            let clock = match a % 5 {
                0 => u64::MAX,
                1 => u64::MAX - (a >> 3) % 3,
                2 => (a >> 3) % 4,
                _ => a >> 3,
            };
            let id = match b % 4 {
                0 => at,
                1 => SiteId(u16::MAX),
                _ => SiteId(((b >> 2) % (n as u64 + 3)) as u16),
            };
            let w = WriteId::new(id, clock);
            let var = VarId((b >> 32) as u32 >> ((b >> 8) % 32));
            let served_by = SiteId((a >> 48) as u16);
            match (k >> 16) % 11 {
                0..=2 => {
                    h.record_write(at, w, var);
                    p.ops[i].push(OpRecord::Write { write: w, var });
                }
                3 | 4 => {
                    let read_from = (b % 3 != 0).then_some(w);
                    h.record_read(at, var, read_from, served_by);
                    let op = OpRecord::Read {
                        var,
                        read_from,
                        served_by,
                    };
                    p.ops[i].push(op);
                }
                5..=9 => {
                    h.record_apply(at, w);
                    p.applies[i].push(w);
                }
                _ => {
                    h.seal_site(at);
                    if p.sealed[i].is_none() {
                        p.sealed[i] = Some((p.ops[i].len(), p.applies[i].len()));
                    }
                }
            }
        }
        (h, p)
    }

    fn assert_decodes_to(h: &History, p: &Plain) {
        for (i, site) in SiteId::all(h.n()).enumerate() {
            assert_eq!(h.ops(site).len(), p.ops[i].len(), "s{i} op count");
            assert_eq!(h.ops(site).collect::<Vec<_>>(), p.ops[i], "s{i} ops");
            assert_eq!(h.applies(site).len(), p.applies[i].len());
            let applies: Vec<_> = h.applies(site).collect();
            assert_eq!(applies, p.applies[i], "s{i} applies");
        }
        assert_eq!(h.total_ops(), p.ops.iter().map(Vec::len).sum::<usize>());
        assert_eq!(h.total_applies(), p.applies.iter().map(Vec::len).sum());
        assert_eq!(h.sealed(), p.sealed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn the_streams_decode_to_exactly_what_was_recorded(
            n in 1usize..7,
            script in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..400),
        ) {
            let (h, p) = record(n, &script);
            assert_decodes_to(&h, &p);
            // Absorbing sites recorded apart gives the same history.
            let (odd, even): (Vec<_>, Vec<_>) =
                script.iter().copied().partition(|(k, ..)| *k as usize % n % 2 == 1);
            let (mut joined, _) = record(n, &even);
            joined.absorb(record(n, &odd).0);
            assert_decodes_to(&joined, &p);
        }
    }

    /// Bytes per op and per apply of a fixed, realistic recording: `n =
    /// 40` sites, `q = 100` variables each replicated at 3 sites, half the
    /// ops writes, every write applied at its replicas in write order (so
    /// per-origin clocks ascend), every read returning the latest write on
    /// its variable and served by its first replica. A `Vec` of records
    /// costs 32 bytes per op and 16 per apply.
    #[test]
    fn a_record_costs_a_few_bytes() {
        const OP_BUDGET: f64 = 5.0;
        const APPLY_BUDGET: f64 = 2.5;
        let (n, q) = (40usize, 100usize);
        let mut h = History::new(n);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut clock = vec![0u64; n];
        let mut latest: Vec<Option<WriteId>> = vec![None; q];
        for _ in 0..40_000 {
            let (i, x) = (next() as usize % n, next() as usize % q);
            let (site, var) = (SiteId::from(i), VarId(x as u32));
            let replicas = [x % n, (x + 13) % n, (x + 27) % n].map(SiteId::from);
            if next() % 2 == 0 {
                clock[i] += 1;
                let w = WriteId::new(site, clock[i]);
                h.record_write(site, w, var);
                for r in replicas {
                    h.record_apply(r, w);
                }
                latest[x] = Some(w);
            } else {
                let served_by = if replicas.contains(&site) {
                    site
                } else {
                    replicas[0]
                };
                h.record_read(site, var, latest[x], served_by);
            }
        }
        let op_bytes: usize = h.ops.iter().map(|l| l.bytes.len()).sum();
        let apply_bytes: usize = h.applies.iter().map(|l| l.bytes.len()).sum();
        let per_op = op_bytes as f64 / h.total_ops() as f64;
        let per_apply = apply_bytes as f64 / h.total_applies() as f64;
        assert!(per_op < OP_BUDGET, "{per_op:.2} B per op");
        assert!(per_apply < APPLY_BUDGET, "{per_apply:.2} B per apply");
    }
}
