//! Site, variable and write identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a site.
///
/// The paper assumes exactly one application process per site, so a `SiteId`
/// doubles as the identifier of the application process `ap_i` hosted there.
/// Sites are numbered densely `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Dense index of this site, for indexing `n`-sized arrays and matrices.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all site ids of an `n`-site system.
    pub fn all(n: usize) -> impl Iterator<Item = SiteId> + Clone {
        (0..n as u16).map(SiteId)
    }
}

impl From<usize> for SiteId {
    fn from(i: usize) -> Self {
        debug_assert!(i <= u16::MAX as usize, "site index out of range");
        SiteId(i as u16)
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The most variables a run may declare: every site keeps its per-variable
/// state densely, one slot per id up to the largest it has seen, so `q`
/// bounds that memory (a few MB per site at this bound; the paper's
/// experiments use `q = 100`).
pub const MAX_VARS: usize = 1 << 16;

/// Identifier of a shared variable `x_h ∈ Q`.
///
/// The distributed shared memory holds `q ≤ MAX_VARS` variables; variables
/// are numbered densely `0..q`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all variable ids of a `q`-variable memory.
    pub fn all(q: usize) -> impl Iterator<Item = VarId> + Clone {
        (0..q as u32).map(VarId)
    }
}

impl From<usize> for VarId {
    fn from(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "variable index out of range");
        VarId(i as u32)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Globally unique identifier of a write operation: `⟨site, clock⟩`.
///
/// `clock` is the value of the writer's local write counter *after* the write
/// (the first write by a site has `clock == 1`). Two writes by the same site
/// are totally ordered by `clock`; this is the 2-tuple representation that
/// Opt-Track-CRP uses as its entire log-entry format.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WriteId {
    /// The writing site (and application process).
    pub site: SiteId,
    /// The writer's local write counter at the time of the write (1-based).
    pub clock: u64,
}

impl WriteId {
    /// Construct a write identifier.
    #[inline]
    pub fn new(site: SiteId, clock: u64) -> Self {
        WriteId { site, clock }
    }
}

impl fmt::Debug for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w({},{})", self.site, self.clock)
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w({},{})", self.site, self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_id_roundtrip_and_index() {
        let s = SiteId::from(7usize);
        assert_eq!(s, SiteId(7));
        assert_eq!(s.index(), 7);
        assert_eq!(format!("{s}"), "s7");
    }

    #[test]
    fn site_all_enumerates_densely() {
        let v: Vec<_> = SiteId::all(4).collect();
        assert_eq!(v, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
    }

    #[test]
    fn var_id_roundtrip_and_index() {
        let x = VarId::from(99usize);
        assert_eq!(x.index(), 99);
        assert_eq!(format!("{x}"), "x99");
    }

    #[test]
    fn var_all_enumerates_densely() {
        assert_eq!(VarId::all(3).count(), 3);
        assert_eq!(VarId::all(0).count(), 0);
    }

    #[test]
    fn write_id_ordering_is_site_then_clock() {
        let a = WriteId::new(SiteId(0), 5);
        let b = WriteId::new(SiteId(0), 6);
        let c = WriteId::new(SiteId(1), 1);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(format!("{a}"), "w(s0,5)");
    }
}
