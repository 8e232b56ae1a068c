//! The `Write[n][n]` matrix clock of Full-Track.

use causal_types::{MetaSized, SiteId, SizeModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An `n × n` matrix clock, stored row-major in one flat boxed slice that
/// also holds one key per row.
///
/// In **Full-Track**, `Write_i[j][k] = c` means that `c` updates sent by
/// application process `ap_j` to site `s_k` causally happened before (under
/// the `→co` relation) the current state of site `s_i`. The whole matrix is
/// piggybacked on every SM and RM message, which is the `O(n²)` per-message
/// overhead Opt-Track eliminates.
///
/// **Rows are chains.** `→co` and `→` both contain program order, so the
/// writes of `ap_j` that precede any state form a prefix of `ap_j`'s write
/// sequence: row `j` of every matrix in the system is one of `ap_j`'s own
/// past rows. Each write has at least one destination, so along that chain
/// the row sum rises strictly — equal sums mean equal rows, and a larger
/// sum means a row that dominates cell by cell. The sum is therefore kept
/// as the row's key, and [`merge_max`](Self::merge_max) compares one key
/// per row instead of `n` cells (DESIGN.md §5, "Matrix rows are chains").
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixClock {
    n: usize,
    /// The `n²` row-major cells, then the `n` row keys: `buf[n² + j]` is
    /// the sum of row `j`. Keys wrap rather than overflow, so a decoded
    /// matrix of arbitrary cells is still well-formed.
    buf: Box<[u64]>,
}

impl MatrixClock {
    /// The zero matrix for an `n`-site system.
    pub fn new(n: usize) -> Self {
        MatrixClock {
            n,
            buf: vec![0; n * n + n].into_boxed_slice(),
        }
    }

    /// Build a matrix directly from its row-major cells
    /// (`cells[writer * n + dest]`). The wire decoder uses this to
    /// materialise a received matrix in one pass instead of zeroing `n²`
    /// cells only to overwrite every one of them. The row keys are
    /// appended to `cells`, so a vector with room for `n` more entries is
    /// kept without reallocating.
    pub fn from_cells(n: usize, mut cells: Vec<u64>) -> Self {
        assert_eq!(cells.len(), n * n, "row-major n x n cells required");
        cells.reserve_exact(n);
        for j in 0..n {
            let row = &cells[j * n..(j + 1) * n];
            let key = row.iter().fold(0, |sum: u64, &c| sum.wrapping_add(c));
            cells.push(key);
        }
        MatrixClock {
            n,
            buf: cells.into_boxed_slice(),
        }
    }

    /// System size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, writer: SiteId, dest: SiteId) -> usize {
        debug_assert!(writer.index() < self.n && dest.index() < self.n);
        writer.index() * self.n + dest.index()
    }

    #[inline]
    fn key_idx(&self, writer: SiteId) -> usize {
        self.n * self.n + writer.index()
    }

    /// The `n²` cells, row-major.
    #[inline]
    fn cells(&self) -> &[u64] {
        &self.buf[..self.n * self.n]
    }

    /// `Write[writer][dest]`.
    #[inline]
    pub fn get(&self, writer: SiteId, dest: SiteId) -> u64 {
        self.buf[self.idx(writer, dest)]
    }

    /// Set `Write[writer][dest]`.
    #[inline]
    pub fn set(&mut self, writer: SiteId, dest: SiteId, v: u64) {
        let (i, key) = (self.idx(writer, dest), self.key_idx(writer));
        self.buf[key] = self.buf[key].wrapping_sub(self.buf[i]).wrapping_add(v);
        self.buf[i] = v;
    }

    /// Increment `Write[writer][dest]` and return the new value. Called once
    /// per destination replica when `writer` performs a write.
    #[inline]
    pub fn increment(&mut self, writer: SiteId, dest: SiteId) -> u64 {
        let (i, key) = (self.idx(writer, dest), self.key_idx(writer));
        self.buf[key] = self.buf[key].wrapping_add(1);
        self.buf[i] += 1;
        self.buf[i]
    }

    /// Entry-wise maximum — performed when a *read* observes a piggybacked
    /// matrix (never at message receipt; see §III-A: merging is "delayed
    /// until a later read operation which reads the value that comes with
    /// the message").
    ///
    /// Rows are chains (see the type docs), so per row the larger key wins
    /// whole: one compare per row, and a row is copied only where `other`'s
    /// key is larger. Debug builds also take the cell-wise maximum and
    /// assert that it is the same matrix, so every debug test run checks
    /// the chain precondition.
    pub fn merge_max(&mut self, other: &MatrixClock) {
        debug_assert_eq!(self.n, other.n);
        #[cfg(debug_assertions)]
        let cellwise = self.cellwise_max(other);
        let n = self.n;
        let (cells, keys) = self.buf.split_at_mut(n * n);
        let (their_cells, their_keys) = other.buf.split_at(n * n);
        for (j, (key, &theirs)) in keys.iter_mut().zip(their_keys).enumerate() {
            if theirs > *key {
                *key = theirs;
                let row = j * n..(j + 1) * n;
                cells[row.clone()].copy_from_slice(&their_cells[row]);
            }
        }
        #[cfg(debug_assertions)]
        assert!(
            self.cells() == cellwise,
            "merge_max: rows are not chains; the keyed merge\n{self:?}is not the cell-wise maximum {cellwise:?}"
        );
    }

    /// The cell-wise maximum of the two matrices' cells: the debug-build
    /// oracle of [`merge_max`](Self::merge_max).
    #[cfg(debug_assertions)]
    fn cellwise_max(&self, other: &MatrixClock) -> Vec<u64> {
        let pairs = self.cells().iter().zip(other.cells());
        pairs.map(|(&a, &b)| a.max(b)).collect()
    }

    /// `true` if every cell of `self` is ≤ the matching cell of `other`.
    pub fn le(&self, other: &MatrixClock) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.cells().iter().zip(other.cells()).all(|(a, b)| a <= b)
    }

    /// Sum of all cells (used in tests).
    pub fn total(&self) -> u64 {
        self.cells().iter().sum()
    }

    /// The row of a single writer, as `(dest, count)` pairs with non-zero
    /// counts (used by diagnostics).
    pub fn row(&self, writer: SiteId) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        let base = writer.index() * self.n;
        self.buf[base..base + self.n]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (SiteId::from(k), c))
    }
}

/// Sparse difference between two matrix clocks from the same site.
///
/// Consecutive piggyback snapshots taken by one sender share most of their
/// cells (the matrix only ever grows via own-row increments and
/// [`MatrixClock::merge_max`]), so a batched SM frame can ship the cells
/// that changed since the previous SM in the batch instead of the full
/// `n²` grid. [`MatrixDelta::between`] falls back to carrying the whole
/// matrix when the sparse form would not be smaller (or when the dimension
/// changed across a membership epoch), so a delta is never larger than the
/// snapshot it replaces.
///
/// Exactness invariant, relied on by the wire codec's round-trip tests:
/// `MatrixDelta::between(prev, next).apply_to(prev) == next`.
#[derive(Clone, PartialEq, Debug)]
pub enum MatrixDelta {
    /// Same dimension: only the changed cells, as `(writer, dest, value)`.
    Cells(Vec<(SiteId, SiteId, u64)>),
    /// Dimension changed or the sparse form would be larger: full snapshot.
    Full(MatrixClock),
}

impl MatrixDelta {
    /// Compute the delta that turns `prev` into `next`.
    pub fn between(prev: &MatrixClock, next: &MatrixClock) -> MatrixDelta {
        if prev.n != next.n {
            return MatrixDelta::Full(next.clone());
        }
        let mut changed = Vec::new();
        for (i, (&a, &b)) in prev.cells().iter().zip(next.cells()).enumerate() {
            if a != b {
                changed.push((SiteId::from(i / next.n), SiteId::from(i % next.n), b));
            }
        }
        // One changed cell costs three scalars against one for a full cell;
        // past a third of the grid the dense form wins.
        if 3 * changed.len() >= next.n * next.n {
            MatrixDelta::Full(next.clone())
        } else {
            MatrixDelta::Cells(changed)
        }
    }

    /// Reconstruct the successor snapshot from its predecessor.
    pub fn apply_to(&self, prev: &MatrixClock) -> MatrixClock {
        match self {
            MatrixDelta::Full(m) => m.clone(),
            MatrixDelta::Cells(cells) => {
                let mut m = prev.clone();
                for &(j, k, v) in cells {
                    m.set(j, k, v);
                }
                m
            }
        }
    }
}

impl MetaSized for MatrixDelta {
    /// Three scalars per changed cell in sparse form; the full matrix cost
    /// otherwise. By construction never exceeds the full snapshot's size.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            MatrixDelta::Cells(cells) => model.scalars(3 * cells.len()),
            MatrixDelta::Full(m) => m.meta_size(model),
        }
    }
}

impl fmt::Debug for MatrixClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MatrixClock(n={})", self.n)?;
        for j in 0..self.n {
            let row: Vec<u64> = (0..self.n)
                .map(|k| self.get(SiteId::from(j), SiteId::from(k)))
                .collect();
            writeln!(f, "  s{j}: {row:?}")?;
        }
        Ok(())
    }
}

impl MetaSized for MatrixClock {
    /// A matrix clock is transmitted as `n²` scalars — the dominant term of
    /// Full-Track's SM/RM sizes (≈ `10·n²` bytes under the Java calibration,
    /// matching the ~14 KB the paper reports at `n = 40`).
    fn meta_size(&self, model: &SizeModel) -> u64 {
        model.scalars(self.n * self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(i: usize) -> SiteId {
        SiteId::from(i)
    }

    const MAX_N: usize = 8;
    const MAX_WRITES: usize = 12;

    /// A system size and, per writer, the destination sets of its writes
    /// (bit `k` = site `k`; never empty).
    fn chain_writes() -> impl Strategy<Value = (usize, Vec<Vec<u16>>)> {
        let raw = proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 0..=MAX_WRITES),
            MAX_N,
        );
        (1usize..=MAX_N, raw).prop_map(|(n, raw)| {
            let all = (1u16 << n) - 1;
            let sets = |w: Vec<u16>| w.into_iter().map(|m| m % all + 1).collect();
            (n, raw.into_iter().take(n).map(sets).collect())
        })
    }

    fn members(n: usize, dests: u16) -> impl Iterator<Item = usize> {
        (0..n).filter(move |k| dests >> k & 1 == 1)
    }

    /// The matrix a protocol could hold: row `j` counts writer `j`'s first
    /// `upto[j]` writes per destination.
    fn chain_matrix(n: usize, writes: &[Vec<u16>], upto: &[usize]) -> MatrixClock {
        let mut m = MatrixClock::new(n);
        for (j, w) in writes.iter().enumerate() {
            for &dests in &w[..upto[j].min(w.len())] {
                for k in members(n, dests) {
                    m.increment(s(j), s(k));
                }
            }
        }
        m
    }

    #[test]
    fn new_is_zero_and_indexing_works() {
        let mut m = MatrixClock::new(4);
        assert_eq!(m.total(), 0);
        m.set(s(1), s(3), 7);
        assert_eq!(m.get(s(1), s(3)), 7);
        assert_eq!(m.get(s(3), s(1)), 0, "matrix is not symmetric");
    }

    #[test]
    fn increment_returns_new_value() {
        let mut m = MatrixClock::new(3);
        assert_eq!(m.increment(s(0), s(2)), 1);
        assert_eq!(m.increment(s(0), s(2)), 2);
        assert_eq!(m.get(s(0), s(2)), 2);
    }

    #[test]
    fn merge_is_cellwise_max() {
        let mut a = MatrixClock::new(2);
        let mut b = MatrixClock::new(2);
        a.set(s(0), s(0), 3);
        b.set(s(0), s(0), 1);
        b.set(s(1), s(0), 9);
        a.merge_max(&b);
        assert_eq!(a.get(s(0), s(0)), 3);
        assert_eq!(a.get(s(1), s(0)), 9);
    }

    /// The keyed merge's precondition: row 0 is `[1, 0]` on one side and
    /// `[0, 2]` on the other, which no single write sequence produces, so
    /// the larger key does not dominate and the debug check fires.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows are not chains")]
    fn merging_rows_that_are_not_chains_trips_the_debug_check() {
        let mut a = MatrixClock::new(2);
        let mut b = MatrixClock::new(2);
        a.set(s(0), s(0), 1);
        b.set(s(0), s(1), 2);
        a.merge_max(&b);
    }

    #[test]
    fn row_filters_zeroes() {
        let mut m = MatrixClock::new(3);
        m.set(s(1), s(0), 2);
        m.set(s(1), s(2), 5);
        let row: Vec<_> = m.row(s(1)).collect();
        assert_eq!(row, vec![(s(0), 2), (s(2), 5)]);
    }

    #[test]
    fn meta_size_is_n_squared_scalars() {
        let m = SizeModel::java_like();
        assert_eq!(MatrixClock::new(40).meta_size(&m), 16_000);
        assert_eq!(MatrixClock::new(5).meta_size(&m), 250);
    }

    #[test]
    fn delta_roundtrips_and_is_sparse() {
        let mut a = MatrixClock::new(4);
        a.set(s(0), s(1), 3);
        let mut b = a.clone();
        b.set(s(2), s(3), 9);
        b.increment(s(0), s(1));
        let d = MatrixDelta::between(&a, &b);
        assert!(matches!(&d, MatrixDelta::Cells(c) if c.len() == 2));
        assert_eq!(d.apply_to(&a), b);
        let model = SizeModel::java_like();
        assert!(d.meta_size(&model) < b.meta_size(&model));
    }

    #[test]
    fn delta_falls_back_to_full_when_dense_or_resized() {
        let a = MatrixClock::new(3);
        let mut b = MatrixClock::new(3);
        for j in 0..3 {
            for k in 0..3 {
                b.set(s(j), s(k), 1 + (j * 3 + k) as u64);
            }
        }
        let d = MatrixDelta::between(&a, &b);
        assert!(matches!(d, MatrixDelta::Full(_)), "9/9 cells changed");
        assert_eq!(d.apply_to(&a), b);

        let wider = MatrixClock::new(5);
        let d2 = MatrixDelta::between(&b, &wider);
        assert!(matches!(d2, MatrixDelta::Full(_)), "dimension changed");
        assert_eq!(d2.apply_to(&b), wider);
    }

    proptest! {
        #[test]
        fn prop_delta_between_apply_is_identity(
            xs in proptest::collection::vec(0u64..50, 16),
            ys in proptest::collection::vec(0u64..50, 16),
        ) {
            let mut a = MatrixClock::new(4);
            let mut b = MatrixClock::new(4);
            for j in 0..4 {
                for k in 0..4 {
                    a.set(s(j), s(k), xs[j * 4 + k]);
                    b.set(s(j), s(k), ys[j * 4 + k]);
                }
            }
            let d = MatrixDelta::between(&a, &b);
            prop_assert_eq!(d.apply_to(&a), b.clone());
            // A delta never costs more than the snapshot it replaces.
            let model = SizeModel::java_like();
            prop_assert!(d.meta_size(&model) <= b.meta_size(&model));
        }

        #[test]
        fn prop_merge_upper_bound_and_idempotent(
            (n, writes) in chain_writes(),
            xs in proptest::collection::vec(0usize..=MAX_WRITES, MAX_N),
            ys in proptest::collection::vec(0usize..=MAX_WRITES, MAX_N),
        ) {
            let a = chain_matrix(n, &writes, &xs);
            let b = chain_matrix(n, &writes, &ys);
            let mut m = a.clone();
            m.merge_max(&b);
            prop_assert!(a.le(&m));
            prop_assert!(b.le(&m));
            let snapshot = m.clone();
            m.merge_max(&b);
            prop_assert_eq!(m, snapshot);
        }

        #[test]
        fn prop_keyed_merge_is_the_cellwise_max_commutative_and_idempotent(
            (n, writes) in chain_writes(),
            xs in proptest::collection::vec(0usize..=MAX_WRITES, MAX_N),
            ys in proptest::collection::vec(0usize..=MAX_WRITES, MAX_N),
        ) {
            let a = chain_matrix(n, &writes, &xs);
            let b = chain_matrix(n, &writes, &ys);
            let mut cellwise = MatrixClock::new(n);
            for j in 0..n {
                for k in 0..n {
                    cellwise.set(s(j), s(k), a.get(s(j), s(k)).max(b.get(s(j), s(k))));
                }
            }
            let mut ab = a.clone();
            ab.merge_max(&b);
            prop_assert_eq!(&ab, &cellwise);
            let mut ba = b.clone();
            ba.merge_max(&a);
            prop_assert_eq!(&ba, &ab);
            let snapshot = ab.clone();
            ab.merge_max(&snapshot);
            ab.merge_max(&a);
            prop_assert_eq!(ab, snapshot);
        }

        #[test]
        fn prop_keys_are_row_sums_after_any_operation_sequence(
            (n, writes) in chain_writes(),
            ops in proptest::collection::vec(
                (0u8..5, 0usize..MAX_N, proptest::collection::vec(0usize..=MAX_WRITES, MAX_N)),
                0..24,
            ),
        ) {
            // The model: how many of each writer's writes the matrix counts.
            let mut upto = vec![0; n];
            let mut m = MatrixClock::new(n);
            for (op, j, target) in ops {
                let j = j % n;
                let target: Vec<usize> = (0..n).map(|w| target[w].min(writes[w].len())).collect();
                match op {
                    0 => {
                        if let Some(&dests) = writes[j].get(upto[j]) {
                            for k in members(n, dests) {
                                m.increment(s(j), s(k));
                            }
                            upto[j] += 1;
                        }
                    }
                    1 => {
                        // Move one row anywhere along its chain, down included.
                        let row = chain_matrix(n, &writes, &target);
                        for k in 0..n {
                            m.set(s(j), s(k), row.get(s(j), s(k)));
                        }
                        upto[j] = target[j];
                    }
                    2 => m = MatrixClock::from_cells(n, m.cells().to_vec()),
                    3 => {
                        m.merge_max(&chain_matrix(n, &writes, &target));
                        for (u, t) in upto.iter_mut().zip(&target) {
                            *u = (*u).max(*t);
                        }
                    }
                    _ => {
                        let next = chain_matrix(n, &writes, &target);
                        m = MatrixDelta::between(&m, &next).apply_to(&m);
                        upto = target;
                    }
                }
                let sums: Vec<u64> = m.cells().chunks(n).map(|row| row.iter().sum()).collect();
                prop_assert_eq!(&m.buf[n * n..], &sums[..]);
                prop_assert_eq!(&m, &chain_matrix(n, &writes, &upto));
            }
        }
    }
}
