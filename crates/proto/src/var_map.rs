//! Dense per-variable state.

use causal_types::{VarId, MAX_VARS};

/// A map keyed by [`VarId`], stored densely: slot `x` holds variable `x`'s
/// entry, if any.
///
/// Variables are numbered densely `0..q`, so a lookup is an index, an
/// insert hashes nothing and allocates only while the map grows to the
/// highest variable it has held, and iteration runs in ascending variable
/// order on every process. Memory is one slot per id up to that highest
/// one, which is why a run declares at most [`MAX_VARS`] variables.
#[derive(Clone, Debug)]
pub struct VarMap<V> {
    slots: Vec<Option<V>>,
    /// Occupied slots.
    len: usize,
}

impl<V> Default for VarMap<V> {
    fn default() -> Self {
        VarMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> VarMap<V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables with an entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no variable has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of `var`.
    #[inline]
    pub fn get(&self, var: VarId) -> Option<&V> {
        self.slots.get(var.index())?.as_ref()
    }

    /// The entry of `var`, mutably.
    #[inline]
    pub fn get_mut(&mut self, var: VarId) -> Option<&mut V> {
        self.slots.get_mut(var.index())?.as_mut()
    }

    /// Set the entry of `var`; the entry it replaced, if any. Panics on a
    /// variable id of [`MAX_VARS`] or more, which configuration checks and
    /// the wire decoder refuse before any site sees it.
    #[inline]
    pub fn insert(&mut self, var: VarId, value: V) -> Option<V> {
        let i = var.index();
        if i >= self.slots.len() {
            assert!(i < MAX_VARS, "variable {var:?} past MAX_VARS ({MAX_VARS})");
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Remove the entry of `var`, returning it.
    pub fn remove(&mut self, var: VarId) -> Option<V> {
        let old = self.slots.get_mut(var.index())?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// Keep only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(VarId, &mut V) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(VarId::from(i), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }

    /// The entries, in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &V)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, s)| s.as_ref().map(|v| (VarId::from(i), v)))
    }

    /// The entries' values, in ascending variable order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }

    /// The entries' values, mutably, in ascending variable order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_returns_the_replaced_entry_and_len_counts_occupied_slots() {
        let mut m = VarMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(VarId(5), 'a'), None);
        assert_eq!(m.insert(VarId(1), 'b'), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.insert(VarId(5), 'c'), Some('a'));
        assert_eq!(m.len(), 2, "a replacement adds no entry");
        assert_eq!((m.get(VarId(5)), m.get(VarId(0))), (Some(&'c'), None));
        assert_eq!(m.get(VarId(99)), None, "past the end is absent");
        *m.get_mut(VarId(1)).unwrap() = 'd';
        assert_eq!(m.get(VarId(1)), Some(&'d'));
        assert_eq!(m.get_mut(VarId(3)), None);
    }

    #[test]
    fn remove_and_retain_drop_entries_and_keep_len_exact() {
        let mut m = VarMap::new();
        for x in [7u32, 2, 4, 0] {
            m.insert(VarId(x), x * 10);
        }
        assert_eq!(m.remove(VarId(4)), Some(40));
        assert_eq!(m.remove(VarId(4)), None);
        assert_eq!(m.remove(VarId(100)), None);
        assert_eq!(m.len(), 3);
        m.retain(|var, v| {
            *v += 1;
            var != VarId(2)
        });
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            [(VarId(0), &1), (VarId(7), &71)]
        );
        m.clear();
        assert!(m.is_empty() && m.iter().next().is_none());
    }

    #[test]
    #[should_panic(expected = "past MAX_VARS")]
    fn an_id_past_max_vars_is_never_given_a_slot() {
        VarMap::new().insert(VarId(MAX_VARS as u32), ());
    }

    #[test]
    fn iteration_is_in_ascending_variable_order() {
        let mut m = VarMap::new();
        for x in [9u32, 3, 6, 0, 12] {
            m.insert(VarId(x), x);
        }
        let vars: Vec<VarId> = m.iter().map(|(var, _)| var).collect();
        assert_eq!(vars, [0, 3, 6, 9, 12].map(VarId));
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [0, 3, 6, 9, 12]);
        m.values_mut().for_each(|v| *v *= 2);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [0, 6, 12, 18, 24]);
    }
}
