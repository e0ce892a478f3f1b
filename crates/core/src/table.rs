//! Epoch-stamped dense vertex tables — the solver's per-vertex storage
//! outside the search labels (which a [`LabelSlab`] pages into the
//! workspace's [`LabelStore`], so a search holds records only for the
//! vertex ranges it touches).
//!
//! [`LabelSlab`]: crate::search::LabelSlab
//! [`LabelStore`]: crate::search::LabelStore
//!
//! The solve path used to keep its per-search and per-component tables
//! in `HashMap<VertexId, _>`s: with goal-oriented search each table only
//! touches a small region, and *global* vertex ids made dense arrays
//! cost `O(t·n)` up front. Dense vertex addressing changed the
//! trade-off: every [`SteinerGraph`](cds_graph::SteinerGraph) backend —
//! including the zero-copy window view — exposes compact window-local
//! vertex ids, so a dense slab per table is window-sized, and an *epoch
//! stamp* per slot makes clearing `O(1)` (bump the epoch) instead of
//! `O(n)` (wipe the slab). Pooled in a
//! [`SolverWorkspace`](crate::SolverWorkspace), the slabs grow once to
//! the largest window a worker sees and then serve every subsequent
//! solve without touching the allocator.
//!
//! # Determinism
//!
//! A `VertexTable` has no iteration order of its own — it is only ever
//! *probed* by vertex id. Callers that need to enumerate members keep a
//! side `Vec` in a deterministic order (see
//! [`Component`](crate::components::Component)). That is what lets the
//! dense tables replace the hash maps bit-for-bit: the solver never
//! depended on map iteration order, and tables have none to depend on.

use cds_graph::VertexId;

/// A dense `VertexId → T` map with `O(1)` clear via epoch stamping.
///
/// Slabs grow on demand (`insert` resizes past the largest id seen), so
/// no capacity needs to be declared; a pooled table reused across solves
/// stops growing once it has seen the largest window.
///
/// ```
/// use cds_core::VertexTable;
/// let mut t: VertexTable<f64> = VertexTable::new();
/// t.insert(5, 1.5);
/// assert_eq!(t.get(5), Some(1.5));
/// assert_eq!(t.get(4), None);
/// t.clear(); // O(1)
/// assert_eq!(t.get(5), None);
/// ```
#[derive(Debug, Clone)]
pub struct VertexTable<T> {
    stamp: Vec<u32>,
    val: Vec<T>,
    epoch: u32,
}

impl<T: Copy + Default> Default for VertexTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> VertexTable<T> {
    /// An empty table; slabs grow on first use.
    pub fn new() -> Self {
        VertexTable { stamp: Vec::new(), val: Vec::new(), epoch: 1 }
    }

    /// Grows the slabs to cover ids `0..n` up front (optional — `insert`
    /// grows on demand).
    pub fn ensure(&mut self, n: usize) {
        if n > self.stamp.len() {
            self.stamp.resize(n, 0);
            self.val.resize(n, T::default());
        }
    }

    /// Forgets every entry in `O(1)` by bumping the epoch. The slabs
    /// keep their capacity (and their stale values, which are
    /// unreachable until re-stamped).
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The value at `v`, if present this epoch.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<T> {
        match self.stamp.get(v as usize) {
            Some(&s) if s == self.epoch => Some(self.val[v as usize]),
            _ => None,
        }
    }

    /// The value at `v`, or `default` if absent.
    #[inline]
    pub fn get_or(&self, v: VertexId, default: T) -> T {
        self.get(v).unwrap_or(default)
    }

    /// Whether `v` has a value this epoch.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        matches!(self.stamp.get(v as usize), Some(&s) if s == self.epoch)
    }

    /// Sets the value at `v` (inserting or overwriting).
    #[inline]
    pub fn insert(&mut self, v: VertexId, value: T) {
        let i = v as usize;
        if i >= self.stamp.len() {
            // cold-table growth; a warmed table (ensure() pre-sized to
            // the graph) never takes this branch in steady state. The
            // fill is `value` rather than `T::default()` — unreached
            // slots are epoch-masked, so the fill is never observable
            self.stamp.resize(i + 1, 0);
            self.val.resize(i + 1, value);
        }
        self.stamp[i] = self.epoch;
        self.val[i] = value;
    }

    /// Adds `delta` to the value at `v` (treating absent as `base`).
    #[inline]
    pub fn add(&mut self, v: VertexId, base: T, delta: T)
    where
        T: std::ops::Add<Output = T>,
    {
        let cur = self.get_or(v, base);
        self.insert(v, cur + delta);
    }
}

/// A dense vertex set with `O(1)` clear — a [`VertexTable`] without
/// values.
///
/// ```
/// use cds_core::VertexSet;
/// let mut s = VertexSet::new();
/// assert!(s.insert(3), "newly inserted");
/// assert!(!s.insert(3), "already present");
/// s.clear();
/// assert!(!s.contains(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VertexSet(VertexTable<()>);

impl VertexSet {
    /// An empty set; the slab grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `v`, returning `true` if it was not yet a member.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let fresh = !self.0.contains(v);
        if fresh {
            self.0.insert(v, ());
        }
        fresh
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.0.contains(v)
    }

    /// Forgets every member in `O(1)`.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_clear_roundtrip() {
        let mut t: VertexTable<f64> = VertexTable::new();
        assert_eq!(t.get(0), None);
        t.insert(10, 2.5);
        t.insert(0, -1.0);
        assert_eq!(t.get(10), Some(2.5));
        assert_eq!(t.get_or(3, 9.0), 9.0);
        assert!(t.contains(0) && !t.contains(1));
        t.insert(10, 3.5);
        assert_eq!(t.get(10), Some(3.5));
        t.clear();
        assert_eq!(t.get(10), None);
        assert!(!t.contains(0));
        // stale slab values are unreachable after the epoch bump
        t.insert(10, 1.0);
        assert_eq!(t.get(10), Some(1.0));
    }

    #[test]
    fn add_accumulates_from_base() {
        let mut t: VertexTable<f64> = VertexTable::new();
        t.add(4, 0.0, 1.5);
        t.add(4, 0.0, 2.0);
        assert_eq!(t.get(4), Some(3.5));
    }

    #[test]
    fn many_epochs_stay_disjoint() {
        let mut t: VertexTable<u32> = VertexTable::new();
        for epoch in 0..1000u32 {
            t.insert(7, epoch);
            assert_eq!(t.get(7), Some(epoch));
            assert_eq!(t.get(8), None);
            t.clear();
        }
    }

    #[test]
    fn set_semantics() {
        let mut s = VertexSet::new();
        assert!(s.insert(100));
        assert!(s.contains(100));
        assert!(!s.insert(100));
        s.clear();
        assert!(s.insert(100));
    }
}
