//! Binary min-heaps over `u32` ids with decrease-key.
//!
//! The heap logic is generic over the *position map* that tracks where each
//! id sits in the heap array:
//!
//! * [`IndexedBinaryHeap`] uses a dense `Vec` — right for single-source
//!   Dijkstra over dense vertex ids (embedding, landmarks, baselines);
//! * [`TieStampedIndexedHeap`] uses a dense `Vec` with epoch stamps — the
//!   per-sink sub-heaps of [`TwoLevelHeap`](crate::TwoLevelHeap): ids are
//!   the solver's compact window-local vertex ids, slabs grow on demand
//!   and stay warm across pooled reuse, and `clear` is one epoch bump
//!   instead of a wipe of the queued ids.

/// Maps an id to its index in the heap array.
///
/// Implementation detail of the heaps; sealed by being private to the
/// crate's public surface (only the aliases below are exported).
pub trait PositionMap: Default {
    /// Creates a map able to hold ids `0..capacity`.
    fn with_capacity(capacity: usize) -> Self;
    /// Position of `id`, if queued.
    fn get(&self, id: u32) -> Option<u32>;
    /// Records `id` at heap index `p`.
    fn set(&mut self, id: u32, p: u32);
    /// Forgets `id`.
    fn remove(&mut self, id: u32);
    /// Forgets everything; `queued` is the heap array, so a map may
    /// clear just the ids it holds.
    fn clear(&mut self, queued: &[(f64, u32)]);
}

/// Dense position map backed by a `Vec<u32>`.
#[derive(Debug, Clone, Default)]
pub struct DensePos(Vec<u32>);

const NOT_IN_HEAP: u32 = u32::MAX;

impl PositionMap for DensePos {
    fn with_capacity(capacity: usize) -> Self {
        DensePos(vec![NOT_IN_HEAP; capacity])
    }
    fn get(&self, id: u32) -> Option<u32> {
        match self.0[id as usize] {
            NOT_IN_HEAP => None,
            p => Some(p),
        }
    }
    fn set(&mut self, id: u32, p: u32) {
        self.0[id as usize] = p;
    }
    fn remove(&mut self, id: u32) {
        self.0[id as usize] = NOT_IN_HEAP;
    }
    /// `O(len)`, not `O(capacity)`: a search stopped early leaves its
    /// frontier queued, and the slab is as large as the largest id
    /// space ever seen.
    fn clear(&mut self, queued: &[(f64, u32)]) {
        for &(_, id) in queued {
            self.0[id as usize] = NOT_IN_HEAP;
        }
    }
}

/// Dense position map with epoch stamps: membership is `stamp[id] ==
/// epoch`, so [`clear`](PositionMap::clear) is an epoch bump — `O(1)` —
/// and the slabs survive pooled reuse warm. Slabs grow on demand, so ids
/// need no up-front capacity; sizing via `with_capacity` merely
/// pre-grows them.
#[derive(Debug, Clone)]
pub struct StampedPos {
    stamp: Vec<u32>,
    pos: Vec<u32>,
    epoch: u32,
}

impl Default for StampedPos {
    fn default() -> Self {
        StampedPos { stamp: Vec::new(), pos: Vec::new(), epoch: 1 }
    }
}

impl PositionMap for StampedPos {
    fn with_capacity(capacity: usize) -> Self {
        StampedPos { stamp: vec![0; capacity], pos: vec![0; capacity], epoch: 1 }
    }
    fn get(&self, id: u32) -> Option<u32> {
        match self.stamp.get(id as usize) {
            Some(&s) if s == self.epoch => Some(self.pos[id as usize]),
            _ => None,
        }
    }
    fn set(&mut self, id: u32, p: u32) {
        let i = id as usize;
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
            self.pos.resize(i + 1, 0);
        }
        self.stamp[i] = self.epoch;
        self.pos[i] = p;
    }
    fn remove(&mut self, id: u32) {
        // 0 is never a live epoch (epochs start at 1)
        self.stamp[id as usize] = 0;
    }
    fn clear(&mut self, _queued: &[(f64, u32)]) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// The shared heap implementation. Use via [`IndexedBinaryHeap`] or
/// the stamped aliases.
///
/// `TIE` selects the comparison: `false` orders by key alone (ties
/// resolve by heap structure — cheapest, and all single-source Dijkstra
/// callers are insensitive to it), `true` orders lexicographically by
/// `(key, id)` so equal-key pops drain in ascending id order. The
/// tie-ordered variant backs [`TwoLevelHeap`](crate::TwoLevelHeap),
/// whose pop sequence is part of the solver's determinism contract and
/// must be reproducible by [`BucketQueue`](crate::BucketQueue).
#[derive(Debug, Clone, Default)]
pub struct RawIndexedHeap<M: PositionMap, const TIE: bool = false> {
    heap: Vec<(f64, u32)>,
    pos: M,
}

/// Dense-id binary min-heap with decrease-key; the workhorse of every
/// single-source Dijkstra in this workspace.
///
/// ```
/// use cds_heap::IndexedBinaryHeap;
/// let mut h = IndexedBinaryHeap::new(3);
/// h.push(2, 9.0);
/// h.push(0, 5.0);
/// assert_eq!(h.peek(), Some((0, 5.0)));
/// h.decrease_key(2, 1.0);
/// assert_eq!(h.pop(), Some((2, 1.0)));
/// ```
pub type IndexedBinaryHeap = RawIndexedHeap<DensePos>;

/// Epoch-stamped dense-id binary min-heap with decrease-key and the
/// total `(key, id)` order: equal-key pops drain in ascending id order
/// instead of heap-structural order. Ids are the solver's compact
/// vertex ids; slabs grow on demand and `clear` is `O(1)` (an epoch
/// bump). Backs the per-search sub-heaps of
/// [`TwoLevelHeap`](crate::TwoLevelHeap), where the pop sequence is
/// pinned by the cross-queue determinism contract (see
/// [`BucketQueue`](crate::BucketQueue)).
///
/// ```
/// use cds_heap::TieStampedIndexedHeap;
/// let mut h = TieStampedIndexedHeap::new(0);
/// h.push(9, 2.0);
/// h.push(4, 2.0);
/// assert_eq!(h.pop(), Some((4, 2.0))); // equal keys: smaller id first
/// assert_eq!(h.pop(), Some((9, 2.0)));
/// ```
pub type TieStampedIndexedHeap = RawIndexedHeap<StampedPos, true>;

impl<M: PositionMap, const TIE: bool> RawIndexedHeap<M, TIE> {
    /// Creates an empty heap. For the dense variant `capacity` must bound
    /// all ids ever pushed; the stamped variants grow on demand.
    pub fn new(capacity: usize) -> Self {
        RawIndexedHeap { heap: Vec::new(), pos: M::with_capacity(capacity) }
    }

    /// Whether entry `a` sorts strictly before entry `b`: by key, with
    /// the id tie-break iff `TIE`.
    #[inline]
    fn before((ka, ia): (f64, u32), (kb, ib): (f64, u32)) -> bool {
        if TIE {
            (ka, ia) < (kb, ib)
        } else {
            ka < kb
        }
    }

    /// Number of elements currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Smallest (id, key) without removing it.
    pub fn peek(&self) -> Option<(u32, f64)> {
        self.heap.first().map(|&(k, id)| (id, k))
    }

    /// Current key of `id` if queued.
    pub fn key_of(&self, id: u32) -> Option<f64> {
        self.pos.get(id).map(|p| self.heap[p as usize].0)
    }

    /// Whether `id` is currently queued.
    pub fn contains(&self, id: u32) -> bool {
        self.pos.get(id).is_some()
    }

    /// Inserts `id` with `key`, or lowers its key if already queued with a
    /// larger one. Returns `true` if the heap changed.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN (and, for the dense variant, if `id` exceeds
    /// the capacity).
    pub fn push(&mut self, id: u32, key: f64) -> bool {
        assert!(!key.is_nan(), "NaN key");
        match self.pos.get(id) {
            None => {
                self.heap.push((key, id));
                self.sift_up(self.heap.len() - 1);
                true
            }
            Some(p) if key < self.heap[p as usize].0 => {
                self.heap[p as usize].0 = key;
                self.sift_up(p as usize);
                true
            }
            Some(_) => false,
        }
    }

    /// Lowers the key of a queued `id`. Equivalent to [`push`](Self::push)
    /// for already-queued ids; provided for intent-revealing call sites.
    pub fn decrease_key(&mut self, id: u32, key: f64) -> bool {
        self.push(id, key)
    }

    /// Removes and returns the smallest (id, key).
    pub fn pop(&mut self) -> Option<(u32, f64)> {
        if self.heap.is_empty() {
            return None;
        }
        let (key, id) = self.heap.swap_remove(0);
        self.pos.remove(id);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((id, key))
    }

    /// Removes every element. Keeps the capacity.
    pub fn clear(&mut self) {
        self.pos.clear(&self.heap);
        self.heap.clear();
    }

    // Both sifts move a *hole*: the sifted entry is held aside, each
    // entry it passes moves one level (one array write, one position
    // write), and the entry and its position are written once at the
    // end. The comparisons and child choices are those of the textbook
    // swap-per-level form, so the array, the position map and every
    // tie order come out identical (the `hole_sifting_matches_swap_form`
    // proptest holds the two side by side).

    /// Sifts the entry at `i` up and records the final position of every
    /// entry it moved — including its own, so a fresh push need not.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if !Self::before(entry, above) {
                break;
            }
            self.heap[i] = above;
            self.pos.set(above.1, i as u32);
            i = parent;
        }
        self.heap[i] = entry;
        self.pos.set(entry.1, i as u32);
    }

    /// Sifts the entry at `i` down (smaller child first, the left one
    /// on ties) and records the final position of every entry it moved.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let (mut child, mut smallest) = (i, entry);
            if l < len && Self::before(self.heap[l], smallest) {
                (child, smallest) = (l, self.heap[l]);
            }
            if r < len && Self::before(self.heap[r], smallest) {
                (child, smallest) = (r, self.heap[r]);
            }
            if child == i {
                break;
            }
            self.heap[i] = smallest;
            self.pos.set(smallest.1, i as u32);
            i = child;
        }
        self.heap[i] = entry;
        self.pos.set(entry.1, i as u32);
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for i in 1..self.heap.len() {
            assert!(self.heap[(i - 1) / 2].0 <= self.heap[i].0, "heap order");
        }
        for (i, &(_, id)) in self.heap.iter().enumerate() {
            assert_eq!(self.pos.get(id), Some(i as u32), "pos map");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_pop_ordering() {
        let mut h = IndexedBinaryHeap::new(10);
        for (id, k) in [(3u32, 5.0), (1, 2.0), (7, 8.0), (2, 1.0)] {
            h.push(id, k);
            h.check_invariants();
        }
        let mut out = Vec::new();
        while let Some((id, _)) = h.pop() {
            out.push(id);
            h.check_invariants();
        }
        assert_eq!(out, vec![2, 1, 3, 7]);
    }

    #[test]
    fn push_existing_only_decreases() {
        let mut h = IndexedBinaryHeap::new(4);
        h.push(0, 5.0);
        assert!(!h.push(0, 7.0), "increase must be ignored");
        assert_eq!(h.key_of(0), Some(5.0));
        assert!(h.push(0, 3.0));
        assert_eq!(h.key_of(0), Some(3.0));
    }

    #[test]
    fn clear_resets_membership() {
        let mut h = IndexedBinaryHeap::new(4);
        h.push(1, 1.0);
        h.push(2, 2.0);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(1));
        h.push(1, 9.0);
        assert_eq!(h.pop(), Some((1, 9.0)));
    }

    fn reference_run<M: PositionMap>(mut h: RawIndexedHeap<M>, ops: Vec<(u32, f64)>) {
        let mut reference: std::collections::HashMap<u32, f64> = Default::default();
        for (id, key) in ops {
            let cur = reference.get(&id).copied();
            h.push(id, key);
            if cur.is_none_or(|c| key < c) {
                reference.insert(id, key);
            }
            h.check_invariants();
        }
        let mut got = Vec::new();
        while let Some((id, k)) = h.pop() {
            got.push((id, k));
        }
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1, "non-decreasing pops");
        }
        let mut want: Vec<(u32, f64)> = reference.into_iter().collect();
        want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        got.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(got, want);
    }

    /// The textbook swap-per-level heap the hole sifts replaced, kept as
    /// their reference: every level swaps two entries and writes both
    /// positions.
    struct SwapHeap<const TIE: bool> {
        heap: Vec<(f64, u32)>,
        pos: Vec<Option<u32>>,
    }

    impl<const TIE: bool> SwapHeap<TIE> {
        fn new(ids: usize) -> Self {
            SwapHeap { heap: Vec::new(), pos: vec![None; ids] }
        }

        fn before(&self, a: usize, b: usize) -> bool {
            let (ka, ia) = self.heap[a];
            let (kb, ib) = self.heap[b];
            if TIE {
                (ka, ia) < (kb, ib)
            } else {
                ka < kb
            }
        }

        fn push(&mut self, id: u32, key: f64) -> bool {
            match self.pos[id as usize] {
                None => {
                    self.heap.push((key, id));
                    self.pos[id as usize] = Some((self.heap.len() - 1) as u32);
                    self.sift_up(self.heap.len() - 1);
                    true
                }
                Some(p) if key < self.heap[p as usize].0 => {
                    self.heap[p as usize].0 = key;
                    self.sift_up(p as usize);
                    true
                }
                Some(_) => false,
            }
        }

        fn pop(&mut self) -> Option<(u32, f64)> {
            if self.heap.is_empty() {
                return None;
            }
            let (key, id) = self.heap.swap_remove(0);
            self.pos[id as usize] = None;
            if !self.heap.is_empty() {
                self.pos[self.heap[0].1 as usize] = Some(0);
                self.sift_down(0);
            }
            Some((id, key))
        }

        fn clear(&mut self) {
            self.pos.fill(None);
            self.heap.clear();
        }

        fn sift_up(&mut self, mut i: usize) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.before(i, parent) {
                    self.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        }

        fn sift_down(&mut self, mut i: usize) {
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < self.heap.len() && self.before(l, smallest) {
                    smallest = l;
                }
                if r < self.heap.len() && self.before(r, smallest) {
                    smallest = r;
                }
                if smallest == i {
                    break;
                }
                self.swap(i, smallest);
                i = smallest;
            }
        }

        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.pos[self.heap[a].1 as usize] = Some(a as u32);
            self.pos[self.heap[b].1 as usize] = Some(b as u32);
        }
    }

    const SWAP_IDS: u32 = 48;

    /// Replays `ops` on `h` and on the swap form side by side: op `0..8`
    /// pops, `8` clears, anything else pushes (`id`, `key`). After every
    /// operation the return values, the heap arrays and the position of
    /// every id must agree.
    fn replay_against_swap_form<M: PositionMap, const TIE: bool>(
        mut h: RawIndexedHeap<M, TIE>,
        ops: &[(u8, u32, f64)],
    ) {
        let mut reference = SwapHeap::<TIE>::new(SWAP_IDS as usize);
        let same_state = |h: &RawIndexedHeap<M, TIE>, r: &SwapHeap<TIE>| {
            assert_eq!(h.heap, r.heap, "heap array");
            for id in 0..SWAP_IDS {
                assert_eq!(h.pos.get(id), r.pos[id as usize], "position of id {id}");
            }
        };
        for &(op, id, key) in ops {
            match op {
                0..=7 => assert_eq!(h.pop(), reference.pop(), "pop"),
                8 => {
                    h.clear();
                    reference.clear();
                }
                _ => assert_eq!(h.push(id, key), reference.push(id, key), "push({id}, {key})"),
            }
            same_state(&h, &reference);
        }
        while let Some(got) = h.pop() {
            assert_eq!(Some(got), reference.pop(), "drain");
            same_state(&h, &reference);
        }
        assert!(reference.heap.is_empty());
    }

    proptest! {
        /// Hole sifting against the swap form, under floods of equal
        /// keys (three distinct values, so almost every comparison is a
        /// tie and the untied variant's order is pure heap structure):
        /// same pops, same array, same position map, after every step.
        #[test]
        fn hole_sifting_matches_swap_form_under_equal_key_floods(
            ops in collection::vec((0u8..32, 0u32..SWAP_IDS, 0u8..3), 1..400),
        ) {
            let ops: Vec<(u8, u32, f64)> =
                ops.into_iter().map(|(op, id, k)| (op, id, f64::from(k))).collect();
            replay_against_swap_form(IndexedBinaryHeap::new(SWAP_IDS as usize), &ops);
            replay_against_swap_form(TieStampedIndexedHeap::new(0), &ops);
        }

        /// The same with spread-out keys, where decrease-keys sift far.
        #[test]
        fn hole_sifting_matches_swap_form_on_distinct_keys(
            ops in collection::vec((0u8..32, 0u32..SWAP_IDS, 0.0f64..100.0), 1..400),
        ) {
            replay_against_swap_form(IndexedBinaryHeap::new(SWAP_IDS as usize), &ops);
            replay_against_swap_form(TieStampedIndexedHeap::new(0), &ops);
        }
    }

    proptest! {
        /// Both variants agree with a sorted reference under random
        /// workloads, including decrease-key.
        #[test]
        fn matches_reference(ops in proptest::collection::vec((0u32..64, 0.0f64..100.0), 1..200)) {
            reference_run(IndexedBinaryHeap::new(64), ops.clone());
            reference_run(RawIndexedHeap::<StampedPos>::new(0), ops);
        }

        /// The tie-ordered variant pops in exact `(key, id)` order, not
        /// merely non-decreasing keys — keys are drawn from a tiny pool
        /// so equal-key runs are the common case.
        #[test]
        fn tie_ordered_pops_in_key_then_id_order(
            ops in proptest::collection::vec((0u32..32, 0u8..4), 1..200),
        ) {
            let mut h = TieStampedIndexedHeap::new(0);
            let mut reference: std::collections::HashMap<u32, f64> = Default::default();
            for &(id, k) in &ops {
                let key = k as f64;
                h.push(id, key);
                let cur = reference.get(&id).copied();
                if cur.is_none_or(|c| key < c) {
                    reference.insert(id, key);
                }
                h.check_invariants();
            }
            let mut want: Vec<(f64, u32)> = reference.into_iter().map(|(id, k)| (k, id)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut got = Vec::new();
            while let Some((id, k)) = h.pop() {
                got.push((k, id));
            }
            prop_assert_eq!(got, want, "pop order must be exactly (key, id)");
        }
    }
}
