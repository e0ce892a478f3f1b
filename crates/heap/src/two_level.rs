//! The paper's two-level heap (§III-B).
//!
//! Algorithm 1 runs one Dijkstra per active sink *simultaneously* and must
//! repeatedly extract the globally smallest label. The two-level structure
//! keeps one heap per sink plus a top-level heap over the sinks' minimum
//! keys, and — the practical point of §III-B — keeps operating within a
//! single sink heap for as long as its minimum does not exceed the best
//! other sink, avoiding top-level traffic on every push/pop.

use crate::indexed::TieStampedIndexedHeap;
use crate::ordered::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Two-level priority queue over (search, vertex, key) triples.
///
/// Searches are identified by dense `u32` ids assigned by the caller;
/// vertices are dense `u32` ids keyed by epoch-stamped per-search slabs
/// that grow on demand and stay warm across pooled reuse. The top-level
/// heap is maintained lazily: entries may be stale and are validated
/// against the actual sub-heap minimum on extraction, which is exactly
/// what lets the structure stay within one sub-heap cheaply.
///
/// Pops are served in the **total order `(key, search, vertex)`** — the
/// sub-heaps break equal-key ties by ascending vertex id, and the top
/// level breaks equal sub-minima by ascending search id. This is the
/// determinism contract every label queue in the workspace shares:
/// [`BucketQueue`](crate::BucketQueue), the queue the solver runs on,
/// reproduces the exact same pop sequence.
///
/// ```
/// use cds_heap::TwoLevelHeap;
/// let mut h = TwoLevelHeap::new();
/// let a = h.add_search();
/// let b = h.add_search();
/// h.push(a, 10, 2.0);
/// h.push(b, 20, 1.0);
/// h.push(a, 11, 3.0);
/// assert_eq!(h.pop(), Some((b, 20, 1.0)));
/// assert_eq!(h.pop(), Some((a, 10, 2.0)));
/// assert_eq!(h.pop(), Some((a, 11, 3.0)));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct TwoLevelHeap {
    subs: Vec<Option<TieStampedIndexedHeap>>,
    /// Lazy top-level heap of (sub-min key, search id); may hold stale
    /// entries whose key is *lower* than the search's actual minimum
    /// (pops raise sub-minima) — never higher, because pushes that lower a
    /// sub-minimum insert a fresh entry.
    top: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    /// Search the last pop was served from; kept hot to exploit locality.
    current: Option<u32>,
    len: usize,
    /// Retired sub-heaps kept for reuse: a solver session adds and
    /// removes thousands of searches, and recycling the sub-heaps keeps
    /// their backing arrays (and hash tables) warm across searches *and*
    /// across [`clear`](Self::clear)ed runs.
    pool: Vec<TieStampedIndexedHeap>,
}

impl TwoLevelHeap {
    /// Creates an empty structure with no searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new search and returns its id.
    pub fn add_search(&mut self) -> u32 {
        let id = self.subs.len() as u32;
        let sub = self.pool.pop().unwrap_or_else(|| TieStampedIndexedHeap::new(0));
        debug_assert!(sub.is_empty(), "pooled sub-heaps are cleared on retire");
        self.subs.push(Some(sub));
        id
    }

    /// Drops a search and all its queued labels (used when a terminal is
    /// merged and its Dijkstra dies). The sub-heap's storage is retained
    /// for the next [`add_search`](Self::add_search).
    ///
    /// # Panics
    ///
    /// Panics if `search` was never added.
    pub fn remove_search(&mut self, search: u32) {
        let slot = &mut self.subs[search as usize];
        if let Some(mut sub) = slot.take() {
            self.len -= sub.len();
            sub.clear();
            self.pool.push(sub);
        }
        if self.current == Some(search) {
            self.current = None;
        }
    }

    /// Removes every search and label while keeping all allocations —
    /// the reset path of a reused
    /// [`SolverWorkspace`](../cds_core/struct.SolverWorkspace.html).
    /// After `clear`, search ids restart from zero.
    pub fn clear(&mut self) {
        for slot in &mut self.subs {
            if let Some(mut sub) = slot.take() {
                sub.clear();
                self.pool.push(sub);
            }
        }
        self.subs.clear();
        self.top.clear();
        self.current = None;
        self.len = 0;
    }

    /// Whether `search` is still alive.
    pub fn is_alive(&self, search: u32) -> bool {
        self.subs.get(search as usize).is_some_and(|s| s.is_some())
    }

    /// Total number of queued labels over all live searches.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no labels are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues (or improves) the label of `vertex` in `search`.
    /// Returns `true` if the label changed. Quietly ignores dead searches.
    pub fn push(&mut self, search: u32, vertex: u32, key: f64) -> bool {
        let Some(sub) = self.subs[search as usize].as_mut() else {
            return false;
        };
        let before = sub.len();
        let old_min = sub.peek().map(|(_, k)| k);
        let changed = sub.push(vertex, key);
        self.len += sub.len() - before;
        if changed && old_min.is_none_or(|m| key < m) {
            // New sub-minimum: publish to the top level.
            self.top.push(Reverse((OrderedF64::new(key), search)));
        }
        changed
    }

    /// Minimum key over all searches, if any.
    ///
    /// Takes `&mut self` by design, not by accident: the top level is
    /// maintained *lazily*, so at peek time it may hold entries for
    /// drained or removed searches and stale-low keys that pops have
    /// since raised. Answering "what is the global minimum" requires
    /// popping those dead entries and re-inserting corrected ones
    /// (the internal `refresh_top`) — a structural mutation. A
    /// `&self` peek would need interior mutability or an `O(searches)`
    /// scan per call; both cost more than the borrow is worth, since the
    /// solver always holds the queue exclusively anyway.
    /// [`BucketQueue`](crate::BucketQueue) mirrors the same signature
    /// for the same reason (its lazy deletions are pruned at peek time),
    /// so the two queues share one trait-shaped surface.
    pub fn peek_key(&mut self) -> Option<f64> {
        self.refresh_top();
        // After refresh, compare the hot search against the top entry.
        let cur = self.current_min();
        let top = self.top.peek().map(|Reverse((k, _))| k.get());
        match (cur, top) {
            (Some(c), Some(t)) => Some(c.min(t)),
            (Some(c), None) => Some(c),
            (None, Some(t)) => Some(t),
            (None, None) => None,
        }
    }

    /// Extracts the globally smallest (search, vertex, key) under the
    /// total `(key, search, vertex)` order.
    pub fn pop(&mut self) -> Option<(u32, u32, f64)> {
        // Fast path (§III-B): if the current search is the `(key, sid)`
        // minimum, serve it without top maintenance. After the refresh
        // in `valid_top_peek`, the top head is accurate, so the
        // lexicographic comparison decides ties by search id exactly as
        // the total order demands (the head entry may be `cur` itself,
        // in which case equality holds and `cur` wins).
        if let Some(cur) = self.current {
            if let Some(cmin) = self.current_min() {
                let beats_top = match self.valid_top_peek() {
                    Some((tkey, tsid)) => (cmin, cur) <= (tkey, tsid),
                    None => true,
                };
                if beats_top {
                    return self.pop_from(cur);
                }
            }
        }
        self.refresh_top();
        let &Reverse((_, sid)) = self.top.peek()?;
        self.current = Some(sid);
        self.pop_from(sid)
    }

    fn pop_from(&mut self, sid: u32) -> Option<(u32, u32, f64)> {
        let sub = self.subs[sid as usize].as_mut()?;
        let (v, k) = sub.pop()?;
        self.len -= 1;
        Some((sid, v, k))
    }

    fn current_min(&self) -> Option<f64> {
        let cur = self.current?;
        self.subs[cur as usize].as_ref()?.peek().map(|(_, k)| k)
    }

    /// Pops stale/dead top entries and re-inserts corrected ones until the
    /// top of the heap is accurate.
    fn refresh_top(&mut self) {
        while let Some(&Reverse((k, sid))) = self.top.peek() {
            match self.subs[sid as usize].as_ref().and_then(|s| s.peek()) {
                None => {
                    self.top.pop(); // dead or drained search
                }
                Some((_, actual)) if actual > k.get() => {
                    self.top.pop(); // stale-low entry; correct it
                    self.top.push(Reverse((OrderedF64::new(actual), sid)));
                }
                Some(_) => break, // accurate
            }
        }
    }

    /// Accurate top-level minimum (key, search), if any.
    fn valid_top_peek(&mut self) -> Option<(f64, u32)> {
        self.refresh_top();
        self.top.peek().map(|&Reverse((k, sid))| (k.get(), sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_search_behaves_like_heap() {
        let mut h = TwoLevelHeap::new();
        let s = h.add_search();
        for (v, k) in [(5u32, 5.0), (1, 1.0), (3, 3.0)] {
            h.push(s, v, k);
        }
        assert_eq!(h.pop(), Some((s, 1, 1.0)));
        assert_eq!(h.pop(), Some((s, 3, 3.0)));
        assert_eq!(h.pop(), Some((s, 5, 5.0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn decrease_key_across_searches() {
        let mut h = TwoLevelHeap::new();
        let a = h.add_search();
        let b = h.add_search();
        h.push(a, 0, 10.0);
        h.push(b, 0, 9.0);
        assert!(h.push(a, 0, 1.0), "decrease-key in sub-heap");
        assert_eq!(h.pop(), Some((a, 0, 1.0)));
        assert_eq!(h.pop(), Some((b, 0, 9.0)));
    }

    #[test]
    fn removed_search_is_skipped() {
        let mut h = TwoLevelHeap::new();
        let a = h.add_search();
        let b = h.add_search();
        h.push(a, 1, 1.0);
        h.push(b, 2, 2.0);
        h.remove_search(a);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(), Some((b, 2, 2.0)));
        assert_eq!(h.pop(), None);
        assert!(!h.is_alive(a));
        assert!(!h.push(a, 9, 0.1), "push to dead search ignored");
    }

    #[test]
    fn clear_keeps_reusable_state() {
        let mut h = TwoLevelHeap::new();
        let a = h.add_search();
        let b = h.add_search();
        h.push(a, 1, 1.0);
        h.push(b, 2, 2.0);
        h.pop();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.peek_key(), None);
        // ids restart from zero and the structure behaves like new
        let s = h.add_search();
        assert_eq!(s, 0);
        h.push(s, 7, 0.5);
        assert_eq!(h.pop(), Some((s, 7, 0.5)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn interleaved_pushes_keep_global_order() {
        let mut h = TwoLevelHeap::new();
        let a = h.add_search();
        let b = h.add_search();
        h.push(a, 1, 5.0);
        h.push(b, 2, 4.0);
        assert_eq!(h.pop(), Some((b, 2, 4.0)));
        // while "current" is b, a push to a with a smaller key must win
        h.push(b, 3, 6.0);
        h.push(a, 4, 0.5);
        assert_eq!(h.pop(), Some((a, 4, 0.5)));
        assert_eq!(h.pop(), Some((a, 1, 5.0)));
        assert_eq!(h.pop(), Some((b, 3, 6.0)));
    }

    #[test]
    fn equal_keys_drain_by_search_then_vertex() {
        // The cross-queue determinism contract: ties resolve by search
        // id first, vertex id second — regardless of push order or
        // which search is "current".
        let mut h = TwoLevelHeap::new();
        let a = h.add_search();
        let b = h.add_search();
        h.push(b, 9, 1.0);
        h.push(b, 2, 1.0);
        h.push(a, 7, 1.0);
        h.push(a, 3, 1.0);
        // make b "current" at a higher key, then flood equal keys
        h.push(b, 50, 0.5);
        assert_eq!(h.pop(), Some((b, 50, 0.5)));
        assert_eq!(h.pop(), Some((a, 3, 1.0)));
        assert_eq!(h.pop(), Some((a, 7, 1.0)));
        assert_eq!(h.pop(), Some((b, 2, 1.0)));
        assert_eq!(h.pop(), Some((b, 9, 1.0)));
        assert_eq!(h.pop(), None);
    }

    proptest! {
        /// Pops come out in globally non-decreasing key order and match a
        /// flat reference heap, under random interleavings of pushes,
        /// pops, and search removals.
        #[test]
        fn matches_flat_reference(
            n_searches in 1usize..6,
            ops in proptest::collection::vec((0u32..6, 0u32..40, 0.0f64..100.0, 0u8..10), 1..300)
        ) {
            let mut h = TwoLevelHeap::new();
            let sids: Vec<u32> = (0..n_searches).map(|_| h.add_search()).collect();
            // reference: best key per (search, vertex)
            let mut reference: std::collections::HashMap<(u32, u32), f64> = Default::default();
            for (s, v, k, action) in ops {
                let sid = sids[(s as usize) % n_searches];
                if action < 7 {
                    if h.push(sid, v, k) {
                        let e = reference.entry((sid, v)).or_insert(f64::INFINITY);
                        *e = e.min(k);
                    }
                } else if action == 7 {
                    // pop once and compare against the reference minimum
                    let want = reference.iter()
                        .min_by(|x, y| x.1.partial_cmp(y.1).unwrap());
                    match (h.pop(), want) {
                        (Some((gs, gv, gk)), Some((&(ws, wv), &wk))) => {
                            prop_assert_eq!(gk, wk);
                            // ties may resolve differently; remove what we got
                            prop_assert!(reference.remove(&(gs, gv)).is_some());
                            let _ = (ws, wv);
                        }
                        (None, None) => {}
                        (got, want) => prop_assert!(false, "mismatch {:?} vs {:?}", got, want),
                    }
                } else {
                    let sid = sids[(s as usize) % n_searches];
                    h.remove_search(sid);
                    reference.retain(|&(rs, _), _| rs != sid);
                }
                prop_assert_eq!(h.len(), reference.len());
            }
            // drain
            let mut drained: Vec<f64> = Vec::new();
            while let Some((_, _, k)) = h.pop() { drained.push(k); }
            let mut want: Vec<f64> = reference.values().copied().collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in drained.windows(2) { prop_assert!(w[0] <= w[1]); }
            let mut got = drained.clone();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(got, want);
        }
    }
}
