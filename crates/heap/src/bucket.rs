//! Monotone bucket (Dial) queue over quantized `f64` keys.
//!
//! Grid edge costs are bounded and near-uniform, so the label keys of a
//! windowed search cluster into a narrow band: a comparison heap pays
//! `O(log n)` per operation to maintain an order that an array of
//! buckets indexes directly. [`BucketQueue`] quantizes each key by a
//! per-solve quantum (derived from the minimum positive edge cost) and
//! files the label into `key / quantum`'s bucket; extraction walks a
//! cursor over the bucket array instead of sifting a heap.
//!
//! Two departures from a textbook Dial queue keep it *exact* rather
//! than approximate, because this solver cannot tolerate approximate
//! extraction order:
//!
//! * **Within a bucket, entries are a tiny binary heap** ordered by the
//!   total `(key, search, vertex)` order — the same order
//!   [`TwoLevelHeap`] serves. A plain FIFO bucket would pop equal-quantum
//!   labels in arrival order, which is both nondeterministic across
//!   queue implementations and *wrong* under A*: with a consistent
//!   lower bound, a relaxation may produce a key in the currently
//!   draining bucket but smaller than its remaining entries, and the
//!   merge solver never revisits settled vertices.
//! * **Keys are not assumed monotone.** Component merges seed fresh
//!   searches at low keys and `note_new_targets` lowers A* bounds
//!   mid-run, so the scan cursor rewinds whenever a push lands below
//!   it. Out-of-range keys (beyond the fixed bucket span, or pushed by
//!   callers with no meaningful quantum) go to an overflow heap that is
//!   consulted whenever the bucket array drains.
//!
//! Deleted and improved labels are removed *lazily*: a bucket entry is
//! live iff its search is alive and its key equals that (search,
//! vertex)'s current queued key; stale entries are pruned when the
//! cursor meets them. This is why [`BucketQueue::peek_key`] takes
//! `&mut self`, mirroring [`TwoLevelHeap::peek_key`].
//!
//! The queue comes in two layers over one bucket algorithm:
//!
//! * [`BucketCore`] is the bucket array, the overflow heap, the cursor
//!   and the count of queued labels — and no per-search state. Whoever
//!   already stores each label's queued key (the CD solver keeps it in
//!   its label record) passes the liveness test to
//!   [`peek_key`](BucketCore::peek_key) / [`pop`](BucketCore::pop) as a
//!   closure, so a (search, vertex) pair costs no second slab here.
//! * [`BucketQueue`] is the core plus one epoch-stamped key slab per
//!   search: the self-contained [`LabelQueue`](crate::LabelQueue) that
//!   the pop-sequence proptest holds to [`TwoLevelHeap`] and the
//!   benchmark's queue row times.
//!
//! [`TwoLevelHeap`]: crate::TwoLevelHeap
//! [`TwoLevelHeap::peek_key`]: crate::TwoLevelHeap::peek_key

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of direct-mapped buckets; keys at or beyond
/// `NUM_BUCKETS × quantum` live in the overflow heap.
const NUM_BUCKETS: usize = 4096;

/// A queued label, packed into one word: the monotone bit image of the
/// key in the high 64 bits, then `search`, then `vertex`, so `u128`
/// integer order *is* the shared `(key, search, vertex)` total order
/// and each slot of a bucket heap is a single 16-byte word instead of
/// a padded tuple. `Reverse` makes each per-bucket heap (and the
/// overflow heap) a min-heap in that order.
type Entry = Reverse<u128>;

/// Monotone order-preserving map from a (non-NaN) `f64` key to the
/// high word of an [`Entry`]: non-negative keys get their sign bit
/// set, negative keys get all bits flipped, so unsigned integer order
/// on the images equals numeric order on the keys. `-0.0` is
/// canonicalized to `+0.0` *before* mapping: numerically (and under
/// `OrderedF64`, which both queue backends historically shared)
/// `-0.0 == +0.0`, so the tie must fall through to `(search, vertex)`
/// — the raw bit images would instead sort every `-0.0` strictly
/// first. The canonicalization is invisible to the liveness test,
/// which compares keys with `f64` equality.
#[inline]
fn pack(key: f64, search: u32, vertex: u32) -> u128 {
    let b = (key + 0.0).to_bits(); // -0.0 + 0.0 == +0.0; identity otherwise
    let ord = if b >> 63 == 1 { !b } else { b | (1u64 << 63) };
    ((ord as u128) << 64) | ((search as u128) << 32) | vertex as u128
}

/// Exact inverse of [`pack`] (up to the `-0.0 → +0.0`
/// canonicalization, which `f64` equality cannot observe).
#[inline]
fn unpack(e: u128) -> (f64, u32, u32) {
    let ord = (e >> 64) as u64;
    let b = if ord >> 63 == 1 { ord ^ (1u64 << 63) } else { !ord };
    (f64::from_bits(b), (e >> 32) as u32, e as u32)
}

/// Per-search label slab: best key per vertex, epoch-stamped so
/// clearing a retired search is an `O(1)` epoch bump and the backing
/// arrays stay warm across pooled reuse (same trick as the
/// `StampedPos` map backing [`TwoLevelHeap`](crate::TwoLevelHeap)).
#[derive(Debug, Clone)]
struct KeySlab {
    stamp: Vec<u32>,
    key: Vec<f64>,
    epoch: u32,
    /// Labels currently queued (created and not yet popped).
    live: usize,
}

impl Default for KeySlab {
    fn default() -> Self {
        // epochs start at 1: stamp 0 (the resize fill and the `remove`
        // sentinel) must never read as live
        KeySlab { stamp: Vec::new(), key: Vec::new(), epoch: 1, live: 0 }
    }
}

impl KeySlab {
    fn get(&self, v: u32) -> Option<f64> {
        match self.stamp.get(v as usize) {
            Some(&s) if s == self.epoch => Some(self.key[v as usize]),
            _ => None,
        }
    }

    fn set(&mut self, v: u32, k: f64) {
        let i = v as usize;
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
            self.key.resize(i + 1, 0.0);
        }
        self.stamp[i] = self.epoch;
        self.key[i] = k;
    }

    fn remove(&mut self, v: u32) {
        // 0 is never a live epoch (epochs start at 1)
        self.stamp[v as usize] = 0;
    }

    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.live = 0;
    }
}

/// Where [`BucketCore::settle_min`] found the global minimum.
#[derive(Clone, Copy)]
enum Loc {
    Main(usize),
    Overflow,
}

/// The bucket algorithm without per-search state: files
/// (search, vertex, key) entries and extracts them in the total
/// `(key, search, vertex)` order, asking the caller which entries are
/// still live.
///
/// The caller owns each label's queued key and keeps the core's count
/// of queued labels exact: a [`push`](Self::push) says whether it
/// queues a new label or supersedes the label's previous entry, a
/// successful [`pop`](Self::pop) counts one label out, and
/// [`forget`](Self::forget) counts out the labels of a retired search.
/// An empty count answers `None` without touching the buckets, so the
/// count also decides how far the cursor scans.
///
/// ```
/// use cds_heap::BucketCore;
/// let mut q = BucketCore::new();
/// q.begin_solve(1.0);
/// q.push(0, 10, 2.0, true);
/// q.push(0, 10, 1.0, false); // decrease-key: the 2.0 entry goes stale
/// let live = |_s: u32, _v: u32, k: f64| k == 1.0;
/// assert_eq!(q.pop(live), Some((0, 10, 1.0)));
/// assert_eq!(q.pop(live), None);
/// ```
#[derive(Debug)]
pub struct BucketCore {
    /// `1 / quantum`; multiplying is cheaper than dividing per push.
    quantum_inv: f64,
    /// Direct-mapped buckets, each a tiny min-heap in the total order.
    /// Cleared lazily via `bucket_gen` so a solve touches only the
    /// buckets it uses.
    buckets: Vec<BinaryHeap<Entry>>,
    bucket_gen: Vec<u32>,
    epoch: u32,
    /// Keys at or beyond the bucket span. Strictly greater than every
    /// in-range key (disjoint quantized ranges), so it is consulted
    /// only when the bucket array holds no live entry.
    overflow: BinaryHeap<Entry>,
    /// No live entry sits in `buckets[..scan_from]`; pushes below the
    /// cursor rewind it (keys are not assumed monotone).
    scan_from: usize,
    /// Labels queued (one live entry each).
    len: usize,
    scans: u64,
}

impl Default for BucketCore {
    fn default() -> Self {
        BucketCore {
            quantum_inv: 1.0,
            buckets: (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            bucket_gen: vec![0; NUM_BUCKETS],
            epoch: 1,
            overflow: BinaryHeap::new(),
            scan_from: NUM_BUCKETS,
            len: 0,
            scans: 0,
        }
    }
}

impl BucketCore {
    /// Creates an empty core with a quantum of 1.0; call
    /// [`begin_solve`](Self::begin_solve) to set the per-solve quantum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a new solve with the given key quantum (derived from
    /// the minimum positive edge cost of the instance). Any positive
    /// finite quantum is *correct* — extraction order never depends on
    /// it — a misestimate only shifts work between the bucket cursor
    /// (quantum too small: many empty buckets) and the per-bucket heaps
    /// (too large: fat buckets). Non-positive or non-finite hints fall
    /// back to 1.0. All allocations are kept.
    pub fn begin_solve(&mut self, quantum: f64) {
        self.clear();
        self.quantum_inv = if quantum.is_finite() && quantum > 0.0 { quantum.recip() } else { 1.0 };
    }

    /// Drops every entry while keeping all allocations. Used buckets are
    /// invalidated by one epoch bump, not walked.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            for b in &mut self.buckets {
                b.clear();
            }
            self.bucket_gen.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.overflow.clear();
        self.scan_from = NUM_BUCKETS;
        self.len = 0;
        self.scans = 0;
    }

    /// Number of queued labels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no labels are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets the cursor advanced over since
    /// [`begin_solve`](Self::begin_solve) — the price Dial pays instead
    /// of heap sifts.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Bucket index for `key`: `NUM_BUCKETS` means the overflow heap.
    /// Negative keys clamp to bucket 0 (the cast saturates), which is
    /// harmless: bucket 0 is scanned first, and order *within* a bucket
    /// is exact regardless of quantization.
    #[inline]
    fn bucket_of(&self, key: f64) -> usize {
        ((key * self.quantum_inv) as usize).min(NUM_BUCKETS)
    }

    /// The bucket at `b`, lazily cleared if it still holds entries from
    /// a pre-`clear` era.
    #[inline]
    fn bucket(&mut self, b: usize) -> &mut BinaryHeap<Entry> {
        if self.bucket_gen[b] != self.epoch {
            self.bucket_gen[b] = self.epoch;
            self.buckets[b].clear();
        }
        &mut self.buckets[b]
    }

    /// Files an entry for `vertex` of `search` at `key`. `fresh` says
    /// the label was not queued before and counts it in; otherwise the
    /// entry supersedes the label's previous one, which the caller's
    /// liveness test must reject from now on. The caller records `key`
    /// as the label's queued key — the core keeps no copy.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    #[inline]
    pub fn push(&mut self, search: u32, vertex: u32, key: f64, fresh: bool) {
        assert!(!key.is_nan(), "NaN key");
        self.len += usize::from(fresh);
        let b = self.bucket_of(key);
        let entry = Reverse(pack(key, search, vertex));
        if b == NUM_BUCKETS {
            self.overflow.push(entry);
        } else {
            self.bucket(b).push(entry);
            if b < self.scan_from {
                self.scan_from = b;
            }
        }
    }

    /// Counts out `n` queued labels whose entries the caller's liveness
    /// test now rejects wholesale (a retired search); the entries are
    /// pruned lazily when the cursor meets them.
    pub fn forget(&mut self, n: usize) {
        self.len -= n;
    }

    /// Minimum live key, if any. `&mut self` for the same reason as
    /// [`TwoLevelHeap::peek_key`](crate::TwoLevelHeap::peek_key):
    /// deletions are lazy, and answering the question prunes dead
    /// entries and advances the scan cursor. `live(search, vertex,
    /// key)` tells a live entry from a stale one.
    pub fn peek_key(&mut self, live: impl Fn(u32, u32, f64) -> bool) -> Option<f64> {
        self.settle_min(&live).map(|loc| {
            let Reverse(e) = *match loc {
                // INVARIANT: settle_min returns a location only after discarding dead tops and observing a live entry there.
                Loc::Main(b) => self.buckets[b].peek().expect("settled bucket has a live top"),
                // INVARIANT: settle_min discards dead overflow tops before returning Loc::Overflow.
                Loc::Overflow => self.overflow.peek().expect("settled overflow has a live top"),
            };
            unpack(e).0
        })
    }

    /// Extracts the globally smallest live (search, vertex, key) under
    /// the total `(key, search, vertex)` order and counts its label out
    /// of the queue; the caller must stop reporting it live.
    pub fn pop(&mut self, live: impl Fn(u32, u32, f64) -> bool) -> Option<(u32, u32, f64)> {
        let loc = self.settle_min(&live)?;
        let Reverse(e) = match loc {
            Loc::Main(b) => self.buckets[b].pop(),
            Loc::Overflow => self.overflow.pop(),
        }
        // INVARIANT: settle_min just observed a live top at loc, and nothing popped between.
        .expect("settled location has a live top");
        let (k, search, vertex) = unpack(e);
        self.len -= 1;
        Some((search, vertex, k))
    }

    /// Locates the global minimum live entry, pruning stale entries and
    /// advancing the cursor past drained buckets on the way. Quantized
    /// bucket ranges are disjoint and ordered, so the first bucket with
    /// a live top holds the minimum key, its per-bucket heap breaks the
    /// in-bucket tie exactly, and the overflow heap (all keys beyond
    /// the span) is correct to consult only when the array is empty.
    fn settle_min(&mut self, live: &impl Fn(u32, u32, f64) -> bool) -> Option<Loc> {
        if self.len == 0 {
            return None;
        }
        while self.scan_from < NUM_BUCKETS {
            let b = self.scan_from;
            while let Some(&Reverse(e)) = self.bucket(b).peek() {
                let (k, s, v) = unpack(e);
                if live(s, v, k) {
                    return Some(Loc::Main(b));
                }
                self.bucket(b).pop();
            }
            self.scan_from += 1;
            self.scans += 1;
        }
        loop {
            let &Reverse(e) = self.overflow.peek()?;
            let (k, s, v) = unpack(e);
            if live(s, v, k) {
                return Some(Loc::Overflow);
            }
            self.overflow.pop();
        }
    }
}

/// Monotone bucket queue over (search, vertex, key) triples — the Dial
/// alternative to [`TwoLevelHeap`](crate::TwoLevelHeap), sharing its
/// exact surface *and its exact pop order* `(key, search, vertex)`
/// (pinned by the `pop_sequence_matches_two_level_heap` proptest), so
/// the goldens recorded over the heap stay valid over this queue.
/// It is a [`BucketCore`] plus one key slab per search.
///
/// ```
/// use cds_heap::BucketQueue;
/// let mut q = BucketQueue::new();
/// q.begin_solve(1.0); // quantum: min positive edge cost
/// let a = q.add_search();
/// let b = q.add_search();
/// q.push(a, 10, 2.0);
/// q.push(b, 20, 1.0);
/// q.push(a, 11, 3.0);
/// assert_eq!(q.pop(), Some((b, 20, 1.0)));
/// assert_eq!(q.pop(), Some((a, 10, 2.0)));
/// assert_eq!(q.pop(), Some((a, 11, 3.0)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct BucketQueue {
    core: BucketCore,
    slabs: Vec<Option<KeySlab>>,
    pool: Vec<KeySlab>,
}

/// Whether a queued entry is live: its search alive and its key equal
/// to the slab's best (improvements are strict decreases, so an equal
/// key can only be the entry that recorded it).
#[inline]
fn slab_live(slabs: &[Option<KeySlab>], search: u32, vertex: u32, key: f64) -> bool {
    slabs[search as usize].as_ref().is_some_and(|s| s.get(vertex) == Some(key))
}

impl BucketQueue {
    /// Creates an empty queue with a quantum of 1.0; call
    /// [`begin_solve`](Self::begin_solve) to set the per-solve quantum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a new solve with the given key quantum; see
    /// [`BucketCore::begin_solve`]. All allocations are kept.
    pub fn begin_solve(&mut self, quantum: f64) {
        self.clear();
        self.core.begin_solve(quantum);
    }

    /// Registers a new search and returns its id.
    pub fn add_search(&mut self) -> u32 {
        let id = self.slabs.len() as u32;
        let slab = self.pool.pop().unwrap_or_default();
        debug_assert_eq!(slab.live, 0, "pooled slabs are cleared on retire");
        self.slabs.push(Some(slab));
        id
    }

    /// Drops a search and all its queued labels; its bucket entries are
    /// pruned lazily when the scan cursor meets them. The slab's
    /// storage is retained for the next [`add_search`](Self::add_search).
    ///
    /// # Panics
    ///
    /// Panics if `search` was never added.
    pub fn remove_search(&mut self, search: u32) {
        let slot = &mut self.slabs[search as usize];
        if let Some(mut slab) = slot.take() {
            self.core.forget(slab.live);
            slab.clear();
            self.pool.push(slab);
        }
    }

    /// Removes every search and label while keeping all allocations.
    /// After `clear`, search ids restart from zero.
    pub fn clear(&mut self) {
        for slot in &mut self.slabs {
            if let Some(mut slab) = slot.take() {
                slab.clear();
                self.pool.push(slab);
            }
        }
        self.slabs.clear();
        self.core.clear();
    }

    /// Whether `search` is still alive.
    pub fn is_alive(&self, search: u32) -> bool {
        self.slabs.get(search as usize).is_some_and(|s| s.is_some())
    }

    /// Total number of queued labels over all live searches.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether no labels are queued.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Buckets the cursor advanced over since
    /// [`begin_solve`](Self::begin_solve).
    pub fn scans(&self) -> u64 {
        self.core.scans()
    }

    /// Queues (or improves) the label of `vertex` in `search`.
    /// Returns `true` if the label changed. Quietly ignores dead
    /// searches.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn push(&mut self, search: u32, vertex: u32, key: f64) -> bool {
        assert!(!key.is_nan(), "NaN key");
        let Some(slab) = self.slabs[search as usize].as_mut() else {
            return false;
        };
        match slab.get(vertex) {
            Some(cur) if key >= cur => false,
            prior => {
                let fresh = prior.is_none();
                slab.live += usize::from(fresh);
                slab.set(vertex, key);
                self.core.push(search, vertex, key, fresh);
                true
            }
        }
    }

    /// Minimum key over all searches, if any; see
    /// [`BucketCore::peek_key`].
    pub fn peek_key(&mut self) -> Option<f64> {
        let slabs = &self.slabs;
        self.core.peek_key(|s, v, k| slab_live(slabs, s, v, k))
    }

    /// Extracts the globally smallest (search, vertex, key) under the
    /// total `(key, search, vertex)` order.
    pub fn pop(&mut self) -> Option<(u32, u32, f64)> {
        let slabs = &self.slabs;
        let (search, vertex, k) = self.core.pop(|s, v, k| slab_live(slabs, s, v, k))?;
        // INVARIANT: the core pops only entries slab_live accepted, and slab_live accepts only entries of a search whose slab is present.
        let slab = self.slabs[search as usize].as_mut().expect("live entry has a live search");
        slab.remove(vertex);
        slab.live -= 1;
        Some((search, vertex, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoLevelHeap;
    use proptest::prelude::*;

    #[test]
    fn single_search_behaves_like_heap() {
        let mut q = BucketQueue::new();
        q.begin_solve(1.0);
        let s = q.add_search();
        for (v, k) in [(5u32, 5.0), (1, 1.0), (3, 3.0)] {
            q.push(s, v, k);
        }
        assert_eq!(q.peek_key(), Some(1.0));
        assert_eq!(q.pop(), Some((s, 1, 1.0)));
        assert_eq!(q.pop(), Some((s, 3, 3.0)));
        assert_eq!(q.pop(), Some((s, 5, 5.0)));
        assert_eq!(q.pop(), None);
        assert!(q.scans() > 0, "the cursor did the ordering work");
    }

    #[test]
    fn decrease_key_refiles_and_prunes_the_stale_entry() {
        let mut q = BucketQueue::new();
        q.begin_solve(1.0);
        let a = q.add_search();
        let b = q.add_search();
        q.push(a, 0, 10.0);
        q.push(b, 0, 9.0);
        assert!(q.push(a, 0, 1.0), "decrease-key refiles into a lower bucket");
        assert!(!q.push(a, 0, 5.0), "increases are ignored");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((a, 0, 1.0)));
        assert_eq!(q.pop(), Some((b, 0, 9.0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn removed_search_is_skipped() {
        let mut q = BucketQueue::new();
        q.begin_solve(1.0);
        let a = q.add_search();
        let b = q.add_search();
        q.push(a, 1, 1.0);
        q.push(b, 2, 2.0);
        q.remove_search(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((b, 2, 2.0)));
        assert_eq!(q.pop(), None);
        assert!(!q.is_alive(a));
        assert!(!q.push(a, 9, 0.1), "push to dead search ignored");
    }

    #[test]
    fn overflow_keys_and_rewinds_stay_exact() {
        // keys beyond NUM_BUCKETS × quantum land in overflow; a later
        // low push must rewind the cursor and still win
        let mut q = BucketQueue::new();
        q.begin_solve(1.0);
        let s = q.add_search();
        q.push(s, 1, 1e9);
        q.push(s, 2, (NUM_BUCKETS as f64) + 0.5);
        assert_eq!(q.peek_key(), Some((NUM_BUCKETS as f64) + 0.5));
        q.push(s, 3, 2.25); // rewind below the (drained) array cursor
        assert_eq!(q.pop(), Some((s, 3, 2.25)));
        assert_eq!(q.pop(), Some((s, 2, (NUM_BUCKETS as f64) + 0.5)));
        assert_eq!(q.pop(), Some((s, 1, 1e9)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_keeps_reusable_state() {
        let mut q = BucketQueue::new();
        q.begin_solve(0.25);
        let a = q.add_search();
        let b = q.add_search();
        q.push(a, 1, 1.0);
        q.push(b, 2, 2.0);
        q.pop();
        q.begin_solve(2.0);
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        let s = q.add_search();
        assert_eq!(s, 0, "ids restart from zero");
        q.push(s, 7, 0.5);
        assert_eq!(q.pop(), Some((s, 7, 0.5)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_keys_drain_by_search_then_vertex() {
        // same flood as the TwoLevelHeap test — one contract, two queues
        let mut q = BucketQueue::new();
        q.begin_solve(1.0);
        let a = q.add_search();
        let b = q.add_search();
        q.push(b, 9, 1.0);
        q.push(b, 2, 1.0);
        q.push(a, 7, 1.0);
        q.push(a, 3, 1.0);
        q.push(b, 50, 0.5);
        assert_eq!(q.pop(), Some((b, 50, 0.5)));
        assert_eq!(q.pop(), Some((a, 3, 1.0)));
        assert_eq!(q.pop(), Some((a, 7, 1.0)));
        assert_eq!(q.pop(), Some((b, 2, 1.0)));
        assert_eq!(q.pop(), Some((b, 9, 1.0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn negative_zero_ties_break_on_search_then_vertex() {
        // -0.0 == +0.0 numerically, so the tie must fall through to
        // (search, vertex) exactly as TwoLevelHeap resolves it: the
        // packed-word canonicalization is what keeps the raw bit image
        // of -0.0 from jumping the queue.
        let mut q = BucketQueue::new();
        let mut h = TwoLevelHeap::new();
        q.begin_solve(1.0);
        let a = q.add_search();
        let b = q.add_search();
        assert_eq!(a, h.add_search());
        assert_eq!(b, h.add_search());
        for (s, v, k) in [(b, 4u32, 0.0f64), (a, 9, -0.0), (a, 2, 0.0), (b, 1, -0.0)] {
            assert_eq!(q.push(s, v, k), h.push(s, v, k));
        }
        loop {
            let (x, y) = (q.pop(), h.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn core_pop_skips_entries_the_liveness_closure_rejects() {
        // the caller's key table is the only liveness record: a
        // superseded entry and an entry of a retired search are skipped
        let mut q = BucketCore::new();
        q.begin_solve(1.0);
        let mut queued = [f64::NAN; 4]; // vertex → queued key of search 0
        for (v, k) in [(0u32, 3.0), (1, 2.0), (2, 5.0)] {
            q.push(0, v, k, true);
            queued[v as usize] = k;
        }
        q.push(0, 2, 1.0, false); // decrease-key supersedes the 5.0 entry
        queued[2] = 1.0;
        q.push(1, 3, 0.5, true); // search 1, retired below
        q.forget(1);
        let live = |s: u32, v: u32, k: f64| s == 0 && queued[v as usize] == k;
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_key(live), Some(1.0), "the retired search's 0.5 is skipped");
        assert_eq!(q.pop(live), Some((0, 2, 1.0)));
        assert_eq!(q.pop(live), Some((0, 1, 2.0)));
        assert_eq!(q.pop(live), Some((0, 0, 3.0)));
        assert_eq!(q.pop(live), None, "the stale 5.0 entry is never returned");
        assert!(q.is_empty());
    }

    #[test]
    fn an_empty_core_answers_without_advancing_the_cursor() {
        // entries remain filed, but no label is queued: the count, not
        // a bucket walk, answers — so `scans` (a pinned kernel counter)
        // does not move
        let mut q = BucketCore::new();
        q.begin_solve(1.0);
        q.push(3, 7, 100.5, true);
        q.forget(1);
        let everything_live = |_: u32, _: u32, _: f64| true;
        assert_eq!(q.peek_key(everything_live), None);
        assert_eq!(q.pop(everything_live), None);
        assert_eq!(q.scans(), 0);
    }

    #[test]
    fn packed_entries_round_trip_and_order_like_key_tuples() {
        // the u128 image must be an order isomorphism of the
        // (key, search, vertex) tuple order over non-NaN keys
        let keys = [-1.5e300, -2.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 4096.5, 1.5e300];
        let mut entries = Vec::new();
        for &k in &keys {
            for s in [0u32, 1, u32::MAX] {
                for v in [0u32, 7, u32::MAX] {
                    let e = pack(k, s, v);
                    let (k2, s2, v2) = unpack(e);
                    assert_eq!(k2, k, "key survives the round trip under f64 equality");
                    assert_eq!((s2, v2), (s, v));
                    entries.push(((k, s, v), e));
                }
            }
        }
        for &((ka, sa, va), ea) in &entries {
            for &((kb, sb, vb), eb) in &entries {
                let tuple =
                    (ka, sa, va).partial_cmp(&(kb, sb, vb)).expect("no NaN keys in the table");
                assert_eq!(ea.cmp(&eb), tuple, "{ka}/{sa}/{va} vs {kb}/{sb}/{vb}");
            }
        }
    }

    proptest! {
        /// The cross-queue determinism contract, pinned: under random
        /// interleavings of pushes (including same-key floods from the
        /// tiny key pool and far-out overflow keys), peeks, pops, and
        /// search removals, `BucketQueue` and `TwoLevelHeap` agree on
        /// every observable — each pop's exact (search, vertex, key)
        /// triple, every peeked key, every push's return value, and the
        /// running length.
        #[test]
        fn pop_sequence_matches_two_level_heap(
            n_searches in 1usize..6,
            quantum in (0u8..3).prop_map(|q| [1.0f64, 0.125, 37.0][q as usize]),
            ops in proptest::collection::vec(
                (0u32..6, 0u32..40, (0u8..10).prop_map(|k| if k < 8 {
                    // mostly a tiny pool: same-key floods are the point
                    k as f64 * 0.5
                } else {
                    // overflow-bucket territory for every quantum above
                    (k - 7) as f64 * 200_000.0
                }), 0u8..10),
                1..300,
            ),
        ) {
            let mut heap = TwoLevelHeap::new();
            let mut dial = BucketQueue::new();
            dial.begin_solve(quantum);
            let mut sids: Vec<u32> = Vec::new();
            for _ in 0..n_searches {
                let s = heap.add_search();
                prop_assert_eq!(s, dial.add_search());
                sids.push(s);
            }
            for (s, v, k, action) in ops {
                let sid = sids[(s as usize) % n_searches];
                if action < 6 {
                    prop_assert_eq!(heap.push(sid, v, k), dial.push(sid, v, k));
                } else if action < 8 {
                    prop_assert_eq!(heap.peek_key(), dial.peek_key());
                    prop_assert_eq!(heap.pop(), dial.pop());
                } else if heap.is_alive(sid) {
                    heap.remove_search(sid);
                    dial.remove_search(sid);
                }
                prop_assert_eq!(heap.len(), dial.len());
            }
            loop {
                let (a, b) = (heap.pop(), dial.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
