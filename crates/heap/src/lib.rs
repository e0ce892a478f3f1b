#![forbid(unsafe_code)]
//! Priority queues for label-propagation path searches.
//!
//! The paper (§III-B) observes that global routing graphs have `m ∈ O(n)`,
//! so plain binary heaps beat Fibonacci heaps in practice, and proposes a
//! *two-level* structure for the simultaneous multi-source searches of
//! Algorithm 1: one heap per active sink plus a top-level heap storing the
//! minimum key of each sink heap. This crate implements:
//!
//! * [`OrderedF64`] — a total order over non-NaN `f64` keys,
//! * [`IndexedBinaryHeap`] — a `u32`-keyed binary min-heap with
//!   `decrease-key`, the workhorse of every Dijkstra in this workspace,
//! * [`TwoLevelHeap`] — the paper's structure (§III-B), including the
//!   "operate with a single sink heap until the minimum label in the
//!   top-level heap is exceeded" fast path,
//! * [`BucketCore`] — a monotone bucket (Dial) queue over quantized
//!   keys: grid edge costs are bounded and near-uniform, so an indexed
//!   bucket array replaces `O(log n)` heap sifts on the solver's hot
//!   path. The core keeps no per-search state: the caller stores each
//!   label's queued key and answers its liveness test,
//! * [`BucketQueue`] — the core plus one key slab per search, a
//!   self-contained queue.
//!
//! [`TwoLevelHeap`] and [`BucketQueue`] share the [`LabelQueue`] surface
//! *and the total pop order* `(key, search, vertex)`, pinned by the
//! pop-sequence proptest in [`bucket`]. The solver runs on
//! [`BucketCore`] with the queued keys in its own label records;
//! [`BucketQueue`] is the same bucket algorithm behind the
//! [`LabelQueue`] surface, which that proptest holds to
//! [`TwoLevelHeap`] (the paper's structure) and the benchmark's two
//! queue rows time side by side.
//!
//! # Examples
//!
//! ```
//! use cds_heap::IndexedBinaryHeap;
//!
//! let mut h = IndexedBinaryHeap::new(4);
//! h.push(0, 3.0);
//! h.push(1, 1.0);
//! h.decrease_key(0, 0.5);
//! assert_eq!(h.pop(), Some((0, 0.5)));
//! assert_eq!(h.pop(), Some((1, 1.0)));
//! assert_eq!(h.pop(), None);
//! ```

pub mod bucket;
pub mod indexed;
pub mod ordered;
pub mod two_level;

pub use bucket::{BucketCore, BucketQueue};
pub use indexed::{IndexedBinaryHeap, TieStampedIndexedHeap};
pub use ordered::OrderedF64;
pub use two_level::TwoLevelHeap;

/// The queue surface the solver's merge loop drives: simultaneous
/// searches with dense ids, decrease-only label pushes, and extraction
/// in the shared total order `(key, search, vertex)`.
///
/// `peek_key` takes `&mut self` deliberately: both implementations
/// delete lazily, and answering "what is the global minimum" prunes
/// dead entries — see
/// [`TwoLevelHeap::peek_key`](TwoLevelHeap::peek_key) for the full
/// argument.
pub trait LabelQueue {
    /// Resets for a new solve, keeping allocations. `quantum` is the
    /// key granularity hint (minimum positive edge cost); comparison
    /// queues ignore it, and any positive value is correct for the
    /// bucket queue.
    fn begin_solve(&mut self, quantum: f64);
    /// Registers a new search and returns its dense id.
    fn add_search(&mut self) -> u32;
    /// Drops a search and all its queued labels.
    fn remove_search(&mut self, search: u32);
    /// Whether `search` is still alive.
    fn is_alive(&self, search: u32) -> bool;
    /// Total queued labels over all live searches.
    fn len(&self) -> usize;
    /// Whether no labels are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Queues (or improves) the label of `vertex` in `search`; `true`
    /// if the label changed.
    fn push(&mut self, search: u32, vertex: u32, key: f64) -> bool;
    /// Minimum key over all searches, if any.
    fn peek_key(&mut self) -> Option<f64>;
    /// Extracts the globally smallest (search, vertex, key).
    fn pop(&mut self) -> Option<(u32, u32, f64)>;
    /// Buckets scanned since `begin_solve` (0 for comparison queues).
    fn bucket_scans(&self) -> u64;
}

impl LabelQueue for TwoLevelHeap {
    fn begin_solve(&mut self, _quantum: f64) {
        self.clear();
    }
    fn add_search(&mut self) -> u32 {
        TwoLevelHeap::add_search(self)
    }
    fn remove_search(&mut self, search: u32) {
        TwoLevelHeap::remove_search(self, search);
    }
    fn is_alive(&self, search: u32) -> bool {
        TwoLevelHeap::is_alive(self, search)
    }
    fn len(&self) -> usize {
        TwoLevelHeap::len(self)
    }
    fn push(&mut self, search: u32, vertex: u32, key: f64) -> bool {
        TwoLevelHeap::push(self, search, vertex, key)
    }
    fn peek_key(&mut self) -> Option<f64> {
        TwoLevelHeap::peek_key(self)
    }
    fn pop(&mut self) -> Option<(u32, u32, f64)> {
        TwoLevelHeap::pop(self)
    }
    fn bucket_scans(&self) -> u64 {
        0
    }
}

impl LabelQueue for BucketQueue {
    fn begin_solve(&mut self, quantum: f64) {
        BucketQueue::begin_solve(self, quantum);
    }
    fn add_search(&mut self) -> u32 {
        BucketQueue::add_search(self)
    }
    fn remove_search(&mut self, search: u32) {
        BucketQueue::remove_search(self, search);
    }
    fn is_alive(&self, search: u32) -> bool {
        BucketQueue::is_alive(self, search)
    }
    fn len(&self) -> usize {
        BucketQueue::len(self)
    }
    fn push(&mut self, search: u32, vertex: u32, key: f64) -> bool {
        BucketQueue::push(self, search, vertex, key)
    }
    fn peek_key(&mut self) -> Option<f64> {
        BucketQueue::peek_key(self)
    }
    fn pop(&mut self) -> Option<(u32, u32, f64)> {
        BucketQueue::pop(self)
    }
    fn bucket_scans(&self) -> u64 {
        self.scans()
    }
}
