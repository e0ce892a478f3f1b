//! Per-terminal Dijkstra state for the simultaneous searches.
//!
//! Each active terminal `u` runs its own labelling with the individual
//! distance function `l_u(e) = c(e) + w(u)·d(e)` (Eq. (4)). Graph
//! backends expose compact (window-local) vertex ids, so a search's
//! labels are addressed densely — but a goal-oriented search writes
//! only a few percent of its window. A search's [`LabelSlab`] is
//! therefore a *page directory*: one entry per 128 window vertices,
//! naming a 2 KB page of the workspace-wide [`LabelStore`] once the
//! search first writes into that range. Label memory follows the
//! labels the live searches touch, not searches × window; pages
//! recycle through the store's free list without a wipe, because every
//! search stamps its labels with an epoch no other search ever had.

use cds_graph::{EdgeId, SteinerGraph, VertexId};

/// Sentinel parent edge marking a seed label (no predecessor).
/// `u32::MAX` is never a real edge id: cost and delay are dense slices
/// indexed by edge, so an id that large could not be allocated.
pub const NO_PARENT: EdgeId = EdgeId::MAX;

/// Labels per page, as a power of two: 128 records of 16 bytes, one
/// 2 KB page. 64- and 256-label pages measured the same peak RSS.
const PAGE_BITS: u32 = 7;
const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_MASK: VertexId = (1 << PAGE_BITS) - 1;

/// Directory entry of a page the search has not written into.
const NO_PAGE: u32 = u32::MAX;

/// Stamp bit of a settled label; epochs stay below it.
const SETTLED: u32 = 1 << 31;

/// Between solves, the store restarts its epochs once the counter
/// passes this — half the stamp range is left for one solve's
/// searches, which number at most twice its sinks.
const EPOCH_RESTART: u32 = SETTLED >> 1;

/// One (search, vertex) label: distance, predecessor edge and a stamp
/// in a single 16-byte record — the whole per-vertex state of a
/// search, so the relaxation loop (the solver's hottest code) answers
/// "settled?" and "current distance?" from one load. The bucket queue
/// keeps no per-search slab and the record no queue key: an entry is
/// live while its label is unsettled (see the solver's liveness test).
#[derive(Debug, Clone, Copy)]
pub struct Label {
    /// Best known `g` value (true `l_u` distance, without heuristic).
    pub dist: f64,
    /// Edge to the predecessor ([`NO_PARENT`] for seeds); the
    /// predecessor vertex is its other endpoint.
    pub parent: EdgeId,
    /// The epoch of the search that wrote the record, with
    /// the `SETTLED` bit set once the label is permanent.
    stamp: u32,
}

// The record is the per-(search, vertex) memory of every CD solve:
// splitting it again, or adding a field, must be a deliberate change.
const _: () = assert!(std::mem::size_of::<Label>() == 16);

impl Label {
    /// The record a fresh page is filled with: stamp 0 is no epoch.
    const BLANK: Label = Label { dist: 0.0, parent: NO_PARENT, stamp: 0 };

    /// Permanently labelled (popped from the queue).
    #[inline]
    pub fn is_settled(&self) -> bool {
        self.stamp & SETTLED != 0
    }
}

/// The workspace's pool of label pages, shared by every search of a
/// solve: one flat run of 128-label pages, the free list, and the
/// epoch counter each search draws a fresh epoch from.
///
/// A page a search gives back keeps its records; the next search to
/// take it has a newer epoch, so no stale stamp can read as its label
/// and recycling needs no wipe. Stamps are zeroed only when the
/// counter restarts, between solves ([`end_solve`](Self::end_solve)).
#[derive(Debug, Default)]
pub struct LabelStore {
    pages: Vec<Label>,
    /// Pages no search holds.
    free: Vec<u32>,
    /// The last epoch handed out; 0 before the first.
    epoch: u32,
}

impl LabelStore {
    /// An empty store; pages grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages the store has grown to, held or free.
    pub fn pages(&self) -> usize {
        self.pages.len() >> PAGE_BITS
    }

    /// Pages no search holds.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// A fresh epoch for a starting search.
    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        assert!(self.epoch < SETTLED, "a single solve ran out of search epochs");
        self.epoch
    }

    /// A page for a search's first write into its range: a free one,
    /// else a new one (cold growth; a warm store has grown to the most
    /// pages a solve held at once).
    #[inline]
    fn take_page(&mut self) -> u32 {
        match self.free.pop() {
            Some(p) => p,
            None => {
                let p = self.pages() as u32;
                self.pages.resize(self.pages.len() + PAGE_LEN, Label::BLANK);
                p
            }
        }
    }

    /// Takes back every page `slab` holds: its labels are gone and its
    /// directory is empty again (capacity kept).
    pub fn release(&mut self, slab: &mut LabelSlab) {
        for &d in &slab.used {
            self.free.push(slab.dir[d as usize]);
            slab.dir[d as usize] = NO_PAGE;
        }
        slab.used.clear();
        slab.queued = 0;
    }

    /// Closes a solve once every search has released its pages:
    /// restarts the epoch counter when it has passed half the stamp
    /// range, zeroing every stamp so no old label revives under a
    /// reused epoch.
    pub fn end_solve(&mut self) {
        debug_assert_eq!(self.free.len(), self.pages(), "every page is back in the pool");
        if self.epoch >= EPOCH_RESTART {
            for l in &mut self.pages {
                l.stamp = 0;
            }
            self.epoch = 0;
        }
    }
}

/// One search's labels: a directory of `window / 128` page numbers
/// into the [`LabelStore`] (`NO_PAGE` for a range the search never
/// wrote), the directory entries in use, the search's epoch, and the
/// count of labels still queued. Every accessor takes the store.
///
/// A label is *queued* from [`set`](Self::set) until
/// [`settle`](Self::settle).
#[derive(Debug, Default)]
pub struct LabelSlab {
    dir: Vec<u32>,
    /// Directory indices holding a page, in first-write order.
    used: Vec<u32>,
    /// This search's epoch; 0 until [`Search::reset`] draws one.
    epoch: u32,
    /// Labels set and not yet settled.
    queued: usize,
}

impl LabelSlab {
    /// Index of `v`'s record in the store, if the search holds its page.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        match self.dir.get((v >> PAGE_BITS) as usize) {
            Some(&p) if p != NO_PAGE => {
                Some(((p as usize) << PAGE_BITS) | (v & PAGE_MASK) as usize)
            }
            _ => None,
        }
    }

    /// The label of `v`, if this search set one.
    #[inline]
    pub fn get(&self, store: &LabelStore, v: VertexId) -> Option<Label> {
        let l = store.pages[self.slot(v)?];
        (l.stamp & !SETTLED == self.epoch).then_some(l)
    }

    /// Whether `v` has a label.
    #[inline]
    pub fn contains(&self, store: &LabelStore, v: VertexId) -> bool {
        self.get(store, v).is_some()
    }

    /// Whether `v`'s label is set and not yet settled.
    #[inline]
    pub fn is_queued(&self, store: &LabelStore, v: VertexId) -> bool {
        self.slot(v).is_some_and(|i| store.pages[i].stamp == self.epoch)
    }

    /// Writes the unsettled label of `v` (creating it, or updating a
    /// queued one), taking a page from the store on the search's first
    /// write into `v`'s range.
    #[inline]
    pub fn set(&mut self, store: &mut LabelStore, v: VertexId, dist: f64, parent: EdgeId) {
        debug_assert!(self.epoch != 0, "a search draws an epoch before its first label");
        let d = (v >> PAGE_BITS) as usize;
        if d >= self.dir.len() {
            // cold growth; a warm directory (pooled across solves) has
            // seen the largest window and never takes this branch
            self.dir.resize(d + 1, NO_PAGE);
        }
        if self.dir[d] == NO_PAGE {
            self.dir[d] = store.take_page();
            self.used.push(d as u32);
        }
        let l = &mut store.pages[((self.dir[d] as usize) << PAGE_BITS) | (v & PAGE_MASK) as usize];
        debug_assert!(l.stamp != (self.epoch | SETTLED), "settled labels are final");
        if l.stamp != self.epoch {
            self.queued += 1;
        }
        *l = Label { dist, parent, stamp: self.epoch };
    }

    /// Settles the queued label of `v`, returning its distance.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no label.
    #[inline]
    pub fn settle(&mut self, store: &mut LabelStore, v: VertexId) -> f64 {
        // INVARIANT: callers settle only vertices whose entry the liveness test accepted, which reads through a held page (`slot` is `Some`); a search gives its pages back only when it retires, and a retired search's entries are never live.
        let l = &mut store.pages[self.slot(v).expect("settling a vertex of an unheld page")];
        assert!(l.stamp & !SETTLED == self.epoch, "settling an unlabelled vertex");
        debug_assert!(!l.is_settled(), "a label settles once");
        l.stamp |= SETTLED;
        self.queued -= 1;
        l.dist
    }

    /// Labels set and not yet settled — the entries a retired search
    /// leaves live in the queue's count.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Pages this search holds.
    pub fn pages_held(&self) -> usize {
        self.used.len()
    }
}

/// Dijkstra state of one active terminal.
#[derive(Debug, Default)]
pub struct Search {
    /// Terminal slot this search belongs to.
    pub terminal: usize,
    /// Delay weight `w(u)` of the terminal.
    pub weight: f64,
    /// Per-vertex labels (distance, predecessor edge), paged into the
    /// workspace's [`LabelStore`]; the seeds are the labels without a
    /// parent edge.
    pub labels: LabelSlab,
}

impl Search {
    /// A fresh search with no labels, drawing its epoch from `store`.
    pub fn new(store: &mut LabelStore, terminal: usize, weight: f64) -> Self {
        let mut s = Search::default();
        s.reset(store, terminal, weight);
        s
    }

    /// Re-initializes a (possibly recycled) search for a new terminal,
    /// keeping the buffers' capacity — the workspace-reuse fast path:
    /// a rip-up & re-route loop starts one search per terminal per net.
    /// The search must hold no pages (a retired search gave them back
    /// through [`LabelStore::release`]); it draws a fresh epoch, so
    /// whatever records the pages it takes still hold read as unset.
    pub fn reset(&mut self, store: &mut LabelStore, terminal: usize, weight: f64) {
        debug_assert_eq!(self.labels.pages_held(), 0, "a retired search gave its pages back");
        self.terminal = terminal;
        self.weight = weight;
        self.labels.epoch = store.next_epoch();
    }

    /// Walks parents from `to` back to a seed: the edges in seed→`to`
    /// order into a caller-owned buffer (cleared first), returning the
    /// seed vertex — the allocation-free path of the merge loop. Each
    /// predecessor is the other endpoint of its parent edge in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `to` was never labelled.
    pub fn extract_path_into<G: SteinerGraph + ?Sized>(
        &self,
        store: &LabelStore,
        graph: &G,
        to: VertexId,
        out: &mut Vec<EdgeId>,
    ) -> VertexId {
        assert!(self.labels.contains(store, to), "extracting an unlabelled vertex");
        out.clear();
        let mut cur = to;
        while let Some(Label { parent, .. }) = self.labels.get(store, cur) {
            if parent == NO_PARENT {
                break;
            }
            out.push(parent);
            cur = graph.endpoints(parent).other(cur);
        }
        out.reverse();
        cur
    }

    /// The vertex sequence of a seed→`to` path returned by
    /// [`extract_path_into`](Self::extract_path_into), starting at the
    /// seed, into a caller-owned buffer (cleared first).
    pub fn path_vertices_into<G: SteinerGraph + ?Sized>(
        &self,
        graph: &G,
        edges: &[EdgeId],
        seed: VertexId,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        out.push(seed);
        let mut cur = seed;
        for &e in edges {
            cur = graph.endpoints(e).other(cur);
            out.push(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{EdgeAttrs, GraphBuilder};

    #[test]
    fn path_extraction_orders_from_seed() {
        // 7 —e0— 8 —e1— 9, plus a decoy edge so ids are not positions
        let mut b = GraphBuilder::new(10);
        let decoy = b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        let e78 = b.add_edge(8, 7, EdgeAttrs::wire(1.0, 1.0));
        let e89 = b.add_edge(8, 9, EdgeAttrs::wire(1.0, 1.0));
        assert_eq!(decoy, 0);
        let g = b.build();
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0);
        s.labels.set(&mut store, 7, 0.0, NO_PARENT);
        s.labels.set(&mut store, 8, 1.0, e78);
        s.labels.set(&mut store, 9, 2.0, e89);
        let mut edges = vec![55];
        assert_eq!(s.extract_path_into(&store, &g, 9, &mut edges), 7);
        assert_eq!(edges, vec![e78, e89]);
        let mut verts = Vec::new();
        s.path_vertices_into(&g, &edges, 7, &mut verts);
        assert_eq!(verts, vec![7, 8, 9]);
        assert_eq!(s.extract_path_into(&store, &g, 7, &mut edges), 7);
        assert!(edges.is_empty());
    }

    #[test]
    fn reset_clears_labels_in_place() {
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0);
        s.labels.set(&mut store, 7, 0.0, NO_PARENT);
        s.labels.settle(&mut store, 7);
        store.release(&mut s.labels);
        s.reset(&mut store, 3, 2.0);
        assert_eq!(s.terminal, 3);
        assert!(!s.labels.contains(&store, 7));
        assert_eq!(s.labels.queued(), 0);
        s.labels.set(&mut store, 7, 1.0, NO_PARENT);
        assert_eq!(store.pages(), 1, "the released page is taken again, not a new one");
    }

    #[test]
    fn an_update_is_not_a_second_queued_label() {
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0);
        s.labels.set(&mut store, 4, 3.0, 11);
        s.labels.set(&mut store, 4, 2.0, 12); // an improvement
        assert!(s.labels.is_queued(&store, 4));
        assert!(!s.labels.is_queued(&store, 5), "an unlabelled vertex is not queued");
        assert_eq!(s.labels.queued(), 1);
        assert_eq!(s.labels.get(&store, 4).map(|x| (x.dist, x.parent)), Some((2.0, 12)));
    }

    #[test]
    fn a_settled_label_is_never_live() {
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0);
        s.labels.set(&mut store, 2, 1.5, NO_PARENT);
        assert!(s.labels.is_queued(&store, 2));
        assert_eq!(s.labels.settle(&mut store, 2), 1.5);
        let settled = s.labels.get(&store, 2).expect("still labelled");
        assert!(settled.is_settled());
        assert_eq!(settled.dist, 1.5, "settling keeps the distance");
        assert!(!s.labels.is_queued(&store, 2), "a settled label's entries are dead");
        assert_eq!(s.labels.queued(), 0);
    }

    #[test]
    fn a_recycled_page_never_shows_another_searches_label() {
        let mut store = LabelStore::new();
        let mut a = Search::new(&mut store, 0, 1.0);
        a.labels.set(&mut store, 5, 1.0, NO_PARENT);
        a.labels.set(&mut store, 6, 2.0, 3);
        a.labels.settle(&mut store, 5);
        store.release(&mut a.labels);
        assert_eq!(store.free_pages(), 1);
        // b takes a's page back, stale records and all
        let mut b = Search::new(&mut store, 1, 1.0);
        b.labels.set(&mut store, 7, 4.0, NO_PARENT);
        assert_eq!((store.pages(), store.free_pages()), (1, 0), "the page was recycled");
        for v in [5, 6] {
            assert!(!b.labels.contains(&store, v), "a's label of {v} leaked into b");
            assert!(!b.labels.is_queued(&store, v));
        }
        assert_eq!(b.labels.get(&store, 7).map(|l| l.dist), Some(4.0));
        assert_eq!(b.labels.queued(), 1, "stale records are not counted as queued");
        // and a, recycled in turn, sees neither its old labels nor b's
        a.reset(&mut store, 2, 1.0);
        for v in [5, 6, 7] {
            assert!(!a.labels.contains(&store, v));
        }
    }

    #[test]
    fn release_returns_every_page() {
        let mut store = LabelStore::new();
        let mut a = Search::new(&mut store, 0, 1.0);
        let mut b = Search::new(&mut store, 1, 1.0);
        for v in [0, 1, 130, 700] {
            a.labels.set(&mut store, v, 1.0, NO_PARENT);
        }
        b.labels.set(&mut store, 300, 1.0, NO_PARENT);
        assert_eq!(a.labels.pages_held(), 3, "one page per touched 128-vertex range");
        assert_eq!((store.pages(), store.free_pages()), (4, 0));
        store.release(&mut a.labels);
        store.release(&mut b.labels);
        assert_eq!(store.free_pages(), store.pages(), "the store is fully free");
        assert_eq!((a.labels.pages_held(), a.labels.queued()), (0, 0));
        assert!(!a.labels.contains(&store, 130));
        store.end_solve();
    }

    #[test]
    fn the_epoch_restart_between_solves_zeroes_stamps() {
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0); // epoch 1
        s.labels.set(&mut store, 3, 1.0, NO_PARENT);
        s.labels.settle(&mut store, 3);
        store.release(&mut s.labels);
        store.epoch = EPOCH_RESTART; // as if many solves had run since
        store.end_solve();
        assert_eq!(store.epoch, 0, "the counter restarted");
        // the next search draws epoch 1 again and takes the same page:
        // without the wipe, the old record would read as its settled label
        s.reset(&mut store, 0, 1.0);
        assert_eq!(s.labels.epoch, 1);
        s.labels.set(&mut store, 4, 1.0, NO_PARENT);
        assert_eq!(store.pages(), 1, "the old page was taken again");
        assert!(!s.labels.contains(&store, 3), "an old label revived");
        assert_eq!(s.labels.queued(), 1);
        // below the threshold the counter keeps counting
        store.release(&mut s.labels);
        store.end_solve();
        assert_eq!(store.epoch, 1);
    }

    #[test]
    fn the_directory_grows_past_the_first_window() {
        let mut store = LabelStore::new();
        let mut s = Search::new(&mut store, 0, 1.0);
        s.labels.set(&mut store, 10, 1.0, NO_PARENT);
        let first = s.labels.dir.len();
        assert_eq!(first, 1, "the directory covers only the written range");
        let far = 40 * PAGE_LEN as VertexId + 5;
        assert!(!s.labels.contains(&store, far), "beyond the directory reads as unset");
        s.labels.set(&mut store, far, 2.0, 9);
        assert!(s.labels.dir.len() > first);
        assert_eq!(s.labels.get(&store, far).map(|l| (l.dist, l.parent)), Some((2.0, 9)));
        assert_eq!(s.labels.get(&store, 10).map(|l| l.dist), Some(1.0));
        assert_eq!(store.pages(), 2, "the gap between the two ranges takes no page");
    }
}
