//! Per-terminal Dijkstra state for the simultaneous searches.
//!
//! Each active terminal `u` runs its own labelling with the individual
//! distance function `l_u(e) = c(e) + w(u)·d(e)` (Eq. (4)). Labels live
//! in one epoch-stamped dense [`LabelSlab`] per search: graph backends
//! expose compact (window-local) vertex ids, so a slab is window-sized,
//! clears in `O(1)`, and — pooled through the
//! [`SolverWorkspace`](crate::SolverWorkspace) — is reused across
//! searches and solves without reallocating.

use cds_graph::{EdgeId, SteinerGraph, VertexId};

/// Sentinel parent edge marking a seed label (no predecessor).
/// `u32::MAX` is never a real edge id: cost and delay are dense slices
/// indexed by edge, so an id that large could not be allocated.
pub const NO_PARENT: EdgeId = EdgeId::MAX;

/// One (search, vertex) label: distance, queue key, predecessor edge
/// and epoch stamp in a single 24-byte record — the whole per-vertex
/// state of a search, queue key included, so the relaxation loop (the
/// solver's hottest code) answers "settled?", "current distance?" and
/// "queued at which key?" from one cache line, and the bucket queue
/// keeps no per-search slab of its own.
#[derive(Debug, Clone, Copy)]
pub struct Label {
    /// Best known `g` value (true `l_u` distance, without heuristic).
    pub dist: f64,
    /// Key of the label's live queue entry (`dist` plus the future-cost
    /// bound at filing time); NaN once the label is settled.
    pub key: f64,
    /// Edge to the predecessor ([`NO_PARENT`] for seeds); the
    /// predecessor vertex is its other endpoint.
    pub parent: EdgeId,
    /// The slab epoch this record was written in.
    stamp: u32,
}

// The record is the per-(search, vertex) memory of every CD solve:
// splitting it again, or adding a field, must be a deliberate change.
const _: () = assert!(std::mem::size_of::<Label>() == 24);

impl Label {
    /// Permanently labelled (popped from the queue).
    #[inline]
    pub fn is_settled(&self) -> bool {
        self.key.is_nan()
    }
}

/// A dense `VertexId → Label` slab with `O(1)` clear via epoch
/// stamping, counting the labels still queued.
///
/// A label is *queued* from [`set`](Self::set) until
/// [`settle`](Self::settle); a queue entry `(v, key)` is live iff
/// [`is_queued`](Self::is_queued) — the record's key equals the entry's
/// (improvements are strict decreases, so an equal key can only be the
/// entry that recorded it; a settled label's NaN key equals nothing).
#[derive(Debug, Clone)]
pub struct LabelSlab {
    labels: Vec<Label>,
    epoch: u32,
    /// Labels set and not yet settled.
    queued: usize,
}

impl Default for LabelSlab {
    fn default() -> Self {
        // epochs start at 1: stamp 0 (the resize fill) never reads as set
        LabelSlab { labels: Vec::new(), epoch: 1, queued: 0 }
    }
}

impl LabelSlab {
    /// Forgets every label in `O(1)` by bumping the epoch; the slab
    /// keeps its capacity.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            for l in &mut self.labels {
                l.stamp = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.queued = 0;
    }

    /// The label of `v`, if set this epoch.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<Label> {
        match self.labels.get(v as usize) {
            Some(l) if l.stamp == self.epoch => Some(*l),
            _ => None,
        }
    }

    /// Whether `v` has a label this epoch.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.get(v).is_some()
    }

    /// Writes the unsettled label of `v` (creating it, or updating a
    /// queued one).
    #[inline]
    pub fn set(&mut self, v: VertexId, dist: f64, key: f64, parent: EdgeId) {
        debug_assert!(!key.is_nan(), "a queued label has a key");
        let i = v as usize;
        if i >= self.labels.len() {
            // cold growth; a warm slab (pooled across solves) has seen
            // the largest window and never takes this branch
            self.labels.resize(i + 1, Label { dist: 0.0, key: 0.0, parent: NO_PARENT, stamp: 0 });
        }
        let l = &mut self.labels[i];
        if l.stamp != self.epoch {
            self.queued += 1;
        }
        debug_assert!(l.stamp != self.epoch || !l.is_settled(), "settled labels are final");
        *l = Label { dist, key, parent, stamp: self.epoch };
    }

    /// Whether a queue entry `(v, key)` is live: `v` is labelled and
    /// still queued at exactly `key`.
    #[inline]
    pub fn is_queued(&self, v: VertexId, key: f64) -> bool {
        self.get(v).is_some_and(|l| l.key == key)
    }

    /// Settles the queued label of `v`, returning its distance.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no label.
    #[inline]
    pub fn settle(&mut self, v: VertexId) -> f64 {
        let l = &mut self.labels[v as usize];
        assert!(l.stamp == self.epoch, "settling an unlabelled vertex");
        debug_assert!(!l.is_settled(), "a label settles once");
        l.key = f64::NAN;
        self.queued -= 1;
        l.dist
    }

    /// Labels set and not yet settled — the entries a retired search
    /// leaves live in the queue's count.
    pub fn queued(&self) -> usize {
        self.queued
    }
}

/// Dijkstra state of one active terminal.
#[derive(Debug, Clone, Default)]
pub struct Search {
    /// Terminal slot this search belongs to.
    pub terminal: usize,
    /// Delay weight `w(u)` of the terminal.
    pub weight: f64,
    /// The terminal's position `π(u)`.
    pub origin: VertexId,
    /// Per-vertex labels: distance, queue key, predecessor edge.
    pub labels: LabelSlab,
    /// The seeds, sorted by vertex, each with its raw tree delay
    /// (`Σ d`, unweighted) from `origin` — needed by the Steiner
    /// re-embedding (§III-D). Seeds are the component's vertices under
    /// §III-A discounting, else just the origin.
    pub seed_raw: Vec<(VertexId, f64)>,
}

impl Search {
    /// A fresh search with no labels.
    pub fn new(terminal: usize, weight: f64, origin: VertexId) -> Self {
        Search { terminal, weight, origin, ..Search::default() }
    }

    /// Re-initializes a (possibly recycled) search for a new terminal,
    /// clearing all labels but keeping the buffers' capacity — the
    /// workspace-reuse fast path: a rip-up & re-route loop starts one
    /// search per terminal per net, and the label slab is the solver's
    /// hottest state. The epoch-stamped slab clears in `O(1)`.
    pub fn reset(&mut self, terminal: usize, weight: f64, origin: VertexId) {
        self.terminal = terminal;
        self.weight = weight;
        self.origin = origin;
        self.labels.clear();
        self.seed_raw.clear();
    }

    /// Raw tree delay from `origin` to `seed` (0 for a vertex that is
    /// not a seed), by binary search of the sorted seed list.
    pub fn seed_raw_delay(&self, seed: VertexId) -> f64 {
        self.seed_raw.binary_search_by_key(&seed, |&(v, _)| v).map_or(0.0, |i| self.seed_raw[i].1)
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
        graph: &G,
        to: VertexId,
        out: &mut Vec<EdgeId>,
    ) -> VertexId {
        assert!(self.labels.contains(to), "extracting an unlabelled vertex");
        out.clear();
        let mut cur = to;
        while let Some(Label { parent, .. }) = self.labels.get(cur) {
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
        let mut s = Search::new(0, 1.0, 7);
        s.labels.set(7, 0.0, 0.0, NO_PARENT);
        s.labels.set(8, 1.0, 1.0, e78);
        s.labels.set(9, 2.0, 2.0, e89);
        let mut edges = vec![55];
        assert_eq!(s.extract_path_into(&g, 9, &mut edges), 7);
        assert_eq!(edges, vec![e78, e89]);
        let mut verts = Vec::new();
        s.path_vertices_into(&g, &edges, 7, &mut verts);
        assert_eq!(verts, vec![7, 8, 9]);
        assert_eq!(s.extract_path_into(&g, 7, &mut edges), 7);
        assert!(edges.is_empty());
    }

    #[test]
    fn reset_clears_labels_in_place() {
        let mut s = Search::new(0, 1.0, 7);
        s.labels.set(7, 0.0, 0.0, NO_PARENT);
        s.labels.settle(7);
        s.seed_raw.extend([(3, 0.25), (7, 0.5)]);
        assert_eq!(s.seed_raw_delay(7), 0.5);
        assert_eq!(s.seed_raw_delay(5), 0.0, "not a seed");
        s.reset(3, 2.0, 9);
        assert_eq!(s.terminal, 3);
        assert!(!s.labels.contains(7));
        assert_eq!(s.labels.queued(), 0);
        assert_eq!(s.seed_raw_delay(7), 0.0);
    }

    #[test]
    fn a_lower_key_supersedes_and_a_stale_key_is_dead() {
        let mut l = LabelSlab::default();
        l.set(4, 3.0, 5.0, 11);
        assert!(l.is_queued(4, 5.0));
        l.set(4, 2.0, 4.0, 12); // decrease-key: the 5.0 entry goes stale
        assert!(l.is_queued(4, 4.0));
        assert!(!l.is_queued(4, 5.0), "the superseded entry is dead");
        assert!(!l.is_queued(5, 4.0), "an unlabelled vertex has no live entry");
        assert_eq!(l.queued(), 1, "an update is not a second queued label");
        assert_eq!(l.get(4).map(|x| (x.dist, x.parent)), Some((2.0, 12)));
    }

    #[test]
    fn a_settled_label_is_never_live() {
        let mut l = LabelSlab::default();
        l.set(2, 1.5, 1.5, NO_PARENT);
        assert_eq!(l.settle(2), 1.5);
        let settled = l.get(2).expect("still labelled");
        assert!(settled.is_settled());
        assert_eq!(settled.dist, 1.5, "settling keeps the distance");
        assert!(!l.is_queued(2, 1.5));
        assert!(!l.is_queued(2, f64::NAN), "NaN equals no key, its own included");
        assert_eq!(l.queued(), 0);
    }

    #[test]
    fn epoch_wrap_at_u32_max_forgets_every_label() {
        let mut l = LabelSlab::default();
        l.set(0, 1.0, 1.0, NO_PARENT);
        l.set(3, 1.0, 1.0, NO_PARENT);
        l.clear();
        l.set(1, 2.0, 2.0, NO_PARENT); // a record stamped 2: the next
        l.epoch = u32::MAX - 1; //        epochs must not revive it
        l.clear(); // → u32::MAX
        l.set(2, 3.0, 3.0, NO_PARENT);
        assert!(l.contains(2));
        l.clear(); // wraps: every stamp is zeroed, epoch restarts at 1
        assert_eq!(l.epoch, 1);
        for v in 0..4 {
            assert!(!l.contains(v), "vertex {v} survived the wrap");
        }
        l.clear(); // epoch 2 again: the wrap zeroed the old stamp 2
        assert!(!l.contains(1));
        l.set(1, 4.0, 4.0, NO_PARENT);
        assert!(l.is_queued(1, 4.0));
    }
}
