//! Connected-component bookkeeping for the merge loop.
//!
//! Every active terminal owns one component of the partially built tree:
//! the set of graph edges and vertices its merged subtree occupies. A
//! disjoint-set union tracks which terminal currently represents each
//! component as merges happen; the edge/vertex sets support the §III-A
//! discounting (tree edges are free to reuse) and the delay offsets of
//! restarted searches.
//!
//! All per-merge tables — component adjacency, tree-delay and
//! exit-price tables, downstream weights, and the membership set that
//! [`Component::absorb`] deduplicates vertices through — live in dense,
//! epoch-stamped [`VertexTable`] slabs inside a [`CompScratch`] arena
//! pooled by the [`SolverWorkspace`](crate::SolverWorkspace), so the
//! merge path of a warm workspace performs no allocation. A component
//! itself is three lists (edges, vertices in insertion order, sinks)
//! and keeps no table sized to the vertex ids it has held.

use crate::table::{VertexSet, VertexTable};
use cds_graph::{EdgeId, SteinerGraph, VertexId};
use cds_heap::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A terminal slot index (sinks, merged Steiner terminals, and the root).
pub type TerminalId = usize;

/// Disjoint-set over terminal slots with path compression.
#[derive(Debug, Clone, Default)]
pub struct Dsu {
    parent: Vec<TerminalId>,
}

impl Dsu {
    /// Adds a fresh singleton set, returning its id.
    pub fn push(&mut self) -> TerminalId {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: TerminalId) -> TerminalId {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }

    /// Merges the sets of `a` and `b` into representative `into`
    /// (which must be a fresh or existing slot).
    pub fn union_into(&mut self, a: TerminalId, b: TerminalId, into: TerminalId) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = into;
        self.parent[rb] = into;
        let ri = self.find(into);
        self.parent[ri] = into;
        self.parent[into] = into;
    }

    /// Forgets all sets, keeping the allocation (workspace reuse).
    pub fn clear(&mut self) {
        self.parent.clear();
    }
}

/// CSR-style adjacency over an explicit edge list, rebuilt in place.
///
/// Per-vertex neighbor order is the order the edges touch the vertex in
/// the input list — the same order the old hash-map adjacency produced,
/// which keeps every traversal that runs over it bit-deterministic.
#[derive(Debug, Clone, Default)]
pub struct DenseAdjacency {
    deg: VertexTable<u32>,
    start: VertexTable<u32>,
    /// Fill cursor during construction; slice end afterwards.
    end: VertexTable<u32>,
    entries: Vec<(VertexId, EdgeId)>,
    touched: Vec<VertexId>,
}

impl DenseAdjacency {
    /// Rebuilds the adjacency for `edges` (duplicates allowed — each
    /// occurrence contributes an entry, like the map it replaced).
    pub fn build<G: SteinerGraph + ?Sized>(&mut self, edges: &[EdgeId], g: &G) {
        self.deg.clear();
        self.start.clear();
        self.end.clear();
        self.touched.clear();
        self.entries.clear();
        for &e in edges {
            let ep = g.endpoints(e);
            for v in [ep.u, ep.v] {
                match self.deg.get(v) {
                    None => {
                        self.deg.insert(v, 1);
                        self.touched.push(v);
                    }
                    Some(d) => self.deg.insert(v, d + 1),
                }
            }
        }
        let mut cur = 0u32;
        for &v in &self.touched {
            self.start.insert(v, cur);
            self.end.insert(v, cur);
            // INVARIANT: the degree pass recorded a degree for every vertex it pushed into touched.
            cur += self.deg.get(v).expect("touched vertices have degrees");
        }
        self.entries.resize(cur as usize, (0, 0));
        for &e in edges {
            let ep = g.endpoints(e);
            for (a, b) in [(ep.u, ep.v), (ep.v, ep.u)] {
                // INVARIANT: the degree pass touched both endpoints of every edge, so end has an entry for each.
                let c = self.end.get(a).expect("counted") as usize;
                self.entries[c] = (b, e);
                self.end.insert(a, c as u32 + 1);
            }
        }
    }

    /// Neighbors of `v` as (neighbor, edge) pairs; empty for vertices
    /// the edge list does not touch.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        match (self.start.get(v), self.end.get(v)) {
            (Some(s), Some(e)) => &self.entries[s as usize..e as usize],
            _ => &[],
        }
    }

    /// Vertices touched by the edge list, in first-touch order.
    pub fn touched(&self) -> &[VertexId] {
        &self.touched
    }
}

/// The pooled scratch arena for per-merge component computations:
/// adjacency, tree-delay and exit-price tables, and the downstream
/// accumulation state. One lives in every
/// [`SolverWorkspace`](crate::SolverWorkspace); all tables clear in
/// `O(1)` and keep their slabs warm across merges and solves.
#[derive(Debug, Default)]
pub struct CompScratch {
    /// Component adjacency (rebuilt per query).
    pub(crate) adj: DenseAdjacency,
    /// Raw tree delays from the last [`Component::tree_delays_into`].
    pub delay: VertexTable<f64>,
    /// Weighted exit prices from the last
    /// [`Component::weighted_exit_delay_prebuilt`].
    pub exit: VertexTable<f64>,
    heap: BinaryHeap<Reverse<(OrderedF64, VertexId)>>,
    parent: VertexTable<VertexId>,
    weight_at: VertexTable<f64>,
    /// Visited set of the downstream walk, and the membership set of
    /// [`Component::absorb`].
    seen: VertexSet,
    order: Vec<VertexId>,
}

/// The tree-so-far of one component: its edges, its vertices, and the
/// sinks (with delay weights) it has absorbed.
#[derive(Debug, Clone, Default)]
pub struct Component {
    /// Edges of the embedded partial tree.
    pub edges: Vec<EdgeId>,
    /// Vertices the component occupies, deduplicated, in insertion
    /// order (deduplicated by [`absorb`](Self::absorb) through the
    /// workspace's scratch set, so a component keeps no membership
    /// table of its own).
    vertices: Vec<VertexId>,
    /// Sinks inside the component: (vertex, delay weight).
    pub sinks: Vec<(VertexId, f64)>,
}

impl Component {
    /// A single-vertex component carrying the given sinks (one for a
    /// sink terminal, none for the root).
    pub fn singleton(v: VertexId, sinks: Vec<(VertexId, f64)>) -> Self {
        Component { vertices: vec![v], sinks, ..Component::default() }
    }

    /// Re-initializes a (possibly recycled) component as a singleton,
    /// keeping whatever capacity its buffers already have.
    pub fn init_singleton(&mut self, v: VertexId, sinks: &[(VertexId, f64)]) {
        self.reset();
        self.vertices.push(v);
        self.sinks.extend_from_slice(sinks);
    }

    /// Empties the component, keeping allocations (workspace reuse).
    pub fn reset(&mut self) {
        self.edges.clear();
        self.vertices.clear();
        self.sinks.clear();
    }

    /// The component's vertices, deduplicated, in insertion order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Absorbs `other` and a connecting `path` (edges between them).
    /// `other` is drained but keeps its buffers, so callers can recycle
    /// it through a component pool.
    ///
    /// Membership lives in `scratch`'s set only for the call: `self`'s
    /// vertices are marked, then `other`'s vertices and the path
    /// endpoints are appended in that order unless already marked.
    pub fn absorb<G: SteinerGraph + ?Sized>(
        &mut self,
        other: &mut Component,
        path: &[EdgeId],
        g: &G,
        scratch: &mut CompScratch,
    ) {
        let seen = &mut scratch.seen;
        seen.clear();
        for &v in &self.vertices {
            seen.insert(v);
        }
        self.edges.append(&mut other.edges);
        for &v in &other.vertices {
            if seen.insert(v) {
                self.vertices.push(v);
            }
        }
        other.vertices.clear();
        self.sinks.append(&mut other.sinks);
        for &e in path {
            self.edges.push(e);
            let ep = g.endpoints(e);
            for v in [ep.u, ep.v] {
                if seen.insert(v) {
                    self.vertices.push(v);
                }
            }
        }
    }

    /// For every component vertex `y`, the *weighted delay to the
    /// component's sinks* through the tree: `Σ_q w(q)·d_tree(y, q)`,
    /// into `scratch.exit` (read with `get_or(v, 0.0)`).
    ///
    /// This is the exact future delay cost the component's sinks incur
    /// if the next connection (ultimately: the root path) enters at `y`
    /// — the exit prices used to seed restarted searches under §III-A.
    /// For a singleton sink component it is `w·d_tree(y, sink)`, the
    /// paper's original seeding.
    ///
    /// Assumes `scratch.adj` was already built for this component's
    /// edges by an immediately preceding
    /// [`tree_delays_into`](Self::tree_delays_into).
    pub fn weighted_exit_delay_prebuilt(&self, d: &[f64], scratch: &mut CompScratch) {
        scratch.exit.clear();
        for &(q, w) in &self.sinks {
            if w == 0.0 {
                continue;
            }
            tree_delays_over(&scratch.adj, d, q, &mut scratch.delay, &mut scratch.heap);
            for &v in &self.vertices {
                scratch.exit.add(v, 0.0, w * scratch.delay.get_or(v, 0.0));
            }
        }
    }

    /// Total sink weight *downstream* of each component vertex when the
    /// component tree is rooted at `root`, into `down` (cleared first):
    /// the weight that suffers the λ penalty if a new branch taps the
    /// tree at that vertex. Used to price bifurcations on already-routed
    /// root-component paths (Fig. 1 of the paper: keeping taps off the
    /// critical trunk). `down` is caller-owned so the solver workspace
    /// can refill its pooled table on every root merge.
    pub fn downstream_weights_into<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        root: VertexId,
        down: &mut VertexTable<f64>,
        scratch: &mut CompScratch,
    ) {
        down.clear();
        scratch.adj.build(&self.edges, g);
        scratch.weight_at.clear();
        for &(q, w) in &self.sinks {
            scratch.weight_at.add(q, 0.0, w);
        }
        // iterative post-order accumulation from `root`
        scratch.parent.clear();
        scratch.seen.clear();
        scratch.order.clear();
        scratch.order.push(root);
        scratch.seen.insert(root);
        let mut head = 0;
        while head < scratch.order.len() {
            let v = scratch.order[head];
            head += 1;
            for &(w, _) in scratch.adj.neighbors(v) {
                if scratch.seen.insert(w) {
                    scratch.parent.insert(w, v);
                    scratch.order.push(w);
                }
            }
        }
        for &v in scratch.order.iter().rev() {
            let own = scratch.weight_at.get_or(v, 0.0);
            let acc = down.get_or(v, 0.0) + own;
            down.insert(v, acc);
            if let Some(p) = scratch.parent.get(v) {
                down.add(p, 0.0, acc);
            }
        }
    }

    /// Raw tree delay (`Σ d(e)`) from `from` to every component vertex,
    /// walking only component edges, into `scratch.delay` (read with
    /// `get`; vertices unreachable through the component — possible only
    /// by construction error — are absent).
    pub fn tree_delays_into<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        d: &[f64],
        from: VertexId,
        scratch: &mut CompScratch,
    ) {
        scratch.adj.build(&self.edges, g);
        tree_delays_over(&scratch.adj, d, from, &mut scratch.delay, &mut scratch.heap);
    }
}

/// The tree-delay Dijkstra over a prebuilt component adjacency —
/// Dijkstra-style because duplicate edges could create cycles of
/// differing delay. It is not cheap: `weighted_exit_delay_prebuilt` runs
/// it once per sink of the component, so high-fanout nets pay sinks ×
/// component size (87 378 runs visiting 3.49 M vertices on one
/// 5-iteration route of the `fanout_t1` bench document, against 1.60 M
/// kernel settles).
fn tree_delays_over(
    adj: &DenseAdjacency,
    d: &[f64],
    from: VertexId,
    out: &mut VertexTable<f64>,
    heap: &mut BinaryHeap<Reverse<(OrderedF64, VertexId)>>,
) {
    out.clear();
    heap.clear();
    out.insert(from, 0.0);
    heap.push(Reverse((OrderedF64::new(0.0), from)));
    while let Some(Reverse((dd, v))) = heap.pop() {
        if out.get_or(v, f64::INFINITY) < dd.get() {
            continue;
        }
        for &(w, e) in adj.neighbors(v) {
            let nd = dd.get() + d[e as usize];
            if nd < out.get_or(w, f64::INFINITY) {
                out.insert(w, nd);
                heap.push(Reverse((OrderedF64::new(nd), w)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{EdgeAttrs, GraphBuilder};

    #[test]
    fn dsu_union_find() {
        let mut dsu = Dsu::default();
        let a = dsu.push();
        let b = dsu.push();
        let c = dsu.push();
        assert_ne!(dsu.find(a), dsu.find(b));
        let s = dsu.push();
        dsu.union_into(a, b, s);
        assert_eq!(dsu.find(a), s);
        assert_eq!(dsu.find(b), s);
        assert_eq!(dsu.find(c), c);
        let s2 = dsu.push();
        dsu.union_into(s, c, s2);
        assert_eq!(dsu.find(a), s2);
        assert_eq!(dsu.find(c), s2);
    }

    #[test]
    fn component_absorb_and_delays() {
        // path graph 0-1-2-3 with delays 1, 2, 4
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 2.0));
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 4.0));
        let g = b.build();
        let d = g.delays();
        let mut s = CompScratch::default();
        let mut c0 = Component::singleton(0, vec![(0, 1.0)]);
        let mut c3 = Component::singleton(3, vec![(3, 2.0)]);
        // connect them with the full path
        c0.absorb(&mut c3, &[0, 1, 2], &g, &mut s);
        assert!(c3.edges.is_empty() && c3.sinks.is_empty(), "absorb drains the other side");
        assert!(c3.vertices().is_empty());
        assert_eq!(c0.vertices(), &[0, 3, 1, 2]);
        assert_eq!(c0.edges.len(), 3);
        c0.tree_delays_into(&g, &d, 0, &mut s);
        assert_eq!(s.delay.get(3), Some(7.0));
        assert_eq!(s.delay.get(1), Some(1.0));
    }

    #[test]
    fn vertices_stay_deduplicated() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let mut c = Component::singleton(0, vec![(0, 1.0)]);
        // the path shares vertex 1 between both edges; 0 is already in
        c.absorb(&mut Component::singleton(2, vec![]), &[0, 1], &g, &mut CompScratch::default());
        let mut vs = c.vertices().to_vec();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2]);
    }

    #[test]
    fn absorb_keeps_first_insertion_order_over_shared_vertices() {
        // path graph 0-1-2-3-4-5; `self` holds 0-1-2, `other` 2-3-4 (2
        // shared), and the path 1-2 and 4-5 repeats 1, 2 and 4
        let mut b = GraphBuilder::new(6);
        let e: Vec<EdgeId> =
            (0..5).map(|i| b.add_edge(i, i + 1, EdgeAttrs::wire(1.0, 1.0))).collect();
        let g = b.build();
        let mut s = CompScratch::default();
        let mut a = Component::singleton(2, vec![(2, 1.0)]);
        a.absorb(&mut Component::singleton(0, vec![]), &[e[1], e[0]], &g, &mut s);
        assert_eq!(a.vertices(), &[2, 0, 1]);
        let mut o = Component::singleton(4, vec![(4, 1.0)]);
        o.absorb(&mut Component::singleton(2, vec![]), &[e[3], e[2]], &g, &mut s);
        assert_eq!(o.vertices(), &[4, 2, 3]);
        a.absorb(&mut o, &[e[1], e[4]], &g, &mut s);
        assert_eq!(a.vertices(), &[2, 0, 1, 4, 3, 5], "self, then other, then path; no repeats");
        assert_eq!(a.edges, vec![e[1], e[0], e[3], e[2], e[1], e[4]]);
        // a recycled, reset component starts over
        o.init_singleton(5, &[]);
        o.absorb(&mut a, &[], &g, &mut s);
        assert_eq!(o.vertices(), &[5, 2, 0, 1, 4, 3]);
    }

    #[test]
    fn weighted_exit_delay_prefers_heavy_side() {
        // path 0-1-2-3, sink w=1 at 0 and w=3 at 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let d = g.delays();
        let mut comp = Component::singleton(0, vec![(0, 1.0)]);
        let mut s = CompScratch::default();
        comp.absorb(&mut Component::singleton(3, vec![(3, 3.0)]), &[0, 1, 2], &g, &mut s);
        comp.tree_delays_into(&g, &d, 0, &mut s);
        comp.weighted_exit_delay_prebuilt(&d, &mut s);
        // exit at 0: 1*0 + 3*3 = 9; at 3: 1*3 + 3*0 = 3; at 2: 1*2 + 3*1 = 5
        assert_eq!(s.exit.get_or(0, 0.0), 9.0);
        assert_eq!(s.exit.get_or(3, 0.0), 3.0);
        assert_eq!(s.exit.get_or(2, 0.0), 5.0);
        // the best exit is at the heavy sink
        assert!(s.exit.get_or(3, 0.0) < s.exit.get_or(0, 0.0));
    }

    #[test]
    fn downstream_weights_accumulate_towards_root() {
        // root 0 - 1 - 2 with sinks w=2 at 1 and w=5 at 2
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let mut comp = Component::singleton(0, vec![]);
        let mut s = CompScratch::default();
        comp.absorb(&mut Component::singleton(1, vec![(1, 2.0)]), &[0], &g, &mut s);
        comp.absorb(&mut Component::singleton(2, vec![(2, 5.0)]), &[1], &g, &mut s);
        let mut down = VertexTable::new();
        comp.downstream_weights_into(&g, 0, &mut down, &mut s);
        assert_eq!(down.get(2), Some(5.0));
        assert_eq!(down.get(1), Some(7.0));
        assert_eq!(down.get(0), Some(7.0));
    }

    #[test]
    fn dense_adjacency_preserves_edge_order() {
        let mut b = GraphBuilder::new(3);
        let e0 = b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        let e1 = b.add_edge(0, 2, EdgeAttrs::wire(1.0, 1.0));
        let e2 = b.add_edge(0, 1, EdgeAttrs::wire(2.0, 2.0)); // parallel
        let g = b.build();
        let mut adj = DenseAdjacency::default();
        adj.build(&[e1, e0, e2], &g);
        // per-vertex order follows the input edge list, not edge ids
        assert_eq!(adj.neighbors(0), &[(2, e1), (1, e0), (1, e2)]);
        assert_eq!(adj.neighbors(1), &[(0, e0), (0, e2)]);
        assert_eq!(adj.touched(), &[0, 2, 1]);
        assert!(adj.neighbors(9).is_empty());
    }
}
