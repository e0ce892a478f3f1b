//! Connected-component bookkeeping for the merge loop.
//!
//! Every active terminal owns one component of the partially built tree:
//! the set of graph edges and vertices its merged subtree occupies. A
//! disjoint-set union tracks which terminal currently represents each
//! component as merges happen; the edge/vertex sets support the §III-A
//! discounting (tree edges are free to reuse) and the delay offsets of
//! restarted searches.
//!
//! # Exit prices by one rooted walk
//!
//! A restarted search prices every component vertex `y` as an exit,
//! `Σ_q w(q)·d_tree(y, q)`. [`Component::exit_prices_into`] roots the
//! component once per restart: one BFS from its first vertex over the
//! component adjacency gives local ids in BFS order (so a parent's id
//! is below its child's), each vertex's parent and parent-edge delay.
//! Each sink's delay row is then one linear *sweep* — up the sink's
//! path to the root, then one scan in BFS order — so the exit prices
//! cost `O(|C|)` per positive-weight sink, with no heap. Each swept
//! value is its sink-side neighbor's value plus one edge delay, the
//! very addition the Dijkstra performs on a tree, and the prices add
//! `w·d` per sink in sink order: every value is the double the
//! per-sink Dijkstra gave. A component that is not a tree — a search
//! left its own component and re-entered it, closing a cycle — keeps
//! that Dijkstra as its fallback.
//! [`Component::downstream_weights_into`] rides the same walk, rooted
//! at the net's root.
//!
//! # Storage
//!
//! All per-merge state — the component adjacency, the walk and its
//! sweep rows, the fallback's Dijkstra table, and the membership set
//! that [`Component::absorb`] deduplicates vertices through — lives in
//! a [`CompScratch`] arena pooled by the
//! [`SolverWorkspace`](crate::SolverWorkspace): epoch-stamped
//! [`VertexTable`] slabs and vectors indexed by local id, so the merge
//! path of a warm workspace performs no allocation. A component itself
//! is three lists (edges, vertices in insertion order, sinks) and
//! keeps no table sized to the vertex ids it has held.

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
    pub fn rebuild<G: SteinerGraph + ?Sized>(&mut self, edges: &[EdgeId], g: &G) {
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

/// Parent-edge slot of a walk's root, which has no parent.
const NO_PARENT_EDGE: EdgeId = EdgeId::MAX;

/// The pooled scratch arena for per-merge component computations: the
/// adjacency, the rooted walk and its sweep buffers, the non-tree
/// fallback's Dijkstra state, and the membership set of
/// [`Component::absorb`]. One lives in every
/// [`SolverWorkspace`](crate::SolverWorkspace); its tables clear in
/// `O(1)` and its vectors by `clear`/`resize`, so all of it keeps its
/// slabs warm across merges and solves.
#[derive(Debug, Default)]
pub struct CompScratch {
    /// Component adjacency (rebuilt per call).
    pub(crate) adj: DenseAdjacency,
    /// Local id of every vertex the last walk reached.
    local: VertexTable<u32>,
    /// The reached vertices in BFS order: local id → vertex.
    verts: Vec<VertexId>,
    /// Local id of each vertex's parent; `par[i] < i`, and the root's
    /// entry is `0`.
    par: Vec<u32>,
    /// Edge to the parent (`NO_PARENT_EDGE` at the root).
    pe: Vec<EdgeId>,
    /// Delay of the edge to the parent (`0.0` at the root), filled by
    /// [`Component::exit_prices_into`]'s walk.
    de: Vec<f64>,
    /// Per-local-vertex row: a sweep's tree delays from its source (the
    /// downstream pass keeps each vertex's own sink weight here).
    dist: Vec<f64>,
    /// Per-local-vertex accumulator: exit prices, or the downstream
    /// pass's sums over children.
    acc: Vec<f64>,
    /// The source-to-root path of the sweep in progress; all `false`
    /// between sweeps.
    on_path: Vec<bool>,
    /// The fallback Dijkstra's distances and queue.
    delay: VertexTable<f64>,
    heap: BinaryHeap<Reverse<(OrderedF64, VertexId)>>,
    /// Membership set of [`Component::absorb`].
    seen: VertexSet,
}

impl CompScratch {
    /// Breadth-first walk over the built adjacency from `root`, which
    /// assigns local ids in BFS order (so `par[i] < i`). Neighbors are
    /// taken in adjacency order, first reach wins — the spanning tree
    /// any BFS over this adjacency finds. Returns whether every
    /// adjacency entry met was the tree edge itself: an entry that
    /// reaches an already-seen vertex through any other edge id (a
    /// cycle, a parallel edge, a self-loop) makes the walk not a tree.
    /// A repeated copy of a tree edge's id is the same edge.
    fn walk(&mut self, root: VertexId) -> bool {
        self.local.clear();
        self.verts.clear();
        self.par.clear();
        self.pe.clear();
        self.local.insert(root, 0);
        self.verts.push(root);
        self.par.push(0);
        self.pe.push(NO_PARENT_EDGE);
        let mut acyclic = true;
        let mut i = 0;
        while i < self.verts.len() {
            for &(y, e) in self.adj.neighbors(self.verts[i]) {
                match self.local.get(y) {
                    None => {
                        self.local.insert(y, self.verts.len() as u32);
                        self.verts.push(y);
                        self.par.push(i as u32);
                        self.pe.push(e);
                    }
                    Some(j) => {
                        let j = j as usize;
                        acyclic &= (self.pe[i] == e && self.par[i] as usize == j)
                            || (self.pe[j] == e && self.par[j] as usize == i);
                    }
                }
            }
            i += 1;
        }
        acyclic
    }

    /// Tree delays from local vertex `s` to every walked vertex, into
    /// `dist`. Up the path from `s` to the root it sets
    /// `dist[par[x]] = dist[x] + de[x]`; then one scan in BFS order sets
    /// `dist[i] = dist[par[i]] + de[i]` for every vertex off that path.
    /// Each value is its `s`-side neighbor's value plus that one edge's
    /// delay — the one addition the Dijkstra performs for it on a tree,
    /// so every value is the Dijkstra's double.
    fn sweep(&mut self, s: usize) {
        let (par, de) = (&self.par, &self.de);
        let (dist, on_path) = (&mut self.dist, &mut self.on_path);
        dist[s] = 0.0;
        on_path[s] = true;
        let mut x = s;
        while x != 0 {
            let p = par[x] as usize;
            dist[p] = dist[x] + de[x];
            on_path[p] = true;
            x = p;
        }
        on_path[0] = false;
        for i in 1..self.verts.len() {
            if on_path[i] {
                on_path[i] = false;
            } else {
                dist[i] = dist[par[i] as usize] + de[i];
            }
        }
    }
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
    /// table of its own). Every endpoint of every edge is among them.
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

    /// Roots the component at its first vertex: builds the adjacency in
    /// `scratch`, walks it, and reads each vertex's parent-edge delay.
    ///
    /// Returns whether the sweeps may price the walk: the component
    /// must be a tree (no cycle or parallel edge, see the walk), the
    /// walk must reach all its vertices, and every tree edge delay must
    /// be finite and non-negative.
    fn root_walk<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        d: &[f64],
        scratch: &mut CompScratch,
    ) -> bool {
        scratch.adj.rebuild(&self.edges, g);
        let mut tree = scratch.walk(self.vertices[0]);
        // the walk reaches only endpoints of edges, all of them
        // component vertices, so a full count is the whole vertex set
        tree &= scratch.verts.len() == self.vertices.len();
        scratch.de.clear();
        scratch.de.push(0.0);
        for &e in &scratch.pe[1..] {
            let de = d[e as usize];
            // the Dijkstra never reaches across an infinite or NaN
            // delay, and a negative one breaks its settle order
            tree &= (0.0..f64::INFINITY).contains(&de);
            scratch.de.push(de);
        }
        let n = scratch.verts.len();
        scratch.dist.resize(n, 0.0);
        scratch.on_path.resize(n, false);
        tree
    }

    /// Appends, for every component vertex `y`, the *weighted delay to
    /// the component's sinks* through the tree — `Σ_q w(q)·d_tree(y, q)`
    /// — to `out`, as `(y, price)` pairs in no particular order.
    ///
    /// This is the exact future delay cost the component's sinks incur
    /// if the next connection (ultimately: the root path) enters at `y`
    /// — the exit prices used to seed restarted searches under §III-A.
    /// For a singleton sink component it is `w·d_tree(y, sink)`, the
    /// paper's original seeding.
    ///
    /// The call roots the component once (see the module docs); on a
    /// tree it then costs one sweep per sink with a positive weight,
    /// `O(|C|)` each, and each price adds `w·d` per sink in sink order,
    /// exactly as the per-sink Dijkstra form does. Returns whether the
    /// component was such a tree: `false` means a search left its own
    /// component and re-entered it, and the prices came from that
    /// Dijkstra over the same adjacency instead — the same doubles —
    /// which the caller counts as a fallback.
    pub fn exit_prices_into<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        d: &[f64],
        scratch: &mut CompScratch,
        out: &mut Vec<(VertexId, f64)>,
    ) -> bool {
        let tree = self.root_walk(g, d, scratch);
        scratch.acc.clear();
        if tree {
            scratch.acc.resize(scratch.verts.len(), 0.0);
            for &(q, w) in &self.sinks {
                if w == 0.0 {
                    continue;
                }
                // a sink outside the walk reaches no component vertex,
                // which would add `w·0` to every price
                if let Some(s) = scratch.local.get(q) {
                    scratch.sweep(s as usize);
                    for (price, &dq) in scratch.acc.iter_mut().zip(&scratch.dist) {
                        *price += w * dq;
                    }
                }
            }
            out.extend(scratch.verts.iter().copied().zip(scratch.acc.iter().copied()));
        } else {
            scratch.acc.resize(self.vertices.len(), 0.0);
            for &(q, w) in &self.sinks {
                if w == 0.0 {
                    continue;
                }
                tree_delays_over(&scratch.adj, d, q, &mut scratch.delay, &mut scratch.heap);
                for (price, &v) in scratch.acc.iter_mut().zip(&self.vertices) {
                    *price += w * scratch.delay.get_or(v, 0.0);
                }
            }
            out.extend(self.vertices.iter().copied().zip(scratch.acc.iter().copied()));
        }
        tree
    }

    /// Total sink weight *downstream* of each component vertex when the
    /// component tree is rooted at `root`, into `down` (cleared first):
    /// the weight that suffers the λ penalty if a new branch taps the
    /// tree at that vertex. Used to price bifurcations on already-routed
    /// root-component paths (Fig. 1 of the paper: keeping taps off the
    /// critical trunk). `down` is caller-owned so the solver workspace
    /// can refill its pooled table on every root merge.
    ///
    /// The accumulation runs over the BFS spanning tree of the walk
    /// from `root`, leaves first (reverse BFS order), on a cyclic
    /// component as on a tree.
    pub fn downstream_weights_into<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        root: VertexId,
        down: &mut VertexTable<f64>,
        scratch: &mut CompScratch,
    ) {
        down.clear();
        scratch.adj.rebuild(&self.edges, g);
        scratch.walk(root);
        let n = scratch.verts.len();
        // each vertex's own sink weight, and the sum over its children
        let (own, below) = (&mut scratch.dist, &mut scratch.acc);
        own.clear();
        own.resize(n, 0.0);
        below.clear();
        below.resize(n, 0.0);
        for &(q, w) in &self.sinks {
            if let Some(j) = scratch.local.get(q) {
                own[j as usize] += w;
            }
        }
        for i in (0..n).rev() {
            let acc = below[i] + own[i];
            down.insert(scratch.verts[i], acc);
            if i > 0 {
                below[scratch.par[i] as usize] += acc;
            }
        }
    }
}

/// The tree-delay Dijkstra over a prebuilt component adjacency: the
/// exit prices' fallback when the component is no tree to sweep (a
/// cycle or parallel edges, where paths of differing delay compete).
/// On the fixture and bench documents no component takes it;
/// `SolveStats::tree_fallbacks` counts the ones that do.
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
    use cds_graph::{EdgeAttrs, Graph, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(vertex, value)` pairs as bit patterns, sorted by vertex.
    fn bits(mut pairs: Vec<(VertexId, f64)>) -> Vec<(VertexId, u64)> {
        pairs.sort_unstable_by_key(|&(v, _)| v);
        pairs.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
    }

    /// The exit prices in their per-sink Dijkstra form: one Dijkstra
    /// per positive-weight sink, `w·d` added into a vertex table.
    fn reference_exit_prices(c: &Component, g: &Graph, d: &[f64]) -> Vec<(VertexId, f64)> {
        let mut adj = DenseAdjacency::default();
        adj.rebuild(&c.edges, g);
        let (mut delay, mut heap) = (VertexTable::new(), BinaryHeap::new());
        let mut exit = VertexTable::new();
        for &(q, w) in &c.sinks {
            if w == 0.0 {
                continue;
            }
            tree_delays_over(&adj, d, q, &mut delay, &mut heap);
            for &v in c.vertices() {
                exit.add(v, 0.0, w * delay.get_or(v, 0.0));
            }
        }
        c.vertices().iter().map(|&v| (v, exit.get_or(v, 0.0))).collect()
    }

    /// Downstream weights by a BFS parent map over vertex tables and a
    /// reverse-order accumulation.
    fn reference_downstream(c: &Component, g: &Graph, root: VertexId) -> Vec<(VertexId, f64)> {
        let mut adj = DenseAdjacency::default();
        adj.rebuild(&c.edges, g);
        let mut weight_at = VertexTable::new();
        for &(q, w) in &c.sinks {
            weight_at.add(q, 0.0, w);
        }
        let (mut parent, mut seen, mut order) = (VertexTable::new(), VertexSet::new(), vec![root]);
        seen.insert(root);
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &(w, _) in adj.neighbors(v) {
                if seen.insert(w) {
                    parent.insert(w, v);
                    order.push(w);
                }
            }
        }
        let mut down = VertexTable::new();
        for &v in order.iter().rev() {
            let acc = down.get_or(v, 0.0) + weight_at.get_or(v, 0.0);
            down.insert(v, acc);
            if let Some(p) = parent.get(v) {
                down.add(p, 0.0, acc);
            }
        }
        c.vertices().iter().filter_map(|&v| down.get(v).map(|x| (v, x))).collect()
    }

    /// A random component on `n` vertices and the graph it lives in: a
    /// random tree over a shuffled labelling, its edges in random order
    /// with repeated copies of some edge ids, delays that include
    /// zeros, the vertex list in random order (so a random vertex is
    /// the walk's root), and sinks that share vertices or weigh zero.
    /// With `close_cycle`, one more edge joins two tree vertices.
    fn random_component(seed: u64, n: usize, close_cycle: bool) -> (Graph, Vec<f64>, Component) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut label: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let delay = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => f64::from(rng.gen_range(1..4u8)),
            _ => rng.gen::<f64>() * 10f64.powi(rng.gen_range(-3..4)),
        };
        let mut b = GraphBuilder::new(n);
        let mut d = Vec::new();
        let mut edges = Vec::new();
        for i in 1..n {
            let p = rng.gen_range(0..i);
            let (u, v) = if rng.gen() { (label[i], label[p]) } else { (label[p], label[i]) };
            d.push(delay(&mut rng));
            edges.push(b.add_edge(u, v, EdgeAttrs::wire(1.0, 1.0)));
        }
        if close_cycle && n >= 2 {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            d.push(delay(&mut rng));
            edges.push(b.add_edge(label[u], label[v], EdgeAttrs::wire(1.0, 1.0)));
        }
        for i in 0..edges.len() {
            if rng.gen_range(0..5) == 0 {
                edges.push(edges[i]);
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let sinks = (0..rng.gen_range(0..6))
            .map(|_| {
                let w = if rng.gen_range(0..3) == 0 { 0.0 } else { rng.gen::<f64>() * 5.0 };
                (label[rng.gen_range(0..n)], w)
            })
            .collect();
        (b.build(), d, Component { edges, vertices: label, sinks })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On a tree the sweeps reproduce the Dijkstra bit for bit: the
        /// exit prices, the delay row from every vertex (the exit prices
        /// of that vertex as the one sink, of weight 1), and the
        /// downstream weights from every root. With a closed cycle the
        /// walk reports no tree and the prices still are the Dijkstra's.
        #[test]
        fn sweeps_match_the_dijkstra_bit_for_bit(
            seed in 0u64..1 << 48,
            n in 1usize..40,
            cycle_draw in 0u8..4,
        ) {
            let close_cycle = cycle_draw == 0;
            let (g, d, comp) = random_component(seed, n, close_cycle);
            let tree = !(close_cycle && n >= 2);
            let mut s = CompScratch::default();
            let mut got = Vec::new();
            prop_assert_eq!(comp.exit_prices_into(&g, &d, &mut s, &mut got), tree);
            prop_assert_eq!(bits(got), bits(reference_exit_prices(&comp, &g, &d)));
            for &from in comp.vertices() {
                let single = Component { sinks: vec![(from, 1.0)], ..comp.clone() };
                let mut got = Vec::new();
                prop_assert_eq!(single.exit_prices_into(&g, &d, &mut s, &mut got), tree);
                prop_assert_eq!(bits(got), bits(reference_exit_prices(&single, &g, &d)));
            }
            for &root in comp.vertices() {
                let mut down = VertexTable::new();
                comp.downstream_weights_into(&g, root, &mut down, &mut s);
                let got = comp.vertices().iter().filter_map(|&v| down.get(v).map(|x| (v, x))).collect();
                prop_assert_eq!(bits(got), bits(reference_downstream(&comp, &g, root)));
            }
        }
    }

    #[test]
    fn a_path_that_reenters_its_component_takes_the_one_fallback() {
        // a 4-cycle 0-1-2-3 with a tail 0-4: sinks at 0 and 2 merge over
        // 0-1-2; then a path leaves at 2, runs 2-3-0 — re-entering at 0
        // — and on to a third sink at 4, closing the cycle 0-1-2-3-0
        let mut b = GraphBuilder::new(5);
        let e01 = b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        let e12 = b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        let e23 = b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        let e30 = b.add_edge(3, 0, EdgeAttrs::wire(1.0, 1.0));
        let e04 = b.add_edge(0, 4, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let d = [3.0, 2.5, 0.25, 0.5, 1.0];
        let mut s = CompScratch::default();
        let mut fallbacks = 0;
        // what a restarted search reads: the exit prices
        let mut restart = |c: &Component, s: &mut CompScratch| {
            let mut exit = Vec::new();
            fallbacks += usize::from(!c.exit_prices_into(&g, &d, s, &mut exit));
            assert_eq!(bits(exit), bits(reference_exit_prices(c, &g, &d)));
        };
        let mut c = Component::singleton(0, vec![(0, 1.0)]);
        c.absorb(&mut Component::singleton(2, vec![(2, 2.0)]), &[e01, e12], &g, &mut s);
        restart(&c, &mut s);
        c.absorb(&mut Component::singleton(4, vec![(4, 1.0)]), &[e23, e30, e04], &g, &mut s);
        restart(&c, &mut s);
        assert_eq!(fallbacks, 1, "only the component with the cycle falls back");
        // the cycle's short side wins: priced from a lone sink at 2, the
        // exit at 0 is reached over 3 (0.25 + 0.5), not over 1 (2.5 +
        // 3.0), and the one at 4 one edge further
        let from_2 = Component { sinks: vec![(2, 1.0)], ..c.clone() };
        let mut exit = Vec::new();
        assert!(!from_2.exit_prices_into(&g, &d, &mut s, &mut exit));
        exit.sort_unstable_by_key(|&(v, _)| v);
        assert_eq!(exit, vec![(0, 0.75), (1, 2.5), (2, 0.0), (3, 0.25), (4, 1.75)]);
    }

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
        let mut exit = Vec::new();
        assert!(c0.exit_prices_into(&g, &d, &mut s, &mut exit), "a path is a tree");
        exit.sort_unstable_by_key(|&(v, _)| v);
        // 1·d(y, 0) + 2·d(y, 3) with d(0, 3) = 7
        assert_eq!(exit, vec![(0, 14.0), (1, 13.0), (2, 11.0), (3, 7.0)]);
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
        let mut exit = Vec::new();
        assert!(comp.exit_prices_into(&g, &d, &mut s, &mut exit));
        exit.sort_unstable_by_key(|&(v, _)| v);
        // exit at 0: 1*0 + 3*3 = 9; at 3: 1*3 + 3*0 = 3; at 2: 1*2 + 3*1 = 5
        assert_eq!(exit, vec![(0, 9.0), (1, 7.0), (2, 5.0), (3, 3.0)]);
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
        adj.rebuild(&[e1, e0, e2], &g);
        // per-vertex order follows the input edge list, not edge ids
        assert_eq!(adj.neighbors(0), &[(2, e1), (1, e0), (1, e2)]);
        assert_eq!(adj.neighbors(1), &[(0, e0), (0, e2)]);
        assert_eq!(adj.touched(), &[0, 2, 1]);
        assert!(adj.neighbors(9).is_empty());
    }
}
