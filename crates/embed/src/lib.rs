#![forbid(unsafe_code)]
//! Optimal embedding of a Steiner topology into the routing graph.
//!
//! The baselines of §IV-A compute a topology in the plane and then embed
//! it "optimally into the global routing graph minimizing the
//! cost-distance objective (1) using a Dijkstra-style embedding as
//! described in \[13\]". That embedding is what this crate implements.
//!
//! # The DP
//!
//! The objective decomposes over arcs: if `W_a` is the total sink delay
//! weight below arc `a`, then
//!
//! ```text
//! cost(T) = Σ_a [ c(path_a) + W_a·d(path_a) ] + Σ_branches β(W_x, W_y)
//! ```
//!
//! because every sink's delay accumulates `d` along its root path, and the
//! λ-split penalties of Eq. (2) at a branching depend only on subtree
//! weights. The branch penalties are constants, so for a *fixed* topology
//! the optimal embedding is a bottom-up dynamic program: for each topology
//! node `v` compute the label vector
//!
//! ```text
//! L_v(x) = Σ_{children c} min_y [ L_c(y) + dist_{c + W_c·d}(x, y) ]
//! ```
//!
//! where each inner minimization is one multi-source Dijkstra seeded with
//! `L_c` (the "pull" of node `c` — this is why layer and wire-type
//! selection falls out for free: the Dijkstra chooses among parallel
//! edges). `L_root(π(r))` plus the constant penalties is the optimum;
//! paths are recovered from the Dijkstra parent pointers.
//!
//! # The kernel
//!
//! One call runs `2k − 1` pulls over the same window (`k` sinks), so the
//! work that does not depend on the node is done once per call, in an
//! [`EmbedWorkspace`] whose buffers stay warm across calls:
//!
//! * **Window adjacency.** `neighbors_into` runs once per window vertex,
//!   in id order, and each arc is stored with its `c(e)` and `d(e)`
//!   beside it, so a relaxation reads one record rather than the
//!   surface's neighbor enumeration plus two chip-wide arrays. The arc
//!   length is computed per relaxation as `c(e) + W·d(e)`, the
//!   reference's floating-point expression, and the arcs keep the
//!   surface's canonical order, so every tie resolves the same way.
//! * **Label rows.** Each topology node owns one label row and one
//!   parent row of window length. A node's sources are pushed straight
//!   from its children's rows, in ascending vertex order, with the
//!   combined label summed as `0.0 + Σ children` in child order; a
//!   vertex where that sum is infinite is not a source.
//! * **Root early exit.** The root reads its children's labels at one
//!   vertex only, `π(r)`, so a root child's pull stops when `π(r)` is
//!   popped. That label is final (Dijkstra pops in non-decreasing
//!   order, so nothing popped later can improve it), and so is every
//!   parent pointer on the path back to its seed: each vertex on it was
//!   popped before `π(r)`. The vertices still queued hold tentative
//!   labels, and nothing reads them.
//! * **No settled array.** A popped vertex `u` has `dist(u) ≤ dv` for
//!   every later pop `v`, and a relaxation offers `dv + len` with
//!   `len ≥ 0`, which rounds to at least `dv`. The strict test
//!   `dv + len < dist(u)` therefore never fires for `u`: a popped vertex
//!   is never pushed again, and no flag has to say so.
//!
//! Up to the root early exit, every pull performs the heap operations
//! of a textbook multi-source Dijkstra
//! (`cds_graph::dijkstra::shortest_paths`) in the same order, so the
//! trees are bit-identical to the plain DP built on it; that DP is kept
//! as the test reference.
//!
//! # Examples
//!
//! ```
//! use cds_embed::{embed_topology, EmbedEnv};
//! use cds_graph::GridSpec;
//! use cds_topo::{BifurcationConfig, Topology};
//! use cds_geom::Point;
//!
//! let grid = GridSpec::uniform(4, 4, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//!
//! let mut topo = Topology::new(Point::new(0, 0));
//! let s = topo.add_steiner(Point::new(2, 2), topo.root());
//! topo.add_sink(0, Point::new(3, 0), s);
//! topo.add_sink(1, Point::new(0, 3), s);
//!
//! let env = EmbedEnv {
//!     graph: grid.graph(),
//!     cost: &c,
//!     delay: &d,
//!     bif: BifurcationConfig::ZERO,
//! };
//! let root = grid.vertex_at(Point::new(0, 0));
//! let sinks = [grid.vertex_at(Point::new(3, 0)), grid.vertex_at(Point::new(0, 3))];
//! let tree = embed_topology(&env, &topo, root, &sinks, &[1.0, 1.0]);
//! tree.validate(grid.graph(), 2).unwrap();
//! ```

use cds_graph::{EdgeId, Graph, SteinerGraph, VertexId};
use cds_heap::IndexedBinaryHeap;
use cds_topo::penalty::beta;
use cds_topo::{BifurcationConfig, EmbeddedTree, NodeId, NodeKind, Topology};

/// Everything the embedding needs to know about the routing graph state.
///
/// Generic over the [`SteinerGraph`] backend (default: a materialized
/// [`Graph`]); the router embeds directly over its zero-copy window
/// views.
pub struct EmbedEnv<'a, G: ?Sized = Graph> {
    /// The routing graph backend.
    pub graph: &'a G,
    /// Current congestion cost per edge (`c`).
    pub cost: &'a [f64],
    /// Delay per edge (`d`).
    pub delay: &'a [f64],
    /// Bifurcation penalty configuration.
    pub bif: BifurcationConfig,
}

impl<G: ?Sized> Clone for EmbedEnv<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G: ?Sized> Copy for EmbedEnv<'_, G> {}

impl<G: ?Sized> std::fmt::Debug for EmbedEnv<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedEnv").field("bif", &self.bif).finish_non_exhaustive()
    }
}

/// Optimally embeds `topo` into the graph, returning the embedded tree.
///
/// `topo` must be [bifurcation compatible](Topology::is_bifurcation_compatible)
/// (call [`Topology::binarize`] first); its node positions are ignored —
/// only the *shape* matters. `root_vertex` and `sink_vertices` fix the
/// terminals; `weights` is indexed by sink index.
///
/// The returned tree reproduces the topology shape node-for-node, with
/// each arc carrying its optimal path. This runs on a fresh
/// [`EmbedWorkspace`]; callers embedding many nets keep one and call
/// [`EmbedWorkspace::embed`].
///
/// # Panics
///
/// Panics if the topology is not bifurcation compatible, if a sink index
/// exceeds `weights`/`sink_vertices`, or if some terminal is unreachable.
pub fn embed_topology<G: SteinerGraph + ?Sized>(
    env: &EmbedEnv<'_, G>,
    topo: &Topology,
    root_vertex: VertexId,
    sink_vertices: &[VertexId],
    weights: &[f64],
) -> EmbeddedTree {
    EmbedWorkspace::new().embed(env, topo, root_vertex, sink_vertices, weights)
}

/// One arc of the window adjacency, with the edge's price and delay
/// stored beside it.
#[derive(Debug, Clone, Copy)]
struct WindowArc {
    to: VertexId,
    edge: EdgeId,
    cost: f64,
    delay: f64,
}

/// How a vertex was reached in a pull: over `edge` from `from`, or —
/// `from == SEED` — as one of the pull's sources.
#[derive(Debug, Clone, Copy)]
struct Pred {
    from: VertexId,
    edge: EdgeId,
}

const SEED: VertexId = VertexId::MAX;

impl Pred {
    const SOURCE: Pred = Pred { from: SEED, edge: 0 };
}

/// Reusable scratch of the embedding DP (see the crate docs, "The
/// kernel"): the window adjacency, one label row and one parent row per
/// topology node, and the heap. Buffers grow to the largest
/// `window × topology` seen and stay warm, so a warm workspace embeds
/// without allocating anything but the returned tree. Results do not
/// depend on the workspace's history.
#[derive(Debug, Default)]
pub struct EmbedWorkspace {
    /// CSR offsets: the arcs of vertex `v` are `arcs[first[v]..first[v + 1]]`.
    first: Vec<usize>,
    arcs: Vec<WindowArc>,
    /// `neighbors_into` output buffer.
    nbrs: Vec<(VertexId, EdgeId)>,
    /// Node-major label rows: node `v`'s row is `labels[v·n..(v + 1)·n]`.
    labels: Vec<f64>,
    /// Node-major parent rows, laid out like `labels`.
    preds: Vec<Pred>,
    heap: IndexedBinaryHeap,
    /// The id capacity `heap` was created with.
    heap_ids: usize,
}

impl EmbedWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`embed_topology`] on this workspace's buffers. The tree is the
    /// one a fresh workspace returns.
    ///
    /// # Panics
    ///
    /// As [`embed_topology`].
    pub fn embed<G: SteinerGraph + ?Sized>(
        &mut self,
        env: &EmbedEnv<'_, G>,
        topo: &Topology,
        root_vertex: VertexId,
        sink_vertices: &[VertexId],
        weights: &[f64],
    ) -> EmbeddedTree {
        assert!(
            topo.is_bifurcation_compatible(),
            "embed requires a bifurcation-compatible topology"
        );
        let n = env.graph.num_vertices();
        self.build_adjacency(env);
        let rows = topo.num_nodes() * n;
        if self.labels.len() < rows {
            self.labels.resize(rows, f64::INFINITY);
            self.preds.resize(rows, Pred::SOURCE);
        }
        if self.heap_ids < n {
            self.heap = IndexedBinaryHeap::new(n);
            self.heap_ids = n;
        }
        let order = topo.dfs_order();
        let sub_w = topo.subtree_weights(weights);
        let root = topo.root();

        // Bottom-up: seed and pull every non-root node.
        for &v in order.iter().rev() {
            let Some(parent) = topo.parent(v) else { continue };
            self.seed(topo, v, n, sink_vertices);
            let stop_at = if parent == root { root_vertex } else { SEED };
            self.pull(v as usize * n, n, sub_w[v as usize], stop_at);
        }
        let root_label = topo
            .children(root)
            .iter()
            .fold(0.0, |acc, &c| acc + self.labels[c as usize * n + root_vertex as usize]);
        assert!(root_label.is_finite(), "the sinks are unreachable from root vertex {root_vertex}");

        // Top-down recovery of positions and paths.
        let mut out = EmbeddedTree::new(root_vertex);
        let mut placed = vec![(out.root(), root_vertex); topo.num_nodes()];
        for &v in &order {
            let Some(p) = topo.parent(v) else { continue };
            // `order` is root-first, so the parent is placed.
            let (out_parent, parent_vertex) = placed[p as usize];
            // Walk from the parent's chosen vertex back towards the
            // pull's seed. Parent pointers lead away from the seed, so
            // following them from `parent_vertex` already emits edges in
            // parent_vertex → seed order — exactly the arc direction we
            // store. Only vertices this pull reached are visited, and
            // each of those had its pointer written by this pull.
            let row = &self.preds[v as usize * n..(v as usize + 1) * n];
            let mut edges = Vec::new();
            let mut cur = parent_vertex;
            while row[cur as usize].from != SEED {
                edges.push(row[cur as usize].edge);
                cur = row[cur as usize].from;
            }
            let out_id = out.add_node(topo.node_kind(v), cur, out_parent, edges);
            placed[v as usize] = (out_id, cur);
        }
        out
    }

    /// Rebuilds the window adjacency: one `neighbors_into` per vertex,
    /// in id order, each arc stored with its price and delay.
    fn build_adjacency<G: SteinerGraph + ?Sized>(&mut self, env: &EmbedEnv<'_, G>) {
        self.first.clear();
        self.arcs.clear();
        for v in 0..env.graph.num_vertices() as VertexId {
            self.first.push(self.arcs.len());
            env.graph.neighbors_into(v, &mut self.nbrs);
            self.arcs.extend(self.nbrs.iter().map(|&(to, edge)| WindowArc {
                to,
                edge,
                cost: env.cost[edge as usize],
                delay: env.delay[edge as usize],
            }));
        }
        self.first.push(self.arcs.len());
    }

    /// Writes node `v`'s row before its pull and queues its sources in
    /// ascending vertex order: a sink's pin at 0, or every vertex where
    /// the sum of the children's labels is finite.
    fn seed(&mut self, topo: &Topology, v: NodeId, n: usize, sink_vertices: &[VertexId]) {
        self.heap.clear();
        let base = v as usize * n;
        match topo.node_kind(v) {
            NodeKind::Sink(s) => {
                let pin = sink_vertices[s];
                self.labels[base..base + n].fill(f64::INFINITY);
                self.labels[base + pin as usize] = 0.0;
                self.preds[base + pin as usize] = Pred::SOURCE;
                self.heap.push(pin, 0.0);
            }
            NodeKind::Root | NodeKind::Steiner => {
                let children = topo.children(v);
                for x in 0..n {
                    let label =
                        children.iter().fold(0.0, |acc, &c| acc + self.labels[c as usize * n + x]);
                    if label.is_finite() {
                        self.labels[base + x] = label;
                        self.preds[base + x] = Pred::SOURCE;
                        self.heap.push(x as VertexId, label);
                    } else {
                        self.labels[base + x] = f64::INFINITY;
                    }
                }
            }
        }
        assert!(!self.heap.is_empty(), "subtree of node {v} is unreachable");
    }

    /// The pull: a multi-source Dijkstra from the queued sources over
    /// the window adjacency with arc length `c + w_arc·d`, labelling the
    /// row at `base`. Stops once `stop_at` is popped (`SEED` never is).
    fn pull(&mut self, base: usize, n: usize, w_arc: f64, stop_at: VertexId) {
        let dist = &mut self.labels[base..base + n];
        let pred = &mut self.preds[base..base + n];
        while let Some((v, dv)) = self.heap.pop() {
            if v == stop_at {
                return;
            }
            for arc in &self.arcs[self.first[v as usize]..self.first[v as usize + 1]] {
                let len = arc.cost + w_arc * arc.delay;
                assert!(len >= 0.0, "invalid edge length");
                let cand = dv + len;
                let w = arc.to as usize;
                if cand < dist[w] {
                    dist[w] = cand;
                    pred[w] = Pred { from: v, edge: arc.edge };
                    self.heap.push(arc.to, cand);
                }
            }
        }
    }
}

/// The optimal objective value of embedding `topo` — identical to
/// evaluating the tree returned by [`embed_topology`].
pub fn embed_value<G: SteinerGraph + ?Sized>(
    env: &EmbedEnv<'_, G>,
    topo: &Topology,
    root_vertex: VertexId,
    sink_vertices: &[VertexId],
    weights: &[f64],
) -> f64 {
    let tree = embed_topology(env, topo, root_vertex, sink_vertices, weights);
    tree.evaluate(env.cost, env.delay, weights, &env.bif).total
}

/// Sum of the constant λ-penalty costs of a topology:
/// `Σ_{binary nodes} β(W_left, W_right)`.
pub fn topology_penalty_cost(topo: &Topology, weights: &[f64], bif: &BifurcationConfig) -> f64 {
    let sub_w = topo.subtree_weights(weights);
    (0..topo.num_nodes() as NodeId)
        .filter(|&v| topo.children(v).len() == 2)
        .map(|v| {
            let kids = topo.children(v);
            beta(sub_w[kids[0] as usize], sub_w[kids[1] as usize], bif)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_baselines::{prim_dijkstra, shallow_light, PlaneCostModel, SlParams};
    use cds_geom::Point;
    use cds_graph::dijkstra::{shortest_paths, Parent, SpTree};
    use cds_graph::{EdgeAttrs, GraphBuilder, GridGraph, GridSpec, RoutingSurface, WindowView};
    use cds_rsmt::rsmt_topology;
    use proptest::prelude::*;

    /// The plain embedding DP the kernel must match bit for bit: a full
    /// `shortest_paths` per non-root node over freshly collected
    /// sources, with window-sized label vectors per node.
    fn reference_embed<G: SteinerGraph + ?Sized>(
        env: &EmbedEnv<'_, G>,
        topo: &Topology,
        root_vertex: VertexId,
        sink_vertices: &[VertexId],
        weights: &[f64],
    ) -> EmbeddedTree {
        assert!(
            topo.is_bifurcation_compatible(),
            "embed requires a bifurcation-compatible topology"
        );
        let n = env.graph.num_vertices();
        let order = topo.dfs_order();
        let sub_w = topo.subtree_weights(weights);

        // Bottom-up labels; `pull_trees[v]` is the Dijkstra forest used to
        // pull node v's label to its parent.
        let mut labels: Vec<Option<Vec<f64>>> = vec![None; topo.num_nodes()];
        let mut pull_trees: Vec<Option<SpTree>> = vec![None; topo.num_nodes()];

        for &v in order.iter().rev() {
            // 1. combine children into L_v
            let mut lv = vec![0.0f64; n];
            let mut any_inf = vec![false; n];
            match topo.node_kind(v) {
                NodeKind::Sink(s) => {
                    let pin = sink_vertices[s];
                    lv = vec![f64::INFINITY; n];
                    lv[pin as usize] = 0.0;
                }
                NodeKind::Root | NodeKind::Steiner => {
                    for &c in topo.children(v) {
                        let m =
                            labels[c as usize].as_ref().expect("children processed before parents");
                        for x in 0..n {
                            if m[x].is_infinite() {
                                any_inf[x] = true;
                            } else {
                                lv[x] += m[x];
                            }
                        }
                    }
                    for x in 0..n {
                        if any_inf[x] {
                            lv[x] = f64::INFINITY;
                        }
                    }
                }
            }
            // 2. pull L_v through one Dijkstra with metric c + W_v·d so the
            //    parent can read min_y [L_v(y) + dist(x, y)] at any x.
            if v != topo.root() {
                let w_arc = sub_w[v as usize];
                let sources: Vec<(VertexId, f64)> = lv
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.is_finite())
                    .map(|(x, &d)| (x as VertexId, d))
                    .collect();
                assert!(!sources.is_empty(), "subtree of node {v} is unreachable");
                let sp = shortest_paths(env.graph, &sources, |e| {
                    env.cost[e as usize] + w_arc * env.delay[e as usize]
                });
                labels[v as usize] = Some(sp.dist.clone());
                pull_trees[v as usize] = Some(sp);
            } else {
                labels[v as usize] = Some(lv);
            }
        }

        // Top-down recovery of positions and paths.
        let mut out = EmbeddedTree::new(root_vertex);
        let mut map: Vec<Option<(NodeId, VertexId)>> = vec![None; topo.num_nodes()];
        map[topo.root() as usize] = Some((out.root(), root_vertex));
        for &v in &order {
            if v == topo.root() {
                continue;
            }
            let p = topo.parent(v).expect("non-root");
            let (out_parent, parent_vertex) = map[p as usize].expect("parents placed first");
            let sp = pull_trees[v as usize].as_ref().expect("pull tree stored");
            let mut edges = Vec::new();
            let mut cur = parent_vertex;
            while let Parent::Edge { from, edge } = sp.parent[cur as usize] {
                edges.push(edge);
                cur = from;
            }
            let seed = cur;
            let out_id = out.add_node(topo.node_kind(v), seed, out_parent, edges);
            map[v as usize] = Some((out_id, seed));
        }
        out
    }

    /// Node kinds, vertices, parents and edge lists (in order) agree.
    fn assert_same_tree(got: &EmbeddedTree, want: &EmbeddedTree, what: &str) {
        assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
        for v in 0..want.num_nodes() as NodeId {
            assert_eq!(got.node_kind(v), want.node_kind(v), "{what}: kind of node {v}");
            assert_eq!(got.vertex(v), want.vertex(v), "{what}: vertex of node {v}");
            assert_eq!(got.parent(v), want.parent(v), "{what}: parent of node {v}");
            assert_eq!(got.path(v), want.path(v), "{what}: edges of node {v}");
        }
    }

    fn two_sink_topo() -> Topology {
        let mut t = Topology::new(Point::new(0, 0));
        let s = t.add_steiner(Point::new(0, 0), t.root());
        t.add_sink(0, Point::new(0, 0), s);
        t.add_sink(1, Point::new(0, 0), s);
        t
    }

    #[test]
    fn single_sink_is_shortest_path() {
        let grid = GridSpec::uniform(5, 5, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut topo = Topology::new(Point::new(0, 0));
        topo.add_sink(0, Point::new(4, 4), topo.root());
        let root = grid.vertex_at(Point::new(0, 0));
        let sink = grid.vertex_at(Point::new(4, 4));
        let w = [3.0];
        let tree = embed_topology(&env, &topo, root, &[sink], &w);
        tree.validate(g, 1).unwrap();
        let ev = tree.evaluate(&c, &d, &w, &BifurcationConfig::ZERO);
        // reference: plain Dijkstra with combined metric c + w·d
        let sp = cds_graph::dijkstra::shortest_distances(g, &[(root, 0.0)], |e| {
            c[e as usize] + 3.0 * d[e as usize]
        });
        assert!((ev.total - sp[sink as usize]).abs() < 1e-9);
    }

    #[test]
    fn steiner_point_is_chosen_optimally() {
        // Star: r(0) -- 1 -- 2 -- {3, 4}; the optimal Steiner node is
        // vertex 2, sharing the 0-1-2 trunk.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 4, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: &g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let tree = embed_topology(&env, &topo, 0, &[3, 4], &[1.0, 1.0]);
        tree.validate(&g, 2).unwrap();
        let ev = tree.evaluate(&c, &d, &[1.0, 1.0], &BifurcationConfig::ZERO);
        // connection = 4 edges, delays: both sinks at distance 3, weight 1
        assert!((ev.connection_cost - 4.0).abs() < 1e-9);
        assert!((ev.delay_cost - 6.0).abs() < 1e-9);
        // the Steiner node must have landed on vertex 2
        let steiner_vertices: Vec<_> = (0..tree.num_nodes() as u32)
            .filter(|&v| tree.node_kind(v) == NodeKind::Steiner)
            .map(|v| tree.vertex(v))
            .collect();
        assert_eq!(steiner_vertices, vec![2]);
    }

    #[test]
    fn weights_steer_delay_allocation() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let s_a = grid.vertex_at(Point::new(5, 0));
        let s_b = grid.vertex_at(Point::new(0, 5));
        let heavy = embed_topology(&env, &topo, root, &[s_a, s_b], &[50.0, 1.0]);
        let ev_h = heavy.evaluate(&c, &d, &[50.0, 1.0], &BifurcationConfig::ZERO);
        let light = embed_topology(&env, &topo, root, &[s_a, s_b], &[1.0, 50.0]);
        let ev_l = light.evaluate(&c, &d, &[1.0, 50.0], &BifurcationConfig::ZERO);
        // raising a sink's weight must never increase its achieved delay
        assert!(ev_h.sink_delays[0] <= ev_l.sink_delays[0] + 1e-9);
        assert!(ev_l.sink_delays[1] <= ev_h.sink_delays[1] + 1e-9);
    }

    #[test]
    fn embedding_shares_the_trunk() {
        // Two sinks in the same direction: the tree must share the trunk,
        // beating two independent shortest paths in connection cost.
        let grid = GridSpec::uniform(8, 3, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let a = grid.vertex_at(Point::new(7, 0));
        let bb = grid.vertex_at(Point::new(7, 2));
        let tree = embed_topology(&env, &topo, root, &[a, bb], &[0.001, 0.001]);
        let ev = tree.evaluate(&c, &d, &[0.001, 0.001], &BifurcationConfig::ZERO);
        let star_cost = 7.0 + 7.0 + 2.0 + 2.0; // two trunks + dogleg + vias
        assert!(ev.connection_cost < star_cost);
    }

    #[test]
    fn penalty_constant_matches_beta_sum() {
        let topo = two_sink_topo();
        let bif = BifurcationConfig::new(10.0, 0.25);
        let w = [4.0, 1.0];
        let want = cds_topo::penalty::beta(4.0, 1.0, &bif);
        assert!((topology_penalty_cost(&topo, &w, &bif) - want).abs() < 1e-12);
    }

    #[test]
    fn embedded_value_includes_penalties() {
        let grid = GridSpec::uniform(4, 4, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let bif = BifurcationConfig::new(5.0, 0.25);
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let sinks = [grid.vertex_at(Point::new(3, 0)), grid.vertex_at(Point::new(0, 3))];
        let w = [2.0, 1.0];
        let with = embed_value(&env, &topo, root, &sinks, &w);
        let env0 = EmbedEnv { bif: BifurcationConfig::ZERO, ..env };
        let without = embed_value(&env0, &topo, root, &sinks, &w);
        assert!(with > without, "penalties must increase the objective");
    }

    #[test]
    #[should_panic(expected = "unreachable from root vertex 0")]
    fn an_unreachable_root_panics_instead_of_a_wrong_tree() {
        // 0 is isolated, the sink pin is 2, and only 1–2 is an edge: the
        // sink's pull never reaches the root vertex. The tree used to put
        // the sink on vertex 0 with no edges, validate, and score 0.
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: &g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut topo = Topology::new(Point::new(0, 0));
        topo.add_sink(0, Point::new(0, 0), topo.root());
        embed_topology(&env, &topo, 0, &[2], &[1.0]);
    }

    /// One random instance: a window of a uniform grid, terminals in
    /// window coordinates, and a binarized plane topology of them.
    struct Instance {
        window: (u32, u32, u32, u32),
        root: Point,
        sinks: Vec<Point>,
        weights: Vec<f64>,
        topo: Topology,
    }

    /// Builds instance `i` of a case. `cut` trims the window from each
    /// side, `pins` are reduced into it (pin 0 is the root), and bit 0 /
    /// bit 1 of `dup` make sink 1 share sink 0's pin / put the last sink
    /// on the root pin. The topology kind cycles through rsmt, SL and PD
    /// with `i + kind`.
    fn instance(
        grid: &GridGraph,
        cut: (u32, u32, u32, u32),
        pins: &[(u32, u32)],
        weights: &[f64],
        dup: u8,
        kind: u8,
        bif: BifurcationConfig,
    ) -> Instance {
        let (nx, ny) = grid.plane_dims();
        let x0 = cut.0.min(nx - 1);
        let y0 = cut.1.min(ny - 1);
        let x1 = nx.saturating_sub(1 + cut.2).max(x0);
        let y1 = ny.saturating_sub(1 + cut.3).max(y0);
        let (wx, wy) = (x1 - x0 + 1, y1 - y0 + 1);
        let at = |&(px, py): &(u32, u32)| Point::new((px % wx) as i32, (py % wy) as i32);
        let root = at(&pins[0]);
        let mut sinks: Vec<Point> = pins[1..].iter().map(at).collect();
        if dup & 1 != 0 && sinks.len() > 1 {
            sinks[1] = sinks[0];
        }
        if dup & 2 != 0 {
            let last = sinks.len() - 1;
            sinks[last] = root;
        }
        let weights = weights[..sinks.len()].to_vec();
        let model = PlaneCostModel {
            cost_per_unit: grid.min_cost_per_gcell(),
            delay_per_unit: grid.min_delay_per_gcell(),
            bif,
        };
        let topo = match kind % 3 {
            0 => rsmt_topology(root, &sinks, 5).binarize(),
            1 => shallow_light(root, &sinks, &weights, None, &model, &SlParams::default()),
            _ => prim_dijkstra(root, &sinks, &weights, &model),
        };
        Instance { window: (x0, y0, x1, y1), root, sinks, weights, topo }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernel against the reference DP on uniform grids, at base
        /// prices in half the cases (floods of equal-length paths, so
        /// every tie order shows) and at prices drawn from a few
        /// multiples of the base cost in the rest, over `WindowView`
        /// windows, for binarized rsmt,
        /// SL and PD topologies with random weights — including sinks
        /// that share a pin and a sink on the root pin. Three windows of
        /// different sizes run through one warm workspace, then the
        /// first again; every tree must equal the reference's, node
        /// kinds, vertices, parents and edge lists in order.
        #[test]
        fn kernel_matches_the_reference_dp(
            dims in (6u32..13, 6u32..13, 2u8..5),
            priced in 0u8..2,
            price_steps in collection::vec(0u8..3, 1..24),
            cuts in collection::vec((0u32..3, 0u32..3, 0u32..3, 0u32..3), 3),
            pins in collection::vec((0u32..64, 0u32..64), 2..10),
            weights in collection::vec(0.0f64..3.0, 9),
            dup in 0u8..4,
            kind in 0u8..3,
            d_bif in 0.0f64..4.0,
        ) {
            let grid = GridSpec::uniform(dims.0, dims.1, dims.2).build();
            let g = grid.graph();
            let delay = g.delays();
            let cost: Vec<f64> = g
                .base_costs()
                .iter()
                .enumerate()
                .map(|(e, &c)| c * f64::from(1 + priced * price_steps[e % price_steps.len()]))
                .collect();
            let bif = BifurcationConfig::new(d_bif, 0.25);
            let mut warm = EmbedWorkspace::new();
            for i in [0usize, 1, 2, 0] {
                let inst = instance(&grid, cuts[i], &pins, &weights, dup, kind + i as u8, bif);
                let (x0, y0, x1, y1) = inst.window;
                let view = WindowView::new(&grid, x0, y0, x1, y1);
                let env = EmbedEnv { graph: &view, cost: &cost, delay: &delay, bif };
                let root = view.vertex_at(inst.root);
                let sinks: Vec<VertexId> = inst.sinks.iter().map(|&p| view.vertex_at(p)).collect();
                let want = reference_embed(&env, &inst.topo, root, &sinks, &inst.weights);
                let fresh = embed_topology(&env, &inst.topo, root, &sinks, &inst.weights);
                assert_same_tree(&fresh, &want, &format!("fresh, window {i}"));
                let reused = warm.embed(&env, &inst.topo, root, &sinks, &inst.weights);
                assert_same_tree(&reused, &want, &format!("warm, window {i}"));
                want.validate(&view, inst.sinks.len()).unwrap();
            }
        }
    }
}
