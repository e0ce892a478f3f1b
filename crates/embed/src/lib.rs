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
//!   Each arc also knows the *slot* of its reverse arc — the same edge,
//!   back to the arc's tail — within its head's arc list. Lists follow
//!   ascending edge id, so on a grid the arcs of a lower vertex `w`
//!   towards higher vertices are met in list order as the build walks
//!   `v` upwards: a cursor per vertex pairs each arc in O(1), and a scan
//!   of `w`'s list covers any other order. A vertex may have at most
//!   254 arcs (grid windows have at most `2 × wire types + 2`); the
//!   build panics naming the first vertex with more.
//! * **Label rows from a pool.** Label rows of window length come from
//!   a small pool. A node takes a row when its pull starts (in its
//!   seed) and gives it back once its parent has seeded; the root never
//!   seeds, so its child keeps its row until the root label `π(r)` is
//!   read. A node's sources are filed straight from its children's
//!   rows, in ascending vertex order, with the combined label summed as
//!   `0.0 + Σ children` in child order; a vertex where that sum is
//!   infinite is not a source. A seed rewrites its whole row (the sink
//!   fill, or every vertex of a Steiner node), so a recycled row never
//!   shows a stale value.
//! * **The pull queue: a sorted run and a lazy heap.** An entry is one
//!   `u128`, `key.to_bits() << 32 | vertex`. Keys are finite and
//!   non-negative (seeds are `0.0` or sums of labels, and arc lengths
//!   are asserted `≥ 0`), and the bits of such doubles order as the
//!   doubles do, so the integer order of entries is the `(key, vertex)`
//!   order. A seed files its sources in a *run*, sorted once, descending,
//!   so the least pops off the end; a Steiner node's seed is every
//!   finite window vertex, and one sort replaces a sift per source. The
//!   improvements a pull finds go to a *lazy heap* (`BinaryHeap`), one
//!   entry per improvement: there is no decrease-key and no position
//!   map. A pop takes the lesser of the run's last entry and the heap's
//!   top. An entry is live iff its key is still its vertex's label, bit
//!   for bit; any other entry was superseded and is skipped. Both
//!   buffers are workspace fields, cleared by the seed, so a warm
//!   workspace does not allocate for them. (Chen, Chowdhury,
//!   Ramachandran, Lan Roche & Tong, *Priority Queues and Dijkstra's
//!   Algorithm*, UTCS TR-07-54, 2007, found Dijkstra faster on heaps
//!   without decrease-key than on indexed ones.)
//! * **Sethi–Ullman order.** The bottom-up pass is a post-order that
//!   visits the child with the larger *need* first (Sethi & Ullman,
//!   *The generation of optimal code for arithmetic expressions*, JACM
//!   1970), stored order breaking ties. A leaf needs 1; a node whose
//!   children, sorted by descending need, need `n₀ ≥ n₁ ≥ …` needs
//!   `max_i(nᵢ + i)`. A node of need `h` has at least `2^(h−1)` leaves
//!   below it, and a node holds at most one row more than it needs (its
//!   own row, taken while its children's are still held). So a call
//!   holds at most `⌊log₂ k⌋ + 2` rows for `k` leaves
//!   ([`EmbedWorkspace::label_rows`]).
//! * **1-byte parent slots.** Each non-root node keeps one parent row of
//!   window length, one byte per vertex: the slot, within the vertex's
//!   own arc list, of the arc back to the vertex it was reached from;
//!   a source holds `NO_SLOT`. Recovery walks those arcs from the
//!   parent's vertex back to the pull's seed.
//! * **Root early exit.** The root reads its children's labels at one
//!   vertex only, `π(r)`, so a root child's pull stops when `π(r)` is
//!   popped. That label is final (Dijkstra pops in non-decreasing
//!   order, so nothing popped later can improve it), and so is every
//!   parent slot on the path back to its seed: each vertex on it was
//!   popped before `π(r)`. The vertices still queued hold tentative
//!   labels, and nothing reads them.
//! * **No settled array.** A popped vertex `u` has `dist(u) ≤ dv` for
//!   every later pop `v`, and a relaxation offers `dv + len` with
//!   `len ≥ 0`, which rounds to at least `dv`. The strict test
//!   `dv + len < dist(u)` therefore never fires for `u`: a popped vertex
//!   is never pushed again, and no flag has to say so.
//!
//! # The order contract
//!
//! Every pull pops in `(key, vertex)` order: the least label first, the
//! least vertex id among equal labels. Up to the root early exit, a pull
//! therefore pops, relaxes and labels exactly as a textbook multi-source
//! Dijkstra on a heap with that order does (a decrease-key heap ordered
//! by `(key, id)`, such as `cds_heap::TieStampedIndexedHeap`), and the
//! trees are bit-identical to the plain DP built on it; that DP is kept
//! as the test reference. The queue is exact:
//!
//! * the keys filed for one vertex strictly fall (an improvement must
//!   pass the strict `<`), so each `(key, vertex)` entry is filed at most
//!   once, and the live entries are exactly one per queued vertex: its
//!   current label. A pop of the least live entry is the decrease-key
//!   heap's pop;
//! * a popped vertex is never improved again (see "No settled array"),
//!   so no entry is filed for it after its pop, and each of its older
//!   entries fails the liveness test.
//!
//! Label values do not depend on the tie order either, only the choice
//! among equal-cost parents does. A vertex popped at key `k` offers
//! another vertex of key `k` at most `k + len ≥ k`, which the strict `<`
//! rejects; so whichever of two tied vertices pops first, neither
//! changes the other's label. A heap that breaks ties by its own
//! structure (`cds_graph::dijkstra`) computes the same labels, bit for
//! bit, and may pick other paths of equal cost.
//!
//! Neither the row pool, the pull order nor the slots can change a
//! result:
//!
//! * a pull reads only its children's finished rows and its own; `seed`
//!   clears the queue, which keeps no state beyond its entries; and the
//!   pop order, the arc order, the arc length expression, the strict `<`
//!   relaxation and the early exit are those of the plain DP. Pulls are
//!   otherwise independent, so running them in Sethi–Ullman order
//!   instead of reverse preorder pops every pull in the same order;
//! * which pool row a node holds is never observed: every row is fully
//!   rewritten by its seed before anything reads it;
//! * a parent slot names exactly the `(from, edge)` pair a wider record
//!   would store — the reverse arc of the relaxed arc `from → w` over
//!   `e` is `w → from` over `e`, and parallel edges are told apart by
//!   edge id;
//! * recovery reads only slots its own pull wrote: it starts at a vertex
//!   the pull reached and follows slots to vertices the pull popped.
//!
//! Recovery runs in preorder, which numbers the output tree's nodes.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cds_graph::{EdgeId, Graph, SteinerGraph, VertexId};
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
/// exceeds `weights`/`sink_vertices`, if some terminal is unreachable, or
/// if a vertex of the graph has more than 254 arcs.
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

/// The parent slot of a pull's source: no arc leads back from it. Also
/// the bound on a window vertex's arc count.
const NO_SLOT: u8 = u8::MAX;

/// `pull`'s stop vertex when it runs to exhaustion: no vertex has it.
const NO_STOP: VertexId = VertexId::MAX;

/// A pull-queue entry: `key.to_bits() << 32 | vertex`. Keys are finite
/// and non-negative, and the bits of such doubles order as the doubles
/// do, so entries order as `(key, vertex)` pairs. No key is `-0.0`: a
/// seed is `0.0` or a sum that starts at `0.0`, and a relaxation adds a
/// length to a key, and `0.0 + x` is never `-0.0`.
fn entry(v: VertexId, key: f64) -> u128 {
    debug_assert!(key.is_sign_positive(), "pull key {key} of vertex {v}");
    u128::from(key.to_bits()) << 32 | u128::from(v)
}

/// The pull queue (see the crate docs, "The kernel"): the node's
/// sources as one sorted run, and the improvements found while relaxing
/// in a lazy heap. Pops go in `(key, vertex)` order; an entry whose key
/// is no longer its vertex's label is skipped.
#[derive(Debug, Default)]
struct PullQueue {
    /// The sources, sorted descending once seeded: the least pops off
    /// the end.
    run: Vec<u128>,
    /// The improvements, least first.
    hot: BinaryHeap<Reverse<u128>>,
}

impl PullQueue {
    fn clear(&mut self) {
        self.run.clear();
        self.hot.clear();
    }

    /// Files a source. The seed files them in ascending vertex order,
    /// then calls `sort_run`.
    fn source(&mut self, v: VertexId, key: f64) {
        self.run.push(entry(v, key));
    }

    /// Files an improvement found while relaxing.
    fn improve(&mut self, v: VertexId, key: f64) {
        self.hot.push(Reverse(entry(v, key)));
    }

    /// Sorts the filed sources for popping.
    fn sort_run(&mut self) {
        self.run.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Pops the least live entry as `(vertex, key)`: the least of the
    /// run's and the heap's, skipping each whose key is not `dist` of
    /// its vertex.
    fn pop(&mut self, dist: &[f64]) -> Option<(VertexId, f64)> {
        loop {
            let from_hot = match (self.run.last(), self.hot.peek()) {
                (None, None) => return None,
                (Some(&r), Some(&Reverse(h))) => h < r,
                (run, _) => run.is_none(),
            };
            let e = if from_hot { self.hot.pop().map(|Reverse(h)| h) } else { self.run.pop() }?;
            let (v, bits) = (e as VertexId, (e >> 32) as u64);
            if dist[v as usize].to_bits() == bits {
                return Some((v, f64::from_bits(bits)));
            }
        }
    }
}

/// Label rows of window length, taken by a node for its pull and given
/// back once its parent has seeded (see the crate docs, "The kernel").
#[derive(Debug, Default)]
struct RowPool {
    /// Row `r` is `data[r·n..(r + 1)·n]`.
    data: Vec<f64>,
    /// Rows handed out before and given back since.
    free: Vec<u32>,
    /// Rows handed out since the last `reset`: the most held at once.
    made: usize,
}

impl RowPool {
    fn reset(&mut self) {
        self.free.clear();
        self.made = 0;
    }

    /// A row for a window of `n` vertices. Its contents are stale; the
    /// caller rewrites all of it.
    fn take(&mut self, n: usize) -> u32 {
        if let Some(r) = self.free.pop() {
            return r;
        }
        self.made += 1;
        if self.data.len() < self.made * n {
            self.data.resize(self.made * n, f64::INFINITY);
        }
        (self.made - 1) as u32
    }

    fn give(&mut self, r: u32) {
        self.free.push(r);
    }
}

/// Reusable scratch of the embedding DP (see the crate docs, "The
/// kernel"): the window adjacency with its reverse-arc slots, the label
/// row pool, one 1-byte parent row per topology node, the pull queue,
/// and the per-topology orders. Buffers grow to the largest window and topology
/// seen and stay warm, so a warm workspace embeds without allocating
/// anything but the returned tree. Results do not depend on the
/// workspace's history.
#[derive(Debug, Default)]
pub struct EmbedWorkspace {
    /// CSR offsets: the arcs of vertex `v` are `arcs[first[v]..first[v + 1]]`.
    first: Vec<usize>,
    arcs: Vec<WindowArc>,
    /// `rev[j]`: the slot of `arcs[j]`'s reverse arc within the arc list
    /// of `arcs[j].to`.
    rev: Vec<u8>,
    /// `build_adjacency` scratch: per built vertex, the slot of its next
    /// arc to a higher vertex still to be paired, if lists follow the
    /// grid order.
    cursor: Vec<u8>,
    /// `neighbors_into` output buffer.
    nbrs: Vec<(VertexId, EdgeId)>,
    labels: RowPool,
    /// The pool row node `v` holds, from its seed until its parent's.
    row_of: Vec<u32>,
    /// Node-major parent slots: node `v`'s row is `slots[v·n..(v + 1)·n]`.
    slots: Vec<u8>,
    queue: PullQueue,
    /// The topology in preorder: recovery's order.
    order: Vec<NodeId>,
    /// The topology in preorder with children pushed in Sethi–Ullman
    /// order; reversed, it is the bottom-up pass.
    su_order: Vec<NodeId>,
    /// Scratch stack of both traversals.
    stack: Vec<NodeId>,
    sub_w: Vec<f64>,
    /// Sethi–Ullman need of each node.
    need: Vec<u32>,
    /// Recovery: each placed node's output id and vertex.
    placed: Vec<(NodeId, VertexId)>,
    /// Recovery: the path being walked.
    path: Vec<EdgeId>,
}

impl EmbedWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most label rows the last [`embed`](Self::embed) held at once:
    /// at most `⌊log₂ k⌋ + 2` for a topology with `k` leaves.
    pub fn label_rows(&self) -> usize {
        self.labels.made
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
        let nodes = topo.num_nodes();
        self.build_adjacency(env);
        if self.slots.len() < nodes * n {
            self.slots.resize(nodes * n, NO_SLOT);
        }
        if self.row_of.len() < nodes {
            self.row_of.resize(nodes, 0);
        }
        self.labels.reset();
        self.schedule(topo, weights);
        let root = topo.root();

        // Bottom-up: seed and pull every non-root node, children first.
        for i in (0..self.su_order.len()).rev() {
            let v = self.su_order[i];
            let Some(parent) = topo.parent(v) else { continue };
            self.seed(topo, v, n, sink_vertices);
            let stop_at = if parent == root { root_vertex } else { NO_STOP };
            self.pull(v, n, self.sub_w[v as usize], stop_at);
        }
        let root_label = self.root_label(topo, n, root_vertex);
        assert!(root_label.is_finite(), "the sinks are unreachable from root vertex {root_vertex}");

        // Top-down recovery of positions and paths.
        let mut out = EmbeddedTree::new(root_vertex);
        self.placed.clear();
        self.placed.resize(nodes, (out.root(), root_vertex));
        for &v in &self.order {
            let Some(p) = topo.parent(v) else { continue };
            // `order` is root-first, so the parent is placed.
            let (out_parent, parent_vertex) = self.placed[p as usize];
            // Walk from the parent's chosen vertex back towards the
            // pull's seed. Each slot leads back towards the seed, so the
            // walk already emits edges in parent_vertex → seed order —
            // exactly the arc direction we store. Only vertices this
            // pull reached are visited, and each of those had its slot
            // written by this pull.
            let row = &self.slots[v as usize * n..(v as usize + 1) * n];
            self.path.clear();
            let mut cur = parent_vertex;
            while row[cur as usize] != NO_SLOT {
                let arc = &self.arcs[self.first[cur as usize] + row[cur as usize] as usize];
                self.path.push(arc.edge);
                cur = arc.to;
            }
            let out_id = out.add_node(topo.node_kind(v), cur, out_parent, self.path.to_vec());
            self.placed[v as usize] = (out_id, cur);
        }
        out
    }

    /// `L_root(π(r))`: the root children's labels at the root vertex,
    /// summed as `0.0 + Σ children` in child order. The root children
    /// keep their rows until the next call.
    fn root_label(&self, topo: &Topology, n: usize, root_vertex: VertexId) -> f64 {
        topo.children(topo.root()).iter().fold(0.0, |acc, &c| {
            acc + self.labels.data[self.row_of[c as usize] as usize * n + root_vertex as usize]
        })
    }

    /// Rebuilds the window adjacency: one `neighbors_into` per vertex,
    /// in id order, each arc stored with its price and delay, and each
    /// arc back to a lower vertex paired with its reverse arc.
    fn build_adjacency<G: SteinerGraph + ?Sized>(&mut self, env: &EmbedEnv<'_, G>) {
        self.first.clear();
        self.arcs.clear();
        self.rev.clear();
        self.cursor.clear();
        for v in 0..env.graph.num_vertices() as VertexId {
            self.first.push(self.arcs.len());
            env.graph.neighbors_into(v, &mut self.nbrs);
            let deg = self.nbrs.len();
            assert!(
                deg < NO_SLOT as usize,
                "window vertex {v} has {deg} arcs; the embedding DP's 1-byte parent slots allow at most {}",
                NO_SLOT - 1
            );
            // An arc to a higher vertex is paired when that vertex's list
            // is built, starting from `up`; a self-loop never relaxes, so
            // it needs no pair.
            let mut up = deg;
            for s in 0..deg {
                let (to, edge) = self.nbrs[s];
                self.arcs.push(WindowArc {
                    to,
                    edge,
                    cost: env.cost[edge as usize],
                    delay: env.delay[edge as usize],
                });
                let back = if to < v {
                    let t = self.reverse_slot(to, v, edge);
                    self.rev[self.first[to as usize] + t] = s as u8;
                    t as u8
                } else {
                    if to > v && up == deg {
                        up = s;
                    }
                    NO_SLOT
                };
                self.rev.push(back);
            }
            self.cursor.push(up as u8);
        }
        self.first.push(self.arcs.len());
    }

    /// The slot of the arc `w → v` over `e` in the list of `w < v`. On a
    /// grid it is `w`'s cursor: `w`'s arcs to higher vertices follow
    /// ascending edge id, which is the order `v` ascends in. Any other
    /// order falls back to a scan.
    fn reverse_slot(&mut self, w: VertexId, v: VertexId, e: EdgeId) -> usize {
        let list = &self.arcs[self.first[w as usize]..self.first[w as usize + 1]];
        let t = self.cursor[w as usize] as usize;
        if list.get(t).is_some_and(|a| a.to == v && a.edge == e) {
            self.cursor[w as usize] += 1;
            return t;
        }
        let t = list.iter().position(|a| a.to == v && a.edge == e);
        // INVARIANT: a `SteinerGraph` is undirected — every edge is listed at both endpoints — so `w`'s list holds the arc back to `v`.
        t.unwrap_or_else(|| panic!("edge {e} from {w} to {v} is listed at {v} only"))
    }

    /// The per-topology pass: preorder, subtree weights, Sethi–Ullman
    /// needs, and the preorder whose reverse is the bottom-up pass.
    fn schedule(&mut self, topo: &Topology, weights: &[f64]) {
        topo.dfs_order_into(&mut self.order, &mut self.stack);
        topo.subtree_weights_into(weights, &self.order, &mut self.sub_w);
        self.need.clear();
        self.need.resize(topo.num_nodes(), 1);
        for &v in self.order.iter().rev() {
            self.need[v as usize] = match *topo.children(v) {
                [] => 1,
                [c] => self.need[c as usize],
                [a, b] => {
                    let (na, nb) = (self.need[a as usize], self.need[b as usize]);
                    if na == nb {
                        na + 1
                    } else {
                        na.max(nb)
                    }
                }
                // INVARIANT: `embed` asserts bifurcation compatibility first, so no node has more than two children.
                _ => unreachable!("a bifurcation-compatible node has at most two children"),
            };
        }
        // Pushing the child that goes first first makes it pop last, so
        // the reversed preorder visits it (and its subtree) first.
        self.su_order.clear();
        self.stack.clear();
        self.stack.push(topo.root());
        while let Some(v) = self.stack.pop() {
            self.su_order.push(v);
            match *topo.children(v) {
                [a, b] if self.need[b as usize] > self.need[a as usize] => {
                    self.stack.extend([b, a]);
                }
                ref kids => self.stack.extend_from_slice(kids),
            }
        }
    }

    /// Takes node `v`'s row, writes it, and files `v`'s sources in the
    /// queue's run: a sink's pin at 0, or every vertex where the sum of
    /// the children's labels is finite. Then gives the children's rows
    /// back.
    fn seed(&mut self, topo: &Topology, v: NodeId, n: usize, sink_vertices: &[VertexId]) {
        self.queue.clear();
        let row = self.labels.take(n);
        self.row_of[v as usize] = row;
        let base = row as usize * n;
        let slots = &mut self.slots[v as usize * n..(v as usize + 1) * n];
        let data = &mut self.labels.data;
        match topo.node_kind(v) {
            NodeKind::Sink(s) => {
                let pin = sink_vertices[s];
                data[base..base + n].fill(f64::INFINITY);
                data[base + pin as usize] = 0.0;
                slots[pin as usize] = NO_SLOT;
                self.queue.source(pin, 0.0);
            }
            NodeKind::Root | NodeKind::Steiner => {
                let children = topo.children(v);
                let mut kids = [0usize; 2];
                for (k, &c) in kids.iter_mut().zip(children) {
                    *k = self.row_of[c as usize] as usize * n;
                }
                let kids = &kids[..children.len()];
                for x in 0..n {
                    let label = kids.iter().fold(0.0, |acc, &k| acc + data[k + x]);
                    if label.is_finite() {
                        data[base + x] = label;
                        slots[x] = NO_SLOT;
                        self.queue.source(x as VertexId, label);
                    } else {
                        data[base + x] = f64::INFINITY;
                    }
                }
                for &c in children {
                    self.labels.give(self.row_of[c as usize]);
                }
            }
        }
        assert!(!self.queue.run.is_empty(), "subtree of node {v} is unreachable");
        self.queue.sort_run();
    }

    /// The pull: a multi-source Dijkstra from the queued sources over
    /// the window adjacency with arc length `c + w_arc·d`, labelling
    /// node `v`'s pool row and writing its slot row, each improvement
    /// filed in the queue's lazy heap. Stops once `stop_at` is popped
    /// (`NO_STOP` never is).
    fn pull(&mut self, v: NodeId, n: usize, w_arc: f64, stop_at: VertexId) {
        let base = self.row_of[v as usize] as usize * n;
        let dist = &mut self.labels.data[base..base + n];
        let slot = &mut self.slots[v as usize * n..(v as usize + 1) * n];
        while let Some((u, du)) = self.queue.pop(dist) {
            if u == stop_at {
                return;
            }
            let (lo, hi) = (self.first[u as usize], self.first[u as usize + 1]);
            // Read a reverse slot only for an arc that improves `w`:
            // loading one per visited arc cost ~4 % of the kernel.
            let rev = &self.rev[lo..hi];
            for (s, arc) in self.arcs[lo..hi].iter().enumerate() {
                let len = arc.cost + w_arc * arc.delay;
                assert!(len >= 0.0, "invalid edge length");
                let cand = du + len;
                let w = arc.to as usize;
                if cand < dist[w] {
                    dist[w] = cand;
                    slot[w] = rev[s];
                    self.queue.improve(arc.to, cand);
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
    use cds_heap::TieStampedIndexedHeap;
    use cds_rsmt::rsmt_topology;
    use proptest::prelude::*;

    /// A multi-source Dijkstra to exhaustion, as `reference_embed` runs
    /// one per pull.
    type Dijkstra<G> = fn(&G, &[(VertexId, f64)], &dyn Fn(EdgeId) -> f64) -> SpTree;

    /// `cds_graph::dijkstra::shortest_paths` on a heap that pops in
    /// `(key, vertex)` order: the textbook form of the kernel's pulls.
    fn tied_shortest_paths<G: SteinerGraph + ?Sized>(
        g: &G,
        sources: &[(VertexId, f64)],
        len: &dyn Fn(EdgeId) -> f64,
    ) -> SpTree {
        let n = g.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![Parent::None; n];
        let mut heap = TieStampedIndexedHeap::new(n);
        for &(s, d0) in sources {
            if d0 < dist[s as usize] {
                dist[s as usize] = d0;
                heap.push(s, d0);
            }
        }
        let mut settled = vec![false; n];
        let mut nbrs = Vec::new();
        while let Some((v, dv)) = heap.pop() {
            settled[v as usize] = true;
            g.neighbors_into(v, &mut nbrs);
            for &(w, e) in &nbrs {
                let cand = dv + len(e);
                if !settled[w as usize] && cand < dist[w as usize] {
                    dist[w as usize] = cand;
                    parent[w as usize] = Parent::Edge { from: v, edge: e };
                    heap.push(w, cand);
                }
            }
        }
        SpTree { dist, parent }
    }

    /// `cds_graph::dijkstra::shortest_paths` as a [`Dijkstra`]: exact
    /// ties pop in heap-structure order.
    fn untied_shortest_paths<G: SteinerGraph + ?Sized>(
        g: &G,
        sources: &[(VertexId, f64)],
        len: &dyn Fn(EdgeId) -> f64,
    ) -> SpTree {
        shortest_paths(g, sources, len)
    }

    /// The plain embedding DP: a full `dijkstra` per non-root node over
    /// freshly collected sources, with window-sized label vectors per
    /// node. Returns the tree and the root label `L_root(π(r))`. On
    /// [`tied_shortest_paths`] it is the DP the kernel must match bit
    /// for bit.
    fn reference_embed<G: SteinerGraph + ?Sized>(
        env: &EmbedEnv<'_, G>,
        topo: &Topology,
        root_vertex: VertexId,
        sink_vertices: &[VertexId],
        weights: &[f64],
        dijkstra: Dijkstra<G>,
    ) -> (EmbeddedTree, f64) {
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
                let sp = dijkstra(env.graph, &sources, &|e| {
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
        let root_label =
            labels[topo.root() as usize].as_ref().expect("root labelled")[root_vertex as usize];
        (out, root_label)
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

    #[test]
    #[should_panic(expected = "window vertex 1 has 256 arcs")]
    fn a_vertex_with_too_many_arcs_for_a_slot_panics_naming_it() {
        // 255 parallel edges 1–2 plus the edge 0–1: vertex 1 is the
        // first with more arcs than a 1-byte slot can name.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        for _ in 0..255 {
            b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        }
        let g = b.build();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: &g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut topo = Topology::new(Point::new(0, 0));
        topo.add_sink(0, Point::new(0, 0), topo.root());
        embed_topology(&env, &topo, 0, &[2], &[1.0]);
    }

    #[test]
    fn exact_ties_pop_in_key_vertex_order() {
        // A unit square: the sink 3 reaches the root 0 through 1 or
        // through 2 at the same cost, and its arc to 2 comes first. The
        // pull files 2, then 1, both at key 1; `(key, vertex)` order pops
        // 1 first, so 1 offers the root its label first and the strict
        // `<` keeps it. The untied heap pops 2 first.
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 3, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(0, 2, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: &g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut topo = Topology::new(Point::new(0, 0));
        topo.add_sink(0, Point::new(0, 0), topo.root());
        let tree = embed_topology(&env, &topo, 0, &[3], &[1.0]);
        assert_eq!(tree.path(1).edges, [2, 1], "root → 1 → sink");
        let (untied, _) = reference_embed(&env, &topo, 0, &[3], &[1.0], untied_shortest_paths);
        assert_eq!(untied.path(1).edges, [3, 0], "root → 2 → sink");
        let cost = |t: &EmbeddedTree| t.evaluate(&c, &d, &[1.0], &BifurcationConfig::ZERO).total;
        assert_eq!(cost(&tree), cost(&untied));
    }

    /// A binary shape as child lists (node 0 is the top), grown by
    /// splitting leaf `split % leaves` into two, once per entry.
    fn grown_shape(splits: &[usize]) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new()];
        let mut leaves = vec![0];
        for &split in splits {
            let leaf = leaves.swap_remove(split % leaves.len());
            for _ in 0..2 {
                let child = kids.len();
                kids[leaf].push(child);
                leaves.push(child);
                kids.push(Vec::new());
            }
        }
        kids
    }

    /// The topology of a binary shape: node 0 hangs under the root,
    /// inner nodes are Steiner nodes and leaves are sinks, numbered in
    /// preorder. All positions are the origin (the DP ignores them).
    fn topology_of(kids: &[Vec<usize>]) -> Topology {
        fn add(t: &mut Topology, kids: &[Vec<usize>], v: usize, parent: NodeId, sinks: &mut usize) {
            if kids[v].is_empty() {
                t.add_sink(*sinks, Point::new(0, 0), parent);
                *sinks += 1;
            } else {
                let id = t.add_steiner(Point::new(0, 0), parent);
                for &c in &kids[v] {
                    add(t, kids, c, id, sinks);
                }
            }
        }
        let mut t = Topology::new(Point::new(0, 0));
        let root = t.root();
        add(&mut t, kids, 0, root, &mut 0);
        t
    }

    /// A caterpillar of `k` sinks: each spine node has a sink and the
    /// rest of the spine as children, the sink first iff `sink_first`.
    fn caterpillar(k: usize, sink_first: bool) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); 2 * k - 1];
        for i in 0..k - 1 {
            // spine node 2i, its sink 2i + 1, the next spine node 2i + 2
            kids[2 * i] =
                if sink_first { vec![2 * i + 1, 2 * i + 2] } else { vec![2 * i + 2, 2 * i + 1] };
        }
        kids
    }

    /// The balanced shape with `2^depth` leaves.
    fn balanced(depth: u32) -> Vec<Vec<usize>> {
        let inner = (1usize << depth) - 1;
        (0..2 * inner + 1)
            .map(|v| if v < inner { vec![2 * v + 1, 2 * v + 2] } else { vec![] })
            .collect()
    }

    /// Embeds `topo` (all sinks on pins of a small grid) on `ws`, checks
    /// the tree against the reference and returns the rows it held.
    fn rows_held(ws: &mut EmbedWorkspace, topo: &Topology) -> usize {
        let grid = GridSpec::uniform(5, 4, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env =
            EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::new(2.0, 0.25) };
        let k = topo.sink_nodes().len();
        let sinks: Vec<VertexId> = (0..k)
            .map(|i| grid.vertex_at(Point::new((i % 5) as i32, (i / 5 % 4) as i32)))
            .collect();
        let weights: Vec<f64> = (0..k).map(|i| 0.1 + (i % 7) as f64 * 0.3).collect();
        let root = grid.vertex_at(Point::new(2, 1));
        let (want, _) = reference_embed(&env, topo, root, &sinks, &weights, tied_shortest_paths);
        assert_same_tree(&ws.embed(&env, topo, root, &sinks, &weights), &want, "rows_held");
        ws.label_rows()
    }

    /// `⌊log₂ k⌋ + 2`, the most label rows an embedding of `k` leaves holds.
    fn row_bound(k: usize) -> usize {
        k.ilog2() as usize + 2
    }

    #[test]
    fn label_rows_follow_the_topology_height() {
        let mut ws = EmbedWorkspace::new();
        // A caterpillar needs 2 everywhere: the spine goes first, then
        // the sink, then the node's own row — three rows in either child
        // order (reverse preorder held all 40 in one of them).
        for sink_first in [true, false] {
            let topo = topology_of(&caterpillar(40, sink_first));
            assert_eq!(rows_held(&mut ws, &topo), 3, "caterpillar, sink first: {sink_first}");
        }
        // The balanced 64-sink tree meets the bound exactly.
        let topo = topology_of(&balanced(6));
        assert_eq!(rows_held(&mut ws, &topo), row_bound(64));
        // One sink under the root holds its own row only.
        let topo = topology_of(&balanced(0));
        assert_eq!(rows_held(&mut ws, &topo), 1);
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
                let (want, _) =
                    reference_embed(&env, &inst.topo, root, &sinks, &inst.weights, tied_shortest_paths);
                let fresh = embed_topology(&env, &inst.topo, root, &sinks, &inst.weights);
                assert_same_tree(&fresh, &want, &format!("fresh, window {i}"));
                let reused = warm.embed(&env, &inst.topo, root, &sinks, &inst.weights);
                assert_same_tree(&reused, &want, &format!("warm, window {i}"));
                want.validate(&view, inst.sinks.len()).unwrap();
            }
        }

        /// Tie order moves no label. On uniform grids at base prices and
        /// weights in steps of 0.5 (floods of exactly tied keys), the
        /// kernel's root label equals, bit for bit, the one the plain DP
        /// gets from `cds_graph::dijkstra`'s heap-structure tie order,
        /// and the two trees' objectives agree.
        #[test]
        fn tie_order_moves_no_label(
            dims in (6u32..13, 6u32..13, 2u8..5),
            cut in (0u32..3, 0u32..3, 0u32..3, 0u32..3),
            pins in collection::vec((0u32..64, 0u32..64), 2..10),
            steps in collection::vec(0u8..5, 9),
            dup in 0u8..4,
            kind in 0u8..3,
            d_bif in 0u8..3,
        ) {
            let grid = GridSpec::uniform(dims.0, dims.1, dims.2).build();
            let g = grid.graph();
            let (cost, delay) = (g.base_costs(), g.delays());
            let bif = BifurcationConfig::new(f64::from(d_bif), 0.25);
            let weights: Vec<f64> = steps.iter().map(|&k| f64::from(k) * 0.5).collect();
            let inst = instance(&grid, cut, &pins, &weights, dup, kind, bif);
            let (x0, y0, x1, y1) = inst.window;
            let view = WindowView::new(&grid, x0, y0, x1, y1);
            let env = EmbedEnv { graph: &view, cost: &cost, delay: &delay, bif };
            let root = view.vertex_at(inst.root);
            let sinks: Vec<VertexId> = inst.sinks.iter().map(|&p| view.vertex_at(p)).collect();
            let mut ws = EmbedWorkspace::new();
            let got = ws.embed(&env, &inst.topo, root, &sinks, &inst.weights);
            let (want, label) =
                reference_embed(&env, &inst.topo, root, &sinks, &inst.weights, untied_shortest_paths);
            let kernel_label = ws.root_label(&inst.topo, view.num_vertices(), root);
            prop_assert_eq!(kernel_label.to_bits(), label.to_bits());
            let total = |t: &EmbeddedTree| t.evaluate(&cost, &delay, &inst.weights, &bif).total;
            let (a, b) = (total(&got), total(&want));
            prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()), "{a} vs {b}");
        }

        /// The pull queue pops what `TieStampedIndexedHeap` pops, in the
        /// same order: sources filed in ascending vertex order, then pops
        /// interleaved with improvements (a lower key for a vertex not yet
        /// popped), every key one of four values so most pops are ties.
        #[test]
        fn pull_queue_pops_like_the_tie_stamped_heap(
            sources in collection::vec(0u8..5, 1..40),
            ops in collection::vec((0u8..2, 0usize..40, 0u8..4), 0..160),
        ) {
            let n = sources.len();
            let mut dist = vec![f64::INFINITY; n];
            let mut popped = vec![false; n];
            let mut queue = PullQueue::default();
            let mut heap = TieStampedIndexedHeap::new(n);
            // Key 4 files no source.
            for (v, &k) in sources.iter().enumerate() {
                if k < 4 {
                    dist[v] = f64::from(k);
                    queue.source(v as VertexId, dist[v]);
                    heap.push(v as VertexId, dist[v]);
                }
            }
            queue.sort_run();
            for &(pop, v, k) in &ops {
                let (v, key) = (v % n, f64::from(k));
                if pop == 1 {
                    let got = queue.pop(&dist);
                    prop_assert_eq!(got, heap.pop());
                    if let Some((u, _)) = got {
                        popped[u as usize] = true;
                    }
                } else if !popped[v] && key < dist[v] {
                    dist[v] = key;
                    queue.improve(v as VertexId, key);
                    heap.push(v as VertexId, key);
                }
            }
            loop {
                let got = queue.pop(&dist);
                prop_assert_eq!(got, heap.pop());
                if got.is_none() {
                    break;
                }
            }
        }

        /// Random binary shapes hold at most `⌊log₂ k⌋ + 2` label rows.
        #[test]
        fn label_rows_stay_within_the_bound(splits in collection::vec(0usize..64, 0..48)) {
            let kids = grown_shape(&splits);
            let k = kids.iter().filter(|c| c.is_empty()).count();
            let rows = rows_held(&mut EmbedWorkspace::new(), &topology_of(&kids));
            prop_assert!(rows <= row_bound(k), "{rows} rows for {k} sinks");
        }

        /// One workspace embeds a random sequence of (window, topology,
        /// weights) — windows and topologies that grow and shrink, so
        /// pooled rows and parent slots are recycled at every size.
        /// Every tree must equal the reference DP's, so nothing stale
        /// leaks from one call into the next.
        #[test]
        fn one_workspace_matches_the_reference_over_a_sequence(
            dims in (6u32..12, 6u32..12, 2u8..5),
            pins in collection::vec((0u32..64, 0u32..64), 13),
            weights in collection::vec(0.0f64..3.0, 12),
            steps in collection::vec(
                ((0u32..4, 0u32..4, 0u32..4, 0u32..4), 2usize..14, 0u8..4, 0u8..3, 0usize..12, 0.0f64..4.0),
                2..7,
            ),
        ) {
            let grid = GridSpec::uniform(dims.0, dims.1, dims.2).build();
            let g = grid.graph();
            let (cost, delay) = (g.base_costs(), g.delays());
            let mut ws = EmbedWorkspace::new();
            for (i, &(cut, np, dup, kind, turn, d_bif)) in steps.iter().enumerate() {
                let bif = BifurcationConfig::new(d_bif, 0.25);
                let mut w = weights.clone();
                w.rotate_left(turn);
                let inst = instance(&grid, cut, &pins[..np], &w, dup, kind, bif);
                let (x0, y0, x1, y1) = inst.window;
                let view = WindowView::new(&grid, x0, y0, x1, y1);
                let env = EmbedEnv { graph: &view, cost: &cost, delay: &delay, bif };
                let root = view.vertex_at(inst.root);
                let sinks: Vec<VertexId> = inst.sinks.iter().map(|&p| view.vertex_at(p)).collect();
                let (want, _) =
                    reference_embed(&env, &inst.topo, root, &sinks, &inst.weights, tied_shortest_paths);
                let got = ws.embed(&env, &inst.topo, root, &sinks, &inst.weights);
                assert_same_tree(&got, &want, &format!("step {i}"));
                let leaves = (1..inst.topo.num_nodes() as NodeId)
                    .filter(|&v| inst.topo.children(v).is_empty())
                    .count();
                prop_assert!(ws.label_rows() <= row_bound(leaves.max(1)));
            }
        }
    }
}
