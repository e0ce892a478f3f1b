//! `RoutedForest` — a struct-of-arrays arena for whole populations of
//! embedded trees.
//!
//! A rip-up & re-route run keeps one routed tree per net alive at all
//! times, and rewrites a changing subset of them every iteration. Owned
//! [`EmbeddedTree`]s pay for that workload with allocator churn — every
//! tree carries a `Vec` per node (children list, arc path), so routing a
//! net allocates O(nodes) times just to store the *output*. The forest
//! flattens all of it into shared slabs:
//!
//! * node kinds / vertices / parents — one slab each, trees occupy
//!   contiguous ranges and address their nodes with tree-local
//!   [`NodeId`]s (0 is always the root, exactly like `EmbeddedTree`);
//! * arc paths — one shared `EdgeId` slab, each node holding an
//!   `(offset, len)` span; a tree's edges are one contiguous range
//!   (its nodes are appended in order), so walking a whole tree's edges
//!   is a linear scan;
//! * children — a CSR `(offset, len)` pair per node into a shared index
//!   slab, replacing the per-node `Vec<NodeId>`;
//! * per-tree summary payloads a router keeps next to each tree — sink
//!   delays and `(edge, tracks)` used-edge lists — as spans into two
//!   more shared slabs, plus scalar wirelength/via totals.
//!
//! [`TreeView`] is a cheap `Copy` handle exposing the `EmbeddedTree`
//! read API (`evaluate`, `validate`, wirelength, via count) over a slot;
//! the shared algorithms are generic over [`TreeRead`], so the owned and
//! arena forms are bit-identical by construction. Replacing a slot's
//! tree appends the new spans and retires the old ones as garbage;
//! [`compact`](RoutedForest::compact) copies the live trees into a
//! second, retained buffer and swaps — double buffering, so steady-state
//! rip-up loops never return to the allocator.
//!
//! The forest only changes *where* tree bytes live, never their values
//! or enumeration order: node ids, child order, and edge order are
//! identical to the owned `EmbeddedTree` form (`tests/forest.rs` pins
//! the whole pipeline against the owned reference path).

use crate::embedded::{EmbeddedTree, Evaluation};
use crate::penalty::{lambda_split, BifurcationConfig};
use crate::topology::{NodeId, NodeKind};
use cds_graph::{EdgeId, EdgeKind, SteinerGraph, VertexId};

const NO_NODE: NodeId = NodeId::MAX;

/// Read access to one embedded tree — the interface the shared
/// evaluation/validation algorithms are generic over, implemented by
/// both the owned [`EmbeddedTree`] and the arena [`TreeView`].
///
/// Node ids are tree-local: `0` is the root, children slices preserve
/// attachment order, and `path_edges(v)` is the arc walked from the
/// parent's vertex to `v`'s vertex.
pub trait TreeRead {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Kind of `v`.
    fn node_kind(&self, v: NodeId) -> NodeKind;
    /// Graph vertex of `v`.
    fn vertex(&self, v: NodeId) -> VertexId;
    /// Parent of `v` (`None` for the root).
    fn parent(&self, v: NodeId) -> Option<NodeId>;
    /// Children of `v`, in attachment order.
    fn children(&self, v: NodeId) -> &[NodeId];
    /// Path (from the parent's vertex) of `v`.
    fn path_edges(&self, v: NodeId) -> &[EdgeId];
}

/// The scalar outputs of one objective evaluation —
/// [`Evaluation`] minus the owned `sink_delays` vector, which
/// [`evaluate_into`] leaves in the caller's [`EvalScratch`] so hot loops
/// can reuse one buffer across millions of evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalTotals {
    /// `Σ_{e∈T} c(e)` — the congestion part of Eq. (1).
    pub connection_cost: f64,
    /// `Σ_t w(t)·delay(t)` — the delay part of Eq. (1).
    pub delay_cost: f64,
    /// `connection_cost + delay_cost`.
    pub total: f64,
    /// Number of proper bifurcations.
    pub bifurcations: usize,
}

/// Reusable buffers for [`evaluate_into`]: DFS order, subtree weights,
/// per-node delays, and the per-sink delay output. All grow to the
/// largest tree evaluated and stay warm.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    order: Vec<NodeId>,
    stack: Vec<NodeId>,
    sub_w: Vec<f64>,
    delay: Vec<f64>,
    /// delay\[sink index\] per Eq. (3) after a call; `NaN` for sinks
    /// absent from the tree.
    pub sink_delays: Vec<f64>,
}

/// Evaluates the paper's objective (Eq. (1) with the delay model of
/// Eq. (3)) over any [`TreeRead`], writing per-sink delays into
/// `s.sink_delays`. Bit-identical to the historical
/// `EmbeddedTree::evaluate` (which now delegates here).
///
/// # Panics
///
/// Panics if a node has more than two children or a sink index is out
/// of range of `weights`.
pub fn evaluate_into<T: TreeRead + ?Sized>(
    t: &T,
    c: &[f64],
    d: &[f64],
    weights: &[f64],
    bif: &BifurcationConfig,
    s: &mut EvalScratch,
) -> EvalTotals {
    let n = t.num_nodes();
    let mut connection_cost = 0.0f64;
    for v in 0..n as NodeId {
        for &e in t.path_edges(v) {
            connection_cost += c[e as usize];
        }
    }
    // depth-first preorder, shared by the weight and delay passes
    s.order.clear();
    s.stack.clear();
    s.stack.push(0);
    while let Some(v) = s.stack.pop() {
        s.order.push(v);
        for &ch in t.children(v).iter().rev() {
            s.stack.push(ch);
        }
    }
    // total sink delay weight below each node
    s.sub_w.clear();
    s.sub_w.resize(n, 0.0);
    for &v in s.order.iter().rev() {
        if let NodeKind::Sink(si) = t.node_kind(v) {
            s.sub_w[v as usize] += weights[si];
        }
        for &ch in t.children(v).iter() {
            let wc = s.sub_w[ch as usize];
            s.sub_w[v as usize] += wc;
        }
    }
    // delays with λ penalties at proper bifurcations
    s.delay.clear();
    s.delay.resize(n, 0.0);
    let mut bifurcations = 0usize;
    for &v in &s.order {
        let kids = t.children(v);
        assert!(kids.len() <= 2, "tree is not bifurcation compatible");
        let lambdas: [f64; 2] = if kids.len() == 2 {
            bifurcations += 1;
            let (lx, ly) =
                lambda_split(s.sub_w[kids[0] as usize], s.sub_w[kids[1] as usize], bif.eta);
            [lx, ly]
        } else {
            [0.0, 0.0]
        };
        for (i, &child) in kids.iter().enumerate() {
            let wire: f64 = t.path_edges(child).iter().map(|&e| d[e as usize]).sum();
            s.delay[child as usize] = s.delay[v as usize] + wire + lambdas[i] * bif.dbif;
        }
    }
    s.sink_delays.clear();
    s.sink_delays.resize(weights.len(), f64::NAN);
    let mut delay_cost = 0.0f64;
    for v in 0..n as NodeId {
        if let NodeKind::Sink(si) = t.node_kind(v) {
            s.sink_delays[si] = s.delay[v as usize];
            delay_cost += weights[si] * s.delay[v as usize];
        }
    }
    EvalTotals { connection_cost, delay_cost, total: connection_cost + delay_cost, bifurcations }
}

/// [`evaluate_into`] with a throwaway scratch, assembled into the owned
/// [`Evaluation`] form.
pub fn evaluate_owned<T: TreeRead + ?Sized>(
    t: &T,
    c: &[f64],
    d: &[f64],
    weights: &[f64],
    bif: &BifurcationConfig,
) -> Evaluation {
    let mut s = EvalScratch::default();
    let totals = evaluate_into(t, c, d, weights, bif, &mut s);
    Evaluation {
        connection_cost: totals.connection_cost,
        delay_cost: totals.delay_cost,
        total: totals.total,
        sink_delays: std::mem::take(&mut s.sink_delays),
        bifurcations: totals.bifurcations,
    }
}

/// Structural validation shared by the owned and arena tree forms:
/// every arc's path walks from the parent vertex to the node vertex in
/// `g`, sinks `0..num_sinks` each appear exactly once as leaves, and
/// internal nodes have ≤ 2 children.
pub fn validate_tree<T: TreeRead + ?Sized, G: SteinerGraph + ?Sized>(
    t: &T,
    g: &G,
    num_sinks: usize,
) -> Result<(), String> {
    let mut sink_seen = vec![0usize; num_sinks];
    for v in 0..t.num_nodes() as NodeId {
        match (t.parent(v), v) {
            (None, 0) => {}
            (None, _) => return Err(format!("non-root node {v} has no parent")),
            (Some(_), 0) => return Err("root has a parent".into()),
            (Some(p), _) => {
                // walk the path
                let mut cur = t.vertex(p);
                for &e in t.path_edges(v) {
                    let ep = g.endpoints(e);
                    if ep.u == cur {
                        cur = ep.v;
                    } else if ep.v == cur {
                        cur = ep.u;
                    } else {
                        return Err(format!(
                            "path of node {v}: edge {e} does not continue the walk"
                        ));
                    }
                }
                if cur != t.vertex(v) {
                    return Err(format!("path of node {v} ends at {cur}, not at its vertex"));
                }
            }
        }
        match t.node_kind(v) {
            NodeKind::Sink(s) => {
                if s >= num_sinks {
                    return Err(format!("sink index {s} out of range"));
                }
                sink_seen[s] += 1;
                if !t.children(v).is_empty() {
                    return Err(format!("sink node {v} is not a leaf"));
                }
            }
            _ => {
                if t.children(v).len() > 2 {
                    return Err(format!("node {v} has {} children", t.children(v).len()));
                }
            }
        }
    }
    for (s, &count) in sink_seen.iter().enumerate() {
        if count != 1 {
            return Err(format!("sink {s} appears {count} times"));
        }
    }
    Ok(())
}

/// An in-construction tree accepting nodes one at a time — implemented
/// by the owned [`EmbeddedTree`] and by [`ForestTreeBuilder`], so tree
/// producers (`cds_core::assemble`, the embedding) write either form
/// through one code path.
pub trait TreeSink {
    /// The root node id (always 0).
    fn root_node(&self) -> NodeId;
    /// Adds a node under `parent` reached by `path`, returning its id.
    fn push_node(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: &[EdgeId],
    ) -> NodeId;
    /// Current number of children of `node`.
    fn child_count(&self, node: NodeId) -> usize;
}

/// One slab set of the double-buffered arena.
#[derive(Debug, Default, Clone)]
struct Slabs {
    kinds: Vec<NodeKind>,
    vertices: Vec<VertexId>,
    /// Tree-local parent ids; [`NO_NODE`] for roots.
    parents: Vec<NodeId>,
    /// Per-node span into `path_edges` (absolute offsets).
    path_start: Vec<u32>,
    path_len: Vec<u32>,
    /// Per-node CSR span into `children` (absolute offsets).
    child_start: Vec<u32>,
    child_len: Vec<u32>,
    path_edges: Vec<EdgeId>,
    /// Tree-local child ids.
    children: Vec<NodeId>,
    sink_delays: Vec<f64>,
    used_edges: Vec<(EdgeId, f64)>,
}

impl Slabs {
    fn clear(&mut self) {
        self.kinds.clear();
        self.vertices.clear();
        self.parents.clear();
        self.path_start.clear();
        self.path_len.clear();
        self.child_start.clear();
        self.child_len.clear();
        self.path_edges.clear();
        self.children.clear();
        self.sink_delays.clear();
        self.used_edges.clear();
    }

    fn len_total(&self) -> usize {
        self.kinds.len()
            + self.path_edges.len()
            + self.children.len()
            + self.sink_delays.len()
            + self.used_edges.len()
    }

    fn capacity_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.kinds.capacity() * size_of::<NodeKind>()
            + self.vertices.capacity() * size_of::<VertexId>()
            + self.parents.capacity() * size_of::<NodeId>()
            + (self.path_start.capacity()
                + self.path_len.capacity()
                + self.child_start.capacity()
                + self.child_len.capacity())
                * size_of::<u32>()
            + self.path_edges.capacity() * size_of::<EdgeId>()
            + self.children.capacity() * size_of::<NodeId>()
            + self.sink_delays.capacity() * size_of::<f64>()
            + self.used_edges.capacity() * size_of::<(EdgeId, f64)>()) as u64
    }

    /// Copies one live tree from `src` into this slab set, rebasing the
    /// per-node span offsets; node/child ids are tree-local and copy
    /// verbatim. Returns the rebased metadata.
    fn copy_tree(&mut self, src: &Slabs, m: &TreeMeta) -> TreeMeta {
        let node_start = self.kinds.len() as u32;
        let path_first = self.path_edges.len() as u32;
        let child_first = self.children.len() as u32;
        let nodes = m.node_range();
        self.kinds.extend_from_slice(&src.kinds[nodes.clone()]);
        self.vertices.extend_from_slice(&src.vertices[nodes.clone()]);
        self.parents.extend_from_slice(&src.parents[nodes.clone()]);
        for i in nodes.clone() {
            self.path_start.push(src.path_start[i] - m.path_first + path_first);
            self.child_start.push(src.child_start[i] - m.child_first + child_first);
        }
        self.path_len.extend_from_slice(&src.path_len[nodes.clone()]);
        self.child_len.extend_from_slice(&src.child_len[nodes]);
        self.path_edges.extend_from_slice(
            &src.path_edges[m.path_first as usize..(m.path_first + m.path_total) as usize],
        );
        self.children.extend_from_slice(
            &src.children[m.child_first as usize..(m.child_first + m.child_total) as usize],
        );
        let delay_start = self.sink_delays.len() as u32;
        self.sink_delays.extend_from_slice(
            &src.sink_delays[m.delay_start as usize..(m.delay_start + m.delay_len) as usize],
        );
        let used_start = self.used_edges.len() as u32;
        self.used_edges.extend_from_slice(
            &src.used_edges[m.used_start as usize..(m.used_start + m.used_len) as usize],
        );
        TreeMeta { node_start, path_first, child_first, delay_start, used_start, ..*m }
    }
}

/// Slot directory entry: where one tree's data lives, plus its summary
/// scalars.
#[derive(Debug, Clone, Copy)]
struct TreeMeta {
    node_start: u32,
    node_count: u32,
    path_first: u32,
    path_total: u32,
    child_first: u32,
    child_total: u32,
    delay_start: u32,
    delay_len: u32,
    used_start: u32,
    used_len: u32,
    wirelength_gcells: f64,
    vias: u32,
}

impl TreeMeta {
    fn node_range(&self) -> std::ops::Range<usize> {
        self.node_start as usize..(self.node_start + self.node_count) as usize
    }

    /// Slab elements this tree holds (garbage accounting unit).
    fn elements(&self) -> usize {
        self.node_count as usize
            + self.path_total as usize
            + self.child_total as usize
            + self.delay_len as usize
            + self.used_len as usize
    }
}

/// A self-contained snapshot of one routed tree in attachment order —
/// what [`RoutedForest::export_tree`] produces and
/// [`RoutedForest::import_tree`] consumes. This is the tree's
/// serialization form for mid-run checkpoints: structure only (no
/// children CSR, no summary payloads), because attachment order
/// determines the CSR and the router restores payloads separately.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeDump {
    /// Node kinds; node 0 is always [`NodeKind::Root`].
    pub kinds: Vec<NodeKind>,
    /// Graph vertex of each node.
    pub vertices: Vec<VertexId>,
    /// Parent of each node (attachment order guarantees
    /// `parents[v] < v`); entry 0 is unused and exported as 0.
    pub parents: Vec<NodeId>,
    /// Parent-path length of each node (0 for the root).
    pub path_len: Vec<u32>,
    /// Concatenated parent-path edges, `path_len[v]` per node.
    pub path_edges: Vec<EdgeId>,
}

/// Sibling-link scratch used while a tree is open for building; sealed
/// into the children CSR by [`RoutedForest::finish_tree`].
#[derive(Debug, Default, Clone)]
struct BuildScratch {
    first: Vec<NodeId>,
    last: Vec<NodeId>,
    next: Vec<NodeId>,
    count: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct OpenTree {
    slot: usize,
    node_start: u32,
    path_first: u32,
}

/// The struct-of-arrays arena. See the [module docs](self).
#[derive(Debug, Default, Clone)]
pub struct RoutedForest {
    slabs: Slabs,
    /// The second buffer: [`compact`](Self::compact) copies live trees
    /// here and swaps, so compaction cycles reuse two warm buffers
    /// instead of allocating.
    spare: Slabs,
    trees: Vec<Option<TreeMeta>>,
    /// Retired slab elements (replaced trees) awaiting compaction.
    dead: usize,
    build: BuildScratch,
    open: Option<OpenTree>,
}

impl RoutedForest {
    /// An empty forest with no slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty forest with `slots` empty tree slots.
    pub fn with_slots(slots: usize) -> Self {
        RoutedForest { trees: vec![None; slots], ..Self::default() }
    }

    /// Number of tree slots (routed or not).
    pub fn num_slots(&self) -> usize {
        self.trees.len()
    }

    /// Appends an empty slot, returning its index.
    pub fn alloc_slot(&mut self) -> usize {
        self.trees.push(None);
        self.trees.len() - 1
    }

    /// Drops every tree and every slot, keeping all slab capacity (the
    /// reuse path of per-iteration worker scratch forests).
    pub fn clear(&mut self) {
        assert!(self.open.is_none(), "clear during an open tree build");
        self.slabs.clear();
        self.trees.clear();
        self.dead = 0;
    }

    /// Drops every tree but keeps the slots (all become empty) and all
    /// slab capacity — what a full re-route sweep does before refilling
    /// every slot.
    pub fn clear_trees(&mut self) {
        assert!(self.open.is_none(), "clear during an open tree build");
        self.slabs.clear();
        self.trees.iter_mut().for_each(|t| *t = None);
        self.dead = 0;
    }

    fn meta(&self, slot: usize) -> &TreeMeta {
        // INVARIANT: documented contract - callers pass slots returned by a live insert/start_tree; the message names the offending slot for the caller bug.
        self.trees[slot].as_ref().unwrap_or_else(|| panic!("slot {slot} holds no tree"))
    }

    fn retire(&mut self, slot: usize) {
        if let Some(old) = self.trees[slot].take() {
            self.dead += old.elements();
        }
    }

    /// A read view of the tree in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no tree.
    pub fn view(&self, slot: usize) -> TreeView<'_> {
        TreeView { forest: self, meta: *self.meta(slot) }
    }

    /// The sink-delay span of `slot` (empty if none recorded).
    pub fn sink_delays(&self, slot: usize) -> &[f64] {
        match &self.trees[slot] {
            Some(m) => {
                &self.slabs.sink_delays
                    [m.delay_start as usize..(m.delay_start + m.delay_len) as usize]
            }
            None => &[],
        }
    }

    /// The used-edge span of `slot` (empty if none recorded).
    pub fn used_edges(&self, slot: usize) -> &[(EdgeId, f64)] {
        match &self.trees[slot] {
            Some(m) => {
                &self.slabs.used_edges[m.used_start as usize..(m.used_start + m.used_len) as usize]
            }
            None => &[],
        }
    }

    /// The recorded wirelength summary of `slot` (0 if empty).
    pub fn wirelength_gcells(&self, slot: usize) -> f64 {
        self.trees[slot].as_ref().map_or(0.0, |m| m.wirelength_gcells)
    }

    /// The recorded via-count summary of `slot` (0 if empty).
    pub fn vias(&self, slot: usize) -> usize {
        self.trees[slot].as_ref().map_or(0, |m| m.vias as usize)
    }

    // ------------------------------------------------------- building

    /// Opens `slot` for building, replacing any previous tree, and
    /// seeds the root node at `root_vertex`. Finish with
    /// [`finish_tree`](Self::finish_tree) (or drive the emit through a
    /// [`ForestTreeBuilder`] from [`build_tree`](Self::build_tree)).
    ///
    /// # Panics
    ///
    /// Panics if another tree build is open.
    pub fn start_tree(&mut self, slot: usize, root_vertex: VertexId) {
        assert!(self.open.is_none(), "a tree build is already open");
        assert!(slot < self.trees.len(), "slot {slot} out of range");
        self.retire(slot);
        self.open = Some(OpenTree {
            slot,
            node_start: self.slabs.kinds.len() as u32,
            path_first: self.slabs.path_edges.len() as u32,
        });
        self.build.first.clear();
        self.build.last.clear();
        self.build.next.clear();
        self.build.count.clear();
        self.push_node_raw(NodeKind::Root, root_vertex, NO_NODE, &[]);
    }

    fn push_node_raw(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: &[EdgeId],
    ) -> NodeId {
        // INVARIANT: documented contract - push_node is only legal between start_tree and finish_tree, while a build is open.
        let open = self.open.expect("no open tree build");
        let local = (self.slabs.kinds.len() as u32) - open.node_start;
        self.slabs.kinds.push(kind);
        self.slabs.vertices.push(vertex);
        self.slabs.parents.push(parent);
        self.slabs.path_start.push(self.slabs.path_edges.len() as u32);
        self.slabs.path_len.push(path.len() as u32);
        self.slabs.path_edges.extend_from_slice(path);
        self.slabs.child_start.push(0);
        self.slabs.child_len.push(0);
        self.build.first.push(NO_NODE);
        self.build.last.push(NO_NODE);
        self.build.next.push(NO_NODE);
        self.build.count.push(0);
        if parent != NO_NODE {
            let p = parent as usize;
            if self.build.first[p] == NO_NODE {
                self.build.first[p] = local;
            } else {
                let tail = self.build.last[p] as usize;
                self.build.next[tail] = local;
            }
            self.build.last[p] = local;
            self.build.count[p] += 1;
        }
        local
    }

    /// Adds a node to the open tree build.
    ///
    /// # Panics
    ///
    /// Panics if no build is open, `parent` is unknown, or `kind` is
    /// `Root`.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: &[EdgeId],
    ) -> NodeId {
        assert!(kind != NodeKind::Root, "a tree has exactly one root");
        assert!((parent as usize) < self.build.count.len(), "unknown parent");
        self.push_node_raw(kind, vertex, parent, path)
    }

    /// Children so far of `node` in the open build.
    pub fn open_child_count(&self, node: NodeId) -> usize {
        self.build.count[node as usize] as usize
    }

    /// Seals the open build: materializes the children CSR (attachment
    /// order) and publishes the slot's metadata.
    pub fn finish_tree(&mut self) {
        // INVARIANT: documented contract - finish_tree is only legal while a build is open.
        let open = self.open.take().expect("no open tree build");
        let node_count = self.slabs.kinds.len() as u32 - open.node_start;
        let child_first = self.slabs.children.len() as u32;
        for local in 0..node_count as usize {
            let abs = open.node_start as usize + local;
            self.slabs.child_start[abs] = self.slabs.children.len() as u32;
            self.slabs.child_len[abs] = self.build.count[local];
            let mut link = self.build.first[local];
            while link != NO_NODE {
                self.slabs.children.push(link);
                link = self.build.next[link as usize];
            }
        }
        self.trees[open.slot] = Some(TreeMeta {
            node_start: open.node_start,
            node_count,
            path_first: open.path_first,
            path_total: self.slabs.path_edges.len() as u32 - open.path_first,
            child_first,
            child_total: self.slabs.children.len() as u32 - child_first,
            delay_start: self.slabs.sink_delays.len() as u32,
            delay_len: 0,
            used_start: self.slabs.used_edges.len() as u32,
            used_len: 0,
            wirelength_gcells: 0.0,
            vias: 0,
        });
    }

    /// Opens `slot` and returns a [`TreeSink`] builder over it; call
    /// [`ForestTreeBuilder::finish`] when done.
    pub fn build_tree(&mut self, slot: usize, root_vertex: VertexId) -> ForestTreeBuilder<'_> {
        self.start_tree(slot, root_vertex);
        ForestTreeBuilder { forest: self }
    }

    /// Copies an owned tree into `slot` (node ids, child order, and
    /// edge order preserved verbatim).
    pub fn insert_embedded(&mut self, slot: usize, tree: &EmbeddedTree) {
        self.start_tree(slot, tree.vertex(0));
        for v in 1..tree.num_nodes() as NodeId {
            self.push_node_raw(
                tree.node_kind(v),
                tree.vertex(v),
                // INVARIANT: v starts at 1 and node 0 is the root, so every visited node has a parent by Topology construction.
                tree.parent(v).expect("non-root nodes have parents"),
                &tree.path(v).edges,
            );
        }
        self.finish_tree();
    }

    // ----------------------------------------------- summary payloads

    /// Records `slot`'s per-sink delays (replacing any previous span).
    pub fn set_sink_delays(&mut self, slot: usize, delays: &[f64]) {
        let start = self.slabs.sink_delays.len() as u32;
        self.slabs.sink_delays.extend_from_slice(delays);
        // INVARIANT: documented contract - slot names a live tree.
        let m = self.trees[slot].as_mut().expect("slot holds no tree");
        self.dead += m.delay_len as usize;
        m.delay_start = start;
        m.delay_len = delays.len() as u32;
    }

    /// Rebuilds `slot`'s used-edge span from its own path edges, one
    /// `(edge, tracks)` entry per edge use in tree order, via `map`
    /// (which translates the stored edge id and prices its track
    /// consumption).
    pub fn set_used_from_paths(
        &mut self,
        slot: usize,
        mut map: impl FnMut(EdgeId) -> (EdgeId, f64),
    ) {
        let m = *self.meta(slot);
        let Slabs { path_edges, used_edges, .. } = &mut self.slabs;
        let start = used_edges.len() as u32;
        for &e in &path_edges[m.path_first as usize..(m.path_first + m.path_total) as usize] {
            used_edges.push(map(e));
        }
        // INVARIANT: documented contract - slot names a live tree.
        let m = self.trees[slot].as_mut().expect("slot holds no tree");
        self.dead += m.used_len as usize;
        m.used_start = start;
        m.used_len = used_edges.len() as u32 - start;
    }

    /// Records `slot`'s wirelength/via summary scalars.
    pub fn set_summary(&mut self, slot: usize, wirelength_gcells: f64, vias: usize) {
        // INVARIANT: documented contract - slot names a live tree.
        let m = self.trees[slot].as_mut().expect("slot holds no tree");
        m.wirelength_gcells = wirelength_gcells;
        m.vias = vias as u32;
    }

    // ------------------------------------------- copy / double buffer

    /// Copies the tree (and its summary payloads) in `src_slot` of
    /// `src` into `dst_slot` of `self`, replacing any previous tree —
    /// contiguous slab copies, no per-node work beyond span rebasing.
    pub fn copy_tree_from(&mut self, src: &RoutedForest, src_slot: usize, dst_slot: usize) {
        assert!(self.open.is_none(), "copy during an open tree build");
        self.retire(dst_slot);
        let m = src.meta(src_slot);
        self.trees[dst_slot] = Some(self.slabs.copy_tree(&src.slabs, m));
    }

    /// Snapshots the tree in `slot` as an owned [`TreeDump`] — the
    /// checkpoint serialization form. The children CSR and summary
    /// payloads are not exported: attachment order reconstructs the
    /// former, and the router restores the latter separately.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no tree.
    pub fn export_tree(&self, slot: usize) -> TreeDump {
        let m = self.meta(slot);
        let nodes = m.node_range();
        TreeDump {
            kinds: self.slabs.kinds[nodes.clone()].to_vec(),
            vertices: self.slabs.vertices[nodes.clone()].to_vec(),
            parents: self.slabs.parents[nodes.clone()]
                .iter()
                .map(|&p| if p == NO_NODE { 0 } else { p })
                .collect(),
            path_len: self.slabs.path_len[nodes].to_vec(),
            path_edges: self.slabs.path_edges
                [m.path_first as usize..(m.path_first + m.path_total) as usize]
                .to_vec(),
        }
    }

    /// Rebuilds the tree in `slot` from a dump, replacing any previous
    /// tree. Node ids, children order, and path-edge enumeration order
    /// are identical to the exported original, so
    /// `import_tree(export_tree(s))` reproduces the tree bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on a malformed dump (callers validate dumps when they
    /// cross a trust boundary — the checkpoint parser does).
    pub fn import_tree(&mut self, slot: usize, dump: &TreeDump) {
        let n = dump.kinds.len();
        assert!(n > 0, "a tree dump needs at least the root");
        assert!(
            dump.vertices.len() == n && dump.parents.len() == n && dump.path_len.len() == n,
            "tree dump arrays disagree on the node count"
        );
        assert_eq!(dump.kinds[0], NodeKind::Root, "node 0 must be the root");
        assert_eq!(dump.path_len[0], 0, "the root has no parent path");
        self.start_tree(slot, dump.vertices[0]);
        let mut off = 0usize;
        for v in 1..n {
            let len = dump.path_len[v] as usize;
            let path = &dump.path_edges[off..off + len];
            off += len;
            self.add_node(dump.kinds[v], dump.vertices[v], dump.parents[v], path);
        }
        assert_eq!(off, dump.path_edges.len(), "path edges disagree with path lengths");
        self.finish_tree();
    }

    /// Fraction of slab elements held by retired (replaced) trees.
    pub fn garbage_ratio(&self) -> f64 {
        let total = self.slabs.len_total();
        if total == 0 {
            0.0
        } else {
            self.dead as f64 / total as f64
        }
    }

    /// Compacts the arena: copies every live tree, in slot order, into
    /// the spare buffer and swaps. Slot indices, tree-local node ids,
    /// and all enumeration orders are unchanged; only offsets move.
    /// Both buffers retain their capacity, so steady-state compaction
    /// cycles are allocation-free.
    pub fn compact(&mut self) {
        assert!(self.open.is_none(), "compact during an open tree build");
        self.spare.clear();
        for slot in 0..self.trees.len() {
            if let Some(m) = self.trees[slot] {
                self.trees[slot] = Some(self.spare.copy_tree(&self.slabs, &m));
            }
        }
        std::mem::swap(&mut self.slabs, &mut self.spare);
        self.spare.clear();
        self.dead = 0;
    }

    /// Bytes currently reserved by both slab buffers (capacity, not
    /// length) — the router's peak-arena accounting reads this.
    pub fn arena_bytes(&self) -> u64 {
        self.slabs.capacity_bytes() + self.spare.capacity_bytes()
    }
}

/// A [`TreeSink`] over an open [`RoutedForest`] slot.
#[derive(Debug)]
pub struct ForestTreeBuilder<'a> {
    forest: &'a mut RoutedForest,
}

impl ForestTreeBuilder<'_> {
    /// Seals the tree (children CSR + slot metadata).
    pub fn finish(self) {
        self.forest.finish_tree();
    }
}

impl TreeSink for ForestTreeBuilder<'_> {
    fn root_node(&self) -> NodeId {
        0
    }

    fn push_node(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: &[EdgeId],
    ) -> NodeId {
        self.forest.add_node(kind, vertex, parent, path)
    }

    fn child_count(&self, node: NodeId) -> usize {
        self.forest.open_child_count(node)
    }
}

/// A cheap (`Copy`) read handle over one tree of a [`RoutedForest`],
/// exposing the [`EmbeddedTree`] read API without materializing.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    forest: &'a RoutedForest,
    meta: TreeMeta,
}

impl<'a> TreeView<'a> {
    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// All edges of the tree — one contiguous slab slice, in the same
    /// enumeration order as `EmbeddedTree::edges`.
    pub fn edges(&self) -> &'a [EdgeId] {
        &self.forest.slabs.path_edges
            [self.meta.path_first as usize..(self.meta.path_first + self.meta.path_total) as usize]
    }

    /// Total wirelength in gcell units.
    pub fn wirelength<G: SteinerGraph + ?Sized>(&self, g: &G) -> f64 {
        self.edges().iter().map(|&e| g.edge_attrs(e).length).sum()
    }

    /// Number of via edges used.
    pub fn via_count<G: SteinerGraph + ?Sized>(&self, g: &G) -> usize {
        self.edges().iter().filter(|&&e| g.edge_attrs(e).kind == EdgeKind::Via).count()
    }

    /// Evaluates the paper's objective into caller scratch (per-sink
    /// delays land in `s.sink_delays`).
    pub fn evaluate_into(
        &self,
        c: &[f64],
        d: &[f64],
        weights: &[f64],
        bif: &BifurcationConfig,
        s: &mut EvalScratch,
    ) -> EvalTotals {
        evaluate_into(self, c, d, weights, bif, s)
    }

    /// Evaluates the paper's objective (owned result form).
    pub fn evaluate(
        &self,
        c: &[f64],
        d: &[f64],
        weights: &[f64],
        bif: &BifurcationConfig,
    ) -> Evaluation {
        evaluate_owned(self, c, d, weights, bif)
    }

    /// Structural validation (see [`validate_tree`]).
    pub fn validate<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        num_sinks: usize,
    ) -> Result<(), String> {
        validate_tree(self, g, num_sinks)
    }

    #[inline]
    fn abs(&self, v: NodeId) -> usize {
        debug_assert!(v < self.meta.node_count, "node {v} out of range");
        (self.meta.node_start + v) as usize
    }
}

impl TreeRead for TreeView<'_> {
    fn num_nodes(&self) -> usize {
        self.meta.node_count as usize
    }

    fn node_kind(&self, v: NodeId) -> NodeKind {
        self.forest.slabs.kinds[self.abs(v)]
    }

    fn vertex(&self, v: NodeId) -> VertexId {
        self.forest.slabs.vertices[self.abs(v)]
    }

    fn parent(&self, v: NodeId) -> Option<NodeId> {
        match self.forest.slabs.parents[self.abs(v)] {
            NO_NODE => None,
            p => Some(p),
        }
    }

    fn children(&self, v: NodeId) -> &[NodeId] {
        let a = self.abs(v);
        let s = self.forest.slabs.child_start[a] as usize;
        &self.forest.slabs.children[s..s + self.forest.slabs.child_len[a] as usize]
    }

    fn path_edges(&self, v: NodeId) -> &[EdgeId] {
        let a = self.abs(v);
        let s = self.forest.slabs.path_start[a] as usize;
        &self.forest.slabs.path_edges[s..s + self.forest.slabs.path_len[a] as usize]
    }
}

// Convenience inherent mirrors of the TreeRead accessors, so callers
// holding a TreeView need not import the trait.
impl TreeView<'_> {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        TreeRead::num_nodes(self)
    }

    /// Kind of `v`.
    pub fn node_kind(&self, v: NodeId) -> NodeKind {
        TreeRead::node_kind(self, v)
    }

    /// Graph vertex of `v`.
    pub fn vertex(&self, v: NodeId) -> VertexId {
        TreeRead::vertex(self, v)
    }

    /// Parent of `v`.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        TreeRead::parent(self, v)
    }

    /// Children of `v`, in attachment order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        TreeRead::children(self, v)
    }

    /// Path (from the parent's vertex) of `v`.
    pub fn path_edges(&self, v: NodeId) -> &[EdgeId] {
        TreeRead::path_edges(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{EdgeAttrs, Graph, GraphBuilder};

    fn line4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, EdgeAttrs::wire(1.0, 10.0));
        }
        b.build()
    }

    /// Builds the same small tree in both forms.
    fn sample_tree() -> EmbeddedTree {
        let mut t = EmbeddedTree::new(1);
        let s = t.add_node(NodeKind::Steiner, 1, 0, vec![]);
        t.add_node(NodeKind::Sink(0), 0, s, vec![0]);
        t.add_node(NodeKind::Sink(1), 3, s, vec![1, 2]);
        t
    }

    #[test]
    fn view_mirrors_owned_tree_bit_for_bit() {
        let g = line4();
        let (c, d) = (g.base_costs(), g.delays());
        let tree = sample_tree();
        let mut f = RoutedForest::with_slots(3);
        f.insert_embedded(2, &tree);
        let v = f.view(2);
        assert_eq!(v.num_nodes(), tree.num_nodes());
        for n in 0..tree.num_nodes() as NodeId {
            assert_eq!(v.node_kind(n), tree.node_kind(n), "node {n} kind");
            assert_eq!(v.vertex(n), tree.vertex(n), "node {n} vertex");
            assert_eq!(v.parent(n), tree.parent(n), "node {n} parent");
            assert_eq!(v.children(n), tree.children(n), "node {n} children");
            assert_eq!(v.path_edges(n), &tree.path(n).edges[..], "node {n} path");
        }
        let owned_edges: Vec<EdgeId> = tree.edges().collect();
        assert_eq!(v.edges(), &owned_edges[..]);
        assert_eq!(v.wirelength(&g).to_bits(), tree.wirelength(&g).to_bits());
        assert_eq!(v.via_count(&g), tree.via_count(&g));
        v.validate(&g, 2).unwrap();
        let bif = BifurcationConfig::new(6.0, 0.25);
        let w = [5.0, 1.0];
        let a = tree.evaluate(&c, &d, &w, &bif);
        let b = v.evaluate(&c, &d, &w, &bif);
        assert_eq!(a, b, "owned and view evaluations must be bit-identical");
    }

    #[test]
    fn replacing_a_slot_retires_garbage_and_compaction_preserves_trees() {
        let g = line4();
        let tree = sample_tree();
        let mut f = RoutedForest::with_slots(2);
        f.insert_embedded(0, &tree);
        f.insert_embedded(1, &tree);
        assert_eq!(f.garbage_ratio(), 0.0);
        // replace slot 0 twice — garbage accumulates
        f.insert_embedded(0, &tree);
        f.insert_embedded(0, &tree);
        assert!(f.garbage_ratio() > 0.3, "ratio {}", f.garbage_ratio());
        f.set_sink_delays(1, &[1.5, 2.5]);
        f.set_used_from_paths(1, |e| (e, 1.0));
        f.set_summary(1, 3.0, 0);
        let before: Vec<EdgeId> = f.view(1).edges().to_vec();
        f.compact();
        assert_eq!(f.garbage_ratio(), 0.0);
        assert_eq!(f.view(1).edges(), &before[..]);
        assert_eq!(f.sink_delays(1), &[1.5, 2.5]);
        assert_eq!(f.used_edges(1).len(), 3);
        assert_eq!(f.wirelength_gcells(1), 3.0);
        f.view(0).validate(&g, 2).unwrap();
        f.view(1).validate(&g, 2).unwrap();
    }

    #[test]
    fn copy_tree_from_transfers_trees_and_payloads() {
        let tree = sample_tree();
        let mut src = RoutedForest::with_slots(1);
        src.insert_embedded(0, &tree);
        src.set_sink_delays(0, &[10.0, 30.0]);
        src.set_used_from_paths(0, |e| (e + 100, 2.0));
        src.set_summary(0, 3.0, 1);
        let mut dst = RoutedForest::with_slots(4);
        dst.insert_embedded(3, &tree); // will be replaced
        dst.copy_tree_from(&src, 0, 3);
        assert_eq!(dst.sink_delays(3), &[10.0, 30.0]);
        assert_eq!(dst.used_edges(3), &[(100, 2.0), (101, 2.0), (102, 2.0)]);
        assert_eq!(dst.wirelength_gcells(3), 3.0);
        assert_eq!(dst.vias(3), 1);
        let want: Vec<EdgeId> = tree.edges().collect();
        assert_eq!(dst.view(3).edges(), &want[..]);
        assert!(dst.garbage_ratio() > 0.0, "the replaced tree must count as garbage");
    }

    #[test]
    fn export_import_round_trips_structure_bit_identically() {
        let tree = sample_tree();
        let mut src = RoutedForest::with_slots(1);
        src.insert_embedded(0, &tree);
        let dump = src.export_tree(0);
        let mut dst = RoutedForest::with_slots(2);
        dst.import_tree(1, &dump);
        let (a, b) = (src.view(0), dst.view(1));
        assert_eq!(a.num_nodes(), b.num_nodes());
        for v in 0..a.num_nodes() as NodeId {
            assert_eq!(a.node_kind(v), b.node_kind(v));
            assert_eq!(a.vertex(v), b.vertex(v));
            assert_eq!(a.parent(v), b.parent(v));
            assert_eq!(a.children(v), b.children(v));
            assert_eq!(a.path_edges(v), b.path_edges(v));
        }
        assert_eq!(a.edges(), b.edges());
        // re-export reproduces the dump exactly
        assert_eq!(dst.export_tree(1), dump);
    }

    #[test]
    fn builder_matches_embedded_add_node_semantics() {
        let mut f = RoutedForest::with_slots(1);
        let mut b = f.build_tree(0, 5);
        assert_eq!(b.root_node(), 0);
        let s = b.push_node(NodeKind::Steiner, 5, 0, &[]);
        assert_eq!(b.child_count(0), 1);
        b.push_node(NodeKind::Sink(0), 6, s, &[2]);
        b.push_node(NodeKind::Sink(1), 4, s, &[1]);
        assert_eq!(b.child_count(s), 2);
        b.finish();
        let v = f.view(0);
        assert_eq!(v.children(s), &[2, 3]);
        assert_eq!(v.path_edges(3), &[1]);
        assert_eq!(v.parent(3), Some(s));
    }
}
