//! Turning the merge loop's edge set into a bifurcation-compatible
//! [`EmbeddedTree`].
//!
//! The solver accumulates paths; their union (after dropping duplicate
//! edge uses, which only makes the tree cheaper) is a connected subgraph
//! containing the root and all sinks. A DFS from the root yields the
//! arborescence; chains of degree-2 vertices are compressed into arcs,
//! sinks become leaves hanging off their host vertices, and high-degree
//! branch points are expanded into same-vertex Steiner chains so the
//! result is bifurcation compatible.
//!
//! All working tables (subgraph adjacency, DFS state, children lists)
//! are dense epoch-stamped slabs in an [`AssembleScratch`] pooled by the
//! [`SolverWorkspace`](crate::SolverWorkspace) — a warm workspace
//! assembles trees without touching the allocator beyond the output
//! tree itself.

use crate::components::DenseAdjacency;
use crate::table::{VertexSet, VertexTable};
use cds_graph::{EdgeId, SteinerGraph, VertexId};
use cds_topo::{EmbeddedTree, NodeId, NodeKind, RoutedForest, TreeSink};

const NO_LINK: u32 = u32::MAX;
const NO_EDGE: EdgeId = EdgeId::MAX;

/// Reusable buffers for [`assemble_tree_in`]: the used-subgraph
/// adjacency, DFS state, per-vertex sink lists, and children lists. All
/// vertex-keyed tables are epoch-stamped (`O(1)` clear, warm slabs).
#[derive(Debug, Default)]
pub struct AssembleScratch {
    used: Vec<EdgeId>,
    adj: DenseAdjacency,
    nbrs: Vec<(VertexId, EdgeId)>,
    visited: VertexSet,
    parent: VertexTable<(VertexId, EdgeId)>,
    order: Vec<VertexId>,
    stack: Vec<VertexId>,
    /// head of each vertex's sink list (index into `sink_links`)
    sink_head: VertexTable<u32>,
    /// (next link, sink index) — lists traverse in increasing sink index
    sink_links: Vec<(u32, u32)>,
    /// children lists in CSR form keyed by parent vertex
    cdeg: VertexTable<u32>,
    cstart: VertexTable<u32>,
    cend: VertexTable<u32>,
    centries: Vec<(VertexId, EdgeId)>,
    pending: Vec<Attachment>,
    /// emit work list: (tree node to attach under, graph vertex to
    /// process, entering edge or [`NO_EDGE`] for the root item)
    work: Vec<(NodeId, VertexId, EdgeId)>,
    /// the arc path under construction for the current work item
    path_buf: Vec<EdgeId>,
}

impl AssembleScratch {
    fn clear(&mut self) {
        self.used.clear();
        self.visited.clear();
        self.parent.clear();
        self.order.clear();
        self.stack.clear();
        self.sink_head.clear();
        self.sink_links.clear();
        self.cdeg.clear();
        self.cstart.clear();
        self.cend.clear();
        self.centries.clear();
        self.pending.clear();
        self.work.clear();
        self.path_buf.clear();
    }

    fn children(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        match (self.cstart.get(v), self.cend.get(v)) {
            (Some(s), Some(e)) => &self.centries[s as usize..e as usize],
            _ => &[],
        }
    }
}

/// Builds the final tree from the used edge set against caller-owned
/// scratch buffers — the allocation-free path of a warm workspace.
///
/// `sink_vertices[i]` is sink `i`'s vertex. Edges may contain duplicates
/// (the base algorithm without §III-A can produce overlapping paths);
/// duplicates are dropped.
///
/// # Panics
///
/// Panics if some sink is not connected to the root through `edges`.
pub fn assemble_tree_in<G: SteinerGraph + ?Sized>(
    s: &mut AssembleScratch,
    graph: &G,
    root: VertexId,
    sink_vertices: &[VertexId],
    edges: &[EdgeId],
) -> EmbeddedTree {
    prepare(s, graph, root, sink_vertices, edges);
    let mut out = EmbeddedTree::new(root);
    emit(s, root, &mut out);
    out
}

/// [`assemble_tree_in`] writing straight into a [`RoutedForest`] slot —
/// the allocation-free arena path: the same prepare/emit pipeline, with
/// the output landing in the forest's shared slabs instead of an owned
/// tree. The resulting [`TreeView`](cds_topo::TreeView) is bit-identical
/// (node ids, child order, edge order) to what [`assemble_tree_in`]
/// returns for the same inputs.
///
/// # Panics
///
/// Same contract as [`assemble_tree_in`].
pub fn assemble_tree_into<G: SteinerGraph + ?Sized>(
    s: &mut AssembleScratch,
    graph: &G,
    root: VertexId,
    sink_vertices: &[VertexId],
    edges: &[EdgeId],
    forest: &mut RoutedForest,
    slot: usize,
) {
    prepare(s, graph, root, sink_vertices, edges);
    let mut out = forest.build_tree(slot, root);
    emit(s, root, &mut out);
    out.finish();
}

/// The analysis half of assembly: deduplicated used-subgraph adjacency,
/// per-vertex sink lists, the root DFS, and the children CSR — all into
/// the scratch tables, ready for [`emit`].
fn prepare<G: SteinerGraph + ?Sized>(
    s: &mut AssembleScratch,
    graph: &G,
    root: VertexId,
    sink_vertices: &[VertexId],
    edges: &[EdgeId],
) {
    s.clear();
    // Deduplicated adjacency of the used subgraph.
    s.used.extend_from_slice(edges);
    s.used.sort_unstable();
    s.used.dedup();
    s.adj.rebuild(&s.used, graph);
    // sinks per vertex: build the linked lists back to front so each
    // vertex's list traverses in increasing sink index
    for (i, &v) in sink_vertices.iter().enumerate().rev() {
        let next = s.sink_head.get_or(v, NO_LINK);
        s.sink_links.push((next, i as u32));
        s.sink_head.insert(v, s.sink_links.len() as u32 - 1);
    }

    // DFS from the root, recording the spanning-tree parent of each
    // vertex (cycle edges are skipped — they would only add cost).
    s.visited.insert(root);
    s.order.push(root);
    s.stack.push(root);
    while let Some(v) = s.stack.pop() {
        // deterministic order
        s.nbrs.clear();
        s.nbrs.extend_from_slice(s.adj.neighbors(v));
        s.nbrs.sort_unstable();
        for i in 0..s.nbrs.len() {
            let (w, e) = s.nbrs[i];
            if s.visited.insert(w) {
                s.parent.insert(w, (v, e));
                s.order.push(w);
                s.stack.push(w);
            }
        }
    }
    for (i, &v) in sink_vertices.iter().enumerate() {
        assert!(s.visited.contains(v), "sink {i} at vertex {v} is not connected to the root");
    }

    // children lists of the DFS tree, CSR over parent vertices, each
    // segment sorted for determinism
    for i in 0..s.order.len() {
        if let Some((p, _)) = s.parent.get(s.order[i]) {
            s.cdeg.add(p, 0, 1);
        }
    }
    let mut cur = 0u32;
    for i in 0..s.order.len() {
        let v = s.order[i];
        if let Some(d) = s.cdeg.get(v) {
            s.cstart.insert(v, cur);
            s.cend.insert(v, cur);
            cur += d;
        }
    }
    s.centries.resize(cur as usize, (0, 0));
    for i in 0..s.order.len() {
        let v = s.order[i];
        if let Some((p, e)) = s.parent.get(v) {
            // INVARIANT: the counting pass above inserted a cend entry for every parent recorded in s.parent.
            let c = s.cend.get(p).expect("counted") as usize;
            s.centries[c] = (v, e);
            s.cend.insert(p, c as u32 + 1);
        }
    }
    for i in 0..s.order.len() {
        let v = s.order[i];
        if let (Some(a), Some(b)) = (s.cstart.get(v), s.cend.get(v)) {
            s.centries[a as usize..b as usize].sort_unstable();
        }
    }
}

/// The emit half of assembly, generic over the output form: walks down
/// from the root, compressing pass-through chains, attaching sink
/// leaves, and keeping every node at ≤ 2 children via same-vertex
/// extension Steiner nodes. Writes to any [`TreeSink`] — the owned
/// [`EmbeddedTree`] and the [`RoutedForest`] arena produce identical
/// trees through this one code path.
fn emit<T: TreeSink>(s: &mut AssembleScratch, root: VertexId, out: &mut T) {
    // Work list: (tree node to attach under, graph vertex to process,
    // edge entering this vertex — the path itself accumulates in the
    // shared `path_buf`, so no per-item allocation).
    s.work.clear();
    s.work.push((out.root_node(), root, NO_EDGE));
    while let Some((parent_node, mut v, enter)) = s.work.pop() {
        s.path_buf.clear();
        if enter != NO_EDGE {
            s.path_buf.push(enter);
        }
        // compress: follow single-child, sink-free vertices
        loop {
            let kids = s.children(v);
            if kids.len() == 1 && !s.sink_head.contains(v) && !s.path_buf.is_empty() {
                let (w, e) = kids[0];
                s.path_buf.push(e);
                v = w;
            } else {
                break;
            }
        }
        let is_root_node = parent_node == out.root_node() && s.path_buf.is_empty() && v == root;
        // the node hosting this vertex
        let host = if is_root_node {
            out.root_node()
        } else {
            out.push_node(NodeKind::Steiner, v, parent_node, &s.path_buf)
        };
        // gather attachments: sink leaves first (lists traverse in
        // increasing sink index), then subtrees
        s.pending.clear();
        let mut link = s.sink_head.get_or(v, NO_LINK);
        while link != NO_LINK {
            let (next, sink) = s.sink_links[link as usize];
            s.pending.push(Attachment::Sink(sink as usize));
            link = next;
        }
        if let (Some(a), Some(b)) = (s.cstart.get(v), s.cend.get(v)) {
            for i in a as usize..b as usize {
                let (w, e) = s.centries[i];
                s.pending.push(Attachment::Subtree(w, e));
            }
        }
        // Chain attachments so no node exceeds its capacity. Subtrees
        // are attached lazily through the work list, so track reserved
        // slots explicitly.
        let mut cur = host;
        let mut used = out.child_count(cur);
        let total = s.pending.len();
        for i in 0..total {
            let att = s.pending[i];
            let remaining_after = total - i - 1;
            loop {
                let cap: usize = if cur == out.root_node() { 1 } else { 2 };
                // keep one slot free for the continuation chain when
                // more attachments follow
                let need = if remaining_after > 0 { 2 } else { 1 };
                if cap.saturating_sub(used) >= need {
                    break;
                }
                cur = out.push_node(NodeKind::Steiner, v, cur, &[]);
                used = 0;
            }
            match att {
                Attachment::Sink(sink) => {
                    out.push_node(NodeKind::Sink(sink), v, cur, &[]);
                }
                Attachment::Subtree(w, e) => {
                    s.work.push((cur, w, e));
                }
            }
            used += 1;
        }
        s.pending.clear();
    }
}

#[derive(Debug, Clone, Copy)]
enum Attachment {
    Sink(usize),
    Subtree(VertexId, EdgeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{EdgeAttrs, GraphBuilder, GridSpec};
    use cds_topo::BifurcationConfig;

    #[test]
    fn line_with_two_sinks() {
        // 0 - 1 - 2 - 3, root 0, sinks at 2 and 3
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, EdgeAttrs::wire(1.0, 1.0));
        }
        let g = b.build();
        let t = assemble_tree_in(&mut AssembleScratch::default(), &g, 0, &[2, 3], &[0, 1, 2]);
        t.validate(&g, 2).unwrap();
        let (c, d) = (g.base_costs(), g.delays());
        let ev = t.evaluate(&c, &d, &[1.0, 1.0], &BifurcationConfig::ZERO);
        assert_eq!(ev.connection_cost, 3.0);
        assert_eq!(ev.sink_delays[0], 2.0);
        assert_eq!(ev.sink_delays[1], 3.0);
    }

    #[test]
    fn duplicate_edges_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let t = assemble_tree_in(&mut AssembleScratch::default(), &g, 0, &[2], &[0, 1, 0, 1]);
        t.validate(&g, 1).unwrap();
        let (c, d) = (g.base_costs(), g.delays());
        let ev = t.evaluate(&c, &d, &[1.0], &BifurcationConfig::ZERO);
        assert_eq!(ev.connection_cost, 2.0, "duplicates must not be double counted");
    }

    #[test]
    fn many_sinks_at_one_vertex_stay_binary() {
        let grid = GridSpec::uniform(3, 3, 2).build();
        let g = grid.graph();
        let hub = grid.vertex(1, 1, 1);
        let root = grid.vertex(0, 1, 1);
        // route root to hub on layer 1 (vertical? layer 1 is vertical);
        // use explicit Dijkstra path instead of hand-picking edges
        let sp = cds_graph::dijkstra::shortest_paths(g, &[(root, 0.0)], |e| g.edge(e).base_cost);
        let path = sp.path_to(hub).unwrap();
        let t = assemble_tree_in(&mut AssembleScratch::default(), g, root, &[hub, hub, hub], &path);
        t.validate(g, 3).unwrap();
        // validate() enforces ≤ 2 children + leaf sinks
    }

    #[test]
    fn branch_vertices_become_steiner_chains() {
        // star: center 1 with arms 0 (root), 2, 3, 4
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 3, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 4, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let t = assemble_tree_in(&mut AssembleScratch::default(), &g, 0, &[2, 3, 4], &[0, 1, 2, 3]);
        t.validate(&g, 3).unwrap();
        let (c, d) = (g.base_costs(), g.delays());
        let ev = t.evaluate(&c, &d, &[1.0; 3], &BifurcationConfig::ZERO);
        assert_eq!(ev.connection_cost, 4.0);
        // the 3-way branch at vertex 1 is two chained bifurcations
        assert_eq!(ev.bifurcations, 2);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let grid = GridSpec::uniform(4, 4, 2).build();
        let g = grid.graph();
        let root = grid.vertex(0, 0, 0);
        let sinks = [grid.vertex(3, 0, 0), grid.vertex(0, 3, 0)];
        let sp = cds_graph::dijkstra::shortest_paths(g, &[(root, 0.0)], |e| g.edge(e).base_cost);
        let mut edges = sp.path_to(sinks[0]).unwrap();
        edges.extend(sp.path_to(sinks[1]).unwrap());
        let mut scratch = AssembleScratch::default();
        let mut reference: Option<Vec<EdgeId>> = None;
        for _ in 0..3 {
            let t = assemble_tree_in(&mut scratch, g, root, &sinks, &edges);
            t.validate(g, 2).unwrap();
            let got: Vec<EdgeId> = t.edges().collect();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "scratch reuse changed the tree"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_sink_panics() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let _ = assemble_tree_in(&mut AssembleScratch::default(), &g, 0, &[3], &[0]);
    }
}
