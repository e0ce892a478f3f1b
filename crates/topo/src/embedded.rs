//! Trees embedded into the global routing graph, and the paper's
//! objective function.
//!
//! An [`EmbeddedTree`] is an r-arborescence whose nodes are mapped to
//! graph vertices and whose arcs carry explicit edge paths. Its
//! [`evaluate`](EmbeddedTree::evaluate) method computes
//!
//! ```text
//! cost(T) = Σ_{e∈T} c(e) + Σ_{t∈S} w(t)·delay_T(r, t)        (1)
//! delay_T(r,t) = Σ_{(u,v)∈T[r,t]} ( d(e) + λ_v·d_bif )       (3)
//! ```
//!
//! with λ chosen by Eq. (2) at every proper bifurcation.

use crate::forest::{self, TreeRead, TreeSink};
use crate::penalty::BifurcationConfig;
use crate::topology::{NodeId, NodeKind};
use cds_graph::{EdgeId, EdgeKind, SteinerGraph, VertexId};

/// One arc of an embedded tree: the path from the parent's vertex to the
/// node's vertex. May be empty when both map to the same vertex.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EmbeddedArc {
    /// Edges in parent→node order.
    pub edges: Vec<EdgeId>,
}

/// An r-arborescence embedded in a routing graph. Node 0 is the root.
///
/// Invariants (checked by [`validate`](Self::validate)):
/// * every non-root node's path walks from its parent's vertex to its own,
/// * sinks are leaves and internal nodes have at most two children
///   (bifurcation compatibility — the solvers all produce such trees).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedTree {
    kinds: Vec<NodeKind>,
    vertices: Vec<VertexId>,
    parent: Vec<Option<NodeId>>,
    paths: Vec<EmbeddedArc>,
    children: Vec<Vec<NodeId>>,
}

/// Everything [`EmbeddedTree::evaluate`] computes in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `Σ_{e∈T} c(e)` — the congestion part of Eq. (1).
    pub connection_cost: f64,
    /// `Σ_t w(t)·delay(t)` — the delay part of Eq. (1).
    pub delay_cost: f64,
    /// `connection_cost + delay_cost`.
    pub total: f64,
    /// delay\[sink index\] per Eq. (3); `NaN` for sinks absent from the
    /// tree (callers should treat that as a bug — `validate` catches it).
    pub sink_delays: Vec<f64>,
    /// Number of proper bifurcations (nodes with two children).
    pub bifurcations: usize,
}

impl EmbeddedTree {
    /// A tree consisting only of the root at `vertex`.
    pub fn new(vertex: VertexId) -> Self {
        EmbeddedTree {
            kinds: vec![NodeKind::Root],
            vertices: vec![vertex],
            parent: vec![None],
            paths: vec![EmbeddedArc::default()],
            children: vec![Vec::new()],
        }
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `v`.
    pub fn node_kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v as usize]
    }

    /// Graph vertex of `v`.
    pub fn vertex(&self, v: NodeId) -> VertexId {
        self.vertices[v as usize]
    }

    /// Parent of `v`.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v as usize]
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v as usize]
    }

    /// Path (from the parent's vertex) of `v`.
    pub fn path(&self, v: NodeId) -> &EmbeddedArc {
        &self.paths[v as usize]
    }

    /// (sink index, node) pairs for all sinks.
    pub fn sink_nodes(&self) -> Vec<(usize, NodeId)> {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| match k {
                NodeKind::Sink(s) => Some((*s, i as NodeId)),
                _ => None,
            })
            .collect()
    }

    /// Adds a node under `parent` reached by `path`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown or `kind` is `Root`.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: Vec<EdgeId>,
    ) -> NodeId {
        assert!((parent as usize) < self.kinds.len(), "unknown parent");
        assert!(kind != NodeKind::Root, "a tree has exactly one root");
        let id = self.kinds.len() as NodeId;
        self.kinds.push(kind);
        self.vertices.push(vertex);
        self.parent.push(Some(parent));
        self.paths.push(EmbeddedArc { edges: path });
        self.children.push(Vec::new());
        self.children[parent as usize].push(id);
        id
    }

    /// All edges of the tree (one entry per use).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.paths.iter().flat_map(|p| p.edges.iter().copied())
    }

    /// Total wirelength in gcell units (sum of edge lengths).
    pub fn wirelength<G: SteinerGraph + ?Sized>(&self, g: &G) -> f64 {
        self.edges().map(|e| g.edge_attrs(e).length).sum()
    }

    /// Number of via edges used.
    pub fn via_count<G: SteinerGraph + ?Sized>(&self, g: &G) -> usize {
        self.edges().filter(|&e| g.edge_attrs(e).kind == EdgeKind::Via).count()
    }

    /// Nodes in depth-first preorder.
    pub fn dfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![self.root()];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Total sink delay weight below each node.
    pub fn subtree_weights(&self, weights: &[f64]) -> Vec<f64> {
        let order = self.dfs_order();
        let mut w = vec![0.0f64; self.num_nodes()];
        for &v in order.iter().rev() {
            if let NodeKind::Sink(s) = self.node_kind(v) {
                w[v as usize] += weights[s];
            }
            for &c in self.children(v).iter() {
                let wc = w[c as usize];
                w[v as usize] += wc;
            }
        }
        w
    }

    /// Number of proper bifurcations on the root→sink path of `sink_node`
    /// (the quantity Fig. 1 of the paper illustrates).
    pub fn bifurcations_on_path(&self, sink_node: NodeId) -> usize {
        let mut count = 0;
        let mut cur = self.parent(sink_node);
        while let Some(v) = cur {
            if self.children(v).len() == 2 {
                count += 1;
            }
            cur = self.parent(v);
        }
        count
    }

    /// Evaluates the paper's objective, Eq. (1) with the delay model of
    /// Eq. (3). `c` and `d` are dense per-edge cost/delay slices;
    /// `weights` is indexed by sink index.
    ///
    /// # Panics
    ///
    /// Panics if a node has more than two children (evaluate only
    /// bifurcation-compatible trees) or if a sink index is out of range
    /// of `weights`.
    pub fn evaluate(
        &self,
        c: &[f64],
        d: &[f64],
        weights: &[f64],
        bif: &BifurcationConfig,
    ) -> Evaluation {
        forest::evaluate_owned(self, c, d, weights, bif)
    }

    /// Checks that every arc's path actually walks from the parent vertex
    /// to the node vertex in `g`, that sinks `0..num_sinks` each appear
    /// exactly once as leaves, and that internal nodes have ≤ 2 children.
    pub fn validate<G: SteinerGraph + ?Sized>(
        &self,
        g: &G,
        num_sinks: usize,
    ) -> Result<(), String> {
        forest::validate_tree(self, g, num_sinks)
    }
}

impl TreeRead for EmbeddedTree {
    fn num_nodes(&self) -> usize {
        EmbeddedTree::num_nodes(self)
    }

    fn node_kind(&self, v: NodeId) -> NodeKind {
        EmbeddedTree::node_kind(self, v)
    }

    fn vertex(&self, v: NodeId) -> VertexId {
        EmbeddedTree::vertex(self, v)
    }

    fn parent(&self, v: NodeId) -> Option<NodeId> {
        EmbeddedTree::parent(self, v)
    }

    fn children(&self, v: NodeId) -> &[NodeId] {
        EmbeddedTree::children(self, v)
    }

    fn path_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.paths[v as usize].edges
    }
}

impl TreeSink for EmbeddedTree {
    fn root_node(&self) -> NodeId {
        EmbeddedTree::root(self)
    }

    fn push_node(
        &mut self,
        kind: NodeKind,
        vertex: VertexId,
        parent: NodeId,
        path: &[EdgeId],
    ) -> NodeId {
        self.add_node(kind, vertex, parent, path.to_vec())
    }

    fn child_count(&self, node: NodeId) -> usize {
        EmbeddedTree::children(self, node).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{EdgeAttrs, Graph, GraphBuilder};

    /// 0 -1- 1 -2- 2 -3- 3 line graph with edge ids 0, 1, 2 and
    /// cost 1, delay 10 each.
    fn line4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, EdgeAttrs::wire(1.0, 10.0));
        }
        b.build()
    }

    #[test]
    fn single_sink_objective() {
        let g = line4();
        let (c, d) = (g.base_costs(), g.delays());
        let mut t = EmbeddedTree::new(0);
        t.add_node(NodeKind::Sink(0), 3, t.root(), vec![0, 1, 2]);
        t.validate(&g, 1).unwrap();
        let ev = t.evaluate(&c, &d, &[2.0], &BifurcationConfig::ZERO);
        assert_eq!(ev.connection_cost, 3.0);
        assert_eq!(ev.sink_delays[0], 30.0);
        assert_eq!(ev.delay_cost, 60.0);
        assert_eq!(ev.total, 63.0);
        assert_eq!(ev.bifurcations, 0);
    }

    #[test]
    fn bifurcation_penalty_applied_at_branch() {
        // root at 1; steiner at 1 (empty path); two sinks at 0 and 3
        let g = line4();
        let (c, d) = (g.base_costs(), g.delays());
        let mut t = EmbeddedTree::new(1);
        let s = t.add_node(NodeKind::Steiner, 1, t.root(), vec![]);
        t.add_node(NodeKind::Sink(0), 0, s, vec![0]);
        t.add_node(NodeKind::Sink(1), 3, s, vec![1, 2]);
        t.validate(&g, 2).unwrap();
        let bif = BifurcationConfig::new(6.0, 0.25);
        // weights: sink0 heavy → λ0 = 0.25, λ1 = 0.75
        let ev = t.evaluate(&c, &d, &[5.0, 1.0], &bif);
        assert_eq!(ev.bifurcations, 1);
        assert!((ev.sink_delays[0] - (10.0 + 0.25 * 6.0)).abs() < 1e-9);
        assert!((ev.sink_delays[1] - (20.0 + 0.75 * 6.0)).abs() < 1e-9);
        assert!((ev.connection_cost - 3.0).abs() < 1e-9);
        let want_delay_cost = 5.0 * (10.0 + 1.5) + 1.0 * (20.0 + 4.5);
        assert!((ev.delay_cost - want_delay_cost).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_broken_path() {
        let g = line4();
        let mut t = EmbeddedTree::new(0);
        t.add_node(NodeKind::Sink(0), 3, t.root(), vec![0, 2]); // gap
        assert!(t.validate(&g, 1).is_err());
    }

    #[test]
    fn validate_rejects_missing_or_duplicate_sinks() {
        let g = line4();
        let mut t = EmbeddedTree::new(0);
        t.add_node(NodeKind::Sink(0), 1, t.root(), vec![0]);
        assert!(t.validate(&g, 2).is_err(), "sink 1 missing");
        let mut t2 = EmbeddedTree::new(0);
        t2.add_node(NodeKind::Sink(0), 1, t2.root(), vec![0]);
        let s = t2.add_node(NodeKind::Steiner, 1, t2.root(), vec![0]);
        t2.add_node(NodeKind::Sink(0), 2, s, vec![1]);
        assert!(t2.validate(&g, 1).is_err(), "sink 0 duplicated");
    }

    #[test]
    fn bifurcations_on_path_counts_branches() {
        let g = line4();
        let mut t = EmbeddedTree::new(0);
        let s1 = t.add_node(NodeKind::Steiner, 1, t.root(), vec![0]);
        t.add_node(NodeKind::Sink(0), 1, s1, vec![]);
        let s2 = t.add_node(NodeKind::Steiner, 2, s1, vec![1]);
        t.add_node(NodeKind::Sink(1), 2, s2, vec![]);
        let sink2 = t.add_node(NodeKind::Sink(2), 3, s2, vec![2]);
        assert_eq!(t.bifurcations_on_path(sink2), 2);
        let _ = g;
    }

    #[test]
    fn empty_paths_are_fine() {
        let g = line4();
        let (c, d) = (g.base_costs(), g.delays());
        let mut t = EmbeddedTree::new(2);
        t.add_node(NodeKind::Sink(0), 2, t.root(), vec![]);
        t.validate(&g, 1).unwrap();
        let ev = t.evaluate(&c, &d, &[1.0], &BifurcationConfig::ZERO);
        assert_eq!(ev.total, 0.0);
    }
}
