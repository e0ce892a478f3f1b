//! Generic undirected multigraph in CSR form.

/// Dense vertex identifier.
pub type VertexId = u32;
/// Dense edge identifier (undirected; one id per edge).
pub type EdgeId = u32;

/// What an edge physically is. Wire edges run within a layer, via edges
/// connect adjacent layers at the same gcell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// In-layer routing segment.
    Wire,
    /// Inter-layer connection.
    Via,
}

/// Static attributes of an edge. Congestion-dependent costs are computed
/// by the router on top of `base_cost`; solvers receive them as slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeAttrs {
    /// Cost of the edge at zero congestion (length × per-unit cost).
    pub base_cost: f64,
    /// Delay of the edge in the linear delay model (ps).
    pub delay: f64,
    /// Routing capacity (tracks) available on the edge.
    pub capacity: f64,
    /// Physical length in gcell units (0 for vias); used for wirelength.
    pub length: f64,
    /// Wire or via.
    pub kind: EdgeKind,
    /// Routing layer (for vias: the lower of the two layers).
    pub layer: u8,
    /// Wire type index within the layer (0 for vias).
    pub wire_type: u8,
}

impl EdgeAttrs {
    /// A unit-length wire edge on layer 0, wire type 0, capacity 1 —
    /// convenient for tests and abstract instances.
    pub fn wire(base_cost: f64, delay: f64) -> Self {
        EdgeAttrs {
            base_cost,
            delay,
            capacity: 1.0,
            length: 1.0,
            kind: EdgeKind::Wire,
            layer: 0,
            wire_type: 0,
        }
    }

    /// A via edge between `layer` and `layer + 1`.
    pub fn via(base_cost: f64, delay: f64, layer: u8) -> Self {
        EdgeAttrs {
            base_cost,
            delay,
            capacity: 1.0,
            length: 0.0,
            kind: EdgeKind::Via,
            layer,
            wire_type: 0,
        }
    }
}

/// One endpoint record of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoints {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl Endpoints {
    /// The endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is neither endpoint.
    pub fn other(self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex not on edge");
            self.u
        }
    }
}

/// An undirected multigraph with dense vertex/edge ids and CSR adjacency.
///
/// Parallel edges (several wire types between the same gcell pair) are
/// first-class: every parallel edge keeps its own id and attributes.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    ends: Vec<Endpoints>,
    attrs: Vec<EdgeAttrs>,
    adj_start: Vec<u32>,
    adj: Vec<(VertexId, EdgeId)>,
}

impl Graph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.ends.len()
    }

    /// Endpoints of `e`.
    pub fn endpoints(&self, e: EdgeId) -> Endpoints {
        self.ends[e as usize]
    }

    /// Static attributes of `e`.
    pub fn edge(&self, e: EdgeId) -> &EdgeAttrs {
        &self.attrs[e as usize]
    }

    /// Neighbors of `v` as (neighbor, edge id) pairs; parallel edges
    /// appear once per edge.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let s = self.adj_start[v as usize] as usize;
        let t = self.adj_start[v as usize + 1] as usize;
        &self.adj[s..t]
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        0..self.ends.len() as EdgeId
    }

    /// Base costs of all edges as a dense slice (index = edge id) — the
    /// `c` input of solvers when congestion pricing is not in play.
    pub fn base_costs(&self) -> Vec<f64> {
        self.attrs.iter().map(|a| a.base_cost).collect()
    }

    /// Delays of all edges as a dense slice (index = edge id) — the `d`
    /// input of solvers.
    pub fn delays(&self) -> Vec<f64> {
        self.attrs.iter().map(|a| a.delay).collect()
    }

    /// Overwrites the routing capacity of `e` in place. Only the
    /// attribute changes — the CSR structure is untouched — so the
    /// streaming document reader can apply `ecap` overrides to an
    /// already-built graph instead of rebuilding it from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn set_edge_capacity(&mut self, e: EdgeId, capacity: f64) {
        self.attrs[e as usize].capacity = capacity;
    }
}

/// Incremental [`Graph`] construction.
///
/// ```
/// use cds_graph::{GraphBuilder, EdgeAttrs};
/// let mut b = GraphBuilder::new(2);
/// let e = b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
/// let g = b.build();
/// assert_eq!(g.endpoints(e).other(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    ends: Vec<Endpoints>,
    attrs: Vec<EdgeAttrs>,
}

impl GraphBuilder {
    /// Starts a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, ends: Vec::new(), attrs: Vec::new() }
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self-loop.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, attrs: EdgeAttrs) -> EdgeId {
        assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed in routing graphs");
        let id = self.ends.len() as EdgeId;
        self.ends.push(Endpoints { u, v });
        self.attrs.push(attrs);
        id
    }

    /// Finalizes into CSR form.
    pub fn build(self) -> Graph {
        let mut degree = vec![0u32; self.n + 1];
        for e in &self.ends {
            degree[e.u as usize + 1] += 1;
            degree[e.v as usize + 1] += 1;
        }
        for i in 1..degree.len() {
            degree[i] += degree[i - 1];
        }
        let adj_start = degree.clone();
        let mut cursor = degree;
        let mut adj = vec![(0u32, 0u32); self.ends.len() * 2];
        for (i, e) in self.ends.iter().enumerate() {
            let id = i as EdgeId;
            adj[cursor[e.u as usize] as usize] = (e.v, id);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize] as usize] = (e.u, id);
            cursor[e.v as usize] += 1;
        }
        Graph { n: self.n, ends: self.ends, attrs: self.attrs, adj_start, adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn path_graph(k: usize) -> Graph {
        let mut b = GraphBuilder::new(k);
        for i in 0..k - 1 {
            b.add_edge(i as u32, i as u32 + 1, EdgeAttrs::wire(1.0, 1.0));
        }
        b.build()
    }

    #[test]
    fn adjacency_of_path() {
        let g = path_graph(4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[(1, 0)]);
        let mut n1: Vec<_> = g.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut b = GraphBuilder::new(2);
        let e0 = b.add_edge(0, 1, EdgeAttrs::wire(1.0, 4.0));
        let e1 = b.add_edge(0, 1, EdgeAttrs::wire(3.0, 1.0));
        let g = b.build();
        assert_ne!(e0, e1);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.edge(e0).delay, 4.0);
        assert_eq!(g.edge(e1).delay, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        GraphBuilder::new(1).add_edge(0, 0, EdgeAttrs::wire(1.0, 1.0));
    }

    #[test]
    fn endpoints_other() {
        let g = path_graph(2);
        assert_eq!(g.endpoints(0).other(0), 1);
        assert_eq!(g.endpoints(0).other(1), 0);
    }

    proptest! {
        /// Every edge appears exactly twice in adjacency and degrees sum
        /// to 2m.
        #[test]
        fn csr_is_consistent(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)) {
            let mut b = GraphBuilder::new(20);
            for (u, v) in edges {
                if u != v { b.add_edge(u, v, EdgeAttrs::wire(1.0, 1.0)); }
            }
            let g = b.build();
            let mut seen = vec![0u32; g.num_edges()];
            let mut total = 0usize;
            for v in 0..g.num_vertices() as u32 {
                for &(w, e) in g.neighbors(v) {
                    prop_assert_eq!(g.endpoints(e).other(v), w);
                    seen[e as usize] += 1;
                    total += 1;
                }
            }
            prop_assert_eq!(total, 2 * g.num_edges());
            prop_assert!(seen.iter().all(|&c| c == 2));
        }
    }
}
