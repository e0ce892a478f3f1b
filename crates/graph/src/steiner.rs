//! The graph abstraction the Steiner solvers route over.
//!
//! Routers do not want to *build* a graph per net — they want to *route
//! in a region* of the one global grid. [`SteinerGraph`] is the minimal
//! interface the solver core, the embedding DP, and the tree assembly
//! need: compact contiguous vertex ids, dense edge addressing, and
//! neighbor enumeration. Two backends implement it:
//!
//! * [`Graph`] (and [`GridGraph`] by delegation) — the materialized CSR
//!   multigraph; vertex and edge ids are its own dense ids;
//! * [`WindowView`](crate::window::WindowView) — a zero-copy rectangular
//!   window of the global grid: vertex ids are window-local and dense
//!   (so per-solve label slabs stay small), edge ids are the *global*
//!   edge ids (so global price/delay arrays index directly, no slicing).
//!
//! Both traits are dyn-compatible on purpose: the router's oracle layer
//! passes `&dyn RoutingSurface` so one trait object type covers both
//! backends, while generic (monomorphized) use remains available to the
//! solver's hot loops and to tests.
//!
//! # Determinism contract
//!
//! [`neighbors_into`](SteinerGraph::neighbors_into) must enumerate a
//! vertex's neighbors in one fixed order — the solver's tie-breaks and
//! so the pinned goldens depend on it. `WindowView` yields the global
//! CSR adjacency of the vertex filtered to the window, in the global
//! order (ascending global edge id; grid edges are laid out
//! lexicographically in (layer, y, x), so translating a window does not
//! reorder them).

use crate::graph::{EdgeAttrs, EdgeId, Endpoints, Graph, VertexId};
use crate::grid::GridGraph;
use cds_geom::Point;

/// A routing graph with dense vertex and edge addressing — the solver
/// core's view of the world.
///
/// Vertex ids are contiguous in `0..num_vertices()`; per-solve label
/// tables may be dense arrays of that length. Edge ids are *not*
/// required to be contiguous, only bounded by
/// [`edge_bound`](Self::edge_bound): per-edge cost/delay inputs are
/// slices of at least that length, indexed by edge id.
pub trait SteinerGraph: Sync {
    /// Number of vertices; vertex ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Exclusive upper bound on edge ids. Per-edge slices handed to
    /// solvers must have at least this length. For a materialized
    /// [`Graph`] this is `num_edges()`; for a window view it is the
    /// *global* edge count.
    fn edge_bound(&self) -> usize;

    /// Endpoints of `e`, as this backend's vertex ids.
    fn endpoints(&self, e: EdgeId) -> Endpoints;

    /// Static attributes of `e`.
    fn edge_attrs(&self, e: EdgeId) -> EdgeAttrs;

    /// Clears `out` and fills it with the (neighbor, edge id) pairs of
    /// `v`, one entry per parallel edge, in this backend's canonical
    /// order (see the module docs for the cross-backend guarantee).
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<(VertexId, EdgeId)>);
}

impl SteinerGraph for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    fn edge_bound(&self) -> usize {
        Graph::num_edges(self)
    }
    fn endpoints(&self, e: EdgeId) -> Endpoints {
        Graph::endpoints(self, e)
    }
    fn edge_attrs(&self, e: EdgeId) -> EdgeAttrs {
        *Graph::edge(self, e)
    }
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<(VertexId, EdgeId)>) {
        out.clear();
        out.extend_from_slice(Graph::neighbors(self, v));
    }
}

impl SteinerGraph for GridGraph {
    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }
    fn edge_bound(&self) -> usize {
        self.graph().num_edges()
    }
    fn endpoints(&self, e: EdgeId) -> Endpoints {
        self.graph().endpoints(e)
    }
    fn edge_attrs(&self, e: EdgeId) -> EdgeAttrs {
        *self.graph().edge(e)
    }
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<(VertexId, EdgeId)>) {
        out.clear();
        out.extend_from_slice(self.graph().neighbors(v));
    }
}

/// A [`SteinerGraph`] that is also a *gridded routing region*: it has a
/// planar extent, pins map to layer-0 vertices, and admissible per-gcell
/// cost/delay bounds exist for goal-oriented search.
///
/// This is the surface the router's oracles route on; both the global
/// [`GridGraph`] and the zero-copy
/// [`WindowView`](crate::window::WindowView) implement it.
pub trait RoutingSurface: SteinerGraph {
    /// Planar extent `(nx, ny)` of this surface's vertex id space.
    /// Vertex ids are laid out `(layer · ny + y) · nx + x`.
    fn plane_dims(&self) -> (u32, u32);

    /// The layer-0 vertex at a planar point in *this surface's local
    /// coordinates*.
    ///
    /// # Panics
    ///
    /// Panics if the point is negative or outside the surface.
    fn vertex_at(&self, p: Point) -> VertexId;

    /// Translates a point from the enclosing grid's coordinates into
    /// this surface's local coordinates (identity for a whole grid).
    fn localize(&self, p: Point) -> Point;

    /// Cheapest per-gcell base cost over all layers and wire types — an
    /// admissible connection-cost bound when prices ≥ base costs.
    fn min_cost_per_gcell(&self) -> f64;

    /// Fastest per-gcell delay over all layers and wire types — an
    /// admissible delay bound (§III-C of the paper).
    fn min_delay_per_gcell(&self) -> f64;
}

impl RoutingSurface for GridGraph {
    fn plane_dims(&self) -> (u32, u32) {
        (self.spec().nx, self.spec().ny)
    }
    fn vertex_at(&self, p: Point) -> VertexId {
        GridGraph::vertex_at(self, p)
    }
    fn localize(&self, p: Point) -> Point {
        p
    }
    fn min_cost_per_gcell(&self) -> f64 {
        GridGraph::min_cost_per_gcell(self)
    }
    fn min_delay_per_gcell(&self) -> f64 {
        GridGraph::min_delay_per_gcell(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn graph_backend_matches_inherent_api() {
        let grid = GridSpec::uniform(4, 3, 2).build();
        let g = grid.graph();
        let sg: &dyn SteinerGraph = g;
        assert_eq!(sg.num_vertices(), g.num_vertices());
        assert_eq!(sg.edge_bound(), g.num_edges());
        let mut out = Vec::new();
        for v in 0..g.num_vertices() as VertexId {
            sg.neighbors_into(v, &mut out);
            assert_eq!(out, g.neighbors(v));
        }
        for e in g.edge_ids() {
            assert_eq!(sg.endpoints(e), g.endpoints(e));
            assert_eq!(sg.edge_attrs(e), *g.edge(e));
        }
    }

    #[test]
    fn grid_graph_is_a_routing_surface() {
        let grid = GridSpec::uniform(5, 4, 2).build();
        let s: &dyn RoutingSurface = &grid;
        assert_eq!(s.plane_dims(), (5, 4));
        assert_eq!(s.vertex_at(Point::new(2, 3)), grid.vertex(2, 3, 0));
        assert_eq!(s.localize(Point::new(2, 3)), Point::new(2, 3));
        assert_eq!(s.min_cost_per_gcell(), 1.0);
    }
}
