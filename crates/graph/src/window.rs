//! Windowed subgrids for per-net routing.
//!
//! Routers do not run net-level Steiner searches over the whole chip:
//! each net is routed inside a bounding-box window (plus margin) of the
//! global grid. [`WindowView`] is that window: a
//! [`SteinerGraph`]/[`RoutingSurface`] that routes directly over the
//! global grid, restricted to the window. Vertex ids are window-local
//! and dense; edge ids are *global*, so the global price and delay
//! arrays index directly and nothing is built or sliced per net.

use crate::graph::{EdgeAttrs, EdgeId, Endpoints, VertexId};
use crate::grid::{GridGraph, VertexCoord};
use crate::steiner::{RoutingSurface, SteinerGraph};
use cds_geom::Point;

/// The inclusive window bounds `(x0, y0, x1, y1)` around a set of
/// planar points (global grid coordinates) with the given margin,
/// clamped to an `nx × ny` grid.
///
/// This is the single source of truth for per-net routing-window
/// extents: [`WindowView::around`] and the router's dirty-net drift
/// certificate (which must cover *exactly* the window a net routes in)
/// both derive their bounds here.
///
/// # Panics
///
/// Panics if `points` is empty or contains a negative coordinate.
pub fn window_bounds(points: &[Point], margin: u32, nx: u32, ny: u32) -> (u32, u32, u32, u32) {
    assert!(!points.is_empty(), "window of no points");
    let (mut x0, mut y0, mut x1, mut y1) = (u32::MAX, u32::MAX, 0u32, 0u32);
    for p in points {
        assert!(p.x >= 0 && p.y >= 0, "negative gcell coordinate");
        x0 = x0.min(p.x as u32);
        y0 = y0.min(p.y as u32);
        x1 = x1.max(p.x as u32);
        y1 = y1.max(p.y as u32);
    }
    (
        x0.saturating_sub(margin),
        y0.saturating_sub(margin),
        x1.saturating_add(margin).min(nx - 1),
        y1.saturating_add(margin).min(ny - 1),
    )
}

/// A zero-copy rectangular window of a [`GridGraph`]: routes over the
/// global grid without materializing a sub-graph.
///
/// Local vertex ids are dense, laid out like the vertex ids of a
/// [`GridGraph`] of the window's extent (`(layer · ny + y) · nx + x` in
/// window coordinates), so per-solve label slabs stay window-sized. Edge ids are the *global* edge ids,
/// so the chip-wide price/delay arrays index directly — no per-net
/// slicing — and routed edges come out in global ids with no
/// translation step.
///
/// ```
/// use cds_graph::{GridSpec, SteinerGraph, WindowView};
/// let grid = GridSpec::uniform(8, 6, 2).build();
/// let view = WindowView::new(&grid, 2, 1, 5, 4);
/// assert_eq!(view.num_vertices(), 4 * 4 * 2);
/// assert_eq!(view.edge_bound(), grid.graph().num_edges());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    grid: &'a GridGraph,
    x0: u32,
    y0: u32,
    nx: u32,
    ny: u32,
}

impl<'a> WindowView<'a> {
    /// The view of `[x0..=x1] × [y0..=y1]` (inclusive, clamped to the
    /// grid), all layers.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty after clamping.
    pub fn new(grid: &'a GridGraph, x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        let spec = grid.spec();
        let x1 = x1.min(spec.nx - 1);
        let y1 = y1.min(spec.ny - 1);
        assert!(x0 <= x1 && y0 <= y1, "empty window");
        WindowView { grid, x0, y0, nx: x1 - x0 + 1, ny: y1 - y0 + 1 }
    }

    /// View around a set of planar points (global coordinates) with the
    /// given margin — the bounds of [`window_bounds`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or has out-of-grid coordinates.
    pub fn around(grid: &'a GridGraph, points: &[Point], margin: u32) -> Self {
        let spec = grid.spec();
        let (x0, y0, x1, y1) = window_bounds(points, margin, spec.nx, spec.ny);
        WindowView::new(grid, x0, y0, x1, y1)
    }

    /// The global grid this view windows.
    pub fn grid(&self) -> &'a GridGraph {
        self.grid
    }

    /// Window origin in global gcell coordinates.
    pub fn origin(&self) -> (u32, u32) {
        (self.x0, self.y0)
    }

    /// Window extent `(nx, ny)` in gcells.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Window coordinates of a local vertex id.
    pub fn coord(&self, v: VertexId) -> VertexCoord {
        let per_layer = self.nx * self.ny;
        VertexCoord { x: v % self.nx, y: (v / self.nx) % self.ny, layer: (v / per_layer) as u8 }
    }

    /// The global vertex id of local vertex `v`.
    pub fn to_global_vertex(&self, v: VertexId) -> VertexId {
        let c = self.coord(v);
        self.grid.vertex(c.x + self.x0, c.y + self.y0, c.layer)
    }

    /// The local vertex id of global vertex `g`, if it lies inside the
    /// window.
    pub fn to_local_vertex(&self, g: VertexId) -> Option<VertexId> {
        let c = self.grid.coord(g);
        let (x, y) = (c.x.wrapping_sub(self.x0), c.y.wrapping_sub(self.y0));
        if x < self.nx && y < self.ny {
            Some((c.layer as u32 * self.ny + y) * self.nx + x)
        } else {
            None
        }
    }
}

impl SteinerGraph for WindowView<'_> {
    fn num_vertices(&self) -> usize {
        self.nx as usize * self.ny as usize * self.grid.spec().layers.len()
    }

    fn edge_bound(&self) -> usize {
        self.grid.graph().num_edges()
    }

    /// Endpoints as *local* vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not lie inside the window — views only ever
    /// see edges discovered through their own neighbor enumeration.
    fn endpoints(&self, e: EdgeId) -> Endpoints {
        let ep = self.grid.graph().endpoints(e);
        Endpoints {
            // INVARIANT: e came from a window adjacency list, which only holds edges with both endpoints inside the window.
            u: self.to_local_vertex(ep.u).expect("edge endpoint inside the window"),
            // INVARIANT: same as u: window adjacency never stores a half-outside edge.
            v: self.to_local_vertex(ep.v).expect("edge endpoint inside the window"),
        }
    }

    fn edge_attrs(&self, e: EdgeId) -> EdgeAttrs {
        *self.grid.graph().edge(e)
    }

    /// Window-restricted neighbors: the global CSR adjacency of the
    /// vertex, filtered to the window, in the global order (ascending
    /// global edge id).
    ///
    /// This is the solver's per-settle inner call, so it avoids the
    /// generic `to_local_vertex` per neighbor: a grid edge steps
    /// exactly one of x/y/layer, which the global-id delta classifies
    /// with comparisons alone — no per-neighbor divisions.
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<(VertexId, EdgeId)>) {
        out.clear();
        let (lnx, lny) = (self.nx, self.ny);
        let lplane = lnx * lny;
        let x = v % lnx;
        let y = (v / lnx) % lny;
        let layer = v / lplane;
        let spec = self.grid.spec();
        let gnx = spec.nx;
        let gplane = gnx * spec.ny;
        let g = (layer * spec.ny + (y + self.y0)) * gnx + (x + self.x0);
        for &(w, e) in self.grid.graph().neighbors(g) {
            let lw = if w == g + 1 {
                if x + 1 < lnx {
                    v + 1
                } else {
                    continue;
                }
            } else if w == g.wrapping_sub(1) {
                if x > 0 {
                    v - 1
                } else {
                    continue;
                }
            } else if w == g + gnx {
                if y + 1 < lny {
                    v + lnx
                } else {
                    continue;
                }
            } else if w == g.wrapping_sub(gnx) {
                if y > 0 {
                    v - lnx
                } else {
                    continue;
                }
            } else if w == g + gplane {
                // vias keep their (x, y), so they always stay inside
                v + lplane
            } else {
                debug_assert_eq!(w, g - gplane, "unclassified grid edge delta");
                v - lplane
            };
            out.push((lw, e));
        }
    }
}

impl RoutingSurface for WindowView<'_> {
    fn plane_dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    fn vertex_at(&self, p: Point) -> VertexId {
        assert!(p.x >= 0 && p.y >= 0, "negative window coordinate");
        let (x, y) = (p.x as u32, p.y as u32);
        assert!(x < self.nx && y < self.ny, "point outside the window");
        y * self.nx + x
    }

    fn localize(&self, p: Point) -> Point {
        Point::new(p.x - self.x0 as i32, p.y - self.y0 as i32)
    }

    fn min_cost_per_gcell(&self) -> f64 {
        self.grid.min_cost_per_gcell()
    }

    fn min_delay_per_gcell(&self) -> f64 {
        self.grid.min_delay_per_gcell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn around_clamps_to_grid() {
        let grid = GridSpec::uniform(5, 5, 2).build();
        let v = WindowView::around(&grid, &[Point::new(0, 0), Point::new(4, 4)], 10);
        assert_eq!(v.origin(), (0, 0));
        assert_eq!(v.dims(), (5, 5));
        assert_eq!(v.num_vertices(), grid.graph().num_vertices());
    }

    #[test]
    fn a_margin_beyond_u32_saturates_to_the_whole_die() {
        // `window_margin` arrives from flags, `config` records and
        // query strings: `x1 + margin` used to wrap (release) or
        // overflow-panic (debug)
        let p = [Point::new(7, 3)];
        for margin in [u32::MAX, u32::MAX - 5] {
            assert_eq!(window_bounds(&p, margin, 9, 5), (0, 0, 8, 4));
        }
    }

    #[test]
    fn view_neighbors_are_the_filtered_global_adjacency() {
        // An independent check of the division-free delta classifier in
        // `neighbors_into`: for every local vertex, the view's neighbor
        // list is the global CSR list of the corresponding vertex with
        // the out-of-window neighbors dropped and the rest mapped
        // through the generic `to_local_vertex` — same order, same
        // global edge ids. Windows: interior, full die, single cell,
        // clamped at the die edge.
        let grid = GridSpec::uniform(9, 7, 3).build();
        for (x0, y0, x1, y1) in [(2, 1, 6, 5), (0, 0, 8, 6), (3, 3, 3, 3), (7, 0, 20, 2)] {
            let v = WindowView::new(&grid, x0, y0, x1, y1);
            let (nx, ny) = v.dims();
            assert_eq!((nx, ny), (x1.min(8) - x0 + 1, y1.min(6) - y0 + 1));
            assert_eq!(v.num_vertices(), (nx * ny * 3) as usize);
            let mut nbrs = Vec::new();
            for lv in 0..v.num_vertices() as VertexId {
                v.neighbors_into(lv, &mut nbrs);
                let want: Vec<(VertexId, EdgeId)> = grid
                    .graph()
                    .neighbors(v.to_global_vertex(lv))
                    .iter()
                    .filter_map(|&(gw, e)| v.to_local_vertex(gw).map(|lw| (lw, e)))
                    .collect();
                assert_eq!(nbrs, want, "window ({x0},{y0})-({x1},{y1}) vertex {lv}");
                for &(_, e) in &nbrs {
                    let ep = v.endpoints(e);
                    assert!(ep.u == lv || ep.v == lv, "endpoints map back into the window");
                }
            }
        }
    }

    #[test]
    fn view_around_matches_window_around() {
        let grid = GridSpec::uniform(10, 10, 2).build();
        let pts = [Point::new(2, 3), Point::new(7, 5)];
        let v = WindowView::around(&grid, &pts, 2);
        let (x0, y0, x1, y1) = window_bounds(&pts, 2, 10, 10);
        assert_eq!((x0, y0, x1, y1), (0, 1, 9, 7));
        assert_eq!(v.origin(), (x0, y0));
        assert_eq!(v.dims(), (x1 - x0 + 1, y1 - y0 + 1));
        assert_eq!(v.localize(Point::new(4, 4)), Point::new(4, 3));
        // a localized pin sits on layer 0 of the window's own layout
        let p = v.localize(pts[0]);
        assert_eq!(v.to_global_vertex(v.vertex_at(p)), grid.vertex(2, 3, 0));
    }

    #[test]
    fn view_vertex_roundtrip_and_attrs() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let v = WindowView::new(&grid, 1, 2, 4, 5);
        for lv in 0..v.num_vertices() as VertexId {
            let g = v.to_global_vertex(lv);
            assert_eq!(v.to_local_vertex(g), Some(lv));
        }
        // vertices outside the window do not map
        assert_eq!(v.to_local_vertex(grid.vertex(0, 0, 0)), None);
        assert_eq!(v.to_local_vertex(grid.vertex(5, 5, 1)), None);
        // edge attrs come straight from the global graph
        let mut nbrs = Vec::new();
        v.neighbors_into(0, &mut nbrs);
        for &(_, e) in &nbrs {
            assert_eq!(v.edge_attrs(e), *grid.graph().edge(e));
        }
    }
}
