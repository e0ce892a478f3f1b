//! Future costs (admissible lower bounds) for the goal-oriented path
//! searches of §III-C.
//!
//! The paper lower-bounds connection/congestion costs with landmarks
//! \[11\] and delays with "L1-distance and the fastest layer and wire
//! type combination". [`GridFutureCost`] applies the L1 form to both
//! parts (the per-gcell cost and delay floors of the surface); a
//! request without one runs plain Dijkstra (a zero bound). To keep
//! labels valid across iterations (terminals come and go as components
//! merge), bounds target the *fixed* set of all initial terminal
//! positions — a superset of any iteration's live targets, so the
//! heuristic only gets weaker, never inadmissible.

use cds_graph::{RoutingSurface, VertexId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

/// Grid-based future costs: a plane L1 distance transform to the nearest
/// target (one multi-source BFS at construction, incrementally updated
/// as components grow), scaled by the cheapest per-gcell cost and the
/// fastest per-gcell delay.
///
/// Works over any [`RoutingSurface`] — the whole grid or a zero-copy
/// [`WindowView`](cds_graph::WindowView): the
/// transform only needs the surface's plane dimensions and per-gcell
/// bounds, which it copies out, so the type borrows nothing.
///
/// Admissible because every wire edge of the grid costs at least
/// `min_cost_per_gcell + w·min_delay_per_gcell` per gcell of L1 progress,
/// vias make no L1 progress at non-negative cost, and
/// [`note_new_targets`](Self::note_new_targets) keeps the transform
/// a lower bound as the set of valid connection targets expands. So for
/// a search with delay weight `w`:
///
/// * `bound_nearest(x, w)` ≤ the `c + w·d` length of any path from `x`
///   to any vertex that can ever become a connection target;
/// * `bound_to(x, y, w)` ≤ the `c + w·d` length of any `x`→`y` path.
///
/// Use one future cost per request: `note_new_targets` specializes it
/// to one net's target set.
#[derive(Debug)]
pub struct GridFutureCost {
    nx: usize,
    ny: usize,
    /// Plane distance (in gcells) to the nearest target, row-major.
    /// Atomic cells (relaxed, plain-load cost on mainstream ISAs) give
    /// the interior mutability `note_new_targets` needs: the solver
    /// mutates the bound through the shared reference that a `Copy`
    /// [`Request`](crate::Request) holds. Atomics rather than `Cell`
    /// keep the type `Sync`, so such a request stays `Send`; a single
    /// solve run is the only writer at any time.
    plane_dist: Vec<AtomicU32>,
    min_cost: f64,
    min_delay: f64,
}

impl GridFutureCost {
    /// Builds the distance transform for the terminal positions of an
    /// instance (`terminals` are vertices of `surface`; their layers are
    /// ignored — the bound is planar).
    pub fn new<S: RoutingSurface + ?Sized>(surface: &S, terminals: &[VertexId]) -> Self {
        Self::with_buffer(surface, terminals, Vec::new())
    }

    /// Like [`new`](Self::new), but reusing a recycled plane buffer
    /// (from [`into_buffer`](Self::into_buffer)) so per-net future-cost
    /// construction in a routing loop allocates nothing once warm.
    pub fn with_buffer<S: RoutingSurface + ?Sized>(
        surface: &S,
        terminals: &[VertexId],
        mut buf: Vec<AtomicU32>,
    ) -> Self {
        let (nx, ny) = surface.plane_dims();
        let (nx, ny) = (nx as usize, ny as usize);
        buf.clear();
        buf.resize_with(nx * ny, || AtomicU32::new(u32::MAX));
        let fc = GridFutureCost {
            nx,
            ny,
            plane_dist: buf,
            min_cost: surface.min_cost_per_gcell(),
            min_delay: surface.min_delay_per_gcell(),
        };
        // Initial construction is a two-pass chamfer scan: on an
        // unobstructed rectangular plane it yields exactly the L1
        // distance to the nearest seed — the same values the BFS of
        // `note_new_targets` produces — but with two sequential sweeps
        // instead of a work queue. The transform is built once per
        // routed net, so its constant factor is hot-path cost.
        for &v in terminals {
            fc.plane_dist[fc.cell(v)].store(0, Ordering::Relaxed);
        }
        let dist = &fc.plane_dist;
        let at = |i: usize| dist[i].load(Ordering::Relaxed);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                let mut d = at(i);
                if x > 0 {
                    d = d.min(at(i - 1).saturating_add(1));
                }
                if y > 0 {
                    d = d.min(at(i - nx).saturating_add(1));
                }
                dist[i].store(d, Ordering::Relaxed);
            }
        }
        for y in (0..ny).rev() {
            for x in (0..nx).rev() {
                let i = y * nx + x;
                let mut d = at(i);
                if x + 1 < nx {
                    d = d.min(at(i + 1).saturating_add(1));
                }
                if y + 1 < ny {
                    d = d.min(at(i + nx).saturating_add(1));
                }
                dist[i].store(d, Ordering::Relaxed);
            }
        }
        fc
    }

    /// Consumes the future cost, returning the plane buffer for reuse.
    pub fn into_buffer(self) -> Vec<AtomicU32> {
        self.plane_dist
    }

    /// Planar cell index of a vertex. Ids are `(l·ny + y)·nx + x` =
    /// `l·(nx·ny) + (y·nx + x)` on every surface backend, so one
    /// modulo by the plane size replaces the three-division
    /// unpack-and-repack — this runs once per queue push.
    #[inline]
    fn cell(&self, v: VertexId) -> usize {
        v as usize % (self.nx * self.ny)
    }

    /// Lower bound on the remaining search cost from `x` to the nearest
    /// potential target.
    #[inline]
    pub fn bound_nearest(&self, x: VertexId, w: f64) -> f64 {
        let d = self.plane_dist[self.cell(x)].load(Ordering::Relaxed);
        d as f64 * (self.min_cost + w * self.min_delay)
    }

    /// Lower bound on the cost of reaching the specific vertex `y`.
    pub fn bound_to(&self, x: VertexId, y: VertexId, w: f64) -> f64 {
        let (cx, cy) = (self.cell(x), self.cell(y));
        let (x0, y0) = ((cx % self.nx) as i64, (cx / self.nx) as i64);
        let (x1, y1) = ((cy % self.nx) as i64, (cy / self.nx) as i64);
        let l1 = ((x0 - x1).abs() + (y0 - y1).abs()) as f64;
        l1 * (self.min_cost + w * self.min_delay)
    }

    /// Informs the bound that `vertices` became connection targets:
    /// under §III-A discounting, components absorb every vertex of a
    /// committed path, and the transform must reach them to stay
    /// admissible.
    pub fn note_new_targets(&self, vertices: &[VertexId]) {
        let nx = self.nx;
        let dist = &self.plane_dist;
        let ny = dist.len() / nx;
        let mut queue = VecDeque::new();
        for &v in vertices {
            let idx = self.cell(v);
            if dist[idx].load(Ordering::Relaxed) != 0 {
                dist[idx].store(0, Ordering::Relaxed);
                queue.push_back(idx);
            }
        }
        // propagate decreases only — the transform is monotone down
        while let Some(i) = queue.pop_front() {
            let (x, y) = (i % nx, i / nx);
            let d = dist[i].load(Ordering::Relaxed);
            let mut push = |j: usize| {
                if dist[j].load(Ordering::Relaxed) > d + 1 {
                    dist[j].store(d + 1, Ordering::Relaxed);
                    queue.push_back(j);
                }
            };
            if x > 0 {
                push(i - 1);
            }
            if x + 1 < nx {
                push(i + 1);
            }
            if y > 0 {
                push(i - nx);
            }
            if y + 1 < ny {
                push(i + nx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::dijkstra::shortest_distances;
    use cds_graph::GridSpec;

    #[test]
    fn grid_bound_is_admissible() {
        let grid = GridSpec::uniform(6, 5, 3).build();
        let terminals = [grid.vertex(5, 4, 0), grid.vertex(0, 4, 2)];
        let fc = GridFutureCost::new(&grid, &terminals);
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let w = 2.5;
        // exact multi-target distance via one Dijkstra from all targets
        let exact =
            shortest_distances(grid.graph(), &[(terminals[0], 0.0), (terminals[1], 0.0)], |e| {
                c[e as usize] + w * d[e as usize]
            });
        for v in 0..grid.graph().num_vertices() as u32 {
            assert!(
                fc.bound_nearest(v, w) <= exact[v as usize] + 1e-9,
                "vertex {v}: bound {} > exact {}",
                fc.bound_nearest(v, w),
                exact[v as usize]
            );
        }
    }
}
