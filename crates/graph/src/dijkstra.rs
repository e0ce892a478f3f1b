//! Single- and multi-source Dijkstra labelling.
//!
//! These routines back the exact reference algorithms (`cds-exact`) and
//! a pile of tests. Neither the core algorithm of the paper (`cds-core`,
//! a specialised simultaneous search) nor the embedding kernel (a
//! window-adjacency Dijkstra of its own) runs on them, but one routing
//! path does read their paths: the L1 and SL oracles build their plane
//! topology with `cds_rsmt::rsmt_topology`, which solves nets of at most
//! five distinct pin positions exactly (`exact_rsmt` →
//! `cds_exact::steiner_minimal_tree`), and Dreyfus–Wagner recovers its
//! tree from [`shortest_paths`]' parents. Distances do not depend on how
//! the heap breaks exact ties, but parents can, so the heap's tie order
//! (heap structure, `IndexedBinaryHeap`) is pinned by the L1/SL route
//! goldens.

use crate::graph::{EdgeId, VertexId};
use crate::steiner::SteinerGraph;
use cds_heap::IndexedBinaryHeap;

/// Predecessor record: how a vertex was first permanently labelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// A source vertex (or unreached).
    None,
    /// Reached from `from` over `edge`.
    Edge {
        /// predecessor vertex
        from: VertexId,
        /// edge taken
        edge: EdgeId,
    },
}

/// Result of a Dijkstra run: distances and the shortest-path forest.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// dist\[v\] = shortest distance from the closest source; `INFINITY`
    /// if unreachable.
    pub dist: Vec<f64>,
    /// parent\[v\] = how v was labelled.
    pub parent: Vec<Parent>,
}

impl SpTree {
    /// Walks parents from `v` back to a source, returning the edges in
    /// source→`v` order. Empty when `v` is a source; `None` when
    /// unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<EdgeId>> {
        if self.dist[v as usize].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while let Parent::Edge { from, edge } = self.parent[cur as usize] {
            edges.push(edge);
            cur = from;
        }
        edges.reverse();
        Some(edges)
    }
}

/// Multi-source Dijkstra over non-negative edge lengths given by `len`,
/// over any [`SteinerGraph`] backend.
///
/// `sources` are (vertex, initial distance) pairs — seeding with nonzero
/// offsets is what the embedding DP needs. Runs to exhaustion.
///
/// # Panics
///
/// Panics if `len` returns a negative or NaN value.
pub fn shortest_paths<G, F>(g: &G, sources: &[(VertexId, f64)], len: F) -> SpTree
where
    G: SteinerGraph + ?Sized,
    F: Fn(EdgeId) -> f64,
{
    shortest_paths_until(g, sources, len, |_, _| false)
}

/// Like [`shortest_paths`] but stops as soon as `stop(vertex, dist)`
/// returns `true` for a permanently labelled vertex (that vertex *is*
/// labelled). Distances of unsettled vertices are tentative.
pub fn shortest_paths_until<G, F, S>(
    g: &G,
    sources: &[(VertexId, f64)],
    len: F,
    mut stop: S,
) -> SpTree
where
    G: SteinerGraph + ?Sized,
    F: Fn(EdgeId) -> f64,
    S: FnMut(VertexId, f64) -> bool,
{
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![Parent::None; n];
    let mut heap = IndexedBinaryHeap::new(n);
    for &(s, d0) in sources {
        assert!(d0 >= 0.0, "negative source offset");
        if d0 < dist[s as usize] {
            dist[s as usize] = d0;
            parent[s as usize] = Parent::None;
            heap.push(s, d0);
        }
    }
    let mut settled = vec![false; n];
    let mut nbrs = Vec::new();
    while let Some((v, dv)) = heap.pop() {
        if settled[v as usize] {
            continue;
        }
        settled[v as usize] = true;
        if stop(v, dv) {
            break;
        }
        g.neighbors_into(v, &mut nbrs);
        for &(w, e) in &nbrs {
            if settled[w as usize] {
                continue;
            }
            let le = len(e);
            assert!(le >= 0.0 && !le.is_nan(), "invalid edge length");
            let cand = dv + le;
            if cand < dist[w as usize] {
                dist[w as usize] = cand;
                parent[w as usize] = Parent::Edge { from: v, edge: e };
                heap.push(w, cand);
            }
        }
    }
    SpTree { dist, parent }
}

/// Convenience wrapper returning only distances.
pub fn shortest_distances<G, F>(g: &G, sources: &[(VertexId, f64)], len: F) -> Vec<f64>
where
    G: SteinerGraph + ?Sized,
    F: Fn(EdgeId) -> f64,
{
    shortest_paths(g, sources, len).dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeAttrs, Graph, GraphBuilder};
    use proptest::prelude::*;

    fn line(n: usize, costs: &[f64]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for (i, &c) in costs.iter().enumerate() {
            b.add_edge(i as u32, i as u32 + 1, EdgeAttrs::wire(c, 1.0));
        }
        b.build()
    }

    #[test]
    fn line_distances() {
        let g = line(4, &[1.0, 2.0, 4.0]);
        let t = shortest_paths(&g, &[(0, 0.0)], |e| g.edge(e).base_cost);
        assert_eq!(t.dist, vec![0.0, 1.0, 3.0, 7.0]);
        assert_eq!(t.path_to(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(t.path_to(0).unwrap(), Vec::<EdgeId>::new());
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = line(5, &[1.0; 4]);
        let t = shortest_paths(&g, &[(0, 0.0), (4, 0.0)], |e| g.edge(e).base_cost);
        assert_eq!(t.dist, vec![0.0, 1.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn source_offsets_respected() {
        let g = line(3, &[1.0, 1.0]);
        let t = shortest_paths(&g, &[(0, 5.0), (2, 0.0)], |e| g.edge(e).base_cost);
        assert_eq!(t.dist, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn early_stop_labels_target() {
        let g = line(5, &[1.0; 4]);
        let t = shortest_paths_until(&g, &[(0, 0.0)], |e| g.edge(e).base_cost, |v, _| v == 2);
        assert_eq!(t.dist[2], 2.0);
        // vertex 4 must not have been settled (distance still tentative/inf)
        assert!(t.dist[4].is_infinite());
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let t = shortest_paths(&g, &[(0, 0.0)], |e| g.edge(e).base_cost);
        assert!(t.path_to(2).is_none());
    }

    proptest! {
        /// Triangle inequality of the computed distances over random
        /// graphs: dist[w] <= dist[v] + len(v, w) for every edge.
        #[test]
        fn relaxed_fixpoint(
            edges in proptest::collection::vec((0u32..15, 0u32..15, 0.1f64..10.0), 1..60)
        ) {
            let mut b = GraphBuilder::new(15);
            for &(u, v, c) in &edges {
                if u != v { b.add_edge(u, v, EdgeAttrs::wire(c, 1.0)); }
            }
            let g = b.build();
            let t = shortest_paths(&g, &[(0, 0.0)], |e| g.edge(e).base_cost);
            for e in g.edge_ids() {
                let ep = g.endpoints(e);
                let c = g.edge(e).base_cost;
                for (a, bb) in [(ep.u, ep.v), (ep.v, ep.u)] {
                    if t.dist[a as usize].is_finite() {
                        prop_assert!(t.dist[bb as usize] <= t.dist[a as usize] + c + 1e-9);
                    }
                }
            }
            // path costs match distances
            for v in 0..15u32 {
                if let Some(path) = t.path_to(v) {
                    let sum: f64 = path.iter().map(|&e| g.edge(e).base_cost).sum();
                    prop_assert!((sum - t.dist[v as usize]).abs() < 1e-9);
                }
            }
        }
    }
}
