//! Exact cost-distance optimum for tiny instances by exhaustive topology
//! enumeration.
//!
//! Every cost-distance Steiner tree can be made bifurcation compatible
//! without changing its objective (paper §I), and a bifurcation-compatible
//! tree's *shape* is a rooted full binary tree whose leaves are the sinks,
//! hung under the root. There are `(2k−3)!!` such shapes on `k` sinks;
//! for each, `cds-embed` finds the optimal embedding (it is exact for a
//! fixed shape), so the minimum over shapes is the true optimum.
//! Feasible up to `k ≈ 6` (945 shapes) — exactly what the approximation
//! ratio property tests need.

use cds_embed::{EmbedEnv, EmbedWorkspace};
use cds_geom::Point;
use cds_graph::VertexId;
use cds_topo::{EmbeddedTree, NodeId, Topology};

/// A rooted full binary leaf-labelled tree shape.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Leaf(usize),
    Node(Box<Shape>, Box<Shape>),
}

/// All rooted full binary tree shapes over leaf set `mask` (bit `i` =
/// sink `i`).
fn shapes(mask: u32) -> Vec<Shape> {
    debug_assert!(mask != 0);
    if mask.count_ones() == 1 {
        return vec![Shape::Leaf(mask.trailing_zeros() as usize)];
    }
    let mut out = Vec::new();
    let low = mask & mask.wrapping_neg();
    // enumerate unordered partitions by forcing the lowest sink left
    let mut sub = (mask - 1) & mask;
    while sub > 0 {
        if sub & low != 0 && sub != mask {
            let other = mask ^ sub;
            for l in shapes(sub) {
                for r in shapes(other) {
                    out.push(Shape::Node(Box::new(l.clone()), Box::new(r.clone())));
                }
            }
        }
        sub = (sub - 1) & mask;
    }
    out
}

fn add_shape(topo: &mut Topology, shape: &Shape, parent: NodeId) {
    match shape {
        Shape::Leaf(s) => {
            topo.add_sink(*s, Point::new(0, 0), parent);
        }
        Shape::Node(l, r) => {
            let v = topo.add_steiner(Point::new(0, 0), parent);
            add_shape(topo, l, v);
            add_shape(topo, r, v);
        }
    }
}

/// Enumerates all bifurcation-compatible topology shapes on `num_sinks`
/// sinks (positions are placeholders; only the shape matters for
/// embedding).
///
/// # Panics
///
/// Panics if `num_sinks` is 0 or greater than 8 — `(2k−3)!!` explodes.
pub fn enumerate_topologies(num_sinks: usize) -> Vec<Topology> {
    assert!((1..=8).contains(&num_sinks), "enumeration feasible for 1..=8 sinks");
    let full = (1u32 << num_sinks) - 1;
    shapes(full)
        .into_iter()
        .map(|sh| {
            let mut t = Topology::new(Point::new(0, 0));
            let root = t.root();
            add_shape(&mut t, &sh, root);
            t
        })
        .collect()
}

/// The exact optimum of the cost-distance instance (objective (1) with
/// delay model (3)) over all embedded Steiner trees, found by exhaustive
/// shape enumeration plus optimal embedding.
///
/// Returns the optimal value and one optimal tree.
///
/// # Panics
///
/// Panics for more than 8 sinks (see [`enumerate_topologies`]).
pub fn optimal_cost_distance(
    env: &EmbedEnv<'_>,
    root_vertex: VertexId,
    sink_vertices: &[VertexId],
    weights: &[f64],
) -> (f64, EmbeddedTree) {
    let mut best: Option<(f64, EmbeddedTree)> = None;
    let mut ws = EmbedWorkspace::new();
    for topo in enumerate_topologies(sink_vertices.len()) {
        let tree = ws.embed(env, &topo, root_vertex, sink_vertices, weights);
        let val = tree.evaluate(env.cost, env.delay, weights, &env.bif).total;
        if best.as_ref().is_none_or(|(b, _)| val < *b) {
            best = Some((val, tree));
        }
    }
    best.expect("at least one shape exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::GridSpec;
    use cds_topo::BifurcationConfig;

    #[test]
    fn shape_counts_are_double_factorials() {
        // (2k-3)!! for k = 1..5 → 1, 1, 3, 15, 105
        assert_eq!(enumerate_topologies(1).len(), 1);
        assert_eq!(enumerate_topologies(2).len(), 1);
        assert_eq!(enumerate_topologies(3).len(), 3);
        assert_eq!(enumerate_topologies(4).len(), 15);
        assert_eq!(enumerate_topologies(5).len(), 105);
    }

    #[test]
    fn all_enumerated_shapes_are_compatible_and_distinct() {
        let ts = enumerate_topologies(4);
        for t in &ts {
            t.validate().unwrap();
            assert!(t.is_bifurcation_compatible());
            assert_eq!(t.sink_nodes().len(), 4);
        }
    }

    #[test]
    fn optimum_single_sink_is_weighted_shortest_path() {
        let grid = GridSpec::uniform(4, 4, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let root = grid.vertex(0, 0, 0);
        let sink = grid.vertex(3, 3, 0);
        let (val, tree) = optimal_cost_distance(&env, root, &[sink], &[2.0]);
        tree.validate(g, 1).unwrap();
        let sp = cds_graph::dijkstra::shortest_distances(g, &[(root, 0.0)], |e| {
            c[e as usize] + 2.0 * d[e as usize]
        });
        assert!((val - sp[sink as usize]).abs() < 1e-9);
    }

    #[test]
    fn optimum_is_a_lower_bound_for_any_shape() {
        let grid = GridSpec::uniform(5, 5, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let bif = BifurcationConfig::new(3.0, 0.25);
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif };
        let root = grid.vertex(0, 0, 0);
        let sinks = [grid.vertex(4, 0, 0), grid.vertex(0, 4, 0), grid.vertex(4, 4, 0)];
        let w = [3.0, 1.0, 0.5];
        let (opt, tree) = optimal_cost_distance(&env, root, &sinks, &w);
        tree.validate(g, 3).unwrap();
        for topo in enumerate_topologies(3) {
            let v = cds_embed::embed_value(&env, &topo, root, &sinks, &w);
            assert!(opt <= v + 1e-9);
        }
    }
}
