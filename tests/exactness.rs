//! Cross-crate exactness checks: the heuristics against the exact
//! reference algorithms on instances small enough to solve optimally.

use cds_core::{Request, Solver};
use cds_embed::{embed_topology, EmbedEnv};
use cds_exact::{enumerate_topologies, optimal_cost_distance, steiner_minimal_tree};
use cds_geom::Point;
use cds_graph::GridSpec;
use cds_rsmt::rsmt_topology;
use cds_topo::BifurcationConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// With `w = 0` and no penalties, the cost-distance objective collapses
/// to plain minimum Steiner tree cost; the optimal embedding of the best
/// enumerated topology must match Dreyfus–Wagner exactly.
#[test]
fn enumeration_matches_dreyfus_wagner_at_zero_weight() {
    let grid = GridSpec::uniform(5, 5, 2).build();
    let g = grid.graph();
    let (c, d) = (g.base_costs(), g.delays());
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..5 {
        let root = grid.vertex(rng.gen_range(0..5), rng.gen_range(0..5), 0);
        let k = rng.gen_range(2..4);
        let sinks: Vec<u32> =
            (0..k).map(|_| grid.vertex(rng.gen_range(0..5), rng.gen_range(0..5), 0)).collect();
        let weights = vec![0.0; k];
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let (opt, tree) = optimal_cost_distance(&env, root, &sinks, &weights);
        tree.validate(g, k).unwrap();
        let mut terminals = sinks.clone();
        terminals.push(root);
        terminals.sort_unstable();
        terminals.dedup();
        let dw = steiner_minimal_tree(g, &terminals, |e| c[e as usize]);
        assert!(
            (opt - dw.cost).abs() < 1e-9,
            "enumerated optimum {opt} vs Dreyfus–Wagner {}",
            dw.cost
        );
    }
}

/// The CD solver on a 2-sink instance must match the enumerated optimum
/// exactly when §III-D re-embedding is enabled and weights are equal
/// (the single topology shape leaves only the embedding, and the solver's
/// path search plus re-embedding solves that case optimally on uniform
/// grids).
#[test]
fn cd_two_equal_sinks_near_optimal() {
    let grid = GridSpec::uniform(6, 6, 2).build();
    let g = grid.graph();
    let (c, d) = (g.base_costs(), g.delays());
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..8 {
        let root = grid.vertex(rng.gen_range(0..6), rng.gen_range(0..6), 0);
        let sinks = [
            grid.vertex(rng.gen_range(0..6), rng.gen_range(0..6), 0),
            grid.vertex(rng.gen_range(0..6), rng.gen_range(0..6), 0),
        ];
        let weights = [1.0, 1.0];
        let bif = BifurcationConfig::ZERO;
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif };
        let (opt, _) = optimal_cost_distance(&env, root, &sinks, &weights);
        let req = Request::new(g, &c, &d, root, &sinks, &weights).with_bif(bif).with_seed(trial);
        let r = Solver::new().solve(&req);
        assert!(
            r.evaluation.total <= 1.35 * opt + 1e-9,
            "trial {trial}: CD {} vs optimum {opt}",
            r.evaluation.total
        );
    }
}

/// The L1 baseline pipeline (exact RSMT topology + optimal embedding) is
/// optimal for zero weights on instances small enough for the exact
/// RSMT, up to via costs of the 3D embedding.
#[test]
fn l1_pipeline_matches_enumeration_at_zero_weight() {
    let grid = GridSpec::uniform(5, 5, 2).build();
    let g = grid.graph();
    let (c, d) = (g.base_costs(), g.delays());
    let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
    let root_p = Point::new(0, 0);
    let sink_ps = [Point::new(4, 0), Point::new(0, 4), Point::new(4, 4)];
    let root = grid.vertex_at(root_p);
    let sinks: Vec<u32> = sink_ps.iter().map(|&p| grid.vertex_at(p)).collect();
    let weights = [0.0; 3];
    let topo = rsmt_topology(root_p, &sink_ps, 7).binarize();
    let tree = embed_topology(&env, &topo, root, &sinks, &weights);
    let got = tree.evaluate(&c, &d, &weights, &BifurcationConfig::ZERO).total;
    let (opt, _) = optimal_cost_distance(&env, root, &sinks, &weights);
    assert!(got <= opt * 1.15 + 1e-9, "L1 pipeline {got} should be near the optimum {opt}");
}

/// Every enumerated topology shape embeds to a value at least the
/// optimum, and the shape count matches the double factorial.
#[test]
fn enumeration_is_exhaustive_and_consistent() {
    assert_eq!(enumerate_topologies(4).len(), 15);
    let grid = GridSpec::uniform(4, 4, 2).build();
    let g = grid.graph();
    let (c, d) = (g.base_costs(), g.delays());
    let bif = BifurcationConfig::new(2.0, 0.25);
    let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif };
    let root = grid.vertex(0, 0, 0);
    let sinks = [grid.vertex(3, 0, 0), grid.vertex(0, 3, 0), grid.vertex(3, 3, 0)];
    let w = [1.0, 2.0, 3.0];
    let (opt, best_tree) = optimal_cost_distance(&env, root, &sinks, &w);
    best_tree.validate(g, 3).unwrap();
    for topo in enumerate_topologies(3) {
        let v = cds_embed::embed_value(&env, &topo, root, &sinks, &w);
        assert!(v >= opt - 1e-9);
    }
}
