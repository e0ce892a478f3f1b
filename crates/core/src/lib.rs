//! The cost-distance Steiner tree algorithm of Held & Perner (DAC 2025).
//!
//! Given a global routing graph with congestion costs `c`, delays `d`, a
//! root `r`, sinks `S` with delay weights `w`, and a bifurcation penalty
//! `d_bif`, compute an embedded Steiner tree minimizing
//!
//! ```text
//! cost(T) = Σ_{e∈T} c(e) + Σ_{t∈S} w(t)·delay_T(r, t)          (1)
//! delay_T(r,t) = Σ_{(u,v)∈T[r,t]} ( d(e) + λ_v·d_bif )          (3)
//! ```
//!
//! The algorithm (Algorithm 1 of the paper) is a Kruskal-style merge
//! loop driven by simultaneous per-sink Dijkstra searches with the
//! sink-individual metric `l_u(e) = c(e) + w(u)·d(e)`; it guarantees an
//! `O(log t)` approximation factor in `O(t(n log n + m))` time, and this
//! implementation adds the paper's five practical enhancements
//! (§III-A…E), each individually toggleable.
//!
//! # Examples
//!
//! A [`Request`] is the instance; a [`Solver`] session answers it on a
//! [`SolverWorkspace`] that is cleared-and-reused across calls (see the
//! [`session`] module docs):
//!
//! ```
//! use cds_core::{Request, Solver};
//! use cds_graph::GridSpec;
//!
//! let grid = GridSpec::uniform(8, 8, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//! let sinks = [grid.vertex(7, 0, 0), grid.vertex(0, 7, 0)];
//! let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[2.0, 1.0]);
//! let result = Solver::new().solve(&req);
//! result.tree.validate(grid.graph(), 2).unwrap();
//! ```

pub mod assemble;
pub mod components;
pub mod future;
pub mod search;
pub mod session;
pub mod solver;
pub mod table;

pub use assemble::{assemble_tree_in, assemble_tree_into, AssembleScratch};
pub use future::GridFutureCost;
pub use session::{Request, SessionConfig, Solver};
pub use solver::{MergeEvent, SolveResult, SolveStats, SolverWorkspace};
pub use table::{VertexSet, VertexTable};

#[cfg(test)]
mod tests {
    use super::*;
    use cds_exact::optimal_cost_distance;
    use cds_graph::{GridGraph, GridSpec};
    use cds_topo::BifurcationConfig;
    use proptest::prelude::*;

    fn uniform_env(grid: &GridGraph) -> (Vec<f64>, Vec<f64>) {
        (grid.graph().base_costs(), grid.graph().delays())
    }

    fn all_option_sets() -> Vec<SessionConfig> {
        let mut out = Vec::new();
        for discount in [false, true] {
            for better in [false, true] {
                for encourage in [false, true] {
                    out.push(SessionConfig {
                        discount_components: discount,
                        better_steiner: better,
                        encourage_root: encourage,
                        seed: 7,
                    });
                }
            }
        }
        out
    }

    /// One solve on a fresh workspace.
    fn solve(config: &SessionConfig, req: &Request<'_>) -> SolveResult {
        Solver::solve_with(config, &mut SolverWorkspace::new(), req)
    }

    /// A random small net: a uniform grid of 5–9 × 5–9 gcells on 2–3
    /// layers whose every edge cost and delay is its base value times a
    /// random factor of at least 1 (so a [`GridFutureCost`] of the grid
    /// stays a lower bound), 2–7 sinks and a root on distinct vertices,
    /// and sink weights that include zeros.
    struct RandomNet {
        grid: GridGraph,
        cost: Vec<f64>,
        delay: Vec<f64>,
        root: cds_graph::VertexId,
        sinks: Vec<cds_graph::VertexId>,
        weights: Vec<f64>,
    }

    impl RandomNet {
        fn new(seed: u64) -> Self {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (nx, ny, nl) =
                (rng.gen_range(5..10u32), rng.gen_range(5..10u32), rng.gen_range(2..4u8));
            let grid = GridSpec::uniform(nx, ny, nl).build();
            let (c, d) = uniform_env(&grid);
            let cost = c.iter().map(|x| x * (1.0 + 3.0 * rng.gen::<f64>())).collect();
            let delay = d.iter().map(|x| x * (1.0 + 2.0 * rng.gen::<f64>())).collect();
            let mut pins = Vec::new();
            let k = rng.gen_range(2..8usize);
            while pins.len() <= k {
                let v =
                    grid.vertex(rng.gen_range(0..nx), rng.gen_range(0..ny), rng.gen_range(0..nl));
                if !pins.contains(&v) {
                    pins.push(v);
                }
            }
            let weights = (0..k)
                .map(|_| if rng.gen_range(0..4u8) == 0 { 0.0 } else { 3.0 * rng.gen::<f64>() })
                .collect();
            RandomNet { grid, cost, delay, root: pins[0], sinks: pins.split_off(1), weights }
        }

        fn request(&self) -> Request<'_> {
            Request::new(
                self.grid.graph(),
                &self.cost,
                &self.delay,
                self.root,
                &self.sinks,
                &self.weights,
            )
        }

        /// The net's pins, the future cost's targets.
        fn terminals(&self) -> Vec<cds_graph::VertexId> {
            let mut t = self.sinks.clone();
            t.push(self.root);
            t
        }
    }

    /// One FNV-1a step.
    fn fnv(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x100000001b3)
    }

    /// Pins the tree edges and objective bits of 112 random small nets:
    /// each of the eight option sets at `d_bif = 0` and at `d_bif > 0`,
    /// seven nets apiece, half of them goal-oriented. The request-stream
    /// goldens of `tests/determinism.rs` run only the default set; this
    /// one also holds the §II base path, the discount-off §III-D
    /// placement and §III-E's discount.
    #[test]
    fn every_option_set_matches_its_golden() {
        let sets = all_option_sets();
        let mut h = 0xcbf29ce484222325u64;
        for i in 0..112u64 {
            let net = RandomNet::new(i);
            let dbif = if (i / 8) % 2 == 0 { 0.0 } else { 1.0 + (i % 5) as f64 };
            let req = net
                .request()
                .with_bif(BifurcationConfig::new(dbif, 0.1 * (i % 6) as f64))
                .with_seed(i);
            let fc = GridFutureCost::new(&net.grid, &net.terminals());
            let req = if (i / 16) % 2 == 0 { req } else { req.with_future(&fc) };
            let r = solve(&sets[i as usize % 8], &req);
            r.tree.validate(net.grid.graph(), net.sinks.len()).unwrap();
            h = fnv(h, r.evaluation.total.to_bits());
            for e in r.tree.edges() {
                h = fnv(h, u64::from(e) + 1);
            }
        }
        println!("option-set golden: {h:#018x}");
        assert_eq!(
            h, 0xcc70f6d7fd701c41,
            "a solve under some option set drifted from the pinned golden"
        );
    }

    /// §III-E acts through `d_bif` alone: its discount `η·d_bif·w(u)`
    /// is zero at `d_bif = 0`, where the tree is bit for bit the one
    /// without it. At `d_bif = 3` it makes both sinks connect to the
    /// root on their own, where without it they merge first.
    #[test]
    fn root_encouragement_changes_the_tree_only_at_a_positive_d_bif() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let (c, d) = uniform_env(&grid);
        let sinks = [grid.vertex(2, 3, 0), grid.vertex(5, 2, 0)];
        let without = SessionConfig { encourage_root: false, ..SessionConfig::DEFAULT };
        let merges = |r: &SolveResult| {
            r.trace.iter().filter(|e| matches!(e, MergeEvent::SinkSink { .. })).count()
        };
        for dbif in [0.0, 3.0] {
            let req = Request::new(grid.graph(), &c, &d, grid.vertex(4, 5, 0), &sinks, &[3.5, 4.0])
                .with_bif(BifurcationConfig::new(dbif, 0.5))
                .with_trace();
            let (on, off) = (solve(&SessionConfig::DEFAULT, &req), solve(&without, &req));
            let (e_on, e_off) =
                (on.tree.edges().collect::<Vec<_>>(), off.tree.edges().collect::<Vec<_>>());
            if dbif == 0.0 {
                assert_eq!(e_on, e_off);
                assert_eq!(on.evaluation.total.to_bits(), off.evaluation.total.to_bits());
            } else {
                assert_ne!(e_on, e_off, "§III-E is inert at d_bif = {dbif}");
                assert_eq!((merges(&on), merges(&off)), (0, 1));
            }
        }
    }

    /// §III-D acts with discounting off. On this net its second merge
    /// places the Steiner terminal at a vertex that is neither merged
    /// terminal, which the §II endpoint rule never picks, and the tree
    /// it leads to is cheaper than the one of the session seed's draw.
    #[test]
    fn steiner_reembedding_changes_the_tree_without_discounting() {
        let grid = GridSpec::uniform(7, 6, 2).build();
        let (c, d) = uniform_env(&grid);
        let sinks = [grid.vertex(5, 1, 0), grid.vertex(4, 1, 0), grid.vertex(0, 1, 0)];
        let req =
            Request::new(grid.graph(), &c, &d, grid.vertex(6, 5, 0), &sinks, &[1.0, 1.0, 1.5])
                .with_bif(BifurcationConfig::new(4.0, 0.5))
                .with_trace();
        let with = SessionConfig { discount_components: false, ..SessionConfig::DEFAULT };
        let (on, off) =
            (solve(&with, &req), solve(&SessionConfig { better_steiner: false, ..with }, &req));
        let MergeEvent::SinkSink { u_vertex, v_vertex, steiner_vertex, .. } = on.trace[1] else {
            panic!("the second merge joins two sink-side terminals");
        };
        assert!(steiner_vertex != u_vertex && steiner_vertex != v_vertex);
        assert_ne!(on.tree.edges().collect::<Vec<_>>(), off.tree.edges().collect::<Vec<_>>());
        assert!(on.evaluation.total < off.evaluation.total);
    }

    #[test]
    fn single_sink_is_exact_shortest_path() {
        // With t = 1 the algorithm must return exactly the c + w·d
        // shortest path (one search, one root connection).
        let grid = GridSpec::uniform(7, 7, 3).build();
        let (c, d) = uniform_env(&grid);
        let root = grid.vertex(0, 0, 0);
        let sink = grid.vertex(6, 5, 0);
        let w = 3.5;
        let (sinks, weights) = ([sink], [w]);
        let req = Request::new(grid.graph(), &c, &d, root, &sinks, &weights)
            .with_bif(BifurcationConfig::new(10.0, 0.25));
        let sp = cds_graph::dijkstra::shortest_distances(grid.graph(), &[(sink, 0.0)], |e| {
            c[e as usize] + w * d[e as usize]
        });
        for opts in all_option_sets() {
            let r = solve(&opts, &req);
            r.tree.validate(grid.graph(), 1).unwrap();
            // no bifurcations for a single sink → no penalties
            assert_eq!(r.evaluation.bifurcations, 0);
            assert!(
                (r.evaluation.total - sp[root as usize]).abs() < 1e-9,
                "opts {opts:?}: got {}, want {}",
                r.evaluation.total,
                sp[root as usize]
            );
        }
    }

    #[test]
    fn sink_on_root_costs_nothing() {
        let grid = GridSpec::uniform(4, 4, 2).build();
        let (c, d) = uniform_env(&grid);
        let root = grid.vertex(2, 2, 0);
        let r = Solver::new().solve(&Request::new(grid.graph(), &c, &d, root, &[root], &[5.0]));
        assert_eq!(r.evaluation.total, 0.0);
    }

    #[test]
    fn goal_oriented_search_matches_plain_dijkstra() {
        // §III-C must not change the result, only the work.
        let grid = GridSpec::uniform(10, 10, 2).build();
        let (c, d) = uniform_env(&grid);
        let root = grid.vertex(0, 0, 0);
        let sinks = [grid.vertex(9, 2, 0), grid.vertex(4, 9, 0), grid.vertex(9, 9, 0)];
        let weights = [1.0, 2.0, 0.5];
        let req = Request::new(grid.graph(), &c, &d, root, &sinks, &weights)
            .with_bif(BifurcationConfig::new(4.0, 0.25));
        let plain = Solver::new().solve(&req);
        let fc = GridFutureCost::new(&grid, &[root, sinks[0], sinks[1], sinks[2]]);
        let astar = Solver::new().solve(&req.with_future(&fc));
        assert!(
            (plain.evaluation.total - astar.evaluation.total).abs() < 1e-6,
            "A* changed the objective: {} vs {}",
            plain.evaluation.total,
            astar.evaluation.total
        );
        assert!(
            astar.stats.settled <= plain.stats.settled,
            "A* must not settle more labels ({} > {})",
            astar.stats.settled,
            plain.stats.settled
        );
    }

    #[test]
    fn trace_records_every_merge() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let (c, d) = uniform_env(&grid);
        let sinks = [grid.vertex(5, 0, 0), grid.vertex(0, 5, 0), grid.vertex(5, 5, 0)];
        let req =
            Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[1.0, 1.0, 1.0]);
        let r = Solver::new().solve(&req.with_trace());
        assert_eq!(r.trace.len(), r.stats.merges);
        let sinksink = r.trace.iter().filter(|e| matches!(e, MergeEvent::SinkSink { .. })).count();
        let rootc = r.trace.iter().filter(|e| matches!(e, MergeEvent::RootConnect { .. })).count();
        // every sink-sink merge consumes 2 terminals and creates 1; root
        // connections consume 1: consumption balances sinks + created
        assert_eq!(rootc + 2 * sinksink, sinks.len() + sinksink);
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = GridSpec::uniform(9, 9, 2).build();
        let (c, d) = uniform_env(&grid);
        let sinks = [
            grid.vertex(8, 1, 0),
            grid.vertex(1, 8, 0),
            grid.vertex(8, 8, 0),
            grid.vertex(4, 6, 0),
        ];
        let req =
            Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[1.0, 2.0, 3.0, 4.0])
                .with_bif(BifurcationConfig::new(2.0, 0.3))
                .with_seed(123);
        let a = solve(&SessionConfig::DEFAULT, &req);
        let b = solve(&SessionConfig::DEFAULT, &req);
        assert_eq!(a.evaluation.total, b.evaluation.total);
        assert_eq!(a.stats, b.stats);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// On small random instances the algorithm stays within a modest
        /// factor of the enumerated true optimum — far tighter than the
        /// O(log t) guarantee, but random instances are benign; the point
        /// is catching gross regressions and validating feasibility.
        #[test]
        fn approximation_vs_exact_optimum(
            seedpts in proptest::collection::hash_set((0u32..6, 0u32..6), 2..5),
            weights_raw in proptest::collection::vec(0.1f64..8.0, 5),
            dbif in 0.0f64..6.0,
        ) {
            let grid = GridSpec::uniform(6, 6, 2).build();
            let (c, d) = uniform_env(&grid);
            let root = grid.vertex(3, 3, 0);
            let sinks: Vec<u32> = seedpts.iter().map(|&(x, y)| grid.vertex(x, y, 0)).collect();
            let weights = &weights_raw[..sinks.len()];
            let bif = BifurcationConfig::new(dbif, 0.25);
            let req = Request::new(grid.graph(), &c, &d, root, &sinks, weights).with_bif(bif);
            let env = cds_embed::EmbedEnv { graph: grid.graph(), cost: &c, delay: &d, bif };
            let (opt, _) = optimal_cost_distance(&env, root, &sinks, weights);
            for opts in all_option_sets() {
                let r = solve(&opts, &req);
                r.tree.validate(grid.graph(), sinks.len()).unwrap();
                // The §II base variant's *randomized* endpoint placement
                // legitimately loses a constant factor on unlucky draws
                // (its guarantee is O(log t) in expectation); the
                // enhanced variant is held to a tighter practical bound.
                let factor = if opts.discount_components && opts.better_steiner {
                    2.5
                } else {
                    5.0
                };
                prop_assert!(
                    r.evaluation.total <= factor * opt + 1e-6,
                    "opts {:?}: {} vs optimum {}",
                    opts, r.evaluation.total, opt
                );
                prop_assert!(r.evaluation.total >= opt - 1e-6, "beat the optimum?!");
            }
        }

        /// The tree is always valid and the objective finite, across
        /// random weights, penalties, and option sets on a mid-size grid.
        #[test]
        fn always_valid_trees(
            seedpts in proptest::collection::hash_set((0u32..10, 0u32..10), 1..10),
            dbif in 0.0f64..10.0,
            eta in 0.0f64..=0.5,
            seed in 0u64..1000,
        ) {
            let grid = GridSpec::uniform(10, 10, 3).build();
            let (c, d) = uniform_env(&grid);
            let root = grid.vertex(5, 5, 0);
            let sinks: Vec<u32> = seedpts.iter().map(|&(x, y)| grid.vertex(x, y, 0)).collect();
            let weights: Vec<f64> = (0..sinks.len()).map(|i| (i as f64 + 1.0) * 0.5).collect();
            let fc = GridFutureCost::new(&grid, &sinks);
            let req = Request::new(grid.graph(), &c, &d, root, &sinks, &weights)
                .with_bif(BifurcationConfig::new(dbif, eta))
                .with_future(&fc)
                .with_seed(seed);
            let r = Solver::new().solve(&req);
            r.tree.validate(grid.graph(), sinks.len()).unwrap();
            prop_assert!(r.evaluation.total.is_finite());
            prop_assert!(r.stats.merges >= sinks.len());
        }

        /// Under §III-A, §III-D's placement moves no bit: a restarted
        /// search seeds every component vertex at exit prices that do not
        /// depend on where the Steiner terminal sits, so with §III-D on
        /// or off the trees and objectives are the same.
        #[test]
        fn steiner_placement_is_inert_under_discounting(
            seed in 0u64..1 << 48,
            dbif in 0.0f64..6.0,
            eta in 0.0f64..=0.5,
            toggles in 0u8..4,
        ) {
            let (encourage_root, goal_oriented) = (toggles & 1 != 0, toggles & 2 != 0);
            let net = RandomNet::new(seed);
            let fc = GridFutureCost::new(&net.grid, &net.terminals());
            let req = net.request().with_bif(BifurcationConfig::new(dbif, eta)).with_seed(seed);
            let req = if goal_oriented { req.with_future(&fc) } else { req };
            let on = SessionConfig { encourage_root, ..SessionConfig::DEFAULT };
            let off = SessionConfig { better_steiner: false, ..on };
            let (a, b) = (solve(&on, &req), solve(&off, &req));
            prop_assert_eq!(a.tree.edges().collect::<Vec<_>>(), b.tree.edges().collect::<Vec<_>>());
            prop_assert_eq!(a.evaluation.total.to_bits(), b.evaluation.total.to_bits());
        }

        /// Scaling `c`, `d` and `d_bif` together by `2^k` scales every
        /// label, key, exit price and penalty by that power of two,
        /// which floating point does exactly, and the bucket quantum
        /// (the least positive cost) with them. So the kernel must make
        /// every decision it made unscaled: the same tree, and the
        /// objective times `2^k` bit for bit. An absolute epsilon
        /// anywhere in the kernel breaks this.
        #[test]
        fn scaling_costs_and_delays_by_a_power_of_two_moves_no_decision(
            seed in 0u64..1 << 48,
            seedpts in proptest::collection::hash_set((0u32..6, 0u32..6), 1..6),
            k in -20i32..=30,
            dbif in 0.0f64..6.0,
            eta in 0.0f64..=0.5,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let grid = GridSpec::uniform(6, 6, 2).build();
            let m = grid.graph().num_edges();
            let c: Vec<f64> = (0..m).map(|_| 0.5 + 3.0 * rng.gen::<f64>()).collect();
            let d: Vec<f64> = (0..m).map(|_| 2.0 * rng.gen::<f64>()).collect();
            let root = grid.vertex(3, 3, 1);
            let sinks: Vec<u32> = seedpts.iter().map(|&(x, y)| grid.vertex(x, y, 0)).collect();
            let weights: Vec<f64> = sinks.iter().map(|_| 4.0 * rng.gen::<f64>()).collect();
            let scale = 2f64.powi(k);
            let (cs, ds): (Vec<f64>, Vec<f64>) =
                (c.iter().map(|x| x * scale).collect(), d.iter().map(|x| x * scale).collect());
            let req = Request::new(grid.graph(), &c, &d, root, &sinks, &weights)
                .with_bif(BifurcationConfig::new(dbif, eta));
            let scaled = Request::new(grid.graph(), &cs, &ds, root, &sinks, &weights)
                .with_bif(BifurcationConfig::new(dbif * scale, eta));
            for config in [SessionConfig::DEFAULT, SessionConfig::BASE] {
                let (a, b) = (solve(&config, &req), solve(&config, &scaled));
                prop_assert_eq!(a.tree.edges().collect::<Vec<_>>(), b.tree.edges().collect::<Vec<_>>());
                prop_assert_eq!((a.evaluation.total * scale).to_bits(), b.evaluation.total.to_bits());
                prop_assert_eq!(a.stats, b.stats);
            }
        }
    }
}
