//! Integration tests spanning the whole pipeline: instance → all four
//! Steiner oracles → valid trees with consistent objectives.

use cds_geom::Point;
use cds_graph::GridSpec;
use cds_router::{OracleRequest, OracleWorkspace, SteinerMethod};
use cds_topo::BifurcationConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(rng: &mut StdRng, n: usize, side: i32) -> Vec<Point> {
    (0..n).map(|_| Point::new(rng.gen_range(0..side), rng.gen_range(0..side))).collect()
}

#[test]
fn all_methods_valid_across_sizes_and_penalties() {
    let grid = GridSpec::uniform(14, 14, 4).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    let mut rng = StdRng::seed_from_u64(99);
    for k in [1usize, 2, 3, 7, 15] {
        for dbif in [0.0, 7.5] {
            let sinks = random_points(&mut rng, k, 14);
            let weights: Vec<f64> = (0..k).map(|i| 0.05 + i as f64 * 0.3).collect();
            let bif = BifurcationConfig::new(dbif, 0.25);
            let req = OracleRequest {
                surface: &grid,
                cost: &cost,
                delay: &delay,
                root: Point::new(0, 0),
                sinks: &sinks,
                weights: &weights,
                budgets: None,
                bif,
                seed: k as u64,
            };
            for m in SteinerMethod::ALL {
                let tree = m.oracle().route(&req, &mut OracleWorkspace::new());
                tree.validate(grid.graph(), k)
                    .unwrap_or_else(|e| panic!("{m} k={k} dbif={dbif}: {e}"));
                let ev = tree.evaluate(&cost, &delay, &weights, &bif);
                assert!(ev.total.is_finite() && ev.total >= 0.0);
                // every sink delay is at least the L1 lower bound
                for (i, &s) in sinks.iter().enumerate() {
                    let lb = Point::new(0, 0).l1(s) as f64 * grid.min_delay_per_gcell();
                    assert!(
                        ev.sink_delays[i] >= lb - 1e-9,
                        "{m}: sink {i} delay {} below bound {lb}",
                        ev.sink_delays[i]
                    );
                }
            }
        }
    }
}

#[test]
fn cd_is_competitive_on_the_objective() {
    // On identical instances CD must stay within a reasonable factor of
    // the best baseline (its own objective is what it optimizes).
    let grid = GridSpec::uniform(16, 16, 4).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    let mut rng = StdRng::seed_from_u64(7);
    let mut total = [0.0f64; 4];
    for trial in 0..10 {
        let k = rng.gen_range(3..12);
        let sinks = random_points(&mut rng, k, 16);
        let weights: Vec<f64> =
            (0..k).map(|_| 0.02 * 10f64.powf(rng.gen_range(0.0..1.5))).collect();
        let req = OracleRequest {
            surface: &grid,
            cost: &cost,
            delay: &delay,
            root: Point::new(8, 8),
            sinks: &sinks,
            weights: &weights,
            budgets: None,
            bif: BifurcationConfig::new(5.0, 0.25),
            seed: trial,
        };
        for (i, m) in SteinerMethod::ALL.iter().enumerate() {
            let tree = m.oracle().route(&req, &mut OracleWorkspace::new());
            total[i] += tree.evaluate(&cost, &delay, &weights, &req.bif).total;
        }
    }
    let best = total.iter().cloned().fold(f64::INFINITY, f64::min);
    let cd = total[3];
    assert!(
        cd <= 1.25 * best,
        "CD total {cd} vs best {best} — more than 25% off across 10 instances"
    );
}

#[test]
fn congestion_pricing_steers_cd_away() {
    // price a vertical wall of edges absurdly high: CD must route around
    // it while keeping the objective finite and the tree valid
    let grid = GridSpec::uniform(12, 12, 2).build();
    let mut cost = grid.graph().base_costs();
    let delay = grid.graph().delays();
    for e in grid.graph().edge_ids() {
        let ep = grid.graph().endpoints(e);
        let (cu, cv) = (grid.coord(ep.u), grid.coord(ep.v));
        if cu.x.min(cv.x) == 5 && cu.x.max(cv.x) == 6 {
            cost[e as usize] = 1e4; // the wall between columns 5 and 6
        }
    }
    let sinks = [Point::new(11, 6)];
    let req = OracleRequest {
        surface: &grid,
        cost: &cost,
        delay: &delay,
        root: Point::new(0, 6),
        sinks: &sinks,
        weights: &[0.5],
        budgets: None,
        bif: BifurcationConfig::ZERO,
        seed: 1,
    };
    let tree = SteinerMethod::Cd.oracle().route(&req, &mut OracleWorkspace::new());
    let ev = tree.evaluate(&cost, &delay, &[0.5], &BifurcationConfig::ZERO);
    // with a single sink CD is exact: it must pay the wall exactly once
    // (no way around a full-height wall) but never more
    assert!(ev.connection_cost < 2.0 * 1e4, "paid the wall more than once");
}
