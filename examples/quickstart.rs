//! Quickstart: solve cost-distance Steiner tree instances through a
//! solver session.
//!
//! Builds a small 3D global routing grid, creates a [`Solver`] session,
//! and routes a net with a critical and a few non-critical sinks — then
//! routes a second net through the *same* session to show the
//! workspace-reuse API (no reallocation, bit-identical results to a
//! fresh workspace).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cds_core::{GridFutureCost, Request, SessionConfig, Solver};
use cds_graph::GridSpec;
use cds_topo::BifurcationConfig;

fn main() {
    // a 16×16 gcell grid with 4 alternating-direction layers
    let grid = GridSpec::uniform(16, 16, 4).build();
    let cost = grid.graph().base_costs();
    let delay = grid.graph().delays();

    // one session for all nets: buffers warm up once, then get reused
    let mut solver = Solver::with_config(SessionConfig { seed: 0x5eed, ..SessionConfig::DEFAULT });

    // net 1: root bottom-left, one critical sink (w = 4) far away,
    // three cheap fan-out sinks
    let root = grid.vertex(0, 0, 0);
    let sinks = [
        grid.vertex(15, 15, 0), // critical
        grid.vertex(4, 2, 0),
        grid.vertex(2, 9, 0),
        grid.vertex(11, 3, 0),
    ];
    let weights = [4.0, 0.1, 0.1, 0.1];

    // goal-oriented search needs an admissible future cost per net
    let mut terminals = sinks.to_vec();
    terminals.push(root);
    let fc = GridFutureCost::new(&grid, &terminals);

    let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &weights)
        .with_bif(BifurcationConfig::new(6.0, 0.25)) // d_bif = 6 ps, η = 1/4
        .with_future(&fc);
    let result = solver.solve(&req);
    result
        .tree
        .validate(grid.graph(), sinks.len())
        .expect("solver output is always a valid embedded tree");

    println!("cost-distance Steiner tree for 1 root + {} sinks", sinks.len());
    println!("  objective (Eq. 1):   {:.2}", result.evaluation.total);
    println!("  connection cost:     {:.2}", result.evaluation.connection_cost);
    println!("  weighted delay cost: {:.2}", result.evaluation.delay_cost);
    println!("  bifurcations:        {}", result.evaluation.bifurcations);
    println!("  wirelength:          {} gcells", result.tree.wirelength(grid.graph()));
    println!("  vias:                {}", result.tree.via_count(grid.graph()));
    for (i, d) in result.evaluation.sink_delays.iter().enumerate() {
        println!("  sink {i}: delay {d:.2} ps (weight {})", weights[i]);
    }
    println!("  work: {} labels settled, {} merges", result.stats.settled, result.stats.merges);

    // net 2 reuses the warmed-up workspace — same API, no reallocation
    let sinks2 = [grid.vertex(1, 14, 0), grid.vertex(14, 1, 0)];
    let req2 = Request::new(grid.graph(), &cost, &delay, root, &sinks2, &[1.0, 1.0]);
    let result2 = solver.solve(&req2);
    println!(
        "\nsecond net through the same session: objective {:.2} ({} solves served)",
        result2.evaluation.total,
        solver.solves()
    );
}
