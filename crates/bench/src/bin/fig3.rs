#![forbid(unsafe_code)]
//! Fig. 3 reproduction: the course of the cost-distance algorithm.
//!
//! Figure 3 of the paper shows five iterations of Algorithm 1 on a
//! 5-sink instance: simultaneous Dijkstra balls growing at speeds
//! inversely proportional to delay weight, pairwise merges with random
//! Steiner placement, a root connection, until all sinks are connected.
//! This harness runs that instance with tracing enabled and prints the
//! merge course plus an ASCII rendering of the final tree.

use cds_core::{MergeEvent, Request, Solver};
use cds_graph::GridSpec;
use cds_topo::{BifurcationConfig, NodeKind};

fn main() {
    let grid = GridSpec::uniform(20, 20, 2).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    // the 5 sinks of the figure: dot size = delay weight
    let sinks = [
        grid.vertex(3, 16, 0),
        grid.vertex(8, 14, 0),
        grid.vertex(16, 12, 0),
        grid.vertex(5, 5, 0),
        grid.vertex(14, 3, 0),
    ];
    let weights = [2.0, 0.5, 1.0, 0.7, 1.4];
    let root = grid.vertex(10, 10, 0);
    let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &weights)
        .with_bif(BifurcationConfig::new(5.0, 0.25))
        .with_trace();
    let result = Solver::new().solve(&req);
    println!("Fig. 3 — course of the algorithm on the 5-sink example\n");
    let coord = |v: u32| {
        let c = grid.coord(v);
        format!("({},{})", c.x, c.y)
    };
    for ev in &result.trace {
        match *ev {
            MergeEvent::SinkSink {
                iteration,
                u_vertex,
                v_vertex,
                steiner_vertex,
                l_value,
                path_edges,
            } => {
                println!(
                    "i={iteration}: u at {} finds v at {}; Steiner vertex s at {} \
                     (L = {l_value:.2}, path {path_edges} edges)",
                    coord(u_vertex),
                    coord(v_vertex),
                    coord(steiner_vertex)
                );
            }
            MergeEvent::RootConnect { iteration, u_vertex, l_value, path_edges } => {
                println!(
                    "i={iteration}: terminal at {} connects to the root component \
                     (L = {l_value:.2}, path {path_edges} edges)",
                    coord(u_vertex)
                );
            }
        }
    }
    println!(
        "\nfinal: objective {:.2} (connection {:.2} + weighted delay {:.2}), {} bifurcations",
        result.evaluation.total,
        result.evaluation.connection_cost,
        result.evaluation.delay_cost,
        result.evaluation.bifurcations
    );

    // ASCII plot of the plane projection
    let mut canvas = vec![vec![b' '; 20]; 20];
    for node in 0..result.tree.num_nodes() as u32 {
        if result.tree.parent(node).is_some() {
            for &e in &result.tree.path(node).edges {
                let ep = grid.graph().endpoints(e);
                for v in [ep.u, ep.v] {
                    let c = grid.coord(v);
                    let cell = &mut canvas[c.y as usize][c.x as usize];
                    if *cell == b' ' {
                        *cell = b'.';
                    }
                }
            }
        }
    }
    for (i, &s) in sinks.iter().enumerate() {
        let c = grid.coord(s);
        canvas[c.y as usize][c.x as usize] = b'0' + i as u8;
    }
    let rc = grid.coord(root);
    canvas[rc.y as usize][rc.x as usize] = b'r';
    println!("\nplane projection (r = root, digits = sinks, . = wire):");
    for row in canvas.iter().rev() {
        println!("  {}", String::from_utf8_lossy(row));
    }
    let steiner = (0..result.tree.num_nodes() as u32)
        .filter(|&n| result.tree.node_kind(n) == NodeKind::Steiner)
        .count();
    println!("\n({} tree nodes, {steiner} Steiner nodes)", result.tree.num_nodes());
}
