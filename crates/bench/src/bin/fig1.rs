//! Fig. 1 reproduction: bifurcations on the critical path.
//!
//! The paper's Figure 1 contrasts two trees for the same net — one with
//! many bifurcations on the root→critical-sink path, one with few. This
//! harness builds that situation (one heavy critical sink, many light
//! fan-out sinks near its trunk) and reports, for each Steiner method,
//! the number of bifurcations on the critical path and the critical
//! sink's delay, with bifurcation penalties active.

use cds_geom::Point;
use cds_graph::GridSpec;
use cds_router::{OracleRequest, OracleWorkspace, SteinerMethod};
use cds_topo::BifurcationConfig;

fn main() {
    let grid = GridSpec::uniform(24, 12, 4).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    // critical sink far right; light sinks sprinkled along the trunk
    let mut sinks = vec![Point::new(23, 5)];
    for i in 0..8 {
        sinks.push(Point::new(3 + 2 * i, if i % 2 == 0 { 3 } else { 8 }));
    }
    let mut weights = vec![5.0];
    weights.extend(std::iter::repeat_n(0.05, 8));
    let bif = BifurcationConfig::new(8.0, 0.25);
    println!("Fig. 1 — bifurcations on the critical path (critical sink at (23,5), w=5)");
    println!(
        "{:>4} {:>18} {:>16} {:>12}",
        "Run", "bifs on crit path", "crit delay [ps]", "objective"
    );
    for m in SteinerMethod::ALL {
        let req = OracleRequest {
            surface: &grid,
            cost: &cost,
            delay: &delay,
            root: Point::new(0, 5),
            sinks: &sinks,
            weights: &weights,
            budgets: None,
            bif,
            seed: 7,
        };
        let tree = m.oracle().route(&req, &mut OracleWorkspace::new());
        let ev = tree.evaluate(&cost, &delay, &weights, &bif);
        let crit_node = tree
            .sink_nodes()
            .into_iter()
            .find(|&(s, _)| s == 0)
            .map(|(_, n)| n)
            .expect("critical sink routed");
        println!(
            "{:>4} {:>18} {:>16.1} {:>12.1}",
            m.to_string(),
            tree.bifurcations_on_path(crit_node),
            ev.sink_delays[0],
            ev.total
        );
    }
}
