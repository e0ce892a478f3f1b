//! §III ablation: the contribution of each practical enhancement.
//!
//! DESIGN.md calls out the paper's claim that §III-A "significantly
//! improves connection costs" and that §III-D "improves the quality in
//! practice". This harness measures each toggle on harvested router
//! instances: objective vs the fully enhanced solver, and labels settled
//! (the work A* saves).

use cds_bench::{env_usize, selected_suite};
use cds_core::{solve, GridFutureCost, Instance, SolverOptions};
use cds_graph::{RoutingSurface, WindowView};
use cds_router::{Router, RouterConfig};
use cds_topo::BifurcationConfig;

fn main() {
    let iterations = env_usize("CDST_ITER", 3);
    let chips = selected_suite();
    let chip = chips.first().expect("at least one chip selected");
    eprintln!("harvesting {}…", chip.name);
    let router =
        Router::new(chip, RouterConfig { iterations, harvest: true, ..Default::default() });
    let out = router.run();
    let bif = BifurcationConfig::new(chip.delay_model.dbif_ps(), 0.25);
    let delay = chip.grid.graph().delays();

    // the quantum hint keeps each solve from scanning the chip-wide
    // price array behind the window view
    let quantum = Some(chip.grid.min_cost_per_gcell());
    let all_on = SolverOptions { quantum, ..Default::default() };
    let variants: [(&str, SolverOptions); 5] = [
        ("full (A-E)", all_on),
        ("no III-A discount", SolverOptions { discount_components: false, ..all_on }),
        ("no III-D placement", SolverOptions { better_steiner: false, ..all_on }),
        ("no III-E root enc.", SolverOptions { encourage_root: false, ..all_on }),
        ("base (Sec. II)", SolverOptions { quantum, ..SolverOptions::base() }),
    ];
    let mut sums = vec![0.0f64; variants.len()];
    let mut astar_settled = 0usize;
    let mut plain_settled = 0usize;
    let mut n = 0usize;

    for h in out.harvest.iter().filter(|h| chip.nets[h.net].sinks.len() >= 3) {
        let net = &chip.nets[h.net];
        let mut pins = vec![net.root];
        pins.extend_from_slice(&net.sinks);
        let window = WindowView::around(&chip.grid, &pins, 6);
        let root = window.vertex_at(window.localize(net.root));
        let sinks: Vec<u32> =
            net.sinks.iter().map(|&p| window.vertex_at(window.localize(p))).collect();
        let inst = Instance {
            graph: &window,
            cost: &out.prices,
            delay: &delay,
            root,
            sink_vertices: &sinks,
            weights: &h.weights,
            bif,
        };
        let full = solve(&inst, &variants[0].1).evaluation.total;
        if full <= 0.0 {
            continue;
        }
        for (i, (_, opts)) in variants.iter().enumerate() {
            let r = solve(&inst, opts);
            sums[i] += r.evaluation.total / full - 1.0;
        }
        // work saved by §III-C
        let mut terms = sinks.clone();
        terms.push(root);
        let fc = GridFutureCost::new(&window, &terms);
        astar_settled += solve(&inst, &SolverOptions { future: Some(&fc), ..all_on }).stats.settled;
        plain_settled += solve(&inst, &all_on).stats.settled;
        n += 1;
    }
    println!("§III ablation over {n} instances of {}", chip.name);
    println!("{:>22} {:>14}", "variant", "avg obj vs full");
    for (i, (name, _)) in variants.iter().enumerate() {
        println!("{name:>22} {:>+13.2}%", sums[i] / n as f64 * 100.0);
    }
    println!(
        "\n§III-C goal-orientation: {} labels settled with A* vs {} without ({:.1}% saved)",
        astar_settled,
        plain_settled,
        (1.0 - astar_settled as f64 / plain_settled.max(1) as f64) * 100.0
    );
}
