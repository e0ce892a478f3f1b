//! §III ablation: the contribution of each practical enhancement.
//!
//! DESIGN.md calls out the paper's claim that §III-A "significantly
//! improves connection costs" and that §III-D "improves the quality in
//! practice". This harness measures each toggle on harvested router
//! instances: objective vs the fully enhanced solver, and labels settled
//! (the work A* saves).

use cds_bench::{env_usize, selected_suite};
use cds_core::{GridFutureCost, Request, SessionConfig, Solver, SolverWorkspace};
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
    let quantum = chip.grid.min_cost_per_gcell();
    let all_on = SessionConfig::DEFAULT;
    let variants: [(&str, SessionConfig); 5] = [
        ("full (A-E)", all_on),
        ("no III-A discount", SessionConfig { discount_components: false, ..all_on }),
        ("no III-D placement", SessionConfig { better_steiner: false, ..all_on }),
        ("no III-E root enc.", SessionConfig { encourage_root: false, ..all_on }),
        ("base (Sec. II)", SessionConfig::BASE),
    ];
    let mut ws = SolverWorkspace::new();
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
        let req = Request::new(&window, &out.prices, &delay, root, &sinks, &h.weights)
            .with_bif(bif)
            .with_quantum(quantum);
        let full = Solver::solve_with(&all_on, &mut ws, &req).evaluation.total;
        if full <= 0.0 {
            continue;
        }
        for (i, (_, config)) in variants.iter().enumerate() {
            let r = Solver::solve_with(config, &mut ws, &req);
            sums[i] += r.evaluation.total / full - 1.0;
        }
        // work saved by §III-C
        let mut terms = sinks.clone();
        terms.push(root);
        let fc = GridFutureCost::new(&window, &terms);
        astar_settled += Solver::solve_with(&all_on, &mut ws, &req.with_future(&fc)).stats.settled;
        plain_settled += Solver::solve_with(&all_on, &mut ws, &req).stats.settled;
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
