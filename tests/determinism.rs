//! Determinism and thread-safety guarantees across the stack.
//!
//! Everything in this workspace is specified to be reproducible: same
//! seed → same bits, regardless of thread count or repetition. These
//! tests pin that contract, plus the `Send`/`Sync` properties the
//! parallel router relies on.

use cds_core::{Request, SessionConfig, SolveResult, Solver, SolverWorkspace};
use cds_graph::{GridGraph, GridSpec};
use cds_instgen::ChipSpec;
use cds_router::{Router, RouterConfig, SteinerMethod};
use cds_topo::BifurcationConfig;

#[test]
fn solver_bitwise_deterministic_across_repeats() {
    let grid = GridSpec::uniform(12, 12, 3).build();
    let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
    let sinks = [
        grid.vertex(11, 3, 0),
        grid.vertex(2, 11, 0),
        grid.vertex(7, 7, 0),
        grid.vertex(11, 11, 0),
        grid.vertex(1, 1, 0),
    ];
    let weights = [0.3, 1.7, 0.02, 2.4, 0.9];
    let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 5, 0), &sinks, &weights)
        .with_bif(BifurcationConfig::new(4.0, 0.25))
        .with_seed(77);
    let runs: Vec<_> = (0..3).map(|_| Solver::new().solve(&req)).collect();
    for r in &runs[1..] {
        assert_eq!(r.evaluation.total.to_bits(), runs[0].evaluation.total.to_bits());
        assert_eq!(r.stats, runs[0].stats);
        let edges: Vec<_> = r.tree.edges().collect();
        let edges0: Vec<_> = runs[0].tree.edges().collect();
        assert_eq!(edges, edges0, "identical edge sets, identical order");
    }
}

#[test]
fn different_seeds_may_differ_but_stay_valid() {
    // the randomized placement only matters without §III-D; exercise it
    let grid = GridSpec::uniform(10, 10, 2).build();
    let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
    let sinks = [grid.vertex(9, 0, 0), grid.vertex(0, 9, 0), grid.vertex(9, 9, 0)];
    let weights = [1.0, 1.0, 1.0];
    let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &weights);
    // re-enable the random endpoint rule
    let mut solver =
        Solver::with_config(SessionConfig { better_steiner: false, ..SessionConfig::DEFAULT });
    for seed in 0..12 {
        let r = solver.solve(&req.with_seed(seed));
        r.tree.validate(grid.graph(), sinks.len()).unwrap();
    }
}

/// One net of the synthetic request stream: grid index, sinks, weights,
/// penalty config, seed.
type StreamNet = (usize, Vec<u32>, Vec<f64>, BifurcationConfig, u64);

/// Builds a stream of ≥ 100 heterogeneous requests over several grids:
/// varying grid sizes, sink counts, weights, penalties, and seeds — the
/// shape of a rip-up & re-route request stream.
fn heterogeneous_stream(grids: &[GridGraph]) -> Vec<StreamNet> {
    let mut stream = Vec::new();
    for i in 0..120u64 {
        let gi = (i % grids.len() as u64) as usize;
        let grid = &grids[gi];
        let (nx, ny) = (grid.spec().nx, grid.spec().ny);
        let k = 1 + (i % 7) as u32;
        let sinks: Vec<u32> = (0..k)
            .map(|j| {
                grid.vertex(
                    (3 + i as u32 * 5 + j * 11) % nx,
                    (1 + i as u32 * 3 + j * 7) % ny,
                    (j as u8 % grid.spec().layers.len() as u8).min(1),
                )
            })
            .collect();
        let weights: Vec<f64> = (0..k).map(|j| 0.05 + (j as f64) * 0.4 + (i % 3) as f64).collect();
        let bif = if i % 2 == 0 {
            BifurcationConfig::ZERO
        } else {
            BifurcationConfig::new(3.0 + (i % 5) as f64, 0.25)
        };
        stream.push((gi, sinks, weights, bif, i * 31 + 7));
    }
    stream
}

fn assert_bit_identical(a: &SolveResult, b: &SolveResult, ctx: &str) {
    assert_eq!(
        a.evaluation.total.to_bits(),
        b.evaluation.total.to_bits(),
        "{ctx}: objective differs"
    );
    assert_eq!(a.stats, b.stats, "{ctx}: work counters differ");
    let ea: Vec<_> = a.tree.edges().collect();
    let eb: Vec<_> = b.tree.edges().collect();
    assert_eq!(ea, eb, "{ctx}: edge sets differ");
}

#[test]
fn solver_session_reuse_matches_fresh_per_call_over_100_requests() {
    // the session-API contract: a Solver reused across a long, mixed
    // request stream is bit-identical to a fresh workspace per call
    let grids = [
        GridSpec::uniform(8, 8, 2).build(),
        GridSpec::uniform(12, 9, 3).build(),
        GridSpec::uniform(15, 15, 2).build(),
    ];
    let envs: Vec<(Vec<f64>, Vec<f64>)> =
        grids.iter().map(|g| (g.graph().base_costs(), g.graph().delays())).collect();
    let stream = heterogeneous_stream(&grids);
    assert!(stream.len() >= 100);
    let mut session = Solver::new();
    for (n, (gi, sinks, weights, bif, seed)) in stream.iter().enumerate() {
        let grid = &grids[*gi];
        let (cost, delay) = &envs[*gi];
        let root = grid.vertex(0, 0, 0);
        let req = Request::new(grid.graph(), cost, delay, root, sinks, weights)
            .with_bif(*bif)
            .with_seed(*seed);
        let fresh = Solver::solve_with(&SessionConfig::DEFAULT, &mut SolverWorkspace::new(), &req);
        let reused = session.solve(&req);
        assert_bit_identical(&fresh, &reused, &format!("request {n}"));
    }
    assert_eq!(session.solves(), stream.len() as u64);
}

/// FNV-1a over the bit-exact outcome of one solve: objective bits, work
/// counters, and the edge list in tree order.
fn fold_result(mut h: u64, r: &SolveResult) -> u64 {
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(r.evaluation.total.to_bits());
    eat(r.stats.settled as u64);
    eat(r.stats.pushed as u64);
    eat(r.stats.merges as u64);
    for e in r.tree.edges() {
        eat(e as u64 + 1);
    }
    h
}

/// Pins the exact results of the 120-request stream bit-for-bit. The
/// golden was re-pinned once when the label queues moved to the total
/// pop order `(key, search, vertex)` (the bucket-queue PR): equal-key
/// pops now resolve by search id then vertex id instead of heap
/// insertion history, which legitimately changes CD tie resolution.
#[test]
fn stream_results_match_sparse_era_golden() {
    let grids = [
        GridSpec::uniform(8, 8, 2).build(),
        GridSpec::uniform(12, 9, 3).build(),
        GridSpec::uniform(15, 15, 2).build(),
    ];
    let envs: Vec<(Vec<f64>, Vec<f64>)> =
        grids.iter().map(|g| (g.graph().base_costs(), g.graph().delays())).collect();
    let mut session = Solver::new();
    let mut h = 0xcbf29ce484222325u64;
    for (gi, sinks, weights, bif, seed) in heterogeneous_stream(&grids) {
        let grid = &grids[gi];
        let (cost, delay) = &envs[gi];
        let req = Request::new(grid.graph(), cost, delay, grid.vertex(0, 0, 0), &sinks, &weights)
            .with_bif(bif)
            .with_seed(seed);
        h = fold_result(h, &session.solve(&req));
    }
    println!("stream golden: {h:#018x}");
    assert_eq!(h, 0x9e49cf690e3ee57b, "solver results drifted from the pinned stream golden");
}

#[test]
fn router_identical_for_1_2_and_8_threads() {
    let chip = ChipSpec { num_nets: 40, ..ChipSpec::small_test(44) }.generate();
    let run = |threads| {
        Router::new(
            &chip,
            RouterConfig {
                threads,
                iterations: 2,
                method: SteinerMethod::Cd,
                ..Default::default()
            },
        )
        .run()
    };
    let (a, b, c) = (run(1), run(2), run(8));
    assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits());
    assert_eq!(b.metrics.tns.to_bits(), c.metrics.tns.to_bits());
    assert_eq!(a.usage, b.usage);
    assert_eq!(b.usage, c.usage);
}

#[test]
fn chip_generation_is_pure() {
    let spec = ChipSpec::small_test(123);
    let a = spec.generate();
    let b = spec.generate();
    assert_eq!(a.nets, b.nets);
    assert_eq!(a.grid.graph().num_edges(), b.grid.graph().num_edges());
    // capacities (including macro depletion) are identical
    for e in a.grid.graph().edge_ids() {
        assert_eq!(
            a.grid.graph().edge(e).capacity.to_bits(),
            b.grid.graph().edge(e).capacity.to_bits()
        );
    }
}

#[test]
fn core_types_are_send_and_sync_where_needed() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    // the router shares these across worker threads
    assert_send_sync::<cds_graph::Graph>();
    assert_send_sync::<cds_graph::GridGraph>();
    assert_send_sync::<cds_graph::WindowView<'static>>();
    assert_send_sync::<cds_instgen::Chip>();
    assert_send::<cds_topo::EmbeddedTree>();
    assert_send::<cds_core::SolveResult>();
    // the main thread reads worker forests while merging; views are
    // shared across readers
    assert_send_sync::<cds_topo::RoutedForest>();
    assert_send_sync::<cds_topo::TreeView<'static>>();
}
