//! The forest-arena determinism contract: routing through the
//! [`RoutedForest`] slabs is bit-identical to the owned-`EmbeddedTree`
//! reference path. The forest only changes *where* bytes live — never
//! values or enumeration order.
//!
//! Two reference constructions pin this:
//!
//! 1. **Owned-oracle router runs** — a wrapper oracle that implements
//!    only `route()` (so the router's default `route_into` materializes
//!    an owned tree and copies it in) must reproduce the stock CD
//!    outcome — checksums, usage, per-net spans — bit-for-bit across
//!    multiple rip-up iterations and thread counts.
//! 2. **Hand-rolled single-iteration replay** — a first router iteration
//!    runs on base prices and the initial weights, so every per-net
//!    result is recomputable outside the router with owned trees and
//!    owned evaluations; the outcome's forest must match them exactly.

mod common;

use cds_graph::{RoutingSurface, WindowView};
use cds_instgen::ChipSpec;
use cds_router::{
    OracleRequest, OracleWorkspace, Router, RouterConfig, RoutingOutcome, SteinerMethod,
};
use common::OwnedPathCd;
use proptest::prelude::*;

fn outcomes_bit_identical(a: &RoutingOutcome, b: &RoutingOutcome, ctx: &str) {
    assert_eq!(a.checksum(), b.checksum(), "{ctx}: checksums differ");
    assert_eq!(a.usage, b.usage, "{ctx}: usage differs");
    assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits(), "{ctx}: TNS differs");
    assert_eq!(a.metrics.wl_m.to_bits(), b.metrics.wl_m.to_bits(), "{ctx}: WL differs");
    for (i, (x, y)) in a.nets().zip(b.nets()).enumerate() {
        assert_eq!(x.used_edges, y.used_edges, "{ctx}: net {i} edges");
        assert_eq!(x.sink_delays, y.sink_delays, "{ctx}: net {i} delays");
        assert_eq!(
            x.wirelength_gcells.to_bits(),
            y.wirelength_gcells.to_bits(),
            "{ctx}: net {i} wirelength"
        );
        assert_eq!(x.vias, y.vias, "{ctx}: net {i} vias");
        // the stored trees match node for node
        assert_eq!(x.tree.num_nodes(), y.tree.num_nodes(), "{ctx}: net {i} node count");
        assert_eq!(x.tree.edges(), y.tree.edges(), "{ctx}: net {i} tree edges");
        for v in 0..x.tree.num_nodes() as u32 {
            assert_eq!(x.tree.children(v), y.tree.children(v), "{ctx}: net {i} node {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Random chips routed through the arena path vs the owned-tree
    /// reference path: bit-identical outcomes (checksums, usage, every
    /// span) over a full multi-iteration rip-up run, both thread
    /// counts.
    #[test]
    fn forest_path_matches_owned_reference_on_random_chips(
        chip_seed in 0u64..500,
        num_nets in 8usize..26,
    ) {
        let chip = ChipSpec { num_nets, ..ChipSpec::small_test(chip_seed) }.generate();
        for threads in [1usize, 4] {
            let config = RouterConfig { iterations: 3, threads, ..Default::default() };
            let arena = Router::new(&chip, config.clone()).run();
            let owned = Router::with_oracle(&chip, config, Box::new(OwnedPathCd)).run();
            outcomes_bit_identical(&arena, &owned, &format!("seed {chip_seed} threads {threads}"));
        }
    }
}

#[test]
fn first_iteration_replays_from_owned_trees_and_evaluations() {
    // A 1-iteration run prices every edge at base cost (alpha = 0) and
    // weights every sink at the initial 0.05, so each net's result is
    // an independent oracle call we can replay with owned trees.
    let chip = ChipSpec { num_nets: 40, ..ChipSpec::small_test(23) }.generate();
    let config = RouterConfig { iterations: 1, ..Default::default() };
    let out = Router::new(&chip, config.clone()).run();

    let g = chip.grid.graph();
    let prices = g.base_costs();
    let delays = g.delays();
    let oracle = SteinerMethod::Cd.oracle();
    let mut ws = OracleWorkspace::new();
    let mut usage = vec![0.0f64; g.num_edges()];
    let bif = cds_topo::BifurcationConfig::ZERO; // use_dbif defaults off
    for (i, net) in chip.nets.iter().enumerate() {
        let mut pins = vec![net.root];
        pins.extend_from_slice(&net.sinks);
        let view = WindowView::around(&chip.grid, &pins, config.window_margin);
        let local_sinks: Vec<_> = net.sinks.iter().map(|&p| view.localize(p)).collect();
        let weights = vec![0.05f64; net.sinks.len()];
        let req = OracleRequest {
            surface: &view,
            cost: &prices,
            delay: &delays,
            root: view.localize(net.root),
            sinks: &local_sinks,
            weights: &weights,
            budgets: None,
            bif,
            seed: config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
        };
        let tree = oracle.route(&req, &mut ws);
        let ev = tree.evaluate(&prices, &delays, &weights, &bif);
        let nv = out.net(i);
        // owned evaluation ≡ the forest's recorded spans, bitwise
        assert_eq!(nv.sink_delays.len(), ev.sink_delays.len(), "net {i}");
        for (j, (&a, &b)) in nv.sink_delays.iter().zip(&ev.sink_delays).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "net {i} sink {j} delay");
        }
        let owned_edges: Vec<u32> = tree.edges().collect();
        assert_eq!(nv.tree.edges(), &owned_edges[..], "net {i} tree edges");
        assert_eq!(
            nv.wirelength_gcells.to_bits(),
            tree.wirelength(g).to_bits(),
            "net {i} wirelength"
        );
        assert_eq!(nv.vias, tree.via_count(g), "net {i} vias");
        // the view evaluates identically to the owned tree
        let view_ev = nv.tree.evaluate(&prices, &delays, &weights, &bif);
        assert_eq!(view_ev, ev, "net {i} view evaluation");
        for &(e, t) in nv.used_edges {
            usage[e as usize] += t;
        }
    }
    // usage vector reconstructed from owned trees matches bit-for-bit
    assert_eq!(usage.len(), out.usage.len());
    for (e, (&a, &b)) in usage.iter().zip(&out.usage).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "usage[{e}]");
    }
}
