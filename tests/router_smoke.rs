//! Integration smoke tests of the full timing-constrained router.

use cds_instgen::ChipSpec;
use cds_router::{
    OracleRequest, OracleWorkspace, Router, RouterConfig, SteinerMethod, SteinerOracle,
};
use cds_topo::EmbeddedTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tiny() -> cds_instgen::Chip {
    ChipSpec { num_nets: 50, ..ChipSpec::small_test(321) }.generate()
}

/// A third-party oracle: delegates to CD but counts every call — proof
/// that the router is open to implementations it has never heard of.
struct CountingOracle {
    calls: Arc<AtomicUsize>,
}

impl SteinerOracle for CountingOracle {
    fn name(&self) -> &str {
        "CD+count"
    }
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        self.calls.fetch_add(1, Ordering::Relaxed);
        SteinerMethod::Cd.oracle().route(req, ws)
    }
}

#[test]
fn custom_oracle_plugs_into_router() {
    let chip = tiny();
    let iterations = 2;
    // full-reroute reference: the wrapper must be routed through for
    // every net in every iteration
    let config = RouterConfig { iterations, incremental: false, ..Default::default() };
    let baseline = Router::new(&chip, config.clone()).run();
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = Box::new(CountingOracle { calls: calls.clone() });
    let router = Router::with_oracle(&chip, config, counting);
    assert_eq!(router.oracle().name(), "CD+count");
    let out = router.run();
    // (route() is only reachable via the trait object we installed)…
    assert_eq!(calls.load(Ordering::Relaxed), chip.nets.len() * iterations);
    assert_eq!(out.stats.total_rerouted(), chip.nets.len() * iterations);
    assert_eq!(out.num_nets(), chip.nets.len());
    // …and produces exactly the stock CD results, since it delegates
    assert_eq!(out.metrics.tns.to_bits(), baseline.metrics.tns.to_bits());
    assert_eq!(out.usage, baseline.usage);
}

#[test]
fn oracle_calls_match_scheduler_stats_in_incremental_mode() {
    // the dirty-net scheduler's stats are the ground truth for how many
    // oracle calls actually happened
    let chip = tiny();
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = Box::new(CountingOracle { calls: calls.clone() });
    let config = RouterConfig { iterations: 4, ..Default::default() };
    assert!(config.incremental, "incremental mode is the default");
    let out = Router::with_oracle(&chip, config, counting).run();
    assert_eq!(calls.load(Ordering::Relaxed), out.stats.total_rerouted());
    assert_eq!(out.stats.rerouted_per_iter.len(), 4);
    assert_eq!(out.stats.rerouted_per_iter[0], chip.nets.len(), "first iteration routes all");
    // the wrapper delegates to CD but reports uses_budgets = true (the
    // conservative default), so its schedule may only be a superset of
    // stock CD's — still, it must skip something on a 4-iteration run
    assert!(
        out.stats.total_rerouted() < chip.nets.len() * 4,
        "scheduler never skipped a net: {:?}",
        out.stats.rerouted_per_iter
    );
}

#[test]
fn full_pipeline_smoke_every_method() {
    let chip = tiny();
    for m in SteinerMethod::ALL {
        let out = Router::new(
            &chip,
            RouterConfig { method: m, iterations: 2, use_dbif: true, ..Default::default() },
        )
        .run();
        assert_eq!(out.num_nets(), chip.nets.len(), "{m}");
        assert!(out.metrics.wl_m > 0.0);
        assert!(out.metrics.vias > 0);
        assert!(out.metrics.ws <= 0.0 || out.metrics.tns == 0.0);
        // usage is consistent with per-net edges
        let total_usage: f64 = out.usage.iter().sum();
        let from_nets: f64 = out.nets().flat_map(|n| n.used_edges.iter().map(|&(_, t)| t)).sum();
        assert!((total_usage - from_nets).abs() < 1e-9);
    }
}

#[test]
fn harvested_instances_replay_identically() {
    let chip = tiny();
    let router =
        Router::new(&chip, RouterConfig { iterations: 2, harvest: true, ..Default::default() });
    let out = router.run();
    let bif = router.bif();
    let replay = |net: usize, weights: &[f64]| {
        let (oracle, ws) = (SteinerMethod::Cd.oracle(), &mut OracleWorkspace::new());
        router.route_one_with(net, oracle, &out.prices, weights, None, bif, ws)
    };
    for h in out.harvest.iter().take(5) {
        let a = replay(h.net, &h.weights);
        let b = replay(h.net, &h.weights);
        assert_eq!(a.1, b.1, "objective must replay deterministically");
        assert_eq!(a.0.used_edges, b.0.used_edges);
    }
}

#[test]
fn dbif_increases_delays() {
    // the bifurcation penalty can only make delays (weakly) worse
    let chip = tiny();
    let run = |use_dbif| {
        Router::new(&chip, RouterConfig { iterations: 2, use_dbif, ..Default::default() }).run()
    };
    let without = run(false);
    let with = run(true);
    let sum = |o: &cds_router::RoutingOutcome| -> f64 {
        o.nets().flat_map(|n| n.sink_delays.iter()).sum()
    };
    assert!(sum(&with) >= sum(&without) - 1e-6, "penalties cannot reduce total delay");
}

#[test]
fn timing_graph_slacks_respond_to_routing() {
    let chip = tiny();
    let out = Router::new(&chip, RouterConfig { iterations: 2, ..Default::default() }).run();
    // at least one endpoint has finite slack and the report is coherent
    let finite = out.timing.slack.iter().filter(|s| s.is_finite()).count();
    assert!(finite > 0, "no constrained endpoints?");
    assert!(
        out.metrics.ws <= out.timing.slack.iter().cloned().fold(f64::INFINITY, f64::min) + 1e-9
    );
}
