//! The incremental rip-up & re-route contract.
//!
//! Three layers of guarantees, in decreasing strictness:
//!
//! 1. **Exactness at `price_tol = 0`** — incremental mode is
//!    bit-identical to the full-reroute reference (`incremental: false`)
//!    for every oracle, thread count, and window backend: a net is only
//!    skipped when every input its oracle reads is bit-unchanged since
//!    it was last routed, and deterministic oracles reproduce their
//!    trees from identical inputs.
//! 2. **Determinism at any tolerance** — the dirty schedule is derived
//!    from shared per-iteration state, so the default (approximate)
//!    mode is still bit-reproducible across thread counts and backends.
//! 3. **Accounting integrity** — incremental usage (subtract old edges,
//!    add new) matches an exact recount bit-for-bit even after many
//!    rip-up cycles, and periodic recounts are value-neutral.

use cds_instgen::ChipSpec;
use cds_router::{Router, RouterConfig, RoutingOutcome, SteinerMethod};

fn outcome_bit_identical(a: &RoutingOutcome, b: &RoutingOutcome, ctx: &str) {
    assert_eq!(a.metrics.ws.to_bits(), b.metrics.ws.to_bits(), "{ctx}: WS differs");
    assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits(), "{ctx}: TNS differs");
    assert_eq!(a.metrics.ace4.to_bits(), b.metrics.ace4.to_bits(), "{ctx}: ACE4 differs");
    assert_eq!(a.metrics.wl_m.to_bits(), b.metrics.wl_m.to_bits(), "{ctx}: WL differs");
    assert_eq!(a.metrics.vias, b.metrics.vias, "{ctx}: vias differ");
    assert_eq!(a.usage, b.usage, "{ctx}: usage differs");
    assert_eq!(a.prices, b.prices, "{ctx}: prices differ");
    assert_eq!(a.num_nets(), b.num_nets(), "{ctx}: net count differs");
    for (i, (x, y)) in a.nets().zip(b.nets()).enumerate() {
        assert_eq!(x.used_edges, y.used_edges, "{ctx}: net {i} edges differ");
        assert_eq!(x.sink_delays, y.sink_delays, "{ctx}: net {i} delays differ");
        assert_eq!(x.vias, y.vias, "{ctx}: net {i} vias differ");
    }
    for (v, (x, y)) in a.timing.slack.iter().zip(&b.timing.slack).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: slack[{v}] differs");
    }
}

#[test]
fn zero_tol_incremental_bit_identical_to_full_reroute() {
    // all four oracles × 1/4 threads
    let chip = ChipSpec { num_nets: 25, ..ChipSpec::small_test(44) }.generate();
    for method in SteinerMethod::ALL {
        for threads in [1usize, 4] {
            let run = |incremental| {
                Router::new(
                    &chip,
                    RouterConfig {
                        method,
                        threads,
                        incremental,
                        price_tol: 0.0,
                        iterations: 3,
                        ..Default::default()
                    },
                )
                .run()
            };
            let inc = run(true);
            let full = run(false);
            outcome_bit_identical(&inc, &full, &format!("{method} threads={threads}"));
        }
    }
}

#[test]
fn clean_net_skipping_is_exact_when_inputs_freeze() {
    // Freeze the churn sources — price_alpha: 0 pins prices at base
    // cost, a huge weight temperature makes the slack update an exact
    // no-op — so from iteration 2 on, nets without overflow or negative
    // slack are genuinely *clean* and get skipped. At price_tol = 0 the
    // results must still be bit-identical to rerouting everything: a
    // skipped net's inputs are bit-unchanged by construction.
    let chip = ChipSpec { num_nets: 30, ..ChipSpec::small_test(9) }.generate();
    let n = chip.nets.len();
    for method in SteinerMethod::ALL {
        let run = |incremental| {
            Router::new(
                &chip,
                RouterConfig {
                    method,
                    threads: 2,
                    incremental,
                    price_tol: 0.0,
                    price_alpha: 0.0,
                    weight_tau_ps: 1e22,
                    iterations: 4,
                    ..Default::default()
                },
            )
            .run()
        };
        let inc = run(true);
        let full = run(false);
        outcome_bit_identical(&inc, &full, &format!("{method} frozen-input run"));
        // the skip path must actually have been exercised
        let late: usize = inc.stats.rerouted_per_iter[2..].iter().sum();
        assert!(
            late < 2 * n,
            "{method}: no nets were skipped in iterations 2..4: {:?}",
            inc.stats.rerouted_per_iter
        );
        assert_eq!(full.stats.total_rerouted(), 4 * n, "{method}: reference reroutes all");
    }
}

#[test]
fn default_tolerance_deterministic_across_threads() {
    // the approximate default diverges from full reroute by design, but
    // must stay bit-reproducible: the schedule is a pure function of
    // shared per-iteration state
    let chip = ChipSpec { num_nets: 40, ..ChipSpec::small_test(17) }.generate();
    let run = |threads| {
        Router::new(&chip, RouterConfig { threads, iterations: 4, ..Default::default() }).run()
    };
    let base = run(1);
    assert!(base.stats.total_rerouted() > 0);
    let other = run(4);
    outcome_bit_identical(&base, &other, "threads=4");
    assert_eq!(base.stats, other.stats, "schedule differs for threads=4");
}

#[test]
fn incremental_usage_matches_exact_recount_after_many_ripups() {
    // 8 iterations of subtract/add cycles with recounting disabled must
    // still reproduce the exact per-edge sums (track counts are
    // integer-valued, so the arithmetic is exact — this pins it)
    let chip = ChipSpec { num_nets: 120, ..ChipSpec::small_test(7) }.generate();
    let run = |recount_every| {
        Router::new(
            &chip,
            RouterConfig { iterations: 8, threads: 4, recount_every, ..Default::default() },
        )
        .run()
    };
    let out = run(0);
    assert_eq!(out.stats.usage_recounts, 0, "recount_every: 0 disables recounts");
    let mut recount = vec![0.0f64; out.usage.len()];
    for rn in out.nets() {
        for &(e, t) in rn.used_edges {
            recount[e as usize] += t;
        }
    }
    for (e, (&r, &u)) in recount.iter().zip(&out.usage).enumerate() {
        assert_eq!(r.to_bits(), u.to_bits(), "edge {e}: incremental {u} vs recount {r}");
    }
    // periodic recounts are value-neutral: same results, every iteration
    let every = run(1);
    assert!(every.stats.usage_recounts > 0);
    outcome_bit_identical(&out, &every, "recount_every 0 vs 1");
}

#[test]
fn returned_prices_are_consistent_with_returned_usage() {
    // Regression: `RoutingOutcome::prices` used to be the stale vector
    // the last iteration routed on (derived from the *previous*
    // iteration's usage history). It must now be the vector implied by
    // the final usage — for a 1-iteration run, where the history equals
    // the usage, that is directly recomputable here.
    let chip = ChipSpec { num_nets: 40, ..ChipSpec::small_test(3) }.generate();
    let out = Router::new(&chip, RouterConfig { iterations: 1, ..Default::default() }).run();
    let g = chip.grid.graph();
    let base = g.base_costs();
    let mut used_edges = 0;
    // e indexes four parallel per-edge arrays
    #[allow(clippy::needless_range_loop)]
    for e in 0..g.num_edges() {
        let cap = g.edge(e as u32).capacity.max(1e-9);
        let want = base[e] * (1.0 * out.usage[e] / cap).min(6.0).exp();
        assert_eq!(
            out.prices[e].to_bits(),
            want.to_bits(),
            "edge {e}: price {} not implied by usage {}",
            out.prices[e],
            out.usage[e]
        );
        if out.usage[e] > 0.0 {
            used_edges += 1;
            assert!(out.prices[e] > base[e], "used edge {e} still at base price");
        }
    }
    assert!(used_edges > 0, "test chip routed nothing");
}

/// Reconstructs the router's timing-node numbering: nodes are assigned
/// in net order, root first, then sinks.
fn sink_nodes(chip: &cds_instgen::Chip) -> Vec<Vec<usize>> {
    let mut count = 0usize;
    chip.nets
        .iter()
        .map(|net| {
            count += 1; // root
            let s: Vec<usize> = (0..net.sinks.len()).map(|j| count + j).collect();
            count += net.sinks.len();
            s
        })
        .collect()
}

#[test]
fn harvest_captures_the_weights_and_budgets_the_final_iteration_routed_with() {
    // Regression: harvest used to snapshot *after* the final slack
    // update, returning weights the router never routed with.
    let chip = ChipSpec { num_nets: 60, ..ChipSpec::small_test(321) }.generate();

    // one iteration: the only weights ever routed are the initial 0.05,
    // and no budgets exist yet
    let one =
        Router::new(&chip, RouterConfig { iterations: 1, harvest: true, ..Default::default() })
            .run();
    assert!(!one.harvest.is_empty());
    for h in &one.harvest {
        assert!(h.weights.iter().all(|w| *w == 0.05), "net {}: {:?}", h.net, h.weights);
        assert!(h.budgets.is_empty(), "net {}: budgets existed before any STA", h.net);
    }

    // two full-reroute iterations: the final iteration routes every net
    // with the weights and budgets produced by iteration 0's closing
    // update, which are recomputable from the 1-iteration run's public
    // outputs
    let two = Router::new(
        &chip,
        RouterConfig { iterations: 2, harvest: true, incremental: false, ..Default::default() },
    )
    .run();
    let nodes = sink_nodes(&chip);
    let tau = RouterConfig::default().weight_tau_ps;
    let min_delay = chip.grid.min_delay_per_gcell();
    let via_delay = chip.grid.spec().via_delay;
    let expect = |h: &cds_router::HarvestedInstance, j: usize| -> (f64, f64) {
        let net = &chip.nets[h.net];
        let slack = one.timing.slack[nodes[h.net][j]];
        let w =
            if slack.is_finite() { (0.05 * (-slack / tau).exp()).clamp(1e-3, 2.0) } else { 0.05 };
        let direct = net.root.l1(net.sinks[j]) as f64 * min_delay + 2.0 * via_delay;
        let achieved = one.net(h.net).sink_delays[j];
        let allowed = if slack.is_finite() { achieved + slack } else { f64::MAX / 4.0 };
        (w, allowed.max(direct))
    };
    for h in &two.harvest {
        let net = &chip.nets[h.net];
        assert_eq!(h.weights.len(), net.sinks.len());
        assert_eq!(h.budgets.len(), net.sinks.len());
        for j in 0..net.sinks.len() {
            let (want_w, want_b) = expect(h, j);
            assert_eq!(
                h.weights[j].to_bits(),
                want_w.to_bits(),
                "net {} sink {j}: weight {} vs expected {want_w}",
                h.net,
                h.weights[j]
            );
            assert_eq!(
                h.budgets[j].to_bits(),
                want_b.to_bits(),
                "net {} sink {j}: budget {} vs expected {want_b}",
                h.net,
                h.budgets[j]
            );
        }
    }

    // incremental mode: harvest reports the inputs of whichever
    // iteration produced the *kept* route — nets ripped up in the final
    // iteration carry the updated weights, clean nets keep iteration
    // 0's initial 0.05 (and its empty budgets)
    let inc =
        Router::new(&chip, RouterConfig { iterations: 2, harvest: true, ..Default::default() })
            .run();
    let (mut kept, mut ripped) = (0usize, 0usize);
    for h in &inc.harvest {
        let net = &chip.nets[h.net];
        let initial = h.weights.iter().all(|w| *w == 0.05) && h.budgets.is_empty();
        if initial {
            kept += 1;
            continue;
        }
        ripped += 1;
        for j in 0..net.sinks.len() {
            let (want_w, want_b) = expect(h, j);
            assert_eq!(
                h.weights[j].to_bits(),
                want_w.to_bits(),
                "net {} sink {j}: rerouted-net weight {} vs expected {want_w}",
                h.net,
                h.weights[j]
            );
            assert_eq!(h.budgets[j].to_bits(), want_b.to_bits(), "net {} sink {j}", h.net);
        }
    }
    assert!(ripped > 0, "no harvested net was ripped up in the final iteration");
    assert!(kept > 0, "no harvested net kept its iteration-0 route (scheduler skipped nothing)");
}

#[test]
fn scheduler_reroutes_under_half_after_the_first_iteration() {
    // the workload the `incremental` bench measures: a converging chip
    // (utilization below the hard-congestion regime)
    let chip = ChipSpec { num_nets: 150, utilization: 0.22, ..ChipSpec::small_test(5) }.generate();
    let out =
        Router::new(&chip, RouterConfig { iterations: 6, threads: 4, ..Default::default() }).run();
    let per = &out.stats.rerouted_per_iter;
    assert_eq!(per[0], chip.nets.len(), "first iteration is a full sweep");
    let after_first: usize = per[1..].iter().sum();
    let budget = chip.nets.len() * (per.len() - 1);
    assert!(
        2 * after_first < budget,
        "rerouted {after_first} of {budget} net-iterations after iteration 1: {per:?}"
    );
}
