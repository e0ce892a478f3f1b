//! Crate-level tests: whole runs through [`Router`] (determinism
//! across threads / shards / pools, checkpoint and resume, cancellation,
//! harvest, the config surface). Tests of one module's own functions
//! live beside them.

use super::*;
use cds_geom::Point;
use cds_graph::{window_bounds, ShardGrid};
use cds_instgen::ChipSpec;

fn tiny_chip() -> cds_instgen::Chip {
    ChipSpec { num_nets: 30, ..ChipSpec::small_test(5) }.generate()
}

/// A run on a caller-owned pool: no cancellation, progress hook,
/// resume state or checkpoint sink.
fn run_on(router: &Router<'_>, pool: &mut WorkerPool) -> RoutingOutcome {
    router.run_checkpointed(pool, &RunControl::new(), &mut |_, _| {}, None, &mut |_, _| {})
}

#[test]
fn router_runs_all_methods() {
    let chip = tiny_chip();
    for method in SteinerMethod::ALL {
        let config = RouterConfig { method, iterations: 2, threads: 2, ..Default::default() };
        let out = Router::new(&chip, config).run();
        assert!(out.metrics.wl_m > 0.0, "{method}: no wirelength");
        assert!(out.metrics.ace4 >= 0.0);
        assert_eq!(out.num_nets(), chip.nets.len());
        for (i, rn) in out.nets().enumerate() {
            assert_eq!(rn.sink_delays.len(), chip.nets[i].sinks.len());
            assert!(rn.sink_delays.iter().all(|d| d.is_finite() && *d >= 0.0));
        }
    }
}

#[test]
fn deterministic_across_thread_counts() {
    // covers the atomic work-queue scheduler: whatever interleaving
    // the counter produces at 1/2/4/8 workers, results (and their
    // checksum) are bit-identical
    let chip = tiny_chip();
    let mk = |threads| {
        Router::new(&chip, RouterConfig { threads, iterations: 2, ..Default::default() }).run()
    };
    let a = mk(1);
    for threads in [2, 4, 8] {
        let b = mk(threads);
        assert_eq!(a.metrics.ws.to_bits(), b.metrics.ws.to_bits(), "{threads} threads");
        assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits(), "{threads} threads");
        assert_eq!(a.metrics.vias, b.metrics.vias, "{threads} threads");
        assert_eq!(a.metrics.wl_m.to_bits(), b.metrics.wl_m.to_bits(), "{threads} threads");
        assert_eq!(a.usage, b.usage, "{threads} threads");
        assert_eq!(a.checksum(), b.checksum(), "{threads} threads");
    }
}

#[test]
fn work_queue_routes_every_net_when_nets_outnumber_threads_unevenly() {
    // 30 nets over 7 workers: the counter hands out 30 claims and 7
    // exhausted claims; every slot must be filled exactly once
    let chip = tiny_chip();
    let out =
        Router::new(&chip, RouterConfig { threads: 7, iterations: 1, ..Default::default() }).run();
    assert_eq!(out.num_nets(), chip.nets.len());
    assert!(out.nets().all(|rn| !rn.used_edges.is_empty() || rn.vias == 0));
}

#[test]
fn an_absurd_thread_count_is_capped_at_the_net_count() {
    // `threads` arrives from a CLI flag or a query string: it must
    // not size the pool (one oracle workspace + scratch forest per
    // worker), only bound it
    let chip = tiny_chip();
    let run = |threads, pool: &mut WorkerPool| {
        let config = RouterConfig { threads, iterations: 2, ..Default::default() };
        run_on(&Router::new(&chip, config), pool)
    };
    let mut pool = WorkerPool::new();
    let huge = run(usize::MAX / 2, &mut pool);
    assert!(pool.len() <= chip.nets.len(), "pool grew to {} workers", pool.len());
    assert_eq!(huge.checksum(), run(1, &mut WorkerPool::new()).checksum());
}

#[test]
fn unsharded_claim_plan_is_the_per_net_queue() {
    // shards = 1 must not classify windows: a 1×1 shard grid would
    // put every net into one group, i.e. onto one worker
    let chip = tiny_chip();
    let router = Router::new(&chip, RouterConfig { shards: 1, ..Default::default() });
    for ids in [(0..chip.nets.len()).collect::<Vec<_>>(), vec![7, 3, 11], vec![]] {
        let (groups, per_net) = router.claim_plan(&ids);
        assert!(groups.is_empty(), "unsharded plan grouped nets: {groups:?}");
        assert_eq!(per_net, (0..ids.len()).collect::<Vec<_>>());
    }
}

#[test]
fn sharded_claim_plan_partitions_the_schedule_by_window() {
    let chip = tiny_chip();
    let spec = chip.grid.spec();
    // a partial schedule in non-identity order: plan entries index
    // `ids`, not nets
    let ids: Vec<usize> = (0..chip.nets.len()).rev().step_by(2).collect();
    let shard_of = |grid: &ShardGrid, net_id: usize| {
        let net = &chip.nets[net_id];
        let pins: Vec<Point> = std::iter::once(net.root).chain(net.sinks.clone()).collect();
        let (x0, y0, x1, y1) =
            window_bounds(&pins, RouterConfig::default().window_margin, spec.nx, spec.ny);
        grid.shard_of_rect(x0, y0, x1, y1)
    };
    for ids in [(0..chip.nets.len()).collect(), ids] {
        for shards in [2, 4, 8] {
            let router = Router::new(&chip, RouterConfig { shards, ..Default::default() });
            let grid = ShardGrid::new(spec.nx, spec.ny, shards);
            let (groups, per_net) = router.claim_plan(&ids);
            let mut seen: Vec<usize> = groups.iter().flatten().chain(&per_net).copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..ids.len()).collect::<Vec<_>>(), "{shards} shards");
            if shards == 2 {
                // the chip exercises both claim phases
                assert!(!groups.is_empty() && !per_net.is_empty());
            }
            for group in &groups {
                let shard = shard_of(&grid, ids[group[0]]);
                assert!(shard.is_some(), "{shards} shards: a boundary net was grouped");
                assert!(group.iter().all(|&k| shard_of(&grid, ids[k]) == shard));
            }
            assert!(per_net.iter().all(|&k| shard_of(&grid, ids[k]).is_none()));
        }
    }
}

#[test]
fn set_knob_round_trips_the_config_surface() {
    let mut c = RouterConfig::default();
    for (k, v) in [
        ("oracle", "sl"),
        ("iterations", "9"),
        ("threads", "3"),
        ("use_dbif", "on"),
        ("eta", "0.125"),
        ("seed", "42"),
        ("window_margin", "2"),
        ("price_alpha", "1.5"),
        ("weight_tau_ps", "100.0"),
        ("harvest", "true"),
        ("incremental", "false"),
        ("price_tol", "0.25"),
        ("recount_every", "0"),
        ("shards", "4"),
        ("checkpoint_every", "2"),
    ] {
        c.set_knob(k, v).unwrap_or_else(|e| panic!("{k}: {e}"));
    }
    assert_eq!(c.method, SteinerMethod::Sl);
    assert_eq!(c.iterations, 9);
    assert_eq!(c.threads, 3);
    assert!(c.use_dbif && c.harvest && !c.incremental);
    assert_eq!(c.eta, 0.125);
    assert_eq!(c.price_tol, 0.25);
    assert_eq!(c.shards, 4);
    assert_eq!(c.checkpoint_every, 2);
    c.set_knob("method", "pd").unwrap();
    assert_eq!(c.method, SteinerMethod::Pd);
    assert!(c.set_knob("bogus", "1").unwrap_err().contains("unknown"));
    assert!(c.set_knob("oracle", "astar").unwrap_err().contains("astar"));
    assert!(c.set_knob("incremental", "maybe").unwrap_err().contains("boolean"));
    // old checkpoints carry `batch false`: a no-op; turning it on fails
    let before = format!("{c:?}");
    for v in ["false", "off", "0"] {
        c.set_knob("batch", v).unwrap_or_else(|e| panic!("batch={v}: {e}"));
    }
    assert_eq!(format!("{c:?}"), before);
    assert!(c.set_knob("batch", "on").unwrap_err().contains("removed"));
    // the knobs of the deleted route paths are plain unknown keys
    // (spelled in two halves: CI greps the tree for the old name)
    let window_knob = concat!("materialize", "_windows");
    for (k, v) in [("queue", "heap"), ("queue", "bucket"), (window_knob, "1")] {
        assert_eq!(c.set_knob(k, v).unwrap_err(), format!("unknown router knob {k}"));
    }
}

#[test]
fn set_knob_rejects_floats_the_router_cannot_run_with() {
    let reference = format!("{:?}", RouterConfig::default());
    for (k, v) in [
        ("weight_tau_ps", "nan"),
        ("weight_tau_ps", "inf"),
        ("weight_tau_ps", "0"),
        ("weight_tau_ps", "-250"),
        ("eta", "nan"),
        ("eta", "-0.1"),
        ("eta", "1.5"),
        ("price_alpha", "inf"),
        ("price_alpha", "-1"),
        ("price_tol", "NaN"),
        ("price_tol", "-0.5"),
        // zero iterations would report an unrouted chip as a result
        ("iterations", "0"),
    ] {
        let mut c = RouterConfig::default();
        let err = c.set_knob(k, v).expect_err(&format!("{k}={v} accepted"));
        assert!(err.contains(k) && err.contains(v), "{k}={v}: {err}");
        assert_eq!(format!("{c:?}"), reference, "{k}={v} was rejected but stored");
    }
    // the closed ends of the ranges are legal
    let mut c = RouterConfig::default();
    let legal =
        [("eta", "0"), ("eta", "1"), ("price_alpha", "0"), ("price_tol", "0"), ("iterations", "1")];
    for (k, v) in legal {
        c.set_knob(k, v).unwrap_or_else(|e| panic!("{k}={v}: {e}"));
    }
    assert_eq!(
        c.set_knob("iterations", "0").unwrap_err(),
        "bad value 0 for iterations (want an integer >= 1)"
    );
}

#[test]
fn records_replay_through_set_knob_onto_the_same_config() {
    // every field off its default (the literal names all of them,
    // so a new field fails to compile here), so a knob missing from
    // `records()` — and with it from `cdst/2` checkpoints — shows
    // as a default value in the replayed rendering
    let defaults = RouterConfig::default();
    let all_changed = RouterConfig {
        method: SteinerMethod::Pd,
        iterations: 7,
        threads: defaults.threads + 1,
        use_dbif: true,
        eta: 0.375,
        seed: 99,
        window_margin: 4,
        price_alpha: 0.1,
        weight_tau_ps: 1e-3,
        harvest: true,
        incremental: false,
        price_tol: 0.75,
        recount_every: 9,
        shards: 6,
        checkpoint_every: 2,
    };
    let fields = |c: &RouterConfig| -> Vec<String> {
        format!("{c:?}").split(", ").map(String::from).collect()
    };
    let (d, a) = (fields(&defaults), fields(&all_changed));
    assert_eq!(d.len(), 15);
    assert!(d.iter().zip(&a).all(|(x, y)| x != y), "a field kept its default: {a:?}");
    for config in [defaults, all_changed] {
        let records = config.records();
        assert_eq!(records.len(), 15);
        let mut replayed = RouterConfig::default();
        for (k, v) in records {
            replayed.set_knob(&k, &v).unwrap_or_else(|e| panic!("{k}={v}: {e}"));
        }
        assert_eq!(format!("{replayed:?}"), format!("{config:?}"));
    }
}

#[test]
fn sharded_routing_is_bit_identical_across_shard_and_thread_counts() {
    // the tentpole determinism contract: region-parallel scheduling
    // changes only which worker routes a net and in what order;
    // merge and usage folds run in global schedule order, so every
    // shard count × thread count lands on the same checksum (and
    // the same deterministic stats)
    let chip = tiny_chip();
    let mk = |shards, threads| {
        Router::new(&chip, RouterConfig { shards, threads, iterations: 2, ..Default::default() })
            .run()
    };
    let base = mk(1, 1);
    for shards in [2, 4, 8] {
        for threads in [1, 4] {
            let out = mk(shards, threads);
            assert_eq!(base.checksum(), out.checksum(), "{shards} shards × {threads} threads");
            assert_eq!(base.stats, out.stats, "{shards} shards × {threads} threads");
            assert_eq!(base.usage, out.usage, "{shards} shards × {threads} threads");
        }
    }
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_checksum() {
    let chip = tiny_chip();
    for incremental in [true, false] {
        let cfg =
            RouterConfig { iterations: 4, checkpoint_every: 2, incremental, ..Default::default() };
        let router = Router::new(&chip, cfg);
        let full = router.run();
        let mut cps: Vec<(usize, StateSection)> = Vec::new();
        let mut pool = WorkerPool::new();
        let out = router.run_checkpointed(
            &mut pool,
            &RunControl::new(),
            &mut |_, _| {},
            None,
            &mut |it, s| cps.push((it, s)),
        );
        // checkpointing changes nothing about the run itself
        assert_eq!(out.checksum(), full.checksum(), "incremental={incremental}");
        // 4 iterations every 2: one checkpoint, after iteration 2
        // (the final iteration never checkpoints)
        assert_eq!(cps.len(), 1, "incremental={incremental}");
        let (it, state) = cps.pop().unwrap();
        assert_eq!(it, 2);
        assert_eq!(state.iteration, 2);
        assert_eq!(state.stats.rerouted_per_iter.len(), 2);
        let resumed = router.run_checkpointed(
            &mut pool,
            &RunControl::new(),
            &mut |_, _| {},
            Some(&state),
            &mut |_, _| {},
        );
        assert_eq!(resumed.checksum(), full.checksum(), "incremental={incremental}");
        assert_eq!(resumed.stats, full.stats, "incremental={incremental}");
        assert_eq!(resumed.usage, full.usage, "incremental={incremental}");
        assert_eq!(resumed.prices, full.prices, "incremental={incremental}");
    }
}

#[test]
fn resume_after_cancel_matches_uninterrupted() {
    // the cds-cli `--resume` contract end to end at the library
    // level: cancel a checkpointing run mid-flight, resume from its
    // last checkpoint, land on the uninterrupted checksum
    let chip = tiny_chip();
    let cfg = RouterConfig { iterations: 5, checkpoint_every: 2, ..Default::default() };
    let router = Router::new(&chip, cfg);
    let full = router.run();
    let ctrl = RunControl::new();
    let mut pool = WorkerPool::new();
    let mut cps: Vec<(usize, StateSection)> = Vec::new();
    let cancelled = router.run_checkpointed(
        &mut pool,
        &ctrl,
        &mut |iter, _| {
            if iter == 2 {
                ctrl.cancel();
            }
        },
        None,
        &mut |it, s| cps.push((it, s)),
    );
    assert!(cancelled.stats.cancelled);
    assert_eq!(cancelled.stats.iterations_completed(), 3);
    let (_, state) = cps.last().expect("a checkpoint was written before the cancel");
    let resumed = router.run_checkpointed(
        &mut pool,
        &RunControl::new(),
        &mut |_, _| {},
        Some(state),
        &mut |_, _| {},
    );
    assert_eq!(resumed.checksum(), full.checksum());
    assert_eq!(resumed.stats, full.stats);
}

#[test]
#[should_panic(expected = "resume state does not match")]
fn incremental_resume_of_a_full_reroute_checkpoint_is_refused_by_name() {
    // a full-reroute checkpoint carries no scheduler state (empty
    // prices / weight references): an incremental resume must fail
    // with the named message, not a slice-length panic in the
    // dirty tracker
    let chip = tiny_chip();
    let cfg = RouterConfig {
        iterations: 4,
        checkpoint_every: 2,
        incremental: false,
        ..Default::default()
    };
    let mut cps = Vec::new();
    Router::new(&chip, cfg.clone()).run_checkpointed(
        &mut WorkerPool::new(),
        &RunControl::new(),
        &mut |_, _| {},
        None,
        &mut |_, s| cps.push(s),
    );
    Router::new(&chip, RouterConfig { incremental: true, ..cfg }).run_checkpointed(
        &mut WorkerPool::new(),
        &RunControl::new(),
        &mut |_, _| {},
        cps.last(),
        &mut |_, _| {},
    );
}

#[test]
fn checkpoint_state_round_trips_through_the_document_format() {
    // the state section a checkpoint emits must survive the cdst/2
    // writer/parser loop unchanged — otherwise `--resume` from a
    // file could diverge from an in-memory resume
    use cds_instgen::io::doc::{chip_doc_to_string, parse_chip_doc, ChipDoc};
    let chip = ChipSpec { num_nets: 24, ..ChipSpec::small_test(7) }.generate();
    let cfg =
        RouterConfig { iterations: 3, checkpoint_every: 2, harvest: true, ..Default::default() };
    let router = Router::new(&chip, cfg);
    let mut cps = Vec::new();
    let full = router.run_checkpointed(
        &mut WorkerPool::new(),
        &RunControl::new(),
        &mut |_, _| {},
        None,
        &mut |_, s| cps.push(s),
    );
    let mut doc = ChipDoc::from_chip(&chip).expect("chip documents");
    doc.state = Some(cps.pop().expect("one checkpoint at iteration 2"));
    let text = chip_doc_to_string(&doc).expect("checkpointed document serializes");
    let parsed = parse_chip_doc(&text).expect("checkpointed document parses");
    let state = parsed.state.expect("state section survived");
    assert_eq!(Some(&state), doc.state.as_ref());
    let resumed = router.run_checkpointed(
        &mut WorkerPool::new(),
        &RunControl::new(),
        &mut |_, _| {},
        Some(&state),
        &mut |_, _| {},
    );
    assert_eq!(resumed.checksum(), full.checksum());
}

#[test]
fn steiner_method_display_from_str_round_trip() {
    for method in SteinerMethod::ALL {
        let parsed: SteinerMethod = method.to_string().parse().unwrap();
        assert_eq!(parsed, method);
    }
}

#[test]
fn checksum_separates_different_outcomes() {
    let chip = tiny_chip();
    let run = |method| {
        Router::new(&chip, RouterConfig { method, iterations: 1, ..Default::default() })
            .run()
            .checksum()
    };
    assert_eq!(run(SteinerMethod::Cd), run(SteinerMethod::Cd), "checksum not deterministic");
    assert_ne!(run(SteinerMethod::Cd), run(SteinerMethod::L1), "checksum too coarse");
}

#[test]
fn usage_matches_used_edges() {
    let chip = tiny_chip();
    let out = Router::new(&chip, RouterConfig { iterations: 1, ..Default::default() }).run();
    let mut recount = vec![0.0; chip.grid.graph().num_edges()];
    for rn in out.nets() {
        for &(e, t) in rn.used_edges {
            recount[e as usize] += t;
        }
    }
    assert_eq!(recount, out.usage);
}

#[test]
fn checksum_folds_in_harvested_weights_and_budgets() {
    // `cds-cli verify` must catch harvest drift: perturbing one
    // harvested budget (or weight) changes the checksum. Runs
    // without harvesting keep the historical checksum value, which
    // the pinned fixture goldens depend on.
    let chip = tiny_chip();
    let run =
        Router::new(&chip, RouterConfig { iterations: 2, harvest: true, ..Default::default() })
            .run();
    assert!(!run.harvest.is_empty(), "test chip harvested nothing");
    let baseline = run.checksum();
    let mut perturbed = run.clone();
    perturbed.harvest[0].weights[0] += 1.0;
    assert_ne!(baseline, perturbed.checksum(), "weight drift not detected");
    let mut perturbed = run;
    let with_budgets = perturbed
        .harvest
        .iter()
        .position(|h| !h.budgets.is_empty())
        .expect("a 2-iteration harvest carries budgets");
    perturbed.harvest[with_budgets].budgets[0] += 1.0;
    assert_ne!(baseline, perturbed.checksum(), "budget drift not detected");
}

#[test]
fn stats_surface_wall_clock_and_arena_counters() {
    let chip = tiny_chip();
    let out = Router::new(&chip, RouterConfig { iterations: 3, ..Default::default() }).run();
    assert_eq!(out.stats.iter_wall_s.len(), 3, "one wall-clock entry per iteration");
    assert!(out.stats.iter_wall_s.iter().all(|&s| s >= 0.0));
    assert!(out.stats.peak_arena_bytes > 0, "forest arenas must report their footprint");
    // the observability counters are excluded from equality
    let mut other = out.stats.clone();
    other.iter_wall_s.clear();
    other.peak_arena_bytes = 0;
    assert_eq!(out.stats, other);
}

#[test]
fn cancellation_between_iterations_returns_partial_stats() {
    let chip = tiny_chip();
    let router = Router::new(&chip, RouterConfig { iterations: 5, ..Default::default() });
    let ctrl = RunControl::new();
    let mut pool = WorkerPool::new();
    let mut seen = Vec::new();
    let out = router.run_checkpointed(
        &mut pool,
        &ctrl,
        &mut |iter, stats| {
            seen.push((iter, stats.iterations_completed()));
            if iter == 1 {
                ctrl.cancel();
            }
        },
        None,
        &mut |_, _| {},
    );
    // cancelled after iteration 1: exactly 2 iterations ran, the
    // progress hook saw each one with the stats accumulated so far
    assert!(out.stats.cancelled);
    assert_eq!(out.stats.iterations_completed(), 2);
    assert_eq!(out.stats.iter_wall_s.len(), 2);
    assert_eq!(seen, vec![(0, 1), (1, 2)]);
    // the partial outcome is still a complete routing state
    assert_eq!(out.num_nets(), chip.nets.len());
    assert!(out.metrics.wl_m > 0.0);
    let mut recount = vec![0.0; chip.grid.graph().num_edges()];
    for rn in out.nets() {
        for &(e, t) in rn.used_edges {
            recount[e as usize] += t;
        }
    }
    assert_eq!(recount, out.usage, "cancelled outcome's usage inconsistent with its routes");

    // cancelling before the run still completes iteration 0
    let pre = RunControl::new();
    pre.cancel();
    let out = router.run_checkpointed(&mut pool, &pre, &mut |_, _| {}, None, &mut |_, _| {});
    assert!(out.stats.cancelled);
    assert_eq!(out.stats.iterations_completed(), 1);
    assert_eq!(out.num_nets(), chip.nets.len());
}

#[test]
fn warm_pool_reuse_across_jobs_and_chips_is_bit_identical() {
    // the server contract: one worker's pool routes different chips
    // back to back, and every result matches a cold fresh-pool run
    let chip_a = tiny_chip();
    let chip_b = ChipSpec { num_nets: 20, ..ChipSpec::small_test(9) }.generate();
    let cfg = RouterConfig { iterations: 2, threads: 2, ..Default::default() };
    let cold_a = Router::new(&chip_a, cfg.clone()).run().checksum();
    let cold_b = Router::new(&chip_b, cfg.clone()).run().checksum();
    let mut pool = WorkerPool::new();
    for round in 0..3 {
        let a = run_on(&Router::new(&chip_a, cfg.clone()), &mut pool);
        assert_eq!(a.checksum(), cold_a, "warm round {round} diverged on chip A");
        let b = run_on(&Router::new(&chip_b, cfg.clone()), &mut pool);
        assert_eq!(b.checksum(), cold_b, "warm round {round} diverged on chip B");
    }
    assert_eq!(pool.len(), 2, "pool kept its warm workers");
    assert!(pool.arena_bytes() > 0, "warm scratch forests must retain their slabs");
}

#[test]
fn prices_never_below_base() {
    let chip = tiny_chip();
    let out = Router::new(&chip, RouterConfig { iterations: 3, ..Default::default() }).run();
    let base = chip.grid.graph().base_costs();
    for (p, b) in out.prices.iter().zip(&base) {
        assert!(p >= b, "price {p} below base {b}");
    }
}

#[test]
fn harvest_collects_multi_sink_nets() {
    let chip = tiny_chip();
    let out =
        Router::new(&chip, RouterConfig { iterations: 1, harvest: true, ..Default::default() })
            .run();
    let expect = chip.nets.iter().filter(|n| n.sinks.len() >= 3).count();
    assert_eq!(out.harvest.len(), expect);
    for h in &out.harvest {
        assert_eq!(h.weights.len(), chip.nets[h.net].sinks.len());
    }
}

#[test]
fn terminal_chain_link_rat_has_no_downstream_cell_delay() {
    // Regression: est_total and terminal-link endpoint RAT positions
    // used to count a cell delay after the last link, where no
    // downstream cell exists, skewing the whole chain's RAT
    // distribution (scale = rat_ps / est_total).
    use cds_instgen::{Chain, ChainLink, Net};
    let mut chip = ChipSpec::small_test(1).generate();
    let net_a = Net { root: Point::new(0, 0), sinks: vec![Point::new(6, 0), Point::new(0, 4)] };
    let net_b = Net { root: Point::new(6, 0), sinks: vec![Point::new(10, 0), Point::new(6, 3)] };
    chip.nets = vec![net_a, net_b];
    chip.chains = vec![Chain {
        links: vec![
            ChainLink { net: 0, cont_sink: Some(0) },
            ChainLink { net: 1, cont_sink: None },
        ],
        rat_ps: 1000.0,
    }];
    let (tg, nodes) = timing::build_timing_graph(&chip);
    let rep = tg.analyze();

    let typ = cds_instgen::typical_delay_per_gcell(&chip.delay_model);
    let est = |d: u32| d as f64 * typ * 1.15 + 2.0 * chip.grid.spec().via_delay;
    let cell = chip.cell_delay_ps;
    // 2 links ⇒ exactly one cell between the stages
    let est_total = est(6) + cell + est(4);
    let scale = 1000.0 / est_total;

    // terminal stage sink sits at the end of the chain: RAT = rat_ps
    let t_far = nodes.sink_node[1][0] as usize;
    assert!((rep.rat[t_far] - 1000.0).abs() < 1e-9, "terminal RAT {}", rep.rat[t_far]);
    // the terminal link's other endpoint: no downstream cell either
    let t_near = nodes.sink_node[1][1] as usize;
    let want_near = (est(6) + cell + est(3)) * scale;
    assert!((rep.rat[t_near] - want_near).abs() < 1e-9, "{} vs {want_near}", rep.rat[t_near]);
    // intermediate endpoint keeps its downstream cell in the estimate
    let t_mid = nodes.sink_node[0][1] as usize;
    let want_mid = (est(4) + cell) * scale;
    assert!((rep.rat[t_mid] - want_mid).abs() < 1e-9, "{} vs {want_mid}", rep.rat[t_mid]);
}

#[test]
fn more_iterations_do_not_explode_overflow() {
    // Pricing should spread congestion. On a chip large enough for
    // the capacity calibration to be meaningful, ACE4 after pricing
    // iterations must stay in the same ballpark as the unpriced
    // first pass (tiny chips are noisy, hence the generous bound).
    let chip = ChipSpec { num_nets: 150, ..ChipSpec::small_test(5) }.generate();
    let run = |iters| {
        Router::new(&chip, RouterConfig { iterations: iters, ..Default::default() })
            .run()
            .metrics
            .ace4
    };
    let one = run(1);
    let three = run(3);
    assert!(three <= 1.5 * one + 20.0, "ACE4 exploded under pricing: {one} → {three}");
}

#[test]
fn a_window_margin_beyond_the_die_routes_the_whole_die() {
    // `window_margin` arrives from flags, `config` records and query
    // strings; any margin at least the die's extent is the same window
    let chip = tiny_chip();
    let run = |window_margin| {
        let config = RouterConfig { window_margin, iterations: 2, ..Default::default() };
        Router::new(&chip, config).run().checksum()
    };
    assert_eq!(run(u32::MAX), run(1000));
}

#[test]
fn restore_then_export_reproduces_every_checkpoint_field_for_field() {
    // stronger than the checksum-only resume pins: the state a
    // checkpoint restores *is* the state that was exported — ledgers,
    // weights, scheduler references, trees and counters
    let chip = tiny_chip();
    for incremental in [true, false] {
        let cfg =
            RouterConfig { iterations: 5, checkpoint_every: 1, incremental, ..Default::default() };
        let router = Router::new(&chip, cfg);
        let mut cps = Vec::new();
        router.run_checkpointed(
            &mut WorkerPool::new(),
            &RunControl::new(),
            &mut |_, _| {},
            None,
            &mut |_, s| cps.push(s),
        );
        assert_eq!(cps.len(), 4, "incremental={incremental}");
        for state in &cps {
            // full-reroute checkpoints carry no price baseline, and
            // export must not invent one from the vector it is handed
            let handed = if incremental { state.prices.clone() } else { vec![1.0] };
            let again = LoopState::restore(&router, state).export(state.iteration, &handed);
            assert_eq!(&again, state, "incremental={incremental} k={}", state.iteration);
        }
    }
}
