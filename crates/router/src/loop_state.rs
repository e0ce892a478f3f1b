//! The rip-up loop's carried state and its one iteration.
//!
//! [`LoopState`] owns everything one iteration hands to the next — the
//! usage ledger and its pricing history, the Lagrange multipliers
//! (delay weights) and SL budgets, the routed forest, the work counters
//! and the timing [`Mode`] — with one constructor per way a run starts
//! ([`fresh`](LoopState::fresh), [`restore`](LoopState::restore)), one
//! [`step`](LoopState::step), the checkpoint
//! [`export`](LoopState::export) that `restore` inverts, and
//! [`finish`](LoopState::finish). `Router::run_checkpointed` is the
//! driver around them. Every pricing decision is a call into
//! [`pricing`].

use crate::checkpoint::{dump_to_state_tree, state_to_stats, state_tree_to_dump, stats_to_state};
use crate::dispatch::{tracks, RouteWorker};
use crate::schedule::DirtyTracker;
use crate::timing::{build_timing_graph, NetNodes};
use crate::{pricing, HarvestedInstance, Router, RouterStats, RoutingOutcome};
use cds_graph::EdgeId;
use cds_instgen::io::doc::{StateNet, StateSection};
use cds_metrics::{
    ace4, forest_totals, overflow_flags, wire_congestion, wirelength_meters, RunMetrics,
};
use cds_sta::{IncrementalSta, TimingGraph, TimingReport};
use cds_topo::RoutedForest;

/// How an iteration schedules rip-up and refreshes timing —
/// [`RouterConfig::incremental`](crate::RouterConfig::incremental) as
/// a type. The two variants deliberately share no code: `Full` is the
/// reference `tests/incremental.rs` compares `Incremental` against.
pub(crate) enum Mode {
    /// Reroute every net every iteration, rewrite every net arc and
    /// re-analyze the whole DAG. Carries no scheduler state.
    Full { tg: TimingGraph, report: TimingReport },
    /// Reroute only the nets the tracker marks dirty; the engine takes
    /// only their arcs and re-propagates the affected cones. (Boxed:
    /// the engine's inline size is several times all of `Full`.)
    Incremental { tracker: DirtyTracker, sta: Box<IncrementalSta> },
}

impl Mode {
    /// The mode `router` is configured for, over a timing graph whose
    /// net arcs already carry the delays to start from.
    fn new(router: &Router<'_>, tg: TimingGraph) -> Self {
        let config = &router.config;
        if config.incremental {
            Mode::Incremental {
                tracker: DirtyTracker::new(router.chip, config.window_margin, config.price_tol),
                sta: Box::new(IncrementalSta::new(&tg)),
            }
        } else {
            let report = tg.analyze();
            Mode::Full { tg, report }
        }
    }

    /// Re-times the chip after `dirty` was rerouted into `forest` and
    /// returns the fresh report (borrowed from the engine in
    /// incremental mode — no per-iteration clone). Incremental mode
    /// also refreshes the tracker's negative-slack flags from it.
    fn retime(
        &mut self,
        dirty: &[usize],
        forest: &RoutedForest,
        net_nodes: &NetNodes,
    ) -> &TimingReport {
        match self {
            Mode::Full { tg, report } => {
                for (i, arcs) in net_nodes.sink_arc.iter().enumerate() {
                    tg.set_arc_delays(arcs, forest.sink_delays(i));
                }
                *report = tg.analyze();
                report
            }
            Mode::Incremental { tracker, sta } => {
                for &i in dirty {
                    sta.set_arc_delays(&net_nodes.sink_arc[i], forest.sink_delays(i));
                }
                sta.refresh();
                tracker.set_neg_slack(&net_nodes.sink_node, sta.report());
                sta.report()
            }
        }
    }

    /// The report of the last [`retime`](Self::retime) (of construction
    /// before the first).
    fn report(&self) -> &TimingReport {
        match self {
            Mode::Full { report, .. } => report,
            Mode::Incremental { sta, .. } => sta.report(),
        }
    }
}

/// Sums every net's used edges into `out` (cleared first) — the one
/// definition of "usage" that the full sweep, the periodic recount,
/// and the accounting tests all share. Walks the forest's contiguous
/// used-edge spans in net order.
fn accumulate_usage(forest: &RoutedForest, out: &mut [f64]) {
    out.fill(0.0);
    for slot in 0..forest.num_slots() {
        for &(e, tracks) in forest.used_edges(slot) {
            out[e as usize] += tracks;
        }
    }
}

/// The rip-up loop's carry (see the module docs).
pub(crate) struct LoopState {
    /// Per-edge base costs and capacities, read by every price update.
    base: Vec<f64>,
    capacity: Vec<f64>,
    net_nodes: NetNodes,
    /// Current edge usage (tracks) and its damped pricing history.
    usage: Vec<f64>,
    usage_hist: Vec<f64>,
    /// Per-sink delay weights (Lagrange multipliers).
    weights: Vec<Vec<f64>>,
    /// Per-sink budgets for SL (`None` before the first STA).
    budgets: Vec<Option<Vec<f64>>>,
    /// Every net's routed tree + summary spans; replaced spans become
    /// garbage and are compacted when they outgrow the live data.
    forest: RoutedForest,
    pub(crate) stats: RouterStats,
    mode: Mode,
    /// Continuity of the cumulative retime counter across a resume:
    /// the engine's deltas after the checkpoint are identical in the
    /// resumed and uninterrupted runs (pure function of arc changes),
    /// so checkpoint value + post-construction deltas matches. Both
    /// zero in a fresh run.
    retimed_base: u64,
    retimed_initial: u64,
    /// Weights/budgets as routed by the *final* iteration, for the
    /// full-reroute harvest.
    harvest_weights: Vec<Vec<f64>>,
    harvest_budgets: Vec<Option<Vec<f64>>>,
}

impl LoopState {
    /// The state before iteration 0: nothing routed, empty ledgers,
    /// every weight at [`pricing::INITIAL_WEIGHT`], no budgets.
    pub(crate) fn fresh(router: &Router<'_>) -> Self {
        let (tg, net_nodes) = build_timing_graph(router.chip);
        Self::with_timing(router, tg, net_nodes)
    }

    fn with_timing(router: &Router<'_>, tg: TimingGraph, net_nodes: NetNodes) -> Self {
        let chip = router.chip;
        let g = chip.grid.graph();
        let (m, n) = (g.num_edges(), chip.nets.len());
        let weights: Vec<Vec<f64>> =
            chip.nets.iter().map(|n| vec![pricing::INITIAL_WEIGHT; n.sinks.len()]).collect();
        let budgets = vec![None; n];
        let (harvest_weights, harvest_budgets) = if router.config.harvest {
            (weights.clone(), budgets.clone())
        } else {
            Default::default()
        };
        LoopState {
            base: g.base_costs(),
            capacity: (0..m).map(|e| g.edge(e as EdgeId).capacity).collect(),
            net_nodes,
            usage: vec![0.0; m],
            usage_hist: vec![0.0; m],
            weights,
            budgets,
            forest: RoutedForest::with_slots(n),
            stats: RouterStats::default(),
            mode: Mode::new(router, tg),
            retimed_base: 0,
            retimed_initial: 0,
            harvest_weights,
            harvest_budgets,
        }
    }

    /// The state a checkpoint captured, ready to continue at iteration
    /// `s.iteration`: ledgers and weights verbatim, trees by structural
    /// import (attachment order reproduces node ids and enumeration
    /// bit-for-bit), used-edge spans recomputed from the imported paths
    /// by the same rule the route path uses, the dirty tracker primed
    /// with its references. Inverse of [`export`](Self::export).
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this chip/config (see
    /// [`Router::run_checkpointed`]).
    pub(crate) fn restore(router: &Router<'_>, s: &StateSection) -> Self {
        let chip = router.chip;
        let g = chip.grid.graph();
        let (m, n) = (g.num_edges(), chip.nets.len());
        assert!(
            s.iteration >= 1
                && s.usage.len() == m
                && s.nets.len() == n
                && (!router.config.incremental || s.prices.len() == m),
            "resume state does not match this chip, or an incremental run was handed \
             the state of an incremental=false run (no scheduler state)"
        );
        let mut forest = RoutedForest::with_slots(n);
        for &(id, ref st) in &s.trees {
            forest.import_tree(id, &state_tree_to_dump(st));
            forest.set_sink_delays(id, &st.sink_delays);
            forest.set_used_from_paths(id, |e| (e, tracks(g.edge(e))));
            forest.set_summary(id, st.wirelength_gcells, st.vias as usize);
        }
        // arcs carry exactly the kept routes' delays (every arc was
        // last written by the iteration that routed its net, whose
        // route the forest holds), so rebuilding them from the forest
        // reproduces the engine's timing state
        let (mut tg, net_nodes) = build_timing_graph(chip);
        for (i, arcs) in net_nodes.sink_arc.iter().enumerate() {
            tg.set_arc_delays(arcs, forest.sink_delays(i));
        }

        let mut state = Self::with_timing(router, tg, net_nodes);
        state.usage.copy_from_slice(&s.usage);
        state.usage_hist.copy_from_slice(&s.usage_hist);
        for (i, sn) in s.nets.iter().enumerate() {
            state.weights[i].clone_from(&sn.weights);
            state.budgets[i].clone_from(&sn.budgets);
        }
        state.forest = forest;
        state.stats = state_to_stats(&s.stats, s.iteration);
        if router.config.harvest {
            state.harvest_weights.clone_from(&state.weights);
            state.harvest_budgets.clone_from(&state.budgets);
        }
        if let Mode::Incremental { tracker, sta } = &mut state.mode {
            state.retimed_base = state.stats.sta_nodes_retimed;
            state.retimed_initial = sta.total_retimed();
            tracker.prime_prices(&s.prices);
            for (i, sn) in s.nets.iter().enumerate() {
                tracker.restore_net(
                    i,
                    sn.routed,
                    sn.drift,
                    &sn.weight_ref,
                    sn.budget_ref.as_deref(),
                );
            }
            // the overflow/negative-slack flags are derived state:
            // recompute them from the restored usage and timing exactly
            // as the checkpointing iteration's tail did
            let overflowed = overflow_flags(g, &state.usage);
            tracker.set_overflow_touch(&state.forest, &overflowed);
            tracker.set_neg_slack(&state.net_nodes.sink_node, sta.report());
        }
        state
    }

    /// Runs rip-up iteration `iter` (absolute — a resumed run continues
    /// the price schedule and the recount phase where the checkpoint
    /// left them) on `workers`, the caller's whole pool, and returns
    /// the prices the iteration routed on.
    pub(crate) fn step(
        &mut self,
        router: &Router<'_>,
        iter: usize,
        workers: &mut [RouteWorker],
    ) -> Vec<f64> {
        let chip = router.chip;
        let config = &router.config;
        let g = chip.grid.graph();
        let n = chip.nets.len();

        // 1. prices from damped usage
        let prices =
            pricing::prices(&self.base, &self.capacity, &self.usage_hist, config.price_alpha, iter);

        // 1b. schedule: which nets this iteration rips up. The first
        //     iteration (and every full-reroute iteration) takes all
        //     of them; afterwards only dirty nets.
        let dirty: Vec<usize> = match &mut self.mode {
            Mode::Incremental { tracker, .. } if iter > 0 => {
                tracker.accumulate_drift(&chip.grid, &prices);
                let budget_sensitive = router.oracle.uses_budgets();
                (0..n)
                    .filter(|&i| {
                        let cause = tracker.dirty_cause(
                            i,
                            &self.weights[i],
                            self.budgets[i].as_deref(),
                            budget_sensitive,
                        );
                        cause.inspect(|&c| self.stats.note(c)).is_some()
                    })
                    .collect()
            }
            mode => {
                if let Mode::Incremental { tracker, .. } = mode {
                    tracker.prime_prices(&prices);
                }
                self.stats.dirty_fresh += n;
                (0..n).collect()
            }
        };
        self.stats.rerouted_per_iter.push(dirty.len());

        // 2. route the scheduled nets in parallel on frozen prices
        //    (into per-worker scratch forests), then merge into the
        //    chip-wide forest in deterministic net order
        let (placements, kernel) = router.route_ids_into(
            &dirty,
            &prices,
            &self.weights,
            &self.budgets,
            router.bif(),
            &mut workers[..router.num_workers()],
        );
        self.stats.add_kernel(kernel);

        // 3. usage accounting: full sweeps recompute from scratch
        //    (the reference rule); partial sweeps subtract each
        //    ripped net's old span and add its new one — both walk
        //    contiguous span memory
        if dirty.len() == n {
            self.forest.clear_trees();
            for (k, &(wi, wslot)) in placements.iter().enumerate() {
                self.forest.copy_tree_from(&workers[wi].forest, wslot, dirty[k]);
            }
            accumulate_usage(&self.forest, &mut self.usage);
        } else {
            for (k, &(wi, wslot)) in placements.iter().enumerate() {
                let i = dirty[k];
                for &(e, tracks) in self.forest.used_edges(i) {
                    self.usage[e as usize] -= tracks;
                }
                self.forest.copy_tree_from(&workers[wi].forest, wslot, i);
                for &(e, tracks) in self.forest.used_edges(i) {
                    self.usage[e as usize] += tracks;
                }
            }
            // periodic exact recount bounds float drift from the
            // subtract/add cycles and asserts the incremental
            // accounting stayed consistent
            if config.recount_every > 0 && (iter + 1).is_multiple_of(config.recount_every) {
                let mut recount = vec![0.0f64; self.usage.len()];
                accumulate_usage(&self.forest, &mut recount);
                for (e, (&r, &u)) in recount.iter().zip(&self.usage).enumerate() {
                    assert!(
                        (r - u).abs() <= 1e-6 * r.abs().max(u.abs()).max(1.0),
                        "incremental usage drifted at edge {e}: {u} vs recount {r}"
                    );
                }
                self.usage = recount;
                self.stats.usage_recounts += 1;
            }
        }

        // snapshot the inputs the ripped nets were routed with (the
        // dirtiness reference for later iterations), and flag nets
        // now touching overflowed edges
        if let Mode::Incremental { tracker, .. } = &mut self.mode {
            for &i in &dirty {
                tracker.note_routed(i, &self.weights[i], self.budgets[i].as_deref());
            }
            let overflowed = overflow_flags(g, &self.usage);
            tracker.set_overflow_touch(&self.forest, &overflowed);
        }

        pricing::blend_history(&mut self.usage_hist, &self.usage, iter);

        // 4. timing update
        let report = self.mode.retime(&dirty, &self.forest, &self.net_nodes);

        // the final iteration's weights/budgets are harvested *as
        // routed*, before the slack update below rewrites them (the
        // update's output never routes anything)
        if config.harvest && iter + 1 == config.iterations {
            self.harvest_weights.clone_from(&self.weights);
            self.harvest_budgets.clone_from(&self.budgets);
        }

        // 5. weight & budget updates from slacks
        for (i, net) in chip.nets.iter().enumerate() {
            let mut b = Vec::with_capacity(net.sinks.len());
            for (j, &sink) in net.sinks.iter().enumerate() {
                let slack = report.slack[self.net_nodes.sink_node[i][j] as usize];
                self.weights[i][j] =
                    pricing::updated_weight(self.weights[i][j], slack, config.weight_tau_ps);
                // the direct connection is a true lower bound
                let direct = net.root.l1(sink) as f64 * chip.grid.min_delay_per_gcell()
                    + 2.0 * chip.grid.spec().via_delay;
                b.push(pricing::budget(self.forest.sink_delays(i)[j], slack, direct));
            }
            self.budgets[i] = Some(b);
        }
        if let Mode::Incremental { sta, .. } = &self.mode {
            self.stats.sta_nodes_retimed =
                self.retimed_base + (sta.total_retimed() - self.retimed_initial);
        }

        // arena upkeep: compact once replaced spans outweigh live
        // data (deterministic — a function of routed data only),
        // then record the footprint
        if self.forest.garbage_ratio() > 0.5 {
            self.forest.compact();
        }
        let arena =
            self.forest.arena_bytes() + workers.iter().map(|w| w.forest.arena_bytes()).sum::<u64>();
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(arena);
        prices
    }

    /// Snapshots the carry after `iteration` completed iterations as a
    /// `cdst/2` `state` section — everything [`step`](Self::step) reads
    /// at the top of the next iteration: ledgers, current
    /// weights/budgets, the dirty tracker's references (with `prices`,
    /// the vector the last iteration routed on, as its drift baseline),
    /// every routed tree (structure + summary spans), and the
    /// deterministic work counters. Full-reroute mode has no scheduler
    /// state — every net reroutes every iteration regardless — and
    /// writes none.
    pub(crate) fn export(&self, iteration: usize, prices: &[f64]) -> StateSection {
        let n = self.weights.len();
        let mut nets = Vec::with_capacity(n);
        let mut trees = Vec::with_capacity(n);
        for i in 0..n {
            let (routed, drift, weight_ref, budget_ref) = match &self.mode {
                Mode::Incremental { tracker: t, .. } => (
                    t.has_routed(i),
                    t.drift(i),
                    t.last_routed_weights(i).to_vec(),
                    t.last_routed_budgets(i).map(<[f64]>::to_vec),
                ),
                Mode::Full { .. } => (true, 0.0, Vec::new(), None),
            };
            nets.push(StateNet {
                routed,
                drift,
                weights: self.weights[i].clone(),
                budgets: self.budgets[i].clone(),
                weight_ref,
                budget_ref,
            });
            if routed {
                trees.push((
                    i,
                    dump_to_state_tree(
                        self.forest.export_tree(i),
                        self.forest.sink_delays(i),
                        self.forest.wirelength_gcells(i),
                        self.forest.vias(i),
                    ),
                ));
            }
        }
        StateSection {
            iteration,
            usage: self.usage.clone(),
            usage_hist: self.usage_hist.clone(),
            prices: match self.mode {
                Mode::Incremental { .. } => prices.to_vec(),
                Mode::Full { .. } => Vec::new(),
            },
            nets,
            trees,
            stats: stats_to_state(&self.stats),
        }
    }

    /// Closes the run: final prices, metrics and (when requested) the
    /// harvested instances, around the carried ledgers and forest. The
    /// wall time is the driver's to stamp — nothing in here reads a
    /// clock.
    pub(crate) fn finish(self, router: &Router<'_>) -> RoutingOutcome {
        let chip = router.chip;
        let g = chip.grid.graph();
        // final usage/price consistency: the returned prices are
        // recomputed from the final usage history, so they correspond to
        // the returned usage rather than to the previous iteration's
        // (cancelled runs price at the iteration they actually reached)
        let prices = pricing::prices(
            &self.base,
            &self.capacity,
            &self.usage_hist,
            router.config.price_alpha,
            self.stats.iterations_completed(),
        );
        let report = self.mode.report().clone();

        // final metrics, straight off the forest's summary directory
        let cong = wire_congestion(g, &self.usage);
        let (wl_gcells, vias) = forest_totals(&self.forest);
        let metrics = RunMetrics {
            ws: report.ws,
            tns: report.tns,
            ace4: ace4(&cong),
            wl_m: wirelength_meters(wl_gcells, chip.grid.spec().gcell_um),
            vias,
            walltime_s: 0.0,
        };
        let harvest = if router.config.harvest {
            chip.nets
                .iter()
                .enumerate()
                .filter(|(_, n)| n.sinks.len() >= 3)
                .map(|(i, _)| {
                    // the inputs the *kept* route was actually produced
                    // with: the tracker's last-routed snapshot in
                    // incremental mode (a clean net's route may predate
                    // the final iteration), the pre-update
                    // final-iteration values in full-reroute mode
                    let (weights, budgets) = match &self.mode {
                        Mode::Incremental { tracker: t, .. } if t.has_routed(i) => (
                            t.last_routed_weights(i).to_vec(),
                            t.last_routed_budgets(i).map_or_else(Vec::new, <[f64]>::to_vec),
                        ),
                        _ => (
                            self.harvest_weights[i].clone(),
                            self.harvest_budgets[i].clone().unwrap_or_default(),
                        ),
                    };
                    HarvestedInstance { net: i, weights, budgets }
                })
                .collect()
        } else {
            Vec::new()
        };
        RoutingOutcome {
            metrics,
            timing: report,
            usage: self.usage,
            prices,
            forest: self.forest,
            harvest,
            stats: self.stats,
        }
    }
}
