//! Per-net routing and its parallel dispatch: the warm [`WorkerPool`],
//! the one per-net route path ([`Router::route_one_with`] and the arena
//! form the loop drives), and the claim plan that hands one iteration's
//! scheduled nets to the workers.

use crate::{OracleRequest, OracleWorkspace, RoutedNet, Router, SteinerOracle};
use cds_core::SolveStats;
use cds_geom::Point;
use cds_graph::{window_bounds, EdgeAttrs, EdgeKind, RoutingSurface, ShardGrid, WindowView};
use cds_instgen::Net;
use cds_topo::{BifurcationConfig, RoutedForest};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// Persistent warm routing state: one [`OracleWorkspace`] plus one
/// scratch [`RoutedForest`] per worker thread, reusable across
/// [`Router::run_checkpointed`] calls — and across *chips*: the slabs are
/// cleared, never shrunk, so a long-running server keeps routing jobs
/// without returning arenas to the allocator. Reuse cannot change
/// results: per-net outputs depend only on per-net inputs (the
/// workspace contract of [`SteinerOracle`]), which is the same argument
/// that makes the dynamic work queue deterministic.
#[derive(Debug, Default)]
pub struct WorkerPool {
    workers: Vec<RouteWorker>,
}

impl WorkerPool {
    /// An empty pool; workers are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of warm workers currently held.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no warm workers yet.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Total bytes reserved across all scratch forests (observability).
    pub fn arena_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.forest.arena_bytes()).sum()
    }

    /// Grows the pool to at least `n` workers (never shrinks — a pool
    /// shared across jobs keeps the largest worker set it ever needed)
    /// and hands out all of them.
    pub(crate) fn ensure(&mut self, n: usize) -> &mut [RouteWorker] {
        if self.workers.len() < n {
            self.workers.resize_with(n, RouteWorker::default);
        }
        &mut self.workers
    }
}

/// One router worker's persistent state: a warm oracle workspace plus
/// the scratch forest it routes into each iteration (merged into the
/// chip-wide forest by the main thread, in net order).
#[derive(Debug, Default)]
pub(crate) struct RouteWorker {
    ws: OracleWorkspace,
    pub(crate) forest: RoutedForest,
}

/// A net's pins — root first, then its sinks — into `out` (cleared
/// first). A net's routing window is the margin-expanded bounding box
/// of exactly this list: the route path, the shard classification and
/// the dirty tracker's drift rectangles all build it here, so they
/// cannot disagree about which window a net routes in.
pub(crate) fn net_pins(net: &Net, out: &mut Vec<Point>) {
    out.clear();
    out.push(net.root);
    out.extend_from_slice(&net.sinks);
}

/// Routing capacity one use of an edge consumes (wide wire types take
/// two tracks).
pub(crate) fn tracks(attrs: &EdgeAttrs) -> f64 {
    if attrs.kind == EdgeKind::Wire && attrs.wire_type == 1 {
        2.0
    } else {
        1.0
    }
}

impl Router<'_> {
    /// Workers one iteration runs: one warm worker per thread — oracle
    /// workspace plus a scratch forest the worker routes into — but
    /// never more than nets, so neither does the pool hold more (a
    /// `threads` knob from outside the program must not size memory).
    pub(crate) fn num_workers(&self) -> usize {
        self.config.threads.max(1).min(self.chip.nets.len().max(1))
    }

    /// Routes one net through an explicit oracle and workspace; shared
    /// by the main loop's worker threads and every harness.
    ///
    /// The net routes over a zero-copy [`WindowView`] of the global
    /// grid: no per-net graph is built, and `prices` plus the router's
    /// precomputed global delays are passed to the oracle unsliced
    /// (window edge ids *are* global edge ids).
    #[allow(clippy::too_many_arguments)]
    pub fn route_one_with(
        &self,
        net_id: usize,
        oracle: &dyn SteinerOracle,
        prices: &[f64],
        weights: &[f64],
        budgets: Option<&[f64]>,
        bif: BifurcationConfig,
        ws: &mut OracleWorkspace,
    ) -> (RoutedNet, f64) {
        let mut forest = RoutedForest::with_slots(1);
        let (total, _) =
            self.route_one_into(net_id, oracle, prices, weights, budgets, bif, ws, &mut forest, 0);
        let rn = RoutedNet {
            wirelength_gcells: forest.wirelength_gcells(0),
            vias: forest.vias(0),
            sink_delays: forest.sink_delays(0).to_vec(),
            used_edges: forest.used_edges(0).to_vec(),
        };
        (rn, total)
    }

    /// Routes one net through an explicit oracle and workspace straight
    /// into a [`RoutedForest`] slot — the arena path the main loop's
    /// worker threads drive: the tree, its per-sink delays, its
    /// used-edge list (global edge ids), and its
    /// wirelength/via summary all land in the forest's shared slabs;
    /// nothing per-net is materialized. Returns the net's objective
    /// value and the oracle's search-kernel counters (zero for the
    /// plane baselines). Bit-identical to
    /// [`route_one_with`](Self::route_one_with) (which now wraps this).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_one_into(
        &self,
        net_id: usize,
        oracle: &dyn SteinerOracle,
        prices: &[f64],
        weights: &[f64],
        budgets: Option<&[f64]>,
        bif: BifurcationConfig,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> (f64, SolveStats) {
        let chip = self.chip;
        let net = &chip.nets[net_id];
        let seed = self.config.seed ^ (net_id as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let mut pins = std::mem::take(&mut ws.pins);
        net_pins(net, &mut pins);
        let mut local_sinks = std::mem::take(&mut ws.local_sinks);
        let g = chip.grid.graph();

        let view = WindowView::around(&chip.grid, &pins, self.config.window_margin);
        local_sinks.clear();
        local_sinks.extend(net.sinks.iter().map(|&p| view.localize(p)));
        let req = OracleRequest {
            surface: &view,
            cost: prices,
            delay: &self.delays,
            root: view.localize(net.root),
            sinks: &local_sinks,
            weights,
            budgets,
            bif,
            seed,
        };
        let kstats = oracle.route_into(&req, ws, forest, slot);
        // view edge ids are global: usage accumulation and
        // length/via metrics read the global graph directly
        let mut eval = std::mem::take(&mut ws.eval);
        let (totals, wl, vias) = {
            let tv = forest.view(slot);
            (
                tv.evaluate_into(prices, &self.delays, weights, &bif, &mut eval),
                tv.wirelength(g),
                tv.via_count(g),
            )
        };
        forest.set_sink_delays(slot, &eval.sink_delays);
        forest.set_used_from_paths(slot, |e| (e, tracks(g.edge(e))));
        forest.set_summary(slot, wl, vias);
        ws.eval = eval;
        ws.pins = pins;
        ws.local_sinks = local_sinks;
        (totals.total, kstats)
    }

    /// Decides how one iteration's scheduled nets are handed to the
    /// workers: `groups` of indices into `ids` that a worker claims
    /// whole, and the `per_net` indices claimed one at a time.
    ///
    /// Unsharded (`shards <= 1`) every net is claimed per net — no
    /// window is classified (a 1×1 [`ShardGrid`] would put every net
    /// into one group and serialize the iteration on one worker). With
    /// `shards > 1` each net is classified by its routing window's
    /// [`ShardGrid`] region — the same rectangle [`WindowView::around`]
    /// routes in, so "interior" means the net's whole search space is
    /// inside one shard: interior nets form one group per (non-empty)
    /// shard, nets whose window crosses a split go to `per_net`.
    pub(crate) fn claim_plan(&self, ids: &[usize]) -> (Vec<Vec<usize>>, Vec<usize>) {
        if self.config.shards <= 1 {
            return (Vec::new(), (0..ids.len()).collect());
        }
        let spec = self.chip.grid.spec();
        let grid = ShardGrid::new(spec.nx, spec.ny, self.config.shards);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); grid.num_shards()];
        let mut per_net: Vec<usize> = Vec::new();
        let mut pins = Vec::new();
        for (k, &net_id) in ids.iter().enumerate() {
            net_pins(&self.chip.nets[net_id], &mut pins);
            let (x0, y0, x1, y1) =
                window_bounds(&pins, self.config.window_margin, spec.nx, spec.ny);
            match grid.shard_of_rect(x0, y0, x1, y1) {
                Some(s) => groups[s].push(k),
                None => per_net.push(k),
            }
        }
        groups.retain(|g| !g.is_empty());
        (groups, per_net)
    }

    /// Routes the given nets in parallel into the workers' scratch
    /// forests (at most one thread per worker handed in, and never more
    /// than nets), returning `(worker, slot)` placements aligned with
    /// `ids` (the caller merges them into the chip-wide forest in net
    /// order — deterministic regardless of which worker routed what)
    /// plus the summed search-kernel counters of every routed net
    /// (order-independent integer sums, so equally deterministic).
    ///
    /// Work is distributed by the [`claim_plan`](Self::claim_plan)
    /// through two shared atomic counters, over the same worker set:
    ///
    /// 1. **whole groups**: a worker claims a shard's interior nets at
    ///    once and routes them in schedule order, so its consecutive
    ///    oracle calls share a die region (warm window locality) and
    ///    never contend with another shard's;
    /// 2. **per net**: each worker then claims the next unrouted index
    ///    as soon as it finishes one, so a cluster of large nets landing
    ///    together cannot idle the other workers. Unsharded runs have
    ///    only this phase; sharded runs drain their boundary nets here.
    ///
    /// The dynamic schedule is determinism-safe: per-net results depend
    /// only on per-net inputs (the workspace contract of
    /// [`SteinerOracle`]), and neither the usage fold nor the forest
    /// merge ever sees the claim order, so which worker routes a net —
    /// and in what order — cannot change any result, only which warm
    /// workspace computes it (pinned by
    /// `deterministic_across_thread_counts` and
    /// `sharded_routing_is_bit_identical_across_shard_and_thread_counts`).
    pub(crate) fn route_ids_into(
        &self,
        ids: &[usize],
        prices: &[f64],
        weights: &[Vec<f64>],
        budgets: &[Option<Vec<f64>>],
        bif: BifurcationConfig,
        workers: &mut [RouteWorker],
    ) -> (Vec<(usize, usize)>, SolveStats) {
        if ids.is_empty() {
            return (Vec::new(), SolveStats::default());
        }
        let (groups, per_net) = self.claim_plan(ids);
        let oracle = self.oracle.as_ref();
        let next_group = AtomicUsize::new(0);
        let next_net = AtomicUsize::new(0);
        let mut placements: Vec<Option<(usize, usize)>> = vec![None; ids.len()];
        let mut kernel = SolveStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .take(ids.len())
                .enumerate()
                .map(|(wi, w)| {
                    let (next_group, next_net) = (&next_group, &next_net);
                    let (groups, per_net) = (&groups, &per_net);
                    scope.spawn(move || {
                        // slabs stay warm across iterations; only the
                        // previous iteration's spans are dropped
                        w.forest.clear();
                        let mut routed: Vec<(usize, usize)> = Vec::new();
                        let mut ksum = SolveStats::default();
                        let mut route_k = |k: usize, w: &mut RouteWorker| {
                            let net_id = ids[k];
                            let slot = w.forest.alloc_slot();
                            let (_, ks) = self.route_one_into(
                                net_id,
                                oracle,
                                prices,
                                &weights[net_id],
                                budgets[net_id].as_deref(),
                                bif,
                                &mut w.ws,
                                &mut w.forest,
                                slot,
                            );
                            ksum.absorb(ks);
                            routed.push((k, slot));
                        };
                        while let Some(group) = groups.get(next_group.fetch_add(1, Relaxed)) {
                            for &k in group {
                                route_k(k, w);
                            }
                        }
                        while let Some(&k) = per_net.get(next_net.fetch_add(1, Relaxed)) {
                            route_k(k, w);
                        }
                        (wi, routed, ksum)
                    })
                })
                .collect();
            for h in handles {
                // INVARIANT: join fails only when the worker panicked; re-panicking propagates that failure instead of silently dropping its nets.
                let (wi, routed, ksum) = h.join().expect("router worker panicked");
                kernel.absorb(ksum);
                for (k, slot) in routed {
                    placements[k] = Some((wi, slot));
                }
            }
        });
        let placements =
            // INVARIANT: the claim plan partitions the scheduled indices into groups and the per-net list, each entry was claimed exactly once, and all workers were joined above.
            placements.into_iter().map(|p| p.expect("all scheduled nets routed")).collect();
        (placements, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DirtyTracker;
    use cds_instgen::ChipSpec;

    #[test]
    fn route_window_shard_rectangle_and_drift_rectangle_agree_for_every_net() {
        // a net sharded by one rectangle and routed in another would
        // break the shard-interior argument; a tracker watching a third
        // would break the zero-drift exactness certificate
        let chip = ChipSpec { num_nets: 30, ..ChipSpec::small_test(5) }.generate();
        let spec = chip.grid.spec();
        let mut pins = Vec::new();
        for margin in [0, 6, u32::MAX] {
            let tracker = DirtyTracker::new(&chip, margin, 0.0);
            for (i, net) in chip.nets.iter().enumerate() {
                net_pins(net, &mut pins);
                assert_eq!((pins[0], &pins[1..]), (net.root, &net.sinks[..]));
                let routed = WindowView::around(&chip.grid, &pins, margin);
                let ((x0, y0), (w, h)) = (routed.origin(), routed.dims());
                let classified = window_bounds(&pins, margin, spec.nx, spec.ny);
                assert_eq!((x0, y0, x0 + w - 1, y0 + h - 1), classified, "net {i}");
                assert_eq!(tracker.rect(i), classified, "net {i}");
            }
        }
    }
}
