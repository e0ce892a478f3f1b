//! What a router run produces: the [`RoutingOutcome`] (metrics, timing,
//! ledgers, the routed forest, harvested instances), its bit-exact
//! [`checksum`](RoutingOutcome::checksum), the per-net summary forms
//! [`RoutedNet`] / [`NetView`], and the [`RouterStats`] work accounting.

use crate::checkpoint::stats_to_state;
use crate::schedule::DirtyCause;
#[cfg(doc)]
use crate::{Router, RunControl};
use cds_core::SolveStats;
use cds_graph::EdgeId;
use cds_metrics::RunMetrics;
use cds_sta::TimingReport;
use cds_topo::{RoutedForest, TreeView};

/// Result of routing one net (window-independent owned summary) — what
/// [`Router::route_one_with`], the table harnesses' per-net entry,
/// returns. Inside [`Router::run`] nothing is materialized per net:
/// every tree and summary span lives in the [`RoutingOutcome::forest`]
/// arena, read through [`NetView`]s.
#[derive(Debug, Clone)]
pub struct RoutedNet {
    /// Wirelength in gcells.
    pub wirelength_gcells: f64,
    /// Vias used.
    pub vias: usize,
    /// Delay per sink (ps), including λ penalties.
    pub sink_delays: Vec<f64>,
    /// Global edge ids used, with the tracks each use consumes.
    pub used_edges: Vec<(EdgeId, f64)>,
}

/// Borrowed per-net summary over the outcome's forest: the same fields
/// as [`RoutedNet`], zero-copy.
#[derive(Debug, Clone, Copy)]
pub struct NetView<'a> {
    /// Wirelength in gcells.
    pub wirelength_gcells: f64,
    /// Vias used.
    pub vias: usize,
    /// Delay per sink (ps), including λ penalties.
    pub sink_delays: &'a [f64],
    /// Global edge ids used, with the tracks each use consumes.
    pub used_edges: &'a [(EdgeId, f64)],
    /// The routed tree itself (global edge ids).
    pub tree: TreeView<'a>,
}

/// A cost-distance instance captured during routing, for the Table I/II
/// apples-to-apples comparisons ("instances … as they were generated
/// during timing-constrained global routing").
#[derive(Debug, Clone)]
pub struct HarvestedInstance {
    /// Net index into the chip.
    pub net: usize,
    /// The delay weights this net's *committed* route was produced
    /// with: the values in effect when the net was last ripped up —
    /// the final iteration's pre-update weights in full-reroute mode,
    /// or (in incremental mode) the weights of whichever iteration
    /// produced the kept route. Never the output of the closing slack
    /// update, which routes nothing.
    pub weights: Vec<f64>,
    /// The SL delay budgets in effect when the net was last ripped up;
    /// empty when no budgets existed yet (single-iteration runs, where
    /// routing precedes the first STA-derived budgets).
    pub budgets: Vec<f64>,
}

/// Work accounting of one router run — how much rip-up the dirty-net
/// scheduler actually performed (full-reroute runs report every net in
/// every iteration), plus per-iteration wall clock and peak arena
/// footprint.
///
/// Equality compares only the *deterministic* fields: wall-clock times
/// ([`iter_wall_s`](Self::iter_wall_s)) and arena capacities
/// ([`peak_arena_bytes`](Self::peak_arena_bytes), a function of
/// allocator growth and worker count) are observability counters, not
/// part of the reproducibility contract.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Nets rerouted in each iteration (`[0]` is always the full sweep).
    pub rerouted_per_iter: Vec<usize>,
    /// Nets routed because they had never been routed (includes every
    /// net of every full-reroute iteration).
    pub dirty_fresh: usize,
    /// Reroutes caused by a used edge exceeding capacity.
    pub dirty_overflow: usize,
    /// Reroutes caused by a negative-slack sink.
    pub dirty_timing: usize,
    /// Reroutes caused by window price drift beyond tolerance.
    pub dirty_price: usize,
    /// Reroutes caused by delay-weight drift beyond tolerance.
    pub dirty_weight: usize,
    /// Reroutes caused by budget drift beyond tolerance.
    pub dirty_budget: usize,
    /// Exact usage recounts performed (drift bounding).
    pub usage_recounts: usize,
    /// Timing nodes re-propagated by the incremental STA engine
    /// (`0` in full-reroute mode, which re-analyzes the whole DAG).
    pub sta_nodes_retimed: u64,
    /// Search-kernel labels settled (popped and expanded) across every
    /// oracle call of the run. Like the rest of the kernel counters
    /// below this is an order-independent integer sum, so it is
    /// deterministic across worker counts and part of `==`. The
    /// plane-topology baselines have no search kernel and leave all
    /// five counters at zero.
    pub kernel_settled: u64,
    /// Search-kernel labels pushed into the queue.
    pub kernel_pushed: u64,
    /// Search-kernel labels popped (settled plus stale lazy deletions).
    pub kernel_popped: u64,
    /// Pushes that improved an already-finite label (decrease-keys).
    pub kernel_decreased: u64,
    /// Empty buckets scanned by the bucket queue's cursor.
    pub kernel_bucket_scans: u64,
    /// Wall-clock seconds per rip-up iteration (excluded from `==`).
    pub iter_wall_s: Vec<f64>,
    /// Peak bytes reserved across all forest arenas — the chip-wide
    /// routed forest plus every worker's scratch forest (excluded from
    /// `==`).
    pub peak_arena_bytes: u64,
    /// Whether the run was stopped early by [`RunControl::cancel`];
    /// the per-iteration counters then cover exactly the iterations
    /// that completed before the cancellation point.
    pub cancelled: bool,
}

impl PartialEq for RouterStats {
    /// Deterministic fields only (see the type docs): the counters a
    /// checkpoint carries, plus the cancellation flag.
    fn eq(&self, o: &Self) -> bool {
        stats_to_state(self) == stats_to_state(o) && self.cancelled == o.cancelled
    }
}

impl RouterStats {
    /// Total oracle calls across all iterations.
    pub fn total_rerouted(&self) -> usize {
        self.rerouted_per_iter.iter().sum()
    }

    /// Rip-up iterations that actually ran (equals the configured
    /// iteration count unless the run was cancelled).
    pub fn iterations_completed(&self) -> usize {
        self.rerouted_per_iter.len()
    }

    /// Sum of the per-iteration wall clocks (the routing loop's share
    /// of the total wall time); `0.0` when no iteration ran (the
    /// empty float `sum()` is `-0.0`, which would print as such).
    pub fn route_wall_s(&self) -> f64 {
        self.iter_wall_s.iter().fold(0.0, |total, s| total + s)
    }

    pub(crate) fn add_kernel(&mut self, s: SolveStats) {
        self.kernel_settled += s.settled as u64;
        self.kernel_pushed += s.pushed as u64;
        self.kernel_popped += s.popped as u64;
        self.kernel_decreased += s.decreased as u64;
        self.kernel_bucket_scans += s.bucket_scans;
    }

    pub(crate) fn note(&mut self, cause: DirtyCause) {
        match cause {
            DirtyCause::Fresh => self.dirty_fresh += 1,
            DirtyCause::Overflow => self.dirty_overflow += 1,
            DirtyCause::Timing => self.dirty_timing += 1,
            DirtyCause::Price => self.dirty_price += 1,
            DirtyCause::Weight => self.dirty_weight += 1,
            DirtyCause::Budget => self.dirty_budget += 1,
        }
    }
}

/// Everything a router run produces.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The Table IV/V row.
    pub metrics: RunMetrics,
    /// Final timing report.
    pub timing: TimingReport,
    /// Final edge usage (tracks) per global edge.
    pub usage: Vec<f64>,
    /// Edge prices implied by the final usage history — the vector one
    /// more iteration would route on, recomputed *after* the loop so it
    /// is consistent with the returned `usage`. (Earlier versions
    /// returned the stale vector the last iteration had routed on,
    /// which was derived from the previous iteration's usage.) Table
    /// harness replays of harvested instances happen under this
    /// post-loop vector — identical for all compared methods, which is
    /// what the apples-to-apples comparison requires.
    pub prices: Vec<f64>,
    /// Every net's routed tree and summary spans, in net order, in one
    /// struct-of-arrays arena (see [`cds_topo::forest`]); read per-net
    /// data through [`nets`](Self::nets) / [`net`](Self::net).
    pub forest: RoutedForest,
    /// Harvested instances (nets with ≥ 3 sinks), when requested: each
    /// net's committed route with the weights/budgets it was last
    /// ripped up with — the final iteration's in full-reroute mode, or
    /// whichever iteration produced the kept route in incremental mode
    /// (see [`HarvestedInstance`]).
    pub harvest: Vec<HarvestedInstance>,
    /// Rip-up work accounting.
    pub stats: RouterStats,
}

impl RoutingOutcome {
    /// Number of routed nets (forest slots).
    pub fn num_nets(&self) -> usize {
        self.forest.num_slots()
    }

    /// Borrowed summary of net `i` (zero-copy over the forest).
    pub fn net(&self, i: usize) -> NetView<'_> {
        NetView {
            wirelength_gcells: self.forest.wirelength_gcells(i),
            vias: self.forest.vias(i),
            sink_delays: self.forest.sink_delays(i),
            used_edges: self.forest.used_edges(i),
            tree: self.forest.view(i),
        }
    }

    /// Borrowed summaries of all nets, in net order.
    pub fn nets(&self) -> impl Iterator<Item = NetView<'_>> {
        (0..self.forest.num_slots()).map(|i| self.net(i))
    }

    /// FNV-1a checksum over the bit-exact routing result: the quality
    /// metrics (wall time excluded), every net's tree (edges, tracks,
    /// sink delays, via/wirelength accounting), the usage vector, the
    /// final slacks, and — when instance harvesting ran — the harvested
    /// weights/budgets archive, so `cds-cli verify` also catches
    /// harvest drift. Runs without harvesting produce exactly the
    /// historical (pre-harvest-folding) value, which is what the pinned
    /// fixture goldens compare against. Deterministic runs — any thread
    /// or shard count — produce the same checksum.
    pub fn checksum(&self) -> u64 {
        fn eat(h: &mut u64, x: u64) {
            *h ^= x;
            *h = h.wrapping_mul(0x100000001b3);
        }
        let mut h = 0xcbf29ce484222325u64;
        eat(&mut h, self.metrics.ws.to_bits());
        eat(&mut h, self.metrics.tns.to_bits());
        eat(&mut h, self.metrics.ace4.to_bits());
        eat(&mut h, self.metrics.wl_m.to_bits());
        eat(&mut h, self.metrics.vias as u64);
        for i in 0..self.forest.num_slots() {
            eat(&mut h, self.forest.wirelength_gcells(i).to_bits());
            eat(&mut h, self.forest.vias(i) as u64);
            for &d in self.forest.sink_delays(i) {
                eat(&mut h, d.to_bits());
            }
            for &(e, tracks) in self.forest.used_edges(i) {
                eat(&mut h, u64::from(e) + 1);
                eat(&mut h, tracks.to_bits());
            }
        }
        for &u in &self.usage {
            eat(&mut h, u.to_bits());
        }
        for &s in &self.timing.slack {
            eat(&mut h, s.to_bits());
        }
        if !self.harvest.is_empty() {
            eat(&mut h, self.harvest.len() as u64);
            for inst in &self.harvest {
                eat(&mut h, inst.net as u64 + 1);
                for &w in &inst.weights {
                    eat(&mut h, w.to_bits());
                }
                // separator keeps (weights | budgets) framing unambiguous
                eat(&mut h, u64::MAX);
                for &b in &inst.budgets {
                    eat(&mut h, b.to_bits());
                }
            }
        }
        h
    }
}
