//! Dirty-net scheduling for incremental rip-up & re-route.
//!
//! After the first full iteration, most of a Lagrangean routing run is
//! redundant: congestion localizes, and rerouting a net whose inputs
//! did not change reproduces the tree it already has. The
//! [`DirtyTracker`] decides, per iteration, which nets are *dirty* —
//! must be ripped up and rerouted — and which may keep their previous
//! [`RoutedNet`](crate::RoutedNet) verbatim.
//!
//! A net is dirty when any of these hold (checked in this order, which
//! is also the priority order of the stats counters):
//!
//! 1. **fresh** — it has never been routed;
//! 2. **overflow** — one of its used edges exceeds capacity
//!    (PathFinder's rip-up rule);
//! 3. **timing** — one of its sinks has negative slack;
//! 4. **price** — the accumulated relative price change inside its
//!    routing window since it was last routed exceeds
//!    [`RouterConfig::price_tol`](crate::RouterConfig::price_tol);
//! 5. **weight / budget** — its sink delay weights or SL budgets moved
//!    beyond the same tolerance relative to the values it was last
//!    routed with.
//!
//! # Exactness at `price_tol = 0`
//!
//! With a zero tolerance, conditions 4-5 degenerate to "any bit
//! changed", so a *clean* net is one whose oracle inputs (window
//! prices, weights, budgets — window, delays, penalty config and seed
//! are fixed per net) are bit-identical to the values it was last
//! routed with. Rerouting such a net would reproduce its tree exactly
//! (oracles are deterministic functions of the request), which is what
//! makes incremental mode provably bit-identical to the full-reroute
//! reference at `price_tol = 0` (pinned by `tests/incremental.rs`).
//! Conditions 1-3 only ever *add* reroutes and cannot break this.
//!
//! # Window price drift without per-net snapshots
//!
//! Storing each net's window price vector would cost more memory than
//! the routes themselves. Instead the tracker keeps one global copy of
//! the previous iteration's prices and a per-gcell *change plane*: each
//! iteration it stamps the maximum relative per-edge price change onto
//! both endpoint gcells (O(edges)), then folds the plane's maximum over
//! every net's window rectangle into that net's accumulated drift
//! (O(Σ window areas) of multiply-free compares — far below one oracle
//! call per net). Stamping both endpoints makes the test conservative:
//! every edge of the net's window view has both endpoints inside the
//! rectangle, so a zero drift certifies bit-identical window prices.

use cds_graph::{EdgeId, GridGraph};
use cds_instgen::Chip;
use cds_sta::TimingReport;
use cds_topo::RoutedForest;

/// Why a net was scheduled for rip-up (stats bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirtyCause {
    /// Never routed (or full-reroute mode).
    Fresh,
    /// A used edge exceeds capacity.
    Overflow,
    /// A sink has negative slack.
    Timing,
    /// Window price drift beyond tolerance.
    Price,
    /// Delay weights moved beyond tolerance.
    Weight,
    /// SL budgets moved beyond tolerance (or appeared/vanished).
    Budget,
}

/// Relative change between two positive prices/budgets; zero iff the
/// values are equal, so a zero tolerance means "any change".
#[inline]
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// Relative change between two delay weights. Weights clamp to
/// `[1e-3, 2]`, so the scale floor of 1 keeps the decay of an
/// already-tiny weight from reading as a huge relative change — the
/// absolute effect on the routing objective is what matters. Still zero
/// iff equal.
#[inline]
fn rel_weight(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Per-net dirtiness state for the incremental scheduler.
#[derive(Debug)]
pub(crate) struct DirtyTracker {
    price_tol: f64,
    nx: u32,
    /// Per-net window rectangle `(x0, y0, x1, y1)`, clamped — exactly
    /// the bounds `WindowView::around` derives from the net's pins.
    rects: Vec<(u32, u32, u32, u32)>,
    /// Accumulated window price drift since the net was last routed.
    drift: Vec<f64>,
    /// Weights the net was last routed with.
    weight_ref: Vec<Vec<f64>>,
    /// Budgets the net was last routed with.
    budget_ref: Vec<Option<Vec<f64>>>,
    routed: Vec<bool>,
    /// Net touches an overflowed edge (set after usage accounting).
    overflow_touch: Vec<bool>,
    /// Net has a negative-slack sink (set after STA).
    neg_slack: Vec<bool>,
    /// Previous iteration's full price vector.
    prev_prices: Vec<f64>,
    /// Per-gcell max relative price change this iteration (scratch).
    plane: Vec<f64>,
}

impl DirtyTracker {
    pub(crate) fn new(chip: &Chip, window_margin: u32, price_tol: f64) -> Self {
        let spec = chip.grid.spec();
        let (nx, ny) = (spec.nx, spec.ny);
        let n = chip.nets.len();
        // the exactness certificate requires these rects to cover
        // exactly the windows nets route in — derive them through the
        // same single source of truth WindowView::around uses
        let mut pins = Vec::new();
        let rects = chip
            .nets
            .iter()
            .map(|net| {
                crate::dispatch::net_pins(net, &mut pins);
                cds_graph::window_bounds(&pins, window_margin, nx, ny)
            })
            .collect();
        DirtyTracker {
            price_tol,
            nx,
            rects,
            drift: vec![0.0; n],
            weight_ref: vec![Vec::new(); n],
            budget_ref: vec![None; n],
            routed: vec![false; n],
            overflow_touch: vec![false; n],
            neg_slack: vec![false; n],
            prev_prices: Vec::new(),
            plane: vec![0.0; (nx * ny) as usize],
        }
    }

    /// The window rectangle `(x0, y0, x1, y1)` whose prices net `i`'s
    /// drift watches.
    #[cfg(test)]
    pub(crate) fn rect(&self, i: usize) -> (u32, u32, u32, u32) {
        self.rects[i]
    }

    /// Records the first iteration's price vector (nothing to diff yet).
    pub(crate) fn prime_prices(&mut self, prices: &[f64]) {
        self.prev_prices.clear();
        self.prev_prices.extend_from_slice(prices);
    }

    /// Folds this iteration's price movement into every net's
    /// accumulated drift (see the module docs for the plane trick).
    pub(crate) fn accumulate_drift(&mut self, grid: &GridGraph, prices: &[f64]) {
        let g = grid.graph();
        self.plane.fill(0.0);
        let mut any = false;
        for (e, (&old, &new)) in self.prev_prices.iter().zip(prices).enumerate() {
            let r = rel(old, new);
            if r > 0.0 {
                any = true;
                let ep = g.endpoints(e as EdgeId);
                for v in [ep.u, ep.v] {
                    let c = grid.coord(v);
                    let idx = (c.y * self.nx + c.x) as usize;
                    if r > self.plane[idx] {
                        self.plane[idx] = r;
                    }
                }
            }
        }
        if any {
            for (i, &(x0, y0, x1, y1)) in self.rects.iter().enumerate() {
                let mut mx = 0.0f64;
                for y in y0..=y1 {
                    let row = (y * self.nx) as usize;
                    for x in x0 as usize..=x1 as usize {
                        if self.plane[row + x] > mx {
                            mx = self.plane[row + x];
                        }
                    }
                }
                self.drift[i] += mx;
            }
        }
        self.prev_prices.copy_from_slice(prices);
    }

    /// Recomputes the per-net overflow flags from the current usage —
    /// a linear walk over each net's contiguous used-edge span in the
    /// forest, no per-net heap pointers chased.
    pub(crate) fn set_overflow_touch(&mut self, forest: &RoutedForest, overflowed: &[bool]) {
        for i in 0..forest.num_slots() {
            self.overflow_touch[i] =
                forest.used_edges(i).iter().any(|&(e, _)| overflowed[e as usize]);
        }
    }

    /// Recomputes the per-net negative-slack flags from a timing report.
    pub(crate) fn set_neg_slack(&mut self, sink_node: &[Vec<u32>], report: &TimingReport) {
        for (i, sinks) in sink_node.iter().enumerate() {
            self.neg_slack[i] = sinks.iter().any(|&s| {
                let sl = report.slack[s as usize];
                sl.is_finite() && sl < 0.0
            });
        }
    }

    /// Whether net `i` has been routed at least once.
    pub(crate) fn has_routed(&self, i: usize) -> bool {
        self.routed[i]
    }

    /// Net `i`'s accumulated window price drift since its last route
    /// (checkpoint serialization).
    pub(crate) fn drift(&self, i: usize) -> f64 {
        self.drift[i]
    }

    /// Restores net `i`'s scheduler state from a checkpoint: the
    /// routed flag, the accumulated drift, and the weight/budget
    /// references of its last actual route. The derived flags
    /// (overflow touch, negative slack) and the price baseline
    /// ([`prime_prices`](Self::prime_prices)) are restored separately —
    /// they are recomputable from the restored routing/timing state.
    pub(crate) fn restore_net(
        &mut self,
        i: usize,
        routed: bool,
        drift: f64,
        weight_ref: &[f64],
        budget_ref: Option<&[f64]>,
    ) {
        self.routed[i] = routed;
        self.drift[i] = drift;
        self.weight_ref[i].clear();
        self.weight_ref[i].extend_from_slice(weight_ref);
        self.budget_ref[i] = budget_ref.map(<[f64]>::to_vec);
    }

    /// The weights net `i` was last routed with (what a harvest must
    /// report for a net whose kept route predates the final iteration).
    pub(crate) fn last_routed_weights(&self, i: usize) -> &[f64] {
        &self.weight_ref[i]
    }

    /// The budgets net `i` was last routed with.
    pub(crate) fn last_routed_budgets(&self, i: usize) -> Option<&[f64]> {
        self.budget_ref[i].as_deref()
    }

    /// Snapshots the inputs net `i` was just routed with and clears its
    /// accumulated drift.
    pub(crate) fn note_routed(&mut self, i: usize, weights: &[f64], budgets: Option<&[f64]>) {
        self.routed[i] = true;
        self.drift[i] = 0.0;
        self.weight_ref[i].clear();
        self.weight_ref[i].extend_from_slice(weights);
        match (budgets, &mut self.budget_ref[i]) {
            (Some(b), Some(r)) => {
                r.clear();
                r.extend_from_slice(b);
            }
            (Some(b), slot @ None) => *slot = Some(b.to_vec()),
            (None, slot) => *slot = None,
        }
    }

    /// Whether net `i` must be rerouted this iteration, and why.
    /// `budget_sensitive` is the oracle's
    /// [`uses_budgets`](crate::SteinerOracle::uses_budgets): when the
    /// oracle never reads budgets, budget movement cannot change its
    /// output and is ignored.
    pub(crate) fn dirty_cause(
        &self,
        i: usize,
        weights: &[f64],
        budgets: Option<&[f64]>,
        budget_sensitive: bool,
    ) -> Option<DirtyCause> {
        if !self.routed[i] {
            return Some(DirtyCause::Fresh);
        }
        if self.overflow_touch[i] {
            return Some(DirtyCause::Overflow);
        }
        if self.neg_slack[i] {
            return Some(DirtyCause::Timing);
        }
        if self.drift[i] > self.price_tol {
            return Some(DirtyCause::Price);
        }
        let wd = self.weight_ref[i]
            .iter()
            .zip(weights)
            .map(|(&a, &b)| rel_weight(a, b))
            .fold(0.0f64, f64::max);
        if wd > self.price_tol {
            return Some(DirtyCause::Weight);
        }
        if budget_sensitive {
            let bd = match (self.budget_ref[i].as_deref(), budgets) {
                (None, None) => 0.0,
                (Some(r), Some(b)) => {
                    r.iter().zip(b).map(|(&a, &b)| rel(a, b)).fold(0.0f64, f64::max)
                }
                _ => f64::INFINITY,
            };
            if bd > self.price_tol {
                return Some(DirtyCause::Budget);
            }
        }
        None
    }
}
