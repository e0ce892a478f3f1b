#![forbid(unsafe_code)]
//! Timing-constrained global routing with a Steiner tree oracle.
//!
//! A laptop-scale reproduction of the routing framework the paper
//! evaluates in (§IV, after Held et al. \[13\]): Lagrangean relaxation of
//! the global timing and routing constraints turns the per-net subproblem
//! into exactly the cost-distance Steiner tree problem of Eq. (1) — edge
//! prices `c(e)` from congestion, sink delay weights `w(t)` from timing
//! criticality. The loop:
//!
//! 1. price every edge from current usage (multiplicative weights,
//!    prices never drop below base cost so A* stays admissible),
//! 2. rip-up & re-route with the configured oracle (L1/SL/PD/CD, §IV-A)
//!    inside a bounding-box window, in parallel — every net in the
//!    first iteration, then (by default) only *dirty* nets: overflow
//!    touchers, negative-slack nets, and nets whose window prices /
//!    weights / budgets drifted beyond [`RouterConfig::price_tol`]
//!    (clean nets keep their routes; see the `schedule` module docs),
//! 3. run STA over the chip's timing chains — incrementally, only the
//!    cones of changed arcs — and update the delay weights from
//!    slacks, repeat.
//!
//! Outputs are the paper's Table IV/V columns: WS, TNS, ACE4, wirelength,
//! vias, walltime, plus [`RouterStats`] (how much rip-up actually ran).
//!
//! # Examples
//!
//! ```no_run
//! use cds_instgen::ChipSpec;
//! use cds_router::{Router, RouterConfig, SteinerMethod};
//!
//! let chip = ChipSpec::small_test(1).generate();
//! let config = RouterConfig { method: SteinerMethod::Cd, ..RouterConfig::default() };
//! let outcome = Router::new(&chip, config).run();
//! println!("WS {:.0}ps TNS {:.0}ps ACE4 {:.1}%", outcome.metrics.ws,
//!          outcome.metrics.tns, outcome.metrics.ace4);
//! ```

pub mod oracle;
pub mod report;
mod schedule;

pub use oracle::{
    CdOracle, L1Oracle, OracleRequest, OracleWorkspace, PdOracle, SlOracle, SteinerMethod,
    SteinerOracle, UnknownMethod,
};

use cds_core::{SessionConfig, SolveStats};
use cds_geom::Point;
use cds_graph::{
    window_bounds, EdgeAttrs, EdgeId, EdgeKind, RoutingSurface, ShardGrid, WindowView,
};
use cds_instgen::io::doc::{StateNet, StateSection, StateStats, StateTree};
use cds_instgen::Chip;
use cds_metrics::{
    ace4, forest_totals, overflow_flags, wire_congestion, wirelength_meters, RunMetrics,
};
use cds_sta::{IncrementalSta, TimingGraph, TimingReport};
use cds_topo::{BifurcationConfig, NodeKind, RoutedForest, TreeDump, TreeView};
use schedule::{DirtyCause, DirtyTracker};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Cooperative run control shared between a
/// [`Router::run_checkpointed`] call and whoever may want to stop it
/// (another thread, a server's `DELETE /jobs/:id` handler, a signal
/// hook).
///
/// Cancellation is checked once per rip-up iteration, *before*
/// iterations `1..`: the first iteration always completes, so a
/// cancelled run still returns a [`RoutingOutcome`] in which every net
/// has a route, final metrics/STA are consistent with the routed state,
/// and [`RouterStats::cancelled`] is set with the per-iteration
/// counters covering exactly the iterations that ran.
#[derive(Debug, Default)]
pub struct RunControl {
    cancelled: AtomicBool,
}

impl RunControl {
    /// A fresh, uncancelled control.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; the run stops before its next rip-up
    /// iteration. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

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
    /// shared across jobs keeps the largest worker set it ever needed).
    fn ensure(&mut self, n: usize) {
        if self.workers.len() < n {
            self.workers.resize_with(n, RouteWorker::default);
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Which Steiner oracle to use.
    pub method: SteinerMethod,
    /// Rip-up & re-route iterations.
    pub iterations: usize,
    /// Worker threads (the paper uses 16).
    pub threads: usize,
    /// Use the calibrated bifurcation penalty (`d_bif > 0` tables) or not.
    pub use_dbif: bool,
    /// λ shielding limit η.
    pub eta: f64,
    /// RNG seed (forwarded to CD's randomized placement).
    pub seed: u64,
    /// Routing window margin around each net's bounding box (gcells).
    pub window_margin: u32,
    /// Congestion price exponent per unit utilization, scaled by the
    /// iteration number.
    pub price_alpha: f64,
    /// Temperature (ps) of the slack → delay-weight update.
    pub weight_tau_ps: f64,
    /// Collect final-iteration instances for the Table I/II comparisons.
    pub harvest: bool,
    /// Incremental rip-up & re-route: after the first full iteration,
    /// reroute only *dirty* nets — a net touching an overflowed edge, a
    /// net with a negative-slack sink, or a net whose window prices /
    /// delay weights / budgets moved beyond [`price_tol`](Self::price_tol)
    /// since it was last routed — while clean nets keep their previous
    /// [`RoutedNet`] verbatim, with incremental usage accounting and
    /// incremental STA. `false` is the full-reroute reference backend
    /// (every net, every iteration), which incremental mode reproduces
    /// bit-identically at `price_tol: 0.0` (pinned by
    /// `tests/incremental.rs`).
    pub incremental: bool,
    /// Dirtiness tolerance of incremental mode: a clean net's window
    /// prices, delay weights and budgets (when the oracle reads them)
    /// must have stayed within this accumulated relative change since
    /// the net was last routed. `0.0` means "rip up on any bit of
    /// change" — exact but rarely skipping, because the sharpening
    /// price schedule (`alpha = price_alpha · iteration`) moves every
    /// used edge's price every iteration by roughly
    /// `exp(utilization) − 1`. The default of `2.0` lets a clean net's
    /// window prices move up to ~3× before a refresh reroute, which on
    /// a converging chip means quiet nets are revisited every few
    /// iterations while overflow/negative-slack nets (the nets that
    /// matter) are ripped up unconditionally every iteration.
    pub price_tol: f64,
    /// Every `recount_every` iterations incremental mode recomputes the
    /// usage vector exactly from all routed nets (and asserts the
    /// incremental accounting matched), bounding float drift from
    /// subtract/add cycles. `0` disables periodic recounts.
    pub recount_every: usize,
    /// Batched multi-sink search for the CD oracle: member searches
    /// survive sink–sink merges instead of restarting one labelling
    /// from each new Steiner terminal. Changes which trees are found —
    /// off by default so the pinned goldens stay put.
    pub batch: bool,
    /// Region-parallel routing: partition the die into this many
    /// rectangular shards ([`ShardGrid`]) and schedule each iteration's
    /// rip-up in two phases — nets whose routing window lies entirely
    /// inside one shard are claimed a whole shard at a time
    /// (embarrassingly parallel, good worker locality), then the
    /// boundary-crossing nets run through the plain per-net work queue.
    /// Purely a scheduling knob: per-net results depend only on per-net
    /// inputs and the merge stays in global net order, so results are
    /// bit-identical across shard counts (pinned alongside the thread
    /// pins). `1` (the default) is the unsharded work queue.
    pub shards: usize,
    /// Emit a resumable checkpoint (`cdst/2` `state` section) after
    /// every this many completed rip-up iterations, except after the
    /// final one. `0` (the default) disables checkpointing. A run
    /// resumed from such a checkpoint reproduces the uninterrupted
    /// run's checksum bit-for-bit (see [`Router::run_checkpointed`]).
    pub checkpoint_every: usize,
}

impl RouterConfig {
    /// Sets one knob from a textual `key value` pair — the interpreter
    /// of a `cdst/1` document's `config` records and `cds-cli`'s
    /// `--set` overrides. Keys are the field names of this struct
    /// (`oracle` is accepted as an alias for `method`); booleans accept
    /// `true/false/1/0/on/off`. [`records`](Self::records) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// An unknown key, an unparsable value, or a float outside the
    /// range the router can run with (non-finite, `eta` outside
    /// `[0, 1]`, `weight_tau_ps <= 0`, negative `price_alpha` or
    /// `price_tol`), as a human-readable message naming key and value.
    pub fn set_knob(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v} for {key}"))
        }
        /// A finite float that passes `ok` — a NaN let through here
        /// would surface as a solver assert inside the first routed net.
        fn float(key: &str, v: &str, ok: fn(f64) -> bool, want: &str) -> Result<f64, String> {
            let x: f64 = num(key, v)?;
            if x.is_finite() && ok(x) {
                Ok(x)
            } else {
                Err(format!("bad value {v} for {key} (want {want})"))
            }
        }
        fn boolean(key: &str, v: &str) -> Result<bool, String> {
            match v {
                "true" | "1" | "on" => Ok(true),
                "false" | "0" | "off" => Ok(false),
                _ => Err(format!("bad boolean {v} for {key} (want true/false/1/0/on/off)")),
            }
        }
        match key {
            "method" | "oracle" => self.method = value.parse().map_err(|e| format!("{e}"))?,
            "iterations" => self.iterations = num(key, value)?,
            "threads" => self.threads = num(key, value)?,
            "use_dbif" => self.use_dbif = boolean(key, value)?,
            "eta" => {
                self.eta = float(key, value, |x| (0.0..=1.0).contains(&x), "a number in [0, 1]")?
            }
            "seed" => self.seed = num(key, value)?,
            "window_margin" => self.window_margin = num(key, value)?,
            "price_alpha" => {
                self.price_alpha = float(key, value, |x| x >= 0.0, "a finite number >= 0")?
            }
            "weight_tau_ps" => {
                self.weight_tau_ps = float(key, value, |x| x > 0.0, "a finite number > 0")?
            }
            "harvest" => self.harvest = boolean(key, value)?,
            "incremental" => self.incremental = boolean(key, value)?,
            "price_tol" => {
                self.price_tol = float(key, value, |x| x >= 0.0, "a finite number >= 0")?
            }
            "recount_every" => self.recount_every = num(key, value)?,
            "batch" => self.batch = boolean(key, value)?,
            "shards" => self.shards = num(key, value)?,
            "checkpoint_every" => self.checkpoint_every = num(key, value)?,
            _ => return Err(format!("unknown router knob {key}")),
        }
        Ok(())
    }

    /// This config as `config` records — every knob
    /// [`set_knob`](Self::set_knob) accepts, in field order — so a
    /// checkpoint document resumed without any flags routes under
    /// exactly the config the interrupted run used. Replaying the
    /// records through `set_knob` reproduces `self`.
    pub fn records(&self) -> Vec<(String, String)> {
        let b = |v: bool| if v { "true" } else { "false" }.to_string();
        vec![
            ("oracle".into(), self.method.to_string()),
            ("iterations".into(), self.iterations.to_string()),
            ("threads".into(), self.threads.to_string()),
            ("use_dbif".into(), b(self.use_dbif)),
            ("eta".into(), format!("{:?}", self.eta)),
            ("seed".into(), self.seed.to_string()),
            ("window_margin".into(), self.window_margin.to_string()),
            ("price_alpha".into(), format!("{:?}", self.price_alpha)),
            ("weight_tau_ps".into(), format!("{:?}", self.weight_tau_ps)),
            ("harvest".into(), b(self.harvest)),
            ("incremental".into(), b(self.incremental)),
            ("price_tol".into(), format!("{:?}", self.price_tol)),
            ("recount_every".into(), self.recount_every.to_string()),
            ("batch".into(), b(self.batch)),
            ("shards".into(), self.shards.to_string()),
            ("checkpoint_every".into(), self.checkpoint_every.to_string()),
        ]
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            method: SteinerMethod::Cd,
            iterations: 5,
            threads: std::thread::available_parallelism().map_or(8, |p| p.get()).min(16),
            use_dbif: false,
            eta: 0.25,
            seed: 0xC0FFEE,
            window_margin: 6,
            price_alpha: 1.0,
            weight_tau_ps: 250.0,
            harvest: false,
            incremental: true,
            price_tol: 2.0,
            recount_every: 4,
            batch: false,
            shards: 1,
            checkpoint_every: 0,
        }
    }
}

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

/// Decodes a serialized checkpoint tree into the forest's structural
/// dump form (`cdst/2` kind codes: `-1` root, `-2` Steiner, `>= 0` the
/// sink index). Importing the dump reproduces node ids, CSR layout and
/// enumeration order bit-for-bit.
fn state_tree_to_dump(st: &StateTree) -> TreeDump {
    TreeDump {
        kinds: st
            .kinds
            .iter()
            .map(|&k| match k {
                -1 => NodeKind::Root,
                -2 => NodeKind::Steiner,
                j if j >= 0 => NodeKind::Sink(j as usize),
                // INVARIANT: validate_state_tree rejected any code below -2 at parse time.
                k => panic!("bad checkpoint node kind code {k}"),
            })
            .collect(),
        vertices: st.vertices.clone(),
        parents: st.parents.clone(),
        path_len: st.path_len.clone(),
        path_edges: st.path_edges.clone(),
    }
}

/// The inverse of [`state_tree_to_dump`], plus the summary spans the
/// dump does not carry (delays, wirelength, vias).
fn dump_to_state_tree(dump: TreeDump, sink_delays: &[f64], wl: f64, vias: usize) -> StateTree {
    StateTree {
        kinds: dump
            .kinds
            .iter()
            .map(|k| match k {
                NodeKind::Root => -1,
                NodeKind::Steiner => -2,
                NodeKind::Sink(j) => *j as i64,
            })
            .collect(),
        vertices: dump.vertices,
        parents: dump.parents,
        path_len: dump.path_len,
        path_edges: dump.path_edges,
        sink_delays: sink_delays.to_vec(),
        wirelength_gcells: wl,
        vias: vias as u64,
    }
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
    /// Deterministic fields only (see the type docs).
    fn eq(&self, o: &Self) -> bool {
        self.rerouted_per_iter == o.rerouted_per_iter
            && self.dirty_fresh == o.dirty_fresh
            && self.dirty_overflow == o.dirty_overflow
            && self.dirty_timing == o.dirty_timing
            && self.dirty_price == o.dirty_price
            && self.dirty_weight == o.dirty_weight
            && self.dirty_budget == o.dirty_budget
            && self.usage_recounts == o.usage_recounts
            && self.sta_nodes_retimed == o.sta_nodes_retimed
            && self.kernel_settled == o.kernel_settled
            && self.kernel_pushed == o.kernel_pushed
            && self.kernel_popped == o.kernel_popped
            && self.kernel_decreased == o.kernel_decreased
            && self.kernel_bucket_scans == o.kernel_bucket_scans
            && self.cancelled == o.cancelled
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
    /// of the total wall time).
    pub fn route_wall_s(&self) -> f64 {
        self.iter_wall_s.iter().sum()
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

/// The timing-constrained global router.
///
/// Dispatches every per-net routing call through a
/// [`SteinerOracle`] trait object: [`new`](Router::new) resolves the
/// configured [`SteinerMethod`] to its built-in oracle, and
/// [`with_oracle`](Router::with_oracle) accepts any external
/// implementation — the router itself never inspects the method again.
pub struct Router<'a> {
    chip: &'a Chip,
    config: RouterConfig,
    /// Chip-wide per-edge delays, computed once — window views index
    /// them directly with global edge ids, so no per-net delay vector
    /// is ever built.
    delays: Vec<f64>,
    oracle: Box<dyn SteinerOracle>,
}

impl<'a> Router<'a> {
    /// Prepares a router for `chip` with the built-in oracle named by
    /// `config.method`.
    pub fn new(chip: &'a Chip, config: RouterConfig) -> Self {
        let oracle: Box<dyn SteinerOracle> = if config.method == SteinerMethod::Cd && config.batch {
            // The static singleton behind `method.oracle()` is baked
            // with the default session config; the batch knob needs a
            // per-router oracle.
            Box::new(CdOracle::with_config(SessionConfig { batch: true, ..SessionConfig::DEFAULT }))
        } else {
            Box::new(config.method.oracle())
        };
        Self::with_oracle(chip, config, oracle)
    }

    /// Prepares a router that routes every net with the given oracle
    /// (`config.method` is ignored for routing and kept only for
    /// labels).
    pub fn with_oracle(
        chip: &'a Chip,
        config: RouterConfig,
        oracle: Box<dyn SteinerOracle>,
    ) -> Self {
        let delays = chip.grid.graph().delays();
        Router { chip, config, delays, oracle }
    }

    /// The oracle this router dispatches to.
    pub fn oracle(&self) -> &dyn SteinerOracle {
        self.oracle.as_ref()
    }

    /// The bifurcation config this run uses.
    pub fn bif(&self) -> BifurcationConfig {
        if self.config.use_dbif {
            BifurcationConfig::new(self.chip.delay_model.dbif_ps(), self.config.eta)
        } else {
            BifurcationConfig::ZERO
        }
    }

    /// Runs the full rip-up & re-route loop.
    ///
    /// With [`RouterConfig::incremental`] (the default), iterations
    /// after the first rip up only the nets the dirty-net scheduler
    /// marks (see [`RouterConfig::price_tol`]); clean nets keep their
    /// previous [`RoutedNet`] verbatim, usage is maintained by
    /// subtracting a ripped net's old edges and adding its new ones
    /// (with periodic exact recounts), and timing is refreshed by
    /// re-propagating only the cones of the arcs that changed
    /// ([`IncrementalSta`]). Determinism is preserved: the schedule is
    /// derived from shared per-iteration state, every per-net result
    /// depends only on that net's inputs, and results are identical
    /// across thread counts.
    pub fn run(&self) -> RoutingOutcome {
        self.run_checkpointed(
            &mut WorkerPool::new(),
            &RunControl::new(),
            &mut |_, _| {},
            None,
            &mut |_, _| {},
        )
    }

    /// [`run`](Self::run) with externally-owned warm state, cooperative
    /// control, and the checkpoint/resume surface — the form a
    /// long-running service and `cds-cli route` drive:
    ///
    /// * `pool` supplies the per-thread oracle workspaces and scratch
    ///   forests, kept warm across calls (and across different chips);
    ///   [`run`](Self::run) is exactly this with a throwaway pool.
    ///   Reuse is bit-identical to a fresh pool.
    /// * `ctrl` is polled between rip-up iterations; see [`RunControl`]
    ///   for the partial-result contract of a cancelled run.
    /// * `progress` is called after every completed iteration with the
    ///   iteration index and the stats accumulated so far (its
    ///   `rerouted_per_iter`/`iter_wall_s` tails are that iteration's
    ///   entries) — a server's status endpoint reads its snapshots.
    /// * with [`RouterConfig::checkpoint_every`] set, `on_checkpoint`
    ///   receives `(completed_iterations, state)` after every K-th
    ///   completed rip-up iteration (never after the final one — a
    ///   finished run has nothing to resume). The [`StateSection`] is
    ///   the `cdst/2` `state` payload: ledgers, per-net scheduler
    ///   state, every routed tree, and the deterministic work counters.
    /// * with `resume` set, the loop restores that state and continues
    ///   from its absolute iteration number — preserving the price
    ///   schedule (`alpha = price_alpha · iteration`), the recount
    ///   phase, and the dirty tracker's references — so the resumed
    ///   run's outcome checksum is bit-for-bit the uninterrupted run's
    ///   (pinned by `checkpoint_resume_reproduces_the_uninterrupted_checksum`).
    ///
    /// # Panics
    ///
    /// Panics if `resume` does not belong to this chip/config (ledger
    /// or arity mismatch, or an incremental run handed the state of an
    /// `incremental = false` one, which carries no scheduler state).
    /// Parse-level validation (`cdst/2` documents) catches malformed
    /// state before it gets here.
    pub fn run_checkpointed(
        &self,
        pool: &mut WorkerPool,
        ctrl: &RunControl,
        progress: &mut dyn FnMut(usize, &RouterStats),
        resume: Option<&StateSection>,
        on_checkpoint: &mut dyn FnMut(usize, StateSection),
    ) -> RoutingOutcome {
        let start = Instant::now();
        let chip = self.chip;
        let g = chip.grid.graph();
        let m = g.num_edges();
        let n = chip.nets.len();
        let base: Vec<f64> = g.base_costs();
        let bif = self.bif();
        let incremental = self.config.incremental;

        // timing: the DAG skeleton, analyzed fully every iteration in
        // the reference path, or held by the incremental engine
        let (tg_template, net_nodes) = self.build_timing_graph();
        let mut tg = tg_template;

        // Per-sink delay weights (Lagrange multipliers). The floor keeps
        // every sink's delay weakly priced — TNS counts all endpoints, so
        // a zero-weight sink would otherwise be free to meander.
        let mut weights: Vec<Vec<f64>> =
            chip.nets.iter().map(|n| vec![0.05; n.sinks.len()]).collect();
        // per-sink budgets for SL (None before the first STA)
        let mut budgets: Vec<Option<Vec<f64>>> = vec![None; n];

        let mut usage = vec![0.0f64; m];
        let mut usage_hist = vec![0.0f64; m];
        // every net's routed tree + summary spans, double-buffered;
        // replaced spans become garbage and are compacted when they
        // outgrow the live data
        let mut forest = RoutedForest::with_slots(n);
        let mut stats = RouterStats::default();
        let mut tracker = incremental
            .then(|| DirtyTracker::new(chip, self.config.window_margin, self.config.price_tol));

        // restore a checkpoint: ledgers and weights verbatim, trees by
        // structural import (attachment order reproduces node ids and
        // enumeration bit-for-bit), used-edge spans recomputed from the
        // imported paths by the same rule the route path uses
        let start_iter = resume.map_or(0, |s| s.iteration);
        if let Some(s) = resume {
            assert!(
                s.iteration >= 1
                    && s.usage.len() == m
                    && s.nets.len() == n
                    && (!incremental || s.prices.len() == m),
                "resume state does not match this chip, or an incremental run was handed \
                 the state of an incremental=false run (no scheduler state)"
            );
            usage.copy_from_slice(&s.usage);
            usage_hist.copy_from_slice(&s.usage_hist);
            for (i, sn) in s.nets.iter().enumerate() {
                weights[i].clone_from(&sn.weights);
                budgets[i].clone_from(&sn.budgets);
            }
            for &(id, ref st) in &s.trees {
                forest.import_tree(id, &state_tree_to_dump(st));
                forest.set_sink_delays(id, &st.sink_delays);
                forest.set_used_from_paths(id, |e| (e, Self::tracks(g.edge(e))));
                forest.set_summary(id, st.wirelength_gcells, st.vias as usize);
            }
            stats.rerouted_per_iter.clone_from(&s.stats.rerouted_per_iter);
            [
                stats.dirty_fresh,
                stats.dirty_overflow,
                stats.dirty_timing,
                stats.dirty_price,
                stats.dirty_weight,
                stats.dirty_budget,
            ] = s.stats.dirty;
            stats.usage_recounts = s.stats.usage_recounts;
            stats.sta_nodes_retimed = s.stats.sta_nodes_retimed as u64;
            [
                stats.kernel_settled,
                stats.kernel_pushed,
                stats.kernel_popped,
                stats.kernel_decreased,
                stats.kernel_bucket_scans,
            ] = s.stats.kernel;
            // restored iterations have no wall-clock record; pad so the
            // per-iteration arrays stay aligned with the counters
            stats.iter_wall_s.resize(s.iteration, 0.0);
            // arcs carry exactly the kept routes' delays (every arc was
            // last written by the iteration that routed its net, whose
            // route the forest holds), so rebuilding them from the
            // forest reproduces the engine's timing state
            for i in 0..n {
                tg.set_arc_delays(&net_nodes.sink_arc[i], forest.sink_delays(i));
            }
        }

        let mut sta = incremental.then(|| IncrementalSta::new(&tg));
        // full-reroute mode's report; incremental mode always reads the
        // engine's (which analyzed fully at construction)
        let mut report = (!incremental).then(|| tg.analyze());
        // continuity of the cumulative retime counter across a resume:
        // the engine's deltas after the checkpoint are identical in the
        // resumed and uninterrupted runs (pure function of arc changes),
        // so checkpoint value + post-construction deltas matches
        let (retimed_base, retimed_initial) = match resume {
            Some(s) => {
                (s.stats.sta_nodes_retimed as u64, sta.as_ref().map_or(0, |e| e.total_retimed()))
            }
            None => (0, 0),
        };
        if let (Some(s), Some(t)) = (resume, &mut tracker) {
            t.prime_prices(&s.prices);
            for (i, sn) in s.nets.iter().enumerate() {
                t.restore_net(i, sn.routed, sn.drift, &sn.weight_ref, sn.budget_ref.as_deref());
            }
            // the overflow/negative-slack flags are derived state:
            // recompute them from the restored usage and timing exactly
            // as the checkpointing iteration's tail did
            let overflowed = overflow_flags(g, &usage);
            t.set_overflow_touch(&forest, &overflowed);
            if let Some(engine) = &sta {
                t.set_neg_slack(&net_nodes.sink_node, engine.report());
            }
        }

        // weights/budgets as routed by the *final* iteration, for harvest
        let mut harvest_weights: Vec<Vec<f64>> = Vec::new();
        let mut harvest_budgets: Vec<Option<Vec<f64>>> = Vec::new();
        if self.config.harvest {
            harvest_weights = weights.clone();
            harvest_budgets = budgets.clone();
        }

        // one warm worker per thread — oracle workspace plus a scratch
        // forest the worker routes into — reused across nets, rip-up
        // iterations, and (through the caller's pool) whole jobs;
        // results are merged into the chip-wide forest in deterministic
        // net order by span copies. The dispatcher never runs more
        // workers than nets, so neither does the pool hold more (a
        // `threads` knob from outside the program must not size memory).
        let num_workers = self.config.threads.max(1).min(n.max(1));
        pool.ensure(num_workers);
        let workers = &mut pool.workers;

        for iter in start_iter..self.config.iterations {
            // cooperative cancellation point: iteration 0 always runs,
            // so even a cancelled outcome has every net routed
            if iter > 0 && ctrl.is_cancelled() {
                stats.cancelled = true;
                break;
            }
            let iter_start = Instant::now();
            // 1. prices from damped usage (history smoothing avoids the
            //    herding oscillation of cost-seeking oracles on frozen
            //    prices)
            let prices = self.compute_prices(&base, &usage_hist, iter);

            // 1b. schedule: which nets this iteration rips up. The first
            //     iteration (and every full-reroute iteration) takes all
            //     of them; afterwards only dirty nets.
            let dirty: Vec<usize> = match &mut tracker {
                Some(t) if iter > 0 => {
                    t.accumulate_drift(&chip.grid, &prices);
                    let budget_sensitive = self.oracle.uses_budgets();
                    (0..n)
                        .filter(|&i| {
                            match t.dirty_cause(
                                i,
                                &weights[i],
                                budgets[i].as_deref(),
                                budget_sensitive,
                            ) {
                                Some(cause) => {
                                    stats.note(cause);
                                    true
                                }
                                None => false,
                            }
                        })
                        .collect()
                }
                _ => {
                    if let Some(t) = &mut tracker {
                        t.prime_prices(&prices);
                    }
                    stats.dirty_fresh += n;
                    (0..n).collect()
                }
            };
            stats.rerouted_per_iter.push(dirty.len());

            // 2. route the scheduled nets in parallel on frozen prices
            //    (into per-worker scratch forests), then merge into the
            //    chip-wide forest in deterministic net order
            let (placements, kernel) = self.route_ids_into(
                &dirty,
                &prices,
                &weights,
                &budgets,
                bif,
                &mut workers[..num_workers],
            );
            stats.add_kernel(kernel);

            // 3. usage accounting: full sweeps recompute from scratch
            //    (the reference rule); partial sweeps subtract each
            //    ripped net's old span and add its new one — both walk
            //    contiguous span memory
            if dirty.len() == n {
                forest.clear_trees();
                for (k, &(wi, wslot)) in placements.iter().enumerate() {
                    forest.copy_tree_from(&workers[wi].forest, wslot, dirty[k]);
                }
                accumulate_usage(&forest, &mut usage);
            } else {
                for (k, &(wi, wslot)) in placements.iter().enumerate() {
                    let i = dirty[k];
                    for &(e, tracks) in forest.used_edges(i) {
                        usage[e as usize] -= tracks;
                    }
                    forest.copy_tree_from(&workers[wi].forest, wslot, i);
                    for &(e, tracks) in forest.used_edges(i) {
                        usage[e as usize] += tracks;
                    }
                }
                // periodic exact recount bounds float drift from the
                // subtract/add cycles and asserts the incremental
                // accounting stayed consistent
                if self.config.recount_every > 0 && (iter + 1) % self.config.recount_every == 0 {
                    let mut recount = vec![0.0f64; m];
                    accumulate_usage(&forest, &mut recount);
                    for (e, (&r, &u)) in recount.iter().zip(&usage).enumerate() {
                        assert!(
                            (r - u).abs() <= 1e-6 * r.abs().max(u.abs()).max(1.0),
                            "incremental usage drifted at edge {e}: {u} vs recount {r}"
                        );
                    }
                    usage = recount;
                    stats.usage_recounts += 1;
                }
            }

            // snapshot the inputs the ripped nets were routed with (the
            // dirtiness reference for later iterations), and flag nets
            // now touching overflowed edges
            if let Some(t) = &mut tracker {
                for &i in &dirty {
                    t.note_routed(i, &weights[i], budgets[i].as_deref());
                }
                let overflowed = overflow_flags(g, &usage);
                t.set_overflow_touch(&forest, &overflowed);
            }

            // blend into the pricing history
            for (h, &u) in usage_hist.iter_mut().zip(&usage) {
                *h = if iter == 0 { u } else { 0.5 * *h + 0.5 * u };
            }

            // 4. timing update: the reference path rewrites every arc
            //    and re-analyzes the DAG; the incremental engine takes
            //    only the ripped nets' arcs and re-propagates their cones
            match &mut sta {
                Some(s) => {
                    for &i in &dirty {
                        s.set_arc_delays(&net_nodes.sink_arc[i], forest.sink_delays(i));
                    }
                    s.refresh();
                    stats.sta_nodes_retimed = retimed_base + (s.total_retimed() - retimed_initial);
                }
                None => {
                    for i in 0..n {
                        tg.set_arc_delays(&net_nodes.sink_arc[i], forest.sink_delays(i));
                    }
                    report = Some(tg.analyze());
                }
            }
            // this iteration's report — borrowed from the engine in
            // incremental mode, no per-iteration clone
            let rep: &TimingReport = match (&sta, &report) {
                (Some(s), _) => s.report(),
                (None, Some(r)) => r,
                // INVARIANT: full mode computed report before the loop and incremental mode owns an sta, so one arm above always matches.
                (None, None) => unreachable!("full mode analyzed above"),
            };
            if let Some(t) = &mut tracker {
                t.set_neg_slack(&net_nodes.sink_node, rep);
            }

            // the final iteration's weights/budgets are harvested *as
            // routed*, before the closing slack update below rewrites
            // them (the update's output never routes anything)
            if self.config.harvest && iter + 1 == self.config.iterations {
                harvest_weights.clone_from(&weights);
                harvest_budgets.clone_from(&budgets);
            }

            // 5. weight & budget updates from slacks
            for (i, net) in chip.nets.iter().enumerate() {
                let mut b = Vec::with_capacity(net.sinks.len());
                // j indexes three parallel arrays; an iterator zip would
                // only obscure that
                #[allow(clippy::needless_range_loop)]
                for j in 0..net.sinks.len() {
                    let node = net_nodes.sink_node[i][j];
                    let slack = rep.slack[node as usize];
                    if slack.is_finite() {
                        let f = (-slack / self.config.weight_tau_ps).exp();
                        weights[i][j] = (weights[i][j] * f).clamp(1e-3, 2.0);
                    }
                    // absolute budget: what timing actually allows this
                    // sink — achieved delay plus its slack (floored at
                    // the direct-connection delay, which is always
                    // achievable)
                    let direct = net.root.l1(net.sinks[j]) as f64 * chip.grid.min_delay_per_gcell()
                        + 2.0 * chip.grid.spec().via_delay; // true lower bound
                    let achieved = forest.sink_delays(i)[j];
                    let allowed = if slack.is_finite() { achieved + slack } else { f64::MAX / 4.0 };
                    b.push(allowed.max(direct));
                }
                budgets[i] = Some(b);
            }

            // arena upkeep: compact once replaced spans outweigh live
            // data (deterministic — a function of routed data only),
            // then record this iteration's observability counters
            if forest.garbage_ratio() > 0.5 {
                forest.compact();
            }
            let arena =
                forest.arena_bytes() + workers.iter().map(|w| w.forest.arena_bytes()).sum::<u64>();
            stats.peak_arena_bytes = stats.peak_arena_bytes.max(arena);
            stats.iter_wall_s.push(iter_start.elapsed().as_secs_f64());
            progress(iter, &stats);

            // periodic resumable checkpoint — after the weight/budget
            // update so the state is exactly the loop's carry into the
            // next iteration; the final iteration is skipped (a
            // finished run has nothing to resume)
            if self.config.checkpoint_every > 0
                && (iter + 1) % self.config.checkpoint_every == 0
                && iter + 1 < self.config.iterations
            {
                let state = self.export_state(
                    iter + 1,
                    &stats,
                    &usage,
                    &usage_hist,
                    if incremental { &prices } else { &[] },
                    &weights,
                    &budgets,
                    &forest,
                    tracker.as_ref(),
                );
                on_checkpoint(iter + 1, state);
            }
        }

        // final usage/price consistency: the returned prices are
        // recomputed from the final usage history, so they correspond to
        // the returned usage rather than to the previous iteration's
        // (cancelled runs price at the iteration they actually reached)
        let prices = self.compute_prices(&base, &usage_hist, stats.iterations_completed());
        let report = match &sta {
            Some(s) => s.report().clone(),
            // INVARIANT: sta is None exactly in full mode, which analyzed the DAG into report before the loop.
            None => report.expect("full mode analyzed the DAG before the loop"),
        };

        // final metrics, straight off the forest's summary directory
        let cong = wire_congestion(g, &usage);
        let (wl_gcells, vias) = forest_totals(&forest);
        let metrics = RunMetrics {
            ws: report.ws,
            tns: report.tns,
            ace4: ace4(&cong),
            wl_m: wirelength_meters(wl_gcells, chip.grid.spec().gcell_um),
            vias,
            walltime_s: start.elapsed().as_secs_f64(),
        };
        let harvest = if self.config.harvest {
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
                    let (weights, budgets) = match &tracker {
                        Some(t) if t.has_routed(i) => (
                            t.last_routed_weights(i).to_vec(),
                            t.last_routed_budgets(i).map_or_else(Vec::new, <[f64]>::to_vec),
                        ),
                        _ => (
                            harvest_weights[i].clone(),
                            harvest_budgets[i].clone().unwrap_or_default(),
                        ),
                    };
                    HarvestedInstance { net: i, weights, budgets }
                })
                .collect()
        } else {
            Vec::new()
        };
        RoutingOutcome { metrics, timing: report, usage, prices, forest, harvest, stats }
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
    fn route_one_into(
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
        pins.clear();
        pins.push(net.root);
        pins.extend_from_slice(&net.sinks);
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
        forest.set_used_from_paths(slot, |e| (e, Self::tracks(g.edge(e))));
        forest.set_summary(slot, wl, vias);
        ws.eval = eval;
        ws.pins = pins;
        ws.local_sinks = local_sinks;
        (totals.total, kstats)
    }

    /// Snapshots the rip-up loop's carry state after `iteration`
    /// completed iterations as a `cdst/2` `state` section. Everything
    /// the loop reads at the top of the next iteration is captured:
    /// ledgers, current weights/budgets, the dirty tracker's
    /// references, every routed tree (structure + summary spans), and
    /// the deterministic work counters.
    #[allow(clippy::too_many_arguments)]
    fn export_state(
        &self,
        iteration: usize,
        stats: &RouterStats,
        usage: &[f64],
        usage_hist: &[f64],
        prices: &[f64],
        weights: &[Vec<f64>],
        budgets: &[Option<Vec<f64>>],
        forest: &RoutedForest,
        tracker: Option<&DirtyTracker>,
    ) -> StateSection {
        let n = self.chip.nets.len();
        let mut nets = Vec::with_capacity(n);
        let mut trees = Vec::with_capacity(n);
        for i in 0..n {
            let (routed, drift, weight_ref, budget_ref) = match tracker {
                Some(t) => (
                    t.has_routed(i),
                    t.drift(i),
                    t.last_routed_weights(i).to_vec(),
                    t.last_routed_budgets(i).map(<[f64]>::to_vec),
                ),
                // full-reroute mode has no scheduler state: every net
                // reroutes every iteration regardless
                None => (true, 0.0, Vec::new(), None),
            };
            nets.push(StateNet {
                routed,
                drift,
                weights: weights[i].clone(),
                budgets: budgets[i].clone(),
                weight_ref,
                budget_ref,
            });
            if routed {
                trees.push((
                    i,
                    dump_to_state_tree(
                        forest.export_tree(i),
                        forest.sink_delays(i),
                        forest.wirelength_gcells(i),
                        forest.vias(i),
                    ),
                ));
            }
        }
        StateSection {
            iteration,
            usage: usage.to_vec(),
            usage_hist: usage_hist.to_vec(),
            prices: prices.to_vec(),
            nets,
            trees,
            stats: StateStats {
                rerouted_per_iter: stats.rerouted_per_iter.clone(),
                dirty: [
                    stats.dirty_fresh,
                    stats.dirty_overflow,
                    stats.dirty_timing,
                    stats.dirty_price,
                    stats.dirty_weight,
                    stats.dirty_budget,
                ],
                usage_recounts: stats.usage_recounts,
                sta_nodes_retimed: stats.sta_nodes_retimed as usize,
                kernel: [
                    stats.kernel_settled,
                    stats.kernel_pushed,
                    stats.kernel_popped,
                    stats.kernel_decreased,
                    stats.kernel_bucket_scans,
                ],
            },
        }
    }

    /// Routing capacity one use of `e` consumes (wide wire types take
    /// two tracks).
    fn tracks(attrs: &EdgeAttrs) -> f64 {
        if attrs.kind == EdgeKind::Wire && attrs.wire_type == 1 {
            2.0
        } else {
            1.0
        }
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
    fn claim_plan(&self, ids: &[usize]) -> (Vec<Vec<usize>>, Vec<usize>) {
        if self.config.shards <= 1 {
            return (Vec::new(), (0..ids.len()).collect());
        }
        let spec = self.chip.grid.spec();
        let grid = ShardGrid::new(spec.nx, spec.ny, self.config.shards);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); grid.num_shards()];
        let mut per_net: Vec<usize> = Vec::new();
        let mut pins = Vec::new();
        for (k, &net_id) in ids.iter().enumerate() {
            let net = &self.chip.nets[net_id];
            pins.clear();
            pins.push(net.root);
            pins.extend_from_slice(&net.sinks);
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
    fn route_ids_into(
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

    /// Multiplicative-weight congestion pricing: price never drops below
    /// base cost (A* admissibility) and grows exponentially with
    /// utilization, sharpening each iteration.
    fn compute_prices(&self, base: &[f64], usage: &[f64], iteration: usize) -> Vec<f64> {
        let g = self.chip.grid.graph();
        let alpha = self.config.price_alpha * iteration as f64;
        base.iter()
            .enumerate()
            .map(|(e, &b)| {
                let cap = g.edge(e as EdgeId).capacity.max(1e-9);
                // cap the exponent so hopeless hot spots do not destroy
                // the price landscape for everyone else
                b * (alpha * usage[e] / cap).min(6.0).exp()
            })
            .collect()
    }

    /// Builds the chip's timing DAG: one node per net root and per sink,
    /// net arcs (updated every iteration) and fixed cell arcs along the
    /// chains; ATs at chain heads, RATs at all true endpoints.
    fn build_timing_graph(&self) -> (TimingGraph, NetNodes) {
        let chip = self.chip;
        let mut count = 0u32;
        let mut root_node = Vec::with_capacity(chip.nets.len());
        let mut sink_node = Vec::with_capacity(chip.nets.len());
        for net in &chip.nets {
            root_node.push(count);
            count += 1;
            let mut s = Vec::with_capacity(net.sinks.len());
            for _ in &net.sinks {
                s.push(count);
                count += 1;
            }
            sink_node.push(s);
        }
        let mut tg = TimingGraph::new(count as usize);
        // net arcs with placeholder direct-delay estimates, matching the
        // generator's typical-layer model so RAT distribution is sane
        let typ = cds_instgen::typical_delay_per_gcell(&chip.delay_model);
        let est = |a: Point, b: Point| -> f64 {
            a.l1(b) as f64 * typ * 1.15 + 2.0 * chip.grid.spec().via_delay
        };
        let mut sink_arc = Vec::with_capacity(chip.nets.len());
        for (i, net) in chip.nets.iter().enumerate() {
            let mut arcs = Vec::with_capacity(net.sinks.len());
            for (j, &s) in net.sinks.iter().enumerate() {
                arcs.push(tg.add_arc(root_node[i], sink_node[i][j], est(net.root, s)));
            }
            sink_arc.push(arcs);
        }
        // chains: cell arcs, inputs, RATs
        for chain in &chip.chains {
            // INVARIANT: workload validation rejects empty chains at parse time.
            let first = chain.links.first().expect("chains are nonempty");
            tg.set_input(root_node[first.net], 0.0);
            // prefix of estimated stage delays, for distributing the RAT
            // over intermediate endpoints. A chain of L links crosses
            // L−1 cells (between consecutive stages); the terminal link
            // ends at true endpoints with no downstream cell, so neither
            // the total nor the terminal endpoints' RAT positions may
            // count one.
            let mut prefix = 0.0;
            let mut est_total = 0.0;
            for (li, link) in chain.links.iter().enumerate() {
                let net = &chip.nets[link.net];
                let stage_sink = match link.cont_sink {
                    Some(s) => net.sinks[s],
                    None => {
                        // INVARIANT: workload validation rejects nets without sinks at parse time.
                        *net.sinks.iter().max_by_key(|&&s| s.l1(net.root)).expect("nets have sinks")
                    }
                };
                let cell = if li + 1 == chain.links.len() { 0.0 } else { chip.cell_delay_ps };
                est_total += est(net.root, stage_sink) + cell;
            }
            let scale = chain.rat_ps / est_total.max(1e-9);
            for (li, link) in chain.links.iter().enumerate() {
                let net = &chip.nets[link.net];
                let downstream_cell =
                    if li + 1 == chain.links.len() { 0.0 } else { chip.cell_delay_ps };
                for (j, &s) in net.sinks.iter().enumerate() {
                    let is_cont = link.cont_sink == Some(j);
                    if is_cont {
                        // cell arc to the next stage's root
                        let next = chain.links[li + 1].net;
                        tg.add_arc(sink_node[link.net][j], root_node[next], chip.cell_delay_ps);
                    } else {
                        // endpoint: RAT proportional to its estimated
                        // position on the chain
                        let rat = (prefix + est(net.root, s) + downstream_cell) * scale;
                        tg.set_required(sink_node[link.net][j], rat);
                    }
                }
                let stage_sink = match link.cont_sink {
                    Some(s) => net.sinks[s],
                    None => {
                        // INVARIANT: workload validation rejects nets without sinks at parse time.
                        *net.sinks.iter().max_by_key(|&&s| s.l1(net.root)).expect("nets have sinks")
                    }
                };
                prefix += est(net.root, stage_sink) + chip.cell_delay_ps;
            }
        }
        (tg, NetNodes { sink_node, sink_arc })
    }
}

/// One router worker's persistent state: a warm oracle workspace plus
/// the scratch forest it routes into each iteration (merged into the
/// chip-wide forest by the main thread, in net order).
#[derive(Debug, Default)]
struct RouteWorker {
    ws: OracleWorkspace,
    forest: RoutedForest,
}

/// Timing-node bookkeeping per net.
struct NetNodes {
    sink_node: Vec<Vec<u32>>,
    sink_arc: Vec<Vec<u32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Router::new(&chip, RouterConfig { threads: 7, iterations: 1, ..Default::default() })
                .run();
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
                let mut seen: Vec<usize> =
                    groups.iter().flatten().chain(&per_net).copied().collect();
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
            ("batch", "on"),
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
        assert!(c.batch);
        assert_eq!(c.shards, 4);
        assert_eq!(c.checkpoint_every, 2);
        c.set_knob("method", "pd").unwrap();
        assert_eq!(c.method, SteinerMethod::Pd);
        assert!(c.set_knob("bogus", "1").unwrap_err().contains("unknown"));
        assert!(c.set_knob("oracle", "astar").unwrap_err().contains("astar"));
        assert!(c.set_knob("incremental", "maybe").unwrap_err().contains("boolean"));
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
        ] {
            let mut c = RouterConfig::default();
            let err = c.set_knob(k, v).expect_err(&format!("{k}={v} accepted"));
            assert!(err.contains(k) && err.contains(v), "{k}={v}: {err}");
            assert_eq!(format!("{c:?}"), reference, "{k}={v} was rejected but stored");
        }
        // the closed ends of the ranges are legal
        let mut c = RouterConfig::default();
        for (k, v) in [("eta", "0"), ("eta", "1"), ("price_alpha", "0"), ("price_tol", "0")] {
            c.set_knob(k, v).unwrap_or_else(|e| panic!("{k}={v}: {e}"));
        }
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
            batch: true,
            shards: 6,
            checkpoint_every: 2,
        };
        let fields = |c: &RouterConfig| -> Vec<String> {
            format!("{c:?}").split(", ").map(String::from).collect()
        };
        let (d, a) = (fields(&defaults), fields(&all_changed));
        assert_eq!(d.len(), 16);
        assert!(d.iter().zip(&a).all(|(x, y)| x != y), "a field kept its default: {a:?}");
        for config in [defaults, all_changed] {
            let records = config.records();
            assert_eq!(records.len(), 16);
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
            Router::new(
                &chip,
                RouterConfig { shards, threads, iterations: 2, ..Default::default() },
            )
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
            let cfg = RouterConfig {
                iterations: 4,
                checkpoint_every: 2,
                incremental,
                ..Default::default()
            };
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
        let cfg = RouterConfig {
            iterations: 3,
            checkpoint_every: 2,
            harvest: true,
            ..Default::default()
        };
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
    fn uncancelled_run_with_matches_run_bit_for_bit() {
        let chip = tiny_chip();
        let config = RouterConfig { iterations: 3, ..Default::default() };
        let plain = Router::new(&chip, config.clone()).run();
        assert!(!plain.stats.cancelled);
        let mut pool = WorkerPool::new();
        let controlled = run_on(&Router::new(&chip, config), &mut pool);
        assert_eq!(plain.checksum(), controlled.checksum());
        assert_eq!(plain.stats, controlled.stats);
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
        let net_b =
            Net { root: Point::new(6, 0), sinks: vec![Point::new(10, 0), Point::new(6, 3)] };
        chip.nets = vec![net_a, net_b];
        chip.chains = vec![Chain {
            links: vec![
                ChainLink { net: 0, cont_sink: Some(0) },
                ChainLink { net: 1, cont_sink: None },
            ],
            rat_ps: 1000.0,
        }];
        let router = Router::new(&chip, RouterConfig::default());
        let (tg, nodes) = router.build_timing_graph();
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
}
