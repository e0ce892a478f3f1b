//! The solver session API: reusable workspaces for rip-up & re-route
//! workloads.
//!
//! The paper's headline result (§IV) is that the cost-distance algorithm
//! is fast enough to serve as the per-net oracle inside a Lagrangean
//! rip-up-and-reroute loop — *millions* of solve calls over a chip.
//!
//! A [`Solver`] is a session object that keeps every search structure
//! (label slabs, the queue, candidate stores) in a [`SolverWorkspace`]
//! and clears-and-reuses them call after call:
//!
//! ```
//! use cds_core::{Request, SessionConfig, Solver};
//! use cds_graph::GridSpec;
//!
//! let grid = GridSpec::uniform(8, 8, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//! let mut solver = Solver::with_config(SessionConfig { seed: 7, ..SessionConfig::DEFAULT });
//! for k in 1..6u32 {
//!     let sinks = [grid.vertex(7, k % 8, 0), grid.vertex(k % 8, 7, 0)];
//!     let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[1.0, 2.0]);
//!     let result = solver.solve(&req);
//!     assert!(result.evaluation.total > 0.0);
//! }
//! ```
//!
//! Results are specified to be **bit-identical** to solving on a fresh
//! workspace: a reused one only retains *capacity*, never state, and
//! the solver contains no iteration-order-sensitive reads of its hash
//! tables. `tests/determinism.rs` pins that contract.
//!
//! Parallel callers hold one [`SolverWorkspace`] per worker thread and
//! call [`Solver::solve_with`] / [`Solver::solve_into`] — the router's
//! `WorkerPool` does.

use crate::assemble::{assemble_tree_in, assemble_tree_into};
use crate::future::GridFutureCost;
use crate::solver::{solve_core, SolveResult, SolveStats, SolverWorkspace};
use cds_graph::{Graph, SteinerGraph, VertexId};
use cds_topo::{BifurcationConfig, RoutedForest};

/// Session-level solver configuration: the §III enhancement toggles and
/// the default RNG seed. Owned (the borrowed per-net inputs live in the
/// [`Request`]), so a session can outlive any one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// §III-A component discounting.
    pub discount_components: bool,
    /// §III-D Steiner re-embedding.
    pub better_steiner: bool,
    /// §III-E root-connection encouragement.
    pub encourage_root: bool,
    /// Default seed for the randomized Steiner placement; a
    /// [`Request::seed`] overrides it per net.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl SessionConfig {
    /// The default seed shared by every construction path.
    pub const DEFAULT_SEED: u64 = 0x5eed;

    /// All §III enhancements on — the single source of truth for the
    /// defaults of [`Solver::new`] and the router's `CdOracle` alike.
    pub const DEFAULT: SessionConfig = SessionConfig {
        discount_components: true,
        better_steiner: true,
        encourage_root: true,
        seed: Self::DEFAULT_SEED,
    };

    /// The plain Section-II algorithm (all enhancements off).
    pub const BASE: SessionConfig = SessionConfig {
        discount_components: false,
        better_steiner: false,
        encourage_root: false,
        seed: Self::DEFAULT_SEED,
    };
}

/// One cost-distance request: the instance of paper Eq. (1) + (3) —
/// graph, `c`, `d`, root, weighted sinks, `d_bif` — plus the per-net
/// options (future cost, seed override, tracing). Cost/delay slices are
/// indexed by edge id and must cover
/// [`edge_bound`](SteinerGraph::edge_bound).
///
/// Requests are cheap to build — all heavy state lives in the
/// [`Solver`]'s workspace. The graph travels with the request (not the
/// session) because rip-up & re-route loops route each net in its own
/// bounding-box window, and is generic over the [`SteinerGraph`]
/// backend: a whole [`Graph`] (the default) or a zero-copy
/// [`WindowView`](cds_graph::WindowView) — possibly behind `dyn
/// RoutingSurface`, which is how the router passes it.
pub struct Request<'a, G: ?Sized = Graph> {
    /// The routing graph backend to solve on.
    pub graph: &'a G,
    /// Congestion cost `c(e)` per edge.
    pub cost: &'a [f64],
    /// Delay `d(e)` per edge.
    pub delay: &'a [f64],
    /// The net's root vertex.
    pub root: VertexId,
    /// Sink vertices.
    pub sinks: &'a [VertexId],
    /// Sink delay weights `w(s)` (from Lagrangean relaxation in the
    /// router; any non-negative values standalone).
    pub weights: &'a [f64],
    /// Bifurcation penalty configuration.
    pub bif: BifurcationConfig,
    /// §III-C future cost for goal-oriented search; `None` means plain
    /// Dijkstra. Use one future per request — it specializes to the
    /// net's targets as components merge.
    pub future: Option<&'a GridFutureCost>,
    /// Overrides the session seed for this net, e.g. with a per-net hash
    /// so rip-up order does not change placements.
    pub seed: Option<u64>,
    /// Record the per-merge trace.
    pub record_trace: bool,
    /// Key granularity hint for the bucket queue (minimum positive edge
    /// cost of the surface). Any positive finite value is correct;
    /// windowed callers should set it: the fallback scans the request's
    /// cost slice, which spans the whole chip for a
    /// [`WindowView`](cds_graph::WindowView).
    pub quantum: Option<f64>,
}

impl<G: ?Sized> Clone for Request<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G: ?Sized> Copy for Request<'_, G> {}

impl<G: ?Sized> std::fmt::Debug for Request<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("root", &self.root)
            .field("sinks", &self.sinks)
            .field("weights", &self.weights)
            .field("bif", &self.bif)
            .field("future", &self.future.is_some())
            .field("seed", &self.seed)
            .field("record_trace", &self.record_trace)
            .finish_non_exhaustive()
    }
}

impl<'a, G: ?Sized> Request<'a, G> {
    /// A request with no bifurcation penalty, no future cost, the
    /// session's seed, and no tracing. Override fields directly or with
    /// the `with_*` helpers.
    pub fn new(
        graph: &'a G,
        cost: &'a [f64],
        delay: &'a [f64],
        root: VertexId,
        sinks: &'a [VertexId],
        weights: &'a [f64],
    ) -> Self {
        Request {
            graph,
            cost,
            delay,
            root,
            sinks,
            weights,
            bif: BifurcationConfig::ZERO,
            future: None,
            seed: None,
            record_trace: false,
            quantum: None,
        }
    }

    /// Sets the bifurcation penalty configuration.
    pub fn with_bif(mut self, bif: BifurcationConfig) -> Self {
        self.bif = bif;
        self
    }

    /// Sets the §III-C future cost.
    pub fn with_future(mut self, future: &'a GridFutureCost) -> Self {
        self.future = Some(future);
        self
    }

    /// Overrides the session seed for this request.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the bucket-queue key quantum hint (minimum positive edge
    /// cost of the surface).
    pub fn with_quantum(mut self, quantum: f64) -> Self {
        self.quantum = Some(quantum);
        self
    }

    /// Enables the per-merge trace.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// A solver session: configuration plus a reusable [`SolverWorkspace`].
///
/// See the [module docs](self) for the motivation and the determinism
/// contract. Construct with [`Solver::with_config`] (or [`Solver::new`]
/// for defaults); solve with [`solve`](Solver::solve).
#[derive(Debug, Default)]
pub struct Solver {
    config: SessionConfig,
    ws: SolverWorkspace,
}

impl Solver {
    /// A session with the default (fully enhanced) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session with an explicit configuration.
    pub fn with_config(config: SessionConfig) -> Self {
        Solver { config, ws: SolverWorkspace::new() }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Number of solves served by this session's primary workspace.
    pub fn solves(&self) -> u64 {
        self.ws.solves()
    }

    /// Solves one request, reusing the session workspace.
    ///
    /// # Panics
    ///
    /// Panics on malformed requests (no sinks, mismatched slice lengths,
    /// negative weights) or disconnected instances.
    pub fn solve<G: SteinerGraph + ?Sized>(&mut self, req: &Request<'_, G>) -> SolveResult {
        Self::solve_with(&self.config, &mut self.ws, req)
    }

    /// Solves one request against an explicit workspace — the building
    /// block for callers that manage their own workspace pools (the
    /// router's worker threads do). Whatever the workspace held is
    /// cleared, not reallocated.
    ///
    /// # Panics
    ///
    /// Same contract as [`solve`](Self::solve).
    pub fn solve_with<G: SteinerGraph + ?Sized>(
        config: &SessionConfig,
        ws: &mut SolverWorkspace,
        req: &Request<'_, G>,
    ) -> SolveResult {
        let (comp, stats, trace) = solve_core(ws, config, req);
        let tree = assemble_tree_in(&mut ws.assemble, req.graph, req.root, req.sinks, &comp.edges);
        ws.free_component(comp);
        debug_assert_eq!(
            tree.validate(req.graph, req.sinks.len()),
            Ok(()),
            "assembled tree must be valid"
        );
        let evaluation = tree.evaluate(req.cost, req.delay, req.weights, &req.bif);
        SolveResult { tree, evaluation, stats, trace }
    }

    /// Solves one request with the tree assembled straight into a
    /// [`RoutedForest`] slot — the arena path:
    /// no owned tree, no evaluation (evaluate through the slot's
    /// [`TreeView`](cds_topo::TreeView); results are bit-identical to
    /// [`solve_with`](Self::solve_with)). Returns the work counters.
    ///
    /// # Panics
    ///
    /// Same contract as [`solve`](Self::solve); `record_trace` is
    /// ignored on this path.
    pub fn solve_into<G: SteinerGraph + ?Sized>(
        config: &SessionConfig,
        ws: &mut SolverWorkspace,
        req: &Request<'_, G>,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        let (comp, stats, _trace) = solve_core(ws, config, req);
        assemble_tree_into(
            &mut ws.assemble,
            req.graph,
            req.root,
            req.sinks,
            &comp.edges,
            forest,
            slot,
        );
        ws.free_component(comp);
        debug_assert_eq!(
            forest.view(slot).validate(req.graph, req.sinks.len()),
            Ok(()),
            "assembled tree must be valid"
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::GridSpec;

    fn trees_equal(a: &SolveResult, b: &SolveResult) -> bool {
        a.evaluation.total.to_bits() == b.evaluation.total.to_bits()
            && a.stats == b.stats
            && a.tree.edges().collect::<Vec<_>>() == b.tree.edges().collect::<Vec<_>>()
    }

    #[test]
    fn reused_workspace_matches_a_fresh_one() {
        let grid = GridSpec::uniform(9, 9, 2).build();
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let sinks = [grid.vertex(8, 1, 0), grid.vertex(1, 8, 0), grid.vertex(8, 8, 0)];
        let weights = [1.0, 2.0, 0.5];
        let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &weights)
            .with_bif(BifurcationConfig::new(3.0, 0.25));
        let mut solver = Solver::new();
        let fresh = Solver::solve_with(&SessionConfig::DEFAULT, &mut SolverWorkspace::new(), &req);
        for _ in 0..5 {
            let reused = solver.solve(&req);
            assert!(trees_equal(&fresh, &reused), "reuse must not change results");
        }
        assert_eq!(solver.solves(), 5);
    }

    #[test]
    fn presets_toggle_the_three_enhancements() {
        for (config, on) in [(SessionConfig::BASE, false), (SessionConfig::DEFAULT, true)] {
            assert_eq!(config.discount_components, on);
            assert_eq!(config.better_steiner, on);
            assert_eq!(config.encourage_root, on);
        }
        assert_eq!(*Solver::new().config(), SessionConfig::DEFAULT);
    }
}
