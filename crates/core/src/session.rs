//! The solver session API: reusable workspaces for rip-up & re-route
//! workloads.
//!
//! The paper's headline result (§IV) is that the cost-distance algorithm
//! is fast enough to serve as the per-net oracle inside a Lagrangean
//! rip-up-and-reroute loop — *millions* of solve calls over a chip. The
//! free function [`solve`](crate::solve) pays for that workload with
//! allocation churn: every call builds fresh hash tables, heaps, and
//! candidate stores, only to drop them microseconds later.
//!
//! A [`Solver`] is a session object that keeps all of those buffers in a
//! [`SolverWorkspace`] and clears-and-reuses them call after call:
//!
//! ```
//! use cds_core::{Request, Solver};
//! use cds_graph::GridSpec;
//!
//! let grid = GridSpec::uniform(8, 8, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//! let mut solver = Solver::builder().seed(7).build();
//! for k in 1..6u32 {
//!     let sinks = [grid.vertex(7, k % 8, 0), grid.vertex(k % 8, 7, 0)];
//!     let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[1.0, 2.0]);
//!     let result = solver.solve(&req);
//!     assert!(result.evaluation.total > 0.0);
//! }
//! ```
//!
//! Results are specified to be **bit-identical** to fresh-per-call
//! solving: a reused workspace only retains *capacity*, never state, and
//! the solver contains no iteration-order-sensitive reads of its hash
//! tables. `tests/determinism.rs` pins that contract.
//!
//! Parallel callers hold one [`SolverWorkspace`] per worker thread and
//! call [`Solver::solve_with`] / [`Solver::solve_into`] — the router's
//! `WorkerPool` does.

use crate::future::FutureCost;
use crate::solver::{solve_in, Instance, SolveResult, SolverOptions, SolverWorkspace};
use cds_graph::{Graph, SteinerGraph, VertexId};
use cds_topo::BifurcationConfig;

/// Session-level solver configuration: the §III enhancement toggles and
/// the default RNG seed. Unlike [`SolverOptions`] this is owned (no
/// borrowed future cost), so a session can outlive any one request.
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
    /// Batched multi-sink search (see [`SolverOptions::batch`]): keeps
    /// member searches alive across sink–sink merges instead of
    /// restarting one labelling from each new Steiner terminal. Changes
    /// which trees are found — off by default.
    pub batch: bool,
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
    /// defaults of [`SolverOptions`],
    /// [`SolverBuilder`], and the router's `CdOracle` alike.
    pub const DEFAULT: SessionConfig = SessionConfig {
        discount_components: true,
        better_steiner: true,
        encourage_root: true,
        seed: Self::DEFAULT_SEED,
        batch: false,
    };

    /// The plain Section-II algorithm (all enhancements off).
    pub const BASE: SessionConfig = SessionConfig {
        discount_components: false,
        better_steiner: false,
        encourage_root: false,
        seed: Self::DEFAULT_SEED,
        batch: false,
    };

    /// The plain Section-II algorithm (all enhancements off).
    pub fn base() -> Self {
        Self::BASE
    }
}

/// Builder for [`Solver`] sessions.
///
/// ```
/// use cds_core::Solver;
/// let solver = Solver::builder()
///     .discount_components(true)
///     .better_steiner(true)
///     .encourage_root(false)
///     .seed(42)
///     .build();
/// assert_eq!(solver.config().seed, 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverBuilder {
    config: SessionConfig,
}

impl SolverBuilder {
    /// Starts from the default (fully enhanced) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from the plain Section-II configuration.
    pub fn base() -> Self {
        SolverBuilder { config: SessionConfig::base() }
    }

    /// Toggles §III-A component discounting.
    pub fn discount_components(mut self, on: bool) -> Self {
        self.config.discount_components = on;
        self
    }

    /// Toggles §III-D Steiner re-embedding.
    pub fn better_steiner(mut self, on: bool) -> Self {
        self.config.better_steiner = on;
        self
    }

    /// Toggles §III-E root-connection encouragement.
    pub fn encourage_root(mut self, on: bool) -> Self {
        self.config.encourage_root = on;
        self
    }

    /// Sets the session's default RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Toggles batched multi-sink search.
    pub fn batch(mut self, on: bool) -> Self {
        self.config.batch = on;
        self
    }

    /// Finishes the session. The workspace starts empty and grows to the
    /// session's largest instance, then stays warm.
    pub fn build(self) -> Solver {
        Solver { config: self.config, ws: SolverWorkspace::new() }
    }
}

/// One cost-distance request: an [`Instance`] plus the per-net options
/// (future cost, seed override, tracing) that used to live in
/// [`SolverOptions`].
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
    /// Sink delay weights `w(s)`.
    pub weights: &'a [f64],
    /// Bifurcation penalty configuration.
    pub bif: BifurcationConfig,
    /// §III-C future cost for goal-oriented search; `None` means plain
    /// Dijkstra. Use one future per request — it specializes to the
    /// net's targets as components merge.
    pub future: Option<&'a dyn FutureCost>,
    /// Overrides the session seed for this net, e.g. with a per-net hash
    /// so rip-up order does not change placements.
    pub seed: Option<u64>,
    /// Record the per-merge trace.
    pub record_trace: bool,
    /// Key granularity hint for the bucket queue (minimum positive edge
    /// cost of the surface). Windowed callers should set it: the
    /// fallback scans the request's cost slice, which spans the whole
    /// chip for a [`WindowView`](cds_graph::WindowView).
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

    /// The same net as `inst`, as a request.
    pub fn from_instance(inst: &Instance<'a, G>) -> Self {
        Request {
            graph: inst.graph,
            cost: inst.cost,
            delay: inst.delay,
            root: inst.root,
            sinks: inst.sink_vertices,
            weights: inst.weights,
            bif: inst.bif,
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
    pub fn with_future(mut self, future: &'a dyn FutureCost) -> Self {
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

    /// The equivalent [`Instance`] view of this request.
    pub fn instance(&self) -> Instance<'a, G> {
        Instance {
            graph: self.graph,
            cost: self.cost,
            delay: self.delay,
            root: self.root,
            sink_vertices: self.sinks,
            weights: self.weights,
            bif: self.bif,
        }
    }
}

/// A solver session: configuration plus a reusable [`SolverWorkspace`].
///
/// See the [module docs](self) for the motivation and the determinism
/// contract. Construct with [`Solver::builder`] (or [`Solver::new`] for
/// defaults); solve with [`solve`](Solver::solve).
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

    /// Starts building a session.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
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

    /// Resolves the effective [`SolverOptions`] for one request.
    fn options<'a, G: ?Sized>(config: &SessionConfig, req: &Request<'a, G>) -> SolverOptions<'a> {
        SolverOptions {
            future: req.future,
            seed: req.seed.unwrap_or(config.seed),
            record_trace: req.record_trace,
            quantum: req.quantum,
            ..SolverOptions::from_session(*config)
        }
    }

    /// Solves one request, reusing the session workspace.
    ///
    /// # Panics
    ///
    /// Panics on malformed requests (no sinks, mismatched slice lengths,
    /// negative weights) or disconnected instances, exactly like
    /// [`solve`](crate::solve).
    pub fn solve<G: SteinerGraph + ?Sized>(&mut self, req: &Request<'_, G>) -> SolveResult {
        Self::solve_with(&self.config, &mut self.ws, req)
    }

    /// Solves one request against an explicit workspace — the building
    /// block for callers that manage their own workspace pools (the
    /// router's worker threads do).
    pub fn solve_with<G: SteinerGraph + ?Sized>(
        config: &SessionConfig,
        ws: &mut SolverWorkspace,
        req: &Request<'_, G>,
    ) -> SolveResult {
        let inst = req.instance();
        let opts = Self::options(config, req);
        solve_in(ws, &inst, &opts)
    }

    /// Solves one request with the tree assembled straight into a
    /// [`RoutedForest`](cds_topo::RoutedForest) slot — the arena path:
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
        forest: &mut cds_topo::RoutedForest,
        slot: usize,
    ) -> crate::SolveStats {
        let inst = req.instance();
        let opts = Self::options(config, req);
        crate::solver::solve_forest_in(ws, &inst, &opts, forest, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use cds_graph::GridSpec;

    fn trees_equal(a: &SolveResult, b: &SolveResult) -> bool {
        a.evaluation.total.to_bits() == b.evaluation.total.to_bits()
            && a.stats == b.stats
            && a.tree.edges().collect::<Vec<_>>() == b.tree.edges().collect::<Vec<_>>()
    }

    #[test]
    fn session_matches_free_function() {
        let grid = GridSpec::uniform(9, 9, 2).build();
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let sinks = [grid.vertex(8, 1, 0), grid.vertex(1, 8, 0), grid.vertex(8, 8, 0)];
        let weights = [1.0, 2.0, 0.5];
        let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &weights)
            .with_bif(BifurcationConfig::new(3.0, 0.25));
        let mut solver = Solver::new();
        let fresh = solve(&req.instance(), &SolverOptions::default());
        for _ in 0..5 {
            let reused = solver.solve(&req);
            assert!(trees_equal(&fresh, &reused), "reuse must not change results");
        }
        assert_eq!(solver.solves(), 5);
    }

    #[test]
    fn builder_presets_match_legacy_options() {
        let base = SolverBuilder::base().build();
        assert!(!base.config().discount_components);
        assert!(!base.config().better_steiner);
        assert!(!base.config().encourage_root);
        let full = Solver::builder().seed(9).build();
        assert!(full.config().discount_components);
        assert_eq!(full.config().seed, 9);
    }
}
