//! The Steiner tree oracles of §IV-A, behind one *open* interface.
//!
//! Every oracle answers the same question the Lagrangean router asks:
//! *given current edge prices `c`, delays `d`, and sink delay weights
//! `w`, produce an embedded tree for this net*. The [`SteinerOracle`]
//! trait is that question as a type: the router, the table harnesses,
//! and the examples all dispatch through `&dyn SteinerOracle`, so new
//! oracles plug in without touching the router (implement the trait,
//! hand the router a box — see [`Router::with_oracle`]).
//!
//! Four implementations ship with the workspace, matching the paper's
//! table rows: [`CdOracle`] solves the cost-distance problem directly on
//! the graph (with a reusable [`SolverWorkspace`] session underneath);
//! [`L1Oracle`], [`SlOracle`], and [`PdOracle`] compute a plane topology
//! first and embed it optimally (`cds-embed`).
//!
//! Oracles are stateless (`&self`); all per-net scratch lives in the
//! [`OracleWorkspace`] the caller passes in, which is what lets the
//! router keep one warm workspace per worker thread across the whole
//! rip-up & re-route run.
//!
//! [`Router::with_oracle`]: crate::Router::with_oracle
//! [`SolverWorkspace`]: cds_core::SolverWorkspace

use cds_baselines::{prim_dijkstra, shallow_light, PlaneCostModel, SlParams};
use cds_core::{GridFutureCost, Request, SessionConfig, SolveStats, Solver, SolverWorkspace};
use cds_embed::{EmbedEnv, EmbedWorkspace};
use cds_geom::Point;
use cds_graph::{RoutingSurface, VertexId};
use cds_rsmt::rsmt_topology;
use cds_topo::{BifurcationConfig, EmbeddedTree, EvalScratch, RoutedForest, Topology};

/// Which built-in Steiner tree construction a router run uses (the
/// paper's table row labels). This enum is a *name*, not a dispatcher:
/// routing goes through [`SteinerOracle`], and
/// [`oracle`](SteinerMethod::oracle) maps each name to its singleton
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteinerMethod {
    /// Short rectilinear Steiner tree, embedded optimally.
    L1,
    /// Shallow-light arborescence, embedded optimally.
    Sl,
    /// Prim–Dijkstra trade-off tree, embedded optimally.
    Pd,
    /// The paper's cost-distance algorithm (with all enhancements).
    Cd,
}

impl SteinerMethod {
    /// All four methods in the paper's table order.
    pub const ALL: [SteinerMethod; 4] =
        [SteinerMethod::L1, SteinerMethod::Sl, SteinerMethod::Pd, SteinerMethod::Cd];

    /// The singleton oracle implementing this method.
    ///
    /// This factory is the only place a `SteinerMethod` value is
    /// inspected; everything downstream holds `&dyn SteinerOracle`.
    pub fn oracle(self) -> &'static dyn SteinerOracle {
        static L1: L1Oracle = L1Oracle;
        static SL: SlOracle = SlOracle;
        static PD: PdOracle = PdOracle;
        static CD: CdOracle = CdOracle::enhanced();
        match self {
            SteinerMethod::L1 => &L1,
            SteinerMethod::Sl => &SL,
            SteinerMethod::Pd => &PD,
            SteinerMethod::Cd => &CD,
        }
    }
}

impl std::fmt::Display for SteinerMethod {
    /// `Display` is the mapped oracle's [`name`](SteinerOracle::name),
    /// keeping the paper's labels in one place.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.oracle().name())
    }
}

/// Error from parsing an unknown [`SteinerMethod`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMethod(pub String);

impl std::fmt::Display for UnknownMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown Steiner method {:?} (want cd, l1, sl, or pd)", self.0)
    }
}

impl std::error::Error for UnknownMethod {}

impl std::str::FromStr for SteinerMethod {
    type Err = UnknownMethod;

    /// Parses the table labels case-insensitively (`cd`, `l1`, `sl`,
    /// `pd`) — the inverse of `Display`, used by `cds-cli --oracle` and
    /// `RouterConfig::set_knob`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cd" => Ok(SteinerMethod::Cd),
            "l1" => Ok(SteinerMethod::L1),
            "sl" => Ok(SteinerMethod::Sl),
            "pd" => Ok(SteinerMethod::Pd),
            _ => Err(UnknownMethod(s.to_string())),
        }
    }
}

/// One oracle request: a net inside its routing window.
///
/// The routing region travels as a `&dyn` [`RoutingSurface`]: the
/// router passes a zero-copy [`WindowView`](cds_graph::WindowView)
/// (edge ids are global — `cost`/`delay` are the chip-wide arrays,
/// unsliced); harnesses may pass a whole
/// [`GridGraph`](cds_graph::GridGraph).
#[derive(Clone)]
pub struct OracleRequest<'a> {
    /// The routing region (window view or whole grid).
    pub surface: &'a dyn RoutingSurface,
    /// Edge prices `c(e)`, indexed by the surface's edge ids (≥ base
    /// costs, so grid future costs stay admissible).
    pub cost: &'a [f64],
    /// Edge delays `d(e)`, indexed by the surface's edge ids.
    pub delay: &'a [f64],
    /// Root pin (surface-local coordinates).
    pub root: Point,
    /// Sink pins (surface-local coordinates).
    pub sinks: &'a [Point],
    /// Delay weights `w(t)` per sink.
    pub weights: &'a [f64],
    /// Delay budgets per sink (ps) — used by SL only; `None` before the
    /// first timing iteration.
    pub budgets: Option<&'a [f64]>,
    /// Bifurcation penalty configuration.
    pub bif: BifurcationConfig,
    /// RNG seed for CD's randomized placement.
    pub seed: u64,
}

impl std::fmt::Debug for OracleRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleRequest")
            .field("root", &self.root)
            .field("sinks", &self.sinks)
            .field("weights", &self.weights)
            .field("bif", &self.bif)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Reusable per-worker scratch for oracle calls.
///
/// Holds the CD solver's [`SolverWorkspace`], the embedding DP's
/// [`EmbedWorkspace`] that the plane-topology baselines (L1, SL, PD)
/// embed through, and the per-net scratch of the oracles themselves
/// (future-cost plane buffer, vertex lists). A warm workspace solves
/// or embeds a net without growing any of them.
#[derive(Debug, Default)]
pub struct OracleWorkspace {
    /// The cost-distance solver's session workspace.
    pub solver: SolverWorkspace,
    /// The embedding DP's window adjacency, label rows and heap.
    embed: EmbedWorkspace,
    /// Recycled plane buffer for [`GridFutureCost`].
    plane: Vec<std::sync::atomic::AtomicU32>,
    /// Recycled sink-vertex list.
    sinks: Vec<VertexId>,
    /// Recycled terminal-vertex list.
    terminals: Vec<VertexId>,
    /// Recycled pin list (root + sinks, global points) for the router's
    /// window construction.
    pub(crate) pins: Vec<Point>,
    /// Recycled localized sink-point list.
    pub(crate) local_sinks: Vec<Point>,
    /// Recycled objective-evaluation scratch (DFS order, subtree
    /// weights, per-node delays, per-sink delay output).
    pub(crate) eval: EvalScratch,
}

impl OracleWorkspace {
    /// An empty workspace; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A per-net Steiner tree constructor, the open interface between the
/// router and the tree algorithms.
///
/// Implementations must be stateless across calls (`&self`, `Sync`):
/// the router shares one oracle between all worker threads and gives
/// each thread its own [`OracleWorkspace`]. Determinism contract: for a
/// fixed request, `route` must return the same tree regardless of the
/// workspace's history (the built-in oracles are bit-reproducible; see
/// `tests/determinism.rs`).
pub trait SteinerOracle: Send + Sync {
    /// The table label (`"CD"`, `"L1"`, …) of this oracle.
    fn name(&self) -> &str;

    /// Whether [`route`](Self::route) reads
    /// [`OracleRequest::budgets`]. The router's dirty-net scheduler
    /// uses this to decide if budget movement can change this oracle's
    /// output: an oracle returning `false` promises its result is
    /// independent of the budget slice, so clean nets need not be
    /// ripped up when only budgets moved. Defaults to `true` (the
    /// conservative answer — external oracles that ignore budgets may
    /// override). Of the built-ins only [`SlOracle`] reads budgets.
    fn uses_budgets(&self) -> bool {
        true
    }

    /// Routes one net, returning the embedded tree (window edge ids).
    ///
    /// # Panics
    ///
    /// May panic on empty sinks or inconsistent slice lengths (the
    /// router guarantees both).
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree;

    /// Routes one net straight into a [`RoutedForest`] slot — the
    /// arena path the router's rip-up loop drives. The default
    /// implementation routes an owned tree via [`route`](Self::route)
    /// and copies it in (correct for any oracle); implementations that
    /// can write slabs directly (the built-in [`CdOracle`] does,
    /// through the solver session's `solve_into`) override this to skip
    /// the owned materialization entirely. The stored tree must be
    /// identical — node ids, child order, edge order — either way.
    ///
    /// Returns the search-kernel work counters of the call. Oracles
    /// without a label-propagation kernel (the plane-topology
    /// baselines) return the zero default; the router folds whatever
    /// comes back into its run-wide [`RouterStats`](crate::RouterStats).
    ///
    /// # Panics
    ///
    /// Same contract as [`route`](Self::route).
    fn route_into(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        let tree = self.route(req, ws);
        forest.insert_embedded(slot, &tree);
        SolveStats::default()
    }
}

/// References to oracles are oracles, so `&'static dyn SteinerOracle`
/// (what [`SteinerMethod::oracle`] hands out) can be boxed into the
/// router's `Box<dyn SteinerOracle>` slot without an adapter type.
impl<T: SteinerOracle + ?Sized> SteinerOracle for &'static T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn uses_budgets(&self) -> bool {
        (**self).uses_budgets()
    }
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        (**self).route(req, ws)
    }
    fn route_into(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        (**self).route_into(req, ws, forest, slot)
    }
}

/// The paper's cost-distance algorithm as an oracle, running on a
/// reusable solver session.
#[derive(Debug, Clone, Copy)]
pub struct CdOracle {
    /// Enhancement toggles for the underlying solver session.
    pub config: SessionConfig,
}

impl CdOracle {
    /// All §III enhancements on (the paper's "CD" rows).
    pub const fn enhanced() -> Self {
        CdOracle { config: SessionConfig::DEFAULT }
    }

    /// A CD oracle with explicit solver toggles (ablations).
    pub fn with_config(config: SessionConfig) -> Self {
        CdOracle { config }
    }
}

impl Default for CdOracle {
    fn default() -> Self {
        Self::enhanced()
    }
}

impl SteinerOracle for CdOracle {
    fn name(&self) -> &str {
        "CD"
    }

    /// CD prices sinks through delay weights only; the budget slice is
    /// never read.
    fn uses_budgets(&self) -> bool {
        false
    }

    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        self.with_solver_request(req, ws, |config, solver_ws, request| {
            Solver::solve_with(config, solver_ws, request).tree
        })
    }

    /// The arena path: the solver session assembles the tree straight
    /// into the forest's slabs (`Solver::solve_into`) — on a warm
    /// workspace this routes a net without touching the allocator.
    fn route_into(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        self.with_solver_request(req, ws, |config, solver_ws, request| {
            Solver::solve_into(config, solver_ws, request, forest, slot)
        })
    }
}

impl CdOracle {
    /// The shared front of both `route` paths: builds the solver
    /// request from workspace-pooled buffers (vertex lists, future-cost
    /// plane), hands it to `f` with the solver workspace, and returns
    /// the buffers afterwards. One implementation keeps the owned and
    /// arena paths bit-identical by construction — per-net scratch
    /// comes from (and returns to) the workspace, so a warm worker
    /// routes nets without allocating.
    fn with_solver_request<R>(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        f: impl for<'r> FnOnce(
            &SessionConfig,
            &mut SolverWorkspace,
            &Request<'r, dyn RoutingSurface + 'r>,
        ) -> R,
    ) -> R {
        let root = req.surface.vertex_at(req.root);
        let mut sinks = std::mem::take(&mut ws.sinks);
        sinks.clear();
        sinks.extend(req.sinks.iter().map(|&p| req.surface.vertex_at(p)));
        let mut terminals = std::mem::take(&mut ws.terminals);
        terminals.clear();
        terminals.extend_from_slice(&sinks);
        terminals.push(root);
        let fc =
            GridFutureCost::with_buffer(req.surface, &terminals, std::mem::take(&mut ws.plane));
        // The quantum hint keeps the bucket queue from scanning the
        // chip-wide cost arrays behind a WindowView: any positive value
        // is exact, and the surface's per-gcell floor is a lower bound
        // on every window edge price.
        let request = Request::new(req.surface, req.cost, req.delay, root, &sinks, req.weights)
            .with_bif(req.bif)
            .with_future(&fc)
            .with_seed(req.seed)
            .with_quantum(req.surface.min_cost_per_gcell());
        let out = f(&self.config, &mut ws.solver, &request);
        ws.plane = fc.into_buffer();
        ws.sinks = sinks;
        ws.terminals = terminals;
        out
    }
}

/// Shared tail of the three plane-topology baselines: the optimal
/// embedding (directly over the surface, on the workspace's warm
/// embedding buffers).
fn embed_plane_topology(
    req: &OracleRequest<'_>,
    topo: &Topology,
    ws: &mut OracleWorkspace,
) -> EmbeddedTree {
    let root = req.surface.vertex_at(req.root);
    ws.sinks.clear();
    ws.sinks.extend(req.sinks.iter().map(|&p| req.surface.vertex_at(p)));
    let env = EmbedEnv { graph: req.surface, cost: req.cost, delay: req.delay, bif: req.bif };
    ws.embed.embed(&env, topo, root, &ws.sinks, req.weights)
}

/// The per-unit plane cost model the baselines build topologies under.
fn plane_model(req: &OracleRequest<'_>) -> PlaneCostModel {
    PlaneCostModel {
        cost_per_unit: req.surface.min_cost_per_gcell(),
        delay_per_unit: req.surface.min_delay_per_gcell(),
        bif: req.bif,
    }
}

/// Short rectilinear Steiner trees (`cds-rsmt`), embedded optimally.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Oracle;

impl SteinerOracle for L1Oracle {
    fn name(&self) -> &str {
        "L1"
    }

    /// Pure rectilinear topology — budgets are never read.
    fn uses_budgets(&self) -> bool {
        false
    }

    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        let topo = rsmt_topology(req.root, req.sinks, 5).binarize();
        embed_plane_topology(req, &topo, ws)
    }
}

/// Shallow-light arborescences, embedded optimally.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlOracle;

impl SteinerOracle for SlOracle {
    fn name(&self) -> &str {
        "SL"
    }

    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        let topo = shallow_light(
            req.root,
            req.sinks,
            req.weights,
            req.budgets,
            &plane_model(req),
            &SlParams::default(),
        );
        embed_plane_topology(req, &topo, ws)
    }
}

/// Prim–Dijkstra trade-off trees, embedded optimally.
#[derive(Debug, Clone, Copy, Default)]
pub struct PdOracle;

impl SteinerOracle for PdOracle {
    fn name(&self) -> &str {
        "PD"
    }

    /// The Prim–Dijkstra trade-off uses weights only — budgets are
    /// never read.
    fn uses_budgets(&self) -> bool {
        false
    }

    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        let topo = prim_dijkstra(req.root, req.sinks, req.weights, &plane_model(req));
        embed_plane_topology(req, &topo, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_graph::{GridGraph, GridSpec};

    fn request_on<'a>(
        grid: &'a GridGraph,
        cost: &'a [f64],
        delay: &'a [f64],
        sinks: &'a [Point],
        weights: &'a [f64],
    ) -> OracleRequest<'a> {
        OracleRequest {
            surface: grid,
            cost,
            delay,
            root: Point::new(0, 0),
            sinks,
            weights,
            budgets: None,
            bif: BifurcationConfig::new(5.0, 0.25),
            seed: 1,
        }
    }

    #[test]
    fn all_methods_produce_valid_trees() {
        let grid = GridSpec::uniform(9, 9, 4).build();
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let sinks = [Point::new(8, 0), Point::new(0, 8), Point::new(8, 8), Point::new(4, 4)];
        let w = [1.0, 2.0, 0.5, 4.0];
        let req = request_on(&grid, &c, &d, &sinks, &w);
        for m in SteinerMethod::ALL {
            let tree = m.oracle().route(&req, &mut OracleWorkspace::new());
            tree.validate(grid.graph(), sinks.len()).unwrap_or_else(|e| panic!("{m}: {e}"));
            let ev = tree.evaluate(&c, &d, &w, &req.bif);
            assert!(ev.total.is_finite() && ev.total > 0.0, "{m}: objective {}", ev.total);
        }
    }

    #[test]
    fn single_sink_all_methods_agree() {
        // one sink ⇒ the optimum is the c + w·d shortest path; every
        // method must find it (embedding is exact, CD is exact for t=1)
        let grid = GridSpec::uniform(7, 7, 3).build();
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let sinks = [Point::new(6, 6)];
        let w = [2.0];
        let req = request_on(&grid, &c, &d, &sinks, &w);
        let mut totals = Vec::new();
        for m in SteinerMethod::ALL {
            let tree = m.oracle().route(&req, &mut OracleWorkspace::new());
            totals.push(tree.evaluate(&c, &d, &w, &req.bif).total);
        }
        for t in &totals {
            assert!((t - totals[0]).abs() < 1e-6, "totals {totals:?}");
        }
    }

    #[test]
    fn method_display_matches_paper_labels() {
        let labels: Vec<String> = SteinerMethod::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(labels, vec!["L1", "SL", "PD", "CD"]);
    }

    #[test]
    fn trait_objects_reuse_one_workspace_across_oracles() {
        // the smoke test for the open interface: all four oracles
        // through &dyn SteinerOracle, sharing one workspace
        let grid = GridSpec::uniform(8, 8, 2).build();
        let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
        let sinks = [Point::new(7, 2), Point::new(3, 7)];
        let w = [1.5, 0.5];
        let req = request_on(&grid, &c, &d, &sinks, &w);
        let mut ws = OracleWorkspace::new();
        for m in SteinerMethod::ALL {
            let oracle: &dyn SteinerOracle = m.oracle();
            let tree = oracle.route(&req, &mut ws);
            tree.validate(grid.graph(), sinks.len())
                .unwrap_or_else(|e| panic!("{}: {e}", oracle.name()));
        }
        assert_eq!(ws.solver.solves(), 1, "only CD touches the solver workspace");
    }
}
