#![forbid(unsafe_code)]
//! `cdst` — cost-distance Steiner trees for timing-constrained global
//! routing.
//!
//! Umbrella crate re-exporting the whole workspace: the paper's
//! algorithm ([`core`]), the routing substrates ([`graph`], [`delay`],
//! [`topo`]), the comparison baselines ([`baselines`], [`rsmt`],
//! [`embed`]), exact references ([`exact`]), and the experiment stack
//! ([`instgen`], [`router`], [`sta`], [`metrics`]).
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the
//! system inventory; each sub-crate's documentation describes its slice
//! of the paper.
//!
//! # Examples
//!
//! The session API: build a [`core::Solver`] once, route many nets over
//! its reusable workspace (results are bit-identical to a fresh
//! workspace per call):
//!
//! ```
//! use cdst::core::{Request, SessionConfig, Solver};
//! use cdst::graph::GridSpec;
//!
//! let grid = GridSpec::uniform(8, 8, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//! let mut solver = Solver::with_config(SessionConfig { seed: 1, ..SessionConfig::DEFAULT });
//! for k in 1..4u32 {
//!     let sinks = [grid.vertex(7, 7, 0), grid.vertex(k, 7, 0)];
//!     let req = Request::new(grid.graph(), &c, &d, grid.vertex(0, 0, 0), &sinks, &[1.0, 0.5]);
//!     let result = solver.solve(&req);
//!     assert!(result.evaluation.total > 0.0);
//! }
//! assert_eq!(solver.solves(), 3);
//! ```
//!
//! Routing through the open oracle interface (any
//! [`router::SteinerOracle`] plugs into the router):
//!
//! ```
//! use cdst::geom::Point;
//! use cdst::graph::GridSpec;
//! use cdst::router::{OracleRequest, OracleWorkspace, SteinerMethod, SteinerOracle};
//! use cdst::topo::BifurcationConfig;
//!
//! let grid = GridSpec::uniform(8, 8, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//! let req = OracleRequest {
//!     surface: &grid,
//!     cost: &c,
//!     delay: &d,
//!     root: Point::new(0, 0),
//!     sinks: &[Point::new(7, 7)],
//!     weights: &[1.0],
//!     budgets: None,
//!     bif: BifurcationConfig::ZERO,
//!     seed: 1,
//! };
//! let mut ws = OracleWorkspace::new();
//! for m in SteinerMethod::ALL {
//!     let tree = m.oracle().route(&req, &mut ws);
//!     tree.validate(grid.graph(), 1).unwrap();
//! }
//! ```

pub use cds_baselines as baselines;
pub use cds_core as core;
pub use cds_delay as delay;
pub use cds_embed as embed;
pub use cds_exact as exact;
pub use cds_geom as geom;
pub use cds_graph as graph;
pub use cds_heap as heap;
pub use cds_instgen as instgen;
pub use cds_metrics as metrics;
pub use cds_router as router;
pub use cds_rsmt as rsmt;
pub use cds_sta as sta;
pub use cds_topo as topo;
