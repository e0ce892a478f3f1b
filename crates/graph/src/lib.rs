#![forbid(unsafe_code)]
//! The 3D global routing graph.
//!
//! The paper's instances are 3D global routing graphs: a grid of gcells per
//! routing layer, wire edges along each layer's preferred direction — with
//! a *parallel edge per wire type*, each with its own cost and delay — and
//! via edges between adjacent layers. Edge costs `c(e)` arise from current
//! congestion, edge delays `d(e)` from a linear delay model; the two are
//! essentially uncorrelated, which is the whole point of the cost-distance
//! formulation.
//!
//! This crate provides:
//!
//! * [`Graph`] / [`GraphBuilder`] — a generic undirected multigraph in CSR
//!   form, used directly by tests and by the exact reference algorithms;
//! * [`GridGraph`] / [`GridSpec`] — the 3D grid construction with layers,
//!   preferred directions, wire types and vias;
//! * [`SteinerGraph`] / [`RoutingSurface`] — the graph abstraction the
//!   solvers and oracles route over, with two backends: the
//!   materialized graphs above and the zero-copy [`WindowView`]
//!   (window-local dense vertex ids, global edge ids — route a window
//!   of the grid without building a per-net graph or slicing costs);
//! * [`dijkstra`] — single/multi-source shortest path labelling shared by
//!   the embedding DP, landmark future costs, and the exact algorithms.
//!
//! # Examples
//!
//! ```
//! use cds_graph::{GraphBuilder, EdgeAttrs, dijkstra::shortest_distances};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, EdgeAttrs::wire(1.0, 2.0));
//! b.add_edge(1, 2, EdgeAttrs::wire(1.0, 2.0));
//! let g = b.build();
//! let dist = shortest_distances(&g, &[(0, 0.0)], |e| g.edge(e).base_cost);
//! assert_eq!(dist[2], 2.0);
//! ```

pub mod dijkstra;
pub mod graph;
pub mod grid;
pub mod shard;
pub mod steiner;
pub mod window;

pub use graph::{EdgeAttrs, EdgeId, EdgeKind, Endpoints, Graph, GraphBuilder, VertexId};
pub use grid::{Direction, GridGraph, GridSpec, LayerSpec, VertexCoord, WireTypeSpec};
pub use shard::ShardGrid;
pub use steiner::{RoutingSurface, SteinerGraph};
pub use window::{window_bounds, WindowView};
