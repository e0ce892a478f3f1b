//! Allocator traffic of the three reuse layers, gated.
//!
//! The solver session ([`Solver`] over a reusable `SolverWorkspace`),
//! the [`RoutedForest`] arena and the embedding DP's [`EmbedWorkspace`]
//! exist to keep the allocator off the solve path. A counting global
//! allocator measures the first two against their non-reusing twins on
//! one identical workload, and the tests assert:
//!
//! * the twins compute the same bits (so the counts compare like with
//!   like);
//! * the reusing path stays under a ceiling of allocator calls per
//!   solve / per routed net;
//! * it beats the twin by a stated factor, in calls and in bytes;
//! * a fresh solver's bytes per solve — mostly the label pages its
//!   searches touch — stay under a ceiling, so splitting the 16-byte
//!   record, adding a per-search slab beside it, or giving every search
//!   a dense window-sized slab again fails.
//!
//! Counts are deterministic — same code, same workload, same calls;
//! debug builds make about one call more per solve than release. Each
//! ceiling sits less than one call above the debug count
//! (EXPERIMENTS.md), so one new allocation per solve or per routed net
//! fails `cargo test`. A change that lowers a count lowers its ceiling
//! with it. The counters are process-wide, so each test counts only
//! while it holds [`MEASURE`].
//!
//! [`RoutedForest`]: cds_topo::RoutedForest

mod common;

use cds_baselines::{shallow_light, PlaneCostModel, SlParams};
use cds_core::{Request, Solver};
use cds_embed::{embed_topology, EmbedEnv, EmbedWorkspace};
use cds_geom::Point;
use cds_graph::{GridGraph, GridSpec, VertexId};
use cds_instgen::{Chip, ChipSpec};
use cds_router::{Router, RouterConfig};
use cds_topo::{BifurcationConfig, EmbeddedTree, NodeId, Topology};
use common::OwnedPathCd;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// System allocator wrapped with relaxed counters.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters are plain atomics and never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held while a test counts, so no two tests overlap.
static MEASURE: Mutex<()> = Mutex::new(());

/// Allocator calls and bytes requested while `f` runs.
#[derive(Debug)]
struct Traffic {
    calls: u64,
    bytes: u64,
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
    let (c0, b0) = (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    let out = f();
    let (c1, b1) = (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    (out, Traffic { calls: c1 - c0, bytes: b1 - b0 })
}

// ---- solver session: fresh workspace per call vs one reused session ----

/// Allocator calls per solve a warm session may make (measured: 57.4
/// release, 58.4 debug).
const SESSION_CALLS_PER_SOLVE_MAX: f64 = 59.0;
/// How many times fewer allocator calls the session makes than fresh
/// solvers (measured: 7.7×). Lower than the bytes floor: a fresh
/// solver's queue storage is one growing chunk pool, so it makes few
/// calls (43 k over the 96 solves, against the session's 5.6 k) for
/// many bytes.
const SESSION_MIN_CALLS_RATIO: f64 = 6.0;
/// How many times fewer bytes the session requests than fresh solvers
/// (measured: 23×).
const SESSION_MIN_BYTES_RATIO: f64 = 10.0;
/// Bytes a fresh solver may request per solve (measured: 1.27 MB;
/// 1.82 MB with a heap per queue bucket and a membership table per
/// component; 3.11 MB when every search held a dense window-sized slab
/// of 24-byte records). A dense slab again, a window-sized table per
/// search beside the label pages, or a growable store per bucket takes
/// it past the ceiling.
const FRESH_BYTES_PER_SOLVE_MAX: f64 = 1.4e6;

const NETS: usize = 48;
const ROUNDS: usize = 2;

/// The router's inner loop in miniature: one grid, 48 nets of 2–16
/// sinks, and two pricing rounds that perturb edge costs.
struct Stream {
    grid: GridGraph,
    nets: Vec<(Vec<u32>, Vec<f64>, u64)>,
    costs: Vec<Vec<f64>>,
    delay: Vec<f64>,
}

fn stream() -> Stream {
    let grid = GridSpec::uniform(28, 28, 4).build();
    let base = grid.graph().base_costs();
    let delay = grid.graph().delays();
    let (nx, ny) = (grid.spec().nx, grid.spec().ny);
    let nets = (0..NETS as u64)
        .map(|i| {
            let k = 2 + (i * 7 % 15) as u32;
            let sinks = (0..k)
                .map(|j| {
                    grid.vertex(
                        (5 + i as u32 * 13 + j * 11) % nx,
                        (3 + i as u32 * 7 + j * 17) % ny,
                        (j % 2) as u8,
                    )
                })
                .collect();
            let weights = (0..k).map(|j| 0.05 + 0.35 * ((i + j as u64) % 5) as f64).collect();
            (sinks, weights, 0xC0FFEE ^ i.wrapping_mul(0x9E3779B97F4A7C15))
        })
        .collect();
    let costs = (0..ROUNDS)
        .map(|r| {
            base.iter()
                .enumerate()
                .map(|(e, &c)| c * (1.0 + 0.15 * ((e + r * 31) % 7) as f64))
                .collect()
        })
        .collect();
    Stream { grid, nets, costs, delay }
}

/// Solves every request of the stream, returning the objective bits in
/// order; `solver` yields the session each request runs on.
fn solve_all(s: &Stream, mut solver: impl FnMut(&Request<'_>) -> f64) -> Vec<u64> {
    let mut out = Vec::with_capacity(NETS * ROUNDS);
    for costs in &s.costs {
        for (sinks, weights, seed) in &s.nets {
            let req = Request::new(
                s.grid.graph(),
                costs,
                &s.delay,
                s.grid.vertex(0, 0, 0),
                sinks,
                weights,
            )
            .with_bif(BifurcationConfig::new(4.0, 0.25))
            .with_seed(*seed);
            out.push(solver(&req).to_bits());
        }
    }
    out
}

#[test]
fn a_warm_session_allocates_a_fraction_of_fresh_solvers() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let s = stream();
    let solves = (NETS * ROUNDS) as f64;
    let mut session = Solver::new();
    // one pass warms the session, so its one-time growth is not counted
    solve_all(&s, |req| session.solve(req).evaluation.total);

    let (fresh_bits, fresh) =
        counted(|| solve_all(&s, |req| Solver::new().solve(req).evaluation.total));
    let (reused_bits, reused) =
        counted(|| solve_all(&s, |req| session.solve(req).evaluation.total));
    assert_eq!(fresh_bits, reused_bits, "the session changed a result");

    let per_solve = reused.calls as f64 / solves;
    println!("session: fresh {fresh:?}, reused {reused:?}, {per_solve:.1} calls/solve");
    assert!(
        per_solve <= SESSION_CALLS_PER_SOLVE_MAX,
        "a warm session made {per_solve:.1} allocator calls per solve (ceiling {SESSION_CALLS_PER_SOLVE_MAX})"
    );
    let fresh_bytes = fresh.bytes as f64 / solves;
    assert!(
        fresh_bytes <= FRESH_BYTES_PER_SOLVE_MAX,
        "a fresh solver requested {fresh_bytes:.0} bytes per solve (ceiling {FRESH_BYTES_PER_SOLVE_MAX})"
    );
    for (what, f, r, floor) in [
        ("calls", fresh.calls, reused.calls, SESSION_MIN_CALLS_RATIO),
        ("bytes", fresh.bytes, reused.bytes, SESSION_MIN_BYTES_RATIO),
    ] {
        let ratio = f as f64 / r.max(1) as f64;
        assert!(
            ratio >= floor,
            "fresh solvers make only {ratio:.1}× the session's allocator {what} (floor {floor}×)"
        );
    }
}

// ---- router output: owned per-net trees vs the forest arena ----

/// Allocator calls per routed net the arena path may make (measured:
/// 24.6 release, 25.6 debug; the dirty-net scheduler routes 179 of the
/// 360 net-iterations).
const ARENA_CALLS_PER_NET_MAX: f64 = 26.0;
/// How many times fewer calls the arena path makes than the owned-tree
/// fallback (measured: 2.5×).
const ARENA_MIN_RATIO: f64 = 1.7;

const ITERATIONS: usize = 3;

/// One routing run on one worker thread; returns the checksum and the
/// number of nets routed over all iterations.
fn route(chip: &Chip, owned: bool) -> (u64, usize) {
    let config = RouterConfig { iterations: ITERATIONS, threads: 1, ..Default::default() };
    let out = if owned {
        Router::with_oracle(chip, config, Box::new(OwnedPathCd)).run()
    } else {
        Router::new(chip, config).run()
    };
    (out.checksum(), out.stats.rerouted_per_iter.iter().sum())
}

#[test]
fn the_forest_arena_allocates_less_per_net_than_owned_trees() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let chip = ChipSpec { num_nets: 120, ..ChipSpec::small_test(7) }.generate();
    // one run first, so one-time process set-up is not counted
    route(&chip, false);

    let (owned_run, owned) = counted(|| route(&chip, true));
    let (arena_run, arena) = counted(|| route(&chip, false));
    assert_eq!(owned_run, arena_run, "owned and arena paths diverged");

    let per_net = arena.calls as f64 / arena_run.1 as f64;
    println!("forest: owned {owned:?}, arena {arena:?}, {per_net:.1} calls/net");
    assert!(
        per_net <= ARENA_CALLS_PER_NET_MAX,
        "the arena path made {per_net:.1} allocator calls per routed net (ceiling {ARENA_CALLS_PER_NET_MAX})"
    );
    let ratio = owned.calls as f64 / arena.calls.max(1) as f64;
    assert!(
        ratio >= ARENA_MIN_RATIO,
        "owned trees make only {ratio:.1}× the arena path's allocator calls (floor {ARENA_MIN_RATIO}×)"
    );
}

// ---- embedding DP: a warm workspace vs the trees it returns ----

/// Bytes a fresh `EmbedWorkspace` may request for one embedding of the
/// 40-sink SL topology of [`embed_nets`] (120 nodes on a 3 136-vertex
/// grid; measured: 1.62 MB, of which 0.38 MB parent slots; 7.05 MB with
/// a label and an 8-byte parent record per node and vertex). Parent rows
/// of 8 bytes take it to 4.25 MB, one label row per topology node to
/// 7.84 MB (the growing pool's resizes count too).
const FRESH_EMBED_BYTES_MAX: u64 = 1_800_000;

/// SL topologies over a 28×28×4 grid: 48 nets of 2–16 sinks, then one
/// of 40 sinks. Each entry is (topology, root vertex, sink vertices,
/// weights).
fn embed_nets(grid: &GridGraph) -> Vec<(Topology, VertexId, Vec<VertexId>, Vec<f64>)> {
    let (nx, ny) = (grid.spec().nx as i32, grid.spec().ny as i32);
    let model = PlaneCostModel {
        cost_per_unit: grid.min_cost_per_gcell(),
        delay_per_unit: grid.min_delay_per_gcell(),
        bif: BifurcationConfig::new(4.0, 0.25),
    };
    let sizes = (0..NETS as i32).map(|i| (i, 2 + i * 7 % 15)).chain([(NETS as i32, 40)]);
    sizes
        .map(|(i, k)| {
            let root = Point::new(i * 5 % nx, i * 3 % ny);
            let sinks: Vec<Point> = (0..k)
                .map(|j| Point::new((5 + i * 13 + j * 11) % nx, (3 + i * 7 + j * 17) % ny))
                .collect();
            let weights: Vec<f64> = (0..k).map(|j| 0.05 + 0.35 * ((i + j) % 5) as f64).collect();
            let topo = shallow_light(root, &sinks, &weights, None, &model, &SlParams::default());
            let pins = sinks.iter().map(|&p| grid.vertex_at(p)).collect();
            (topo, grid.vertex_at(root), pins, weights)
        })
        .collect()
}

/// A copy of `tree` built through the public API, node by node in id
/// order: the allocator calls a tree of this shape costs on its own.
fn rebuild(tree: &EmbeddedTree) -> EmbeddedTree {
    let mut out = EmbeddedTree::new(tree.vertex(tree.root()));
    for v in 1..tree.num_nodes() as NodeId {
        let parent = tree.parent(v).expect("non-root");
        out.add_node(tree.node_kind(v), tree.vertex(v), parent, tree.path(v).edges.to_vec());
    }
    out
}

#[test]
fn a_warm_embed_workspace_allocates_only_the_returned_tree() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let grid = GridSpec::uniform(28, 28, 4).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    let env = EmbedEnv {
        graph: &grid,
        cost: &cost,
        delay: &delay,
        bif: BifurcationConfig::new(4.0, 0.25),
    };
    let nets = embed_nets(&grid);
    let mut ws = EmbedWorkspace::new();
    let embed_all = |ws: &mut EmbedWorkspace, trees: &mut Vec<EmbeddedTree>| {
        for (topo, root, sinks, weights) in &nets {
            trees.push(ws.embed(&env, topo, *root, sinks, weights));
        }
    };
    // one pass warms the workspace, so its one-time growth is not counted
    let mut warm_up = Vec::with_capacity(nets.len());
    embed_all(&mut ws, &mut warm_up);
    let mut trees = Vec::with_capacity(nets.len());
    let ((), warm) = counted(|| embed_all(&mut ws, &mut trees));
    let mut copies = Vec::with_capacity(nets.len());
    let ((), own) = counted(|| copies.extend(trees.iter().map(rebuild)));
    assert_eq!(copies, trees, "the rebuilt trees differ");
    assert_eq!(trees, warm_up, "a warm workspace changed a tree");

    let (topo, root, sinks, weights) = nets.last().expect("the 40-sink net");
    let (tree, fresh) = counted(|| embed_topology(&env, topo, *root, sinks, weights));
    assert_eq!(&tree, trees.last().expect("the 40-sink tree"), "a fresh workspace changed a tree");
    println!(
        "embed: warm {warm:?} over {} nets, the trees alone {own:?}; fresh, {} nodes: {fresh:?}",
        nets.len(),
        topo.num_nodes()
    );
    assert!(
        warm.calls <= own.calls,
        "a warm embed workspace made {} allocator calls where its {} trees make {}",
        warm.calls,
        nets.len(),
        own.calls
    );
    assert!(
        fresh.bytes <= FRESH_EMBED_BYTES_MAX,
        "a fresh embed workspace requested {} bytes for one 40-sink embedding (ceiling {FRESH_EMBED_BYTES_MAX})",
        fresh.bytes
    );
}
