//! Allocator traffic of the two reuse layers, gated.
//!
//! The solver session ([`Solver`] over a reusable `SolverWorkspace`)
//! and the [`RoutedForest`] arena exist to keep the allocator off the
//! solve path. A counting global allocator measures each against its
//! non-reusing twin on one identical workload, and the tests assert:
//!
//! * the twins compute the same bits (so the counts compare like with
//!   like);
//! * the reusing path stays under a ceiling of allocator calls per
//!   solve / per routed net;
//! * it beats the twin by a stated factor;
//! * a fresh solver's bytes per solve — the label records every search
//!   grows to its window — stay under a ceiling, so splitting the
//!   24-byte record or adding a per-search slab beside it fails.
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

use cds_core::{Request, Solver};
use cds_graph::{GridGraph, GridSpec};
use cds_instgen::{Chip, ChipSpec};
use cds_router::{Router, RouterConfig};
use cds_topo::BifurcationConfig;
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

/// Held while a test counts, so the two tests never overlap.
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

/// Allocator calls per solve a warm session may make (measured: 58.4
/// release, 59.4 debug).
const SESSION_CALLS_PER_SOLVE_MAX: f64 = 60.0;
/// How many times fewer calls and bytes the session makes than fresh
/// solvers (measured: 22× calls, 26× bytes).
const SESSION_MIN_RATIO: f64 = 10.0;
/// Bytes a fresh solver may request per solve (measured: 3.11 MB). A
/// second window-sized table per search beside the 24-byte label
/// record, such as a queue key slab, takes it past 4 MB.
const FRESH_BYTES_PER_SOLVE_MAX: f64 = 3.3e6;

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
    for (what, f, r) in [("calls", fresh.calls, reused.calls), ("bytes", fresh.bytes, reused.bytes)]
    {
        let ratio = f as f64 / r.max(1) as f64;
        assert!(
            ratio >= SESSION_MIN_RATIO,
            "fresh solvers make only {ratio:.1}× the session's allocator {what} (floor {SESSION_MIN_RATIO}×)"
        );
    }
}

// ---- router output: owned per-net trees vs the forest arena ----

/// Allocator calls per routed net the arena path may make (measured:
/// 32.2 release, 33.2 debug; the dirty-net scheduler routes 179 of the
/// 360 net-iterations).
const ARENA_CALLS_PER_NET_MAX: f64 = 34.0;
/// How many times fewer calls the arena path makes than the owned-tree
/// fallback (measured: 2.2×).
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
