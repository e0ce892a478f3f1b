//! Fresh-per-call vs reused-workspace solve throughput on a
//! rip-up-style request stream (the session-API payoff measurement).
//!
//! The workload mimics the router's inner loop: a fixed grid, a pool of
//! nets with 2–16 sinks, and several pricing rounds that perturb edge
//! costs between passes — so the session sees a long, heterogeneous
//! request stream, exactly the shape the reusable [`SolverWorkspace`]
//! is built for.
//!
//! Two variants solve the *identical* stream (results are asserted
//! bit-identical):
//!
//! * `fresh`  — a throwaway `Solver` per call, reallocating every
//!   search structure;
//! * `reused` — one `Solver` session, clear-and-reuse.
//!
//! A counting global allocator reports allocations and bytes per
//! variant, alongside criterion wall-clock sampling.
//!
//! ```text
//! cargo bench -p cds-bench --bench session
//! ```
//!
//! [`SolverWorkspace`]: cds_core::SolverWorkspace

use cds_core::{Request, Solver};
use cds_graph::{GridGraph, GridSpec};
use cds_topo::BifurcationConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// System allocator wrapped with relaxed counters.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// One net of the stream.
struct Net {
    sinks: Vec<u32>,
    weights: Vec<f64>,
    bif: BifurcationConfig,
    seed: u64,
}

/// The rip-up workload: `ROUNDS` pricing rounds over `NETS` nets.
struct Workload {
    grid: GridGraph,
    nets: Vec<Net>,
    /// one cost vector per round (perturbed deterministically)
    costs: Vec<Vec<f64>>,
    delay: Vec<f64>,
}

const NETS: usize = 48;
const ROUNDS: usize = 4;

fn build_workload() -> Workload {
    let grid = GridSpec::uniform(28, 28, 4).build();
    let base = grid.graph().base_costs();
    let delay = grid.graph().delays();
    let (nx, ny) = (grid.spec().nx, grid.spec().ny);
    let nets = (0..NETS as u64)
        .map(|i| {
            let k = 2 + (i * 7 % 15) as u32; // 2..=16 sinks
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
            Net {
                sinks,
                weights,
                bif: BifurcationConfig::new(4.0, 0.25),
                seed: 0xC0FFEE ^ i.wrapping_mul(0x9E3779B97F4A7C15),
            }
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
    Workload { grid, nets, costs, delay }
}

fn requests(w: &Workload, round: usize) -> impl Iterator<Item = Request<'_>> + '_ {
    w.nets.iter().map(move |net| {
        Request::new(
            w.grid.graph(),
            &w.costs[round],
            &w.delay,
            w.grid.vertex(0, 0, 0),
            &net.sinks,
            &net.weights,
        )
        .with_bif(net.bif)
        .with_seed(net.seed)
    })
}

fn run_fresh(w: &Workload) -> f64 {
    let mut acc = 0.0;
    for round in 0..ROUNDS {
        for req in requests(w, round) {
            acc += Solver::new().solve(&req).evaluation.total;
        }
    }
    acc
}

fn run_reused(w: &Workload, session: &mut Solver) -> f64 {
    let mut acc = 0.0;
    for round in 0..ROUNDS {
        for req in requests(w, round) {
            acc += session.solve(&req).evaluation.total;
        }
    }
    acc
}

/// One measured pass of a variant: (wall time, allocs, bytes, checksum).
fn measured<F: FnMut() -> f64>(mut f: F) -> (Duration, u64, u64, f64) {
    let (a0, b0) = allocs_now();
    let start = Instant::now();
    let acc = f();
    let wall = start.elapsed();
    let (a1, b1) = allocs_now();
    (wall, a1 - a0, b1 - b0, acc)
}

fn alloc_report(w: &Workload) {
    let solves = (NETS * ROUNDS) as u64;
    // warm up the session once so one-time setup is out of the numbers
    let mut session = Solver::new();
    black_box(run_reused(w, &mut session));

    let (t_fresh, a_fresh, b_fresh, x1) = measured(|| run_fresh(w));
    let (t_reuse, a_reuse, b_reuse, x2) = measured(|| run_reused(w, &mut session));
    assert_eq!(x1.to_bits(), x2.to_bits(), "reuse changed results");

    println!("\nsession-reuse report ({solves} solves: {NETS} nets × {ROUNDS} pricing rounds)");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>12} {:>14}",
        "variant", "wall", "allocs", "allocs/solve", "MiB", "solves/s"
    );
    for (name, t, a, b) in
        [("fresh", t_fresh, a_fresh, b_fresh), ("reused", t_reuse, a_reuse, b_reuse)]
    {
        println!(
            "{:<8} {:>12} {:>14} {:>14.1} {:>12.1} {:>14.0}",
            name,
            format!("{t:.1?}"),
            a,
            a as f64 / solves as f64,
            b as f64 / (1u64 << 20) as f64,
            solves as f64 / t.as_secs_f64()
        );
    }
    println!(
        "allocation ratio fresh/reused: {:.1}x; speedup reused vs fresh: {:.2}x\n",
        a_fresh as f64 / a_reuse.max(1) as f64,
        t_fresh.as_secs_f64() / t_reuse.as_secs_f64()
    );
}

fn bench_session(c: &mut Criterion) {
    let w = build_workload();
    alloc_report(&w);
    let mut g = c.benchmark_group("session");
    g.sample_size(12);
    g.measurement_time(Duration::from_secs(6));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("fresh_per_call", |b| b.iter(|| black_box(run_fresh(&w))));
    let mut session = Solver::new();
    g.bench_function("reused_workspace", |b| b.iter(|| black_box(run_reused(&w, &mut session))));
    g.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
