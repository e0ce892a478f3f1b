//! Owned per-net trees vs the `RoutedForest` arena — the allocation
//! measurement of the forest refactor.
//!
//! The router's per-net *output* used to be the last allocation sink on
//! the solve path: an owned `EmbeddedTree` carries a `Vec` per node
//! (children list, arc path), plus per-net sink-delay and used-edge
//! vectors. The arena path writes all of it into the shared
//! struct-of-arrays slabs of [`RoutedForest`] — on warm buffers a
//! routed net touches the allocator O(1) times, not O(nodes).
//!
//! This bench routes one small workload (120 nets × 3
//! rip-up iterations, one worker, zero-copy window views) through both
//! paths — the stock arena path, and a wrapper oracle that forces the
//! owned-tree `route_into` fallback ("fresh") — asserts the outcomes
//! bit-identical, and reports wall clock plus allocator traffic per
//! routed net. The arena path is asserted strictly below the PR 2
//! window-bench baseline of 89.4 allocs/net.
//!
//! ```text
//! cargo bench -p cds-bench --bench forest
//! ```
//!
//! [`RoutedForest`]: cds_topo::RoutedForest

use cds_instgen::{Chip, ChipSpec};
use cds_router::{
    OracleRequest, OracleWorkspace, Router, RouterConfig, SteinerMethod, SteinerOracle,
};
use cds_topo::EmbeddedTree;
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

/// The PR 2 `window` bench baseline this refactor must beat.
const PR2_ALLOCS_PER_NET: f64 = 89.4;

const ITERATIONS: usize = 3;

fn build_chip() -> Chip {
    ChipSpec { num_nets: 120, ..ChipSpec::small_test(7) }.generate()
}

/// Implements only `route()`, so the router's default `route_into`
/// materializes an owned `EmbeddedTree` per net and copies it into the
/// forest — the "fresh per-net trees" reference.
struct OwnedPathCd;

impl SteinerOracle for OwnedPathCd {
    fn name(&self) -> &str {
        "CD-owned"
    }
    fn uses_budgets(&self) -> bool {
        false
    }
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        SteinerMethod::Cd.oracle().route(req, ws)
    }
}

fn config() -> RouterConfig {
    RouterConfig {
        iterations: ITERATIONS,
        threads: 1, // single worker: clean per-net allocation counts
        ..Default::default()
    }
}

fn run(chip: &Chip, owned: bool) -> ((u64, f64, f64, usize), u64) {
    let out = if owned {
        Router::with_oracle(chip, config(), Box::new(OwnedPathCd)).run()
    } else {
        Router::new(chip, config()).run()
    };
    // kernel counters ride outside the compared tuple: the owned
    // wrapper goes through the default `route_into`, which reports no
    // kernel stats, while the arena path reports the real counters
    (
        (out.checksum(), out.metrics.tns, out.metrics.wl_m, out.metrics.vias),
        out.stats.kernel_settled,
    )
}

fn alloc_report(chip: &Chip) {
    let nets_routed = (chip.nets.len() * ITERATIONS) as u64;
    // warm both paths once so one-time setup is out of the numbers
    let warm_arena = run(chip, false);
    let warm_owned = run(chip, true);
    assert_eq!(warm_arena.0, warm_owned.0, "owned and arena paths diverged");

    let mut rows = Vec::new();
    for (name, owned) in [("fresh (owned)", true), ("arena (forest)", false)] {
        let (a0, b0) = allocs_now();
        let start = Instant::now();
        let got = run(chip, owned);
        let wall = start.elapsed();
        let (a1, b1) = allocs_now();
        assert_eq!(got.0, warm_arena.0, "paths diverged");
        rows.push((name, wall, a1 - a0, b1 - b0));
    }

    println!(
        "\nforest report ({} nets × {ITERATIONS} rip-up iterations = {nets_routed} routed nets)",
        chip.nets.len()
    );
    println!(
        "{:<15} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "path", "wall", "allocs", "allocs/net", "MiB", "nets/s"
    );
    for &(name, wall, allocs, bytes) in &rows {
        println!(
            "{:<15} {:>12} {:>14} {:>12.1} {:>12.1} {:>12.0}",
            name,
            format!("{wall:.1?}"),
            allocs,
            allocs as f64 / nets_routed as f64,
            bytes as f64 / (1u64 << 20) as f64,
            nets_routed as f64 / wall.as_secs_f64()
        );
    }
    let (owned, arena) = (&rows[0], &rows[1]);
    let arena_per_net = arena.2 as f64 / nets_routed as f64;
    println!(
        "allocation ratio owned/arena: {:.1}x; arena allocs/net {:.1} vs PR 2 window baseline {PR2_ALLOCS_PER_NET}\n",
        owned.2 as f64 / arena.2.max(1) as f64,
        arena_per_net,
    );
    assert!(
        arena_per_net < PR2_ALLOCS_PER_NET,
        "arena path regressed: {arena_per_net:.1} allocs/net ≥ the PR 2 baseline {PR2_ALLOCS_PER_NET}"
    );
    println!(
        "kernel ops (arena path): {} settled ({:.1}/net); owned fallback reports none\n",
        warm_arena.1,
        warm_arena.1 as f64 / nets_routed as f64
    );
}

fn bench_forest(c: &mut Criterion) {
    let chip = build_chip();
    alloc_report(&chip);
    let mut g = c.benchmark_group("forest");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("owned_trees", |b| b.iter(|| black_box(run(&chip, true))));
    g.bench_function("forest_arena", |b| b.iter(|| black_box(run(&chip, false))));
    g.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);
