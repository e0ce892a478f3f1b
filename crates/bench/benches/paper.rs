//! Criterion benches covering every experiment of the paper at reduced
//! scale, plus the Theorem 1 runtime-scaling measurement and the heap /
//! enhancement micro-benchmarks.
//!
//! `cargo bench -p cds-bench` regenerates all of them; the full-scale
//! table harnesses live in `src/bin/` (see EXPERIMENTS.md).

use cds_bench::{instance_comparison, routing_comparison};
use cds_core::{GridFutureCost, Request, SessionConfig, Solver};
use cds_graph::GridSpec;
use cds_heap::{IndexedBinaryHeap, LazyHeap, TwoLevelHeap};
use cds_instgen::ChipSpec;
use cds_topo::BifurcationConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn small_chip(seed: u64) -> cds_instgen::Chip {
    ChipSpec { num_nets: 150, name: "bench".into(), ..ChipSpec::small_test(seed) }.generate()
}

/// Tables I & II at toy scale (one small chip).
fn bench_tables_1_2(c: &mut Criterion) {
    let chip = small_chip(3);
    let mut g = c.benchmark_group("instance_tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("table1", |b| b.iter(|| black_box(instance_comparison(&chip, false, 2))));
    g.bench_function("table2", |b| b.iter(|| black_box(instance_comparison(&chip, true, 2))));
    g.finish();
}

/// Tables IV & V at toy scale.
fn bench_tables_4_5(c: &mut Criterion) {
    let chip = small_chip(4);
    let mut g = c.benchmark_group("routing_tables");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("table4", |b| b.iter(|| black_box(routing_comparison(&chip, false, 2))));
    g.bench_function("table5", |b| b.iter(|| black_box(routing_comparison(&chip, true, 2))));
    g.finish();
}

/// Theorem 1: runtime scaling of the cost-distance algorithm in the
/// number of terminals `t` (expected near-linear) and grid size `n`.
fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    for t in [4usize, 8, 16, 32, 64] {
        let grid = GridSpec::uniform(40, 40, 4).build();
        let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
        let mut rng = StdRng::seed_from_u64(t as u64);
        let sinks: Vec<u32> =
            (0..t).map(|_| grid.vertex(rng.gen_range(0..40), rng.gen_range(0..40), 0)).collect();
        let weights = vec![0.2; t];
        let root = grid.vertex(0, 0, 0);
        g.bench_with_input(BenchmarkId::new("terminals", t), &t, |b, _| {
            b.iter(|| {
                let mut terms = sinks.clone();
                terms.push(root);
                let fc = GridFutureCost::new(&grid, &terms);
                let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &weights)
                    .with_future(&fc);
                black_box(Solver::new().solve(&req))
            })
        });
    }
    for side in [16u32, 24, 32, 48] {
        let grid = GridSpec::uniform(side, side, 4).build();
        let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
        let mut rng = StdRng::seed_from_u64(u64::from(side));
        let sinks: Vec<u32> = (0..12)
            .map(|_| grid.vertex(rng.gen_range(0..side), rng.gen_range(0..side), 0))
            .collect();
        let weights = vec![0.2; 12];
        let root = grid.vertex(0, 0, 0);
        g.bench_with_input(BenchmarkId::new("gridside", side), &side, |b, _| {
            b.iter(|| {
                let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &weights);
                black_box(Solver::new().solve(&req))
            })
        });
    }
    g.finish();
}

/// §III ablation: each enhancement toggled off against the full solver.
fn bench_ablation(c: &mut Criterion) {
    let grid = GridSpec::uniform(32, 32, 4).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    let mut rng = StdRng::seed_from_u64(17);
    let sinks: Vec<u32> =
        (0..24).map(|_| grid.vertex(rng.gen_range(0..32), rng.gen_range(0..32), 0)).collect();
    let weights = vec![0.2; 24];
    let root = grid.vertex(0, 0, 0);
    let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &weights)
        .with_bif(BifurcationConfig::new(8.0, 0.25));
    let mut terms = sinks.clone();
    terms.push(root);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("base", |b| {
        b.iter(|| black_box(Solver::with_config(SessionConfig::BASE).solve(&req)))
    });
    g.bench_function("enhanced_no_astar", |b| b.iter(|| black_box(Solver::new().solve(&req))));
    g.bench_function("enhanced_astar", |b| {
        b.iter(|| {
            let fc = GridFutureCost::new(&grid, &terms);
            black_box(Solver::new().solve(&req.with_future(&fc)))
        })
    });
    g.finish();
}

/// §III-B: two-level heap against flat alternatives on a Dijkstra-like
/// random workload.
fn bench_heaps(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let ops: Vec<(u32, u32, f64)> = (0..20_000)
        .map(|_| (rng.gen_range(0..16), rng.gen_range(0..4096), rng.gen_range(0.0..1e6)))
        .collect();
    let mut g = c.benchmark_group("heaps");
    g.bench_function("two_level", |b| {
        b.iter(|| {
            let mut h = TwoLevelHeap::new();
            let sids: Vec<u32> = (0..16).map(|_| h.add_search()).collect();
            for &(s, v, k) in &ops {
                h.push(sids[s as usize], v, k);
                if v % 3 == 0 {
                    black_box(h.pop());
                }
            }
            while h.pop().is_some() {}
        })
    });
    g.bench_function("indexed_binary", |b| {
        b.iter(|| {
            let mut h = IndexedBinaryHeap::new(16 * 4096);
            for &(s, v, k) in &ops {
                h.push(s * 4096 + v, k);
                if v % 3 == 0 {
                    black_box(h.pop());
                }
            }
            while h.pop().is_some() {}
        })
    });
    g.bench_function("lazy", |b| {
        b.iter(|| {
            let mut best = vec![f64::INFINITY; 16 * 4096];
            let mut h = LazyHeap::new();
            for &(s, v, k) in &ops {
                let id = s * 4096 + v;
                if k < best[id as usize] {
                    best[id as usize] = k;
                    h.push(id, k);
                }
                if v % 3 == 0 {
                    black_box(h.pop(&best));
                }
            }
            while h.pop(&best).is_some() {}
        })
    });
    g.finish();
}

/// Fig. 3 workload: the 5-sink trace example.
fn bench_fig3(c: &mut Criterion) {
    let grid = GridSpec::uniform(20, 20, 2).build();
    let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
    let sinks = [
        grid.vertex(3, 16, 0),
        grid.vertex(8, 14, 0),
        grid.vertex(16, 12, 0),
        grid.vertex(5, 5, 0),
        grid.vertex(14, 3, 0),
    ];
    let weights = [2.0, 0.5, 1.0, 0.7, 1.4];
    let req = Request::new(grid.graph(), &cost, &delay, grid.vertex(10, 10, 0), &sinks, &weights)
        .with_bif(BifurcationConfig::new(5.0, 0.25))
        .with_trace();
    c.bench_function("fig3_trace", |b| b.iter(|| black_box(Solver::new().solve(&req))));
}

criterion_group!(
    benches,
    bench_tables_1_2,
    bench_tables_4_5,
    bench_scaling,
    bench_ablation,
    bench_heaps,
    bench_fig3
);
criterion_main!(benches);
