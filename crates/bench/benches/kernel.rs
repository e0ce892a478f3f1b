//! The search-kernel bench: per-component vs batched multi-sink search
//! on the `forest` bench's routing workload.
//!
//! The batched row is a different algorithm (member searches survive
//! sink–sink merges instead of restarting one labelling from each
//! Steiner terminal), so it is reported with its own checksum and
//! validated only for plausibility.
//!
//! Per configuration the report prints wall clock, nets/s, and the
//! kernel op-counters ([`RouterStats`]: settled/pushed/popped/
//! decreased/bucket-scans), normalized per routed net — the numbers
//! EXPERIMENTS.md archives.
//!
//! ```text
//! cargo bench -p cds-bench --bench kernel
//! ```
//!
//! [`RouterStats`]: cds_router::RouterStats

use cds_instgen::{Chip, ChipSpec};
use cds_router::{Router, RouterConfig, RoutingOutcome};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERATIONS: usize = 3;

fn build_chip() -> Chip {
    // identical workload to the `forest` bench
    ChipSpec { num_nets: 120, ..ChipSpec::small_test(7) }.generate()
}

fn run(chip: &Chip, batch: bool) -> RoutingOutcome {
    Router::new(
        chip,
        RouterConfig {
            iterations: ITERATIONS,
            threads: 1, // single worker: clean per-config op counts
            batch,
            ..Default::default()
        },
    )
    .run()
}

fn kernel_report(chip: &Chip) {
    // warm every path once so one-time setup is out of the numbers
    let warm = run(chip, false);
    run(chip, true);

    let mut rows = Vec::new();
    for (name, batch) in [("bucket", false), ("bucket+batch", true)] {
        let start = Instant::now();
        let out = run(chip, batch);
        let wall = start.elapsed();
        if !batch {
            assert_eq!(out.checksum(), warm.checksum(), "{name} is not reproducible");
        }
        rows.push((name, wall, out));
    }

    println!("\nkernel report ({} nets × {ITERATIONS} rip-up iterations)", chip.nets.len());
    println!(
        "{:<13} {:>10} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "config",
        "wall",
        "nets/s",
        "settled/net",
        "pushed/net",
        "popped/net",
        "decr/net",
        "scans/net"
    );
    for (name, wall, out) in &rows {
        let nets = out.stats.total_rerouted().max(1) as f64;
        let st = &out.stats;
        println!(
            "{:<13} {:>10} {:>9.0} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
            name,
            format!("{wall:.1?}"),
            nets / wall.as_secs_f64(),
            st.kernel_settled as f64 / nets,
            st.kernel_pushed as f64 / nets,
            st.kernel_popped as f64 / nets,
            st.kernel_decreased as f64 / nets,
            st.kernel_bucket_scans as f64 / nets,
        );
    }
    println!("batch checksum {:#018x} vs {:#018x}\n", rows[1].2.checksum(), warm.checksum(),);
}

fn bench_kernel(c: &mut Criterion) {
    let chip = build_chip();
    kernel_report(&chip);
    let mut g = c.benchmark_group("kernel");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("bucket_queue", |b| b.iter(|| black_box(run(&chip, false).checksum())));
    g.bench_function("bucket_batched", |b| b.iter(|| black_box(run(&chip, true).checksum())));
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
