//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root lists the same names; a test parses it and compares.
//!
//! A later performance claim names a metric and a workload from here.

use cds_instgen::{ChipSpec, SinkProfile};

/// One benchmark workload: a family of chip documents plus the router
/// configuration they are routed under, driven through both shipped
/// front ends (the `cds-cli route` child and the `cds-serve` daemon).
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload is here (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The base chips. Every field is literal — no CLI preset — so a
    /// preset change cannot silently move the benchmark.
    pub chips: Vec<ChipSpec>,
    /// Router knobs as `RouterConfig::set_knob` pairs; everything not
    /// listed stays at `RouterConfig::default()`.
    pub knobs: &'static [(&'static str, &'static str)],
    /// Fresh cache keys the two clients submit per round (cold phase);
    /// a multiple of the document count, so every round covers every chip.
    pub cold_keys: usize,
    /// Fresh keys both clients submit behind a barrier (coalesce phase).
    pub coalesce_keys: usize,
}

fn chip(
    name: &str,
    num_nets: usize,
    num_layers: u8,
    utilization: f64,
    profile: SinkProfile,
    seed: u64,
) -> ChipSpec {
    ChipSpec {
        name: name.into(),
        num_nets,
        num_layers,
        seed,
        gcell_um: 20.0,
        utilization,
        rat_tightness: 1.25,
        max_chain_len: 3,
        profile,
    }
}

const CD_T1: &[(&str, &str)] = &[("oracle", "cd"), ("threads", "1"), ("iterations", "5")];
const CD_T2: &[(&str, &str)] =
    &[("oracle", "cd"), ("threads", "2"), ("iterations", "5"), ("shards", "2")];
const SL_T1: &[(&str, &str)] = &[("oracle", "sl"), ("threads", "1"), ("iterations", "5")];
const MIX: &[(&str, &str)] = &[("oracle", "cd"), ("threads", "1"), ("iterations", "3")];

/// The six workloads. Sizes are set so one `cds-cli route` child takes
/// 0.5–1 s here: the driver allots ~20 s per run, and a run needs
/// several repetitions to report a median (see README, "Sizing").
pub fn workloads() -> Vec<Workload> {
    use SinkProfile::{FanoutHeavy, Mixed};
    let deep = || chip("deep", 350, 15, 0.22, Mixed, 11);
    vec![
        Workload {
            name: "deep_t1",
            why: "c8 proxy: 15-layer stack, CD kernel does >95% of the work; the workload kernel/future-cost/window claims are made on",
            chips: vec![deep()],
            knobs: CD_T1,
            cold_keys: 2,
            coalesce_keys: 1,
        },
        Workload {
            name: "deep_t2",
            why: "same document through the parallel path (2 threads, 2 shards); must reproduce deep_t1's checksum; shows what survives two workers",
            chips: vec![deep()],
            knobs: CD_T2,
            cold_keys: 2,
            coalesce_keys: 1,
        },
        Workload {
            name: "fanout_t1",
            why: "30-80 sinks per net: dozens of simultaneous searches, merges and long tree assembly; hard-congested so every net reroutes every iteration",
            chips: vec![chip("fanout", 50, 9, 0.33, FanoutHeavy, 12)],
            knobs: CD_T1,
            cold_keys: 2,
            coalesce_keys: 1,
        },
        Workload {
            name: "wide_t1",
            why: "scale axis: largest die, document, forest, ledger and timing DAG with the cheapest per-net solves; router-loop bookkeeping has its largest share",
            chips: vec![chip("wide", 900, 4, 0.22, Mixed, 13)],
            knobs: CD_T1,
            cold_keys: 2,
            coalesce_keys: 1,
        },
        Workload {
            name: "embed_sl_t1",
            why: "bypasses the CD kernel (all kernel counters 0): topology-then-embed baseline through cds-baselines, cds-embed and dijkstra; CD-kernel changes must not move it",
            chips: vec![chip("embed", 150, 4, 0.22, Mixed, 14)],
            knobs: SL_T1,
            cold_keys: 2,
            coalesce_keys: 1,
        },
        Workload {
            name: "serve_mix",
            why: "daemon round trips over three small chips: many cold keys, then cache hits that touch only http, document canonicalisation, the cache and the job table",
            chips: vec![
                chip("mix-a", 300, 4, 0.22, Mixed, 15),
                chip("mix-b", 150, 4, 0.33, Mixed, 16),
                chip("mix-c", 24, 4, 0.33, FanoutHeavy, 17),
            ],
            knobs: MIX,
            cold_keys: 12,
            coalesce_keys: 6,
        },
    ]
}

impl Workload {
    /// Value of knob `key`, if the workload sets it.
    pub fn knob(&self, key: &str) -> Option<&'static str> {
        self.knobs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    pub fn threads(&self) -> usize {
        self.knob("threads").and_then(|v| v.parse().ok()).unwrap_or(1)
    }

    /// Rip-up iterations the workload configures (every workload does).
    pub fn iterations(&self) -> f64 {
        self.knob("iterations").and_then(|v| v.parse().ok()).unwrap_or(5.0)
    }

    /// The run's member of each base chip's instance family.
    ///
    /// `--seed` does not replace `ChipSpec::seed`: independently seeded
    /// chips differ by 10 % in route time, 3 % in wirelength and 30 % in
    /// TNS even at 1500 nets, which would drown every regression bound
    /// in instance-to-instance variance. Instead the seed jitters the
    /// capacity calibration target (`utilization`) by up to ±0.5 %: same
    /// pins and timing chains, different edge capacities, so each seed
    /// is a distinct routing problem (distinct prices, reroute sets and
    /// checksums) with the same bulk statistics.
    pub fn family(&self, seed: u64) -> Vec<ChipSpec> {
        self.chips
            .iter()
            .enumerate()
            .map(|(k, base)| {
                let u = unit(splitmix64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                ChipSpec {
                    utilization: base.utilization * (1.0 + 0.01 * (u - 0.5)),
                    ..base.clone()
                }
            })
            .collect()
    }
}

/// Router `seed` knob of serve key `index` in a run seeded `seed`: the
/// daemon's cache keys on the whole resolved config, so distinct router
/// seeds are distinct keys over one document.
pub fn key_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(100_003).wrapping_add(index as u64) % 1_000_000_007
}

/// SplitMix64 finalizer — the harness's only randomness, fully seeded.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "route_wall_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "oracle_calls_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.15 },
    EndToEnd { name: "wirelength_m", unit: "m", better: Lower, bound: 0.03 },
    EndToEnd { name: "cold_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "hit_p50_ms", unit: "ms", better: Lower, bound: 0.10 },
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Higher, bound: 0.10 },
];

/// A metric of one layer (layer = crate name). No bound: per-layer
/// numbers explain an end-to-end movement, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    pl("instgen.gen_ms", "ms", Lower),
    pl("instgen.write_ms", "ms", Lower),
    pl("instgen.read_ms", "ms", Lower),
    pl("instgen.read_mb_per_s", "MB/s", Higher),
    pl("instgen.doc_bytes", "B", Lower),
    pl("instgen.state_write_ms", "ms", Lower),
    pl("instgen.state_read_ms", "ms", Lower),
    pl("instgen.state_bytes", "B", Lower),
    pl("graph.window_us_per_net", "us", Lower),
    pl("graph.window_cells_per_net", "count", Lower),
    pl("graph.edges", "count", Lower),
    pl("core.future_us_per_net", "us", Lower),
    pl("core.solve_us_per_net", "us", Lower),
    pl("core.solve_us_p50", "us", Lower),
    pl("core.solve_us_tail", "us", Lower),
    pl("core.solve_tail_pct", "%", Higher),
    pl("core.ns_per_settle", "ns", Lower),
    pl("core.settled_per_net", "count", Lower),
    pl("core.pushed_per_net", "count", Lower),
    pl("core.decreased_per_net", "count", Lower),
    pl("core.bucket_scans_per_net", "count", Lower),
    pl("heap.bucket_ns_per_op", "ns", Lower),
    pl("heap.twolevel_ns_per_op", "ns", Lower),
    pl("topo.evaluate_us_per_net", "us", Lower),
    pl("topo.validate_us_per_net", "us", Lower),
    pl("topo.nodes_per_net", "count", Lower),
    pl("topo.arena_bytes", "B", Lower),
    pl("router.new_ms", "ms", Lower),
    pl("router.run_s", "s", Lower),
    pl("router.iter_first_s", "s", Lower),
    pl("router.iter_rest_s", "s", Lower),
    pl("router.route_one_us_per_net", "us", Lower),
    pl("router.glue_us_per_net", "us", Lower),
    pl("router.loop_residual_s", "s", Lower),
    pl("router.par_efficiency", "ratio", Higher),
    pl("router.report_ms", "ms", Lower),
    pl("router.oracle_calls", "count", Lower),
    pl("router.rerouted_frac", "ratio", Lower),
    pl("router.dirty_overflow", "count", Lower),
    pl("router.dirty_timing", "count", Lower),
    pl("router.dirty_price", "count", Lower),
    pl("router.dirty_budget", "count", Lower),
    pl("router.kernel_settled", "count", Lower),
    pl("router.kernel_pushed", "count", Lower),
    pl("router.kernel_decreased", "count", Lower),
    pl("router.kernel_bucket_scans", "count", Lower),
    pl("router.peak_arena_bytes", "B", Lower),
    pl("sta.nodes_retimed", "count", Lower),
    pl("metrics.ws_ps", "ps", Higher),
    pl("metrics.tns_ps", "ps", Higher),
    pl("metrics.ace4_pct", "%", Lower),
    pl("metrics.vias", "count", Lower),
    pl("metrics.totals_ms", "ms", Lower),
    pl("rsmt.topology_us_per_net", "us", Lower),
    pl("baselines.sl_us_per_net", "us", Lower),
    pl("baselines.pd_us_per_net", "us", Lower),
    pl("embed.embed_us_per_net", "us", Lower),
    pl("cli.overhead_s", "s", Lower),
    pl("serve.http_parse_us", "us", Lower),
    pl("serve.submit_rtt_ms", "ms", Lower),
    pl("serve.status_rtt_ms", "ms", Lower),
    pl("serve.result_rtt_ms", "ms", Lower),
    pl("serve.hit_tail_ms", "ms", Lower),
    pl("serve.hit_tail_pct", "%", Higher),
    pl("serve.cache_hits", "count", Higher),
    pl("serve.cache_misses", "count", Lower),
    pl("serve.coalesced", "count", Higher),
    pl("serve.rejected", "count", Lower),
    pl("serve.daemon_rss_mb", "MB", Lower),
    pl("trace.spans", "count", Lower),
    pl("trace.overhead_frac", "ratio", Lower),
];

/// How long one driver run measures (`run_seconds` of the manifest and
/// the default `--seconds`).
pub const RUN_SECONDS: u32 = 16;

/// `BENCHMARK.json`, rendered from this registry — `cds-perf manifest`
/// prints it, and a test holds the committed file to it byte for byte.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = list(
        workloads()
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"cds-perf/bench.sh\"],\n  \"paths\": [\"cds-perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let w = workloads();
        assert!((2..=8).contains(&w.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for name in w
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        for wl in &w {
            assert!(wl.why.len() <= 200 && !wl.why.contains('\n'), "{} why", wl.name);
            assert_eq!(wl.cold_keys % wl.chips.len(), 0, "{} cold keys cover every chip", wl.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_is_the_rendered_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, manifest(), "regenerate with `cds-perf manifest > BENCHMARK.json`");
        // and the rendering is the contract's shape
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(j.get("workloads").unwrap().arr().len(), workloads().len());
        assert_eq!(j.get("end_to_end").unwrap().arr().len(), END_TO_END.len());
        assert_eq!(j.get("per_layer").unwrap().arr().len(), PER_LAYER.len());
        assert!(text.len() < 64 * 1024);
        let seconds = j.get("run_seconds").unwrap().num().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn family_members_differ_by_seed_but_only_in_capacity_target() {
        let w = &workloads()[5];
        let (a, b, a2) = (w.family(1), w.family(2), w.family(1));
        assert_eq!(a, a2, "same seed, same inputs");
        assert_eq!(a.len(), 3);
        for ((x, y), base) in a.iter().zip(&b).zip(&w.chips) {
            assert_ne!(x.utilization, y.utilization);
            assert!((x.utilization / base.utilization - 1.0).abs() <= 0.005);
            assert_eq!(ChipSpec { utilization: base.utilization, ..x.clone() }, *base);
        }
        assert_ne!(key_seed(1, 0), key_seed(1, 1));
        assert_ne!(key_seed(1, 0), key_seed(2, 0));
    }
}
