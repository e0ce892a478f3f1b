//! The `cdst/1` chip document contract, end to end:
//!
//! 1. **Round-trip totality** — for arbitrary valid documents
//!    (proptest), every string the writer emits is accepted by the
//!    parser and recovers the document bit-identically, and
//!    re-serializing reproduces the string byte-for-byte. Corrupting
//!    any record line fails with that line's 1-based number. The
//!    streaming reader is observationally identical to the owned parse
//!    on both counts (same chip, same first error).
//! 2. **Fixture pinning** — the archived documents under
//!    `tests/fixtures/` are byte-identical to what the generators
//!    produce today, routing the archived 300-net converging chip
//!    reproduces the pinned checksums for all four oracles at 1 and 4
//!    threads, and replaying the archived 120-request solver stream
//!    reproduces the sparse-era golden of `tests/determinism.rs`.
//! 3. **No tree-delay fallback** — every component a CD restart prices
//!    on the archived documents is a tree, so the rooted sweeps price
//!    them all and the Dijkstra fallback is never taken.

use cds_core::{Request, SolveResult, SolveStats, Solver};
use cds_geom::Point;
use cds_graph::GridGraph;
use cds_graph::{Direction, GridSpec, LayerSpec, WireTypeSpec};
use cds_instgen::io::doc::{
    chip_doc_to_string, parse_chip_doc, read_chip_streaming, ChipDoc, RequestRecord,
};
use cds_instgen::{Chain, ChainLink, ChipSpec, Net, SinkProfile};
use cds_router::{
    CdOracle, OracleRequest, OracleWorkspace, Router, RouterConfig, SteinerMethod, SteinerOracle,
};
use cds_topo::{BifurcationConfig, EmbeddedTree, RoutedForest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with `cds-cli fixtures`)"))
}

/// Interesting f64s for the round-trip property: zeros of both signs,
/// subnormals, huge magnitudes, infinities — everything but NaN, which
/// the writer rejects by contract.
fn edge_f64(rng: &mut StdRng) -> f64 {
    const POOL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        1e-300,
        5e-324,
        f64::MIN_POSITIVE,
        1e300,
        f64::MAX,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.gen_range(0..3) {
        0 => POOL[rng.gen_range(0..POOL.len())],
        1 => f64::from_bits(rng.gen::<u64>() & !f64::NAN.to_bits() | 1), // random finite-ish bits
        _ => rng.gen_range(-1e6..1e6),
    }
}

/// Like [`edge_f64`] but finite (for fields the format validates, e.g.
/// η, d_bif, gcell pitch).
fn finite_f64(rng: &mut StdRng) -> f64 {
    loop {
        let v = edge_f64(rng);
        if v.is_finite() {
            return v;
        }
    }
}

fn token(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..8);
    (0..n)
        .map(|_| {
            let chars = b"abcxyz_-.0129";
            chars[rng.gen_range(0..chars.len())] as char
        })
        .collect()
}

/// A random valid chip document: random grid, layers, wire types,
/// capacity overrides, sink-less and many-sink nets, chains, sparse
/// weights/budgets archives, config pairs, and request records.
fn arbitrary_doc(seed: u64) -> ChipDoc {
    let mut rng = StdRng::seed_from_u64(seed);
    let (nx, ny) = (rng.gen_range(1..10u32), rng.gen_range(1..10u32));
    let nl = rng.gen_range(1..5usize);
    let layers: Vec<LayerSpec> = (0..nl)
        .map(|_| LayerSpec {
            dir: if rng.gen() { Direction::Horizontal } else { Direction::Vertical },
            wire_types: (0..rng.gen_range(1..3))
                .map(|_| WireTypeSpec {
                    cost_per_gcell: edge_f64(&mut rng),
                    delay_per_gcell: edge_f64(&mut rng),
                    capacity: edge_f64(&mut rng),
                })
                .collect(),
        })
        .collect();
    let grid = GridSpec {
        nx,
        ny,
        layers,
        via_cost: edge_f64(&mut rng),
        via_delay: edge_f64(&mut rng),
        via_capacity: edge_f64(&mut rng),
        gcell_um: finite_f64(&mut rng).abs().max(1e-300),
    };
    let num_edges = cds_instgen::io::doc::spec_num_edges(&grid);
    let mut ecap: Vec<(u32, f64)> = Vec::new();
    for e in 0..num_edges as u32 {
        if ecap.len() < 40 && rng.gen::<f64>() < 0.1 {
            ecap.push((e, edge_f64(&mut rng)));
        }
    }
    let point =
        |rng: &mut StdRng| Point::new(rng.gen_range(0..nx as i32), rng.gen_range(0..ny as i32));
    let nets: Vec<Net> = (0..rng.gen_range(0..12usize))
        .map(|_| {
            let sinks = (0..rng.gen_range(0..5usize)).map(|_| point(&mut rng)).collect();
            Net { root: point(&mut rng), sinks }
        })
        .collect();
    let sinked: Vec<usize> = (0..nets.len()).filter(|&i| !nets[i].sinks.is_empty()).collect();
    let chains: Vec<Chain> = (0..rng.gen_range(0..4usize))
        .filter_map(|_| {
            if sinked.is_empty() {
                return None;
            }
            let len = rng.gen_range(1..=3.min(sinked.len()));
            let links: Vec<ChainLink> = (0..len)
                .map(|j| {
                    let net = sinked[rng.gen_range(0..sinked.len())];
                    let cont_sink = (j + 1 < len).then(|| rng.gen_range(0..nets[net].sinks.len()));
                    ChainLink { net, cont_sink }
                })
                .collect();
            Some(Chain { links, rat_ps: edge_f64(&mut rng) })
        })
        .collect();
    let sparse = |rng: &mut StdRng, nets: &[Net]| -> Vec<(usize, Vec<f64>)> {
        let mut out = Vec::new();
        for (i, net) in nets.iter().enumerate() {
            if rng.gen::<f64>() < 0.3 {
                out.push((i, (0..net.sinks.len()).map(|_| edge_f64(rng)).collect()));
            }
        }
        out
    };
    let weights = sparse(&mut rng, &nets);
    let budgets = sparse(&mut rng, &nets);
    let config: Vec<(String, String)> =
        (0..rng.gen_range(0..4usize)).map(|_| (token(&mut rng), token(&mut rng))).collect();
    let requests: Vec<RequestRecord> = (0..rng.gen_range(0..4usize))
        .map(|_| {
            let pin = |rng: &mut StdRng| {
                (rng.gen_range(0..nx), rng.gen_range(0..ny), rng.gen_range(0..nl as u8))
            };
            let k = rng.gen_range(1..5usize);
            RequestRecord {
                seed: rng.gen(),
                dbif: finite_f64(&mut rng).abs(),
                eta: [0.0, 0.25, 0.5][rng.gen_range(0..3usize)],
                root: pin(&mut rng),
                sinks: (0..k).map(|_| pin(&mut rng)).collect(),
                weights: (0..k).map(|_| edge_f64(&mut rng)).collect(),
            }
        })
        .collect();
    ChipDoc {
        name: token(&mut rng),
        tech_layers: rng.gen_range(2..16),
        cell_delay_ps: edge_f64(&mut rng),
        config,
        grid,
        ecap,
        nets,
        chains,
        weights,
        budgets,
        requests,
        state: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Totality: the writer accepts every arbitrary valid document, the
    /// parser accepts every writer output and recovers the document
    /// bit-identically (PartialEq + byte-identical re-serialization,
    /// which distinguishes 0.0 from -0.0), and noise lines don't change
    /// the parse.
    #[test]
    fn writer_output_always_parses_bit_identically(seed in 0u64..1 << 48) {
        let doc = arbitrary_doc(seed);
        let text = chip_doc_to_string(&doc)
            .unwrap_or_else(|e| panic!("writer rejected a valid doc (seed {seed}): {e}"));
        let parsed = parse_chip_doc(&text)
            .unwrap_or_else(|e| panic!("parser rejected writer output (seed {seed}): {e}"));
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(chip_doc_to_string(&parsed).unwrap(), text.clone());

        // comments and blank lines are transparent anywhere
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let noisy: String = text
            .lines()
            .flat_map(|l| {
                let noise: &[&str] = match rng.gen_range(0..3) {
                    0 => &[""],
                    1 => &["# injected comment", "   "],
                    _ => &[],
                };
                noise.iter().copied().chain(std::iter::once(l)).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .join("\n");
        prop_assert_eq!(parse_chip_doc(&noisy).unwrap(), doc);
    }

    /// The streaming reader is observationally identical to the owned
    /// parse: same chip (nets, chains, delay model, per-edge capacities
    /// bit-for-bit), same extras (config, archives, requests, state),
    /// and every `ecap` override applied in place.
    #[test]
    fn streaming_parse_equals_the_owned_parse(seed in 0u64..1 << 48) {
        let doc = arbitrary_doc(seed);
        let text = chip_doc_to_string(&doc).unwrap();
        let sc = read_chip_streaming(text.as_bytes())
            .unwrap_or_else(|e| panic!("streaming rejected writer output (seed {seed}): {e}"));
        prop_assert_eq!(sc.tech_layers, doc.tech_layers);
        prop_assert_eq!(&sc.config, &doc.config);
        prop_assert_eq!(&sc.requests, &doc.requests);
        prop_assert_eq!(&sc.state, &doc.state);
        // archives bit-for-bit (f64 == would conflate 0.0 with -0.0)
        for (got, want) in [(&sc.weights, &doc.weights), (&sc.budgets, &doc.budgets)] {
            prop_assert_eq!(got.len(), want.len());
            for ((gi, gv), (wi, wv)) in got.iter().zip(want) {
                prop_assert_eq!(gi, wi);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(gv), bits(wv));
            }
        }
        let owned = doc.build_chip();
        prop_assert_eq!(&sc.chip.nets, &owned.nets);
        prop_assert_eq!(&sc.chip.chains, &owned.chains);
        prop_assert_eq!(&sc.chip.delay_model, &owned.delay_model);
        let (a, b) = (sc.chip.grid.graph(), owned.grid.graph());
        prop_assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            prop_assert_eq!(a.edge(e).capacity.to_bits(), b.edge(e).capacity.to_bits());
        }
        prop_assert_eq!(sc.stats.ecap_applied, doc.ecap.len());
    }

    /// Corrupting any single record line fails the parse with exactly
    /// that line's 1-based number.
    #[test]
    fn corrupted_record_lines_report_their_line_number(seed in 0u64..1 << 48) {
        let doc = arbitrary_doc(seed);
        let text = chip_doc_to_string(&doc).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let records: Vec<usize> = (0..lines.len())
            .filter(|&i| {
                let t = lines[i].trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let target = records[rng.gen_range(0..records.len())];
        let corrupted: String = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == target {
                    format!("{l} ?garbage?\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let e = parse_chip_doc(&corrupted).unwrap_err();
        prop_assert_eq!(e.line, target + 1, "wrong line for {:?}: {}", lines[target], e);
        // the streaming reader reports the identical first error
        let se = read_chip_streaming(corrupted.as_bytes()).unwrap_err();
        prop_assert_eq!(se.line, e.line, "streaming error line diverged: {} vs {}", se, e);
        prop_assert_eq!(&se.message, &e.message);
    }
}

#[test]
fn chip_fixtures_match_their_generators_byte_for_byte() {
    let converging = ChipSpec {
        name: "converging".into(),
        num_nets: 300,
        utilization: 0.22,
        ..ChipSpec::small_test(5)
    };
    let congested = ChipSpec { name: "congested".into(), num_nets: 150, ..ChipSpec::small_test(7) };
    let fanout = ChipSpec {
        name: "fanout_heavy".into(),
        num_nets: 24,
        profile: SinkProfile::FanoutHeavy,
        ..ChipSpec::small_test(11)
    };
    for (name, spec) in [
        ("converging.cdst", converging),
        ("congested.cdst", congested),
        ("fanout_heavy.cdst", fanout),
    ] {
        let doc = ChipDoc::from_chip(&spec.generate()).unwrap();
        let text = chip_doc_to_string(&doc).unwrap();
        assert_eq!(
            fixture(name),
            text,
            "{name} is stale — regenerate with `cargo run -p cds-cli -- fixtures tests/fixtures`"
        );
    }
}

#[test]
fn archived_converging_chip_reproduces_pinned_checksums_for_all_oracles() {
    // The acceptance gate: `cds-cli route` on the archived 300-net
    // fixture (same code path: parse → build_chip → Router::run) must
    // reproduce these checksums for every oracle at 1 and 4 threads.
    let doc = parse_chip_doc(&fixture("converging.cdst")).unwrap();
    let chip = doc.build_chip();
    let pinned = [
        (SteinerMethod::Cd, 0x074e0d79eecbd350u64),
        (SteinerMethod::L1, 0xd3aad0c317ee3cef),
        (SteinerMethod::Sl, 0xd4ffe28f84c96614),
        (SteinerMethod::Pd, 0x7034b5cb1e74e621),
    ];
    for (method, want) in pinned {
        for threads in [1usize, 4] {
            let out = Router::new(
                &chip,
                RouterConfig { method, threads, iterations: 3, ..Default::default() },
            )
            .run();
            let got = out.checksum();
            assert_eq!(
                got, want,
                "{method} at {threads} threads drifted: {got:#018x} (pinned {want:#018x})"
            );
        }
    }
}

#[test]
fn sharded_routing_reproduces_the_unsharded_pinned_checksum() {
    // `shards=N` is a pure work-partition knob: per-net results depend
    // only on per-net inputs, and the merge folds in global net order,
    // so every shard × thread combination must land on the same pinned
    // checksum as the shards=1 runs above.
    let doc = parse_chip_doc(&fixture("converging.cdst")).unwrap();
    let chip = doc.build_chip();
    let want = 0x074e0d79eecbd350u64; // the Cd shards=1 pin above
    for shards in [2usize, 4, 8] {
        for threads in [1usize, 4] {
            let out = Router::new(
                &chip,
                RouterConfig { threads, shards, iterations: 3, ..Default::default() },
            )
            .run();
            let got = out.checksum();
            assert_eq!(
                got, want,
                "shards={shards} threads={threads} drifted: {got:#018x} (pinned {want:#018x})"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "24 fixture routes — minutes in debug; CI runs it via `cargo test --release`"
)]
fn bucket_queue_reproduces_pinned_checksums_on_all_fixture_chips() {
    // The release sweep: every archived fixture chip × every oracle ×
    // 1/4 threads must land on its pinned checksum. The constants were
    // recorded over the two-level heap; the bucket queue pops the same
    // total order `(key, search, vertex)`, so they pin it unchanged.
    let pinned: [(&str, [(SteinerMethod, u64); 4]); 3] = [
        (
            "converging.cdst",
            [
                (SteinerMethod::Cd, 0xbee5b3dda2d5696f),
                (SteinerMethod::L1, 0x00a64569b20c3474),
                (SteinerMethod::Sl, 0x32eb9ebee3c0112c),
                (SteinerMethod::Pd, 0xc66b58bba1c005e8),
            ],
        ),
        (
            "congested.cdst",
            [
                (SteinerMethod::Cd, 0x4e94d0c91b1e48fb),
                (SteinerMethod::L1, 0x7e9560af4bc5ca7c),
                (SteinerMethod::Sl, 0x0fd59c0eb3f8b5fd),
                (SteinerMethod::Pd, 0x6fa71d6a7f166f37),
            ],
        ),
        (
            "fanout_heavy.cdst",
            [
                (SteinerMethod::Cd, 0xee0de5fc1782b646),
                (SteinerMethod::L1, 0x7f5d4a379838b200),
                (SteinerMethod::Sl, 0x9dcb55e222f2f551),
                (SteinerMethod::Pd, 0xc5dda1bb1b41cc46),
            ],
        ),
    ];
    for (name, pins) in pinned {
        let chip = parse_chip_doc(&fixture(name)).unwrap().build_chip();
        for (method, want) in pins {
            for threads in [1usize, 4] {
                let out = Router::new(
                    &chip,
                    RouterConfig { method, threads, iterations: 2, ..Default::default() },
                )
                .run();
                let got = out.checksum();
                assert_eq!(
                    got, want,
                    "{name} {method} threads={threads} drifted: \
                     {got:#018x} (pinned {want:#018x})"
                );
            }
        }
    }
}

#[test]
fn archived_fanout_heavy_chip_reproduces_its_pinned_checksum() {
    // The clock-tree-like scenario: 24 nets of 30-80 die-wide sinks.
    // Routing the archived document must reproduce the committed golden
    // (regenerate both with `cds-cli fixtures` when routing changes).
    let expect = fixture("fanout_heavy_cd.expect");
    let expect = u64::from_str_radix(expect.trim().trim_start_matches("0x"), 16).unwrap();
    let doc = parse_chip_doc(&fixture("fanout_heavy.cdst")).unwrap();
    let chip = doc.build_chip();
    let out = Router::new(&chip, RouterConfig { iterations: 3, ..RouterConfig::default() }).run();
    assert_eq!(out.checksum(), expect, "fanout_heavy golden is stale — rerun `cds-cli fixtures`");
    // sanity: the scenario really is high-fanout
    assert!(chip.nets.iter().all(|n| n.sinks.len() >= 30));
}

/// FNV-1a over one solve, exactly as `tests/determinism.rs` folds the
/// in-code stream.
fn fold_result(mut h: u64, r: &SolveResult) -> u64 {
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(r.evaluation.total.to_bits());
    eat(r.stats.settled as u64);
    eat(r.stats.pushed as u64);
    eat(r.stats.merges as u64);
    for e in r.tree.edges() {
        eat(e as u64 + 1);
    }
    h
}

#[test]
fn archived_stream_fixtures_reproduce_the_sparse_era_golden() {
    // The 120-request heterogeneous stream, archived as three documents
    // (one per grid; request i sits at position i/3 of document i%3).
    // Replaying the archive round-robin must reproduce the golden the
    // in-code stream is pinned to — so the on-disk archive and the
    // in-code fixture are interchangeable.
    let docs: Vec<ChipDoc> = ["stream_8x8.cdst", "stream_12x9.cdst", "stream_15x15.cdst"]
        .iter()
        .map(|n| parse_chip_doc(&fixture(n)).unwrap())
        .collect();
    assert_eq!(docs.iter().map(|d| d.requests.len()).sum::<usize>(), 120);
    let grids: Vec<GridGraph> = docs.iter().map(|d| d.grid.clone().build()).collect();
    let envs: Vec<(Vec<f64>, Vec<f64>)> =
        grids.iter().map(|g| (g.graph().base_costs(), g.graph().delays())).collect();
    let mut session = Solver::new();
    let mut h = 0xcbf29ce484222325u64;
    let mut next = [0usize; 3];
    for i in 0..120usize {
        let gi = i % 3;
        let rec = &docs[gi].requests[next[gi]];
        next[gi] += 1;
        let grid = &grids[gi];
        let (cost, delay) = &envs[gi];
        let root = grid.vertex(rec.root.0, rec.root.1, rec.root.2);
        let sinks: Vec<u32> = rec.sinks.iter().map(|&(x, y, l)| grid.vertex(x, y, l)).collect();
        let req = Request::new(grid.graph(), cost, delay, root, &sinks, &rec.weights)
            .with_bif(BifurcationConfig::new(rec.dbif, rec.eta))
            .with_seed(rec.seed);
        h = fold_result(h, &session.solve(&req));
    }
    assert_eq!(
        h, 0x9e49cf690e3ee57b,
        "archived stream drifted from the pinned golden of tests/determinism.rs"
    );
}

#[test]
fn smoke_golden_matches_the_smoke_preset() {
    // the checksum CI's `cds-cli gen --preset smoke | cds-cli verify`
    // step gates on
    let expect = fixture("smoke_cd.expect");
    let expect = u64::from_str_radix(expect.trim().trim_start_matches("0x"), 16).unwrap();
    let chip =
        ChipSpec { name: "smoke".into(), num_nets: 40, ..ChipSpec::small_test(44) }.generate();
    let out = Router::new(&chip, RouterConfig::default()).run();
    assert_eq!(out.checksum(), expect, "smoke golden is stale — rerun `cds-cli fixtures`");
}

/// The built-in CD oracle, counting the solves the router runs through
/// it and the component delay queries among them that fell back to
/// the tree-delay Dijkstra.
struct FallbackCountingCd {
    solves: Arc<AtomicUsize>,
    fallbacks: Arc<AtomicUsize>,
}

impl SteinerOracle for FallbackCountingCd {
    fn name(&self) -> &str {
        "CD"
    }
    fn uses_budgets(&self) -> bool {
        false
    }
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        CdOracle::enhanced().route(req, ws)
    }
    fn route_into(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        let stats = CdOracle::enhanced().route_into(req, ws, forest, slot);
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.fallbacks.fetch_add(stats.tree_fallbacks, Ordering::Relaxed);
        stats
    }
}

#[test]
fn no_fixture_solve_falls_back_to_the_tree_delay_dijkstra() {
    // The chips: routed through the counting oracle, each lands on the
    // checksum the release sweep pins for CD at two iterations.
    let pinned = [
        ("converging.cdst", 0xbee5b3dda2d5696f_u64),
        ("congested.cdst", 0x4e94d0c91b1e48fb),
        ("fanout_heavy.cdst", 0xee0de5fc1782b646),
    ];
    for (name, want) in pinned {
        let chip = parse_chip_doc(&fixture(name)).unwrap().build_chip();
        let (solves, fallbacks) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let oracle =
            FallbackCountingCd { solves: Arc::clone(&solves), fallbacks: Arc::clone(&fallbacks) };
        let config = RouterConfig {
            method: SteinerMethod::Cd,
            threads: 1,
            iterations: 2,
            ..Default::default()
        };
        let out = Router::with_oracle(&chip, config, Box::new(oracle)).run();
        assert_eq!(out.checksum(), want, "{name}: the counting oracle must route like CD");
        assert_eq!(solves.load(Ordering::Relaxed), out.stats.total_rerouted(), "{name}");
        assert_eq!(fallbacks.load(Ordering::Relaxed), 0, "{name}");
    }
    // The request streams, solve by solve through one session.
    let mut session = Solver::new();
    let mut solves = 0;
    for name in ["stream_8x8.cdst", "stream_12x9.cdst", "stream_15x15.cdst"] {
        let doc = parse_chip_doc(&fixture(name)).unwrap();
        let grid = doc.grid.clone().build();
        let (cost, delay) = (grid.graph().base_costs(), grid.graph().delays());
        for rec in &doc.requests {
            let root = grid.vertex(rec.root.0, rec.root.1, rec.root.2);
            let sinks: Vec<u32> = rec.sinks.iter().map(|&(x, y, l)| grid.vertex(x, y, l)).collect();
            let req = Request::new(grid.graph(), &cost, &delay, root, &sinks, &rec.weights)
                .with_bif(BifurcationConfig::new(rec.dbif, rec.eta))
                .with_seed(rec.seed);
            assert_eq!(session.solve(&req).stats.tree_fallbacks, 0, "{name}");
            solves += 1;
        }
    }
    assert_eq!(solves, 120);
}
