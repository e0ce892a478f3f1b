//! The traced run: per-layer metrics from spans the harness records
//! around each layer's *public* functions.
//!
//! Per document, in process: `instgen.generate` → `instgen.write` →
//! `instgen.read` → `router.new` → `router.run` (the workload's exact
//! config plus `checkpoint_every=2` to capture a `cdst/2` state; one
//! `router.iter` child per iteration, closed by the progress callback) →
//! a **replay** over every net under the run's final prices with the
//! router's initial delay weight on every sink, then `topo.validate`,
//! `metrics.totals`, `router.report`, the checkpoint document, and a
//! synthetic queue stream. The replay interleaves, per net, **A** one
//! `router.route_one` span (the workload's own oracle, whole) and **B**
//! the four spans `graph.window` → `core.future` → `core.solve` →
//! `topo.evaluate` built from the same public calls `CdOracle` makes —
//! back-to-back passes of A and B drift apart by tens of percent on a
//! shared box, interleaving cancels that. One warm-up sweep is
//! discarded. The topology-then-embed layers (`rsmt.topology`,
//! `baselines.sl`, `baselines.pd`, `embed.embed`) are replayed in one
//! further pass. The serve leg is the end-to-end one with client-side
//! spans on.

use crate::endtoend::{best, knobs, measure, write_inputs, Gate, Measured};
use crate::procs::{knob_query, Bins, Daemon};
use crate::registry::{splitmix64, unit, Workload, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use cds_baselines::{prim_dijkstra, shallow_light, PlaneCostModel, SlParams};
use cds_core::{GridFutureCost, Request, SessionConfig, SolveStats, Solver, SolverWorkspace};
use cds_embed::{embed_topology, EmbedEnv};
use cds_geom::Point;
use cds_graph::{RoutingSurface, SteinerGraph, VertexId, WindowView};
use cds_heap::{BucketQueue, LabelQueue, TwoLevelHeap};
use cds_instgen::io::doc::{chip_doc_to_string, read_chip_streaming, ChipDoc, StateSection};
use cds_instgen::{Chip, ChipSpec};
use cds_metrics::{ace4, forest_totals, wire_congestion};
use cds_router::report::outcome_json;
use cds_router::{
    OracleWorkspace, Router, RouterConfig, RoutingOutcome, RunControl, SteinerMethod, WorkerPool,
};
use cds_rsmt::rsmt_topology;
use cds_topo::{BifurcationConfig, EvalScratch, NodeKind, RoutedForest};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

/// Shares of `--seconds` the replay and the end-to-end rounds of a
/// traced run may spend.
const REPLAY_SHARE: f64 = 0.35;
const ROUNDS_SHARE: f64 = 0.40;

/// Nets the topology-then-embed pass replays per document.
const PLANE_NETS: usize = 48;
const MIN_PLANE_NETS: usize = 6;

/// The router's initial delay weight (every sink, iteration 1).
const INITIAL_WEIGHT: f64 = 0.05;

/// The resolved config of document `d`: defaults ← the workload's knobs
/// ← the key's router seed, exactly what the child and the daemon
/// resolve from the same pairs.
pub fn resolve_config(w: &Workload, seed: u64, d: usize) -> Result<RouterConfig, String> {
    let mut config = RouterConfig::default();
    for (k, v) in knobs(w, seed, d) {
        config.set_knob(&k, &v)?;
    }
    Ok(config)
}

/// Warm scratch of the B spans — the buffers `OracleWorkspace` pools
/// for `CdOracle`, owned here because its fields are private.
#[derive(Default)]
struct Scratch {
    pins: Vec<Point>,
    local_sinks: Vec<Point>,
    sinks: Vec<VertexId>,
    terminals: Vec<VertexId>,
    plane: Vec<AtomicU32>,
    solver: SolverWorkspace,
    forest: RoutedForest,
    eval: EvalScratch,
}

/// One document's replay context.
struct Replay<'a> {
    chip: &'a Chip,
    router: &'a Router<'a>,
    config: &'a RouterConfig,
    prices: &'a [f64],
    delays: Vec<f64>,
    bif: BifurcationConfig,
    weights: Vec<Vec<f64>>,
}

/// What one sweep's B spans counted (deterministic).
#[derive(Default, Clone, Copy)]
struct SweepCounts {
    kernel: SolveStats,
    window_cells: usize,
}

impl<'a> Replay<'a> {
    fn new(
        chip: &'a Chip,
        router: &'a Router<'a>,
        config: &'a RouterConfig,
        prices: &'a [f64],
    ) -> Self {
        Replay {
            chip,
            router,
            config,
            prices,
            delays: chip.grid.graph().delays(),
            bif: router.bif(),
            weights: chip.nets.iter().map(|n| vec![INITIAL_WEIGHT; n.sinks.len()]).collect(),
        }
    }

    /// The per-net seed the router derives (rip-up order independent).
    fn net_seed(&self, net: usize) -> u64 {
        self.config.seed ^ (net as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A: the whole per-net route through the router's public entry.
    fn route_one(
        &self,
        net: usize,
        ows: &mut OracleWorkspace,
        tr: &mut Tracer,
        parent: u32,
    ) -> f64 {
        let id = tr.open("router.route_one", Some(parent), Some(net as u64));
        let (routed, total) = self.router.route_one_with(
            net,
            self.router.oracle(),
            self.prices,
            &self.weights[net],
            None,
            self.bif,
            ows,
        );
        tr.close(id);
        black_box(routed);
        total
    }

    /// B: the same route as four layer spans. Returns the objective.
    fn layers(
        &self,
        net: usize,
        s: &mut Scratch,
        counts: &mut SweepCounts,
        tr: &mut Tracer,
        parent: u32,
    ) -> f64 {
        let subject = Some(net as u64);
        let group = tr.open("replay.layers", Some(parent), subject);
        let n = &self.chip.nets[net];

        let id = tr.open("graph.window", Some(group), subject);
        s.pins.clear();
        s.pins.push(n.root);
        s.pins.extend_from_slice(&n.sinks);
        let view = WindowView::around(&self.chip.grid, &s.pins, self.config.window_margin);
        s.local_sinks.clear();
        s.local_sinks.extend(n.sinks.iter().map(|&p| view.localize(p)));
        let surface: &dyn RoutingSurface = &view;
        let root = surface.vertex_at(view.localize(n.root));
        s.sinks.clear();
        s.sinks.extend(s.local_sinks.iter().map(|&p| surface.vertex_at(p)));
        tr.close(id);
        counts.window_cells += view.num_vertices();

        let id = tr.open("core.future", Some(group), subject);
        s.terminals.clear();
        s.terminals.extend_from_slice(&s.sinks);
        s.terminals.push(root);
        let fc = GridFutureCost::with_buffer(surface, &s.terminals, std::mem::take(&mut s.plane));
        tr.close(id);

        let id = tr.open("core.solve", Some(group), subject);
        let request =
            Request::new(surface, self.prices, &self.delays, root, &s.sinks, &self.weights[net])
                .with_bif(self.bif)
                .with_future(&fc)
                .with_seed(self.net_seed(net))
                .with_quantum(surface.min_cost_per_gcell());
        let stats =
            Solver::solve_into(&SessionConfig::DEFAULT, &mut s.solver, &request, &mut s.forest, 0);
        tr.close(id);
        counts.kernel.absorb(stats);
        s.plane = fc.into_buffer();

        let id = tr.open("topo.evaluate", Some(group), subject);
        let totals = s.forest.view(0).evaluate_into(
            self.prices,
            &self.delays,
            &self.weights[net],
            &self.bif,
            &mut s.eval,
        );
        tr.close(id);
        tr.close(group);
        totals.total
    }

    /// One sweep over every net, A and B interleaved; which goes first
    /// alternates with the net's parity so neither always runs on the
    /// other's warm caches. Returns the sweep's counts and whether B
    /// reproduced A's objective bit-for-bit on every net.
    fn sweep(
        &self,
        s: &mut Scratch,
        ows: &mut OracleWorkspace,
        tr: &mut Tracer,
        parent: u32,
    ) -> (SweepCounts, bool) {
        let mut counts = SweepCounts::default();
        let mut agree = true;
        for net in 0..self.chip.nets.len() {
            let (a, b) = if net % 2 == 0 {
                let a = self.route_one(net, ows, tr, parent);
                (a, self.layers(net, s, &mut counts, tr, parent))
            } else {
                let b = self.layers(net, s, &mut counts, tr, parent);
                (self.route_one(net, ows, tr, parent), b)
            };
            agree &= a.to_bits() == b.to_bits();
        }
        (counts, agree)
    }

    /// The topology-then-embed layers, one pass over at most
    /// [`PLANE_NETS`] evenly spaced nets, cut short (after at least
    /// [`MIN_PLANE_NETS`]) once `budget` is spent: one embedding costs
    /// 20 ms on a 15-layer window and 130 ms for an 80-sink net.
    fn plane_pass(&self, budget: Duration, tr: &mut Tracer, parent: u32) {
        let start = Instant::now();
        let total = self.chip.nets.len();
        let picked = total.min(PLANE_NETS);
        for (i, net) in (0..picked).map(|i| i * total / picked).enumerate() {
            if i >= MIN_PLANE_NETS && start.elapsed() >= budget {
                break;
            }
            let n = &self.chip.nets[net];
            let subject = Some(net as u64);
            let mut pins = vec![n.root];
            pins.extend_from_slice(&n.sinks);
            let view = WindowView::around(&self.chip.grid, &pins, self.config.window_margin);
            let surface: &dyn RoutingSurface = &view;
            let root = view.localize(n.root);
            let sinks: Vec<Point> = n.sinks.iter().map(|&p| view.localize(p)).collect();
            let weights = &self.weights[net];
            let model = PlaneCostModel {
                cost_per_unit: surface.min_cost_per_gcell(),
                delay_per_unit: surface.min_delay_per_gcell(),
                bif: self.bif,
            };
            let l1 = tr.span("rsmt.topology", Some(parent), subject, || {
                rsmt_topology(root, &sinks, 5).binarize()
            });
            let sl = tr.span("baselines.sl", Some(parent), subject, || {
                shallow_light(root, &sinks, weights, None, &model, &SlParams::default())
            });
            let pd = tr.span("baselines.pd", Some(parent), subject, || {
                prim_dijkstra(root, &sinks, weights, &model)
            });
            let env =
                EmbedEnv { graph: surface, cost: self.prices, delay: &self.delays, bif: self.bif };
            let root_v = surface.vertex_at(root);
            let sink_vs: Vec<VertexId> = sinks.iter().map(|&p| surface.vertex_at(p)).collect();
            let tree = tr.span("embed.embed", Some(parent), subject, || {
                embed_topology(&env, &sl, root_v, &sink_vs, weights)
            });
            black_box((l1, pd, tree));
        }
    }
}

/// Independent re-validation of a routed outcome: every tree is
/// structurally valid inside its own window with every pin on its
/// vertex, and the usage ledger equals the recount from `used_edges`
/// to 1e-6 relative.
///
/// # Errors
///
/// The first violated invariant.
pub fn validate_outcome(
    chip: &Chip,
    config: &RouterConfig,
    out: &RoutingOutcome,
) -> Result<(), String> {
    if out.num_nets() != chip.nets.len() {
        return Err(format!("{} routed nets for {} nets", out.num_nets(), chip.nets.len()));
    }
    let mut recount = vec![0.0f64; out.usage.len()];
    for (i, n) in chip.nets.iter().enumerate() {
        let mut pins = vec![n.root];
        pins.extend_from_slice(&n.sinks);
        let view = WindowView::around(&chip.grid, &pins, config.window_margin);
        let tree = out.forest.view(i);
        tree.validate(&view, n.sinks.len()).map_err(|e| format!("net {i}: {e}"))?;
        if tree.vertex(tree.root()) != view.vertex_at(view.localize(n.root)) {
            return Err(format!("net {i}: tree root is not on the root pin"));
        }
        for v in 0..tree.num_nodes() as u32 {
            if let NodeKind::Sink(j) = tree.node_kind(v) {
                if tree.vertex(v) != view.vertex_at(view.localize(n.sinks[j])) {
                    return Err(format!("net {i}: sink {j} is not on its pin"));
                }
            }
        }
        for &(e, tracks) in out.forest.used_edges(i) {
            recount[e as usize] += tracks;
        }
    }
    for (e, (&have, &want)) in out.usage.iter().zip(&recount).enumerate() {
        if (have - want).abs() > 1e-6 * want.abs().max(1.0) {
            return Err(format!("usage ledger drifted on edge {e}: {have} vs recount {want}"));
        }
    }
    Ok(())
}

/// Drives up to `settles` pops through a label queue the way the solver
/// does: four searches, each pop followed by `pushes` pushes into the
/// popped label's own search at keys above it, `decreases` of them
/// improving a label that search queued earlier; vertex ids stay inside
/// a window-sized pool and return to it when popped. Seeded, so the
/// stream is the same on every run. Returns ns per queue operation
/// (push or pop).
fn queue_stream<Q: LabelQueue>(
    q: &mut Q,
    seed: u64,
    settles: usize,
    pushes: f64,
    decreases: f64,
) -> f64 {
    const SEARCHES: usize = 4;
    const POOL: u32 = 8192;
    const RECENT: usize = 32;
    let mut state = seed;
    let mut rand = move || {
        state = splitmix64(state);
        unit(state)
    };
    q.begin_solve(1.0);
    let mut free: Vec<u32> = (0..POOL).rev().collect();
    // per search: labels it pushed recently, candidates for a decrease
    let mut recent: Vec<Vec<(u32, f64)>> = vec![Vec::new(); SEARCHES];
    let searches: Vec<u32> = (0..SEARCHES).map(|_| q.add_search()).collect();
    for &s in &searches {
        q.push(s, free.pop().expect("the pool is larger than the search count"), 0.0);
    }
    let (mut ops, mut push_debt, mut decrease_debt) = (SEARCHES as u64, 0.0f64, 0.0f64);
    let start = Instant::now();
    for _ in 0..settles {
        let Some((search, vertex, key)) = q.pop() else { break };
        ops += 1;
        free.push(vertex);
        let mine = &mut recent[searches.iter().position(|&s| s == search).expect("a live search")];
        push_debt += pushes;
        decrease_debt += decreases;
        while push_debt >= 1.0 {
            push_debt -= 1.0;
            ops += 1;
            let slot = (rand() * RECENT as f64) as usize % RECENT;
            match mine.get_mut(slot) {
                Some((v, k)) if decrease_debt >= 1.0 && *k > key => {
                    decrease_debt -= 1.0;
                    *k = key + (*k - key) * rand();
                    black_box(q.push(search, *v, *k));
                }
                _ => {
                    let Some(v) = free.pop() else { continue };
                    let k = key + 1.0 + rand() * 7.0;
                    black_box(q.push(search, v, k));
                    if mine.len() < RECENT {
                        mine.push((v, k));
                    } else {
                        mine[slot] = (v, k);
                    }
                }
            }
        }
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Everything one document's in-process pipeline leaves for the metric
/// assembly (timings live in the tracer).
struct DocFacts {
    nets: usize,
    doc_bytes: usize,
    state_bytes: usize,
    edges: usize,
    checksum: u64,
    oracle_calls: usize,
    counts: SweepCounts,
    nodes: usize,
    arena_bytes: u64,
    /// measured replay sweeps of this document
    sweeps: usize,
    /// mean A span (ns) of this document, for the loop residual
    route_one_mean_ns: f64,
    run_ns: f64,
}

/// How the replay is bounded: at most `max_sweeps` measured sweeps, and
/// none started once `budget` is spent (at least one always runs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayLimit {
    pub max_sweeps: usize,
    pub budget: Duration,
}

/// The in-process pipeline of one document.
///
/// # Errors
///
/// A failed correctness check (validation, ledger, A ≠ B) or a document
/// that does not round-trip.
fn trace_document(
    spec: &ChipSpec,
    config: &RouterConfig,
    limit: ReplayLimit,
    tr: &mut Tracer,
    doc_index: usize,
) -> Result<DocFacts, String> {
    let root = tr.open("doc", None, Some(doc_index as u64));
    let p = Some(root);
    let chip = tr.span("instgen.generate", p, None, || spec.generate());
    let text = tr.span("instgen.write", p, None, || {
        ChipDoc::from_chip(&chip)
            .map_err(|e| e.to_string())
            .and_then(|doc| chip_doc_to_string(&doc).map_err(|e| e.to_string()))
    })?;
    let sc = tr
        .span("instgen.read", p, None, || read_chip_streaming(text.as_bytes()))
        .map_err(|e| format!("generated document does not parse: {e}"))?;
    let chip = &sc.chip;

    // the run, under the workload's config plus a checkpoint to capture
    let traced_config = RouterConfig { checkpoint_every: 2, ..config.clone() };
    let router = tr.span("router.new", p, None, || Router::new(chip, traced_config.clone()));
    let mut state: Option<StateSection> = None;
    let run_id = tr.open("router.run", p, None);
    let mut iter_id = tr.open("router.iter", Some(run_id), Some(0));
    let out = router.run_checkpointed(
        &mut WorkerPool::new(),
        &RunControl::new(),
        &mut |it, _| {
            tr.close(iter_id);
            if it + 1 < traced_config.iterations {
                iter_id = tr.open("router.iter", Some(run_id), Some(it as u64 + 1));
            }
        },
        None,
        &mut |_, s| state = Some(s),
    );
    let run_ns = tr.close(run_id) as f64;

    // replay: warm-up sweep into a throwaway recorder, then measured
    let replay = Replay::new(chip, &router, config, &out.prices);
    let mut scratch = Scratch { forest: RoutedForest::with_slots(1), ..Scratch::default() };
    let mut ows = OracleWorkspace::new();
    replay.sweep(&mut scratch, &mut ows, &mut Tracer::new(Instant::now()), 0);
    let replay_id = tr.open("replay", p, None);
    let replay_start = Instant::now();
    let mut sweeps = 0;
    let mut counts = SweepCounts::default();
    let mut agree = true;
    while sweeps == 0 || (sweeps < limit.max_sweeps && replay_start.elapsed() < limit.budget) {
        let sweep_id = tr.open("replay.sweep", Some(replay_id), Some(sweeps as u64));
        let (c, ok) = replay.sweep(&mut scratch, &mut ows, tr, sweep_id);
        tr.close(sweep_id);
        counts = c;
        agree &= ok;
        sweeps += 1;
    }
    tr.close(replay_id);
    if config.method == SteinerMethod::Cd && !agree {
        return Err("replay: the four layer calls did not reproduce route_one's objective".into());
    }
    let plane_id = tr.open("replay.plane", p, None);
    replay.plane_pass(limit.budget / 4, tr, plane_id);
    tr.close(plane_id);

    tr.span("topo.validate", p, None, || validate_outcome(chip, config, &out))?;
    let totals = tr.span("metrics.totals", p, None, || {
        (forest_totals(&out.forest), ace4(&wire_congestion(chip.grid.graph(), &out.usage)))
    });
    black_box(totals);
    let report = tr.span("router.report", p, None, || outcome_json(chip, config, &out));
    black_box(report);

    // the checkpoint document: the chip plus the captured state
    let state = state.ok_or("checkpoint_every=2 produced no checkpoint")?;
    let state_text = tr.span("instgen.state_write", p, None, || {
        ChipDoc::from_chip(chip).map_err(|e| e.to_string()).and_then(|mut doc| {
            doc.state = Some(state);
            chip_doc_to_string(&doc).map_err(|e| e.to_string())
        })
    })?;
    let resumed = tr
        .span("instgen.state_read", p, None, || read_chip_streaming(state_text.as_bytes()))
        .map_err(|e| format!("checkpoint document does not parse: {e}"))?;
    if resumed.state.is_none() {
        return Err("checkpoint document lost its state section".into());
    }
    tr.close(root);

    let a = tr.durations("router.route_one");
    let nets = chip.nets.len();
    // this document's A spans are the last `sweeps · nets` recorded
    let mine = &a[a.len() - sweeps * nets..];
    Ok(DocFacts {
        nets,
        doc_bytes: text.len(),
        state_bytes: state_text.len() - text.len(),
        edges: chip.grid.graph().num_edges(),
        checksum: out.checksum(),
        oracle_calls: out.stats.total_rerouted(),
        counts,
        sweeps,
        nodes: (0..nets).map(|i| out.forest.view(i).num_nodes()).sum(),
        arena_bytes: out.forest.arena_bytes(),
        route_one_mean_ns: mine.iter().sum::<f64>() / mine.len() as f64,
        run_ns,
    })
}

/// One traced run's per-layer metrics, in registry order.
#[derive(Debug)]
pub struct LayerRun {
    pub metrics: Vec<(&'static str, f64)>,
    pub gate: Gate,
    pub tracer: Tracer,
}

/// Runs one workload traced for about `seconds`.
///
/// # Errors
///
/// Set-up failures and failed in-process correctness checks; op
/// failures of children and jobs are in the returned gate.
pub fn run(bins: &Bins, w: &Workload, seed: u64, seconds: f64) -> Result<LayerRun, String> {
    let mut tr = Tracer::new(Instant::now());
    let mut gate = Gate::default();
    let inputs = write_inputs(bins, w, seed)?;
    let docs = inputs.specs.len();

    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let limit = ReplayLimit { max_sweeps: usize::MAX, budget: share(REPLAY_SHARE) / docs as u32 };
    let mut facts = Vec::with_capacity(docs);
    for (d, spec) in inputs.specs.iter().enumerate() {
        let config = resolve_config(w, seed, d)?;
        facts.push(trace_document(spec, &config, limit, &mut tr, d)?);
    }

    // the end-to-end rounds with client-side spans on; their route
    // children check the in-process runs: same checksum, and the
    // child's wall against ours is the CLI's own overhead
    let daemon = Daemon::spawn(bins)?;
    let m =
        measure(bins, &daemon, w, &inputs, seed, share(ROUNDS_SHARE), 1, &mut gate, Some(&mut tr))?;
    gate.op("daemon shutdown", daemon.shutdown());
    for (d, f) in facts.iter().enumerate() {
        gate.check(
            &format!("the in-process run of document {d} reproduces the cds-cli checksum"),
            m.first(d).checksum().is_ok_and(|c| c == format!("{:#018x}", f.checksum)),
        );
    }
    let http_parse_us = http_parse_us(&inputs.texts[0], w, seed);

    let metrics = assemble(w, &tr, &facts, &m, http_parse_us);
    Ok(LayerRun { metrics, gate, tracer: tr })
}

/// Median µs of `http::parse_request` over a real submit request.
fn http_parse_us(doc: &str, w: &Workload, seed: u64) -> f64 {
    let query = knob_query(&knobs(w, seed, 0));
    let mut raw = format!(
        "POST /jobs{query} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        doc.len()
    )
    .into_bytes();
    raw.extend_from_slice(doc.as_bytes());
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let parsed = cds_serve::http::parse_request(&mut raw.as_slice(), 16 << 20);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            black_box(parsed.is_ok());
            us
        })
        .collect();
    median(&samples)
}

fn assemble(
    w: &Workload,
    tr: &Tracer,
    facts: &[DocFacts],
    m: &Measured,
    http_parse_us: f64,
) -> Vec<(&'static str, f64)> {
    let ms = |name: &str| tr.total_ns(name) / 1e6;
    let mean_us = |name: &str| {
        let d = tr.durations(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64 / 1e3
    };
    let median_ms = |name: &str| {
        let d = tr.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e6
        }
    };
    let sum = |f: &dyn Fn(&DocFacts) -> f64| facts.iter().map(f).sum::<f64>();
    let nets = sum(&|f| f.nets as f64);
    let per_net = |f: &dyn Fn(&DocFacts) -> f64| sum(f) / nets;
    let report = |path: &[&str]| m.report(path);
    let report_sum = |path: &[&str]| m.report_sum(path);

    let solve = tr.durations("core.solve");
    let (solve_tail_pct, solve_tail_ns) = tail(&solve);
    let iters: Vec<(bool, f64)> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "router.iter")
        .map(|s| (s.subject == Some(0), s.dur_ns() as f64))
        .collect();
    let iter_s = |first: bool| {
        iters.iter().filter(|(f, _)| *f == first).map(|(_, ns)| ns).sum::<f64>() / 1e9
    };
    let run_s = sum(&|f| f.run_ns) / 1e9;
    let child_wall_s = best(&m.route_wall_s);
    // per round, the children's own `Router::run` clocks; what is left of
    // their spawn → exit wall is process start, document read, graph
    // build, the report and teardown
    let child_run_rounds: Vec<f64> = (0..m.route_wall_s.len())
        .map(|r| {
            m.runs.iter().filter_map(|d| d[r].report.at(&["metrics", "walltime_s"])?.num()).sum()
        })
        .collect();
    let child_run_s = best(&child_run_rounds);
    let cli_overhead_s = best(
        &m.route_wall_s
            .iter()
            .zip(&child_run_rounds)
            .map(|(wall, run)| wall - run)
            .collect::<Vec<_>>(),
    );
    let route_one_us = mean_us("router.route_one");
    let layers_us = if w.knob("oracle") == Some("cd") {
        mean_us("graph.window")
            + mean_us("core.future")
            + mean_us("core.solve")
            + mean_us("topo.evaluate")
    } else {
        // the plane oracles' route is a topology plus its embedding
        mean_us("baselines.sl") + mean_us("embed.embed")
    };
    let iterations = w.iterations();
    let calls = report_sum(&["totals", "oracle_calls"]);
    let par_efficiency = m
        .reference
        .as_ref()
        .map_or(1.0, |single| single.wall_s / (w.threads() as f64 * child_wall_s));
    let hits: Vec<f64> = m.hit.iter().map(|j| j.latency_ms).collect();
    let (hit_tail_pct, hit_tail_ms) = tail(&hits);
    let seed = facts.iter().fold(0u64, |h, f| splitmix64(h ^ f.checksum));
    let kernel = facts.iter().fold(SolveStats::default(), |mut k, f| {
        k.absorb(f.counts.kernel);
        k
    });
    let settles = (kernel.settled / facts.len().max(1)).clamp(10_000, 400_000);
    let per_settle = |x: usize| x as f64 / kernel.settled.max(1) as f64;
    let (pushes, decreases) = if kernel.settled == 0 {
        (1.4, 0.25)
    } else {
        (per_settle(kernel.pushed), per_settle(kernel.decreased))
    };

    let values: BTreeMap<&'static str, f64> = [
        ("instgen.gen_ms", ms("instgen.generate")),
        ("instgen.write_ms", ms("instgen.write")),
        ("instgen.read_ms", ms("instgen.read")),
        ("instgen.read_mb_per_s", sum(&|f| f.doc_bytes as f64) / 1e6 / (ms("instgen.read") / 1e3)),
        ("instgen.doc_bytes", sum(&|f| f.doc_bytes as f64)),
        ("instgen.state_write_ms", ms("instgen.state_write")),
        ("instgen.state_read_ms", ms("instgen.state_read")),
        ("instgen.state_bytes", sum(&|f| f.state_bytes as f64)),
        ("graph.window_us_per_net", mean_us("graph.window")),
        ("graph.window_cells_per_net", per_net(&|f| f.counts.window_cells as f64)),
        ("graph.edges", sum(&|f| f.edges as f64)),
        ("core.future_us_per_net", mean_us("core.future")),
        ("core.solve_us_per_net", mean_us("core.solve")),
        ("core.solve_us_p50", median(&solve) / 1e3),
        ("core.solve_us_tail", solve_tail_ns / 1e3),
        ("core.solve_tail_pct", solve_tail_pct),
        // every measured sweep of a document settles the same labels
        (
            "core.ns_per_settle",
            solve.iter().sum::<f64>()
                / sum(&|f| (f.counts.kernel.settled * f.sweeps) as f64).max(1.0),
        ),
        ("core.settled_per_net", per_net(&|f| f.counts.kernel.settled as f64)),
        ("core.pushed_per_net", per_net(&|f| f.counts.kernel.pushed as f64)),
        ("core.decreased_per_net", per_net(&|f| f.counts.kernel.decreased as f64)),
        ("core.bucket_scans_per_net", per_net(&|f| f.counts.kernel.bucket_scans as f64)),
        (
            "heap.bucket_ns_per_op",
            queue_stream(&mut BucketQueue::new(), seed, settles, pushes, decreases),
        ),
        (
            "heap.twolevel_ns_per_op",
            queue_stream(&mut TwoLevelHeap::new(), seed, settles, pushes, decreases),
        ),
        ("topo.evaluate_us_per_net", mean_us("topo.evaluate")),
        ("topo.validate_us_per_net", ms("topo.validate") * 1e3 / nets),
        ("topo.nodes_per_net", per_net(&|f| f.nodes as f64)),
        ("topo.arena_bytes", sum(&|f| f.arena_bytes as f64)),
        ("router.new_ms", ms("router.new")),
        ("router.run_s", run_s),
        ("router.iter_first_s", iter_s(true)),
        ("router.iter_rest_s", iter_s(false)),
        ("router.route_one_us_per_net", route_one_us),
        ("router.glue_us_per_net", route_one_us - layers_us),
        // an estimate: pricing + scheduling + ledger + STA + merge
        (
            "router.loop_residual_s",
            sum(&|f| f.run_ns - f.oracle_calls as f64 * f.route_one_mean_ns / w.threads() as f64)
                / 1e9,
        ),
        ("router.par_efficiency", par_efficiency),
        ("router.report_ms", ms("router.report")),
        ("router.rerouted_frac", (calls - nets) / (nets * (iterations - 1.0)).max(1.0)),
        (
            "router.peak_arena_bytes",
            report(&["totals", "peak_arena_bytes"]).iter().fold(0.0, |a, &b| a.max(b)),
        ),
        (
            "metrics.ws_ps",
            report(&["metrics", "ws_ps"]).iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        ),
        ("metrics.tns_ps", report_sum(&["metrics", "tns_ps"])),
        ("metrics.ace4_pct", report(&["metrics", "ace4_pct"]).iter().fold(0.0, |a, &b| a.max(b))),
        ("metrics.totals_ms", ms("metrics.totals")),
        ("rsmt.topology_us_per_net", mean_us("rsmt.topology")),
        ("baselines.sl_us_per_net", mean_us("baselines.sl")),
        ("baselines.pd_us_per_net", mean_us("baselines.pd")),
        ("embed.embed_us_per_net", mean_us("embed.embed")),
        ("cli.overhead_s", cli_overhead_s),
        ("serve.http_parse_us", http_parse_us),
        ("serve.submit_rtt_ms", median_ms("serve.submit")),
        ("serve.status_rtt_ms", median_ms("serve.poll")),
        ("serve.result_rtt_ms", median_ms("serve.result")),
        ("serve.hit_tail_ms", hit_tail_ms),
        ("serve.hit_tail_pct", hit_tail_pct),
        ("serve.cache_hits", m.cache_hits),
        ("serve.cache_misses", m.cache_misses),
        ("serve.coalesced", m.coalesced),
        ("serve.rejected", m.rejected as f64),
        ("serve.daemon_rss_mb", m.daemon_rss_mb),
        ("trace.spans", tr.spans().len() as f64),
        ("trace.overhead_frac", run_s / child_run_s - 1.0),
    ]
    .into_iter()
    .chain(m.counters())
    .collect();
    PER_LAYER
        .iter()
        .map(|m| (m.name, *values.get(m.name).unwrap_or_else(|| panic!("no value for {}", m.name))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_instgen::SinkProfile;
    use std::collections::BTreeSet;

    /// The smoke traced run: on a 40-net chip with exactly one measured
    /// sweep, the A spans and each of the four B spans cover every net
    /// exactly once, and validation plus the ledger recount pass.
    #[test]
    fn smoke_traced_run_covers_every_net_once() {
        let spec = ChipSpec {
            name: "smoke".into(),
            num_nets: 40,
            num_layers: 4,
            seed: 44,
            gcell_um: 20.0,
            utilization: 0.33,
            rat_tightness: 1.25,
            max_chain_len: 3,
            profile: SinkProfile::Mixed,
        };
        let config = RouterConfig { iterations: 3, threads: 1, ..RouterConfig::default() };
        let mut tr = Tracer::new(Instant::now());
        let limit = ReplayLimit { max_sweeps: 1, budget: Duration::from_secs(3600) };
        let summary =
            trace_document(&spec, &config, limit, &mut tr, 0).expect("traced run is correct");
        assert_eq!(summary.nets, 40);
        let all: BTreeSet<u64> = (0..40).collect();
        for name in
            ["router.route_one", "graph.window", "core.future", "core.solve", "topo.evaluate"]
        {
            let nets: Vec<u64> =
                tr.spans().iter().filter(|s| s.name == name).filter_map(|s| s.subject).collect();
            assert_eq!(nets.len(), 40, "{name} spans");
            assert_eq!(nets.iter().copied().collect::<BTreeSet<_>>(), all, "{name} nets");
        }
        // iteration spans: one per configured iteration, children of the run
        assert_eq!(tr.spans().iter().filter(|s| s.name == "router.iter").count(), 3);
        // a plain run of the same config gives the same checksum
        let chip = spec.generate();
        let plain = Router::new(&chip, config.clone()).run();
        assert_eq!(plain.checksum(), summary.checksum);
        validate_outcome(&chip, &config, &plain).expect("independent validation passes");
        // and the validator does catch a corrupted ledger
        let mut broken = plain.clone();
        let used = broken.usage.iter().position(|&u| u > 0.0).expect("some edge is used");
        broken.usage[used] += 1.0;
        assert!(validate_outcome(&chip, &config, &broken).is_err());
    }

    #[test]
    fn queue_stream_is_seeded_and_exercises_both_queues() {
        let b = queue_stream(&mut BucketQueue::new(), 7, 2_000, 1.4, 0.25);
        let t = queue_stream(&mut TwoLevelHeap::new(), 7, 2_000, 1.4, 0.25);
        assert!(b > 0.0 && t > 0.0);
    }
}
