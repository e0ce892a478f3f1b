//! Algorithm 1 — the cost-distance Steiner tree algorithm.
//!
//! The solver runs one Dijkstra per active terminal *simultaneously*
//! (one label queue over all searches, §III-B), each with its individual
//! metric `l_u(e) = c(e) + w(u)·d(e)` (Eq. (4)). Whenever a search enters a
//! vertex of another terminal's component, a *candidate* connection with
//! value `L(u, v) = dist + b(u, v)` (Eq. (5)) is recorded; once the
//! globally smallest heap key can no longer beat the best candidate, that
//! candidate is committed: the two components merge through the found
//! path, a Steiner terminal with the summed weight replaces them (placed
//! randomly per §II, or by the re-embedding rule of §III-D), and a fresh
//! search starts from it. Root connections retire their sink instead.
//!
//! The solver is generic over [`SteinerGraph`], so the same code routes
//! a whole [`Graph`](cds_graph::Graph) and a zero-copy
//! [`WindowView`](cds_graph::WindowView) of the global grid. All
//! per-solve state lives in dense, epoch-stamped slabs pooled by the
//! [`SolverWorkspace`] — one 24-byte [`Label`](crate::search::Label)
//! record per (search, vertex), whose queue key doubles as the bucket
//! queue's liveness record, and [`VertexTable`]s for the rest: clearing
//! is an epoch bump, and a warm workspace solves without touching the
//! allocator.
//!
//! Enhancements (all individually toggleable in [`SessionConfig`]):
//! §III-A component reuse (searches are seeded with the whole component
//! at delay-true offsets, so tree edges cost no connection charge),
//! §III-B simultaneous label queue (always on), §III-C A* future
//! costs, §III-D Steiner re-embedding, §III-E root-connection
//! encouragement.

use crate::assemble::AssembleScratch;
use crate::components::{CompScratch, Component, Dsu, TerminalId};
use crate::search::{Search, NO_PARENT};
use crate::session::{Request, SessionConfig};
use crate::table::VertexTable;
use cds_graph::{EdgeId, SteinerGraph, VertexId};
use cds_heap::{BucketCore, OrderedF64};
use cds_topo::penalty::beta;
use cds_topo::{EmbeddedTree, Evaluation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel for "no entry" in the intrusive per-vertex slot lists.
const NO_LINK: u32 = u32::MAX;

/// One merge of the run (the Fig. 3 trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeEvent {
    /// Two sink-side terminals merged into a new Steiner terminal.
    SinkSink {
        /// Merge index (the `i` of Algorithm 1).
        iteration: usize,
        /// Vertex of the initiating terminal `u`.
        u_vertex: VertexId,
        /// Vertex of the found terminal `v`.
        v_vertex: VertexId,
        /// Chosen position of the new Steiner terminal.
        steiner_vertex: VertexId,
        /// The committed `L(u, v)`.
        l_value: f64,
        /// Length of the connecting path in edges.
        path_edges: usize,
    },
    /// A terminal connected to the root component.
    RootConnect {
        /// Merge index.
        iteration: usize,
        /// Vertex of the connected terminal.
        u_vertex: VertexId,
        /// The committed `L(u, r)`.
        l_value: f64,
        /// Length of the connecting path in edges.
        path_edges: usize,
    },
}

/// Counters for the complexity experiments (Theorem 1 bench) and the
/// kernel observability surface (`cds-cli route` JSON, the benches).
///
/// All counters are deterministic for a given instance + options: they
/// count algorithmic events, not wall-clock — `bucket_scans` is the
/// one queue-internal counter, deterministic all the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Vertices permanently labelled over all searches.
    pub settled: usize,
    /// Queue pushes (label creations/improvements).
    pub pushed: usize,
    /// Queue pops. The queue prunes stale entries itself and pops only
    /// live ones, so this equals `settled`.
    pub popped: usize,
    /// Label improvements of an already-finite tentative distance (the
    /// decrease-key share of `pushed`).
    pub decreased: usize,
    /// Merges performed (= `|S|`).
    pub merges: usize,
    /// Bucket-array slots scanned by the Dial queue — the `C/Δ` term
    /// of Dial's complexity.
    pub bucket_scans: u64,
}

impl SolveStats {
    /// Folds another solve's counters into this one. Every field is an
    /// order-independent integer sum, so accumulating across nets (or
    /// across worker threads) is deterministic regardless of order.
    pub fn absorb(&mut self, o: SolveStats) {
        self.settled += o.settled;
        self.pushed += o.pushed;
        self.popped += o.popped;
        self.decreased += o.decreased;
        self.merges += o.merges;
        self.bucket_scans += o.bucket_scans;
    }
}

/// Everything a [`Solver::solve`](crate::Solver::solve) call returns.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The embedded Steiner tree.
    pub tree: EmbeddedTree,
    /// Objective breakdown of `tree` (Eq. (1) + (3)).
    pub evaluation: Evaluation,
    /// Work counters.
    pub stats: SolveStats,
    /// Per-merge trace (empty unless requested).
    pub trace: Vec<MergeEvent>,
}

/// The shared front of [`Solver::solve_with`](crate::Solver::solve_with)
/// and [`Solver::solve_into`](crate::Solver::solve_into): validates the
/// request, runs the merge loop to completion, and hands back the root
/// component's edge set (the tree-to-be) with the work counters and
/// optional trace.
///
/// # Panics
///
/// Panics if the request has no sinks, mismatched slices, negative
/// weights, or if some sink is disconnected from the rest of the graph.
pub(crate) fn solve_core<G: SteinerGraph + ?Sized>(
    ws: &mut SolverWorkspace,
    config: &SessionConfig,
    req: &Request<'_, G>,
) -> (Component, SolveStats, Vec<MergeEvent>) {
    assert!(!req.sinks.is_empty(), "a net needs at least one sink");
    assert_eq!(req.sinks.len(), req.weights.len(), "one weight per sink");
    assert!(req.weights.iter().all(|&w| w >= 0.0), "negative delay weight");
    assert!(req.cost.len() >= req.graph.edge_bound(), "cost slice must cover all edge ids");
    assert!(req.delay.len() >= req.graph.edge_bound(), "delay slice must cover all edge ids");
    ws.reset();
    ws.solves += 1;
    // The queue is moved out of the workspace for the duration of the
    // merge loop: the solver then holds it as a *separate* borrow from
    // the workspace, which lets the expansion hot loop keep one search
    // borrowed across all its neighbor relaxations while pushing labels.
    let quantum =
        req.quantum.filter(|q| q.is_finite() && *q > 0.0).unwrap_or_else(|| min_positive_cost(req));
    let mut queue = std::mem::take(&mut ws.bucket);
    queue.begin_solve(quantum);
    let mut out = run_merge_loop(ws, config, req, &mut queue);
    out.1.bucket_scans = queue.scans();
    ws.bucket = queue;
    out
}

/// The bucket-queue quantum fallback: the minimum positive congestion
/// cost of the request. Any positive finite value keeps the queue
/// exact, so delays are ignored (`w·d` only adds to edge lengths).
/// Windowed surfaces should pass [`Request::quantum`] instead — their
/// cost slices span the whole chip.
fn min_positive_cost<G: SteinerGraph + ?Sized>(req: &Request<'_, G>) -> f64 {
    let mut q = f64::INFINITY;
    for &c in &req.cost[..req.graph.edge_bound()] {
        if c > 0.0 && c < q {
            q = c;
        }
    }
    if q.is_finite() {
        q
    } else {
        1.0
    }
}

/// Runs the merge loop against an explicit queue (the solver state's
/// second mutable borrow next to the workspace).
fn run_merge_loop<G: SteinerGraph + ?Sized>(
    ws: &mut SolverWorkspace,
    config: &SessionConfig,
    req: &Request<'_, G>,
    queue: &mut BucketCore,
) -> (Component, SolveStats, Vec<MergeEvent>) {
    let mut state = State::new(config, req, ws, queue);
    while state.active_count > 0 {
        let cand = state.run_until_candidate();
        state.commit(cand);
    }
    let root_slot = state.root_slot;
    let root_rep = state.ws.dsu.find(root_slot);
    let comp = state.ws.terminals[root_rep]
        .comp
        .take()
        // INVARIANT: solve seeds a component at each root representative, and merges always re-deposit the survivor at the DSU representative.
        .expect("root component lives at its representative");
    let stats = state.stats;
    let trace = std::mem::take(&mut state.trace);
    (comp, stats, trace)
}

struct Terminal {
    vertex: VertexId,
    weight: f64,
    /// Component data; present only at DSU representatives.
    comp: Option<Component>,
    /// Heap search id, while the terminal is actively searching.
    sid: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// searching terminal
    u: TerminalId,
    /// terminal slot whose component was entered (resolve via DSU)
    target: TerminalId,
    /// the vertex where the connection was made
    via: VertexId,
    /// `g` value of `via` in u's search (stable once settled)
    g: f64,
}

/// The reusable buffers of one solver run: terminals, per-search label
/// slabs, the label queue, candidate stores, component pools, and
/// the dense scratch arenas for merge-time tables and tree assembly.
///
/// A workspace holds no semantic state between solves — only warmed-up
/// capacity. [`reset`](Self::reset) (called automatically by every
/// solve) clears contents but returns searches and components to
/// internal pools instead of dropping them; every
/// vertex-keyed table is an epoch-stamped [`VertexTable`] whose clear is
/// `O(1)`. This is where the session API's allocation savings come
/// from. Create one through [`Solver`](crate::Solver), or directly with
/// [`SolverWorkspace::new`] for caller-managed pools (e.g. one per
/// router worker thread).
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    terminals: Vec<Terminal>,
    dsu: Dsu,
    bucket: BucketCore,
    searches: Vec<Option<Search>>,
    /// vertex → head of its slot list in `slot_links` (stale slots
    /// resolved through the DSU at query time)
    slot_head: VertexTable<u32>,
    /// intrusive singly-linked lists: (next link, terminal slot)
    slot_links: Vec<(u32, TerminalId)>,
    candidates: BinaryHeap<Reverse<(OrderedF64, usize)>>,
    cand_store: Vec<Candidate>,
    /// For root-component vertices: total already-routed sink weight
    /// downstream (rebuilt after every root merge).
    root_downstream: VertexTable<f64>,
    /// Retired [`Search`] label slabs, cleared, awaiting reuse.
    search_pool: Vec<Search>,
    /// Retired [`Component`] buffers, cleared, awaiting reuse.
    component_pool: Vec<Component>,
    /// Merge-time component tables (adjacency, tree delays, exit
    /// prices, downstream accumulation) — the arena that replaced the
    /// per-merge hash maps.
    comp_scratch: CompScratch,
    /// Tree-assembly tables (used-subgraph adjacency, DFS state,
    /// children lists).
    pub(crate) assemble: AssembleScratch,
    /// Scratch for the arrival check of the expansion hot loop.
    scratch_slots: Vec<TerminalId>,
    /// Scratch for neighbor enumeration (filled by the graph backend).
    nbrs: Vec<(VertexId, EdgeId)>,
    /// Scratch for search seeds, committed paths, and candidate rescans.
    seed_scratch: Vec<(VertexId, f64)>,
    path_scratch: Vec<EdgeId>,
    pathv_scratch: Vec<VertexId>,
    cum_scratch: Vec<f64>,
    sid_scratch: Vec<u32>,
    hit_scratch: Vec<(VertexId, f64)>,
    /// Work queue of [`GridFutureCost::note_new_targets`](crate::GridFutureCost::note_new_targets).
    target_queue: VecDeque<usize>,
    /// Solves served by this workspace (diagnostics).
    solves: u64,
}

impl std::fmt::Debug for Terminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Terminal")
            .field("vertex", &self.vertex)
            .field("weight", &self.weight)
            .field("sid", &self.sid)
            .finish_non_exhaustive()
    }
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves served by this workspace so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Clears all per-solve state while keeping every allocation:
    /// collection capacities survive, epoch-stamped tables clear in
    /// `O(1)`, and searches / components move to pools for the next
    /// solve.
    pub fn reset(&mut self) {
        for mut t in self.terminals.drain(..) {
            if let Some(mut comp) = t.comp.take() {
                comp.reset();
                self.component_pool.push(comp);
            }
        }
        for slot in &mut self.searches {
            if let Some(mut s) = slot.take() {
                s.reset(0, 0.0, 0);
                self.search_pool.push(s);
            }
        }
        self.searches.clear();
        self.dsu.clear();
        self.bucket.clear();
        self.slot_head.clear();
        self.slot_links.clear();
        self.candidates.clear();
        self.cand_store.clear();
        self.root_downstream.clear();
    }

    /// Appends `slot` to the list of terminal slots whose components
    /// contain `v`.
    fn push_slot(&mut self, v: VertexId, slot: TerminalId) {
        let next = self.slot_head.get_or(v, NO_LINK);
        self.slot_links.push((next, slot));
        self.slot_head.insert(v, self.slot_links.len() as u32 - 1);
    }

    /// Appends the slots registered at `v` to `out`, in insertion order.
    fn slots_at(&self, v: VertexId, out: &mut Vec<TerminalId>) {
        let base = out.len();
        let mut link = self.slot_head.get_or(v, NO_LINK);
        while link != NO_LINK {
            let (next, slot) = self.slot_links[link as usize];
            out.push(slot);
            link = next;
        }
        out[base..].reverse();
    }

    /// A cleared component from the pool (or a fresh one), initialized
    /// as a singleton.
    fn alloc_component(&mut self, v: VertexId, sinks: &[(VertexId, f64)]) -> Component {
        match self.component_pool.pop() {
            Some(mut comp) => {
                comp.init_singleton(v, sinks);
                comp
            }
            None => Component::singleton(v, sinks.to_vec()),
        }
    }

    /// Returns a drained component's buffers to the pool.
    pub(crate) fn free_component(&mut self, mut comp: Component) {
        comp.reset();
        self.component_pool.push(comp);
    }

    /// A cleared search from the pool (or a fresh one).
    fn alloc_search(&mut self, terminal: TerminalId, weight: f64, origin: VertexId) -> Search {
        match self.search_pool.pop() {
            Some(mut s) => {
                s.reset(terminal, weight, origin);
                s
            }
            None => Search::new(terminal, weight, origin),
        }
    }

    /// Retires a search, returning its label slab to the pool.
    fn free_search(&mut self, sid: u32) {
        if let Some(mut s) = self.searches[sid as usize].take() {
            s.reset(0, 0.0, 0);
            self.search_pool.push(s);
        }
    }
}

/// The bucket queue's liveness test: entry `(sid, v, key)` is live iff
/// search `sid` is still running and holds `v` queued at exactly `key`.
#[inline]
fn is_queued(searches: &[Option<Search>], sid: u32, v: VertexId, key: f64) -> bool {
    searches[sid as usize].as_ref().is_some_and(|s| s.labels.is_queued(v, key))
}

struct State<'w, 'a, 'r, G: ?Sized> {
    config: &'a SessionConfig,
    req: &'a Request<'r, G>,
    ws: &'w mut SolverWorkspace,
    queue: &'w mut BucketCore,
    root_slot: TerminalId,
    active_count: usize,
    total_active_weight: f64,
    rng: StdRng,
    stats: SolveStats,
    trace: Vec<MergeEvent>,
    /// Memoized result of [`peek_valid_candidate`](Self::peek_valid_candidate).
    /// A validated best candidate stays valid until something that
    /// feeds its value changes: a candidate push, a take, or a commit
    /// (merges move DSU representatives and component weights, which
    /// `b_value` reads). Those three places reset this to `None`. The
    /// cache turns the per-expansion revalidation — a heap peek plus
    /// two DSU finds plus a `b_value` recompute — into a field read,
    /// which matters because `run_until_candidate` consults the best
    /// candidate once per settled label.
    cand_cache: Option<Option<(f64, usize)>>,
}

impl<'w, 'a, 'r, G: SteinerGraph + ?Sized> State<'w, 'a, 'r, G> {
    fn new(
        config: &'a SessionConfig,
        req: &'a Request<'r, G>,
        ws: &'w mut SolverWorkspace,
        queue: &'w mut BucketCore,
    ) -> Self {
        let mut state = State {
            config,
            req,
            ws,
            queue,
            root_slot: 0,
            active_count: 0,
            total_active_weight: 0.0,
            rng: StdRng::seed_from_u64(req.seed.unwrap_or(config.seed)),
            stats: SolveStats::default(),
            trace: Vec::new(),
            cand_cache: None,
        };
        // sink terminals
        for (i, (&v, &w)) in req.sinks.iter().zip(req.weights).enumerate() {
            let slot = state.ws.dsu.push();
            debug_assert_eq!(slot, i);
            let comp = state.ws.alloc_component(v, &[(v, w)]);
            state.ws.terminals.push(Terminal { vertex: v, weight: w, comp: Some(comp), sid: None });
            state.ws.push_slot(v, slot);
            state.active_count += 1;
            state.total_active_weight += w;
        }
        // root terminal
        let root_slot = state.ws.dsu.push();
        state.root_slot = root_slot;
        let root_comp = state.ws.alloc_component(req.root, &[]);
        state.ws.terminals.push(Terminal {
            vertex: req.root,
            weight: 0.0,
            comp: Some(root_comp),
            sid: None,
        });
        state.ws.push_slot(req.root, root_slot);
        // start one search per sink
        for i in 0..req.sinks.len() {
            state.start_search(i);
        }
        state
    }

    /// `b(u, v)` of Eq. (5) for a candidate, under the *current* weights.
    ///
    /// For root-component arrivals the paper's `β(w(u), w(S_i∖u))` prices
    /// the *future* siblings; we additionally price the *already routed*
    /// sinks downstream of the tap vertex (the bifurcation they would
    /// suffer is fully determined), taking the larger of the two — this
    /// is what keeps taps off critical trunks (Fig. 1).
    fn b_value(&mut self, u: TerminalId, target_rep: TerminalId, via: VertexId) -> f64 {
        // a searching terminal is always its own DSU representative (a
        // merge retires both member searches), so its weight is `w(u)`
        debug_assert_eq!(self.ws.dsu.find(u), u, "searching terminal is its own representative");
        let w_u = self.ws.terminals[u].weight;
        if target_rep == self.ws.dsu.find(self.root_slot) {
            let rest = (self.total_active_weight - w_u).max(0.0);
            let down = self.ws.root_downstream.get_or(via, 0.0);
            let mut b = beta(w_u, rest, &self.req.bif).max(beta(w_u, down, &self.req.bif));
            if self.config.encourage_root {
                // §III-E: connecting now saves at least η·d_bif·w(u) later
                b -= self.req.bif.eta * self.req.bif.dbif * w_u;
            }
            b.max(0.0)
        } else {
            beta(w_u, self.ws.terminals[target_rep].weight, &self.req.bif)
        }
    }

    /// Starts (or restarts) the Dijkstra of terminal `slot`, drawing the
    /// search's label slab from the workspace pool.
    fn start_search(&mut self, slot: TerminalId) {
        let (t_weight, t_vertex) = {
            let t = &self.ws.terminals[slot];
            (t.weight, t.vertex)
        };
        let mut search = self.ws.alloc_search(slot, t_weight, t_vertex);
        // search ids are dense per solve: the next free `searches` slot
        let sid = self.ws.searches.len() as u32;
        // Seeds (§III-A): every component vertex is a possible exit; its
        // price is the weighted tree delay the component's sinks incur if
        // the connection enters there — Σ_q w(q)·d_tree(y, q). For a
        // fresh sink this is the paper's plain seeding; for merged
        // components it keeps critical sinks near cheap exits instead of
        // charging all weight at the Steiner terminal's position.
        // Without discounting, just the terminal position (§II).
        let w = search.weight;
        let rep = self.ws.dsu.find(slot);
        let mut seeds = std::mem::take(&mut self.ws.seed_scratch);
        seeds.clear();
        {
            let mut cs = std::mem::take(&mut self.ws.comp_scratch);
            // INVARIANT: rep is a DSU representative with an active search, and components live at representatives until extracted by a merge.
            let comp = self.ws.terminals[rep].comp.as_ref().expect("live component");
            if self.config.discount_components && !comp.edges.is_empty() {
                // raw tree delays from the terminal position, for §III-D
                comp.tree_delays_into(self.req.graph, self.req.delay, t_vertex, &mut cs);
                for &v in comp.vertices() {
                    if let Some(raw) = cs.delay.get(v) {
                        search.seed_raw.push((v, raw));
                    }
                }
                // the adjacency built by tree_delays_into is still valid
                comp.weighted_exit_delay_prebuilt(self.req.delay, &mut cs);
                seeds.extend(comp.vertices().iter().map(|&v| (v, cs.exit.get_or(v, 0.0))));
            } else {
                // a single-vertex component seeds only its own position
                // at zero offset — same result as the general path,
                // without building the tree-delay tables (the t initial
                // searches of every solve take this branch)
                search.seed_raw.push((t_vertex, 0.0));
                seeds.push((t_vertex, 0.0));
            }
            self.ws.comp_scratch = cs;
        }
        // sorted for determinism, and for the binary search of
        // `Search::seed_raw_delay`
        seeds.sort_unstable_by_key(|&(v, _)| v);
        search.seed_raw.sort_unstable_by_key(|&(v, _)| v);
        // component vertices are deduplicated, so every seed is a fresh label
        for &(v, offset) in &seeds {
            let key = offset + self.req.future.map_or(0.0, |f| f.bound_nearest(v, w));
            search.labels.set(v, offset, key, NO_PARENT);
            self.queue.push(sid, v, key, true);
            self.stats.pushed += 1;
        }
        self.ws.seed_scratch = seeds;
        self.ws.terminals[slot].sid = Some(sid);
        self.ws.searches.push(Some(search));
    }

    /// Expands searches until the best candidate provably minimizes
    /// `L(u, v)`, then returns it.
    ///
    /// # Panics
    ///
    /// Panics if the searches run dry without any candidate (disconnected
    /// instance).
    fn run_until_candidate(&mut self) -> Candidate {
        loop {
            let best = self.peek_valid_candidate();
            let searches = &self.ws.searches;
            let heap_min = self.queue.peek_key(|s, v, k| is_queued(searches, s, v, k));
            match (best, heap_min) {
                (Some((cv, id)), Some(hm)) if cv <= hm + 1e-12 => {
                    return self.take_candidate(id);
                }
                (Some(_), Some(_)) | (None, Some(_)) => self.expand_once(),
                (Some((_, id)), None) => return self.take_candidate(id),
                // INVARIANT: validated instances are connected, so some search can always expand; firing means the caller violated the documented precondition.
                (None, None) => panic!("instance is disconnected: searches exhausted"),
            }
        }
    }

    fn take_candidate(&mut self, id: usize) -> Candidate {
        // remove it from the heap top (it is guaranteed to be on top)
        // INVARIANT: take_candidate is only called with the id just observed at the non-empty heap top.
        let Reverse((_, top)) = self.ws.candidates.pop().expect("candidate present");
        debug_assert_eq!(top, id);
        self.cand_cache = None;
        self.ws.cand_store[id]
    }

    /// Lazily revalidates the candidate heap: recompute values under the
    /// current component structure and weights, dropping dead entries.
    /// Returns the best (value, id) without removing it.
    fn peek_valid_candidate(&mut self) -> Option<(f64, usize)> {
        if let Some(cached) = self.cand_cache {
            return cached;
        }
        let res = self.revalidate_candidates();
        self.cand_cache = Some(res);
        res
    }

    /// The uncached body of [`peek_valid_candidate`](Self::peek_valid_candidate).
    fn revalidate_candidates(&mut self) -> Option<(f64, usize)> {
        loop {
            let &Reverse((val, id)) = self.ws.candidates.peek()?;
            let cand = self.ws.cand_store[id];
            // searching terminal must still be searching
            if self.ws.terminals[cand.u].sid.is_none() {
                self.ws.candidates.pop();
                continue;
            }
            let target_rep = self.ws.dsu.find(cand.target);
            let u_rep = self.ws.dsu.find(cand.u);
            if target_rep == u_rep {
                self.ws.candidates.pop(); // already in the same component
                continue;
            }
            let fresh = cand.g + self.b_value(cand.u, target_rep, cand.via);
            if (fresh - val.get()).abs() <= 1e-12 {
                return Some((val.get(), id));
            }
            // value drifted (weights changed by merges): reinsert
            self.ws.candidates.pop();
            self.ws.candidates.push(Reverse((OrderedF64::new(fresh), id)));
        }
    }

    fn push_candidate(&mut self, u: TerminalId, target: TerminalId, via: VertexId, g: f64) {
        let target_rep = self.ws.dsu.find(target);
        if target_rep == self.ws.dsu.find(u) {
            return;
        }
        let val = g + self.b_value(u, target_rep, via);
        let id = self.ws.cand_store.len();
        self.ws.cand_store.push(Candidate { u, target: target_rep, via, g });
        self.ws.candidates.push(Reverse((OrderedF64::new(val), id)));
        self.cand_cache = None;
    }

    /// Pops one label from the queue, settles it, records arrivals,
    /// relaxes neighbours.
    fn expand_once(&mut self) {
        let searches = &self.ws.searches;
        let Some((sid, x, _key)) = self.queue.pop(|s, v, k| is_queued(searches, s, v, k)) else {
            return;
        };
        self.stats.popped += 1;
        // INVARIANT: the queue pops only entries is_queued accepted, and is_queued accepts only entries of a search still in its slot.
        let search = self.ws.searches[sid as usize].as_mut().expect("live search");
        // an accepted entry is x's queued label: settling it stales the entry
        let g = search.labels.settle(x);
        let u = search.terminal;
        let w = search.weight;
        self.stats.settled += 1;

        // arrival at a foreign component? (scratch-copy the slot list so
        // candidate pushes can re-borrow the workspace)
        let mut arrived_foreign = false;
        let mut scratch = std::mem::take(&mut self.ws.scratch_slots);
        scratch.clear();
        self.ws.slots_at(x, &mut scratch);
        if !scratch.is_empty() {
            let u_rep = self.ws.dsu.find(u);
            for &slot in &scratch {
                let rep = self.ws.dsu.find(slot);
                if rep != u_rep {
                    arrived_foreign = true;
                    self.push_candidate(u, rep, x, g);
                }
            }
        }
        self.ws.scratch_slots = scratch;
        // §III-A: foreign tree vertices terminate the path — the
        // connection happens here, so tunnelling through is pointless
        // and would corrupt component disjointness.
        if arrived_foreign && self.config.discount_components {
            return;
        }

        // relax neighbours with l_u = c + w·d
        let graph = self.req.graph;
        let mut nbrs = std::mem::take(&mut self.ws.nbrs);
        graph.neighbors_into(x, &mut nbrs);
        let fut = self.req.future;
        let cost = self.req.cost;
        let delay = self.req.delay;
        #[cfg(target_arch = "x86_64")]
        // The CSR arc span is contiguous but the per-edge cost/delay
        // reads it induces are scattered; issue the loads for the whole
        // span before the relaxation loop touches any of them.
        //
        // SAFETY: `_mm_prefetch` is a pure cache hint with no memory
        // access semantics — it cannot fault, read, or write even if
        // the pointer were dangling. The pointers here are in-bounds
        // anyway: every edge id in `nbrs` comes from the instance
        // graph, and `cost`/`delay` are per-edge slices of that graph
        // (`solve_core` asserts their lengths), so
        // `as_ptr().add(e)` stays within the allocations.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            for &(_, e) in &nbrs {
                _mm_prefetch(cost.as_ptr().add(e as usize) as *const i8, _MM_HINT_T0);
                _mm_prefetch(delay.as_ptr().add(e as usize) as *const i8, _MM_HINT_T0);
            }
        }
        // The queue lives outside the workspace, so the search borrow
        // can be hoisted out of the loop (disjoint fields) — the old
        // code re-indexed `ws.searches` once per neighbor to appease
        // the borrow checker around `ws.heap`.
        let stats = &mut self.stats;
        let queue = &mut *self.queue;
        // INVARIANT: same argument as above: sid named a live search when it was popped, and nothing retires searches in between.
        let sm = self.ws.searches[sid as usize].as_mut().expect("live search");
        for &(y, e) in &nbrs {
            // one record probe answers "already settled?", "current
            // distance?" and "queued at which key?"
            let prior = sm.labels.get(y);
            if prior.is_some_and(|l| l.is_settled()) {
                continue;
            }
            let len = cost[e as usize] + w * delay[e as usize];
            let cand_g = g + len;
            let cur = prior.map_or(f64::INFINITY, |l| l.dist);
            if cand_g < cur {
                if cur.is_finite() {
                    stats.decreased += 1;
                }
                let key = cand_g + fut.map_or(0.0, |f| f.bound_nearest(y, w));
                match prior {
                    // decrease-only filing: a key not below the queued
                    // one (a rounding tie) improves dist and parent but
                    // files nothing, and the queued entry stays live
                    Some(l) if key >= l.key => sm.labels.set(y, cand_g, l.key, e),
                    _ => {
                        sm.labels.set(y, cand_g, key, e);
                        queue.push(sid, y, key, prior.is_none());
                    }
                }
                stats.pushed += 1;
            }
        }
        self.ws.nbrs = nbrs;
    }

    /// Retires search `sid`: its queued labels leave the queue's count
    /// (their entries die with the search) and its label slab goes back
    /// to the pool.
    fn retire_search(&mut self, sid: u32) {
        let queued = self.ws.searches[sid as usize].as_ref().map_or(0, |s| s.labels.queued());
        self.queue.forget(queued);
        self.ws.free_search(sid);
    }

    /// Commits a merge: joins components, places the Steiner terminal,
    /// retires/starts searches, rescans settled labels on new vertices.
    fn commit(&mut self, cand: Candidate) {
        // merging moves DSU representatives and component weights, both
        // of which feed `b_value`, so the memoized best candidate dies
        self.cand_cache = None;
        let u = cand.u;
        // INVARIANT: candidates are recorded for terminals with an active search, and revalidate_candidates drops every candidate whose terminal no longer has a sid before this point.
        let sid = self.ws.terminals[u].sid.expect("searching terminal");
        // INVARIANT: sid was just read from a searching terminal, and searches stay live until a merge retires them below.
        let search = self.ws.searches[sid as usize].as_ref().expect("live search");
        let mut path = std::mem::take(&mut self.ws.path_scratch);
        let mut path_vertices = std::mem::take(&mut self.ws.pathv_scratch);
        let seed = search.extract_path_into(self.req.graph, cand.via, &mut path);
        search.path_vertices_into(self.req.graph, &path, seed, &mut path_vertices);
        // raw (unweighted) tree delay from π(u) to the path's seed — the
        // §III-D re-embedding needs it after the search is retired
        let seed_raw_u = search.seed_raw_delay(seed);
        let target_rep = self.ws.dsu.find(cand.target);
        let l_value = cand.g + self.b_value(u, target_rep, cand.via);
        let iteration = self.stats.merges;
        self.stats.merges += 1;

        let is_root = target_rep == self.ws.dsu.find(self.root_slot);
        // retire u's search (its label slab goes back to the pool)
        self.retire_search(sid);
        self.ws.terminals[u].sid = None;

        // INVARIANT: u (a searching terminal, hence its own representative) and target_rep are DSU representatives of distinct live components (the candidate filter rejected same-component pairs), and components live at their representatives.
        let mut comp_u = self.ws.terminals[u].comp.take().expect("u's component");
        // INVARIANT: same argument as comp_u: the target's component lives at its representative.
        let mut comp_t = self.ws.terminals[target_rep].comp.take().expect("target component");

        if is_root {
            // root connection: the root component absorbs u's component
            let mut comp = comp_t;
            comp.absorb(&mut comp_u, &path, self.req.graph);
            self.ws.free_component(comp_u);
            self.active_count -= 1;
            self.total_active_weight -= self.ws.terminals[u].weight;
            // union keeps the root slot as representative
            self.ws.dsu.union_into(u, target_rep, self.root_slot);
            {
                let mut cs = std::mem::take(&mut self.ws.comp_scratch);
                let mut down = std::mem::take(&mut self.ws.root_downstream);
                comp.downstream_weights_into(self.req.graph, self.req.root, &mut down, &mut cs);
                self.ws.root_downstream = down;
                self.ws.comp_scratch = cs;
            }
            self.ws.terminals[self.root_slot].comp = Some(comp);
            if self.req.record_trace {
                self.trace.push(MergeEvent::RootConnect {
                    iteration,
                    u_vertex: self.ws.terminals[u].vertex,
                    l_value,
                    path_edges: path.len(),
                });
            }
            self.register_new_vertices(&path_vertices, self.root_slot);
        } else {
            // sink–sink merge: create the Steiner terminal s
            let v_slot = target_rep;
            let w_u = self.ws.terminals[u].weight;
            let w_v = self.ws.terminals[v_slot].weight;
            let pos =
                self.choose_steiner_position(u, v_slot, &path, &path_vertices, seed_raw_u, &comp_t);
            let s = self.ws.dsu.push();
            let mut comp = comp_u;
            comp.absorb(&mut comp_t, &path, self.req.graph);
            self.ws.free_component(comp_t);
            if let Some(vsid) = self.ws.terminals[v_slot].sid.take() {
                self.retire_search(vsid);
            }
            self.ws.terminals.push(Terminal {
                vertex: pos,
                weight: w_u + w_v,
                comp: Some(comp),
                sid: None,
            });
            debug_assert_eq!(s, self.ws.terminals.len() - 1);
            self.ws.dsu.union_into(u, v_slot, s);
            self.active_count -= 1; // two components die, one is born
            self.ws.push_slot(pos, s);
            if self.req.record_trace {
                self.trace.push(MergeEvent::SinkSink {
                    iteration,
                    u_vertex: self.ws.terminals[u].vertex,
                    v_vertex: self.ws.terminals[v_slot].vertex,
                    steiner_vertex: pos,
                    l_value,
                    path_edges: path.len(),
                });
            }
            self.register_new_vertices(&path_vertices, s);
            self.start_search(s);
        }
        self.ws.path_scratch = path;
        self.ws.pathv_scratch = path_vertices;
    }

    /// Chooses the new Steiner terminal's position: §III-D re-embedding
    /// on the path when enabled, otherwise the randomized endpoint rule
    /// of §II (probability proportional to delay weight).
    fn choose_steiner_position(
        &mut self,
        u: TerminalId,
        v: TerminalId,
        path: &[EdgeId],
        path_vertices: &[VertexId],
        seed_raw_u: f64,
        comp_v: &Component,
    ) -> VertexId {
        let (w_u, w_v) = (self.ws.terminals[u].weight, self.ws.terminals[v].weight);
        if !self.config.better_steiner {
            // random endpoint ∝ weight (heavier terminal more likely to
            // stay detour-free towards the root)
            let p_u = if w_u + w_v > 0.0 { w_u / (w_u + w_v) } else { 0.5 };
            return if self.rng.gen::<f64>() < p_u {
                self.ws.terminals[u].vertex
            } else {
                self.ws.terminals[v].vertex
            };
        }
        // §III-D: minimize  ĉ(Q) + (w_u+w_v)·d̂(Q) + Σ_y w_y·d(P[y, s])
        // over path positions s, with Q (the future s→root path)
        // estimated by future costs.
        let usearch_raw = seed_raw_u;
        // raw delay from π(v) to the join vertex inside v's component
        // INVARIANT: reconstructed paths contain at least the meeting vertex, so last() is always present.
        let join = *path_vertices.last().expect("path has vertices");
        let v_raw = {
            let mut cs = std::mem::take(&mut self.ws.comp_scratch);
            let v_vertex = self.ws.terminals[v].vertex;
            comp_v.tree_delays_into(self.req.graph, self.req.delay, v_vertex, &mut cs);
            let raw = cs.delay.get_or(join, 0.0);
            self.ws.comp_scratch = cs;
            raw
        };
        // cumulative raw d along the path from the seed side
        let mut cum = std::mem::take(&mut self.ws.cum_scratch);
        cum.clear();
        let mut acc = 0.0;
        cum.push(0.0);
        for &e in path {
            acc += self.req.delay[e as usize];
            cum.push(acc);
        }
        let total: f64 = acc;
        let w_sum = w_u + w_v;
        let fc = self.req.future;
        let root = self.req.root;
        let mut best = (f64::INFINITY, path_vertices[0]);
        for (i, &p) in path_vertices.iter().enumerate() {
            let d_u = usearch_raw + cum[i];
            let d_v = v_raw + (total - cum[i]);
            let q_est = fc.map_or(0.0, |f| f.bound_to(p, root, w_sum));
            let score = q_est + w_u * d_u + w_v * d_v;
            if score < best.0 {
                best = (score, p);
            }
        }
        self.ws.cum_scratch = cum;
        best.1
    }

    /// After a merge, vertices of the connecting path join the component;
    /// other searches that already settled those vertices must get their
    /// arrival candidates now (their Dijkstras will not revisit them).
    /// Only relevant under §III-A: without discounting, targets are
    /// terminal positions only (already registered), and existing
    /// candidates stay valid through DSU resolution.
    fn register_new_vertices(&mut self, path_vertices: &[VertexId], owner: TerminalId) {
        if !self.config.discount_components {
            return;
        }
        // keep goal-oriented future costs admissible: every path vertex
        // is a valid connection target from now on (§III-C feasibility)
        if let Some(fc) = self.req.future {
            fc.note_new_targets(path_vertices, &mut self.ws.target_queue);
        }
        for &v in path_vertices {
            self.ws.push_slot(v, owner);
        }
        // also the owner's terminal position (new Steiner terminals)
        let mut sids = std::mem::take(&mut self.ws.sid_scratch);
        sids.clear();
        sids.extend(self.ws.terminals.iter().filter_map(|t| t.sid));
        for &sid in &sids {
            let Some(u) = self.ws.searches[sid as usize].as_ref().map(|s| s.terminal) else {
                continue;
            };
            if self.ws.dsu.find(u) == self.ws.dsu.find(owner) {
                continue;
            }
            let mut hits = std::mem::take(&mut self.ws.hit_scratch);
            hits.clear();
            {
                // INVARIANT: sid was checked live at the top of this block and nothing frees searches in between.
                let search = self.ws.searches[sid as usize].as_ref().expect("checked above");
                for &v in path_vertices {
                    if let Some(l) = search.labels.get(v).filter(|l| l.is_settled()) {
                        hits.push((v, l.dist));
                    }
                }
            }
            for &(v, g) in &hits {
                self.push_candidate(u, owner, v, g);
            }
            self.ws.hit_scratch = hits;
        }
        self.ws.sid_scratch = sids;
    }
}
