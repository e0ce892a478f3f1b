//! The routing daemon: job table, bounded FIFO queue, warm-workspace
//! worker pool, checksum-keyed result cache, and graceful drain.
//!
//! # The request path
//!
//! One acceptor thread parks in a *blocking* `accept()` and hands each
//! connection to its own short-lived handler thread (one request per
//! connection, `Connection: close`), so a request that finds the daemon
//! idle costs a connect, one read, the handler's work and one write —
//! no polling interval sits between a client and its answer. Both
//! directions move a whole
//! message in one `write_all` ([`http::write_response`],
//! `http::write_request`) over the connection's single descriptor.
//! Thread-per-connection stays on purpose: a fixed handler pool was
//! measured slightly faster but needs a sizing constant, and until
//! connections have their own short timeouts a handful of idle peers
//! would hold every pool slot for the 30 s read timeout.
//!
//! What thread-per-connection lacks is a bound on how fast threads are
//! made, so the acceptor *paces admission* with a token bucket
//! (`book_admission`): a connection is handed to its handler every
//! [`ADMIT_INTERVAL`], and a daemon that has fallen behind that
//! schedule — it was idle, or a wake-up came late — may admit up to
//! [`ADMIT_BURST`] connections back to back to catch up. A request that
//! finds the daemon idle is therefore never delayed, and under
//! sustained back-to-back arrivals exactly one is admitted per
//! interval: the schedule is a chain of absolute deadlines, so a slow
//! handler, a late timer or a stolen vCPU delay one admission and are
//! made up by the next ones instead of accumulating. The price is a
//! ceiling of 2 500 requests/s where the unpaced path reaches
//! 8 000–17 000 on two cores; DESIGN.md ("Admission pacing") has the
//! numbers and the reason the ceiling is where it is.
//!
//! A blocking acceptor cannot poll a flag, so a drain *wakes* it:
//! `begin_drain` sets `draining`, notifies the queue condvar and makes
//! one throw-away connection to the daemon's own listening address
//! (the loopback address of the same family when the bind address is
//! unspecified). The acceptor re-checks `draining` after every
//! `accept()` and exits; a connection accepted after the flag is
//! dropped unanswered, exactly as the unaccepted backlog is.
//!
//! # Life of a job
//!
//! `POST /jobs` parses the `cdst/1` body, resolves the router
//! configuration (defaults ← the document's `config` records ← query
//! string overrides, the same layering as `cds-cli route`), and
//! canonicalizes the document through the round-trip-total writer. The
//! FNV-1a key over (canonical bytes, resolved config) indexes the
//! result cache: a hit creates an already-`done` job served from the
//! archived response — byte-identical to the fresh run's, at zero
//! routing cost.
//!
//! Parsing and re-serialising a document costs milliseconds at bench
//! scale, so a *byte-identical* resubmission skips both: the raw
//! submission memo maps FNV-1a over (body bytes, decoded query pairs)
//! to the canonical key that submission resolved to. Parse, config
//! resolution and canonicalisation are pure functions of exactly those
//! bytes, so equal raw bytes imply an equal canonical key and the memo
//! can never answer with another document's result. It is consulted
//! only to reach a cache entry that exists: no memo, a memoised key
//! whose result is not cached (still running, cancelled, never
//! accepted), a different spelling of the same document or a
//! malformed body all take the canonical path below, unchanged.
//!
//! A miss enqueues the job on a bounded FIFO queue
//! (`503` when full — backpressure, not buffering). Each worker thread
//! owns one warm [`WorkerPool`] whose oracle workspaces and scratch
//! forests persist across jobs *and chips*; warm reuse is bit-identical
//! to a cold router by the per-net-input determinism contract
//! (`cds_router::WorkerPool` docs), which is what lets a cache entry
//! stand for every future identical submission.
//!
//! `GET /jobs/:id` reports state plus the per-iteration progress the
//! router's hook has recorded so far; `GET /jobs/:id/result` returns
//! the result JSON, rendered by the same `cds_router::report` function
//! `cds-cli route` prints. A submission whose (canonical bytes,
//! resolved config) key matches a job that is still queued or running
//! does not enqueue a second route: it *coalesces* — the response
//! carries the in-flight job's id (marked `"coalesced": true`) and
//! every attached client polls the same job, so one route serves all
//! of them. This is sound for the same reason the cache is: identical
//! submissions produce bit-identical results, so a second route could
//! add nothing but load. `DELETE /jobs/:id` cancels cooperatively:
//! queued jobs are skipped by the drain, running jobs stop before their
//! next rip-up iteration and archive their partial (but internally
//! consistent) outcome — partial results are never cached.
//!
//! `POST /shutdown` (or [`ServerHandle::shutdown`]) drains: the
//! acceptor is woken and stops taking connections, workers finish the
//! queue, in-flight jobs complete, and every thread joins — no signal
//! handling, no aborted routes.

use crate::http::{self, Request};
use cds_instgen::io::doc::{chip_doc_to_string, parse_chip_doc, ChipDoc};
use cds_router::report::{json_escape, json_f64, outcome_json};
use cds_router::{Router, RouterConfig, RunControl, WorkerPool};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Daemon tuning; every bound is explicit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — the test form).
    pub addr: String,
    /// Routing worker threads, each with its own warm workspace pool.
    /// `0` is accepted (jobs queue but never run) and exists for queue
    /// and cancellation tests.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with 503.
    pub queue_cap: usize,
    /// Largest accepted request body in bytes (chip documents are a
    /// few hundred KB at bench scale).
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, queue_cap: 64, max_body: 16 << 20 }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// A worker is routing it.
    Running,
    /// Finished; result available (possibly straight from the cache).
    Done,
    /// Cancelled — before it ran (no result) or cooperatively mid-run
    /// (partial result available).
    Cancelled,
    /// The worker could not complete it (panic or internal error).
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// One archived result: the exact response body plus its checksum.
#[derive(Debug, Clone)]
struct ResultEntry {
    json: String,
    checksum: u64,
}

/// Per-iteration progress snapshot recorded by the router's hook.
#[derive(Debug, Clone)]
struct IterProgress {
    iter: usize,
    rerouted: usize,
    wall_s: f64,
}

/// What a worker needs to route a job: the parsed document and its
/// resolved configuration.
struct JobInput {
    doc: ChipDoc,
    config: RouterConfig,
}

/// One job record. `input` is taken by the worker when the job starts
/// (a job served from the cache never has one); everything else is
/// status-endpoint state.
struct Job {
    state: JobState,
    cached: bool,
    cancel_requested: bool,
    key: u64,
    ctrl: Arc<RunControl>,
    input: Option<Box<JobInput>>,
    total_iterations: usize,
    progress: Vec<IterProgress>,
    result: Option<ResultEntry>,
    error: Option<String>,
}

/// Shared daemon state.
struct State {
    config: ServeConfig,
    /// The bound listening address — a plain field, so `begin_drain`
    /// can make its wake connection without holding any lock.
    addr: SocketAddr,
    jobs: Mutex<Vec<Job>>,
    queue: Mutex<VecDeque<usize>>,
    queue_cv: Condvar,
    cache: Mutex<HashMap<u64, ResultEntry>>,
    /// Raw-submission memo: `raw_submission_key` → what that exact
    /// submission resolved to (see the module docs for why it is sound).
    raw_memo: Mutex<HashMap<u64, Resolved>>,
    draining: AtomicBool,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Submissions that attached to an identical in-flight job instead
    /// of enqueueing a second route.
    coalesced: AtomicU64,
    /// Cache hits answered through the raw memo, without parsing.
    parse_skipped: AtomicU64,
    active_conns: AtomicUsize,
}

impl State {
    fn new(config: ServeConfig, addr: SocketAddr) -> State {
        State {
            config,
            addr,
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(HashMap::new()),
            raw_memo: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            parse_skipped: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
        }
    }
}

/// What one submission resolved to after parsing: its cache key and the
/// iteration count the status endpoint reports.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    key: u64,
    total_iterations: usize,
}

/// Locks that survive a poisoned mutex: a panicking worker must not
/// take the whole daemon's status endpoints down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// FNV-1a over length-framed parts (framing keeps `("ab","c")` and
/// `("a","bc")` distinct).
fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u8| {
        h ^= u64::from(x);
        h = h.wrapping_mul(0x100000001b3);
    };
    for part in parts {
        for &b in part.len().to_le_bytes().iter() {
            eat(b);
        }
        for &b in *part {
            eat(b);
        }
    }
    h
}

/// The resolved-configuration component of the cache key. The derived
/// `Debug` rendering covers every `RouterConfig` field by construction,
/// so a future knob cannot silently alias two different configurations
/// onto one cache entry.
fn config_fingerprint(c: &RouterConfig) -> String {
    format!("{c:?}")
}

/// The raw-submission memo key: FNV-1a over the body bytes and every
/// decoded query pair, each part length-framed — everything `submit`
/// reads from a request, before any parsing.
fn raw_submission_key(req: &Request) -> u64 {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + 2 * req.query.len());
    parts.push(&req.body);
    for (k, v) in &req.query {
        parts.push(k.as_bytes());
        parts.push(v.as_bytes());
    }
    fnv1a_parts(&parts)
}

/// Where a throw-away connection reaches the listener bound at `bound`:
/// the address itself, or — when it is the unspecified address, which
/// is not connectable everywhere — the loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Spacing of the acceptor's admission schedule (module docs): under
/// sustained arrivals one connection reaches a handler thread per
/// interval. The costliest bench request, a cached submission of the
/// 82 KB document, is a 0.3–0.4 ms round trip unpaced.
pub const ADMIT_INTERVAL: Duration = Duration::from_micros(400);

/// How many intervals the acceptor may fall behind its schedule and
/// still catch up: the admissions it may make back to back after idling
/// or after a late wake-up (6.4 ms worth).
pub const ADMIT_BURST: u32 = 16;

/// Books the admission of a connection accepted at `now`: returns how
/// long it waits and moves `next`, the schedule's next deadline, one
/// interval on. A token bucket in deadline form — `now - next` is the
/// unused credit, capped at [`ADMIT_BURST`] intervals: while `next` is
/// in the past connections are admitted at once, each using up one
/// interval of credit; once it is in the future each waits for its
/// slot. Deadlines advance from the schedule, not from when the
/// acceptor woke, so lateness is made up instead of accumulating.
fn book_admission(next: &mut Instant, now: Instant) -> Duration {
    let wait = next.saturating_duration_since(now);
    let full = now.checked_sub(ADMIT_INTERVAL * ADMIT_BURST).unwrap_or(now);
    *next = (*next).max(full) + ADMIT_INTERVAL;
    wait
}

/// Starts the drain, from `POST /shutdown` and [`ServerHandle::shutdown`]
/// alike: raise the flag, wake parked workers, and wake the acceptor out
/// of its blocking `accept()` with one throw-away connection. Idempotent
/// — once the listener is gone the connect fails and is ignored. Must be
/// called with no guard live (it blocks on the network).
fn begin_drain(state: &State) {
    state.draining.store(true, Ordering::Release);
    state.queue_cv.notify_all();
    let _ = TcpStream::connect_timeout(&wake_addr(state.addr), Duration::from_secs(1));
}

/// Everything the server knows after draining, for tests and the
/// binary's exit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that finished with a result.
    pub done: usize,
    /// Jobs cancelled (before or during their run).
    pub cancelled: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Cache hits / misses over the server's lifetime.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

/// A running daemon: bound address plus the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon drains — which happens when some client
    /// sends `POST /shutdown`. Returns the drain tally.
    pub fn wait(self) -> DrainReport {
        let state = Arc::clone(&self.state);
        for t in self.threads {
            let _ = t.join();
        }
        Self::tally(&state)
    }

    /// Initiates a graceful drain (idempotent with an HTTP shutdown)
    /// and blocks until every queued and in-flight job completed and
    /// all threads joined.
    pub fn shutdown(self) -> DrainReport {
        begin_drain(&self.state);
        self.wait()
    }

    fn tally(state: &State) -> DrainReport {
        let jobs = lock(&state.jobs);
        let count = |s: JobState| jobs.iter().filter(|j| j.state == s).count();
        DrainReport {
            done: count(JobState::Done),
            cancelled: count(JobState::Cancelled),
            failed: count(JobState::Failed),
            cache_hits: state.cache_hits.load(Ordering::Relaxed),
            cache_misses: state.cache_misses.load(Ordering::Relaxed),
        }
    }
}

/// The daemon. [`Server::start`] binds, spawns the acceptor and the
/// worker pool, and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving.
    ///
    /// # Errors
    ///
    /// A human-readable message when the address cannot be bound.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let workers = config.workers;
        let state = Arc::new(State::new(config, addr));
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || worker_loop(&state)));
        }
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || acceptor_loop(&listener, &state)));
        }
        Ok(ServerHandle { addr, state, threads })
    }
}

/// Accepts connections until draining, then waits for in-flight
/// connection handlers to finish. `accept()` blocks; `begin_drain`
/// wakes it with a throw-away connection, and the flag is re-checked
/// after every return so that connection (or any client racing it) is
/// dropped instead of served. Admission is paced (`book_admission`).
fn acceptor_loop(listener: &TcpListener, state: &Arc<State>) {
    let mut next_admission = Instant::now();
    while !state.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.draining.load(Ordering::Acquire) {
                    break;
                }
                let wait = book_admission(&mut next_admission, Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                state.active_conns.fetch_add(1, Ordering::AcqRel);
                let state = Arc::clone(state);
                std::thread::spawn(move || {
                    handle_conn(&state, &stream);
                    state.active_conns.fetch_sub(1, Ordering::AcqRel);
                });
            }
            // a failed accept (descriptor exhaustion, an aborted
            // handshake) must not spin the acceptor
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // drain: let in-flight request handlers write their responses
    while state.active_conns.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    // wake any worker still parked on the queue condvar
    state.queue_cv.notify_all();
}

/// One worker: owns a warm [`WorkerPool`] for its whole life, drains
/// the queue, and exits only when the queue is empty *and* the daemon
/// is draining — so accepted jobs always complete.
fn worker_loop(state: &Arc<State>) {
    let mut pool = WorkerPool::new();
    loop {
        let id = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(id) = q.pop_front() {
                    break id;
                }
                if state.draining.load(Ordering::Acquire) {
                    return;
                }
                q = state
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        run_job(state, id, &mut pool);
    }
}

/// Routes one dequeued job to completion (or skips it if it was
/// cancelled while queued). Panics inside the router are contained:
/// the job fails, the worker and its warm pool survive.
fn run_job(state: &Arc<State>, id: usize, pool: &mut WorkerPool) {
    let (input, ctrl, key) = {
        let mut jobs = lock(&state.jobs);
        let job = &mut jobs[id];
        if job.state != JobState::Queued {
            // cancelled while waiting — nothing to route
            return;
        }
        job.state = JobState::Running;
        // a queued job always carries its document; if that invariant
        // ever breaks, fail the one job with a mapped 500 instead of
        // panicking the worker (`cds-lint` rule no-panic-in-serve)
        let Some(input) = job.input.take() else {
            job.state = JobState::Failed;
            job.error = Some("internal: queued job lost its document".into());
            return;
        };
        (input, Arc::clone(&job.ctrl), job.key)
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let JobInput { doc, config } = *input;
        let chip = doc.build_chip();
        let router = Router::new(&chip, config.clone());
        let state_for_progress = Arc::clone(state);
        let outcome = router.run_checkpointed(
            pool,
            &ctrl,
            &mut |iter, stats| {
                let mut jobs = lock(&state_for_progress.jobs);
                jobs[id].progress.push(IterProgress {
                    iter,
                    rerouted: stats.rerouted_per_iter.last().copied().unwrap_or(0),
                    wall_s: stats.iter_wall_s.last().copied().unwrap_or(0.0),
                });
            },
            None,
            &mut |_, _| {},
        );
        let json = outcome_json(&chip, &config, &outcome);
        (json, outcome.checksum(), outcome.stats.cancelled)
    }));
    match outcome {
        Ok((json, checksum, cancelled)) => {
            let entry = ResultEntry { json, checksum };
            if !cancelled {
                // only complete runs are cacheable: a partial result is
                // not what a fresh route of the same submission returns
                lock(&state.cache).insert(key, entry.clone());
            }
            let mut jobs = lock(&state.jobs);
            let job = &mut jobs[id];
            job.state = if cancelled { JobState::Cancelled } else { JobState::Done };
            job.result = Some(entry);
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            let mut jobs = lock(&state.jobs);
            let job = &mut jobs[id];
            job.state = JobState::Failed;
            job.error = Some(msg);
        }
    }
}

/// Reads one request off the connection, dispatches it, writes the
/// response. One request per connection (`Connection: close`).
fn handle_conn(state: &Arc<State>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // `&TcpStream` is both `Read` and `Write`: one descriptor serves
    // the buffered request read and the single response write
    let mut reader = BufReader::new(stream);
    let mut out = stream;
    match http::parse_request(&mut reader, state.config.max_body) {
        Ok(req) => {
            let resp = dispatch(state, &req);
            let _ = http::write_response(
                &mut out,
                resp.status,
                "application/json",
                resp.body.as_bytes(),
                &resp.headers(),
            );
        }
        Err(e) => {
            let body = error_body(&e.to_string());
            let _ = http::write_response(
                &mut out,
                e.status(),
                "application/json",
                body.as_bytes(),
                &[],
            );
        }
    }
}

/// Internal response value: status, JSON body, optional extra headers.
struct Reply {
    status: u16,
    body: String,
    cached: Option<bool>,
    job_state: Option<&'static str>,
}

impl Reply {
    fn new(status: u16, body: String) -> Self {
        Reply { status, body, cached: None, job_state: None }
    }

    fn headers(&self) -> Vec<(&'static str, &'static str)> {
        let mut h = Vec::new();
        if let Some(c) = self.cached {
            h.push(("X-Cds-Cached", if c { "true" } else { "false" }));
        }
        if let Some(s) = self.job_state {
            h.push(("X-Cds-Job-State", s));
        }
        h
    }
}

fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}", json_escape(msg))
}

/// Routes a parsed request to its handler.
fn dispatch(state: &Arc<State>, req: &Request) -> Reply {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => submit(state, req),
        ("GET", ["jobs", id]) => with_job_id(id, |id| status(state, id)),
        ("GET", ["jobs", id, "result"]) => with_job_id(id, |id| result(state, id)),
        ("DELETE", ["jobs", id]) => with_job_id(id, |id| cancel(state, id)),
        ("POST", ["shutdown"]) => shutdown(state),
        ("GET", ["healthz"]) => healthz(state),
        (_, ["jobs"]) | (_, ["jobs", ..]) | (_, ["shutdown"]) | (_, ["healthz"]) => {
            Reply::new(405, error_body("method not allowed"))
        }
        _ => Reply::new(404, error_body(&format!("no such endpoint {}", req.path))),
    }
}

fn with_job_id(raw: &str, f: impl FnOnce(usize) -> Reply) -> Reply {
    match raw.parse::<usize>() {
        Ok(id) => f(id),
        Err(_) => Reply::new(404, error_body(&format!("bad job id {raw}"))),
    }
}

/// Records an already-`done` job served from the archived `entry` and
/// builds its `200 … "cached": true` reply.
fn cached_job(state: &State, resolved: Resolved, entry: ResultEntry) -> Reply {
    state.cache_hits.fetch_add(1, Ordering::Relaxed);
    let mut jobs = lock(&state.jobs);
    let id = jobs.len();
    jobs.push(Job {
        state: JobState::Done,
        cached: true,
        cancel_requested: false,
        key: resolved.key,
        ctrl: Arc::new(RunControl::new()),
        input: None,
        total_iterations: resolved.total_iterations,
        progress: Vec::new(),
        result: Some(entry),
        error: None,
    });
    let mut r =
        Reply::new(200, format!("{{\"job\": {id}, \"state\": \"done\", \"cached\": true}}"));
    r.cached = Some(true);
    r
}

/// `POST /jobs`: raw memo → parse → resolve config → canonicalize →
/// cache lookup → coalesce → enqueue (or reject with backpressure).
fn submit(state: &Arc<State>, req: &Request) -> Reply {
    if state.draining.load(Ordering::Acquire) {
        return Reply::new(503, error_body("shutting down"));
    }
    // a byte-identical resubmission of a cached result is answered
    // without parsing; everything else falls through (module docs)
    let raw_key = raw_submission_key(req);
    let memo = lock(&state.raw_memo).get(&raw_key).copied();
    if let Some(resolved) = memo {
        let cached = lock(&state.cache).get(&resolved.key).cloned();
        if let Some(entry) = cached {
            state.parse_skipped.fetch_add(1, Ordering::Relaxed);
            return cached_job(state, resolved, entry);
        }
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Reply::new(400, error_body("document body is not UTF-8")),
    };
    // the parse error's Display carries the 1-based line number; the
    // structured `line` field repeats it for programmatic clients
    let doc = match parse_chip_doc(text) {
        Ok(d) => d,
        Err(e) => {
            return Reply::new(
                400,
                format!("{{\"error\": \"{}\", \"line\": {}}}", json_escape(&e.to_string()), e.line),
            )
        }
    };
    let mut config = RouterConfig::default();
    for (k, v) in &doc.config {
        if let Err(e) = config.set_knob(k, v) {
            return Reply::new(400, error_body(&format!("document config record: {e}")));
        }
    }
    for (k, v) in &req.query {
        if let Err(e) = config.set_knob(k, v) {
            return Reply::new(400, error_body(&format!("query override {k}: {e}")));
        }
    }
    // canonical bytes: the round-trip-total writer normalizes away
    // comments/blank lines, so every spelling of the same document
    // shares one cache key
    let canonical = match chip_doc_to_string(&doc) {
        Ok(c) => c,
        Err(e) => return Reply::new(400, error_body(&e.to_string())),
    };
    let fingerprint = config_fingerprint(&config);
    let key = fnv1a_parts(&[canonical.as_bytes(), fingerprint.as_bytes()]);
    let resolved = Resolved { key, total_iterations: config.iterations };
    if memo.is_none() {
        lock(&state.raw_memo).insert(raw_key, resolved);
    }

    let cached = lock(&state.cache).get(&key).cloned();
    if let Some(entry) = cached {
        return cached_job(state, resolved, entry);
    }
    let mut jobs = lock(&state.jobs);
    // in-flight coalescing: the same key already queued or running
    // attaches this client to that job instead of routing twice. A
    // cancel-requested job is excluded — its result (none, or partial)
    // is not what a fresh submission asks for.
    if let Some(open) = jobs.iter().position(|j| {
        j.key == key
            && !j.cancel_requested
            && matches!(j.state, JobState::Queued | JobState::Running)
    }) {
        state.coalesced.fetch_add(1, Ordering::Relaxed);
        let st = jobs[open].state.as_str();
        let mut r = Reply::new(
            200,
            format!(
                "{{\"job\": {open}, \"state\": \"{st}\", \"cached\": false, \
                 \"coalesced\": true}}"
            ),
        );
        r.cached = Some(false);
        r.job_state = Some(st);
        return r;
    }
    let mut queue = lock(&state.queue);
    if queue.len() >= state.config.queue_cap {
        return Reply::new(
            503,
            format!(
                "{{\"error\": \"queue full\", \"queued\": {}, \"capacity\": {}}}",
                queue.len(),
                state.config.queue_cap
            ),
        );
    }
    // counted only once the job exists: a 503 is not a cache miss
    state.cache_misses.fetch_add(1, Ordering::Relaxed);
    let id = jobs.len();
    jobs.push(Job {
        state: JobState::Queued,
        cached: false,
        cancel_requested: false,
        key,
        ctrl: Arc::new(RunControl::new()),
        input: Some(Box::new(JobInput { doc, config })),
        total_iterations: resolved.total_iterations,
        progress: Vec::new(),
        result: None,
        error: None,
    });
    queue.push_back(id);
    state.queue_cv.notify_one();
    let mut r =
        Reply::new(201, format!("{{\"job\": {id}, \"state\": \"queued\", \"cached\": false}}"));
    r.cached = Some(false);
    r
}

/// `GET /jobs/:id`: state plus per-iteration progress so far.
fn status(state: &Arc<State>, id: usize) -> Reply {
    let jobs = lock(&state.jobs);
    let Some(job) = jobs.get(id) else {
        return Reply::new(404, error_body(&format!("unknown job {id}")));
    };
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"job\": {id}, \"state\": \"{}\", \"cached\": {}, \"cancel_requested\": {}, \
         \"iterations_done\": {}, \"total_iterations\": {}, \"progress\": [",
        job.state.as_str(),
        job.cached,
        job.cancel_requested,
        job.progress.len(),
        job.total_iterations
    );
    for (i, p) in job.progress.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{{\"iter\": {}, \"rerouted\": {}, \"wall_s\": {}}}",
            p.iter,
            p.rerouted,
            json_f64(p.wall_s)
        );
    }
    body.push(']');
    if let Some(res) = &job.result {
        let _ = write!(body, ", \"checksum\": \"{:#018x}\"", res.checksum);
    }
    if let Some(err) = &job.error {
        let _ = write!(body, ", \"error\": \"{}\"", json_escape(err));
    }
    body.push('}');
    let mut r = Reply::new(200, body);
    r.job_state = Some(job.state.as_str());
    r.cached = Some(job.cached);
    r
}

/// `GET /jobs/:id/result`: the archived result JSON, exactly what
/// `cds-cli route` would print (and byte-identical to it for every
/// deterministic field).
fn result(state: &Arc<State>, id: usize) -> Reply {
    let jobs = lock(&state.jobs);
    let Some(job) = jobs.get(id) else {
        return Reply::new(404, error_body(&format!("unknown job {id}")));
    };
    match (&job.result, job.state) {
        (Some(res), _) => {
            let mut r = Reply::new(200, res.json.clone());
            r.cached = Some(job.cached);
            r.job_state = Some(job.state.as_str());
            r
        }
        (None, JobState::Failed) => {
            Reply::new(500, error_body(job.error.as_deref().unwrap_or("job failed")))
        }
        (None, JobState::Cancelled) => {
            Reply::new(409, error_body("job was cancelled before it ran"))
        }
        (None, _) => Reply::new(
            409,
            format!("{{\"error\": \"job not finished\", \"state\": \"{}\"}}", job.state.as_str()),
        ),
    }
}

/// `DELETE /jobs/:id`: cooperative cancel; idempotent on repeats and
/// on finished jobs.
fn cancel(state: &Arc<State>, id: usize) -> Reply {
    let mut jobs = lock(&state.jobs);
    let Some(job) = jobs.get_mut(id) else {
        return Reply::new(404, error_body(&format!("unknown job {id}")));
    };
    job.cancel_requested = true;
    match job.state {
        JobState::Queued => {
            // the worker's dequeue skips non-queued jobs
            job.state = JobState::Cancelled;
        }
        JobState::Running => job.ctrl.cancel(),
        // done/cancelled/failed: nothing to stop — idempotent
        _ => {}
    }
    let body = format!(
        "{{\"job\": {id}, \"state\": \"{}\", \"cancel_requested\": true}}",
        job.state.as_str()
    );
    let mut r = Reply::new(200, body);
    r.job_state = Some(job.state.as_str());
    r
}

/// `POST /shutdown`: graceful drain (see module docs).
fn shutdown(state: &Arc<State>) -> Reply {
    begin_drain(state);
    Reply::new(200, "{\"draining\": true}".into())
}

/// `GET /healthz`: liveness plus queue/cache counters.
fn healthz(state: &Arc<State>) -> Reply {
    let queued = lock(&state.queue).len();
    let jobs = lock(&state.jobs).len();
    let cache_entries = lock(&state.cache).len();
    Reply::new(
        200,
        format!(
            "{{\"ok\": true, \"draining\": {}, \"workers\": {}, \"jobs\": {jobs}, \
             \"queued\": {queued}, \"queue_capacity\": {}, \"cache_entries\": {cache_entries}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"coalesced\": {}, \
             \"parse_skipped\": {}}}",
            state.draining.load(Ordering::Acquire),
            state.config.workers,
            state.config.queue_cap,
            state.cache_hits.load(Ordering::Relaxed),
            state.cache_misses.load(Ordering::Relaxed),
            state.coalesced.load(Ordering::Relaxed),
            state.parse_skipped.load(Ordering::Relaxed)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_instgen::ChipSpec;

    fn test_state() -> Arc<State> {
        // port 1 on loopback: nothing listens there, and no test here
        // drains, so the address is never connected to
        Arc::new(State::new(ServeConfig::default(), SocketAddr::from(([127, 0, 0, 1], 1))))
    }

    fn docless_queued_job() -> Job {
        Job {
            state: JobState::Queued,
            cached: false,
            cancel_requested: false,
            key: 0,
            ctrl: Arc::new(RunControl::new()),
            input: None, // the broken-invariant input run_job must survive
            total_iterations: 1,
            progress: Vec::new(),
            result: None,
            error: None,
        }
    }

    /// Regression for the `run_job` doc-take site: before the lint
    /// hardening this was `.expect(…)` and a docless queued job killed
    /// the worker thread; now it fails the one job with a mapped error.
    #[test]
    fn docless_queued_job_fails_without_panicking_the_worker() {
        let state = test_state();
        lock(&state.jobs).push(docless_queued_job());
        let mut pool = WorkerPool::new();
        run_job(&state, 0, &mut pool); // must not panic
        {
            let jobs = lock(&state.jobs);
            assert_eq!(jobs[0].state, JobState::Failed);
            assert_eq!(jobs[0].error.as_deref(), Some("internal: queued job lost its document"));
        }
        // the failure surfaces as a mapped 500, not a dead connection
        let reply = result(&state, 0);
        assert_eq!(reply.status, 500);
        assert!(reply.body.contains("queued job lost its document"));
        // and the status endpoint still reports the job
        let reply = status(&state, 0);
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"state\": \"failed\""));
    }

    fn post_jobs(body: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/jobs".into(),
            query: query.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The coalescing contract end to end at the handler level: N
    /// identical submissions while the first is still queued create
    /// exactly one job, one queue entry, and one route — and every
    /// attached client reads the same result bytes off that one job.
    #[test]
    fn duplicate_inflight_submissions_coalesce_onto_one_route() {
        let state = test_state();
        let spec = ChipSpec { num_nets: 8, ..ChipSpec::small_test(2) };
        let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
        let q = [("iterations", "2")];
        let first = submit(&state, &post_jobs(&doc, &q));
        assert_eq!(first.status, 201, "{}", first.body);
        for _ in 0..3 {
            let dup = submit(&state, &post_jobs(&doc, &q));
            assert_eq!(dup.status, 200, "{}", dup.body);
            assert!(dup.body.contains("\"job\": 0"), "attach to job 0: {}", dup.body);
            assert!(dup.body.contains("\"coalesced\": true"), "{}", dup.body);
        }
        assert_eq!(lock(&state.jobs).len(), 1, "duplicates must not create jobs");
        assert_eq!(lock(&state.queue).len(), 1, "duplicates must not enqueue");
        // a different resolved config is not a duplicate
        let other = submit(&state, &post_jobs(&doc, &[("iterations", "3")]));
        assert_eq!(other.status, 201, "{}", other.body);
        // drain job 0 the way a worker would: one route, then every
        // attached client's result read returns identical bytes
        let id = lock(&state.queue).pop_front().unwrap();
        let mut pool = WorkerPool::new();
        run_job(&state, id, &mut pool);
        assert_eq!(lock(&state.jobs)[0].state, JobState::Done);
        let bodies: Vec<String> = (0..4).map(|_| result(&state, 0).body.clone()).collect();
        assert!(bodies.iter().all(|b| *b == bodies[0]), "responses diverged");
        assert_eq!(state.coalesced.load(Ordering::Relaxed), 3);
        // the three attached clients never counted as cache traffic
        assert_eq!(state.cache_misses.load(Ordering::Relaxed), 2);
        // once the job is done the cache takes over from coalescing
        let after = submit(&state, &post_jobs(&doc, &q));
        assert_eq!(after.status, 200);
        assert!(after.body.contains("\"cached\": true"), "{}", after.body);
    }
    #[test]
    fn raw_submission_key_is_length_framed_over_body_and_query() {
        let key = |body: &str, q: &[(&str, &str)]| raw_submission_key(&post_jobs(body, q));
        // moving a byte across the body/query boundary changes the key
        assert_ne!(key("ab", &[("c", "")]), key("a", &[("bc", "")]));
        // so does moving one across the key/value boundary
        assert_ne!(key("x", &[("ab", "c")]), key("x", &[("a", "bc")]));
        // one pair is not two bare keys
        assert_ne!(key("x", &[("a", "b")]), key("x", &[("a", ""), ("b", "")]));
        assert_ne!(key("x", &[]), key("x", &[("", "")]));
        assert_eq!(key("x", &[("a", "b")]), key("x", &[("a", "b")]));
    }

    /// The bucket in numbers: a full one admits `ADMIT_BURST`
    /// connections at once, then one per interval on deadlines that do
    /// not drift with how late the acceptor looked; lateness is made
    /// up, and idle time beyond the cap is not banked.
    #[test]
    fn admission_bucket_bursts_then_paces_on_absolute_deadlines() {
        let us = Duration::from_micros;
        // the acceptor's start: an empty bucket, first deadline now
        let t0 = Instant::now();
        let mut next = t0;
        assert_eq!(book_admission(&mut next, t0), Duration::ZERO);
        // arrivals at different points of their predecessor's slot
        // land exactly on t0 + k intervals
        for (k, seen_after) in [(1u32, us(10)), (2, us(390)), (3, us(150))] {
            let now = t0 + ADMIT_INTERVAL * (k - 1) + seen_after;
            let wait = book_admission(&mut next, now);
            assert_eq!(now + wait, t0 + ADMIT_INTERVAL * k, "slot {k}");
        }
        // three intervals late (a stall): the three lost slots and the
        // one now due are served back to back, then the old deadlines
        // resume
        let stalled = t0 + ADMIT_INTERVAL * 7;
        for _ in 0..4 {
            assert_eq!(book_admission(&mut next, stalled), Duration::ZERO);
        }
        assert_eq!(book_admission(&mut next, stalled), ADMIT_INTERVAL);
        assert_eq!(next, t0 + ADMIT_INTERVAL * 9);
        // a long silence fills the bucket to its cap, not beyond
        let later = next + Duration::from_secs(1);
        for n in 0..=ADMIT_BURST {
            assert_eq!(book_admission(&mut next, later), Duration::ZERO, "burst admission {n}");
        }
        assert_eq!(book_admission(&mut next, later), ADMIT_INTERVAL);
    }

    #[test]
    fn wake_address_is_connectable_for_unspecified_binds() {
        let a = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(a("0.0.0.0:7171")), a("127.0.0.1:7171"));
        assert_eq!(wake_addr(a("[::]:7171")), a("[::1]:7171"));
        assert_eq!(wake_addr(a("127.0.0.1:9")), a("127.0.0.1:9"));
        assert_eq!(wake_addr(a("192.0.2.7:80")), a("192.0.2.7:80"));
    }

    /// The memo only ever shortcuts to a cache entry that exists: a
    /// memoised key whose job was cancelled — while queued (no result)
    /// or mid-run (partial result, never cached) — routes again.
    #[test]
    fn resubmitting_a_cancelled_key_routes_again_despite_the_memo() {
        let state = test_state();
        let spec = ChipSpec { num_nets: 8, ..ChipSpec::small_test(3) };
        let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
        let req = post_jobs(&doc, &[("iterations", "2")]);
        assert_eq!(submit(&state, &req).status, 201);
        assert_eq!(lock(&state.raw_memo).len(), 1, "a parsed submission is memoised");
        // cancelled while queued: no result, not coalescable
        assert_eq!(cancel(&state, 0).status, 200);
        let again = submit(&state, &req);
        assert_eq!(again.status, 201, "{}", again.body);
        assert!(again.body.contains("\"job\": 1"), "{}", again.body);
        // cancelled mid-run: the partial outcome stays on the job only
        let mut pool = WorkerPool::new();
        lock(&state.jobs)[1].ctrl.cancel();
        run_job(&state, 1, &mut pool);
        assert_eq!(lock(&state.jobs)[1].state, JobState::Cancelled);
        assert!(lock(&state.cache).is_empty(), "partial results are never cached");
        let third = submit(&state, &req);
        assert_eq!(third.status, 201, "{}", third.body);
        run_job(&state, 2, &mut pool);
        assert_eq!(lock(&state.jobs)[2].state, JobState::Done);
        // only now does the memo have a cache entry to shortcut to
        assert_eq!(state.parse_skipped.load(Ordering::Relaxed), 0);
        let hit = submit(&state, &req);
        assert!(hit.body.contains("\"cached\": true"), "{}", hit.body);
        assert_eq!(state.parse_skipped.load(Ordering::Relaxed), 1);
        assert_eq!(lock(&state.raw_memo).len(), 1);
        assert_eq!(
            (state.cache_hits.load(Ordering::Relaxed), state.cache_misses.load(Ordering::Relaxed)),
            (1, 3)
        );
    }
}
