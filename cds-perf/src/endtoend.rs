//! The untraced run: end-to-end metrics from the shipped binaries.
//!
//! One run of one workload sets up (generate the seed's chips, write
//! their documents, start the daemon — several times, the fastest is
//! `setup_s`) and then measures in **rounds** until `--seconds` is
//! spent. A round measures everything once:
//!
//! 1. one `cds-cli route` child per document (spawn → exit, peak RSS);
//! 2. a closed loop of two clients submitting the round's *cold* keys
//!    (fresh router seeds, so fresh cache keys) to `cds-serve --workers 1`;
//! 3. the same clients resubmitting those keys as cache *hits*.
//!
//! After the rounds, both clients submit a few fresh keys at once
//! (*coalesce* phase). Every op is checked; see [`Gate`].
//!
//! **Estimator.** Every timing metric is computed per round and the run
//! reports its *least disturbed* round (the smallest time, the largest
//! rate). Contention on a shared box only ever adds time, and here it
//! arrives in stretches of seconds that shift a whole run's median by
//! 10–25 %; the best round estimates the undisturbed cost, which is
//! what a regression bound should compare (see README, "Noise").

use crate::json::Json;
use crate::procs::{knob_query, route_child, run_job, Bins, Daemon, JobOutcome, RouteRun};
use crate::registry::{key_seed, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use cds_instgen::io::doc::{chip_doc_to_string, ChipDoc};
use cds_instgen::ChipSpec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How often one run repeats its set-up (one costs ~5 ms plus ~10 ms to
/// shut the previous daemon down, so this stays under half a second).
const SETUPS: usize = 25;
/// Fewest rounds an untraced run measures however slow the machine is.
pub const MIN_ROUNDS: usize = 3;
/// Cache hits per cold key of a round, and the fewest hits per round.
const HITS_PER_KEY: usize = 8;
const MIN_HITS: usize = 48;

/// Op accounting and the correctness gate of one run. An *op* is one
/// route child, one daemon job, or one cross-op check; a failed op is
/// counted, described, and fails the run.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

impl Gate {
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// A cross-op check (checksum equalities, daemon counters), counted
    /// as one more op so `failed` never exceeds `attempted`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(what, if ok { Ok(()) } else { Err("violated".into()) });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The seed's generated inputs, as the routed programs see them: files.
#[derive(Debug)]
pub struct Inputs {
    pub specs: Vec<ChipSpec>,
    pub texts: Vec<String>,
    pub paths: Vec<PathBuf>,
}

/// Generates the seed's chips and writes their `cdst/1` documents.
///
/// # Errors
///
/// Document serialization or file-system failures.
pub fn write_inputs(bins: &Bins, w: &Workload, seed: u64) -> Result<Inputs, String> {
    let dir = bins.work.join(format!("{}-{seed}", w.name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut inputs = Inputs { specs: w.family(seed), texts: Vec::new(), paths: Vec::new() };
    for spec in &inputs.specs {
        let doc = ChipDoc::from_chip(&spec.generate()).map_err(|e| e.to_string())?;
        let text = chip_doc_to_string(&doc).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}.cdst", spec.name));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.texts.push(text);
        inputs.paths.push(path);
    }
    Ok(inputs)
}

/// Sets up [`SETUPS`] times; returns the last set-up's inputs and
/// daemon plus every set-up's duration in seconds.
///
/// # Errors
///
/// See [`write_inputs`] and [`Daemon::spawn`].
pub fn set_up(bins: &Bins, w: &Workload, seed: u64) -> Result<(Inputs, Daemon, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    loop {
        let start = Instant::now();
        let inputs = write_inputs(bins, w, seed)?;
        let daemon = Daemon::spawn(bins)?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((inputs, daemon, times));
        }
        daemon.shutdown()?;
    }
}

/// The workload's knobs with the router seed of serve key `index`.
pub fn knobs(w: &Workload, seed: u64, index: usize) -> Vec<(String, String)> {
    let mut k: Vec<(String, String)> =
        w.knobs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    k.push(("seed".into(), key_seed(seed, index).to_string()));
    k
}

/// Smallest of a non-empty sample — the least disturbed round.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Everything the rounds of one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per round: the summed wall of one route child per document.
    pub route_wall_s: Vec<f64>,
    /// Per document: every round's child.
    pub runs: Vec<Vec<RouteRun>>,
    /// The single-thread reference child of a multi-thread workload.
    pub reference: Option<RouteRun>,
    /// Per round: median cold latency, median hit latency, hit rate.
    pub cold_p50_ms: Vec<f64>,
    pub hit_p50_ms: Vec<f64>,
    pub jobs_per_s: Vec<f64>,
    pub cold: Vec<JobOutcome>,
    pub hit: Vec<JobOutcome>,
    pub coalesce: Vec<JobOutcome>,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub coalesced: f64,
    /// Submissions the daemon refused with 503 (queue full).
    pub rejected: usize,
    pub daemon_rss_mb: f64,
}

impl Measured {
    /// The first round's report of document `d` (deterministic fields
    /// are identical in every round — the gate checked).
    pub fn first(&self, d: usize) -> &RouteRun {
        &self.runs[d][0]
    }

    /// One value per document, read off the first round's reports.
    pub fn report(&self, path: &[&str]) -> Vec<f64> {
        (0..self.runs.len())
            .filter_map(|d| self.first(d).report.at(path).and_then(Json::num))
            .collect()
    }

    pub fn report_sum(&self, path: &[&str]) -> f64 {
        self.report(path).iter().sum()
    }

    /// Largest per-document median of the children's peak RSS.
    pub fn peak_rss_mb(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| median(&r.iter().map(|x| x.rss_mb).collect::<Vec<_>>()))
            .fold(0.0, f64::max)
    }

    /// The exact integer counters of the route reports, summed over the
    /// workload's documents — the only numbers a later change may claim
    /// as a *count*.
    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        const COUNTERS: &[(&str, &[&str])] = &[
            ("router.oracle_calls", &["totals", "oracle_calls"]),
            ("router.dirty_overflow", &["stats", "dirty", "overflow"]),
            ("router.dirty_timing", &["stats", "dirty", "timing"]),
            ("router.dirty_price", &["stats", "dirty", "price"]),
            ("router.dirty_budget", &["stats", "dirty", "budget"]),
            ("router.kernel_settled", &["stats", "kernel", "settled"]),
            ("router.kernel_pushed", &["stats", "kernel", "pushed"]),
            ("router.kernel_decreased", &["stats", "kernel", "decreased"]),
            ("router.kernel_bucket_scans", &["stats", "kernel", "bucket_scans"]),
            ("sta.nodes_retimed", &["stats", "sta_nodes_retimed"]),
            ("metrics.vias", &["metrics", "vias"]),
        ];
        COUNTERS.iter().map(|(name, path)| (*name, self.report_sum(path))).collect()
    }
}

/// One client request: the index the loop handed out, and the client's
/// span recorder when tracing.
type JobFn<'a> = dyn Fn(usize, Option<&mut Tracer>) -> Result<JobOutcome, String> + Sync + 'a;

/// Both clients pull indices `0..count` from a shared counter and run
/// one job each (a closed loop: a client's next request waits for its
/// previous one). Returns every job's outcome and the loop's wall time.
fn closed_loop(
    count: usize,
    job: &JobFn<'_>,
    tracer: Option<&mut Tracer>,
) -> (Vec<Result<JobOutcome, String>>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let client = || {
        let mut local = epoch.map(Tracer::new);
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                return local;
            }
            let outcome = job(index, local.as_mut());
            out.lock().expect("a client panicked holding the results").push(outcome);
        }
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(client);
        let mine = client();
        (mine, other.join().expect("client thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        for local in [a, b].into_iter().flatten() {
            t.absorb(local);
        }
    }
    (out.into_inner().expect("clients are done"), wall_s)
}

/// Measures rounds until `budget` is spent (at least `min_rounds`),
/// then the reference child of a multi-thread workload and the coalesce
/// phase. Serve key `i` is document `i mod docs` under router seed
/// `key_seed(seed, i)`; the route child of document `d` runs under key
/// `d`'s config, so the daemon's job for that key must reproduce the
/// child's checksum.
///
/// # Errors
///
/// A route child that fails outright (its op is in `gate` too).
#[allow(clippy::too_many_arguments)]
pub fn measure(
    bins: &Bins,
    daemon: &Daemon,
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Duration,
    min_rounds: usize,
    gate: &mut Gate,
    mut tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let docs = inputs.paths.len();
    let iterations = w.iterations();
    let cold_per_round = w.cold_keys;
    let hits_per_round = (HITS_PER_KEY * cold_per_round).max(MIN_HITS);
    let mut m = Measured { runs: vec![Vec::new(); docs], ..Measured::default() };
    let submit = |key: usize, t: Option<&mut Tracer>| {
        let query = knob_query(&knobs(w, seed, key));
        run_job(&daemon.addr, &inputs.texts[key % docs], &query, key, t)
    };
    let mut rejected = 0;
    let mut keep = |gate: &mut Gate, phase: &str, jobs: Vec<Result<JobOutcome, String>>| {
        let mut done = Vec::new();
        for j in jobs {
            match j {
                Ok(j) => {
                    let state =
                        if j.state == "done" { Ok(()) } else { Err(format!("state {}", j.state)) };
                    gate.op(&format!("{phase} job"), state);
                    done.push(j);
                }
                Err(e) => {
                    rejected += usize::from(e.contains("HTTP 503"));
                    gate.op(&format!("{phase} job"), Err(e));
                }
            }
        }
        done
    };
    let latencies = |jobs: &[JobOutcome]| jobs.iter().map(|j| j.latency_ms).collect::<Vec<_>>();

    let start = Instant::now();
    let (mut rounds, mut last_round) = (0, Duration::ZERO);
    // a round that would end far beyond the budget is not started
    while rounds < min_rounds || start.elapsed() + last_round / 2 < budget {
        let round_start = Instant::now();
        let mut wall = 0.0;
        for (d, path) in inputs.paths.iter().enumerate() {
            let run = route_child(bins, path, &knobs(w, seed, d)).inspect_err(|e| {
                gate.op(&format!("route {}", w.name), Err(e.clone()));
            })?;
            let same = match m.runs[d].first() {
                Some(first) if first.checksum() != run.checksum() => {
                    Err("checksum differs between repetitions".to_string())
                }
                _ => Ok(()),
            };
            gate.op(&format!("route {}", w.name), run.check_complete(iterations).and(same));
            wall += run.wall_s;
            m.runs[d].push(run);
        }
        m.route_wall_s.push(wall);

        let first_key = rounds * cold_per_round;
        let (cold, _) =
            closed_loop(cold_per_round, &|i, t| submit(first_key + i, t), tracer.as_deref_mut());
        let cold = keep(gate, "cold", cold);
        let (hit, hit_wall_s) = closed_loop(
            hits_per_round,
            &|n, t| submit(first_key + n % cold_per_round, t),
            tracer.as_deref_mut(),
        );
        let hit = keep(gate, "hit", hit);
        if !cold.is_empty() && !hit.is_empty() {
            m.cold_p50_ms.push(median(&latencies(&cold)));
            m.hit_p50_ms.push(median(&latencies(&hit)));
            m.jobs_per_s.push(hit.len() as f64 / hit_wall_s);
        }
        m.cold.extend(cold);
        m.hit.extend(hit);
        rounds += 1;
        last_round = round_start.elapsed();
    }

    if w.threads() > 1 {
        // the parallel path must reproduce the single-thread checksum
        let mut single: Vec<(String, String)> = knobs(w, seed, 0)
            .into_iter()
            .filter(|(k, _)| k != "threads" && k != "shards")
            .collect();
        single.push(("threads".into(), "1".into()));
        match route_child(bins, &inputs.paths[0], &single) {
            Ok(run) => {
                let same = if run.checksum() == m.first(0).checksum() {
                    Ok(())
                } else {
                    Err(format!("threads={} does not reproduce threads=1", w.threads()))
                };
                gate.op("route reference", run.check_complete(iterations).and(same));
                m.reference = Some(run);
            }
            Err(e) => gate.op("route reference", Err(e)),
        }
    }

    // coalesce: both clients submit the same fresh key at once
    let first_fresh = rounds * cold_per_round;
    for c in 0..w.coalesce_keys {
        let barrier = Barrier::new(2);
        let both = |_: usize, t: Option<&mut Tracer>| {
            barrier.wait();
            submit(first_fresh + c, t)
        };
        // two indices, and a client blocks at the barrier until the
        // other arrives: each client submits exactly once
        let (pair, _) = closed_loop(2, &both, tracer.as_deref_mut());
        m.coalesce.extend(keep(gate, "coalesce", pair));
    }

    // every key returns one checksum however often it is submitted, and
    // the daemon's job for key d is the route child of document d
    let mut by_key: BTreeMap<usize, &str> = BTreeMap::new();
    for j in m.cold.iter().chain(&m.hit).chain(&m.coalesce) {
        let first = by_key.entry(j.key).or_insert(&j.checksum);
        gate.check(
            &format!("key {} returns one checksum on every submission", j.key),
            *first == j.checksum,
        );
    }
    for d in 0..docs {
        gate.check(
            &format!("the daemon job for key {d} reproduces the cds-cli checksum"),
            m.first(d).checksum().is_ok_and(|c| by_key.get(&d) == Some(&c)),
        );
    }
    gate.check("no cold job is served from the cache", m.cold.iter().all(|j| !j.cached));
    gate.check("every hit-phase job is served from the cache", m.hit.iter().all(|j| j.cached));

    match daemon.health() {
        Ok(h) => {
            let n = |k: &str| h.get(k).and_then(Json::num).unwrap_or(f64::NAN);
            m.cache_hits = n("cache_hits");
            m.cache_misses = n("cache_misses");
            m.coalesced = n("coalesced");
            // each coalesce key is one miss plus one coalesced-or-hit
            let fresh = w.coalesce_keys as f64;
            gate.check(
                "daemon cache_misses = cold keys + coalesce keys",
                m.cache_misses == m.cold.len() as f64 + fresh,
            );
            gate.check(
                "daemon coalesced + late hits = coalesce keys",
                m.coalesced + (m.cache_hits - m.hit.len() as f64) == fresh,
            );
        }
        Err(e) => gate.op("healthz", Err(e)),
    }
    m.daemon_rss_mb = daemon.rss_mb().unwrap_or(0.0);
    m.rejected = rejected;
    Ok(m)
}

/// One untraced run's end-to-end metrics, in registry order.
#[derive(Debug)]
pub struct EndToEndRun {
    pub metrics: Vec<(&'static str, f64)>,
    pub gate: Gate,
    /// Per document: checksum of the route child (for the run record).
    pub checksums: Vec<String>,
    /// Exact counters of the route reports (identical across runs of
    /// one seed; recorded so two result sets can be diffed).
    pub counters: Vec<(&'static str, f64)>,
}

/// Share of `--seconds` the rounds may spend; the rest covers the
/// coalesce phase and the last round, which starts inside the budget
/// and ends after it.
pub const ROUNDS_SHARE: f64 = 0.85;

/// Runs one workload untraced for `seconds`.
///
/// # Errors
///
/// Set-up failures and rounds that produced no sample; op failures are
/// in the returned gate instead.
pub fn run(bins: &Bins, w: &Workload, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    let (inputs, daemon, setups) = set_up(bins, w, seed)?;
    let mut gate = Gate::default();
    let budget = Duration::from_secs_f64(seconds * ROUNDS_SHARE);
    let m = measure(bins, &daemon, w, &inputs, seed, budget, MIN_ROUNDS, &mut gate, None)?;
    gate.op("daemon shutdown", daemon.shutdown());
    if m.cold_p50_ms.is_empty() {
        return Err(format!("no serve round completed: {:?}", gate.problems));
    }
    let route_wall_s = best(&m.route_wall_s);
    let metrics = vec![
        ("setup_s", best(&setups)),
        ("route_wall_s", route_wall_s),
        ("oracle_calls_per_s", m.report_sum(&["totals", "oracle_calls"]) / route_wall_s),
        ("peak_rss_mb", m.peak_rss_mb()),
        ("wirelength_m", m.report_sum(&["metrics", "wirelength_m"])),
        ("cold_p50_ms", best(&m.cold_p50_ms)),
        ("hit_p50_ms", best(&m.hit_p50_ms)),
        ("jobs_per_s", m.jobs_per_s.iter().copied().fold(0.0, f64::max)),
    ];
    let checksums =
        (0..inputs.paths.len()).map(|d| m.first(d).checksum().unwrap_or("").to_string()).collect();
    Ok(EndToEndRun { metrics, gate, checksums, counters: m.counters() })
}
