//! End-to-end daemon tests: every test boots its own server on an
//! ephemeral port and talks real HTTP over loopback.
//!
//! The determinism assertions lean on the repo's pinned goldens
//! (`tests/fixtures/*.expect`): a result produced through the service —
//! warm workers, queueing, interleaved jobs and all — must carry the
//! same checksum as a cold `cds-cli route` of the same document.

use cds_instgen::io::doc::{chip_doc_to_string, parse_chip_doc, ChipDoc};
use cds_instgen::ChipSpec;
use cds_router::report::outcome_json;
use cds_router::{Router, RouterConfig};
use cds_serve::client::{self, json_bool, json_str, json_u64};
use cds_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(2);

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn pinned_checksum(name: &str) -> String {
    fixture(name).trim().to_string()
}

/// The CI smoke chip, byte-identical to `cds-cli gen --preset smoke`.
fn smoke_doc() -> String {
    let spec = ChipSpec { name: "smoke".into(), num_nets: 40, ..ChipSpec::small_test(44) };
    chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap()
}

fn small_doc() -> String {
    let spec = ChipSpec::small_test(1);
    chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap()
}

fn start(config: ServeConfig) -> (cds_serve::ServerHandle, String) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// The first five lines of `doc`, then a line the parser must reject
/// — a document whose first error is on line 6.
fn mangled_at_line_6(doc: &str) -> String {
    let mut lines: Vec<&str> = doc.lines().take(5).collect();
    lines.push("garbage tokens that are not a cdst/1 record");
    lines.join("\n")
}

fn health(addr: &str, field: &str) -> u64 {
    let resp = client::request(addr, "GET", "/healthz", b"").unwrap();
    let text = resp.text();
    json_u64(&text, field).unwrap_or_else(|| panic!("no {field} in {text}"))
}

/// Runs `f` on its own thread under a 5 s watchdog: a drain whose
/// acceptor wake is missing blocks forever, and must fail the test
/// instead of hanging the suite on a bare join.
fn watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what}: not finished after 5 s — acceptor never woke?"))
}

/// Zeroes the wall-clock and arena observability fields — the only
/// JSON fields that legitimately differ between two runs of the same
/// submission (a warm worker's arenas can be pre-grown by prior jobs).
fn normalize(json: &str) -> String {
    let mut s = json.to_string();
    for key in ["walltime_s", "wall_s", "route_wall_s", "peak_arena_bytes"] {
        s = blank_value(&s, key, &[',', '}']);
    }
    blank_value(&s, "iter_wall_s", &[']'])
}

fn blank_value(json: &str, key: &str, stops: &[char]) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        let val_start = at + needle.len();
        out.push_str(&rest[..val_start]);
        let tail = &rest[val_start..];
        let end = tail.find(|c| stops.contains(&c)).unwrap_or(tail.len());
        out.push('0');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn submitted_result_matches_local_route_and_smoke_pin() {
    let (handle, addr) = start(ServeConfig::default());
    let doc_text = smoke_doc();
    let res = client::submit_and_wait(&addr, &doc_text, "", POLL).expect("job completes");
    assert_eq!(res.state, "done");
    assert!(!res.cached);
    assert_eq!(res.checksum, pinned_checksum("smoke_cd.expect"), "smoke golden");

    // the same route, computed locally with the library — the HTTP
    // result must be the same bytes modulo wall clocks
    let doc = parse_chip_doc(&doc_text).unwrap();
    let chip = doc.build_chip();
    let config = RouterConfig::default();
    let local = Router::new(&chip, config.clone()).run();
    let local_json = outcome_json(&chip, &config, &local);
    assert_eq!(normalize(&res.result_json), normalize(&local_json));
    handle.shutdown();
}

#[test]
fn resubmission_hits_cache_with_identical_bytes() {
    let (handle, addr) = start(ServeConfig::default());
    let doc = smoke_doc();
    let first = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    let again = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    assert!(!first.cached);
    assert!(again.cached, "identical resubmission must hit the cache");
    // archived bytes, not a re-render: literally identical, wall
    // clocks included
    assert_eq!(first.result_json, again.result_json);
    assert!(
        again.latency_s < 1.0,
        "cache hit took {:.3}s — it must not route anything",
        again.latency_s
    );
    // the hit is observable on the wire too
    let resp = client::request(&addr, "GET", &format!("/jobs/{}/result", again.job), b"").unwrap();
    assert_eq!(resp.header("X-Cds-Cached"), Some("true"));
    let report = handle.shutdown();
    assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
}

#[test]
fn warm_worker_reuse_matches_cold_pins_across_interleaved_jobs() {
    // one worker → every job reuses the same warm workspaces; distinct
    // `threads` overrides give distinct cache keys (so each submission
    // really routes) while the pinned checksums are thread-invariant
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let smoke = smoke_doc();
    let other = small_doc();
    let smoke_pin = pinned_checksum("smoke_cd.expect");
    let mut small_checksums = Vec::new();
    for round in 1..=3u32 {
        let query = format!("?threads={round}");
        let res = client::submit_and_wait(&addr, &smoke, &query, POLL).unwrap();
        assert!(!res.cached, "threads={round} must be a fresh cache key");
        assert_eq!(res.checksum, smoke_pin, "warm round {round} diverged from the cold pin");
        let res = client::submit_and_wait(&addr, &other, &query, POLL).unwrap();
        small_checksums.push(res.checksum);
    }
    assert_eq!(small_checksums[0], small_checksums[1]);
    assert_eq!(small_checksums[1], small_checksums[2]);

    // and a fixture recorded by an earlier PR, routed at its pinned
    // configuration, through the same warm worker
    let fanout = fixture("fanout_heavy.cdst");
    let res = client::submit_and_wait(&addr, &fanout, "?iterations=3", POLL).unwrap();
    assert_eq!(res.checksum, pinned_checksum("fanout_heavy_cd.expect"), "fanout_heavy golden");
    handle.shutdown();
}

#[test]
fn malformed_request_line_gets_400() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"NOT-AN-HTTP-REQUEST\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let resp = cds_serve::http::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("malformed request line"));
    handle.shutdown();
}

#[test]
fn oversized_body_gets_413_before_any_parsing() {
    let (handle, addr) =
        start(ServeConfig { workers: 0, max_body: 1024, ..ServeConfig::default() });
    let huge = "x".repeat(4096);
    let resp = client::request(&addr, "POST", "/jobs", huge.as_bytes()).unwrap();
    assert_eq!(resp.status, 413);
    assert!(resp.text().contains("exceeds the 1024-byte limit"));
    handle.shutdown();
}

#[test]
fn truncated_document_gets_400_with_line_number() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let body = mangled_at_line_6(&smoke_doc());
    let resp = client::request(&addr, "POST", "/jobs", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    let text = resp.text();
    assert_eq!(json_u64(&text, "line"), Some(6), "1-based error line in: {text}");
    assert!(text.contains("line 6"), "Display line number in: {text}");
    handle.shutdown();
}

#[test]
fn unknown_jobs_and_methods_get_404_and_405() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    for path in ["/jobs/999", "/jobs/999/result", "/jobs/notanumber"] {
        let resp = client::request(&addr, "GET", path, b"").unwrap();
        assert_eq!(resp.status, 404, "GET {path}");
    }
    let resp = client::request(&addr, "PUT", "/jobs", b"").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::request(&addr, "GET", "/nope", b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_bool(&resp.text(), "ok"), Some(true));
    handle.shutdown();
}

#[test]
fn double_cancel_is_idempotent_and_queued_jobs_never_run() {
    // no workers: the job stays queued until cancelled
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let resp = client::request(&addr, "POST", "/jobs", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    for _ in 0..2 {
        let resp = client::request(&addr, "DELETE", &format!("/jobs/{job}"), b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(json_str(&resp.text(), "state"), Some("cancelled"));
    }
    let resp = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(resp.status, 409, "a never-run job has no result");
    let report = handle.shutdown();
    assert_eq!(report.cancelled, 1);
}

#[test]
fn full_queue_rejects_with_503() {
    let (handle, addr) = start(ServeConfig { workers: 0, queue_cap: 2, ..ServeConfig::default() });
    let doc = smoke_doc();
    // distinct seeds → distinct cache keys, so nothing short-circuits
    for seed in 0..2 {
        let path = format!("/jobs?seed={seed}");
        let resp = client::request(&addr, "POST", &path, doc.as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
    }
    let resp = client::request(&addr, "POST", "/jobs?seed=2", doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 503);
    let text = resp.text();
    assert_eq!(json_u64(&text, "capacity"), Some(2), "backpressure body: {text}");
    // the rejected submission never became a job, so it is not a miss
    assert_eq!(health(&addr, "cache_misses"), 2, "misses = accepted jobs");
    assert_eq!(health(&addr, "jobs"), 2);
    handle.shutdown();
}

#[test]
fn cancelling_a_running_job_keeps_its_partial_result() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    // a chip slow enough that cancellation lands mid-run: full
    // (non-incremental) reroutes of a congested 300-net chip
    let spec = ChipSpec {
        name: "converging".into(),
        num_nets: 300,
        utilization: 0.22,
        ..ChipSpec::small_test(5)
    };
    let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
    let resp =
        client::request(&addr, "POST", "/jobs?iterations=200&incremental=false", doc.as_bytes())
            .unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    // wait until it is demonstrably mid-run (≥1 iteration recorded)
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_u64(&text, "iterations_done").unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "job never reached iteration 1: {text}");
        std::thread::sleep(POLL);
    }
    let resp = client::request(&addr, "DELETE", &format!("/jobs/{job}"), b"").unwrap();
    assert_eq!(resp.status, 200);
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_state = loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        let state = json_str(&text, "state").unwrap().to_string();
        if state != "queued" && state != "running" {
            break state;
        }
        assert!(Instant::now() < deadline, "job never terminated: {text}");
        std::thread::sleep(POLL);
    };
    assert_eq!(final_state, "cancelled");
    let resp = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(resp.status, 200, "a cancelled run still has its partial outcome");
    let text = resp.text();
    assert!(text.contains("\"cancelled\": true"), "partial result is marked: {text}");
    // far fewer than the requested 200 iterations actually ran
    let done = json_u64(&text, "iterations_completed").unwrap();
    assert!((1..200).contains(&done), "iterations_completed = {done}");
    // partial results must not poison the cache: resubmitting routes
    // fresh and completes
    let resp =
        client::request(&addr, "POST", "/jobs?iterations=2&incremental=false", doc.as_bytes())
            .unwrap();
    assert_eq!(resp.status, 201, "different config, fresh key");
    handle.shutdown();
}

#[test]
fn duplicate_inflight_submission_attaches_to_the_running_job() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    // slow enough (full reroutes, 300 nets) that the duplicate lands
    // while the first copy is demonstrably still running
    let spec = ChipSpec {
        name: "converging".into(),
        num_nets: 300,
        utilization: 0.22,
        ..ChipSpec::small_test(5)
    };
    let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
    let path = "/jobs?iterations=4&incremental=false";
    let resp = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_str(&text, "state") == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running: {text}");
        std::thread::sleep(POLL);
    }
    // the identical submission coalesces onto the in-flight job
    let dup = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(dup.status, 200);
    let text = dup.text();
    assert_eq!(json_bool(&text, "coalesced"), Some(true), "attach body: {text}");
    assert_eq!(json_u64(&text, "job"), Some(job), "attached to the original job");
    // both clients poll the same job id; one route serves them both
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_str(&text, "state") == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job never finished: {text}");
        std::thread::sleep(POLL);
    }
    let a = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    let b = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(a.body, b.body, "attached clients must read identical bytes");
    // the attach is visible in the health counters; the duplicate's
    // raw bytes were memoised by then, but with no cached result the
    // memo must not have answered it
    assert_eq!(health(&addr, "coalesced"), 1);
    assert_eq!(health(&addr, "parse_skipped"), 0);
    // and once the job is done, the cache takes over from coalescing —
    // reached through the memo, since the bytes are the same again
    let resp = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_bool(&resp.text(), "cached"), Some(true));
    assert_eq!(health(&addr, "parse_skipped"), 1);
    handle.shutdown();
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let doc = smoke_doc();
    for seed in 0..3 {
        let path = format!("/jobs?seed={seed}");
        let resp = client::request(&addr, "POST", &path, doc.as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
    }
    let report = handle.shutdown();
    assert_eq!(report.done, 3, "drain must finish queued jobs, not drop them: {report:?}");
    assert_eq!((report.cancelled, report.failed), (0, 0));
}

#[test]
fn unknown_query_knob_is_rejected_up_front() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let resp = client::request(&addr, "POST", "/jobs?bogus=1", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unknown router knob"));
    // the knob of the deleted queue selection is unknown like any other
    let resp = client::request(&addr, "POST", "/jobs?queue=heap", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unknown router knob queue"));
    // Regression: a NaN temperature used to be accepted here and then
    // panic the worker in the solver — a failed job instead of a 400.
    let resp =
        client::request(&addr, "POST", "/jobs?weight_tau_ps=nan", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("bad value nan for weight_tau_ps"), "{}", resp.text());
    // Regression: zero iterations route nothing; the unrouted result
    // would have been cached as `done`.
    let resp =
        client::request(&addr, "POST", "/jobs?iterations=0", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("bad value 0 for iterations"), "{}", resp.text());
    assert_eq!(health(&addr, "jobs"), 0, "a rejected submission must not become a job");
    handle.shutdown();
}

#[test]
fn byte_identical_resubmission_skips_the_parse_and_other_spellings_do_not() {
    let (handle, addr) = start(ServeConfig::default());
    let doc = small_doc();
    let first = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    assert!(!first.cached);
    assert_eq!(health(&addr, "parse_skipped"), 0);

    // same bytes: answered from the memo, same archived result
    let again = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    assert!(again.cached);
    assert_eq!(again.result_json, first.result_json);
    assert_eq!(health(&addr, "parse_skipped"), 1);

    // another spelling of the same document: a hit through the
    // canonical path, which memoises *these* bytes for the next time
    let (head, tail) = doc.split_once('\n').unwrap();
    let commented = format!("{head}\n# resubmitted with a comment\n{tail}");
    let spelled = client::submit_and_wait(&addr, &commented, "", POLL).unwrap();
    assert!(spelled.cached, "comments do not change the canonical key");
    assert_eq!(spelled.result_json, first.result_json);
    assert_eq!(health(&addr, "parse_skipped"), 1, "new bytes must be parsed once");
    let spelled = client::submit_and_wait(&addr, &commented, "", POLL).unwrap();
    assert!(spelled.cached);
    assert_eq!(health(&addr, "parse_skipped"), 2);

    // same body, different query: a different submission altogether
    let other = client::submit_and_wait(&addr, &doc, "?iterations=2", POLL).unwrap();
    assert!(!other.cached, "the query is part of the raw key and of the cache key");
    assert_eq!(health(&addr, "parse_skipped"), 2);
    assert_eq!((health(&addr, "cache_hits"), health(&addr, "cache_misses")), (3, 2));
    // results only — the memo's three entries are not cache entries
    assert_eq!(health(&addr, "cache_entries"), 2);

    // a malformed body is never memoised: same 400, same line, twice
    let body = mangled_at_line_6(&doc);
    for attempt in 0..2 {
        let resp = client::request(&addr, "POST", "/jobs", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "attempt {attempt}");
        assert_eq!(json_u64(&resp.text(), "line"), Some(6), "attempt {attempt}");
    }
    assert_eq!(health(&addr, "parse_skipped"), 2);
    handle.shutdown();
}

/// The acceptor's 5 ms `WouldBlock` nap used to put a floor under every
/// connection (40 requests ≥ 200 ms); with a blocking accept the same
/// 40 take a few ms. Best of five batches, so a busy test machine
/// cannot fail it but a per-connection nap always does.
#[test]
fn forty_sequential_requests_take_well_under_100_ms() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let batch = || {
        let t0 = Instant::now();
        for _ in 0..40 {
            let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
            assert_eq!(resp.status, 200);
        }
        t0.elapsed()
    };
    let best = (0..5).map(|_| batch()).min().unwrap();
    assert!(best < Duration::from_millis(100), "40 × GET /healthz took {best:?}");
    handle.shutdown();
}

/// Admission pacing end to end: four clients keep the daemon saturated
/// and 200 requests cannot be admitted faster than the bucket allows —
/// its burst, then one per interval. A lower bound only (sleeps never
/// undershoot; unpaced, a debug build serves these in ~20 ms); the
/// upper side is `forty_sequential_requests_take_well_under_100_ms`.
#[test]
fn saturating_clients_are_admitted_at_the_bucket_rate() {
    use cds_serve::server::{ADMIT_BURST, ADMIT_INTERVAL};
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..50 {
                    let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
                    assert_eq!(resp.status, 200);
                }
            });
        }
    });
    let took = t0.elapsed();
    let floor = ADMIT_INTERVAL * (200 - 1 - ADMIT_BURST);
    assert!(took >= floor, "200 requests in {took:?}, the bucket allows no less than {floor:?}");
    handle.shutdown();
}

#[test]
fn idle_daemon_shuts_down_within_a_second() {
    // zero connections ever made: only the wake connect can unpark
    // the acceptor
    let (handle, _addr) = start(ServeConfig::default());
    let took = watchdog("shutdown of an idle daemon", move || {
        let t0 = Instant::now();
        handle.shutdown();
        t0.elapsed()
    });
    assert!(took < Duration::from_secs(1), "idle drain took {took:?}");
}

#[test]
fn http_shutdown_on_an_idle_daemon_makes_wait_return() {
    let (handle, addr) = start(ServeConfig::default());
    let resp = client::request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_bool(&resp.text(), "draining"), Some(true));
    let report = watchdog("wait() after POST /shutdown", move || handle.wait());
    assert_eq!((report.done, report.cancelled, report.failed), (0, 0, 0));
}

#[test]
fn http_shutdown_then_handle_shutdown_is_idempotent() {
    let (handle, addr) = start(ServeConfig::default());
    let resp = client::request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    // the second drain's wake connect meets a closing (or closed)
    // listener and must fail quietly
    let report = watchdog("shutdown() after POST /shutdown", move || handle.shutdown());
    assert_eq!((report.done, report.cancelled, report.failed), (0, 0, 0));
}

#[test]
fn daemon_bound_to_the_unspecified_address_drains() {
    let (handle, addr) = start(ServeConfig { addr: "0.0.0.0:0".into(), ..ServeConfig::default() });
    assert!(addr.starts_with("0.0.0.0:"), "{addr}");
    let loopback = format!("127.0.0.1:{}", handle.addr().port());
    assert_eq!(health(&loopback, "jobs"), 0);
    watchdog("shutdown of a 0.0.0.0 daemon", move || handle.shutdown());
}
