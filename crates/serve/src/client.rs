//! Blocking client for the `cds-serve` daemon, plus the load-test
//! harness that drives it from N concurrent submitter threads.
//!
//! Everything here speaks the same hand-rolled HTTP/1.1 as the server
//! (`Connection: close`, one request per connection) and extracts the
//! handful of JSON fields it needs with small scanners rather than a
//! full parser — the server's bodies are machine-generated and flat.

use crate::http::{read_response, write_request, Response};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One round trip: connect, send, read the full response.
///
/// # Errors
///
/// A human-readable message on connect/transport/parse failure.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    request_on(stream, addr, method, path, body)
}

/// Like [`request`] but retries the connect for up to `timeout` — for
/// racing a daemon that is still binding its listener.
///
/// # Errors
///
/// The last connect error once the deadline passes, or any
/// transport/parse failure after connecting.
pub fn request_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Response, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return request_on(stream, addr, method, path, body),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

fn request_on(
    stream: TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    write_request(&mut &stream, method, path, addr, body).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).map_err(|e| format!("response from {addr}: {e}"))
}

/// Scans `"name": <uint>` out of flat JSON.
#[must_use]
pub fn json_u64(json: &str, name: &str) -> Option<u64> {
    let tail = field_tail(json, name)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Scans `"name": true|false` out of flat JSON.
#[must_use]
pub fn json_bool(json: &str, name: &str) -> Option<bool> {
    let tail = field_tail(json, name)?;
    if tail.starts_with("true") {
        Some(true)
    } else if tail.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Scans `"name": "<value>"` out of flat JSON (no unescaping — the
/// fields we read back never contain escapes).
#[must_use]
pub fn json_str<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let tail = field_tail(json, name)?;
    let tail = tail.strip_prefix('"')?;
    tail.split('"').next()
}

fn field_tail<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)?;
    Some(json[at + needle.len()..].trim_start())
}

/// What one submit-poll-fetch cycle produced.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id assigned by the daemon.
    pub job: u64,
    /// Whether the submission was served from the result cache.
    pub cached: bool,
    /// Terminal state (`done`, `cancelled`, `failed`).
    pub state: String,
    /// The full result JSON body.
    pub result_json: String,
    /// Routing checksum parsed from the result.
    pub checksum: String,
    /// Submit-to-result wall time in seconds.
    pub latency_s: f64,
}

/// Submits a document, polls status every `poll`, fetches the result.
///
/// `query` is appended verbatim to `/jobs` (e.g. `"?threads=2"`).
///
/// # Errors
///
/// Any non-2xx response or transport failure, with the server's error
/// body included.
pub fn submit_and_wait(
    addr: &str,
    doc: &str,
    query: &str,
    poll: Duration,
) -> Result<JobResult, String> {
    let t0 = Instant::now();
    // retry the connect: callers often race a daemon that is still
    // binding its listener (the CI smoke step starts both at once)
    let resp = request_retry(
        addr,
        "POST",
        &format!("/jobs{query}"),
        doc.as_bytes(),
        Duration::from_secs(10),
    )?;
    if resp.status != 200 && resp.status != 201 {
        return Err(format!("submit: HTTP {}: {}", resp.status, resp.text()));
    }
    let body = resp.text();
    let job = json_u64(&body, "job").ok_or_else(|| format!("submit: no job id in {body}"))?;
    let cached = json_bool(&body, "cached").unwrap_or(false);
    let mut state = json_str(&body, "state").unwrap_or("queued").to_string();
    while state == "queued" || state == "running" {
        std::thread::sleep(poll);
        let resp = request(addr, "GET", &format!("/jobs/{job}"), b"")?;
        if resp.status != 200 {
            return Err(format!("status: HTTP {}: {}", resp.status, resp.text()));
        }
        let body = resp.text();
        state = json_str(&body, "state").unwrap_or("failed").to_string();
    }
    let resp = request(addr, "GET", &format!("/jobs/{job}/result"), b"")?;
    if resp.status != 200 {
        return Err(format!("result: HTTP {}: {}", resp.status, resp.text()));
    }
    let result_json = resp.text();
    let checksum = json_str(&result_json, "checksum").unwrap_or("").to_string();
    Ok(JobResult {
        job,
        cached,
        state,
        result_json,
        checksum,
        latency_s: t0.elapsed().as_secs_f64(),
    })
}

/// Aggregate numbers from one load-test run.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Successfully completed jobs.
    pub jobs: usize,
    /// Submissions that errored (transport or non-2xx).
    pub failures: usize,
    /// Jobs served from the result cache.
    pub cache_hits: usize,
    /// Median submit-to-result latency in seconds.
    pub p50_s: f64,
    /// 99th-percentile latency in seconds.
    pub p99_s: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_s: f64,
    /// Total wall time of the run in seconds.
    pub wall_s: f64,
    /// Distinct checksums observed (a deterministic server yields one
    /// per distinct document).
    pub checksums: Vec<String>,
}

/// Drives the daemon with `clients` concurrent submitter threads, each
/// sending `requests_per_client` submissions round-robined over `docs`.
///
/// Resubmissions of the same document are the point: the first
/// submission of each document routes for real, the rest should hit
/// the cache, and the p50/p99 split makes the difference visible.
#[must_use]
pub fn loadtest(
    addr: &str,
    docs: &[String],
    clients: usize,
    requests_per_client: usize,
    query: &str,
    poll: Duration,
) -> LoadtestReport {
    let t0 = Instant::now();
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let checksums: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let cache_hits = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let latencies = Arc::clone(&latencies);
            let checksums = Arc::clone(&checksums);
            let cache_hits = Arc::clone(&cache_hits);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for r in 0..requests_per_client {
                    let doc = &docs[(c * requests_per_client + r) % docs.len()];
                    match submit_and_wait(addr, doc, query, poll) {
                        Ok(res) => {
                            latencies
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(res.latency_s);
                            if res.cached {
                                cache_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            let mut cs =
                                checksums.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            if !res.checksum.is_empty() && !cs.contains(&res.checksum) {
                                cs.push(res.checksum);
                            }
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut lat = Arc::try_unwrap(latencies)
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .unwrap_or_default();
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx.min(lat.len() - 1)]
    };
    let jobs = lat.len();
    let mut checksums = Arc::try_unwrap(checksums)
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .unwrap_or_default();
    checksums.sort();
    LoadtestReport {
        jobs,
        failures: failures.load(Ordering::Relaxed),
        cache_hits: cache_hits.load(Ordering::Relaxed),
        p50_s: pct(0.50),
        p99_s: pct(0.99),
        jobs_per_s: if wall_s > 0.0 { jobs as f64 / wall_s } else { 0.0 },
        wall_s,
        checksums,
    }
}

/// Renders a [`LoadtestReport`] as the flat JSON the CLI prints and
/// the CI smoke step greps.
#[must_use]
pub fn loadtest_json(r: &LoadtestReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"jobs\": {}, \"failures\": {}, \"cache_hits\": {}, \"p50_s\": {:.6}, \
         \"p99_s\": {:.6}, \"jobs_per_s\": {:.3}, \"wall_s\": {:.6}, \"checksums\": [",
        r.jobs, r.failures, r.cache_hits, r.p50_s, r.p99_s, r.jobs_per_s, r.wall_s
    );
    for (i, c) in r.checksums.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{c}\"");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_scanners_extract_fields() {
        let body = "{\"job\": 17, \"state\": \"done\", \"cached\": true}";
        assert_eq!(json_u64(body, "job"), Some(17));
        assert_eq!(json_str(body, "state"), Some("done"));
        assert_eq!(json_bool(body, "cached"), Some(true));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(json_bool(body, "state"), None);
    }

    #[test]
    fn loadtest_json_is_flat_and_complete() {
        let r = LoadtestReport {
            jobs: 4,
            failures: 0,
            cache_hits: 3,
            p50_s: 0.01,
            p99_s: 0.5,
            jobs_per_s: 8.0,
            wall_s: 0.5,
            checksums: vec!["0xdead".into()],
        };
        let s = loadtest_json(&r);
        assert_eq!(json_u64(&s, "jobs"), Some(4));
        assert_eq!(json_u64(&s, "cache_hits"), Some(3));
        assert!(s.contains("\"checksums\": [\"0xdead\"]"));
    }
}
