//! The shipped binaries as child processes, and the daemon's client.
//!
//! End-to-end numbers come from here: `cds-cli route` children timed
//! spawn → exit with their peak RSS sampled from `/proc`, and a
//! `cds-serve` child driven over loopback HTTP. The harness never has
//! more than two busy threads: a route child (≤ 2 router threads) with a
//! mostly-sleeping sampler, or one daemon worker with two mostly-waiting
//! clients.

use crate::json::Json;
use crate::trace::Tracer;
use cds_serve::client::request;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where the shipped binaries and the harness's scratch files live: the
/// directory of the running `cds-perf` executable (one shared cargo
/// target directory) and a work directory beside it.
#[derive(Debug, Clone)]
pub struct Bins {
    pub cli: PathBuf,
    pub serve: PathBuf,
    pub work: PathBuf,
}

impl Bins {
    /// Locates `cds-cli` and `cds-serve` next to the running executable.
    ///
    /// # Errors
    ///
    /// Names the missing binary and the build command that produces it.
    pub fn locate() -> Result<Bins, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.parent().ok_or("executable has no parent directory")?;
        let bins = Bins {
            cli: dir.join("cds-cli"),
            serve: dir.join("cds-serve"),
            work: dir.join("cds-perf-work"),
        };
        for bin in [&bins.cli, &bins.serve] {
            if !bin.is_file() {
                return Err(format!(
                    "{} not found — build it into the same target directory first \
                     (`cargo build --release -p cds-cli -p cds-serve`, or use cds-perf/bench.sh)",
                    bin.display()
                ));
            }
        }
        Ok(bins)
    }

    /// Refuses binaries older than any product source they were built
    /// from (`crates/**/*.rs`, `vendor/**/*.rs`, manifests): a stale
    /// binary would silently benchmark the previous commit. `bench.sh`
    /// rebuilds before every run, so this guards hand-run invocations.
    ///
    /// # Errors
    ///
    /// Names the newer source file.
    pub fn check_fresh(&self, repo_root: &Path) -> Result<(), String> {
        let built = [&self.cli, &self.serve]
            .iter()
            .filter_map(|b| std::fs::metadata(b).and_then(|m| m.modified()).ok())
            .min()
            .ok_or("cannot stat the shipped binaries")?;
        let mut stack = vec![repo_root.join("crates"), repo_root.join("vendor")];
        let mut files = vec![repo_root.join("Cargo.toml")];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                    files.push(path);
                }
            }
        }
        for f in files {
            if std::fs::metadata(&f).and_then(|m| m.modified()).is_ok_and(|t| t > built) {
                return Err(format!(
                    "stale binaries: {} is newer than target cds-cli/cds-serve — rebuild first",
                    f.display()
                ));
            }
        }
        Ok(())
    }
}

/// Renders workload knobs as `cds-cli route` arguments (`--set k=v`
/// accepts every `RouterConfig` knob, so one rendering covers them all).
fn knob_args(knobs: &[(String, String)]) -> Vec<String> {
    knobs.iter().flat_map(|(k, v)| ["--set".to_string(), format!("{k}={v}")]).collect()
}

/// Renders workload knobs as a `/jobs` query string.
pub fn knob_query(knobs: &[(String, String)]) -> String {
    let pairs: Vec<String> = knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("?{}", pairs.join("&"))
}

/// `VmHWM` (peak resident set, kB) of process `pid`, if still readable.
fn vm_hwm_kb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One finished `cds-cli route` child.
#[derive(Debug, Clone)]
pub struct RouteRun {
    /// Spawn → exit, stdout captured: document read, graph build,
    /// routing, JSON report, teardown.
    pub wall_s: f64,
    /// Last `VmHWM` reading before exit, in MB.
    pub rss_mb: f64,
    /// The route report the child printed.
    pub report: Json,
}

impl RouteRun {
    fn field(&self, path: &[&str]) -> Result<f64, String> {
        self.report
            .at(path)
            .and_then(Json::num)
            .ok_or_else(|| format!("route report lacks {}", path.join(".")))
    }

    pub fn checksum(&self) -> Result<&str, String> {
        self.report.get("checksum").and_then(Json::str).ok_or_else(|| "no checksum".to_string())
    }

    /// The per-op correctness gate: the run completed every configured
    /// iteration and was not cancelled.
    ///
    /// # Errors
    ///
    /// What the report is missing.
    pub fn check_complete(&self, iterations: f64) -> Result<(), String> {
        let done = self.field(&["totals", "iterations_completed"])?;
        if done != iterations {
            return Err(format!("iterations_completed {done} != {iterations}"));
        }
        match self.report.at(&["stats", "cancelled"]).and_then(Json::bool) {
            Some(false) => Ok(()),
            other => Err(format!("cancelled = {other:?}")),
        }
    }
}

/// Runs one `cds-cli route DOC --set k=v…` child to completion.
///
/// # Errors
///
/// Spawn failure, non-zero exit (with the child's stderr), or a report
/// that is not JSON.
pub fn route_child(
    bins: &Bins,
    doc: &Path,
    knobs: &[(String, String)],
) -> Result<RouteRun, String> {
    let start = Instant::now();
    let child = Command::new(&bins.cli)
        .arg("route")
        .arg(doc)
        .args(knob_args(knobs))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bins.cli.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, wall_s, hwm_kb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Acquire) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let output = child.wait_with_output();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (output, wall_s, sampler.join().expect("the RSS sampler does not panic"))
    });
    let output = output.map_err(|e| format!("wait for cds-cli: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "cds-cli route exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    if hwm_kb == 0.0 {
        return Err("no VmHWM sample of the route child (is /proc mounted?)".into());
    }
    let report = Json::parse(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("route report is not JSON: {e}"))?;
    Ok(RouteRun { wall_s, rss_mb: hwm_kb / 1024.0, report })
}

/// A running `cds-serve --workers 1` child. Dropping it kills the
/// child, so the daemon cannot outlive the harness on any exit path;
/// [`shutdown`](Self::shutdown) is the orderly way out.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Kept open until the child exits: the daemon prints a tally line
    /// on its way out and would die on a closed pipe.
    stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on a free loopback port and waits for its
    /// `listening addr=…` line.
    ///
    /// # Errors
    ///
    /// Spawn failure, or the child exiting before it listens.
    pub fn spawn(bins: &Bins) -> Result<Daemon, String> {
        let mut child = Command::new(&bins.serve)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bins.serve.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // from here on, dropping `daemon` reaps the child
        let mut daemon = Daemon { child, stdout, addr: String::new() };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line).map_err(|e| format!("read daemon stdout: {e}"))?;
        daemon.addr = line
            .split_whitespace()
            .find_map(|t| t.strip_prefix("addr="))
            .ok_or_else(|| format!("daemon did not announce its address: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// The daemon's peak resident set in MB.
    pub fn rss_mb(&self) -> Option<f64> {
        vm_hwm_kb(self.child.id()).map(|kb| kb / 1024.0)
    }

    /// `GET /healthz`, parsed.
    ///
    /// # Errors
    ///
    /// Transport failure or a non-JSON body.
    pub fn health(&self) -> Result<Json, String> {
        let resp = request(&self.addr, "GET", "/healthz", b"")?;
        Json::parse(&resp.text()).map_err(|e| format!("healthz is not JSON: {e}"))
    }

    /// Posts `/shutdown` and waits for the drained daemon to exit.
    ///
    /// # Errors
    ///
    /// A refused shutdown or a non-zero exit status (the `Drop` kill
    /// still reaps the child).
    pub fn shutdown(mut self) -> Result<(), String> {
        let resp = request(&self.addr, "POST", "/shutdown", b"")?;
        if resp.status != 200 {
            return Err(format!("shutdown: HTTP {}", resp.status));
        }
        let status = self.child.wait().map_err(|e| format!("wait for daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // no-ops once `shutdown` has reaped the child
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One submit → poll → result cycle against the daemon.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Index of the cache key this job submitted.
    pub key: usize,
    pub latency_ms: f64,
    pub cached: bool,
    pub state: String,
    pub checksum: String,
}

/// Poll interval of the closed-loop clients.
const POLL: Duration = Duration::from_millis(2);

/// Submits `doc` under `query`, polls every 2 ms until the job leaves
/// the queue, and fetches the result. With a tracer, records one
/// `serve.job` span with `serve.submit` / `serve.poll` / `serve.result`
/// children, all carrying `key` as their subject.
///
/// # Errors
///
/// Transport failures and non-200 responses, with the server's body.
pub fn run_job(
    addr: &str,
    doc: &str,
    query: &str,
    key: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<JobOutcome, String> {
    let subject = Some(key as u64);
    let start = Instant::now();
    let job_span = tracer.as_deref_mut().map(|t| t.open("serve.job", None, subject));
    let mut call = |name: &'static str, method: &str, path: &str, body: &[u8]| {
        let id = tracer.as_deref_mut().map(|t| t.open(name, job_span, subject));
        let resp = request(addr, method, path, body);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
            t.close(id);
        }
        let resp = resp?;
        if resp.status != 200 && resp.status != 201 {
            return Err(format!("{name}: HTTP {}: {}", resp.status, resp.text()));
        }
        Json::parse(&resp.text()).map_err(|e| format!("{name}: body is not JSON: {e}"))
    };
    let body = call("serve.submit", "POST", &format!("/jobs{query}"), doc.as_bytes())?;
    let job = body.get("job").and_then(Json::num).ok_or("submit reply has no job id")? as u64;
    let cached = body.get("cached").and_then(Json::bool).unwrap_or(false);
    let mut state = body.get("state").and_then(Json::str).unwrap_or("queued").to_string();
    while state == "queued" || state == "running" {
        std::thread::sleep(POLL);
        let body = call("serve.poll", "GET", &format!("/jobs/{job}"), b"")?;
        state = body.get("state").and_then(Json::str).unwrap_or("failed").to_string();
    }
    let result = call("serve.result", "GET", &format!("/jobs/{job}/result"), b"")?;
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(id)) = (tracer, job_span) {
        t.close(id);
    }
    Ok(JobOutcome {
        key,
        latency_ms,
        cached,
        state,
        checksum: result.get("checksum").and_then(Json::str).unwrap_or("").to_string(),
    })
}
