#![forbid(unsafe_code)]
//! `cds-cli` — the end-to-end driver over the routing engine.
//!
//! Turns the library into a tool: chips travel as `cdst/1` documents
//! (see `cds_instgen::io::doc`), and every experiment becomes three
//! shell lines instead of a Rust test harness:
//!
//! ```text
//! cds-cli gen --preset smoke -o chip.cdst
//! cds-cli route chip.cdst --oracle cd          # JSON metrics + checksum
//! cds-cli verify chip.cdst --expect 0x<hex>    # re-route and diff
//! ```
//!
//! Subcommands:
//!
//! * `gen` — synthesize a chip (`--preset`, `--nets`, `--layers`,
//!   `--seed`, `--utilization`, `--name`) and print its document.
//! * `route` — stream-parse a document (file or stdin; records feed
//!   straight into the chip being built, peak memory one line buffer
//!   over the chip itself), route it, print run metrics,
//!   `RouterStats`, and the outcome checksum as JSON. With
//!   `--set checkpoint_every=K --checkpoint FILE` it writes a
//!   resumable `cdst/2` checkpoint document every K iterations;
//!   `--resume` continues from a checkpoint document's `state` section
//!   and reproduces the uninterrupted run's checksum bit-for-bit.
//! * `verify` — route and compare the checksum against `--expect`;
//!   exit 1 on mismatch (the CI golden gate).
//! * `harvest` — route with instance harvesting and print the document
//!   extended with the per-net `weights`/`budgets` archive.
//! * `fixtures` — regenerate the pinned documents under
//!   `tests/fixtures/` (the 300-net converging chip, the hard-congested
//!   chip, the 120-request solver stream, and the CI smoke checksum).
//! * `submit` — send a document to a running `cds-serve` daemon, poll
//!   until done, and print the result JSON (same bytes `route` prints).
//! * `loadtest` — hammer a daemon with N concurrent clients replaying
//!   document fixtures; reports p50/p99 latency, jobs/s, and the
//!   cache-hit count, with optional `--expect`/`--min-cache-hits`
//!   assertions for CI.
//!
//! Router configuration layers, later wins: `RouterConfig::default()`,
//! then the document's `config` records, then CLI flags
//! (`--oracle/--threads/--iterations/--incremental/--price-tol/...`).
//! Knobs without a dedicated flag go through `--set key=value` — e.g.
//! `--set shards=4` routes region-parallel.

use cds_instgen::io::doc::{
    chip_doc_to_string, read_chip_doc, read_chip_streaming, ChipDoc, RequestRecord, StateSection,
    StreamedChip,
};
use cds_instgen::{ChipSpec, SinkProfile};
use cds_router::report::{json_escape, outcome_json};
use cds_router::{Router, RouterConfig, RoutingOutcome, RunControl, WorkerPool};
use cds_serve::http::percent_encode;
use std::io::{BufReader, Read as _, Write as _};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("cds-cli: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cds-cli <gen|route|verify|harvest|fixtures|submit|loadtest> [args]
  gen      [--preset smoke|small|converging|congested|fanout_heavy] [--nets N] [--layers N]
           [--seed N] [--utilization F] [--name S] [-o FILE]
  route    [FILE|-] [--oracle cd|l1|sl|pd] [--threads N] [--iterations N]
           [--incremental BOOL] [--price-tol F] [--seed N]
           [--checkpoint FILE] [--resume]
           [--set key=value]...       (e.g. --set shards=4)
  verify   [FILE|-] --expect 0xHEX [route flags]
  harvest  [FILE|-] [route flags] [-o FILE]
  fixtures DIR
  submit   [FILE|-] --addr HOST:PORT [route flags] [--poll-ms N]
  loadtest FILE... --addr HOST:PORT [--clients N] [--requests N] [--poll-ms N]
           [--expect 0xHEX] [--min-cache-hits N] [--shutdown] [route flags]";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "gen" => gen(rest),
        "route" => route(rest),
        "verify" => verify(rest),
        "harvest" => harvest(rest),
        "fixtures" => fixtures(rest),
        "submit" => submit(rest),
        "loadtest" => loadtest(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other}\n{USAGE}")),
    }
}

// ---------------------------------------------------------------- flags

/// Minimal flag cursor: `--flag value` pairs, bare `--flag` switches,
/// and positionals (document paths). Flags are kept in command-line
/// order so configuration layering is truly "later wins".
struct Flags {
    named: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Flags {
    /// `valued` lists (in groups, so commands can share [`KNOB_FLAGS`])
    /// the flags that take a value, `switches` those that take none;
    /// anything else is rejected (a misspelled flag must not silently
    /// swallow the following argument).
    fn parse(args: &[String], valued: &[&[&str]], switches: &[&str]) -> Result<Self, String> {
        let mut named = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    named.push((name.to_string(), None));
                } else if valued.iter().any(|group| group.contains(&name)) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    named.push((name.to_string(), Some(v.clone())));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else if a == "-o" {
                let v = it.next().ok_or("-o needs a file name")?;
                named.push(("o".to_string(), Some(v.clone())));
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(Flags { named, positionals })
    }

    /// The single document path for subcommands that take at most one.
    fn positional(&self) -> Result<Option<&str>, String> {
        match self.positionals.as_slice() {
            [] => Ok(None),
            [one] => Ok(Some(one)),
            [_, extra, ..] => Err(format!("unexpected argument {extra}")),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_deref().unwrap_or(""))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value {v} for --{name}")),
        }
    }
}

// ------------------------------------------------------------------ gen

fn preset_spec(name: &str) -> Result<ChipSpec, String> {
    Ok(match name {
        // the CI smoke chip: small enough to route in seconds, big
        // enough for real congestion
        "smoke" => ChipSpec { name: "smoke".into(), num_nets: 40, ..ChipSpec::small_test(44) },
        "small" => ChipSpec::small_test(1),
        // a converging chip (utilization below the hard-congestion
        // regime): the dirty-net scheduler's showcase
        "converging" => ChipSpec {
            name: "converging".into(),
            num_nets: 300,
            utilization: 0.22,
            ..ChipSpec::small_test(5)
        },
        // the hard-congested chip (overflow rip-up irreducible)
        "congested" => {
            ChipSpec { name: "congested".into(), num_nets: 150, ..ChipSpec::small_test(7) }
        }
        // clock-tree-like: few drivers, 30-80-sink nets spread die-wide
        "fanout_heavy" => ChipSpec {
            name: "fanout_heavy".into(),
            num_nets: 24,
            profile: SinkProfile::FanoutHeavy,
            ..ChipSpec::small_test(11)
        },
        other => {
            return Err(format!(
                "unknown preset {other} (want smoke/small/converging/congested/fanout_heavy)"
            ))
        }
    })
}

const GEN_FLAGS: &[&str] = &["preset", "nets", "layers", "seed", "utilization", "name"];

fn gen(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[GEN_FLAGS], &[])?;
    let mut spec = preset_spec(flags.get("preset").unwrap_or("small"))?;
    if let Some(n) = flags.num::<usize>("nets")? {
        spec.num_nets = n;
    }
    if let Some(l) = flags.num::<u8>("layers")? {
        spec.num_layers = l;
    }
    if let Some(s) = flags.num::<u64>("seed")? {
        spec.seed = s;
    }
    if let Some(u) = flags.num::<f64>("utilization")? {
        spec.utilization = u;
    }
    if let Some(name) = flags.get("name") {
        spec.name = name.to_string();
    }
    let doc = ChipDoc::from_chip(&spec.generate()).map_err(|e| e.to_string())?;
    emit(flags.get("o"), &chip_doc_to_string(&doc).map_err(|e| e.to_string())?)?;
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------- route

fn load_doc(path: Option<&str>) -> Result<ChipDoc, String> {
    match path {
        None | Some("-") => {
            read_chip_doc(std::io::stdin().lock()).map_err(|e| format!("<stdin>: {e}"))
        }
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?;
            read_chip_doc(BufReader::new(f)).map_err(|e| format!("{p}: {e}"))
        }
    }
}

/// Streaming load for `route`/`verify`: records feed straight into the
/// chip being built (graph constructed mid-parse, `ecap` applied in
/// place), so peak memory is the finished chip plus one line buffer —
/// no intermediate [`ChipDoc`]. Accepts files and stdin alike.
fn load_streamed(path: Option<&str>) -> Result<StreamedChip, String> {
    match path {
        None | Some("-") => {
            read_chip_streaming(std::io::stdin().lock()).map_err(|e| format!("<stdin>: {e}"))
        }
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?;
            read_chip_streaming(BufReader::new(f)).map_err(|e| format!("{p}: {e}"))
        }
    }
}

/// The flags that set router knobs — accepted by every command that
/// routes, locally or through a daemon. All but `--price-tol` and
/// `--set key=value` are spelled like the knob they set.
const KNOB_FLAGS: &[&str] =
    &["oracle", "threads", "iterations", "incremental", "price-tol", "seed", "set"];

/// The router-knob overrides on a command line as `(knob, value)`
/// pairs in command-line order — the one flag → knob list both the
/// local route ([`build_config`]) and a daemon submission
/// ([`query_from_flags`]) apply, so the two cannot drift apart.
fn knob_overrides(flags: &Flags) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    for (name, value) in flags.named.iter().filter(|(n, _)| KNOB_FLAGS.contains(&n.as_str())) {
        let v = value.as_deref().unwrap_or("");
        let (knob, v) = match name.as_str() {
            "set" => v.split_once('=').ok_or_else(|| format!("--set wants key=value, got {v}"))?,
            "price-tol" => ("price_tol", v),
            knob => (knob, v),
        };
        pairs.push((knob.to_string(), v.to_string()));
    }
    Ok(pairs)
}

/// Default config ← document `config` records ← CLI flags, the flags
/// strictly in command-line order (so `--set iterations=3
/// --iterations 9` ends at 9, and vice versa).
fn build_config(records: &[(String, String)], flags: &Flags) -> Result<RouterConfig, String> {
    let mut config = RouterConfig::default();
    for (k, v) in records {
        config.set_knob(k, v).map_err(|e| format!("document config record: {e}"))?;
    }
    for (k, v) in knob_overrides(flags)? {
        config.set_knob(&k, &v)?;
    }
    Ok(config)
}

/// Routes a streamed document, honoring `--resume` (continue from the
/// document's `state` section) and `--checkpoint FILE` (write each
/// periodic checkpoint as a complete, immediately resumable `cdst/2`
/// document — later checkpoints replace earlier ones atomically
/// ([`write_atomic`]), so the file always holds the most recent
/// complete resume point).
fn route_streamed(
    sc: &StreamedChip,
    flags: &Flags,
) -> Result<(RouterConfig, RoutingOutcome), String> {
    let config = build_config(&sc.config, flags)?;
    let resume: Option<&StateSection> = if flags.get("resume").is_some() {
        Some(sc.state.as_ref().ok_or("--resume needs a cdst/2 document with a state section")?)
    } else {
        None
    };
    // a full-reroute checkpoint records no price reference; the dirty
    // tracker of an incremental run cannot be primed from it
    if config.incremental && resume.is_some_and(|s| s.prices.is_empty()) {
        return Err("--resume: this checkpoint was written by an incremental=false run and \
                    carries no scheduler state; resume it with --incremental false"
            .into());
    }
    let checkpoint_to = flags.get("checkpoint");
    if checkpoint_to.is_some() && config.checkpoint_every == 0 {
        return Err("--checkpoint needs --set checkpoint_every=K (K > 0)".into());
    }
    let mut write_err: Option<String> = None;
    let outcome = {
        let mut on_checkpoint = |_iter: usize, state: StateSection| {
            let Some(path) = checkpoint_to else { return };
            if write_err.is_some() {
                return;
            }
            let res = ChipDoc::from_chip(&sc.chip)
                .map_err(|e| e.to_string())
                .and_then(|mut doc| {
                    doc.config = config.records();
                    doc.state = Some(state);
                    chip_doc_to_string(&doc).map_err(|e| e.to_string())
                })
                .and_then(|text| write_atomic(path, text.as_bytes()));
            if let Err(e) = res {
                write_err = Some(e);
            }
        };
        Router::new(&sc.chip, config.clone()).run_checkpointed(
            &mut WorkerPool::new(),
            &RunControl::new(),
            &mut |_, _| {},
            resume,
            &mut on_checkpoint,
        )
    };
    if let Some(e) = write_err {
        return Err(format!("checkpoint write failed: {e}"));
    }
    Ok((config, outcome))
}

const ROUTE_FLAGS: &[&[&str]] = &[KNOB_FLAGS, &["expect", "checkpoint"]];
const ROUTE_SWITCHES: &[&str] = &["resume"];

fn route(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, ROUTE_FLAGS, ROUTE_SWITCHES)?;
    let sc = load_streamed(flags.positional()?)?;
    let (config, out) = route_streamed(&sc, &flags)?;
    println!("{}", outcome_json(&sc.chip, &config, &out));
    eprintln!(
        "cds-cli: streamed {} records, {} ecap overrides applied in place, peak line {} bytes",
        sc.stats.records, sc.stats.ecap_applied, sc.stats.peak_line_bytes
    );
    Ok(ExitCode::SUCCESS)
}

// --------------------------------------------------------------- verify

fn parse_checksum(v: &str) -> Result<u64, String> {
    let hex = v.strip_prefix("0x").unwrap_or(v);
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad checksum {v} (want 0x<hex>)"))
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, ROUTE_FLAGS, ROUTE_SWITCHES)?;
    let expect = parse_checksum(flags.get("expect").ok_or("verify needs --expect 0x<hex>")?)?;
    let sc = load_streamed(flags.positional()?)?;
    let (config, out) = route_streamed(&sc, &flags)?;
    let actual = out.checksum();
    let ok = actual == expect;
    println!(
        "{{\"chip\": \"{}\", \"oracle\": \"{}\", \"expected\": \"{:#018x}\", \
         \"actual\": \"{:#018x}\", \"match\": {}}}",
        json_escape(&sc.chip.name),
        config.method,
        expect,
        actual,
        ok
    );
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("cds-cli: checksum mismatch — the route diverged from the recorded golden");
        Ok(ExitCode::FAILURE)
    }
}

// -------------------------------------------------------------- harvest

fn harvest(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, ROUTE_FLAGS, ROUTE_SWITCHES)?;
    let mut doc = load_doc(flags.positional()?)?;
    let mut config = build_config(&doc.config, &flags)?;
    config.harvest = true;
    let chip = doc.build_chip();
    let out = Router::new(&chip, config).run();
    doc.weights.clear();
    doc.budgets.clear();
    for h in &out.harvest {
        doc.weights.push((h.net, h.weights.clone()));
        // budgets are empty before the first STA (1-iteration runs)
        if !h.budgets.is_empty() {
            doc.budgets.push((h.net, h.budgets.clone()));
        }
    }
    emit(flags.get("o"), &chip_doc_to_string(&doc).map_err(|e| e.to_string())?)?;
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------- fixtures

/// The 120-request heterogeneous solver stream pinned by
/// `tests/determinism.rs` (`stream_results_match_sparse_era_golden`),
/// split per grid: requests `i ≡ gi (mod 3)` land on grid `gi`, so a
/// round-robin over the three documents reconstructs stream order.
fn stream_requests(gi: usize, nx: u32, ny: u32, nl: u8) -> Vec<RequestRecord> {
    (0..120u64)
        .filter(|i| (i % 3) as usize == gi)
        .map(|i| {
            let k = 1 + (i % 7) as u32;
            let sinks: Vec<(u32, u32, u8)> = (0..k)
                .map(|j| {
                    (
                        (3 + i as u32 * 5 + j * 11) % nx,
                        (1 + i as u32 * 3 + j * 7) % ny,
                        (j as u8 % nl).min(1),
                    )
                })
                .collect();
            let weights: Vec<f64> =
                (0..k).map(|j| 0.05 + (j as f64) * 0.4 + (i % 3) as f64).collect();
            let (dbif, eta) = if i % 2 == 0 { (0.0, 0.5) } else { (3.0 + (i % 5) as f64, 0.25) };
            RequestRecord { seed: i * 31 + 7, dbif, eta, root: (0, 0, 0), sinks, weights }
        })
        .collect()
}

fn stream_doc(gi: usize, nx: u32, ny: u32, nl: u8) -> Result<String, String> {
    let doc = ChipDoc {
        name: format!("stream-{nx}x{ny}"),
        tech_layers: 2,
        cell_delay_ps: 18.0,
        config: Vec::new(),
        grid: cds_graph::GridSpec::uniform(nx, ny, nl),
        ecap: Vec::new(),
        nets: Vec::new(),
        chains: Vec::new(),
        weights: Vec::new(),
        budgets: Vec::new(),
        requests: stream_requests(gi, nx, ny, nl),
        state: None,
    };
    chip_doc_to_string(&doc).map_err(|e| e.to_string())
}

fn fixtures(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[], &[])?;
    let dir = std::path::PathBuf::from(flags.positional()?.unwrap_or("tests/fixtures"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| -> Result<(), String> {
        // `dir` came from a `String`, so the lossy view is exact
        let path = dir.join(name);
        write_atomic(&path.to_string_lossy(), text.as_bytes())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    };
    for preset in ["converging", "congested", "fanout_heavy"] {
        let doc =
            ChipDoc::from_chip(&preset_spec(preset)?.generate()).map_err(|e| e.to_string())?;
        write(&format!("{preset}.cdst"), &chip_doc_to_string(&doc).map_err(|e| e.to_string())?)?;
    }
    // the fanout-heavy golden: CD oracle, 3 iterations (what the
    // chipdoc fixture suite re-routes and compares)
    let fanout = preset_spec("fanout_heavy")?.generate();
    let out = Router::new(&fanout, RouterConfig { iterations: 3, ..RouterConfig::default() }).run();
    write("fanout_heavy_cd.expect", &format!("{:#018x}\n", out.checksum()))?;
    for (gi, (nx, ny, nl)) in [(8u32, 8u32, 2u8), (12, 9, 3), (15, 15, 2)].into_iter().enumerate() {
        write(&format!("stream_{nx}x{ny}.cdst"), &stream_doc(gi, nx, ny, nl)?)?;
    }
    // the CI smoke golden: default config, CD oracle
    let chip = preset_spec("smoke")?.generate();
    let out = Router::new(&chip, RouterConfig::default()).run();
    write("smoke_cd.expect", &format!("{:#018x}\n", out.checksum()))?;
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------- submit/loadtest

/// Reads the raw document text (the server does its own parsing, so
/// submissions travel as-is rather than through a local `ChipDoc`).
fn load_doc_text(path: Option<&str>) -> Result<String, String> {
    match path {
        None | Some("-") => {
            let mut text = String::new();
            std::io::stdin()
                .lock()
                .read_to_string(&mut text)
                .map_err(|e| format!("<stdin>: {e}"))?;
            Ok(text)
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")),
    }
}

/// Maps the route flags onto a `/jobs` query string, preserving
/// command-line order — the server applies query overrides in order,
/// so layering matches a local `cds-cli route` exactly.
fn query_from_flags(flags: &Flags) -> Result<String, String> {
    let pairs = knob_overrides(flags)?;
    if pairs.is_empty() {
        return Ok(String::new());
    }
    let encoded: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}={}", percent_encode(k), percent_encode(v))).collect();
    Ok(format!("?{}", encoded.join("&")))
}

fn poll_interval(flags: &Flags) -> Result<Duration, String> {
    Ok(Duration::from_millis(flags.num::<u64>("poll-ms")?.unwrap_or(20)))
}

const SUBMIT_FLAGS: &[&[&str]] = &[KNOB_FLAGS, &["addr", "poll-ms"]];

fn submit(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, SUBMIT_FLAGS, ROUTE_SWITCHES)?;
    let addr = flags.get("addr").ok_or("submit needs --addr HOST:PORT")?;
    let doc = load_doc_text(flags.positional()?)?;
    let query = query_from_flags(&flags)?;
    let res = cds_serve::submit_and_wait(addr, &doc, &query, poll_interval(&flags)?)?;
    println!("{}", res.result_json);
    eprintln!(
        "cds-cli: job {} {} cached={} latency={:.3}s",
        res.job, res.state, res.cached, res.latency_s
    );
    Ok(if res.state == "done" { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

const LOADTEST_FLAGS: &[&[&str]] =
    &[KNOB_FLAGS, &["addr", "poll-ms", "clients", "requests", "expect", "min-cache-hits"]];
const LOADTEST_SWITCHES: &[&str] = &["shutdown"];

fn loadtest(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, LOADTEST_FLAGS, LOADTEST_SWITCHES)?;
    let addr = flags.get("addr").ok_or("loadtest needs --addr HOST:PORT")?;
    if flags.positionals.is_empty() {
        return Err("loadtest needs at least one document file".into());
    }
    let mut docs = Vec::with_capacity(flags.positionals.len());
    for p in &flags.positionals {
        docs.push(load_doc_text(Some(p))?);
    }
    let clients = flags.num::<usize>("clients")?.unwrap_or(4);
    let requests = flags.num::<usize>("requests")?.unwrap_or(4);
    let query = query_from_flags(&flags)?;
    let report =
        cds_serve::loadtest(addr, &docs, clients, requests, &query, poll_interval(&flags)?);
    println!("{}", cds_serve::loadtest_json(&report));
    let mut failed = Vec::new();
    if report.failures > 0 {
        failed.push(format!("{} submissions failed", report.failures));
    }
    if let Some(expect) = flags.get("expect") {
        let want = format!("{:#018x}", parse_checksum(expect)?);
        if report.checksums != vec![want.clone()] {
            failed.push(format!("checksums {:?} != [{want}]", report.checksums));
        }
    }
    if let Some(min) = flags.num::<usize>("min-cache-hits")? {
        if report.cache_hits < min {
            failed.push(format!("cache hits {} < required {min}", report.cache_hits));
        }
    }
    if flags.get("shutdown").is_some() {
        let resp = cds_serve::client::request(addr, "POST", "/shutdown", b"")?;
        if resp.status != 200 {
            failed.push(format!("shutdown: HTTP {}", resp.status));
        }
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("cds-cli: loadtest failed: {}", failed.join("; "));
        Ok(ExitCode::FAILURE)
    }
}

// ----------------------------------------------------------------- misc

fn emit(path: Option<&str>, text: &str) -> Result<(), String> {
    match path {
        None | Some("-") => {
            std::io::stdout().write_all(text.as_bytes()).map_err(|e| format!("stdout: {e}"))
        }
        Some(p) => write_atomic(p, text.as_bytes()),
    }
}

/// Replaces the file at `path` with `bytes` so that a reader — or a
/// `--resume` after a kill or a full disk mid-write — sees the complete
/// old contents or the complete new ones, never a torn file: the bytes
/// go to a sibling temp file (same directory, hence same filesystem),
/// are synced, and only then renamed over `path`. An existing target
/// that is not a regular file (`/dev/stdout`, a FIFO) is written in
/// place — renaming over it would replace the device node.
fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), String> {
    let target = std::path::Path::new(path);
    if target.metadata().is_ok_and(|m| !m.is_file()) {
        return std::fs::write(target, bytes).map_err(|e| format!("{path}: {e}"));
    }
    let tmp = std::path::PathBuf::from(format!("{path}.tmp{}", std::process::id()));
    let replace = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, target)
    };
    replace().map_err(|e| {
        // best effort: the write already failed, and that is the error
        // worth reporting
        let _ = std::fs::remove_file(&tmp);
        format!("{path}: {e}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_whole_files_and_a_failed_write_keeps_the_old_one() {
        let dir = std::env::temp_dir().join(format!("cds-cli-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.cdst");
        let path = path.to_str().unwrap();
        write_atomic(path, b"first").unwrap();
        write_atomic(path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(path).unwrap(), b"second, longer");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "a temp sibling was left behind");

        // the temp file cannot be created: the checkpoint that stood
        // there is untouched and the error names the target
        let blocker = format!("{path}.tmp{}", std::process::id());
        std::fs::create_dir(&blocker).unwrap();
        let err = write_atomic(path, b"third").unwrap_err();
        assert!(err.starts_with(path), "{err}");
        assert_eq!(std::fs::read(path).unwrap(), b"second, longer");

        // so does a target whose directory is gone
        std::fs::remove_dir_all(&dir).unwrap();
        let err = write_atomic(path, b"fourth").unwrap_err();
        assert!(err.starts_with(path), "{err}");
    }

    #[test]
    fn a_local_route_and_a_submission_resolve_the_same_config() {
        // `route` replays the flag line through set_knob; `submit`
        // sends it as a query string the daemon decodes and replays.
        // Both orders of an overriding pair, and a value that needs
        // percent-encoding.
        for line in [
            "--set iterations=3 --price-tol 0.25 --iterations 9 --set shards=4 --oracle sl",
            "--iterations 9 --set price_tol=0.5 --price-tol 0.25 --set iterations=3 --seed 7",
            "--set weight_tau_ps=1e+3 --threads 2 --incremental false",
        ] {
            let args: Vec<String> = line.split(' ').map(String::from).collect();
            let flags = Flags::parse(&args, ROUTE_FLAGS, ROUTE_SWITCHES).unwrap();
            let local = build_config(&[], &flags).unwrap();

            let request =
                format!("POST /jobs{} HTTP/1.1\r\n\r\n", query_from_flags(&flags).unwrap());
            let decoded = cds_serve::http::parse_request(&mut request.as_bytes(), 0).unwrap().query;
            let mut remote = RouterConfig::default();
            for (k, v) in &decoded {
                remote.set_knob(k, v).unwrap_or_else(|e| panic!("{k}={v}: {e}"));
            }
            assert_eq!(format!("{local:?}"), format!("{remote:?}"), "{line}");
            assert_ne!(format!("{local:?}"), format!("{:?}", RouterConfig::default()), "{line}");
        }
    }
}
