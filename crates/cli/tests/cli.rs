//! Process-level tests of the `cds-cli` binary: the gen → route →
//! verify → harvest pipeline, stdin documents, exit codes, and error
//! reporting.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cds-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{cmd:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = json.find(&pat).unwrap_or_else(|| panic!("no {key} in {json}")) + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}']).unwrap();
    rest[..end].trim().trim_matches('"')
}

#[test]
fn gen_route_verify_pipeline() {
    let doc = tmp("pipeline.cdst");
    run_ok(
        bin()
            .args(["gen", "--preset", "small", "--nets", "25", "--seed", "9"])
            .args(["-o", doc.to_str().unwrap()]),
    );
    let json = run_ok(bin().args([
        "route",
        doc.to_str().unwrap(),
        "--oracle",
        "cd",
        "--iterations",
        "2",
        "--threads",
        "2",
    ]));
    assert_eq!(json_field(&json, "nets"), "25");
    assert_eq!(json_field(&json, "oracle"), "CD");
    // the stats block surfaces per-iteration wall clock and the peak
    // forest-arena footprint
    let walls = json_field(&json, "iter_wall_s");
    assert!(!walls.is_empty(), "no iter_wall_s in: {json}");
    let peak: u64 = json_field(&json, "peak_arena_bytes").parse().unwrap();
    assert!(peak > 0, "peak_arena_bytes missing or zero in: {json}");
    let checksum = json_field(&json, "checksum").to_string();
    assert!(checksum.starts_with("0x") && checksum.len() == 18, "{checksum}");

    // verify against the checksum route just reported: must match
    let ok = bin()
        .args(["verify", doc.to_str().unwrap(), "--oracle", "cd", "--iterations", "2"])
        .args(["--expect", &checksum])
        .output()
        .unwrap();
    assert!(ok.status.success(), "verify rejected its own checksum");

    // and a wrong golden must exit 1 with match: false
    let bad = bin()
        .args(["verify", doc.to_str().unwrap(), "--oracle", "cd", "--iterations", "2"])
        .args(["--expect", "0x1"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("\"match\": false"));
}

fn pipe_stdin(cmd: &mut Command, input: &str) -> Output {
    let mut child =
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn route_reads_document_from_stdin() {
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "20"]));
    let out = pipe_stdin(bin().args(["route", "-", "--iterations", "1"]), &doc);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json_field(&json, "nets"), "20");
}

#[test]
fn document_config_records_apply_and_cli_flags_override() {
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "20"]));
    // config records belong to the preamble: splice them in after the
    // celldelay line
    let mut lines: Vec<&str> = doc.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("celldelay")).unwrap() + 1;
    lines.insert(at, "config oracle l1");
    lines.insert(at + 1, "config iterations 1");
    let with_config = format!("{}\n", lines.join("\n"));
    let out = pipe_stdin(bin().args(["route", "-"]), &with_config);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json_field(&json, "oracle"), "L1", "document config record ignored");
    assert_eq!(json_field(&json, "iterations"), "1");

    // CLI flag beats the document record
    let out = pipe_stdin(bin().args(["route", "-", "--oracle", "pd"]), &with_config);
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json_field(&json, "oracle"), "PD", "CLI flag lost to document config");
}

#[test]
fn harvest_emits_the_instance_archive() {
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "30", "--seed", "3"]));
    // full-reroute mode: the final iteration re-routes every net with
    // STA-derived budgets, so every harvested instance carries both
    let out = pipe_stdin(
        bin().args(["harvest", "-", "--iterations", "2", "--incremental", "false"]),
        &doc,
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let archive = String::from_utf8(out.stdout).unwrap();
    let weights = archive.lines().filter(|l| l.starts_with("weights ")).count();
    let budgets = archive.lines().filter(|l| l.starts_with("budgets ")).count();
    assert!(weights > 0, "no weights records in the harvest archive");
    assert_eq!(weights, budgets, "full-reroute harvests carry budgets for every instance");

    // incremental mode: clean nets keep their iteration-0 route, whose
    // budgets were empty (routing preceded the first STA) — the archive
    // reports exactly the inputs each kept route was produced with
    let out = pipe_stdin(bin().args(["harvest", "-", "--iterations", "2"]), &doc);
    let archive_inc = String::from_utf8(out.stdout).unwrap();
    let weights_inc = archive_inc.lines().filter(|l| l.starts_with("weights ")).count();
    let budgets_inc = archive_inc.lines().filter(|l| l.starts_with("budgets ")).count();
    assert_eq!(weights_inc, weights, "every instance still reports its weights");
    assert!(budgets_inc < weights_inc, "some kept route should predate the first budgets");
    // the archive is itself a valid document: routing it still works
    let rerun = pipe_stdin(bin().args(["route", "-", "--iterations", "1"]), &archive);
    assert!(rerun.status.success(), "{}", String::from_utf8_lossy(&rerun.stderr));
}

#[test]
fn malformed_documents_exit_2_with_line_numbers() {
    let out = pipe_stdin(bin().args(["route", "-"]), "cdst/1\nbogus record\n");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr lacks the line number: {err}");

    let out = bin().args(["route", "/nonexistent/chip.cdst"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_rejected_instead_of_swallowing_arguments() {
    // Regression: a misspelled flag used to consume the next argument
    // as its value and route with silently-wrong configuration (or
    // hang on stdin after eating the document path).
    let out = bin().args(["route", "x.cdst", "--itrations", "3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --itrations"));

    // the switch of the deleted materialized-window backend is gone,
    // not ignored
    let out = bin().args(["route", "--materialize", "x.cdst"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --materialize"));

    let out = bin().args(["gen", "--nest", "9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_knobs_exit_2_naming_the_knob_instead_of_panicking() {
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "12"]));
    // Regression: a NaN temperature passed `set_knob` and then tripped
    // the solver's `negative delay weight` assert in the first net.
    let out = pipe_stdin(bin().args(["route", "-", "--set", "weight_tau_ps=nan"]), &doc);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad value nan for weight_tau_ps"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // Regression: zero iterations exited 0 with an unrouted chip's
    // metrics and a checksum.
    let out = pipe_stdin(bin().args(["route", "-", "--iterations", "0"]), &doc);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad value 0 for iterations (want an integer >= 1)"), "{err}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));

    // the knobs of the deleted route paths are unknown — on the command
    // line and as a document `config` record alike
    let out = pipe_stdin(bin().args(["route", "-", "--set", "queue=heap"]), &doc);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown router knob queue"));
    let mut lines: Vec<&str> = doc.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("celldelay")).unwrap() + 1;
    lines.insert(at, "config queue bucket");
    let out = pipe_stdin(bin().args(["route", "-"]), &format!("{}\n", lines.join("\n")));
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("document config record: unknown router knob queue"), "{err}");
}

#[test]
fn resume_across_incremental_modes_errors_or_works_but_never_panics() {
    let doc = tmp("resume_modes.cdst");
    run_ok(bin().args(["gen", "--preset", "small", "--nets", "15", "-o"]).arg(&doc));
    let checkpointed = |incremental: &str, cp: &PathBuf| {
        run_ok(
            bin()
                .arg("route")
                .arg(&doc)
                .args(["--iterations", "4", "--incremental", incremental])
                .args(["--set", "checkpoint_every=2", "--checkpoint"])
                .arg(cp),
        )
    };

    // Regression: a full-reroute checkpoint carries no scheduler state;
    // resuming it incrementally (the flag overrides the document's
    // `config incremental false` record) died on a slice-length panic
    // in the dirty tracker.
    let cp_full = tmp("resume_modes_full.cdst");
    let full = checkpointed("false", &cp_full);
    let out = bin()
        .arg("route")
        .arg(&cp_full)
        .args(["--resume", "--incremental", "true"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("written by an incremental=false run"), "{err}");
    assert!(err.contains("--incremental false"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // resumed in its own mode it lands on the uninterrupted checksum
    let resumed = run_ok(bin().arg("route").arg(&cp_full).arg("--resume"));
    assert_eq!(json_field(&resumed, "checksum"), json_field(&full, "checksum"));

    // the mirror direction is well defined (the scheduler state is
    // simply not read) and keeps working
    let cp_inc = tmp("resume_modes_inc.cdst");
    checkpointed("true", &cp_inc);
    run_ok(bin().arg("route").arg(&cp_inc).args(["--resume", "--incremental", "false"]));
}

#[test]
fn every_checkpoint_overwrite_leaves_a_complete_resumable_document() {
    let dir = tmp("atomic_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (doc, cp) = (dir.join("chip.cdst"), dir.join("cp.cdst"));
    run_ok(bin().args(["gen", "--preset", "small", "--nets", "15", "-o"]).arg(&doc));
    // four checkpoints, each replacing the last
    let full = run_ok(
        bin()
            .arg("route")
            .arg(&doc)
            .args(["--iterations", "5", "--set", "checkpoint_every=1", "--checkpoint"])
            .arg(&cp),
    );
    let mut left: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    left.sort();
    assert_eq!(left, ["chip.cdst", "cp.cdst"], "a temp sibling was left behind");
    let resumed = run_ok(bin().arg("route").arg(&cp).arg("--resume"));
    assert_eq!(json_field(&resumed, "checksum"), json_field(&full, "checksum"));
    assert_eq!(json_field(&resumed, "iterations_completed"), "5");
}

#[test]
fn checkpoints_from_before_batch_was_removed_still_resume() {
    let (doc, cp) = (tmp("batch_false.cdst"), tmp("batch_false_cp.cdst"));
    run_ok(bin().args(["gen", "--preset", "small", "--nets", "15", "-o"]).arg(&doc));
    let full = run_ok(
        bin()
            .arg("route")
            .arg(&doc)
            .args(["--iterations", "4", "--set", "checkpoint_every=2", "--checkpoint"])
            .arg(&cp),
    );
    // checkpoints written while batched search existed carried every
    // knob, `batch false` among them, between `recount_every` and `shards`
    let text = std::fs::read_to_string(&cp).unwrap();
    assert!(!text.contains("config batch"), "records() still emits the removed knob");
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("config shards")).unwrap();
    lines.insert(at, "config batch false");
    let old = format!("{}\n", lines.join("\n"));
    let resumed = pipe_stdin(bin().args(["route", "-", "--resume"]), &old);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let resumed = String::from_utf8(resumed.stdout).unwrap();
    assert_eq!(json_field(&resumed, "checksum"), json_field(&full, "checksum"));

    // turning the removed search on is an error naming the knob
    let out = bin().arg("route").arg(&doc).args(["--set", "batch=on"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("batch") && err.contains("removed"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn config_flags_apply_in_command_line_order() {
    // Regression: --set pairs used to apply after all dedicated flags
    // regardless of position, so a later dedicated flag could not
    // override an earlier --set.
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "15"]));
    let later_flag =
        pipe_stdin(bin().args(["route", "-", "--set", "iterations=3", "--iterations", "1"]), &doc);
    let json = String::from_utf8(later_flag.stdout).unwrap();
    assert_eq!(json_field(&json, "iterations"), "1", "later --iterations lost to earlier --set");
    let later_set =
        pipe_stdin(bin().args(["route", "-", "--iterations", "3", "--set", "iterations=1"]), &doc);
    let json = String::from_utf8(later_set.stdout).unwrap();
    assert_eq!(json_field(&json, "iterations"), "1", "later --set lost to earlier --iterations");
}

#[test]
fn chip_names_are_json_escaped() {
    // `"` and `\` are legal in cdst/1 name tokens; the JSON output
    // must escape them
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "12", "--name", "a\"b\\c"]));
    let out = pipe_stdin(bin().args(["route", "-", "--iterations", "1"]), &doc);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"chip\": \"a\\\"b\\\\c\""), "unescaped name in: {json}");
}

#[test]
fn fanout_heavy_preset_generates_and_routes() {
    let doc = run_ok(bin().args(["gen", "--preset", "fanout_heavy"]));
    assert!(doc.contains("chip fanout_heavy\n"));
    // every net record carries ≥ 30 sinks: `net x y : s...` has one
    // (x,y) pair per sink after the colon
    let wide = doc
        .lines()
        .filter(|l| l.starts_with("net "))
        .all(|l| l.split(':').nth(1).map_or(0, |s| s.split_whitespace().count()) >= 60);
    assert!(wide, "fanout_heavy preset emitted a low-fanout net");
    let out = pipe_stdin(bin().args(["route", "-", "--iterations", "1"]), &doc);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json_field(&json, "nets"), "24");
}

#[test]
fn route_json_reports_run_level_totals() {
    let doc = run_ok(bin().args(["gen", "--preset", "small", "--nets", "20"]));
    let out = pipe_stdin(bin().args(["route", "-", "--iterations", "2"]), &doc);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"totals\": {"), "no totals block in: {json}");
    let wall: f64 = json_field(&json, "wall_s").parse().unwrap();
    let route_wall: f64 = json_field(&json, "route_wall_s").parse().unwrap();
    assert!(wall > 0.0 && route_wall > 0.0, "zero totals in: {json}");
    assert!(route_wall <= wall, "the routing loop cannot exceed the whole run");
    assert_eq!(json_field(&json, "iterations_completed"), "2");
    assert_eq!(json_field(&json, "cancelled"), "false");
}

// ------------------------------------------------------ service clients
//
// These spin up an in-process `cds-serve` daemon (the crate is a
// dependency of this package) and drive it with the spawned binary —
// real HTTP over loopback, real process boundaries.

fn fixture_path(name: &str) -> String {
    format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Zeroes the wall-clock/arena fields — the only JSON fields that may
/// differ between a local route and the same route through the daemon.
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
fn submit_returns_the_same_json_as_a_local_route() {
    let handle = cds_serve::Server::start(cds_serve::ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let fixture = fixture_path("fanout_heavy.cdst");
    let local = run_ok(bin().args(["route", &fixture, "--iterations", "3"]));
    let via_http = run_ok(bin().args(["submit", &fixture, "--addr", &addr, "--iterations", "3"]));
    assert_eq!(
        normalize(&via_http),
        normalize(&local),
        "the daemon's result JSON drifted from cds-cli route"
    );
    // and both match the golden this fixture was pinned at
    let pin = std::fs::read_to_string(fixture_path("fanout_heavy_cd.expect")).unwrap();
    assert_eq!(json_field(&via_http, "checksum"), pin.trim());
    handle.shutdown();
}

#[test]
fn loadtest_replays_a_fixture_and_reports_cache_hits() {
    let handle = cds_serve::Server::start(cds_serve::ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let doc = tmp("loadtest_smoke.cdst");
    run_ok(bin().args(["gen", "--preset", "smoke", "-o", doc.to_str().unwrap()]));
    let pin = std::fs::read_to_string(fixture_path("smoke_cd.expect")).unwrap();
    // 2 clients × 2 requests of one document: at most two can race the
    // first (cold) route, so at least two must be served by the cache
    let json = run_ok(
        bin()
            .args(["loadtest", doc.to_str().unwrap(), "--addr", &addr])
            .args(["--clients", "2", "--requests", "2"])
            .args(["--expect", pin.trim(), "--min-cache-hits", "2", "--shutdown"]),
    );
    assert_eq!(json_field(&json, "jobs"), "4");
    assert_eq!(json_field(&json, "failures"), "0");
    let hits: usize = json_field(&json, "cache_hits").parse().unwrap();
    assert!(hits >= 2, "expected ≥2 cache hits, got {hits}: {json}");
    // --shutdown posted the drain; the daemon must come down cleanly
    let report = handle.wait();
    assert!(report.done >= 1 && report.failed == 0, "{report:?}");

    // a wrong golden must flip the exit code — this is the CI gate
    let handle = cds_serve::Server::start(cds_serve::ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let out = bin()
        .args(["loadtest", doc.to_str().unwrap(), "--addr", &addr])
        .args(["--clients", "1", "--requests", "1", "--expect", "0x1", "--shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "loadtest accepted a wrong checksum");
    handle.wait();
}

#[test]
fn gen_is_deterministic_and_respects_overrides() {
    let a = run_ok(bin().args(["gen", "--preset", "congested", "--name", "x"]));
    let b = run_ok(bin().args(["gen", "--preset", "congested", "--name", "x"]));
    assert_eq!(a, b, "gen is not deterministic");
    assert!(a.contains("chip x\n"));
    let c = run_ok(bin().args(["gen", "--nets", "17", "--layers", "5"]));
    assert!(c.contains("# chip document: 17 nets"));
    assert!(c.contains(" 5 "), "layer override ignored");
}
