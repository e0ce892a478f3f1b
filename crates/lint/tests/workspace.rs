//! Acceptance tests against the real workspace: the tree is lint-clean
//! with the checked-in `lint.toml`, every allowlist entry is
//! load-bearing (deleting any one of them fails the run), and a
//! reintroduced representative violation is caught. These are the
//! guarantees CI relies on when it runs `cds-lint --workspace`.

use cds_lint::{parse_config, run_config, AllowEntry, LintConfig, LintReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root exists")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir).expect("readable dir").map(|e| e.expect("dir entry").path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Loads every `crates/*/src/**/*.rs` as (repo-relative path, contents),
/// mirroring what the `cds-lint --workspace` binary feeds `run_config`.
fn workspace_files() -> Vec<(String, String)> {
    let root = repo_root();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let mut paths = Vec::new();
        collect_rs(&dir.join("src"), &mut paths);
        for p in paths {
            let rel =
                p.strip_prefix(&root).expect("under root").to_string_lossy().replace('\\', "/");
            files.push((rel, fs::read_to_string(&p).expect("readable source file")));
        }
    }
    assert!(files.len() > 40, "workspace walk found only {} files", files.len());
    files
}

fn checked_in_config() -> LintConfig {
    let text = fs::read_to_string(repo_root().join("lint.toml")).expect("lint.toml exists");
    let config = parse_config(&text).expect("checked-in lint.toml parses");
    // like the binary's workspace scan: every solve-path entry point
    // must exist
    LintConfig { whole_workspace: true, ..config }
}

fn describe(report: &LintReport) -> String {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} {} [{}]", f.path, f.line, f.col, f.token, f.rule))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_workspace_is_lint_clean_under_the_checked_in_allowlist() {
    let report = run_config(&workspace_files(), &checked_in_config());
    assert!(report.clean(), "unexpected findings:\n{}", describe(&report));
    assert!(report.stale.is_empty(), "stale allowlist entries: {:?}", report.stale);
    assert!(report.stale_hot.is_empty(), "stale hot entries: {:?}", report.stale_hot);
    assert!(!report.suppressed.is_empty(), "the allowlist should be doing real work");
    assert!(!report.findings.iter().any(|_| true), "{}", describe(&report));
}

#[test]
fn every_allowlist_entry_is_load_bearing() {
    let files = workspace_files();
    let config = checked_in_config();
    for drop in 0..config.allow.len() {
        let pruned = LintConfig {
            allow: config
                .allow
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, e)| e.clone())
                .collect(),
            ..config.clone()
        };
        let report = run_config(&files, &pruned);
        assert!(
            !report.findings.is_empty() && !report.clean(),
            "deleting lint.toml entry #{drop} ({} / {} / {:?}) suppressed nothing — it is stale",
            config.allow[drop].rule,
            config.allow[drop].path,
            config.allow[drop].pattern,
        );
    }
}

#[test]
fn a_reintroduced_hashmap_in_core_fails_the_run() {
    let mut files = workspace_files();
    files.push((
        "crates/core/src/reintroduced.rs".to_string(),
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n"
            .to_string(),
    ));
    let report = run_config(&files, &checked_in_config());
    assert!(!report.clean());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "no-hash-on-solve-path"
                && f.path == "crates/core/src/reintroduced.rs"),
        "expected a no-hash-on-solve-path finding, got:\n{}",
        describe(&report)
    );
}

#[test]
fn a_reintroduced_unwrap_in_serve_fails_the_run() {
    let mut files = workspace_files();
    files.push((
        "crates/serve/src/reintroduced.rs".to_string(),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
    ));
    let report = run_config(&files, &checked_in_config());
    assert!(report.findings.iter().any(|f| f.rule == "no-panic-in-serve"));
}

#[test]
fn an_unmatched_allowlist_entry_is_reported_stale() {
    let mut config = checked_in_config();
    config.allow.push(AllowEntry {
        rule: "no-hash-on-solve-path".to_string(),
        path: "crates/core/src/nonexistent.rs".to_string(),
        pattern: String::new(),
        reason: "bogus entry that can never match".to_string(),
        line: 999,
    });
    let report = run_config(&workspace_files(), &config);
    assert_eq!(report.stale, vec![config.allow.len() - 1], "exactly the bogus entry is stale");
    assert!(!report.clean(), "a stale entry must fail the run");
}

#[test]
fn a_reintroduced_panic_reachable_from_solve_into_fails_the_run() {
    // A free fn named `expand_once` shadows `State::expand_once`: the
    // conservative graph edges the solver's `self.expand_once()` method
    // call to *every* same-named def, so the uncommented `.unwrap()`
    // inside becomes a reachable panic site with no invariant comment.
    let mut files = workspace_files();
    files.push((
        "crates/core/src/reintroduced_panic.rs".to_string(),
        "pub fn expand_once(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
    ));
    let report = run_config(&files, &checked_in_config());
    assert!(
        report.findings.iter().any(|f| f.rule == "solve-path-panic-reachability"
            && f.path == "crates/core/src/reintroduced_panic.rs"
            && f.token == "unwrap"
            && !f.chain.is_empty()),
        "expected a solve-path-panic-reachability finding with a witness chain, got:\n{}",
        describe(&report)
    );
}

#[test]
fn a_reintroduced_allocation_in_a_hot_fn_fails_the_run() {
    // A second def named `BucketCore::push`: the `[[hot]]` pattern
    // matches both defs, so the planted `Vec::new()` is an allocation
    // inside the hot set.
    let mut files = workspace_files();
    files.push((
        "crates/heap/src/reintroduced_alloc.rs".to_string(),
        "pub struct BucketCore;\nimpl BucketCore {\n    pub fn push(&mut self) -> Vec<u32> { Vec::new() }\n}\n"
            .to_string(),
    ));
    let report = run_config(&files, &checked_in_config());
    assert!(
        report.findings.iter().any(|f| f.rule == "steady-state-no-alloc"
            && f.path == "crates/heap/src/reintroduced_alloc.rs"
            && f.token == "Vec::new"),
        "expected a steady-state-no-alloc finding, got:\n{}",
        describe(&report)
    );
}

#[test]
fn a_reintroduced_guard_across_blocking_io_fails_the_run() {
    // `unwrap_or_else` keeps the planted file clean under
    // no-panic-in-serve; the held `g` across `write_all` is the only
    // violation, so the finding isolates the new rule.
    let mut files = workspace_files();
    files.push((
        "crates/serve/src/reintroduced_lockio.rs".to_string(),
        "use std::io::Write;\nuse std::sync::Mutex;\npub fn f(m: &Mutex<u32>, s: &mut std::net::TcpStream) {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    let _ = s.write_all(b\"x\");\n    drop(g);\n}\n"
            .to_string(),
    ));
    let report = run_config(&files, &checked_in_config());
    assert!(
        report.findings.iter().any(|f| f.rule == "no-lock-across-blocking-io"
            && f.path == "crates/serve/src/reintroduced_lockio.rs"
            && f.token == "write_all"),
        "expected a no-lock-across-blocking-io finding, got:\n{}",
        describe(&report)
    );
}

#[test]
fn deleting_any_invariant_comment_makes_the_tree_dirty() {
    // Every `// INVARIANT:` comment outside crates/lint must be
    // load-bearing: deleting the line that starts one flips the run to
    // dirty. (The lint crate's own sources mention INVARIANT in string
    // fixtures and rationale text, which are not annotations.)
    let files = workspace_files();
    let config = checked_in_config();
    let mut checked = 0usize;
    for (fi, (path, src)) in files.iter().enumerate() {
        if path.starts_with("crates/lint/") {
            continue;
        }
        let lines: Vec<&str> = src.lines().collect();
        for (li, line) in lines.iter().enumerate() {
            if !line.trim_start().starts_with("// INVARIANT") {
                continue;
            }
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != li)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let mut mutated_files = files.clone();
            mutated_files[fi].1 = mutated;
            let report = run_config(&mutated_files, &config);
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.rule == "solve-path-panic-reachability" && &f.path == path),
                "deleting the INVARIANT comment at {path}:{} did not flip the run dirty",
                li + 1
            );
            checked += 1;
        }
    }
    assert!(checked >= 60, "only {checked} INVARIANT comments exercised — walk broken?");
}

#[test]
fn the_binary_exits_zero_on_the_real_workspace_and_one_on_a_stale_allowlist() {
    let root = repo_root();
    let ok = Command::new(env!("CARGO_BIN_EXE_cds-lint"))
        .args(["--root", root.to_str().expect("utf-8 root"), "--workspace"])
        .output()
        .expect("binary runs");
    assert!(
        ok.status.success(),
        "expected exit 0, got {:?}\n{}",
        ok.status.code(),
        String::from_utf8_lossy(&ok.stdout)
    );

    let stale = root.join("target").join(format!("stale-allow-{}.toml", std::process::id()));
    fs::write(
        &stale,
        "[[allow]]\nrule = \"no-rng-outside-instgen\"\npath = \"crates/nowhere\"\n\
         pattern = \"\"\nreason = \"x\"\n",
    )
    .expect("temp allowlist written");
    let bad = Command::new(env!("CARGO_BIN_EXE_cds-lint"))
        .args([
            "--root",
            root.to_str().expect("utf-8 root"),
            "--workspace",
            "--allowlist",
            stale.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    let _ = fs::remove_file(&stale);
    assert_eq!(bad.status.code(), Some(1), "a stale allowlist entry must exit 1");
    let out = String::from_utf8_lossy(&bad.stdout);
    assert!(out.contains("stale-allowlist-is-an-error"), "diagnostic names the rule:\n{out}");
}
