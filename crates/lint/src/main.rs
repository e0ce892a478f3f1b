#![forbid(unsafe_code)]
//! `cds-lint` — the workspace's determinism & robustness lint binary.
//!
//! ```text
//! cds-lint [--workspace] [--root DIR] [--allowlist FILE] [FILES…]
//! ```
//!
//! With `--workspace` (the default when no files are given) it walks
//! every `crates/*/src/**/*.rs` under the workspace root, applies the
//! rules in [`cds_lint::RULES`], subtracts `lint.toml` suppressions,
//! and exits 1 on any unsuppressed finding or stale allowlist entry.
//! Diagnostics print `file:line:col`, the offending token, the rule,
//! and the allowlist recipe.

use cds_lint::json::report_json;
use cds_lint::{parse_config, rule, run_config, LintConfig, LintReport, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects `.rs` files under `dir` recursively, sorted for a
/// deterministic scan (and therefore deterministic diagnostics order).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The workspace scan set: every `crates/*/src/**/*.rs`, repo-relative.
fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut crates: Vec<PathBuf> = match std::fs::read_dir(root.join("crates")) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => Vec::new(),
    };
    crates.sort();
    let mut files = Vec::new();
    for krate in crates {
        collect_rs(&krate.join("src"), &mut files);
    }
    files
}

struct Args {
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    files: Vec<PathBuf>,
    list_rules: bool,
    json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { root: None, allowlist: None, files: Vec::new(), list_rules: false, json: false };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {} // the default; accepted for CI clarity
            "--list-rules" => args.list_rules = true,
            "--json" => args.json = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            "--allowlist" => {
                let v = it.next().ok_or("--allowlist needs a file")?;
                args.allowlist = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err("usage: cds-lint [--workspace] [--root DIR] [--allowlist FILE] \
                            [--list-rules] [--json] [FILES…]"
                    .into())
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

/// Repo-relative forward-slash rendering of `path` under `root`.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn print_report(report: &LintReport, config: &LintConfig) {
    for f in &report.findings {
        println!("{}:{}:{}: {}: forbidden `{}`", f.path, f.line, f.col, f.rule, f.token);
        if let Some(r) = rule(f.rule) {
            println!("  {}", r.rationale);
        }
        if !f.chain.is_empty() {
            println!("  reached via {}", f.chain.join(" -> "));
        }
        println!("  suppress with {}", f.allow_recipe());
    }
    for &i in &report.stale {
        let e = &config.allow[i];
        println!(
            "lint.toml:{}: stale-allowlist-is-an-error: entry (rule `{}`, path `{}`, pattern \
             `{}`) suppresses nothing — delete it or fix its path/pattern",
            e.line, e.rule, e.path, e.pattern
        );
    }
    for &i in &report.stale_hot {
        let e = &config.hot[i];
        println!(
            "lint.toml:{}: stale [[hot]] entry: `{}` names no known function — delete it or fix \
             the name",
            e.line, e.function
        );
    }
    for pattern in &report.missing_entries {
        println!(
            "cds-lint: solve-path-panic-reachability: entry point `{pattern}` names no known \
             function — it was renamed or deleted, and what only it reached has left the proof; \
             fix PANIC_ENTRY_PATTERNS"
        );
    }
    // per-rule counts, every rule every run, so CI logs diff cleanly
    for r in RULES {
        let found = report.findings.iter().filter(|f| f.rule == r.name).count();
        let supp = report.suppressed.iter().filter(|(f, _)| f.rule == r.name).count();
        println!("cds-lint: rule {:<32} {found} findings, {supp} suppressed", r.name);
    }
    println!(
        "cds-lint: {} files, {} findings, {} suppressed, {} stale allowlist entries, {} stale \
         hot entries, {} missing entry points",
        report.files,
        report.findings.len(),
        report.suppressed.len(),
        report.stale.len(),
        report.stale_hot.len(),
        report.missing_entries.len()
    );
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if args.list_rules {
        for r in cds_lint::RULES {
            println!("{}\n  {}", r.name, r.rationale);
        }
        return Ok(true);
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = match args.root {
        Some(r) => r,
        None => find_workspace_root(&cwd).ok_or(
            "no workspace root (Cargo.toml with [workspace]) above the current dir; \
                    pass --root",
        )?,
    };
    let whole_workspace = args.files.is_empty();
    let paths = if whole_workspace { workspace_files(&root) } else { args.files };
    if paths.is_empty() {
        return Err(format!("no .rs files under {}/crates/*/src", root.display()));
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        files.push((relative(&root, &p), text));
    }
    let allow_path = args.allowlist.unwrap_or_else(|| root.join("lint.toml"));
    let mut config = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_config(&text)?,
        Err(_) => LintConfig::default(), // no config: nothing suppressed, no hot set
    };
    config.whole_workspace = whole_workspace;
    let report = run_config(&files, &config);
    if args.json {
        println!("{}", report_json(&report, &config));
    } else {
        print_report(&report, &config);
    }
    Ok(report.clean())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("cds-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let a = parse_args(&["--workspace".into()]).expect("ok");
        assert!(a.files.is_empty() && a.root.is_none());
        let a = parse_args(&["--root".into(), "/tmp".into(), "x.rs".into()]).expect("ok");
        assert_eq!(a.root.as_deref(), Some(Path::new("/tmp")));
        assert_eq!(a.files, vec![PathBuf::from("x.rs")]);
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--root".into()]).is_err());
    }

    #[test]
    fn relative_renders_forward_slashes() {
        let root = Path::new("/repo");
        assert_eq!(
            relative(root, Path::new("/repo/crates/core/src/lib.rs")),
            "crates/core/src/lib.rs"
        );
        assert_eq!(relative(root, Path::new("other/file.rs")), "other/file.rs");
    }
}
