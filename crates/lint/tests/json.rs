//! Golden snapshot of the `--json` output shape, and proof that the
//! flag changes only the serialization, never the exit code.
//!
//! The snapshot is a full byte-for-byte `assert_eq!` against a fixture
//! run — if the JSON shape changes, this test's expected string is the
//! one place to update, and the diff *is* the changelog for downstream
//! consumers (CI annotators, editor plugins).

use cds_lint::json::report_json;
use cds_lint::{parse_config, run_config};
use std::path::Path;
use std::process::Command;

#[test]
fn golden_snapshot_of_a_fixture_run() {
    let config = parse_config(
        "[[allow]]\n\
         rule = \"no-hash-on-solve-path\"\n\
         path = \"crates/core/src/fixture.rs\"\n\
         pattern = \"HashSet\"\n\
         reason = \"fixture suppression\"\n\
         \n\
         [[allow]]\n\
         rule = \"no-rng-outside-instgen\"\n\
         path = \"crates/core/src/nowhere.rs\"\n\
         pattern = \"\"\n\
         reason = \"stale on purpose\"\n\
         \n\
         [[hot]]\n\
         function = \"Hot::push\"\n\
         reason = \"fixture hot fn\"\n\
         \n\
         [[hot]]\n\
         function = \"Ghost::pop\"\n\
         reason = \"stale hot entry on purpose\"\n",
    )
    .expect("fixture config parses");
    let files = vec![(
        "crates/core/src/fixture.rs".to_string(),
        "use std::collections::HashSet;\n\
             impl Solver { pub fn solve_into(&self) { helper(); } }\n\
             fn helper() { oops().unwrap(); }\n\
             fn oops() -> Option<u32> { None }\n\
             pub struct Hot;\n\
             impl Hot { pub fn push(&mut self) { let _ = vec![1u32]; } }\n"
            .to_string(),
    )];
    let report = run_config(&files, &config);
    let json = report_json(&report, &config);
    let expected = r#"{
  "files": 1,
  "clean": false,
  "findings": [
    { "rule": "solve-path-panic-reachability", "path": "crates/core/src/fixture.rs", "line": 3, "col": 22, "token": "unwrap", "rationale": "this panic site is transitively reachable (conservative name-matched call graph) from a solve entry point (Solver::solve_into, Router::run_checkpointed, or a SteinerOracle::route_into impl); add a `// INVARIANT:` comment arguing why it cannot fire, or refactor the panic away", "chain": ["Solver::solve_into", "helper"] },
    { "rule": "steady-state-no-alloc", "path": "crates/core/src/fixture.rs", "line": 6, "col": 45, "token": "vec!", "rationale": "a `[[hot]]` function in lint.toml (queue ops, relax/settle kernel, rip-up inner loop) transitively reaches an allocating constructor; steady-state routing must run allocation-free on a warm workspace", "chain": ["Hot::push"] }
  ],
  "suppressed": [
    { "rule": "no-hash-on-solve-path", "path": "crates/core/src/fixture.rs", "line": 1, "col": 23, "token": "HashSet", "rationale": "HashMap/HashSet iteration order is nondeterministic across runs; on the solve path use dense slabs, BTree maps, or an allowlist entry arguing order-independence", "chain": [], "allow_line": 1 }
  ],
  "stale_allow_lines": [7],
  "stale_hot_lines": [17]
}"#;
    assert_eq!(json, expected, "JSON snapshot drifted — update deliberately");
}

#[test]
fn the_json_flag_does_not_change_exit_codes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists");
    let run = |extra: &[&str]| {
        let mut args = vec!["--root", root.to_str().expect("utf-8 root"), "--workspace"];
        args.extend_from_slice(extra);
        Command::new(env!("CARGO_BIN_EXE_cds-lint")).args(&args).output().expect("binary runs")
    };
    let plain = run(&[]);
    let json = run(&["--json"]);
    assert_eq!(plain.status.code(), json.status.code(), "--json must not change the exit code");
    assert_eq!(json.status.code(), Some(0), "the tree is clean");
    let out = String::from_utf8_lossy(&json.stdout);
    assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'), "JSON envelope");
    assert!(out.contains("\"clean\": true"), "clean tree reported in JSON:\n{out}");
    assert!(!out.contains("cds-lint:"), "no human-readable lines mixed into --json output");
}
