#![forbid(unsafe_code)]
//! `cds-lint` — determinism & robustness static analysis for the cdst
//! workspace.
//!
//! Every PR so far defends the determinism contract (bit-identical
//! checksums across thread counts, window backends, and queue
//! implementations) *dynamically*: goldens, proptests, release sweeps.
//! This crate enforces it *statically*, so a violation is caught at the
//! source line that introduces it instead of surfacing later as an
//! unexplained golden drift. Zero dependencies, hand-rolled lexer
//! ([`lexer`]) — the environment is offline, so no `syn`.
//!
//! # Rules
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `no-hash-on-solve-path` | `core`, `heap`, `graph`, `topo`, `router` | `HashMap` / `HashSet` outside `#[cfg(test)]` — iteration order is the #1 nondeterminism hazard |
//! | `no-wall-clock-on-solve-path` | every crate | `Instant::now` / `SystemTime` outside allowlisted observability sites |
//! | `no-rng-outside-instgen` | every crate but `instgen` | `rand` / `Rng` / `StdRng` / `SeedableRng` outside tests |
//! | `unsafe-needs-safety-comment` | every crate | an `unsafe` token not preceded by a `// SAFETY:` comment |
//! | `no-panic-in-serve` | `serve` | `unwrap()` / `expect(` / `panic!` / `todo!` outside tests — a request-path panic must be a mapped error response |
//! | `solve-path-panic-reachability` | whole workspace | a panic site transitively reachable (conservative call graph, [`callgraph`]) from `Solver::solve_into` / `Router::run_checkpointed` / any `route_into` without an argued `// INVARIANT:` comment |
//! | `steady-state-no-alloc` | whole workspace | an allocating constructor transitively reachable from a `[[hot]]` function listed in `lint.toml` |
//! | `no-lock-across-blocking-io` | `serve` | a Mutex/Condvar guard live across a blocking `read`/`write`/`accept` in the same block |
//!
//! # Allowlist
//!
//! Suppressions live in a checked-in `lint.toml` at the workspace root:
//!
//! ```toml
//! [[allow]]
//! rule = "no-rng-outside-instgen"
//! path = "crates/core/src/solver.rs"
//! pattern = "Rng"
//! reason = "seeded StdRng per request; part of the paper's §II algorithm"
//! ```
//!
//! `path` is a prefix of the repo-relative file path, `pattern` a
//! substring of the offending token (empty matches any token of the
//! rule), and `reason` is mandatory and non-empty. **A stale entry —
//! one that suppresses nothing — fails the run** (rule
//! `stale-allowlist-is-an-error`), so the allowlist cannot rot: delete
//! the code and the lint forces you to delete its excuse.
//!
//! # Exit status
//!
//! The `cds-lint` binary exits 1 on any unsuppressed finding, stale
//! allowlist entry, or malformed allowlist; 0 on a clean workspace.

pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod parser;

use callgraph::CallGraph;
use lexer::{lex, line_col, Token, TokenKind};
use parser::FileModel;

/// A named rule: identifier, scope note, and the rationale printed
/// under each finding.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Stable rule name, as referenced by `lint.toml`.
    pub name: &'static str,
    /// One-line rationale shown with each finding.
    pub rationale: &'static str,
}

/// Every rule the pass knows, in evaluation order.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "no-hash-on-solve-path",
        rationale: "HashMap/HashSet iteration order is nondeterministic across runs; on the \
                    solve path use dense slabs, BTree maps, or an allowlist entry arguing \
                    order-independence",
    },
    RuleDef {
        name: "no-wall-clock-on-solve-path",
        rationale: "wall-clock reads feed nondeterminism into anything they touch; only \
                    allowlisted observability sites (stats timing, serve/client latency) may \
                    read the clock",
    },
    RuleDef {
        name: "no-rng-outside-instgen",
        rationale: "randomness belongs to instance generation; anywhere else it must be a \
                    seeded, per-request RNG with an allowlist entry stating why results stay \
                    deterministic",
    },
    RuleDef {
        name: "unsafe-needs-safety-comment",
        rationale: "every unsafe block or fn must be immediately preceded by a `// SAFETY:` \
                    comment stating the invariant that makes it sound",
    },
    RuleDef {
        name: "no-panic-in-serve",
        rationale: "a panic on the serve request path kills the job instead of mapping to a \
                    4xx/500 response; return an error and let the handler map it",
    },
    RuleDef {
        name: "solve-path-panic-reachability",
        rationale: "this panic site is transitively reachable (conservative name-matched call \
                    graph) from a solve entry point (Solver::solve_into, Router::run_checkpointed, or a \
                    SteinerOracle::route_into impl); add a `// INVARIANT:` comment arguing why \
                    it cannot fire, or refactor the panic away",
    },
    RuleDef {
        name: "steady-state-no-alloc",
        rationale: "a `[[hot]]` function in lint.toml (queue ops, relax/settle kernel, rip-up \
                    inner loop) transitively reaches an allocating constructor; steady-state \
                    routing must run allocation-free on a warm workspace",
    },
    RuleDef {
        name: "no-lock-across-blocking-io",
        rationale: "a Mutex/Condvar guard is live across a blocking read/write/accept call in \
                    crates/serve: a stalled peer would hold the lock and wedge every other \
                    connection and worker; drop or scope the guard before touching the socket",
    },
];

/// Crates whose sources the hash rule covers: the deterministic solve
/// path from the kernel out to the router.
const HASH_SCOPE: &[&str] = &["core", "heap", "graph", "topo", "router"];

/// Looks up a rule by name.
#[must_use]
pub fn rule(name: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.name == name)
}

/// One violation: where, what token, which rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (see [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column (chars) of the offending token.
    pub col: u32,
    /// The offending token text (e.g. `HashMap`, `Instant::now`).
    pub token: String,
    /// For call-graph rules: the witness chain of qualified fn names
    /// from an entry point to the function containing the site. Empty
    /// for token-level rules.
    pub chain: Vec<String>,
}

impl Finding {
    /// The ready-to-paste `lint.toml` recipe for this finding.
    #[must_use]
    pub fn allow_recipe(&self) -> String {
        format!(
            "[[allow]] with rule = \"{}\", path = \"{}\", pattern = \"{}\", and a reason \
             arguing why this site cannot break determinism/robustness",
            self.rule, self.path, self.token
        )
    }
}

/// One parsed `lint.toml` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry suppresses.
    pub rule: String,
    /// Repo-relative path prefix the entry covers.
    pub path: String,
    /// Substring of the offending token; empty matches any token.
    pub pattern: String,
    /// Mandatory, non-empty justification.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: u32,
}

impl AllowEntry {
    /// Whether this entry suppresses `f`.
    #[must_use]
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule && f.path.starts_with(&self.path) && f.token.contains(&self.pattern)
    }
}

/// One parsed `[[hot]]` entry from `lint.toml`: a function that must be
/// statically allocation-free together with everything it can reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotEntry {
    /// `Owner::name` (or bare `name`) of the hot function.
    pub function: String,
    /// Mandatory, non-empty statement of why this function is hot.
    pub reason: String,
    /// 1-based line of the `[[hot]]` header, for diagnostics.
    pub line: u32,
}

/// Everything `lint.toml` configures: suppressions and the hot set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// `[[allow]]` suppressions.
    pub allow: Vec<AllowEntry>,
    /// `[[hot]]` functions for `steady-state-no-alloc`.
    pub hot: Vec<HotEntry>,
    /// The file set is the whole workspace (set by the binary's
    /// workspace scan, never by `lint.toml`): every entry point of
    /// `solve-path-panic-reachability` must then be in it, and one that
    /// matches no function fails the run — see
    /// [`LintReport::missing_entries`]. A scan of hand-picked files
    /// proves nothing about the solve path and skips the check.
    pub whole_workspace: bool,
}

/// Everything one lint run produced.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Unsuppressed violations — each one fails the run.
    pub findings: Vec<Finding>,
    /// Violations an allowlist entry covered, with the entry's index.
    pub suppressed: Vec<(Finding, usize)>,
    /// Indices of allowlist entries that matched nothing — each one
    /// fails the run (`stale-allowlist-is-an-error`).
    pub stale: Vec<usize>,
    /// Indices of `[[hot]]` entries naming no known function — stale
    /// config is an error for the same reason stale suppressions are.
    pub stale_hot: Vec<usize>,
    /// Entry-point patterns of `solve-path-panic-reachability` that
    /// name no known function in a whole-workspace scan: the entry was
    /// renamed or deleted, and everything only it reached has silently
    /// left the panic proof. Fails the run like a stale `[[hot]]` entry.
    pub missing_entries: Vec<&'static str>,
    /// Number of files scanned.
    pub files: usize,
}

impl LintReport {
    /// True when the run found nothing to complain about.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
            && self.stale.is_empty()
            && self.stale_hot.is_empty()
            && self.missing_entries.is_empty()
    }
}

/// Parses the `lint.toml` subset: `[[allow]]` and `[[hot]]` tables with
/// double-quoted string values, `#` comments.
///
/// # Errors
///
/// A message naming the 1-based line for: unknown keys or rules,
/// missing fields, an empty `reason`, or syntax outside the subset.
pub fn parse_config(text: &str) -> Result<LintConfig, String> {
    #[derive(Default)]
    struct Partial {
        is_hot: bool,
        rule: Option<String>,
        path: Option<String>,
        pattern: Option<String>,
        function: Option<String>,
        reason: Option<String>,
        line: u32,
    }
    let mut config = LintConfig::default();
    let mut cur: Option<Partial> = None;
    let finish = |p: Partial, config: &mut LintConfig| -> Result<(), String> {
        let table = if p.is_hot { "[[hot]]" } else { "[[allow]]" };
        let get = |v: Option<String>, k: &str| {
            v.ok_or_else(|| format!("lint.toml:{}: {table} entry is missing `{k}`", p.line))
        };
        let reason = get(p.reason.clone(), "reason")?;
        if reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{}: empty `reason` — every entry must say why it is sound",
                p.line
            ));
        }
        if p.is_hot {
            config.hot.push(HotEntry {
                function: get(p.function.clone(), "function")?,
                reason,
                line: p.line,
            });
            return Ok(());
        }
        let entry = AllowEntry {
            rule: get(p.rule.clone(), "rule")?,
            path: get(p.path.clone(), "path")?,
            pattern: get(p.pattern.clone(), "pattern")?,
            reason,
            line: p.line,
        };
        if rule(&entry.rule).is_none() {
            return Err(format!(
                "lint.toml:{}: unknown rule `{}` (known: {})",
                p.line,
                entry.rule,
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ));
        }
        config.allow.push(entry);
        Ok(())
    };
    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" || line == "[[hot]]" {
            if let Some(p) = cur.take() {
                finish(p, &mut config)?;
            }
            cur = Some(Partial { is_hot: line == "[[hot]]", line: lineno, ..Partial::default() });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "lint.toml:{lineno}: expected `key = \"value\"`, [[allow]], or [[hot]]"
            ));
        };
        let value = parse_toml_string(value.trim())
            .ok_or_else(|| format!("lint.toml:{lineno}: value must be a double-quoted string"))?;
        let Some(p) = cur.as_mut() else {
            return Err(format!("lint.toml:{lineno}: key outside an [[allow]]/[[hot]] table"));
        };
        let slot = match (key.trim(), p.is_hot) {
            ("rule", false) => &mut p.rule,
            ("path", false) => &mut p.path,
            ("pattern", false) => &mut p.pattern,
            ("function", true) => &mut p.function,
            ("reason", _) => &mut p.reason,
            (other, is_hot) => {
                let expected = if is_hot { "function/reason" } else { "rule/path/pattern/reason" };
                return Err(format!(
                    "lint.toml:{lineno}: unknown key `{other}` (expected {expected})"
                ));
            }
        };
        if slot.replace(value).is_some() {
            return Err(format!("lint.toml:{lineno}: duplicate key `{}`", key.trim()));
        }
    }
    if let Some(p) = cur.take() {
        finish(p, &mut config)?;
    }
    Ok(config)
}

/// A double-quoted TOML basic string with `\"` and `\\` escapes.
fn parse_toml_string(v: &str) -> Option<String> {
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return None; // unescaped quote: not a single string
        }
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Byte spans of `#[cfg(test)]`-gated code (attribute through the end
/// of the item it gates), plus everything after a `#![cfg(test)]` inner
/// attribute. Tracks item extent by brace depth on the token stream, so
/// strings and comments containing braces cannot confuse it.
#[must_use]
pub fn test_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let text = |t: &Token| t.text(src);
    let is_punct =
        |i: usize, c: &str| sig.get(i).is_some_and(|t| t.kind == TokenKind::Punct && text(t) == c);
    // index of the token matching the opener at `open` over (`open_c`, `close_c`)
    let matching = |open: usize, open_c: &str, close_c: &str| -> Option<usize> {
        let mut depth = 0i64;
        for (j, t) in sig.iter().enumerate().skip(open) {
            if t.kind == TokenKind::Punct {
                let s = text(t);
                if s == open_c {
                    depth += 1;
                } else if s == close_c {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
            }
        }
        None
    };
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if !is_punct(i, "#") {
            i += 1;
            continue;
        }
        let inner = is_punct(i + 1, "!");
        let open = if inner { i + 2 } else { i + 1 };
        if !is_punct(open, "[") {
            i += 1;
            continue;
        }
        let Some(close) = matching(open, "[", "]") else {
            break; // unbalanced brackets: stop rather than guess
        };
        let attr = &sig[open + 1..close];
        let first_ident = attr.iter().find(|t| t.kind == TokenKind::Ident);
        let gates_test = first_ident.is_some_and(|t| text(t) == "cfg")
            && attr.iter().any(|t| t.kind == TokenKind::Ident && text(t) == "test");
        if !gates_test {
            i = close + 1;
            continue;
        }
        let start = sig[i].start;
        if inner {
            // `#![cfg(test)]`: the whole rest of the file is test code
            regions.push((start, src.len()));
            return regions;
        }
        // skip any further attributes between the cfg and its item
        let mut k = close + 1;
        while is_punct(k, "#") && is_punct(k + 1, "[") {
            match matching(k + 1, "[", "]") {
                Some(c) => k = c + 1,
                None => break,
            }
        }
        // the gated item ends at the matching `}` of its first brace,
        // or at the first top-level `;` (e.g. `#[cfg(test)] use x;`)
        let mut end = src.len();
        let mut m = k;
        while m < sig.len() {
            let t = sig[m];
            if t.kind == TokenKind::Punct {
                let s = text(t);
                if s == ";" {
                    end = t.end;
                    break;
                }
                if s == "{" {
                    end = matching(m, "{", "}").map_or(src.len(), |c| sig[c].end);
                    break;
                }
            }
            m += 1;
        }
        regions.push((start, end));
        // resume scanning after the region
        while i < sig.len() && sig[i].start < end {
            i += 1;
        }
    }
    regions
}

/// The crate a repo-relative path belongs to: `crates/<name>/…` maps to
/// `<name>`, anything else to its first path segment.
#[must_use]
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some(first) => first,
        None => "",
    }
}

/// Lints one file's source, returning raw (un-allowlisted) findings.
#[must_use]
pub fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let regions = test_regions(src, &tokens);
    let in_test = |t: &Token| regions.iter().any(|&(s, e)| t.start >= s && t.start < e);
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let krate = crate_of(path);
    // `crates/<name>/src/…` strips the full crate name; bare `cds-lint`
    // test fixtures pass paths like `core/src/lib.rs` too
    let crate_short = krate.strip_prefix("cds-").unwrap_or(krate);

    let mut out = Vec::new();
    let mut push = |rule: &'static str, t: &Token, token_text: String| {
        let (line, col) = line_col(src, t.start);
        out.push(Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            token: token_text,
            chain: Vec::new(),
        });
    };
    let ident = |i: usize| -> Option<&str> {
        sig.get(i).and_then(|t| (t.kind == TokenKind::Ident).then(|| t.text(src)))
    };
    let punct = |i: usize, c: &str| -> bool {
        sig.get(i).is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == c)
    };

    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        let test = in_test(t);

        // no-hash-on-solve-path
        if !test && HASH_SCOPE.contains(&crate_short) && (name == "HashMap" || name == "HashSet") {
            push("no-hash-on-solve-path", t, name.to_string());
        }

        // no-wall-clock-on-solve-path: `Instant::now` and `SystemTime`
        if !test {
            if name == "Instant"
                && punct(i + 1, ":")
                && punct(i + 2, ":")
                && ident(i + 3) == Some("now")
            {
                push("no-wall-clock-on-solve-path", t, "Instant::now".to_string());
            }
            if name == "SystemTime" {
                push("no-wall-clock-on-solve-path", t, name.to_string());
            }
        }

        // no-rng-outside-instgen
        if !test
            && crate_short != "instgen"
            && matches!(name, "rand" | "Rng" | "StdRng" | "SeedableRng")
        {
            push("no-rng-outside-instgen", t, name.to_string());
        }

        // unsafe-needs-safety-comment: applies to test code too
        if name == "unsafe" && !has_safety_comment(src, &tokens, t.start) {
            push("unsafe-needs-safety-comment", t, name.to_string());
        }

        // no-panic-in-serve
        if !test && crate_short == "serve" {
            let panicky = ((name == "unwrap" || name == "expect") && punct(i + 1, "("))
                || ((name == "panic" || name == "todo") && punct(i + 1, "!"));
            if panicky {
                push("no-panic-in-serve", t, name.to_string());
            }
        }
    }
    out
}

/// Whether the trivia run immediately before the token at `start`
/// contains a comment with `SAFETY:`. Attributes between the comment
/// and the token are not skipped — the comment must sit against the
/// `unsafe` it justifies.
fn has_safety_comment(src: &str, tokens: &[Token], start: usize) -> bool {
    let idx = match tokens.iter().position(|t| t.start == start) {
        Some(i) => i,
        None => return false,
    };
    tokens[..idx].iter().rev().take_while(|t| t.is_trivia()).any(|t| {
        matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && t.text(src).contains("SAFETY:")
    })
}

/// Entry-point patterns for `solve-path-panic-reachability`: the solve
/// kernel, the experiment driver, and every `route_into` definition
/// (the trait default plus each oracle impl — matched by bare name so a
/// new impl is covered the day it is written).
const PANIC_ENTRY_PATTERNS: &[&str] =
    &["Solver::solve_into", "Router::run_checkpointed", "route_into"];

/// Runs the token rules and the whole-workspace reachability rules over
/// `(path, source)` pairs, then applies the allowlist. Stale `[[allow]]`
/// entries land in [`LintReport::stale`], stale `[[hot]]` entries in
/// [`LintReport::stale_hot`], unmatched entry points of a whole-workspace
/// scan in [`LintReport::missing_entries`]; all three fail the run.
#[must_use]
pub fn run_config(files: &[(String, String)], config: &LintConfig) -> LintReport {
    let mut raw: Vec<Finding> = Vec::new();
    for (path, src) in files {
        raw.extend(lint_file(path, src));
    }

    // whole-workspace pass: parse every file once, build the graph
    let models: Vec<FileModel> = files.iter().map(|(_, src)| parser::parse_file(src)).collect();
    let graph = CallGraph::build(&models);
    let finding = |fi: usize, rule: &'static str, pos: usize, token: &str, chain: Vec<String>| {
        let (line, col) = line_col(&files[fi].1, pos);
        Finding { rule, path: files[fi].0.clone(), line, col, token: token.to_string(), chain }
    };

    // solve-path-panic-reachability
    let mut entries = Vec::new();
    let mut missing_entries = Vec::new();
    for &pattern in PANIC_ENTRY_PATTERNS {
        let ids = graph.find(&models, pattern);
        if ids.is_empty() && config.whole_workspace {
            missing_entries.push(pattern);
        }
        entries.extend(ids);
    }
    let parent = graph.reachable(&entries);
    for (fi, m) in models.iter().enumerate() {
        for site in &m.panics {
            if site.has_invariant {
                continue;
            }
            let Some(id) = graph.id_of(fi, site.caller) else { continue };
            if parent[id].is_some() {
                let chain = graph.chain(&models, &parent, id);
                raw.push(finding(
                    fi,
                    "solve-path-panic-reachability",
                    site.pos,
                    &site.token,
                    chain,
                ));
            }
        }
    }

    // steady-state-no-alloc
    let mut stale_hot = Vec::new();
    let mut hot_ids = Vec::new();
    for (idx, h) in config.hot.iter().enumerate() {
        let ids = graph.find(&models, &h.function);
        if ids.is_empty() {
            stale_hot.push(idx);
        } else {
            hot_ids.extend(ids);
        }
    }
    let parent = graph.reachable(&hot_ids);
    for (fi, m) in models.iter().enumerate() {
        for site in &m.allocs {
            let Some(id) = graph.id_of(fi, site.caller) else { continue };
            if parent[id].is_some() {
                let chain = graph.chain(&models, &parent, id);
                raw.push(finding(fi, "steady-state-no-alloc", site.pos, &site.token, chain));
            }
        }
    }

    // no-lock-across-blocking-io: serve crate only
    for (fi, m) in models.iter().enumerate() {
        let krate = crate_of(&files[fi].0);
        if krate.strip_prefix("cds-").unwrap_or(krate) != "serve" {
            continue;
        }
        for site in &m.lock_io {
            let holder =
                format!("{} (guard `{}` live)", m.fns[site.caller].qualified(), site.guard);
            raw.push(finding(
                fi,
                "no-lock-across-blocking-io",
                site.pos,
                &site.token,
                vec![holder],
            ));
        }
    }

    // deterministic output order regardless of which pass found what
    raw.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    let mut report =
        LintReport { files: files.len(), stale_hot, missing_entries, ..LintReport::default() };
    let mut used = vec![false; config.allow.len()];
    for f in raw {
        match config.allow.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                report.suppressed.push((f, i));
            }
            None => report.findings.push(f),
        }
    }
    report.stale = used.iter().enumerate().filter(|(_, &u)| !u).map(|(i, _)| i).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<(String, String)> {
        lint_file(path, src).into_iter().map(|f| (f.rule.to_string(), f.token)).collect()
    }

    #[test]
    fn hash_rule_fires_only_on_solve_path_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u32>; }\n";
        assert_eq!(
            findings("crates/core/src/lib.rs", src),
            vec![
                ("no-hash-on-solve-path".into(), "HashMap".into()),
                ("no-hash-on-solve-path".into(), "HashSet".into()),
            ]
        );
        assert!(findings("crates/serve/src/server.rs", src).is_empty());
        assert!(findings("crates/instgen/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let t = std::time::Instant::now(); }\n}\n";
        assert!(findings("crates/graph/src/lib.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_not_exempt() {
        let src = "#[cfg(test)]\nmod tests { }\nuse std::collections::HashMap;\n";
        assert_eq!(findings("crates/topo/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn cfg_attr_does_not_gate() {
        // cfg_attr(test, …) changes attributes, not compilation — the
        // item still exists in release builds
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn f() { let m: HashMap<u32, u32>; }\n";
        assert_eq!(findings("crates/router/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn inner_cfg_test_gates_the_whole_file() {
        let src = "#![cfg(test)]\nuse std::collections::HashMap;\n";
        assert!(findings("crates/heap/src/lib.rs", src).is_empty());
    }

    #[test]
    fn nested_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    mod inner { fn f() { let m: HashMap<u8, u8>; } }\n}\nfn after() { let s: HashSet<u8>; }\n";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f, vec![("no-hash-on-solve-path".into(), "HashSet".into())]);
    }

    #[test]
    fn wall_clock_rule_catches_now_but_not_the_import() {
        let src = "use std::time::{Duration, Instant};\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(
            findings("crates/delay/src/lib.rs", src),
            vec![("no-wall-clock-on-solve-path".into(), "Instant::now".into())]
        );
        let sys = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
        assert_eq!(findings("crates/delay/src/lib.rs", sys).len(), 2);
    }

    #[test]
    fn rng_rule_exempts_instgen() {
        let src = "use rand::rngs::StdRng;\nuse rand::{Rng, SeedableRng};\n";
        assert!(findings("crates/instgen/src/lib.rs", src).is_empty());
        let hits = findings("crates/core/src/solver.rs", src);
        assert_eq!(hits.len(), 5); // rand, StdRng, rand, Rng, SeedableRng
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            findings("crates/core/src/x.rs", bad),
            vec![("unsafe-needs-safety-comment".into(), "unsafe".into())]
        );
        let good =
            "fn f() {\n    // SAFETY: g upholds its contract because …\n    unsafe { g() }\n}\n";
        assert!(findings("crates/core/src/x.rs", good).is_empty());
        let block = "fn f() {\n    /* SAFETY: sound because … */ unsafe { g() }\n}\n";
        assert!(findings("crates/core/src/x.rs", block).is_empty());
        // a comment with other text between does not count
        let far = "// SAFETY: too far away\nfn f() { unsafe { g() } }\n";
        assert_eq!(findings("crates/core/src/x.rs", far).len(), 1);
    }

    #[test]
    fn panic_rule_is_serve_only_and_skips_lookalikes() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let v = x.unwrap();\n    let w = x.expect(\"w\");\n    if v > w { panic!(\"boom\") } else { todo!() }\n}\n";
        let hits = findings("crates/serve/src/server.rs", src);
        assert_eq!(hits.len(), 4);
        assert!(findings("crates/cli/src/main.rs", src).is_empty());
        // unwrap_or_else / a field named unwrap are different tokens
        let ok = "fn f() { m.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(findings("crates/serve/src/server.rs", ok).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap Instant::now unsafe\nconst S: &str = \"HashMap unsafe panic!\";\nconst R: &str = r#\"SystemTime rand\"#;\n";
        assert!(findings("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_flags_stale() {
        let files = vec![(
            "crates/core/src/a.rs".to_string(),
            "use std::collections::HashMap;\n".to_string(),
        )];
        let mut config = parse_config(
            "[[allow]]\nrule = \"no-hash-on-solve-path\"\npath = \"crates/core/src/a.rs\"\n\
             pattern = \"HashMap\"\nreason = \"test: never iterated\"\n\n\
             [[allow]]\nrule = \"no-panic-in-serve\"\npath = \"crates/serve\"\n\
             pattern = \"unwrap\"\nreason = \"stale on purpose\"\n",
        )
        .expect("parses");
        let report = run_config(&files, &config);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.stale, vec![1]);
        assert!(!report.clean());
        // dropping the stale entry makes it clean
        config.allow.truncate(1);
        let report = run_config(&files, &config);
        assert!(report.clean());
        // dropping the used entry resurfaces the finding
        let report = run_config(&files, &LintConfig::default());
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn allowlist_rejects_bad_entries() {
        assert!(parse_config(
            "[[allow]]\nrule = \"no-such-rule\"\npath = \"x\"\npattern = \"y\"\nreason = \"z\"\n"
        )
        .unwrap_err()
        .contains("unknown rule"));
        assert!(parse_config("[[allow]]\nrule = \"no-panic-in-serve\"\npath = \"x\"\npattern = \"y\"\nreason = \"  \"\n")
            .unwrap_err()
            .contains("empty `reason`"));
        assert!(parse_config(
            "[[allow]]\nrule = \"no-panic-in-serve\"\npath = \"x\"\nreason = \"z\"\n"
        )
        .unwrap_err()
        .contains("missing `pattern`"));
        assert!(parse_config("key = \"outside\"\n").unwrap_err().contains("outside"));
        assert!(parse_config("[[allow]]\nrule = unquoted\n")
            .unwrap_err()
            .contains("double-quoted"));
        // comments and blank lines are fine
        assert_eq!(parse_config("# just a comment\n\n").expect("ok"), LintConfig::default());
    }

    #[test]
    fn a_workspace_scan_without_an_entry_point_fails_and_names_it() {
        // the router's entry renamed away: the proof would silently
        // shrink to what the other two entries reach
        let files = vec![(
            "crates/router/src/lib.rs".to_string(),
            "impl Solver { pub fn solve_into(&self) {} }\n\
             impl Router { pub fn run_renamed(&self) {} }\n\
             impl CdOracle { fn route_into(&self) {} }\n"
                .to_string(),
        )];
        let workspace = LintConfig { whole_workspace: true, ..LintConfig::default() };
        let report = run_config(&files, &workspace);
        assert_eq!(report.missing_entries, vec!["Router::run_checkpointed"]);
        assert!(report.findings.is_empty() && !report.clean());
        // hand-picked files claim nothing about the solve path
        assert!(run_config(&files, &LintConfig::default()).clean());
        // with the entry present the scan is clean again
        let fixed =
            vec![(files[0].0.clone(), files[0].1.replace("run_renamed", "run_checkpointed"))];
        assert!(run_config(&fixed, &workspace).clean());
    }

    #[test]
    fn empty_pattern_matches_any_token_of_the_rule() {
        let files = vec![(
            "crates/core/src/solver.rs".to_string(),
            "use rand::{Rng, SeedableRng};\n".to_string(),
        )];
        let config = parse_config(
            "[[allow]]\nrule = \"no-rng-outside-instgen\"\npath = \"crates/core/src/solver.rs\"\n\
             pattern = \"\"\nreason = \"seeded per request\"\n",
        )
        .expect("parses");
        let report = run_config(&files, &config);
        assert!(report.clean());
        assert_eq!(report.suppressed.len(), 3);
    }
}
