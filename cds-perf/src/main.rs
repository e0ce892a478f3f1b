#![forbid(unsafe_code)]
//! `cds-perf` — the repo's benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! cds-perf bench --workload W --seed N --seconds S --trace 0|1
//! cds-perf run [--seed N] [--seconds S] [--reps R] [--out DIR]
//! cds-perf compare A.json B.json
//! ```
//!
//! * `bench` is the driver protocol: one workload, one run, one JSON
//!   object as the last stdout line (`--trace 0`: every end-to-end
//!   metric from the shipped binaries; `--trace 1`: every per-layer
//!   metric from the traced run). `cds-perf/bench.sh` builds everything
//!   and execs this.
//! * `run` is the one command for people: every workload, `R` untraced
//!   repetitions round-robin (rep 1 of all six, then rep 2, … so
//!   ambient drift spreads evenly) plus one traced run each, every
//!   metric printed by name with its unit, the same written as JSON.
//! * `compare` gives the regression verdict between two `run` outputs.

mod compare;
mod endtoend;
mod json;
mod layers;
mod procs;
mod registry;
mod stats;
mod trace;

use json::{metrics_object, num, Json};
use procs::Bins;
use registry::{workloads, Workload, END_TO_END, PER_LAYER};
use stats::{median, quartiles};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  cds-perf bench --workload NAME --seed N --seconds S --trace 0|1
  cds-perf run [--seed N] [--seconds S] [--reps R] [--out DIR]
  cds-perf compare A.json B.json
  cds-perf manifest            (prints BENCHMARK.json from the registry)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("cds-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "bench" => bench(rest),
        "run" => run(rest),
        "compare" => compare_files(rest),
        "manifest" => {
            print!("{}", registry::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

/// Parsed command line: `--name value` pairs and positionals.
type Flags<'a> = (Vec<(&'a str, &'a str)>, Vec<&'a str>);

/// Splits `--name value` pairs from positionals; unknown flags are errors.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
    let (mut named, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) if known.contains(&name) => {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                named.push((name, v.as_str()));
            }
            Some(name) => return Err(format!("unknown flag --{name}\n{USAGE}")),
            None => positional.push(a.as_str()),
        }
    }
    Ok((named, positional))
}

fn flag<T: std::str::FromStr>(named: &[(&str, &str)], name: &str) -> Result<Option<T>, String> {
    named
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.parse().map_err(|_| format!("bad value {v} for --{name}")))
        .transpose()
}

fn find_workload(name: &str) -> Result<Workload, String> {
    let all = workloads();
    let names: Vec<&str> = all.iter().map(|w| w.name).collect();
    all.into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name} (want one of {})", names.join(", ")))
}

/// The driver's last stdout line.
fn result_line(
    gate: &endtoend::Gate,
    metrics: &[(&'static str, f64)],
    units: &dyn Fn(&str) -> &'static str,
) -> String {
    let with_units: Vec<(&str, f64, &str)> =
        metrics.iter().map(|(n, v)| (*n, *v, units(n))).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.correct(),
        gate.attempted,
        gate.failed,
        metrics_object(&with_units)
    )
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

fn print_metrics(metrics: &[(&'static str, f64)], units: &dyn Fn(&str) -> &'static str) {
    for (name, value) in metrics {
        println!("  {name:<30} {value:>16.6} {}", units(name));
    }
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let (named, positional) = flags(args, &["workload", "seed", "seconds", "trace"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {}\n{USAGE}", positional[0]));
    }
    let name: String = flag(&named, "workload")?.ok_or("bench needs --workload")?;
    let w = find_workload(&name)?;
    let seed: u64 = flag(&named, "seed")?.unwrap_or(1);
    let seconds: f64 = flag(&named, "seconds")?.unwrap_or(f64::from(registry::RUN_SECONDS));
    let traced = match flag::<u8>(&named, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let bins = Bins::locate()?;
    let (gate, line) = if traced {
        let r = layers::run(&bins, &w, seed, seconds)?;
        // one file per workload, overwritten: traces run to megabytes
        let path = bins.work.join(format!("{}.trace.jsonl", w.name));
        std::fs::write(&path, r.tracer.to_jsonl(w.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{} seed {seed} traced: {} spans → {}",
            w.name,
            r.tracer.spans().len(),
            path.display()
        );
        print_metrics(&r.metrics, &layer_unit);
        println!("  {:<24} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
        for (name, count, total, own) in trace::summary(r.tracer.spans()) {
            println!(
                "  {name:<24} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let line = result_line(&r.gate, &r.metrics, &layer_unit);
        (r.gate, line)
    } else {
        let r = endtoend::run(&bins, &w, seed, seconds)?;
        println!("{} seed {seed} untraced: checksums {:?}", w.name, r.checksums);
        print_metrics(&r.metrics, &e2e_unit);
        let line = result_line(&r.gate, &r.metrics, &e2e_unit);
        (r.gate, line)
    };
    for p in &gate.problems {
        println!("  FAILED: {p}");
    }
    println!("{line}");
    // the line above is the result; a failed op is reported through it
    Ok(ExitCode::SUCCESS)
}

/// Everything `run` learned about one workload.
#[derive(Default)]
struct WorkloadRecord {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    checksums: Vec<String>,
    counters: Vec<(&'static str, f64)>,
    /// per end-to-end metric, one value per repetition
    end_to_end: Vec<(&'static str, Vec<f64>)>,
    per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadRecord {
    fn absorb_gate(&mut self, gate: endtoend::Gate) {
        self.attempted += gate.attempted;
        self.failed += gate.failed;
        self.problems.extend(gate.problems);
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (named, positional) = flags(args, &["seed", "seconds", "reps", "out"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {}\n{USAGE}", positional[0]));
    }
    let seed: u64 = flag(&named, "seed")?.unwrap_or(1);
    let seconds: f64 = flag(&named, "seconds")?.unwrap_or(f64::from(registry::RUN_SECONDS));
    let reps: usize = flag(&named, "reps")?.unwrap_or(5);
    if reps == 0 || seconds.is_nan() || seconds <= 0.0 {
        return Err("--reps and --seconds must be positive".into());
    }
    let bins = Bins::locate()?;
    bins.check_fresh(Path::new("."))?;
    let out_dir: PathBuf = flag::<String>(&named, "out")?
        .map_or_else(|| bins.work.with_file_name("cds-perf-out"), PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let all = workloads();
    let mut records: Vec<WorkloadRecord> = all.iter().map(|_| WorkloadRecord::default()).collect();
    for rep in 0..reps {
        for (w, rec) in all.iter().zip(&mut records) {
            eprintln!("rep {}/{reps}: {}", rep + 1, w.name);
            let r = endtoend::run(&bins, w, seed, seconds)?;
            if rep == 0 {
                rec.checksums = r.checksums;
                rec.counters = r.counters;
                rec.end_to_end = r.metrics.iter().map(|(n, _)| (*n, Vec::new())).collect();
            } else if rec.checksums != r.checksums {
                rec.failed += 1;
                rec.problems.push("checksum differs between repetitions".into());
            }
            for ((_, values), (_, v)) in rec.end_to_end.iter_mut().zip(&r.metrics) {
                values.push(*v);
            }
            rec.absorb_gate(r.gate);
        }
    }
    for (w, rec) in all.iter().zip(&mut records) {
        eprintln!("traced: {}", w.name);
        let r = layers::run(&bins, w, seed, seconds)?;
        let path = out_dir.join(format!("{}.trace.jsonl", w.name));
        std::fs::write(&path, r.tracer.to_jsonl(w.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rec.per_layer = r.metrics;
        rec.absorb_gate(r.gate);
    }
    // deep_t2 routes deep_t1's document: one checksum
    let sum_of =
        |name: &str| all.iter().position(|w| w.name == name).map(|i| records[i].checksums.clone());
    if sum_of("deep_t1") != sum_of("deep_t2") {
        let t2 = all.iter().position(|w| w.name == "deep_t2").expect("deep_t2 is registered");
        records[t2].failed += 1;
        records[t2].problems.push("deep_t2 does not reproduce deep_t1's checksum".into());
    }

    let mut failed = 0;
    for (w, rec) in all.iter().zip(&records) {
        println!(
            "{} — {} ops, {} failed, checksums {:?}",
            w.name, rec.attempted, rec.failed, rec.checksums
        );
        for (name, values) in &rec.end_to_end {
            let (q1, q3) = quartiles(values);
            println!(
                "  {name:<30} {:>16.6} {:<6} [{q1:.6}, {q3:.6}] (n={})",
                median(values),
                e2e_unit(name),
                values.len()
            );
        }
        print_metrics(&rec.per_layer, &layer_unit);
        for p in &rec.problems {
            println!("  FAILED: {p}");
        }
        failed += rec.failed;
    }
    let path = out_dir.join("results.json");
    std::fs::write(&path, results_json(seed, seconds, reps, &all, &records))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ops_failed = {failed}; wrote {}", path.display());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn results_json(
    seed: u64,
    seconds: f64,
    reps: usize,
    all: &[Workload],
    records: &[WorkloadRecord],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\n  \"schema\": \"cds-perf/1\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"reps\": {reps},\n  \
         \"nproc\": {nproc},\n  \"rustc\": \"{}\",\n  \"workloads\": {{",
        num(seconds),
        rustc_version()
    );
    for (i, (w, rec)) in all.iter().zip(records).enumerate() {
        let list = |items: Vec<String>| items.join(", ");
        let _ = writeln!(s, "    \"{}\": {{", w.name);
        let _ = writeln!(
            s,
            "      \"ops_attempted\": {}, \"ops_failed\": {},",
            rec.attempted, rec.failed
        );
        let _ = writeln!(
            s,
            "      \"checksums\": [{}],",
            list(rec.checksums.iter().map(|c| format!("\"{c}\"")).collect())
        );
        let _ = writeln!(
            s,
            "      \"counters\": {{{}}},",
            list(rec.counters.iter().map(|(n, v)| format!("\"{n}\": {}", num(*v))).collect())
        );
        let _ = writeln!(s, "      \"end_to_end\": {{");
        for (k, (name, values)) in rec.end_to_end.iter().enumerate() {
            let (q1, q3) = quartiles(values);
            let _ = writeln!(
                s,
                "        \"{name}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
                 \"values\": [{}]}}{}",
                e2e_unit(name),
                num(median(values)),
                num(q1),
                num(q3),
                values.len(),
                list(values.iter().map(|v| num(*v)).collect()),
                if k + 1 < rec.end_to_end.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      }},");
        let with_units: Vec<(&str, f64, &str)> =
            rec.per_layer.iter().map(|(n, v)| (*n, *v, layer_unit(n))).collect();
        let _ = writeln!(s, "      \"per_layer\": {}", metrics_object(&with_units));
        let _ = writeln!(s, "    }}{}", if i + 1 < all.len() { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    debug_assert!(Json::parse(&s).is_ok(), "results.json must be JSON");
    s
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, worse, _, _) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
